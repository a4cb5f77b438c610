//! Service-chaos suite: host faults injected through the
//! [`ServiceConfig::runner`] seam — panicking leaders and torn disk
//! writes — must all resolve to *typed* completions. No submitter ever
//! hangs, host-side outcomes are never cached, and corrupt cache entries
//! re-simulate byte-identically.

use dta_core::{run_job, JobError, ObsMode, SimJob, SystemConfig};
use dta_serve::{CacheStatus, Runner, Service, ServiceConfig};
use dta_workloads::{vecscale, Variant};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wraps the real simulator: every execution of a tabled key panics
/// with that key's message.
fn chaos_runner(panics: HashMap<u128, &'static str>) -> Arc<Runner> {
    Arc::new(move |job: &SimJob| {
        if let Some(msg) = panics.get(&job.key().0) {
            panic!("{msg}");
        }
        run_job(job)
    })
}

/// A small, fast, deterministic job; distinct `n` gives a distinct key.
fn job(n: usize) -> SimJob {
    let mut cfg = SystemConfig::with_pes(2);
    cfg.obs.mode = ObsMode::Off;
    let wp = vecscale::build(n, 4, Variant::Baseline);
    SimJob::new(Arc::new(wp.program), wp.args, cfg)
}

/// Fresh scratch directory for disk-store tests.
fn scratch(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dta-serve-chaos-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service_with(runner: Arc<Runner>, config: ServiceConfig) -> Service {
    Service::new(ServiceConfig {
        runner: Some(runner),
        ..config
    })
}

#[test]
fn panicking_leader_resolves_every_coalesced_waiter() {
    let j = job(96);
    let table = HashMap::from([(j.key().0, "chaos: leader down")]);
    let service = service_with(chaos_runner(table), ServiceConfig::default());

    let outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let (service, j) = (&service, &j);
                s.spawn(move || service.submit(j))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every submitter resolved (the scope returning at all proves no
    // hang) to a typed HostPanic carrying the injected message.
    for done in &outcomes {
        match &done.result.outcome {
            Err(JobError::HostPanic { message }) => assert_eq!(message, "chaos: leader down"),
            other => panic!("expected HostPanic, got {other:?}"),
        }
    }
    // Each flight ran once. A panic is never cached, so a submitter that
    // arrived after a flight resolved led a flight of its own.
    let health = service.health();
    assert!(health.executions >= 1);
    assert_eq!(
        health.host_panics, health.executions,
        "every execution of this key panicked"
    );
    assert_eq!(health.executions + health.coalesced_waits, 6);

    // The service itself survived: a different (healthy) job runs fine.
    let ok = service.submit(&job(100));
    assert!(ok.result.outcome.is_ok());
    assert_eq!(ok.status, CacheStatus::Miss);
}

#[test]
fn run_grid_completes_despite_a_panicking_point() {
    let jobs: Vec<SimJob> = (0..4).map(|i| job(40 + 8 * i)).collect();
    let table = HashMap::from([(jobs[2].key().0, "chaos: grid point")]);
    let service = service_with(
        chaos_runner(table),
        ServiceConfig {
            threads: 4,
            ..ServiceConfig::default()
        },
    );

    let completions = service.run_grid(&jobs);
    assert_eq!(completions.len(), 4);
    for (i, done) in completions.iter().enumerate() {
        if i == 2 {
            match &done.result.outcome {
                Err(JobError::HostPanic { message }) => assert_eq!(message, "chaos: grid point"),
                other => panic!("expected HostPanic, got {other:?}"),
            }
        } else {
            assert!(done.result.outcome.is_ok(), "healthy points complete");
        }
    }
}

#[test]
fn deterministic_errors_cache_but_host_outcomes_never_do() {
    let dir = scratch("determ");
    // CycleLimit is *deterministic* (part of the simulated contract):
    // it caches like any result.
    let mut limited = job(56);
    limited.config.max_cycles = 1;
    let service = Service::with_disk(1, &dir);
    let first = service.submit(&limited);
    assert!(matches!(
        first.result.outcome,
        Err(JobError::CycleLimit { .. })
    ));
    assert_eq!(first.status, CacheStatus::Miss);
    let second = service.submit(&limited);
    assert_eq!(second.status, CacheStatus::Memory);
    assert!(dir.join(format!("{}.json", limited.key().hex())).exists());

    // HostPanic is host-side: re-submission re-executes every time.
    let flaky = job(60);
    let table = HashMap::from([(flaky.key().0, "chaos: flaky")]);
    let chaotic = service_with(
        chaos_runner(table),
        ServiceConfig {
            disk_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        },
    );
    for _ in 0..2 {
        let done = chaotic.submit(&flaky);
        assert!(matches!(
            done.result.outcome,
            Err(JobError::HostPanic { .. })
        ));
    }
    assert_eq!(chaotic.stats().executed, 2, "panics are never cached");
    assert!(!dir.join(format!("{}.json", flaky.key().hex())).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupts one stored entry with `mutate`, then proves quarantine +
/// byte-identical re-simulation + a repaired store.
fn corruption_round_trip(tag: &str, mutate: impl Fn(&mut Vec<u8>)) {
    let dir = scratch(tag);
    let j = job(112);
    let entry = dir.join(format!("{}.json", j.key().hex()));

    let reference = {
        let writer = Service::with_disk(1, &dir);
        let done = writer.submit(&j);
        assert!(entry.exists());
        done.result.canonical_string()
    };

    let mut bytes = std::fs::read(&entry).unwrap();
    mutate(&mut bytes);
    std::fs::write(&entry, &bytes).unwrap();

    // A fresh service quarantines the corrupt entry, re-simulates, and
    // the result is byte-identical to the original.
    let reader = Service::with_disk(1, &dir);
    let done = reader.submit(&j);
    assert_eq!(done.status, CacheStatus::Miss, "corrupt entry never served");
    assert_eq!(done.result.canonical_string(), reference);
    let health = reader.health();
    assert_eq!(health.quarantines, 1);
    assert!(!health.disk_degraded, "corruption is not an I/O failure");
    let quarantined = std::fs::read_dir(dir.join("quarantine")).unwrap().count();
    assert_eq!(quarantined, 1, "the bad entry is kept for inspection");

    // Re-simulation re-stored a valid entry: the next service disk-hits.
    let repaired = Service::with_disk(1, &dir);
    let again = repaired.submit(&j);
    assert_eq!(again.status, CacheStatus::Disk);
    assert_eq!(again.result.canonical_string(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_disk_entry_quarantines_and_resimulates() {
    corruption_round_trip("torn", |bytes| {
        let keep = bytes.len() / 2;
        bytes.truncate(keep);
    });
}

#[test]
fn bit_flipped_disk_entry_quarantines_and_resimulates() {
    corruption_round_trip("flip", |bytes| {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
    });
}

/// Seeded end-to-end mix: a grid of healthy and panicking jobs.
/// Everything resolves typed; nothing hangs.
#[test]
fn seeded_chaos_grid_resolves_every_point_typed() {
    const SEED: u64 = 0xC0FFEE;
    let mut rng = SEED;
    let mut panics = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) % 2 == 1
    };

    let jobs: Vec<SimJob> = (0..12).map(|i| job(32 + 8 * i)).collect();
    let kinds: Vec<bool> = jobs.iter().map(|_| panics()).collect();
    let table: HashMap<u128, &'static str> = jobs
        .iter()
        .zip(&kinds)
        .filter(|&(_, &p)| p)
        .map(|(j, _)| (j.key().0, "chaos: seeded"))
        .collect();
    assert!(
        kinds.contains(&true) && kinds.contains(&false),
        "seed covers both kinds"
    );

    let service = service_with(
        chaos_runner(table),
        ServiceConfig {
            threads: 4,
            ..ServiceConfig::default()
        },
    );

    let completions = service.run_grid(&jobs);
    assert_eq!(completions.len(), 12);
    for (i, done) in completions.iter().enumerate() {
        if kinds[i] {
            assert!(
                matches!(done.result.outcome, Err(JobError::HostPanic { .. })),
                "point {i} must be a typed HostPanic"
            );
        } else {
            assert!(done.result.outcome.is_ok(), "point {i} must succeed");
        }
    }
    // Distinct points: one execution each, and exactly the panicking
    // ones counted as host panics.
    let health = service.health();
    assert_eq!(health.executions, 12);
    assert_eq!(
        health.host_panics as usize,
        kinds.iter().filter(|&&p| p).count()
    );
}
