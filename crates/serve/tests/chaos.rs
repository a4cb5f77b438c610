//! Service-chaos suite: host faults injected through the
//! [`ServiceConfig::runner`] seam — panicking leaders, slow jobs, torn
//! disk writes, overload — must all resolve to *typed* completions
//! within the watchdog bound. No submitter ever hangs, host-side
//! outcomes are never cached, and corrupt cache entries re-simulate
//! byte-identically.

use dta_core::{run_job, JobError, ObsMode, SimJob, SystemConfig};
use dta_serve::{CacheStatus, Runner, Service, ServiceConfig};
use dta_workloads::{vecscale, Variant};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-key fault injected around the real simulator.
enum Behavior {
    /// Every execution attempt of this key panics.
    PanicAlways(&'static str),
    /// The first `n` attempts panic; later attempts run for real.
    PanicFirst(AtomicU32),
    /// Sleep before running for real; `started` flips once the
    /// execution is underway (so tests can coalesce onto it reliably).
    Sleep { ms: u64, started: Arc<AtomicBool> },
}

/// Wraps the real simulator with a fault table keyed by job key.
fn chaos_runner(table: HashMap<u128, Behavior>) -> Arc<Runner> {
    Arc::new(move |job: &SimJob| {
        match table.get(&job.key().0) {
            Some(Behavior::PanicAlways(msg)) => panic!("{msg}"),
            Some(Behavior::PanicFirst(left))
                if left
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    .is_ok() =>
            {
                panic!("injected first-attempt panic");
            }
            Some(Behavior::Sleep { ms, started }) => {
                started.store(true, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(*ms));
            }
            // Exhausted PanicFirst countdowns and untabled keys run
            // for real.
            _ => {}
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
    let table = HashMap::from([(j.key().0, Behavior::PanicAlways("chaos: leader down"))]);
    let service = service_with(
        chaos_runner(table),
        ServiceConfig {
            max_attempts: 2,
            retry_backoff: Duration::from_millis(1),
            ..ServiceConfig::default()
        },
    );

    let started = Instant::now();
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
    assert!(started.elapsed() < Duration::from_secs(60));
    for done in &outcomes {
        match &done.result.outcome {
            Err(JobError::HostPanic { message, attempts }) => {
                assert_eq!(message, "chaos: leader down");
                assert!(*attempts >= 1);
            }
            other => panic!("expected HostPanic, got {other:?}"),
        }
    }
    let health = service.health();
    assert!(health.host_panics >= 2, "both attempts of a flight panic");
    assert_eq!(
        health.host_panics, health.executions,
        "every execution of this key panicked"
    );

    // The service itself survived: a different (healthy) job runs fine.
    let ok = service.submit(&job(100));
    assert!(ok.result.outcome.is_ok());
    assert_eq!(ok.status, CacheStatus::Miss);
}

#[test]
fn leader_failover_elects_waiter_and_recovers_byte_identically() {
    let j = job(128);
    let reference = run_job(&j).canonical_string();
    let table = HashMap::from([(j.key().0, Behavior::PanicFirst(AtomicU32::new(1)))]);
    let service = service_with(
        chaos_runner(table),
        ServiceConfig {
            retry_backoff: Duration::from_millis(1),
            ..ServiceConfig::default()
        },
    );

    let outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (service, j) = (&service, &j);
                s.spawn(move || service.submit(j))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Attempt 1 panicked, the elected successor re-ran it, and every
    // submitter — including the fallen leader — got the real result.
    for done in &outcomes {
        assert!(done.result.outcome.is_ok(), "failover must recover");
        assert_eq!(done.result.canonical_string(), reference);
    }
    let health = service.health();
    assert_eq!(health.host_panics, 1);
    assert_eq!(health.retries, 1, "exactly one re-execution");
    assert_eq!(health.executions, 2, "panicking attempt + recovery");

    // The recovered (deterministic) result was cached normally.
    let again = service.submit(&j);
    assert_eq!(again.status, CacheStatus::Memory);
    assert_eq!(again.result.canonical_string(), reference);
}

#[test]
fn deadline_exceeded_is_typed_and_nothing_cached_at_expiry() {
    let j = job(64);
    let dir = scratch("deadline");
    let table = HashMap::from([(
        j.key().0,
        Behavior::Sleep {
            ms: 250,
            started: Arc::new(AtomicBool::new(false)),
        },
    )]);
    let service = service_with(
        chaos_runner(table),
        ServiceConfig {
            disk_dir: Some(dir.clone()),
            deadline: Some(Duration::from_millis(25)),
            ..ServiceConfig::default()
        },
    );

    let done = service.submit(&j);
    match &done.result.outcome {
        Err(JobError::Timeout { budget_ms, .. }) => assert_eq!(*budget_ms, 25),
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert_eq!(service.health().timeouts, 1);
    // Nothing was cached at expiry: no disk entry, no memory entry.
    let entry = dir.join(format!("{}.json", j.key().hex()));
    assert!(!entry.exists(), "host-side timeout must not be cached");

    // The abandoned execution finishes deterministically ~225ms later
    // and is banked — future submitters hit the cache.
    let wait_start = Instant::now();
    while service.health().late_results == 0 {
        assert!(
            wait_start.elapsed() < Duration::from_secs(10),
            "late result never banked"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let again = service.submit_with_deadline(&j, None);
    assert!(again.result.outcome.is_ok());
    assert_eq!(again.status, CacheStatus::Memory);
    assert_eq!(
        service.stats().executed,
        1,
        "the banked run is reused, not re-executed"
    );
    assert!(entry.exists(), "late result reaches the disk store too");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wait_watchdog_unsticks_coalesced_waiters() {
    let j = job(80);
    let started = Arc::new(AtomicBool::new(false));
    let table = HashMap::from([(
        j.key().0,
        Behavior::Sleep {
            ms: 400,
            started: Arc::clone(&started),
        },
    )]);
    let service = service_with(
        chaos_runner(table),
        ServiceConfig {
            wait_watchdog: Duration::from_millis(50),
            ..ServiceConfig::default()
        },
    );

    std::thread::scope(|s| {
        let leader = s.spawn(|| service.submit(&j));
        // Coalesce only once the leader is genuinely executing.
        while !started.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let waited = Instant::now();
        let follower = service.submit(&j);
        assert!(
            waited.elapsed() < Duration::from_millis(300),
            "watchdog must release the waiter long before the leader finishes"
        );
        match &follower.result.outcome {
            Err(JobError::Timeout { message, .. }) => {
                assert!(message.contains("watchdog"), "typed watchdog timeout")
            }
            other => panic!("expected watchdog Timeout, got {other:?}"),
        }
        assert_eq!(follower.status, CacheStatus::Coalesced);
        // The slow leader still completes normally.
        let led = leader.join().unwrap();
        assert!(led.result.outcome.is_ok());
    });
    assert_eq!(service.health().watchdog_trips, 1);
}

#[test]
fn saturated_admission_sheds_with_typed_overloaded() {
    let (j1, j2) = (job(72), job(76));
    let started = Arc::new(AtomicBool::new(false));
    let table = HashMap::from([(
        j1.key().0,
        Behavior::Sleep {
            ms: 200,
            started: Arc::clone(&started),
        },
    )]);
    let service = service_with(
        chaos_runner(table),
        ServiceConfig {
            max_running: 1,
            max_queued: 0,
            ..ServiceConfig::default()
        },
    );

    std::thread::scope(|s| {
        let slow = s.spawn(|| service.submit(&j1));
        while !started.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The only execution slot is busy and the queue holds zero:
        // a distinct job is shed immediately, not blocked.
        let shed = service.submit(&j2);
        match &shed.result.outcome {
            Err(JobError::Overloaded { limit, .. }) => assert_eq!(*limit, 0),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(slow.join().unwrap().result.outcome.is_ok());
    });
    assert_eq!(service.health().sheds, 1);

    // Overload is a host-side verdict — never cached. With the slot
    // free again the same job now runs for real.
    let retry = service.submit(&j2);
    assert!(retry.result.outcome.is_ok());
    assert_eq!(retry.status, CacheStatus::Miss);
}

#[test]
fn run_grid_completes_despite_a_panicking_point() {
    let jobs: Vec<SimJob> = (0..4).map(|i| job(40 + 8 * i)).collect();
    let table = HashMap::from([(jobs[2].key().0, Behavior::PanicAlways("chaos: grid point"))]);
    let service = service_with(
        chaos_runner(table),
        ServiceConfig {
            threads: 4,
            max_attempts: 1,
            ..ServiceConfig::default()
        },
    );

    let completions = service.run_grid(&jobs);
    assert_eq!(completions.len(), 4);
    for (i, done) in completions.iter().enumerate() {
        if i == 2 {
            match &done.result.outcome {
                Err(JobError::HostPanic { message, attempts }) => {
                    assert_eq!(message, "chaos: grid point");
                    assert_eq!(*attempts, 1);
                }
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
    let table = HashMap::from([(flaky.key().0, Behavior::PanicAlways("chaos: flaky"))]);
    let chaotic = service_with(
        chaos_runner(table),
        ServiceConfig {
            disk_dir: Some(dir.clone()),
            max_attempts: 1,
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

/// Seeded end-to-end mix: a grid of healthy, panicking, and slow jobs
/// under a deadline. Everything resolves typed; nothing hangs.
#[test]
fn seeded_chaos_grid_resolves_every_point_typed() {
    const SEED: u64 = 0xC0FFEE;
    let mut rng = SEED;
    let mut step = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) % 3
    };

    let jobs: Vec<SimJob> = (0..12).map(|i| job(32 + 8 * i)).collect();
    let mut table = HashMap::new();
    let mut kinds = Vec::new(); // 0 = healthy, 1 = panics, 2 = slow
    for j in &jobs {
        let kind = step();
        kinds.push(kind);
        match kind {
            1 => {
                table.insert(j.key().0, Behavior::PanicAlways("chaos: seeded"));
            }
            2 => {
                table.insert(
                    j.key().0,
                    Behavior::Sleep {
                        ms: 400,
                        started: Arc::new(AtomicBool::new(false)),
                    },
                );
            }
            _ => {}
        }
    }
    assert!(
        kinds.contains(&1) && kinds.contains(&2),
        "seed covers all kinds"
    );

    let service = service_with(
        chaos_runner(table),
        ServiceConfig {
            threads: 4,
            deadline: Some(Duration::from_millis(100)),
            max_attempts: 2,
            retry_backoff: Duration::from_millis(1),
            wait_watchdog: Duration::from_secs(30),
            ..ServiceConfig::default()
        },
    );

    let started = Instant::now();
    let completions = service.run_grid(&jobs);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the grid resolves well inside the watchdog bound"
    );
    assert_eq!(completions.len(), 12);
    for (i, done) in completions.iter().enumerate() {
        match kinds[i] {
            1 => assert!(
                matches!(done.result.outcome, Err(JobError::HostPanic { .. })),
                "point {i} must be a typed HostPanic"
            ),
            2 => assert!(
                matches!(done.result.outcome, Err(JobError::Timeout { .. })),
                "point {i} must be a typed Timeout"
            ),
            _ => assert!(done.result.outcome.is_ok(), "point {i} must succeed"),
        }
    }
    let health = service.health();
    assert_eq!(health.executions, service.stats().executed);
    assert_eq!(
        health.timeouts as usize,
        kinds.iter().filter(|&&k| k == 2).count()
    );
    assert!(health.host_panics >= kinds.iter().filter(|&&k| k == 1).count() as u64);
}
