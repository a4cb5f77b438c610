//! In-flight dedup suite: the same job submitted N times concurrently
//! simulates once, and every submitter receives the full, identical
//! observability stream.

use dta_core::{ObsMode, ObsRecord, SimJob, SystemConfig};
use dta_serve::{CacheStatus, Completion, Service};
use dta_workloads::{vecscale, Variant};
use std::sync::Arc;

fn obs_job() -> SimJob {
    let mut cfg = SystemConfig::with_pes(4);
    cfg.obs.mode = ObsMode::Events;
    let wp = vecscale::build(128, 8, Variant::HandPrefetch);
    SimJob::new(Arc::new(wp.program), wp.args, cfg)
}

/// The records of a completion's observability stream.
fn records(done: &Completion) -> &[ObsRecord] {
    &done
        .result
        .outcome
        .as_ref()
        .expect("vecscale succeeds")
        .obs
        .as_ref()
        .expect("events on")
        .records
}

#[test]
fn n_concurrent_submissions_simulate_once_with_identical_streams() {
    const N: usize = 8;
    let service = Service::in_memory(1);
    let job = obs_job();

    let completions: Vec<Completion> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let service = &service;
                let job = &job;
                s.spawn(move || service.submit(job))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Executor ran exactly once; every other submission was a hit or
    // coalesced onto the leader's flight.
    let stats = service.stats();
    assert_eq!(stats.submitted, N as u64);
    assert_eq!(stats.executed, 1, "N identical jobs must simulate once");
    assert_eq!(
        stats.hits_memory + stats.coalesced,
        (N - 1) as u64,
        "everyone but the leader is served without simulating"
    );
    assert_eq!(
        completions
            .iter()
            .filter(|c| c.status == CacheStatus::Miss)
            .count(),
        1,
        "exactly one leader"
    );

    // Every submitter got the full stream and the same result as a
    // later reference submission.
    let reference = service.submit(&job);
    assert!(!records(&reference).is_empty());
    let canonical = reference.result.canonical_string();
    for (i, done) in completions.iter().enumerate() {
        assert_eq!(
            records(done),
            records(&reference),
            "submitter {i} ({:?}) must see the full identical stream",
            done.status
        );
        assert_eq!(done.result.canonical_string(), canonical, "submitter {i}");
    }
}

#[test]
fn duplicate_points_inside_one_grid_simulate_once() {
    let service = Service::in_memory(4);
    let job = obs_job();
    let grid: Vec<SimJob> = (0..6).map(|_| job.clone()).collect();

    let completions = service.run_grid(&grid);
    assert_eq!(completions.len(), 6);
    assert_eq!(service.stats().executed, 1);
    let reference = completions[0].result.canonical_string();
    for c in &completions {
        assert_eq!(c.result.canonical_string(), reference);
    }
}

#[test]
fn distinct_points_in_a_grid_all_simulate() {
    let service = Service::in_memory(4);
    let grid: Vec<SimJob> = (1..=4)
        .map(|pes| {
            let mut cfg = SystemConfig::with_pes(pes);
            cfg.obs.mode = ObsMode::Off;
            let wp = vecscale::build(64, 4, Variant::Baseline);
            SimJob::new(Arc::new(wp.program), wp.args, cfg)
        })
        .collect();
    let completions = service.run_grid(&grid);
    assert_eq!(service.stats().executed, 4);
    assert!(completions.iter().all(|c| c.status == CacheStatus::Miss));
    // PE count is in the key, so all four results are distinct.
    let keys: std::collections::HashSet<_> = completions.iter().map(|c| c.result.key).collect();
    assert_eq!(keys.len(), 4);
}
