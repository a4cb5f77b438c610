//! Property suite for the content-addressed result cache.
//!
//! Pins the three cache-correctness contracts:
//!
//! 1. identical jobs hit the cache with **byte-identical** canonical
//!    `JobResult`s;
//! 2. any single behavioural field perturbation (fault seed, ppm, PE
//!    count, argument) changes the `JobKey`;
//! 3. cached replay of a faulting job returns the same typed error,
//!    from memory and from disk.

use dta_core::{FaultPlan, JobError, ObsMode, SimJob, SystemConfig};
use dta_serve::{CacheStatus, Service};
use dta_workloads::{vecscale, Variant};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

fn base_config(pes: u16) -> SystemConfig {
    let mut cfg = SystemConfig::with_pes(pes);
    cfg.obs.mode = ObsMode::Events;
    cfg.obs.stream_interval = 128;
    cfg
}

fn job_with(cfg: SystemConfig) -> SimJob {
    let wp = vecscale::build(64, 4, Variant::HandPrefetch);
    SimJob::new(Arc::new(wp.program), wp.args, cfg)
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dta-serve-test-{tag}-{}", std::process::id()))
}

#[test]
fn identical_jobs_hit_cache_byte_identical() {
    let job = job_with(base_config(4));
    let service = Service::in_memory(1);

    let cold = service.submit(&job);
    assert_eq!(cold.status, CacheStatus::Miss);
    let warm = service.submit(&job);
    assert_eq!(
        warm.status,
        CacheStatus::Memory,
        "second submission must hit"
    );
    assert_eq!(
        warm.result.canonical_string(),
        cold.result.canonical_string(),
        "cached result must be byte-identical"
    );
}

#[test]
fn any_single_field_perturbation_changes_the_key() {
    let mut cfg = base_config(4);
    cfg.faults = Some(FaultPlan::seeded(7));
    let base = job_with(cfg);

    let mut variants: Vec<(&str, SimJob)> = vec![("base", base.clone())];

    let mut j = base.clone();
    j.config.faults.as_mut().unwrap().seed = 8;
    variants.push(("fault seed", j));

    let mut j = base.clone();
    j.config.faults.as_mut().unwrap().seed = u64::MAX; // full-width seed
    variants.push(("full-width fault seed", j));

    let mut j = base.clone();
    j.config.faults.as_mut().unwrap().dma_fail_ppm = 100;
    variants.push(("dma_fail_ppm", j));

    let mut j = base.clone();
    j.config.faults.as_mut().unwrap().msg_drop_ppm = 50;
    variants.push(("msg_drop_ppm", j));

    let mut j = base.clone();
    j.config.pes_per_node = 8;
    variants.push(("PE count", j));

    let mut j = base.clone();
    j.args.push(1); // vecscale takes no host args; adding one still perturbs
    variants.push(("argument", j));

    let mut j = base.clone();
    j.config.max_cycles -= 1;
    variants.push(("max_cycles", j));

    let mut seen = HashSet::new();
    for (what, job) in &variants {
        assert!(
            seen.insert(job.key()),
            "perturbing {what} must change the JobKey"
        );
    }
    // And the key is a pure function of content: recomputing matches.
    assert_eq!(base.key(), variants[0].1.key());
}

#[test]
fn faulting_job_replays_the_same_typed_error() {
    let mut cfg = base_config(2);
    cfg.max_cycles = 500; // far below what the workload needs
    let job = job_with(cfg);
    let service = Service::in_memory(1);

    let cold = service.submit(&job);
    assert_eq!(cold.status, CacheStatus::Miss);
    let err = cold
        .result
        .outcome
        .as_ref()
        .expect_err("500-cycle budget must trip");
    assert!(
        matches!(err, JobError::CycleLimit { cycle: 500, .. }),
        "expected a typed CycleLimit, got: {err}"
    );

    let warm = service.submit(&job);
    assert_eq!(warm.status, CacheStatus::Memory);
    assert_eq!(warm.result.outcome.as_ref().err(), Some(err));
    assert_eq!(
        service.stats().executed,
        1,
        "the error was cached, not re-run"
    );
}

#[test]
fn disk_store_replays_byte_identical_results_across_services() {
    let dir = scratch_dir("disk");
    std::fs::remove_dir_all(&dir).ok();

    let job = job_with(base_config(2));
    let cold_bytes;
    {
        let service = Service::with_disk(1, &dir);
        let cold = service.submit(&job);
        assert_eq!(cold.status, CacheStatus::Miss);
        cold_bytes = cold.result.canonical_string();
    }

    // A fresh service over the same store: first submission is a disk
    // hit, byte-identical to the cold run; the next is a memory hit
    // (disk entries promote).
    let service = Service::with_disk(1, &dir);
    let disk = service.submit(&job);
    assert_eq!(disk.status, CacheStatus::Disk);
    assert_eq!(disk.result.canonical_string(), cold_bytes);
    let mem = service.submit(&job);
    assert_eq!(mem.status, CacheStatus::Memory);
    assert_eq!(service.stats().executed, 0, "nothing re-simulated");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disk_store_caches_faulting_jobs_too() {
    let dir = scratch_dir("disk-err");
    std::fs::remove_dir_all(&dir).ok();

    let mut cfg = base_config(2);
    cfg.max_cycles = 500;
    let job = job_with(cfg);
    let expected = {
        let service = Service::with_disk(1, &dir);
        service.submit(&job).result.outcome.clone().unwrap_err()
    };

    let service = Service::with_disk(1, &dir);
    let replay = service.submit(&job);
    assert_eq!(replay.status, CacheStatus::Disk);
    assert_eq!(replay.result.outcome.as_ref().err(), Some(&expected));

    std::fs::remove_dir_all(&dir).ok();
}
