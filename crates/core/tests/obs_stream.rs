//! Incremental observability streaming (`ObsConfig::stream_interval`).
//!
//! The run loop can drain fully-simulated records out of the per-unit
//! rings *during* the run — at the bottom of each visited cycle —
//! feeding an attached
//! [`ObsSink`] in wall order long before the post-run merge. This suite
//! pins the contract on the paper workloads: the final merged stream
//! (records **and** drop count) is bit-identical to a non-streaming
//! run's, `RunStats` is untouched, and the live sink sees exactly the
//! final stream, in exactly its order, batch by batch.

use dta_core::{simulate, FaultPlan, ObsMode, ObsRecord, ObsSink, RunStats, System, SystemConfig};
use dta_workloads::{bitcnt, mmul, zoom, Variant, WorkloadProgram};
use std::sync::{Arc, Mutex};

fn cfg(stream_interval: u64, faults: Option<FaultPlan>) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.obs.mode = ObsMode::All;
    cfg.obs.metrics_interval = 500;
    cfg.obs.stream_interval = stream_interval;
    cfg.faults = faults;
    cfg.max_cycles = 50_000_000;
    cfg
}

/// A sink that records everything it is fed, in feed order. The system
/// requires `Send` sinks (bench sweeps move finished `System`s across
/// threads), hence the mutex; there is no contention — the run loop
/// feeds from one thread.
#[derive(Default)]
struct CollectSink {
    out: Arc<Mutex<(Vec<ObsRecord>, u64)>>,
}

impl ObsSink for CollectSink {
    fn record(&mut self, rec: &ObsRecord) {
        self.out.lock().unwrap().0.push(*rec);
    }
    fn dropped(&mut self, n: u64) {
        self.out.lock().unwrap().1 += n;
    }
}

/// Runs `build` with streaming at `interval` and a collecting sink;
/// returns the run results plus everything the sink consumed.
fn run_streaming(
    build: &dyn Fn() -> WorkloadProgram,
    interval: u64,
    faults: Option<FaultPlan>,
) -> (RunStats, System, Vec<ObsRecord>, u64) {
    let wp = build();
    let mut sys = System::new(cfg(interval, faults), Arc::new(wp.program)).expect("build");
    let collected = Arc::new(Mutex::new((Vec::new(), 0u64)));
    sys.attach_stream_sink(Box::new(CollectSink {
        out: Arc::clone(&collected),
    }));
    sys.launch(&wp.args).expect("launch");
    let stats = sys
        .run()
        .unwrap_or_else(|e| panic!("streaming run failed: {e}"));
    let (fed, dropped) = std::mem::take(&mut *collected.lock().unwrap());
    (stats, sys, fed, dropped)
}

fn assert_streaming_invariant(
    name: &str,
    build: &dyn Fn() -> WorkloadProgram,
    faults: Option<FaultPlan>,
) {
    // Oracle: no streaming, post-run merge only (the default path every
    // other suite exercises).
    let wp = build();
    let (oracle_stats, oracle_sys) = simulate(cfg(0, faults), Arc::new(wp.program), &wp.args)
        .unwrap_or_else(|e| panic!("{name}: oracle failed: {e}"));
    let oracle = oracle_sys.obs().expect("observability on");
    assert!(!oracle.records.is_empty(), "{name}: empty oracle stream");

    let (stats, sys, fed, fed_dropped) = run_streaming(build, 512, faults);
    assert_eq!(oracle_stats, stats, "{name}: stats perturbed");
    let stream = sys.obs().expect("observability on");
    assert_eq!(
        oracle.dropped, stream.dropped,
        "{name}: drop count diverged"
    );
    assert_eq!(
        oracle.records, stream.records,
        "{name}: streamed merge diverged from post-run merge"
    );
    // The live sink saw exactly the final stream, in wall order: batches
    // are cycle-partitioned by the safe-horizon rule, so their
    // concatenation is already sorted.
    assert_eq!(
        fed, stream.records,
        "{name}: sink feed order diverged from the merged stream"
    );
    assert_eq!(
        fed_dropped, stream.dropped,
        "{name}: sink drop count diverged"
    );
}

#[test]
fn bitcnt_streaming_matches_post_run_merge() {
    for variant in [Variant::Baseline, Variant::HandPrefetch] {
        assert_streaming_invariant("bitcnt", &move || bitcnt::build(1024, variant), None);
    }
}

#[test]
fn mmul_streaming_matches_post_run_merge() {
    assert_streaming_invariant("mmul", &|| mmul::build(16, Variant::HandPrefetch), None);
}

#[test]
fn zoom_streaming_matches_post_run_merge() {
    assert_streaming_invariant("zoom", &|| zoom::build(16, Variant::HandPrefetch), None);
}

/// Fault records flow through `obs_misc` (the system's side vector) —
/// the streaming prefix drain must not lose or reorder them.
#[test]
fn faulty_run_streams_identically() {
    let mut plan = FaultPlan::seeded(0x0B5E_11A7);
    plan.dma_fail_ppm = 30_000;
    plan.dma_backoff_base = 16;
    plan.msg_drop_ppm = 10_000;
    plan.msg_dup_ppm = 10_000;
    plan.msg_delay_ppm = 10_000;
    plan.falloc_deny_ppm = 50_000;
    assert_streaming_invariant(
        "bitcnt+faults",
        &|| bitcnt::build(1024, Variant::HandPrefetch),
        Some(plan),
    );
}

/// The point of streaming: bounded rings stop overflowing on long runs,
/// because fully-simulated records leave them mid-run. With rings far
/// too small for the whole run, the post-run-merge path must drop
/// records while the streaming path keeps every one — direct proof that
/// batches really leave the rings mid-run, not just at the end.
#[test]
fn streaming_relieves_ring_pressure() {
    let run = |interval: u64| {
        let wp = mmul::build(16, Variant::HandPrefetch);
        let mut c = cfg(interval, None);
        c.obs.event_capacity = 48;
        c.obs.metrics_interval = 100;
        simulate(c, Arc::new(wp.program), &wp.args).expect("run failed")
    };
    let (_, merged_sys) = run(0);
    let lost = merged_sys.obs().expect("obs on").dropped;
    assert!(lost > 0, "rings were large enough — test proves nothing");
    let (_, streamed_sys) = run(128);
    let stream = streamed_sys.obs().expect("obs on");
    assert_eq!(stream.dropped, 0, "streaming still overflowed the rings");
    assert!(stream.len() > merged_sys.obs().expect("obs on").len());
}
