//! Seconds-scale result oracle.
//!
//! Small runs of every paper workload shape must reproduce committed
//! digests exactly: `fnv1a128` of the `RunStats` JSON and of the codec
//! JSON of the deterministic observability stream (engine epoch records
//! stripped, ring-drop count kept), with every event class recorded and
//! the metrics fold on. Each case runs on the sequential engine and on
//! `Parallelism::Threads(2)`; both must match.
//!
//! Each case also runs once as a [`SimJob`] on the sequential engine and
//! pins the whole service-path output byte for byte: `fnv1a128` of
//! `JobResult::canonical_string()` (key, stats, engine report, globals
//! and the full stream, epoch records included) and of the
//! `perfetto_trace` text. One cycle-limit job pins the `err` branch of
//! the canonical document. The document is digested with the host
//! engine's tick counters (`visited_cycles`, `pe_ticks`,
//! `skipped_ticks`, `wake_heap_occupancy`) reset, the way the codec
//! zeroes the wall-clock fields: they record how the host advanced
//! time, so a change to the engine alone moves them. `pe_ticks` and
//! `visited_cycles` are pinned per case in an assertion of their own;
//! a host-engine change that lowers them updates only that pin. A
//! mismatch in a document digest with the stats and stream digests
//! still matching means the codec or the Perfetto writer changed its
//! bytes.
//!
//! The `RunStats` and stream digests were taken from the per-cycle
//! pipeline, before the PE learned to issue a run of pure cycles in one
//! host call (DESIGN.md §12). A mismatch means a simulated cycle,
//! counter or event moved; regenerate only for a change that is meant
//! to alter simulated behaviour, and say so. The paper-size version of
//! this oracle is `crates/core/tests/golden.rs`.

use dta::core::{
    perfetto_trace, run_job, simulate, JobError, ObsMode, ObsStream, Parallelism, RunStats, SimJob,
    System, SystemConfig,
};
use dta::workloads::{bitcnt, gather, mmul, zoom, Variant, WorkloadProgram};
use dta_json::{fnv1a128, ToJson};
use dta_obs::Histogram;
use std::sync::Arc;

fn config(pes: u16, par: Parallelism) -> SystemConfig {
    let mut cfg = SystemConfig::with_pes(pes);
    cfg.parallelism = par;
    cfg.obs.mode = ObsMode::All;
    cfg.obs.metrics_interval = 250;
    cfg
}

/// Runs `wp` on `pes` PEs and returns `(RunStats digest, stream digest)`
/// after checking the result with `verify`.
fn digests(
    wp: &WorkloadProgram,
    pes: u16,
    par: Parallelism,
    verify: &dyn Fn(&System) -> Result<(), String>,
) -> (u128, u128) {
    let cfg = config(pes, par);
    let (stats, sys): (RunStats, System) = simulate(cfg, Arc::new(wp.program.clone()), &wp.args)
        .unwrap_or_else(|e| panic!("{par:?}: {e}"));
    verify(&sys).unwrap_or_else(|e| panic!("{par:?}: result wrong: {e}"));
    let obs = sys.obs().expect("observability on");
    let det = ObsStream::from_records(obs.deterministic(), obs.dropped);
    let stream = dta_obs::codec::stream_to_string(&det);
    (
        fnv1a128(stats.to_json().to_string_compact().as_bytes()),
        fnv1a128(stream.as_bytes()),
    )
}

/// How often the host engine ticked a PE and how many cycles it
/// visited: `(pe_ticks, visited_cycles)`.
type Ticks = (u64, u64);

/// Runs `wp` as a job on the sequential engine and returns
/// `(canonical result digest, Perfetto trace digest)`, the document
/// digested with the engine's tick counters reset, and the counters
/// themselves for their own pin.
fn document_digests(wp: &WorkloadProgram, pes: u16) -> ((u128, u128), Ticks) {
    let job = SimJob::new(
        Arc::new(wp.program.clone()),
        wp.args.clone(),
        config(pes, Parallelism::Off),
    );
    let mut result = run_job(&job);
    let out = result.outcome.as_mut().expect("oracle jobs succeed");
    let trace = perfetto_trace(&job.config, &job.program, out.obs.as_ref().unwrap());
    let engine = &mut out.engine;
    let ticks = (engine.pe_ticks, engine.visited_cycles);
    engine.visited_cycles = 0;
    engine.pe_ticks = 0;
    engine.skipped_ticks = 0;
    engine.wake_heap_occupancy = Histogram::default();
    (
        (
            fnv1a128(result.canonical_string().as_bytes()),
            fnv1a128(trace.as_bytes()),
        ),
        ticks,
    )
}

fn assert_oracle(
    name: &str,
    want: (u128, u128),
    want_doc: (u128, u128),
    want_ticks: Ticks,
    wp: WorkloadProgram,
    pes: u16,
    verify: &dyn Fn(&System) -> Result<(), String>,
) {
    for par in [Parallelism::Off, Parallelism::Threads(2)] {
        let got = digests(&wp, pes, par, verify);
        assert_eq!(
            got, want,
            "{name}: {par:?} diverged from the oracle (got {:#034x}, {:#034x})",
            got.0, got.1
        );
    }
    let (got, ticks) = document_digests(&wp, pes);
    assert_eq!(
        got, want_doc,
        "{name}: result document or trace diverged from the oracle (got {:#034x}, {:#034x})",
        got.0, got.1
    );
    assert_eq!(
        ticks, want_ticks,
        "{name}: host engine (pe_ticks, visited_cycles) moved"
    );
}

#[test]
fn bitcnt_hand_prefetch_matches_oracle() {
    assert_oracle(
        "bitcnt(200)",
        (
            0xd1d14117ea091ff352bb799475df970a,
            0xfd23757bc7f4a6dbed5e172205a3af96,
        ),
        (
            0x0ece40b1a54fc2483933d477f2230020,
            0x91c5f15e6705134adf09e0f46e1b1f72,
        ),
        (6447, 5390),
        bitcnt::build(200, Variant::HandPrefetch),
        8,
        &|s| bitcnt::verify(s, 200),
    );
}

#[test]
fn mmul_hand_prefetch_matches_oracle() {
    assert_oracle(
        "mmul(8)",
        (
            0x984de6e6e3f87ed0c6f5579e0767b504,
            0x73836d5cb48dab5977d85a9ce7eb7f87,
        ),
        (
            0xa255b85c2bd2415a3122fd8c43df8aab,
            0x856173dd4d49176204ea051b10e24539,
        ),
        (204, 193),
        mmul::build(8, Variant::HandPrefetch),
        8,
        &|s| mmul::verify(s, 8),
    );
}

/// The baseline variant stalls on decoupled READs, so its operand stalls
/// wait on replies whose time is known only when they arrive.
#[test]
fn mmul_baseline_matches_oracle() {
    assert_oracle(
        "mmul(8)/baseline",
        (
            0x281fec3d161140a6d945b1390821e9d8,
            0x2c730d2a0d2a086eb424bd367b16a987,
        ),
        (
            0xa89417d69edae5daf63f74daa60536a7,
            0x345b0682e90e14f1b181b0a462f5c8a3,
        ),
        (1172, 1174),
        mmul::build(8, Variant::Baseline),
        8,
        &|s| mmul::verify(s, 8),
    );
}

#[test]
fn zoom_hand_prefetch_matches_oracle() {
    assert_oracle(
        "zoom(16)",
        (
            0x7b93a8e566d31e2fe183a1099361c573,
            0xc1edad4df7c180222927d17523bee82a,
        ),
        (
            0xcb24687b80edcf7bd4486145f6858aa9,
            0x1cc315dfffdd02351c796fe976cca19e,
        ),
        (5171, 4112),
        zoom::build(16, Variant::HandPrefetch),
        8,
        &|s| zoom::verify(s, 16),
    );
}

#[test]
fn gather_on_sixteen_pes_matches_oracle() {
    assert_oracle(
        "gather(256)",
        (
            0xc845e1efa23e2454ec36770390932b0a,
            0xcc200c29a425f76f6af55db07ebd0c5a,
        ),
        (
            0x31b008e9a8e1a983af6c11757a19b7c6,
            0xec2672c19a2e80557b8dc002163e62a2,
        ),
        (572, 560),
        gather::build(256, Variant::Baseline),
        16,
        &|s| gather::verify(s, 256),
    );
}

/// A job that runs out of cycles pins the `err` branch of the canonical
/// document: the typed error with its rendered diagnosis, and `ok` null.
#[test]
fn cycle_limit_error_document_matches_oracle() {
    let wp = mmul::build(8, Variant::HandPrefetch);
    let mut cfg = config(8, Parallelism::Off);
    cfg.max_cycles = 500;
    let job = SimJob::new(Arc::new(wp.program), wp.args, cfg);
    let result = run_job(&job);
    assert!(
        matches!(result.outcome, Err(JobError::CycleLimit { cycle: 500, .. })),
        "expected a cycle-limit error, got {:?}",
        result.outcome.as_ref().err()
    );
    let got = fnv1a128(result.canonical_string().as_bytes());
    assert_eq!(
        got, 0x6bed1e7b5dfbf227dac6c9433a316a13,
        "cycle-limit document diverged from the oracle (got {got:#034x})"
    );
}
