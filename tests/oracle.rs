//! Seconds-scale result oracle.
//!
//! Small runs of every paper workload shape, and of bitcnt under a fault
//! plan, an LSE crash and the SP offload, must reproduce committed
//! digests exactly: `fnv1a128` of the `RunStats` JSON and of the codec
//! JSON of the observability stream (ring-drop count kept), with every
//! event class recorded and the metrics fold on. Every run must also
//! account for each PE at each visited cycle as either a tick or a
//! skipped tick, and must actually skip some.
//!
//! Each case also runs once as a [`SimJob`] and pins the
//! whole service-path output byte for byte: `fnv1a128` of
//! `JobResult::canonical_string()` (key, stats, engine report, globals
//! and the full stream) and of the `perfetto_trace` text. One
//! cycle-limit job pins the `err` branch of
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
//! host call (DESIGN.md §12); those of the fault, crash and SP-offload
//! cases before spans ran in those configurations. A mismatch means a simulated cycle,
//! counter or event moved; regenerate only for a change that is meant
//! to alter simulated behaviour, and say so. The paper-size version of
//! this oracle is `crates/core/tests/golden.rs`.

use dta::core::{
    perfetto_trace, run_job, simulate, EngineReport, FaultPlan, JobError, ObsMode, RunStats,
    SimJob, System, SystemConfig,
};
use dta::workloads::{bitcnt, gather, mmul, zoom, Variant, WorkloadProgram};
use dta_json::{fnv1a128, ToJson};
use dta_obs::Histogram;
use std::sync::Arc;

fn config(pes: u16) -> SystemConfig {
    let mut cfg = SystemConfig::with_pes(pes);
    cfg.obs.mode = ObsMode::All;
    cfg.obs.metrics_interval = 250;
    cfg
}

/// Every PE at every visited cycle either ticked or was skipped, and the
/// wake set skipped something.
fn assert_ticks_partition(name: &str, r: &EngineReport, pes: u16) {
    assert_eq!(
        r.pe_ticks + r.skipped_ticks,
        r.visited_cycles * pes as u64,
        "{name}: every PE at every visited cycle ticks or is skipped: {r:?}"
    );
    assert!(r.skipped_ticks > 0, "{name}: the wake set skipped nothing");
}

/// Runs `wp` under `cfg` and returns `(RunStats digest, stream digest)`
/// after checking the result with `verify` and the tick partition.
fn digests(
    name: &str,
    wp: &WorkloadProgram,
    cfg: &SystemConfig,
    verify: &dyn Fn(&System) -> Result<(), String>,
) -> (u128, u128) {
    let (stats, sys): (RunStats, System) =
        simulate(cfg.clone(), Arc::new(wp.program.clone()), &wp.args)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    verify(&sys).unwrap_or_else(|e| panic!("{name}: result wrong: {e}"));
    assert_ticks_partition(name, sys.engine_report(), cfg.total_pes());
    let obs = sys.obs().expect("observability on");
    let stream = dta_obs::codec::stream_to_string(obs);
    (
        fnv1a128(stats.to_json().to_string_compact().as_bytes()),
        fnv1a128(stream.as_bytes()),
    )
}

/// How often the host engine ticked a PE and how many cycles it
/// visited: `(pe_ticks, visited_cycles)`.
type Ticks = (u64, u64);

/// Runs `wp` as a job and returns `(canonical result
/// digest, Perfetto trace digest)`, the document digested with the
/// engine's tick counters reset, and the counters themselves for their
/// own pin.
fn document_digests(name: &str, wp: &WorkloadProgram, cfg: &SystemConfig) -> ((u128, u128), Ticks) {
    let job = SimJob::new(Arc::new(wp.program.clone()), wp.args.clone(), cfg.clone());
    let mut result = run_job(&job);
    let out = result.outcome.as_mut().expect("oracle jobs succeed");
    let trace = perfetto_trace(&job.config, &job.program, out.obs.as_ref().unwrap());
    let engine = &mut out.engine;
    assert_ticks_partition(name, engine, cfg.total_pes());
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
    cfg: SystemConfig,
    verify: &dyn Fn(&System) -> Result<(), String>,
) {
    let got = digests(name, &wp, &cfg, verify);
    assert_eq!(
        got, want,
        "{name}: diverged from the oracle (got {:#034x}, {:#034x})",
        got.0, got.1
    );
    let (got, ticks) = document_digests(name, &wp, &cfg);
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
            0xef11ee39b2bbda82aea2d91de9d8b02c,
            0x91c5f15e6705134adf09e0f46e1b1f72,
        ),
        (6447, 5390),
        bitcnt::build(200, Variant::HandPrefetch),
        config(8),
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
            0x961071d7f8ccc9d457404fd3484b639b,
            0x856173dd4d49176204ea051b10e24539,
        ),
        (204, 193),
        mmul::build(8, Variant::HandPrefetch),
        config(8),
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
            0x7d56e70ed460668ce15d4f066be84946,
            0x345b0682e90e14f1b181b0a462f5c8a3,
        ),
        (1172, 1174),
        mmul::build(8, Variant::Baseline),
        config(8),
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
            0x373b0f00f7bf490323c17cacf60f117d,
            0x1cc315dfffdd02351c796fe976cca19e,
        ),
        (5171, 4112),
        zoom::build(16, Variant::HandPrefetch),
        config(8),
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
            0x6dec1a226398719148f145dab289a6a3,
            0xec2672c19a2e80557b8dc002163e62a2,
        ),
        (572, 560),
        gather::build(256, Variant::Baseline),
        config(16),
        &|s| gather::verify(s, 256),
    );
}

/// `crates/core/tests/golden.rs`'s mixed recoverable fault plan: DMA
/// retries, every message-fault kind and FALLOC denials.
fn mixed_plan() -> FaultPlan {
    let mut plan = FaultPlan::seeded(0x0B5E_11A7);
    plan.dma_fail_ppm = 30_000;
    plan.dma_backoff_base = 16;
    plan.msg_drop_ppm = 10_000;
    plan.msg_dup_ppm = 10_000;
    plan.msg_delay_ppm = 10_000;
    plan.falloc_deny_ppm = 50_000;
    plan
}

/// Dropped and delayed `DmaDone`s arrive after their MFC completion; a
/// span must not run past one of them.
#[test]
fn bitcnt_under_faults_matches_oracle() {
    let mut cfg = config(8);
    cfg.faults = Some(mixed_plan());
    assert_oracle(
        "bitcnt(200)+faults",
        (
            0x6955e7cd4159bd97e414da118480cf62,
            0xf25e461698a793f30fd5ac3bacfd5cb8,
        ),
        (
            0x68a722b6f971b0ded2c3be55267c74b4,
            0xe432752c9349fcb648fa661f4cac93bf,
        ),
        (6464, 5695),
        bitcnt::build(200, Variant::HandPrefetch),
        cfg,
        &|s| bitcnt::verify(s, 200),
    );
}

/// Seed 20 crashes PE 0's LSE alone, mid-run: a started instance is
/// killed and replayed, pre-start frames are evacuated, and the LSE
/// restarts cold. No span may run into the crash cycle.
#[test]
fn bitcnt_lse_crash_restart_matches_oracle() {
    let mut plan = FaultPlan::seeded(20);
    plan.lse_crash_ppm = 200_000;
    plan.lse_crash_window = 3_000;
    plan.lse_detect = 200;
    plan.lse_restart_after = 1_000;
    let mut cfg = config(8);
    cfg.faults = Some(plan);
    assert_oracle(
        "bitcnt(200)+lse-crash",
        (
            0xbf4562189fc4acd9fe65e3ee4f5f7ee2,
            0x3251c6fd4f439e9a67f874a90600333a,
        ),
        (
            0x021d61433e3e53b81c52a077bd4113df,
            0x1fada3f1acc4595786712979b596aff0,
        ),
        (6443, 5521),
        bitcnt::build(200, Variant::HandPrefetch),
        cfg,
        &|s| bitcnt::verify(s, 200),
    );
}

/// Seed 45 crashes LSEs with DMA commands in flight, some stalled for
/// good. The commands of the killed instances keep their MFC queue
/// slots, the stalled ones forever, and their owners never collect
/// them. After a restart, a live command's `DmaDone` that a message
/// fault delayed is overdue while an orphan still counts as in flight:
/// a window that set the MFC's whole in-flight count against
/// `dma_open` would miss the overdue delivery and run past it, moving
/// the `RunStats` digest.
#[test]
fn bitcnt_crash_orphaning_dma_matches_oracle() {
    let mut plan = FaultPlan::seeded(45);
    plan.lse_crash_ppm = 500_000;
    plan.lse_crash_window = 2_000;
    plan.lse_detect = 50;
    plan.lse_restart_after = 1_000;
    plan.msg_delay_ppm = 300_000;
    plan.msg_delay_jitter = 40;
    plan.msg_drop_ppm = 50_000;
    plan.dma_stall_ppm = 20_000;
    plan.watchdog_spin_limit = 2_000;
    let mut cfg = config(8);
    cfg.faults = Some(plan);
    assert_oracle(
        "bitcnt(200)+orphaned-dma",
        (
            0x1de50668bc6a2ca3ca2759661243c5b1,
            0x60c3e232d26b04089518548296b9b944,
        ),
        (
            0x50f72344ec26e2e4681b0b827ad2006b,
            0xf79672bc2115f5f0d4f88ccf45ddbbce,
        ),
        (6762, 6390),
        bitcnt::build(200, Variant::HandPrefetch),
        cfg,
        &|s| bitcnt::verify(s, 200),
    );
}

/// The SP offload runs bitcnt's straight-line PF blocks on the LSE's SP
/// pipeline at dispatch.
#[test]
fn bitcnt_sp_offload_matches_oracle() {
    let mut cfg = config(8);
    cfg.sp_pf_overlap = true;
    assert_oracle(
        "bitcnt(200)+sp-offload",
        (
            0x83ad2a9352ae9faef49a6624891bd10f,
            0x2dcbc83641795dc2d9b84412e3d0cbbe,
        ),
        (
            0x62443cb6432b92879af447f387c113c2,
            0x81f3c1952b7a9b0143e0102c606677b8,
        ),
        (6167, 5159),
        bitcnt::build(200, Variant::HandPrefetch),
        cfg,
        &|s| bitcnt::verify(s, 200),
    );
}

/// A job that runs out of cycles pins the `err` branch of the canonical
/// document: the typed error with its rendered diagnosis, and `ok` null.
#[test]
fn cycle_limit_error_document_matches_oracle() {
    let wp = mmul::build(8, Variant::HandPrefetch);
    let mut cfg = config(8);
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
        got, 0xcb37640995be0046df9c85b3725049cf,
        "cycle-limit document diverged from the oracle (got {got:#034x})"
    );
}
