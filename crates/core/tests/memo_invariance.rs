//! Memoization invariance properties (PR 10).
//!
//! Instance memoization + timing replay is a pure *host-time*
//! optimisation: `RunStats`, the observability stream, and every typed
//! `RunError` must be **bit-identical** with memo on and off — on the
//! paper's benchmarks and under seeded fault plans (where the memo layer
//! must disarm itself entirely). The memo-off oracle is itself pinned by
//! the golden digests in `golden.rs`. A final
//! group of tests pins that the layer actually does something: replays
//! fire on the paper workloads, and an open contention window
//! (concurrent DMA on the same MFC) correctly suppresses firing.

use dta_core::{
    simulate, FaultPlan, MemoConfig, ObsMode, RunError, RunStats, System, SystemConfig,
};
use dta_workloads::{bitcnt, mmul, zoom, Variant, WorkloadProgram};
use std::sync::Arc;

fn cfg(faults: Option<FaultPlan>, memo: bool) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.obs.mode = ObsMode::All;
    cfg.obs.metrics_interval = 500;
    cfg.faults = faults;
    cfg.max_cycles = 50_000_000;
    if memo {
        cfg.memo = MemoConfig::on();
    }
    cfg
}

fn run(
    build: &dyn Fn() -> WorkloadProgram,
    faults: Option<FaultPlan>,
    memo: bool,
) -> (RunStats, System) {
    let wp = build();
    simulate(cfg(faults, memo), Arc::new(wp.program), &wp.args)
        .unwrap_or_else(|e| panic!("memo={memo} failed: {e}"))
}

/// Same mixed recoverable plan as the golden suite:
/// transient DMA failures, every message-fault kind, FALLOC denials.
/// Non-benign, so the memo layer must disarm itself under it.
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

fn assert_memo_invariant(
    name: &str,
    build: &dyn Fn() -> WorkloadProgram,
    verify: &dyn Fn(&System) -> Result<(), String>,
    faults: Option<FaultPlan>,
) {
    let (oracle_stats, oracle_sys) = run(build, faults, false);
    verify(&oracle_sys).unwrap_or_else(|e| panic!("{name}: oracle result wrong: {e}"));
    let oracle = oracle_sys.obs().expect("observability on");
    assert!(!oracle.is_empty(), "{name}: empty event stream");

    let (stats, sys) = run(build, faults, true);
    verify(&sys).unwrap_or_else(|e| panic!("{name}: memo result wrong: {e}"));
    assert_eq!(oracle_stats, stats, "{name}: memo stats diverged");
    let stream = sys.obs().expect("observability on");
    assert_eq!(
        oracle.dropped, stream.dropped,
        "{name}: memo ring-drop count diverged"
    );
    assert_eq!(
        oracle.len(),
        stream.len(),
        "{name}: memo stream length diverged"
    );
    for (i, (a, b)) in oracle.records.iter().zip(&stream.records).enumerate() {
        assert_eq!(a, b, "{name}: memo stream diverged at record {i}");
    }
    if faults.is_some() {
        // Non-benign plans disarm the memo layer entirely: it must
        // neither fire nor record.
        let r = sys.engine_report();
        assert_eq!(
            (r.memo_hits, r.memo_misses),
            (0, 0),
            "{name}: memo ran under a fault plan"
        );
    }
}

#[test]
fn bitcnt_is_memo_invariant() {
    assert_memo_invariant(
        "bitcnt(10000)",
        &|| bitcnt::build(10_000, Variant::HandPrefetch),
        &|s| bitcnt::verify(s, 10_000),
        None,
    );
}

#[test]
fn mmul_is_memo_invariant() {
    assert_memo_invariant(
        "mmul(32)",
        &|| mmul::build(32, Variant::HandPrefetch),
        &|s| mmul::verify(s, 32),
        None,
    );
}

#[test]
fn zoom_is_memo_invariant() {
    assert_memo_invariant(
        "zoom(32)",
        &|| zoom::build(32, Variant::HandPrefetch),
        &|s| zoom::verify(s, 32),
        None,
    );
}

/// Baseline (decoupled-READ) variants have no DMA at all — every pure
/// span fires under gate A. Pin those too.
#[test]
fn mmul_baseline_is_memo_invariant() {
    assert_memo_invariant(
        "mmul(32)/baseline",
        &|| mmul::build(32, Variant::Baseline),
        &|s| mmul::verify(s, 32),
        None,
    );
}

#[test]
fn bitcnt_under_faults_disarms_memo_and_stays_invariant() {
    assert_memo_invariant(
        "bitcnt(10000)+faults",
        &|| bitcnt::build(10_000, Variant::HandPrefetch),
        &|s| bitcnt::verify(s, 10_000),
        Some(mixed_plan()),
    );
}

/// A run that trips `max_cycles` must produce the *same typed error* —
/// same cycle, same live-instance diagnostic — with memoization on or
/// off. (The fire gate refuses replays that would cross the cycle
/// budget precisely so this holds.)
#[test]
fn cycle_limit_error_is_memo_invariant() {
    let go = |memo: bool| {
        let mut c = cfg(None, memo);
        c.max_cycles = 2_000; // far too small for bitcnt(1024)
        let wp = bitcnt::build(1024, Variant::HandPrefetch);
        simulate(c, Arc::new(wp.program), &wp.args)
    };
    let oracle = go(false).expect_err("a 2k-cycle budget cannot complete bitcnt(1024)");
    assert!(
        matches!(oracle, RunError::CycleLimit { .. }),
        "expected a cycle-limit trip, got: {oracle}"
    );
    let err = go(true).expect_err("memo on must fail alike");
    assert_eq!(
        format!("{err:?}"),
        format!("{oracle:?}"),
        "memo error diverged"
    );
}

/// The layer must actually do something on the paper workloads: hits
/// land and replayed cycles accumulate.
#[test]
fn memo_fires_on_paper_workloads() {
    let build = || bitcnt::build(10_000, Variant::HandPrefetch);
    let (stats, sys) = run(&build, None, true);
    let r = sys.engine_report();
    assert!(
        r.memo_hits > 0 && r.memo_replayed_cycles > 0,
        "memo never fired: {r:?}"
    );
    assert!(
        r.memo_hits > stats.instances * 9 / 10,
        "hit rate too low: {} hits for {} instances",
        r.memo_hits,
        stats.instances
    );
}

/// The pure span must outlast the DMA completion latency so that a
/// transfer issued just before it lands *inside* the replay window.
const CONTENDED_SPAN: usize = 600;

/// Builds a single-thread loop around one long pure span whose entry
/// key is identical every iteration, but whose MFC context alternates:
/// even iterations issue a `DMAGET` right before it (the completion
/// lands mid-span — an open contention window), odd iterations leave
/// the MFC quiet. With memo on, the quiet iterations record and then
/// replay the span, while every contended attempt must be refused.
fn contended_loop(iters: i32) -> Arc<dta_isa::Program> {
    use dta_isa::{reg::r, BrCond, ProgramBuilder, ThreadBuilder};
    let mut pb = ProgramBuilder::new();
    let src: Vec<i32> = (0..16).collect();
    let src_addr = pb.global_words("SRC", &src);
    pb.global_zeroed("OUT", 4);
    let out = pb.global_addr("OUT").unwrap();
    let main = pb.declare("main");
    let mut t = ThreadBuilder::new("main");
    t.prefetch_bytes(64);
    t.begin_ex();
    t.li(r(3), 0); // i
    t.li(r(4), src_addr as i64);
    t.li(r(9), 0); // acc
    t.li(r(5), 0); // span scratch
    let top = t.label_here();
    t.and(r(13), r(3), 1);
    let nofetch = t.new_label();
    t.br(BrCond::Ne, r(13), 0, nofetch);
    t.dmaget(r(2), 0, r(4), 0, 64, 0); // even iterations only
    t.bind(nofetch);
    t.dmawait(1); // tag 1 is never used: a pure no-op boundary, so the
                  // span below starts at the same pc on every iteration
    for _ in 0..CONTENDED_SPAN {
        t.add(r(5), r(5), 1);
    }
    t.dmawait(0);
    // Post-wait span: pure compute on the landed data, MFC quiet.
    t.lsload(r(8), r(2), 4);
    t.add(r(9), r(9), r(8));
    t.add(r(3), r(3), 1);
    t.br(BrCond::Lt, r(3), iters, top);
    t.li(r(10), out as i64);
    t.begin_ps();
    t.write(r(9), r(10), 0);
    t.ffree_self();
    t.stop();
    pb.define(main, t);
    pb.set_entry(main, 0);
    Arc::new(pb.build())
}

#[test]
fn contention_window_suppresses_firing() {
    let iters = 32;
    let program = contended_loop(iters);
    let go = |memo: bool| {
        let mut c = cfg(None, memo);
        c.pes_per_node = 1;
        simulate(c, Arc::clone(&program), &[]).expect("contended loop failed")
    };
    let (off_stats, off_sys) = go(false);
    let (on_stats, on_sys) = go(true);
    // src[1] == 1, summed once per iteration (iteration 0 waits for its
    // own fetch before loading).
    assert_eq!(off_sys.read_global_word("OUT", 0), Some(iters));
    assert_eq!(on_stats, off_stats, "memo perturbed the contended loop");

    let r = on_sys.engine_report();
    // Quiet (odd) iterations record the span once, then replay it.
    assert!(r.memo_hits > 0, "quiet-window span never fired: {r:?}");
    // Contended (even) iterations find the in-flight transfer's
    // completion inside the replay window and must be refused — the
    // first as an invalidated recording, the rest at the fire gate.
    assert!(
        r.memo_aborts >= (iters as u64) / 2 - 2,
        "contended span was not suppressed: {r:?}"
    );
}
