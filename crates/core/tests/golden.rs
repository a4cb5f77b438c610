//! Golden-digest invariance suite.
//!
//! How the host advances simulated time must never change a simulated
//! result. Each case below must reproduce committed digests exactly:
//! `fnv1a128` of the `RunStats` JSON, and `fnv1a128` of the codec JSON of
//! the observability stream (ring-drop count kept). A run that must fail
//! is pinned by the digest of its typed `RunError`'s `Debug` form
//! instead.
//!
//! The digests were generated with the original tick-every-PE ("dense")
//! scheduler, and the wake-set scheduler, the span executor and the
//! since-deleted epoch-sharded engine all matched them before those
//! changes landed. A mismatch here means a simulated cycle, counter or
//! event moved; regenerate only for a change that is meant to alter
//! simulated behaviour, and say so.
//!
//! A closing test pins that the wake set does something: it skips
//! blocked/idle ticks.

use dta_core::{simulate, FaultPlan, ObsMode, RunError, RunStats, System, SystemConfig};
use dta_json::{fnv1a128, ToJson};
use dta_mem::fault::{roll, SITE_DSE_CRASH, SITE_LSE_CRASH};
use dta_workloads::{bitcnt, mmul, zoom, Variant, WorkloadProgram};
use std::sync::Arc;

/// What a case must reproduce.
#[derive(Debug, PartialEq)]
enum Golden {
    /// A completed run: `(RunStats digest, stream digest)`.
    Run(u128, u128),
    /// A failed run: digest of the error's `Debug` form.
    Error(u128),
}

fn cfg(faults: Option<FaultPlan>) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.obs.mode = ObsMode::All;
    cfg.obs.metrics_interval = 500;
    cfg.faults = faults;
    cfg.max_cycles = 50_000_000;
    cfg
}

/// A mixed recoverable plan: transient DMA failures, every message-fault
/// kind, and FALLOC denials — rates low enough that the paper benchmarks
/// complete with verified results.
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

fn digest(run: &Result<(RunStats, System), RunError>) -> Golden {
    match run {
        Ok((stats, sys)) => {
            let obs = sys.obs().expect("observability on");
            let stream = dta_obs::codec::stream_to_string(obs);
            Golden::Run(
                fnv1a128(stats.to_json().to_string_compact().as_bytes()),
                fnv1a128(stream.as_bytes()),
            )
        }
        Err(e) => Golden::Error(fnv1a128(format!("{e:?}").as_bytes())),
    }
}

/// Runs `go` and checks the digests. Completed runs must also pass
/// `verify`, conserve the fine cycle attribution (every
/// simulated PE-cycle in exactly one category), and reconcile the
/// attribution-side overlap census (compute with DMA open) with the
/// metrics fold's busy-span overlap, which also counts intra-span stall
/// cycles and so can never be smaller.
fn assert_golden(
    name: &str,
    want: Golden,
    go: &dyn Fn() -> Result<(RunStats, System), RunError>,
    verify: &dyn Fn(&System) -> Result<(), String>,
) {
    let run = go();
    if let Ok((stats, sys)) = &run {
        verify(sys).unwrap_or_else(|e| panic!("{name}: result wrong: {e}"));
        for (pe, p) in stats.per_pe.iter().enumerate() {
            assert_eq!(
                p.total_fine_cycles(),
                p.total_cycles(),
                "{name}: fine-attribution conservation violated on PE {pe}"
            );
        }
        let attr_overlap: u64 = stats.per_pe.iter().map(|p| p.attr_overlap_cycles).sum();
        let metrics = sys.metrics().expect("metrics on");
        assert!(
            attr_overlap <= metrics.overlap_cycles,
            "{name}: attribution overlap {attr_overlap} exceeds metrics overlap {}",
            metrics.overlap_cycles
        );
    }
    let got = digest(&run);
    assert_eq!(
        got,
        want,
        "{name}: diverged from the golden digest ({})",
        match &run {
            Ok((stats, _)) => format!("{} cycles", stats.cycles),
            Err(e) => e.to_string(),
        }
    );
}

fn workload(
    build: fn() -> WorkloadProgram,
    faults: Option<FaultPlan>,
) -> impl Fn() -> Result<(RunStats, System), RunError> {
    move || {
        let wp = build();
        simulate(cfg(faults), Arc::new(wp.program), &wp.args)
    }
}

#[test]
fn bitcnt_matches_golden() {
    assert_golden(
        "bitcnt(10000)",
        Golden::Run(
            0xae48cbe541a3bfc2632e11cfbf7bda92,
            0x307df3b3982ca9c1958927e178ce86b8,
        ),
        &workload(|| bitcnt::build(10_000, Variant::HandPrefetch), None),
        &|s| bitcnt::verify(s, 10_000),
    );
}

#[test]
fn mmul_matches_golden() {
    assert_golden(
        "mmul(32)",
        Golden::Run(
            0x9f919ee7a1fab24a409a6792cc7638ae,
            0x816c4343c57ec70574f9a115b85de421,
        ),
        &workload(|| mmul::build(32, Variant::HandPrefetch), None),
        &|s| mmul::verify(s, 32),
    );
}

#[test]
fn zoom_matches_golden() {
    assert_golden(
        "zoom(32)",
        Golden::Run(
            0x31ec7079b08771bfe1f4d866e92819ff,
            0x50bb13688df2848c29fa94587ae82eb4,
        ),
        &workload(|| zoom::build(32, Variant::HandPrefetch), None),
        &|s| zoom::verify(s, 32),
    );
}

/// Baseline (decoupled-READ) variants spend most cycles blocked on
/// memory — exactly the shape the wake heap exists for.
#[test]
fn mmul_baseline_matches_golden() {
    assert_golden(
        "mmul(32)/baseline",
        Golden::Run(
            0x5c6c98973123230b3b3c66ba053c2cdd,
            0x2506f92c1cfb3b4e8074fbda6d19e3e8,
        ),
        &workload(|| mmul::build(32, Variant::Baseline), None),
        &|s| mmul::verify(s, 32),
    );
}

#[test]
fn bitcnt_under_faults_matches_golden() {
    assert_golden(
        "bitcnt(10000)+faults",
        Golden::Run(
            0x0e2d0744b12d17167d724c64a2db89db,
            0xf28ce6bc27595a05d06f6224768f0400,
        ),
        &workload(
            || bitcnt::build(10_000, Variant::HandPrefetch),
            Some(mixed_plan()),
        ),
        &|s| bitcnt::verify(s, 10_000),
    );
}

#[test]
fn mmul_under_faults_matches_golden() {
    assert_golden(
        "mmul(32)+faults",
        Golden::Run(
            0x8dd5f58dcb3b80955f4de02628f171ed,
            0x33d7f54b38fa0b29dfbf8f11e0d6afb4,
        ),
        &workload(
            || mmul::build(32, Variant::HandPrefetch),
            Some(mixed_plan()),
        ),
        &|s| mmul::verify(s, 32),
    );
}

#[test]
fn zoom_under_faults_matches_golden() {
    assert_golden(
        "zoom(32)+faults",
        Golden::Run(
            0xcb1f3acb3a03d0e3ec1c1204738a3990,
            0x6e5c0f982327de509c4231a351c6d937,
        ),
        &workload(
            || zoom::build(32, Variant::HandPrefetch),
            Some(mixed_plan()),
        ),
        &|s| zoom::verify(s, 32),
    );
}

/// The SP offload extension runs bitcnt's straight-line PF blocks on the
/// LSE's SP pipeline (`Pe::run_pf_on_sp`); the stats digest pins its
/// `sp_pf_cycles`. These digests were taken before the pure-instruction
/// semantics moved into the shared step.
#[test]
fn bitcnt_sp_offload_matches_golden() {
    assert_golden(
        "bitcnt(10000)+sp-offload",
        Golden::Run(
            0xc5bef7ee4c42f981361a5ec371e45241,
            0x1076af24b061948fc986ff61369ce660,
        ),
        &|| {
            let mut c = cfg(None);
            c.sp_pf_overlap = true;
            let wp = bitcnt::build(10_000, Variant::HandPrefetch);
            simulate(c, Arc::new(wp.program), &wp.args)
        },
        &|s| bitcnt::verify(s, 10_000),
    );
}

/// Runs `build` on two nodes of four PEs under `plan`.
fn two_nodes(
    plan: FaultPlan,
    build: fn() -> WorkloadProgram,
) -> impl Fn() -> Result<(RunStats, System), RunError> {
    move || {
        let mut c = cfg(Some(plan));
        c.nodes = 2;
        c.pes_per_node = 4;
        c.max_cycles = 5_000_000;
        let wp = build();
        simulate(c, Arc::new(wp.program), &wp.args)
    }
}

/// DSE crash + cold restart on a two-node topology: the failover
/// detection timers, re-homing, and restart schedule must land on the
/// pinned cycles.
#[test]
fn dse_crash_restart_matches_golden() {
    let ppm = 500_000;
    // Seed 2 crashes node 0's DSE and spares node 1's.
    let seed = 2;
    assert!(roll(seed, SITE_DSE_CRASH, 0, ppm) && !roll(seed, SITE_DSE_CRASH, 1, ppm));
    let mut plan = FaultPlan::seeded(seed);
    plan.dse_crash_ppm = ppm;
    plan.dse_crash_window = 10_000;
    plan.dse_failover_detect = 500;
    plan.dse_restart_after = 20_000;
    assert_golden(
        "mmul(16)+dse-crash",
        Golden::Run(
            0x1e6aea396b25a43f54a5003cfb51a2ff,
            0x7a91c507e4914f70cc3539eb1de5f125,
        ),
        &two_nodes(plan, || mmul::build(16, Variant::HandPrefetch)),
        &|s| mmul::verify(s, 16),
    );
}

/// LSE crash + cold restart on a two-node topology: evacuation,
/// re-admission, kill-and-replay and the restart resync are pure
/// functions of the schedule, so the run must match bit-for-bit.
#[test]
fn lse_crash_restart_matches_golden() {
    let ppm = 500_000;
    // Seed 126 crashes exactly one LSE, PE 0's.
    let seed = 126;
    assert!((0..8).all(|pe| roll(seed, SITE_LSE_CRASH, pe, ppm) == (pe == 0)));
    let mut plan = FaultPlan::seeded(seed);
    plan.lse_crash_ppm = ppm;
    plan.lse_crash_window = 5_000;
    plan.lse_detect = 500;
    plan.lse_restart_after = 20_000;
    // The stats digest pins that the crash fired (`lse_crashes` = 1).
    assert_golden(
        "bitcnt(1024)+lse-crash",
        Golden::Run(
            0xd585c78864265acb63e77598aae0a6c4,
            0xa0089c173426609f21470397a67a29d1,
        ),
        &two_nodes(plan, || bitcnt::build(1024, Variant::HandPrefetch)),
        &|s| bitcnt::verify(s, 1024),
    );
}

/// An unrecoverable plan must produce the pinned *typed error* —
/// skipping ticks may not turn a watchdog trip into a hang or a
/// different failure.
#[test]
fn watchdog_error_matches_golden() {
    let mut plan = FaultPlan::seeded(31);
    plan.dma_stall_ppm = 1_000_000;
    let go = || {
        let mut c = cfg(Some(plan));
        c.max_cycles = 5_000_000;
        let wp = bitcnt::build(1024, Variant::HandPrefetch);
        simulate(c, Arc::new(wp.program), &wp.args)
    };
    match go() {
        Err(RunError::Watchdog { cycle: 307, .. }) => {}
        other => panic!(
            "expected a watchdog trip at cycle 307, got {:?}",
            other.err()
        ),
    }
    assert_golden(
        "bitcnt(1024)+all-stall",
        Golden::Error(0x81ca47e45014eced7fcc24af95d0ae0f),
        &go,
        &|_| Ok(()),
    );
}

/// A run that trips `max_cycles` fails at the pinned cycle with the
/// pinned live-instance diagnostic.
#[test]
fn cycle_limit_error_matches_golden() {
    let go = || {
        let mut c = cfg(None);
        c.max_cycles = 2_000; // far too small for bitcnt(1024)
        let wp = bitcnt::build(1024, Variant::HandPrefetch);
        simulate(c, Arc::new(wp.program), &wp.args)
    };
    assert!(matches!(
        go(),
        Err(RunError::CycleLimit { cycle: 2_000, .. })
    ));
    assert_golden(
        "bitcnt(1024)+2k-cycle-limit",
        Golden::Error(0xe98c319b461b1b183b878b7e57ecd52d),
        &go,
        &|_| Ok(()),
    );
}

/// The wake heap must actually skip work: on a DMA-dominated baseline
/// run it ticks only due PEs, and every visited cycle either ticks or
/// skips each PE.
#[test]
fn fast_forward_skips_blocked_ticks() {
    let wp = mmul::build(32, Variant::Baseline);
    let (_, sys) =
        simulate(cfg(None), Arc::new(wp.program), &wp.args).expect("mmul(32)/baseline failed");
    let r = sys.engine_report();
    let pes = sys.config().total_pes() as u64;
    assert_eq!(
        r.pe_ticks + r.skipped_ticks,
        r.visited_cycles * pes,
        "ticks and skips must partition visited cycles x PEs: {r:?}"
    );
    assert!(r.skipped_ticks > 0, "the wake heap skipped nothing: {r:?}");
}
