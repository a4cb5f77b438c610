//! Seconds-scale engine equivalence: the sequential loop and the
//! epoch-sharded loop share one wake set, and must produce identical
//! results at small sizes with memoization off and on.
//!
//! Each case runs at `Parallelism::Off` and `Parallelism::Threads(2)` on
//! 16 PEs and compares the `RunStats` JSON and the deterministic
//! observability stream (engine epoch records stripped). The sequential
//! run must also account for every PE at every visited cycle as either a
//! tick or a skipped tick, and must actually skip some. The paper-size
//! version of this matrix is `crates/core/tests/golden.rs`.
//!
//! The sharded engine resolves shared-memory accesses in `(cycle, PE)`
//! order at its barriers whatever order its PEs ticked in, while the
//! sequential engine reserves memory ports in tick order. A wake set
//! that ticks a cycle's due PEs out of ascending order therefore makes
//! the two engines disagree; zoom(32) is the case here that shows it.

use dta::core::{
    simulate, MemoConfig, ObsMode, ObsStream, Parallelism, RunStats, System, SystemConfig,
};
use dta::workloads::{bitcnt, gather, mmul, zoom, Variant, WorkloadProgram};
use dta_json::ToJson;
use std::sync::Arc;

const PES: u64 = 16;

fn run(wp: &WorkloadProgram, parallelism: Parallelism, memo: bool) -> (RunStats, System) {
    let mut cfg = SystemConfig::with_pes(PES as u16);
    cfg.parallelism = parallelism;
    cfg.obs.mode = ObsMode::All;
    if memo {
        cfg.memo = MemoConfig::on();
    }
    simulate(cfg, Arc::new(wp.program.clone()), &wp.args)
        .unwrap_or_else(|e| panic!("{parallelism:?} memo={memo}: {e}"))
}

fn deterministic_stream(sys: &System) -> ObsStream {
    let obs = sys.obs().expect("observability on");
    ObsStream::from_records(obs.deterministic(), obs.dropped)
}

fn assert_engines_agree(
    name: &str,
    wp: &WorkloadProgram,
    verify: &dyn Fn(&System) -> Result<(), String>,
) {
    for memo in [false, true] {
        let (seq, seq_sys) = run(wp, Parallelism::Off, memo);
        let (par, par_sys) = run(wp, Parallelism::Threads(2), memo);
        verify(&seq_sys).unwrap_or_else(|e| panic!("{name} memo={memo}: {e}"));
        assert_eq!(
            seq.to_json().to_string_compact(),
            par.to_json().to_string_compact(),
            "{name} memo={memo}: RunStats differ between Off and Threads(2)"
        );
        assert!(
            deterministic_stream(&seq_sys) == deterministic_stream(&par_sys),
            "{name} memo={memo}: observability streams differ between Off and Threads(2)"
        );
        let r = seq_sys.engine_report();
        assert_eq!(
            r.pe_ticks + r.skipped_ticks,
            r.visited_cycles * PES,
            "{name} memo={memo}: every PE at every visited cycle ticks or is skipped"
        );
        assert!(
            r.skipped_ticks > 0,
            "{name} memo={memo}: the wake set skipped nothing"
        );
    }
}

#[test]
fn bitcnt_engines_agree() {
    let wp = bitcnt::build(200, Variant::HandPrefetch);
    assert_engines_agree("bitcnt(200)", &wp, &|s| bitcnt::verify(s, 200));
}

#[test]
fn mmul_engines_agree() {
    let wp = mmul::build(8, Variant::HandPrefetch);
    assert_engines_agree("mmul(8)", &wp, &|s| mmul::verify(s, 8));
}

#[test]
fn gather_engines_agree() {
    let wp = gather::build(256, Variant::Baseline);
    assert_engines_agree("gather(256)", &wp, &|s| gather::verify(s, 256));
}

#[test]
fn zoom_engines_agree() {
    let wp = zoom::build(32, Variant::HandPrefetch);
    assert_engines_agree("zoom(32)", &wp, &|s| zoom::verify(s, 32));
}
