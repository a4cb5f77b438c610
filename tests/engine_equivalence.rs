//! Seconds-scale execution-path equivalence: the plain issue path and the
//! memoizing path run on the one sequential loop and its wake set, and
//! must produce identical results at small sizes.
//!
//! Each case runs on 16 PEs with memoization off and on and compares the
//! `RunStats` JSON and the observability stream. Every run must also
//! account for every PE at every visited cycle as either a tick or a
//! skipped tick, and must actually skip some. `tests/oracle.rs` pins
//! committed digests for smaller or equal shapes (its zoom case is
//! zoom(16)); the paper-size version of this matrix is
//! `crates/core/tests/golden.rs`.

use dta::core::{simulate, MemoConfig, ObsMode, RunStats, System, SystemConfig};
use dta::workloads::{bitcnt, gather, mmul, zoom, Variant, WorkloadProgram};
use dta_json::ToJson;
use std::sync::Arc;

const PES: u64 = 16;

fn run(wp: &WorkloadProgram, memo: bool) -> (RunStats, System) {
    let mut cfg = SystemConfig::with_pes(PES as u16);
    cfg.obs.mode = ObsMode::All;
    if memo {
        cfg.memo = MemoConfig::on();
    }
    simulate(cfg, Arc::new(wp.program.clone()), &wp.args)
        .unwrap_or_else(|e| panic!("memo={memo}: {e}"))
}

fn stream(sys: &System) -> String {
    dta_obs::codec::stream_to_string(sys.obs().expect("observability on"))
}

fn assert_engines_agree(
    name: &str,
    wp: &WorkloadProgram,
    verify: &dyn Fn(&System) -> Result<(), String>,
) {
    let (plain, plain_sys) = run(wp, false);
    let (memo, memo_sys) = run(wp, true);
    for (memo, sys) in [(false, &plain_sys), (true, &memo_sys)] {
        verify(sys).unwrap_or_else(|e| panic!("{name} memo={memo}: {e}"));
        let r = sys.engine_report();
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
    assert_eq!(
        plain.to_json().to_string_compact(),
        memo.to_json().to_string_compact(),
        "{name}: RunStats differ between memo off and on"
    );
    assert!(
        stream(&plain_sys) == stream(&memo_sys),
        "{name}: observability streams differ between memo off and on"
    );
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
