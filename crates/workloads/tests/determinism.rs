//! Repeatability property: the same job run twice must produce
//! bit-identical `RunStats` and a verified result, on the paper's three
//! benchmarks (bitcnt(10000), mmul(32), zoom(32)).

use dta_core::{simulate, RunStats, System, SystemConfig};
use dta_workloads::{bitcnt, mmul, zoom, Variant, WorkloadProgram};
use std::sync::Arc;

fn run(build: impl Fn() -> WorkloadProgram) -> (RunStats, System) {
    let wp = build();
    simulate(
        SystemConfig::paper_default(),
        Arc::new(wp.program),
        &wp.args,
    )
    .unwrap_or_else(|e| panic!("run failed: {e}"))
}

fn assert_repeatable(
    name: &str,
    build: impl Fn() -> WorkloadProgram,
    verify: impl Fn(&System) -> Result<(), String>,
) {
    let (first, sys) = run(&build);
    verify(&sys).unwrap_or_else(|e| panic!("{name} result wrong: {e}"));
    let (repeat, _) = run(&build);
    assert_eq!(first, repeat, "{name}: run not repeatable");
}

#[test]
fn bitcnt_is_repeatable() {
    for variant in [Variant::Baseline, Variant::HandPrefetch] {
        assert_repeatable(
            "bitcnt(10000)",
            || bitcnt::build(10_000, variant),
            |sys| bitcnt::verify(sys, 10_000),
        );
    }
}

#[test]
fn mmul_is_repeatable() {
    for variant in [Variant::Baseline, Variant::HandPrefetch] {
        assert_repeatable(
            "mmul(32)",
            || mmul::build(32, variant),
            |sys| mmul::verify(sys, 32),
        );
    }
}

#[test]
fn zoom_is_repeatable() {
    for variant in [Variant::Baseline, Variant::HandPrefetch] {
        assert_repeatable(
            "zoom(32)",
            || zoom::build(32, variant),
            |sys| zoom::verify(sys, 32),
        );
    }
}
