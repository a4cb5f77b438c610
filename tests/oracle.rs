//! Seconds-scale result oracle.
//!
//! Small runs of every paper workload shape must reproduce committed
//! digests exactly: `fnv1a128` of the `RunStats` JSON and of the codec
//! JSON of the deterministic observability stream (engine epoch records
//! stripped, ring-drop count kept), with every event class recorded and
//! the metrics fold on. Each case runs on the sequential engine and on
//! `Parallelism::Threads(2)`; both must match.
//!
//! The digests were taken from the per-cycle pipeline, before the PE
//! learned to issue a run of pure cycles in one host call (DESIGN.md
//! §12). A mismatch means a simulated cycle, counter or event moved;
//! regenerate only for a change that is meant to alter simulated
//! behaviour, and say so. The paper-size version of this oracle is
//! `crates/core/tests/golden.rs`.

use dta::core::{simulate, ObsMode, ObsStream, Parallelism, RunStats, System, SystemConfig};
use dta::workloads::{bitcnt, gather, mmul, zoom, Variant, WorkloadProgram};
use dta_json::{fnv1a128, ToJson};
use std::sync::Arc;

/// Runs `wp` on `pes` PEs and returns `(RunStats digest, stream digest)`
/// after checking the result with `verify`.
fn digests(
    wp: &WorkloadProgram,
    pes: u16,
    par: Parallelism,
    verify: &dyn Fn(&System) -> Result<(), String>,
) -> (u128, u128) {
    let mut cfg = SystemConfig::with_pes(pes);
    cfg.parallelism = par;
    cfg.obs.mode = ObsMode::All;
    cfg.obs.metrics_interval = 250;
    let (stats, sys): (RunStats, System) = simulate(cfg, Arc::new(wp.program.clone()), &wp.args)
        .unwrap_or_else(|e| panic!("{par:?}: {e}"));
    verify(&sys).unwrap_or_else(|e| panic!("{par:?}: result wrong: {e}"));
    let obs = sys.obs().expect("observability on");
    let det = ObsStream::from_records(obs.deterministic(), obs.dropped);
    let stream = dta_obs::codec::stream_to_json(&det).to_string_compact();
    (
        fnv1a128(stats.to_json().to_string_compact().as_bytes()),
        fnv1a128(stream.as_bytes()),
    )
}

fn assert_oracle(
    name: &str,
    want: (u128, u128),
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
}

#[test]
fn bitcnt_hand_prefetch_matches_oracle() {
    assert_oracle(
        "bitcnt(200)",
        (
            0xd1d14117ea091ff352bb799475df970a,
            0xfd23757bc7f4a6dbed5e172205a3af96,
        ),
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
        gather::build(256, Variant::Baseline),
        16,
        &|s| gather::verify(s, 256),
    );
}
