//! The effective FALLOC denial rate must track the configured
//! `falloc_deny_ppm`: each admission rolls an independent deterministic
//! hash against the rate, so over thousands of admissions the observed
//! ratio denials/(denials + grants) has to land near ppm/1e6.
//!
//! (Replaces the temporary println-only `tmp_verify_deny` check from the
//! fault-injection PR with real assertions.)

use dta_core::{simulate, FaultPlan, RunStats, SystemConfig};
use dta_workloads::{bitcnt, Variant};
use std::sync::Arc;

/// Runs bitcnt(4096) under a seeded deny plan and returns its stats.
fn run_with_deny(seed: u64, ppm: u32) -> RunStats {
    let wp = bitcnt::build(4096, Variant::HandPrefetch);
    let mut cfg = SystemConfig::paper_default();
    cfg.max_cycles = 50_000_000;
    let mut plan = FaultPlan::seeded(seed);
    plan.falloc_deny_ppm = ppm;
    plan.falloc_retry_timeout = 300;
    cfg.faults = Some(plan);
    let (stats, sys) = simulate(cfg, Arc::new(wp.program), &wp.args).expect("denied run completes");
    bitcnt::verify(&sys, 4096).expect("denials must not corrupt the result");
    stats
}

/// Observed denial fraction of all admission attempts (grants retry after
/// a denial, so attempts = completed instances + denials).
fn rate(stats: &RunStats) -> f64 {
    stats.falloc_denials as f64 / (stats.instances + stats.falloc_denials) as f64
}

/// With denial injection off, not a single FALLOC is denied.
#[test]
fn zero_ppm_denies_nothing() {
    let stats = run_with_deny(21, 0);
    assert_eq!(stats.falloc_denials, 0);
}

/// For each configured rate the observed denial fraction stays within
/// [0.5x, 1.5x] of ppm/1e6 — loose enough for hash noise over a few
/// thousand admissions, tight enough to catch a rate applied to the
/// wrong population (e.g. per-retry instead of per-admission) or a
/// broken roll.
#[test]
fn denial_rate_tracks_configured_ppm() {
    for ppm in [10_000u32, 50_000, 200_000] {
        let stats = run_with_deny(21, ppm);
        assert!(
            stats.falloc_denials > 0,
            "ppm={ppm}: schedule never fired over {} instances",
            stats.instances
        );
        let want = ppm as f64 / 1e6;
        let got = rate(&stats);
        assert!(
            (0.5 * want..=1.5 * want).contains(&got),
            "ppm={ppm}: observed denial rate {got:.4} outside [{:.4}, {:.4}]",
            0.5 * want,
            1.5 * want
        );
    }
}

/// Raising the configured rate must raise the observed rate — the knob
/// is monotone even where the absolute tolerance above is loose.
#[test]
fn denial_rate_is_monotone_in_ppm() {
    let rates: Vec<f64> = [10_000u32, 50_000, 200_000, 500_000]
        .iter()
        .map(|&ppm| rate(&run_with_deny(21, ppm)))
        .collect();
    for pair in rates.windows(2) {
        assert!(
            pair[1] > pair[0],
            "denial rate must grow with ppm: {rates:?}"
        );
    }
}
