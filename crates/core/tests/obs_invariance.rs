//! Observability-layer properties.
//!
//! Checks the layer is pure observation (identical `RunStats` with
//! sinks on or off), that the metrics and the Perfetto export of
//! mmul(32) PF actually show the paper's Fig. 4 overlap — DMA-in-flight
//! spans overlapping other threads' EX slices on the same PE — and that
//! the lifecycle table is a view of the stream. The stream itself, with
//! and without a seeded `FaultPlan`, is pinned by the golden digests in
//! `golden.rs`.

use dta_core::{simulate, ObsMode, RunStats, System, SystemConfig, ThreadEvent};
use dta_workloads::{bitcnt, mmul, Variant, WorkloadProgram};
use std::sync::Arc;

fn cfg(mode: ObsMode) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.obs.mode = mode;
    cfg.obs.metrics_interval = 500;
    cfg.max_cycles = 50_000_000;
    cfg
}

fn run(build: &dyn Fn() -> WorkloadProgram, mode: ObsMode) -> (RunStats, System) {
    let wp = build();
    simulate(cfg(mode), Arc::new(wp.program), &wp.args)
        .unwrap_or_else(|e| panic!("{mode:?} failed: {e}"))
}

/// Observation is free: enabling the full observability stack (events +
/// gauges) must leave every `RunStats` counter — including the cycle
/// count — byte-identical to a run with observability off.
#[test]
fn observability_is_pure_observation() {
    let build = || mmul::build(16, Variant::HandPrefetch);
    let (off, sys_off) = run(&build, ObsMode::Off);
    assert!(sys_off.obs().is_none(), "mode Off must collect nothing");
    for mode in [ObsMode::Events, ObsMode::Metrics, ObsMode::All] {
        let (on, _) = run(&build, mode);
        assert_eq!(off, on, "{mode:?} perturbed the simulation");
        assert_eq!(off.cycles, on.cycles);
    }
}

/// The metrics layer must quantify the paper's non-blocking property:
/// on mmul(32) with hand prefetch, pipelines are busy while the same
/// PE's MFC has DMA in flight (Fig. 4 overlap).
#[test]
fn mmul_pf_metrics_show_nonblocking_overlap() {
    let (stats, sys) = run(&|| mmul::build(32, Variant::HandPrefetch), ObsMode::All);
    let m = sys.metrics().expect("metrics on");
    assert!(m.busy_cycles > 0, "no busy cycles measured");
    assert!(
        m.overlap_cycles > 0,
        "PF variant must overlap execution with DMA: {}",
        m.render()
    );
    // The attribution-side census must see the same overlap: positive on
    // a PF workload, and bounded above by the busy-span accounting.
    let attr_overlap: u64 = stats.per_pe.iter().map(|p| p.attr_overlap_cycles).sum();
    assert!(
        attr_overlap > 0,
        "attribution saw no compute cycles with DMA in flight"
    );
    assert!(
        attr_overlap <= m.overlap_cycles,
        "attribution overlap {attr_overlap} exceeds metrics overlap {}",
        m.overlap_cycles
    );
    assert!(m.dma_latency.total > 0, "no DMA latencies measured");
    assert!(m.samples > 0, "no gauge samples taken");
    assert!(m.max_dma_in_flight > 0, "gauges never saw DMA in flight");
    // The report renders without panicking and mentions the overlap.
    assert!(m.render().contains("overlap"));
}

/// The Perfetto export is well-formed JSON whose DMA async spans overlap
/// EX slices of *other* thread instances on the same PE track — the
/// visual form of the acceptance criterion.
#[test]
fn mmul_pf_perfetto_trace_shows_dma_overlapping_foreign_ex() {
    let (_, sys) = run(&|| mmul::build(32, Variant::HandPrefetch), ObsMode::All);
    let text = sys.perfetto_trace().expect("observability on");
    let doc = dta_json::parse(&text).expect("trace.json must parse");
    let events = match doc.get("traceEvents") {
        Some(dta_json::Json::Arr(a)) => a,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    };
    assert!(!events.is_empty());

    let fget = |e: &dta_json::Json, k: &str| e.get(k).and_then(|v| v.as_u64());
    let sget = |e: &dta_json::Json, k: &str| {
        e.get(k)
            .and_then(|v| v.as_str())
            .map(str::to_string)
            .unwrap_or_default()
    };

    // DMA async spans live on the MFC track (tid = 200000 + pe); EX
    // slices on the PE track (tid = pe + 1). Pair begin/end by async id.
    const MFC_TID_BASE: u64 = 200_000;
    let mut dma_open: std::collections::HashMap<String, (u64, u64, u64)> =
        std::collections::HashMap::new();
    let mut dma_spans: Vec<(u64, u64, u64, u64)> = Vec::new(); // (pid, pe, b, e)
    let mut ex: Vec<(u64, u64, u64, u64)> = Vec::new(); // (pid, pe, s, e)
    for e in events {
        let ph = sget(e, "ph");
        let pid = fget(e, "pid").unwrap_or(0);
        let tid = fget(e, "tid").unwrap_or(0);
        let ts = fget(e, "ts").unwrap_or(0);
        match ph.as_str() {
            "b" => {
                dma_open.insert(sget(e, "id"), (pid, tid - MFC_TID_BASE, ts));
            }
            "e" => {
                if let Some((p, pe, b)) = dma_open.remove(&sget(e, "id")) {
                    dma_spans.push((p, pe, b, ts));
                }
            }
            "X" => {
                let dur = fget(e, "dur").unwrap_or(0);
                ex.push((pid, tid - 1, ts, ts + dur));
            }
            _ => {}
        }
    }
    assert!(!dma_spans.is_empty(), "no DMA async spans exported");
    assert!(!ex.is_empty(), "no EX slices exported");

    // Some EX slice must overlap a DMA-in-flight span *on the same PE*:
    // the pipeline keeps executing while its MFC moves memory — the
    // paper's non-blocking claim, visible in Perfetto.
    let overlapping = dma_spans.iter().any(|&(pid, pe, b, e)| {
        ex.iter()
            .any(|&(xp, xpe, s, t)| xp == pid && xpe == pe && s < e && b < t)
    });
    assert!(
        overlapping,
        "no EX slice overlaps a DMA-in-flight span on the same PE"
    );
}

/// The lifecycle table is a view of the stream: one row per instance
/// with a `Thread` event, and its dispatch and wait-DMA columns sum to
/// the stream's counts of those events.
#[test]
fn lifecycle_table_is_a_view_of_the_stream() {
    let wp = bitcnt::build(1024, Variant::HandPrefetch);
    let program = Arc::new(wp.program);
    let (_, sys) = simulate(cfg(ObsMode::Events), Arc::clone(&program), &wp.args).expect("run");
    let stream = sys.obs().expect("events on");
    assert_eq!(stream.dropped, 0, "nothing dropped at default capacity");
    let mut instances = std::collections::BTreeSet::new();
    let (mut dispatches, mut waits) = (0u64, 0u64);
    for r in &stream.records {
        if let dta_core::ObsEvent::Thread { instance, what, .. } = r.ev {
            instances.insert(instance);
            dispatches += u64::from(what == ThreadEvent::Dispatched);
            waits += u64::from(what == ThreadEvent::WaitDma);
        }
    }
    assert!(dispatches > 0 && waits > 0);

    let table = dta_core::lifecycle_table(&program, stream);
    let rows: Vec<Vec<&str>> = table
        .lines()
        .skip(1)
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert_eq!(rows.len(), instances.len(), "one row per instance");
    let column = |i: usize| -> u64 { rows.iter().map(|r| r[i].parse::<u64>().unwrap()).sum() };
    assert_eq!(
        column(5),
        dispatches,
        "table and stream disagree on dispatches"
    );
    assert_eq!(
        column(7),
        waits,
        "table and stream disagree on wait-DMA count"
    );
}
