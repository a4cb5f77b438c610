//! End-to-end tests of the thread lifecycle as recorded on the event
//! bus: the `Thread` events must follow the paper's Fig. 4, and the
//! lifecycle table renders straight from them.

use dta_core::{lifecycle_table, simulate, ObsMode, System, SystemConfig, ThreadEvent};
use dta_isa::{reg::r, ProgramBuilder, ThreadBuilder};
use std::sync::Arc;

/// main forks one prefetching worker that DMAs 64 bytes, sums them, and
/// writes the result.
fn traced_program() -> Arc<dta_isa::Program> {
    let mut pb = ProgramBuilder::new();
    let arr = pb.global_words("arr", &[1, 2, 3, 4]);
    let out = pb.global_zeroed("out", 4);
    let main = pb.declare("main");
    let worker = pb.declare("worker");

    let mut t = ThreadBuilder::new("main");
    t.begin_ex();
    t.falloc(r(3), worker, 1);
    t.li(r(4), out as i64);
    t.begin_ps();
    t.store(r(4), r(3), 0);
    t.ffree_self();
    t.stop();
    pb.define(main, t);

    let mut w = ThreadBuilder::new("worker");
    w.prefetch_bytes(16);
    w.li(r(3), arr as i64);
    w.dmaget(r(2), 0, r(3), 0, 16, 0);
    w.dmayield();
    w.begin_pl();
    w.load(r(4), 0); // out address
    w.begin_ex();
    w.lsload(r(5), r(2), 0);
    w.lsload(r(6), r(2), 4);
    w.add(r(5), r(5), r(6));
    w.lsload(r(6), r(2), 8);
    w.add(r(5), r(5), r(6));
    w.lsload(r(6), r(2), 12);
    w.add(r(5), r(5), r(6));
    w.begin_ps();
    w.write(r(5), r(4), 0);
    w.ffree_self();
    w.stop();
    pb.define(worker, w);

    pb.set_entry(main, 0);
    Arc::new(pb.build())
}

fn events_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::with_pes(2);
    cfg.obs.mode = ObsMode::Events;
    cfg
}

/// Every lifecycle event of the run as `(instance, event)`, in wall order.
fn lifecycle(sys: &System) -> Vec<(u64, ThreadEvent)> {
    let stream = sys.obs().expect("events recorded");
    stream
        .records
        .iter()
        .filter_map(|r| match r.ev {
            dta_core::ObsEvent::Thread { instance, what, .. } => Some((instance, what)),
            _ => None,
        })
        .collect()
}

#[test]
fn trace_records_the_fig4_lifecycle() {
    let program = traced_program();
    let (_, sys) = simulate(events_cfg(), Arc::clone(&program), &[]).unwrap();
    assert_eq!(sys.read_global_word("out", 0), Some(10));
    assert_eq!(sys.obs().unwrap().dropped, 0);
    let events = lifecycle(&sys);

    // Find the worker instance: it issued DMA.
    let worker = events
        .iter()
        .find(|(_, e)| matches!(e, ThreadEvent::DmaIssued { .. }))
        .expect("worker issued DMA")
        .0;
    let kinds: Vec<ThreadEvent> = events
        .iter()
        .filter(|(i, _)| *i == worker)
        .map(|&(_, e)| e)
        .collect();

    // Fig. 4 order: frame granted -> store (ready) -> dispatched
    // (Program DMA) -> DMA issued -> Wait for DMA -> DMA completed ->
    // dispatched again (Execution) -> stopped -> frame freed.
    let pos = |k: fn(&ThreadEvent) -> bool| kinds.iter().position(&k);
    let granted = pos(|k| matches!(k, ThreadEvent::FrameGranted { .. })).expect("granted");
    let store = pos(|k| {
        matches!(
            k,
            ThreadEvent::StoreApplied {
                became_ready: true,
                ..
            }
        )
    })
    .expect("store made it ready");
    let first_dispatch = pos(|k| matches!(k, ThreadEvent::Dispatched)).expect("dispatched");
    let issued = pos(|k| matches!(k, ThreadEvent::DmaIssued { .. })).expect("dma");
    let wait = pos(|k| matches!(k, ThreadEvent::WaitDma)).expect("wait-dma");
    let done = pos(|k| matches!(k, ThreadEvent::DmaCompleted { .. })).expect("dma done");
    let stopped = pos(|k| matches!(k, ThreadEvent::Stopped)).expect("stopped");
    let freed = pos(|k| matches!(k, ThreadEvent::FrameFreed)).expect("freed");
    assert!(granted < store, "{kinds:?}");
    assert!(store < first_dispatch, "{kinds:?}");
    assert!(first_dispatch < issued, "{kinds:?}");
    assert!(issued < wait, "{kinds:?}");
    assert!(wait < done, "{kinds:?}");
    assert!(done < stopped, "{kinds:?}");
    assert!(freed < stopped || stopped < freed, "{kinds:?}"); // both present

    // Two dispatches: Program DMA, then Execution.
    assert_eq!(
        kinds
            .iter()
            .filter(|k| matches!(k, ThreadEvent::Dispatched))
            .count(),
        2
    );

    // The rendered table names both threads and is not truncated.
    let rendered = lifecycle_table(&program, sys.obs().unwrap());
    assert!(rendered.contains("worker"), "{rendered}");
    assert!(rendered.contains("main"), "{rendered}");
    assert!(!rendered.contains("truncated"), "{rendered}");
}

#[test]
fn tracing_off_records_nothing_and_changes_nothing() {
    let cfg = SystemConfig::with_pes(2);
    let (a, sys) = simulate(cfg, traced_program(), &[]).unwrap();
    assert!(sys.obs().is_none());
    let (b, _) = simulate(events_cfg(), traced_program(), &[]).unwrap();
    // Event recording is observation only: identical timing and counters.
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.aggregate, b.aggregate);
}

#[test]
fn ring_overflow_flags_a_truncated_table() {
    use dta_workloads::{bitcnt, Variant};
    let mut cfg = events_cfg();
    cfg.obs.event_capacity = 50;
    let wp = bitcnt::build(96, Variant::Baseline);
    let program = Arc::new(wp.program);
    let (_, sys) = simulate(cfg, Arc::clone(&program), &wp.args).unwrap();
    let stream = sys.obs().unwrap();
    assert!(stream.dropped > 0);
    let rendered = lifecycle_table(&program, stream);
    assert!(
        rendered.contains(&format!("truncated: {} oldest records", stream.dropped)),
        "{rendered}"
    );
}

#[test]
fn sp_offload_appears_in_the_trace() {
    let mut cfg = events_cfg();
    cfg.sp_pf_overlap = true;
    let (_, sys) = simulate(cfg, traced_program(), &[]).unwrap();
    let events = lifecycle(&sys);
    // Offloaded PF means only ONE pipeline dispatch for the worker.
    let off = events
        .iter()
        .find(|(_, e)| matches!(e, ThreadEvent::PfOffloaded))
        .expect("PF block offloaded")
        .0;
    assert_eq!(
        events
            .iter()
            .filter(|&&(i, e)| i == off && matches!(e, ThreadEvent::Dispatched))
            .count(),
        1
    );
}
