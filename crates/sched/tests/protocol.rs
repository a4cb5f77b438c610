//! Scheduler protocol tests: LSE+DSE driven together through message
//! sequences, mirroring the core simulator's delivery logic without the
//! pipeline — the paper's §2 message protocol (FALLOC-Request/Response,
//! FFREE, remote stores) at the unit level.

use dta_isa::ThreadId;
use dta_sched::dse::FallocDecision;
use dta_sched::{Dse, DseParams, InstanceId, Lse, LseParams, PendingFalloc, ThreadState};

fn small_machine(pes: u16, frames: u32) -> (Dse, Vec<Lse>) {
    let params = LseParams {
        frame_capacity: frames,
        pf_buf_bytes: 64,
        pf_pool_size: frames,
        pf_region_base: 0,
        op_latency: 2,
        virtual_frames: false,
        park_on_full: false,
    };
    let lses = (0..pes).map(|p| Lse::new(p, params)).collect();
    let dse = Dse::new(0, (0..pes).collect(), frames, 1, DseParams::default());
    (dse, lses)
}

fn req(requester: u16, thread: u32, sc: u16) -> PendingFalloc {
    PendingFalloc {
        requester,
        for_inst: InstanceId(999),
        thread: ThreadId(thread),
        sc,
    }
}

#[test]
fn falloc_store_run_free_cycle() {
    let (mut dse, mut lses) = small_machine(2, 4);
    // A full life: request -> grant -> stores -> ready -> stop -> free ->
    // DSE mirror restored.
    let FallocDecision::Grant { pe } = dse.on_falloc(req(0, 1, 2), 0) else {
        panic!("expected grant");
    };
    let granted = lses[pe as usize]
        .alloc_frame(0, InstanceId(999), ThreadId(1), 2, 2, false)
        .expect("allocates");
    assert_eq!(granted.for_inst, InstanceId(999));

    assert!(lses[pe as usize].store(10, granted.frame, 0, 7).is_none());
    let ready = lses[pe as usize].store(12, granted.frame, 1, 8);
    assert_eq!(ready, Some(granted.instance));
    assert_eq!(
        lses[pe as usize].instance(granted.instance).state,
        ThreadState::Ready
    );

    lses[pe as usize].stop(granted.instance);
    assert!(lses[pe as usize].ffree(granted.frame).is_empty());
    let regrants = dse.on_frame_freed(pe);
    assert!(regrants.is_empty());
    assert_eq!(lses[pe as usize].free_frames(), 4);
}

#[test]
fn queued_requests_drain_in_fifo_order_across_pes() {
    let (mut dse, mut lses) = small_machine(2, 1);
    // Fill both PEs.
    let mut grants = Vec::new();
    for i in 0..2 {
        let FallocDecision::Grant { pe } = dse.on_falloc(req(0, 0, 0), 0) else {
            panic!("grant {i}");
        };
        let g = lses[pe as usize]
            .alloc_frame(0, InstanceId(i), ThreadId(0), 0, 0, false)
            .unwrap();
        grants.push((pe, g));
    }
    // Three more queue up.
    for i in 2..5 {
        assert_eq!(dse.on_falloc(req(i, 0, 0), 0), FallocDecision::Queued);
    }
    assert_eq!(dse.pending_len(), 3);
    // Free one frame: exactly one pending request is granted, FIFO.
    let (pe0, g0) = grants.remove(0);
    lses[pe0 as usize].stop(g0.instance);
    lses[pe0 as usize].ffree(g0.frame);
    let regrants = dse.on_frame_freed(pe0);
    assert_eq!(regrants.len(), 1);
    assert_eq!(regrants[0].0, pe0);
    assert_eq!(regrants[0].1.requester, 2);
    assert_eq!(dse.pending_len(), 2);
}

#[test]
fn remote_stores_route_by_frame_owner() {
    let (mut dse, mut lses) = small_machine(4, 4);
    // Grant a frame on whichever PE the DSE chooses; stores must be
    // applied on that owner regardless of who sends them.
    let FallocDecision::Grant { pe } = dse.on_falloc(req(3, 2, 1), 0) else {
        panic!("grant");
    };
    let g = lses[pe as usize]
        .alloc_frame(3, InstanceId(1), ThreadId(2), 1, 1, false)
        .unwrap();
    assert_eq!(g.frame.pe, pe);
    assert_eq!(lses[pe as usize].frame_owner(g.frame), Some(g.instance));
    let ready = lses[pe as usize].store(5, g.frame, 0, -3);
    assert_eq!(ready, Some(g.instance));
    assert_eq!(lses[pe as usize].instance(g.instance).slot(0), -3);
}

#[test]
fn grants_spread_across_the_node() {
    let (mut dse, mut lses) = small_machine(4, 8);
    let mut per_pe = [0u32; 4];
    for _ in 0..16 {
        let FallocDecision::Grant { pe } = dse.on_falloc(req(0, 0, 0), 0) else {
            panic!("grant");
        };
        lses[pe as usize]
            .alloc_frame(0, InstanceId(0), ThreadId(0), 0, 0, false)
            .unwrap();
        per_pe[pe as usize] += 1;
    }
    assert_eq!(per_pe, [4, 4, 4, 4], "least-loaded balancing");
}

#[test]
fn dma_lifecycle_through_the_lse() {
    let (mut dse, mut lses) = small_machine(1, 2);
    let FallocDecision::Grant { pe } = dse.on_falloc(req(0, 0, 0), 0) else {
        panic!("grant");
    };
    let g = lses[pe as usize]
        .alloc_frame(0, InstanceId(0), ThreadId(0), 0, 0, true)
        .unwrap();
    // Ready instance dispatched; programs two transfers and yields.
    assert_eq!(lses[0].pop_ready().map(|(id, _)| id), Some(g.instance));
    {
        let inst = lses[0].instance_mut(g.instance);
        inst.dma_issued(0);
        inst.dma_issued(1);
        inst.state = ThreadState::WaitDma;
    }
    assert!(!lses[0].dma_done(100, g.instance, 0));
    assert!(lses[0].dma_done(120, g.instance, 1));
    assert_eq!(lses[0].pop_ready().map(|(id, _)| id), Some(g.instance));
    assert_eq!(lses[0].instance(g.instance).ready_at, 120);
}

#[test]
fn pf_buffer_addresses_are_disjoint_per_live_instance() {
    let (mut dse, mut lses) = small_machine(1, 4);
    let mut addrs = Vec::new();
    for i in 0..4 {
        let FallocDecision::Grant { pe } = dse.on_falloc(req(0, 0, 0), 0) else {
            panic!("grant {i}");
        };
        let g = lses[pe as usize]
            .alloc_frame(0, InstanceId(i), ThreadId(0), 0, 0, true)
            .unwrap();
        addrs.push(lses[0].instance(g.instance).pf_buf_addr);
    }
    addrs.sort_unstable();
    addrs.dedup();
    assert_eq!(addrs.len(), 4, "prefetch buffers must not alias");
    // And each is 64 bytes apart (pf_buf_bytes).
    for w in addrs.windows(2) {
        assert!(w[1] - w[0] >= 64);
    }
}
