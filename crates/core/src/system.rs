//! The whole-chip simulator.
//!
//! A [`System`] is the paper's CellDTA platform: `nodes × pes_per_node`
//! processing elements (each with pipeline, LSE, local store and MFC), one
//! DSE per node, and a shared interconnect + main memory. The host
//! processor (the Cell PPE) appears only at [`System::launch`], where it
//! allocates the entry thread's frame and stores its arguments — "the PPE
//! is used to initiate the DTA TLP activities" (§4.1).
//!
//! Simulation is cycle-driven with event-based time skipping: scheduler
//! messages and DMA completions sit in a time-ordered queue, each PE
//! carries a wake time, only PEs that are due tick at a visited cycle,
//! and the clock jumps straight to the next due wake or event.
//! Arbitration everywhere is deterministic, so a given (program, config)
//! pair always produces identical results.

use crate::config::{FaultPlan, SystemConfig};
use crate::fault::{msg_exempt, transform, FailoverSchedule, FaultCounters};
use crate::pipeline::{OutMsg, Pe, PipelineParams, SysCtx};
use crate::stats::{EngineReport, PeStats, RunStats};
use crate::uop::UopTable;
use crate::wake::WakeSet;
use dta_isa::{validate_program, Program, ValidationError};
use dta_mem::fault::{roll, SITE_FALLOC_DENY};
use dta_mem::{MainMemory, MemorySystem};
use dta_obs::{
    MetricsReport, MetricsSink, ObsEvent, ObsLog, ObsRecord, ObsStream, ThreadEvent,
    MSG_DELAY_SEQ_BIT, MSG_DUP_SEQ_BIT, MSG_SEQ_BIT,
};
use dta_sched::dse::FallocDecision;
use dta_sched::{Dest, Dse, InstanceId, Message, MsgSeq, PendingFalloc, ThreadState};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// Live instances of one PE at the moment a deadlock was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockPe {
    /// Global PE index.
    pub pe: u16,
    /// Every live instance on that PE with its lifecycle state, sorted by
    /// instance id.
    pub instances: Vec<(InstanceId, ThreadState)>,
}

/// Why a run failed.
#[derive(Debug)]
pub enum RunError {
    /// The program failed static validation.
    Validation(Vec<ValidationError>),
    /// The program/config combination cannot be launched.
    Launch(String),
    /// The system wedged: no events, pipelines blocked or idle, but
    /// instances still alive (a synchronisation bug in the program).
    Deadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
        /// Instances still alive.
        live: usize,
        /// Per-PE breakdown of the stuck instances (PEs with no live
        /// instances are omitted).
        pes: Vec<DeadlockPe>,
    },
    /// The system quiesced with live instances *and* hard fault evidence
    /// (stalled DMA commands or watchdog parks): an injected unrecoverable
    /// fault, not a program bug. Same diagnostic payload as
    /// [`RunError::Deadlock`].
    Watchdog {
        /// Cycle at which the watchdog classified the quiescence.
        cycle: u64,
        /// Instances still alive.
        live: usize,
        /// Permanently stalled DMA commands across all MFCs.
        stalled_dma: u64,
        /// Instances parked off a pipeline by the spin watchdog.
        parked: u64,
        /// Planned DSE crashes that fired (unrecovered work dies with a
        /// DSE when no successor ever takes over).
        crashed_dses: u64,
        /// Planned LSE crashes that fired (tainted instances and orphaned
        /// adoptions die with a PE's scheduler).
        crashed_lses: u64,
        /// Per-PE breakdown of the stuck instances (PEs with no live
        /// instances are omitted).
        pes: Vec<DeadlockPe>,
    },
    /// `max_cycles` exceeded; carries the same per-PE live-instance
    /// breakdown as [`RunError::Deadlock`] so a spinning run is as
    /// diagnosable as a wedged one.
    CycleLimit {
        /// The configured cycle budget that was exceeded.
        cycle: u64,
        /// Instances still alive.
        live: usize,
        /// Per-PE breakdown of the live instances (PEs with no live
        /// instances are omitted).
        pes: Vec<DeadlockPe>,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Validation(errs) => {
                writeln!(f, "program failed validation:")?;
                for e in errs {
                    writeln!(f, "  {e}")?;
                }
                Ok(())
            }
            RunError::Launch(msg) => write!(f, "launch failed: {msg}"),
            RunError::Deadlock { cycle, live, pes } => {
                write!(f, "deadlock at cycle {cycle}: {live} instances still alive")?;
                write_pe_report(f, pes)
            }
            RunError::Watchdog {
                cycle,
                live,
                stalled_dma,
                parked,
                crashed_dses,
                crashed_lses,
                pes,
            } => {
                write!(
                    f,
                    "watchdog at cycle {cycle}: {live} instances still alive \
                     ({stalled_dma} stalled DMA commands, {parked} watchdog parks, \
                     {crashed_dses} crashed DSEs, {crashed_lses} crashed LSEs)"
                )?;
                write_pe_report(f, pes)
            }
            RunError::CycleLimit { cycle, live, pes } => {
                write!(
                    f,
                    "cycle limit of {cycle} exceeded: {live} instances still alive"
                )?;
                write_pe_report(f, pes)
            }
        }
    }
}

fn write_pe_report(f: &mut fmt::Formatter<'_>, pes: &[DeadlockPe]) -> fmt::Result {
    for p in pes {
        write!(f, "\n  pe {}:", p.pe)?;
        for (id, state) in &p.instances {
            write!(f, " {id}:{state:?}")?;
        }
    }
    Ok(())
}

impl std::error::Error for RunError {}

#[derive(PartialEq, Eq)]
struct Event {
    time: u64,
    /// Source stamp: the canonical same-cycle tie-break, so same-cycle
    /// messages deliver in an order fixed by what their senders did.
    stamp: MsgSeq,
    to: Dest,
    msg: Message,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (Reverse(self.time), Reverse(self.stamp)).cmp(&(Reverse(other.time), Reverse(other.stamp)))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Everything message delivery needs. Indices arriving in messages
/// index `pes` and `dses` directly.
struct DeliverEnv<'a> {
    pes: &'a mut [Pe],
    dses: &'a mut [Dse],
    /// Send-stamp counters of the DSEs (rank = total PEs + node,
    /// continuing the PE rank space).
    dse_stamps: &'a mut [MsgSeq],
    program: &'a Program,
    nodes: u16,
    pes_per_node: u16,
    msg_latency: u64,
    /// Observability logs of the DSEs (same indexing).
    dse_obs: &'a mut [ObsLog],
    /// Stamped posts generated by the delivery (absolute delivery times;
    /// the caller moves them into the event queue).
    posts: &'a mut Vec<OutMsg>,
    /// Fault injection plan (None = fault-free).
    faults: Option<FaultPlan>,
    /// Resolved DSE crash/restart schedule (None = no DSE can crash; the
    /// gate for every failover code path).
    failover: Option<&'a FailoverSchedule>,
}

impl DeliverEnv<'_> {
    #[inline]
    fn pe(&mut self, pe: u16) -> &mut Pe {
        &mut self.pes[pe as usize]
    }

    fn record(&mut self, now: u64, pe: u16, instance: InstanceId, what: ThreadEvent) {
        self.pes[pe as usize].record(now, instance, what);
    }

    /// Emits a structured event from `node`'s DSE (no-op with events off).
    fn dse_emit(&mut self, now: u64, node: u16, ev: ObsEvent) {
        self.dse_obs[node as usize].emit(now, ev);
    }
}

/// Applies the message-fault transforms of [`transform`] and records the
/// corresponding observability events. The records are keyed by the
/// faulted message's *own* stamp (`unit = src_rank`,
/// `seq = stamp.seq | marker bits`) and the pre-transform delivery time,
/// all of which are pure functions of the stamp and the plan.
fn transform_obs(
    plan: &FaultPlan,
    time: u64,
    stamp: MsgSeq,
    counts: &mut FaultCounters,
    events_on: bool,
    obs: &mut Vec<ObsRecord>,
) -> (u64, MsgSeq) {
    let before = *counts;
    let out = transform(plan, time, stamp, counts);
    if events_on {
        let rec = |seq_bits: u64, ev: ObsEvent| ObsRecord {
            cycle: time,
            unit: stamp.src_rank,
            seq: stamp.seq | MSG_SEQ_BIT | seq_bits,
            ev,
        };
        if counts.msgs_dropped > before.msgs_dropped {
            obs.push(rec(
                0,
                ObsEvent::MsgDropped {
                    src: stamp.src_rank,
                    resend_at: out.0,
                },
            ));
        }
        if counts.msgs_delayed > before.msgs_delayed {
            obs.push(rec(
                MSG_DELAY_SEQ_BIT,
                ObsEvent::MsgDelayed {
                    src: stamp.src_rank,
                },
            ));
        }
        if counts.msgs_duplicated > before.msgs_duplicated {
            obs.push(rec(
                MSG_DUP_SEQ_BIT,
                ObsEvent::MsgDuplicated {
                    src: stamp.src_rank,
                },
            ));
        }
    }
    out
}

/// Handles the DSE crash/failover protocol for a message addressed to
/// `node`'s DSE. Returns `true` when the message was consumed (the caller
/// must not run the normal arms). All routing decisions are pure
/// functions of the schedule and the current cycle.
fn deliver_failover(env: &mut DeliverEnv<'_>, now: u64, node: u16, msg: Message) -> bool {
    let Some(f) = env.failover else {
        return false;
    };
    let di = node as usize;
    let detect = f.detect_latency();
    let msg_latency = env.msg_latency;
    let ppn = env.pes_per_node;
    match msg {
        Message::DseCrash => {
            // The planned silence: the DSE dies holding its pending queue
            // and any fostered mirrors. Orphans replay to the successor
            // (elected at lease expiry) straight from this admission-time
            // event — the paper's "replayed from the fault schedule".
            let orphans = env.dses[di].crash();
            env.dse_emit(now, node, ObsEvent::DseCrash { node });
            let o = f.outage(node).expect("crash event implies an outage");
            if let Some(succ) = f.arbiter(node, o.detect_at) {
                if succ != node {
                    env.dses[di].note_failover();
                    env.dse_emit(
                        now,
                        node,
                        ObsEvent::DseFailover {
                            node,
                            successor: succ,
                        },
                    );
                }
                env.dses[di].note_rehomed(orphans.len() as u64);
                env.dse_emit(
                    now,
                    node,
                    ObsEvent::DseRehomed {
                        node,
                        count: orphans.len() as u64,
                    },
                );
                for req in orphans {
                    let stamp = env.dse_stamps[di].bump();
                    env.posts.push((
                        now + detect,
                        Dest::Dse(succ),
                        Message::FallocRequest {
                            requester: req.requester,
                            for_inst: req.for_inst,
                            thread: req.thread,
                            sc: req.sc,
                            hops: 0,
                        },
                        stamp,
                    ));
                }
            }
            // Every node this DSE arbitrated just before dying — its own,
            // plus any it was fostering (crash-of-successor) — gets its
            // LSEs told to re-register with whoever arbitrates next.
            for m in 0..env.nodes {
                if f.arbiter(m, now.saturating_sub(1)) != Some(node) {
                    continue;
                }
                for i in 0..ppn {
                    let pe = m * ppn + i;
                    let stamp = env.dse_stamps[di].bump();
                    env.posts
                        .push((now + detect, Dest::Lse(pe), Message::DseResync, stamp));
                }
            }
            true
        }
        Message::DseRestart => {
            // Cold rejoin: empty queue, zeroed mirrors. Own LSEs resync
            // the authoritative counts; the previous arbiter (if any —
            // a restart inside the lease never moved arbitration) drops
            // its fostered copies of our PEs.
            let prev = f.arbiter(node, now - 1);
            env.dses[di].restart();
            env.dse_emit(now, node, ObsEvent::DseRestart { node });
            for i in 0..ppn {
                let pe = node * ppn + i;
                let stamp = env.dse_stamps[di].bump();
                env.posts
                    .push((now + msg_latency, Dest::Lse(pe), Message::DseResync, stamp));
            }
            if let Some(p) = prev {
                if p != node {
                    let stamp = env.dse_stamps[di].bump();
                    env.posts.push((
                        now + msg_latency,
                        Dest::Dse(p),
                        Message::FosterRelease { node },
                        stamp,
                    ));
                }
            }
            true
        }
        Message::DseRegister { pe, free } if env.dses[di].alive() => {
            let done = env.dses[di].reserve_op(now);
            let grants = env.dses[di].register(pe, free);
            env.dse_emit(now, node, ObsEvent::DseResync { node, pe, free });
            for (target, req) in grants {
                let stamp = env.dse_stamps[di].bump();
                env.posts.push((
                    done + msg_latency,
                    Dest::Lse(target),
                    Dse::alloc_message(req),
                    stamp,
                ));
            }
            true
        }
        Message::FosterRelease { node: m } if env.dses[di].alive() => {
            env.dses[di].release_foster(m * ppn, (m + 1) * ppn);
            true
        }
        _ if !env.dses[di].alive() => {
            // Delivery to a dead DSE. Work that must survive bounces to
            // the current arbiter one lease later (each bounce advances
            // time, so loops terminate at detection, restart, or — when
            // nobody ever comes back — the drop that the quiescence
            // watchdog turns into a typed error).
            match msg {
                Message::FallocRequest { .. } => {
                    if let Some(target) = f.arbiter(node, now) {
                        env.dses[di].note_rehomed(1);
                        env.dse_emit(now, node, ObsEvent::DseRehomed { node, count: 1 });
                        let stamp = env.dse_stamps[di].bump();
                        env.posts
                            .push((now + detect, Dest::Dse(target), msg, stamp));
                    }
                }
                Message::FrameFreed { pe } | Message::DseRegister { pe, .. } => {
                    if let Some(target) = f.arbiter(pe / ppn, now) {
                        let stamp = env.dse_stamps[di].bump();
                        env.posts
                            .push((now + detect, Dest::Dse(target), msg, stamp));
                    }
                }
                // Denial-retry timers, foster releases and other strays
                // reference state that died with the DSE: drop them.
                _ => {}
            }
            true
        }
        _ => false,
    }
}

/// Handles the LSE crash/evacuation protocol for a message addressed to
/// `pe`'s LSE. Returns `true` when the message was consumed. Mirrors
/// [`deliver_failover`]: every routing decision is a pure function of the
/// schedule and the current cycle.
fn deliver_lse_failover(env: &mut DeliverEnv<'_>, now: u64, pe: u16, msg: Message) -> bool {
    let Some(f) = env.failover else {
        return false;
    };
    let msg_latency = env.msg_latency;
    let lse_detect = f.lse_detect_latency();
    let node = pe / env.pes_per_node;
    match msg {
        Message::LseCrash => {
            // The planned per-PE scheduler death. The LSE classifies its
            // population (evacuate / replay / lose — see `Lse::crash`);
            // evacuees travel to the planned peer one lease later, and
            // parked allocations replay as fresh FALLOCs through the
            // current arbiter (PR 3's re-homing path).
            let o = f.lse_outage(pe).expect("crash event implies an outage");
            let report = env.pe(pe).crash_lse(now, o.evac_to);
            let p = env.pe(pe);
            if p.obs.events_on() {
                p.obs.emit(now, ObsEvent::LseCrash { pe });
                if report.evacuated > 0 {
                    p.obs.emit(
                        now,
                        ObsEvent::LseEvacuated {
                            pe,
                            count: report.evacuated,
                        },
                    );
                }
                if report.killed > 0 {
                    p.obs.emit(
                        now,
                        ObsEvent::LseKilled {
                            pe,
                            count: report.killed,
                        },
                    );
                }
            }
            if let Some(peer) = o.evac_to {
                for ev in &report.evacuees {
                    let stamp = env.pe(pe).stamp.bump();
                    env.posts.push((
                        now + lse_detect,
                        Dest::Lse(peer),
                        Message::LseAdopt {
                            home: pe,
                            index: ev.index,
                            thread: ev.thread,
                            sc: ev.sc,
                            slots: ev.slots,
                            needs_pf: ev.needs_pf,
                        },
                        stamp,
                    ));
                    // The frame snapshot follows from the same stamp
                    // stream, so it lands after the Adopt and before any
                    // later producer store.
                    for &(slot, value) in &ev.values {
                        let stamp = env.pe(pe).stamp.bump();
                        env.posts.push((
                            now + lse_detect,
                            Dest::Lse(peer),
                            Message::LseAdoptStore {
                                home: pe,
                                index: ev.index,
                                slot,
                                value,
                                sync: false,
                            },
                            stamp,
                        ));
                    }
                }
            }
            for (requester, for_inst, thread, sc, _slots, _needs_pf) in report.replay {
                let stamp = env.pe(pe).stamp.bump();
                env.posts.push((
                    now + lse_detect,
                    Dest::Dse(f.route(node, now)),
                    Message::FallocRequest {
                        requester,
                        for_inst,
                        thread,
                        sc,
                        hops: 0,
                    },
                    stamp,
                ));
            }
            true
        }
        Message::LseRestart => {
            // Cold rejoin: fresh frame pool (minus addresses still
            // draining evacuation forwards); re-register the authoritative
            // capacity with whoever arbitrates this PE now.
            let p = env.pe(pe);
            p.restart_lse();
            if p.obs.events_on() {
                p.obs.emit(now, ObsEvent::LseRestart { pe });
            }
            let free = p.lse.free_frames();
            let stamp = p.stamp.bump();
            env.posts.push((
                now + msg_latency,
                Dest::Dse(f.route(node, now)),
                Message::DseRegister { pe, free },
                stamp,
            ));
            true
        }
        Message::LseAdopt {
            home,
            index,
            thread,
            sc,
            slots,
            needs_pf,
        } => {
            let p = env.pe(pe);
            p.lse.reserve_op(now);
            if p.lse.is_dead() {
                // Simultaneous crashes: the adoption peer died before the
                // evacuee arrived. Unrecoverable.
                p.lse.adopt_lost(home, index);
                return true;
            }
            if let dta_sched::Adopted::Installed(_) =
                p.lse.adopt(now, home, index, thread, sc, slots, needs_pf)
            {
                let p = env.pe(pe);
                if p.obs.events_on() {
                    p.obs.emit(now, ObsEvent::LseReadmitted { pe, home });
                }
                // The install consumed a frame outside the grant path;
                // reset the arbiter's capacity mirror to the truth.
                let free = p.lse.free_frames();
                let stamp = p.stamp.bump();
                env.posts.push((
                    now + msg_latency,
                    Dest::Dse(f.route(node, now)),
                    Message::DseRegister { pe, free },
                    stamp,
                ));
            }
            true
        }
        Message::LseAdoptStore {
            home,
            index,
            slot,
            value,
            sync,
        } => {
            let delivery = env
                .pe(pe)
                .lse
                .adopt_store(now, home, index, slot, value, sync);
            if let dta_sched::StoreDelivery::Forward {
                peer,
                index: local,
                freed,
            } = delivery
            {
                // This LSE adopted the frame, then crashed and evacuated
                // it onward: chain the forward, re-keyed to our index.
                let stamp = env.pe(pe).stamp.bump();
                env.posts.push((
                    now + msg_latency,
                    Dest::Lse(peer),
                    Message::LseAdoptStore {
                        home: pe,
                        index: local,
                        slot,
                        value,
                        sync: true,
                    },
                    stamp,
                ));
                if freed {
                    let stamp = env.pe(pe).stamp.bump();
                    env.posts.push((
                        now + msg_latency,
                        Dest::Dse(f.route(node, now)),
                        Message::FrameFreed { pe },
                        stamp,
                    ));
                }
            }
            true
        }
        Message::Store { frame, slot, value } if env.pe(pe).lse.ever_crashed() => {
            // Producer stores at an LSE that has crashed at least once:
            // evacuated frames forward to their adopter, live frames
            // apply normally, stores for destroyed instances drop (safe:
            // every killed instance had reached SC zero or was lost with
            // its producers' knowledge — see DESIGN.md §14).
            let p = env.pe(pe);
            p.lse.reserve_op(now);
            match p.lse.store_after_crash(now, frame, slot, value) {
                dta_sched::StoreDelivery::Applied(ready) => {
                    if let Some(owner) = env.pe(pe).lse.frame_owner(frame) {
                        env.record(
                            now,
                            pe,
                            owner,
                            ThreadEvent::StoreApplied {
                                slot,
                                became_ready: ready.is_some(),
                            },
                        );
                    }
                }
                dta_sched::StoreDelivery::Forward { peer, index, freed } => {
                    let stamp = env.pe(pe).stamp.bump();
                    env.posts.push((
                        now + msg_latency,
                        Dest::Lse(peer),
                        Message::LseAdoptStore {
                            home: pe,
                            index,
                            slot,
                            value,
                            sync: true,
                        },
                        stamp,
                    ));
                    if freed {
                        let stamp = env.pe(pe).stamp.bump();
                        env.posts.push((
                            now + msg_latency,
                            Dest::Dse(f.route(node, now)),
                            Message::FrameFreed { pe },
                            stamp,
                        ));
                    }
                }
                _ => {}
            }
            true
        }
        Message::Ffree { frame } if env.pe(pe).lse.is_stale(frame) => {
            // The FFREE of an instance the crash destroyed (it had freed
            // its frame just before, or had stopped): the address the
            // crash held back can be granted again.
            let p = env.pe(pe);
            if p.lse.release_stale(frame) {
                let done = p.lse.reserve_op(now);
                let stamp = p.stamp.bump();
                env.posts.push((
                    done + msg_latency,
                    Dest::Dse(f.route(node, now)),
                    Message::FrameFreed { pe },
                    stamp,
                ));
            }
            true
        }
        _ if env.pe(pe).lse.is_dead() => {
            // Everything except a grant (Ffree / DmaDone / DseResync)
            // references state that died with the LSE: drop it.
            if let Message::AllocFrame {
                requester,
                for_inst,
                thread,
                sc,
            } = msg
            {
                // A grant outran crash detection: bounce it back to
                // the current arbiter as a fresh request one lease
                // later (by then the dead PE is excluded).
                let stamp = env.pe(pe).stamp.bump();
                env.posts.push((
                    now + lse_detect,
                    Dest::Dse(f.route(node, now)),
                    Message::FallocRequest {
                        requester,
                        for_inst,
                        thread,
                        sc,
                        hops: 0,
                    },
                    stamp,
                ));
            }
            true
        }
        _ if env.pe(pe).lse.ever_crashed() => {
            // Restarted LSE: stale traffic for instances destroyed by the
            // crash must drop instead of tripping consistency panics.
            match msg {
                Message::DmaDone { owner, .. }
                    if !env.pe(pe).lse.has_instance(owner)
                        && env.pe(pe).current() != Some(owner) =>
                {
                    true
                }
                Message::Ffree { frame } if env.pe(pe).lse.frame_owner(frame).is_none() => true,
                _ => false,
            }
        }
        _ => false,
    }
}

/// Applies one message to its destination unit, collecting any posts it
/// provokes.
fn deliver(env: &mut DeliverEnv<'_>, now: u64, to: Dest, msg: Message) {
    match to {
        Dest::Dse(node) => {
            // Detected LSE deaths are excluded from arbitration before any
            // handling. The set is a pure function of the schedule and the
            // cycle; a shrink (an LSE restart) can re-open capacity for
            // parked requests.
            if let Some(f) = env.failover {
                if f.lse_dead_any() {
                    let di = node as usize;
                    let grants = env.dses[di].set_dead_pes(f.all_detected_dead_pes(now));
                    for (target, req) in grants {
                        let stamp = env.dse_stamps[di].bump();
                        env.posts.push((
                            now + env.msg_latency,
                            Dest::Lse(target),
                            Dse::alloc_message(req),
                            stamp,
                        ));
                    }
                }
            }
            if env.failover.is_some() && deliver_failover(env, now, node, msg) {
                return;
            }
            let msg_latency = env.msg_latency;
            let dse = &mut env.dses[node as usize];
            match msg {
                Message::FallocRequest {
                    requester,
                    for_inst,
                    thread,
                    sc,
                    hops,
                } => {
                    let done = dse.reserve_op(now);
                    let req = PendingFalloc {
                        requester,
                        for_inst,
                        thread,
                        sc,
                    };
                    // Fault injection: deny this arbitration outright,
                    // simulating transient frame-memory exhaustion. The
                    // requester is parked exactly like a Queued decision,
                    // and a one-shot FallocRetry timer re-runs the skipped
                    // arbitration (a denial never touched the free-frame
                    // mirror, so the retry is guaranteed the capacity this
                    // request would have been granted — recovery cannot
                    // itself starve).
                    // Keyed by admission attempt (granted requests plus
                    // prior denials), so the key advances even when this
                    // roll denies — keying on `requests` alone would
                    // freeze the roll after the first denial and deny
                    // every later arrival too.
                    let denied = env.faults.is_some_and(|f| {
                        roll(
                            f.seed,
                            SITE_FALLOC_DENY,
                            ((node as u64) << 48) ^ (dse.stats().requests + dse.stats().denials),
                            f.falloc_deny_ppm,
                        )
                    });
                    if denied {
                        dse.force_queue(req);
                        env.dse_emit(now, node, ObsEvent::FallocDenied { node, requester });
                        let retry_at = now + env.faults.expect("checked").falloc_retry_timeout;
                        let stamp = env.dse_stamps[node as usize].bump();
                        env.posts.push((
                            done + msg_latency,
                            Dest::Pipeline(requester),
                            Message::FallocDeferred { for_inst },
                            stamp,
                        ));
                        let stamp = env.dse_stamps[node as usize].bump();
                        env.posts
                            .push((retry_at, Dest::Dse(node), Message::FallocRetry, stamp));
                        return;
                    }
                    let decision = dse.on_falloc(req, hops);
                    let stamp = env.dse_stamps[node as usize].bump();
                    match decision {
                        FallocDecision::Grant { pe } => {
                            env.posts.push((
                                done + msg_latency,
                                Dest::Lse(pe),
                                Message::AllocFrame {
                                    requester,
                                    for_inst,
                                    thread,
                                    sc,
                                },
                                stamp,
                            ));
                        }
                        FallocDecision::Forward => {
                            // Under failover, a forward skips dead peers
                            // (send-time routing to the ring successor's
                            // current arbiter).
                            let ring = (node + 1) % env.nodes;
                            let next = env.failover.map_or(ring, |f| f.route(ring, now));
                            env.posts.push((
                                done + msg_latency,
                                Dest::Dse(next),
                                Message::FallocRequest {
                                    requester,
                                    for_inst,
                                    thread,
                                    sc,
                                    hops: hops + 1,
                                },
                                stamp,
                            ));
                        }
                        FallocDecision::Queued => {
                            // Tell the requester to deschedule; the
                            // grant will arrive once a frame frees up.
                            env.posts.push((
                                done + msg_latency,
                                Dest::Pipeline(requester),
                                Message::FallocDeferred { for_inst },
                                stamp,
                            ));
                        }
                    }
                }
                Message::FrameFreed { pe } => {
                    let done = dse.reserve_op(now);
                    let grants = dse.on_frame_freed(pe);
                    for (target, req) in grants {
                        let stamp = env.dse_stamps[node as usize].bump();
                        env.posts.push((
                            done + msg_latency,
                            Dest::Lse(target),
                            Message::AllocFrame {
                                requester: req.requester,
                                for_inst: req.for_inst,
                                thread: req.thread,
                                sc: req.sc,
                            },
                            stamp,
                        ));
                    }
                }
                Message::FallocRetry => {
                    // One-shot denial-recovery timer: re-run the
                    // arbitration that an injected denial skipped.
                    let done = dse.reserve_op(now);
                    let grants = dse.re_arbitrate();
                    env.dse_emit(
                        now,
                        node,
                        ObsEvent::FallocRearb {
                            node,
                            grants: grants.len() as u32,
                        },
                    );
                    for (target, req) in grants {
                        let stamp = env.dse_stamps[node as usize].bump();
                        env.posts.push((
                            done + msg_latency,
                            Dest::Lse(target),
                            Message::AllocFrame {
                                requester: req.requester,
                                for_inst: req.for_inst,
                                thread: req.thread,
                                sc: req.sc,
                            },
                            stamp,
                        ));
                    }
                }
                other => panic!("DSE {node} received unexpected message {other:?}"),
            }
        }
        Dest::Lse(pe) => {
            env.pe(pe).gauge_sync(now);
            if env.failover.is_some() && deliver_lse_failover(env, now, pe, msg) {
                return;
            }
            let msg_latency = env.msg_latency;
            match msg {
                Message::AllocFrame {
                    requester,
                    for_inst,
                    thread,
                    sc,
                } => {
                    // Graceful degradation: once this PE's MFC exhausted a
                    // DMA retry budget, new instances substitute the
                    // thread's PF-skipping fallback body (the baseline
                    // decoupled READ/WRITE path) — same results, degraded
                    // performance. Substituting here, at frame grant,
                    // keeps the decision deterministic: it depends only on
                    // the PE's degraded flag at delivery time, which flips
                    // when the exhausting DMA command is accepted.
                    let program = env.program;
                    let mut thread = thread;
                    {
                        let p = env.pe(pe);
                        if p.degraded {
                            if let Some(fb) = program.threads[thread.index()].fallback {
                                thread = fb;
                                p.fallbacks += 1;
                                if p.obs.events_on() {
                                    p.obs.emit(
                                        now,
                                        ObsEvent::FallbackSubstituted { pe, thread: fb.0 },
                                    );
                                }
                            }
                        }
                    }
                    let code = &program.threads[thread.index()];
                    let slots = code.frame_slots;
                    let needs_pf = code.prefetch_bytes > 0;
                    let p = env.pe(pe);
                    let done = p.lse.reserve_op(now);
                    let granted = p
                        .lse
                        .alloc_frame(requester, for_inst, thread, sc, slots, needs_pf);
                    match granted {
                        Some(granted) => {
                            env.record(
                                now,
                                pe,
                                granted.instance,
                                ThreadEvent::FrameGranted {
                                    frame: granted.frame.encode(),
                                },
                            );
                            let stamp = env.pe(pe).stamp.bump();
                            env.posts.push((
                                done + msg_latency,
                                Dest::Pipeline(requester),
                                Message::FallocResponse {
                                    frame: granted.frame,
                                    for_inst: granted.for_inst,
                                },
                                stamp,
                            ));
                        }
                        None => {
                            // Parked on prefetch-buffer exhaustion:
                            // tell the requester to deschedule, like a
                            // DSE queue (the grant arrives when a
                            // buffer frees up).
                            let stamp = env.pe(pe).stamp.bump();
                            env.posts.push((
                                done + msg_latency,
                                Dest::Pipeline(requester),
                                Message::FallocDeferred { for_inst },
                                stamp,
                            ));
                        }
                    }
                }
                Message::Store { frame, slot, value } => {
                    let p = env.pe(pe);
                    p.lse.reserve_op(now);
                    let owner = p.lse.frame_owner(frame);
                    let ready = p.lse.store(now, frame, slot, value);
                    if let Some(owner) = owner {
                        env.record(
                            now,
                            pe,
                            owner,
                            ThreadEvent::StoreApplied {
                                slot,
                                became_ready: ready.is_some(),
                            },
                        );
                    }
                }
                Message::Ffree { frame } => {
                    let p = env.pe(pe);
                    let done = p.lse.reserve_op(now);
                    if let Some(owner) = p.lse.frame_owner(frame) {
                        env.record(now, pe, owner, ThreadEvent::FrameFreed);
                    }
                    let granted = env.pe(pe).lse.ffree(frame);
                    for g in granted {
                        let stamp = env.pe(pe).stamp.bump();
                        env.posts.push((
                            done + msg_latency,
                            Dest::Pipeline(g.requester),
                            Message::FallocResponse {
                                frame: g.frame,
                                for_inst: g.for_inst,
                            },
                            stamp,
                        ));
                    }
                    // A freed frame can also install a parked adoption
                    // from a crashed peer. When it does, the frame never
                    // returns to the pool — so instead of a FrameFreed
                    // (which would over-credit the arbiter's mirror) we
                    // re-register the authoritative count.
                    let mut adopted: Vec<(u16, u32, InstanceId)> = Vec::new();
                    if env.failover.is_some() {
                        adopted = env.pe(pe).lse.retry_adoptions(now);
                    }
                    let node = pe / env.pes_per_node;
                    let target = env.failover.map_or(node, |f| f.route(node, now));
                    if adopted.is_empty() {
                        // The capacity notification goes to whoever
                        // arbitrates this PE right now (its home DSE, or
                        // the successor fostering it after a crash).
                        let stamp = env.pe(pe).stamp.bump();
                        env.posts.push((
                            done + msg_latency,
                            Dest::Dse(target),
                            Message::FrameFreed { pe },
                            stamp,
                        ));
                    } else {
                        let p = env.pe(pe);
                        if p.obs.events_on() {
                            for &(home, _, _) in &adopted {
                                p.obs.emit(now, ObsEvent::LseReadmitted { pe, home });
                            }
                        }
                        let free = p.lse.free_frames();
                        let stamp = p.stamp.bump();
                        env.posts.push((
                            done + msg_latency,
                            Dest::Dse(target),
                            Message::DseRegister { pe, free },
                            stamp,
                        ));
                    }
                }
                Message::DmaDone { owner, tag } => {
                    let live = env.pe(pe).lse.has_instance(owner);
                    if live && env.pe(pe).obs.events_on() {
                        env.record(now, pe, owner, ThreadEvent::DmaCompleted { tag });
                    }
                    let p = env.pe(pe);
                    if live {
                        // Mirror of the issue-side increment: the overlap
                        // census closes at the same simulated point the
                        // DmaCompleted event is stamped (deliveries precede
                        // ticks within a cycle).
                        p.dma_open = p.dma_open.saturating_sub(1);
                    }
                    if !p.current_dma_done(owner, tag) {
                        p.lse.dma_done(now, owner, tag);
                    }
                }
                Message::DseResync => {
                    // Failover: the arbiter changed; report the
                    // authoritative free-frame count to whoever
                    // arbitrates this PE now.
                    let p = env.pe(pe);
                    let done = p.lse.reserve_op(now);
                    let free = p.lse.free_frames();
                    let home = pe / env.pes_per_node;
                    let target = env.failover.map_or(home, |f| f.route(home, now));
                    let stamp = env.pe(pe).stamp.bump();
                    env.posts.push((
                        done + msg_latency,
                        Dest::Dse(target),
                        Message::DseRegister { pe, free },
                        stamp,
                    ));
                }
                other => panic!("LSE {pe} received unexpected message {other:?}"),
            }
        }
        Dest::Pipeline(pe) => {
            if env.failover.is_some() {
                // A dead PE's pipeline consumes nothing; after a restart,
                // responses for instances the crash destroyed are stale
                // and must drop instead of tripping delivery panics.
                let p = env.pe(pe);
                let stale = p.lse.is_dead()
                    || (p.lse.ever_crashed()
                        && match msg {
                            Message::FallocResponse { for_inst, .. } => {
                                !p.expects_falloc_response(for_inst)
                            }
                            _ => false,
                        });
                if stale {
                    return;
                }
            }
            match msg {
                Message::FallocResponse { frame, for_inst } => {
                    env.pe(pe).gauge_sync(now);
                    env.pe(pe).complete_falloc(now, frame, for_inst);
                }
                Message::FallocDeferred { for_inst } => {
                    env.pe(pe).gauge_sync(now);
                    env.pe(pe).defer_falloc(now, for_inst);
                }
                other => panic!("pipeline {pe} received unexpected message {other:?}"),
            }
        }
    }
}

/// The simulated machine.
pub struct System {
    config: SystemConfig,
    program: Arc<Program>,
    /// The program's threads, decoded once for the pipelines.
    uops: UopTable,
    pes: Vec<Pe>,
    dses: Vec<Dse>,
    dse_stamps: Vec<MsgSeq>,
    memsys: MemorySystem,
    mem: MainMemory,
    events: BinaryHeap<Event>,
    now: u64,
    drain_until: u64,
    launched: bool,
    /// Per-DSE observability logs (unit rank = total PEs + node).
    dse_obs: Vec<ObsLog>,
    /// Message-fault records (keyed by message stamps; see `post`).
    obs_misc: Vec<ObsRecord>,
    /// The merged wall-order stream, built once at run end (`run_job`
    /// moves it into the job's output).
    pub(crate) obs: Option<ObsStream>,
    obs_finalized: bool,
    /// Message-fault bookkeeping.
    fault_counts: FaultCounters,
    /// Host-engine execution report (how time was advanced; outside
    /// [`RunStats`], which must not depend on the host schedule).
    engine_report: EngineReport,
    /// Resolved DSE crash/restart schedule (None = no DSE can crash).
    failover: Option<FailoverSchedule>,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("now", &self.now)
            .field("pes", &self.pes.len())
            .field("nodes", &self.dses.len())
            .field("pending_events", &self.events.len())
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds a system for `program` under `config`.
    ///
    /// Validates the program and sizes the per-PE prefetch-buffer pool
    /// from the program's declared needs.
    pub fn new(config: SystemConfig, program: Arc<Program>) -> Result<Self, RunError> {
        let errors = validate_program(&program);
        if !errors.is_empty() {
            return Err(RunError::Validation(errors));
        }
        let lse_params = config
            .lse_params(program.max_prefetch_bytes())
            .map_err(RunError::Launch)?;
        let pparams = PipelineParams {
            taken_branch_penalty: config.taken_branch_penalty,
            dispatch_penalty: config.dispatch_penalty,
            msg_latency: config.msg_latency,
            ls_latency: config.ls_latency,
            ls_ports: config.ls_ports,
            cache: config.cache,
            sp_pf_overlap: config.sp_pf_overlap,
            obs_events: config.obs.events_on(),
            obs_interval: config.obs_interval(),
            obs_capacity: config.obs.event_capacity,
            max_cycles: config.max_cycles,
        };
        let mut pes = Vec::with_capacity(config.total_pes() as usize);
        for pe in 0..config.total_pes() {
            let node = pe / config.pes_per_node;
            let mut p = Pe::new(pe, node, lse_params, config.mfc, config.ls_size, pparams);
            if let Some(f) = config.faults {
                p.mfc.set_faults(f.dma_plan_for(pe));
                p.arm_watchdog(f.watchdog_spin_limit);
            }
            pes.push(p);
        }
        let mut dses: Vec<Dse> = (0..config.nodes)
            .map(|node| {
                let local: Vec<u16> = (0..config.pes_per_node)
                    .map(|i| node * config.pes_per_node + i)
                    .collect();
                Dse::new(
                    node,
                    local,
                    config.frame_capacity,
                    config.nodes,
                    config.dse_params(),
                )
            })
            .collect();
        let mut mem = MainMemory::new(config.mem_size);
        mem.load_globals(&program.globals);
        let total = config.total_pes() as u32;
        let dse_obs = (0..config.nodes)
            .map(|node| {
                ObsLog::new(
                    total + node as u32,
                    config.obs.event_capacity,
                    config.obs.events_on(),
                    0,
                )
            })
            .collect();
        let dse_stamps = (0..config.nodes)
            .map(|node| MsgSeq::first(total + node as u32))
            .collect();
        // Resolve the DSE crash/restart schedule and pre-post its
        // injection events. The synthetic injector rank sits past every
        // real unit, so a same-cycle crash delivers after all real
        // protocol traffic of that cycle. `None` gates every failover
        // code path (zero overhead when off).
        let failover = config.faults.as_ref().and_then(|f| {
            FailoverSchedule::from_plan(
                f,
                config.nodes,
                config.pes_per_node,
                config.frame_capacity,
                config.msg_latency,
            )
        });
        let mut events = BinaryHeap::new();
        if let Some(f) = &failover {
            for d in dses.iter_mut() {
                d.enable_failover();
            }
            for node in 0..config.nodes {
                let Some(o) = f.outage(node) else { continue };
                let rank = total + config.nodes as u32 + node as u32;
                events.push(Event {
                    time: o.crash_at,
                    stamp: MsgSeq {
                        src_rank: rank,
                        seq: 0,
                    },
                    to: Dest::Dse(node),
                    msg: Message::DseCrash,
                });
                if let Some(r) = o.restart_at {
                    events.push(Event {
                        time: r,
                        stamp: MsgSeq {
                            src_rank: rank,
                            seq: 1,
                        },
                        to: Dest::Dse(node),
                        msg: Message::DseRestart,
                    });
                }
            }
            // Per-PE LSE injectors rank past the DSE injectors, so a
            // same-cycle LSE crash delivers after all DSE protocol
            // traffic.
            for pe in 0..config.total_pes() {
                let Some(o) = f.lse_outage(pe) else { continue };
                let rank = total + 2 * config.nodes as u32 + pe as u32;
                events.push(Event {
                    time: o.crash_at,
                    stamp: MsgSeq {
                        src_rank: rank,
                        seq: 0,
                    },
                    to: Dest::Lse(pe),
                    msg: Message::LseCrash,
                });
                if let Some(r) = o.restart_at {
                    events.push(Event {
                        time: r,
                        stamp: MsgSeq {
                            src_rank: rank,
                            seq: 1,
                        },
                        to: Dest::Lse(pe),
                        msg: Message::LseRestart,
                    });
                }
            }
        }
        Ok(System {
            memsys: config.memory_system(),
            config,
            uops: UopTable::new(&program),
            program,
            pes,
            dses,
            dse_stamps,
            mem,
            events,
            now: 0,
            drain_until: 0,
            launched: false,
            dse_obs,
            obs_misc: Vec::new(),
            obs: None,
            obs_finalized: false,
            fault_counts: FaultCounters::default(),
            engine_report: EngineReport::default(),
            failover,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// How the host engine advanced time in the finished run (visited
    /// cycles, ticks made/skipped, deliveries). Host-side only —
    /// simulated results are independent of it.
    pub fn engine_report(&self) -> &EngineReport {
        &self.engine_report
    }

    /// Read-only view of main memory (for verifying results after a run).
    pub fn memory(&self) -> &MainMemory {
        &self.mem
    }

    /// Reads 32-bit word `index` of global `name`.
    pub fn read_global_word(&self, name: &str, index: usize) -> Option<i32> {
        let g = self.program.global(name)?;
        if (index + 1) * 4 > g.size() {
            return None;
        }
        Some(self.mem.read_u32(g.addr + index as u64 * 4) as i32)
    }

    /// Captures the final contents of every program global as a
    /// self-contained, serializable snapshot, so results can be verified
    /// (and cached) without keeping the [`System`] alive. Part of
    /// [`crate::job::JobOutput`].
    pub fn snapshot_globals(&self) -> crate::job::GlobalSnapshot {
        crate::job::GlobalSnapshot::new(
            self.program
                .globals
                .iter()
                .map(|g| {
                    let words = (0..g.size() / 4)
                        .map(|i| self.mem.read_u32(g.addr + i as u64 * 4) as i32)
                        .collect();
                    (g.name.clone(), words)
                })
                .collect(),
        )
    }

    fn post(&mut self, time: u64, to: Dest, msg: Message, mut stamp: MsgSeq) {
        let mut time = time.max(self.now + 1);
        if let Some(f) = self.config.faults {
            if f.has_msg_faults() && !msg_exempt(&msg) {
                (time, stamp) = transform_obs(
                    &f,
                    time,
                    stamp,
                    &mut self.fault_counts,
                    self.config.obs.events_on(),
                    &mut self.obs_misc,
                );
            }
        }
        self.events.push(Event {
            time,
            stamp,
            to,
            msg,
        });
    }

    /// The host (PPE) side of program start: allocates the entry frame via
    /// the normal DSE path and stores the arguments.
    ///
    /// # Panics
    ///
    /// If called twice.
    pub fn launch(&mut self, args: &[i64]) -> Result<(), RunError> {
        assert!(!self.launched, "launch called twice");
        self.launched = true;
        let entry = self.program.entry;
        let entry_code = self.program.thread(entry);
        if args.len() != self.program.entry_args as usize {
            return Err(RunError::Launch(format!(
                "entry thread expects {} arguments, got {}",
                self.program.entry_args,
                args.len()
            )));
        }
        let sc = args.len() as u16;
        let slots = entry_code.frame_slots.max(sc);
        let needs_pf = entry_code.prefetch_bytes > 0;
        // The host's FALLOC goes through the DSE like any other, at time 0.
        let req = PendingFalloc {
            requester: u16::MAX, // host marker; response handled inline
            for_inst: dta_sched::InstanceId(u64::MAX),
            thread: entry,
            sc,
        };
        let pe = match self.dses[0].on_falloc(req, 0) {
            FallocDecision::Grant { pe } => pe,
            _ => {
                return Err(RunError::Launch(
                    "no frame available for entry thread".into(),
                ))
            }
        };
        let granted = self.pes[pe as usize]
            .lse
            .alloc_frame(
                u16::MAX,
                dta_sched::InstanceId(u64::MAX),
                entry,
                sc,
                slots,
                needs_pf,
            )
            .ok_or_else(|| {
                RunError::Launch("entry allocation parked (no prefetch buffer)".into())
            })?;
        for (i, &a) in args.iter().enumerate() {
            self.pes[pe as usize]
                .lse
                .store(0, granted.frame, i as u16, a);
        }
        Ok(())
    }

    /// The deterministic per-PE live-instance report shared by every
    /// diagnostic error variant.
    fn live_report(&self) -> (usize, Vec<DeadlockPe>) {
        let live: usize = self.pes.iter().map(|p| p.lse.live_instances()).sum();
        let pes = self
            .pes
            .iter()
            .filter(|p| p.lse.live_instances() > 0)
            .map(|p| DeadlockPe {
                pe: p.id(),
                instances: p.lse.live_instance_states(),
            })
            .collect();
        (live, pes)
    }

    /// Builds the deterministic deadlock report (every PE's live
    /// instances, sorted).
    fn deadlock_error(&self) -> RunError {
        let (live, pes) = self.live_report();
        RunError::Deadlock {
            cycle: self.now,
            live,
            pes,
        }
    }

    /// Classifies a quiescent machine with live instances: hard fault
    /// evidence (permanently stalled DMA commands or watchdog parks)
    /// means an injected unrecoverable fault ([`RunError::Watchdog`]);
    /// otherwise it is a plain [`RunError::Deadlock`] (a synchronisation
    /// bug in the program).
    fn quiescence_error(&self) -> RunError {
        let stalled_dma: u64 = self.pes.iter().map(|p| p.mfc.stats().stalled).sum();
        let parked: u64 = self.pes.iter().map(|p| p.watchdog_parks).sum();
        let crashed: u64 = self.dses.iter().map(|d| d.stats().crashes).sum();
        let crashed_lses: u64 = self.pes.iter().map(|p| p.lse.stats().crashes).sum();
        if stalled_dma + parked + crashed + crashed_lses == 0 {
            return self.deadlock_error();
        }
        let (live, pes) = self.live_report();
        RunError::Watchdog {
            cycle: self.now,
            live,
            stalled_dma,
            parked,
            crashed_dses: crashed,
            crashed_lses,
            pes,
        }
    }

    /// Work the run knows it lost to LSE crashes: tainted instances
    /// killed unrecoverably, plus adoptions that never installed. A
    /// quiescent machine with zero live instances but non-zero lost work
    /// did *not* complete the program — it must report a typed error, not
    /// success with silently missing results.
    fn unrecovered_work(&self) -> u64 {
        self.pes.iter().map(|p| p.lse.unrecovered_work()).sum()
    }

    /// Builds the enriched cycle-limit error (same live-instance
    /// diagnostic as a deadlock).
    fn cycle_limit_error(&self) -> RunError {
        let (live, pes) = self.live_report();
        RunError::CycleLimit {
            cycle: self.config.max_cycles,
            live,
            pes,
        }
    }

    /// Drains and delivers every event due at `self.now`, feeding the
    /// resulting posts back into the queue. Each delivery addressed to a
    /// PE (LSE or pipeline) also wakes that PE in `wakes`, so the engine
    /// ticks it this cycle.
    fn deliver_due(
        &mut self,
        posts: &mut Vec<OutMsg>,
        report: &mut EngineReport,
        wakes: &mut WakeSet,
    ) {
        while self.events.peek().is_some_and(|e| e.time <= self.now) {
            let e = self.events.pop().expect("peeked");
            match e.to {
                Dest::Lse(pe) | Dest::Pipeline(pe) => {
                    report.pe_deliveries += 1;
                    wakes.deliver(pe, self.now);
                }
                Dest::Dse(_) => report.dse_deliveries += 1,
            }
            let mut env = DeliverEnv {
                pes: &mut self.pes,
                dses: &mut self.dses,
                dse_stamps: &mut self.dse_stamps,
                program: &self.program,
                nodes: self.config.nodes,
                pes_per_node: self.config.pes_per_node,
                msg_latency: self.config.msg_latency,
                dse_obs: &mut self.dse_obs,
                posts,
                faults: self.config.faults,
                failover: self.failover.as_ref(),
            };
            deliver(&mut env, self.now, e.to, e.msg);
            for (time, to, msg, stamp) in posts.drain(..) {
                self.post(time, to, msg, stamp);
            }
        }
    }

    /// Stamps the host-profiling tail onto a finished engine report —
    /// total loop wall time and the shared memory system's request count
    /// — and installs it.
    fn seal_report(&mut self, mut report: EngineReport, wall: std::time::Instant) {
        report.run_wall_us = wall.elapsed().as_micros() as u64;
        report.mem_requests = self.memsys.stats().total();
        self.engine_report = report;
    }

    /// Runs to completion; returns the collected statistics.
    ///
    /// Event-driven fast-forward: each PE carries a wake time in a
    /// [`WakeSet`] and only *due* PEs tick at a visited cycle.
    ///
    /// Wake sources, covering every way a PE can need a tick:
    /// * `Activity::Active` → the PE must tick again at `now + 1` (this
    ///   also covers the Active→Idle transition tick that records
    ///   `idle_since`);
    /// * `Activity::Blocked(t)`, `t < u64::MAX` → tick at `t` (pipeline
    ///   `resume_at`, MFC backoff, dispatch penalty);
    /// * a message delivered to the PE's LSE or pipeline → tick at the
    ///   delivery cycle itself (deliveries precede ticks within a cycle,
    ///   so the message can make the PE runnable in that very cycle);
    /// * `Activity::Blocked(u64::MAX)` / `Activity::Idle` → no wake: only
    ///   a delivery can make the PE runnable again.
    ///
    /// Ticks this schedule skips are exactly the no-ops a tick-every-PE
    /// loop would make — blocked/idle early returns whose only effect,
    /// gauge-boundary flushing, is a pure function of simulated time and
    /// unchanged unit state, so it emits identical samples whenever it
    /// runs (DESIGN.md §12 has the full argument; the golden digests in
    /// `tests/golden.rs` pin the results). Within a cycle the due PEs tick
    /// in ascending PE order, which is the memory-port reservation order.
    pub fn run(&mut self) -> Result<RunStats, RunError> {
        assert!(self.launched, "run() before launch()");
        let wall = std::time::Instant::now();
        let npes = self.pes.len();
        let mut outbox: Vec<OutMsg> = Vec::new();
        let mut posts: Vec<OutMsg> = Vec::new();
        let mut report = EngineReport::default();
        let mut wakes = WakeSet::new(npes);

        let finish = |mut r: EngineReport| {
            r.skipped_ticks = r
                .visited_cycles
                .saturating_mul(npes as u64)
                .saturating_sub(r.pe_ticks);
            r
        };

        loop {
            if self.now > self.config.max_cycles {
                self.seal_report(finish(report), wall);
                self.finalize_obs(self.now);
                return Err(self.cycle_limit_error());
            }
            report.visited_cycles += 1;
            // Host-side wake-set pressure (PEs with a scheduled wake),
            // sampled once per visited cycle.
            report.wake_heap_occupancy.add(wakes.occupancy());

            // Deliver everything due now; every delivery addressed to a
            // PE schedules a tick of that PE this cycle.
            self.deliver_due(&mut posts, &mut report, &mut wakes);
            let now = self.now;

            // Tick the due PEs, in ascending PE order within the cycle.
            {
                let System {
                    pes,
                    memsys,
                    mem,
                    program,
                    uops,
                    drain_until,
                    failover,
                    ..
                } = self;
                let mut ctx = SysCtx {
                    sys: memsys,
                    mem,
                    program,
                    uops,
                    out: &mut outbox,
                    drain_until,
                    failover: failover.as_ref(),
                };
                report.pe_ticks += wakes.tick_due(now, |p| pes[p as usize].tick(now, &mut ctx));
            }
            for (time, to, msg, stamp) in outbox.drain(..) {
                self.post(time, to, msg, stamp);
            }

            // Jump to the next due wake or event.
            let next_wake = wakes.next();
            let next_event = self.events.peek().map(|e| e.time).unwrap_or(u64::MAX);
            let target = next_event.min(next_wake);
            if target == u64::MAX {
                // Nothing will ever happen again. A quiet machine with
                // lost work (tainted kills, orphaned adoptions) is a
                // fault outcome, not a completed program.
                let live: usize = self.pes.iter().map(|p| p.lse.live_instances()).sum();
                if live > 0 || self.unrecovered_work() > 0 {
                    self.seal_report(finish(report), wall);
                    self.finalize_obs(self.now);
                    return Err(self.quiescence_error());
                }
                break;
            }
            debug_assert!(target > self.now, "time must advance");
            self.now = target;
        }

        self.seal_report(finish(report), wall);
        let final_cycle = self.now.max(self.drain_until);
        for pe in &mut self.pes {
            pe.finish(final_cycle);
        }
        self.finalize_obs(final_cycle);
        Ok(self.collect(final_cycle))
    }

    /// Merges every unit's observability log into the wall-order stream
    /// (idempotent; called once at the end of the run).
    fn finalize_obs(&mut self, final_cycle: u64) {
        if self.obs_finalized {
            return;
        }
        self.obs_finalized = true;
        if !self.config.obs_active() {
            return;
        }
        let mut records: Vec<ObsRecord> = Vec::new();
        let mut dropped = 0u64;
        for pe in &mut self.pes {
            pe.finish_obs(final_cycle);
            dropped += pe.obs.drain_into(&mut records);
        }
        for log in &mut self.dse_obs {
            dropped += log.drain_into(&mut records);
        }
        records.append(&mut self.obs_misc);
        self.obs = Some(ObsStream::from_records(records, dropped));
    }

    /// The merged observability stream of the finished run (None before
    /// the run, or when observability was entirely off).
    pub fn obs(&self) -> Option<&ObsStream> {
        self.obs.as_ref()
    }

    /// Aggregated cycle-sampled metrics of the finished run.
    pub fn metrics(&self) -> Option<MetricsReport> {
        let stream = self.obs.as_ref()?;
        let mut sink = MetricsSink::new(self.config.total_pes());
        stream.feed(&mut sink);
        Some(sink.finish())
    }

    /// Renders the finished run as a Chrome/Perfetto `trace.json`
    /// document (one track per PE, MFC and DSE).
    pub fn perfetto_trace(&self) -> Option<String> {
        let stream = self.obs.as_ref()?;
        Some(crate::job::perfetto_trace(
            &self.config,
            &self.program,
            stream,
        ))
    }

    fn collect(&self, final_cycle: u64) -> RunStats {
        let per_pe: Vec<PeStats> = self.pes.iter().map(|p| p.stats).collect();
        let mut aggregate = PeStats::default();
        for s in &per_pe {
            aggregate.merge(s);
        }
        RunStats {
            cycles: final_cycle,
            instructions: aggregate.issued,
            instances: self.pes.iter().map(|p| p.lse.stats().allocs).sum(),
            bus_utilisation: self.memsys.bus.utilisation(final_cycle),
            mem_utilisation: self.memsys.mem.utilisation(final_cycle),
            mem_payload_bytes: self.memsys.stats().payload_bytes,
            dma_commands: self.pes.iter().map(|p| p.mfc.stats().commands).sum(),
            max_dse_pending: self
                .dses
                .iter()
                .map(|d| d.stats().max_pending)
                .max()
                .unwrap_or(0),
            cache_hits: self
                .pes
                .iter()
                .filter_map(|p| p.cache.as_ref())
                .map(|c| c.stats().hits)
                .sum(),
            cache_misses: self
                .pes
                .iter()
                .filter_map(|p| p.cache.as_ref())
                .map(|c| c.stats().misses)
                .sum(),
            dma_attempts: self.pes.iter().map(|p| p.mfc.stats().attempts).sum(),
            dma_retries: self.pes.iter().map(|p| p.mfc.stats().retries).sum(),
            dma_exhausted: self.pes.iter().map(|p| p.mfc.stats().exhausted).sum(),
            dma_stalled: self.pes.iter().map(|p| p.mfc.stats().stalled).sum(),
            dma_backoff_cycles: self.pes.iter().map(|p| p.mfc.stats().backoff_cycles).sum(),
            msgs_dropped: self.fault_counts.msgs_dropped,
            msgs_duplicated: self.fault_counts.msgs_duplicated,
            msgs_delayed: self.fault_counts.msgs_delayed,
            falloc_denials: self.dses.iter().map(|d| d.stats().denials).sum(),
            degraded_pes: self
                .pes
                .iter()
                .filter(|p| p.degraded)
                .map(|p| p.id())
                .collect(),
            fallback_instances: self.pes.iter().map(|p| p.fallbacks).sum(),
            watchdog_parks: self.pes.iter().map(|p| p.watchdog_parks).sum(),
            dse_crashes: self.dses.iter().map(|d| d.stats().crashes).sum(),
            failovers: self.dses.iter().map(|d| d.stats().failovers).sum(),
            rehomed_fallocs: self.dses.iter().map(|d| d.stats().rehomed).sum(),
            resync_msgs: self.dses.iter().map(|d| d.stats().resyncs).sum(),
            lse_crashes: self.pes.iter().map(|p| p.lse.stats().crashes).sum(),
            evacuated_frames: self.pes.iter().map(|p| p.lse.stats().evacuated).sum(),
            readmitted_instances: self.pes.iter().map(|p| p.lse.stats().readmitted).sum(),
            killed_instances: self.pes.iter().map(|p| p.lse.stats().killed).sum(),
            per_pe,
            aggregate,
        }
    }
}

/// Convenience: build, launch, and run a program in one call.
pub fn simulate(
    config: SystemConfig,
    program: Arc<Program>,
    args: &[i64],
) -> Result<(RunStats, System), RunError> {
    let mut sys = System::new(config, program)?;
    sys.launch(args)?;
    let stats = sys.run()?;
    Ok((stats, sys))
}
