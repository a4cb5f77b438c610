//! The processing element: an SPU-like pipeline plus its LSE, local
//! store, and MFC.
//!
//! The pipeline keeps the SPU properties the paper relies on (§4.1):
//! in-order, dual-issue (one *compute*-class + one *memory*-class
//! instruction per cycle), no caches, no branch prediction (taken branches
//! pay a small fixed penalty). Asynchronous results (frame `LOAD`s,
//! `LSLOAD`s) flow through a per-register scoreboard so local-store
//! latency overlaps with execution ("LS stalls ... are mostly hidden",
//! §4.3), while main-memory `READ`s block the pipeline outright — the
//! stalls the prefetch mechanism exists to remove.
//!
//! Every cycle is attributed to exactly one [`StallCat`] bucket; cycles
//! spent anywhere inside a PF code block (including waiting for a full MFC
//! queue) are *Prefetching* overhead, as in the paper's Fig. 5.

use crate::stats::{FineCat, PeStats, StallCat};
use crate::step::{self, ea, Effect, Step};
use crate::uop::{Uop, UopTable};
use dta_isa::{
    CodeBlock, FramePtr, Instr, Program, Reg, Src, FRAME_PTR_REG, NUM_REGS, PREFETCH_BASE_REG,
};
use dta_mem::{
    Cache, CacheParams, DmaCommand, DmaCompletion, DmaKind, LocalStore, MainMemory, MemorySystem,
    Mfc, MfcParams, ResourcePool, TransferKind,
};
use dta_obs::{GaugeKind, ObsEvent, ObsLog, ThreadEvent};
use dta_sched::{
    CrashReport, Dest, InstanceId, Lse, LseParams, Message, MsgSeq, Slot, ThreadState,
};
use std::collections::VecDeque;
use std::ops::ControlFlow;

/// A stamped outbox entry: `(absolute delivery cycle, destination,
/// message, deterministic source stamp)`.
pub type OutMsg = (u64, Dest, Message, MsgSeq);

/// Pipeline tuning knobs (extracted from
/// [`SystemConfig`](crate::config::SystemConfig)).
#[derive(Clone, Copy, Debug)]
pub struct PipelineParams {
    /// Penalty cycles for taken branches.
    pub taken_branch_penalty: u64,
    /// Cycles to dispatch a ready thread.
    pub dispatch_penalty: u64,
    /// Scheduler-message latency (remote destinations).
    pub msg_latency: u64,
    /// Local-store access latency.
    pub ls_latency: u64,
    /// Local-store ports.
    pub ls_ports: usize,
    /// Optional scalar data cache (extension; `None` = paper platform).
    pub cache: Option<CacheParams>,
    /// Run straight-line PF blocks on the LSE's SP pipeline (extension).
    pub sp_pf_overlap: bool,
    /// Record structured observability events.
    pub obs_events: bool,
    /// Gauge sampling stride, cycles (0 = off).
    pub obs_interval: u64,
    /// Per-unit observability ring capacity.
    pub obs_capacity: usize,
    /// Run cycle budget: spans never extend past it, so the cycle-limit
    /// error path is span-invariant.
    pub max_cycles: u64,
}

/// What a PE did in a tick — drives the system loop's time skipping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Activity {
    /// Issued/stalled productively; tick again next cycle (the pipeline
    /// is due at `now + 1`, never later).
    Active,
    /// Blocked until the given cycle (stall cycles already attributed) or
    /// until an external event (`u64::MAX`).
    Blocked(u64),
    /// No current thread and nothing ready.
    Idle,
}

/// Shared mutable state a PE needs while ticking.
pub struct SysCtx<'a> {
    /// The shared interconnect + memory controller.
    pub sys: &'a mut MemorySystem,
    /// Main-memory contents.
    pub mem: &'a mut MainMemory,
    /// The program being executed.
    pub program: &'a Program,
    /// The program's threads, decoded once ([`UopTable`]).
    pub uops: &'a UopTable,
    /// Outbox: stamped `(absolute delivery cycle, destination, message)`.
    pub out: &'a mut Vec<OutMsg>,
    /// Latest cycle at which posted writes will have drained.
    pub drain_until: &'a mut u64,
    /// DSE crash/restart schedule: FALLOCs route to the home node's
    /// *current* arbiter (None = fixed topology).
    pub failover: Option<&'a crate::fault::FailoverSchedule>,
}

enum Exec {
    /// Advance to the next instruction.
    Next,
    /// Taken branch/jump to this pc.
    Redirect(u32),
    /// Could not issue (e.g. MFC queue full); retry next cycle.
    Retry(StallCat, FineCat),
    /// Issued; pipeline blocked until the given cycle.
    Block {
        until: u64,
        cat: StallCat,
        fine: FineCat,
    },
    /// Issued a FALLOC; blocked until the response message arrives.
    BlockFalloc,
    /// DMAYIELD with outstanding transfers: the thread leaves the
    /// pipeline in the *Wait for DMA* state.
    Yield,
    /// STOP.
    Stop,
}

/// A processing element.
pub struct Pe {
    pe: u16,
    node: u16,
    /// The PE's Local Scheduler Element (owns all local instances).
    pub lse: Lse,
    /// The PE's local store.
    pub ls: LocalStore,
    /// The PE's DMA engine.
    pub mfc: Mfc,
    /// Optional scalar data cache.
    pub cache: Option<Cache>,
    ls_ports: ResourcePool,
    /// The SP pipeline (PF offload) is free from this cycle.
    sp_free_at: u64,
    params: PipelineParams,
    /// The instance on the pipeline and its slot in the LSE's slab (live
    /// for as long as the instance is current).
    current: Option<(InstanceId, Slot)>,
    /// Pipeline resumes at this cycle (stall already attributed).
    resume_at: u64,
    /// Destination register of an in-flight FALLOC.
    waiting_falloc: Option<Reg>,
    falloc_block_start: u64,
    /// Deterministic source stamp for posted messages (rank = PE index).
    pub(crate) stamp: MsgSeq,
    /// Instances parked off the pipeline because their FALLOC was queued
    /// at the DSE (FIFO: grants arrive in queue order).
    parked_fallocs: VecDeque<InstanceId>,
    /// Scoreboard: cycle at which each register's value is usable.
    reg_ready: [u64; NUM_REGS],
    /// Which stall bucket a too-early consumer of each register charges.
    reg_stall: [StallCat; NUM_REGS],
    idle_since: Option<u64>,
    /// A DMA command on this PE exhausted its retry budget: subsequent
    /// frame allocations substitute the thread's PF-skipping fallback (the
    /// baseline decoupled READ/WRITE path) when the program provides one.
    pub degraded: bool,
    /// Instances dispatched on a fallback (PF-skipped) thread body.
    pub fallbacks: u64,
    /// Watchdog: consecutive cycles the current instruction has retried
    /// without issuing.
    spin: u64,
    /// Watchdog spin bound; `None` when fault injection is off, so
    /// fault-free runs are cycle-identical to the unwatched pipeline.
    watchdog_spin_limit: Option<u64>,
    /// Instances parked off the pipeline by the spin watchdog.
    pub watchdog_parks: u64,
    /// The most recent pipeline vacancy came from a watchdog park: the
    /// next closed idle span is attributed [`FineCat::Parked`]. Set at
    /// park, cleared at the next dispatch — both simulated events, so
    /// the attribution does not depend on the host schedule.
    parked_hint: bool,
    /// DMA commands issued by this PE and not yet completed, maintained
    /// at the same points that emit `DmaIssued`/`DmaCompleted` events
    /// (issue in [`Self::tick`]'s exec, completion at `DmaDone`
    /// delivery). Compute cycles charged while this is non-zero feed
    /// `PeStats::attr_overlap_cycles`.
    pub dma_open: u64,
    /// Executed-instruction counters.
    pub stats: PeStats,
    /// Structured observability log (events + gauge samples), merged
    /// into the run's `ObsStream` at the end.
    pub obs: ObsLog,
}

impl Pe {
    /// Creates PE `pe` of node `node`.
    pub fn new(
        pe: u16,
        node: u16,
        lse_params: LseParams,
        mfc_params: MfcParams,
        ls_size: u32,
        params: PipelineParams,
    ) -> Self {
        Pe {
            pe,
            node,
            lse: Lse::new(pe, lse_params),
            ls: LocalStore::new(ls_size as usize),
            mfc: Mfc::new(mfc_params),
            cache: params.cache.map(Cache::new),
            ls_ports: ResourcePool::new(params.ls_ports),
            sp_free_at: 0,
            params,
            current: None,
            resume_at: 0,
            waiting_falloc: None,
            falloc_block_start: 0,
            stamp: MsgSeq::first(pe as u32),
            parked_fallocs: VecDeque::new(),
            reg_ready: [0; NUM_REGS],
            reg_stall: [StallCat::Working; NUM_REGS],
            idle_since: None,
            degraded: false,
            fallbacks: 0,
            spin: 0,
            watchdog_spin_limit: None,
            watchdog_parks: 0,
            parked_hint: false,
            dma_open: 0,
            stats: PeStats::default(),
            obs: ObsLog::new(
                pe as u32,
                params.obs_capacity,
                params.obs_events,
                params.obs_interval,
            ),
        }
    }

    /// Arms the spin watchdog: after `limit` consecutive retry cycles on
    /// one instruction the current instance is parked off the pipeline
    /// (recoverable if its DMA completions ever arrive; a quiescent park
    /// is reported as a watchdog trip instead of a silent hang).
    pub fn arm_watchdog(&mut self, limit: u64) {
        self.watchdog_spin_limit = Some(limit.max(1));
    }

    /// Global PE index.
    #[inline]
    pub fn id(&self) -> u16 {
        self.pe
    }

    /// The instance currently on the pipeline.
    #[inline]
    pub fn current(&self) -> Option<InstanceId> {
        self.current.map(|(id, _)| id)
    }

    /// Charges `n` cycles to a coarse/fine category pair, accumulating
    /// the attribution-side DMA overlap: compute cycles charged while
    /// this PE has DMA in flight are exactly the paper's "pipeline busy
    /// while DMA transfers" claim, counted from the simulator's own
    /// books rather than the event stream.
    #[inline]
    fn charge(&mut self, cat: StallCat, fine: FineCat, n: u64) {
        self.stats.add_cycles(cat, fine, n);
        if self.dma_open > 0 && matches!(fine, FineCat::Compute | FineCat::Degraded) {
            self.stats.attr_overlap_cycles += n;
        }
    }

    /// Fine category for productive pipeline activity: PF-block cycles
    /// are prefetch overhead; otherwise compute, demoted to `Degraded`
    /// once the PE's DMA retry budget is exhausted.
    #[inline]
    fn act_fine(&self, in_pf: bool) -> FineCat {
        if in_pf {
            FineCat::PfGated
        } else if self.degraded {
            FineCat::Degraded
        } else {
            FineCat::Compute
        }
    }

    /// Fine category for the idle span that is closing now.
    #[inline]
    fn idle_fine(&self) -> FineCat {
        if self.parked_hint {
            FineCat::Parked
        } else {
            FineCat::Idle
        }
    }

    /// Would a `FallocResponse` for `for_inst` land on a live wait?
    /// (Stale responses for instances destroyed by an LSE crash drop.)
    pub fn expects_falloc_response(&self, for_inst: InstanceId) -> bool {
        (self.waiting_falloc.is_some() && self.current() == Some(for_inst))
            || self.parked_fallocs.contains(&for_inst)
    }

    /// The scheduled LSE crash fires on this PE: the pipeline drops every
    /// in-flight hold on destroyed instances and the LSE classifies its
    /// population (see [`Lse::crash`]). `evac_to` is the planned adoption
    /// peer from the failover schedule.
    ///
    /// Stall attribution is closed out *at the crash cycle*: open wait
    /// spans are normally attributed by the event that completes them,
    /// which will never arrive now, and the idle tail must start at a
    /// point derived from simulated history — never from the cycle at
    /// which the host happens to visit the dead PE next.
    pub fn crash_lse(&mut self, now: u64, evac_to: Option<u16>) -> CrashReport {
        if self.waiting_falloc.take().is_some() {
            self.charge(
                StallCat::LseStall,
                FineCat::FallocWait,
                now - self.falloc_block_start,
            );
        }
        self.current = None;
        // The crash destroys every local instance; their in-flight DMA
        // completions (if any) will be dropped as stale upstream, so the
        // overlap census restarts from zero and the MFC stops counting
        // their commands against it.
        self.dma_open = 0;
        self.mfc.disown();
        self.parked_fallocs.clear();
        self.spin = 0;
        // Execution latencies (a blocking READ's included) are attributed
        // at issue through `resume_at`, so idle time starts at whichever
        // of issue horizon and crash cycle is later.
        self.idle_since.get_or_insert(self.resume_at.max(now));
        self.lse.crash(evac_to)
    }

    /// The scheduled LSE restart fires: the PE rejoins cold (the caller
    /// re-registers its capacity with the arbiter).
    pub fn restart_lse(&mut self) {
        self.lse.restart();
    }

    /// Closes out trailing idle time at the end of a run so per-PE
    /// category sums equal total cycles.
    pub fn finish(&mut self, final_cycle: u64) {
        if let Some(t0) = self.idle_since.take() {
            self.charge(
                StallCat::Idle,
                self.idle_fine(),
                final_cycle.saturating_sub(t0),
            );
        }
    }

    /// Delivers a FALLOC response: writes the frame pointer, attributes
    /// the LSE-stall time, and unblocks the pipeline — or, if the waiting
    /// thread was descheduled by a `FallocDeferred`, re-readies the parked
    /// instance.
    pub fn complete_falloc(&mut self, now: u64, frame: FramePtr, for_inst: InstanceId) {
        if self.waiting_falloc.is_some() && self.current() == Some(for_inst) {
            let rd = self.waiting_falloc.take().expect("checked");
            let (_, at) = self.current.expect("checked");
            self.set_reg(at, rd, frame.encode() as i64, now, StallCat::Working);
            // The response itself takes a cycle to process.
            let resume = now + 1;
            self.charge(
                StallCat::LseStall,
                FineCat::FallocWait,
                resume - self.falloc_block_start,
            );
            self.resume_at = resume;
            return;
        }
        let pos = self
            .parked_fallocs
            .iter()
            .position(|&p| p == for_inst)
            .expect("FALLOC response without a waiting or parked FALLOC");
        let id = self
            .parked_fallocs
            .remove(pos)
            .expect("position just found");
        let at = self.lse.slot_of(id).expect("parked instance is live");
        let inst = self.lse.at_mut(at);
        let rd = inst
            .pending_falloc
            .take()
            .expect("parked instance lost its pending FALLOC register");
        if !rd.is_zero() {
            inst.regs[rd.index()] = frame.encode() as i64;
        }
        self.lse.make_ready(now, at);
    }

    /// Delivers a `FallocDeferred` nack: the waiting thread leaves the
    /// pipeline so other ready threads can run; its grant arrives later as
    /// a normal response.
    pub fn defer_falloc(&mut self, now: u64, for_inst: InstanceId) {
        if self.waiting_falloc.is_none() || self.current() != Some(for_inst) {
            // Under injected message delays a nack can arrive after the
            // grant already completed the FALLOC; it is stale — ignore it.
            return;
        }
        let rd = self.waiting_falloc.take().expect("checked");
        let (id, at) = self.current.take().expect("checked");
        let inst = self.lse.at_mut(at);
        inst.pending_falloc = Some(rd);
        inst.state = ThreadState::WaitFalloc;
        self.parked_fallocs.push_back(id);
        self.record(now, id, ThreadEvent::ParkedWaitFalloc);
        let resume = now + 1;
        self.charge(
            StallCat::LseStall,
            FineCat::FallocWait,
            resume - self.falloc_block_start,
        );
        self.resume_at = resume;
    }

    /// Handles a DMA completion that belongs to the *currently running*
    /// instance (still on the pipeline, e.g. in its PF block).
    pub fn current_dma_done(&mut self, owner: InstanceId, tag: u8) -> bool {
        match self.current {
            Some((id, at)) if id == owner => {
                self.lse.at_mut(at).dma_complete(tag);
                true
            }
            _ => false,
        }
    }

    #[inline]
    fn reg(&self, at: Slot, r: Reg) -> i64 {
        step::reg(&self.lse.at(at).regs, r)
    }

    #[inline]
    fn set_reg(&mut self, at: Slot, r: Reg, v: i64, ready_at: u64, stall: StallCat) {
        step::set(&mut self.lse.at_mut(at).regs, r, v);
        self.mark_ready(r, ready_at, stall);
    }

    /// Scoreboards register `r` as usable from `ready_at`; a too-early
    /// consumer charges `stall`.
    #[inline]
    fn mark_ready(&mut self, r: Reg, ready_at: u64, stall: StallCat) {
        if !r.is_zero() {
            self.reg_ready[r.index()] = ready_at;
            self.reg_stall[r.index()] = stall;
        }
    }

    #[inline]
    fn src_val(&self, at: Slot, s: Src) -> i64 {
        step::src(&self.lse.at(at).regs, s)
    }

    /// If an operand in use-mask `uses` is not yet ready at `now`, returns
    /// when the latest one is, and the coarse and fine stall buckets to
    /// charge until then. The fine twin is derived from the producer's
    /// coarse bucket — `LsStall` operands come from local-store loads,
    /// `MemStall` operands from blocking READs — so the mapping is a
    /// pure function of simulated state.
    ///
    /// The latest operand stays the latest as time advances, so the
    /// buckets hold for every cycle of the stall. Among operands that
    /// tie, the lowest register wins; only local-store loads leave a
    /// register unready at an issue slot (every other producer blocks
    /// the pipeline past its result), so tied operands share a bucket.
    fn operand_stall(&self, uses: u64, now: u64, in_pf: bool) -> Option<(u64, StallCat, FineCat)> {
        let mut worst: Option<(u64, StallCat)> = None;
        for r in regs_of(uses) {
            let t = self.reg_ready[r];
            if t > now && worst.is_none_or(|(wt, _)| t > wt) {
                worst = Some((t, self.reg_stall[r]));
            }
        }
        worst.map(|(ready, cat)| {
            if in_pf {
                (ready, StallCat::Prefetch, FineCat::PfGated)
            } else {
                let fine = match cat {
                    StallCat::LsStall => FineCat::LsStall,
                    StallCat::MemStall => FineCat::ReadStall,
                    _ => self.act_fine(false),
                };
                (ready, cat, fine)
            }
        })
    }

    /// The end of the span window opening at `now` (DESIGN.md §12): the
    /// first cycle a tick at `now` may not issue in the same host call.
    ///
    /// The window runs to the cycle budget, so the cycle-limit error
    /// sees the state the per-cycle loop leaves, and stops at this PE's
    /// planned LSE crash (read from `failover`) while it lies ahead: the
    /// crash takes the pipeline down. While this PE has DMA open it also
    /// stops short of the next completion, whose delivery changes
    /// `dma_open`, which the overlap attribution of every charged cycle
    /// reads. A completion that message faults delayed past its cycle is
    /// overdue: its delivery could land at any cycle, so the window is
    /// the one cycle `now`.
    fn span_horizon(&self, now: u64, failover: Option<&crate::fault::FailoverSchedule>) -> u64 {
        let mut h = self.params.max_cycles.saturating_add(1);
        if let Some(o) = failover.and_then(|f| f.lse_outage(self.pe)) {
            if o.crash_at > now {
                h = h.min(o.crash_at);
            }
        }
        if self.dma_open > 0 {
            let (next, in_flight) = self.mfc.quiet_horizon(now);
            h = if in_flight < self.dma_open {
                now + 1
            } else {
                h.min(next)
            };
        }
        h.max(now + 1)
    }

    /// Advances the PE at `now`: one cycle, or a span of quiet cycles
    /// (see [`Self::issue`]).
    pub fn tick(&mut self, now: u64, ctx: &mut SysCtx<'_>) -> Activity {
        if self.obs.metrics_on() {
            self.flush_gauges(now);
        }
        // A crashed LSE takes its PE down with it: the pipeline cannot
        // dispatch (the ready queue is gone) and must not retire the
        // in-flight instruction of a destroyed instance. `idle_since` is
        // NOT touched here — visit times are a host schedule; the crash
        // path pins it from simulated history.
        if self.lse.is_dead() {
            return Activity::Idle;
        }
        if self.waiting_falloc.is_some() {
            return Activity::Blocked(u64::MAX);
        }
        if self.resume_at > now {
            return Activity::Blocked(self.resume_at);
        }

        // Dispatch if the pipeline is free. With the SP/XP extension,
        // ready threads whose next work is a straight-line PF block are
        // offloaded to the SP pipeline instead of occupying this one.
        if self.current.is_none() {
            let (id, at) = loop {
                let Some((id, at)) = self.lse.pop_ready() else {
                    self.idle_since.get_or_insert(now);
                    return Activity::Idle;
                };
                if self.params.sp_pf_overlap && self.sp_offloadable(at, ctx.program) {
                    self.run_pf_on_sp(id, at, now, ctx);
                    continue;
                }
                break (id, at);
            };
            if let Some(t0) = self.idle_since.take() {
                self.charge(StallCat::Idle, self.idle_fine(), now - t0);
            }
            self.dispatch(id, at, now, ctx.program);
            if self.params.dispatch_penalty > 0 {
                self.charge(
                    StallCat::Working,
                    self.act_fine(false),
                    self.params.dispatch_penalty,
                );
                self.resume_at = now + self.params.dispatch_penalty;
                return Activity::Blocked(self.resume_at);
            }
        }

        let act = self.issue(now, ctx);
        debug_assert!(
            act != Activity::Active || self.resume_at <= now + 1,
            "PE {}: Active at {now} with the pipeline due at {}",
            self.pe,
            self.resume_at
        );
        act
    }

    fn dispatch(&mut self, id: InstanceId, at: Slot, now: u64, program: &Program) {
        let inst = self.lse.at_mut(at);
        let thread = &program.threads[inst.thread.index()];
        let starting = inst.pc == 0;
        inst.state = if thread.block_of(inst.pc) == CodeBlock::Pf {
            ThreadState::ProgramDma
        } else {
            ThreadState::Running
        };
        if starting {
            inst.regs[FRAME_PTR_REG.index()] = inst.frame.encode() as i64;
            inst.regs[PREFETCH_BASE_REG.index()] = if inst.pf_buf_addr == u32::MAX {
                0
            } else {
                inst.pf_buf_addr as i64
            };
        }
        // All register values live in the instance; everything is ready.
        self.reg_ready = [now; NUM_REGS];
        self.stats.threads_dispatched += 1;
        self.current = Some((id, at));
        self.parked_hint = false;
        self.record(now, id, ThreadEvent::Dispatched);
    }

    /// Issues the current instance from `now` on, up to the end of the
    /// span window ([`Self::span_horizon`]).
    ///
    /// Cycle `now` is the tick's true cycle in global order, so it may
    /// issue anything. Every later cycle runs in the same call only while
    /// the µop at `pc` may run ahead ([`Uop::ahead`]): it is quiet and,
    /// if it pairs, so is `pc + 1`, which may dual-issue with it. Such a
    /// cycle touches nothing outside this PE's pipeline state, so
    /// running it ahead of the other PEs changes no result.
    /// The first instruction that must execute at its true cycle — a
    /// post, a shared-memory access, a DMA or scheduler operation — ends
    /// the call and issues as the first cycle of the next tick. An
    /// operand stall whose end is known is charged in one step, up to
    /// the window's end.
    fn issue(&mut self, now: u64, ctx: &mut SysCtx<'_>) -> Activity {
        let (id, at) = self.current.expect("issue without a current thread");
        let (thread, mut pc) = {
            let inst = self.lse.at(at);
            (inst.thread, inst.pc)
        };
        let table: &UopTable = ctx.uops;
        let uops = table.thread(thread);
        let failover = ctx.failover;
        // Fixed by the state after cycle `now`: the quiet cycles after it
        // change nothing the window depends on. A stall at `now` issues
        // nothing, so computing it then is the same.
        let mut horizon = None;
        let mut t = now;
        loop {
            let u = &uops[pc as usize];
            debug_assert!(t == now || u.ahead, "a boundary issued ahead of its cycle");
            let in_pf = u.block == CodeBlock::Pf;
            if let Some((ready, cat, fine)) = self.operand_stall(u.uses, t, in_pf) {
                let h = *horizon.get_or_insert_with(|| self.span_horizon(now, failover));
                let until = ready.min(h);
                self.charge(cat, fine, until - t);
                t = until;
            } else {
                match self.issue_cycle(t, id, at, uops, pc, ctx) {
                    ControlFlow::Continue(next) => pc = next,
                    ControlFlow::Break(act) => return act,
                }
                t = self.resume_at.max(t + 1);
            }
            let h = *horizon.get_or_insert_with(|| self.span_horizon(now, failover));
            if t >= h || !uops[pc as usize].ahead {
                break;
            }
        }
        self.lse.at_mut(at).pc = pc;
        self.resume_at = self.resume_at.max(t);
        if t == now + 1 {
            Activity::Active
        } else {
            Activity::Blocked(t)
        }
    }

    /// Issues one cycle at `t`, whose first operands are ready: the µop
    /// at `pc` and, when it pairs and its operands are ready too, the
    /// next one. Continues with the pc after the cycle (a taken branch's
    /// penalty or a blocking `READ`'s latency lands in `resume_at`), or
    /// breaks with the tick's outcome when the instruction waits for a
    /// message, yields, stops or must retry — it then leaves the
    /// instance's pc as the outcome requires.
    fn issue_cycle(
        &mut self,
        t: u64,
        id: InstanceId,
        at: Slot,
        uops: &[Uop],
        pc: u32,
        ctx: &mut SysCtx<'_>,
    ) -> ControlFlow<Activity, u32> {
        let u1 = &uops[pc as usize];
        let in_pf = u1.block == CodeBlock::Pf;
        let cycle_cat = if in_pf {
            StallCat::Prefetch
        } else {
            StallCat::Working
        };

        let r1 = self.exec(t, id, at, u1.instr, in_pf, ctx);
        if let Exec::Retry(cat, fine) = r1 {
            self.charge(cat, fine, 1);
            self.stats.dma_queue_retries += 1;
            self.spin += 1;
            if let Some(limit) = self.watchdog_spin_limit {
                if self.spin >= limit {
                    return ControlFlow::Break(self.watchdog_park(t, id, at));
                }
            }
            return ControlFlow::Break(Activity::Active);
        }
        self.spin = 0;

        self.stats.record_issue(u1.class);
        self.count_mem_op(&u1.instr);
        self.stats.issue_cycles += 1;

        match r1 {
            Exec::Retry(..) => unreachable!("handled above"),
            Exec::Next => {
                let mut next = pc + 1;
                // Try to pair a second instruction (dual issue).
                let u2 = u1.pairs.then(|| &uops[next as usize]);
                if let Some(u2) = u2.filter(|u2| self.operand_stall(u2.uses, t, in_pf).is_none()) {
                    match self.exec(t, id, at, u2.instr, in_pf, ctx) {
                        Exec::Next => {
                            self.stats.record_issue(u2.class);
                            self.count_mem_op(&u2.instr);
                            self.stats.dual_cycles += 1;
                            next += 1;
                        }
                        Exec::Redirect(target) => {
                            self.stats.record_issue(u2.class);
                            self.stats.dual_cycles += 1;
                            next = target;
                            self.apply_branch_penalty(t, cycle_cat, in_pf);
                        }
                        // Pairable classes never block, retry, yield or
                        // stop.
                        _ => unreachable!("non-simple instruction slipped into dual issue"),
                    }
                }
                self.charge(cycle_cat, self.act_fine(in_pf), 1);
                ControlFlow::Continue(next)
            }
            Exec::Redirect(target) => {
                self.charge(cycle_cat, self.act_fine(in_pf), 1);
                self.apply_branch_penalty(t, cycle_cat, in_pf);
                ControlFlow::Continue(target)
            }
            Exec::Block { until, cat, fine } => {
                // The access itself issued at its true cycle; the quiet
                // cycles after the block may still run in this call.
                let until = until.max(t + 1);
                self.charge(cat, fine, until - t);
                self.resume_at = until;
                ControlFlow::Continue(pc + 1)
            }
            Exec::BlockFalloc => {
                self.falloc_block_start = t;
                self.lse.at_mut(at).pc = pc + 1;
                ControlFlow::Break(Activity::Blocked(u64::MAX))
            }
            Exec::Yield => {
                self.charge(cycle_cat, self.act_fine(in_pf), 1);
                let inst = self.lse.at_mut(at);
                inst.pc = pc + 1;
                inst.state = ThreadState::WaitDma;
                self.current = None;
                self.record(t, id, ThreadEvent::WaitDma);
                ControlFlow::Break(Activity::Active)
            }
            Exec::Stop => {
                self.charge(cycle_cat, self.act_fine(in_pf), 1);
                self.record(t, id, ThreadEvent::Stopped);
                self.lse.stop(id);
                self.current = None;
                ControlFlow::Break(Activity::Active)
            }
        }
    }

    /// Posts a `STORE`/`FFREE` effect to the owning LSE.
    fn emit_effect(&mut self, now: u64, at: Slot, effect: Effect, ctx: &mut SysCtx<'_>) {
        let (dest_pe, msg) = match effect {
            Effect::Store { frame, slot, value } => {
                (frame.pe, Message::Store { frame, slot, value })
            }
            Effect::Ffree { frame } => (frame.pe, Message::Ffree { frame }),
        };
        let delay = self.msg_delay(dest_pe);
        let stamp = self.stamp.bump();
        self.lse.at_mut(at).tainted = true;
        ctx.out.push((now + delay, Dest::Lse(dest_pe), msg, stamp));
    }

    /// Parks the current instance after `watchdog_spin_limit` consecutive
    /// retry cycles on one instruction. The pc is *not* advanced: if the
    /// instance's outstanding DMA completions ever arrive it is re-readied
    /// and re-executes the same (idempotent) instruction — `DMAWAIT`
    /// re-checks its tag, a DMA enqueue re-attempts admission. If nothing
    /// re-readies it the machine quiesces and the run ends with a typed
    /// watchdog error instead of spinning to the cycle limit.
    fn watchdog_park(&mut self, now: u64, id: InstanceId, at: Slot) -> Activity {
        self.spin = 0;
        self.watchdog_parks += 1;
        self.parked_hint = true;
        let inst = self.lse.at_mut(at);
        inst.state = ThreadState::WaitDma;
        self.current = None;
        if self.obs.events_on() {
            self.obs.emit(
                now,
                ObsEvent::WatchdogPark {
                    pe: self.pe,
                    instance: id.0,
                },
            );
        }
        self.record(now, id, ThreadEvent::WaitDma);
        Activity::Active
    }

    fn apply_branch_penalty(&mut self, now: u64, cat: StallCat, in_pf: bool) {
        if self.params.taken_branch_penalty > 0 {
            self.charge(cat, self.act_fine(in_pf), self.params.taken_branch_penalty);
            self.resume_at = now + 1 + self.params.taken_branch_penalty;
        }
    }

    fn count_mem_op(&mut self, i: &Instr) {
        match i {
            Instr::Load { .. } => self.stats.loads += 1,
            Instr::Store { .. } => self.stats.stores += 1,
            Instr::Read { .. } => self.stats.reads += 1,
            Instr::Write { .. } => self.stats.writes += 1,
            _ => {}
        }
    }

    fn exec(
        &mut self,
        now: u64,
        id: InstanceId,
        at: Slot,
        i: Instr,
        in_pf: bool,
        ctx: &mut SysCtx<'_>,
    ) -> Exec {
        match i {
            Instr::Falloc { rd, thread, sc } => {
                let stamp = self.stamp.bump();
                self.lse.at_mut(at).tainted = true;
                let target = ctx.failover.map_or(self.node, |f| f.route(self.node, now));
                ctx.out.push((
                    now + self.params.msg_latency,
                    Dest::Dse(target),
                    Message::FallocRequest {
                        requester: self.pe,
                        for_inst: id,
                        thread,
                        sc,
                        hops: 0,
                    },
                    stamp,
                ));
                self.waiting_falloc = Some(rd);
                Exec::BlockFalloc
            }
            Instr::Stop => Exec::Stop,
            Instr::Read { rd, ra, off } => {
                let addr = ea(self.reg(at, ra), off) as u64;
                let (cat, fine) = if in_pf {
                    (StallCat::Prefetch, FineCat::PfGated)
                } else {
                    (StallCat::MemStall, FineCat::ReadStall)
                };
                if !in_pf {
                    // The stall the prefetch mechanism exists to remove:
                    // feed the per-thread PF-coverage census.
                    self.record(now, id, ThreadEvent::ReadBlocked);
                }
                let v = ctx.mem.read_i32_sext(addr);
                let until = match &mut self.cache {
                    Some(c) => c.read(now, addr, ctx.sys),
                    None => ctx.sys.request(now, TransferKind::ScalarRead),
                };
                self.set_reg(at, rd, v, until, StallCat::MemStall);
                Exec::Block { until, cat, fine }
            }
            Instr::Write { rs, ra, off } => {
                let addr = ea(self.reg(at, ra), off) as u64;
                let value = self.reg(at, rs) as u32;
                self.lse.at_mut(at).tainted = true;
                ctx.mem.write_u32(addr, value);
                if let Some(c) = &mut self.cache {
                    c.write(now, addr);
                }
                let done = ctx.sys.request(now, TransferKind::ScalarWrite);
                *ctx.drain_until = (*ctx.drain_until).max(done);
                Exec::Next
            }
            Instr::DmaGet {
                rls,
                ls_off,
                rmem,
                mem_off,
                bytes,
                tag,
            } => {
                let cmd = DmaCommand {
                    owner: id.token(),
                    tag,
                    ls_addr: ea(self.reg(at, rls), ls_off) as u32,
                    mem_addr: ea(self.reg(at, rmem), mem_off) as u64,
                    kind: DmaKind::Get {
                        bytes: self.src_val(at, bytes) as u32,
                    },
                };
                self.enqueue_dma(now, id, at, cmd, in_pf, ctx)
            }
            Instr::DmaGetStrided {
                rls,
                ls_off,
                rmem,
                mem_off,
                elem_bytes,
                count,
                stride,
                tag,
            } => {
                let cmd = DmaCommand {
                    owner: id.token(),
                    tag,
                    ls_addr: ea(self.reg(at, rls), ls_off) as u32,
                    mem_addr: ea(self.reg(at, rmem), mem_off) as u64,
                    kind: DmaKind::GetStrided {
                        elem_bytes: elem_bytes as u32,
                        count: self.src_val(at, count) as u32,
                        stride: self.src_val(at, stride),
                    },
                };
                self.enqueue_dma(now, id, at, cmd, in_pf, ctx)
            }
            Instr::DmaPut {
                rls,
                ls_off,
                rmem,
                mem_off,
                bytes,
                tag,
            } => {
                let cmd = DmaCommand {
                    owner: id.token(),
                    tag,
                    ls_addr: ea(self.reg(at, rls), ls_off) as u32,
                    mem_addr: ea(self.reg(at, rmem), mem_off) as u64,
                    kind: DmaKind::Put {
                        bytes: self.src_val(at, bytes) as u32,
                    },
                };
                let r = self.enqueue_dma(now, id, at, cmd, in_pf, ctx);
                // A queue-full retry has not issued anything yet; only an
                // accepted put makes the instance unreplayable.
                if !matches!(r, Exec::Retry(..)) {
                    self.lse.at_mut(at).tainted = true;
                }
                r
            }
            Instr::DmaYield => {
                if self.lse.at(at).outstanding_dma > 0 {
                    Exec::Yield
                } else {
                    Exec::Next
                }
            }
            Instr::DmaWait { tag } => {
                if self.lse.at(at).dma_by_tag[tag as usize] > 0 {
                    if in_pf {
                        Exec::Retry(StallCat::Prefetch, FineCat::PfGated)
                    } else {
                        Exec::Retry(StallCat::MemStall, FineCat::DmaWait)
                    }
                } else {
                    Exec::Next
                }
            }
            pure => match self.pure_step(at, pure) {
                Step::Next => Exec::Next,
                Step::Jump(target) => Exec::Redirect(target),
                Step::Set(rd, _) => {
                    self.mark_ready(rd, now + 1, StallCat::Working);
                    Exec::Next
                }
                Step::Load(rd, _) => {
                    let ready = self.ls_ports.reserve(now, 1).end + self.params.ls_latency;
                    self.mark_ready(rd, ready, StallCat::LsStall);
                    Exec::Next
                }
                Step::LsStore { .. } => {
                    self.ls_ports.reserve(now, 1);
                    Exec::Next
                }
                Step::Post(effect) => {
                    self.emit_effect(now, at, effect, ctx);
                    Exec::Next
                }
                Step::Fault(_) => unreachable!("pure_step panics on a fault"),
            },
        }
    }

    /// Runs pure instruction `i` of the instance at `at` through the shared
    /// [`step::step`] and applies its register and local-store writes;
    /// the caller adds timing and posts effects. An invalid operand is a
    /// program bug.
    #[inline(always)]
    fn pure_step(&mut self, at: Slot, i: Instr) -> Step {
        let inst = self.lse.at_mut(at);
        let ls = &self.ls;
        let done = step::step(i, &inst.regs, &inst.slots, ls.size(), |a| {
            ls.read_i32_sext(a)
        });
        match done {
            Step::Set(rd, v) | Step::Load(rd, v) => step::set(&mut inst.regs, rd, v),
            Step::LsStore { addr, value } => self.ls.write_u32(addr, value),
            Step::Next | Step::Jump(_) | Step::Post(_) => {}
            Step::Fault(f) => panic!("PE {}: {f}", self.pe),
        }
        done
    }

    fn enqueue_dma(
        &mut self,
        now: u64,
        id: InstanceId,
        at: Slot,
        cmd: DmaCommand,
        in_pf: bool,
        ctx: &mut SysCtx<'_>,
    ) -> Exec {
        // A full MFC queue stalls a PUT on the saturated write path and
        // a GET on the DMA engine itself; inside a PF block both are
        // prefetch-programming overhead.
        let put = matches!(cmd.kind, DmaKind::Put { .. });
        let retry = |in_pf: bool| {
            if in_pf {
                Exec::Retry(StallCat::Prefetch, FineCat::PfGated)
            } else if put {
                Exec::Retry(StallCat::MemStall, FineCat::WriteStall)
            } else {
                Exec::Retry(StallCat::MemStall, FineCat::DmaWait)
            }
        };
        let Some(done) = self.mfc.enqueue(now, cmd, ctx.sys, &mut self.ls, ctx.mem) else {
            return retry(in_pf);
        };
        self.note_dma_faults(now, &done);
        self.lse.at_mut(at).dma_issued(cmd.tag);
        self.dma_open += 1;
        self.record(now, id, ThreadEvent::DmaIssued { tag: cmd.tag });
        let stamp = self.stamp.bump();
        if !done.stalled {
            ctx.out.push((
                done.at.max(now + 1),
                Dest::Lse(self.pe),
                Message::DmaDone {
                    owner: id,
                    tag: cmd.tag,
                },
                stamp,
            ));
        }
        Exec::Next
    }

    /// Can this instance's next work be run on the SP pipeline? True for
    /// a fresh instance whose PF block is straight-line (no control flow,
    /// no blocking main-memory access).
    fn sp_offloadable(&self, at: Slot, program: &Program) -> bool {
        let inst = self.lse.at(at);
        let thread = &program.threads[inst.thread.index()];
        let pf_end = thread.blocks.pf_end;
        if inst.pc != 0 || pf_end == 0 {
            return false;
        }
        thread.code[..pf_end as usize].iter().all(|i| {
            matches!(
                i,
                Instr::Alu { .. }
                    | Instr::Li { .. }
                    | Instr::Mov { .. }
                    | Instr::Nop
                    | Instr::Load { .. }
                    | Instr::LsLoad { .. }
                    | Instr::LsStore { .. }
                    | Instr::DmaGet { .. }
                    | Instr::DmaGetStrided { .. }
                    | Instr::DmaPut { .. }
                    | Instr::DmaYield
            )
        })
    }

    /// Executes an instance's whole PF block on the SP pipeline (one
    /// instruction per SP cycle; the main pipeline keeps running other
    /// threads). The instance moves to *Wait for DMA*, or straight back
    /// to ready when its transfers finished within the block.
    fn run_pf_on_sp(&mut self, id: InstanceId, at: Slot, now: u64, ctx: &mut SysCtx<'_>) {
        let (thread_id, frame, pf_buf_addr) = {
            let inst = self.lse.at(at);
            (inst.thread, inst.frame, inst.pf_buf_addr)
        };
        let thread = &ctx.program.threads[thread_id.index()];
        let pf_end = thread.blocks.pf_end;
        {
            let inst = self.lse.at_mut(at);
            inst.regs[FRAME_PTR_REG.index()] = frame.encode() as i64;
            inst.regs[PREFETCH_BASE_REG.index()] = if pf_buf_addr == u32::MAX {
                0
            } else {
                pf_buf_addr as i64
            };
            inst.state = ThreadState::ProgramDma;
        }
        self.record(now, id, ThreadEvent::PfOffloaded);
        let start = self.sp_free_at.max(now);
        let mut t = start;
        for pc in 0..pf_end {
            let i = thread.code[pc as usize];
            self.stats.record_issue(i.class());
            self.count_mem_op(&i);
            match i {
                Instr::DmaGet { .. } | Instr::DmaGetStrided { .. } | Instr::DmaPut { .. } => {
                    // Re-use the pipeline's command construction, retrying
                    // on a full MFC queue at SP pace. Under fault injection
                    // a stalled command can wedge the queue forever, so
                    // the watchdog bounds the retries: the offload is
                    // abandoned at this pc and the main pipeline resumes
                    // the PF block here if a completion ever re-readies
                    // the instance.
                    let mut spins: u64 = 0;
                    loop {
                        match self.exec(t, id, at, i, true, ctx) {
                            Exec::Next => break,
                            Exec::Retry(..) => {
                                t += 1;
                                spins += 1;
                                if self.watchdog_spin_limit.is_some_and(|l| spins >= l) {
                                    self.watchdog_parks += 1;
                                    self.parked_hint = true;
                                    self.sp_free_at = t;
                                    self.stats.sp_pf_cycles += t - start;
                                    let inst = self.lse.at_mut(at);
                                    inst.pc = pc;
                                    inst.state = ThreadState::WaitDma;
                                    if self.obs.events_on() {
                                        self.obs.emit(
                                            now,
                                            ObsEvent::WatchdogPark {
                                                pe: self.pe,
                                                instance: id.0,
                                            },
                                        );
                                    }
                                    self.record(now, id, ThreadEvent::WaitDma);
                                    return;
                                }
                            }
                            _ => unreachable!("DMA exec is Next or Retry"),
                        }
                    }
                }
                Instr::DmaYield => {}
                pure => match self.pure_step(at, pure) {
                    Step::Load(..) => t += self.params.ls_latency, // serial SP: no scoreboard
                    Step::Next | Step::Set(..) | Step::LsStore { .. } => {}
                    Step::Jump(_) | Step::Post(_) | Step::Fault(_) => {
                        unreachable!("sp_offloadable filtered the PF block")
                    }
                },
            }
            t += 1;
        }
        self.sp_free_at = t;
        self.stats.sp_pf_cycles += t - start;
        let inst = self.lse.at_mut(at);
        inst.pc = pf_end;
        if inst.outstanding_dma > 0 {
            inst.state = ThreadState::WaitDma;
            self.record(now, id, ThreadEvent::WaitDma);
        } else {
            self.lse.make_ready(now, at);
        }
    }

    /// Records a lifecycle event for `id` (no-op unless events are on).
    /// The instance may already be gone (e.g. a `FrameFreed` for a frame
    /// whose thread stopped before the FFREE message arrived); the
    /// record then carries a sentinel thread id.
    pub(crate) fn record(&mut self, cycle: u64, id: InstanceId, what: ThreadEvent) {
        if self.obs.events_on() {
            let thread = self
                .lse
                .slot_of(id)
                .map_or(u32::MAX, |at| self.lse.at(at).thread.0);
            self.obs.emit(
                cycle,
                ObsEvent::Thread {
                    pe: self.pe,
                    instance: id.0,
                    thread,
                    what,
                },
            );
        }
    }

    /// Flushes pending gauge boundaries strictly before `t`. Called at
    /// the top of every tick: boundary records carry the boundary cycle
    /// and grid-derived sequence numbers, so the host time of the flush
    /// never shows in the stream.
    fn flush_gauges(&mut self, t: u64) {
        while let Some(b) = self.obs.next_boundary_before(t) {
            self.emit_gauges(b);
        }
    }

    /// Flushes gauge boundaries strictly before `now`. Must run before
    /// any message delivery that can change a sampled value (stores,
    /// frame grants, frees, DMA completions): a boundary's sample then
    /// reflects state after all activity at cycles `<=` the boundary —
    /// a pure function of simulated time, whenever the PE's next
    /// host-side tick happens.
    pub(crate) fn gauge_sync(&mut self, now: u64) {
        if self.obs.metrics_on() {
            self.flush_gauges(now);
        }
    }

    fn emit_gauges(&mut self, b: u64) {
        let pe = self.pe;
        let ready = self.lse.ready_len() as u64;
        let frames = self.lse.frames_in_use() as u64;
        let dma = self.mfc.in_flight(b) as u64;
        let pipe = if self.current.is_some() {
            2
        } else if self.lse.waiting_dma() > 0 {
            1
        } else {
            0
        };
        self.obs.emit_sample(b, GaugeKind::ReadyQueue, pe, ready);
        self.obs.emit_sample(b, GaugeKind::FramesInUse, pe, frames);
        self.obs.emit_sample(b, GaugeKind::DmaInFlight, pe, dma);
        self.obs.emit_sample(b, GaugeKind::PipeState, pe, pipe);
    }

    /// Emits the remaining gauge boundaries through `final_cycle` at the
    /// end of the run.
    pub(crate) fn finish_obs(&mut self, final_cycle: u64) {
        while let Some(b) = self.obs.next_boundary_through(final_cycle) {
            self.emit_gauges(b);
        }
    }

    /// Emits the fault-related events of a freshly accepted DMA command
    /// and applies the degradation transition.
    fn note_dma_faults(&mut self, now: u64, done: &DmaCompletion) {
        if self.obs.events_on() {
            if done.attempts > 1 {
                self.obs.emit(
                    now,
                    ObsEvent::DmaRetry {
                        pe: self.pe,
                        retries: done.attempts - 1,
                    },
                );
            }
            if done.exhausted {
                self.obs.emit(now, ObsEvent::DmaExhausted { pe: self.pe });
                if !self.degraded {
                    self.obs.emit(now, ObsEvent::PeDegraded { pe: self.pe });
                }
            }
        }
        if done.exhausted {
            self.degraded = true;
        }
    }

    fn msg_delay(&self, dest_pe: u16) -> u64 {
        if dest_pe == self.pe {
            1
        } else {
            self.params.msg_latency
        }
    }
}

/// The register indices set in use-mask `uses`, ascending.
#[inline]
fn regs_of(mut uses: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (uses != 0).then(|| {
            let r = uses.trailing_zeros() as usize;
            uses &= uses - 1;
            r
        })
    })
}
