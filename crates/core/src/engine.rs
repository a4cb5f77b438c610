//! The epoch-sharded parallel engine.
//!
//! [`run_sharded`] partitions the machine into per-node **shards** — each
//! owning a contiguous range of PEs plus the DSEs of the nodes whose first
//! PE falls in that range — and executes them on host threads in
//! lock-step **epochs** of `W` simulated cycles, where `W` is the
//! conservative lookahead: the minimum latency of any interaction that
//! can cross a shard boundary or touch globally shared state
//! ([`epoch_width`]).
//!
//! Within an epoch every shard ticks its own PEs against its own event
//! queue; interactions with the *shared* memory system (scalar
//! `READ`/`WRITE`, DMA data movement) are recorded as
//! [`Ticket`]s and resolved at the epoch barrier by the coordinator in
//! `(time, pe, seq)` order — exactly the order in which the sequential
//! engine, which ticks PEs in index order within a cycle, would have
//! performed them. Cross-shard messages always have delivery latency
//! ≥ `W`, so they land in a future epoch and can be exchanged at the
//! barrier. Same-cycle deliveries are ordered by the partition-independent
//! [`MsgSeq`] stamp everywhere. The net effect: identical per-unit event
//! sequences, identical reservation-pool watermarks, and therefore
//! bit-identical [`RunStats`] for any shard count — the property the
//! `determinism` integration test enforces.
//!
//! Shard count and OS-thread count are decoupled: partitioning never
//! affects results, so on a single-core host (or under
//! `DTA_HOST_PARALLELISM=1`) all shards run the identical epoch protocol
//! on the calling thread instead of paying barrier rendezvous with no
//! hardware parallelism behind them.

use crate::config::{FaultPlan, SystemConfig};
use crate::fault::{msg_exempt, FailoverSchedule, FaultCounters, DUP_STAMP_BIT};
use crate::pipeline::{MemPort, OutMsg, Pe, SysCtx, Ticket, TicketKind};
use crate::stats::{EngineReport, RunStats};
use crate::system::{deliver, transform_obs, DeliverEnv, Event, RunError, System};
use crate::uop::UopTable;
use crate::wake::WakeSet;
use dta_isa::Program;
use dta_mem::{MainMemory, MemorySystem, TransferKind};
use dta_obs::{ObsEvent, ObsLog, ObsRecord, ObsSink};
use dta_sched::{Dest, Dse, Message, MsgSeq};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The conservative epoch width: no interaction that leaves a shard (or
/// returns to one from the shared memory system) can take effect sooner
/// than this many cycles after it is initiated.
///
/// * scheduler messages to any other unit take `msg_latency` (same-PE
///   messages take 1 cycle but never leave the shard);
/// * a DMA completion cannot arrive before `mfc.command_latency` (which
///   also makes shard-local MFC *admission* exact: commands issued inside
///   an epoch cannot retire inside it);
/// * a deferred scalar `READ`'s response cannot arrive before the
///   cheapest read path completes — the cache hit latency when a cache is
///   configured, else a safe lower bound on the uncached path
///   (command packet + memory access + response).
fn epoch_width(config: &SystemConfig) -> u64 {
    let read_floor = match config.cache {
        Some(c) => c.hit_latency,
        None => 1 + config.wire_latency + config.mem_latency,
    };
    config
        .msg_latency
        .min(config.mfc.command_latency)
        .min(read_floor)
        .max(1)
}

/// One shard: a contiguous slice of the machine with its own event queue.
struct Shard {
    pe_base: u16,
    pes: Vec<Pe>,
    dse_base: u16,
    dses: Vec<Dse>,
    dse_stamps: Vec<MsgSeq>,
    events: BinaryHeap<Event>,
    /// Deferred shared-memory operations from the epoch just run.
    tickets: Vec<Ticket>,
    /// Posts destined for other shards, exchanged at the barrier.
    remote: Vec<OutMsg>,
    /// Scratch post buffer (deliveries and ticks both fill it; routed
    /// after each step).
    posts: Vec<OutMsg>,
    /// Observability logs of this shard's DSEs (riding with `dses`).
    dse_obs: Vec<ObsLog>,
    /// Message-fault records from this shard's transform sites (appended
    /// to the system's at reassembly; order is irrelevant — the stream
    /// sort restores deterministic wall order).
    obs_misc: Vec<ObsRecord>,
    /// Whether structured events are recorded (mirrors the PEs' logs).
    obs_events: bool,
    /// Scratch `drain_until` for the tick context; never written through
    /// the deferred port (writes become tickets instead).
    scratch_drain: u64,
    /// The next cycle this shard's own units want to run (≥ the epoch end
    /// it last finished, or `u64::MAX` when fully quiescent).
    next_hint: u64,
    /// Last cycle this shard's body actually visited.
    last_t: u64,
    nodes: u16,
    pes_per_node: u16,
    msg_latency: u64,
    /// Message-fault plan, pre-filtered to `None` when no message rates
    /// are configured (DMA/FALLOC faults don't touch routing).
    msg_faults: Option<FaultPlan>,
    /// The whole fault plan (drives the deliver-time FALLOC denial roll).
    faults: Option<FaultPlan>,
    /// Shared DSE crash/restart schedule (pure-time queries, so every
    /// shard answers routing questions identically). All failover posts
    /// delay by ≥ the message latency ≥ the epoch width, so the protocol
    /// is epoch-safe.
    failover: Option<Arc<FailoverSchedule>>,
    /// This shard's message-fault counters (merged into the system at
    /// reassembly).
    fault_counts: FaultCounters,
    /// Cached epoch width (the conservative cross-shard lookahead; also
    /// the adaptive clamp distance).
    epoch_w: u64,
    /// The local PEs' wake times (local indices); due PEs tick in
    /// ascending index order within a cycle, as in the sequential engine.
    wakes: WakeSet,
    /// This shard's visited-cycle/tick counters (merged at reassembly).
    report: EngineReport,
}

impl Shard {
    /// Earliest cycle at which this shard has anything to do.
    fn next_ready(&self) -> u64 {
        self.next_hint
            .min(self.events.peek().map_or(u64::MAX, |e| e.time))
    }

    /// Moves everything in `posts` into the local queue (clamped to
    /// strictly-future delivery, like the sequential engine's `post`) or
    /// the cross-shard buffer. Message faults are applied *here*, before
    /// the local/remote split — the same single injection point per post
    /// as the sequential engine's `post`, rolled on the same stamp key, so
    /// both engines fault the same messages identically. Transforms only
    /// ever increase delivery time, so they cannot violate the epoch
    /// horizon.
    fn route_posts(&mut self, t: u64) {
        let pe_end = self.pe_base + self.pes.len() as u16;
        let dse_end = self.dse_base + self.dses.len() as u16;
        let mut posts = std::mem::take(&mut self.posts);
        for (time, to, msg, stamp) in posts.drain(..) {
            let time = time.max(t + 1);
            let ((time, stamp), dup) = match self.msg_faults {
                Some(f) if !msg_exempt(&msg) => transform_obs(
                    &f,
                    time,
                    stamp,
                    &mut self.fault_counts,
                    self.obs_events,
                    &mut self.obs_misc,
                ),
                _ => ((time, stamp), None),
            };
            let local = match to {
                Dest::Dse(n) => n >= self.dse_base && n < dse_end,
                Dest::Lse(p) | Dest::Pipeline(p) => p >= self.pe_base && p < pe_end,
            };
            for (time, stamp) in dup.into_iter().chain(std::iter::once((time, stamp))) {
                if local {
                    self.events.push(Event {
                        time,
                        stamp,
                        to,
                        msg,
                    });
                } else {
                    self.remote.push((time, to, msg, stamp));
                }
            }
        }
        self.posts = posts;
    }

    /// Runs this shard over simulated cycles `[e_start, e_end)` — the
    /// same deliver-then-tick body as the sequential engine, restricted to
    /// this shard's units, with event-based time skipping inside the
    /// window.
    ///
    /// Only *due* PEs tick (see `WakeSet` and the notes on
    /// `System::run_sequential`; the skipped ticks are blocked/idle
    /// no-ops). When adaptive widening granted a window beyond one
    /// lookahead, the shard self-clamps: the first cycle `c` that
    /// initiates any cross-epoch interaction (a deferred shared-memory
    /// ticket, whose completion is synthesized only at the barrier, or a
    /// cross-shard post) shrinks the window to `c + epoch_w`, since
    /// nothing initiated at `c` can take effect — or provoke a response —
    /// before `c + epoch_w` (DESIGN.md §12).
    fn run_epoch(&mut self, e_start: u64, mut e_end: u64, program: &Program, uops: &UopTable) {
        let wall = std::time::Instant::now();
        let mut t = self.next_ready().max(e_start);
        while t < e_end {
            self.last_t = t;
            self.report.visited_cycles += 1;
            // Host-side wake-set pressure, sampled once per visited cycle
            // (stale lazy-invalidation entries are real occupancy).
            self.report.wake_heap_occupancy.add(self.wakes.occupancy());

            while self.events.peek().is_some_and(|e| e.time <= t) {
                let e = self.events.pop().expect("peeked");
                if e.stamp.seq & DUP_STAMP_BIT != 0 {
                    // Injected duplicate — discard (same rule as the
                    // sequential engine's event pop).
                    continue;
                }
                match e.to {
                    Dest::Lse(p) | Dest::Pipeline(p) => {
                        self.report.pe_deliveries += 1;
                        // A delivery to a PE means it must tick this cycle.
                        self.wakes.deliver(p - self.pe_base, t);
                    }
                    Dest::Dse(_) => self.report.dse_deliveries += 1,
                }
                let mut env = DeliverEnv {
                    pes: &mut self.pes,
                    pe_base: self.pe_base,
                    dses: &mut self.dses,
                    dse_base: self.dse_base,
                    dse_stamps: &mut self.dse_stamps,
                    program,
                    nodes: self.nodes,
                    pes_per_node: self.pes_per_node,
                    msg_latency: self.msg_latency,
                    dse_obs: &mut self.dse_obs,
                    posts: &mut self.posts,
                    faults: self.faults,
                    failover: self.failover.as_deref(),
                };
                deliver(&mut env, t, e.to, e.msg);
                self.route_posts(t);
            }

            {
                let mut ctx = SysCtx {
                    port: MemPort::Deferred {
                        tickets: &mut self.tickets,
                    },
                    program,
                    uops,
                    out: &mut self.posts,
                    drain_until: &mut self.scratch_drain,
                    failover: self.failover.as_deref(),
                };
                let pes = &mut self.pes;
                self.report.pe_ticks += self
                    .wakes
                    .tick_due(t, |p| pes[p as usize].tick(t, &mut ctx));
            }
            self.route_posts(t);

            if e_end > t + self.epoch_w && (!self.tickets.is_empty() || !self.remote.is_empty()) {
                // First cross-epoch initiation in this widened window.
                e_end = t + self.epoch_w;
            }

            let nw = self.wakes.next();
            let peek = self.events.peek().map_or(u64::MAX, |e| e.time);
            t = nw.min(peek).max(t + 1);
        }
        self.next_hint = t;
        // Accumulate this epoch's body wall time into the shard total
        // (single slot; reassembly collects one entry per shard).
        let us = wall.elapsed().as_micros() as u64;
        match self.report.shard_wall_us.first_mut() {
            Some(acc) => *acc += us,
            None => self.report.shard_wall_us.push(us),
        }
    }
}

/// Coordinator-owned shared state for the barrier-time merge.
struct MergeCtx<'a> {
    memsys: &'a mut MemorySystem,
    mem: &'a mut MainMemory,
    drain_until: &'a mut u64,
    /// Owning shard of each global PE index.
    pe_owner: &'a [usize],
    /// Owning shard of each node's DSE.
    dse_owner: &'a [usize],
    /// Ticket scratch, reused across barriers (cleared by `drain`).
    tickets: Vec<Ticket>,
    /// Cross-shard post scratch, reused across barriers.
    remote: Vec<OutMsg>,
}

/// Resolves the epoch's deferred shared-memory tickets in sequential wall
/// order, exchanges cross-shard posts, and returns the two earliest
/// shard-ready cycles `(r1, r2)` — `r1` is the next epoch start
/// (`u64::MAX` when the whole machine is quiescent), `r2` bounds the next
/// adaptive widening.
fn merge_epoch(shards: &mut [&mut Shard], ctx: &mut MergeCtx<'_>) -> (u64, u64) {
    let tickets = &mut ctx.tickets;
    debug_assert!(tickets.is_empty());
    for s in shards.iter_mut() {
        tickets.append(&mut s.tickets);
    }
    // (time, pe, seq) is exactly the order the sequential engine touches
    // the shared memory system: it ticks PEs in index order within each
    // cycle, and deliveries never touch it.
    tickets.sort_unstable_by_key(|t| (t.time, t.pe, t.seq));
    for tk in tickets.drain(..) {
        let shard = &mut *shards[ctx.pe_owner[tk.pe as usize]];
        let idx = (tk.pe - shard.pe_base) as usize;
        match tk.kind {
            TicketKind::Read { addr } => {
                let value = ctx.mem.read_i32_sext(addr);
                let pe = &mut shard.pes[idx];
                let until = match &mut pe.cache {
                    Some(c) => c.read(tk.time, addr, ctx.memsys),
                    None => ctx.memsys.request(tk.time, TransferKind::ScalarRead),
                };
                // The response is synthetic (the sequential engine blocks
                // inline), so its stamp only needs deterministic
                // uniqueness; the high bit keeps it clear of real send
                // counters.
                shard.events.push(Event {
                    time: until.max(tk.time + 1),
                    stamp: MsgSeq {
                        src_rank: tk.pe as u32,
                        seq: (1 << 63) | tk.seq,
                    },
                    to: Dest::Pipeline(tk.pe),
                    msg: Message::ReadDone {
                        value,
                        ready_at: until,
                    },
                });
            }
            TicketKind::Write { addr, value } => {
                ctx.mem.write_u32(addr, value);
                let pe = &mut shard.pes[idx];
                if let Some(c) = &mut pe.cache {
                    c.write(tk.time, addr);
                }
                let done = ctx.memsys.request(tk.time, TransferKind::ScalarWrite);
                *ctx.drain_until = (*ctx.drain_until).max(done);
            }
            TicketKind::Dma { cmd, owner, stamp } => {
                let pe = &mut shard.pes[idx];
                let done = pe.mfc.commit(tk.time, cmd, ctx.memsys, &mut pe.ls, ctx.mem);
                if done.stalled {
                    // Permanently stalled by fault injection: no data
                    // moved and no completion is ever delivered (mirrors
                    // the sequential Direct arm).
                    continue;
                }
                // The completion takes the same fault rolls as the
                // sequential engine's post of this very message (same
                // stamp, so same key).
                let msg = Message::DmaDone {
                    owner,
                    tag: done.tag,
                };
                let time = done.at.max(tk.time + 1);
                let ((time, stamp), dup) = match shard.msg_faults {
                    Some(f) if !msg_exempt(&msg) => transform_obs(
                        &f,
                        time,
                        stamp,
                        &mut shard.fault_counts,
                        shard.obs_events,
                        &mut shard.obs_misc,
                    ),
                    _ => ((time, stamp), None),
                };
                for (time, stamp) in dup.into_iter().chain(std::iter::once((time, stamp))) {
                    shard.events.push(Event {
                        time,
                        stamp,
                        to: Dest::Lse(tk.pe),
                        msg,
                    });
                }
            }
        }
    }

    let remote = &mut ctx.remote;
    debug_assert!(remote.is_empty());
    for s in shards.iter_mut() {
        remote.append(&mut s.remote);
    }
    for (time, to, msg, stamp) in remote.drain(..) {
        let s = match to {
            Dest::Dse(n) => ctx.dse_owner[n as usize],
            Dest::Lse(p) | Dest::Pipeline(p) => ctx.pe_owner[p as usize],
        };
        shards[s].events.push(Event {
            time,
            stamp,
            to,
            msg,
        });
    }

    let (mut r1, mut r2) = (u64::MAX, u64::MAX);
    for r in shards.iter().map(|s| s.next_ready()) {
        if r < r1 {
            r2 = r1;
            r1 = r;
        } else if r < r2 {
            r2 = r;
        }
    }
    (r1, r2)
}

/// Incremental obs streaming at an epoch barrier: drains every record
/// stamped `<= h` out of the shards' per-unit rings (forced gauge flush
/// first — sound because unit state is untouched between visits, so the
/// samples are identical whenever they materialise) and the engine's own
/// log, feeds the attached sink in wall order, and accumulates the batch
/// for the final merge. `h` must be a safe horizon: with `h = next - 1`
/// where `next` is the earliest shard-ready cycle after the merge, every
/// cycle `<= h` is fully simulated machine-wide.
fn stream_epoch<'s>(
    shards: impl Iterator<Item = &'s mut Shard>,
    engine_obs: &mut ObsLog,
    h: u64,
    batch: &mut Vec<ObsRecord>,
    streamed: &mut Vec<ObsRecord>,
    sink: &mut Option<Box<dyn ObsSink + Send>>,
) {
    debug_assert!(batch.is_empty());
    for s in shards {
        for pe in &mut s.pes {
            pe.finish_obs(h);
            pe.obs.drain_through(h, batch);
        }
        for log in &mut s.dse_obs {
            log.drain_through(h, batch);
        }
        // Shard-local fault records carry the faulted message's
        // *delivery* stamp, which can lie past the post time, so the vec
        // is not cycle-sorted: extract by predicate (residual order is
        // irrelevant — the final merge re-sorts on unique keys).
        let mut i = 0;
        while i < s.obs_misc.len() {
            if s.obs_misc[i].cycle <= h {
                batch.push(s.obs_misc.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }
    engine_obs.drain_through(h, batch);
    batch.sort_unstable_by_key(ObsRecord::key);
    if let Some(sink) = sink.as_deref_mut() {
        for r in batch.iter() {
            sink.record(r);
        }
    }
    streamed.append(batch);
}

/// A sense-reversing spin barrier. Epochs are short (a handful of
/// simulated cycles), so a futex-based barrier's syscall cost would
/// dominate; spinning with a bounded backoff to `yield_now` keeps the
/// rendezvous in the sub-microsecond range.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                spins = spins.wrapping_add(1);
                if spins < 10_000 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

enum Outcome {
    /// Nothing will ever happen again (finished, or deadlocked).
    Exhausted,
    /// The next interesting cycle lies beyond `max_cycles`.
    CycleLimit,
}

/// Chooses the end of the epoch starting at `e`.
///
/// Fixed width `w`, unless the second-earliest shard activity `r2` lies
/// at least one lookahead past `e`; then the window widens to `r2`:
/// exactly one shard can run before `r2`, so the only deliveries that
/// could land in a visited past are that shard's own barrier-resolved
/// responses — and its body self-clamps to one lookahead past its first
/// cross-epoch initiation, keeping every such delivery strictly in its
/// future (see `Shard::run_epoch` and DESIGN.md §12). Every other shard
/// first acts at `≥ r2 ≥` the window end, so it simulates nothing inside
/// the window at all.
fn epoch_end_cycle(e: u64, r2: u64, w: u64, max_cycles: u64) -> u64 {
    let cap = max_cycles.saturating_add(1);
    let fixed = e.saturating_add(w);
    if r2 >= fixed {
        r2.min(cap)
    } else {
        fixed.min(cap)
    }
}

/// How many OS threads are worth spawning. Shard *partitioning* never
/// affects results, so the engine is free to run every shard on one
/// thread when the host has a single core — spawning more would turn
/// each epoch barrier into a scheduler round-trip (observed: 3 orders
/// of magnitude slower on a 1-core container). `DTA_HOST_PARALLELISM`
/// overrides detection, mainly so tests can force the threaded path.
fn host_parallelism() -> usize {
    std::env::var("DTA_HOST_PARALLELISM")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `sys` to completion on up to `threads` host threads. Produces
/// results bit-identical to [`System::run`] with parallelism off.
pub(crate) fn run_sharded(sys: &mut System, threads: usize) -> Result<RunStats, RunError> {
    let total = sys.config.total_pes() as usize;
    if total == 0 {
        return sys.run_sequential();
    }
    let nshards = threads.min(total).max(1);
    let ppn = sys.config.pes_per_node as usize;

    // Partition: contiguous PE chunks; each node's DSE rides with the
    // shard owning the node's first PE.
    let mut pes = std::mem::take(&mut sys.pes);
    let mut dses = std::mem::take(&mut sys.dses);
    let mut dse_stamps = std::mem::take(&mut sys.dse_stamps);
    let mut dse_obs_all = std::mem::take(&mut sys.dse_obs);
    let obs_events = sys.config.obs.events_on();
    let w = epoch_width(&sys.config);
    let base = total / nshards;
    let extra = total % nshards;
    let mut pe_owner = vec![0usize; total];
    let mut dse_owner = vec![0usize; dses.len()];
    let mut shards: Vec<Shard> = Vec::with_capacity(nshards);
    {
        let mut pes_iter = pes.drain(..);
        let mut next_pe = 0usize;
        for s in 0..nshards {
            let n = base + usize::from(s < extra);
            for owner in &mut pe_owner[next_pe..next_pe + n] {
                *owner = s;
            }
            shards.push(Shard {
                pe_base: next_pe as u16,
                pes: pes_iter.by_ref().take(n).collect(),
                dse_base: 0,
                dses: Vec::new(),
                dse_stamps: Vec::new(),
                events: BinaryHeap::new(),
                tickets: Vec::new(),
                remote: Vec::new(),
                posts: Vec::new(),
                dse_obs: Vec::new(),
                obs_misc: Vec::new(),
                obs_events,
                scratch_drain: 0,
                next_hint: 0,
                last_t: 0,
                nodes: sys.config.nodes,
                pes_per_node: sys.config.pes_per_node,
                msg_latency: sys.config.msg_latency,
                msg_faults: sys.config.faults.filter(|f| f.has_msg_faults()),
                faults: sys.config.faults,
                failover: sys.failover.clone(),
                fault_counts: FaultCounters::default(),
                epoch_w: w,
                wakes: WakeSet::new(n),
                report: EngineReport::default(),
            });
            next_pe += n;
        }
    }
    for (node, ((dse, stamp), obs)) in dses
        .drain(..)
        .zip(dse_stamps.drain(..))
        .zip(dse_obs_all.drain(..))
        .enumerate()
    {
        let s = pe_owner[node * ppn];
        dse_owner[node] = s;
        let shard = &mut shards[s];
        if shard.dses.is_empty() {
            shard.dse_base = node as u16;
        }
        shard.dses.push(dse);
        shard.dse_stamps.push(stamp);
        shard.dse_obs.push(obs);
    }
    // Route any events pending at run start (the failover schedule's
    // pre-posted crash/restart injections; each lands in the shard owning
    // the target DSE).
    for e in sys.events.drain() {
        let s = match e.to {
            Dest::Dse(n) => dse_owner[n as usize],
            Dest::Lse(p) | Dest::Pipeline(p) => pe_owner[p as usize],
        };
        shards[s].events.push(e);
    }

    let max_cycles = sys.config.max_cycles;
    let program = sys.program.clone();
    let uops = sys.uops.clone();
    let mut drain_until = sys.drain_until;
    let engine_obs = &mut sys.engine_obs;
    let mut mctx = MergeCtx {
        memsys: &mut sys.memsys,
        mem: &mut sys.mem,
        drain_until: &mut drain_until,
        pe_owner: &pe_owner,
        dse_owner: &dse_owner,
        tickets: Vec::new(),
        remote: Vec::new(),
    };
    let mut epochs = 0u64;
    let mut merged_epochs = 0u64;
    let mut merge_wall_us = 0u64;
    let stream_every = sys.config.obs_stream_interval();
    let mut stream_sink = sys.stream_sink.take();
    let mut streamed: Vec<ObsRecord> = Vec::new();
    let mut stream_batch: Vec<ObsRecord> = Vec::new();
    let mut stream_next = stream_every;

    let outcome;
    if nshards == 1 || host_parallelism() == 1 {
        // The full epoch protocol — partitioning, tickets, stamps, epoch
        // skipping, cross-shard routing, barrier-order merge — on the
        // current thread. Taken when there is one shard, or when the host
        // has one core (results are partition-independent, so skipping the
        // OS threads changes nothing but wall-clock).
        let mut e = 0u64;
        let mut r2 = 0u64;
        outcome = loop {
            let e_end = epoch_end_cycle(e, r2, w, max_cycles);
            epochs += 1;
            engine_obs.emit(
                e,
                ObsEvent::Epoch {
                    start: e,
                    end: e_end,
                },
            );
            for shard in shards.iter_mut() {
                shard.run_epoch(e, e_end, &program, &uops);
            }
            let mut refs: Vec<&mut Shard> = shards.iter_mut().collect();
            let merge_t0 = std::time::Instant::now();
            let (next, next2) = merge_epoch(&mut refs, &mut mctx);
            merge_wall_us += merge_t0.elapsed().as_micros() as u64;
            if stream_every > 0 && next != u64::MAX && next.saturating_sub(1) >= stream_next {
                stream_epoch(
                    refs.iter_mut().map(|s| &mut **s),
                    engine_obs,
                    next - 1,
                    &mut stream_batch,
                    &mut streamed,
                    &mut stream_sink,
                );
                stream_next = next.saturating_add(stream_every);
            }
            if e_end > e.saturating_add(w) {
                // Widened window: count the fixed-width barriers it saved.
                let span = next.min(e_end).saturating_sub(e);
                merged_epochs += span.div_ceil(w).saturating_sub(1);
            }
            if next == u64::MAX {
                break Outcome::Exhausted;
            }
            if next > max_cycles {
                break Outcome::CycleLimit;
            }
            e = next;
            r2 = next2;
        };
    } else {
        let stop = AtomicBool::new(false);
        let epoch_start = AtomicU64::new(0);
        let epoch_end = AtomicU64::new(0);
        let barrier = SpinBarrier::new(nshards);
        let mutexes: Vec<Mutex<Shard>> = shards.drain(..).map(Mutex::new).collect();
        let program_ref: &Program = &program;
        let uops_ref: &UopTable = &uops;

        outcome = std::thread::scope(|scope| {
            for i in 1..nshards {
                let (barrier, stop) = (&barrier, &stop);
                let (epoch_start, epoch_end) = (&epoch_start, &epoch_end);
                let mutexes = &mutexes;
                scope.spawn(move || loop {
                    barrier.wait();
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let s = epoch_start.load(Ordering::Acquire);
                    let e = epoch_end.load(Ordering::Acquire);
                    let mut shard = mutexes[i].lock().expect("shard mutex poisoned");
                    shard.run_epoch(s, e, program_ref, uops_ref);
                    drop(shard);
                    barrier.wait();
                });
            }

            // This thread is worker 0 *and* the coordinator. While it
            // merges, the workers spin at the next epoch's opening
            // barrier, so locking every shard here cannot contend.
            let mut e = 0u64;
            let mut r2 = 0u64;
            loop {
                let e_end = epoch_end_cycle(e, r2, w, max_cycles);
                epochs += 1;
                engine_obs.emit(
                    e,
                    ObsEvent::Epoch {
                        start: e,
                        end: e_end,
                    },
                );
                epoch_start.store(e, Ordering::Release);
                epoch_end.store(e_end, Ordering::Release);
                barrier.wait();
                mutexes[0].lock().expect("shard mutex poisoned").run_epoch(
                    e,
                    e_end,
                    program_ref,
                    uops_ref,
                );
                barrier.wait();

                let mut guards: Vec<_> = mutexes
                    .iter()
                    .map(|m| m.lock().expect("shard mutex poisoned"))
                    .collect();
                let mut refs: Vec<&mut Shard> = guards.iter_mut().map(|g| &mut **g).collect();
                let merge_t0 = std::time::Instant::now();
                let (next, next2) = merge_epoch(&mut refs, &mut mctx);
                merge_wall_us += merge_t0.elapsed().as_micros() as u64;
                if stream_every > 0 && next != u64::MAX && next.saturating_sub(1) >= stream_next {
                    stream_epoch(
                        refs.iter_mut().map(|s| &mut **s),
                        engine_obs,
                        next - 1,
                        &mut stream_batch,
                        &mut streamed,
                        &mut stream_sink,
                    );
                    stream_next = next.saturating_add(stream_every);
                }
                drop(guards);
                if e_end > e.saturating_add(w) {
                    let span = next.min(e_end).saturating_sub(e);
                    merged_epochs += span.div_ceil(w).saturating_sub(1);
                }

                if next == u64::MAX || next > max_cycles {
                    stop.store(true, Ordering::Release);
                    barrier.wait();
                    break if next == u64::MAX {
                        Outcome::Exhausted
                    } else {
                        Outcome::CycleLimit
                    };
                }
                e = next;
                r2 = next2;
            }
        });

        shards = mutexes
            .into_iter()
            .map(|m| m.into_inner().expect("shard mutex poisoned"))
            .collect();
    }

    // Reassemble the machine (shards hold contiguous, ordered slices).
    sys.drain_until = drain_until;
    let mut now = 0u64;
    let mut report = EngineReport {
        epochs,
        merged_epochs,
        merge_wall_us,
        mem_requests: sys.memsys.stats().total(),
        ..EngineReport::default()
    };
    for shard in &mut shards {
        now = now.max(shard.last_t);
        let npes = shard.pes.len() as u64;
        report.visited_cycles += shard.report.visited_cycles;
        report.pe_ticks += shard.report.pe_ticks;
        report.skipped_ticks += shard
            .report
            .visited_cycles
            .saturating_mul(npes)
            .saturating_sub(shard.report.pe_ticks);
        report
            .shard_wall_us
            .push(shard.report.shard_wall_us.first().copied().unwrap_or(0));
        report
            .wake_heap_occupancy
            .absorb(&shard.report.wake_heap_occupancy);
        report.pe_deliveries += shard.report.pe_deliveries;
        report.dse_deliveries += shard.report.dse_deliveries;
        for pe in &shard.pes {
            let m = pe.memo_counters();
            report.memo_hits += m.hits;
            report.memo_misses += m.misses;
            report.memo_replayed_cycles += m.replayed_cycles;
            report.memo_aborts += m.aborts;
        }
        sys.pes.append(&mut shard.pes);
        sys.dses.append(&mut shard.dses);
        sys.dse_stamps.append(&mut shard.dse_stamps);
        sys.dse_obs.append(&mut shard.dse_obs);
        sys.obs_misc.append(&mut shard.obs_misc);
        sys.fault_counts.absorb(shard.fault_counts);
    }
    sys.engine_report = report;
    sys.streamed.append(&mut streamed);
    sys.stream_sink = stream_sink;
    // The deepest cycle any shard's body visited is exactly the sequential
    // engine's final `now`: every shard-visited cycle is also visited by
    // the sequential loop, and the last sequentially-visited cycle belongs
    // to whichever shard hosted its activity.
    sys.now = now;

    match outcome {
        Outcome::CycleLimit => {
            sys.finalize_obs(sys.now);
            Err(sys.cycle_limit_error())
        }
        Outcome::Exhausted => {
            // Same lost-work gate as the sequential loops: a quiet machine
            // with unrecovered crash work is a fault outcome.
            let live: usize = sys.pes.iter().map(|p| p.lse.live_instances()).sum();
            if live > 0 || sys.unrecovered_work() > 0 {
                sys.finalize_obs(sys.now);
                return Err(sys.quiescence_error());
            }
            let final_cycle = sys.now.max(sys.drain_until);
            for pe in &mut sys.pes {
                pe.finish(final_cycle);
            }
            sys.finalize_obs(final_cycle);
            Ok(sys.collect(final_cycle))
        }
    }
}
