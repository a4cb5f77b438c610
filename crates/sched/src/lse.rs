//! The Local Scheduler Element (LSE).
//!
//! One LSE per processing element (paper §2): it "manages local frames and
//! forwards requests for resources to a DSE". Concretely it owns:
//!
//! * the PE's **frame table** and free list (physical capacity is a
//!   hardware parameter; the *virtual frame pointers* option the paper
//!   mentions in §4.3 lifts the capacity limit and is implemented here as
//!   [`LseParams::virtual_frames`]);
//! * the **prefetch-buffer pool** — one local-store region per concurrent
//!   prefetching instance;
//! * the PE's **ready queue** of instances whose SC reached zero (or whose
//!   DMA completed);
//! * all live [`Instance`]s assigned to this PE, in a slab: each lives
//!   at a [`Slot`] from its grant until it stops and its DMA drains.
//!   The frame table and the ready queue hold slots, and the pipeline
//!   keeps the slot of the instance it runs, so stores, dispatch and
//!   issue index a vector instead of hashing. Only the paths addressed
//!   by [`InstanceId`] (DMA completions, FALLOC grants, crash recovery,
//!   adoption) go through the id index.
//!
//! The LSE is a serially-occupied piece of hardware: the core simulator
//! charges [`LseParams::op_latency`] per operation through
//! [`Lse::reserve_op`], which is how bitcnt's fork storms turn into the
//! "LSE stalls" of the paper's Figure 5.

use crate::instance::{Instance, InstanceId, ThreadState};
use dta_isa::{FramePtr, IdBuild, ThreadId};
use dta_mem::ResourcePool;
use std::collections::{HashMap, HashSet, VecDeque};

/// LSE configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LseParams {
    /// Physical frames per PE.
    pub frame_capacity: u32,
    /// Bytes of local store reserved per prefetch buffer.
    pub pf_buf_bytes: u32,
    /// Number of prefetch buffers in the pool (bounded by the local-store
    /// space left after code and frames; allocations for prefetching
    /// threads park when the pool is dry).
    pub pf_pool_size: u32,
    /// Local-store base address of the prefetch-buffer region.
    pub pf_region_base: u32,
    /// LSE processing time per operation, cycles.
    pub op_latency: u64,
    /// Enable virtual frame pointers: FALLOC never fails for lack of
    /// physical frames (paper §4.3's proposed fix for LSE stalls).
    pub virtual_frames: bool,
    /// Park allocations that arrive with no free physical frame instead
    /// of panicking. Without failover the DSE's capacity mirror is exact
    /// and an over-commit is a scheduler bug (the assert tripwire stays);
    /// with DSE failover a successor arbitrates on *approximate* fostered
    /// mirrors, so a bounded over-grant is legal and must queue here until
    /// a frame frees up.
    pub park_on_full: bool,
}

impl Default for LseParams {
    fn default() -> Self {
        LseParams {
            frame_capacity: 64,
            pf_buf_bytes: 8192,
            pf_pool_size: 16,
            pf_region_base: 0,
            op_latency: 2,
            virtual_frames: false,
            park_on_full: false,
        }
    }
}

/// LSE activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LseStats {
    /// Frames granted.
    pub allocs: u64,
    /// Frame stores applied.
    pub stores: u64,
    /// Frames released.
    pub frees: u64,
    /// Instances that reached `STOP`.
    pub stops: u64,
    /// High-water mark of live instances.
    pub max_live_instances: usize,
    /// High-water mark of the ready queue.
    pub max_ready_queue: usize,
    /// High-water mark of allocations parked waiting for a prefetch
    /// buffer.
    pub max_pending_allocs: usize,
    /// Scheduled LSE crashes that fired here.
    pub crashes: u64,
    /// Cold restarts after a crash.
    pub restarts: u64,
    /// Pre-start frames evacuated to a peer at a crash.
    pub evacuated: u64,
    /// Evacuated (or replayed) instances installed *here* by adoption.
    pub readmitted: u64,
    /// Started instances destroyed by a crash before completing.
    pub killed: u64,
    /// Unrecoverable work: tainted kills, evacuees with no live peer,
    /// adoptions addressed to a dead peer. Any non-zero total turns a
    /// quiescent run into a typed error instead of a silently wrong
    /// completion.
    pub lost: u64,
}

/// One not-yet-started instance re-created at the evacuation peer from
/// its frame snapshot after an LSE crash (or a started-but-effect-free
/// instance replayed from its inputs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evacuee {
    /// The frame index at the crashed LSE (producers keep addressing it;
    /// the crashed LSE forwards their stores by this key).
    pub index: u32,
    /// Static thread of the instance.
    pub thread: ThreadId,
    /// Remaining synchronisation count (0 for a replayed snapshot).
    pub sc: u16,
    /// Frame slot count of the thread.
    pub slots: u16,
    /// Whether the thread declared a prefetch buffer.
    pub needs_pf: bool,
    /// Non-zero slot values to replay (zero slots need no replay: peer
    /// frames start zeroed).
    pub values: Vec<(u16, i64)>,
}

/// Everything the core must act on after [`Lse::crash`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashReport {
    /// Instances to re-admit at the evacuation peer (empty when the
    /// schedule elected no peer — those count as lost instead).
    pub evacuees: Vec<Evacuee>,
    /// Parked allocations that were never granted a frame, to replay as
    /// fresh `FallocRequest`s through the arbiter DSE (PR 3's re-homing
    /// machinery): `(requester, for_inst, thread, sc, slots, needs_pf)`.
    pub replay: Vec<(u16, InstanceId, ThreadId, u16, u16, bool)>,
    /// Pre-start frames evacuated (== `evacuees` entries with `sc` ≥ 0
    /// that were not started, for the obs event).
    pub evacuated: u64,
    /// Started instances destroyed before completing.
    pub killed: u64,
    /// Work that cannot be recovered (see [`LseStats::lost`]).
    pub lost: u64,
}

/// Outcome of delivering an `LseAdopt` to a live peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Adopted {
    /// Installed as a live local instance.
    Installed(InstanceId),
    /// Parked until a frame (or prefetch buffer) frees up; installed by
    /// [`Lse::retry_adoptions`] out of a later `FFREE`.
    Parked,
}

/// Outcome of delivering a store (or `LseAdoptStore`) at an LSE that has
/// crashed at least once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreDelivery {
    /// Applied to a live local instance (`Some` if it became ready).
    Applied(Option<InstanceId>),
    /// The target frame was evacuated: the caller forwards the store to
    /// `peer` re-keyed as `(this PE, index)`; `freed` reports that the
    /// forward drained the evacuation entry and returned the frame to
    /// the local pool (the caller posts `FrameFreed`).
    Forward {
        /// The adopting peer.
        peer: u16,
        /// The local frame index (the adopt-store correlation key).
        index: u32,
        /// The entry drained and the frame rejoined the free pool.
        freed: bool,
    },
    /// Buffered until the matching adoption installs.
    Stashed,
    /// A stale store for an instance the crash destroyed; dropped.
    Dropped,
}

/// An allocation the LSE granted; the caller must send the
/// `FallocResponse` to `requester`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Granted {
    /// PE whose pipeline awaits the response.
    pub requester: u16,
    /// The instance whose `FALLOC` this grant answers.
    pub for_inst: InstanceId,
    /// The frame pointer to return.
    pub frame: FramePtr,
    /// The new instance.
    pub instance: InstanceId,
}

/// Where a live instance sits in its LSE's slab. Valid from the grant
/// until the instance stops with its DMA drained (or a crash destroys
/// it); the slot is then reused, so holders check the id it carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot(u32);

/// A frame-table entry: the owning instance, its slot, and the prefetch
/// buffer the grant assigned (`u32::MAX` = none; released on FFREE).
#[derive(Clone, Copy, Debug)]
struct FrameEntry {
    id: InstanceId,
    at: Slot,
    pf_buf: u32,
}

/// The per-PE Local Scheduler Element.
#[derive(Debug)]
pub struct Lse {
    pe: u16,
    params: LseParams,
    /// Frame table: index → owner. An entry outlives its instance when
    /// the instance stops (and drains) before the frame's FFREE.
    frames: Vec<Option<FrameEntry>>,
    free_frames: Vec<u32>,
    /// Free prefetch-buffer indices (each maps to a fixed LS region).
    pf_free: Vec<u32>,
    /// The live instances; `None` marks a free slot.
    slab: Vec<Option<Instance>>,
    /// Free slots, reused last-freed first.
    free_slots: Vec<u32>,
    /// Id → slot, for the paths addressed by id.
    by_id: HashMap<InstanceId, Slot, IdBuild>,
    ready: VecDeque<Slot>,
    /// Allocations granted a frame but waiting for a prefetch buffer
    /// (only possible with virtual frames).
    pending: VecDeque<(u16, InstanceId, ThreadId, u16, u16, bool)>,
    busy: ResourcePool,
    next_instance: u64,
    stats: LseStats,
    /// Dead while a scheduled LSE outage is in effect (crash delivered,
    /// restart not yet).
    dead: bool,
    /// Evacuated-frame forwarding: local frame index → (adopting peer,
    /// remaining producer stores). Entries drain as forwards arrive and
    /// survive a restart so late producers still reach the adopter.
    evac: HashMap<u32, (u16, u16)>,
    /// Frame addresses a crash left reachable by traffic for the
    /// instance it destroyed: an FFREE still to come (the owner had
    /// stopped or posted effects, so it may have freed its frame) or
    /// producer stores with no adopter to forward them to. They stay
    /// out of the pool, and stores to them drop, until that FFREE
    /// arrives, so stale traffic can never reach the frame of a later
    /// grant.
    stale: HashSet<u32>,
    /// Adopted instances: (home PE, home frame index) → (local instance,
    /// local frame index). Kept across a later own-crash so forwarded
    /// stores can chain to the next adopter.
    adopted: HashMap<(u16, u32), (InstanceId, u32)>,
    /// Adoptions parked for a free frame or prefetch buffer:
    /// `(home, index, thread, sc, slots, needs_pf)`.
    adopt_pending: VecDeque<(u16, u32, ThreadId, u16, u16, bool)>,
    /// Adopt-stores that arrived before their adoption installed.
    adopt_stash: HashMap<(u16, u32), StashedStores>,
}

/// Stores stashed for a not-yet-installed adoption: `(slot, value, sync)`.
type StashedStores = Vec<(u16, i64, bool)>;

impl Lse {
    /// Creates the LSE of PE `pe`.
    pub fn new(pe: u16, params: LseParams) -> Self {
        Lse {
            pe,
            params,
            frames: vec![None; params.frame_capacity as usize],
            free_frames: (0..params.frame_capacity).rev().collect(),
            pf_free: (0..params.pf_pool_size).rev().collect(),
            slab: Vec::new(),
            free_slots: Vec::new(),
            by_id: HashMap::default(),
            ready: VecDeque::new(),
            pending: VecDeque::new(),
            busy: ResourcePool::new(1),
            next_instance: 0,
            stats: LseStats::default(),
            dead: false,
            evac: HashMap::new(),
            stale: HashSet::new(),
            adopted: HashMap::new(),
            adopt_pending: VecDeque::new(),
            adopt_stash: HashMap::new(),
        }
    }

    /// The PE this LSE belongs to.
    #[inline]
    pub fn pe(&self) -> u16 {
        self.pe
    }

    /// Configuration.
    #[inline]
    pub fn params(&self) -> LseParams {
        self.params
    }

    /// Counters.
    #[inline]
    pub fn stats(&self) -> LseStats {
        self.stats
    }

    /// Number of free physical frames (what the DSE load-balances on).
    pub fn free_frames(&self) -> u32 {
        self.free_frames.len() as u32
    }

    /// Number of live instances.
    pub fn live_instances(&self) -> usize {
        self.by_id.len()
    }

    /// Number of frames currently occupied (observability gauge). Counts
    /// grown virtual frames too: every free index is distinct and below
    /// the table's length.
    pub fn frames_in_use(&self) -> u32 {
        (self.frames.len() - self.free_frames.len()) as u32
    }

    /// Number of live instances blocked in `WaitDma` (observability
    /// gauge).
    pub fn waiting_dma(&self) -> usize {
        self.live()
            .filter(|i| i.state == ThreadState::WaitDma)
            .count()
    }

    /// Lifecycle snapshot of every live instance, sorted by id (slots
    /// are reused, so slab order is not id order; deadlock reports must
    /// be deterministic).
    pub fn live_instance_states(&self) -> Vec<(InstanceId, ThreadState)> {
        let mut v: Vec<(InstanceId, ThreadState)> =
            self.live().map(|inst| (inst.id, inst.state)).collect();
        v.sort_unstable_by_key(|&(id, _)| id);
        v
    }

    /// Reserves the LSE engine for one operation starting at `now`;
    /// returns the cycle at which the operation completes. Used by the
    /// core to model LSE contention.
    pub fn reserve_op(&mut self, now: u64) -> u64 {
        self.busy.reserve(now, self.params.op_latency).end
    }

    fn fresh_instance_id(&mut self) -> InstanceId {
        let id = InstanceId(((self.pe as u64) << 48) | self.next_instance);
        self.next_instance += 1;
        id
    }

    /// Grants a frame for an instance of `thread` (the DSE has already
    /// picked this PE). `slots` is the frame size of the thread,
    /// `needs_pf` whether it declared a prefetch buffer.
    ///
    /// Returns `None` when the allocation had to be parked (no prefetch
    /// buffer available — only possible with virtual frames, where
    /// concurrency can exceed physical capacity); parked allocations are
    /// granted by [`Lse::ffree`] as buffers free up.
    #[allow(clippy::too_many_arguments)]
    pub fn alloc_frame(
        &mut self,
        requester: u16,
        for_inst: InstanceId,
        thread: ThreadId,
        sc: u16,
        slots: u16,
        needs_pf: bool,
    ) -> Option<Granted> {
        if needs_pf && self.pf_free.is_empty() {
            self.pending
                .push_back((requester, for_inst, thread, sc, slots, needs_pf));
            self.stats.max_pending_allocs = self.stats.max_pending_allocs.max(self.pending.len());
            return None;
        }
        let index = match self.free_frames.pop() {
            Some(i) => i,
            None if self.params.virtual_frames => self.grow_frame(),
            None if self.params.park_on_full => {
                // Failover mode: the arbiter's fostered mirror may lag
                // reality; queue until FFREE returns a frame. The park
                // happens before any prefetch buffer is popped, so no
                // resource leaks.
                self.pending
                    .push_back((requester, for_inst, thread, sc, slots, needs_pf));
                self.stats.max_pending_allocs =
                    self.stats.max_pending_allocs.max(self.pending.len());
                return None;
            }
            None => panic!(
                "LSE {}: frame allocation beyond capacity without virtual frames \
                 (the DSE must not over-commit)",
                self.pe
            ),
        };
        self.stats.allocs += 1;
        let (id, _) = self.install(index, thread, sc, slots, needs_pf, 0);
        Some(Granted {
            requester,
            for_inst,
            frame: FramePtr::new(self.pe, index),
            instance: id,
        })
    }

    /// Appends a virtual frame to the table. A restart shrinks the table
    /// to capacity, so addresses a crash still holds (`stale`, `evac`)
    /// may lie past its end; growth skips them, as the pool does.
    fn grow_frame(&mut self) -> u32 {
        loop {
            let i = self.frames.len() as u32;
            self.frames.push(None);
            if !self.stale.contains(&i) && !self.evac.contains_key(&i) {
                return i;
            }
        }
    }

    /// Creates an instance on frame `index` (already taken from the
    /// pool), with a prefetch buffer if `needs_pf` (the caller checked
    /// one is free), and queues it ready at `now` if its SC is zero.
    fn install(
        &mut self,
        index: u32,
        thread: ThreadId,
        sc: u16,
        slots: u16,
        needs_pf: bool,
        now: u64,
    ) -> (InstanceId, Slot) {
        let id = self.fresh_instance_id();
        let (pf_buf, pf_buf_addr) = if needs_pf {
            let buf = self.pf_free.pop().expect("checked by the caller");
            (
                buf,
                self.params.pf_region_base + buf * self.params.pf_buf_bytes,
            )
        } else {
            (u32::MAX, u32::MAX)
        };
        let frame = FramePtr::new(self.pe, index);
        let inst = Instance::new(id, thread, frame, sc, slots, pf_buf_addr);
        let became_ready = inst.state == ThreadState::Ready;
        let at = match self.free_slots.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(inst);
                Slot(i)
            }
            None => {
                self.slab.push(Some(inst));
                Slot(self.slab.len() as u32 - 1)
            }
        };
        self.by_id.insert(id, at);
        self.frames[index as usize] = Some(FrameEntry { id, at, pf_buf });
        self.stats.max_live_instances = self.stats.max_live_instances.max(self.by_id.len());
        if became_ready {
            self.push_ready(at, now);
        }
        (id, at)
    }

    /// Frees the slot of a stopped instance whose DMA drained.
    fn remove(&mut self, at: Slot) {
        let inst = self.slab[at.0 as usize].take().expect("live slot");
        self.by_id.remove(&inst.id);
        self.free_slots.push(at.0);
    }

    /// Every live instance, in slab order.
    fn live(&self) -> impl Iterator<Item = &Instance> {
        self.slab.iter().flatten()
    }

    /// Applies a store to a local frame; returns the instance id if the
    /// store made it ready.
    #[track_caller]
    pub fn store(
        &mut self,
        now: u64,
        frame: FramePtr,
        slot: u16,
        value: i64,
    ) -> Option<InstanceId> {
        assert_eq!(frame.pe, self.pe, "store routed to the wrong LSE");
        let e = self.frames[frame.index as usize]
            .unwrap_or_else(|| panic!("store to unallocated frame {frame}"));
        self.stats.stores += 1;
        let inst = self.at_mut(e.at);
        assert_eq!(inst.id, e.id, "frame table consistent");
        if inst.store(slot, value) {
            self.push_ready(e.at, now);
            Some(e.id)
        } else {
            None
        }
    }

    /// Releases a frame (the `FFREE` instruction). Returns allocations
    /// that were parked on a prefetch buffer and can now be granted (the
    /// caller sends their responses).
    #[track_caller]
    pub fn ffree(&mut self, frame: FramePtr) -> Vec<Granted> {
        assert_eq!(frame.pe, self.pe, "ffree routed to the wrong LSE");
        let e = self.frames[frame.index as usize]
            .take()
            .unwrap_or_else(|| panic!("ffree of unallocated frame {frame}"));
        self.free_frames.push(frame.index);
        if e.pf_buf != u32::MAX {
            self.pf_free.push(e.pf_buf);
        }
        self.stats.frees += 1;

        // Retry parked allocations now that a frame (and maybe a buffer)
        // freed up. Entries parked on a prefetch buffer must not be popped
        // while the pool is dry (they would immediately re-park behind any
        // frame-parked entries, reordering the queue).
        let mut granted = Vec::new();
        while !self.pending.is_empty() && !self.free_frames.is_empty() {
            let needs_pf = self.pending.front().expect("non-empty").5;
            if needs_pf && self.pf_free.is_empty() {
                break;
            }
            let (req, for_inst, thread, sc, slots, needs_pf) =
                self.pending.pop_front().expect("non-empty");
            if let Some(g) = self.alloc_frame(req, for_inst, thread, sc, slots, needs_pf) {
                granted.push(g);
            }
        }
        granted
    }

    /// Marks an instance stopped; removes it once its DMA has drained.
    pub fn stop(&mut self, id: InstanceId) {
        let at = self
            .slot_of(id)
            .unwrap_or_else(|| panic!("stop of unknown instance {id}"));
        let inst = self.at_mut(at);
        inst.state = ThreadState::Done;
        let drained = inst.outstanding_dma == 0;
        self.stats.stops += 1;
        if drained {
            self.remove(at);
        }
    }

    /// Records a DMA completion for `owner`; returns `true` if it made the
    /// instance ready.
    pub fn dma_done(&mut self, now: u64, owner: InstanceId, tag: u8) -> bool {
        let Some(at) = self.slot_of(owner) else {
            panic!("DMA completion for unknown instance {owner}");
        };
        let inst = self.at_mut(at);
        let ready = inst.dma_complete(tag);
        if inst.state == ThreadState::Done && inst.outstanding_dma == 0 {
            self.remove(at);
            return false;
        }
        if ready {
            self.push_ready(at, now);
        }
        ready
    }

    fn push_ready(&mut self, at: Slot, now: u64) {
        self.at_mut(at).ready_at = now;
        self.ready.push_back(at);
        self.stats.max_ready_queue = self.stats.max_ready_queue.max(self.ready.len());
    }

    /// Transitions an instance to Ready and enqueues it (used when a
    /// deferred FALLOC grant finally arrives for a parked instance).
    pub fn make_ready(&mut self, now: u64, at: Slot) {
        self.at_mut(at).state = ThreadState::Ready;
        self.push_ready(at, now);
    }

    /// Pops the next ready instance for the pipeline (FIFO), with the
    /// slot it stays at while it lives.
    pub fn pop_ready(&mut self) -> Option<(InstanceId, Slot)> {
        let at = self.ready.pop_front()?;
        Some((self.at(at).id, at))
    }

    /// Number of instances currently queued ready.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// The instance at a live slot.
    #[inline]
    #[track_caller]
    pub fn at(&self, at: Slot) -> &Instance {
        self.slab[at.0 as usize].as_ref().expect("live slot")
    }

    /// Mutable access to the instance at a live slot.
    #[inline]
    #[track_caller]
    pub fn at_mut(&mut self, at: Slot) -> &mut Instance {
        self.slab[at.0 as usize].as_mut().expect("live slot")
    }

    /// The slot of a live instance.
    #[inline]
    pub fn slot_of(&self, id: InstanceId) -> Option<Slot> {
        self.by_id.get(&id).copied()
    }

    /// Immutable access to an instance.
    #[track_caller]
    pub fn instance(&self, id: InstanceId) -> &Instance {
        let at = self
            .slot_of(id)
            .unwrap_or_else(|| panic!("unknown instance {id}"));
        self.at(at)
    }

    /// Mutable access to an instance.
    #[track_caller]
    pub fn instance_mut(&mut self, id: InstanceId) -> &mut Instance {
        let at = self
            .slot_of(id)
            .unwrap_or_else(|| panic!("unknown instance {id}"));
        self.at_mut(at)
    }

    /// Does the instance still exist? (Stopped instances with drained DMA
    /// are removed.)
    pub fn has_instance(&self, id: InstanceId) -> bool {
        self.by_id.contains_key(&id)
    }

    /// The instance currently owning a frame index, if any.
    pub fn frame_owner(&self, frame: FramePtr) -> Option<InstanceId> {
        assert_eq!(frame.pe, self.pe, "lookup routed to the wrong LSE");
        self.frames
            .get(frame.index as usize)
            .copied()
            .flatten()
            .map(|e| e.id)
    }

    /// Is the LSE currently dead (crashed, not yet restarted)?
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Has this LSE ever crashed? Gates the tolerant message paths: once
    /// a crash destroyed instances, stale traffic addressed to them must
    /// drop instead of tripping the consistency asserts.
    #[inline]
    pub fn ever_crashed(&self) -> bool {
        self.stats.crashes > 0
    }

    /// Work this LSE knows to be unrecovered: lost instances plus
    /// adoptions still parked (and stashed stores with no installed
    /// adoption). Non-zero at quiescence turns the run into a typed
    /// error.
    pub fn unrecovered_work(&self) -> u64 {
        self.stats.lost
            + self.adopt_pending.len() as u64
            // A sum: map iteration order cannot reach the result.
            + self
                .adopt_stash
                .values()
                .map(|v| v.len() as u64)
                .sum::<u64>()
    }

    /// The scheduled crash fires: classify and destroy every live
    /// instance, arm store-forwarding for the evacuees, and report what
    /// the core must re-admit or replay. `evac_to` is the planned
    /// adoption peer from the failover schedule (`None` = evacuees are
    /// lost).
    ///
    /// Classification (the taint rule): an instance that has not yet
    /// started (`pc == 0`, waiting for stores or ready) is *evacuated* —
    /// its frame snapshot re-creates it at the peer, and future producer
    /// stores forward. A started instance without external effects
    /// (`!tainted`: no remote store, FALLOC, memory write, or DMA-out
    /// yet) is *killed and replayed* the same way from its input frame —
    /// replay is sound because everything it did was local. A tainted
    /// instance is killed unrecoverably (replay would double its
    /// effects) and counted lost. Instances already at `STOP` merely
    /// lose their DMA-drain bookkeeping.
    pub fn crash(&mut self, evac_to: Option<u16>) -> CrashReport {
        self.dead = true;
        self.stats.crashes += 1;
        let mut report = CrashReport::default();
        for index in 0..self.frames.len() as u32 {
            let Some(e) = self.frames[index as usize] else {
                continue;
            };
            // A stopped instance whose DMA drained is already gone from
            // the slab (its slot maybe reused) while its frame awaits
            // FFREE: nothing to recover.
            let Some(inst) = self.slab[e.at.0 as usize].as_ref().filter(|i| i.id == e.id) else {
                self.stale.insert(index);
                continue;
            };
            let pre_start = inst.pc == 0
                && !inst.tainted
                && matches!(inst.state, ThreadState::WaitStores | ThreadState::Ready);
            let evacuee = |inst: &Instance| Evacuee {
                index,
                thread: inst.thread,
                sc: inst.sc,
                slots: inst.slots.len() as u16,
                needs_pf: inst.pf_buf_addr != u32::MAX,
                values: inst
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0)
                    .map(|(s, &v)| (s as u16, v))
                    .collect(),
            };
            if pre_start {
                self.stats.evacuated += 1;
                report.evacuated += 1;
                if let Some(peer) = evac_to {
                    if inst.sc > 0 {
                        self.evac.insert(index, (peer, inst.sc));
                    }
                    report.evacuees.push(evacuee(inst));
                } else {
                    if inst.sc > 0 {
                        self.stale.insert(index);
                    }
                    self.stats.lost += 1;
                    report.lost += 1;
                }
            } else if inst.state == ThreadState::Done {
                // STOP already executed; only its DMA-drain bookkeeping
                // dies with the LSE.
                self.stale.insert(index);
            } else if !inst.tainted {
                // Started but effect-free: kill and replay from inputs.
                self.stats.killed += 1;
                report.killed += 1;
                if evac_to.is_some() {
                    report.evacuees.push(evacuee(inst));
                } else {
                    self.stats.lost += 1;
                    report.lost += 1;
                }
            } else {
                self.stale.insert(index);
                self.stats.killed += 1;
                report.killed += 1;
                self.stats.lost += 1;
                report.lost += 1;
            }
        }
        // Parked allocations never granted a frame replay as fresh
        // FALLOCs through the arbiter (PR 3's re-homing path).
        report.replay = self.pending.drain(..).collect();
        // Adoptions we never managed to install die with us.
        while let Some((home, index, ..)) = self.adopt_pending.pop_front() {
            self.adopt_stash.remove(&(home, index));
            self.stats.lost += 1;
            report.lost += 1;
        }
        self.slab.clear();
        self.free_slots.clear();
        self.by_id.clear();
        self.ready.clear();
        self.free_frames.clear();
        for f in &mut self.frames {
            *f = None;
        }
        report
    }

    /// The scheduled restart fires: rejoin cold. Frames still draining
    /// evacuation forwards stay out of the pool until their last
    /// producer store has been forwarded, and stale frames until their
    /// FFREE arrives (the `(pe, index)` address must stay unambiguous);
    /// everything else is fresh. Instance ids stay monotonic so stale
    /// DMA owner tokens can never collide.
    pub fn restart(&mut self) {
        self.dead = false;
        self.stats.restarts += 1;
        self.frames = vec![None; self.params.frame_capacity as usize];
        self.free_frames = (0..self.params.frame_capacity)
            .rev()
            .filter(|i| !self.evac.contains_key(i) && !self.stale.contains(i))
            .collect();
        self.pf_free = (0..self.params.pf_pool_size).rev().collect();
    }

    /// Re-admits one evacuated instance from a crashed peer. Parks when
    /// no frame (or prefetch buffer) is free right now.
    #[allow(clippy::too_many_arguments)]
    pub fn adopt(
        &mut self,
        now: u64,
        home: u16,
        index: u32,
        thread: ThreadId,
        sc: u16,
        slots: u16,
        needs_pf: bool,
    ) -> Adopted {
        match self.try_install_adoption(now, home, index, thread, sc, slots, needs_pf) {
            Some(id) => Adopted::Installed(id),
            None => {
                self.adopt_pending
                    .push_back((home, index, thread, sc, slots, needs_pf));
                Adopted::Parked
            }
        }
    }

    /// An adoption addressed to this LSE while it is dead (simultaneous
    /// crashes): the instance is unrecoverable.
    pub fn adopt_lost(&mut self, home: u16, index: u32) {
        self.adopt_stash.remove(&(home, index));
        self.stats.lost += 1;
    }

    /// Retries parked adoptions after a frame freed up; returns the
    /// installs as `(home, index, instance)` so the caller can emit
    /// events and correct the arbiter's capacity mirror.
    pub fn retry_adoptions(&mut self, now: u64) -> Vec<(u16, u32, InstanceId)> {
        let mut installed = Vec::new();
        while let Some(&(home, index, thread, sc, slots, needs_pf)) = self.adopt_pending.front() {
            match self.try_install_adoption(now, home, index, thread, sc, slots, needs_pf) {
                Some(id) => {
                    self.adopt_pending.pop_front();
                    installed.push((home, index, id));
                }
                None => break,
            }
        }
        installed
    }

    #[allow(clippy::too_many_arguments)]
    fn try_install_adoption(
        &mut self,
        now: u64,
        home: u16,
        index: u32,
        thread: ThreadId,
        sc: u16,
        slots: u16,
        needs_pf: bool,
    ) -> Option<InstanceId> {
        if needs_pf && self.pf_free.is_empty() {
            return None;
        }
        let frame_index = match self.free_frames.pop() {
            Some(i) => i,
            None if self.params.virtual_frames => self.grow_frame(),
            None => return None,
        };
        self.stats.readmitted += 1;
        let (id, at) = self.install(frame_index, thread, sc, slots, needs_pf, now);
        self.adopted.insert((home, index), (id, frame_index));
        if let Some(entries) = self.adopt_stash.remove(&(home, index)) {
            for (slot, value, sync) in entries {
                self.apply_adopt_value(now, at, slot, value, sync);
            }
        }
        Some(id)
    }

    fn apply_adopt_value(
        &mut self,
        now: u64,
        at: Slot,
        slot: u16,
        value: i64,
        sync: bool,
    ) -> Option<InstanceId> {
        if sync {
            self.stats.stores += 1;
            let inst = self.at_mut(at);
            if inst.store(slot, value) {
                let id = inst.id;
                self.push_ready(at, now);
                return Some(id);
            }
        } else {
            // Snapshot replay: the original store was already counted
            // (and already decremented the SC) at the crashed home.
            self.at_mut(at).slots[slot as usize] = value;
        }
        None
    }

    /// Delivers an `LseAdoptStore` addressed `(home, index)` to this
    /// (live) LSE.
    pub fn adopt_store(
        &mut self,
        now: u64,
        home: u16,
        index: u32,
        slot: u16,
        value: i64,
        sync: bool,
    ) -> StoreDelivery {
        if let Some(&(id, local_index)) = self.adopted.get(&(home, index)) {
            if let Some(at) = self.slot_of(id) {
                let ready = self.apply_adopt_value(now, at, slot, value, sync);
                return StoreDelivery::Applied(ready);
            }
            // We adopted it, then crashed and re-evacuated it: chain the
            // forward to the next adopter, re-keyed to our frame index.
            if sync && self.evac.contains_key(&local_index) {
                let (peer, freed) = self.evac_forward(local_index).expect("checked");
                return StoreDelivery::Forward {
                    peer,
                    index: local_index,
                    freed,
                };
            }
            return StoreDelivery::Dropped;
        }
        if self.dead {
            return StoreDelivery::Dropped;
        }
        // The forward outran the (slower, lease-delayed) adoption — or
        // the adoption is parked. Buffer until it installs.
        self.adopt_stash
            .entry((home, index))
            .or_default()
            .push((slot, value, sync));
        StoreDelivery::Stashed
    }

    /// Delivers an ordinary producer store at an LSE that has crashed at
    /// least once: evacuated frames forward to their adopter, live
    /// frames apply normally, anything else is a stale store for a
    /// destroyed instance and drops.
    pub fn store_after_crash(
        &mut self,
        now: u64,
        frame: FramePtr,
        slot: u16,
        value: i64,
    ) -> StoreDelivery {
        assert_eq!(frame.pe, self.pe, "store routed to the wrong LSE");
        if self.evac.contains_key(&frame.index) {
            let (peer, freed) = self.evac_forward(frame.index).expect("checked");
            return StoreDelivery::Forward {
                peer,
                index: frame.index,
                freed,
            };
        }
        if self.dead || self.stale.contains(&frame.index) {
            return StoreDelivery::Dropped;
        }
        match self.frames.get(frame.index as usize).copied().flatten() {
            Some(_) => StoreDelivery::Applied(self.store(now, frame, slot, value)),
            None => StoreDelivery::Dropped,
        }
    }

    /// Is `frame` held back from the pool for stale traffic (see
    /// `Lse::stale`)?
    pub fn is_stale(&self, frame: FramePtr) -> bool {
        assert_eq!(frame.pe, self.pe, "lookup routed to the wrong LSE");
        self.stale.contains(&frame.index)
    }

    /// The FFREE a stale frame was held back for arrived: the address is
    /// unambiguous again. Returns `true` when the frame rejoined the pool
    /// now (the caller posts `FrameFreed`); a dead LSE's restart picks
    /// it up instead.
    pub fn release_stale(&mut self, frame: FramePtr) -> bool {
        assert!(self.is_stale(frame), "release of a frame that is not stale");
        self.stale.remove(&frame.index);
        let i = frame.index as usize;
        if self.dead || i >= self.frames.len() || self.frames[i].is_some() {
            return false;
        }
        self.free_frames.push(frame.index);
        true
    }

    /// Accounts one forwarded producer store against an evacuation
    /// entry; drains the entry at zero and returns the frame to the pool
    /// (the second tuple field) once the address can no longer receive
    /// forwarded traffic.
    fn evac_forward(&mut self, index: u32) -> Option<(u16, bool)> {
        let entry = self.evac.get_mut(&index)?;
        let peer = entry.0;
        entry.1 = entry.1.saturating_sub(1);
        if entry.1 > 0 {
            return Some((peer, false));
        }
        self.evac.remove(&index);
        if !self.dead
            && (index as usize) < self.frames.len()
            && self.frames[index as usize].is_none()
        {
            self.free_frames.push(index);
            return Some((peer, true));
        }
        Some((peer, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lse() -> Lse {
        Lse::new(
            0,
            LseParams {
                frame_capacity: 2,
                pf_buf_bytes: 1024,
                pf_pool_size: 2,
                pf_region_base: 0x100,
                op_latency: 2,
                virtual_frames: false,
                park_on_full: false,
            },
        )
    }

    #[test]
    fn alloc_store_ready_flow() {
        let mut l = lse();
        let g = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 2, 2, false)
            .unwrap();
        assert_eq!(g.frame.pe, 0);
        assert_eq!(l.free_frames(), 1);
        assert!(l.pop_ready().is_none());

        assert!(l.store(10, g.frame, 0, 5).is_none());
        let ready = l.store(11, g.frame, 1, 6);
        assert_eq!(ready, Some(g.instance));
        assert_eq!(l.pop_ready().map(|(id, _)| id), Some(g.instance));
        let inst = l.instance(g.instance);
        assert_eq!(inst.slot(0), 5);
        assert_eq!(inst.slot(1), 6);
        assert_eq!(inst.ready_at, 11);
    }

    #[test]
    fn sc_zero_instance_is_immediately_ready() {
        let mut l = lse();
        let g = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        assert_eq!(l.pop_ready().map(|(id, _)| id), Some(g.instance));
    }

    #[test]
    fn ffree_recycles_frame_and_pf_buffer() {
        let mut l = lse();
        let g1 = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, true)
            .unwrap();
        let a1 = l.instance(g1.instance).pf_buf_addr;
        assert_ne!(a1, u32::MAX);
        l.stop(g1.instance);
        assert!(l.ffree(g1.frame).is_empty());
        assert_eq!(l.free_frames(), 2);
        // The same frame index and buffer can be handed out again.
        let g2 = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, true)
            .unwrap();
        assert_eq!(g2.frame.index, g1.frame.index);
        assert_eq!(l.instance(g2.instance).pf_buf_addr, a1);
        // ...but the instance id is fresh.
        assert_ne!(g2.instance, g1.instance);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn overcommit_without_vfp_panics() {
        let mut l = lse();
        l.alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false);
        l.alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false);
        l.alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false); // capacity 2
    }

    #[test]
    fn virtual_frames_grow_beyond_capacity() {
        let mut l = Lse::new(
            0,
            LseParams {
                frame_capacity: 1,
                virtual_frames: true,
                ..LseParams::default()
            },
        );
        let g1 = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        let g2 = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        let g3 = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        let mut idx = vec![g1.frame.index, g2.frame.index, g3.frame.index];
        idx.dedup();
        assert_eq!(idx.len(), 3, "distinct virtual frames");
    }

    #[test]
    fn frames_in_use_counts_grown_virtual_frames() {
        let mut l = Lse::new(
            0,
            LseParams {
                frame_capacity: 1,
                virtual_frames: true,
                ..LseParams::default()
            },
        );
        let g1 = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        assert_eq!(l.frames_in_use(), 1);
        let g2 = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        assert_eq!(l.frames_in_use(), 2, "the grown frame is in use");
        l.ffree(g1.frame);
        assert_eq!(l.frames_in_use(), 1);
        l.ffree(g2.frame);
        assert_eq!(l.frames_in_use(), 0);
        assert_eq!(l.free_frames(), 2, "both indices are back in the pool");
    }

    #[test]
    fn vfp_with_pf_exhaustion_parks_allocation() {
        let mut l = Lse::new(
            0,
            LseParams {
                frame_capacity: 1,
                pf_pool_size: 1,
                virtual_frames: true,
                ..LseParams::default()
            },
        );
        let g1 = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, true)
            .unwrap();
        // Only one pf buffer exists; second prefetching alloc parks.
        assert!(l
            .alloc_frame(7, InstanceId(900), ThreadId(1), 1, 1, true)
            .is_none());
        // Freeing the first frame releases the buffer and grants the
        // parked request.
        l.stop(g1.instance);
        let granted = l.ffree(g1.frame);
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].requester, 7);
    }

    #[test]
    fn park_on_full_queues_overgrants_until_ffree() {
        let mut l = Lse::new(
            0,
            LseParams {
                frame_capacity: 1,
                park_on_full: true,
                ..LseParams::default()
            },
        );
        let g1 = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        // Over-grant from an approximate post-failover mirror: parks.
        assert!(l
            .alloc_frame(3, InstanceId(901), ThreadId(1), 1, 1, false)
            .is_none());
        assert_eq!(l.stats().max_pending_allocs, 1);
        l.stop(g1.instance);
        let granted = l.ffree(g1.frame);
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].requester, 3);
        assert_eq!(granted[0].for_inst, InstanceId(901));
    }

    #[test]
    fn stop_with_outstanding_dma_defers_removal() {
        let mut l = lse();
        let g = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        l.instance_mut(g.instance).dma_issued(2);
        l.stop(g.instance);
        assert!(l.has_instance(g.instance));
        assert!(!l.dma_done(0, g.instance, 2));
        assert!(!l.has_instance(g.instance));
    }

    #[test]
    fn dma_done_readies_waiting_instance() {
        let mut l = lse();
        let g = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        assert_eq!(l.pop_ready().map(|(id, _)| id), Some(g.instance)); // drain initial ready
        let inst = l.instance_mut(g.instance);
        inst.dma_issued(0);
        inst.state = ThreadState::WaitDma;
        assert!(l.dma_done(42, g.instance, 0));
        assert_eq!(l.pop_ready().map(|(id, _)| id), Some(g.instance));
        assert_eq!(l.instance(g.instance).ready_at, 42);
    }

    #[test]
    fn reserve_op_serialises_lse_work() {
        let mut l = lse();
        let a = l.reserve_op(0);
        let b = l.reserve_op(0);
        assert_eq!(a, 2);
        assert_eq!(b, 4); // queued behind the first op
    }

    #[test]
    #[should_panic(expected = "wrong LSE")]
    fn misrouted_store_panics() {
        let mut l = lse();
        l.store(0, FramePtr::new(1, 0), 0, 0);
    }

    #[test]
    #[should_panic(expected = "unallocated frame")]
    fn store_to_free_frame_panics() {
        let mut l = lse();
        l.store(0, FramePtr::new(0, 0), 0, 0);
    }

    fn big_lse(pe: u16, capacity: u32) -> Lse {
        Lse::new(
            pe,
            LseParams {
                frame_capacity: capacity,
                ..LseParams::default()
            },
        )
    }

    #[test]
    fn crash_classifies_pre_start_started_and_tainted() {
        let mut l = big_lse(0, 4);
        // A: pre-start, one of two producer stores arrived.
        let a = l
            .alloc_frame(0, InstanceId(900), ThreadId(1), 2, 2, false)
            .unwrap();
        l.store(1, a.frame, 0, 5);
        // B: started but effect-free (replayable from its inputs).
        let b = l
            .alloc_frame(0, InstanceId(900), ThreadId(2), 0, 1, false)
            .unwrap();
        let ib = l.instance_mut(b.instance);
        ib.pc = 3;
        ib.state = ThreadState::Running;
        // C: started and tainted (already stored remotely) — lost.
        let c = l
            .alloc_frame(0, InstanceId(900), ThreadId(3), 0, 0, false)
            .unwrap();
        let ic = l.instance_mut(c.instance);
        ic.pc = 1;
        ic.state = ThreadState::Running;
        ic.tainted = true;

        let r = l.crash(Some(1));
        assert!(l.is_dead());
        assert!(l.ever_crashed());
        assert_eq!((r.evacuated, r.killed, r.lost), (1, 2, 1));
        assert_eq!(r.evacuees.len(), 2, "A evacuated, B replayed, C lost");
        let ea = &r.evacuees[0];
        assert_eq!(
            (ea.index, ea.thread, ea.sc, ea.slots),
            (a.frame.index, ThreadId(1), 1, 2)
        );
        assert_eq!(ea.values, vec![(0, 5)], "only filled slots travel");
        let eb = &r.evacuees[1];
        assert_eq!(
            (eb.thread, eb.sc),
            (ThreadId(2), 0),
            "replay restarts from pc 0"
        );
        assert_eq!(l.unrecovered_work(), 1, "only C is lost work");
        // A's outstanding producer store must forward to the peer.
        assert_eq!(
            l.store_after_crash(9, a.frame, 1, 6),
            StoreDelivery::Forward {
                peer: 1,
                index: a.frame.index,
                freed: false
            }
        );
        // ...and once drained, further stores to the dead LSE drop.
        assert_eq!(
            l.store_after_crash(9, a.frame, 1, 6),
            StoreDelivery::Dropped
        );
    }

    #[test]
    fn crash_without_peer_loses_evacuees() {
        let mut l = big_lse(0, 4);
        let a = l
            .alloc_frame(0, InstanceId(900), ThreadId(1), 2, 2, false)
            .unwrap();
        let r = l.crash(None);
        assert!(r.evacuees.is_empty());
        assert_eq!((r.evacuated, r.lost), (1, 1));
        assert_eq!(
            l.store_after_crash(5, a.frame, 0, 1),
            StoreDelivery::Dropped
        );
    }

    #[test]
    fn restart_excludes_frames_still_draining_forwards() {
        let mut l = big_lse(0, 2);
        let a = l
            .alloc_frame(0, InstanceId(900), ThreadId(1), 2, 2, false)
            .unwrap();
        l.crash(Some(1));
        // First of two outstanding stores forwards while still dead.
        assert_eq!(
            l.store_after_crash(5, a.frame, 0, 1),
            StoreDelivery::Forward {
                peer: 1,
                index: a.frame.index,
                freed: false
            }
        );
        l.restart();
        assert!(!l.is_dead());
        assert_eq!(
            l.free_frames(),
            1,
            "the draining frame's address must stay reserved"
        );
        // The last forward releases the frame back to the pool.
        assert_eq!(
            l.store_after_crash(9, a.frame, 1, 2),
            StoreDelivery::Forward {
                peer: 1,
                index: a.frame.index,
                freed: true
            }
        );
        assert_eq!(l.free_frames(), 2);
    }

    #[test]
    fn stale_frames_wait_for_their_ffree_across_a_restart() {
        let mut l = big_lse(0, 3);
        // A stopped before the crash; its FFREE is still in flight.
        let a = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        l.pop_ready();
        l.stop(a.instance);
        // B posted effects (it may have freed its frame too): lost.
        let b = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        let ib = l.instance_mut(b.instance);
        ib.pc = 2;
        ib.state = ThreadState::Running;
        ib.tainted = true;
        l.crash(Some(1));
        assert!(l.is_stale(a.frame) && l.is_stale(b.frame));
        l.restart();
        assert_eq!(l.free_frames(), 1, "only the untouched frame is free");
        let c = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 1, 1, false)
            .unwrap();
        assert_ne!(c.frame, a.frame);
        assert_ne!(c.frame, b.frame);
        // A stray store to a held frame drops instead of reaching a
        // later owner.
        assert_eq!(
            l.store_after_crash(7, a.frame, 0, 1),
            StoreDelivery::Dropped
        );
        // A's FFREE arrives: the address rejoins the pool.
        assert!(l.release_stale(a.frame));
        assert!(!l.is_stale(a.frame));
        assert_eq!(l.free_frames(), 1);
        let d = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        assert_eq!(d.frame, a.frame);
    }

    #[test]
    fn stale_ffree_while_dead_frees_the_frame_at_restart() {
        let mut l = big_lse(0, 2);
        let a = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        l.pop_ready();
        l.stop(a.instance);
        l.crash(Some(1));
        assert!(!l.release_stale(a.frame), "a dead LSE grants nothing");
        l.restart();
        assert_eq!(l.free_frames(), 2);
    }

    fn virtual_lse(capacity: u32) -> Lse {
        Lse::new(
            0,
            LseParams {
                frame_capacity: capacity,
                virtual_frames: true,
                ..LseParams::default()
            },
        )
    }

    /// Grants A (physical frame 0) and B (virtual frame 1), crashes and
    /// restarts, then grants twice more: the second grant grows the
    /// table again and must not reuse frame 1 while the crash holds it.
    fn grant_past_a_held_virtual_frame(l: &mut Lse, evac_to: Option<u16>, stop_b: bool) {
        let a = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        let b = l
            .alloc_frame(0, InstanceId(900), ThreadId(1), 1, 1, false)
            .unwrap();
        assert_eq!((a.frame.index, b.frame.index), (0, 1));
        if stop_b {
            l.stop(b.instance);
        }
        l.crash(evac_to);
        l.restart();
        let c = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        assert_eq!(c.frame, a.frame);
        let d = l
            .alloc_frame(0, InstanceId(900), ThreadId(1), 1, 1, false)
            .unwrap();
        assert_ne!(d.frame, b.frame, "frame 1 is still held by the crash");
        assert!(!l.is_stale(d.frame));
        assert_eq!(
            l.store_after_crash(9, d.frame, 0, 4),
            StoreDelivery::Applied(Some(d.instance)),
            "the new owner's producer store must reach it"
        );
    }

    #[test]
    fn restart_never_regrants_a_stale_virtual_frame() {
        let mut l = virtual_lse(1);
        // B stopped before the crash; its FFREE is still in flight.
        grant_past_a_held_virtual_frame(&mut l, None, true);
        // B's FFREE arrives: the address is unambiguous again.
        assert!(l.release_stale(FramePtr::new(0, 1)));
    }

    #[test]
    fn restart_never_regrants_an_evacuated_virtual_frame() {
        let mut l = virtual_lse(1);
        // B is pre-start with a producer store due: it evacuates.
        grant_past_a_held_virtual_frame(&mut l, Some(1), false);
        // B's producer store forwards to the adopter and frees frame 1.
        assert_eq!(
            l.store_after_crash(10, FramePtr::new(0, 1), 0, 5),
            StoreDelivery::Forward {
                peer: 1,
                index: 1,
                freed: true
            }
        );
    }

    #[test]
    fn adoption_applies_stashed_stores_in_arrival_order() {
        let mut peer = big_lse(1, 2);
        // Forwards outrun the lease-delayed Adopt: buffer them.
        assert_eq!(
            peer.adopt_store(3, 0, 7, 1, 9, false),
            StoreDelivery::Stashed,
            "snapshot replay before the adoption installs"
        );
        assert_eq!(
            peer.adopt_store(4, 0, 7, 0, 7, true),
            StoreDelivery::Stashed
        );
        let Adopted::Installed(id) = peer.adopt(5, 0, 7, ThreadId(4), 2, 2, false) else {
            panic!("capacity available — must install");
        };
        let inst = peer.instance(id);
        assert_eq!(inst.sc, 1, "sync store decremented, raw snapshot did not");
        assert_eq!((inst.slot(0), inst.slot(1)), (7, 9));
        assert_eq!(peer.stats().readmitted, 1);
        // The last producer store arrives after install and readies it.
        assert_eq!(
            peer.adopt_store(6, 0, 7, 1, 10, true),
            StoreDelivery::Applied(Some(id))
        );
        assert_eq!(peer.pop_ready().map(|(id, _)| id), Some(id));
        assert_eq!(peer.unrecovered_work(), 0);
    }

    #[test]
    fn adoption_parks_on_full_and_retries_after_ffree() {
        let mut peer = big_lse(1, 1);
        let g = peer
            .alloc_frame(1, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        assert_eq!(peer.pop_ready().map(|(id, _)| id), Some(g.instance));
        assert_eq!(
            peer.adopt(2, 0, 3, ThreadId(4), 0, 0, false),
            Adopted::Parked
        );
        assert_eq!(
            peer.unrecovered_work(),
            1,
            "parked adoption is at-risk work"
        );
        assert!(peer.retry_adoptions(3).is_empty(), "still full");
        peer.stop(g.instance);
        peer.ffree(g.frame);
        let installed = peer.retry_adoptions(4);
        assert_eq!(installed.len(), 1);
        assert_eq!((installed[0].0, installed[0].1), (0, 3));
        assert_eq!(peer.unrecovered_work(), 0);
        assert_eq!(
            peer.pop_ready().map(|(id, _)| id),
            Some(installed[0].2),
            "sc 0 readies at once"
        );
    }

    #[test]
    fn chained_crash_re_forwards_adopted_stores() {
        let mut peer = big_lse(1, 2);
        let Adopted::Installed(_) = peer.adopt(2, 0, 5, ThreadId(4), 2, 2, false) else {
            panic!("must install");
        };
        // The adopter itself crashes; the adopted copy is pre-start so it
        // evacuates onward, and forwards addressed to the *original* home
        // key chain to the new peer re-keyed to this LSE's frame.
        let r = peer.crash(Some(2));
        assert_eq!(r.evacuated, 1);
        let local = r.evacuees[0].index;
        assert_eq!(
            peer.adopt_store(9, 0, 5, 0, 1, true),
            StoreDelivery::Forward {
                peer: 2,
                index: local,
                freed: false
            }
        );
    }

    #[test]
    fn adopt_at_dead_lse_is_lost_work() {
        let mut l = big_lse(0, 2);
        l.crash(Some(1));
        l.adopt_lost(2, 9);
        assert_eq!(l.stats().lost, 1);
        assert!(l.unrecovered_work() > 0);
    }

    #[test]
    fn stats_track_high_water_marks() {
        let mut l = lse();
        let g1 = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        let _g2 = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        let s = l.stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.max_live_instances, 2);
        assert_eq!(s.max_ready_queue, 2);
        l.stop(g1.instance);
        assert_eq!(l.stats().stops, 1);
    }

    #[test]
    fn slot_is_reused_after_stop_and_after_dma_drain() {
        let mut l = big_lse(0, 4);
        let a = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        let (_, sa) = l.pop_ready().unwrap();
        l.stop(a.instance);
        // Stopped with no DMA open: the slot frees at once, even though
        // the frame still awaits its FFREE.
        let b = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        let (id, sb) = l.pop_ready().unwrap();
        assert_eq!((id, sb), (b.instance, sa));
        assert_eq!(l.frame_owner(a.frame), Some(a.instance));
        l.at_mut(sb).dma_issued(1);
        l.stop(b.instance);
        assert!(l.has_instance(b.instance), "DMA still open");
        let c = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        let (_, sc) = l.pop_ready().unwrap();
        assert_ne!(sc, sb, "a draining instance keeps its slot");
        assert!(!l.dma_done(5, b.instance, 1));
        assert!(!l.has_instance(b.instance));
        let d = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 1, 1, false)
            .unwrap();
        assert_eq!(l.slot_of(d.instance), Some(sb), "freed by the drain");
        assert_eq!(l.store(6, d.frame, 0, 7), Some(d.instance));
        assert_eq!(l.pop_ready(), Some((d.instance, sb)));
        assert_eq!(l.at(sb).slot(0), 7);
        assert_eq!(l.instance(c.instance).id, c.instance);
        assert_eq!(l.live_instances(), 2);
    }

    #[test]
    fn crash_clears_the_slab_and_its_index() {
        let mut l = big_lse(0, 4);
        let ids: Vec<InstanceId> = (0..3)
            .map(|_| {
                l.alloc_frame(0, InstanceId(900), ThreadId(0), 1, 1, false)
                    .unwrap()
                    .instance
            })
            .collect();
        l.crash(Some(1));
        assert_eq!(l.live_instances(), 0);
        assert!(l.live_instance_states().is_empty());
        assert!(ids
            .iter()
            .all(|&id| !l.has_instance(id) && l.slot_of(id).is_none()));
        assert_eq!(l.waiting_dma(), 0);
        l.restart();
        // Slots restart from the front; ids do not.
        let g = l
            .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
            .unwrap();
        assert_eq!(g.instance, InstanceId(3));
        assert_eq!(l.pop_ready().map(|(id, _)| id), Some(g.instance));
        assert_eq!(l.live_instances(), 1);
    }

    #[test]
    fn live_states_stay_sorted_by_id_across_slot_reuse() {
        let mut l = big_lse(0, 8);
        let g: Vec<Granted> = (0..4)
            .map(|_| {
                l.alloc_frame(0, InstanceId(900), ThreadId(0), 1, 1, false)
                    .unwrap()
            })
            .collect();
        // Free the first two slots; the next grants reuse them, so slab
        // order puts the newest ids first.
        for x in &g[..2] {
            l.stop(x.instance);
        }
        let late: Vec<InstanceId> = (0..2)
            .map(|_| {
                l.alloc_frame(0, InstanceId(900), ThreadId(0), 1, 1, false)
                    .unwrap()
                    .instance
            })
            .collect();
        let ids: Vec<InstanceId> = l.live_instance_states().iter().map(|e| e.0).collect();
        assert_eq!(ids, vec![g[2].instance, g[3].instance, late[0], late[1]]);
    }

    #[test]
    fn ids_keep_the_pe_and_counter_sequence() {
        let mut l = big_lse(5, 4);
        let mut got = Vec::new();
        for _ in 0..6 {
            let g = l
                .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 0, false)
                .unwrap();
            got.push(g.instance);
            l.pop_ready();
            l.stop(g.instance);
            l.ffree(g.frame);
        }
        let want: Vec<InstanceId> = (0..6).map(|c| InstanceId((5 << 48) | c)).collect();
        assert_eq!(got, want, "slot reuse does not reuse ids");
    }

    /// The instance slab, its id index and the prefetch-buffer table
    /// under churn: 100 000 alloc/stop/ffree cycles with a fixed-seed
    /// mix, checked against a shadow list. Lookups must always find the right
    /// instance, prefetch buffers must never be shared, and the lifecycle
    /// snapshot must stay sorted by id.
    #[test]
    fn instance_table_survives_churn() {
        // 64 frames, 16 prefetch buffers.
        let mut l = Lse::new(3, LseParams::default());
        // (instance, frame, tag written into r3).
        let mut live: Vec<(InstanceId, FramePtr, i64)> = Vec::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut cycles = 0;
        while cycles < 100_000 {
            let r = rng();
            let pf_busy = live
                .iter()
                .filter(|&&(id, _, _)| l.instance(id).pf_buf_addr != u32::MAX)
                .count();
            if live.len() < 64 && (live.is_empty() || r % 3 != 0) {
                let needs_pf = r & 8 != 0 && pf_busy < 16;
                let g = l
                    .alloc_frame(0, InstanceId(900), ThreadId(0), 0, 1, needs_pf)
                    .expect("a frame and buffer are free");
                assert_eq!(l.pop_ready().map(|(id, _)| id), Some(g.instance));
                let tag = (r >> 16) as i64;
                l.instance_mut(g.instance).regs[3] = tag;
                live.push((g.instance, g.frame, tag));
            } else {
                let (id, frame, tag) = live.swap_remove((r >> 8) as usize % live.len());
                assert_eq!(l.instance(id).regs[3], tag, "lookup of {id}");
                assert_eq!(l.frame_owner(frame), Some(id));
                l.stop(id);
                assert!(!l.has_instance(id));
                assert!(l.ffree(frame).is_empty());
                cycles += 1;
            }
            if r % 1024 == 0 || cycles == 100_000 {
                let states = l.live_instance_states();
                assert!(states.windows(2).all(|w| w[0].0 < w[1].0), "sorted by id");
                let mut want: Vec<InstanceId> = live.iter().map(|e| e.0).collect();
                want.sort_unstable();
                let got: Vec<InstanceId> = states.iter().map(|e| e.0).collect();
                assert_eq!(got, want);
                let mut bufs: Vec<u32> = live
                    .iter()
                    .map(|e| l.instance(e.0).pf_buf_addr)
                    .filter(|&a| a != u32::MAX)
                    .collect();
                bufs.sort_unstable();
                bufs.dedup();
                assert_eq!(bufs.len(), 16 - l.pf_free.len(), "buffers never shared");
            }
        }
        assert_eq!(l.stats().stops, 100_000);
        assert_eq!(l.live_instances(), live.len());
    }
}
