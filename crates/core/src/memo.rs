//! Instance-level memoization & timing replay (R3-DLA applied to the host).
//!
//! The paper's workloads spawn thousands of *byte-identical* thread
//! instances; after fast-forward removed idle ticks, re-interpreting each
//! one instruction by instruction is the dominant host cost. This module
//! lets a PE recognise a repeated **pure segment** — the instruction span
//! between two *boundary* instructions (anything that touches the shared
//! memory system, the scheduler fabric, or the DMA engine) — and replay
//! its recorded timing skeleton instead of re-executing it.
//!
//! The contract is bit-identical simulation output. It rests on three
//! legs:
//!
//! 1. **Functional pre-execution.** Pure instructions (ALU, moves,
//!    branches, frame/local-store accesses) depend only on the instance's
//!    registers, its frame slots and local-store bytes — state that
//!    nothing else mutates while the instance runs. At a segment entry the
//!    PE *functionally* interprets the span in one host pass, through the
//!    same pure-instruction step the pipeline uses, producing the final
//!    registers, the outbound `STORE`/`FFREE` effects, and the local-store
//!    writes. Data values are therefore always fresh — only *timing* is
//!    cached.
//! 2. **Path-signature keying.** Segment timing is a pure function of the
//!    executed path (pc sequence — branch decisions included), the
//!    register scoreboard's *relative* ready times and stall buckets, the
//!    LS-port watermarks, and the degraded flag. All of those feed an
//!    FNV-1a-128 key; two segments with equal keys issue identically,
//!    cycle for cycle, relative to their entry cycles.
//! 3. **Contention windows.** A recorded skeleton is only *fired* when
//!    nothing external can perturb the span: either the PE has no DMA in
//!    flight, or its in-flight set provably stays constant through the
//!    span ([`Mfc::quiet_horizon`](dta_mem::Mfc)). Otherwise the attempt
//!    falls back to normal interpretation — a miss, never an error.
//!
//! Recorded skeletons are *shift-invariant*: every in-span timestamp is
//! stored relative to the entry cycle, and the DMA-overlap attribution
//! (which depends on the fire-time `dma_open`) is normalised out of the
//! recorded stats delta and re-added at fire time.

use crate::stats::{PeStats, StallCat};
use crate::step::{self, Effect, Step};
use dta_isa::program::ThreadCode;
use dta_isa::{IdBuild, Instr, NUM_REGS, ZERO_REG};
use dta_mem::LocalStore;
use dta_sched::{Instance, InstanceId};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-PE skeleton cache capacity (entries). When full, new segments are
/// no longer recorded (existing entries keep firing).
pub(crate) const MAX_ENTRIES: usize = 1024;
/// Minimum segment length, in instructions, worth memoizing; shorter
/// segments are interpreted (counted as neither hit nor miss).
pub(crate) const MIN_SPAN: u32 = 3;
/// Functional pre-execution step cap: a segment whose pure prefix exceeds
/// this many instructions is not memoized (guards against unbounded pure
/// loops).
pub(crate) const MAX_STEPS: u32 = 4096;

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Incremental FNV-1a-style 128-bit hash over the key material, folding
/// whole words (one multiply per word instead of one per byte: the hash
/// sits on the segment-attempt hot path). Local to the memo layer (cache
/// keys never leave the host), so it need not match byte-wise FNV test
/// vectors — only determinism and diffusion matter, and the 128-bit
/// state times the odd FNV prime keeps word-fold collisions negligible.
struct Fnv128(u128);

impl Fnv128 {
    fn new() -> Self {
        Fnv128(FNV_OFFSET)
    }

    #[inline]
    fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v as u128).wrapping_mul(FNV_PRIME);
    }

    #[inline]
    fn u8(&mut self, v: u8) {
        self.word(v as u64);
    }

    #[inline]
    fn u32(&mut self, v: u32) {
        self.word(v as u64);
    }

    #[inline]
    fn u64(&mut self, v: u64) {
        self.word(v);
    }

    fn finish(&self) -> u128 {
        self.0
    }
}

/// Is `i` a segment boundary regardless of dynamic state? Boundary
/// instructions touch shared simulation state (memory system, scheduler
/// fabric, DMA engine) whose latency is not a pure function of the PE:
/// they are interpreted normally, and segments span the gaps between
/// them. `DMAYIELD` is dynamic — a boundary only while the instance has
/// outstanding transfers (it then leaves the pipeline) — and is handled
/// by the caller.
pub(crate) fn is_boundary(i: &Instr) -> bool {
    matches!(
        i,
        Instr::Read { .. }
            | Instr::Write { .. }
            | Instr::Falloc { .. }
            | Instr::Stop
            | Instr::DmaGet { .. }
            | Instr::DmaGetStrided { .. }
            | Instr::DmaPut { .. }
            | Instr::DmaWait { .. }
    )
}

/// Can `i` end a segment on its `Exec::Next` path? Used to re-arm the
/// memo attempt after a boundary issues and falls through. Includes
/// `DMAYIELD` (over-arming is harmless: the attempt itself re-checks).
pub(crate) fn may_bound_segment(i: &Instr) -> bool {
    is_boundary(i) || matches!(i, Instr::DmaYield)
}

/// The result of functionally pre-executing a segment.
pub(crate) struct FnExec {
    /// Path-signature cache key.
    pub key: u128,
    /// The boundary instruction the segment stops at.
    pub stop_pc: u32,
    /// Pure instructions in the span (not cycles).
    pub steps: u32,
    /// Final register file (r0 pinned to zero).
    pub regs: [i64; NUM_REGS],
    /// Outbound messages, in issue order.
    pub effects: Vec<Effect>,
    /// Local-store word writes `(addr, value)`, in program order.
    pub overlay: Vec<(u32, u32)>,
}

/// Reads a byte through the write overlay (last write wins), falling back
/// to the underlying local store.
fn overlay_u8(ls: &LocalStore, overlay: &[(u32, u32)], addr: u32) -> u8 {
    for &(wa, wv) in overlay.iter().rev() {
        let off = addr.wrapping_sub(wa);
        if off < 4 {
            return (wv >> (8 * off)) as u8;
        }
    }
    ls.read_u8(addr)
}

fn overlay_i32(ls: &LocalStore, overlay: &[(u32, u32)], addr: u32) -> i64 {
    let b = [
        overlay_u8(ls, overlay, addr),
        overlay_u8(ls, overlay, addr + 1),
        overlay_u8(ls, overlay, addr + 2),
        overlay_u8(ls, overlay, addr + 3),
    ];
    u32::from_le_bytes(b) as i32 as i64
}

/// Functionally interprets the pure segment starting at `inst.pc` through
/// the shared [`step`](crate::step::step), hashing the path signature as
/// it goes. Local-store reads see the segment's own earlier writes
/// through the overlay. Returns `None` — caller falls back to
/// interpretation — on anything the real pipeline would fault on (bad
/// frame pointer, out-of-range LS access, pc escape) or that exceeds
/// [`MAX_STEPS`]. Defensive `None`s are always sound: a miss only costs
/// time.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fn_exec(
    thread: &ThreadCode,
    inst: &Instance,
    ls: &LocalStore,
    reg_ready: &[u64; NUM_REGS],
    reg_stall: &[StallCat; NUM_REGS],
    ls_free: &[u64],
    degraded: bool,
    now: u64,
) -> Option<FnExec> {
    let mut h = Fnv128::new();
    h.u32(inst.thread.0);
    h.u8(degraded as u8);
    // Scoreboard: only still-pending registers shape timing. Values at or
    // before `now` are behaviourally identical, and a pending register's
    // stall bucket decides which category a too-early consumer charges.
    for i in 0..NUM_REGS {
        let rel = reg_ready[i].saturating_sub(now);
        if rel > 0 {
            h.u8(i as u8);
            h.u64(rel);
            h.u8(reg_stall[i] as u8);
        }
    }
    h.u8(0xFE);
    // LS-port watermarks, positional: reservations tie-break by channel
    // index, so the full relative vector pins every in-span reservation.
    for &t in ls_free {
        h.u64(t.saturating_sub(now));
    }

    let code = &thread.code;
    let mut regs = inst.regs;
    regs[ZERO_REG.index()] = 0;
    let mut effects = Vec::new();
    let mut overlay: Vec<(u32, u32)> = Vec::new();
    let mut pc = inst.pc;
    let mut steps = 0u32;
    let dma_pending = inst.outstanding_dma > 0;

    loop {
        let &i = code.get(pc as usize)?;
        if is_boundary(&i) || (matches!(i, Instr::DmaYield) && dma_pending) {
            h.u8(0xFF);
            h.u32(pc);
            return Some(FnExec {
                key: h.finish(),
                stop_pc: pc,
                steps,
                regs,
                effects,
                overlay,
            });
        }
        if steps >= MAX_STEPS {
            return None;
        }
        steps += 1;
        h.u32(pc);
        if matches!(i, Instr::DmaYield) {
            pc += 1; // nothing outstanding: falls through
            continue;
        }
        let done = step::step(i, &regs, &inst.slots, ls.size(), |a| {
            overlay_i32(ls, &overlay, a)
        });
        pc = match done {
            Step::Fault(_) => return None,
            Step::Jump(target) => target,
            Step::Next => pc + 1,
            Step::Set(rd, v) | Step::Load(rd, v) => {
                step::set(&mut regs, rd, v);
                pc + 1
            }
            Step::LsStore { addr, value } => {
                overlay.push((addr, value));
                pc + 1
            }
            Step::Post(effect) => {
                effects.push(effect);
                pc + 1
            }
        };
    }
}

/// A segment's recorded, shift-invariant timing skeleton. Every field is
/// relative to the segment's entry cycle; replay adds the fire-time base
/// back in.
pub(crate) struct Skeleton {
    /// Cycles from entry to the boundary instruction's first issue
    /// attempt.
    pub len: u64,
    /// The boundary pc the segment ends at.
    pub stop_pc: u32,
    /// Relative cycles at which the span pushes outbound messages (one
    /// per [`Effect`], in order; at most one per cycle).
    pub post_rels: Vec<u64>,
    /// Stats accumulated over the span, with the DMA-overlap attribution
    /// normalised to zero (re-derived at fire time from `overlap_cycles`).
    pub stats_delta: PeStats,
    /// Compute + degraded fine cycles in the span: the overlap
    /// attribution a fire inside a DMA-busy (but quiet) window re-adds.
    pub overlap_cycles: u64,
    /// Scoreboard ready times at segment end, relative to entry.
    pub end_reg_rel: [u64; NUM_REGS],
    /// Scoreboard stall buckets at segment end.
    pub end_reg_stall: [StallCat; NUM_REGS],
    /// LS-port free times at segment end, relative to entry (positional).
    pub ls_rel: Vec<u64>,
    /// LS-port busy cycles accumulated over the span.
    pub ls_busy_delta: u64,
}

/// An in-progress recording: the segment runs under normal
/// interpretation while the memo layer captures its outbox cycles and,
/// at the boundary, its stats/scoreboard deltas.
pub(crate) struct Recording {
    /// Cache key the skeleton will be filed under.
    pub key: u128,
    /// The instance being recorded (finalisation is discarded if another
    /// instance reaches the pipeline first).
    pub owner: InstanceId,
    /// Entry cycle.
    pub base: u64,
    /// Predicted boundary pc.
    pub stop_pc: u32,
    /// `dma_open` at entry: if it changed by the boundary, a completion
    /// landed mid-span and the recording is discarded (its overlap
    /// attribution would not be shift-invariant).
    pub dma_open_at_base: u64,
    /// Number of outbound messages the span must push (from pre-exec).
    pub expected_posts: usize,
    /// Stats snapshot at entry.
    pub stats_at: PeStats,
    /// LS-port busy-cycle snapshot at entry.
    pub ls_busy_at: u64,
    /// Relative push cycles observed so far.
    pub post_rels: Vec<u64>,
}

/// An active replay: effects are emitted at their recorded relative
/// cycles, then the end-state is installed and the boundary interprets
/// normally.
pub(crate) struct Replay {
    /// The timing skeleton being replayed.
    pub skel: Arc<Skeleton>,
    /// Fire cycle (segment entry).
    pub base: u64,
    /// Fresh effects from pre-execution, emitted in order.
    pub effects: Vec<Effect>,
    /// Fresh final registers from pre-execution.
    pub regs: [i64; NUM_REGS],
    /// Next effect index to emit.
    pub next_effect: usize,
    /// Local-store writes to apply at segment end.
    pub overlay: Vec<(u32, u32)>,
    /// Overlap attribution to re-add at segment end (0 on a DMA-idle
    /// fire, the skeleton's `overlap_cycles` on a quiet-window fire).
    pub overlap_add: u64,
}

/// Memo counters folded into the host [`EngineReport`]
/// (host-side observability: engines may legitimately differ).
///
/// [`EngineReport`]: crate::stats::EngineReport
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoCounters {
    /// Segments replayed from a cached skeleton.
    pub hits: u64,
    /// Segments recorded (first sighting of a key).
    pub misses: u64,
    /// Simulated cycles covered by replays.
    pub replayed_cycles: u64,
    /// Attempts abandoned: contention window unsatisfiable, pre-execution
    /// bailed, cache full, or a recording invalidated mid-span.
    pub aborts: u64,
}

/// Per-PE memoization state.
pub(crate) struct MemoState {
    /// Master switch (config on, no SP offload, fault plan benign).
    pub active: bool,
    cache: HashMap<u128, Arc<Skeleton>, IdBuild>,
    /// A segment entry was observed; attempt memoization at the next
    /// issue opportunity.
    pub armed: bool,
    /// In-progress recording, if any.
    pub recording: Option<Recording>,
    /// Active replay, if any.
    pub replay: Option<Replay>,
    /// Counters.
    pub counters: MemoCounters,
}

impl MemoState {
    pub fn new(active: bool) -> Self {
        MemoState {
            active,
            cache: HashMap::default(),
            armed: false,
            recording: None,
            replay: None,
            counters: MemoCounters::default(),
        }
    }

    /// Marks a segment entry point. Cheap no-op when inactive.
    #[inline]
    pub fn arm(&mut self) {
        if self.active {
            self.armed = true;
        }
    }

    pub fn lookup(&self, key: u128) -> Option<Arc<Skeleton>> {
        self.cache.get(&key).cloned()
    }

    pub fn can_insert(&self) -> bool {
        self.cache.len() < MAX_ENTRIES
    }

    pub fn insert(&mut self, key: u128, skel: Skeleton) {
        self.cache.insert(key, Arc::new(skel));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_isa::{AluOp, BlockMap, FramePtr, Src};

    #[test]
    fn fnv128_is_deterministic_and_sensitive() {
        let mut a = Fnv128::new();
        let mut b = Fnv128::new();
        for h in [&mut a, &mut b] {
            h.u32(7);
            h.u64(42);
            h.u8(0xFF);
        }
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv128::new();
        c.u32(7);
        c.u64(43);
        c.u8(0xFF);
        assert_ne!(a.finish(), c.finish());
        // Empty input must still be a fixed non-zero basis.
        assert_eq!(Fnv128::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn boundary_classification() {
        use dta_isa::Reg;
        let r = Reg::new(3);
        assert!(is_boundary(&Instr::Stop));
        assert!(is_boundary(&Instr::Read {
            rd: r,
            ra: r,
            off: 0
        }));
        assert!(is_boundary(&Instr::DmaWait { tag: 0 }));
        assert!(!is_boundary(&Instr::Nop));
        assert!(!is_boundary(&Instr::Store {
            rs: r,
            rframe: r,
            slot: 0
        }));
        assert!(!is_boundary(&Instr::DmaYield));
        assert!(may_bound_segment(&Instr::DmaYield));
        assert!(!may_bound_segment(&Instr::LsLoad {
            rd: r,
            ra: r,
            off: 0
        }));
    }

    #[test]
    fn overlay_reads_see_last_write() {
        let ls = LocalStore::new(64);
        let overlay = vec![(8, 0x11223344), (8, 0xAABBCCDD), (10, 0x55667788)];
        // Byte 8/9 come from the second write, 10..14 from the third.
        assert_eq!(overlay_u8(&ls, &overlay, 8), 0xDD);
        assert_eq!(overlay_u8(&ls, &overlay, 9), 0xCC);
        assert_eq!(overlay_u8(&ls, &overlay, 10), 0x88);
        assert_eq!(overlay_u8(&ls, &overlay, 13), 0x55);
        // Untouched bytes fall through to the store (zeroed).
        assert_eq!(overlay_u8(&ls, &overlay, 0), 0);
        assert_eq!(overlay_i32(&ls, &overlay, 10), 0x55667788u32 as i32 as i64);
    }

    fn pure_thread(code: Vec<Instr>) -> ThreadCode {
        let len = code.len() as u32;
        ThreadCode {
            name: "t".into(),
            code,
            blocks: BlockMap {
                pf_end: 0,
                pl_end: 0,
                ex_end: len,
            },
            frame_slots: 0,
            prefetch_bytes: 0,
            fallback: None,
        }
    }

    fn instance_at(pc: u32) -> Instance {
        let mut inst = Instance::new(
            InstanceId(1),
            dta_isa::ThreadId(0),
            FramePtr { pe: 0, index: 0 },
            0,
            0,
            u32::MAX,
        );
        inst.pc = pc;
        inst
    }

    #[test]
    fn fn_exec_runs_to_boundary_and_keys_the_path() {
        use dta_isa::Reg;
        let r3 = Reg::new(3);
        let r4 = Reg::new(4);
        let thread = pure_thread(vec![
            Instr::Li { rd: r3, imm: 5 },
            Instr::Alu {
                op: AluOp::Add,
                rd: r4,
                ra: r3,
                rb: Src::Imm(2),
            },
            Instr::Stop,
        ]);
        let inst = instance_at(0);
        let ls = LocalStore::new(64);
        let ready = [0u64; NUM_REGS];
        let stall = [StallCat::Working; NUM_REGS];
        let fx =
            fn_exec(&thread, &inst, &ls, &ready, &stall, &[0, 0], false, 100).expect("pure prefix");
        assert_eq!(fx.stop_pc, 2);
        assert_eq!(fx.steps, 2);
        assert_eq!(fx.regs[3], 5);
        assert_eq!(fx.regs[4], 7);
        assert!(fx.effects.is_empty());
        // The key is invariant to the absolute entry cycle (everything is
        // hashed relative to `now`).
        let fx2 =
            fn_exec(&thread, &inst, &ls, &ready, &stall, &[0, 0], false, 0).expect("pure prefix");
        assert_ne!(fx.key, 0);
        let ready_hi = [u64::MAX; NUM_REGS]; // all pending: different key
        assert_eq!(fx.key, fx2.key);
        let fx3 = fn_exec(&thread, &inst, &ls, &ready_hi, &stall, &[0, 0], false, 100);
        assert_ne!(fx.key, fx3.expect("still pure").key);
    }

    #[test]
    fn fn_exec_bails_on_step_budget_and_pc_escape() {
        use dta_isa::Reg;
        let r3 = Reg::new(3);
        // Infinite pure loop: must hit the step cap, not hang.
        let looping = pure_thread(vec![Instr::Li { rd: r3, imm: 1 }, Instr::Jmp { target: 0 }]);
        let inst = instance_at(0);
        let ls = LocalStore::new(64);
        let ready = [0u64; NUM_REGS];
        let stall = [StallCat::Working; NUM_REGS];
        let run = |t: &ThreadCode| fn_exec(t, &inst, &ls, &ready, &stall, &[0], false, 0);
        assert!(run(&looping).is_none());
        // A span of exactly MAX_STEPS pure instructions is the longest
        // that pre-executes.
        let span = |n: u32| {
            let mut code = vec![Instr::Nop; n as usize];
            code.push(Instr::Stop);
            pure_thread(code)
        };
        assert_eq!(run(&span(MAX_STEPS)).expect("at the cap").steps, MAX_STEPS);
        assert!(run(&span(MAX_STEPS + 1)).is_none());
        // Code that runs off the end (no boundary) bails too.
        assert!(run(&pure_thread(vec![Instr::Nop])).is_none());
    }

    #[test]
    fn fn_exec_ls_overlay_round_trips() {
        use dta_isa::Reg;
        let r3 = Reg::new(3);
        let r4 = Reg::new(4);
        let thread = pure_thread(vec![
            Instr::Li {
                rd: r3,
                imm: 0x1234,
            },
            Instr::LsStore {
                rs: r3,
                ra: Reg::new(0),
                off: 16,
            },
            Instr::LsLoad {
                rd: r4,
                ra: Reg::new(0),
                off: 16,
            },
            Instr::Stop,
        ]);
        let inst = instance_at(0);
        let ls = LocalStore::new(64);
        let ready = [0u64; NUM_REGS];
        let stall = [StallCat::Working; NUM_REGS];
        let fx = fn_exec(&thread, &inst, &ls, &ready, &stall, &[0], false, 0).expect("pure prefix");
        assert_eq!(fx.overlay, vec![(16, 0x1234)]);
        assert_eq!(fx.regs[4], 0x1234);
        // Out-of-range LS access bails instead of panicking.
        let oob = pure_thread(vec![
            Instr::LsLoad {
                rd: r4,
                ra: Reg::new(0),
                off: 61,
            },
            Instr::Stop,
        ]);
        assert!(fn_exec(&oob, &inst, &ls, &ready, &stall, &[0], false, 0).is_none());
    }

    #[test]
    fn memo_state_cache_bounds() {
        let mut m = MemoState::new(true);
        for key in 0..MAX_ENTRIES as u128 {
            assert!(m.can_insert());
            m.insert(
                key,
                Skeleton {
                    len: 1,
                    stop_pc: 0,
                    post_rels: vec![],
                    stats_delta: PeStats::default(),
                    overlap_cycles: 0,
                    end_reg_rel: [0; NUM_REGS],
                    end_reg_stall: [StallCat::Working; NUM_REGS],
                    ls_rel: vec![0],
                    ls_busy_delta: 0,
                },
            );
        }
        assert!(!m.can_insert());
        assert!(m.lookup(1).is_some());
        assert!(m.lookup(MAX_ENTRIES as u128).is_none());
        m.arm();
        assert!(m.armed);
        let mut off = MemoState::new(false);
        off.arm();
        assert!(!off.armed);
    }
}
