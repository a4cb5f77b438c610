//! The Memory Flow Controller (MFC) — the per-PE DMA engine.
//!
//! Mirrors the Cell SPE's MFC as configured in the paper's Table 4: a
//! 16-entry command queue and a 30-cycle command (processing) latency.
//! Commands carry the Table 3 operands: local-store address, main-memory
//! address, size, and a tag ID "used to read the status of the initiated
//! transfer".
//!
//! Command processing is serial (one command in the engine at a time), but
//! the transfers themselves overlap on the interconnect — the engine hands
//! each transfer to the shared [`MemorySystem`](crate::MemorySystem) and
//! immediately starts on the next command.

use crate::bus::{MemorySystem, TransferKind};
use crate::fault::{DmaFaultPlan, DmaPlan};
use crate::store::{LocalStore, MainMemory};
use std::collections::VecDeque;

/// MFC configuration (Table 4 defaults).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MfcParams {
    /// Command queue size (max outstanding commands).
    pub queue_capacity: usize,
    /// Cycles the engine spends processing each command.
    pub command_latency: u64,
}

impl Default for MfcParams {
    fn default() -> Self {
        MfcParams {
            queue_capacity: 16,
            command_latency: 30,
        }
    }
}

/// What a DMA command moves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DmaKind {
    /// Contiguous main memory → local store.
    Get {
        /// Transfer size in bytes.
        bytes: u32,
    },
    /// Strided gather: `count` elements of `elem_bytes`, `stride` bytes
    /// apart in main memory, packed contiguously in the local store.
    GetStrided {
        /// Element size in bytes.
        elem_bytes: u32,
        /// Number of elements.
        count: u32,
        /// Main-memory stride between element starts, in bytes.
        stride: i64,
    },
    /// Contiguous local store → main memory.
    Put {
        /// Transfer size in bytes.
        bytes: u32,
    },
}

impl DmaKind {
    /// Total payload bytes.
    pub fn total_bytes(self) -> u64 {
        match self {
            DmaKind::Get { bytes } | DmaKind::Put { bytes } => bytes as u64,
            DmaKind::GetStrided {
                elem_bytes, count, ..
            } => elem_bytes as u64 * count as u64,
        }
    }
}

/// One DMA command (Table 3 operands).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DmaCommand {
    /// Opaque token identifying the issuing thread instance; returned in
    /// the [`DmaCompletion`] so the scheduler can re-ready the right
    /// thread.
    pub owner: u64,
    /// Tag ID.
    pub tag: u8,
    /// Local-store byte address.
    pub ls_addr: u32,
    /// Main-memory byte address.
    pub mem_addr: u64,
    /// Direction and shape.
    pub kind: DmaKind,
}

/// A completed (or scheduled-to-complete) transfer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DmaCompletion {
    /// The issuing instance's token.
    pub owner: u64,
    /// Tag ID of the command.
    pub tag: u8,
    /// Cycle at which the transfer is architecturally complete
    /// (`u64::MAX` when the command stalled and never completes).
    pub at: u64,
    /// Engine attempts the command consumed (1 = clean first try; a
    /// retried command still yields exactly *one* completion).
    pub attempts: u32,
    /// The command is permanently stuck: the caller must not schedule a
    /// completion delivery (the watchdog will surface the stall).
    pub stalled: bool,
}

/// Counters exposed for benchmarking and tests.
///
/// Invariant (guarded by `crates/mem/tests/prop.rs`): a retried command
/// contributes exactly one `commands` increment, one completion, and
/// `attempts >= commands` attempt increments — retries never double-count
/// commands, bytes, or completions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MfcStats {
    /// Commands accepted into the queue (one per command, regardless of
    /// how many attempts it took).
    pub commands: u64,
    /// Engine attempts, including retries (`>= commands`).
    pub attempts: u64,
    /// Retries (`attempts - commands`, accumulated per command).
    pub retries: u64,
    /// Commands whose retry budget ran out (delivered via the fail-safe
    /// slow path; the owning PE degrades).
    pub exhausted: u64,
    /// Commands permanently stuck (never complete).
    pub stalled: u64,
    /// Total backoff cycles spent between retries.
    pub backoff_cycles: u64,
    /// Enqueue attempts rejected because the queue was full.
    pub queue_full_rejections: u64,
    /// Total payload bytes transferred.
    pub bytes: u64,
}

/// The per-PE DMA engine.
#[derive(Clone, Debug)]
pub struct Mfc {
    params: MfcParams,
    engine_free_at: u64,
    /// Completion times of commands still outstanding (bounded by
    /// `queue_capacity`, so a linear scan is fine and allocation-free in
    /// steady state). Stalled commands sit here forever (`u64::MAX`),
    /// wedging their queue slot — exactly like a stuck hardware tag.
    outstanding: VecDeque<u64>,
    /// Fault outcomes planned (in admit order) for commands admitted via
    /// [`Mfc::admit`] whose [`Mfc::commit`] has not happened yet
    /// (epoch-batched sharded execution admits shard-locally and commits
    /// at the epoch barrier; per-PE admit order equals commit order).
    planned: VecDeque<DmaPlan>,
    /// Monotone count of admitted commands — the deterministic fault key.
    admitted: u64,
    /// Fault schedule (`None` = fault-free).
    faults: Option<DmaFaultPlan>,
    stats: MfcStats,
}

impl Mfc {
    /// Creates an MFC.
    pub fn new(params: MfcParams) -> Self {
        Mfc {
            params,
            engine_free_at: 0,
            outstanding: VecDeque::with_capacity(params.queue_capacity),
            planned: VecDeque::new(),
            admitted: 0,
            faults: None,
            stats: MfcStats::default(),
        }
    }

    /// Arms the deterministic fault schedule for this engine.
    pub fn set_faults(&mut self, plan: DmaFaultPlan) {
        self.faults = Some(plan);
    }

    /// Configuration.
    #[inline]
    pub fn params(&self) -> MfcParams {
        self.params
    }

    /// Number of commands outstanding at cycle `now`.
    pub fn outstanding(&mut self, now: u64) -> usize {
        self.outstanding.retain(|&t| t > now);
        self.outstanding.len()
    }

    /// Read-only in-flight count at cycle `now` (observability gauge).
    ///
    /// Counts admitted-but-uncommitted commands too: under sharded
    /// execution a command sits in `planned` until the epoch barrier,
    /// while the sequential engine commits it immediately — but its
    /// completion can never be at or before the same epoch's horizon, so
    /// both engines report the same total at any sample boundary.
    pub fn in_flight(&self, now: u64) -> usize {
        self.outstanding.iter().filter(|&&t| t > now).count() + self.planned.len()
    }

    /// The end of the quiet window that opens at `now`: the first cycle
    /// after `now` at which a DMA completion can land — `now + 1` while a
    /// command is admitted but uncommitted, `u64::MAX` when nothing is in
    /// flight. No completion lands in `(now, h]` exactly when `h <
    /// quiet_horizon(now)`; over such a window the in-flight count is
    /// constant, so cycles charged inside it share one DMA-overlap
    /// attribution.
    pub fn quiet_horizon(&self, now: u64) -> u64 {
        if !self.planned.is_empty() {
            return now + 1;
        }
        self.outstanding
            .iter()
            .copied()
            .filter(|&t| t > now)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Counters.
    #[inline]
    pub fn stats(&self) -> MfcStats {
        self.stats
    }

    /// Attempts to enqueue `cmd` at cycle `now`.
    ///
    /// On success the data is moved functionally right away, the timing is
    /// computed against the shared memory system, and the scheduled
    /// completion is returned; the caller delivers it at `completion.at`.
    /// Returns `None` when the command queue is full (the pipeline must
    /// retry — this back-pressure is part of the prefetch overhead the
    /// paper measures).
    pub fn enqueue(
        &mut self,
        now: u64,
        cmd: DmaCommand,
        sys: &mut MemorySystem,
        ls: &mut LocalStore,
        mem: &mut MainMemory,
    ) -> Option<DmaCompletion> {
        self.admit(now)?;
        Some(self.commit(now, cmd, sys, ls, mem))
    }

    /// Capacity check half of [`Mfc::enqueue`]: reserves a queue slot at
    /// cycle `now` without touching the shared memory system, so sharded
    /// execution can decide admission inside a shard and run the data
    /// movement ([`Mfc::commit`]) at the epoch barrier.
    ///
    /// Sound as a split because a command admitted at `now` cannot retire
    /// before `now + command_latency`, which is at or beyond the epoch
    /// horizon — so pending commits always still occupy their slot at any
    /// admission decision inside the same epoch.
    ///
    /// Returns `None` when the queue is full; otherwise the fault outcome
    /// planned for this command. The plan is resolved *here* — at the
    /// issue cycle, inside the shard — so retry exhaustion (and the PE
    /// degradation it triggers) happens at the same logical point in both
    /// engines.
    pub fn admit(&mut self, now: u64) -> Option<DmaPlan> {
        if self.outstanding(now) + self.planned.len() >= self.params.queue_capacity {
            self.stats.queue_full_rejections += 1;
            return None;
        }
        let plan = match self.faults {
            Some(f) => f.plan(self.admitted),
            None => DmaPlan::CLEAN,
        };
        self.admitted += 1;
        self.planned.push_back(plan);
        Some(plan)
    }

    /// Data-movement + timing half of [`Mfc::enqueue`]; must follow a
    /// successful [`Mfc::admit`] at the same logical cycle `now`.
    /// Commands must be committed in their admit order (both engines
    /// preserve per-PE program order, so this holds by construction).
    pub fn commit(
        &mut self,
        now: u64,
        cmd: DmaCommand,
        sys: &mut MemorySystem,
        ls: &mut LocalStore,
        mem: &mut MainMemory,
    ) -> DmaCompletion {
        let plan = self.planned.pop_front().unwrap_or(DmaPlan::CLEAN);

        self.stats.commands += 1;
        self.stats.attempts += plan.attempts as u64;
        self.stats.retries += (plan.attempts - 1) as u64;
        self.stats.backoff_cycles += plan.penalty;
        if plan.exhausted {
            self.stats.exhausted += 1;
        }

        if plan.stalled {
            // The command wedges its queue slot forever; no data moves and
            // no completion is ever delivered.
            self.stats.stalled += 1;
            self.outstanding.push_back(u64::MAX);
            return DmaCompletion {
                owner: cmd.owner,
                tag: cmd.tag,
                at: u64::MAX,
                attempts: plan.attempts,
                stalled: true,
            };
        }

        // Functional data movement.
        match cmd.kind {
            DmaKind::Get { bytes } => {
                let mut buf = vec![0u8; bytes as usize];
                mem.read_bytes(cmd.mem_addr, &mut buf);
                ls.write_bytes(cmd.ls_addr, &buf);
            }
            DmaKind::GetStrided {
                elem_bytes,
                count,
                stride,
            } => {
                let mut buf = vec![0u8; elem_bytes as usize];
                for i in 0..count as i64 {
                    let src = (cmd.mem_addr as i64 + i * stride) as u64;
                    mem.read_bytes(src, &mut buf);
                    ls.write_bytes(cmd.ls_addr + i as u32 * elem_bytes, &buf);
                }
            }
            DmaKind::Put { bytes } => {
                let mut buf = vec![0u8; bytes as usize];
                ls.read_bytes(cmd.ls_addr, &mut buf);
                mem.write_bytes(cmd.mem_addr, &buf);
            }
        }

        // Timing: serial command processing, overlapped transfers. Failed
        // attempts and their exponential backoff occupy the engine before
        // the command finally issues, so retries back-pressure the queue
        // exactly like slow commands.
        let engine_start = self.engine_free_at.max(now);
        let issue = engine_start + plan.penalty + self.params.command_latency;
        self.engine_free_at = issue;

        let total = cmd.kind.total_bytes();
        let at = if total == 0 {
            issue
        } else {
            match cmd.kind {
                DmaKind::Get { bytes } => sys.request(
                    issue,
                    TransferKind::BlockGet {
                        bytes: bytes as u64,
                    },
                ),
                DmaKind::GetStrided {
                    elem_bytes, count, ..
                } => sys.request(
                    issue,
                    TransferKind::StridedGet {
                        count: count as u64,
                        elem_bytes: elem_bytes as u64,
                    },
                ),
                DmaKind::Put { bytes } => sys.request(
                    issue,
                    TransferKind::BlockPut {
                        bytes: bytes as u64,
                    },
                ),
            }
        };

        self.outstanding.push_back(at);
        self.stats.bytes += total;
        DmaCompletion {
            owner: cmd.owner,
            tag: cmd.tag,
            at,
            attempts: plan.attempts,
            stalled: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rig() -> (Mfc, MemorySystem, LocalStore, MainMemory) {
        (
            Mfc::new(MfcParams::default()),
            MemorySystem::paper_default(),
            LocalStore::new(64 * 1024),
            MainMemory::new(1 << 24),
        )
    }

    #[test]
    fn get_moves_data_and_schedules_completion() {
        let (mut mfc, mut sys, mut ls, mut mem) = rig();
        mem.write_u32(0x1000, 0xABCD);
        mem.write_u32(0x1004, 0x1234);
        let c = mfc
            .enqueue(
                0,
                DmaCommand {
                    owner: 7,
                    tag: 3,
                    ls_addr: 256,
                    mem_addr: 0x1000,
                    kind: DmaKind::Get { bytes: 8 },
                },
                &mut sys,
                &mut ls,
                &mut mem,
            )
            .unwrap();
        assert_eq!(ls.read_u32(256), 0xABCD);
        assert_eq!(ls.read_u32(260), 0x1234);
        assert_eq!(c.owner, 7);
        assert_eq!(c.tag, 3);
        // command latency 30 + memory round trip.
        assert!(c.at > 30 + 150, "completion at {}", c.at);
    }

    #[test]
    fn strided_get_packs_elements() {
        let (mut mfc, mut sys, mut ls, mut mem) = rig();
        // A "column": elements 128 bytes apart.
        for i in 0..4u64 {
            mem.write_u32(0x2000 + i * 128, (100 + i) as u32);
        }
        mfc.enqueue(
            0,
            DmaCommand {
                owner: 1,
                tag: 0,
                ls_addr: 0,
                mem_addr: 0x2000,
                kind: DmaKind::GetStrided {
                    elem_bytes: 4,
                    count: 4,
                    stride: 128,
                },
            },
            &mut sys,
            &mut ls,
            &mut mem,
        )
        .unwrap();
        for i in 0..4u32 {
            assert_eq!(ls.read_u32(i * 4), 100 + i);
        }
    }

    #[test]
    fn put_writes_back_to_memory() {
        let (mut mfc, mut sys, mut ls, mut mem) = rig();
        ls.write_u32(16, 0xFEED);
        mfc.enqueue(
            0,
            DmaCommand {
                owner: 1,
                tag: 1,
                ls_addr: 16,
                mem_addr: 0x3000,
                kind: DmaKind::Put { bytes: 4 },
            },
            &mut sys,
            &mut ls,
            &mut mem,
        )
        .unwrap();
        assert_eq!(mem.read_u32(0x3000), 0xFEED);
    }

    #[test]
    fn queue_capacity_enforced() {
        let (mut mfc, mut sys, mut ls, mut mem) = rig();
        let cmd = |tag| DmaCommand {
            owner: 0,
            tag,
            ls_addr: 0,
            mem_addr: 0,
            kind: DmaKind::Get { bytes: 4096 },
        };
        for i in 0..16 {
            assert!(
                mfc.enqueue(0, cmd(i), &mut sys, &mut ls, &mut mem)
                    .is_some(),
                "command {i} should fit"
            );
        }
        // 17th at cycle 0 is rejected.
        assert!(mfc
            .enqueue(0, cmd(16), &mut sys, &mut ls, &mut mem)
            .is_none());
        assert_eq!(mfc.stats().queue_full_rejections, 1);
        // ...but after everything drains there is room again.
        assert!(mfc
            .enqueue(1_000_000, cmd(16), &mut sys, &mut ls, &mut mem)
            .is_some());
    }

    #[test]
    fn command_processing_is_serial() {
        let (mut mfc, mut sys, mut ls, mut mem) = rig();
        let cmd = |tag| DmaCommand {
            owner: 0,
            tag,
            ls_addr: 0,
            mem_addr: 0,
            kind: DmaKind::Get { bytes: 4 },
        };
        let a = mfc.enqueue(0, cmd(0), &mut sys, &mut ls, &mut mem).unwrap();
        let b = mfc.enqueue(0, cmd(1), &mut sys, &mut ls, &mut mem).unwrap();
        // The second command could not start processing before cycle 30.
        assert!(b.at >= a.at.min(30 + 30), "b at {}", b.at);
        assert!(b.at > a.at);
    }

    #[test]
    fn transfers_overlap_despite_serial_commands() {
        // Two large gets: the second's *transfer* should overlap the
        // first's, so total time is far less than 2x one transfer.
        let (mut mfc, mut sys, mut ls, mut mem) = rig();
        let big = |tag| DmaCommand {
            owner: 0,
            tag,
            ls_addr: 0,
            mem_addr: 0,
            kind: DmaKind::Get { bytes: 16384 },
        };
        let a = mfc.enqueue(0, big(0), &mut sys, &mut ls, &mut mem).unwrap();
        let b = mfc.enqueue(0, big(1), &mut sys, &mut ls, &mut mem).unwrap();
        // Serial would be >= 2x; overlap on bus (4 lanes) keeps it well
        // under. The memory port is the shared bottleneck.
        let one = a.at;
        assert!(b.at < 2 * one, "no overlap: a={} b={}", a.at, b.at);
    }

    #[test]
    fn zero_byte_transfer_completes_at_issue() {
        let (mut mfc, mut sys, mut ls, mut mem) = rig();
        let c = mfc
            .enqueue(
                5,
                DmaCommand {
                    owner: 0,
                    tag: 0,
                    ls_addr: 0,
                    mem_addr: 0,
                    kind: DmaKind::Get { bytes: 0 },
                },
                &mut sys,
                &mut ls,
                &mut mem,
            )
            .unwrap();
        assert_eq!(c.at, 5 + 30);
    }

    #[test]
    fn stats_accumulate() {
        let (mut mfc, mut sys, mut ls, mut mem) = rig();
        mfc.enqueue(
            0,
            DmaCommand {
                owner: 0,
                tag: 0,
                ls_addr: 0,
                mem_addr: 0,
                kind: DmaKind::Get { bytes: 128 },
            },
            &mut sys,
            &mut ls,
            &mut mem,
        );
        mfc.enqueue(
            0,
            DmaCommand {
                owner: 0,
                tag: 1,
                ls_addr: 0,
                mem_addr: 0x100,
                kind: DmaKind::GetStrided {
                    elem_bytes: 4,
                    count: 8,
                    stride: 64,
                },
            },
            &mut sys,
            &mut ls,
            &mut mem,
        );
        let s = mfc.stats();
        assert_eq!(s.commands, 2);
        assert_eq!(s.bytes, 128 + 32);
    }

    #[test]
    fn quiet_horizon_is_the_next_completion() {
        let (mut mfc, mut sys, mut ls, mut mem) = rig();
        assert_eq!(mfc.quiet_horizon(0), u64::MAX);
        let get = |tag, mem_addr| DmaCommand {
            owner: 0,
            tag,
            ls_addr: 0,
            mem_addr,
            kind: DmaKind::Get { bytes: 64 },
        };
        let a = mfc
            .enqueue(0, get(0, 0), &mut sys, &mut ls, &mut mem)
            .unwrap();
        let b = mfc
            .enqueue(40, get(1, 0x400), &mut sys, &mut ls, &mut mem)
            .unwrap();
        assert!(a.at < b.at);
        for (now, want) in [
            (0, a.at),
            (40, a.at),
            (a.at - 1, a.at),
            (a.at, b.at),
            (b.at - 1, b.at),
            (b.at, u64::MAX),
        ] {
            assert_eq!(mfc.quiet_horizon(now), want, "now {now}");
        }
        // An admitted, uncommitted command closes the window at once.
        mfc.admit(b.at).unwrap();
        assert_eq!(mfc.quiet_horizon(b.at), b.at + 1);
    }
}
