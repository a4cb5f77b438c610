//! System configuration.
//!
//! Defaults reproduce the paper's simulated platform exactly:
//!
//! * Table 2 (memory subsystem): main memory 512 MB / 150-cycle latency /
//!   1 port; local store 156 kB / 6-cycle latency / 3 ports.
//! * Table 4 (communication subsystem): 4 buses × 8 bytes/cycle; MFC
//!   command queue 16, command latency 30.
//! * Topology: one node with eight SPE-like PEs and one DSE (the CellDTA
//!   arrangement; `nodes` > 1 exercises DTA's inter-node forwarding).

use dta_json::{u64_json, Json};
use dta_mem::{BusModel, DmaFaultPlan, MemoryModel, MemorySystem, MfcParams};
use dta_sched::{DseParams, LseParams};

/// How the simulator itself executes on the host: always one loop on
/// the calling thread. Kept, with its one variant, only because the
/// benchmark harness still assigns it; it leaves with the next change to
/// the benchmark. Multi-core use lives at the job level (the `dta-serve`
/// pool, `repro --sweep-threads`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parallelism {
    /// The one run loop.
    Off,
}

/// Seeded, deterministic fault-injection plan.
///
/// Every fault decision is a pure function of `(seed, site, stable key)`
/// — per-MFC command index, message stamp, per-DSE request counter — so
/// a plan's schedule is reproducible from its seed. Rates are in
/// parts-per-million (integer-only config). `FaultPlan::default()` is
/// benign: all rates zero, recovery budgets and the watchdog armed.
///
/// Every plan runs on the span executor (DESIGN.md §12). Two fault
/// kinds can reach the cycles a span runs ahead, and its window stops at
/// both: a PE's planned LSE crash, and a `DmaDone` that a message fault
/// delayed past its MFC completion. Every other fault changes nothing a
/// span reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every roll.
    pub seed: u64,

    /// Per-attempt transient MFC command failure rate (ppm). Recovered
    /// by bounded retry with exponential backoff.
    pub dma_fail_ppm: u32,
    /// Per-command permanent MFC stall rate (ppm). Unrecoverable: the
    /// watchdog converts the resulting quiescence into a typed error.
    pub dma_stall_ppm: u32,
    /// Retries after the first attempt before the MFC gives up,
    /// completes via the fail-safe slow path, and degrades its PE
    /// (subsequent threads there skip the PF block).
    pub dma_retry_budget: u32,
    /// First-retry backoff in cycles; doubles per retry.
    pub dma_backoff_base: u64,

    /// Scheduler-message drop rate (ppm). Recovered by an idempotent
    /// re-send with a fresh sequence stamp after `msg_resend_timeout`.
    pub msg_drop_ppm: u32,
    /// Scheduler-message duplication rate (ppm). The duplicate carries a
    /// marked stamp and is discarded at delivery.
    pub msg_dup_ppm: u32,
    /// Scheduler-message delay rate (ppm); delayed messages arrive
    /// `msg_delay_jitter` cycles late.
    pub msg_delay_ppm: u32,
    /// Re-send latency for dropped messages, cycles.
    pub msg_resend_timeout: u64,
    /// Added latency for delayed messages, cycles.
    pub msg_delay_jitter: u64,

    /// FALLOC arbitration denial rate (ppm): the DSE behaves as if frame
    /// memory were exhausted and queues the request. Recovered by a
    /// re-arbitration timer after `falloc_retry_timeout`.
    pub falloc_deny_ppm: u32,
    /// Re-arbitration timer for denied FALLOCs, cycles.
    pub falloc_retry_timeout: u64,

    /// Per-node DSE crash rate (ppm): each node rolls once at plan build;
    /// a node that fires has its DSE fall silent at a planned cycle
    /// within `dse_crash_window`. Recovered by deterministic failover to
    /// the lowest-id live peer (re-homed queue, fostered mirrors, LSE
    /// re-registration).
    pub dse_crash_ppm: u32,
    /// Window (cycles) within which a planned crash fires; the exact
    /// cycle is a pure hash of `(seed, node)`.
    pub dse_crash_window: u64,
    /// Silence-detection latency in sim cycles: peers treat a DSE as dead
    /// this long after its crash (clamped to at least the message
    /// latency).
    pub dse_failover_detect: u64,
    /// Planned outage length: a crashed DSE restarts (cold) this many
    /// cycles after its crash. Zero = never restarts.
    pub dse_restart_after: u64,

    /// Per-PE LSE crash rate (ppm): each PE rolls once at plan build; a
    /// PE that fires has its scheduler (and pipeline) fall silent at a
    /// planned cycle within `lse_crash_window`. Pre-start frames are
    /// evacuated to a live same-node peer LSE; started instances are
    /// killed and replayed from their frame snapshot when replay is
    /// sound (no external effects yet), or reported as lost work via a
    /// typed error otherwise.
    pub lse_crash_ppm: u32,
    /// Window (cycles) within which a planned LSE crash fires; the exact
    /// cycle is a pure hash of `(seed, pe)`.
    pub lse_crash_window: u64,
    /// LSE silence-detection latency in sim cycles (clamped to at least
    /// the message latency).
    pub lse_detect: u64,
    /// Planned LSE outage length: a crashed LSE restarts (cold) this
    /// many cycles after its crash. Zero = never restarts.
    pub lse_restart_after: u64,

    /// Per-PE watchdog: after this many consecutive retry cycles on one
    /// instruction the instance is parked off the pipeline (re-readied by
    /// a DMA completion, or reported by the quiescence watchdog if none
    /// ever comes).
    pub watchdog_spin_limit: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            dma_fail_ppm: 0,
            dma_stall_ppm: 0,
            dma_retry_budget: 4,
            dma_backoff_base: 64,
            msg_drop_ppm: 0,
            msg_dup_ppm: 0,
            msg_delay_ppm: 0,
            msg_resend_timeout: 200,
            msg_delay_jitter: 23,
            falloc_deny_ppm: 0,
            falloc_retry_timeout: 500,
            dse_crash_ppm: 0,
            dse_crash_window: 50_000,
            dse_failover_detect: 1_000,
            dse_restart_after: 0,
            lse_crash_ppm: 0,
            lse_crash_window: 50_000,
            lse_detect: 1_000,
            lse_restart_after: 0,
            watchdog_spin_limit: 100_000,
        }
    }
}

impl FaultPlan {
    /// A benign plan with a seed (useful as a sweep baseline).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Self::default()
        }
    }

    /// Derives the per-MFC DMA fault schedule for global PE index `pe`.
    pub fn dma_plan_for(&self, pe: u16) -> DmaFaultPlan {
        DmaFaultPlan {
            seed: self.seed,
            salt: pe as u64,
            fail_ppm: self.dma_fail_ppm,
            stall_ppm: self.dma_stall_ppm,
            retry_budget: self.dma_retry_budget,
            backoff_base: self.dma_backoff_base,
        }
    }

    /// Do any message-level fault sites fire at all?
    pub fn has_msg_faults(&self) -> bool {
        self.msg_drop_ppm > 0 || self.msg_dup_ppm > 0 || self.msg_delay_ppm > 0
    }

    /// Can any DSE crash under this plan?
    pub fn has_dse_crash(&self) -> bool {
        self.dse_crash_ppm > 0
    }

    /// Can any LSE crash under this plan?
    pub fn has_lse_crash(&self) -> bool {
        self.lse_crash_ppm > 0
    }

    /// Canonical encoding of every fault knob, in declaration order.
    ///
    /// The seed goes through [`u64_json`]: seeds are frequently derived
    /// by full-width multiplicative hashing and must not be rounded by
    /// the `f64` number representation, or two distinct plans could
    /// canonicalise (and therefore hash) identically.
    pub fn canonical_json(&self) -> Json {
        Json::obj([
            ("seed", u64_json(self.seed)),
            ("dma_fail_ppm", Json::Num(self.dma_fail_ppm as f64)),
            ("dma_stall_ppm", Json::Num(self.dma_stall_ppm as f64)),
            ("dma_retry_budget", Json::Num(self.dma_retry_budget as f64)),
            ("dma_backoff_base", u64_json(self.dma_backoff_base)),
            ("msg_drop_ppm", Json::Num(self.msg_drop_ppm as f64)),
            ("msg_dup_ppm", Json::Num(self.msg_dup_ppm as f64)),
            ("msg_delay_ppm", Json::Num(self.msg_delay_ppm as f64)),
            ("msg_resend_timeout", u64_json(self.msg_resend_timeout)),
            ("msg_delay_jitter", u64_json(self.msg_delay_jitter)),
            ("falloc_deny_ppm", Json::Num(self.falloc_deny_ppm as f64)),
            ("falloc_retry_timeout", u64_json(self.falloc_retry_timeout)),
            ("dse_crash_ppm", Json::Num(self.dse_crash_ppm as f64)),
            ("dse_crash_window", u64_json(self.dse_crash_window)),
            ("dse_failover_detect", u64_json(self.dse_failover_detect)),
            ("dse_restart_after", u64_json(self.dse_restart_after)),
            ("lse_crash_ppm", Json::Num(self.lse_crash_ppm as f64)),
            ("lse_crash_window", u64_json(self.lse_crash_window)),
            ("lse_detect", u64_json(self.lse_detect)),
            ("lse_restart_after", u64_json(self.lse_restart_after)),
            ("watchdog_spin_limit", u64_json(self.watchdog_spin_limit)),
        ])
    }
}

/// What the observability layer records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsMode {
    /// Nothing (zero-cost: the per-unit logs compile down to a flag
    /// check on the event path and no gauge sampling).
    Off,
    /// Structured events only.
    Events,
    /// Cycle-sampled gauges only.
    Metrics,
    /// Events and gauges.
    All,
}

/// Observability configuration (see the `dta-obs` crate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// What to record.
    pub mode: ObsMode,
    /// Gauge sampling stride, cycles (used when `mode` includes
    /// metrics; must be ≥ 1).
    pub metrics_interval: u64,
    /// Per-unit ring capacity for events and for gauge samples (the
    /// newest records are kept; drops are counted).
    pub event_capacity: usize,
    /// Incremental streaming stride, simulated cycles (0 = off). When
    /// set, the engine drains fully-simulated records out of the
    /// per-unit rings roughly every this many cycles, at the bottom of
    /// the run loop, feeding any sink attached with
    /// `System::attach_stream_sink` in
    /// wall order as the run progresses. The final merged stream is
    /// identical to the post-run merge (the `obs_stream` suite pins
    /// this), except that long runs no longer overflow the rings.
    pub stream_interval: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            mode: ObsMode::Off,
            metrics_interval: 1_000,
            event_capacity: 1 << 18,
            stream_interval: 0,
        }
    }
}

impl ObsMode {
    /// Canonical string form.
    pub fn canonical_str(&self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Events => "events",
            ObsMode::Metrics => "metrics",
            ObsMode::All => "all",
        }
    }
}

impl ObsConfig {
    /// Whether structured events are recorded.
    pub fn events_on(&self) -> bool {
        matches!(self.mode, ObsMode::Events | ObsMode::All)
    }

    /// Whether gauge sampling is active.
    pub fn metrics_on(&self) -> bool {
        matches!(self.mode, ObsMode::Metrics | ObsMode::All)
    }

    /// Canonical encoding (part of the versioned job form).
    pub fn canonical_json(&self) -> Json {
        Json::obj([
            ("mode", Json::Str(self.mode.canonical_str().into())),
            ("metrics_interval", u64_json(self.metrics_interval)),
            ("event_capacity", Json::Num(self.event_capacity as f64)),
            ("stream_interval", u64_json(self.stream_interval)),
        ])
    }
}

/// An inert stand-in for the retired instance-memoization switch: it
/// has no fields, nothing reads it, and it is not part of
/// [`SystemConfig::canonical_json`]. Kept only because the benchmark
/// harness still names it (its `paper-memo` workload); it leaves with
/// `paper-memo` in the next change to the benchmark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoConfig;

impl MemoConfig {
    /// The former "memoization on" setting; the same as the default.
    pub fn on() -> Self {
        MemoConfig
    }
}

/// Full system configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of DTA nodes (each with its own DSE).
    pub nodes: u16,
    /// Processing elements per node.
    pub pes_per_node: u16,

    /// Main memory size, bytes (Table 2: 512 MB).
    pub mem_size: u64,
    /// Main memory latency, cycles (Table 2: 150).
    pub mem_latency: u64,
    /// Main memory ports (Table 2: 1).
    pub mem_ports: usize,
    /// Memory-array streaming bandwidth, bytes/cycle.
    pub mem_array_bytes_per_cycle: u64,

    /// Local store size, bytes (Table 2: 156 kB).
    pub ls_size: u32,
    /// Local store latency, cycles (Table 2: 6).
    pub ls_latency: u64,
    /// Local store ports (Table 2: 3).
    pub ls_ports: usize,

    /// Number of buses (Table 4: 4).
    pub buses: usize,
    /// Per-bus bandwidth, bytes/cycle (Table 4: 8).
    pub bus_bytes_per_cycle: u64,
    /// One-way interconnect propagation latency, cycles.
    pub wire_latency: u64,
    /// Extra memory-port cycles per strided DMA element.
    pub stride_penalty_per_elem: u64,
    /// Ablation: strided DMA as per-element split transactions instead of
    /// one DMA transaction (paper §3's rejected alternative).
    pub dma_split_transactions: bool,

    /// MFC (DMA controller) parameters (Table 4).
    pub mfc: MfcParams,

    /// Scheduler-message delivery latency, cycles.
    pub msg_latency: u64,
    /// Physical frames per PE.
    pub frame_capacity: u32,
    /// LSE per-operation processing latency, cycles.
    pub lse_op_latency: u64,
    /// DSE per-operation processing latency, cycles.
    pub dse_op_latency: u64,
    /// Virtual frame pointers (paper §4.3 — off in the paper's runs).
    pub virtual_frames: bool,

    /// Optional per-PE data cache for scalar READ/WRITE (extension: the
    /// paper's simulator had none — "does not yet include the cache
    /// module"). `None` reproduces the paper.
    pub cache: Option<dta_mem::CacheParams>,
    /// Extension: execute straight-line PF blocks on the LSE's SP
    /// pipeline, overlapped with other threads' execution — the paper
    /// notes DTA-C's LSE "has two available pipelines (SP and XP)" and
    /// "can overlap this with the execution of other threads, but in the
    /// CellDTA this is not yet available". `false` reproduces CellDTA.
    pub sp_pf_overlap: bool,

    /// Pipeline penalty for taken branches, cycles (the SPU has no branch
    /// prediction; compilers insert hints — we charge a small fixed cost).
    pub taken_branch_penalty: u64,
    /// Cycles to dispatch a ready thread onto the pipeline.
    pub dispatch_penalty: u64,

    /// Structured observability (event bus + cycle-sampled metrics).
    pub obs: ObsConfig,

    /// Safety valve: abort `run` after this many cycles.
    pub max_cycles: u64,

    /// Host-side execution strategy. Nothing reads it and it is not part
    /// of [`Self::canonical_json`]; it goes in the next change to the
    /// benchmark harness, the last code that assigns it.
    pub parallelism: Parallelism,

    /// Deterministic fault injection (`None` = the fault-free model;
    /// recovery machinery and the watchdog are armed only when set).
    pub faults: Option<FaultPlan>,

    /// Unread and not part of [`Self::canonical_json`] (see
    /// [`MemoConfig`]); it goes with `paper-memo` in the next change to
    /// the benchmark harness.
    pub memo: MemoConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl SystemConfig {
    /// The paper's CellDTA platform (Tables 2-4), with eight PEs.
    pub fn paper_default() -> Self {
        SystemConfig {
            nodes: 1,
            pes_per_node: 8,
            mem_size: 512 << 20,
            mem_latency: 150,
            mem_ports: 1,
            mem_array_bytes_per_cycle: 32,
            ls_size: 156 * 1024,
            ls_latency: 6,
            ls_ports: 3,
            buses: 4,
            bus_bytes_per_cycle: 8,
            wire_latency: 5,
            stride_penalty_per_elem: 1,
            dma_split_transactions: false,
            mfc: MfcParams {
                queue_capacity: 16,
                command_latency: 30,
            },
            msg_latency: 5,
            frame_capacity: 64,
            lse_op_latency: 2,
            dse_op_latency: 4,
            virtual_frames: false,
            cache: None,
            sp_pf_overlap: false,
            taken_branch_penalty: 2,
            dispatch_penalty: 1,
            obs: ObsConfig::default(),
            max_cycles: 2_000_000_000,
            parallelism: Parallelism::Off,
            faults: None,
            memo: MemoConfig,
        }
    }

    /// Same platform with `pes` total PEs in one node (the paper's
    /// scalability sweeps use 1, 2, 4, 8).
    pub fn with_pes(pes: u16) -> Self {
        SystemConfig {
            pes_per_node: pes,
            ..Self::paper_default()
        }
    }

    /// The paper's §4.3 second experiment: "all memory latencies in the
    /// system set to one cycle" (the always-hit bound).
    pub fn latency_one(mut self) -> Self {
        self.mem_latency = 1;
        self.ls_latency = 1;
        self.wire_latency = 1;
        self
    }

    /// Total number of PEs.
    #[inline]
    pub fn total_pes(&self) -> u16 {
        self.nodes * self.pes_per_node
    }

    /// Effective gauge sampling stride (0 = sampling off).
    #[inline]
    pub fn obs_interval(&self) -> u64 {
        if self.obs.metrics_on() {
            self.obs.metrics_interval.max(1)
        } else {
            0
        }
    }

    /// Whether any observability state is collected at all.
    #[inline]
    pub fn obs_active(&self) -> bool {
        self.obs.events_on() || self.obs_interval() > 0
    }

    /// Effective incremental-streaming stride (0 = post-run merge only).
    #[inline]
    pub fn obs_stream_interval(&self) -> u64 {
        if self.obs_active() {
            self.obs.stream_interval
        } else {
            0
        }
    }

    /// Builds the shared memory system from this configuration.
    pub fn memory_system(&self) -> MemorySystem {
        let mut sys = MemorySystem::new(
            BusModel::new(self.buses, self.bus_bytes_per_cycle, self.wire_latency),
            MemoryModel::new(
                self.mem_ports,
                self.mem_latency,
                self.mem_array_bytes_per_cycle,
            ),
            self.stride_penalty_per_elem,
        );
        sys.split_transactions = self.dma_split_transactions;
        sys
    }

    /// Derives the per-PE LSE parameters for a program that needs
    /// `pf_buf_bytes` of prefetch buffer per instance. Returns an error if
    /// the local store cannot hold even one buffer.
    pub fn lse_params(&self, pf_buf_bytes: u32) -> Result<LseParams, String> {
        // Align buffers to 16 bytes (DMA-friendly, matches global layout).
        let buf = pf_buf_bytes.max(16).div_ceil(16) * 16;
        let pool = (self.ls_size / buf).min(self.frame_capacity);
        if pf_buf_bytes > 0 && pool == 0 {
            return Err(format!(
                "prefetch buffer of {pf_buf_bytes} bytes does not fit in a {}-byte local store",
                self.ls_size
            ));
        }
        Ok(LseParams {
            frame_capacity: self.frame_capacity,
            pf_buf_bytes: buf,
            pf_pool_size: pool.max(1),
            pf_region_base: 0,
            op_latency: self.lse_op_latency,
            virtual_frames: self.virtual_frames,
            // Failover successors arbitrate on approximate fostered
            // mirrors (and adoption after an LSE crash consumes frames
            // the arbiter never granted), so bounded over-grants must
            // park instead of tripping the over-commit assert.
            park_on_full: self
                .faults
                .is_some_and(|f| f.has_dse_crash() || f.has_lse_crash()),
        })
    }

    /// DSE parameters.
    pub fn dse_params(&self) -> DseParams {
        DseParams {
            op_latency: self.dse_op_latency,
            virtual_frames: self.virtual_frames,
        }
    }

    /// Canonical, versioned encoding of the complete configuration.
    ///
    /// This is the config half of the job identity: `JobKey` hashes
    /// `program bytes ‖ args ‖ canonical config` (see `crate::job`), so
    /// **every** field that can influence simulated *or host-side*
    /// behaviour must appear here, in declaration order, with a stable
    /// encoding. Adding, removing, or re-encoding a field is a format
    /// change: bump `crate::job::JOB_FORMAT_VERSION` in the same commit
    /// (DESIGN.md §13 records the rules), which invalidates every
    /// previously cached result.
    pub fn canonical_json(&self) -> Json {
        Json::obj([
            ("nodes", Json::Num(self.nodes as f64)),
            ("pes_per_node", Json::Num(self.pes_per_node as f64)),
            ("mem_size", u64_json(self.mem_size)),
            ("mem_latency", u64_json(self.mem_latency)),
            ("mem_ports", Json::Num(self.mem_ports as f64)),
            (
                "mem_array_bytes_per_cycle",
                u64_json(self.mem_array_bytes_per_cycle),
            ),
            ("ls_size", Json::Num(self.ls_size as f64)),
            ("ls_latency", u64_json(self.ls_latency)),
            ("ls_ports", Json::Num(self.ls_ports as f64)),
            ("buses", Json::Num(self.buses as f64)),
            ("bus_bytes_per_cycle", u64_json(self.bus_bytes_per_cycle)),
            ("wire_latency", u64_json(self.wire_latency)),
            (
                "stride_penalty_per_elem",
                u64_json(self.stride_penalty_per_elem),
            ),
            (
                "dma_split_transactions",
                Json::Bool(self.dma_split_transactions),
            ),
            (
                "mfc",
                Json::obj([
                    ("queue_capacity", Json::Num(self.mfc.queue_capacity as f64)),
                    ("command_latency", u64_json(self.mfc.command_latency)),
                ]),
            ),
            ("msg_latency", u64_json(self.msg_latency)),
            ("frame_capacity", Json::Num(self.frame_capacity as f64)),
            ("lse_op_latency", u64_json(self.lse_op_latency)),
            ("dse_op_latency", u64_json(self.dse_op_latency)),
            ("virtual_frames", Json::Bool(self.virtual_frames)),
            (
                "cache",
                match &self.cache {
                    None => Json::Null,
                    Some(c) => Json::obj([
                        ("size_bytes", Json::Num(c.size_bytes as f64)),
                        ("line_bytes", Json::Num(c.line_bytes as f64)),
                        ("hit_latency", u64_json(c.hit_latency)),
                    ]),
                },
            ),
            ("sp_pf_overlap", Json::Bool(self.sp_pf_overlap)),
            ("taken_branch_penalty", u64_json(self.taken_branch_penalty)),
            ("dispatch_penalty", u64_json(self.dispatch_penalty)),
            ("obs", self.obs.canonical_json()),
            ("max_cycles", u64_json(self.max_cycles)),
            (
                "faults",
                match &self.faults {
                    None => Json::Null,
                    Some(f) => f.canonical_json(),
                },
            ),
        ])
    }

    /// Renders the configuration as the paper's Tables 2-4 (used by the
    /// `repro config` experiment).
    pub fn to_tables(&self) -> String {
        format!(
            "Table 2: memory subsystem\n\
             \x20 Main memory   size            {} MB\n\
             \x20 Main memory   latency         {} cycles\n\
             \x20 Main memory   ports           {}\n\
             \x20 Local store   size            {} kB\n\
             \x20 Local store   latency         {} cycles\n\
             \x20 Local store   ports           {}\n\
             Table 4: communication subsystem\n\
             \x20 Bus           count           {}\n\
             \x20 Bus           bandwidth       {} bytes/cycle each\n\
             \x20 MFC           queue size      {}\n\
             \x20 MFC           command latency {} cycles\n",
            self.mem_size >> 20,
            self.mem_latency,
            self.mem_ports,
            self.ls_size / 1024,
            self.ls_latency,
            self.ls_ports,
            self.buses,
            self.bus_bytes_per_cycle,
            self.mfc.queue_capacity,
            self.mfc.command_latency,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_tables() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.mem_size, 512 << 20);
        assert_eq!(c.mem_latency, 150);
        assert_eq!(c.mem_ports, 1);
        assert_eq!(c.ls_size, 156 * 1024);
        assert_eq!(c.ls_latency, 6);
        assert_eq!(c.ls_ports, 3);
        assert_eq!(c.buses, 4);
        assert_eq!(c.bus_bytes_per_cycle, 8);
        assert_eq!(c.mfc.queue_capacity, 16);
        assert_eq!(c.mfc.command_latency, 30);
        assert_eq!(c.total_pes(), 8);
    }

    #[test]
    fn latency_one_transforms_all_latencies() {
        let c = SystemConfig::paper_default().latency_one();
        assert_eq!(c.mem_latency, 1);
        assert_eq!(c.ls_latency, 1);
        assert_eq!(c.wire_latency, 1);
    }

    #[test]
    fn lse_params_size_buffer_pool() {
        let c = SystemConfig::paper_default();
        let p = c.lse_params(8192).unwrap();
        assert_eq!(p.pf_buf_bytes, 8192);
        assert_eq!(p.pf_pool_size, (156 * 1024 / 8192));
        // No prefetching program: tiny buffer, pool capped by frames.
        let p0 = c.lse_params(0).unwrap();
        assert_eq!(p0.pf_pool_size, 64);
    }

    #[test]
    fn lse_params_reject_oversized_buffer() {
        let c = SystemConfig::paper_default();
        assert!(c.lse_params(200 * 1024).is_err());
    }

    #[test]
    fn lse_params_align_buffers() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.lse_params(100).unwrap().pf_buf_bytes, 112);
    }

    #[test]
    fn tables_render_paper_values() {
        let t = SystemConfig::paper_default().to_tables();
        assert!(t.contains("512 MB"));
        assert!(t.contains("150 cycles"));
        assert!(t.contains("156 kB"));
        assert!(t.contains("queue size      16"));
    }

    #[test]
    fn with_pes_sets_count() {
        assert_eq!(SystemConfig::with_pes(4).total_pes(), 4);
    }

    #[test]
    fn canonical_json_is_stable_and_field_sensitive() {
        let a = SystemConfig::paper_default()
            .canonical_json()
            .to_string_compact();
        let b = SystemConfig::paper_default()
            .canonical_json()
            .to_string_compact();
        assert_eq!(a, b, "canonical form must be deterministic");

        let mut other = SystemConfig::paper_default();
        other.dispatch_penalty += 1;
        assert_ne!(a, other.canonical_json().to_string_compact());
    }

    #[test]
    fn canonical_json_keeps_full_width_seeds_exact() {
        // Adjacent full-width seeds would collapse to the same f64; the
        // canonical form must keep them distinct.
        let mut a = SystemConfig::paper_default();
        a.faults = Some(FaultPlan::seeded(u64::MAX));
        let mut b = SystemConfig::paper_default();
        b.faults = Some(FaultPlan::seeded(u64::MAX - 1));
        assert_ne!(
            a.canonical_json().to_string_compact(),
            b.canonical_json().to_string_compact()
        );
    }
}
