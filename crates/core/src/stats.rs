//! Execution statistics.
//!
//! Everything the paper's evaluation section reports is derived from the
//! counters here:
//!
//! * **Figure 5** — the per-SPU execution-time breakdown into Working /
//!   Idle / Memory stalls / LS stalls / LSE stalls / Prefetching
//!   ([`StallCat`], [`Breakdown`]);
//! * **Table 5** — dynamic instruction counts, total and per memory class
//!   ([`PeStats::loads`] etc.);
//! * **Figure 9** — pipeline usage ([`Breakdown::pipeline_usage`]);
//! * **Figures 6-8** — execution time and scalability
//!   ([`RunStats::cycles`]).

use dta_isa::IClass;
use dta_json::{Json, ToJson};
pub use dta_obs::{FineCat, NUM_FINE};
use std::fmt;

/// Cycle-breakdown categories (the paper's Fig. 5 legend).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum StallCat {
    /// "when the SPU works without stalls".
    Working = 0,
    /// "when the SPU has no ready threads to execute".
    Idle = 1,
    /// "when SPU waits for a response from main memory (including the
    /// time that a request to memory spends on the network)".
    MemStall = 2,
    /// "when SPU is waiting for a response from the Local Store".
    LsStall = 3,
    /// "when the SPU waits for a response from the LSE".
    LseStall = 4,
    /// "prefetching overhead ... SPU must spend some time in order to
    /// program the DMA unit".
    Prefetch = 5,
}

impl StallCat {
    /// All categories, in display order.
    pub const ALL: [StallCat; 6] = [
        StallCat::Working,
        StallCat::Idle,
        StallCat::MemStall,
        StallCat::LsStall,
        StallCat::LseStall,
        StallCat::Prefetch,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StallCat::Working => "Working",
            StallCat::Idle => "Idle",
            StallCat::MemStall => "Memory stalls",
            StallCat::LsStall => "LS stalls",
            StallCat::LseStall => "LSE stalls",
            StallCat::Prefetch => "Prefetching",
        }
    }
}

impl fmt::Display for StallCat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

const NUM_CATS: usize = 6;
const NUM_CLASSES: usize = 7;

fn class_index(c: IClass) -> usize {
    match c {
        IClass::Compute => 0,
        IClass::Branch => 1,
        IClass::Frame => 2,
        IClass::Mem => 3,
        IClass::Ls => 4,
        IClass::Dma => 5,
        IClass::Sched => 6,
    }
}

/// Per-PE counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeStats {
    /// Cycle counts per [`StallCat`] (indexed by the enum discriminant).
    pub cycles: [u64; NUM_CATS],
    /// Cycle counts per exclusive [`FineCat`] attribution category.
    /// Charged at the same sites as `cycles`, so both arrays sum to the
    /// same total (the conservation invariant) and stay bit-identical
    /// across engines.
    pub fine: [u64; NUM_FINE],
    /// Cycles charged [`FineCat::Compute`] (or `Degraded`) while this
    /// PE had DMA commands in flight — the attribution-side view of the
    /// paper's non-blocking overlap. A strict subset of the
    /// `MetricsReport::overlap_cycles` busy-span accounting, which also
    /// counts intra-span stall cycles.
    pub attr_overlap_cycles: u64,
    /// Instructions issued.
    pub issued: u64,
    /// Cycles in which two instructions issued.
    pub dual_cycles: u64,
    /// Cycles in which at least one instruction issued.
    pub issue_cycles: u64,
    /// Instructions per [`dta_isa::IClass`].
    pub class_counts: [u64; NUM_CLASSES],
    /// Frame-memory LOADs (Table 5).
    pub loads: u64,
    /// Frame-memory STOREs (Table 5).
    pub stores: u64,
    /// Main-memory READs (Table 5).
    pub reads: u64,
    /// Main-memory WRITEs (Table 5).
    pub writes: u64,
    /// Thread instances dispatched onto this pipeline.
    pub threads_dispatched: u64,
    /// Cycles lost retrying a full MFC queue.
    pub dma_queue_retries: u64,
    /// Cycles the LSE's SP pipeline spent executing PF blocks (only with
    /// the `sp_pf_overlap` extension; these run in parallel with the main
    /// pipeline and are not part of the breakdown buckets).
    pub sp_pf_cycles: u64,
}

impl PeStats {
    /// Adds `n` cycles to a coarse category and its exclusive fine
    /// attribution twin. Taking both at once makes the conservation
    /// invariant structural: no charge site can update one array
    /// without the other.
    #[inline]
    pub fn add_cycles(&mut self, cat: StallCat, fine: FineCat, n: u64) {
        self.cycles[cat as usize] += n;
        self.fine[fine as usize] += n;
    }

    /// Records an issued instruction of class `c`.
    #[inline]
    pub fn record_issue(&mut self, c: IClass) {
        self.issued += 1;
        self.class_counts[class_index(c)] += 1;
    }

    /// Total attributed cycles.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Cycles in a category.
    #[inline]
    pub fn cat(&self, cat: StallCat) -> u64 {
        self.cycles[cat as usize]
    }

    /// Cycles in a fine attribution category.
    #[inline]
    pub fn fine_cat(&self, f: FineCat) -> u64 {
        self.fine[f as usize]
    }

    /// Total fine-attributed cycles; equals [`Self::total_cycles`] by
    /// the conservation invariant.
    pub fn total_fine_cycles(&self) -> u64 {
        self.fine.iter().sum()
    }

    /// Instructions of a class.
    #[inline]
    pub fn class(&self, c: IClass) -> u64 {
        self.class_counts[class_index(c)]
    }

    /// Merges another PE's counters into this one.
    pub fn merge(&mut self, other: &PeStats) {
        for i in 0..NUM_CATS {
            self.cycles[i] += other.cycles[i];
        }
        for i in 0..NUM_FINE {
            self.fine[i] += other.fine[i];
        }
        self.attr_overlap_cycles += other.attr_overlap_cycles;
        for i in 0..NUM_CLASSES {
            self.class_counts[i] += other.class_counts[i];
        }
        self.issued += other.issued;
        self.dual_cycles += other.dual_cycles;
        self.issue_cycles += other.issue_cycles;
        self.loads += other.loads;
        self.stores += other.stores;
        self.reads += other.reads;
        self.writes += other.writes;
        self.threads_dispatched += other.threads_dispatched;
        self.dma_queue_retries += other.dma_queue_retries;
        self.sp_pf_cycles += other.sp_pf_cycles;
    }
}

/// A normalised execution-time breakdown (Fig. 5 bar).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Fraction of time per category, summing to ~1.
    pub fractions: [f64; NUM_CATS],
    /// Fraction of cycles with at least one instruction issued (Fig. 9's
    /// "pipeline usage").
    pub pipeline_usage: f64,
    /// Average instructions per cycle.
    pub ipc: f64,
}

impl Breakdown {
    /// Computes the breakdown of (aggregated) PE counters.
    pub fn from_stats(s: &PeStats) -> Self {
        let total = s.total_cycles();
        let mut fractions = [0.0; NUM_CATS];
        if total > 0 {
            for (f, &c) in fractions.iter_mut().zip(s.cycles.iter()) {
                *f = c as f64 / total as f64;
            }
        }
        Breakdown {
            fractions,
            pipeline_usage: if total > 0 {
                s.issue_cycles as f64 / total as f64
            } else {
                0.0
            },
            ipc: if total > 0 {
                s.issued as f64 / total as f64
            } else {
                0.0
            },
        }
    }

    /// Fraction for one category.
    #[inline]
    pub fn frac(&self, cat: StallCat) -> f64 {
        self.fractions[cat as usize]
    }

    /// Percentage for one category.
    #[inline]
    pub fn pct(&self, cat: StallCat) -> f64 {
        self.frac(cat) * 100.0
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, cat) in StallCat::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, "  ")?;
            }
            write!(f, "{}: {:5.1}%", cat.name(), self.fractions[i] * 100.0)?;
        }
        Ok(())
    }
}

/// Host-engine execution report: how the engine advanced simulated time.
///
/// Deliberately *not* part of [`RunStats`]: these counters describe the
/// host-side schedule, which a host-engine change may move, while
/// `RunStats` is pinned bit-for-bit by the determinism suites. Read it
/// from [`System::engine_report`] after a run.
///
/// [`System::engine_report`]: crate::system::System::engine_report
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Simulated cycles the engine actually visited. A cycle that only
    /// some PE's span covered is not visited.
    pub visited_cycles: u64,
    /// `Pe::tick` calls actually made. One tick may cover a span of
    /// several quiet cycles of its PE (DESIGN.md §12), so this can be far
    /// below the PE's busy cycles.
    pub pe_ticks: u64,
    /// Ticks a tick-every-PE loop would have made at the visited cycles
    /// but the wake-set scheduler skipped (`visited_cycles × PEs −
    /// pe_ticks`). A PE whose span covers a visited cycle counts a
    /// skipped tick there, so `pe_ticks + skipped_ticks == visited_cycles
    /// × PEs` still holds.
    pub skipped_ticks: u64,
    /// Wall-clock µs the run loop took. Host-time: varies run to run by
    /// design.
    pub run_wall_us: u64,
    /// Occupancy of the wake set: scheduled wake entries (the active
    /// list plus the `Blocked` heap, stale lazy-invalidation entries
    /// included), sampled once per visited cycle. Quantifies
    /// the pending-wakeup population the event-driven scheduler carries.
    pub wake_heap_occupancy: dta_obs::Histogram,
    /// Host-side message deliveries to PE-owned units (LSE + pipeline).
    pub pe_deliveries: u64,
    /// Host-side message deliveries to DSE arbiters — the per-unit
    /// "tick" count of the purely event-driven frame arbiters.
    pub dse_deliveries: u64,
    /// Host-side transfer requests resolved by the shared memory system
    /// (bus + memory ports), including DMA, scalar and PF traffic.
    pub mem_requests: u64,
    /// The four `memo_*` counters are always zero and not part of the
    /// JSON encoding: instance memoization is retired. They stay only
    /// because the benchmark harness still reads them, and go with its
    /// `paper-memo` workload in the next change to the benchmark.
    pub memo_hits: u64,
    /// Always zero (see `memo_hits`).
    pub memo_misses: u64,
    /// Always zero (see `memo_hits`).
    pub memo_replayed_cycles: u64,
    /// Always zero (see `memo_hits`).
    pub memo_aborts: u64,
}

impl ToJson for EngineReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("visited_cycles", self.visited_cycles.to_json()),
            ("pe_ticks", self.pe_ticks.to_json()),
            ("skipped_ticks", self.skipped_ticks.to_json()),
            ("run_wall_us", self.run_wall_us.to_json()),
            (
                "wake_heap_occupancy",
                dta_obs::codec::histogram_to_json(&self.wake_heap_occupancy),
            ),
            ("pe_deliveries", self.pe_deliveries.to_json()),
            ("dse_deliveries", self.dse_deliveries.to_json()),
            ("mem_requests", self.mem_requests.to_json()),
        ])
    }
}

/// Whole-run results returned by the simulator.
///
/// `PartialEq` exists so determinism tests can assert bit-identical runs
/// across repeats and across host-parallelism modes.
#[derive(Clone, Debug, PartialEq)]
pub struct RunStats {
    /// Total execution time in cycles (until all threads and traffic
    /// drained).
    pub cycles: u64,
    /// Per-PE counters.
    pub per_pe: Vec<PeStats>,
    /// Counters summed over all PEs.
    pub aggregate: PeStats,
    /// Total dynamic instructions (all PEs).
    pub instructions: u64,
    /// Thread instances created.
    pub instances: u64,
    /// Bus utilisation over the run.
    pub bus_utilisation: f64,
    /// Memory-port utilisation over the run.
    pub mem_utilisation: f64,
    /// Payload bytes moved to/from main memory.
    pub mem_payload_bytes: u64,
    /// DMA commands issued.
    pub dma_commands: u64,
    /// Peak pending FALLOCs at any DSE.
    pub max_dse_pending: usize,
    /// Cache hits across all PEs (0 when no cache is configured).
    pub cache_hits: u64,
    /// Cache misses across all PEs.
    pub cache_misses: u64,
    /// Fault injection & recovery — all zero on a fault-free run.
    ///
    /// Total DMA engine attempts (one per command plus one per retry).
    pub dma_attempts: u64,
    /// Retried DMA attempts across all MFCs.
    pub dma_retries: u64,
    /// DMA commands that exhausted their retry budget (completed via the
    /// fail-safe slow path; their PE degraded).
    pub dma_exhausted: u64,
    /// DMA commands permanently stalled by injection.
    pub dma_stalled: u64,
    /// Total exponential-backoff cycles spent by DMA retries.
    pub dma_backoff_cycles: u64,
    /// Protocol messages dropped (each recovered by an idempotent
    /// re-send).
    pub msgs_dropped: u64,
    /// Duplicate protocol messages injected (each discarded at delivery).
    pub msgs_duplicated: u64,
    /// Protocol messages delivered late by injected jitter.
    pub msgs_delayed: u64,
    /// FALLOC arbitrations denied by injection (each recovered by the
    /// retry timer).
    pub falloc_denials: u64,
    /// PEs that were degraded (retry budget exhausted) at run end, sorted
    /// by PE index.
    pub degraded_pes: Vec<u16>,
    /// Instances that ran a PF-skipping fallback thread body.
    pub fallback_instances: u64,
    /// Instances parked off a pipeline by the spin watchdog.
    pub watchdog_parks: u64,
    /// DSE failover — all zero without a `dse_crash` schedule.
    ///
    /// Planned DSE crashes that fired.
    pub dse_crashes: u64,
    /// Arbitration hand-offs to a successor DSE.
    pub failovers: u64,
    /// FALLOC requests re-homed away from a dead DSE (orphan replays plus
    /// in-flight bounces).
    pub rehomed_fallocs: u64,
    /// LSE re-registration messages absorbed by arbiters.
    pub resync_msgs: u64,
    /// LSE crash/recovery — all zero without an `lse_crash` schedule.
    ///
    /// Planned LSE crashes that fired.
    pub lse_crashes: u64,
    /// Pre-start frames evacuated off crashed LSEs.
    pub evacuated_frames: u64,
    /// Evacuated instances re-admitted on a peer LSE.
    pub readmitted_instances: u64,
    /// Started instances killed by LSE crashes (untainted ones are
    /// replayed via a fresh FALLOC; tainted ones are lost work).
    pub killed_instances: u64,
}

impl RunStats {
    /// The average per-SPU breakdown (paper Fig. 5 is the average over the
    /// eight SPUs).
    pub fn breakdown(&self) -> Breakdown {
        Breakdown::from_stats(&self.aggregate)
    }

    /// Table 5 row: (total, LOAD, STORE, READ, WRITE).
    pub fn table5_row(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.instructions,
            self.aggregate.loads,
            self.aggregate.stores,
            self.aggregate.reads,
            self.aggregate.writes,
        )
    }
}

impl ToJson for PeStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cycles", self.cycles.to_json()),
            ("fine", self.fine.to_json()),
            ("attr_overlap_cycles", self.attr_overlap_cycles.to_json()),
            ("issued", self.issued.to_json()),
            ("dual_cycles", self.dual_cycles.to_json()),
            ("issue_cycles", self.issue_cycles.to_json()),
            ("class_counts", self.class_counts.to_json()),
            ("loads", self.loads.to_json()),
            ("stores", self.stores.to_json()),
            ("reads", self.reads.to_json()),
            ("writes", self.writes.to_json()),
            ("threads_dispatched", self.threads_dispatched.to_json()),
            ("dma_queue_retries", self.dma_queue_retries.to_json()),
            ("sp_pf_cycles", self.sp_pf_cycles.to_json()),
        ])
    }
}

impl ToJson for Breakdown {
    fn to_json(&self) -> Json {
        Json::obj([
            ("fractions", self.fractions.to_json()),
            ("pipeline_usage", self.pipeline_usage.to_json()),
            ("ipc", self.ipc.to_json()),
        ])
    }
}

impl ToJson for RunStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cycles", self.cycles.to_json()),
            ("per_pe", self.per_pe.to_json()),
            ("aggregate", self.aggregate.to_json()),
            ("instructions", self.instructions.to_json()),
            ("instances", self.instances.to_json()),
            ("bus_utilisation", self.bus_utilisation.to_json()),
            ("mem_utilisation", self.mem_utilisation.to_json()),
            ("mem_payload_bytes", self.mem_payload_bytes.to_json()),
            ("dma_commands", self.dma_commands.to_json()),
            ("max_dse_pending", self.max_dse_pending.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
            ("cache_misses", self.cache_misses.to_json()),
            ("dma_attempts", self.dma_attempts.to_json()),
            ("dma_retries", self.dma_retries.to_json()),
            ("dma_exhausted", self.dma_exhausted.to_json()),
            ("dma_stalled", self.dma_stalled.to_json()),
            ("dma_backoff_cycles", self.dma_backoff_cycles.to_json()),
            ("msgs_dropped", self.msgs_dropped.to_json()),
            ("msgs_duplicated", self.msgs_duplicated.to_json()),
            ("msgs_delayed", self.msgs_delayed.to_json()),
            ("falloc_denials", self.falloc_denials.to_json()),
            ("degraded_pes", self.degraded_pes.to_json()),
            ("fallback_instances", self.fallback_instances.to_json()),
            ("watchdog_parks", self.watchdog_parks.to_json()),
            ("dse_crashes", self.dse_crashes.to_json()),
            ("failovers", self.failovers.to_json()),
            ("rehomed_fallocs", self.rehomed_fallocs.to_json()),
            ("resync_msgs", self.resync_msgs.to_json()),
            ("lse_crashes", self.lse_crashes.to_json()),
            ("evacuated_frames", self.evacuated_frames.to_json()),
            ("readmitted_instances", self.readmitted_instances.to_json()),
            ("killed_instances", self.killed_instances.to_json()),
        ])
    }
}

// --- JSON decoders -------------------------------------------------------
//
// The `ToJson` impls above define the canonical encoding used by cached
// `JobResult`s (see `crate::job`); these decoders are their inverses so a
// result can be reloaded from the on-disk store bit-for-bit. All counters
// here are cycle/instruction counts far below 2^53, so plain JSON numbers
// round-trip exactly.

fn u64_field(v: &Json, key: &str) -> Option<u64> {
    v.get(key).and_then(Json::as_u64)
}

fn f64_field(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_f64)
}

fn u64_array<const N: usize>(v: &Json, key: &str) -> Option<[u64; N]> {
    let arr = v.get(key)?.as_arr()?;
    if arr.len() != N {
        return None;
    }
    let mut out = [0u64; N];
    for (slot, item) in out.iter_mut().zip(arr) {
        *slot = item.as_u64()?;
    }
    Some(out)
}

impl PeStats {
    /// Decodes the [`ToJson`] encoding.
    pub fn from_json(v: &Json) -> Option<PeStats> {
        Some(PeStats {
            cycles: u64_array::<NUM_CATS>(v, "cycles")?,
            fine: u64_array::<NUM_FINE>(v, "fine")?,
            attr_overlap_cycles: u64_field(v, "attr_overlap_cycles")?,
            issued: u64_field(v, "issued")?,
            dual_cycles: u64_field(v, "dual_cycles")?,
            issue_cycles: u64_field(v, "issue_cycles")?,
            class_counts: u64_array::<NUM_CLASSES>(v, "class_counts")?,
            loads: u64_field(v, "loads")?,
            stores: u64_field(v, "stores")?,
            reads: u64_field(v, "reads")?,
            writes: u64_field(v, "writes")?,
            threads_dispatched: u64_field(v, "threads_dispatched")?,
            dma_queue_retries: u64_field(v, "dma_queue_retries")?,
            sp_pf_cycles: u64_field(v, "sp_pf_cycles")?,
        })
    }
}

impl EngineReport {
    /// Decodes the [`ToJson`] encoding.
    pub fn from_json(v: &Json) -> Option<EngineReport> {
        Some(EngineReport {
            visited_cycles: u64_field(v, "visited_cycles")?,
            pe_ticks: u64_field(v, "pe_ticks")?,
            skipped_ticks: u64_field(v, "skipped_ticks")?,
            run_wall_us: u64_field(v, "run_wall_us")?,
            wake_heap_occupancy: dta_obs::codec::histogram_from_json(
                v.get("wake_heap_occupancy")?,
            )?,
            pe_deliveries: u64_field(v, "pe_deliveries")?,
            dse_deliveries: u64_field(v, "dse_deliveries")?,
            mem_requests: u64_field(v, "mem_requests")?,
            ..EngineReport::default()
        })
    }
}

impl RunStats {
    /// Decodes the [`ToJson`] encoding.
    pub fn from_json(v: &Json) -> Option<RunStats> {
        Some(RunStats {
            cycles: u64_field(v, "cycles")?,
            per_pe: v
                .get("per_pe")?
                .as_arr()?
                .iter()
                .map(PeStats::from_json)
                .collect::<Option<Vec<_>>>()?,
            aggregate: PeStats::from_json(v.get("aggregate")?)?,
            instructions: u64_field(v, "instructions")?,
            instances: u64_field(v, "instances")?,
            bus_utilisation: f64_field(v, "bus_utilisation")?,
            mem_utilisation: f64_field(v, "mem_utilisation")?,
            mem_payload_bytes: u64_field(v, "mem_payload_bytes")?,
            dma_commands: u64_field(v, "dma_commands")?,
            max_dse_pending: u64_field(v, "max_dse_pending")? as usize,
            cache_hits: u64_field(v, "cache_hits")?,
            cache_misses: u64_field(v, "cache_misses")?,
            dma_attempts: u64_field(v, "dma_attempts")?,
            dma_retries: u64_field(v, "dma_retries")?,
            dma_exhausted: u64_field(v, "dma_exhausted")?,
            dma_stalled: u64_field(v, "dma_stalled")?,
            dma_backoff_cycles: u64_field(v, "dma_backoff_cycles")?,
            msgs_dropped: u64_field(v, "msgs_dropped")?,
            msgs_duplicated: u64_field(v, "msgs_duplicated")?,
            msgs_delayed: u64_field(v, "msgs_delayed")?,
            falloc_denials: u64_field(v, "falloc_denials")?,
            degraded_pes: v
                .get("degraded_pes")?
                .as_arr()?
                .iter()
                .map(|p| p.as_u64().map(|p| p as u16))
                .collect::<Option<Vec<_>>>()?,
            fallback_instances: u64_field(v, "fallback_instances")?,
            watchdog_parks: u64_field(v, "watchdog_parks")?,
            dse_crashes: u64_field(v, "dse_crashes")?,
            failovers: u64_field(v, "failovers")?,
            rehomed_fallocs: u64_field(v, "rehomed_fallocs")?,
            resync_msgs: u64_field(v, "resync_msgs")?,
            lse_crashes: u64_field(v, "lse_crashes")?,
            evacuated_frames: u64_field(v, "evacuated_frames")?,
            readmitted_instances: u64_field(v, "readmitted_instances")?,
            killed_instances: u64_field(v, "killed_instances")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let mut s = PeStats::default();
        s.add_cycles(StallCat::Working, FineCat::Compute, 30);
        s.add_cycles(StallCat::MemStall, FineCat::ReadStall, 60);
        s.add_cycles(StallCat::Idle, FineCat::Idle, 10);
        assert_eq!(s.total_fine_cycles(), s.total_cycles());
        let b = Breakdown::from_stats(&s);
        let sum: f64 = b.fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((b.frac(StallCat::MemStall) - 0.6).abs() < 1e-9);
        assert!((b.pct(StallCat::Working) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_give_zero_breakdown() {
        let b = Breakdown::from_stats(&PeStats::default());
        assert_eq!(b.pipeline_usage, 0.0);
        assert_eq!(b.ipc, 0.0);
        assert!(b.fractions.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn record_issue_buckets_by_class() {
        let mut s = PeStats::default();
        s.record_issue(IClass::Compute);
        s.record_issue(IClass::Compute);
        s.record_issue(IClass::Mem);
        assert_eq!(s.issued, 3);
        assert_eq!(s.class(IClass::Compute), 2);
        assert_eq!(s.class(IClass::Mem), 1);
        assert_eq!(s.class(IClass::Dma), 0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = PeStats::default();
        a.add_cycles(StallCat::Working, FineCat::Compute, 5);
        a.loads = 2;
        a.issued = 7;
        let mut b = PeStats::default();
        b.add_cycles(StallCat::Working, FineCat::Degraded, 3);
        b.attr_overlap_cycles = 2;
        b.loads = 1;
        b.issued = 2;
        a.merge(&b);
        assert_eq!(a.cat(StallCat::Working), 8);
        assert_eq!(a.fine_cat(FineCat::Compute), 5);
        assert_eq!(a.fine_cat(FineCat::Degraded), 3);
        assert_eq!(a.attr_overlap_cycles, 2);
        assert_eq!(a.loads, 3);
        assert_eq!(a.issued, 9);
    }

    #[test]
    fn pipeline_usage_and_ipc() {
        let mut s = PeStats::default();
        s.add_cycles(StallCat::Working, FineCat::Compute, 50);
        s.add_cycles(StallCat::MemStall, FineCat::ReadStall, 50);
        s.issue_cycles = 50;
        s.issued = 80; // 30 dual-issue cycles
        let b = Breakdown::from_stats(&s);
        assert!((b.pipeline_usage - 0.5).abs() < 1e-9);
        assert!((b.ipc - 0.8).abs() < 1e-9);
    }

    #[test]
    fn display_contains_all_categories() {
        let b = Breakdown::from_stats(&PeStats::default());
        let s = b.to_string();
        for cat in StallCat::ALL {
            assert!(s.contains(cat.name()), "missing {cat}");
        }
    }

    #[test]
    fn stats_json_roundtrip() {
        let mut pe = PeStats::default();
        pe.add_cycles(StallCat::MemStall, FineCat::DmaWait, 11);
        pe.record_issue(IClass::Dma);
        pe.attr_overlap_cycles = 4;
        pe.loads = 3;
        let stats = RunStats {
            cycles: 1234,
            per_pe: vec![pe, PeStats::default()],
            aggregate: pe,
            instructions: 42,
            instances: 7,
            bus_utilisation: 0.25,
            mem_utilisation: 0.5,
            mem_payload_bytes: 4096,
            dma_commands: 9,
            max_dse_pending: 3,
            cache_hits: 1,
            cache_misses: 2,
            dma_attempts: 10,
            dma_retries: 1,
            dma_exhausted: 0,
            dma_stalled: 0,
            dma_backoff_cycles: 64,
            msgs_dropped: 0,
            msgs_duplicated: 0,
            msgs_delayed: 0,
            falloc_denials: 0,
            degraded_pes: vec![1, 5],
            fallback_instances: 2,
            watchdog_parks: 0,
            dse_crashes: 0,
            failovers: 0,
            rehomed_fallocs: 0,
            resync_msgs: 0,
            lse_crashes: 1,
            evacuated_frames: 4,
            readmitted_instances: 3,
            killed_instances: 2,
        };
        let text = stats.to_json().to_string_compact();
        let back = RunStats::from_json(&dta_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, stats);
        let mut heap = dta_obs::Histogram::default();
        heap.add(0);
        heap.add(7);
        let er = EngineReport {
            visited_cycles: 5,
            pe_ticks: 4,
            skipped_ticks: 3,
            run_wall_us: 215,
            wake_heap_occupancy: heap,
            pe_deliveries: 17,
            dse_deliveries: 6,
            mem_requests: 12,
            ..EngineReport::default()
        };
        let er_text = er.to_json().to_string_compact();
        assert_eq!(
            EngineReport::from_json(&dta_json::parse(&er_text).unwrap()),
            Some(er)
        );
    }

    #[test]
    fn finecat_names_are_unique_and_cover_all() {
        let mut names: Vec<_> = FineCat::ALL.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), NUM_FINE);
    }

    #[test]
    fn stallcat_names_are_unique() {
        let mut names: Vec<_> = StallCat::ALL.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6);
    }
}
