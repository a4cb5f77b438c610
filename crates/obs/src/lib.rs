//! Deterministic observability for the DTA simulator.
//!
//! This crate defines the structured event bus: every unit of the simulated machine (PE,
//! DSE) appends [`ObsRecord`]s to a private
//! [`ObsLog`]; after the run the logs are merged and sorted by the
//! simulator's deterministic wall order `(cycle, unit, seq)` into an
//! [`ObsStream`], which can then be fed to any [`ObsSink`]
//! (counting, ring-buffering, metrics aggregation, Perfetto export).
//!
//! # Determinism rules
//!
//! The merged stream is required to be **bit-identical however the host
//! advances time** (which PEs it skips, how far a span runs). The
//! simulator guarantees this by construction:
//!
//! * every record is stamped with the cycle at which the underlying
//!   state change happens, never with the host-visit time;
//! * plain events take their `seq` from a per-unit counter that advances
//!   in per-unit emission order (deliver-then-tick at every visited
//!   cycle);
//! * cycle-sampled gauges live in a *separate* sequence space
//!   ([`GAUGE_SEQ_BIT`]` | sample_index * 4 + slot`) derived purely from
//!   the sampling grid, so the host time at which a lazy flush runs is
//!   irrelevant;
//! * message-fault events reuse the faulted message's own stamp
//!   (`src_rank`, `seq` + marker bits), a pure function of the send;
//! * events and gauges ring-buffer *independently* per unit, so overflow
//!   drops are a pure function of the per-unit emission order.

pub mod analyze;
pub mod codec;
mod metrics;
mod perfetto;
mod sink;

pub use analyze::{analyze, Analysis, CriticalPath, EdgeKind, PeAttribution, ThreadBreakdown};
pub use metrics::{Histogram, MetricsReport, MetricsSink};
pub use perfetto::{PerfettoWriter, TrackLayout};
pub use sink::{CountingSink, NullSink, ObsSink, RingSink};

use std::collections::VecDeque;

/// Marker bit distinguishing gauge-sample sequence numbers from the
/// per-unit event counter.
pub const GAUGE_SEQ_BIT: u64 = 1 << 62;

/// Marker bit distinguishing message-fault records (their `seq` is the
/// faulted message's own stamp sequence).
pub const MSG_SEQ_BIT: u64 = 1 << 63;
/// Added to [`MSG_SEQ_BIT`] for delay records (a drop and a delay of the
/// same message are mutually exclusive, but delay+duplicate are not).
pub const MSG_DELAY_SEQ_BIT: u64 = 1 << 60;
/// Added to [`MSG_SEQ_BIT`] for duplicate records.
pub const MSG_DUP_SEQ_BIT: u64 = 1 << 59;

/// Exclusive fine-grained cycle-attribution categories.
///
/// Every simulated PE-cycle is charged to exactly one of these, at the
/// same charge sites that feed the coarse Fig.-5 buckets, so per-PE
/// category sums equal the total attributed cycles *by construction*
/// (the conservation invariant) and — because each charge is a pure
/// function of simulated state — the tables do not depend on the host
/// schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum FineCat {
    /// Issue, dispatch and branch cycles of a healthy pipeline.
    Compute = 0,
    /// Any cycle spent inside a PF code block (issue, operand stalls,
    /// MFC-queue retries, DMAWAIT spins): prefetch-programming overhead.
    PfGated = 1,
    /// Blocking main-memory READ spans, and operand stalls fed by a
    /// blocking READ's destination register.
    ReadStall = 2,
    /// Cycles retrying a full MFC queue on a PUT outside PF: the write
    /// path back to main memory is saturated.
    WriteStall = 3,
    /// Operand stalls fed by local-store load latency or port pressure.
    LsStall = 4,
    /// FALLOC round-trip waits (request until grant/defer response).
    FallocWait = 5,
    /// DMAWAIT spins and GET-side MFC-queue retries outside PF.
    DmaWait = 6,
    /// Idle spans entered through a watchdog park (the instance left the
    /// pipeline involuntarily and nothing else was ready).
    Parked = 7,
    /// Compute cycles on a degraded PE (DMA retry budget exhausted; the
    /// PE runs PF-skipping fallback bodies).
    Degraded = 8,
    /// No ready thread and no parked-instance hint.
    Idle = 9,
}

/// Number of [`FineCat`] categories.
pub const NUM_FINE: usize = 10;

impl FineCat {
    /// All categories, in display order.
    pub const ALL: [FineCat; NUM_FINE] = [
        FineCat::Compute,
        FineCat::PfGated,
        FineCat::ReadStall,
        FineCat::WriteStall,
        FineCat::LsStall,
        FineCat::FallocWait,
        FineCat::DmaWait,
        FineCat::Parked,
        FineCat::Degraded,
        FineCat::Idle,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FineCat::Compute => "Compute",
            FineCat::PfGated => "PfGated",
            FineCat::ReadStall => "ReadStall",
            FineCat::WriteStall => "WriteStall",
            FineCat::LsStall => "LsStall",
            FineCat::FallocWait => "FallocWait",
            FineCat::DmaWait => "DmaWait",
            FineCat::Parked => "Parked",
            FineCat::Degraded => "Degraded",
            FineCat::Idle => "Idle",
        }
    }
}

/// Per-thread-instance lifecycle events (the Fig. 4 states of the
/// paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThreadEvent {
    /// A frame was granted (encoded `FramePtr`).
    FrameGranted { frame: u64 },
    /// A producer STORE landed in the frame.
    StoreApplied { slot: u16, became_ready: bool },
    /// The instance left the ready queue and entered the pipeline.
    Dispatched,
    /// The PF phase was offloaded to the SP pipeline.
    PfOffloaded,
    /// A DMA command was issued on behalf of the instance.
    DmaIssued { tag: u8 },
    /// A DMA command completed.
    DmaCompleted { tag: u8 },
    /// The instance blocked waiting for outstanding DMA.
    WaitDma,
    /// The allocation was parked waiting for a prefetch buffer.
    ParkedWaitFalloc,
    /// The instance executed STOP.
    Stopped,
    /// The instance's frame was released.
    FrameFreed,
    /// A blocking scalar main-memory READ issued on the EX pipeline
    /// (outside any PF block) — the stall the prefetch mechanism exists
    /// to remove. PF coverage = decoupled GETs vs these.
    ReadBlocked,
}

/// What a cycle-sampled gauge measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GaugeKind {
    /// LSE ready-queue depth.
    ReadyQueue,
    /// Frames in use on the PE.
    FramesInUse,
    /// DMA commands in flight on the PE's MFC.
    DmaInFlight,
    /// Pipeline state: 2 = busy, 1 = wait-DMA, 0 = idle.
    PipeState,
}

impl GaugeKind {
    /// Stable slot index inside one sample boundary (< [`GAUGE_SLOTS`]).
    #[inline]
    pub fn slot(self) -> u64 {
        match self {
            GaugeKind::ReadyQueue => 0,
            GaugeKind::FramesInUse => 1,
            GaugeKind::DmaInFlight => 2,
            GaugeKind::PipeState => 3,
        }
    }
}

/// Number of gauge slots per sample boundary.
pub const GAUGE_SLOTS: u64 = 4;

/// One structured observability event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ObsEvent {
    /// Per-instance lifecycle event on a PE.
    Thread {
        /// Global PE index.
        pe: u16,
        /// Raw `InstanceId` bits.
        instance: u64,
        /// Static thread index.
        thread: u32,
        /// What happened.
        what: ThreadEvent,
    },
    /// A DMA command was admitted with `retries` planned retries.
    DmaRetry { pe: u16, retries: u32 },
    /// A DMA command exhausted its retry budget.
    DmaExhausted { pe: u16 },
    /// The PE entered degraded (PF-skip fallback) mode.
    PeDegraded { pe: u16 },
    /// The watchdog parked a spinning instance.
    WatchdogPark { pe: u16, instance: u64 },
    /// An `AllocFrame` was substituted with the thread's fallback twin.
    FallbackSubstituted { pe: u16, thread: u32 },
    /// A message from `src` was dropped (resend scheduled).
    MsgDropped { src: u32, resend_at: u64 },
    /// A message from `src` was duplicated in flight.
    MsgDuplicated { src: u32 },
    /// A message from `src` was delayed by fault-injected jitter.
    MsgDelayed { src: u32 },
    /// A DSE denied a FALLOC (fault-injected arbitration denial).
    FallocDenied { node: u16, requester: u16 },
    /// A DSE re-arbitrated its deferred-FALLOC queue.
    FallocRearb { node: u16, grants: u32 },
    /// A DSE crashed.
    DseCrash { node: u16 },
    /// Arbitration for `node` failed over to `successor`.
    DseFailover { node: u16, successor: u16 },
    /// `count` FALLOCs were re-homed away from a dead DSE.
    DseRehomed { node: u16, count: u64 },
    /// A crashed DSE restarted.
    DseRestart { node: u16 },
    /// An LSE re-registered its free-frame count after crash/restart.
    DseResync { node: u16, pe: u16, free: u32 },
    /// An LSE crashed, destroying its frame table.
    LseCrash { pe: u16 },
    /// A crashed LSE restarted with an empty frame table.
    LseRestart { pe: u16 },
    /// `count` pre-start frames were evacuated off a crashed LSE.
    LseEvacuated { pe: u16, count: u64 },
    /// An evacuated instance from `home` was re-admitted on `pe`.
    LseReadmitted { pe: u16, home: u16 },
    /// `count` started instances were killed by an LSE crash.
    LseKilled { pe: u16, count: u64 },
    /// A cycle-sampled gauge value.
    Gauge {
        pe: u16,
        kind: GaugeKind,
        value: u64,
    },
}

/// One timestamped record in a unit's log.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ObsRecord {
    /// Cycle at which the recorded state change happens.
    pub cycle: u64,
    /// Emitting unit (PE rank, then DSE rank).
    pub unit: u32,
    /// Per-unit sequence number (see the crate docs for the spaces).
    pub seq: u64,
    /// The event.
    pub ev: ObsEvent,
}

impl ObsRecord {
    /// Deterministic wall-order sort key.
    #[inline]
    pub fn key(&self) -> (u64, u32, u64) {
        (self.cycle, self.unit, self.seq)
    }
}

fn push_ring(buf: &mut VecDeque<ObsRecord>, cap: usize, dropped: &mut u64, rec: ObsRecord) {
    if buf.len() == cap {
        buf.pop_front();
        *dropped += 1;
    }
    buf.push_back(rec);
}

/// A unit's private event log: a keep-newest ring for plain events plus
/// an independent keep-newest ring for gauge samples, and the lazy
/// sampling cursor.
#[derive(Debug)]
pub struct ObsLog {
    unit: u32,
    events_on: bool,
    interval: u64,
    next_sample: u64,
    cap: usize,
    events: VecDeque<ObsRecord>,
    seq: u64,
    samples: VecDeque<ObsRecord>,
    dropped: u64,
    dropped_samples: u64,
}

impl ObsLog {
    /// Creates a log for `unit`. `cap` bounds each ring (min 1);
    /// `events_on` enables plain events; `interval > 0` enables gauge
    /// sampling on that cycle stride.
    pub fn new(unit: u32, cap: usize, events_on: bool, interval: u64) -> Self {
        ObsLog {
            unit,
            events_on,
            interval,
            next_sample: interval,
            cap: cap.max(1),
            events: VecDeque::new(),
            seq: 0,
            samples: VecDeque::new(),
            dropped: 0,
            dropped_samples: 0,
        }
    }

    /// A disabled log (records nothing).
    pub fn off(unit: u32) -> Self {
        Self::new(unit, 1, false, 0)
    }

    /// Whether plain events are recorded.
    #[inline]
    pub fn events_on(&self) -> bool {
        self.events_on
    }

    /// Whether gauge sampling is active.
    #[inline]
    pub fn metrics_on(&self) -> bool {
        self.interval > 0
    }

    /// The emitting unit id.
    #[inline]
    pub fn unit(&self) -> u32 {
        self.unit
    }

    /// Records `ev` at `cycle` (no-op unless events are on).
    #[inline]
    pub fn emit(&mut self, cycle: u64, ev: ObsEvent) {
        if !self.events_on {
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        push_ring(
            &mut self.events,
            self.cap,
            &mut self.dropped,
            ObsRecord {
                cycle,
                unit: self.unit,
                seq,
                ev,
            },
        );
    }

    /// Next pending sample boundary strictly before `t`, advancing the
    /// cursor. Call in a loop to flush lazily: boundaries stay pending
    /// until the unit is next visited, and record values reflect the
    /// unit's state *at the boundary* (no mutation can have happened in
    /// between, since mutations are visits).
    #[inline]
    pub fn next_boundary_before(&mut self, t: u64) -> Option<u64> {
        if self.interval == 0 || self.next_sample >= t {
            return None;
        }
        let b = self.next_sample;
        self.next_sample += self.interval;
        Some(b)
    }

    /// Like [`Self::next_boundary_before`] but inclusive of `t`; used
    /// for the final flush at the end of the run.
    pub fn next_boundary_through(&mut self, t: u64) -> Option<u64> {
        if self.interval == 0 || self.next_sample > t {
            return None;
        }
        let b = self.next_sample;
        self.next_sample += self.interval;
        Some(b)
    }

    /// Records a gauge sample for `boundary`. The sequence number is
    /// derived from the sampling grid, not the event counter, so flush
    /// timing cannot perturb the merged order.
    pub fn emit_sample(&mut self, boundary: u64, kind: GaugeKind, pe: u16, value: u64) {
        debug_assert!(self.interval > 0 && boundary.is_multiple_of(self.interval));
        let seq = GAUGE_SEQ_BIT | ((boundary / self.interval) * GAUGE_SLOTS + kind.slot());
        push_ring(
            &mut self.samples,
            self.cap,
            &mut self.dropped_samples,
            ObsRecord {
                cycle: boundary,
                unit: self.unit,
                seq,
                ev: ObsEvent::Gauge { pe, kind, value },
            },
        );
    }

    /// Moves every record into `out`; returns the drop count.
    pub fn drain_into(&mut self, out: &mut Vec<ObsRecord>) -> u64 {
        out.extend(self.events.drain(..));
        out.extend(self.samples.drain(..));
        self.dropped + self.dropped_samples
    }

    /// Moves every record stamped `cycle <= horizon` into `out`, leaving
    /// the rest (and the drop counters) in place. Both rings hold records
    /// in nondecreasing cycle order — events are emitted at unit-visit
    /// time and gauge samples in sampling-grid order — so a front drain
    /// is exact. This is the incremental-streaming primitive: the engine
    /// calls it at safe horizons (cycles whose activity is fully
    /// simulated), relieving ring pressure long before the post-run
    /// merge.
    pub fn drain_through(&mut self, horizon: u64, out: &mut Vec<ObsRecord>) {
        while self.events.front().is_some_and(|r| r.cycle <= horizon) {
            out.push(self.events.pop_front().expect("peeked"));
        }
        while self.samples.front().is_some_and(|r| r.cycle <= horizon) {
            out.push(self.samples.pop_front().expect("peeked"));
        }
    }

    /// Records currently held (events + samples).
    pub fn len(&self) -> usize {
        self.events.len() + self.samples.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The merged, wall-order-sorted event stream of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsStream {
    /// All records, sorted by [`ObsRecord::key`].
    pub records: Vec<ObsRecord>,
    /// Records lost to per-unit ring overflow.
    pub dropped: u64,
}

impl ObsStream {
    /// Builds a stream from unsorted records.
    pub fn from_records(mut records: Vec<ObsRecord>, dropped: u64) -> Self {
        records.sort_unstable_by_key(ObsRecord::key);
        ObsStream { records, dropped }
    }

    /// Replays the stream into a sink.
    pub fn feed<S: ObsSink + ?Sized>(&self, sink: &mut S) {
        for r in &self.records {
            sink.record(r);
        }
        sink.dropped(self.dropped);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pe: u16) -> ObsEvent {
        ObsEvent::Thread {
            pe,
            instance: 7,
            thread: 0,
            what: ThreadEvent::Dispatched,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut log = ObsLog::new(3, 2, true, 0);
        for c in 0..5u64 {
            log.emit(c, ev(3));
        }
        let mut out = Vec::new();
        let dropped = log.drain_into(&mut out);
        assert_eq!(dropped, 3);
        let cycles: Vec<u64> = out.iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![3, 4]); // newest survive
        assert_eq!(out[0].seq, 3); // seq keeps counting across drops
    }

    #[test]
    fn drain_through_is_a_prefix_and_preserves_drops() {
        let mut log = ObsLog::new(3, 2, true, 0);
        for c in 0..5u64 {
            log.emit(c, ev(3)); // drops cycles 0..=2, keeps 3 and 4
        }
        let mut early = Vec::new();
        log.drain_through(3, &mut early);
        assert_eq!(early.iter().map(|r| r.cycle).collect::<Vec<_>>(), [3]);
        // The remainder (and the cumulative drop count) survive for the
        // final merge.
        let mut rest = Vec::new();
        let dropped = log.drain_into(&mut rest);
        assert_eq!(rest.iter().map(|r| r.cycle).collect::<Vec<_>>(), [4]);
        assert_eq!(dropped, 3);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = ObsLog::off(0);
        log.emit(1, ev(0));
        assert!(log.is_empty());
        assert!(!log.events_on() && !log.metrics_on());
    }

    #[test]
    fn sample_boundaries_are_lazy_and_exhaustive() {
        let mut log = ObsLog::new(0, 16, false, 10);
        assert_eq!(log.next_boundary_before(5), None);
        assert_eq!(log.next_boundary_before(25), Some(10));
        assert_eq!(log.next_boundary_before(25), Some(20));
        assert_eq!(log.next_boundary_before(25), None);
        // Final flush is inclusive.
        assert_eq!(log.next_boundary_through(30), Some(30));
        assert_eq!(log.next_boundary_through(30), None);
    }

    #[test]
    fn gauge_seq_is_grid_derived() {
        let mut log = ObsLog::new(0, 16, false, 10);
        log.emit_sample(20, GaugeKind::DmaInFlight, 0, 1);
        let mut out = Vec::new();
        log.drain_into(&mut out);
        assert_eq!(
            out[0].seq,
            GAUGE_SEQ_BIT | (2 * GAUGE_SLOTS + GaugeKind::DmaInFlight.slot())
        );
    }

    #[test]
    fn stream_sorts_by_wall_order() {
        let recs = vec![
            ObsRecord {
                cycle: 5,
                unit: 1,
                seq: 1,
                ev: ev(1),
            },
            ObsRecord {
                cycle: 2,
                unit: 2,
                seq: 0,
                ev: ev(2),
            },
        ];
        let s = ObsStream::from_records(recs, 0);
        assert_eq!(s.records[0].cycle, 2);
        assert_eq!(s.len(), 2);
    }
}
