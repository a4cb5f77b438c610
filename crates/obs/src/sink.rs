//! Event sinks: consumers of a merged [`ObsStream`](crate::ObsStream).

use crate::{ObsEvent, ObsRecord};
use std::collections::VecDeque;

/// A consumer of observability records. Sinks run *after* the
/// simulation (the engines log into private per-unit rings), so a sink
/// can never perturb simulated time; `NullSink` additionally compiles
/// to nothing so the disabled path costs zero.
pub trait ObsSink {
    /// Consumes one record (records arrive in wall order).
    fn record(&mut self, rec: &ObsRecord);
    /// Reports the number of records lost to ring overflow.
    fn dropped(&mut self, _n: u64) {}
}

/// Discards everything.
#[derive(Default, Debug, Clone, Copy)]
pub struct NullSink;

impl ObsSink for NullSink {
    #[inline(always)]
    fn record(&mut self, _rec: &ObsRecord) {}
}

/// Keeps the newest `cap` records.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    buf: VecDeque<ObsRecord>,
    /// Records dropped by this ring *plus* upstream ring overflow.
    pub dropped: u64,
}

impl RingSink {
    /// Creates a ring keeping the newest `cap` records (min 1).
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &ObsRecord> {
        self.buf.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl ObsSink for RingSink {
    fn record(&mut self, rec: &ObsRecord) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(*rec);
    }

    fn dropped(&mut self, n: u64) {
        self.dropped += n;
    }
}

/// Aggregates per-kind counts, shaped to reconcile 1:1 with the
/// simulator's `RunStats` counters (the chaos suite asserts exact
/// equality).
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountingSink {
    /// Lifecycle events (no `RunStats` counterpart).
    pub thread_events: u64,
    /// Summed planned retries — reconciles with `RunStats::dma_retries`.
    pub dma_retries: u64,
    /// Reconciles with `RunStats::dma_exhausted`.
    pub dma_exhausted: u64,
    /// Reconciles with `RunStats::degraded_pes.len()`.
    pub degraded_pes: u64,
    /// Reconciles with `RunStats::watchdog_parks`.
    pub watchdog_parks: u64,
    /// Reconciles with `RunStats::fallback_instances`.
    pub fallback_instances: u64,
    /// Reconciles with `RunStats::msgs_dropped`.
    pub msgs_dropped: u64,
    /// Reconciles with `RunStats::msgs_duplicated`.
    pub msgs_duplicated: u64,
    /// Reconciles with `RunStats::msgs_delayed`.
    pub msgs_delayed: u64,
    /// Reconciles with `RunStats::falloc_denials`.
    pub falloc_denials: u64,
    /// Re-arbitration passes (no `RunStats` counterpart).
    pub falloc_rearbs: u64,
    /// Reconciles with `RunStats::dse_crashes`.
    pub dse_crashes: u64,
    /// Reconciles with `RunStats::failovers`.
    pub failovers: u64,
    /// Summed re-homed counts — reconciles with
    /// `RunStats::rehomed_fallocs`.
    pub rehomed_fallocs: u64,
    /// DSE restarts (no `RunStats` counterpart).
    pub dse_restarts: u64,
    /// Reconciles with `RunStats::resync_msgs`.
    pub resync_msgs: u64,
    /// Reconciles with `RunStats::lse_crashes`.
    pub lse_crashes: u64,
    /// LSE restarts (no `RunStats` counterpart).
    pub lse_restarts: u64,
    /// Summed evacuation counts — reconciles with
    /// `RunStats::evacuated_frames`.
    pub evacuated_frames: u64,
    /// Reconciles with `RunStats::readmitted_instances`.
    pub readmitted_instances: u64,
    /// Summed kill counts — reconciles with
    /// `RunStats::killed_instances`.
    pub killed_instances: u64,
    /// Gauge samples seen.
    pub gauges: u64,
    /// Upstream ring-overflow drops.
    pub dropped: u64,
}

impl ObsSink for CountingSink {
    fn record(&mut self, rec: &ObsRecord) {
        match rec.ev {
            ObsEvent::Thread { .. } => self.thread_events += 1,
            ObsEvent::DmaRetry { retries, .. } => self.dma_retries += retries as u64,
            ObsEvent::DmaExhausted { .. } => self.dma_exhausted += 1,
            ObsEvent::PeDegraded { .. } => self.degraded_pes += 1,
            ObsEvent::WatchdogPark { .. } => self.watchdog_parks += 1,
            ObsEvent::FallbackSubstituted { .. } => self.fallback_instances += 1,
            ObsEvent::MsgDropped { .. } => self.msgs_dropped += 1,
            ObsEvent::MsgDuplicated { .. } => self.msgs_duplicated += 1,
            ObsEvent::MsgDelayed { .. } => self.msgs_delayed += 1,
            ObsEvent::FallocDenied { .. } => self.falloc_denials += 1,
            ObsEvent::FallocRearb { .. } => self.falloc_rearbs += 1,
            ObsEvent::DseCrash { .. } => self.dse_crashes += 1,
            ObsEvent::DseFailover { .. } => self.failovers += 1,
            ObsEvent::DseRehomed { count, .. } => self.rehomed_fallocs += count,
            ObsEvent::DseRestart { .. } => self.dse_restarts += 1,
            ObsEvent::DseResync { .. } => self.resync_msgs += 1,
            ObsEvent::LseCrash { .. } => self.lse_crashes += 1,
            ObsEvent::LseRestart { .. } => self.lse_restarts += 1,
            ObsEvent::LseEvacuated { count, .. } => self.evacuated_frames += count,
            ObsEvent::LseReadmitted { .. } => self.readmitted_instances += 1,
            ObsEvent::LseKilled { count, .. } => self.killed_instances += count,
            ObsEvent::Gauge { .. } => self.gauges += 1,
        }
    }

    fn dropped(&mut self, n: u64) {
        self.dropped += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadEvent;

    fn rec(cycle: u64, ev: ObsEvent) -> ObsRecord {
        ObsRecord {
            cycle,
            unit: 0,
            seq: cycle,
            ev,
        }
    }

    #[test]
    fn ring_sink_keeps_newest() {
        let mut s = RingSink::new(2);
        for c in 0..4 {
            s.record(&rec(c, ObsEvent::DseCrash { node: 0 }));
        }
        s.dropped(5);
        assert_eq!(s.dropped, 2 + 5);
        let kept: Vec<u64> = s.records().map(|r| r.cycle).collect();
        assert_eq!(kept, vec![2, 3]);
    }

    #[test]
    fn counting_sink_sums_fields() {
        let mut s = CountingSink::default();
        s.record(&rec(0, ObsEvent::DmaRetry { pe: 1, retries: 3 }));
        s.record(&rec(1, ObsEvent::DmaRetry { pe: 1, retries: 2 }));
        s.record(&rec(2, ObsEvent::DseRehomed { node: 0, count: 4 }));
        s.record(&rec(
            3,
            ObsEvent::Thread {
                pe: 0,
                instance: 0,
                thread: 0,
                what: ThreadEvent::Stopped,
            },
        ));
        assert_eq!(s.dma_retries, 5);
        assert_eq!(s.rehomed_fallocs, 4);
        assert_eq!(s.thread_events, 1);
    }
}
