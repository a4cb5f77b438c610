//! Cycle-sampled metrics: deterministic histograms and the per-PE
//! occupancy/overlap accounting that quantifies the paper's
//! "non-blocking" claim (pipeline busy while DMA is in flight).

use crate::{GaugeKind, ObsEvent, ObsRecord, ObsSink, ThreadEvent};
use std::collections::HashMap;
use std::fmt::Write as _;

/// A power-of-two-bucketed histogram. Bucket `i` holds values whose
/// bit-length is `i` (bucket 0 holds only zero), so the layout — and
/// therefore every rendered report — is a pure function of the added
/// values.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    /// Bucket counts by value bit-length.
    pub counts: [u64; 65],
    /// Number of values added.
    pub total: u64,
    /// Sum of values.
    pub sum: u64,
    /// Largest value seen.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; 65],
            total: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Adds one value.
    pub fn add(&mut self, v: u64) {
        let bucket = (64 - v.leading_zeros()) as usize;
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// One-line summary, e.g. `n=12 mean=34.5 max=96`.
    pub fn summary(&self) -> String {
        format!("n={} mean={:.1} max={}", self.total, self.mean(), self.max)
    }

    /// Multi-line bucket rendering (non-empty buckets only).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = if i == 0 {
                (0u64, 0u64)
            } else {
                (1u64 << (i - 1), (1u64 << i) - 1)
            };
            let _ = writeln!(out, "  [{lo:>8}..{hi:>8}]  {c}");
        }
        out
    }
}

/// Final metrics of one run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MetricsReport {
    /// Frame-grant → thread-ready latency (instances whose readiness is
    /// completed by a producer STORE; entry threads that are born ready
    /// do not contribute).
    pub grant_to_ready: Histogram,
    /// DMA issue → completion latency.
    pub dma_latency: Histogram,
    /// Wait-for-DMA stall spans (WaitDma → next dispatch).
    pub wait_dma_spans: Histogram,
    /// Total pipeline-busy cycles across PEs (EX slices).
    pub busy_cycles: u64,
    /// Busy cycles during which the same PE had DMA in flight — the
    /// paper's non-blocking overlap (Fig. 4).
    pub overlap_cycles: u64,
    /// Per-PE busy cycles.
    pub per_pe_busy: Vec<u64>,
    /// Per-PE overlap cycles.
    pub per_pe_overlap: Vec<u64>,
    /// Peak sampled ready-queue depth.
    pub max_ready_queue: u64,
    /// Peak sampled frames in use on any PE.
    pub max_frames_in_use: u64,
    /// Peak sampled DMA commands in flight on any MFC.
    pub max_dma_in_flight: u64,
    /// Gauge samples consumed.
    pub samples: u64,
}

impl MetricsReport {
    /// Overlap as a fraction of busy cycles (0 when idle).
    pub fn overlap_fraction(&self) -> f64 {
        if self.busy_cycles == 0 {
            0.0
        } else {
            self.overlap_cycles as f64 / self.busy_cycles as f64
        }
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "busy cycles {} · overlap (busy while DMA in flight) {} ({:.1}%)",
            self.busy_cycles,
            self.overlap_cycles,
            100.0 * self.overlap_fraction()
        );
        let _ = writeln!(out, "grant→ready   {}", self.grant_to_ready.summary());
        let _ = writeln!(out, "dma latency   {}", self.dma_latency.summary());
        let _ = writeln!(out, "wait-dma span {}", self.wait_dma_spans.summary());
        let _ = writeln!(
            out,
            "peaks: ready-queue {} · frames {} · dma in flight {} ({} samples)",
            self.max_ready_queue, self.max_frames_in_use, self.max_dma_in_flight, self.samples
        );
        out
    }
}

/// Sink that folds a wall-ordered stream into a [`MetricsReport`].
#[derive(Debug)]
pub struct MetricsSink {
    report: MetricsReport,
    busy_since: Vec<Option<u64>>,
    in_flight: Vec<u32>,
    last_edge: Vec<u64>,
    dma_open: HashMap<(u16, u8), u64>,
    grant_at: HashMap<u64, u64>,
    wait_since: HashMap<u64, u64>,
    last_cycle: u64,
}

impl MetricsSink {
    /// Creates a sink for a machine with `total_pes` PEs.
    pub fn new(total_pes: u16) -> Self {
        let n = total_pes as usize;
        MetricsSink {
            report: MetricsReport {
                per_pe_busy: vec![0; n],
                per_pe_overlap: vec![0; n],
                ..MetricsReport::default()
            },
            busy_since: vec![None; n],
            in_flight: vec![0; n],
            last_edge: vec![0; n],
            dma_open: HashMap::new(),
            grant_at: HashMap::new(),
            wait_since: HashMap::new(),
            last_cycle: 0,
        }
    }

    /// Accumulates the span since the last state edge of `pe` under the
    /// *current* state, then moves the edge to `t`.
    fn edge(&mut self, pe: u16, t: u64) {
        let p = pe as usize;
        if p >= self.last_edge.len() {
            return;
        }
        let span = t.saturating_sub(self.last_edge[p]);
        if span > 0 && self.busy_since[p].is_some() {
            self.report.busy_cycles += span;
            self.report.per_pe_busy[p] += span;
            if self.in_flight[p] > 0 {
                self.report.overlap_cycles += span;
                self.report.per_pe_overlap[p] += span;
            }
        }
        self.last_edge[p] = t;
    }

    /// Finishes the fold, closing any open busy spans at the last seen
    /// cycle, and returns the report.
    pub fn finish(mut self) -> MetricsReport {
        for pe in 0..self.busy_since.len() {
            self.edge(pe as u16, self.last_cycle);
        }
        self.report
    }
}

impl ObsSink for MetricsSink {
    fn record(&mut self, rec: &ObsRecord) {
        self.last_cycle = self.last_cycle.max(rec.cycle);
        match rec.ev {
            ObsEvent::Thread {
                pe, instance, what, ..
            } => match what {
                ThreadEvent::FrameGranted { .. } => {
                    self.grant_at.insert(instance, rec.cycle);
                }
                ThreadEvent::StoreApplied { became_ready, .. } => {
                    if became_ready {
                        if let Some(g) = self.grant_at.remove(&instance) {
                            self.report.grant_to_ready.add(rec.cycle - g);
                        }
                    }
                }
                ThreadEvent::Dispatched => {
                    if let Some(w) = self.wait_since.remove(&instance) {
                        self.report.wait_dma_spans.add(rec.cycle - w);
                    }
                    self.edge(pe, rec.cycle);
                    if let Some(p) = self.busy_since.get_mut(pe as usize) {
                        *p = Some(rec.cycle);
                    }
                }
                ThreadEvent::WaitDma => {
                    self.wait_since.entry(instance).or_insert(rec.cycle);
                    self.edge(pe, rec.cycle);
                    if let Some(p) = self.busy_since.get_mut(pe as usize) {
                        *p = None;
                    }
                }
                ThreadEvent::ParkedWaitFalloc | ThreadEvent::Stopped => {
                    self.edge(pe, rec.cycle);
                    if let Some(p) = self.busy_since.get_mut(pe as usize) {
                        *p = None;
                    }
                    if matches!(what, ThreadEvent::Stopped) {
                        self.grant_at.remove(&instance);
                        self.wait_since.remove(&instance);
                    }
                }
                ThreadEvent::DmaIssued { tag } => {
                    self.edge(pe, rec.cycle);
                    self.dma_open.insert((pe, tag), rec.cycle);
                    if let Some(f) = self.in_flight.get_mut(pe as usize) {
                        *f += 1;
                    }
                }
                ThreadEvent::DmaCompleted { tag } => {
                    self.edge(pe, rec.cycle);
                    if let Some(issued) = self.dma_open.remove(&(pe, tag)) {
                        self.report.dma_latency.add(rec.cycle - issued);
                    }
                    if let Some(f) = self.in_flight.get_mut(pe as usize) {
                        *f = f.saturating_sub(1);
                    }
                }
                ThreadEvent::PfOffloaded | ThreadEvent::FrameFreed | ThreadEvent::ReadBlocked => {}
            },
            ObsEvent::Gauge { kind, value, .. } => {
                self.report.samples += 1;
                match kind {
                    GaugeKind::ReadyQueue => {
                        self.report.max_ready_queue = self.report.max_ready_queue.max(value);
                    }
                    GaugeKind::FramesInUse => {
                        self.report.max_frames_in_use = self.report.max_frames_in_use.max(value);
                    }
                    GaugeKind::DmaInFlight => {
                        self.report.max_dma_in_flight = self.report.max_dma_in_flight.max(value);
                    }
                    GaugeKind::PipeState => {}
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cycle: u64, seq: u64, ev: ObsEvent) -> ObsRecord {
        ObsRecord {
            cycle,
            unit: 0,
            seq,
            ev,
        }
    }

    fn thread(cycle: u64, seq: u64, what: ThreadEvent) -> ObsRecord {
        rec(
            cycle,
            seq,
            ObsEvent::Thread {
                pe: 0,
                instance: 1,
                thread: 0,
                what,
            },
        )
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.add(v);
        }
        assert_eq!(h.counts[0], 1); // 0
        assert_eq!(h.counts[1], 1); // 1
        assert_eq!(h.counts[2], 2); // 2, 3
        assert_eq!(h.counts[3], 1); // 4
        assert_eq!(h.counts[10], 1); // 1000
        assert_eq!(h.max, 1000);
        assert_eq!(h.total, 6);
    }

    #[test]
    fn overlap_counts_busy_cycles_with_dma_in_flight() {
        let mut m = MetricsSink::new(1);
        // DMA issued at 10, thread dispatched 12..20, DMA completes 16.
        m.record(&thread(10, 0, ThreadEvent::DmaIssued { tag: 0 }));
        m.record(&thread(12, 1, ThreadEvent::Dispatched));
        m.record(&thread(16, 2, ThreadEvent::DmaCompleted { tag: 0 }));
        m.record(&thread(20, 3, ThreadEvent::Stopped));
        let r = m.finish();
        assert_eq!(r.busy_cycles, 8); // 12..20
        assert_eq!(r.overlap_cycles, 4); // 12..16
        assert_eq!(r.dma_latency.sum, 6); // 10..16
    }

    #[test]
    fn wait_and_grant_latencies() {
        let mut m = MetricsSink::new(1);
        m.record(&thread(5, 0, ThreadEvent::FrameGranted { frame: 0 }));
        m.record(&thread(
            9,
            1,
            ThreadEvent::StoreApplied {
                slot: 0,
                became_ready: true,
            },
        ));
        m.record(&thread(10, 2, ThreadEvent::Dispatched));
        m.record(&thread(14, 3, ThreadEvent::WaitDma));
        m.record(&thread(30, 4, ThreadEvent::Dispatched));
        let r = m.finish();
        assert_eq!(r.grant_to_ready.sum, 4);
        assert_eq!(r.wait_dma_spans.sum, 16);
    }
}
