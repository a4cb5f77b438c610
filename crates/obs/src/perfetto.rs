//! Streaming Perfetto/Chrome `trace.json` export.
//!
//! Track layout (one Chrome "process" per node, one "thread" per
//! hardware unit):
//!
//! * `pid = node + 1`, process name `node N`;
//! * PE execution track: `tid = pe + 1` — EX slices (`ph:"X"`), one per
//!   dispatch→block span, named after the static thread;
//! * MFC track: `tid = 200000 + pe` — DMA-in-flight async spans
//!   (`ph:"b"/"e"`, id `pe.tag`); their overlap with EX slices on the
//!   same PE *is* the paper's Fig. 4 non-blocking claim;
//! * DSE track: `tid = 100000 + node` — crash/failover/restart/resync
//!   and FALLOC arbitration instants (`ph:"i"`);
//! * gauges render as counter tracks (`ph:"C"`).
//!
//! Timestamps are simulated cycles (shown as µs — Perfetto has no
//! cycle unit). The file loads in <https://ui.perfetto.dev> as-is.

use crate::{GaugeKind, ObsEvent, ObsRecord, ObsSink, ThreadEvent};
use dta_json::Writer;
use std::borrow::Cow;

/// Static machine shape needed to lay out tracks and name slices.
#[derive(Clone, Debug)]
pub struct TrackLayout {
    /// Total PE count.
    pub total_pes: u16,
    /// PEs per node.
    pub pes_per_node: u16,
    /// Node count.
    pub nodes: u16,
    /// Static thread names, indexed by thread id.
    pub thread_names: Vec<String>,
}

impl TrackLayout {
    fn node_of(&self, pe: u16) -> u16 {
        pe / self.pes_per_node.max(1)
    }

    fn thread_name(&self, thread: u32) -> Cow<'_, str> {
        match self.thread_names.get(thread as usize) {
            Some(name) => Cow::Borrowed(name),
            None => Cow::Owned(format!("t{thread}")),
        }
    }
}

const DSE_TID_BASE: u64 = 100_000;
const MFC_TID_BASE: u64 = 200_000;

/// Opens one `traceEvents` entry with the five keys every entry has;
/// the caller adds its own keys and closes the object.
fn event(w: &mut Writer, ph: &str, name: &str, ts: u64, pid: u64, tid: u64) {
    w.begin_obj();
    w.key("name");
    w.str(name);
    w.key("ph");
    w.str(ph);
    w.key("ts");
    w.u64(ts);
    w.key("pid");
    w.u64(pid);
    w.key("tid");
    w.u64(tid);
}

/// A track-naming metadata entry.
fn metadata(w: &mut Writer, what: &str, pid: u64, tid: u64, label: &str) {
    event(w, "M", what, 0, pid, tid);
    w.key("args");
    w.begin_obj();
    w.key("name");
    w.str(label);
    w.end_obj();
    w.end_obj();
}

/// Sink that renders the stream as a Chrome/Perfetto trace.
///
/// Each `traceEvents` entry is appended to the document text as soon as
/// it is known; only the open EX slices are held back.
#[derive(Debug)]
pub struct PerfettoWriter {
    layout: TrackLayout,
    /// The document so far, inside the open `traceEvents` array.
    out: Writer,
    /// Per-PE open EX slice: (start cycle, instance, thread).
    open: Vec<Option<(u64, u64, u32)>>,
    last_ts: u64,
    dropped: u64,
}

impl PerfettoWriter {
    /// Creates a writer, emitting the track-naming metadata up front.
    pub fn new(layout: TrackLayout) -> Self {
        let mut out = Writer::new();
        out.begin_obj();
        out.key("traceEvents");
        out.begin_arr();
        for node in 0..layout.nodes {
            let pid = node as u64 + 1;
            metadata(&mut out, "process_name", pid, 0, &format!("node {node}"));
        }
        for pe in 0..layout.total_pes {
            let pid = layout.node_of(pe) as u64 + 1;
            metadata(
                &mut out,
                "thread_name",
                pid,
                pe as u64 + 1,
                &format!("pe {pe}"),
            );
            let mfc = MFC_TID_BASE + pe as u64;
            metadata(&mut out, "thread_name", pid, mfc, &format!("mfc {pe}"));
        }
        for node in 0..layout.nodes {
            let pid = node as u64 + 1;
            let dse = DSE_TID_BASE + node as u64;
            metadata(&mut out, "thread_name", pid, dse, &format!("dse {node}"));
        }
        let n = layout.total_pes as usize;
        PerfettoWriter {
            layout,
            out,
            open: vec![None; n],
            last_ts: 0,
            dropped: 0,
        }
    }

    fn pe_pid(&self, pe: u16) -> u64 {
        self.layout.node_of(pe) as u64 + 1
    }

    fn close_slice(&mut self, pe: u16, end: u64, reason: &str) {
        let Some((start, instance, thread)) =
            self.open.get_mut(pe as usize).and_then(|slot| slot.take())
        else {
            return;
        };
        let pid = self.pe_pid(pe);
        let w = &mut self.out;
        event(
            w,
            "X",
            &self.layout.thread_name(thread),
            start,
            pid,
            pe as u64 + 1,
        );
        w.key("dur");
        w.u64(end.saturating_sub(start));
        w.key("cat");
        w.str("ex");
        // Chrome trace palette name keyed on why the span ended: slices
        // that end blocked on memory render distinctly from clean stops,
        // making stall structure visible at a glance in the timeline.
        let cname = match reason {
            "wait-dma" => "thread_state_iowait",
            "wait-falloc" => "thread_state_runnable",
            "stop" => "good",
            _ => "thread_state_running",
        };
        w.key("cname");
        w.str(cname);
        w.key("args");
        w.begin_obj();
        w.key("instance");
        w.u64(instance & 0xFFFF_FFFF);
        w.key("end");
        w.str(reason);
        w.end_obj();
        w.end_obj();
    }

    fn instant(&mut self, name: &str, ts: u64, pid: u64, tid: u64) {
        event(&mut self.out, "i", name, ts, pid, tid);
        self.out.key("s");
        self.out.str("t");
        self.out.end_obj();
    }

    fn counter(&mut self, name: &str, ts: u64, pid: u64, value: u64) {
        let w = &mut self.out;
        event(w, "C", name, ts, pid, 0);
        w.key("args");
        w.begin_obj();
        w.key("value");
        w.u64(value);
        w.end_obj();
        w.end_obj();
    }

    /// An async DMA span edge (`ph` `b` or `e`) on the PE's MFC track.
    fn dma_edge(&mut self, ph: &str, ts: u64, pe: u16, tag: u8) {
        let pid = self.pe_pid(pe);
        let w = &mut self.out;
        event(w, ph, "dma", ts, pid, MFC_TID_BASE + pe as u64);
        w.key("cat");
        w.str("dma");
        w.key("id");
        w.str(&format!("{pe}.{tag}"));
        w.end_obj();
    }

    /// Maps a message source rank onto a (pid, tid) track.
    fn rank_track(&self, rank: u32) -> Option<(u64, u64)> {
        let total = self.layout.total_pes as u32;
        if rank < total {
            let pe = rank as u16;
            Some((self.pe_pid(pe), pe as u64 + 1))
        } else if rank < total + self.layout.nodes as u32 {
            let node = (rank - total) as u64;
            Some((node + 1, DSE_TID_BASE + node))
        } else {
            None
        }
    }

    fn dse_track(&self, node: u16) -> (u64, u64) {
        (node as u64 + 1, DSE_TID_BASE + node as u64)
    }

    /// Finishes the trace (closing still-open slices) and renders it.
    pub fn finish(mut self) -> String {
        let end = self.last_ts + 1;
        for pe in 0..self.open.len() {
            self.close_slice(pe as u16, end, "run-end");
        }
        let mut w = self.out;
        w.end_arr();
        w.key("displayTimeUnit");
        w.str("ns");
        w.key("otherData");
        w.begin_obj();
        w.key("source");
        w.str("dta-obs");
        w.key("droppedRecords");
        w.u64(self.dropped);
        w.end_obj();
        w.end_obj();
        w.finish()
    }
}

impl ObsSink for PerfettoWriter {
    fn record(&mut self, rec: &ObsRecord) {
        self.last_ts = self.last_ts.max(rec.cycle);
        let ts = rec.cycle;
        match rec.ev {
            ObsEvent::Thread {
                pe,
                instance,
                thread,
                what,
            } => {
                let (pid, pe_tid) = (self.pe_pid(pe), pe as u64 + 1);
                match what {
                    ThreadEvent::Dispatched => {
                        self.close_slice(pe, ts, "redispatch");
                        if let Some(slot) = self.open.get_mut(pe as usize) {
                            *slot = Some((ts, instance, thread));
                        }
                    }
                    ThreadEvent::WaitDma => self.close_slice(pe, ts, "wait-dma"),
                    ThreadEvent::ParkedWaitFalloc => self.close_slice(pe, ts, "wait-falloc"),
                    ThreadEvent::Stopped => self.close_slice(pe, ts, "stop"),
                    ThreadEvent::DmaIssued { tag } => self.dma_edge("b", ts, pe, tag),
                    ThreadEvent::DmaCompleted { tag } => self.dma_edge("e", ts, pe, tag),
                    ThreadEvent::PfOffloaded => {
                        self.instant("pf-offload", ts, pid, pe_tid);
                    }
                    ThreadEvent::ReadBlocked => {
                        self.instant("read-blocked", ts, pid, pe_tid);
                    }
                    ThreadEvent::FrameGranted { .. }
                    | ThreadEvent::StoreApplied { .. }
                    | ThreadEvent::FrameFreed => {}
                }
            }
            ObsEvent::Gauge { pe, kind, value } => {
                let pid = self.pe_pid(pe);
                let name = match kind {
                    GaugeKind::ReadyQueue => format!("pe{pe} ready-queue"),
                    GaugeKind::FramesInUse => format!("pe{pe} frames"),
                    GaugeKind::DmaInFlight => format!("pe{pe} dma-in-flight"),
                    GaugeKind::PipeState => format!("pe{pe} pipe-state"),
                };
                self.counter(&name, ts, pid, value);
            }
            ObsEvent::DmaRetry { pe, retries } => {
                let pid = self.pe_pid(pe);
                self.instant(
                    &format!("dma-retry x{retries}"),
                    ts,
                    pid,
                    MFC_TID_BASE + pe as u64,
                );
            }
            ObsEvent::DmaExhausted { pe } => {
                let pid = self.pe_pid(pe);
                self.instant("dma-exhausted", ts, pid, MFC_TID_BASE + pe as u64);
            }
            ObsEvent::PeDegraded { pe } => {
                self.instant("degraded", ts, self.pe_pid(pe), pe as u64 + 1);
            }
            ObsEvent::WatchdogPark { pe, .. } => {
                self.instant("watchdog-park", ts, self.pe_pid(pe), pe as u64 + 1);
            }
            ObsEvent::FallbackSubstituted { pe, .. } => {
                self.instant("fallback", ts, self.pe_pid(pe), pe as u64 + 1);
            }
            ObsEvent::MsgDropped { src, .. } => {
                if let Some((pid, tid)) = self.rank_track(src) {
                    self.instant("msg-dropped", ts, pid, tid);
                }
            }
            ObsEvent::MsgDuplicated { src } => {
                if let Some((pid, tid)) = self.rank_track(src) {
                    self.instant("msg-duplicated", ts, pid, tid);
                }
            }
            ObsEvent::MsgDelayed { src } => {
                if let Some((pid, tid)) = self.rank_track(src) {
                    self.instant("msg-delayed", ts, pid, tid);
                }
            }
            ObsEvent::FallocDenied { node, requester } => {
                let (pid, tid) = self.dse_track(node);
                self.instant(&format!("falloc-denied pe{requester}"), ts, pid, tid);
            }
            ObsEvent::FallocRearb { node, grants } => {
                let (pid, tid) = self.dse_track(node);
                self.instant(&format!("falloc-rearb x{grants}"), ts, pid, tid);
            }
            ObsEvent::DseCrash { node } => {
                let (pid, tid) = self.dse_track(node);
                self.instant("crash", ts, pid, tid);
            }
            ObsEvent::DseFailover { node, successor } => {
                let (pid, tid) = self.dse_track(node);
                self.instant(&format!("failover→dse{successor}"), ts, pid, tid);
            }
            ObsEvent::DseRehomed { node, count } => {
                let (pid, tid) = self.dse_track(node);
                self.instant(&format!("rehomed x{count}"), ts, pid, tid);
            }
            ObsEvent::DseRestart { node } => {
                let (pid, tid) = self.dse_track(node);
                self.instant("restart", ts, pid, tid);
            }
            ObsEvent::DseResync { node, pe, free } => {
                let (pid, tid) = self.dse_track(node);
                self.instant(&format!("resync pe{pe} free={free}"), ts, pid, tid);
            }
            ObsEvent::LseCrash { pe } => {
                self.instant("lse-crash", ts, self.pe_pid(pe), pe as u64 + 1);
            }
            ObsEvent::LseRestart { pe } => {
                self.instant("lse-restart", ts, self.pe_pid(pe), pe as u64 + 1);
            }
            ObsEvent::LseEvacuated { pe, count } => {
                self.instant(
                    &format!("lse-evacuated x{count}"),
                    ts,
                    self.pe_pid(pe),
                    pe as u64 + 1,
                );
            }
            ObsEvent::LseReadmitted { pe, home } => {
                self.instant(
                    &format!("lse-readmitted from pe{home}"),
                    ts,
                    self.pe_pid(pe),
                    pe as u64 + 1,
                );
            }
            ObsEvent::LseKilled { pe, count } => {
                self.instant(
                    &format!("lse-killed x{count}"),
                    ts,
                    self.pe_pid(pe),
                    pe as u64 + 1,
                );
            }
            ObsEvent::Epoch { .. } => {}
        }
    }

    fn dropped(&mut self, n: u64) {
        self.dropped += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_json::Json;

    fn layout() -> TrackLayout {
        TrackLayout {
            total_pes: 2,
            pes_per_node: 2,
            nodes: 1,
            thread_names: vec!["main".to_string(), "worker \"pf\"".to_string()],
        }
    }

    fn thread(cycle: u64, seq: u64, pe: u16, what: ThreadEvent) -> ObsRecord {
        ObsRecord {
            cycle,
            unit: pe as u32,
            seq,
            ev: ObsEvent::Thread {
                pe,
                instance: 3,
                thread: 1,
                what,
            },
        }
    }

    #[test]
    fn output_is_valid_json_with_slices_and_spans() {
        let mut w = PerfettoWriter::new(layout());
        w.record(&thread(10, 0, 0, ThreadEvent::DmaIssued { tag: 1 }));
        w.record(&thread(12, 1, 0, ThreadEvent::Dispatched));
        w.record(&thread(18, 2, 0, ThreadEvent::DmaCompleted { tag: 1 }));
        w.record(&thread(20, 3, 0, ThreadEvent::Stopped));
        w.record(&ObsRecord {
            cycle: 16,
            unit: 2,
            seq: 0,
            ev: ObsEvent::DseCrash { node: 0 },
        });
        let text = w.finish();
        let json = dta_json::parse(&text).expect("writer must emit parseable JSON");
        let evs = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        let slice = evs
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("one EX slice");
        assert_eq!(slice.get("ts").and_then(Json::as_u64), Some(12));
        assert_eq!(slice.get("dur").and_then(Json::as_u64), Some(8));
        // Thread name with an embedded quote survives escaping.
        assert_eq!(
            slice.get("name").and_then(Json::as_str),
            Some("worker \"pf\"")
        );
        assert!(evs
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("b")));
        assert!(evs
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("e")));
        assert!(evs
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("crash")));
    }

    #[test]
    fn open_slices_close_at_finish() {
        let mut w = PerfettoWriter::new(layout());
        w.record(&thread(5, 0, 1, ThreadEvent::Dispatched));
        let text = w.finish();
        let json = dta_json::parse(&text).unwrap();
        let evs = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        let slice = evs
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        assert_eq!(slice.get("dur").and_then(Json::as_u64), Some(1));
    }
}
