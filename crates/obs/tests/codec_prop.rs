//! Property tests for the observability codec: randomized streams
//! covering every event tag (0–22) and thread sub-tag (0–10) must
//! round-trip encode → decode → encode with byte-identical canonical
//! text. The generator is a fixed-seed LCG, so failures reproduce.

use dta_obs::codec::{
    event_from_str, event_to_string, histogram_from_json, histogram_to_json, record_from_str,
    record_to_string, stream_from_str, stream_to_string,
};
use dta_obs::{GaugeKind, Histogram, ObsEvent, ObsRecord, ObsStream, ThreadEvent};

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn gen_thread_event(r: &mut Lcg) -> ThreadEvent {
    match r.pick(11) {
        0 => ThreadEvent::FrameGranted { frame: r.next() },
        1 => ThreadEvent::StoreApplied {
            slot: r.next() as u16,
            became_ready: r.pick(2) == 1,
        },
        2 => ThreadEvent::Dispatched,
        3 => ThreadEvent::PfOffloaded,
        4 => ThreadEvent::DmaIssued {
            tag: r.next() as u8,
        },
        5 => ThreadEvent::DmaCompleted {
            tag: r.next() as u8,
        },
        6 => ThreadEvent::WaitDma,
        7 => ThreadEvent::ParkedWaitFalloc,
        8 => ThreadEvent::Stopped,
        9 => ThreadEvent::FrameFreed,
        _ => ThreadEvent::ReadBlocked,
    }
}

fn gen_gauge_kind(r: &mut Lcg) -> GaugeKind {
    match r.pick(4) {
        0 => GaugeKind::ReadyQueue,
        1 => GaugeKind::FramesInUse,
        2 => GaugeKind::DmaInFlight,
        _ => GaugeKind::PipeState,
    }
}

fn gen_event(r: &mut Lcg) -> ObsEvent {
    let pe = |r: &mut Lcg| r.next() as u16;
    let node = |r: &mut Lcg| r.next() as u16;
    match r.pick(22) {
        0 => ObsEvent::Thread {
            pe: pe(r),
            instance: r.next(),
            thread: r.next() as u32,
            what: gen_thread_event(r),
        },
        1 => ObsEvent::DmaRetry {
            pe: pe(r),
            retries: r.next() as u32,
        },
        2 => ObsEvent::DmaExhausted { pe: pe(r) },
        3 => ObsEvent::PeDegraded { pe: pe(r) },
        4 => ObsEvent::WatchdogPark {
            pe: pe(r),
            instance: r.next(),
        },
        5 => ObsEvent::FallbackSubstituted {
            pe: pe(r),
            thread: r.next() as u32,
        },
        6 => ObsEvent::MsgDropped {
            src: r.next() as u32,
            resend_at: r.next(),
        },
        7 => ObsEvent::MsgDuplicated {
            src: r.next() as u32,
        },
        8 => ObsEvent::MsgDelayed {
            src: r.next() as u32,
        },
        9 => ObsEvent::FallocDenied {
            node: node(r),
            requester: r.next() as u16,
        },
        10 => ObsEvent::FallocRearb {
            node: node(r),
            grants: r.next() as u32,
        },
        11 => ObsEvent::DseCrash { node: node(r) },
        12 => ObsEvent::DseFailover {
            node: node(r),
            successor: r.next() as u16,
        },
        13 => ObsEvent::DseRehomed {
            node: node(r),
            count: r.next(),
        },
        14 => ObsEvent::DseRestart { node: node(r) },
        15 => ObsEvent::DseResync {
            node: node(r),
            pe: pe(r),
            free: r.next() as u32,
        },
        16 => ObsEvent::Gauge {
            pe: pe(r),
            kind: gen_gauge_kind(r),
            value: r.next(),
        },
        17 => ObsEvent::LseCrash { pe: pe(r) },
        18 => ObsEvent::LseRestart { pe: pe(r) },
        19 => ObsEvent::LseEvacuated {
            pe: pe(r),
            count: r.next(),
        },
        20 => ObsEvent::LseReadmitted {
            pe: pe(r),
            home: r.next() as u16,
        },
        _ => ObsEvent::LseKilled {
            pe: pe(r),
            count: r.next(),
        },
    }
}

fn gen_stream(r: &mut Lcg, len: usize) -> ObsStream {
    let records = (0..len)
        .map(|_| ObsRecord {
            cycle: r.next(),
            unit: r.next() as u32,
            seq: r.next(),
            ev: gen_event(r),
        })
        .collect();
    // from_records canonicalizes order, so the first encoding below is
    // already the canonical text.
    ObsStream::from_records(records, r.next())
}

#[test]
fn random_events_reencode_byte_identically() {
    let mut r = Lcg(0xC0DEC);
    for i in 0..4000 {
        let ev = gen_event(&mut r);
        let text = event_to_string(&ev);
        let back =
            event_from_str(&text).unwrap_or_else(|| panic!("event {i} failed to decode: {text}"));
        assert_eq!(back, ev, "event {i} changed across the round-trip");
        let text2 = event_to_string(&back);
        assert_eq!(text2, text, "event {i} re-encoded differently");
    }
}

#[test]
fn random_streams_reencode_byte_identically() {
    let mut r = Lcg(0x57AB1E);
    for i in 0..40 {
        let stream = gen_stream(&mut r, 250);
        let text = stream_to_string(&stream);
        let back = stream_from_str(&text).unwrap_or_else(|| panic!("stream {i} failed to decode"));
        assert_eq!(back, stream, "stream {i} changed across the round-trip");
        let text2 = stream_to_string(&back);
        assert_eq!(text2, text, "stream {i} re-encoded differently");
    }
}

#[test]
fn every_record_field_survives_full_u64_range() {
    // High bits exercise the u64_json string fallback above 2^53.
    let mut r = Lcg(0xFFFF);
    for _ in 0..500 {
        let rec = ObsRecord {
            cycle: r.next() | (1 << 62),
            unit: r.next() as u32,
            seq: r.next() | (1 << 63),
            ev: ObsEvent::Thread {
                pe: r.next() as u16,
                instance: r.next() | (0xABu64 << 56),
                thread: r.next() as u32,
                what: ThreadEvent::FrameGranted {
                    frame: r.next() | (1 << 60),
                },
            },
        };
        let text = record_to_string(&rec);
        let back = record_from_str(&text).unwrap();
        assert_eq!(back, rec);
        assert_eq!(record_to_string(&back), text);
    }
}

#[test]
fn random_engine_reports_reencode_byte_identically() {
    // The EngineReport codec lives in dta-core, but it rides on this
    // crate's histogram codec and JSON numerics; pin the full report
    // next to the other codec properties. The core stats codec carries
    // counters as plain JSON numbers, exact up to 2^53 — Lcg::next()
    // (53 bits) spans exactly that domain.
    use dta_json::ToJson;
    let mut r = Lcg(0x3E7A11);
    for i in 0..200 {
        let mut heap = Histogram::default();
        for _ in 0..r.pick(32) {
            heap.add(r.next() >> r.pick(60));
        }
        let report = dta_core::EngineReport {
            visited_cycles: r.next(),
            pe_ticks: r.next(),
            skipped_ticks: r.next(),
            run_wall_us: r.next(),
            wake_heap_occupancy: heap,
            pe_deliveries: r.next(),
            dse_deliveries: r.next(),
            mem_requests: r.next(),
            // The retired memo counters are always zero and not encoded.
            ..Default::default()
        };
        let text = report.to_json().to_string_compact();
        let back = dta_core::EngineReport::from_json(&dta_json::parse(&text).unwrap())
            .unwrap_or_else(|| panic!("report {i} failed to decode: {text}"));
        assert_eq!(back, report, "report {i} changed across the round-trip");
        assert_eq!(
            back.to_json().to_string_compact(),
            text,
            "report {i} re-encoded differently"
        );
    }
}

#[test]
fn random_histograms_reencode_byte_identically() {
    let mut r = Lcg(0x4157);
    for _ in 0..200 {
        let mut h = Histogram::default();
        for _ in 0..r.pick(64) {
            h.add(r.next() >> r.pick(60));
        }
        let text = histogram_to_json(&h).to_string_compact();
        let back = histogram_from_json(&dta_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
        assert_eq!(histogram_to_json(&back).to_string_compact(), text);
    }
}
