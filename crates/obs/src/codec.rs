//! JSON codec for observability streams.
//!
//! [`ObsStream`]s ride inside cached `JobResult`s, so they need a
//! canonical, lossless round-trip. Records encode as compact tagged
//! arrays (`[cycle, unit, seq, [event-tag, ...]]`) rather than keyed
//! objects: a stream can hold hundreds of thousands of records and the
//! array form keeps canonical payloads small while staying diffable.
//! Streams are written straight to text with a [`Writer`] and read back
//! with a [`Reader`], with no [`Json`] tree in between; the small
//! histogram encoding stays on the tree.
//!
//! `u64` payloads that can carry high tag bits (sequence stamps,
//! instance tokens) use the [`dta_json::u64_json`] encoding so the full
//! 64-bit range survives readers that hold numbers as `f64`. Decoding is
//! strict: every narrow field is range-checked into its type, arrays
//! must have their exact length, and anything else is refused, so a
//! decoded value always re-encodes to the text it came from (up to
//! record order and whitespace).

use crate::{GaugeKind, Histogram, ObsEvent, ObsRecord, ObsStream, ThreadEvent};
use dta_json::{read_document, u64_from_json, u64_json, Json, ParseError, Reader, Writer};

/// Encodes a [`Histogram`] sparsely as
/// `{"buckets": [[bit_len, count], ...], "total": n, "sum": n, "max": n}`
/// (most of the 65 bit-length buckets are empty).
pub fn histogram_to_json(h: &Histogram) -> Json {
    let buckets: Vec<Json> = h
        .counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| Json::Arr(vec![Json::Num(i as f64), u64_json(c)]))
        .collect();
    Json::obj([
        ("buckets", Json::Arr(buckets)),
        ("total", u64_json(h.total)),
        ("sum", u64_json(h.sum)),
        ("max", u64_json(h.max)),
    ])
}

/// Decodes a histogram written by [`histogram_to_json`].
pub fn histogram_from_json(v: &Json) -> Option<Histogram> {
    let mut h = Histogram {
        total: u64_from_json(v.get("total")?)?,
        sum: u64_from_json(v.get("sum")?)?,
        max: u64_from_json(v.get("max")?)?,
        ..Histogram::default()
    };
    for b in v.get("buckets")?.as_arr()? {
        let pair = b.as_arr()?;
        if pair.len() != 2 {
            return None;
        }
        let i = pair[0].as_u64()? as usize;
        if i >= h.counts.len() {
            return None;
        }
        h.counts[i] = u64_from_json(&pair[1])?;
    }
    Some(h)
}

/// Writes a stream as `{"records": [...], "dropped": n}`.
pub fn write_stream(w: &mut Writer, s: &ObsStream) {
    w.begin_obj();
    w.key("records");
    w.begin_arr();
    for r in &s.records {
        write_record(w, r);
    }
    w.end_arr();
    w.key("dropped");
    w.u64_json(s.dropped);
    w.end_obj();
}

/// Reads a stream written by [`write_stream`].
///
/// Records are re-sorted by their deterministic key on the way in, so a
/// decoded stream is canonical even if the document was edited.
pub fn read_stream(r: &mut Reader) -> Result<ObsStream, ParseError> {
    r.begin_obj()?;
    r.key("records")?;
    r.begin_arr()?;
    let mut records = Vec::new();
    while r.more()? {
        records.push(read_record(r)?);
    }
    r.key("dropped")?;
    let dropped = r.u64_json()?;
    r.end_obj()?;
    Ok(ObsStream::from_records(records, dropped))
}

/// The [`write_stream`] text of a stream.
pub fn stream_to_string(s: &ObsStream) -> String {
    render(|w| write_stream(w, s))
}

/// Decodes a whole document written by [`stream_to_string`].
pub fn stream_from_str(text: &str) -> Option<ObsStream> {
    read_document(text, read_stream).ok()
}

/// The text of one record, `[cycle, unit, seq, event]`.
pub fn record_to_string(r: &ObsRecord) -> String {
    render(|w| write_record(w, r))
}

/// Decodes a whole document written by [`record_to_string`].
pub fn record_from_str(text: &str) -> Option<ObsRecord> {
    read_document(text, read_record).ok()
}

/// The text of one event, a tagged array.
pub fn event_to_string(ev: &ObsEvent) -> String {
    render(|w| write_event(w, ev))
}

/// Decodes a whole document written by [`event_to_string`].
pub fn event_from_str(text: &str) -> Option<ObsEvent> {
    read_document(text, read_event).ok()
}

fn render(f: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::new();
    f(&mut w);
    w.finish()
}

fn write_record(w: &mut Writer, r: &ObsRecord) {
    w.begin_arr();
    w.u64_json(r.cycle);
    w.u64(r.unit.into());
    w.u64_json(r.seq);
    write_event(w, &r.ev);
    w.end_arr();
}

fn read_record(r: &mut Reader) -> Result<ObsRecord, ParseError> {
    r.begin_arr()?;
    let rec = ObsRecord {
        cycle: next_wide(r)?,
        unit: next(r)?,
        seq: next_wide(r)?,
        ev: {
            item(r)?;
            read_event(r)?
        },
    };
    close(r)?;
    Ok(rec)
}

/// Steps to the next element of a fixed-length array.
fn item(r: &mut Reader) -> Result<(), ParseError> {
    if r.more()? {
        Ok(())
    } else {
        Err(r.err("array too short"))
    }
}

/// The next element: a narrow integer, range-checked into `T`.
fn next<T: TryFrom<i128>>(r: &mut Reader) -> Result<T, ParseError> {
    item(r)?;
    r.int()
}

/// The next element: a full-range `u64` in the `u64_json` encoding.
fn next_wide(r: &mut Reader) -> Result<u64, ParseError> {
    item(r)?;
    r.u64_json()
}

/// The end of a fixed-length array.
fn close(r: &mut Reader) -> Result<(), ParseError> {
    if r.more()? {
        Err(r.err("array too long"))
    } else {
        Ok(())
    }
}

/// A thread event as `(sub-tag, a, b)`; `a` is written in the
/// `u64_json` encoding (it carries full-width frame tokens), which for
/// every narrow payload is a plain number.
fn thread_event_parts(what: &ThreadEvent) -> (u64, u64, u64) {
    match *what {
        ThreadEvent::FrameGranted { frame } => (0, frame, 0),
        ThreadEvent::StoreApplied { slot, became_ready } => (1, slot.into(), became_ready.into()),
        ThreadEvent::Dispatched => (2, 0, 0),
        ThreadEvent::PfOffloaded => (3, 0, 0),
        ThreadEvent::DmaIssued { tag } => (4, tag.into(), 0),
        ThreadEvent::DmaCompleted { tag } => (5, tag.into(), 0),
        ThreadEvent::WaitDma => (6, 0, 0),
        ThreadEvent::ParkedWaitFalloc => (7, 0, 0),
        ThreadEvent::Stopped => (8, 0, 0),
        ThreadEvent::FrameFreed => (9, 0, 0),
        ThreadEvent::ReadBlocked => (10, 0, 0),
    }
}

/// Reads the `(sub-tag, a, b)` triple. Only the triple
/// [`thread_event_parts`] gives back for the decoded event is accepted,
/// so a narrowed field must fit its type, an unused slot must be 0 and
/// `became_ready` must be 0 or 1.
fn read_thread_event(r: &mut Reader) -> Result<ThreadEvent, ParseError> {
    let parts: (u64, u64, u64) = (next(r)?, next_wide(r)?, next(r)?);
    let (tag, a, b) = parts;
    let what = match tag {
        0 => ThreadEvent::FrameGranted { frame: a },
        1 => ThreadEvent::StoreApplied {
            slot: a as u16,
            became_ready: b != 0,
        },
        2 => ThreadEvent::Dispatched,
        3 => ThreadEvent::PfOffloaded,
        4 => ThreadEvent::DmaIssued { tag: a as u8 },
        5 => ThreadEvent::DmaCompleted { tag: a as u8 },
        6 => ThreadEvent::WaitDma,
        7 => ThreadEvent::ParkedWaitFalloc,
        8 => ThreadEvent::Stopped,
        9 => ThreadEvent::FrameFreed,
        10 => ThreadEvent::ReadBlocked,
        _ => return Err(r.err("unknown thread event tag")),
    };
    if thread_event_parts(&what) != parts {
        return Err(r.err("non-canonical thread event"));
    }
    Ok(what)
}

fn gauge_kind_from(slot: u64) -> Option<GaugeKind> {
    Some(match slot {
        0 => GaugeKind::ReadyQueue,
        1 => GaugeKind::FramesInUse,
        2 => GaugeKind::DmaInFlight,
        3 => GaugeKind::PipeState,
        _ => return None,
    })
}

/// One element of an event array.
#[derive(Clone, Copy)]
enum Field {
    /// A narrow number.
    N(u64),
    /// A full-range `u64` in the `u64_json` encoding.
    W(u64),
}

fn write_event(w: &mut Writer, ev: &ObsEvent) {
    use Field::{N, W};
    let p = |v: u16| N(v.into());
    let fields = |w: &mut Writer, fs: &[Field]| {
        w.begin_arr();
        for f in fs {
            match *f {
                N(v) => w.u64(v),
                W(v) => w.u64_json(v),
            }
        }
        w.end_arr();
    };
    match *ev {
        ObsEvent::Thread {
            pe,
            instance,
            thread,
            what,
        } => {
            let (tag, a, b) = thread_event_parts(&what);
            fields(
                w,
                &[
                    N(0),
                    p(pe),
                    W(instance),
                    N(thread.into()),
                    N(tag),
                    W(a),
                    N(b),
                ],
            )
        }
        ObsEvent::DmaRetry { pe, retries } => fields(w, &[N(1), p(pe), N(retries.into())]),
        ObsEvent::DmaExhausted { pe } => fields(w, &[N(2), p(pe)]),
        ObsEvent::PeDegraded { pe } => fields(w, &[N(3), p(pe)]),
        ObsEvent::WatchdogPark { pe, instance } => fields(w, &[N(4), p(pe), W(instance)]),
        ObsEvent::FallbackSubstituted { pe, thread } => fields(w, &[N(5), p(pe), N(thread.into())]),
        ObsEvent::MsgDropped { src, resend_at } => fields(w, &[N(6), N(src.into()), W(resend_at)]),
        ObsEvent::MsgDuplicated { src } => fields(w, &[N(7), N(src.into())]),
        ObsEvent::MsgDelayed { src } => fields(w, &[N(8), N(src.into())]),
        ObsEvent::FallocDenied { node, requester } => fields(w, &[N(9), p(node), p(requester)]),
        ObsEvent::FallocRearb { node, grants } => fields(w, &[N(10), p(node), N(grants.into())]),
        ObsEvent::DseCrash { node } => fields(w, &[N(11), p(node)]),
        ObsEvent::DseFailover { node, successor } => fields(w, &[N(12), p(node), p(successor)]),
        ObsEvent::DseRehomed { node, count } => fields(w, &[N(13), p(node), W(count)]),
        ObsEvent::DseRestart { node } => fields(w, &[N(14), p(node)]),
        ObsEvent::DseResync { node, pe, free } => {
            fields(w, &[N(15), p(node), p(pe), N(free.into())])
        }
        ObsEvent::Gauge { pe, kind, value } => fields(w, &[N(16), p(pe), N(kind.slot()), W(value)]),
        ObsEvent::Epoch { start, end } => fields(w, &[N(17), W(start), W(end)]),
        ObsEvent::LseCrash { pe } => fields(w, &[N(18), p(pe)]),
        ObsEvent::LseRestart { pe } => fields(w, &[N(19), p(pe)]),
        ObsEvent::LseEvacuated { pe, count } => fields(w, &[N(20), p(pe), W(count)]),
        ObsEvent::LseReadmitted { pe, home } => fields(w, &[N(21), p(pe), p(home)]),
        ObsEvent::LseKilled { pe, count } => fields(w, &[N(22), p(pe), W(count)]),
    }
}

/// Reads an event written by [`write_event`]: exact arity, and every
/// narrow field range-checked into its type.
fn read_event(r: &mut Reader) -> Result<ObsEvent, ParseError> {
    r.begin_arr()?;
    let ev = match next::<u64>(r)? {
        0 => ObsEvent::Thread {
            pe: next(r)?,
            instance: next_wide(r)?,
            thread: next(r)?,
            what: read_thread_event(r)?,
        },
        1 => ObsEvent::DmaRetry {
            pe: next(r)?,
            retries: next(r)?,
        },
        2 => ObsEvent::DmaExhausted { pe: next(r)? },
        3 => ObsEvent::PeDegraded { pe: next(r)? },
        4 => ObsEvent::WatchdogPark {
            pe: next(r)?,
            instance: next_wide(r)?,
        },
        5 => ObsEvent::FallbackSubstituted {
            pe: next(r)?,
            thread: next(r)?,
        },
        6 => ObsEvent::MsgDropped {
            src: next(r)?,
            resend_at: next_wide(r)?,
        },
        7 => ObsEvent::MsgDuplicated { src: next(r)? },
        8 => ObsEvent::MsgDelayed { src: next(r)? },
        9 => ObsEvent::FallocDenied {
            node: next(r)?,
            requester: next(r)?,
        },
        10 => ObsEvent::FallocRearb {
            node: next(r)?,
            grants: next(r)?,
        },
        11 => ObsEvent::DseCrash { node: next(r)? },
        12 => ObsEvent::DseFailover {
            node: next(r)?,
            successor: next(r)?,
        },
        13 => ObsEvent::DseRehomed {
            node: next(r)?,
            count: next_wide(r)?,
        },
        14 => ObsEvent::DseRestart { node: next(r)? },
        15 => ObsEvent::DseResync {
            node: next(r)?,
            pe: next(r)?,
            free: next(r)?,
        },
        16 => ObsEvent::Gauge {
            pe: next(r)?,
            kind: gauge_kind_from(next(r)?).ok_or_else(|| r.err("unknown gauge kind"))?,
            value: next_wide(r)?,
        },
        17 => ObsEvent::Epoch {
            start: next_wide(r)?,
            end: next_wide(r)?,
        },
        18 => ObsEvent::LseCrash { pe: next(r)? },
        19 => ObsEvent::LseRestart { pe: next(r)? },
        20 => ObsEvent::LseEvacuated {
            pe: next(r)?,
            count: next_wide(r)?,
        },
        21 => ObsEvent::LseReadmitted {
            pe: next(r)?,
            home: next(r)?,
        },
        22 => ObsEvent::LseKilled {
            pe: next(r)?,
            count: next_wide(r)?,
        },
        _ => return Err(r.err("unknown event tag")),
    };
    close(r)?;
    Ok(ev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GAUGE_SEQ_BIT, MSG_SEQ_BIT};

    fn sample_events() -> Vec<ObsEvent> {
        vec![
            ObsEvent::Thread {
                pe: 3,
                instance: (7 << 48) | 42,
                thread: 2,
                what: ThreadEvent::FrameGranted { frame: 1 << 60 },
            },
            ObsEvent::Thread {
                pe: 0,
                instance: 1,
                thread: 0,
                what: ThreadEvent::StoreApplied {
                    slot: 5,
                    became_ready: true,
                },
            },
            ObsEvent::Thread {
                pe: 1,
                instance: 2,
                thread: 1,
                what: ThreadEvent::DmaIssued { tag: 9 },
            },
            ObsEvent::Thread {
                pe: 1,
                instance: 2,
                thread: 1,
                what: ThreadEvent::Stopped,
            },
            ObsEvent::Thread {
                pe: 2,
                instance: 3,
                thread: 1,
                what: ThreadEvent::ReadBlocked,
            },
            ObsEvent::DmaRetry { pe: 4, retries: 3 },
            ObsEvent::DmaExhausted { pe: 4 },
            ObsEvent::PeDegraded { pe: 4 },
            ObsEvent::WatchdogPark {
                pe: 2,
                instance: u64::MAX,
            },
            ObsEvent::FallbackSubstituted { pe: 2, thread: 7 },
            ObsEvent::MsgDropped {
                src: 11,
                resend_at: 999,
            },
            ObsEvent::MsgDuplicated { src: 12 },
            ObsEvent::MsgDelayed { src: 13 },
            ObsEvent::FallocDenied {
                node: 1,
                requester: 6,
            },
            ObsEvent::FallocRearb { node: 1, grants: 2 },
            ObsEvent::DseCrash { node: 0 },
            ObsEvent::DseFailover {
                node: 0,
                successor: 1,
            },
            ObsEvent::DseRehomed { node: 0, count: 17 },
            ObsEvent::DseRestart { node: 0 },
            ObsEvent::DseResync {
                node: 0,
                pe: 3,
                free: 60,
            },
            ObsEvent::Gauge {
                pe: 5,
                kind: GaugeKind::DmaInFlight,
                value: 4,
            },
            ObsEvent::Epoch {
                start: 100,
                end: 200,
            },
            ObsEvent::LseCrash { pe: 6 },
            ObsEvent::LseRestart { pe: 6 },
            ObsEvent::LseEvacuated { pe: 6, count: 3 },
            ObsEvent::LseReadmitted { pe: 7, home: 6 },
            ObsEvent::LseKilled { pe: 6, count: 2 },
        ]
    }

    #[test]
    fn every_event_variant_roundtrips() {
        for (i, ev) in sample_events().into_iter().enumerate() {
            let text = event_to_string(&ev);
            assert_eq!(event_from_str(&text), Some(ev), "variant {i}");
        }
    }

    #[test]
    fn records_roundtrip_through_text_with_high_seq_bits() {
        let recs = vec![
            ObsRecord {
                cycle: 5,
                unit: 0,
                seq: GAUGE_SEQ_BIT | 3,
                ev: ObsEvent::Gauge {
                    pe: 0,
                    kind: GaugeKind::PipeState,
                    value: 2,
                },
            },
            ObsRecord {
                cycle: 9,
                unit: 8,
                seq: MSG_SEQ_BIT | 1,
                ev: ObsEvent::MsgDropped {
                    src: 0,
                    resend_at: 209,
                },
            },
        ];
        let stream = ObsStream::from_records(recs, 3);
        let text = stream_to_string(&stream);
        assert_eq!(stream_from_str(&text), Some(stream));
    }

    /// Every input here is refused. Each of the lossy ones used to decode
    /// to a value that re-encodes to different text: a narrow field
    /// truncated with `as`, a fraction or a leading zero accepted, or a
    /// slot the encoding never fills ignored.
    #[test]
    fn decode_rejects_malformed_documents() {
        assert!(stream_from_str("null").is_none());
        assert!(stream_from_str(r#"{"dropped":0,"records":[]}"#).is_none());
        assert!(stream_from_str(r#"{"records":[],"dropped":0} x"#).is_none());
        for bad in [
            "[99]",
            // `pe` is a u16: 65537 used to decode as pe 1.
            "[0,65537,5,1,2,0,0]",
            "[2,1.5]",
            "[2,1.0]",
            "[2,1e0]",
            "[2,01]",
            "[2,-1]",
            "[2,1,0]",
            "[2]",
            // Thread sub-events: unused slots must be 0, flags 0 or 1,
            // DMA tags a u8.
            "[0,1,5,1,2,7,0]",
            "[0,1,5,1,1,3,2]",
            "[0,1,5,1,4,256,0]",
            "[0,1,5,1,11,0,0]",
            // Gauge kinds are 0..=3.
            "[16,1,4,0]",
        ] {
            assert!(event_from_str(bad).is_none(), "{bad} decoded");
        }
        assert!(record_from_str("[1]").is_none());
        // `unit` is a u32: 2^32 + 1 used to decode as unit 1.
        assert!(record_from_str("[0,4294967297,0,[2,1]]").is_none());
        assert!(record_from_str("[0,1,0,[2,1],5]").is_none());
        assert!(record_from_str(r#"[0,1,"5",[2,1]]"#).is_none());
        assert_eq!(
            record_from_str(" [ 0 , 1 , 0 , [ 2 , 1 ] ] "),
            Some(ObsRecord {
                cycle: 0,
                unit: 1,
                seq: 0,
                ev: ObsEvent::DmaExhausted { pe: 1 },
            }),
            "whitespace between tokens is skipped"
        );
    }
}
