//! Spans around the benchmark's calls into each layer of the simulator.
//!
//! Spans stay in memory and are written out when the run ends, as Chrome
//! trace JSON that opens in ui.perfetto.dev. A span's layer is its name up
//! to the first `.` (`system.run` belongs to `system`); a pass is a root
//! span named `pass` whose children are the layer calls of that pass.

use dta_json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
pub struct Span {
    /// `<layer>.<call>`, or `pass` / `setup` for a root.
    pub name: &'static str,
    /// The job the call worked on (empty for roots).
    pub job: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    /// Nanoseconds since the tracer started (`start` while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Which pass (or set-up) the span belongs to.
    pub pass: u32,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
            pass: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. A root span starts a
    /// new pass id.
    pub fn enter(&mut self, name: &'static str, job: &'static str) -> usize {
        if self.open.is_empty() {
            self.pass += 1;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            job,
            start,
            end: start,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end = self.now();
    }

    /// Each span's self time: its duration minus the part of it that its
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start);
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur() - covered.min(s.dur())
            })
            .collect()
    }

    /// The spans as a Chrome trace document (complete `X` events, µs).
    pub fn chrome_trace(&self) -> Json {
        let us = |ns: u64| Json::Num(ns as f64 / 1e3);
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("cat", Json::Str(s.layer().into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", us(s.start)),
                    ("dur", us(s.dur())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("job", Json::Str(s.job.into())),
                            ("pass", Json::Num(s.pass as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }

    /// Milliseconds per root span of kind `root`, keyed by span name (and
    /// by `name.job`), summed within each root. Roots without a matching
    /// span contribute 0, so every vector has one entry per root.
    pub fn per_root_ms(&self, root: &str) -> BTreeMap<String, Vec<f64>> {
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none() && self.spans[i].name == root)
            .collect();
        let slot: BTreeMap<usize, usize> = roots.iter().enumerate().map(|(k, &i)| (i, k)).collect();
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            let Some(&k) = s.parent.and_then(|p| slot.get(&p)) else {
                continue;
            };
            for key in [s.name.to_string(), format!("{}.{}", s.name, s.job)] {
                out.entry(key).or_insert_with(|| vec![0.0; roots.len()])[k] += s.dur() as f64 / 1e6;
            }
        }
        out
    }

    /// Per root span of kind `root`: its duration, its own self time (the
    /// part no layer span covers), and each layer's self time, all in ms.
    pub fn layer_self_ms(&self, root: &str) -> Vec<PassSelf> {
        let own = self.self_times();
        let mut passes: Vec<PassSelf> = Vec::new();
        let mut slot = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && s.name == root {
                slot.insert(i, passes.len());
                passes.push(PassSelf {
                    total_ms: s.dur() as f64 / 1e6,
                    residual_ms: own[i] as f64 / 1e6,
                    layers: BTreeMap::new(),
                });
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(&k) = s.parent.and_then(|p| slot.get(&p)) {
                *passes[k].layers.entry(s.layer()).or_default() += own[i] as f64 / 1e6;
            }
        }
        passes
    }
}

/// How one traced pass's time splits over the layers.
pub struct PassSelf {
    /// The pass's duration.
    pub total_ms: f64,
    /// Time inside the pass that no layer span covers.
    pub residual_ms: f64,
    /// Self time per layer.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Runs `f` inside a leaf span when tracing, and just runs it otherwise.
pub fn span<R>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    job: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        None => f(),
        Some(t) => {
            let id = t.enter(name, job);
            let r = f();
            t.exit(id);
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, start, end, parent) in spans {
            t.spans.push(Span {
                name,
                job: "j",
                start,
                end,
                parent,
                pass: 1,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let t = fixed(&[
            ("pass", 0, 100, None),
            ("system.run", 10, 40, Some(0)),
            ("system.new", 30, 50, Some(0)),
            ("job.key", 60, 70, Some(0)),
        ]);
        assert_eq!(t.self_times(), vec![50, 30, 20, 10]);
        let passes = t.layer_self_ms("pass");
        assert_eq!(passes.len(), 1);
        let p = &passes[0];
        assert_eq!(p.total_ms * 1e6, 100.0);
        assert_eq!(p.residual_ms * 1e6, 50.0);
        assert_eq!(p.layers["system"] * 1e6, 50.0);
        assert_eq!(p.layers["job"] * 1e6, 10.0);
    }

    #[test]
    fn nested_spans_get_parents_and_pass_ids() {
        let mut t = Tracer::new();
        for _ in 0..2 {
            let root = t.enter("pass", "");
            let mut tr = Some(&mut t);
            span(&mut tr, "system.run", "mmul", || ());
            t.exit(root);
        }
        let s = &t.spans;
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[1].pass), (Some(0), 1));
        assert_eq!((s[3].parent, s[3].pass), (Some(2), 2));
        let per = t.per_root_ms("pass");
        assert_eq!(per["system.run.mmul"].len(), 2);
        let doc = t.chrome_trace().to_string_compact();
        assert!(dta_json::parse(&doc).is_ok());
    }
}
