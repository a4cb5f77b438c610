//! Post-run analysis over the merged observability stream: per-thread /
//! per-instance stall breakdowns (the paper's Fig. 5, derived
//! automatically for any workload), PF coverage, and a cross-unit
//! critical path through the dependency chain instance executions →
//! DMA transfers → FALLOC grants.
//!
//! Everything here is a pure function of the deterministic stream plus
//! the per-PE attribution counters, so the analysis is as reproducible
//! as the run itself.

use crate::{FineCat, ObsEvent, ObsRecord, ThreadEvent, NUM_FINE};
use dta_json::Json;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Per-PE exclusive cycle attribution (copied out of the run stats).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PeAttribution {
    /// Global PE index.
    pub pe: u16,
    /// Total simulated cycles on this PE.
    pub cycles: u64,
    /// Exclusive per-category cycle counts (sums to `cycles`).
    pub fine: [u64; NUM_FINE],
}

impl PeAttribution {
    /// Category share of this PE's cycles, in percent.
    pub fn pct(&self, cat: FineCat) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            100.0 * self.fine[cat as usize] as f64 / self.cycles as f64
        }
    }
}

/// Aggregated lifecycle accounting for one static thread.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ThreadBreakdown {
    /// Static thread index.
    pub thread: u32,
    /// Display name (empty when unknown).
    pub name: String,
    /// Instances that ran to `STOP`.
    pub instances: u64,
    /// Cycles spent executing on the EX pipeline (dispatch → block).
    pub exec_cycles: u64,
    /// Cycles descheduled in *Wait for DMA* (Fig. 4).
    pub dma_wait_cycles: u64,
    /// Cycles parked waiting for a FALLOC grant.
    pub falloc_park_cycles: u64,
    /// Frame-grant → ready latency (producer-STORE completion).
    pub grant_to_ready_cycles: u64,
    /// DMA transfers issued on behalf of this thread's instances.
    pub dma_transfers: u64,
    /// Summed DMA issue → completion latency.
    pub dma_transfer_cycles: u64,
    /// Main-memory transfers moved by DMA (decoupled; PF coverage
    /// numerator — a proxy that also counts decoupled PUTs).
    pub reads_decoupled: u64,
    /// Blocking scalar READs issued on the EX pipeline.
    pub reads_blocking: u64,
}

impl ThreadBreakdown {
    /// Fraction of main-memory reads served by decoupled DMA instead of
    /// a blocking scalar READ (1.0 when there is no traffic at all).
    pub fn pf_coverage(&self) -> f64 {
        let total = self.reads_decoupled + self.reads_blocking;
        if total == 0 {
            1.0
        } else {
            self.reads_decoupled as f64 / total as f64
        }
    }
}

/// Kind of one critical-path edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EdgeKind {
    /// Executing on the EX pipeline.
    Exec,
    /// Descheduled, waiting on a DMA transfer that had not yet issued
    /// (MFC admission / queue delay).
    DmaWait,
    /// Descheduled, bound by an in-flight DMA transfer (bus + memory
    /// occupancy).
    DmaTransfer,
    /// Parked waiting for a FALLOC grant.
    FallocWait,
    /// Frame granted but waiting on producer STOREs.
    StoreWait,
    /// Granted-and-ready but not yet dispatched (scheduler latency), or
    /// the hand-off between chained instances.
    Sched,
    /// No recorded activity bounds this span (quiesced machine).
    Gap,
}

impl EdgeKind {
    /// All kinds, in display order.
    pub const ALL: [EdgeKind; 7] = [
        EdgeKind::Exec,
        EdgeKind::DmaWait,
        EdgeKind::DmaTransfer,
        EdgeKind::FallocWait,
        EdgeKind::StoreWait,
        EdgeKind::Sched,
        EdgeKind::Gap,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Exec => "exec",
            EdgeKind::DmaWait => "dma-wait",
            EdgeKind::DmaTransfer => "dma-transfer",
            EdgeKind::FallocWait => "falloc-wait",
            EdgeKind::StoreWait => "store-wait",
            EdgeKind::Sched => "sched",
            EdgeKind::Gap => "gap",
        }
    }
}

/// One aggregated critical-path edge class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CritEdge {
    /// Edge kind.
    pub kind: EdgeKind,
    /// Total cycles the walked path spent on edges of this kind.
    pub cycles: u64,
    /// Number of walked segments of this kind.
    pub count: u64,
}

/// The longest-dependency-chain summary produced by the backward walk.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CriticalPath {
    /// Cycle at which the walked chain ends (last `STOP`).
    pub end_cycle: u64,
    /// Cycle at which the walk terminated (no further predecessor).
    pub start_cycle: u64,
    /// Instances visited along the chain.
    pub instances: u64,
    /// Edge classes, ranked by cycles (descending).
    pub edges: Vec<CritEdge>,
}

impl CriticalPath {
    /// The heaviest edge class on the path (`None` on an empty walk).
    pub fn dominant(&self) -> Option<CritEdge> {
        self.edges.first().copied()
    }

    /// Total walked cycles.
    pub fn total_cycles(&self) -> u64 {
        self.edges.iter().map(|e| e.cycles).sum()
    }
}

/// The complete analysis product.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Analysis {
    /// Per-PE exclusive stall attribution.
    pub pes: Vec<PeAttribution>,
    /// Per-static-thread lifecycle breakdown, sorted by thread index.
    pub threads: Vec<ThreadBreakdown>,
    /// Cross-unit critical path.
    pub critical_path: CriticalPath,
}

/// Span-edge events of one instance, in stream order.
struct InstanceLog {
    /// (cycle, event) — only events that bound or classify spans.
    events: Vec<(u64, ThreadEvent)>,
}

/// Runs the analysis. `fine` and `cycles` are indexed by global PE (from
/// the run's `PeStats`); `thread_names` may be shorter than the thread
/// space (missing names render as `t<N>`).
pub fn analyze(
    stream: &[ObsRecord],
    fine: &[[u64; NUM_FINE]],
    cycles: &[u64],
    thread_names: &[String],
) -> Analysis {
    let pes = fine
        .iter()
        .zip(cycles.iter())
        .enumerate()
        .map(|(pe, (f, &c))| PeAttribution {
            pe: pe as u16,
            cycles: c,
            fine: *f,
        })
        .collect();

    // Single forward pass: per-thread accounting + per-instance logs for
    // the backward critical-path walk.
    let mut threads: HashMap<u32, ThreadBreakdown> = HashMap::new();
    let mut logs: HashMap<u64, InstanceLog> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    // Per-instance forward state: granted-at, became-ready flag,
    // last span-opening event (cycle + discriminant).
    let mut granted: HashMap<u64, u64> = HashMap::new();
    let mut open_dma: HashMap<(u64, u8), u64> = HashMap::new();
    #[derive(Clone, Copy)]
    enum St {
        Running(u64),
        WaitDma(u64),
        Parked(u64),
    }
    let mut state: HashMap<u64, St> = HashMap::new();

    for rec in stream {
        let ObsEvent::Thread {
            instance,
            thread,
            what,
            ..
        } = rec.ev
        else {
            continue;
        };
        let c = rec.cycle;
        let tb = threads.entry(thread).or_insert_with(|| ThreadBreakdown {
            thread,
            name: thread_names
                .get(thread as usize)
                .cloned()
                .unwrap_or_else(|| format!("t{thread}")),
            ..ThreadBreakdown::default()
        });
        match what {
            ThreadEvent::FrameGranted { .. } => {
                granted.insert(instance, c);
            }
            ThreadEvent::StoreApplied { became_ready, .. } => {
                if became_ready {
                    if let Some(g) = granted.remove(&instance) {
                        tb.grant_to_ready_cycles += c - g;
                    }
                }
            }
            ThreadEvent::Dispatched => {
                match state.get(&instance) {
                    Some(St::WaitDma(w)) => tb.dma_wait_cycles += c - w,
                    Some(St::Parked(p)) => tb.falloc_park_cycles += c - p,
                    Some(St::Running(r)) => tb.exec_cycles += c - r,
                    None => {}
                }
                state.insert(instance, St::Running(c));
            }
            ThreadEvent::WaitDma => {
                if let Some(St::Running(r)) = state.get(&instance) {
                    tb.exec_cycles += c - r;
                }
                state.insert(instance, St::WaitDma(c));
            }
            ThreadEvent::ParkedWaitFalloc => {
                if let Some(St::Running(r)) = state.get(&instance) {
                    tb.exec_cycles += c - r;
                }
                state.insert(instance, St::Parked(c));
            }
            ThreadEvent::Stopped => {
                if let Some(St::Running(r)) = state.remove(&instance) {
                    tb.exec_cycles += c - r;
                }
                tb.instances += 1;
            }
            ThreadEvent::DmaIssued { tag } => {
                open_dma.insert((instance, tag), c);
                tb.dma_transfers += 1;
                tb.reads_decoupled += 1;
            }
            ThreadEvent::DmaCompleted { tag } => {
                if let Some(i) = open_dma.remove(&(instance, tag)) {
                    tb.dma_transfer_cycles += c - i;
                }
            }
            ThreadEvent::ReadBlocked => tb.reads_blocking += 1,
            ThreadEvent::PfOffloaded | ThreadEvent::FrameFreed => {}
        }
        let log = logs.entry(instance).or_insert_with(|| {
            order.push(instance);
            InstanceLog { events: Vec::new() }
        });
        log.events.push((c, what));
    }

    let mut threads: Vec<ThreadBreakdown> = threads.into_values().collect();
    threads.sort_by_key(|t| t.thread);

    let critical_path = walk_critical_path(&logs, &order);

    Analysis {
        pes,
        threads,
        critical_path,
    }
}

/// Does this event open or close an execution-state span?
fn span_edge(ev: ThreadEvent) -> bool {
    matches!(
        ev,
        ThreadEvent::Dispatched
            | ThreadEvent::WaitDma
            | ThreadEvent::ParkedWaitFalloc
            | ThreadEvent::FrameGranted { .. }
            | ThreadEvent::Stopped
    )
}

/// Backward walk over the per-instance logs.
///
/// Starts from the latest `Stopped` event machine-wide (falling back to
/// the latest event of any kind) and repeatedly asks "what bounded this
/// span?": within an instance, each span between consecutive span-edge
/// events is classified by its opening event (a `WaitDma` span splits at
/// the completing transfer's issue time into queue-delay and
/// transfer-bound parts); when an instance's log is exhausted at its
/// frame grant, the walk jumps to the unit active most recently at that
/// cycle — the chain producer — and continues there. Instances are
/// visited at most once, so the walk terminates. Pure stream function ⇒
/// engine-invariant.
fn walk_critical_path(logs: &HashMap<u64, InstanceLog>, order: &[u64]) -> CriticalPath {
    // Terminal: latest Stopped (ties broken by first-seen order for
    // determinism), else latest event overall.
    let mut terminal: Option<(u64, u64)> = None; // (cycle, instance)
    for &id in order {
        let log = &logs[&id];
        let last_stop = log
            .events
            .iter()
            .rev()
            .find(|(_, e)| matches!(e, ThreadEvent::Stopped));
        if let Some(&(c, _)) = last_stop {
            if terminal.is_none_or(|(tc, _)| c > tc) {
                terminal = Some((c, id));
            }
        }
    }
    if terminal.is_none() {
        for &id in order {
            if let Some(&(c, _)) = logs[&id].events.last() {
                if terminal.is_none_or(|(tc, _)| c > tc) {
                    terminal = Some((c, id));
                }
            }
        }
    }
    let Some((end_cycle, mut cur)) = terminal else {
        return CriticalPath::default();
    };

    let mut acc: HashMap<EdgeKind, (u64, u64)> = HashMap::new();
    let mut charge = |kind: EdgeKind, cycles: u64| {
        let e = acc.entry(kind).or_insert((0, 0));
        e.0 += cycles;
        e.1 += 1;
    };
    let mut visited: Vec<u64> = vec![cur];
    let mut t = end_cycle;
    // Walk position: index *into* the current instance's event list of
    // the span-edge event that closes the current span at time `t`.
    let mut idx = logs[&cur]
        .events
        .iter()
        .rposition(|&(c, e)| c <= t && span_edge(e))
        .unwrap_or(0);

    loop {
        let log = &logs[&cur];
        // Find the span-edge event strictly before `idx` that opens the
        // span ending at `t`.
        let open = log.events[..idx].iter().rposition(|&(_, e)| span_edge(e));
        match open {
            Some(oi) => {
                let (oc, oe) = log.events[oi];
                let span = t.saturating_sub(oc);
                match oe {
                    ThreadEvent::Dispatched | ThreadEvent::Stopped => charge(EdgeKind::Exec, span),
                    ThreadEvent::ParkedWaitFalloc => charge(EdgeKind::FallocWait, span),
                    ThreadEvent::WaitDma => {
                        // Split at the completing transfer's issue time:
                        // the transfer that unblocked the wait completed
                        // inside (oc, t]; its issue bound is the last
                        // DmaIssued at or before the completion.
                        let done = log.events[..idx]
                            .iter()
                            .rev()
                            .find(|&&(c, e)| {
                                c > oc && c <= t && matches!(e, ThreadEvent::DmaCompleted { .. })
                            })
                            .map(|&(c, _)| c);
                        let issue = log.events[..idx]
                            .iter()
                            .rev()
                            .find(|&&(c, e)| c <= t && matches!(e, ThreadEvent::DmaIssued { .. }))
                            .map(|&(c, _)| c);
                        match (done, issue) {
                            (Some(_), Some(ic)) if ic > oc => {
                                charge(EdgeKind::DmaTransfer, t.saturating_sub(ic));
                                charge(EdgeKind::DmaWait, ic - oc);
                            }
                            (Some(_), _) => charge(EdgeKind::DmaTransfer, span),
                            _ => charge(EdgeKind::DmaWait, span),
                        }
                    }
                    ThreadEvent::FrameGranted { .. } => {
                        // Granted → first activity: producer stores if
                        // any landed in the window, else scheduling.
                        let stored = log.events[oi..idx]
                            .iter()
                            .any(|&(_, e)| matches!(e, ThreadEvent::StoreApplied { .. }));
                        charge(
                            if stored {
                                EdgeKind::StoreWait
                            } else {
                                EdgeKind::Sched
                            },
                            span,
                        );
                    }
                    _ => charge(EdgeKind::Gap, span),
                }
                t = oc;
                idx = oi;
            }
            None => {
                // Log exhausted (at or before the frame grant): jump to
                // the chain producer — the unvisited instance with the
                // latest event at or before `t` (first-seen order breaks
                // ties deterministically).
                let mut best: Option<(u64, u64, usize)> = None; // (cycle, id, idx)
                for &id in order {
                    if visited.contains(&id) {
                        continue;
                    }
                    let cand = &logs[&id];
                    if let Some(ci) = cand
                        .events
                        .iter()
                        .rposition(|&(c, e)| c <= t && span_edge(e))
                    {
                        let cc = cand.events[ci].0;
                        if best.is_none_or(|(bc, _, _)| cc > bc) {
                            best = Some((cc, id, ci));
                        }
                    }
                }
                let Some((cc, id, ci)) = best else {
                    break;
                };
                // The hand-off itself (grant arbitration + messaging).
                charge(EdgeKind::Sched, t.saturating_sub(cc));
                visited.push(id);
                cur = id;
                t = cc;
                idx = ci + 1; // span closes at the found edge
                              // Re-anchor: the found edge closes the previous span of
                              // the producer; continue walking below it.
            }
        }
        if t == 0 {
            break;
        }
        if visited.len() > logs.len() {
            break;
        }
    }

    let mut edges: Vec<CritEdge> = EdgeKind::ALL
        .iter()
        .filter_map(|&k| {
            acc.get(&k).map(|&(cycles, count)| CritEdge {
                kind: k,
                cycles,
                count,
            })
        })
        .collect();
    edges.sort_by_key(|e| std::cmp::Reverse(e.cycles));
    CriticalPath {
        end_cycle,
        start_cycle: t,
        instances: visited.len() as u64,
        edges,
    }
}

impl Analysis {
    /// Machine-wide attribution totals (index = `FineCat as usize`).
    pub fn totals(&self) -> [u64; NUM_FINE] {
        let mut out = [0u64; NUM_FINE];
        for p in &self.pes {
            for (o, f) in out.iter_mut().zip(p.fine.iter()) {
                *o += f;
            }
        }
        out
    }

    /// Human-readable rendering (attribution table, thread table,
    /// critical path).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total_cycles: u64 = self.pes.iter().map(|p| p.cycles).sum();
        let totals = self.totals();
        let _ = writeln!(out, "stall attribution ({} PE-cycles)", total_cycles);
        for cat in FineCat::ALL {
            let v = totals[cat as usize];
            if v == 0 {
                continue;
            }
            let pct = if total_cycles == 0 {
                0.0
            } else {
                100.0 * v as f64 / total_cycles as f64
            };
            let _ = writeln!(out, "  {:<11} {:>12}  {:>5.1}%", cat.name(), v, pct);
        }
        let _ = writeln!(out, "threads");
        for t in &self.threads {
            let _ = writeln!(
                out,
                "  {:<16} n={:<5} exec={} dma-wait={} falloc={} grant→ready={} \
                 dma={}×/{}cyc coverage={:.0}%",
                t.name,
                t.instances,
                t.exec_cycles,
                t.dma_wait_cycles,
                t.falloc_park_cycles,
                t.grant_to_ready_cycles,
                t.dma_transfers,
                t.dma_transfer_cycles,
                100.0 * t.pf_coverage(),
            );
        }
        let cp = &self.critical_path;
        let _ = writeln!(
            out,
            "critical path [{}..{}] across {} instances",
            cp.start_cycle, cp.end_cycle, cp.instances
        );
        for e in &cp.edges {
            let _ = writeln!(
                out,
                "  {:<12} {:>12} cycles  ({} segments)",
                e.kind.name(),
                e.cycles,
                e.count
            );
        }
        if let Some(d) = cp.dominant() {
            let _ = writeln!(out, "  dominant edge: {}", d.kind.name());
        }
        out
    }

    /// Stable JSON form.
    pub fn to_json(&self) -> Json {
        let pes = self
            .pes
            .iter()
            .map(|p| {
                Json::obj([
                    ("pe", Json::Num(p.pe as f64)),
                    ("cycles", Json::Num(p.cycles as f64)),
                    (
                        "fine",
                        Json::Obj(
                            FineCat::ALL
                                .iter()
                                .map(|&c| {
                                    (c.name().to_string(), Json::Num(p.fine[c as usize] as f64))
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let threads = self
            .threads
            .iter()
            .map(|t| {
                Json::obj([
                    ("thread", Json::Num(t.thread as f64)),
                    ("name", Json::Str(t.name.clone())),
                    ("instances", Json::Num(t.instances as f64)),
                    ("exec_cycles", Json::Num(t.exec_cycles as f64)),
                    ("dma_wait_cycles", Json::Num(t.dma_wait_cycles as f64)),
                    ("falloc_park_cycles", Json::Num(t.falloc_park_cycles as f64)),
                    (
                        "grant_to_ready_cycles",
                        Json::Num(t.grant_to_ready_cycles as f64),
                    ),
                    ("dma_transfers", Json::Num(t.dma_transfers as f64)),
                    (
                        "dma_transfer_cycles",
                        Json::Num(t.dma_transfer_cycles as f64),
                    ),
                    ("reads_decoupled", Json::Num(t.reads_decoupled as f64)),
                    ("reads_blocking", Json::Num(t.reads_blocking as f64)),
                    ("pf_coverage", Json::Num(t.pf_coverage())),
                ])
            })
            .collect();
        let edges = self
            .critical_path
            .edges
            .iter()
            .map(|e| {
                Json::obj([
                    ("kind", Json::Str(e.kind.name().to_string())),
                    ("cycles", Json::Num(e.cycles as f64)),
                    ("count", Json::Num(e.count as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("pes", Json::Arr(pes)),
            ("threads", Json::Arr(threads)),
            (
                "critical_path",
                Json::obj([
                    (
                        "start_cycle",
                        Json::Num(self.critical_path.start_cycle as f64),
                    ),
                    ("end_cycle", Json::Num(self.critical_path.end_cycle as f64)),
                    ("instances", Json::Num(self.critical_path.instances as f64)),
                    (
                        "dominant",
                        match self.critical_path.dominant() {
                            Some(d) => Json::Str(d.kind.name().to_string()),
                            None => Json::Null,
                        },
                    ),
                    ("edges", Json::Arr(edges)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread(cycle: u64, seq: u64, pe: u16, instance: u64, what: ThreadEvent) -> ObsRecord {
        ObsRecord {
            cycle,
            unit: pe as u32,
            seq,
            ev: ObsEvent::Thread {
                pe,
                instance,
                thread: instance as u32,
                what,
            },
        }
    }

    /// One instance: grant 0, dispatch 4, dma issue 6, wait 8,
    /// complete 20, redispatch 20, stop 24.
    fn simple_stream() -> Vec<ObsRecord> {
        vec![
            thread(0, 0, 0, 1, ThreadEvent::FrameGranted { frame: 0 }),
            thread(4, 1, 0, 1, ThreadEvent::Dispatched),
            thread(6, 2, 0, 1, ThreadEvent::DmaIssued { tag: 0 }),
            thread(8, 3, 0, 1, ThreadEvent::WaitDma),
            thread(20, 4, 0, 1, ThreadEvent::DmaCompleted { tag: 0 }),
            thread(20, 5, 0, 1, ThreadEvent::Dispatched),
            thread(24, 6, 0, 1, ThreadEvent::Stopped),
        ]
    }

    #[test]
    fn thread_breakdown_accounts_lifecycle() {
        let a = analyze(&simple_stream(), &[], &[], &[]);
        assert_eq!(a.threads.len(), 1);
        let t = &a.threads[0];
        assert_eq!(t.instances, 1);
        assert_eq!(t.exec_cycles, 8); // 4..8 and 20..24
        assert_eq!(t.dma_wait_cycles, 12); // 8..20
        assert_eq!(t.dma_transfers, 1);
        assert_eq!(t.dma_transfer_cycles, 14); // 6..20
        assert_eq!(t.reads_blocking, 0);
        assert!((t.pf_coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn critical_path_finds_dma_transfer_bound_wait() {
        let a = analyze(&simple_stream(), &[], &[], &[]);
        let cp = &a.critical_path;
        assert_eq!(cp.end_cycle, 24);
        let by_kind: HashMap<EdgeKind, u64> = cp.edges.iter().map(|e| (e.kind, e.cycles)).collect();
        // 8..20 wait is transfer-bound (the DMA issued before the wait
        // began), so it must charge dma-transfer, not dma-wait.
        assert_eq!(by_kind.get(&EdgeKind::DmaTransfer), Some(&12));
        assert_eq!(by_kind.get(&EdgeKind::Exec), Some(&8));
        assert_eq!(cp.dominant().unwrap().kind, EdgeKind::DmaTransfer);
    }

    #[test]
    fn critical_path_chains_through_producer() {
        // Instance 1 runs 0..10 and its exec window covers instance 2's
        // grant at 8; instance 2 stops last.
        let stream = vec![
            thread(0, 0, 0, 1, ThreadEvent::Dispatched),
            thread(8, 1, 1, 2, ThreadEvent::FrameGranted { frame: 0 }),
            thread(10, 2, 0, 1, ThreadEvent::Stopped),
            thread(12, 3, 1, 2, ThreadEvent::Dispatched),
            thread(30, 4, 1, 2, ThreadEvent::Stopped),
        ];
        let a = analyze(&stream, &[], &[], &[]);
        let cp = &a.critical_path;
        assert_eq!(cp.end_cycle, 30);
        assert_eq!(cp.instances, 2);
        // Chain: 12..30 exec (inst 2), 8..12 sched, then into inst 1.
        let by_kind: HashMap<EdgeKind, u64> = cp.edges.iter().map(|e| (e.kind, e.cycles)).collect();
        assert!(by_kind[&EdgeKind::Exec] >= 18);
        assert!(by_kind.contains_key(&EdgeKind::Sched));
    }

    #[test]
    fn read_blocked_counts_against_coverage() {
        let stream = vec![
            thread(0, 0, 0, 1, ThreadEvent::Dispatched),
            thread(2, 1, 0, 1, ThreadEvent::ReadBlocked),
            thread(4, 2, 0, 1, ThreadEvent::DmaIssued { tag: 0 }),
            thread(9, 3, 0, 1, ThreadEvent::Stopped),
        ];
        let a = analyze(&stream, &[], &[], &[]);
        let t = &a.threads[0];
        assert_eq!(t.reads_blocking, 1);
        assert_eq!(t.reads_decoupled, 1);
        assert!((t.pf_coverage() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn json_shape_is_stable() {
        let fine = [[10, 0, 0, 0, 0, 0, 0, 0, 0, 14]];
        let a = analyze(&simple_stream(), &fine, &[24], &[]);
        let j = a.to_json();
        assert_eq!(
            j.get("critical_path")
                .and_then(|c| c.get("dominant"))
                .and_then(Json::as_str),
            Some("dma-transfer")
        );
        let pes = j.get("pes").and_then(Json::as_arr).unwrap();
        assert_eq!(
            pes[0]
                .get("fine")
                .and_then(|f| f.get("Compute"))
                .and_then(Json::as_u64),
            Some(10)
        );
        let text = a.render();
        assert!(text.contains("dominant edge: dma-transfer"));
    }
}
