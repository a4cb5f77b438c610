//! One function per paper table/figure (and per ablation).
//!
//! Every experiment returns its measured [`Row`]s plus a rendered text
//! table whose rows/series match what the paper reports; `EXPERIMENTS.md`
//! records paper-vs-measured for each.

use crate::report::text_table;
use crate::runner::{
    job_for, run, sweep, sweep_ok, try_run, try_run_traced, Bench, Row, SweepPoint,
};
use dta_core::{ObsConfig, StallCat, SystemConfig};
use dta_workloads::Variant;
use std::sync::OnceLock;

/// Process-wide observability config, applied to every experiment run
/// (set once by `repro --obs` / `--metrics-interval`). Collection is
/// pure observation — every `RunStats` counter stays byte-identical —
/// so it composes freely with `--sweep-threads`.
static DEFAULT_OBS: OnceLock<ObsConfig> = OnceLock::new();

/// Sets the observability config every experiment runs under. First
/// call wins; later calls are ignored.
pub fn set_default_obs(obs: ObsConfig) {
    let _ = DEFAULT_OBS.set(obs);
}

/// The result of one experiment.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Experiment id (`table5`, `fig6`, ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// All measured rows.
    pub rows: Vec<Row>,
    /// Rendered text report.
    pub text: String,
    /// Service host-fault counters ([`dta_serve::ServiceHealth`] as
    /// JSON) for experiments that own a service; `None` elsewhere.
    pub health: Option<dta_json::Json>,
    /// Structured profiling payload (`profile` experiment only):
    /// attribution tables, critical-path summaries and the host engine
    /// profile, one entry per run point.
    pub profile: Option<dta_json::Json>,
}

fn pes8(suite_pes: u16) -> SystemConfig {
    let mut cfg = SystemConfig::with_pes(suite_pes);
    if let Some(&obs) = DEFAULT_OBS.get() {
        cfg.obs = obs;
    }
    cfg
}

/// Variants reported in the figures: the paper's baseline and hand-coded
/// prefetch, plus our automatic compiler as an extension row.
const VARIANTS: [Variant; 3] = [
    Variant::Baseline,
    Variant::HandPrefetch,
    Variant::AutoPrefetch,
];

/// Tables 2-4: the simulated platform's parameters.
pub fn config() -> ExperimentResult {
    let cfg = SystemConfig::paper_default();
    let mut text = cfg.to_tables();
    text.push_str(
        "Table 3: DMA command operands\n\
         \x20 LS address | MEM address | Data size | Tag ID\n\
         \x20 (see dta_isa::Instr::DmaGet / DmaGetStrided / DmaPut)\n",
    );
    ExperimentResult {
        health: None,
        profile: None,
        id: "config".into(),
        title: "Tables 2-4: platform parameters".into(),
        rows: Vec::new(),
        text,
    }
}

/// Table 5: dynamic instruction counts of the original-DTA baselines.
pub fn table5(suite: &[Bench], pes: u16) -> ExperimentResult {
    // Paper values for the 10000/32/32 sizes, for side-by-side reading.
    let paper: &[(&str, [u64; 5])] = &[
        (
            "bitcnt(10000)",
            [9_415_559, 806_593, 806_593, 192_366, 2_814],
        ),
        ("mmul(32)", [341_422, 73, 73, 65_536, 1_024]),
        ("zoom(32)", [353_425, 4_672, 4_672, 32_768, 16_384]),
    ];
    let mut rows = Vec::new();
    let mut table = vec![vec![
        "benchmark".to_string(),
        "total".into(),
        "LOAD".into(),
        "STORE".into(),
        "READ".into(),
        "WRITE".into(),
        "paper(total/LOAD/STORE/READ/WRITE)".into(),
    ]];
    // One independent job per benchmark — submitted as one grid to the
    // shared service (input order preserved).
    let points: Vec<SweepPoint> = suite
        .iter()
        .map(|&bench| SweepPoint::new(bench, Variant::Baseline, pes8(pes)))
        .collect();
    for row in sweep_ok(&points) {
        let (t, l, s, r, w) = row.table5;
        let paper_col = paper
            .iter()
            .find(|(n, _)| *n == row.bench)
            .map(|(_, v)| format!("{}/{}/{}/{}/{}", v[0], v[1], v[2], v[3], v[4]))
            .unwrap_or_else(|| "-".into());
        table.push(vec![
            row.bench.clone(),
            t.to_string(),
            l.to_string(),
            s.to_string(),
            r.to_string(),
            w.to_string(),
            paper_col,
        ]);
        rows.push(row);
    }
    ExperimentResult {
        health: None,
        profile: None,
        id: "table5".into(),
        title: "Table 5: dynamic instruction counts (original DTA)".into(),
        text: text_table(&table),
        rows,
    }
}

/// Figure 5: average SPU execution-time breakdown, without and with
/// prefetching.
pub fn fig5(suite: &[Bench], pes: u16) -> ExperimentResult {
    let mut rows = Vec::new();
    let mut table = vec![vec![
        "benchmark".to_string(),
        "variant".into(),
        "Working%".into(),
        "Idle%".into(),
        "Mem%".into(),
        "LS%".into(),
        "LSE%".into(),
        "Prefetch%".into(),
    ]];
    let points: Vec<SweepPoint> = suite
        .iter()
        .flat_map(|&bench| {
            VARIANTS
                .iter()
                .map(move |&v| SweepPoint::new(bench, v, pes8(pes)))
        })
        .collect();
    for row in sweep_ok(&points) {
        table.push(vec![
            row.bench.clone(),
            row.variant.clone(),
            format!("{:5.1}", row.pct(StallCat::Working)),
            format!("{:5.1}", row.pct(StallCat::Idle)),
            format!("{:5.1}", row.pct(StallCat::MemStall)),
            format!("{:5.1}", row.pct(StallCat::LsStall)),
            format!("{:5.1}", row.pct(StallCat::LseStall)),
            format!("{:5.1}", row.pct(StallCat::Prefetch)),
        ]);
        rows.push(row);
    }
    ExperimentResult {
        health: None,
        profile: None,
        id: "fig5".into(),
        title: "Figure 5: SPU execution-time breakdown (no-prefetch vs prefetch)".into(),
        text: text_table(&table),
        rows,
    }
}

/// Figures 6/7/8: execution time and scalability across 1/2/4/8 PEs.
pub fn fig_exec_scalability(id: &str, bench: Bench, max_pes: u16) -> ExperimentResult {
    let pes_list: Vec<u16> = [1u16, 2, 4, 8]
        .into_iter()
        .filter(|&p| p <= max_pes)
        .collect();
    let mut rows = Vec::new();
    let mut table = vec![vec![
        "PEs".to_string(),
        "baseline cycles".into(),
        "prefetch-hand cycles".into(),
        "prefetch-auto cycles".into(),
        "speedup(hand)".into(),
        "scal(base)".into(),
        "scal(hand)".into(),
    ]];
    // The grid points are independent jobs — one grid submission to the
    // shared service (input order preserved, so the report is identical
    // to the sequential sweep).
    let grid: Vec<(u16, Variant)> = pes_list
        .iter()
        .flat_map(|&pes| VARIANTS.iter().map(move |&v| (pes, v)))
        .collect();
    let points: Vec<SweepPoint> = grid
        .iter()
        .map(|&(pes, v)| SweepPoint::new(bench, v, pes8(pes)))
        .collect();
    let results = sweep_ok(&points);
    let mut per_variant: Vec<Vec<Row>> = vec![Vec::new(); VARIANTS.len()];
    for ((_, variant), row) in grid.iter().zip(results) {
        let vi = VARIANTS.iter().position(|v| v == variant).expect("grid");
        per_variant[vi].push(row.clone());
        rows.push(row);
    }
    for (i, &pes) in pes_list.iter().enumerate() {
        let base = per_variant[0][i].cycles;
        let hand = per_variant[1][i].cycles;
        let auto = per_variant[2][i].cycles;
        table.push(vec![
            pes.to_string(),
            base.to_string(),
            hand.to_string(),
            auto.to_string(),
            format!("{:.2}x", base as f64 / hand as f64),
            format!("{:.2}", per_variant[0][0].cycles as f64 / base as f64),
            format!("{:.2}", per_variant[1][0].cycles as f64 / hand as f64),
        ]);
    }
    ExperimentResult {
        health: None,
        profile: None,
        id: id.into(),
        title: format!("{}: execution time & scalability for {}", id, bench.name()),
        text: text_table(&table),
        rows,
    }
}

/// Figure 9: pipeline usage with and without prefetching.
pub fn fig9(suite: &[Bench], pes: u16) -> ExperimentResult {
    let mut rows = Vec::new();
    let mut table = vec![vec![
        "benchmark".to_string(),
        "variant".into(),
        "pipeline usage".into(),
        "IPC".into(),
    ]];
    let points: Vec<SweepPoint> = suite
        .iter()
        .flat_map(|&bench| {
            VARIANTS
                .iter()
                .map(move |&v| SweepPoint::new(bench, v, pes8(pes)))
        })
        .collect();
    for row in sweep_ok(&points) {
        table.push(vec![
            row.bench.clone(),
            row.variant.clone(),
            format!("{:.3}", row.breakdown.pipeline_usage),
            format!("{:.3}", row.breakdown.ipc),
        ]);
        rows.push(row);
    }
    ExperimentResult {
        health: None,
        profile: None,
        id: "fig9".into(),
        title: "Figure 9: pipeline usage (no-prefetch vs prefetch)".into(),
        text: text_table(&table),
        rows,
    }
}

/// §4.3 latency-1 experiment: every memory latency set to one cycle (the
/// all-hits bound); prefetching should barely help, and bitcnt should
/// *lose* to its own prefetch overhead.
pub fn lat1(suite: &[Bench], pes: u16) -> ExperimentResult {
    let mut rows = Vec::new();
    let mut table = vec![vec![
        "benchmark".to_string(),
        "baseline cycles".into(),
        "prefetch cycles".into(),
        "speedup@lat1".into(),
        "speedup@lat150".into(),
    ]];
    // Four independent runs per benchmark: {baseline, prefetch} at
    // latency 1 and at the paper latency.
    let grid: Vec<(Bench, Variant, bool)> = suite
        .iter()
        .flat_map(|&bench| {
            [
                (bench, Variant::Baseline, true),
                (bench, Variant::HandPrefetch, true),
                (bench, Variant::Baseline, false),
                (bench, Variant::HandPrefetch, false),
            ]
        })
        .collect();
    let points: Vec<SweepPoint> = grid
        .iter()
        .map(|&(bench, variant, lat1)| {
            let cfg = if lat1 {
                pes8(pes).latency_one()
            } else {
                pes8(pes)
            };
            SweepPoint::new(bench, variant, cfg)
        })
        .collect();
    let results = sweep_ok(&points);
    for chunk in results.chunks_exact(4) {
        let [b1, p1, b150, p150] = chunk else {
            unreachable!()
        };
        table.push(vec![
            b1.bench.clone(),
            b1.cycles.to_string(),
            p1.cycles.to_string(),
            format!("{:.2}x", b1.cycles as f64 / p1.cycles as f64),
            format!("{:.2}x", b150.cycles as f64 / p150.cycles as f64),
        ]);
        rows.extend(chunk.iter().cloned());
    }
    ExperimentResult {
        health: None,
        profile: None,
        id: "lat1".into(),
        title: "§4.3: all memory latencies = 1 cycle (always-hit bound)".into(),
        text: text_table(&table),
        rows,
    }
}

/// Ablation A1: strided DMA as one transaction vs per-element split
/// transactions (paper §3's rejected alternative).
pub fn ablate_split(n: usize, pes: u16) -> ExperimentResult {
    let bench = Bench::Colsum(n);
    let mut rows = Vec::new();
    let mut table = vec![vec![
        "configuration".to_string(),
        "cycles".into(),
        "vs single-transaction".into(),
    ]];
    let grid = [
        (Variant::Baseline, false),
        (Variant::HandPrefetch, false),
        (Variant::HandPrefetch, true),
    ];
    let points: Vec<SweepPoint> = grid
        .iter()
        .map(|&(variant, split)| {
            let mut cfg = pes8(pes);
            cfg.dma_split_transactions = split;
            SweepPoint::new(bench, variant, cfg)
        })
        .collect();
    let results = sweep_ok(&points);
    let [base, single, split] = results.try_into().map_err(|_| ()).expect("three runs");
    for (label, row) in [
        ("baseline (READs)", &base),
        ("DMA, one transaction", &single),
        ("DMA, split per element", &split),
    ] {
        table.push(vec![
            label.to_string(),
            row.cycles.to_string(),
            format!("{:.2}x", row.cycles as f64 / single.cycles as f64),
        ]);
    }
    rows.extend([base, single, split]);
    ExperimentResult {
        health: None,
        profile: None,
        id: "ablate-split".into(),
        title: format!("Ablation: strided DMA vs split transactions, colsum({n})"),
        text: text_table(&table),
        rows,
    }
}

/// Ablation A2: virtual frame pointers (paper §4.3: "a possible solution
/// [to bitcnt's LSE stalls] is to use virtual frame pointers, but we did
/// not include this feature"). bitcnt's wave-bounded unfolding respects
/// the default 64-frame pool, so the sweep also shrinks the physical
/// capacity to make frame pressure bind — VFP then removes the deferred
/// FALLOCs entirely.
pub fn ablate_vfp(n: usize, pes: u16) -> ExperimentResult {
    let bench = Bench::Bitcnt(n);
    let mut rows = Vec::new();
    let mut table = vec![vec![
        "frames/PE".to_string(),
        "virtual".into(),
        "cycles".into(),
        "LSE stall %".into(),
        "Idle %".into(),
    ]];
    let grid: Vec<(u32, bool)> = [2u32, 4, 64]
        .into_iter()
        .flat_map(|capacity| [false, true].map(|vfp| (capacity, vfp)))
        .collect();
    let points: Vec<SweepPoint> = grid
        .iter()
        .map(|&(capacity, vfp)| {
            let mut cfg = pes8(pes);
            cfg.frame_capacity = capacity;
            cfg.virtual_frames = vfp;
            SweepPoint::new(bench, Variant::Baseline, cfg)
        })
        .collect();
    let outcomes = sweep(&points);
    {
        for (&(capacity, vfp), outcome) in grid.iter().zip(outcomes) {
            match outcome {
                Ok(row) => {
                    table.push(vec![
                        capacity.to_string(),
                        if vfp { "yes" } else { "no" }.into(),
                        row.cycles.to_string(),
                        format!("{:.1}", row.pct(StallCat::LseStall)),
                        format!("{:.1}", row.pct(StallCat::Idle)),
                    ]);
                    rows.push(row);
                }
                Err(e) => {
                    // Under-provisioned frame pools without VFP can
                    // genuinely deadlock a frame-based dataflow machine —
                    // that *is* the result.
                    let status = if e.contains("deadlock") {
                        "DEADLOCK".to_string()
                    } else {
                        e.clone()
                    };
                    table.push(vec![
                        capacity.to_string(),
                        if vfp { "yes" } else { "no" }.into(),
                        status,
                        "-".into(),
                        "-".into(),
                    ]);
                }
            }
        }
    }
    ExperimentResult {
        health: None,
        profile: None,
        id: "ablate-vfp".into(),
        title: format!("Ablation: virtual frame pointers x frame capacity, bitcnt({n})"),
        text: text_table(&table),
        rows,
    }
}

/// Ablation A3: hardware sensitivity — bus count and MFC queue depth
/// under the prefetched mmul.
pub fn ablate_hw(n: usize, pes: u16) -> ExperimentResult {
    let bench = Bench::Mmul(n);
    let mut rows = Vec::new();
    let mut table = vec![vec![
        "buses".to_string(),
        "MFC queue".into(),
        "cycles".into(),
        "bus util".into(),
    ]];
    let grid: Vec<(usize, usize)> = [1usize, 2, 4]
        .into_iter()
        .flat_map(|buses| [2usize, 16].map(|queue| (buses, queue)))
        .collect();
    let points: Vec<SweepPoint> = grid
        .iter()
        .map(|&(buses, queue)| {
            let mut cfg = pes8(pes);
            cfg.buses = buses;
            cfg.mfc.queue_capacity = queue;
            SweepPoint::new(bench, Variant::HandPrefetch, cfg)
        })
        .collect();
    let results = sweep_ok(&points);
    for (&(buses, queue), row) in grid.iter().zip(results) {
        table.push(vec![
            buses.to_string(),
            queue.to_string(),
            row.cycles.to_string(),
            format!("{:.3}", row.bus_utilisation),
        ]);
        rows.push(row);
    }
    ExperimentResult {
        health: None,
        profile: None,
        id: "ablate-hw".into(),
        title: format!("Ablation: bus count × MFC queue depth, mmul({n}) prefetched"),
        text: text_table(&table),
        rows,
    }
}

/// Extension E1: does prefetching "almost eliminate the need for caches"
/// (paper §4.3)? Adds the cache module the paper's simulator lacked and
/// compares baseline, baseline+cache, prefetch, and prefetch+cache.
pub fn ext_cache(mmul_n: usize, zoom_n: usize, pes: u16) -> ExperimentResult {
    let mut rows = Vec::new();
    let mut table = vec![vec![
        "benchmark".to_string(),
        "configuration".into(),
        "cycles".into(),
        "hit rate".into(),
    ]];
    let configs = [
        ("original DTA", Variant::Baseline, false),
        ("original DTA + cache", Variant::Baseline, true),
        ("DMA prefetch", Variant::HandPrefetch, false),
        ("DMA prefetch + cache", Variant::HandPrefetch, true),
    ];
    let grid: Vec<(Bench, &str, Variant, bool)> = [Bench::Mmul(mmul_n), Bench::Zoom(zoom_n)]
        .into_iter()
        .flat_map(|bench| {
            configs
                .iter()
                .map(move |&(label, variant, cache)| (bench, label, variant, cache))
        })
        .collect();
    let points: Vec<SweepPoint> = grid
        .iter()
        .map(|&(bench, _, variant, cache)| {
            let mut cfg = pes8(pes);
            if cache {
                cfg.cache = Some(dta_mem::CacheParams::default());
            }
            SweepPoint::new(bench, variant, cfg)
        })
        .collect();
    let results = sweep_ok(&points);
    for (&(_, label, _, _), row) in grid.iter().zip(results) {
        let hits = row.cache_hits + row.cache_misses;
        table.push(vec![
            row.bench.clone(),
            label.to_string(),
            row.cycles.to_string(),
            if hits == 0 {
                "-".into()
            } else {
                format!("{:.2}", row.cache_hits as f64 / hits as f64)
            },
        ]);
        rows.push(row);
    }
    ExperimentResult {
        health: None,
        profile: None,
        id: "ext-cache".into(),
        title: "Extension: DMA prefetch vs a data cache (paper §4.3's missing module)".into(),
        text: text_table(&table),
        rows,
    }
}

/// Extension E2: run PF blocks on the LSE's SP pipeline, overlapped with
/// execution — the DTA-C capability the paper notes CellDTA lacks.
pub fn ext_spxp(suite: &[Bench], pes: u16) -> ExperimentResult {
    let mut rows = Vec::new();
    let mut table = vec![vec![
        "benchmark".to_string(),
        "SP/XP".into(),
        "cycles".into(),
        "Prefetch%".into(),
        "SP cycles".into(),
    ]];
    let grid: Vec<(Bench, bool)> = suite
        .iter()
        .flat_map(|&bench| [false, true].map(|overlap| (bench, overlap)))
        .collect();
    let points: Vec<SweepPoint> = grid
        .iter()
        .map(|&(bench, overlap)| {
            let mut cfg = pes8(pes);
            cfg.sp_pf_overlap = overlap;
            SweepPoint::new(bench, Variant::HandPrefetch, cfg)
        })
        .collect();
    let results = sweep_ok(&points);
    for (&(_, overlap), row) in grid.iter().zip(results) {
        table.push(vec![
            row.bench.clone(),
            if overlap { "on" } else { "off (CellDTA)" }.into(),
            row.cycles.to_string(),
            format!("{:.1}", row.pct(StallCat::Prefetch)),
            row.sp_pf_cycles.to_string(),
        ]);
        rows.push(row);
    }
    ExperimentResult {
        health: None,
        profile: None,
        id: "ext-spxp".into(),
        title: "Extension: PF blocks on the LSE's SP pipeline (DTA-C overlap)".into(),
        text: text_table(&table),
        rows,
    }
}

/// Extension E3: whole-structure prefetch for bitcnt's bounded table
/// lookups — the paper's §4.3: "we do not decouple all the global access,
/// but only a portion of them (this shall be considered in the next
/// releases of our simulator)". This is that next release.
pub fn ext_wholeobj(n: usize, pes: u16) -> ExperimentResult {
    use dta_compiler::{prefetch_program, PlanOptions, TransformOptions};
    use dta_core::SimJob;
    use dta_workloads::bitcnt;
    use std::sync::Arc;

    let mut rows = Vec::new();
    let mut table = vec![vec![
        "configuration".to_string(),
        "cycles".into(),
        "Mem%".into(),
        "READs left".into(),
        "speedup vs baseline".into(),
    ]];
    let points = [
        SweepPoint::new(Bench::Bitcnt(n), Variant::Baseline, pes8(pes)),
        SweepPoint::new(Bench::Bitcnt(n), Variant::AutoPrefetch, pes8(pes)),
    ];
    let mut results = sweep_ok(&points);
    let auto_row = results.pop().expect("two runs");
    let base_row = results.pop().expect("two runs");

    // The "next release": auto-prefetch with whole-object fetching on.
    // A custom program is still just a job value — submit it to the
    // shared service like any benchmark point.
    let wp = bitcnt::build(n, Variant::Baseline);
    let opts = TransformOptions {
        plan: PlanOptions {
            whole_object: true,
            ..PlanOptions::default()
        },
    };
    let (program, _) = prefetch_program(&wp.program, &opts);
    let job = SimJob::new(Arc::new(program), wp.args.clone(), pes8(pes));
    let done = crate::runner::service().submit(&job);
    let out = done
        .result
        .outcome
        .as_ref()
        .expect("whole-object bitcnt runs");
    bitcnt::verify(&out.globals, n).expect("whole-object bitcnt verifies");
    let stats = &out.stats;

    let entries = [
        (
            "original DTA",
            base_row.cycles,
            base_row.pct(StallCat::MemStall),
            base_row.table5.3,
        ),
        (
            "prefetch (paper: partial)",
            auto_row.cycles,
            auto_row.pct(StallCat::MemStall),
            auto_row.table5.3,
        ),
        (
            "prefetch + whole-object tables",
            stats.cycles,
            stats.breakdown().pct(StallCat::MemStall),
            stats.aggregate.reads,
        ),
    ];
    for (label, cycles, mem, reads) in entries {
        table.push(vec![
            label.to_string(),
            cycles.to_string(),
            format!("{mem:.1}"),
            reads.to_string(),
            format!("{:.2}x", base_row.cycles as f64 / cycles as f64),
        ]);
    }
    rows.extend([base_row, auto_row]);
    ExperimentResult {
        health: None,
        profile: None,
        id: "ext-wholeobj".into(),
        title: format!("Extension: whole-structure table prefetch, bitcnt({n})"),
        text: text_table(&table),
        rows,
    }
}

/// Fault-injection sweep (robustness PR): completion rate, retry cost,
/// degradation, and cycle overhead vs an escalating injected fault rate.
/// Written as `BENCH_faults.json` so successive PRs can track recovery
/// behaviour. `rate` drives transient DMA failures directly; message
/// faults and FALLOC denials ride along at a fraction of it.
pub fn faults_bench(suite: &[Bench], pes: u16, seed: u64, rates: &[u32]) -> ExperimentResult {
    use dta_core::FaultPlan;

    const RUNS_PER_RATE: u64 = 3;
    let mut rows = Vec::new();
    let mut table = vec![vec![
        "benchmark".to_string(),
        "rate ppm".into(),
        "completed".into(),
        "mean retries".into(),
        "exhausted".into(),
        "degraded PEs".into(),
        "fallbacks".into(),
        "cycle overhead".into(),
    ]];
    for &bench in suite {
        let clean = run(bench, Variant::HandPrefetch, pes8(pes));
        // All (rate, repetition) points are independent seeded jobs —
        // one grid submission to the shared service.
        let grid: Vec<(u32, u64)> = rates
            .iter()
            .flat_map(|&rate| (0..RUNS_PER_RATE).map(move |k| (rate, k)))
            .collect();
        let points: Vec<SweepPoint> = grid
            .iter()
            .map(|&(rate, k)| {
                let mut plan =
                    FaultPlan::seeded(seed.wrapping_add(k).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
                plan.dma_fail_ppm = rate;
                plan.msg_drop_ppm = rate / 10;
                plan.msg_dup_ppm = rate / 10;
                plan.msg_delay_ppm = rate / 10;
                plan.falloc_deny_ppm = rate / 4;
                let mut cfg = pes8(pes);
                cfg.faults = Some(plan);
                SweepPoint::new(bench, Variant::HandPrefetch, cfg)
            })
            .collect();
        let outcomes: Vec<Result<Row, String>> = points
            .iter()
            .zip(sweep(&points))
            .map(|(p, outcome)| {
                outcome.map(|mut row| {
                    let plan = p.cfg.faults.as_ref().expect("seeded point");
                    row.fault_rate_ppm = Some(plan.dma_fail_ppm);
                    row.fault_seed = Some(plan.seed);
                    row
                })
            })
            .collect();
        for (ri, &rate) in rates.iter().enumerate() {
            let at_rate = &outcomes[ri * RUNS_PER_RATE as usize..][..RUNS_PER_RATE as usize];
            let mut completed = 0u64;
            let (mut retries, mut exhausted, mut degraded, mut fallbacks, mut cycles) =
                (0u64, 0u64, 0u64, 0u64, 0u64);
            for outcome in at_rate {
                match outcome {
                    Ok(row) => {
                        completed += 1;
                        retries += row.dma_retries;
                        exhausted += row.dma_exhausted;
                        degraded += row.degraded_pes;
                        fallbacks += row.fallback_instances;
                        cycles += row.cycles;
                        rows.push(row.clone());
                    }
                    Err(e) => eprintln!("  [faults] run failed (counted as incomplete): {e}"),
                }
            }
            let m = completed.max(1);
            table.push(vec![
                bench.name(),
                rate.to_string(),
                format!("{completed}/{RUNS_PER_RATE}"),
                format!("{:.1}", retries as f64 / m as f64),
                exhausted.to_string(),
                format!("{:.1}", degraded as f64 / m as f64),
                format!("{:.1}", fallbacks as f64 / m as f64),
                format!("{:.2}x", (cycles as f64 / m as f64) / clean.cycles as f64),
            ]);
        }
    }
    ExperimentResult {
        health: None,
        profile: None,
        id: "BENCH_faults".into(),
        title: "Fault-injection sweep: recovery cost and degradation vs rate".into(),
        text: text_table(&table),
        rows,
    }
}

/// Compares capacity-aware vs the historical lowest-id DSE successor
/// election on the resolved schedule of `plan` — a pure function of the
/// plan, no simulation. Returns `(handovers, diverged)` over every
/// planned DSE outage sampled at its detection cycle, and panics if the
/// capacity-aware choice ever lands on a peer with *fewer* planned free
/// frames than the lowest-id choice (the invariant the A/B certifies).
fn election_ab(plan: &dta_core::FaultPlan, cfg: &SystemConfig) -> (u64, u64) {
    use dta_core::fault::FailoverSchedule;
    let Some(s) = FailoverSchedule::from_plan(
        plan,
        cfg.nodes,
        cfg.pes_per_node,
        cfg.frame_capacity,
        cfg.msg_latency,
    ) else {
        return (0, 0);
    };
    let (mut handovers, mut diverged) = (0u64, 0u64);
    for node in 0..cfg.nodes {
        let Some(o) = s.outage(node) else { continue };
        let t = o.detect_at;
        let (Some(a), Some(l)) = (s.arbiter(node, t), s.lowest_id_arbiter(node, t)) else {
            continue;
        };
        handovers += 1;
        if a != l {
            diverged += 1;
        }
        assert!(
            s.planned_node_capacity(a, t) >= s.planned_node_capacity(l, t),
            "capacity-aware election re-homed node {node} to a poorer peer \
             ({a} over {l})"
        );
    }
    (handovers, diverged)
}

/// DSE crash/failover sweep (failover PR): completion rate, re-homed
/// FALLOC traffic, resync cost and cycle overhead vs an escalating
/// per-node crash probability, with and without planned restart. The
/// platform is split into two nodes so a crashed DSE has a peer to fail
/// over to. The robustness PR added a second grid over LSE crash rates
/// (`lse_rates`): completion rate, evacuation/re-admission/kill counts
/// and cycle overhead per rate, alone and combined with DSE crashes,
/// plus a capacity-aware-vs-lowest-id election A/B sampled from the
/// resolved schedule. Written as `BENCH_failover.json` so successive PRs
/// can track recovery behaviour.
pub fn failover_bench(
    suite: &[Bench],
    pes: u16,
    seed: u64,
    rates: &[u32],
    lse_rates: &[u32],
) -> ExperimentResult {
    use dta_core::FaultPlan;

    const RUNS_PER_RATE: u64 = 3;
    let two_nodes = |pes: u16| {
        let mut cfg = pes8(pes);
        cfg.nodes = 2;
        cfg.pes_per_node = (pes / 2).max(1);
        cfg
    };
    let mut rows = Vec::new();
    let mut table = vec![vec![
        "benchmark".to_string(),
        "crash ppm".into(),
        "restart".into(),
        "completed".into(),
        "crashes".into(),
        "failovers".into(),
        "rehomed".into(),
        "resyncs".into(),
        "cycle overhead".into(),
    ]];
    for &bench in suite {
        let clean = run(bench, Variant::HandPrefetch, two_nodes(pes));
        let grid: Vec<(u32, bool, u64)> = rates
            .iter()
            .flat_map(|&rate| {
                [false, true]
                    .into_iter()
                    .flat_map(move |restart| (0..RUNS_PER_RATE).map(move |k| (rate, restart, k)))
            })
            .collect();
        let points: Vec<SweepPoint> = grid
            .iter()
            .map(|&(rate, restart, k)| {
                let mut plan =
                    FaultPlan::seeded(seed.wrapping_add(k).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
                plan.dse_crash_ppm = rate;
                plan.dse_crash_window = 20_000;
                plan.dse_failover_detect = 1_000;
                plan.dse_restart_after = if restart { 10_000 } else { 0 };
                let mut cfg = two_nodes(pes);
                cfg.faults = Some(plan);
                SweepPoint::new(bench, Variant::HandPrefetch, cfg)
            })
            .collect();
        let outcomes: Vec<Result<Row, String>> = points
            .iter()
            .zip(sweep(&points))
            .map(|(p, outcome)| {
                outcome.map(|mut row| {
                    let plan = p.cfg.faults.as_ref().expect("seeded point");
                    row.fault_rate_ppm = Some(plan.dse_crash_ppm);
                    row.fault_seed = Some(plan.seed);
                    row
                })
            })
            .collect();
        for (gi, chunk) in outcomes.chunks(RUNS_PER_RATE as usize).enumerate() {
            let (rate, restart, _) = grid[gi * RUNS_PER_RATE as usize];
            let mut completed = 0u64;
            let (mut crashes, mut failovers, mut rehomed, mut resyncs, mut cycles) =
                (0u64, 0u64, 0u64, 0u64, 0u64);
            for outcome in chunk {
                match outcome {
                    Ok(row) => {
                        completed += 1;
                        crashes += row.dse_crashes;
                        failovers += row.failovers;
                        rehomed += row.rehomed_fallocs;
                        resyncs += row.resync_msgs;
                        cycles += row.cycles;
                        rows.push(row.clone());
                    }
                    // Total loss without restart legitimately ends in a
                    // typed watchdog error — that *is* the data point.
                    Err(e) => eprintln!("  [failover] run failed (counted as incomplete): {e}"),
                }
            }
            let m = completed.max(1);
            table.push(vec![
                bench.name(),
                rate.to_string(),
                if restart { "yes" } else { "no" }.into(),
                format!("{completed}/{RUNS_PER_RATE}"),
                format!("{:.1}", crashes as f64 / m as f64),
                format!("{:.1}", failovers as f64 / m as f64),
                format!("{:.1}", rehomed as f64 / m as f64),
                format!("{:.1}", resyncs as f64 / m as f64),
                format!("{:.2}x", (cycles as f64 / m as f64) / clean.cycles as f64),
            ]);
        }
    }
    // LSE crash grid (robustness PR): evacuation/re-admission economics
    // per rate, alone and combined with a likely DSE crash. The A/B
    // column certifies the capacity-aware successor election against the
    // historical lowest-id rule on the same resolved schedule.
    let mut lse_table = vec![vec![
        "benchmark".to_string(),
        "lse ppm".into(),
        "dse crash".into(),
        "completed".into(),
        "lse crashes".into(),
        "evacuated".into(),
        "readmitted".into(),
        "killed".into(),
        "cycle overhead".into(),
        "cap-aware A/B".into(),
    ]];
    for &bench in suite {
        let clean = run(bench, Variant::HandPrefetch, two_nodes(pes));
        let grid: Vec<(u32, bool, u64)> = lse_rates
            .iter()
            .flat_map(|&rate| {
                [false, true]
                    .into_iter()
                    .flat_map(move |with_dse| (0..RUNS_PER_RATE).map(move |k| (rate, with_dse, k)))
            })
            .collect();
        let mk_plan = |rate: u32, with_dse: bool, k: u64| {
            let mut plan =
                FaultPlan::seeded(seed.wrapping_add(k).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            plan.lse_crash_ppm = rate;
            plan.lse_crash_window = 20_000;
            plan.lse_detect = 1_000;
            plan.lse_restart_after = 10_000;
            if with_dse {
                plan.dse_crash_ppm = 500_000;
                plan.dse_crash_window = 20_000;
                plan.dse_failover_detect = 1_000;
                plan.dse_restart_after = 10_000;
            }
            plan
        };
        let points: Vec<SweepPoint> = grid
            .iter()
            .map(|&(rate, with_dse, k)| {
                let mut cfg = two_nodes(pes);
                cfg.faults = Some(mk_plan(rate, with_dse, k));
                SweepPoint::new(bench, Variant::HandPrefetch, cfg)
            })
            .collect();
        let outcomes: Vec<Result<Row, String>> = points
            .iter()
            .zip(sweep(&points))
            .map(|(p, outcome)| {
                outcome.map(|mut row| {
                    let plan = p.cfg.faults.as_ref().expect("seeded point");
                    row.fault_rate_ppm = Some(plan.lse_crash_ppm);
                    row.fault_seed = Some(plan.seed);
                    row
                })
            })
            .collect();
        for (gi, chunk) in outcomes.chunks(RUNS_PER_RATE as usize).enumerate() {
            let (rate, with_dse, _) = grid[gi * RUNS_PER_RATE as usize];
            let mut completed = 0u64;
            let (mut crashes, mut evac, mut readmit, mut killed, mut cycles) =
                (0u64, 0u64, 0u64, 0u64, 0u64);
            // The election A/B is a pure function of each run's plan, so
            // it covers incomplete runs too (a tainted-kill watchdog still
            // had a resolved schedule to elect on).
            let (mut handovers, mut diverged) = (0u64, 0u64);
            for k in 0..RUNS_PER_RATE {
                let (h, d) = election_ab(&mk_plan(rate, with_dse, k), &two_nodes(pes));
                handovers += h;
                diverged += d;
            }
            for outcome in chunk {
                match outcome {
                    Ok(row) => {
                        completed += 1;
                        crashes += row.lse_crashes;
                        evac += row.evacuated_frames;
                        readmit += row.readmitted_instances;
                        killed += row.killed_instances;
                        cycles += row.cycles;
                        rows.push(row.clone());
                    }
                    // A tainted kill without a recoverable replay ends in
                    // a typed watchdog — that *is* the completion-rate
                    // data point.
                    Err(e) => eprintln!("  [lse-crash] run failed (counted as incomplete): {e}"),
                }
            }
            let m = completed.max(1);
            lse_table.push(vec![
                bench.name(),
                rate.to_string(),
                if with_dse { "yes" } else { "no" }.into(),
                format!("{completed}/{RUNS_PER_RATE}"),
                format!("{:.1}", crashes as f64 / m as f64),
                format!("{:.1}", evac as f64 / m as f64),
                format!("{:.1}", readmit as f64 / m as f64),
                format!("{:.1}", killed as f64 / m as f64),
                format!("{:.2}x", (cycles as f64 / m as f64) / clean.cycles as f64),
                if handovers == 0 {
                    "-".into()
                } else {
                    format!("never-poorer ({diverged}/{handovers} diverge)")
                },
            ]);
        }
    }
    ExperimentResult {
        health: None,
        profile: None,
        id: "BENCH_failover".into(),
        title: "DSE failover sweep: completion, re-homing cost and overhead vs crash rate".into(),
        text: format!("{}\n{}", text_table(&table), text_table(&lse_table)),
        rows,
    }
}

/// Observability benchmark (observability PR): the same prefetched run
/// with the bus off, with events only (bounded rings), and with
/// everything on plus a Perfetto render. Simulated cycles and results
/// must be **identical** across all three: collection happens post-run
/// from the merged stream. The table reports what each mode collects;
/// host time is measured by `perfbench/`. Written as
/// `BENCH_observe.json`.
pub fn observe_bench(suite: &[Bench], pes: u16) -> ExperimentResult {
    use dta_core::ObsMode;

    let mut rows = Vec::new();
    let mut table = vec![vec![
        "benchmark".to_string(),
        "obs".into(),
        "cycles".into(),
        "events".into(),
        "dropped".into(),
        "overlap cycles".into(),
        "trace KB".into(),
    ]];
    for &bench in suite {
        let mut baseline: Option<Row> = None;
        for (label, mode) in [
            ("off", Some(ObsMode::Off)),
            ("events", Some(ObsMode::Events)),
            ("all+perfetto", None),
        ] {
            let mut cfg = pes8(pes);
            let (row, trace_kb) = match mode {
                Some(mode) => {
                    cfg.obs.mode = mode;
                    let row = try_run(bench, Variant::HandPrefetch, cfg)
                        .unwrap_or_else(|e| panic!("{e}"));
                    (row, None)
                }
                None => {
                    let (row, trace) = try_run_traced(bench, Variant::HandPrefetch, cfg)
                        .unwrap_or_else(|e| panic!("{e}"));
                    (row, Some(trace.len() as f64 / 1024.0))
                }
            };
            let base_row = baseline.get_or_insert(row.clone());
            // Observation is pure: any simulated-state drift is a bug.
            assert_eq!(
                row.cycles,
                base_row.cycles,
                "{} [{label}]: observability changed the cycle count",
                bench.name()
            );
            assert_eq!(
                (row.table5, row.instances, row.dma_commands),
                (base_row.table5, base_row.instances, base_row.dma_commands),
                "{} [{label}]: observability changed the simulation",
                bench.name()
            );
            table.push(vec![
                bench.name(),
                label.to_string(),
                row.cycles.to_string(),
                row.obs_events.to_string(),
                row.obs_dropped.to_string(),
                row.overlap_cycles.to_string(),
                trace_kb.map_or("-".into(), |kb| format!("{kb:.0}")),
            ]);
            rows.push(row);
        }
    }
    let mut text = text_table(&table);
    text.push_str("simulated cycles identical in all modes (the cycle-delta budget is 0)\n");
    ExperimentResult {
        health: None,
        profile: None,
        id: "BENCH_observe".into(),
        title: "Observability: bus off vs event rings vs full metrics + Perfetto".into(),
        text,
        rows,
    }
}

/// Cycle-exact profiling (observability PR): run the suite under full
/// observability, with and without a seeded fault plan, and derive the
/// paper's Figure-5-style stall breakdown from the exclusive
/// [`dta_core::FineCat`] attribution — plus the cross-unit critical
/// path, per-thread PF coverage, and the host engine profile. Two hard
/// invariants are asserted on every point: per-PE fine categories sum
/// *exactly* to that PE's cycles (conservation), and the
/// attribution-side overlap census never exceeds the event-derived
/// `MetricsReport` overlap (the former excludes intra-span stalls).
/// Written as `BENCH_profile.json`; the structured payload (attribution
/// tables, critical-path summaries, engine profile) rides in
/// [`ExperimentResult::profile`].
pub fn profile_bench(suite: &[Bench], pes: u16, seed: u64) -> ExperimentResult {
    use crate::runner::{row_from_result, service};
    use dta_core::{analyze, FaultPlan, FineCat, ObsMode};
    use dta_json::{Json, ToJson};

    let mut rows = Vec::new();
    let mut payload = Vec::new();
    let mut table = vec![{
        let mut h = vec!["benchmark".to_string(), "faults".into(), "cycles".into()];
        h.extend(FineCat::ALL.iter().map(|c| format!("{}%", c.name())));
        h.push("dominant edge".into());
        h.push("PF coverage".into());
        h
    }];
    let mut host = vec![vec![
        "benchmark".to_string(),
        "faults".into(),
        "visited".into(),
        "PE ticks".into(),
        "PE deliv".into(),
        "DSE deliv".into(),
        "mem req".into(),
        "run wall us".into(),
        "heap mean/max".into(),
    ]];
    let mut tail = String::new();
    for (bi, &bench) in suite.iter().enumerate() {
        for faulted in [false, true] {
            let mut cfg = pes8(pes);
            // Attribution analysis needs the full event stream; the
            // counters themselves are engine- and obs-invariant.
            cfg.obs.mode = ObsMode::All;
            if faulted {
                let mut plan = FaultPlan::seeded(
                    seed.wrapping_add(bi as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        | 1,
                );
                plan.dma_fail_ppm = 10_000;
                plan.msg_drop_ppm = 1_000;
                plan.msg_dup_ppm = 1_000;
                plan.msg_delay_ppm = 1_000;
                plan.falloc_deny_ppm = 2_500;
                cfg.faults = Some(plan);
            }
            let job = job_for(bench, Variant::HandPrefetch, cfg.clone());
            let done = service().submit(&job);
            let mut row = match row_from_result(bench, Variant::HandPrefetch, &cfg, &done.result) {
                Ok(row) => row,
                Err(e) => {
                    tail.push_str(&format!("skipped (did not complete): {e}\n"));
                    continue;
                }
            };
            if let Some(plan) = &cfg.faults {
                row.fault_rate_ppm = Some(plan.dma_fail_ppm);
                row.fault_seed = Some(plan.seed);
            }
            let out = done.result.outcome.as_ref().expect("row built from Ok");

            // Conservation: every simulated PE-cycle is charged to
            // exactly one exclusive fine category — with or without
            // injected faults.
            for (pe, p) in out.stats.per_pe.iter().enumerate() {
                assert_eq!(
                    p.total_fine_cycles(),
                    p.total_cycles(),
                    "fine-attribution conservation violated on PE {pe} of {} (faults {})",
                    bench.name(),
                    faulted,
                );
            }
            // Reconciliation: the attribution overlap census (compute
            // cycles with DMA in flight) is a strict subset of the
            // busy-span overlap the metrics fold reports.
            let attr_overlap: u64 = out.stats.per_pe.iter().map(|p| p.attr_overlap_cycles).sum();
            assert!(
                attr_overlap <= row.overlap_cycles,
                "attribution overlap {attr_overlap} exceeds metrics overlap {} on {}",
                row.overlap_cycles,
                bench.name(),
            );
            if !faulted {
                assert!(
                    attr_overlap > 0 && row.overlap_cycles > 0,
                    "hand-PF {} reported no DMA/compute overlap",
                    bench.name(),
                );
            }

            let stream = out.obs.as_ref().expect("ObsMode::All collects a stream");
            let fine: Vec<_> = out.stats.per_pe.iter().map(|p| p.fine).collect();
            let cycles: Vec<u64> = out.stats.per_pe.iter().map(|p| p.total_cycles()).collect();
            let names: Vec<String> = job.program.threads.iter().map(|t| t.name.clone()).collect();
            let analysis = analyze(&stream.records, &fine, &cycles, &names);

            let totals = analysis.totals();
            let total_cycles: u64 = cycles.iter().sum();
            let (dec, blk) = analysis.threads.iter().fold((0u64, 0u64), |(d, b), t| {
                (d + t.reads_decoupled, b + t.reads_blocking)
            });
            let coverage = if dec + blk == 0 {
                1.0
            } else {
                dec as f64 / (dec + blk) as f64
            };
            let dominant = analysis
                .critical_path
                .dominant()
                .map_or("-".to_string(), |e| e.kind.name().to_string());
            let flabel = if faulted { "seeded" } else { "off" };
            let mut cells = vec![bench.name(), flabel.into(), row.cycles.to_string()];
            cells.extend(FineCat::ALL.iter().map(|&c| {
                format!(
                    "{:.1}",
                    100.0 * totals[c as usize] as f64 / total_cycles.max(1) as f64
                )
            }));
            cells.push(dominant.clone());
            cells.push(format!("{:.0}%", 100.0 * coverage));
            table.push(cells);
            host.push(vec![
                bench.name(),
                flabel.into(),
                row.visited_cycles.to_string(),
                row.pe_ticks.to_string(),
                row.pe_deliveries.to_string(),
                row.dse_deliveries.to_string(),
                row.mem_requests.to_string(),
                row.run_wall_us.to_string(),
                format!("{:.1}/{}", row.wake_heap_mean, row.wake_heap_max),
            ]);
            let cp = &analysis.critical_path;
            tail.push_str(&format!(
                "{} [faults {flabel}]: critical path [{}..{}] across {} instances, \
                 dominant edge {dominant}",
                bench.name(),
                cp.start_cycle,
                cp.end_cycle,
                cp.instances,
            ));
            if let Some(d) = cp.dominant() {
                tail.push_str(&format!(
                    " ({} cycles over {} segments, {:.0}% of walked path)",
                    d.cycles,
                    d.count,
                    100.0 * d.cycles as f64 / cp.total_cycles().max(1) as f64
                ));
            }
            tail.push('\n');

            payload.push(Json::obj([
                ("bench", Json::Str(bench.name())),
                ("variant", Variant::HandPrefetch.label().to_json()),
                ("faulted", faulted.to_json()),
                (
                    "fault_seed",
                    cfg.faults
                        .as_ref()
                        .map_or(Json::Null, |p| dta_json::u64_json(p.seed)),
                ),
                ("attr_overlap_cycles", attr_overlap.to_json()),
                ("metrics_overlap_cycles", row.overlap_cycles.to_json()),
                ("analysis", analysis.to_json()),
                ("engine", out.engine.to_json()),
            ]));
            rows.push(row);
        }
    }
    let mut text = text_table(&table);
    text.push('\n');
    text.push_str(&text_table(&host));
    text.push('\n');
    text.push_str(&tail);
    ExperimentResult {
        health: None,
        profile: Some(Json::Arr(payload)),
        id: "BENCH_profile".into(),
        title: "Stall attribution, critical path and host engine profile (hand-PF, ±faults)".into(),
        text,
        rows,
    }
}

/// Service benchmark (jobs-as-values PR): submit the fig6/7/8 PE grid
/// to a dedicated `dta-serve` instance twice and measure the
/// content-addressed cache. The second pass must be served almost
/// entirely from cache (≥90% — in practice 100%) with **byte-identical**
/// canonical results. The warm/cold wall-clock ratio is printed, not
/// asserted: ms-scale host timings are no correctness check. Written as
/// `BENCH_serve.json`; every row carries its `JobKey` and cache-hit
/// flag.
pub fn serve_bench(suite: &[Bench], max_pes: u16, threads: usize) -> ExperimentResult {
    use dta_core::{ObsMode, SimJob};
    use dta_serve::Service;

    // A dedicated service: the two-pass hit-rate accounting must not be
    // diluted by whatever earlier experiments already cached.
    let service = Service::in_memory(threads);
    let pes_list: Vec<u16> = [1u16, 2, 4, 8]
        .into_iter()
        .filter(|&p| p <= max_pes)
        .collect();
    let points: Vec<(Bench, Variant, SystemConfig)> = suite
        .iter()
        .flat_map(|&bench| {
            pes_list.iter().flat_map(move |&pes| {
                VARIANTS.iter().map(move |&v| {
                    let mut cfg = pes8(pes);
                    // Events on: the cache must replay full obs streams
                    // byte-identically, not just scalar stats.
                    cfg.obs.mode = ObsMode::Events;
                    (bench, v, cfg)
                })
            })
        })
        .collect();
    let jobs: Vec<SimJob> = points
        .iter()
        .map(|(b, v, cfg)| job_for(*b, *v, cfg.clone()))
        .collect();

    let started = std::time::Instant::now();
    let cold = service.run_grid(&jobs);
    let cold_ms = started.elapsed().as_secs_f64() * 1e3;
    let after_cold = service.stats();

    let started = std::time::Instant::now();
    let warm = service.run_grid(&jobs);
    let warm_ms = started.elapsed().as_secs_f64() * 1e3;
    let after_warm = service.stats();

    // The contracts the PR promises, checked hard on every run.
    let warm_hits = (after_warm.hits_memory + after_warm.hits_disk + after_warm.coalesced)
        - (after_cold.hits_memory + after_cold.hits_disk + after_cold.coalesced);
    let warm_hit_rate = warm_hits as f64 / jobs.len() as f64;
    assert!(
        warm_hit_rate >= 0.9,
        "second pass must be >=90% cache hits, got {warm_hit_rate:.2}"
    );
    assert_eq!(
        after_warm.executed, after_cold.executed,
        "the warm pass must not re-simulate anything"
    );
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(
            c.result.canonical_string(),
            w.result.canonical_string(),
            "cached result must be byte-identical to the cold run"
        );
    }

    let mut rows = Vec::new();
    for (pass, completions) in [("cold", &cold), ("warm", &warm)] {
        for ((bench, variant, cfg), done) in points.iter().zip(completions.iter()) {
            let mut row = crate::runner::row_from_result(*bench, *variant, cfg, &done.result)
                .unwrap_or_else(|e| panic!("[serve/{pass}] {e}"));
            row.cache_hit = done.status.is_hit();
            row.wall_ms = Some(done.wall_ms);
            rows.push(row);
        }
    }

    let table = vec![
        vec![
            "pass".to_string(),
            "points".into(),
            "executed".into(),
            "hits".into(),
            "hit rate".into(),
            "wall ms".into(),
        ],
        vec![
            "cold".into(),
            jobs.len().to_string(),
            after_cold.executed.to_string(),
            (after_cold.hits_memory + after_cold.hits_disk + after_cold.coalesced).to_string(),
            format!("{:.2}", after_cold.hit_rate()),
            format!("{cold_ms:.1}"),
        ],
        vec![
            "warm".into(),
            jobs.len().to_string(),
            "0".into(),
            warm_hits.to_string(),
            format!("{warm_hit_rate:.2}"),
            format!("{warm_ms:.1}"),
        ],
    ];
    let mut text = text_table(&table);
    text.push_str(&format!(
        "all {} warm results byte-identical to cold; warm/cold wall = {:.3}x\n",
        jobs.len(),
        warm_ms / cold_ms
    ));

    // Host-fault ledger: a healthy two-pass grid must show zero host
    // panics — any panic here is a bug.
    let health = service.health();
    assert_eq!(health.host_panics, 0, "no host panics in a healthy grid");
    text.push_str(&format!(
        "health: executions={} coalesced_waits={} host_panics={} \
         quarantines={} disk_degraded={}\n",
        health.executions,
        health.coalesced_waits,
        health.host_panics,
        health.quarantines,
        health.disk_degraded,
    ));
    ExperimentResult {
        health: Some(health.to_json()),
        profile: None,
        id: "BENCH_serve".into(),
        title: "Service cache: repeated fig6/7/8 PE grid through dta-serve".into(),
        text,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_observe_bench_is_pure_and_counts_events() {
        let r = observe_bench(&[Bench::Mmul(8)], 2);
        assert_eq!(r.id, "BENCH_observe");
        assert_eq!(r.rows.len(), 3);
        // One cycle count across all modes.
        let cycles: Vec<u64> = r.rows.iter().map(|row| row.cycles).collect();
        assert!(cycles.windows(2).all(|w| w[0] == w[1]), "{cycles:?}");
        // The off row collects nothing; the others collect events and
        // the full mode measures non-blocking overlap.
        assert_eq!(r.rows[0].obs_mode, None);
        assert_eq!(r.rows[0].obs_events, 0);
        assert_eq!(r.rows[1].obs_mode.as_deref(), Some("events"));
        assert!(r.rows[1].obs_events > 0);
        assert_eq!(r.rows[2].obs_mode.as_deref(), Some("all"));
        assert!(r.rows[2].overlap_cycles > 0);
        assert!(r.text.contains("trace KB"));
    }

    #[test]
    fn quick_table5_has_three_benchmarks() {
        let r = table5(&Bench::quick_suite(), 2);
        assert_eq!(r.rows.len(), 3);
        assert!(r.text.contains("bitcnt(512)"));
        assert!(r.text.contains("paper"));
    }

    #[test]
    fn quick_fig_exec_reports_speedups() {
        let r = fig_exec_scalability("fig7", Bench::Mmul(8), 2);
        assert_eq!(r.rows.len(), 6); // 2 PE counts x 3 variants
        assert!(r.text.contains("speedup"));
    }

    #[test]
    fn config_prints_paper_tables() {
        let r = config();
        assert!(r.text.contains("512 MB"));
        assert!(r.text.contains("Tag ID"));
    }

    #[test]
    fn quick_serve_bench_hits_cache_on_second_pass() {
        let r = serve_bench(&[Bench::Mmul(8)], 2, 2);
        assert_eq!(r.id, "BENCH_serve");
        // 2 PE counts x 3 variants, cold + warm passes.
        assert_eq!(r.rows.len(), 12);
        let (cold, warm) = r.rows.split_at(6);
        assert!(cold.iter().all(|row| !row.cache_hit));
        assert!(warm.iter().all(|row| row.cache_hit));
        // Identical grid order: pass-paired rows share their JobKey.
        for (c, w) in cold.iter().zip(warm) {
            assert_eq!(c.job_key, w.job_key);
            assert_eq!(c.cycles, w.cycles);
        }
        assert!(r.text.contains("byte-identical"));
    }

    #[test]
    fn quick_failover_sweep_reports_crashes() {
        let r = failover_bench(&[Bench::Bitcnt(512)], 4, 0xDA7A, &[0, 1_000_000], &[]);
        assert_eq!(r.id, "BENCH_failover");
        assert!(r.text.contains("cycle overhead"));
        // The certain-crash rows must have actually crashed and, when
        // they completed, failed over.
        let crashed: Vec<_> = r
            .rows
            .iter()
            .filter(|row| row.fault_rate_ppm == Some(1_000_000))
            .collect();
        assert!(!crashed.is_empty(), "no certain-crash run completed");
        assert!(crashed
            .iter()
            .all(|row| row.dse_crashes > 0 && row.verified));
        // Rate-0 rows are crash-free.
        assert!(r
            .rows
            .iter()
            .filter(|row| row.fault_rate_ppm == Some(0))
            .all(|row| row.dse_crashes == 0 && row.failovers == 0));
    }

    #[test]
    fn quick_failover_sweep_reports_lse_grid() {
        let r = failover_bench(&[Bench::Bitcnt(512)], 4, 0xDA7A, &[], &[0, 500_000]);
        assert_eq!(r.id, "BENCH_failover");
        assert!(r.text.contains("lse ppm"));
        assert!(r.text.contains("cap-aware A/B"));
        // The likely-crash rows that completed must have crashed and
        // re-admitted at least as much as they evacuated; the rate-0 rows
        // must be crash-free.
        let crashed: Vec<_> = r
            .rows
            .iter()
            .filter(|row| row.fault_rate_ppm == Some(500_000) && row.lse_crashes > 0)
            .collect();
        assert!(!crashed.is_empty(), "no lse-crash run completed");
        assert!(crashed
            .iter()
            .all(|row| row.verified && row.readmitted_instances >= row.evacuated_frames));
        assert!(r
            .rows
            .iter()
            .filter(|row| row.fault_rate_ppm == Some(0))
            .all(|row| row.lse_crashes == 0 && row.evacuated_frames == 0));
    }

    #[test]
    fn election_ab_certifies_capacity_aware_choice() {
        // Certain DSE + LSE crashes on a 2-node machine: every detected
        // handover must elect a peer at least as frame-rich as the
        // lowest-id rule would (election_ab panics otherwise).
        let mut cfg = pes8(8);
        cfg.nodes = 2;
        cfg.pes_per_node = 4;
        let mut handovers = 0;
        for s in 0..32u64 {
            let mut plan = dta_core::FaultPlan::seeded(s);
            plan.dse_crash_ppm = 500_000;
            plan.dse_crash_window = 10_000;
            plan.dse_failover_detect = 500;
            plan.dse_restart_after = 10_000;
            plan.lse_crash_ppm = 500_000;
            plan.lse_crash_window = 10_000;
            plan.lse_detect = 500;
            plan.lse_restart_after = 10_000;
            let (h, _) = election_ab(&plan, &cfg);
            handovers += h;
        }
        assert!(handovers > 0, "no seed produced a DSE handover");
    }

    #[test]
    fn quick_faults_sweep_reports_rates() {
        let r = faults_bench(&[Bench::Mmul(8)], 2, 0xDA7A, &[0, 50_000]);
        assert_eq!(r.id, "BENCH_faults");
        assert!(r.rows.iter().any(|row| row.fault_rate_ppm == Some(50_000)));
        assert!(r.rows.iter().all(|row| row.verified));
        assert!(r.text.contains("cycle overhead"));
    }
}
