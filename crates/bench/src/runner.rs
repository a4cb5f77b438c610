//! Running one benchmark configuration and collecting a result row.
//!
//! Since the jobs-as-values refactor this module is a thin client of
//! [`dta_serve::Service`]: a benchmark point becomes a [`SimJob`] value,
//! the job goes to the process-wide service (identical points hit the
//! content-addressed cache or coalesce onto an in-flight run), and the
//! returned [`dta_core::JobResult`] is folded into a [`Row`].
//!
//! [`try_run_traced`] calls [`run_job`] directly: it needs the run's
//! observability stream to render a trace. Host timing is measured by
//! `perfbench/`, not here.

use dta_core::{
    run_job, Breakdown, GlobalRead, JobResult, MetricsSink, ObsMode, RunStats, SimJob, StallCat,
    SystemConfig,
};
use dta_serve::Service;
use dta_workloads::{
    bitcnt, colsum, gather, mmul, stencil, vecscale, zoom, Variant, WorkloadProgram,
};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// The process-wide simulation service every untimed run goes through.
/// Sharing one instance deduplicates identical points *across*
/// experiments in a `repro` invocation, not just within one sweep.
static SERVICE: OnceLock<Service> = OnceLock::new();

/// Configures the shared service (sweep workers, optional on-disk
/// result store, optional per-job wall-clock deadline in milliseconds).
/// First call wins — call it from `main` before any run; later calls
/// (and runs before any call) fall back to a sequential, memory-only
/// service.
pub fn configure_service(threads: usize, disk_dir: Option<&Path>, deadline_ms: Option<u64>) {
    let _ = SERVICE.set(Service::new(dta_serve::ServiceConfig {
        threads,
        disk_dir: disk_dir.map(Path::to_path_buf),
        deadline: deadline_ms.map(std::time::Duration::from_millis),
        ..dta_serve::ServiceConfig::default()
    }));
}

/// The shared service (sequential and memory-only unless
/// [`configure_service`] ran first).
pub fn service() -> &'static Service {
    SERVICE.get_or_init(|| Service::in_memory(1))
}

/// A benchmark instance (workload + size).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bench {
    /// `bitcnt(n)` — n samples.
    Bitcnt(usize),
    /// `mmul(n)` — n×n matrices.
    Mmul(usize),
    /// `zoom(n)` — n×n source image.
    Zoom(usize),
    /// `vecscale(n, chunks)`.
    Vecscale(usize, usize),
    /// `stencil(n, chunks)`.
    Stencil(usize, usize),
    /// `colsum(n)`.
    Colsum(usize),
    /// `gather(n)` — data-dependent sparse gather (fast-forward stress).
    Gather(usize),
}

impl Bench {
    /// The paper's three benchmarks at the paper's sizes (§4.2:
    /// bitcnt(10000), mmul(32), zoom(32)).
    pub fn paper_suite() -> [Bench; 3] {
        [Bench::Bitcnt(10_000), Bench::Mmul(32), Bench::Zoom(32)]
    }

    /// Scaled-down suite for quick runs and CI.
    pub fn quick_suite() -> [Bench; 3] {
        [Bench::Bitcnt(512), Bench::Mmul(16), Bench::Zoom(16)]
    }

    /// Display name, matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Bench::Bitcnt(n) => format!("bitcnt({n})"),
            Bench::Mmul(n) => format!("mmul({n})"),
            Bench::Zoom(n) => format!("zoom({n})"),
            Bench::Vecscale(n, _) => format!("vecscale({n})"),
            Bench::Stencil(n, _) => format!("stencil({n})"),
            Bench::Colsum(n) => format!("colsum({n})"),
            Bench::Gather(n) => format!("gather({n})"),
        }
    }

    /// Builds the program for a variant.
    pub fn build(&self, variant: Variant) -> WorkloadProgram {
        match *self {
            Bench::Bitcnt(n) => bitcnt::build(n, variant),
            Bench::Mmul(n) => mmul::build(n, variant),
            Bench::Zoom(n) => zoom::build(n, variant),
            Bench::Vecscale(n, c) => vecscale::build(n, c, variant),
            Bench::Stencil(n, c) => stencil::build(n, c, variant),
            Bench::Colsum(n) => colsum::build(n, variant),
            Bench::Gather(n) => gather::build(n, variant),
        }
    }

    /// Checks a finished run against the host reference. Works on any
    /// [`GlobalRead`] view — a live `System` or the serializable
    /// `GlobalSnapshot` a cached [`JobResult`] carries.
    pub fn verify(&self, sys: &dyn GlobalRead) -> Result<(), String> {
        match *self {
            Bench::Bitcnt(n) => bitcnt::verify(sys, n),
            Bench::Mmul(n) => mmul::verify(sys, n),
            Bench::Zoom(n) => zoom::verify(sys, n),
            Bench::Vecscale(n, _) => vecscale::verify(sys, n),
            Bench::Stencil(n, _) => stencil::verify(sys, n),
            Bench::Colsum(n) => colsum::verify(sys, n),
            Bench::Gather(n) => gather::verify(sys, n),
        }
    }
}

/// One point of a sweep grid: a benchmark configuration to run through
/// [`sweep`].
#[derive(Clone)]
pub struct SweepPoint {
    /// Workload + size.
    pub bench: Bench,
    /// Program variant.
    pub variant: Variant,
    /// Machine configuration.
    pub cfg: SystemConfig,
}

impl SweepPoint {
    /// Convenience constructor.
    pub fn new(bench: Bench, variant: Variant, cfg: SystemConfig) -> SweepPoint {
        SweepPoint {
            bench,
            variant,
            cfg,
        }
    }
}

/// One measured data point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name, e.g. `mmul(32)`.
    pub bench: String,
    /// Variant label (`baseline` / `prefetch-hand` / `prefetch-auto`).
    pub variant: String,
    /// Number of PEs.
    pub pes: u16,
    /// Main-memory latency used.
    pub mem_latency: u64,
    /// Execution time in cycles.
    pub cycles: u64,
    /// Average per-SPU breakdown.
    pub breakdown: Breakdown,
    /// Table 5 counters: (total, LOAD, STORE, READ, WRITE).
    pub table5: (u64, u64, u64, u64, u64),
    /// Thread instances created.
    pub instances: u64,
    /// DMA commands issued.
    pub dma_commands: u64,
    /// Bus utilisation.
    pub bus_utilisation: f64,
    /// SP-pipeline PF cycles (sp_pf_overlap extension).
    pub sp_pf_cycles: u64,
    /// Cache hits / misses (cache extension; zero without a cache).
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Result checked against the host reference.
    pub verified: bool,
    /// Injected transient DMA failure rate, ppm (`None` = no fault plan).
    pub fault_rate_ppm: Option<u32>,
    /// Fault-plan seed (`None` = no fault plan).
    pub fault_seed: Option<u64>,
    /// DMA command retries performed.
    pub dma_retries: u64,
    /// DMA commands that exhausted their retry budget.
    pub dma_exhausted: u64,
    /// PEs degraded to the PF-skip fallback path.
    pub degraded_pes: u64,
    /// Thread instances substituted with their fallback twin.
    pub fallback_instances: u64,
    /// Planned DSE crashes delivered (failover PR; zero without a
    /// `dse_crash` schedule).
    pub dse_crashes: u64,
    /// Arbitration handovers to a successor DSE.
    pub failovers: u64,
    /// FALLOC requests re-homed away from a dead DSE.
    pub rehomed_fallocs: u64,
    /// Mirror-resync registrations processed after crash or restart.
    pub resync_msgs: u64,
    /// Planned LSE crashes delivered (robustness PR; zero without an
    /// `lse_crash` schedule).
    pub lse_crashes: u64,
    /// Pre-start frames evacuated to a same-node peer at LSE crashes.
    pub evacuated_frames: u64,
    /// Instances re-admitted at an adopting peer (evacuees plus replayed
    /// untainted kills, so ≥ `evacuated_frames`).
    pub readmitted_instances: u64,
    /// Started instances killed by LSE crashes (tainted ones are lost).
    pub killed_instances: u64,
    /// Host wall-clock for the run, milliseconds (only the wall-clock
    /// benchmarks measure this; `None` elsewhere).
    pub wall_ms: Option<f64>,
    /// Observability mode label (`None` when the bus is off).
    pub obs_mode: Option<String>,
    /// Structured events collected on the bus.
    pub obs_events: u64,
    /// Events dropped by the bounded per-unit rings.
    pub obs_dropped: u64,
    /// Cycles a pipeline spent busy while its own MFC had DMA in flight
    /// (the paper's non-blocking overlap; zero unless metrics are on).
    pub overlap_cycles: u64,
    /// `overlap_cycles` over total busy cycles (zero unless metrics on).
    pub overlap_fraction: f64,
    /// Distinct simulated cycles the engine actually visited (host-side
    /// work counter; simulated results never depend on it).
    pub visited_cycles: u64,
    /// PE ticks the engine performed.
    pub pe_ticks: u64,
    /// Blocked/idle PE ticks the wake-set scheduler skipped.
    pub skipped_ticks: u64,
    /// Host wall time of the run loop, µs. Host-side — cached rows
    /// replay the producing run's clock.
    pub run_wall_us: u64,
    /// Events delivered to PEs (LSE + pipeline) — per-unit host work.
    pub pe_deliveries: u64,
    /// Events delivered to DSEs (DSEs never tick; this is their entire
    /// host cost).
    pub dse_deliveries: u64,
    /// Shared memory-system transactions served.
    pub mem_requests: u64,
    /// Mean wake-set occupancy (`EngineReport::wake_heap_occupancy`).
    pub wake_heap_mean: f64,
    /// Peak wake-set occupancy.
    pub wake_heap_max: u64,
    /// Content hash of the job that produced this row (`JobKey` hex).
    pub job_key: String,
    /// Whether this row was served from the result cache (memory, disk
    /// or coalesced onto an in-flight run) instead of simulating.
    pub cache_hit: bool,
}

impl Row {
    /// Percentage helper for report printing.
    pub fn pct(&self, cat: StallCat) -> f64 {
        self.breakdown.pct(cat)
    }
}

/// Builds the [`SimJob`] value for one benchmark point. The job is pure
/// data — hashable, serializable and independent of any live machine.
pub fn job_for(bench: Bench, variant: Variant, cfg: SystemConfig) -> SimJob {
    let wp = bench.build(variant);
    SimJob::new(Arc::new(wp.program), wp.args, cfg)
}

/// Folds a job's result into a [`Row`], verifying the outcome against
/// the host reference via the result's detached global snapshot.
pub(crate) fn row_from_result(
    bench: Bench,
    variant: Variant,
    cfg: &SystemConfig,
    result: &JobResult,
) -> Result<Row, String> {
    let out = match &result.outcome {
        Ok(out) => out,
        Err(e) => return Err(format!("{} [{}]: {e}", bench.name(), variant.label())),
    };
    bench.verify(&out.globals).map_err(|e| {
        format!(
            "{} [{}]: result mismatch: {e}",
            bench.name(),
            variant.label()
        )
    })?;
    let mut row = row_from(
        &bench,
        variant,
        cfg.total_pes(),
        cfg.mem_latency,
        &out.stats,
    );
    row.job_key = result.key.hex();
    row.obs_mode = obs_label(cfg.obs.mode);
    row.visited_cycles = out.engine.visited_cycles;
    row.pe_ticks = out.engine.pe_ticks;
    row.skipped_ticks = out.engine.skipped_ticks;
    row.run_wall_us = out.engine.run_wall_us;
    row.pe_deliveries = out.engine.pe_deliveries;
    row.dse_deliveries = out.engine.dse_deliveries;
    row.mem_requests = out.engine.mem_requests;
    row.wake_heap_mean = out.engine.wake_heap_occupancy.mean();
    row.wake_heap_max = out.engine.wake_heap_occupancy.max;
    if let Some(stream) = &out.obs {
        row.obs_events = stream.len() as u64;
        row.obs_dropped = stream.dropped;
        // Metrics are a pure fold over the stream, so a cached stream
        // yields the same report a live run would.
        let mut sink = MetricsSink::new(cfg.total_pes());
        stream.feed(&mut sink);
        let metrics = sink.finish();
        row.overlap_cycles = metrics.overlap_cycles;
        row.overlap_fraction = metrics.overlap_fraction();
    }
    Ok(row)
}

/// Runs one benchmark configuration through the shared service,
/// verifying the result. Returns an error description on deadlock or
/// launch failure (used by ablations that deliberately under-provision
/// the machine). Identical points are served from the cache.
pub fn try_run(bench: Bench, variant: Variant, cfg: SystemConfig) -> Result<Row, String> {
    let job = job_for(bench, variant, cfg);
    let done = service().submit(&job);
    let mut row = row_from_result(bench, variant, &job.config, &done.result)?;
    row.cache_hit = done.status.is_hit();
    Ok(row)
}

/// Runs one benchmark configuration with full observability forced
/// on, verifying the result, and renders its Perfetto trace. Returns
/// the row and the `trace.json` text.
pub fn try_run_traced(
    bench: Bench,
    variant: Variant,
    mut cfg: SystemConfig,
) -> Result<(Row, String), String> {
    cfg.obs.mode = ObsMode::All;
    let job = job_for(bench, variant, cfg);
    let result = run_job(&job);
    let row = row_from_result(bench, variant, &job.config, &result)?;
    let out = result.outcome.as_ref().expect("row_from_result verified");
    let stream = out.obs.as_ref().expect("full observability was forced on");
    let trace = dta_core::perfetto_trace(&job.config, &job.program, stream);
    Ok((row, trace))
}

/// Runs a whole sweep grid through the shared service's batch executor
/// (the `--sweep-threads` pool), returning per-point outcomes in grid
/// order. Duplicate points — within the grid or across earlier
/// experiments — are served from the cache or coalesced.
pub fn sweep(points: &[SweepPoint]) -> Vec<Result<Row, String>> {
    let jobs: Vec<SimJob> = points
        .iter()
        .map(|p| job_for(p.bench, p.variant, p.cfg.clone()))
        .collect();
    let completions = service().run_grid(&jobs);
    points
        .iter()
        .zip(jobs.iter().zip(completions))
        .map(|(p, (job, done))| {
            let mut row = row_from_result(p.bench, p.variant, &job.config, &done.result)?;
            row.cache_hit = done.status.is_hit();
            Ok(row)
        })
        .collect()
}

/// [`sweep`], panicking on any failed point (the common case for
/// experiments whose grids must all complete).
pub fn sweep_ok(points: &[SweepPoint]) -> Vec<Row> {
    sweep(points)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

fn obs_label(mode: ObsMode) -> Option<String> {
    match mode {
        ObsMode::Off => None,
        ObsMode::Events => Some("events".into()),
        ObsMode::Metrics => Some("metrics".into()),
        ObsMode::All => Some("all".into()),
    }
}

/// Runs one benchmark configuration, verifying the result.
///
/// # Panics
///
/// On simulation failure or result mismatch.
pub fn run(bench: Bench, variant: Variant, cfg: SystemConfig) -> Row {
    try_run(bench, variant, cfg).unwrap_or_else(|e| panic!("{e}"))
}

fn row_from(bench: &Bench, variant: Variant, pes: u16, mem_latency: u64, stats: &RunStats) -> Row {
    Row {
        bench: bench.name(),
        variant: variant.label().to_string(),
        pes,
        mem_latency,
        cycles: stats.cycles,
        breakdown: stats.breakdown(),
        table5: stats.table5_row(),
        instances: stats.instances,
        dma_commands: stats.dma_commands,
        bus_utilisation: stats.bus_utilisation,
        sp_pf_cycles: stats.aggregate.sp_pf_cycles,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        verified: true,
        fault_rate_ppm: None,
        fault_seed: None,
        dma_retries: stats.dma_retries,
        dma_exhausted: stats.dma_exhausted,
        degraded_pes: stats.degraded_pes.len() as u64,
        fallback_instances: stats.fallback_instances,
        dse_crashes: stats.dse_crashes,
        failovers: stats.failovers,
        rehomed_fallocs: stats.rehomed_fallocs,
        resync_msgs: stats.resync_msgs,
        lse_crashes: stats.lse_crashes,
        evacuated_frames: stats.evacuated_frames,
        readmitted_instances: stats.readmitted_instances,
        killed_instances: stats.killed_instances,
        wall_ms: None,
        obs_mode: None,
        obs_events: 0,
        obs_dropped: 0,
        overlap_cycles: 0,
        overlap_fraction: 0.0,
        visited_cycles: 0,
        pe_ticks: 0,
        skipped_ticks: 0,
        run_wall_us: 0,
        pe_deliveries: 0,
        dse_deliveries: 0,
        mem_requests: 0,
        wake_heap_mean: 0.0,
        wake_heap_max: 0,
        job_key: String::new(),
        cache_hit: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_runs_and_verifies() {
        for bench in Bench::quick_suite() {
            let row = run(bench, Variant::Baseline, SystemConfig::with_pes(2));
            assert!(row.verified);
            assert!(row.cycles > 0);
            assert_eq!(row.pes, 2);
            assert_eq!(row.job_key.len(), 32, "rows carry the JobKey hash");
        }
    }

    #[test]
    fn repeated_run_is_a_cache_hit() {
        let bench = Bench::Vecscale(64, 4);
        let cold = run(bench, Variant::Baseline, SystemConfig::with_pes(2));
        let warm = run(bench, Variant::Baseline, SystemConfig::with_pes(2));
        assert_eq!(cold.job_key, warm.job_key);
        assert!(warm.cache_hit, "second identical run must be served cached");
        assert_eq!(cold.cycles, warm.cycles);
    }

    #[test]
    fn names_match_paper_style() {
        assert_eq!(Bench::Mmul(32).name(), "mmul(32)");
        assert_eq!(Bench::Bitcnt(10_000).name(), "bitcnt(10000)");
    }
}
