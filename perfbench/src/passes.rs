//! One pass over a workload's job list: submit every job, check every
//! result. A pass runs from the first job submitted to the last result
//! checked.

use crate::jobs::{BenchJob, Workload};
use crate::trace::{span, Tracer};
use dta_core::{
    analyze, perfetto_trace, run_job, EngineReport, GlobalRead, GlobalSnapshot, JobResult,
    RunStats, System,
};
use dta_serve::{CacheStatus, Completion, Service, ServiceConfig};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The correctness gate: every job result is checked against its host
/// reference and against the `RunStats` of that job's first run.
#[derive(Default)]
pub struct Gate {
    reference: Vec<Option<RunStats>>,
    /// Job results checked.
    pub attempted: u64,
    /// Job results that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Gate {
    /// Counts one checked result.
    pub fn record(&mut self, job: &BenchJob, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 16 {
                self.errors.push(format!("{}: {e}", job.bench.name()));
            }
        }
    }

    /// Requires `stats` to equal the first `RunStats` job `idx` produced.
    pub fn same_stats(&mut self, idx: usize, stats: &RunStats) -> Result<(), String> {
        if self.reference.len() <= idx {
            self.reference.resize(idx + 1, None);
        }
        match &self.reference[idx] {
            None => {
                self.reference[idx] = Some(stats.clone());
                Ok(())
            }
            Some(first) if first == stats => Ok(()),
            Some(first) => Err(format!(
                "RunStats differ from the job's first run ({} vs {} cycles)",
                stats.cycles, first.cycles
            )),
        }
    }

    /// The reference `RunStats` of job `idx`, once it has run.
    pub fn reference(&self, idx: usize) -> Option<&RunStats> {
        self.reference.get(idx).and_then(Option::as_ref)
    }
}

/// Per-pass totals of the counters the simulator exposes. They are
/// deterministic for a fixed job list, so one pass gives them all.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub sim_cycles: u64,
    pub visited_cycles: u64,
    pub pe_ticks: u64,
    pub skipped_ticks: u64,
    pub heap_sum: u64,
    pub heap_samples: u64,
    pub instructions: u64,
    pub pe_cycles: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub memo_aborts: u64,
    pub memo_replayed: u64,
    pub pe_deliveries: u64,
    pub dse_deliveries: u64,
    pub instances: u64,
    pub mem_requests: u64,
    pub dma_commands: u64,
    /// Σ bus utilisation × cycles, for a cycle-weighted mean.
    pub bus_busy: f64,
    pub result_bytes: u64,
    pub obs_records: u64,
    pub warm_submits: u64,
    pub disk_hits: u64,
    pub quarantines: u64,
    pub disk_errors: u64,
}

impl Counts {
    fn add_run(&mut self, stats: &RunStats, engine: &EngineReport) {
        self.sim_cycles += stats.cycles;
        self.visited_cycles += engine.visited_cycles;
        self.pe_ticks += engine.pe_ticks;
        self.skipped_ticks += engine.skipped_ticks;
        self.heap_sum += engine.wake_heap_occupancy.sum;
        self.heap_samples += engine.wake_heap_occupancy.total;
        self.instructions += stats.instructions;
        self.pe_cycles += stats.aggregate.total_cycles();
        self.memo_hits += engine.memo_hits;
        self.memo_misses += engine.memo_misses;
        self.memo_aborts += engine.memo_aborts;
        self.memo_replayed += engine.memo_replayed_cycles;
        self.pe_deliveries += engine.pe_deliveries;
        self.dse_deliveries += engine.dse_deliveries;
        self.instances += stats.instances;
        self.mem_requests += engine.mem_requests;
        self.dma_commands += stats.dma_commands;
        self.bus_busy += stats.bus_utilisation * stats.cycles as f64;
    }
}

/// Runs one pass and returns its host milliseconds and counters. With a
/// tracer, the pass is a root span and every layer call a child span.
pub fn run_pass(
    workload: Workload,
    jobs: &[BenchJob],
    gate: &mut Gate,
    store: &Path,
    tracer: Option<&mut Tracer>,
) -> (f64, Counts) {
    if workload == Workload::ServeReplay {
        // The store starts empty; clearing it is not part of the pass.
        match std::fs::remove_dir_all(store) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => panic!("cannot clear the store {}: {e}", store.display()),
        }
    }
    let mut counts = Counts::default();
    let start = Instant::now();
    let (root, mut tr) = match tracer {
        Some(t) => (Some(t.enter("pass", "")), Some(t)),
        None => (None, None),
    };
    if workload == Workload::ServeReplay {
        serve_pass(jobs, gate, store, &mut counts, &mut tr);
    } else {
        for (idx, job) in jobs.iter().enumerate() {
            let outcome = simulate(job, &mut tr).and_then(|(stats, engine, globals)| {
                counts.add_run(&stats, &engine);
                check(gate, idx, job, &stats, &globals, &mut tr)
            });
            gate.record(job, outcome);
        }
    }
    if let (Some(t), Some(id)) = (tr, root) {
        t.exit(id);
    }
    (start.elapsed().as_secs_f64() * 1e3, counts)
}

/// One simulation. Untraced it is `run_job`; traced it is the same
/// sequence of public calls, so each one gets its own span.
fn simulate(
    job: &BenchJob,
    tr: &mut Option<&mut Tracer>,
) -> Result<(RunStats, EngineReport, GlobalSnapshot), String> {
    if tr.is_none() {
        let out = run_job(&job.job).outcome.map_err(|e| e.to_string())?;
        return Ok((out.stats, out.engine, out.globals));
    }
    let j = &job.job;
    black_box(span(tr, "job.key", job.name, || j.key()));
    let mut sys = span(tr, "system.new", job.name, || {
        System::new(j.config.clone(), Arc::clone(&j.program))
    })
    .map_err(|e| e.to_string())?;
    let stats = span(tr, "system.run", job.name, || {
        sys.launch(&j.args).and_then(|()| sys.run())
    })
    .map_err(|e| e.to_string())?;
    let (engine, globals) = span(tr, "system.snapshot", job.name, || {
        (sys.engine_report().clone(), sys.snapshot_globals())
    });
    span(tr, "system.drop", job.name, || drop(sys));
    Ok((stats, engine, globals))
}

/// The per-job checks every workload shares: host reference, then
/// identity with the job's first `RunStats`.
fn check(
    gate: &mut Gate,
    idx: usize,
    job: &BenchJob,
    stats: &RunStats,
    globals: &dyn GlobalRead,
    tr: &mut Option<&mut Tracer>,
) -> Result<(), String> {
    span(tr, "workloads.verify", job.name, || job.verify(globals))?;
    gate.same_stats(idx, stats)
}

fn service(store: &Path) -> Service {
    Service::new(ServiceConfig {
        threads: 1,
        disk_dir: Some(store.to_path_buf()),
        ..ServiceConfig::default()
    })
}

/// The service path: simulate, encode and store from one fresh service;
/// load, verify and decode from a second; then render and analyse the
/// observability stream of the loaded results.
fn serve_pass(
    jobs: &[BenchJob],
    gate: &mut Gate,
    store: &Path,
    counts: &mut Counts,
    tr: &mut Option<&mut Tracer>,
) {
    let cold_svc = span(tr, "serve.new", "", || service(store));
    let cold: Vec<Completion> = jobs
        .iter()
        .map(|j| span(tr, "serve.cold_submit", j.name, || cold_svc.submit(&j.job)))
        .collect();
    let warm_svc = span(tr, "serve.new", "", || service(store));
    let warm: Vec<Completion> = jobs
        .iter()
        .map(|j| span(tr, "serve.warm_submit", j.name, || warm_svc.submit(&j.job)))
        .collect();
    for svc in [&cold_svc, &warm_svc] {
        let health = svc.health();
        counts.quarantines += health.quarantines;
        counts.disk_errors += health.disk_errors;
    }
    counts.warm_submits = warm_svc.stats().submitted;
    counts.disk_hits = warm_svc.stats().hits_disk;
    for (idx, job) in jobs.iter().enumerate() {
        let outcome = check_served(gate, idx, job, &cold[idx], &warm[idx], counts, tr);
        gate.record(job, outcome);
    }
}

fn check_served(
    gate: &mut Gate,
    idx: usize,
    job: &BenchJob,
    cold: &Completion,
    warm: &Completion,
    counts: &mut Counts,
    tr: &mut Option<&mut Tracer>,
) -> Result<(), String> {
    let cold_out = cold.result.outcome.as_ref().map_err(|e| e.to_string())?;
    let warm_out = warm.result.outcome.as_ref().map_err(|e| e.to_string())?;
    if warm.status != CacheStatus::Disk {
        return Err(format!(
            "second service answered from {}, not from disk",
            warm.status.label()
        ));
    }
    let cold_text = span(tr, "job.encode", job.name, || {
        cold.result.canonical_string()
    });
    let warm_text = span(tr, "job.encode", job.name, || {
        warm.result.canonical_string()
    });
    if cold_text != warm_text {
        return Err("cold and warm canonical results differ".into());
    }
    let decoded = span(tr, "job.decode", job.name, || {
        JobResult::from_canonical_str(&warm_text)
    });
    if decoded.as_ref() != Some(&*warm.result) {
        return Err("canonical result does not decode to the loaded result".into());
    }
    counts.result_bytes += warm_text.len() as u64;
    counts.add_run(&cold_out.stats, &cold_out.engine);
    check(gate, idx, job, &warm_out.stats, &warm_out.globals, tr)?;

    let stream = warm_out
        .obs
        .as_ref()
        .ok_or("result carries no obs stream")?;
    counts.obs_records += stream.len() as u64;
    let trace = span(tr, "obs.perfetto", job.name, || {
        perfetto_trace(&job.job.config, &job.job.program, stream)
    });
    if trace.is_empty() {
        return Err("empty Perfetto trace".into());
    }
    let analysis = span(tr, "obs.analyze", job.name, || {
        let fine: Vec<_> = warm_out.stats.per_pe.iter().map(|p| p.fine).collect();
        let cycles: Vec<u64> = warm_out
            .stats
            .per_pe
            .iter()
            .map(|p| p.total_cycles())
            .collect();
        let names: Vec<String> = job
            .job
            .program
            .threads
            .iter()
            .map(|t| t.name.clone())
            .collect();
        analyze(&stream.records, &fine, &cycles, &names)
    });
    if analysis.pes.len() != warm_out.stats.per_pe.len() {
        return Err("analysis lost PEs".into());
    }
    Ok(())
}
