//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [EXPERIMENT ...] [--quick] [--pes N] [--out DIR]
//!       [--sweep-threads N] [--cache-dir DIR] [--deadline-ms N]
//!       [--fault-seed N] [--fault-rate PPM] [--lse-crash-ppm PPM] [--obs MODE]
//!       [--metrics-interval N] [--obs-stream N] [--trace-out PATH]
//!
//! EXPERIMENT: config table5 fig5 fig6 fig7 fig8 fig9 lat1
//!             ablate-split ablate-vfp ablate-hw
//!             ext-cache ext-spxp ext-wholeobj
//!             faults failover observe profile serve all
//!             (default: all)
//! --quick     scaled-down workload sizes (CI-friendly)
//! --pes N     PEs for the non-scalability experiments (default 8)
//! --sweep-threads N  run the independent points of parameter sweeps
//!             (every per-benchmark/per-config grid) on N host
//!             threads — the service's batch-executor pool; reports
//!             are identical to sequential
//! --cache-dir DIR  persist canonical `JobResult`s to DIR (the
//!             service's on-disk content-addressed store): repeated
//!             `repro` invocations replay identical points from disk
//!             instead of re-simulating
//! --deadline-ms N  per-job wall-clock budget for service runs: a job
//!             exceeding it completes as a typed host-side `Timeout`
//!             (never cached); the deterministic backstop remains each
//!             job's `max_cycles`
//! --fault-seed N   base seed for the `faults`/`failover` sweeps
//!                  (default 0xDA7A)
//! --fault-rate PPM single injected fault rate for the `faults`
//!                  experiment instead of the built-in 0/1k/10k/100k
//!                  ppm sweep
//! --lse-crash-ppm PPM single LSE crash rate for the `failover`
//!                  experiment's LSE grid instead of the built-in
//!                  0/200k/500k ppm sweep
//! --obs MODE  run every experiment with the structured observability
//!             bus on: events | metrics | all | off (default off).
//!             Collection is pure observation — results and cycle
//!             counts are byte-identical — and composes with
//!             --sweep-threads
//! --metrics-interval N  gauge sampling interval in cycles
//!             (default 1000; implies nothing unless --obs samples)
//! --obs-stream N  drain observability records out of the per-unit
//!             rings every ~N simulated cycles instead of only at run
//!             end (0 = post-run merge; needs --obs). The merged stream
//!             is identical; long runs stop overflowing the rings
//! --trace-out PATH  additionally run the prefetched mmul under full
//!             observability and write a Perfetto/Chrome trace.json
//!             to PATH — load it at https://ui.perfetto.dev
//! --out DIR   also write <exp>.json / <exp>.txt into DIR
//!             (default: results/)
//! ```

use dta_bench::experiments::{
    ablate_hw, ablate_split, ablate_vfp, config, ext_cache, ext_spxp, ext_wholeobj, failover_bench,
    faults_bench, fig5, fig9, fig_exec_scalability, lat1, observe_bench, profile_bench,
    serve_bench, table5,
};
use dta_bench::{emit, Bench, ExperimentResult};
use std::path::PathBuf;
use std::process::ExitCode;

/// Per-node crash probabilities for the failover sweep: off, likely-one,
/// certain-all (the last exercises crash-of-successor and restart).
const FAILOVER_RATES: &[u32] = &[0, 500_000, 1_000_000];

/// Per-PE LSE crash probabilities for the failover sweep's LSE grid
/// (overridden by `--lse-crash-ppm`).
const LSE_FAILOVER_RATES: &[u32] = &[0, 200_000, 500_000];

struct Options {
    experiments: Vec<String>,
    quick: bool,
    pes: u16,
    sweep_threads: Option<usize>,
    cache_dir: Option<PathBuf>,
    deadline_ms: Option<u64>,
    fault_seed: u64,
    fault_rate: Option<u32>,
    lse_crash_ppm: Option<u32>,
    obs: Option<dta_core::ObsMode>,
    metrics_interval: Option<u64>,
    obs_stream: Option<u64>,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        experiments: Vec::new(),
        quick: false,
        pes: 8,
        sweep_threads: None,
        cache_dir: None,
        deadline_ms: None,
        fault_seed: 0xDA7A,
        fault_rate: None,
        lse_crash_ppm: None,
        obs: None,
        metrics_interval: None,
        obs_stream: None,
        trace_out: None,
        out: Some(PathBuf::from("results")),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--pes" => {
                opts.pes = args
                    .next()
                    .ok_or("--pes needs a value")?
                    .parse()
                    .map_err(|_| "--pes needs a number")?;
            }
            "--sweep-threads" => {
                opts.sweep_threads = Some(
                    args.next()
                        .ok_or("--sweep-threads needs a value")?
                        .parse()
                        .map_err(|_| "--sweep-threads needs a number")?,
                );
            }
            "--cache-dir" => {
                opts.cache_dir = Some(PathBuf::from(
                    args.next().ok_or("--cache-dir needs a value")?,
                ));
            }
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    args.next()
                        .ok_or("--deadline-ms needs a value")?
                        .parse()
                        .map_err(|_| "--deadline-ms needs a millisecond count")?,
                );
            }
            "--fault-seed" => {
                let v = args.next().ok_or("--fault-seed needs a value")?;
                opts.fault_seed = v
                    .strip_prefix("0x")
                    .map_or_else(|| v.parse().ok(), |h| u64::from_str_radix(h, 16).ok())
                    .ok_or("--fault-seed needs a number")?;
            }
            "--fault-rate" => {
                opts.fault_rate = Some(
                    args.next()
                        .ok_or("--fault-rate needs a value")?
                        .parse()
                        .map_err(|_| "--fault-rate needs a ppm number")?,
                );
            }
            "--lse-crash-ppm" => {
                opts.lse_crash_ppm = Some(
                    args.next()
                        .ok_or("--lse-crash-ppm needs a value")?
                        .parse()
                        .map_err(|_| "--lse-crash-ppm needs a ppm number")?,
                );
            }
            "--obs" => {
                opts.obs = Some(match args.next().ok_or("--obs needs a value")?.as_str() {
                    "off" => dta_core::ObsMode::Off,
                    "events" => dta_core::ObsMode::Events,
                    "metrics" => dta_core::ObsMode::Metrics,
                    "all" => dta_core::ObsMode::All,
                    other => return Err(format!("--obs: unknown mode {other:?}")),
                });
            }
            "--metrics-interval" => {
                opts.metrics_interval = Some(
                    args.next()
                        .ok_or("--metrics-interval needs a value")?
                        .parse()
                        .map_err(|_| "--metrics-interval needs a cycle count")?,
                );
            }
            "--obs-stream" => {
                opts.obs_stream = Some(
                    args.next()
                        .ok_or("--obs-stream needs a value")?
                        .parse()
                        .map_err(|_| "--obs-stream needs a cycle count")?,
                );
            }
            "--trace-out" => {
                opts.trace_out = Some(PathBuf::from(
                    args.next().ok_or("--trace-out needs a path")?,
                ));
            }
            "--out" => {
                opts.out = Some(PathBuf::from(args.next().ok_or("--out needs a value")?));
            }
            "--no-out" => opts.out = None,
            "--help" | "-h" => {
                return Err(
                    "usage: repro [EXPERIMENT ...] [--quick] [--pes N] [--sweep-threads N] \
                     [--fault-seed N] [--fault-rate PPM] [--out DIR]"
                        .into(),
                )
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            exp => opts.experiments.push(exp.to_string()),
        }
    }
    if opts.experiments.is_empty() || opts.experiments.iter().any(|e| e == "all") {
        opts.experiments = [
            "config",
            "table5",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "lat1",
            "ablate-split",
            "ablate-vfp",
            "ablate-hw",
            "ext-cache",
            "ext-spxp",
            "ext-wholeobj",
            "faults", // also emits the failover sweep
            "observe",
            "profile",
            "serve",
        ]
        .map(str::to_string)
        .to_vec();
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // One process-wide service carries every untimed run: sweep workers
    // from --sweep-threads, the on-disk result store from --cache-dir,
    // the per-job wall-clock budget from --deadline-ms.
    dta_bench::configure_service(
        opts.sweep_threads.unwrap_or(1),
        opts.cache_dir.as_deref(),
        opts.deadline_ms,
    );
    if opts.obs.is_some() || opts.metrics_interval.is_some() || opts.obs_stream.is_some() {
        let mut obs = dta_core::ObsConfig::default();
        if let Some(mode) = opts.obs {
            obs.mode = mode;
        }
        if let Some(n) = opts.metrics_interval {
            obs.metrics_interval = n;
        }
        if let Some(n) = opts.obs_stream {
            obs.stream_interval = n;
        }
        dta_bench::experiments::set_default_obs(obs);
    }
    let suite = if opts.quick {
        Bench::quick_suite()
    } else {
        Bench::paper_suite()
    };
    let (bitcnt_n, mmul_n, zoom_n) = if opts.quick {
        (512, 16, 16)
    } else {
        (10_000, 32, 32)
    };
    let colsum_n = if opts.quick { 32 } else { 128 };

    for exp in &opts.experiments {
        let started = std::time::Instant::now();
        let result: ExperimentResult = match exp.as_str() {
            "config" => config(),
            "table5" => table5(&suite, opts.pes),
            "fig5" => fig5(&suite, opts.pes),
            "fig6" => fig_exec_scalability("fig6", Bench::Bitcnt(bitcnt_n), opts.pes),
            "fig7" => fig_exec_scalability("fig7", Bench::Mmul(mmul_n), opts.pes),
            "fig8" => fig_exec_scalability("fig8", Bench::Zoom(zoom_n), opts.pes),
            "fig9" => fig9(&suite, opts.pes),
            "lat1" => lat1(&suite, opts.pes),
            "ablate-split" => ablate_split(colsum_n, opts.pes),
            "ablate-vfp" => ablate_vfp(bitcnt_n, opts.pes),
            "ablate-hw" => ablate_hw(mmul_n, opts.pes),
            "ext-cache" => ext_cache(mmul_n, zoom_n, opts.pes),
            "ext-spxp" => ext_spxp(&suite, opts.pes),
            "ext-wholeobj" => ext_wholeobj(bitcnt_n, opts.pes),
            "faults" => {
                let rates: Vec<u32> = match opts.fault_rate {
                    Some(r) => vec![0, r],
                    None => vec![0, 1_000, 10_000, 100_000],
                };
                // The faults family also tracks DSE-crash recovery: emit
                // the failover sweep alongside the fault sweep.
                let lse_rates: Vec<u32> = match opts.lse_crash_ppm {
                    Some(r) => vec![0, r],
                    None => LSE_FAILOVER_RATES.to_vec(),
                };
                let fo = failover_bench(
                    &suite,
                    opts.pes,
                    opts.fault_seed,
                    FAILOVER_RATES,
                    &lse_rates,
                );
                if let Err(e) = emit(&fo, opts.out.as_deref()) {
                    eprintln!("failed to write results: {e}");
                    return ExitCode::FAILURE;
                }
                faults_bench(&suite, opts.pes, opts.fault_seed, &rates)
            }
            "failover" => {
                let lse_rates: Vec<u32> = match opts.lse_crash_ppm {
                    Some(r) => vec![0, r],
                    None => LSE_FAILOVER_RATES.to_vec(),
                };
                failover_bench(
                    &suite,
                    opts.pes,
                    opts.fault_seed,
                    FAILOVER_RATES,
                    &lse_rates,
                )
            }
            "observe" => observe_bench(&suite, opts.pes),
            "profile" => profile_bench(&suite, opts.pes, opts.fault_seed),
            "serve" => serve_bench(&suite, opts.pes, opts.sweep_threads.unwrap_or(1)),
            other => {
                eprintln!("unknown experiment {other:?} (try --help)");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = emit(&result, opts.out.as_deref()) {
            eprintln!("failed to write results: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[{exp} done in {:.1?}]\n", started.elapsed());
    }
    if let Some(path) = &opts.trace_out {
        let bench = Bench::Mmul(mmul_n);
        let mut cfg = dta_core::SystemConfig::with_pes(opts.pes);
        if let Some(n) = opts.metrics_interval {
            cfg.obs.metrics_interval = n;
        }
        match dta_bench::runner::try_run_traced(bench, dta_workloads::Variant::HandPrefetch, cfg) {
            Ok((row, trace)) => {
                if let Err(e) = std::fs::write(path, &trace) {
                    eprintln!("failed to write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "[trace: {} {} events -> {} ({:.0} KB); open it at https://ui.perfetto.dev]",
                    bench.name(),
                    row.obs_events,
                    path.display(),
                    trace.len() as f64 / 1024.0,
                );
            }
            Err(e) => {
                eprintln!("--trace-out run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
