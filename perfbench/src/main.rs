//! `perfbench` — the simulator's end-to-end and per-layer host-time
//! benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! One client in one process runs back-to-back passes over the
//! workload's job list (a closed loop with no think time) for `--seconds`
//! seconds, checks every result, and prints one JSON object as the last
//! line of standard output. With `--trace 0` it reports the end-to-end
//! metrics; with `--trace 1` it alternates untraced and traced passes and
//! reports the per-layer metrics, the layer self-time table and the
//! tracing overhead. Each run also writes a record stamped with the host
//! fingerprint, and a traced run writes its spans as Chrome trace JSON,
//! both under `.perfbench_out/`. See `perfbench/README.md`.

mod calib;
mod host;
mod jobs;
mod passes;
mod trace;

use calib::Calibrator;
use dta_core::{run_job, MemoConfig};
use dta_json::{fnv1a128, u64_json, Json, ToJson};
use jobs::{build_jobs, BenchJob, Workload, JOB_NAMES};
use passes::{run_pass, Counts, Gate};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <paper|paper-memo|gather-wide|serve-replay> \
--seed <n> --seconds <s> --trace <0|1> [--quick]";

/// Timed set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed passes of each kind, however short `--seconds` is.
const MIN_PASSES: usize = 5;
/// Where records, traces and the serve workload's store go.
const OUT_DIR: &str = ".perfbench_out";

/// Layer spans whose summed time per pass is a `<span>_ms` metric.
const TIMED_SPANS: [&str; 11] = [
    "workloads.build",
    "workloads.verify",
    "system.new",
    "system.run",
    "job.key",
    "job.encode",
    "job.decode",
    "obs.perfetto",
    "obs.analyze",
    "serve.cold_submit",
    "serve.warm_submit",
];
/// Layers the benchmark places spans in.
const LAYERS: [&str; 5] = ["workloads", "system", "job", "obs", "serve"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
            (None, None, None, None, false);
        while let Some(flag) = argv.next() {
            if flag == "--quick" {
                quick = true;
                continue;
            }
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::from_name(&value).ok_or(bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("expected 0 < seconds <= 600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            quick,
        })
    }
}

/// Removes the serve workload's store however the run ends.
struct StoreGuard(PathBuf);

impl Drop for StoreGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Median and quartiles, as Python's `statistics.median` and
/// `statistics.quantiles(n=4)` (exclusive method) compute them.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n == 1 {
        return (v[0], median, v[0]);
    }
    let q = |k: f64| {
        let m = (n + 1) as f64 * k / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1.0), median, q(3.0))
}

fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Pass-time summary for the record, including the highest percentile
/// that still has ten passes beyond it (`null` with ten passes or fewer).
fn summary(times: &[f64]) -> Json {
    let (p25, p50, p75) = quartiles(times);
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (tail_pct, tail_ms) = if n > 10 {
        (
            Json::Num(100.0 * (n - 10) as f64 / n as f64),
            Json::Num(sorted[n - 11]),
        )
    } else {
        (Json::Null, Json::Null)
    };
    Json::obj([
        ("count", Json::Num(n as f64)),
        ("median_ms", Json::Num(p50)),
        ("p25_ms", Json::Num(p25)),
        ("p75_ms", Json::Num(p75)),
        ("tail_pct", tail_pct),
        ("tail_ms", tail_ms),
        (
            "min_ms",
            sorted.first().map_or(Json::Null, |&v| Json::Num(v)),
        ),
        (
            "max_ms",
            sorted.last().map_or(Json::Null, |&v| Json::Num(v)),
        ),
        (
            "times_ms",
            Json::Arr(times.iter().map(|&t| Json::Num(t)).collect()),
        ),
    ])
}

/// An ordered metric list: (name, value, unit).
type Metrics = Vec<(String, f64, &'static str)>;

/// The end-to-end metrics; `pass_ms` and `setup_s` come scaled to the
/// reference host's speed (see `calib`).
fn end_to_end(
    pass_ms: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    counts: &Counts,
    gate: &Gate,
) -> Metrics {
    let cycles = counts.sim_cycles as f64;
    vec![
        ("pass_ms".into(), pass_ms, "ms"),
        ("sim_mcyc_per_s".into(), cycles / (pass_ms * 1e3), "Mcyc/s"),
        ("setup_s".into(), setup_s, "s"),
        ("peak_rss_mb".into(), peak_rss_mb, "MiB"),
        ("sim_cycles".into(), cycles, "cycles"),
        (
            "ok_frac".into(),
            1.0 - ratio(gate.failed as f64, gate.attempted as f64),
            "ratio",
        ),
    ]
}

/// The per-layer metrics, in raw host time.
fn per_layer(
    tracer: &Tracer,
    counts: &Counts,
    untraced: &[f64],
    traced: &[f64],
    slowdown: f64,
) -> Metrics {
    let c = counts;
    let mut m: Metrics = Vec::new();
    let pass_spans = tracer.per_root_ms("pass");
    let setup_spans = tracer.per_root_ms("setup");
    let timed = |key: &str| {
        let spans = if key.starts_with("workloads.build") {
            &setup_spans
        } else {
            &pass_spans
        };
        spans.get(key).map_or(0.0, |v| median(v))
    };
    for name in TIMED_SPANS {
        m.push((format!("{name}_ms"), timed(name), "ms"));
    }
    let run_ns = timed("system.run") * 1e6;
    let n = |v: u64| v as f64;
    m.extend([
        (
            "system.ns_per_instr".into(),
            ratio(run_ns, n(c.instructions)),
            "ns",
        ),
        (
            "system.ns_per_pe_tick".into(),
            ratio(run_ns, n(c.pe_ticks)),
            "ns",
        ),
        ("engine.visited_cycles".into(), n(c.visited_cycles), "count"),
        ("engine.pe_ticks".into(), n(c.pe_ticks), "count"),
        (
            "engine.skip_frac".into(),
            ratio(n(c.skipped_ticks), n(c.skipped_ticks + c.pe_ticks)),
            "ratio",
        ),
        (
            "engine.wake_heap_mean".into(),
            ratio(n(c.heap_sum), n(c.heap_samples)),
            "entries",
        ),
        ("pipeline.instructions".into(), n(c.instructions), "count"),
        ("memo.hits".into(), n(c.memo_hits), "count"),
        ("memo.misses".into(), n(c.memo_misses), "count"),
        ("memo.aborts".into(), n(c.memo_aborts), "count"),
        (
            "memo.hit_frac".into(),
            ratio(
                n(c.memo_hits),
                n(c.memo_hits + c.memo_misses + c.memo_aborts),
            ),
            "ratio",
        ),
        (
            "memo.replayed_frac".into(),
            ratio(n(c.memo_replayed), n(c.pe_cycles)),
            "ratio",
        ),
        ("sched.pe_deliveries".into(), n(c.pe_deliveries), "count"),
        ("sched.dse_deliveries".into(), n(c.dse_deliveries), "count"),
        ("sched.instances".into(), n(c.instances), "count"),
        ("mem.requests".into(), n(c.mem_requests), "count"),
        ("mem.dma_commands".into(), n(c.dma_commands), "count"),
        (
            "mem.bus_utilisation".into(),
            ratio(c.bus_busy, n(c.sim_cycles)),
            "ratio",
        ),
        ("job.result_kb".into(), n(c.result_bytes) / 1024.0, "KiB"),
        ("obs.records".into(), n(c.obs_records), "count"),
        (
            "serve.disk_hit_frac".into(),
            ratio(n(c.disk_hits), n(c.warm_submits)),
            "ratio",
        ),
        ("serve.quarantines".into(), n(c.quarantines), "count"),
        ("serve.disk_errors".into(), n(c.disk_errors), "count"),
    ]);

    let passes = tracer.layer_self_ms("pass");
    for layer in LAYERS {
        let selfs: Vec<f64> = passes
            .iter()
            .map(|p| p.layers.get(layer).copied().unwrap_or(0.0))
            .collect();
        m.push((format!("{layer}.self_ms"), median(&selfs), "ms"));
    }
    let residual: Vec<f64> = passes.iter().map(|p| p.residual_ms).collect();
    let residual_frac: Vec<f64> = passes
        .iter()
        .map(|p| ratio(p.residual_ms, p.total_ms))
        .collect();
    m.extend([
        ("trace.residual_ms".into(), median(&residual), "ms"),
        (
            "trace.residual_frac".into(),
            median(&residual_frac),
            "ratio",
        ),
        ("trace.pass_ms".into(), median(traced), "ms"),
        ("trace.untraced_pass_ms".into(), median(untraced), "ms"),
        (
            "trace.overhead".into(),
            ratio(median(traced), median(untraced)),
            "ratio",
        ),
        ("host.slowdown".into(), slowdown, "ratio"),
    ]);

    for job in JOB_NAMES {
        for name in TIMED_SPANS {
            m.push((
                format!("{name}_ms.{job}"),
                timed(&format!("{name}.{job}")),
                "ms",
            ));
        }
    }
    m
}

/// The human-readable self-time table of a traced run.
fn layer_table(metrics: &Metrics) -> String {
    let get = |k: &str| {
        metrics
            .iter()
            .find(|(n, _, _)| n == k)
            .map_or(0.0, |(_, v, _)| *v)
    };
    let pass = get("trace.pass_ms");
    let mut out = format!("{:<12} {:>12} {:>8}\n", "layer", "self ms", "share");
    let mut sum = 0.0;
    for layer in LAYERS {
        let v = get(&format!("{layer}.self_ms"));
        sum += v;
        out += &format!("{layer:<12} {v:>12.3} {:>7.1}%\n", 100.0 * ratio(v, pass));
    }
    let residual = get("trace.residual_ms");
    out += &format!(
        "{:<12} {residual:>12.3} {:>7.1}%\n",
        "(residual)",
        100.0 * ratio(residual, pass)
    );
    out += &format!(
        "{:<12} {:>12.3}   vs traced pass_ms {pass:.3} (sum of medians differs by {:.2}%)\n",
        "sum",
        sum + residual,
        100.0 * ratio(sum + residual - pass, pass)
    );
    out += &format!(
        "tracing overhead: traced {pass:.3} ms / untraced {:.3} ms = {:.4}x\n",
        get("trace.untraced_pass_ms"),
        get("trace.overhead")
    );
    out
}

fn metrics_json(metrics: &Metrics) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn jobs_json(jobs: &[BenchJob], gate: &Gate) -> Json {
    Json::Arr(
        jobs.iter()
            .enumerate()
            .map(|(i, j)| {
                let stats = gate.reference(i);
                Json::obj([
                    ("job", Json::Str(j.bench.name())),
                    ("key", Json::Str(j.job.key().hex())),
                    (
                        "stats_digest",
                        stats.map_or(Json::Null, |s| {
                            Json::Str(format!(
                                "{:032x}",
                                fnv1a128(s.to_json().to_string_compact().as_bytes())
                            ))
                        }),
                    ),
                    (
                        "cycles",
                        stats.map_or(Json::Null, |s| Json::Num(s.cycles as f64)),
                    ),
                ])
            })
            .collect(),
    )
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs the benchmark; `Ok(false)` when a check failed.
fn run(args: &Args) -> Result<bool, String> {
    let fingerprint = host::Fingerprint::take();
    let w = args.workload;
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let store = StoreGuard(out_dir.join(format!("store-{}", std::process::id())));
    let mut tracer = args.trace.then(Tracer::new);

    // A set-up builds the jobs and runs one untimed warm-up pass. The
    // first one fixes each job's reference `RunStats` and the per-pass
    // counters; each timed one after it is followed by a calibration
    // sample.
    let mut gate = Gate::default();
    let mut set_up = |gate: &mut Gate| {
        let root = tracer.as_mut().map(|t| t.enter("setup", ""));
        let jobs = build_jobs(w, args.seed, args.quick, &mut tracer.as_mut());
        if let (Some(t), Some(id)) = (tracer.as_mut(), root) {
            t.exit(id);
        }
        let (_, counts) = run_pass(w, &jobs, gate, &store.0, None);
        (jobs, counts)
    };
    let (mut jobs, counts) = set_up(&mut gate);
    // The calibrator's buffers stay resident from here on; the memory
    // peak leaves them out.
    let peak_before_mb = host::status_mb("VmHWM")?;
    let mut calib = Calibrator::new();
    let calib_mb = calib.buffer_bytes() as f64 / (1 << 20) as f64;
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        jobs = set_up(&mut gate).0;
        setup_s.push(start.elapsed().as_secs_f64());
        calib.sample();
    }
    let setup_slowdown = median(calib.samples()) / calib::NOMINAL_MS;

    if w == Workload::PaperMemo {
        // Memoization changes host time only: with it off, every job
        // must produce the same RunStats.
        for (idx, j) in jobs.iter().enumerate() {
            let mut job = j.job.clone();
            job.config.memo = MemoConfig::default();
            let outcome = run_job(&job)
                .outcome
                .map_err(|e| e.to_string())
                .and_then(|out| gate.same_stats(idx, &out.stats))
                .map_err(|e| format!("memo off: {e}"));
            gate.record(j, outcome);
        }
    }

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    for i in 0.. {
        let done = start.elapsed() >= budget
            && untraced.len() >= MIN_PASSES
            && (!args.trace || traced.len() >= MIN_PASSES);
        if done {
            break;
        }
        let traced_pass = args.trace && i % 2 == 1;
        let tr = if traced_pass { tracer.as_mut() } else { None };
        let (ms, _) = run_pass(w, &jobs, &mut gate, &store.0, tr);
        if traced_pass {
            traced.push(ms);
        } else {
            untraced.push(ms);
        }
        calib.sample_spaced();
    }

    let slowdown = median(calib.samples()) / calib::NOMINAL_MS;
    let peak_rss_mb = peak_before_mb.max(host::status_mb("VmHWM")? - calib_mb);
    let metrics = match &tracer {
        None => end_to_end(
            median(&untraced) / slowdown,
            median(&setup_s) / setup_slowdown,
            peak_rss_mb,
            &counts,
            &gate,
        ),
        Some(t) => per_layer(t, &counts, &untraced, &traced, slowdown),
    };
    let ok = gate.failed == 0;

    let tag = format!(
        "{}-seed{}-trace{}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = Json::obj([
        ("workload", Json::Str(w.name().into())),
        ("seed", u64_json(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("quick", Json::Bool(args.quick)),
        ("seconds", Json::Num(args.seconds)),
        ("host", fingerprint.to_json()),
        (
            "setup_s",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("passes", summary(&untraced)),
        ("traced_passes", summary(&traced)),
        (
            "calibration",
            Json::obj([
                ("nominal_ms", Json::Num(calib::NOMINAL_MS)),
                ("slowdown", Json::Num(slowdown)),
                ("setup_slowdown", Json::Num(setup_slowdown)),
                ("resident_mb", Json::Num(calib_mb)),
                ("samples", summary(calib.samples())),
            ]),
        ),
        ("jobs", jobs_json(&jobs, &gate)),
        ("attempted", Json::Num(gate.attempted as f64)),
        ("failed", Json::Num(gate.failed as f64)),
        (
            "errors",
            Json::Arr(gate.errors.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics", metrics_json(&metrics)),
    ]);
    write_file(
        &out_dir.join(format!("{tag}.json")),
        &record.to_string_pretty(),
    )?;
    if let Some(t) = &tracer {
        write_file(
            &out_dir.join(format!("{tag}.trace.json")),
            &t.chrome_trace().to_string_compact(),
        )?;
    }

    let passes = record.get("passes").expect("record has passes");
    let num = |k: &str| passes.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!(
        "{} seed {}: {} passes, pass_ms median {:.3} (p25 {:.3}, p75 {:.3}, p{:.0} {:.3}), \
         {} of {} job results failed",
        w.name(),
        args.seed,
        untraced.len(),
        num("median_ms"),
        num("p25_ms"),
        num("p75_ms"),
        num("tail_pct"),
        num("tail_ms"),
        gate.failed,
        gate.attempted
    );
    println!(
        "host slowdown {slowdown:.3} (reference workload median over its nominal {} ms)",
        calib::NOMINAL_MS
    );
    for e in &gate.errors {
        println!("  FAILED {e}");
    }
    if args.trace {
        println!(
            "{} traced passes; spans in {OUT_DIR}/{tag}.trace.json",
            traced.len()
        );
        print!("{}", layer_table(&metrics));
    } else {
        println!(
            "raw medians: pass {:.3} ms (scaled below by 1/{slowdown:.3}), \
             set-up {:.4} s (by 1/{setup_slowdown:.3})",
            median(&untraced),
            median(&setup_s)
        );
        for (name, value, unit) in &metrics {
            println!("  {name:<16} {value:>14.4} {unit}");
        }
    }
    let result = Json::obj([
        ("correct", Json::Bool(ok)),
        ("attempted", Json::Num(gate.attempted as f64)),
        ("failed", Json::Num(gate.failed as f64)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", result.to_string_compact());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload paper --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.trace, a.quick),
            (Workload::Paper, 3, true, false)
        );
        assert!(parse("--workload paper --seed 3 --seconds 10").is_err());
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload paper --seed x --seconds 10 --trace 0").is_err());
        assert!(parse("--workload paper --seed 3 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload paper --seed 3 --seconds 10 --trace 2").is_err());
    }
}
