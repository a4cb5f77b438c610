//! `dta-run` — run a DTA assembly program on the simulated machine.
//!
//! ```text
//! dta-run PROGRAM.dtasm [options]
//!
//!   --args N,N,...     entry-thread arguments (default: none)
//!   --pes N            processing elements (default 8)
//!   --nodes N          DTA nodes (default 1)
//!   --latency N        main-memory latency in cycles (default 150)
//!   --prefetch         run the automatic prefetch compiler first
//!   --whole-object     also prefetch bounded table objects
//!   --cache            add a 16 kB per-PE data cache
//!   --sp-overlap       run PF blocks on the LSE's SP pipeline
//!   --trace            print the per-instance lifecycle table
//!   --trace-out PATH   write a Perfetto/Chrome trace.json of the run
//!                      to PATH — load it at https://ui.perfetto.dev
//!   --dump-asm         print the (possibly transformed) program and exit
//!   --dump-global NAME print a global's words after the run
//! ```
//!
//! The run itself is one [`dta_core::run_job`] call on a [`SimJob`]
//! value; stats, globals and traces all come out of the returned
//! [`dta_core::JobResult`], the same document `dta-serve` caches.
//!
//! Example program: `examples/asm/dotprod.dtasm`.

use dta_compiler::{prefetch_program, PlanOptions, TransformOptions};
use dta_core::{lifecycle_table, run_job, GlobalRead, ObsMode, SimJob, StallCat, SystemConfig};
use dta_isa::asm::{assemble, program_to_asm};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

struct Options {
    path: String,
    args: Vec<i64>,
    pes: u16,
    nodes: u16,
    latency: u64,
    prefetch: bool,
    whole_object: bool,
    cache: bool,
    sp_overlap: bool,
    trace: bool,
    trace_out: Option<PathBuf>,
    dump_asm: bool,
    dump_globals: Vec<String>,
}

fn parse() -> Result<Options, String> {
    let mut o = Options {
        path: String::new(),
        args: Vec::new(),
        pes: 8,
        nodes: 1,
        latency: 150,
        prefetch: false,
        whole_object: false,
        cache: false,
        sp_overlap: false,
        trace: false,
        trace_out: None,
        dump_asm: false,
        dump_globals: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut need = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--args" => {
                o.args = need("--args")?
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| s.trim().parse().map_err(|_| format!("bad arg {s:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--pes" => o.pes = need("--pes")?.parse().map_err(|_| "bad --pes")?,
            "--nodes" => o.nodes = need("--nodes")?.parse().map_err(|_| "bad --nodes")?,
            "--latency" => o.latency = need("--latency")?.parse().map_err(|_| "bad --latency")?,
            "--prefetch" => o.prefetch = true,
            "--whole-object" => {
                o.prefetch = true;
                o.whole_object = true;
            }
            "--cache" => o.cache = true,
            "--sp-overlap" => o.sp_overlap = true,
            "--trace" => o.trace = true,
            "--trace-out" => o.trace_out = Some(PathBuf::from(need("--trace-out")?)),
            "--dump-asm" => o.dump_asm = true,
            "--dump-global" => o.dump_globals.push(need("--dump-global")?),
            "--help" | "-h" => return Err("see the module docs (dta-run --help)".into()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            path => {
                if !o.path.is_empty() {
                    return Err("only one program file".into());
                }
                o.path = path.to_string();
            }
        }
    }
    if o.path.is_empty() {
        return Err("usage: dta-run PROGRAM.dtasm [options]".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let o = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let source = match std::fs::read_to_string(&o.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: {e}", o.path);
            return ExitCode::FAILURE;
        }
    };
    let mut program = match assemble(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", o.path);
            return ExitCode::FAILURE;
        }
    };
    if o.prefetch {
        let opts = TransformOptions {
            plan: PlanOptions {
                whole_object: o.whole_object,
                ..PlanOptions::default()
            },
        };
        let (p, report) = prefetch_program(&program, &opts);
        eprintln!(
            "prefetch: decoupled {}/{} READ sites across {} thread(s)",
            report.total_decoupled(),
            report.total_reads(),
            report.threads.iter().filter(|t| t.transformed()).count()
        );
        program = p;
    }
    if o.dump_asm {
        print!("{}", program_to_asm(&program));
        return ExitCode::SUCCESS;
    }

    let mut cfg = SystemConfig::paper_default();
    cfg.pes_per_node = o.pes;
    cfg.nodes = o.nodes;
    cfg.mem_latency = o.latency;
    cfg.sp_pf_overlap = o.sp_overlap;
    if o.cache {
        cfg.cache = Some(dta_mem::CacheParams::default());
    }
    // Both trace flavours fold the observability stream the job result
    // carries: the Perfetto export needs everything, the lifecycle
    // table only thread events.
    if o.trace_out.is_some() {
        cfg.obs.mode = ObsMode::All;
    } else if o.trace {
        cfg.obs.mode = ObsMode::Events;
    }

    let job = SimJob::new(Arc::new(program), o.args.clone(), cfg);
    let result = run_job(&job);
    let out = match &result.outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = &out.stats;

    println!("job key       {}", result.key.hex());
    println!("cycles        {}", stats.cycles);
    println!("instructions  {}", stats.instructions);
    println!("instances     {}", stats.instances);
    println!("dma commands  {}", stats.dma_commands);
    let b = stats.breakdown();
    for cat in StallCat::ALL {
        println!("{:<14}{:5.1}%", cat.name(), b.pct(cat));
    }
    println!("pipeline usage {:.3}  IPC {:.3}", b.pipeline_usage, b.ipc);

    let globals: Vec<&str> = job
        .program
        .globals
        .iter()
        .map(|g| g.name.as_str())
        .collect();
    for name in &o.dump_globals {
        if !globals.contains(&name.as_str()) {
            eprintln!("no global named {name:?} (have: {})", globals.join(", "));
            return ExitCode::FAILURE;
        }
        print!("{name} =");
        let mut idx = 0;
        while let Some(w) = out.globals.read_global_word(name, idx) {
            print!(" {w}");
            idx += 1;
            if idx >= 64 {
                print!(" ...");
                break;
            }
        }
        println!();
    }
    if let Some(path) = &o.trace_out {
        let stream = out.obs.as_ref().expect("full observability was forced on");
        let trace = dta_core::perfetto_trace(&job.config, &job.program, stream);
        if let Err(e) = std::fs::write(path, &trace) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[trace: {} events -> {} ({:.0} KB); open it at https://ui.perfetto.dev]",
            stream.len(),
            path.display(),
            trace.len() as f64 / 1024.0,
        );
    }
    if o.trace {
        let stream = out.obs.as_ref().expect("events were forced on");
        println!("\n{}", lifecycle_table(&job.program, stream));
    }
    ExitCode::SUCCESS
}
