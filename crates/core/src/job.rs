//! # Jobs as values
//!
//! A simulation run, reified: [`SimJob`] bundles everything that
//! determines a run's outcome — the program, its host arguments, and the
//! complete [`SystemConfig`] — and [`run_job`] maps it to a
//! self-contained [`JobResult`]. Because the simulator is deterministic
//! (same job → bit-identical [`RunStats`] and observability stream), a
//! job's identity *is* its content:
//!
//! ```text
//! JobKey = fnv1a128("dta-job\0" ‖ format ‖ program bytes ‖ args ‖ canonical config)
//! ```
//!
//! which is what makes results content-addressable — the `dta-serve`
//! crate builds its in-memory and on-disk caches on this key. The
//! canonical config encoding lives in [`SystemConfig::canonical_json`];
//! the rules for evolving it (and when [`JOB_FORMAT_VERSION`] must be
//! bumped) are in DESIGN.md §13.
//!
//! [`JobResult`] deliberately excludes host wall-clock time: a cached
//! result must be byte-identical to a fresh one, and wall time is the
//! one thing a cache hit changes. Timing is measured and reported by the
//! caller (see `dta-serve`'s completion records).

use crate::config::SystemConfig;
use crate::stats::{EngineReport, RunStats};
use crate::system::{RunError, System};
use dta_isa::{encode_program, Program};
use dta_json::{fnv1a128, u64_from_json, u64_json, Json, ParseError, Reader, ToJson, Writer};
use dta_obs::codec as obs_codec;
use dta_obs::{ObsEvent, ObsStream, PerfettoWriter, ThreadEvent, TrackLayout};
use dta_sched::InstanceId;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// Version of the canonical job/result encoding.
///
/// Participates in every [`JobKey`] and is stamped into every serialized
/// [`JobResult`], so bumping it atomically invalidates all previously
/// cached results (they simply stop matching any key, and entries whose
/// stored format disagrees are discarded on load). Bump it whenever the
/// canonical config form, the program byte encoding, or the result
/// encoding changes meaning.
pub const JOB_FORMAT_VERSION: u32 = 9;

/// Content hash identifying a job (see the module docs for the exact
/// preimage). Rendered as 32 lowercase hex digits in reports and file
/// names.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct JobKey(pub u128);

impl JobKey {
    /// 32-digit lowercase hex form (stable: used as cache file names and
    /// stamped into `BENCH_*.json` records).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the [`JobKey::hex`] form.
    pub fn from_hex(s: &str) -> Option<JobKey> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(JobKey)
    }
}

impl fmt::Display for JobKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// A simulation run as a value: program + arguments + full config.
#[derive(Clone, Debug)]
pub struct SimJob {
    /// The program to run.
    pub program: Arc<Program>,
    /// Host arguments passed to the entry thread.
    pub args: Vec<i64>,
    /// Complete system configuration (see
    /// [`SystemConfig::canonical_json`] for what the key covers).
    pub config: SystemConfig,
}

impl SimJob {
    /// Bundles a job.
    pub fn new(program: Arc<Program>, args: Vec<i64>, config: SystemConfig) -> Self {
        SimJob {
            program,
            args,
            config,
        }
    }

    /// The job's content hash. Pure function of the job value; any
    /// behavioural field perturbation (one instruction, one argument,
    /// one config field) yields a different key.
    pub fn key(&self) -> JobKey {
        let prog = encode_program(&self.program);
        let cfg = self.config.canonical_json().to_string_compact();
        let mut bytes = Vec::with_capacity(16 + prog.len() + 8 * self.args.len() + cfg.len() + 16);
        bytes.extend_from_slice(b"dta-job\0");
        bytes.extend_from_slice(&JOB_FORMAT_VERSION.to_le_bytes());
        // Length-prefix the variable-size sections so field boundaries
        // cannot alias across sections.
        bytes.extend_from_slice(&(prog.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&prog);
        bytes.extend_from_slice(&(self.args.len() as u64).to_le_bytes());
        for a in &self.args {
            bytes.extend_from_slice(&a.to_le_bytes());
        }
        bytes.extend_from_slice(cfg.as_bytes());
        JobKey(fnv1a128(&bytes))
    }
}

/// Read access to a run's final global-memory words.
///
/// Implemented by the live [`System`] and by the detached
/// [`GlobalSnapshot`], so result verification (the workload `verify`
/// functions) works identically on a fresh run and on a cached
/// [`JobOutput`].
pub trait GlobalRead {
    /// Reads 32-bit word `index` of global `name`.
    fn read_global_word(&self, name: &str, index: usize) -> Option<i32>;
}

impl GlobalRead for System {
    fn read_global_word(&self, name: &str, index: usize) -> Option<i32> {
        System::read_global_word(self, name, index)
    }
}

/// The final contents of every program global, detached from the
/// [`System`] that produced them.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct GlobalSnapshot {
    globals: Vec<(String, Vec<i32>)>,
}

impl GlobalSnapshot {
    /// Builds a snapshot from `(name, words)` pairs (in program
    /// declaration order, which makes the encoding canonical).
    pub fn new(globals: Vec<(String, Vec<i32>)>) -> Self {
        GlobalSnapshot { globals }
    }

    /// Writes the canonical encoding,
    /// `[{"name": ..., "words": [...]}, ...]`.
    pub fn write_json(&self, w: &mut Writer) {
        w.begin_arr();
        for (name, words) in &self.globals {
            w.begin_obj();
            w.key("name");
            w.str(name);
            w.key("words");
            w.begin_arr();
            for &word in words {
                w.i64(word.into());
            }
            w.end_arr();
            w.end_obj();
        }
        w.end_arr();
    }

    /// Reads the [`GlobalSnapshot::write_json`] encoding. Every word must
    /// be an integer in `i32` range.
    pub fn read_json(r: &mut Reader) -> Result<GlobalSnapshot, ParseError> {
        let mut globals = Vec::new();
        r.begin_arr()?;
        while r.more()? {
            r.begin_obj()?;
            r.key("name")?;
            let name = r.str()?;
            r.key("words")?;
            let mut words = Vec::new();
            r.begin_arr()?;
            while r.more()? {
                words.push(r.int()?);
            }
            r.end_obj()?;
            globals.push((name, words));
        }
        Ok(GlobalSnapshot { globals })
    }
}

impl GlobalRead for GlobalSnapshot {
    fn read_global_word(&self, name: &str, index: usize) -> Option<i32> {
        self.globals
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, words)| words.get(index).copied())
    }
}

/// Serializable, comparable mirror of [`RunError`].
///
/// A faulting job is as cacheable as a succeeding one — replaying it
/// from the cache must yield the *same typed error* — so the error needs
/// `Clone`/`PartialEq` and a canonical encoding, which [`RunError`]
/// itself (borrowing validation AST nodes, deep per-PE diagnostics)
/// doesn't carry. Structured fields keep the variant and its headline
/// numbers; the full human-readable diagnosis is preserved in `detail`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The program failed static validation.
    Validation {
        /// One rendered message per validation error.
        errors: Vec<String>,
    },
    /// The program/config combination cannot be launched.
    Launch {
        /// What was wrong.
        message: String,
    },
    /// The system wedged with live instances (program bug).
    Deadlock {
        /// Detection cycle.
        cycle: u64,
        /// Instances still alive.
        live: u64,
        /// Full rendered diagnosis (per-PE breakdown included).
        detail: String,
    },
    /// Quiescence with hard fault evidence (injected unrecoverable
    /// fault).
    Watchdog {
        /// Classification cycle.
        cycle: u64,
        /// Instances still alive.
        live: u64,
        /// Permanently stalled DMA commands.
        stalled_dma: u64,
        /// Watchdog-parked instances.
        parked: u64,
        /// DSE crashes that fired.
        crashed_dses: u64,
        /// Full rendered diagnosis.
        detail: String,
    },
    /// `max_cycles` exceeded.
    CycleLimit {
        /// The exceeded budget.
        cycle: u64,
        /// Instances still alive.
        live: u64,
        /// Full rendered diagnosis.
        detail: String,
    },
    /// The *host* panicked while executing the job (a simulator or
    /// service bug, not a property of the job). Host-side: never
    /// cached — the outcome describes this process, not the job's
    /// content-addressed result.
    HostPanic {
        /// Rendered panic payload.
        message: String,
    },
}

impl From<&RunError> for JobError {
    fn from(e: &RunError) -> Self {
        let detail = e.to_string();
        match e {
            RunError::Validation(errs) => JobError::Validation {
                errors: errs.iter().map(|v| v.to_string()).collect(),
            },
            RunError::Launch(msg) => JobError::Launch {
                message: msg.clone(),
            },
            RunError::Deadlock { cycle, live, .. } => JobError::Deadlock {
                cycle: *cycle,
                live: *live as u64,
                detail,
            },
            RunError::Watchdog {
                cycle,
                live,
                stalled_dma,
                parked,
                crashed_dses,
                ..
            } => JobError::Watchdog {
                cycle: *cycle,
                live: *live as u64,
                stalled_dma: *stalled_dma,
                parked: *parked,
                crashed_dses: *crashed_dses,
                detail,
            },
            RunError::CycleLimit { cycle, live, .. } => JobError::CycleLimit {
                cycle: *cycle,
                live: *live as u64,
                detail,
            },
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Validation { errors } => {
                writeln!(f, "program failed validation:")?;
                for e in errors {
                    writeln!(f, "  {e}")?;
                }
                Ok(())
            }
            JobError::Launch { message } => write!(f, "launch failed: {message}"),
            JobError::Deadlock { detail, .. }
            | JobError::Watchdog { detail, .. }
            | JobError::CycleLimit { detail, .. } => f.write_str(detail),
            JobError::HostPanic { message } => write!(f, "host panic: {message}"),
        }
    }
}

impl JobError {
    /// Whether this error describes the *host* (a panic) rather than
    /// the job itself. Host-side outcomes must never enter the result
    /// cache; only deterministic outcomes (success or the
    /// simulation-defined errors) are content-addressable.
    pub fn is_host_side(&self) -> bool {
        matches!(self, JobError::HostPanic { .. })
    }

    /// Canonical encoding: `{"kind": ..., ...fields}`.
    pub fn to_json(&self) -> Json {
        match self {
            JobError::Validation { errors } => Json::obj([
                ("kind", Json::Str("validation".into())),
                ("errors", errors.to_json()),
            ]),
            JobError::Launch { message } => Json::obj([
                ("kind", Json::Str("launch".into())),
                ("message", Json::Str(message.clone())),
            ]),
            JobError::Deadlock {
                cycle,
                live,
                detail,
            } => Json::obj([
                ("kind", Json::Str("deadlock".into())),
                ("cycle", u64_json(*cycle)),
                ("live", u64_json(*live)),
                ("detail", Json::Str(detail.clone())),
            ]),
            JobError::Watchdog {
                cycle,
                live,
                stalled_dma,
                parked,
                crashed_dses,
                detail,
            } => Json::obj([
                ("kind", Json::Str("watchdog".into())),
                ("cycle", u64_json(*cycle)),
                ("live", u64_json(*live)),
                ("stalled_dma", u64_json(*stalled_dma)),
                ("parked", u64_json(*parked)),
                ("crashed_dses", u64_json(*crashed_dses)),
                ("detail", Json::Str(detail.clone())),
            ]),
            JobError::CycleLimit {
                cycle,
                live,
                detail,
            } => Json::obj([
                ("kind", Json::Str("cycle-limit".into())),
                ("cycle", u64_json(*cycle)),
                ("live", u64_json(*live)),
                ("detail", Json::Str(detail.clone())),
            ]),
            JobError::HostPanic { message } => Json::obj([
                ("kind", Json::Str("host-panic".into())),
                ("message", Json::Str(message.clone())),
            ]),
        }
    }

    /// Decodes the [`JobError::to_json`] encoding.
    pub fn from_json(v: &Json) -> Option<JobError> {
        let cycle = || v.get("cycle").and_then(u64_from_json);
        let live = || v.get("live").and_then(u64_from_json);
        let detail = || v.get("detail").and_then(Json::as_str).map(str::to_string);
        Some(match v.get("kind")?.as_str()? {
            "validation" => JobError::Validation {
                errors: v
                    .get("errors")?
                    .as_arr()?
                    .iter()
                    .map(|e| e.as_str().map(str::to_string))
                    .collect::<Option<Vec<_>>>()?,
            },
            "launch" => JobError::Launch {
                message: v.get("message")?.as_str()?.to_string(),
            },
            "deadlock" => JobError::Deadlock {
                cycle: cycle()?,
                live: live()?,
                detail: detail()?,
            },
            "watchdog" => JobError::Watchdog {
                cycle: cycle()?,
                live: live()?,
                stalled_dma: v.get("stalled_dma").and_then(u64_from_json)?,
                parked: v.get("parked").and_then(u64_from_json)?,
                crashed_dses: v.get("crashed_dses").and_then(u64_from_json)?,
                detail: detail()?,
            },
            "cycle-limit" => JobError::CycleLimit {
                cycle: cycle()?,
                live: live()?,
                detail: detail()?,
            },
            "host-panic" => JobError::HostPanic {
                message: v.get("message")?.as_str()?.to_string(),
            },
            _ => return None,
        })
    }
}

/// Everything a successful run produces.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutput {
    /// The simulated results (bit-identical for a fixed job).
    pub stats: RunStats,
    /// How the host engine advanced time. Deterministic for a fixed job,
    /// apart from the wall-clock field.
    pub engine: EngineReport,
    /// Final contents of every program global (for verification without
    /// the live [`System`]).
    pub globals: GlobalSnapshot,
    /// The merged observability stream, when the job's
    /// [`crate::config::ObsConfig`] collects anything.
    pub obs: Option<ObsStream>,
}

impl JobOutput {
    fn write_json(&self, w: &mut Writer) {
        // Wall-clock fields are host-nondeterministic: two simulations
        // of the same job must produce byte-identical canonical results
        // (the quarantine-and-resimulate contract), so the canonical
        // form zeroes them. Live runs expose the real numbers through
        // the in-memory `JobOutput`; a cache hit reports none, which is
        // accurate — it did no simulation work.
        let engine = EngineReport {
            run_wall_us: 0,
            ..self.engine.clone()
        };
        w.begin_obj();
        w.key("stats");
        w.value(&self.stats.to_json());
        w.key("engine");
        w.value(&engine.to_json());
        w.key("globals");
        self.globals.write_json(w);
        w.key("obs");
        match &self.obs {
            None => w.null(),
            Some(s) => obs_codec::write_stream(w, s),
        }
        w.end_obj();
    }

    fn read_json(r: &mut Reader) -> Result<JobOutput, ParseError> {
        r.begin_obj()?;
        r.key("stats")?;
        let stats = RunStats::from_json(&r.value()?).ok_or_else(|| r.err("invalid stats"))?;
        r.key("engine")?;
        let engine = EngineReport::from_json(&r.value()?)
            // The writer zeroes the wall-clock fields; anything else
            // would not re-encode to the same document.
            .filter(|e| e.run_wall_us == 0)
            .ok_or_else(|| r.err("invalid engine report"))?;
        r.key("globals")?;
        let globals = GlobalSnapshot::read_json(r)?;
        r.key("obs")?;
        let obs = if r.null() {
            None
        } else {
            Some(obs_codec::read_stream(r)?)
        };
        r.end_obj()?;
        Ok(JobOutput {
            stats,
            engine,
            globals,
            obs,
        })
    }
}

/// The complete, cacheable outcome of one job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// [`JOB_FORMAT_VERSION`] at production time.
    pub format: u32,
    /// The job's content hash.
    pub key: JobKey,
    /// Success payload or typed error — both sides replay identically
    /// from the cache.
    pub outcome: Result<JobOutput, JobError>,
}

impl JobResult {
    /// Whether this result carries a host-side (non-deterministic)
    /// outcome. Such results are completions for the submitter, never
    /// cache entries — see [`JobError::is_host_side`].
    pub fn is_host_side(&self) -> bool {
        matches!(&self.outcome, Err(e) if e.is_host_side())
    }

    /// The canonical byte form,
    /// `{"format": n, "key": hex, "ok": output|null, "err": error|null}`.
    /// Its byte-identity is the cache-correctness contract the serve
    /// test-suite pins. The globals and the observability stream — nearly
    /// all of the bytes — are written straight to text; the small
    /// sections go through a [`Json`] tree.
    pub fn canonical_string(&self) -> String {
        let mut w = Writer::new();
        w.begin_obj();
        w.key("format");
        w.u64(self.format.into());
        w.key("key");
        w.str(&self.key.hex());
        w.key("ok");
        match &self.outcome {
            Ok(out) => out.write_json(&mut w),
            Err(_) => w.null(),
        }
        w.key("err");
        match &self.outcome {
            Ok(_) => w.null(),
            Err(e) => w.value(&e.to_json()),
        }
        w.end_obj();
        w.finish()
    }

    /// Decodes a canonical document. Returns `None` for malformed input,
    /// keys out of canonical order, a narrowed field out of range, *or*
    /// a format mismatch — a stale or damaged cache entry must read as
    /// absent, never as wrong data.
    pub fn from_canonical_str(text: &str) -> Option<JobResult> {
        dta_json::read_document(text, JobResult::read_json).ok()?
    }

    /// Reads the document; `Ok(None)` for another format version.
    fn read_json(r: &mut Reader) -> Result<Option<JobResult>, ParseError> {
        r.begin_obj()?;
        r.key("format")?;
        let format = r.int()?;
        if format != JOB_FORMAT_VERSION {
            return Ok(None);
        }
        r.key("key")?;
        let key = JobKey::from_hex(&r.str()?).ok_or_else(|| r.err("invalid job key"))?;
        r.key("ok")?;
        let ok = if r.null() {
            None
        } else {
            Some(JobOutput::read_json(r)?)
        };
        r.key("err")?;
        let err = if r.null() {
            None
        } else {
            Some(JobError::from_json(&r.value()?).ok_or_else(|| r.err("invalid job error"))?)
        };
        r.end_obj()?;
        let outcome = match (ok, err) {
            (Some(out), None) => Ok(out),
            (None, Some(e)) => Err(e),
            _ => return Err(r.err("exactly one of ok and err must be set")),
        };
        Ok(Some(JobResult {
            format,
            key,
            outcome,
        }))
    }
}

/// Runs a job to completion. The single entry point subsuming
/// `System::new` + `launch` + `run` + report collection; `dta-serve`
/// adds caching and dedup on top of this.
pub fn run_job(job: &SimJob) -> JobResult {
    let key = job.key();
    let finish = |outcome| JobResult {
        format: JOB_FORMAT_VERSION,
        key,
        outcome,
    };
    let mut sys = match System::new(job.config.clone(), Arc::clone(&job.program)) {
        Ok(sys) => sys,
        Err(e) => return finish(Err(JobError::from(&e))),
    };
    let outcome = match sys.launch(&job.args).and_then(|()| sys.run()) {
        Ok(stats) => Ok(JobOutput {
            stats,
            engine: sys.engine_report().clone(),
            globals: sys.snapshot_globals(),
            obs: sys.obs.take(),
        }),
        Err(e) => Err(JobError::from(&e)),
    };
    finish(outcome)
}

/// Renders a finished job's observability stream as a Chrome/Perfetto
/// `trace.json` document — the detached equivalent of
/// `System::perfetto_trace`, usable on cached results.
pub fn perfetto_trace(config: &SystemConfig, program: &Program, stream: &ObsStream) -> String {
    let layout = TrackLayout {
        total_pes: config.total_pes(),
        pes_per_node: config.pes_per_node,
        nodes: config.nodes,
        thread_names: program.threads.iter().map(|t| t.name.clone()).collect(),
    };
    let mut writer = PerfettoWriter::new(layout);
    stream.feed(&mut writer);
    writer.finish()
}

/// Renders the per-instance lifecycle table of a finished run — birth,
/// first dispatch, dispatch/DMA/wait counts, stop — straight from the
/// [`ThreadEvent`]s of its observability stream (events must have been
/// recorded; see [`crate::ObsConfig`]). A trailing line flags a stream
/// whose per-unit rings dropped records, since the oldest lifecycle
/// events may then be missing.
pub fn lifecycle_table(program: &Program, stream: &ObsStream) -> String {
    #[derive(Default)]
    struct Life {
        thread: usize,
        pe: u16,
        born: Option<u64>,
        dispatches: u64,
        first_dispatch: Option<u64>,
        dma: u64,
        waits: u64,
        stopped: Option<u64>,
    }
    let mut lives: BTreeMap<u64, Life> = BTreeMap::new();
    for r in &stream.records {
        let ObsEvent::Thread {
            pe,
            instance,
            thread,
            what,
        } = r.ev
        else {
            continue;
        };
        let l = lives.entry(instance).or_default();
        l.thread = thread as usize;
        l.pe = pe;
        match what {
            ThreadEvent::FrameGranted { .. } => l.born = Some(r.cycle),
            ThreadEvent::Dispatched => {
                l.dispatches += 1;
                l.first_dispatch.get_or_insert(r.cycle);
            }
            ThreadEvent::DmaIssued { .. } => l.dma += 1,
            ThreadEvent::WaitDma => l.waits += 1,
            ThreadEvent::Stopped => l.stopped = Some(r.cycle),
            _ => {}
        }
    }
    let mut out = format!(
        "{:<10} {:<12} {:>3} {:>9} {:>9} {:>5} {:>4} {:>5} {:>9}\n",
        "instance", "thread", "pe", "born", "dispatch", "disp#", "dma", "waits", "stopped"
    );
    let opt = |v: Option<u64>| v.map_or_else(|| "-".into(), |c| c.to_string());
    for (&id, l) in &lives {
        let name = program
            .threads
            .get(l.thread)
            .map_or("?", |t| t.name.as_str());
        let _ = writeln!(
            out,
            "{:<10} {:<12} {:>3} {:>9} {:>9} {:>5} {:>4} {:>5} {:>9}",
            InstanceId(id).to_string(),
            name,
            l.pe,
            opt(l.born),
            opt(l.first_dispatch),
            l.dispatches,
            l.dma,
            l.waits,
            opt(l.stopped),
        );
    }
    if stream.dropped > 0 {
        let _ = writeln!(
            out,
            "(trace truncated: {} oldest records dropped by the event rings)",
            stream.dropped
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ObsMode;
    use dta_isa::{reg::r, ProgramBuilder, ThreadBuilder};

    fn tiny_program() -> Arc<Program> {
        let mut pb = ProgramBuilder::new();
        let out = pb.global_zeroed("out", 8);
        let main = pb.declare("main");
        let mut t = ThreadBuilder::new("main");
        t.begin_pl();
        t.load(r(3), 0);
        t.begin_ex();
        t.add(r(4), r(3), 1);
        t.li(r(5), out as i64);
        t.begin_ps();
        t.write(r(4), r(5), 0);
        t.ffree_self();
        t.stop();
        pb.define(main, t);
        pb.set_entry(main, 1);
        Arc::new(pb.build())
    }

    fn tiny_job() -> SimJob {
        SimJob::new(tiny_program(), vec![41], SystemConfig::with_pes(1))
    }

    #[test]
    fn job_key_is_stable_and_sensitive() {
        let base = tiny_job();
        let k = base.key();
        assert_eq!(k, tiny_job().key(), "same content, same key");

        let mut other_arg = base.clone();
        other_arg.args = vec![42];
        assert_ne!(k, other_arg.key());

        let mut other_pes = base.clone();
        other_pes.config.pes_per_node = 2;
        assert_ne!(k, other_pes.key());
    }

    #[test]
    fn key_hex_roundtrips() {
        let k = tiny_job().key();
        assert_eq!(JobKey::from_hex(&k.hex()), Some(k));
        assert_eq!(k.hex().len(), 32);
        assert!(JobKey::from_hex("xyz").is_none());
    }

    #[test]
    fn run_job_matches_simulate_and_snapshots_globals() {
        let job = tiny_job();
        let result = run_job(&job);
        assert_eq!(result.key, job.key());
        let out = result.outcome.expect("tiny job succeeds");
        let (stats, sys) =
            crate::system::simulate(job.config.clone(), job.program.clone(), &job.args).unwrap();
        assert_eq!(out.stats, stats);
        assert_eq!(out.globals.read_global_word("out", 0), Some(42));
        assert_eq!(
            out.globals.read_global_word("out", 0),
            GlobalRead::read_global_word(&sys, "out", 0)
        );
        assert_eq!(out.globals.read_global_word("out", 2), None);
        assert_eq!(out.globals.read_global_word("missing", 0), None);
    }

    #[test]
    fn job_result_roundtrips_with_obs_stream() {
        let mut job = tiny_job();
        job.config.obs.mode = ObsMode::All;
        let result = run_job(&job);
        assert!(result
            .outcome
            .as_ref()
            .is_ok_and(|o| o.obs.as_ref().is_some_and(|s| !s.records.is_empty())));
        let text = result.canonical_string();
        let back = JobResult::from_canonical_str(&text).expect("canonical form decodes");
        // The canonical form deliberately zeroes host wall-clock fields
        // (nondeterministic; see `JobOutput::to_json`) — everything else
        // must survive, and the re-encode must be byte-identical.
        let mut normalized = result.clone();
        if let Ok(out) = &mut normalized.outcome {
            out.engine.run_wall_us = 0;
        }
        assert_eq!(back, normalized);
        assert_eq!(back.canonical_string(), text, "re-encode is byte-identical");
    }

    #[test]
    fn faulting_job_produces_typed_replayable_error() {
        let mut job = tiny_job();
        job.config.max_cycles = 1;
        let result = run_job(&job);
        let err = result.outcome.clone().expect_err("budget of 1 must trip");
        assert!(matches!(err, JobError::CycleLimit { cycle: 1, .. }));
        let back = JobResult::from_canonical_str(&result.canonical_string()).unwrap();
        assert_eq!(back.outcome, Err(err));
    }

    #[test]
    fn host_side_errors_roundtrip_and_are_flagged() {
        let key = tiny_job().key();
        let err = JobError::HostPanic {
            message: "injected panic".into(),
        };
        assert!(err.is_host_side());
        let result = JobResult {
            format: JOB_FORMAT_VERSION,
            key,
            outcome: Err(err.clone()),
        };
        assert!(result.is_host_side());
        // Host-side completions still transport over the canonical codec
        // (for clients) even though the cache refuses them.
        let back = JobResult::from_canonical_str(&result.canonical_string()).unwrap();
        assert_eq!(back.outcome, Err(err));
        // The deterministic errors stay cacheable.
        let det = JobError::CycleLimit {
            cycle: 1,
            live: 1,
            detail: "d".into(),
        };
        assert!(!det.is_host_side());
        assert!(!JobResult {
            format: JOB_FORMAT_VERSION,
            key,
            outcome: Err(det),
        }
        .is_host_side());
    }

    #[test]
    fn format_mismatch_reads_as_absent() {
        let text = run_job(&tiny_job()).canonical_string();
        let head = format!("{{\"format\":{JOB_FORMAT_VERSION},");
        assert!(text.starts_with(&head));
        let stale = text.replacen(
            &head,
            &format!("{{\"format\":{},", JOB_FORMAT_VERSION + 1),
            1,
        );
        assert!(JobResult::from_canonical_str(&stale).is_none());
    }

    /// The globals decode losslessly or not at all: each of these words
    /// used to decode (as 1, `i32::MAX` and `i32::MIN`) to a value that
    /// re-encodes to different text.
    #[test]
    fn global_words_must_be_in_range_integers() {
        let read = |text: &str| dta_json::read_document(text, GlobalSnapshot::read_json);
        assert_eq!(
            read(r#"[{"name":"out","words":[-2147483648,0,2147483647]}]"#),
            Ok(GlobalSnapshot::new(vec![(
                "out".into(),
                vec![i32::MIN, 0, i32::MAX]
            )]))
        );
        for bad in ["1.5", "4294967296", "-3000000000", "1e1", "01", "\"1\""] {
            let text = format!(r#"[{{"name":"out","words":[{bad}]}}]"#);
            assert!(read(&text).is_err(), "word {bad} decoded");
        }
        assert!(read(r#"[{"words":[],"name":"out"}]"#).is_err());
    }

    /// Keys out of canonical order, a wall-clock field the writer would
    /// zero, and trailing data all read as absent.
    #[test]
    fn non_canonical_documents_read_as_absent() {
        let mut job = tiny_job();
        job.config.obs.mode = ObsMode::All;
        let text = run_job(&job).canonical_string();
        assert!(JobResult::from_canonical_str(&text).is_some());
        let swapped = text.replacen(r#"{"format""#, r#"{"formut""#, 1);
        assert!(JobResult::from_canonical_str(&swapped).is_none());
        let walled = text.replacen(r#""run_wall_us":0"#, r#""run_wall_us":7"#, 1);
        assert_ne!(walled, text);
        assert!(JobResult::from_canonical_str(&walled).is_none());
        assert!(JobResult::from_canonical_str(&format!("{text} x")).is_none());
        assert!(JobResult::from_canonical_str(&format!(" {text}\n")).is_some());
    }

    #[test]
    fn perfetto_trace_works_detached_from_system() {
        let mut job = tiny_job();
        job.config.obs.mode = ObsMode::All;
        let result = run_job(&job);
        let out = result.outcome.unwrap();
        let text = perfetto_trace(&job.config, &job.program, out.obs.as_ref().unwrap());
        assert!(dta_json::parse(&text).is_ok());
    }
}
