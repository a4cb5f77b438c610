//! # dta-core — the cycle-level DTA system simulator
//!
//! Ties the substrates together into the paper's CellDTA platform:
//!
//! * [`pipeline::Pe`] — an SPU-like in-order dual-issue pipeline with its
//!   LSE ([`dta_sched::Lse`]), local store, and MFC DMA engine;
//! * [`system::System`] — nodes of PEs, one DSE per node, a shared
//!   interconnect and main memory, and a deterministic event-driven
//!   simulation loop;
//! * [`config::SystemConfig`] — all hardware parameters, defaulting to the
//!   paper's Tables 2-4;
//! * [`stats`] — the counters behind every table and figure of the paper's
//!   evaluation (cycle breakdown, dynamic instruction mix, pipeline
//!   usage).
//!
//! ## Quick example
//!
//! ```
//! use dta_core::{config::SystemConfig, system::simulate};
//! use dta_isa::{ProgramBuilder, ThreadBuilder, reg::r};
//! use std::sync::Arc;
//!
//! // A one-thread program: out[0] = arg + 1.
//! let mut pb = ProgramBuilder::new();
//! let out = pb.global_zeroed("out", 4);
//! let main = pb.declare("main");
//! let mut t = ThreadBuilder::new("main");
//! t.begin_pl();
//! t.load(r(3), 0);
//! t.begin_ex();
//! t.add(r(4), r(3), 1);
//! t.li(r(5), out as i64);
//! t.begin_ps();
//! t.write(r(4), r(5), 0);
//! t.ffree_self();
//! t.stop();
//! pb.define(main, t);
//! pb.set_entry(main, 1);
//!
//! let (stats, sys) = simulate(
//!     SystemConfig::with_pes(1),
//!     Arc::new(pb.build()),
//!     &[41],
//! ).unwrap();
//! assert_eq!(sys.read_global_word("out", 0), Some(42));
//! assert!(stats.cycles > 0);
//! ```

pub mod config;
pub mod fault;
pub mod job;
pub mod pipeline;
pub mod stats;
pub(crate) mod step;
pub mod system;
pub mod uop;
pub(crate) mod wake;

pub use config::{FaultPlan, MemoConfig, ObsConfig, ObsMode, Parallelism, SystemConfig};
pub use fault::FaultCounters;
pub use job::{
    lifecycle_table, perfetto_trace, run_job, GlobalRead, GlobalSnapshot, JobError, JobKey,
    JobOutput, JobResult, SimJob, JOB_FORMAT_VERSION,
};
pub use pipeline::{Activity, Pe, PipelineParams};
pub use stats::{Breakdown, EngineReport, PeStats, RunStats, StallCat};
pub use system::{simulate, RunError, System};

// The structured observability layer (event bus, metrics, Perfetto
// export). Re-exported so downstream crates need no direct `dta-obs`
// dependency to consume `System::obs`/`metrics`/`perfetto_trace`.
pub use dta_obs::{
    analyze, Analysis, CountingSink, CriticalPath, EdgeKind, FineCat, GaugeKind, Histogram,
    MetricsReport, MetricsSink, NullSink, ObsEvent, ObsRecord, ObsSink, ObsStream, PeAttribution,
    PerfettoWriter, RingSink, ThreadBreakdown, ThreadEvent, TrackLayout, NUM_FINE,
};
