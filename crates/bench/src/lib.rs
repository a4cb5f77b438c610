//! # dta-bench — the reproduction harness
//!
//! Regenerates every table and figure of the paper's evaluation (§4) plus
//! the ablations called out in `DESIGN.md`:
//!
//! | experiment | paper artifact |
//! |------------|----------------|
//! | `config`   | Tables 2-4 (platform parameters) |
//! | `table5`   | Table 5 (dynamic instruction counts) |
//! | `fig5`     | Fig. 5a/5b (execution-time breakdown) |
//! | `fig6`     | Fig. 6a/6b (bitcnt time & scalability) |
//! | `fig7`     | Fig. 7a/7b (mmul time & scalability) |
//! | `fig8`     | Fig. 8a/8b (zoom time & scalability) |
//! | `fig9`     | Fig. 9 (pipeline usage) |
//! | `lat1`     | §4.3 latency-1 sweep |
//! | `ablate-split` | §3 split-transaction alternative |
//! | `ablate-vfp`   | §4.3 virtual frame pointers |
//! | `ablate-hw`    | bus/queue sensitivity |
//! | `faults`   | fault-injection sweep: recovery cost vs rate (`BENCH_faults.json`) |
//! | `failover` | DSE crash/failover sweep (`BENCH_failover.json`) |
//! | `observe`  | observability overhead: bus off vs events vs full metrics + Perfetto (`BENCH_observe.json`) |
//! | `serve`    | service cache: the fig6/7/8 grid twice through `dta-serve` (`BENCH_serve.json`) |
//!
//! Run with `cargo run -p dta-bench --release --bin repro [-- <exp>...]`.
//!
//! Every untimed run goes through the process-wide
//! [`dta_serve::Service`] ([`runner::service`]): benchmark points are
//! [`dta_core::SimJob`] values, identical points are deduplicated by
//! content hash, and each [`Row`] records its `JobKey` and whether it
//! was served from cache.

pub mod experiments;
pub mod report;
pub mod runner;

pub use experiments::ExperimentResult;
pub use report::{emit, text_table};
pub use runner::{configure_service, run, service, sweep, Bench, Row, SweepPoint};
