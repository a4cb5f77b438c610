//! The benchmark's workloads: which jobs each one runs, how a seed
//! redraws their inputs, and the host references their outputs are
//! checked against.

use crate::trace::{span, Tracer};
use dta_bench::Bench;
use dta_core::{GlobalRead, MemoConfig, ObsMode, Parallelism, SimJob, SystemConfig};
use dta_isa::{GlobalDef, Program};
use dta_workloads::{gather, zoom, Variant};
use std::sync::Arc;

/// One benchmark workload. Each runs in its own process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The paper suite as every table and figure runs it.
    Paper,
    /// The paper suite with instance memoization on.
    PaperMemo,
    /// A sparse gather on a 128-PE machine that is almost always idle.
    GatherWide,
    /// The service path: simulate and store, then load from disk.
    ServeReplay,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::PaperMemo,
        Workload::GatherWide,
        Workload::ServeReplay,
    ];

    /// The name given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::PaperMemo => "paper-memo",
            Workload::GatherWide => "gather-wide",
            Workload::ServeReplay => "serve-replay",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's jobs in submission order, as (short name, bench).
    /// `quick` shrinks every size for the self-test.
    fn benches(self, quick: bool) -> Vec<(&'static str, Bench)> {
        match (self, quick) {
            (Workload::Paper | Workload::PaperMemo, false) => vec![
                ("bitcnt", Bench::Bitcnt(10_000)),
                ("mmul", Bench::Mmul(32)),
                ("zoom", Bench::Zoom(32)),
            ],
            (Workload::Paper | Workload::PaperMemo, true) => vec![
                ("bitcnt", Bench::Bitcnt(64)),
                ("mmul", Bench::Mmul(8)),
                ("zoom", Bench::Zoom(8)),
            ],
            (Workload::GatherWide, false) => vec![("gather", Bench::Gather(8192))],
            (Workload::GatherWide, true) => vec![("gather", Bench::Gather(256))],
            // bitcnt stays at 256 samples: decoding a paper-size bitcnt
            // result with its observability stream takes minutes (the
            // result decoder is quadratic in the result size).
            (Workload::ServeReplay, false) => vec![
                ("mmul", Bench::Mmul(32)),
                ("zoom", Bench::Zoom(32)),
                ("bitcnt", Bench::Bitcnt(256)),
            ],
            (Workload::ServeReplay, true) => vec![
                ("mmul", Bench::Mmul(8)),
                ("zoom", Bench::Zoom(8)),
                ("bitcnt", Bench::Bitcnt(64)),
            ],
        }
    }

    fn variant(self) -> Variant {
        match self {
            Workload::GatherWide => Variant::Baseline,
            _ => Variant::HandPrefetch,
        }
    }

    /// The machine every job of the workload runs on. Simulation is
    /// always sequential (`Parallelism::Off`), so at most one host
    /// thread is busy.
    pub fn config(self, quick: bool) -> SystemConfig {
        let mut cfg = match (self, quick) {
            (Workload::GatherWide, false) => SystemConfig::with_pes(128),
            (Workload::GatherWide, true) => SystemConfig::with_pes(16),
            _ => SystemConfig::with_pes(8),
        };
        cfg.parallelism = Parallelism::Off;
        match self {
            Workload::PaperMemo => cfg.memo = MemoConfig::on(),
            Workload::ServeReplay => cfg.obs.mode = ObsMode::All,
            Workload::Paper | Workload::GatherWide => {}
        }
        cfg
    }
}

/// Every job short name any workload uses (the per-job metric suffixes).
pub const JOB_NAMES: [&str; 4] = ["bitcnt", "mmul", "zoom", "gather"];

/// One job of a workload, with the outputs it must produce.
pub struct BenchJob {
    /// Short name (`bitcnt`, `mmul`, `zoom`, `gather`).
    pub name: &'static str,
    /// Workload and size.
    pub bench: Bench,
    /// The job as the simulator receives it.
    pub job: SimJob,
    /// Expected final words of each output global.
    expect: Vec<(&'static str, Vec<i32>)>,
}

impl BenchJob {
    /// Checks a finished run's globals against the host reference.
    pub fn verify(&self, globals: &dyn GlobalRead) -> Result<(), String> {
        for (name, want) in &self.expect {
            for (i, &w) in want.iter().enumerate() {
                match globals.read_global_word(name, i) {
                    Some(got) if got == w => {}
                    got => return Err(format!("{name}[{i}] = {got:?}, expected {w}")),
                }
            }
        }
        Ok(())
    }
}

/// Builds the workload's jobs for `seed`, timing each `Bench::build` as
/// a `workloads.build` span. Seed 0 keeps the builders' canonical inputs;
/// any other seed redraws every input global at the same size.
pub fn build_jobs(
    workload: Workload,
    seed: u64,
    quick: bool,
    tr: &mut Option<&mut Tracer>,
) -> Vec<BenchJob> {
    let cfg = workload.config(quick);
    workload
        .benches(quick)
        .into_iter()
        .map(|(name, bench)| {
            let wp = span(tr, "workloads.build", name, || {
                bench.build(workload.variant())
            });
            let mut program = wp.program;
            if seed != 0 {
                redraw_inputs(&mut program, bench, seed);
            }
            let expect = expected_outputs(&program, bench);
            BenchJob {
                name,
                bench,
                job: SimJob::new(Arc::new(program), wp.args, cfg.clone()),
                expect,
            }
        })
        .collect()
}

fn words(program: &Program, name: &str) -> Vec<i32> {
    let g = program
        .global(name)
        .unwrap_or_else(|| panic!("workload has no global {name}"));
    g.data
        .chunks_exact(4)
        .map(|b| i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

fn global_mut<'a>(program: &'a mut Program, name: &str) -> &'a mut GlobalDef {
    program
        .globals
        .iter_mut()
        .find(|g| g.name == name)
        .unwrap_or_else(|| panic!("workload has no global {name}"))
}

/// Overwrites global `name` word by word; the size never changes.
fn set_words(program: &mut Program, name: &str, new: &[i32]) {
    let g = global_mut(program, name);
    assert_eq!(
        g.data.len(),
        new.len() * 4,
        "redraw must keep {name}'s size"
    );
    g.data = new.iter().flat_map(|w| w.to_le_bytes()).collect();
}

/// SplitMix64: a seeded stream per (seed, global) pair.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, global: &str) -> Rng {
        let salt = global.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        Rng(seed ^ salt)
    }

    fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 32) as u32
    }

    fn words(&mut self, n: usize, mask: u32) -> Vec<i32> {
        (0..n).map(|_| (self.next() & mask) as i32).collect()
    }
}

/// Redraws the input globals under the value ranges the builders use,
/// so every output still fits its 32-bit word.
fn redraw_inputs(program: &mut Program, bench: Bench, seed: u64) {
    match bench {
        Bench::Bitcnt(n) => {
            // Samples past `n` pad the last wave and stay zero.
            let mut sam = words(program, "SAMPLES");
            sam[..n].copy_from_slice(&Rng::new(seed, "SAMPLES").words(n, u32::MAX));
            set_words(program, "SAMPLES", &sam);
        }
        Bench::Mmul(n) => {
            for name in ["A", "B"] {
                set_words(program, name, &Rng::new(seed, name).words(n * n, 0xFFF));
            }
        }
        Bench::Zoom(n) => {
            // n rows of n pixels plus a replicated last column.
            let pixels = Rng::new(seed, "SRC").words(n * n, 0xFF);
            let src: Vec<i32> = pixels
                .chunks_exact(n)
                .flat_map(|row| row.iter().copied().chain([row[n - 1]]))
                .collect();
            set_words(program, "SRC", &src);
        }
        Bench::Gather(n) => {
            set_words(
                program,
                "IDX",
                &Rng::new(seed, "IDX").words(n, n as u32 - 1),
            );
            set_words(program, "D", &Rng::new(seed, "D").words(n, 0x7FFF));
        }
        other => panic!("{} is not a benchmark job", other.name()),
    }
}

/// The host reference: each output global computed from the program's
/// own input globals.
fn expected_outputs(program: &Program, bench: Bench) -> Vec<(&'static str, Vec<i32>)> {
    match bench {
        Bench::Bitcnt(_) => {
            let total: i64 = words(program, "SAMPLES")
                .iter()
                .zip(words(program, "WEIGHTS"))
                .map(|(&x, w)| (x as u32).count_ones() as i64 * w as i64)
                .sum();
            vec![("TOTAL", vec![total as i32])]
        }
        Bench::Mmul(n) => {
            let (a, b) = (words(program, "A"), words(program, "B"));
            let c = (0..n * n)
                .map(|ij| {
                    let (i, j) = (ij / n, ij % n);
                    (0..n)
                        .map(|k| a[i * n + k] as i64 * b[k * n + j] as i64)
                        .sum::<i64>() as i32
                })
                .collect();
            vec![("C", c)]
        }
        Bench::Zoom(n) => {
            let src = words(program, "SRC");
            let (f, on) = (zoom::FACTOR, zoom::FACTOR * n);
            let out = (0..on * on)
                .map(|yx| {
                    let (y, x) = (yx / on, yx % on);
                    let (yi, xi, k) = (y / f, x / f, (x % f) as i32);
                    let a = src[yi * (n + 1) + xi];
                    let b = src[yi * (n + 1) + xi + 1];
                    (a * (f as i32 - k) + b * k) / f as i32
                })
                .collect();
            vec![("OUT", out)]
        }
        Bench::Gather(n) => {
            let (idx, d) = (words(program, "IDX"), words(program, "D"));
            let chunk = n / gather::WORKERS;
            let sums = idx
                .chunks_exact(chunk)
                .map(|slice| slice.iter().map(|&i| d[i as usize]).sum())
                .collect();
            vec![("S", sums)]
        }
        other => panic!("{} is not a benchmark job", other.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_core::run_job;

    fn outputs(workload: Workload, seed: u64) -> Vec<(BenchJob, dta_core::JobResult)> {
        build_jobs(workload, seed, true, &mut None)
            .into_iter()
            .map(|j| {
                let r = run_job(&j.job);
                (j, r)
            })
            .collect()
    }

    #[test]
    fn seed_zero_references_agree_with_the_builders() {
        for workload in Workload::ALL {
            for (j, r) in outputs(workload, 0) {
                let out = r.outcome.expect("quick job runs");
                j.bench.verify(&out.globals).expect("builder reference");
                j.verify(&out.globals).expect("benchmark reference");
            }
        }
    }

    #[test]
    fn other_seeds_redraw_inputs_and_still_verify() {
        for workload in [Workload::Paper, Workload::GatherWide] {
            let canonical = build_jobs(workload, 0, true, &mut None);
            for (j, r) in outputs(workload, 7) {
                let base = canonical.iter().find(|c| c.name == j.name).unwrap();
                assert_ne!(j.job.key(), base.job.key(), "{}: inputs redrawn", j.name);
                let sizes = |p: &Program| p.globals.iter().map(|g| g.size()).collect::<Vec<_>>();
                assert_eq!(sizes(&j.job.program), sizes(&base.job.program));
                let out = r.outcome.expect("seeded job runs");
                j.verify(&out.globals).expect("seeded reference");
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
