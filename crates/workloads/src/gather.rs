//! `gather(n)` — data-dependent sparse gather-sum.
//!
//! Not a paper benchmark; it is the stress shape for the event-driven
//! fast-forward scheduler. A handful of worker threads each walk a slice
//! of an index array and sum `D[IDX[i]]`: every element costs a
//! main-memory round-trip whose address is only known after the index
//! arrives, so the baseline variant spends almost all of its cycles
//! blocked in decoupled READs while most PEs sit idle. A tick-every-PE
//! engine would tick every PE through all of that dead time; the wake
//! heap skips it.
//! The hand variant DMAs each index slice into the local store up front
//! (the data reads stay irreducibly indirect), halving the round-trips —
//! the paper's PF discipline applied to the part of the pattern DMA can
//! reach.

use crate::common::{synth_values, Variant, WorkloadProgram};
use dta_core::GlobalRead;
use dta_isa::{reg::r, BrCond, ProgramBuilder, ThreadBuilder};

/// Worker-thread count: deliberately fewer than the paper machine's PEs
/// so the idle-PE skip is visible on the default topology.
pub const WORKERS: usize = 4;

/// Index array: n pseudo-random indices into `D` (n is a power of two,
/// so masking keeps them in range).
pub fn indices(n: usize) -> Vec<i32> {
    synth_values(0x6A7E2, n)
        .into_iter()
        .map(|v| v & (n as i32 - 1))
        .collect()
}

/// Data array (small positive values so per-worker sums fit an i32).
pub fn input(n: usize) -> Vec<i32> {
    synth_values(0xDA7A1, n)
        .into_iter()
        .map(|v| v & 0x7FFF)
        .collect()
}

/// Reference per-worker sums.
pub fn expected(n: usize) -> Vec<i32> {
    let (idx, d) = (indices(n), input(n));
    let chunk = n / WORKERS;
    (0..WORKERS)
        .map(|w| {
            idx[w * chunk..(w + 1) * chunk]
                .iter()
                .map(|&i| d[i as usize])
                .sum()
        })
        .collect()
}

/// Builds `gather(n)`.
///
/// # Panics
///
/// If `n` is not a power of two at least `2 * WORKERS`.
pub fn build(n: usize, variant: Variant) -> WorkloadProgram {
    assert!(
        n.is_power_of_two() && n >= 2 * WORKERS,
        "gather needs a power-of-two n >= {}",
        2 * WORKERS
    );
    let chunk = n / WORKERS;

    let mut pb = ProgramBuilder::new();
    let idx = pb.global_words("IDX", &indices(n));
    let data = pb.global_words("D", &input(n));
    let out = pb.global_zeroed("S", WORKERS * 4);
    let main = pb.declare("main");
    let worker = pb.declare("worker");

    let mut t = ThreadBuilder::new("main");
    t.begin_ex();
    t.li(r(3), 0);
    let top = t.label_here();
    let done = t.new_label();
    t.br(BrCond::Ge, r(3), WORKERS as i32, done);
    t.falloc(r(4), worker, 1);
    t.store(r(3), r(4), 0);
    t.add(r(3), r(3), 1);
    t.jmp(top);
    t.bind(done);
    t.begin_ps();
    t.ffree_self();
    t.stop();
    pb.define(main, t);

    let mut w = ThreadBuilder::new("worker");
    let hand = variant == Variant::HandPrefetch;
    if hand {
        // PF block: pull this worker's index slice into the local store.
        // The data reads cannot be prefetched — each address depends on
        // the index value — so they stay decoupled READs in EX.
        w.prefetch_bytes((chunk * 4) as u32);
        w.load(r(3), 0); // worker id
        w.mul(r(4), r(3), (chunk * 4) as i32);
        w.li(r(5), idx as i64);
        w.add(r(5), r(5), r(4)); // &IDX[w * chunk]
        w.dmaget(r(2), 0, r(5), 0, (chunk * 4) as i32, 0);
        w.dmayield();
    }
    w.begin_pl();
    w.load(r(3), 0); // worker id
    w.begin_ex();
    w.li(r(7), 0); // i
    w.li(r(8), 0); // sum
    if !hand {
        w.mul(r(4), r(3), (chunk * 4) as i32);
        w.li(r(5), idx as i64);
        w.add(r(5), r(5), r(4)); // &IDX[w * chunk]
    }
    w.li(r(6), data as i64);
    let wtop = w.label_here();
    let wdone = w.new_label();
    w.br(BrCond::Ge, r(7), chunk as i32, wdone);
    w.shl(r(9), r(7), 2);
    if hand {
        // Index slice sits packed at the prefetch base r2.
        w.add(r(9), r(2), r(9));
        w.lsload(r(10), r(9), 0); // idx
    } else {
        w.add(r(9), r(5), r(9));
        w.read(r(10), r(9), 0); // idx (remote round-trip #1)
    }
    w.shl(r(10), r(10), 2);
    w.add(r(10), r(6), r(10)); // &D[idx]
    w.read(r(11), r(10), 0); // datum (irreducibly indirect)
    w.add(r(8), r(8), r(11));
    w.add(r(7), r(7), 1);
    w.jmp(wtop);
    w.bind(wdone);
    w.begin_ps();
    w.shl(r(11), r(3), 2);
    w.li(r(12), out as i64);
    w.add(r(12), r(12), r(11));
    w.write(r(8), r(12), 0);
    w.ffree_self();
    w.stop();
    pb.define(worker, w);

    pb.set_entry(main, 0);
    let wp = WorkloadProgram {
        name: format!("gather({n})"),
        program: pb.build(),
        args: vec![],
        compiler_report: None,
    };
    if variant == Variant::AutoPrefetch {
        wp.auto_prefetch()
    } else {
        wp
    }
}

/// Checks the simulated per-worker sums against [`expected`].
pub fn verify(sys: &dyn GlobalRead, n: usize) -> Result<(), String> {
    let want = expected(n);
    for (w, &v) in want.iter().enumerate() {
        match sys.read_global_word("S", w) {
            Some(got) if got == v => {}
            got => return Err(format!("S[{w}] = {got:?}, expected {v}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_core::{simulate, SystemConfig};
    use std::sync::Arc;

    #[test]
    fn all_variants_gather_correctly() {
        for variant in Variant::ALL {
            let wp = build(64, variant);
            assert!(
                dta_isa::validate_program(&wp.program).is_empty(),
                "{variant:?} invalid"
            );
            let (_, sys) =
                simulate(SystemConfig::with_pes(4), Arc::new(wp.program), &wp.args).unwrap();
            verify(&sys, 64).unwrap_or_else(|e| panic!("{variant:?}: {e}"));
        }
    }

    #[test]
    fn baseline_is_read_dominated() {
        let wp = build(64, Variant::Baseline);
        let (stats, sys) = simulate(
            SystemConfig::paper_default(),
            Arc::new(wp.program),
            &wp.args,
        )
        .unwrap();
        verify(&sys, 64).unwrap();
        // Two remote reads per element: the index and the datum.
        assert_eq!(stats.aggregate.reads, 2 * 64);
        // The hand variant halves the remote reads (index slice via DMA).
        let wp = build(64, Variant::HandPrefetch);
        let (pf, sys) = simulate(
            SystemConfig::paper_default(),
            Arc::new(wp.program),
            &wp.args,
        )
        .unwrap();
        verify(&sys, 64).unwrap();
        assert_eq!(pf.aggregate.reads, 64);
        assert!(pf.cycles < stats.cycles, "prefetch must help");
    }
}
