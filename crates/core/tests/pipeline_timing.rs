//! Precise pipeline-timing tests: dual issue, the register scoreboard,
//! and branch penalties, measured through instruction/cycle counters on
//! single-thread programs.

use dta_core::{simulate, RunStats, StallCat, SystemConfig};
use dta_isa::{reg::r, BrCond, Program, ProgramBuilder, ThreadBuilder};
use std::sync::Arc;

/// A 1-PE config with every penalty and latency pinned for exact math.
fn pinned() -> SystemConfig {
    let mut cfg = SystemConfig::with_pes(1);
    cfg.dispatch_penalty = 0;
    cfg.taken_branch_penalty = 0;
    cfg
}

/// A one-thread program whose `main` is `body`.
fn build_one(body: impl FnOnce(&mut ThreadBuilder)) -> Program {
    let mut pb = ProgramBuilder::new();
    let main = pb.declare("main");
    let mut t = ThreadBuilder::new("main");
    body(&mut t);
    pb.define(main, t);
    pb.set_entry(main, 0);
    pb.build()
}

fn run_one(body: impl FnOnce(&mut ThreadBuilder)) -> (RunStats, Program) {
    let p = build_one(body);
    let (stats, _) = simulate(pinned(), Arc::new(p.clone()), &[]).unwrap();
    (stats, p)
}

#[test]
fn independent_compute_and_frame_ops_dual_issue() {
    // Pairs of (ALU, frame STORE to own... no: use LSSTORE) should issue
    // two per cycle: N pairs -> ~N issue cycles with 2N instructions.
    let n = 32;
    let (stats, _) = run_one(|t| {
        t.begin_ex();
        t.li(r(4), 0); // LS address register
        for i in 0..n {
            // Independent compute (different dests) + LS store.
            t.add(r(5), r(4), i);
            t.lsstore(r(4), r(4), i * 4);
        }
        t.begin_ps();
        t.ffree_self();
        t.stop();
    });
    let agg = &stats.aggregate;
    assert!(
        agg.dual_cycles >= (n as u64) - 2,
        "expected ~{n} dual-issue cycles, got {}",
        agg.dual_cycles
    );
    assert!(agg.issued >= 2 * n as u64);
}

#[test]
fn dependent_alu_chain_single_issues() {
    // A strict dependency chain can never dual-issue.
    let n = 64;
    let (stats, _) = run_one(|t| {
        t.begin_ex();
        t.li(r(4), 1);
        for _ in 0..n {
            t.add(r(4), r(4), 1);
        }
        t.begin_ps();
        t.ffree_self();
        t.stop();
    });
    assert_eq!(stats.aggregate.dual_cycles, 0);
    // issue cycles ≈ instructions (1 IPC on the chain).
    assert!(stats.aggregate.issue_cycles as i64 - stats.aggregate.issued as i64 <= 1);
}

#[test]
fn scoreboard_charges_ls_latency_to_early_consumers() {
    // lsload followed immediately by its use stalls ~ls_latency cycles,
    // attributed to LS stalls.
    let uses = 32;
    let (stats, _) = run_one(|t| {
        t.begin_ex();
        t.li(r(4), 0);
        for i in 0..uses {
            t.lsload(r(5), r(4), i * 4);
            t.add(r(6), r(5), 1); // immediate use -> stall
        }
        t.begin_ps();
        t.ffree_self();
        t.stop();
    });
    let ls = stats.aggregate.cat(StallCat::LsStall);
    // Each pair loses ~(ls_latency - 1) cycles; allow generous bounds.
    assert!(
        ls >= (uses as u64) * 3,
        "expected LS stalls from immediate consumers, got {ls}"
    );
}

#[test]
fn scheduling_independent_work_hides_ls_latency() {
    // The same loads with 6 independent ALU ops in between: no LS stalls.
    let uses = 32;
    let (stats, _) = run_one(|t| {
        t.begin_ex();
        t.li(r(4), 0);
        for i in 0..uses {
            t.lsload(r(5), r(4), i * 4);
            for k in 0..6 {
                t.add(r(7), r(4), k); // independent filler
            }
            t.add(r(6), r(5), 1);
        }
        t.begin_ps();
        t.ffree_self();
        t.stop();
    });
    assert!(
        stats.aggregate.cat(StallCat::LsStall) <= 2,
        "scheduled loads should hide LS latency, got {}",
        stats.aggregate.cat(StallCat::LsStall)
    );
}

#[test]
fn taken_branch_penalty_is_charged() {
    // A counted loop of k iterations takes ~penalty extra cycles per
    // taken branch.
    let iters = 100u64;
    let build = |penalty: u64| {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare("main");
        let mut t = ThreadBuilder::new("main");
        t.begin_ex();
        t.li(r(4), 0);
        let top = t.label_here();
        let done = t.new_label();
        t.br(BrCond::Ge, r(4), iters as i32, done);
        t.add(r(4), r(4), 1);
        t.jmp(top);
        t.bind(done);
        t.begin_ps();
        t.ffree_self();
        t.stop();
        pb.define(main, t);
        pb.set_entry(main, 0);
        let mut cfg = pinned();
        cfg.taken_branch_penalty = penalty;
        simulate(cfg, Arc::new(pb.build()), &[]).unwrap().0.cycles
    };
    let fast = build(0);
    let slow = build(4);
    // Each iteration takes one taken jmp (+ the final taken guard);
    // penalty 4 adds ~4 cycles per taken branch.
    let delta = slow - fast;
    assert!(
        (delta as i64 - (4 * (iters as i64 + 1))).abs() <= 8,
        "penalty delta {delta}, expected ~{}",
        4 * (iters + 1)
    );
}

#[test]
fn blocking_read_round_trip_is_exact() {
    // One READ on an otherwise empty machine: memory stall cycles equal
    // the documented round trip (command 1+wire, port 1, latency, data
    // 1+wire).
    let (stats, _) = run_one(|t| {
        t.begin_ex();
        t.li(r(4), 0x10_0000);
        t.read(r(5), r(4), 0);
        t.begin_ps();
        t.ffree_self();
        t.stop();
    });
    let cfg = SystemConfig::paper_default();
    let expected = 1 + cfg.wire_latency + 1 + cfg.mem_latency + 1 + cfg.wire_latency;
    assert_eq!(stats.aggregate.cat(StallCat::MemStall), expected);
}

#[test]
fn read_and_dual_issue_dont_overcount_instructions() {
    // Total issued instructions must equal the static path length for a
    // straight-line thread.
    let (stats, p) = run_one(|t| {
        t.begin_ex();
        t.li(r(4), 0x10_0000);
        t.read(r(5), r(4), 0);
        t.add(r(6), r(5), 1);
        t.li(r(7), 128); // a local-store address
        t.lsstore(r(6), r(7), 0);
        t.begin_ps();
        t.ffree_self();
        t.stop();
    });
    assert_eq!(stats.aggregate.issued, p.threads[0].code.len() as u64);
}

#[test]
fn nop_runs_at_one_per_cycle() {
    let n = 50;
    let (stats, _) = run_one(|t| {
        t.begin_ex();
        for _ in 0..n {
            t.nop();
        }
        t.begin_ps();
        t.ffree_self();
        t.stop();
    });
    // NOPs are compute-class and cannot pair with each other.
    assert_eq!(stats.aggregate.dual_cycles, 0);
    assert!(stats.aggregate.cat(StallCat::Working) >= n as u64);
}

/// A loop whose taken branch dual-issues with the compute instruction
/// before it: each iteration is one single-issue cycle, one dual-issue
/// cycle and the branch penalty. The pipeline must resume exactly when
/// the penalty ends — not a cycle later, and not early.
#[test]
fn paired_taken_branch_loop_is_exact() {
    let iters = 40u64;
    let penalty = 2;
    let mut pb = ProgramBuilder::new();
    let main = pb.declare("main");
    let mut t = ThreadBuilder::new("main");
    t.begin_ex();
    t.li(r(4), 0);
    let top = t.label_here();
    t.add(r(4), r(4), 1);
    // Independent of r4, so the branch below pairs with it.
    t.add(r(5), r(5), 3);
    t.br(BrCond::Lt, r(4), iters as i32, top);
    t.begin_ps();
    t.ffree_self();
    t.stop();
    pb.define(main, t);
    pb.set_entry(main, 0);
    let mut cfg = pinned();
    cfg.taken_branch_penalty = penalty;
    let (stats, sys) = simulate(cfg, Arc::new(pb.build()), &[]).unwrap();
    let pe = &stats.per_pe[0];
    let taken = iters - 1;
    assert_eq!(pe.issued, 1 + 3 * iters + 2);
    assert_eq!(pe.dual_cycles, iters);
    assert_eq!(pe.issue_cycles, 1 + 2 * iters + 2);
    assert_eq!(
        pe.cat(StallCat::Working),
        pe.issue_cycles + penalty * taken,
        "every cycle of the loop is issue or branch penalty"
    );
    assert_eq!(pe.total_cycles(), stats.cycles);
    // The cycle count the per-cycle pipeline measures for this loop.
    assert_eq!(stats.cycles, 167);
    // The whole loop is quiet, so the PE needs far fewer ticks than it
    // has busy cycles.
    assert!(sys.engine_report().pe_ticks < iters);
}

/// Gather's loop shape: `READ`s separated by one ALU op that cannot pair
/// with the `READ` after it. On an empty machine each `READ`'s latency
/// is known when it issues, so the tick that issues it runs on through
/// the blocked cycles; the ALU op after them is quiet and issues alone,
/// so it runs ahead in that tick too. The PE then needs one tick per
/// `READ` plus four: dispatch with the `LI`, `FFREE`, `STOP` and the tick
/// that finds the PE idle. The cycle count is the per-cycle pipeline's.
#[test]
fn quiet_op_before_a_read_runs_in_the_previous_span() {
    let reads = 33u64;
    let p = build_one(|t| {
        t.begin_ex();
        t.li(r(4), 0x10_0000);
        for k in 0..reads {
            if k > 0 {
                t.add(r(4), r(4), 4);
            }
            t.read(r(5), r(4), 0);
        }
        t.begin_ps();
        t.ffree_self();
        t.stop();
    });
    let (stats, sys) = simulate(pinned(), Arc::new(p), &[]).unwrap();
    assert_eq!(stats.aggregate.issued, 2 * reads + 2);
    assert_eq!(stats.cycles, 5420);
    assert_eq!(sys.engine_report().pe_ticks, reads + 4);
}

/// An ALU op that pairs with the `STORE` after it may dual-issue with
/// it, and a `STORE` posts a message: the span must stop before the ALU
/// op, so every pair issues in a tick of its own at its true cycle. On
/// two PEs the frame the `STORE`s fill is allocated on the other PE, so
/// their deliveries do not tick the issuing PE and the tick count shows
/// where the spans stop. The cycle and tick counts are those of the
/// rule that also stopped before a lone quiet op.
#[test]
fn quiet_op_pairing_with_a_store_ends_the_span() {
    let stores = 8u16;
    let mut pb = ProgramBuilder::new();
    let main = pb.declare("main");
    let sink = pb.declare("sink");
    let mut t = ThreadBuilder::new("main");
    t.begin_ex();
    t.li(r(5), 7);
    t.falloc(r(4), sink, stores);
    for k in 0..stores {
        // Independent of the STORE's operands, so the two pair.
        t.add(r(6), r(6), 1);
        t.store(r(5), r(4), k);
    }
    t.begin_ps();
    t.ffree_self();
    t.stop();
    pb.define(main, t);
    let mut t = ThreadBuilder::new("sink");
    t.frame_slots(stores);
    t.begin_ps();
    t.ffree_self();
    t.stop();
    pb.define(sink, t);
    pb.set_entry(main, 0);
    let mut cfg = pinned();
    cfg.pes_per_node = 2;
    let (stats, sys) = simulate(cfg, Arc::new(pb.build()), &[]).unwrap();
    let pe = &stats.per_pe[0];
    assert_eq!(
        pe.dual_cycles, stores as u64,
        "every ALU op pairs with its STORE"
    );
    assert_eq!(stats.cycles, 51);
    assert_eq!(sys.engine_report().pe_ticks, 26);
}
