//! The decode-once µop table must say exactly what the ISA helpers say.
//!
//! For every instruction of every workload program, in every variant,
//! the decoded class, use-mask, block and pairing bit must equal what
//! `Instr::class`/`uses`, `ThreadCode::block_of` and `pairable` compute,
//! and the run-ahead bit must be set exactly where every instruction a
//! cycle starting there may issue is quiet.

use dta_core::uop::{decode, pairable, UopTable};
use dta_isa::{Instr, Program, ThreadCode, ThreadId};
use dta_workloads::{bitcnt, colsum, gather, mmul, stencil, vecscale, zoom, Variant};

/// The quiet instructions, listed independently of the decoder: pure,
/// and posting nothing.
fn quiet(i: &Instr) -> bool {
    match i {
        Instr::Alu { .. }
        | Instr::Li { .. }
        | Instr::Mov { .. }
        | Instr::Nop
        | Instr::Br { .. }
        | Instr::Jmp { .. }
        | Instr::Load { .. }
        | Instr::LsLoad { .. }
        | Instr::LsStore { .. } => true,
        Instr::Store { .. }
        | Instr::Ffree { .. }
        | Instr::Falloc { .. }
        | Instr::Stop
        | Instr::Read { .. }
        | Instr::Write { .. }
        | Instr::DmaGet { .. }
        | Instr::DmaGetStrided { .. }
        | Instr::DmaPut { .. }
        | Instr::DmaYield
        | Instr::DmaWait { .. } => false,
    }
}

fn check_thread(name: &str, t: &ThreadCode) {
    let uops = decode(t);
    assert_eq!(uops.len(), t.code.len(), "{name}/{}", t.name);
    for (pc, (u, i)) in uops.iter().zip(&t.code).enumerate() {
        let at = format!("{name}/{} pc {pc} ({i})", t.name);
        let pc = pc as u32;
        assert_eq!(u.instr, *i, "{at}: instruction");
        assert_eq!(u.class, i.class(), "{at}: class");
        assert_eq!(u.block, t.block_of(pc), "{at}: block");
        let mut mask = 0u64;
        for r in i.uses().iter() {
            mask |= 1 << r.index();
        }
        assert_eq!(u.uses, mask, "{at}: use-mask");
        let pairs = t.code.get(pc as usize + 1).is_some_and(|next| {
            pairable(i.class(), next.class()) && t.block_of(pc + 1) == t.block_of(pc)
        });
        assert_eq!(u.pairs, pairs, "{at}: pairing bit");
        // Everything a cycle starting here may issue is quiet: this µop,
        // and the next one when it may dual-issue.
        let cycle = &t.code[pc as usize..=pc as usize + pairs as usize];
        assert_eq!(u.ahead, cycle.iter().all(quiet), "{at}: run-ahead bit");
    }
}

fn check(name: &str, p: &Program) {
    let table = UopTable::new(p);
    for (k, t) in p.threads.iter().enumerate() {
        check_thread(name, t);
        assert_eq!(
            table.thread(ThreadId(k as u32)).len(),
            t.code.len(),
            "{name}/{}: table row",
            t.name
        );
    }
}

#[test]
fn uop_table_matches_isa_helpers_on_every_workload() {
    for v in Variant::ALL {
        let programs = [
            ("bitcnt", bitcnt::build(256, v).program),
            ("colsum", colsum::build(16, v).program),
            ("gather", gather::build(64, v).program),
            ("mmul", mmul::build(8, v).program),
            ("stencil", stencil::build(64, 4, v).program),
            ("vecscale", vecscale::build(64, 4, v).program),
            ("zoom", zoom::build(8, v).program),
        ];
        for (name, p) in &programs {
            check(&format!("{name}/{}", v.label()), p);
        }
    }
}
