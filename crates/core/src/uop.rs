//! The decode-once µop table the pipeline issues from.
//!
//! [`UopTable::new`] decodes every thread of a program once, at system
//! construction, into an array of [`Uop`]s parallel to its code. Each
//! µop carries what the issue stage asks of an instruction every cycle —
//! its class, its source registers as a bit mask, its code block, whether
//! it may dual-issue with the next instruction — so the hot loop never
//! re-derives them. It also carries the facts the span executor needs:
//! whether the instruction is *quiet* (pure, and posts nothing), and
//! where the run of quiet instructions it belongs to ends (DESIGN.md
//! §12).

use dta_isa::{CodeBlock, IClass, Instr, Program, ThreadCode, ThreadId, NUM_REGS};

// A use-mask has one bit per register.
const _: () = assert!(NUM_REGS <= 64);

/// One decoded instruction.
#[derive(Clone, Copy, Debug)]
pub struct Uop {
    /// The instruction.
    pub instr: Instr,
    /// Its issue class ([`Instr::class`]).
    pub class: IClass,
    /// The code block its pc lies in ([`ThreadCode::block_of`]).
    pub block: CodeBlock,
    /// Bit `r` set for every register `r` in [`Instr::uses`].
    pub uses: u64,
    /// May dual-issue with the next instruction: the classes pair
    /// ([`pairable`]) and the next pc lies in the same block.
    pub pairs: bool,
    /// Pure and posts nothing — ALU, `LI`, `MOV`, `NOP`, branches, frame
    /// `LOAD`, `LSLOAD`/`LSSTORE`: its effect is confined to the
    /// instance's registers, the PE's scoreboard, local store and LS
    /// ports, so it may execute ahead of global time.
    pub quiet: bool,
    /// The first pc at or after this one whose µop is not quiet (the code
    /// length if there is none).
    pub quiet_end: u32,
}

/// Can an instruction of class `a` dual-issue with a following one of
/// class `b`? One compute-pipe instruction pairs with one branch, frame
/// or local-store instruction, in either order.
pub fn pairable(a: IClass, b: IClass) -> bool {
    use IClass::*;
    let simple = |c: IClass| matches!(c, Branch | Frame | Ls);
    (a == Compute && simple(b)) || (simple(a) && b == Compute)
}

/// Is `i` quiet — one of the pure instructions that post nothing: ALU,
/// `LI`, `MOV`, `NOP`, branches, frame `LOAD` and `LSLOAD`/`LSSTORE`?
/// (`STORE` and `FFREE` are pure but post a message, so they are not.)
fn is_quiet(i: &Instr) -> bool {
    matches!(
        i,
        Instr::Alu { .. }
            | Instr::Li { .. }
            | Instr::Mov { .. }
            | Instr::Nop
            | Instr::Br { .. }
            | Instr::Jmp { .. }
            | Instr::Load { .. }
            | Instr::LsLoad { .. }
            | Instr::LsStore { .. }
    )
}

/// Decodes one thread's code into its µop array.
pub fn decode(thread: &ThreadCode) -> Vec<Uop> {
    let code = &thread.code;
    let mut uops: Vec<Uop> = code
        .iter()
        .enumerate()
        .map(|(pc, i)| {
            let block = thread.block_of(pc as u32);
            let pairs = code.get(pc + 1).is_some_and(|next| {
                pairable(i.class(), next.class()) && thread.block_of(pc as u32 + 1) == block
            });
            Uop {
                instr: *i,
                class: i.class(),
                block,
                uses: i.uses().iter().fold(0u64, |m, r| m | 1 << r.index()),
                pairs,
                quiet: is_quiet(i),
                quiet_end: 0,
            }
        })
        .collect();
    let mut end = uops.len() as u32;
    for (pc, u) in uops.iter_mut().enumerate().rev() {
        if !u.quiet {
            end = pc as u32;
        }
        u.quiet_end = end;
    }
    uops
}

/// Every thread of a program, decoded.
#[derive(Debug)]
pub struct UopTable {
    threads: Vec<Box<[Uop]>>,
}

impl UopTable {
    /// Decodes every thread of `program`.
    pub fn new(program: &Program) -> Self {
        UopTable {
            threads: program
                .threads
                .iter()
                .map(|t| decode(t).into_boxed_slice())
                .collect(),
        }
    }

    /// The µops of `thread`, indexed by pc.
    #[inline]
    pub fn thread(&self, thread: ThreadId) -> &[Uop] {
        &self.threads[thread.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairing_rules() {
        use IClass::*;
        assert!(pairable(Compute, Branch));
        assert!(pairable(Frame, Compute));
        assert!(pairable(Compute, Ls));
        assert!(!pairable(Compute, Compute));
        assert!(!pairable(Compute, Mem));
        assert!(!pairable(Mem, Compute));
        assert!(!pairable(Compute, Dma));
        assert!(!pairable(Sched, Compute));
        assert!(!pairable(Branch, Frame));
    }
}
