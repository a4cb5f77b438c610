//! The decode-once µop table the pipeline issues from.
//!
//! [`UopTable::new`] decodes every thread of a program once, at system
//! construction, into an array of [`Uop`]s parallel to its code. Each
//! µop carries what the issue stage asks of an instruction every cycle —
//! its class, its source registers as a bit mask, its code block, whether
//! it may dual-issue with the next instruction — so the hot loop never
//! re-derives them. It also carries the one fact the span executor
//! needs: whether a cycle starting at it may run ahead of global time,
//! because everything the cycle may issue is *quiet* (pure, and posts
//! nothing; DESIGN.md §12).

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
    /// A cycle whose first µop this is may run ahead of its true cycle
    /// in a span: this µop is quiet and, if it pairs, so is the next one
    /// (which may then dual-issue with it). Quiet means pure and posting
    /// nothing — ALU, `LI`, `MOV`, `NOP`, branches, frame `LOAD`,
    /// `LSLOAD`/`LSSTORE` — so the effect is confined to the instance's
    /// registers, the PE's scoreboard, local store and LS ports.
    pub ahead: bool,
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
    code.iter()
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
                ahead: is_quiet(i) && (!pairs || is_quiet(&code[pc + 1])),
            }
        })
        .collect()
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
