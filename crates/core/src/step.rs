//! The semantics of pure instructions, shared by every executor.
//!
//! A *pure* instruction — ALU, `LI`, `MOV`, `NOP`, branches, frame-slot
//! `LOAD`, `STORE`, `FFREE`, `LSLOAD`/`LSSTORE` — depends only on its
//! instance's registers and frame slots and on the PE's local store.
//! [`step`] says what one does; each executor applies the result and adds
//! only its own concerns: the main pipeline its scoreboard, LS ports and
//! stall buckets, and the SP offload its serial clock.

use dta_isa::{FramePtr, Instr, Reg, Src, NUM_REGS};
use std::fmt;

/// Effective address of a `base + off` operand: a two's-complement
/// wrapping add. Local-store addresses take the low 32 bits. Every
/// address operand uses it — `READ`/`WRITE`, `LSLOAD`/`LSSTORE` and the
/// DMA commands — so debug and release builds agree.
#[inline]
pub(crate) fn ea(base: i64, off: i32) -> i64 {
    base.wrapping_add(off as i64)
}

/// An outbound message a pure instruction produces. Delivery targets and
/// delays are derived from the decoded frame when it is posted.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Effect {
    /// `STORE`: a frame-slot write posted to the owning LSE.
    Store {
        /// Destination frame.
        frame: FramePtr,
        /// Destination slot.
        slot: u16,
        /// Stored value.
        value: i64,
    },
    /// `FFREE`: a frame release posted to the owning LSE.
    Ffree {
        /// Released frame.
        frame: FramePtr,
    },
}

/// What one pure instruction did. After [`Step::Jump`] execution
/// continues at its target, after [`Step::Fault`] not at all; everything
/// else falls through to the next pc.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Step {
    /// No result (`NOP`, an untaken branch).
    Next,
    /// Taken branch or jump to this pc.
    Jump(u32),
    /// A computed register result (ALU, `LI`, `MOV`). Writes to r0 are
    /// discarded by [`set`].
    Set(Reg, i64),
    /// A register loaded from a frame slot or the local store: it takes
    /// an LS access.
    Load(Reg, i64),
    /// A local-store word write.
    LsStore {
        /// Byte address (in range).
        addr: u32,
        /// The stored word.
        value: u32,
    },
    /// An outbound `STORE` or `FFREE`.
    Post(Effect),
    /// An operand the step cannot execute; nothing was done.
    Fault(Fault),
}

/// An operand [`step`] cannot execute. The pipeline treats it as a
/// program bug and panics; pre-execution falls back to interpretation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fault {
    /// A `STORE`/`FFREE` frame operand is not an encoded frame pointer.
    BadFrame(u64),
    /// A `LOAD` names a slot past the end of the frame.
    Slot(u16),
    /// A local-store word access runs past the end of the store.
    LsRange(u32),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::BadFrame(raw) => write!(f, "value {raw:#x} is not an encoded frame pointer"),
            Fault::Slot(slot) => write!(f, "frame slot {slot} out of range"),
            Fault::LsRange(addr) => write!(f, "local-store access [{addr:#x}, +4) out of range"),
        }
    }
}

/// Reads register `r` (r0 always reads zero).
#[inline]
pub(crate) fn reg(regs: &[i64; NUM_REGS], r: Reg) -> i64 {
    if r.is_zero() {
        0
    } else {
        regs[r.index()]
    }
}

/// Reads a register-or-immediate operand.
#[inline]
pub(crate) fn src(regs: &[i64; NUM_REGS], s: Src) -> i64 {
    match s {
        Src::Reg(r) => reg(regs, r),
        Src::Imm(i) => i as i64,
    }
}

/// Writes register `r` (writes to r0 are discarded).
#[inline]
pub(crate) fn set(regs: &mut [i64; NUM_REGS], r: Reg, v: i64) {
    if !r.is_zero() {
        regs[r.index()] = v;
    }
}

/// Executes pure instruction `i` against an instance's registers and
/// frame slots and a local store of `ls_size` bytes, whose sign-extended
/// words `ls_word` reads (only ever at in-range addresses).
///
/// # Panics
///
/// If `i` is not pure: `READ`, `WRITE`, `FALLOC`, `STOP` and the DMA
/// instructions touch shared state and belong to their executor.
///
/// Every executor calls this once per instruction on its hot path, so it
/// is always inlined, and a fault is a [`Step`] variant rather than an
/// `Err`: only then does the compiler fold the caller's match on the
/// result into this match on the instruction. A call, or a `Result`
/// around the step, once made mmul(32) about 10% slower.
#[inline(always)]
pub(crate) fn step(
    i: Instr,
    regs: &[i64; NUM_REGS],
    slots: &[i64],
    ls_size: usize,
    ls_word: impl FnOnce(u32) -> i64,
) -> Step {
    let ls_addr = |ra: Reg, off: i32| {
        let addr = ea(reg(regs, ra), off) as u32;
        (addr as usize + 4 <= ls_size)
            .then_some(addr)
            .ok_or(Fault::LsRange(addr))
    };
    let frame = |r: Reg| {
        let raw = reg(regs, r) as u64;
        FramePtr::decode(raw).ok_or(Fault::BadFrame(raw))
    };
    match i {
        Instr::Alu { op, rd, ra, rb } => Step::Set(rd, op.eval(reg(regs, ra), src(regs, rb))),
        Instr::Li { rd, imm } => Step::Set(rd, imm),
        Instr::Mov { rd, ra } => Step::Set(rd, reg(regs, ra)),
        Instr::Nop => Step::Next,
        Instr::Br {
            cond,
            ra,
            rb,
            target,
        } => {
            if cond.eval(reg(regs, ra), src(regs, rb)) {
                Step::Jump(target)
            } else {
                Step::Next
            }
        }
        Instr::Jmp { target } => Step::Jump(target),
        Instr::Load { rd, slot } => match slots.get(slot as usize) {
            Some(&v) => Step::Load(rd, v),
            None => Step::Fault(Fault::Slot(slot)),
        },
        Instr::Store { rs, rframe, slot } => match frame(rframe) {
            Ok(frame) => Step::Post(Effect::Store {
                frame,
                slot,
                value: reg(regs, rs),
            }),
            Err(f) => Step::Fault(f),
        },
        Instr::Ffree { rframe } => match frame(rframe) {
            Ok(frame) => Step::Post(Effect::Ffree { frame }),
            Err(f) => Step::Fault(f),
        },
        Instr::LsLoad { rd, ra, off } => match ls_addr(ra, off) {
            Ok(addr) => Step::Load(rd, ls_word(addr)),
            Err(f) => Step::Fault(f),
        },
        Instr::LsStore { rs, ra, off } => match ls_addr(ra, off) {
            Ok(addr) => Step::LsStore {
                addr,
                value: reg(regs, rs) as u32,
            },
            Err(f) => Step::Fault(f),
        },
        Instr::Read { .. }
        | Instr::Write { .. }
        | Instr::Falloc { .. }
        | Instr::Stop
        | Instr::DmaGet { .. }
        | Instr::DmaGetStrided { .. }
        | Instr::DmaPut { .. }
        | Instr::DmaYield
        | Instr::DmaWait { .. } => unreachable!("{i:?} is not a pure instruction"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_addresses_wrap() {
        assert_eq!(ea(i64::MAX - 3, 8), i64::MIN + 4);
        assert_eq!(ea(i64::MAX - 3, 8) as u32, 4);
        assert_eq!(ea(16, -4), 12);
    }

    #[test]
    fn faults_name_the_bad_operand() {
        let r3 = Reg::new(3);
        let mut regs = [0i64; NUM_REGS];
        regs[3] = 60;
        let fault = |i| match step(i, &regs, &[7], 64, |_| 0) {
            Step::Fault(f) => Some(f),
            _ => None,
        };
        let lsload = Instr::LsLoad {
            rd: r3,
            ra: r3,
            off: 1,
        };
        assert_eq!(fault(lsload), Some(Fault::LsRange(61)));
        assert_eq!(fault(Instr::Load { rd: r3, slot: 1 }), Some(Fault::Slot(1)));
        assert_eq!(
            fault(Instr::Ffree { rframe: r3 }),
            Some(Fault::BadFrame(60))
        );
        assert_eq!(fault(Instr::Load { rd: r3, slot: 0 }), None);
    }
}
