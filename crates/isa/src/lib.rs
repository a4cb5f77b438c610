//! # dta-isa — instruction set for the DTA simulator
//!
//! This crate defines the software-visible architecture of the Decoupled
//! Threaded Architecture (DTA) machine reproduced from Giorgi, Popovic &
//! Puzovic, *"Exploiting DMA to enable non-blocking execution in Decoupled
//! Threaded Architecture"* (IPDPS'09):
//!
//! * a RISC-like register ISA ([`Instr`], [`Reg`], [`Src`]) with the DTA
//!   thread-management instructions of the paper's Table 1 (`FALLOC`,
//!   `FFREE`, `STOP`, frame `LOAD`/`STORE`), the main-memory `READ`/`WRITE`
//!   accesses the prefetching mechanism targets, local-store accesses, and
//!   the DMA programming instructions of Table 3;
//! * the thread model: every thread's code is partitioned into the
//!   **PF / PL / EX / PS** code blocks ([`CodeBlock`], [`BlockMap`]);
//! * whole programs ([`Program`]) — a set of thread codes plus a global
//!   data segment laid out in main memory;
//! * an ergonomic [`builder`] DSL used to hand-code benchmarks (as the
//!   paper's authors did), a text [`asm`] assembler / disassembler (the
//!   one serialisation of program code; a `.fallback NAME` line carries a
//!   thread's degradation fallback), and a structural [`validate`] pass.
//!
//! The ISA is deliberately scalar (the SPU's SIMD width is orthogonal to
//! the decoupling mechanism under study) but keeps the SPU properties that
//! matter: in-order dual issue (one *compute*-class and one *memory*-class
//! instruction per cycle — see [`Instr::class`]), no caches, and explicit
//! software-managed local store.
//!
//! ## Register conventions
//!
//! | register | role |
//! |----------|------|
//! | `r0`     | hard-wired zero (writes are ignored) |
//! | `r1`     | self frame pointer (set by hardware at thread start) |
//! | `r2`     | prefetch-buffer base address in the local store (set by hardware) |
//! | `r3..`   | general purpose |

pub mod asm;
pub mod builder;
pub mod frame;
pub mod hash;
pub mod instr;
pub mod program;
pub mod reg;
pub mod validate;

pub use builder::{ProgramBuilder, ThreadBuilder};
pub use frame::FramePtr;
pub use hash::{IdBuild, IdHasher};
pub use instr::{AluOp, BrCond, IClass, Instr, Src};
pub use program::{BlockMap, CodeBlock, GlobalDef, Program, ThreadCode, ThreadId};
pub use reg::{Reg, FRAME_PTR_REG, NUM_REGS, PREFETCH_BASE_REG, ZERO_REG};
pub use validate::{validate_program, validate_thread, FallbackProblem, ValidationError};
