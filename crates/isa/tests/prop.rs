//! Randomised property tests for the ISA crate: assembler round-trips
//! and structural invariants over arbitrary instructions.
//!
//! Deterministic seeded PRNG (no external property-testing dependency —
//! the repo builds hermetically); failures print the seed so a case can
//! be replayed by pinning `SEED`.

use dta_isa::asm::{assemble, program_to_asm};
use dta_isa::{
    AluOp, BlockMap, BrCond, GlobalDef, Instr, Program, Reg, Src, ThreadCode, ThreadId, NUM_REGS,
};

const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// xorshift64* — small, fast, deterministic.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    /// Uniform in `[lo, hi)`.
    fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.below((hi - lo) as u64) as i64)
    }
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

fn arb_reg(rng: &mut Rng) -> Reg {
    Reg::new(rng.below(NUM_REGS as u64) as u8)
}

fn arb_src(rng: &mut Rng) -> Src {
    if rng.below(2) == 0 {
        Src::Reg(arb_reg(rng))
    } else {
        Src::Imm(rng.next() as i32)
    }
}

/// An instruction of a program with `threads` threads.
fn arb_instr(rng: &mut Rng, threads: u32) -> Instr {
    let op = rng.pick(&AluOp::ALL);
    let cond = rng.pick(&BrCond::ALL);
    let rd = arb_reg(rng);
    let ra = arb_reg(rng);
    let rs = arb_reg(rng);
    let rb = arb_src(rng);
    let imm = rng.next() as i64;
    let off = rng.range_i64(-4096, 4096) as i32;
    let slot = rng.below(32) as u16;
    let target = rng.below(512) as u32;
    let thread = rng.below(threads.into()) as u32;
    let sc = rng.below(16) as u16;
    let tag = rng.below(32) as u8;
    let bytes = rng.below(4096) as i32;
    let count = rng.range_i64(1, 64) as i32;
    let stride = rng.pick(&[4i32, 8, 16, 64, 128, 1024]);
    match rng.below(17) {
        0 => Instr::Alu { op, rd, ra, rb },
        1 => Instr::Li { rd, imm },
        2 => Instr::Mov { rd, ra },
        3 => Instr::Nop,
        4 => Instr::Br {
            cond,
            ra,
            rb,
            target,
        },
        5 => Instr::Jmp { target },
        6 => Instr::Load { rd, slot },
        7 => Instr::Store {
            rs,
            rframe: ra,
            slot,
        },
        8 => Instr::Falloc {
            rd,
            thread: ThreadId(thread),
            sc,
        },
        9 => Instr::Ffree { rframe: ra },
        10 => Instr::Read { rd, ra, off },
        11 => Instr::Write { rs, ra, off },
        12 => Instr::LsLoad { rd, ra, off },
        13 => Instr::LsStore { rs, ra, off },
        14 => Instr::DmaGet {
            rls: ra,
            ls_off: off,
            rmem: rs,
            mem_off: off,
            bytes: Src::Imm(bytes),
            tag,
        },
        15 => Instr::DmaGetStrided {
            rls: ra,
            ls_off: off,
            rmem: rs,
            mem_off: off,
            elem_bytes: 4,
            count: Src::Imm(count),
            stride: Src::Imm(stride),
            tag,
        },
        _ => Instr::DmaPut {
            rls: ra,
            ls_off: off,
            rmem: rs,
            mem_off: off,
            bytes: Src::Imm(bytes),
            tag,
        },
    }
}

fn arb_thread(rng: &mut Rng, name: String, threads: u32) -> ThreadCode {
    let len = rng.range_i64(1, 40) as usize;
    let mut code: Vec<Instr> = (0..len).map(|_| arb_instr(rng, threads)).collect();
    code.push(Instr::Stop);
    let total = code.len() as u32;
    let mut cuts: Vec<u32> = (0..3).map(|_| (rng.below(40) as u32).min(total)).collect();
    cuts.sort_unstable();
    ThreadCode {
        name,
        code,
        blocks: BlockMap {
            pf_end: cuts[0],
            pl_end: cuts[1],
            ex_end: cuts[2],
        },
        frame_slots: rng.below(32) as u16,
        prefetch_bytes: rng.pick(&[0u32, 16, 256, 4096]),
        fallback: (rng.below(2) == 0).then(|| ThreadId(rng.below(threads.into()) as u32)),
    }
}

/// An assembler identifier: a letter or `_`, then letters, digits and
/// `_`. The index suffix keeps the names of one program distinct.
fn arb_ident(rng: &mut Rng, index: usize) -> String {
    const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789";
    let mut name = String::from(rng.pick(HEAD) as char);
    for _ in 0..rng.below(8) {
        name.push(rng.pick(TAIL) as char);
    }
    format!("{name}_{index}")
}

/// A global with random words, zeroed data, or raw bytes of a length
/// that is not a multiple of 4.
fn arb_global(rng: &mut Rng, index: usize, addr: u64) -> GlobalDef {
    let name = arb_ident(rng, index);
    match rng.below(3) {
        0 => {
            let words: Vec<i32> = (0..rng.range_i64(1, 16))
                .map(|_| rng.next() as i32)
                .collect();
            GlobalDef::from_words(name, addr, &words)
        }
        1 => GlobalDef::zeroed(name, addr, 4 * rng.range_i64(1, 16) as usize),
        _ => {
            let len = 4 * rng.below(8) as usize + rng.range_i64(1, 4) as usize;
            let data = (0..len).map(|_| rng.next() as u8).collect();
            GlobalDef { name, addr, data }
        }
    }
}

fn arb_program(rng: &mut Rng) -> Program {
    let threads = rng.range_i64(1, 5) as u32;
    let mut addr = 0x10_0000;
    let globals = (0..rng.below(4) as usize)
        .map(|i| {
            let g = arb_global(rng, i, addr);
            addr += g.size().next_multiple_of(16) as u64;
            g
        })
        .collect();
    Program {
        threads: (0..threads as usize)
            .map(|i| {
                let name = arb_ident(rng, i);
                arb_thread(rng, name, threads)
            })
            .collect(),
        entry: ThreadId(rng.below(threads.into()) as u32),
        entry_args: rng.below(4) as u16,
        globals,
    }
}

/// Disassembling then re-assembling reproduces the program exactly:
/// every field of [`Program`], fallback links included.
#[test]
fn asm_round_trip() {
    let mut rng = Rng::new(SEED);
    for case in 0..128 {
        let program = arb_program(&mut rng);
        let text = program_to_asm(&program);
        let back = assemble(&text)
            .unwrap_or_else(|e| panic!("case {case}: re-assembly failed: {e}\n{text}"));
        assert_eq!(back, program, "case {case}");
    }
}

/// `defs`/`uses` always return in-range registers, and `defs` has at
/// most one element (single-output ISA).
#[test]
fn defs_uses_invariants() {
    let mut rng = Rng::new(SEED ^ 1);
    for case in 0..512 {
        let instr = arb_instr(&mut rng, 2);
        let defs = instr.defs();
        assert!(defs.len() <= 1, "case {case}: {instr}");
        for r in &defs {
            assert!(r.index() < NUM_REGS, "case {case}");
        }
        for r in &instr.uses() {
            assert!(r.index() < NUM_REGS, "case {case}");
        }
        // Display never panics and never emits newlines (one instruction
        // per line in listings).
        let s = instr.to_string();
        assert!(!s.contains('\n'), "case {case}");
        assert!(!s.is_empty(), "case {case}");
    }
}

/// `block_of` is consistent with `range`: every pc belongs to exactly
/// the block whose range contains it.
#[test]
fn blockmap_partition() {
    let mut rng = Rng::new(SEED ^ 2);
    for case in 0..64 {
        let len = rng.range_i64(1, 200) as u32;
        let mut cuts: Vec<u32> = (0..3).map(|_| (rng.below(200) as u32).min(len)).collect();
        cuts.sort_unstable();
        let map = BlockMap {
            pf_end: cuts[0],
            pl_end: cuts[1],
            ex_end: cuts[2],
        };
        assert!(map.is_well_formed(len), "case {case}");
        for pc in 0..len {
            let b = map.block_of(pc);
            let r = map.range(b, len);
            assert!(
                r.contains(&pc),
                "case {case}: pc {pc} not in {b:?} range {r:?}"
            );
            for other in dta_isa::CodeBlock::ALL {
                if other != b {
                    assert!(!map.range(other, len).contains(&pc), "case {case}: pc {pc}");
                }
            }
        }
    }
}

/// ALU evaluation matches the obvious i64 reference for the
/// non-trapping operations.
#[test]
fn alu_eval_reference() {
    let mut rng = Rng::new(SEED ^ 3);
    for _ in 0..512 {
        let a = rng.next() as i64;
        let b = rng.next() as i64;
        assert_eq!(AluOp::Add.eval(a, b), a.wrapping_add(b));
        assert_eq!(AluOp::Sub.eval(a, b), a.wrapping_sub(b));
        assert_eq!(AluOp::Mul.eval(a, b), a.wrapping_mul(b));
        assert_eq!(AluOp::And.eval(a, b), a & b);
        assert_eq!(AluOp::Or.eval(a, b), a | b);
        assert_eq!(AluOp::Xor.eval(a, b), a ^ b);
        assert_eq!(AluOp::Min.eval(a, b), a.min(b));
        assert_eq!(AluOp::Max.eval(a, b), a.max(b));
        assert_eq!(AluOp::Slt.eval(a, b), (a < b) as i64);
        assert_eq!(AluOp::Sltu.eval(a, b), ((a as u64) < (b as u64)) as i64);
        if b != 0 {
            assert_eq!(AluOp::Div.eval(a, b), a.wrapping_div(b));
            assert_eq!(AluOp::Rem.eval(a, b), a.wrapping_rem(b));
        }
        let sh = (b & 63) as u32;
        assert_eq!(AluOp::Shl.eval(a, b), ((a as u64) << sh) as i64);
        assert_eq!(AluOp::Shr.eval(a, b), ((a as u64) >> sh) as i64);
        assert_eq!(AluOp::Sra.eval(a, b), a >> sh);
    }
}

/// Frame pointers round-trip through their register encoding, and no
/// small integer ever decodes as one.
#[test]
fn frame_ptr_encoding() {
    let mut rng = Rng::new(SEED ^ 5);
    for _ in 0..512 {
        let pe = rng.next() as u16;
        let index = rng.next() as u32;
        let junk = rng.below(0x1_0000_0000);
        let fp = dta_isa::FramePtr::new(pe, index);
        assert_eq!(dta_isa::FramePtr::decode(fp.encode()), Some(fp));
        assert_eq!(dta_isa::FramePtr::decode(junk), None);
    }
}
