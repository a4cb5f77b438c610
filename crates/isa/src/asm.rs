//! Text assembler and disassembler.
//!
//! The assembly dialect round-trips with [`program_to_asm`]: a program can
//! be dumped to text, inspected/edited, and re-assembled with
//! [`assemble`]. Example:
//!
//! ```text
//! .global table words 1, 2, 3, 4
//! .global out zeroed 16
//! .entry main 1
//!
//! .thread main
//! .frame_slots 1
//! .block pl
//!     load r3, 0
//! .block ex
//! loop:
//!     sub r3, r3, #1
//!     bne r3, #0, loop
//! .block ps
//!     ffree r1
//!     stop
//! .end
//! ```
//!
//! Comments start with `;` or `#` (hash-immediates are only recognised in
//! operand position). Branch targets may be label names or absolute
//! instruction indices (the disassembler emits indices).
//!
//! Inside a thread section, `.fallback NAME` links the thread to its
//! degradation fallback ([`ThreadCode::fallback`](crate::ThreadCode)),
//! the PF-free twin a PE runs once its DMA engine is unusable. The
//! disassembler emits it after `.prefetch`.
//!
//! [`code_to_asm`] is the text of the code alone: the `.entry` line and
//! every thread section, without the globals. `SimJob::key` in
//! `dta-core` hashes it next to the globals' raw bytes.

use crate::builder::{ProgramBuilder, ThreadBuilder};
use crate::instr::{AluOp, BrCond, Instr, Src};
use crate::program::{CodeBlock, Program, ThreadId};
use crate::reg::Reg;
use std::collections::HashMap;
use std::fmt;

/// An assembly error with its 1-based source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        msg: msg.into(),
    })
}

/// Splits a leading `label:` prefix off a statement, if present.
fn split_label(line: &str) -> (Option<&str>, &str) {
    if let Some((head, rest)) = line.split_once(':') {
        let name = head.trim();
        let is_ident = !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if is_ident {
            return (Some(name), rest.trim());
        }
    }
    (None, line)
}

/// Strips comments and surrounding whitespace; returns `None` for blank
/// lines.
fn clean(line: &str) -> Option<&str> {
    let mut s = line;
    if let Some(i) = s.find(';') {
        s = &s[..i];
    }
    // A '#' starts a comment only at the beginning of the line, otherwise it
    // introduces an immediate operand.
    let t = s.trim();
    if t.starts_with('#') {
        return None;
    }
    if t.is_empty() {
        None
    } else {
        Some(t)
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, AsmError> {
    let t = tok.trim();
    let Some(num) = t.strip_prefix('r') else {
        return err(line, format!("expected register, found {t:?}"));
    };
    let idx: u8 = num.parse().map_err(|_| AsmError {
        line,
        msg: format!("bad register {t:?}"),
    })?;
    Reg::try_new(idx).ok_or(AsmError {
        line,
        msg: format!("register {t:?} out of range"),
    })
}

fn parse_i64(tok: &str, line: usize) -> Result<i64, AsmError> {
    let t = tok.trim().trim_start_matches('#');
    let v = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()
    } else if let Some(hex) = t.strip_prefix("-0x") {
        i64::from_str_radix(hex, 16).ok().map(|v| -v)
    } else {
        t.parse().ok()
    };
    v.ok_or(AsmError {
        line,
        msg: format!("bad integer {tok:?}"),
    })
}

fn parse_src(tok: &str, line: usize) -> Result<Src, AsmError> {
    let t = tok.trim();
    if t.starts_with('r') && t[1..].chars().all(|c| c.is_ascii_digit()) {
        Ok(Src::Reg(parse_reg(t, line)?))
    } else {
        let v = parse_i64(t, line)?;
        i32::try_from(v).map(Src::Imm).map_err(|_| AsmError {
            line,
            msg: format!("immediate {v} does not fit in 32 bits"),
        })
    }
}

/// Parses `off(rN)`.
fn parse_memop(tok: &str, line: usize) -> Result<(i32, Reg), AsmError> {
    let t = tok.trim();
    let (off_s, rest) = t.split_once('(').ok_or_else(|| AsmError {
        line,
        msg: format!("expected off(reg), found {t:?}"),
    })?;
    let reg_s = rest.strip_suffix(')').ok_or_else(|| AsmError {
        line,
        msg: format!("missing ')' in {t:?}"),
    })?;
    let off = if off_s.trim().is_empty() {
        0
    } else {
        parse_i64(off_s, line)? as i32
    };
    Ok((off, parse_reg(reg_s, line)?))
}

fn parse_tag(tok: &str, line: usize) -> Result<u8, AsmError> {
    let t = tok.trim();
    let Some(num) = t.strip_prefix("tag") else {
        return err(line, format!("expected tagN, found {t:?}"));
    };
    num.parse().map_err(|_| AsmError {
        line,
        msg: format!("bad tag {t:?}"),
    })
}

fn parse_kv<'a>(tok: &'a str, key: &str, line: usize) -> Result<&'a str, AsmError> {
    let t = tok.trim();
    t.strip_prefix(key)
        .and_then(|r| r.trim_start().strip_prefix('='))
        .map(str::trim)
        .ok_or_else(|| AsmError {
            line,
            msg: format!("expected {key}=..., found {t:?}"),
        })
}

/// Assembles a program from source text.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    // Pass 1: thread names (for forward FALLOC references) and entry.
    let mut pb = ProgramBuilder::new();
    let mut thread_ids: HashMap<String, ThreadId> = HashMap::new();
    for raw in source.lines() {
        let Some(line) = clean(raw) else { continue };
        if let Some(rest) = line.strip_prefix(".thread") {
            let name = rest.trim();
            if name.is_empty() {
                continue;
            }
            if !thread_ids.contains_key(name) {
                let id = pb.declare(name.to_string());
                thread_ids.insert(name.to_string(), id);
            }
        }
    }

    let mut entry: Option<(String, u16, usize)> = None;
    let mut fallbacks: Vec<(ThreadId, ThreadId)> = Vec::new();
    let mut current: Option<ThreadAsm> = None;

    struct ThreadAsm {
        id: ThreadId,
        tb: ThreadBuilder,
        labels: HashMap<String, crate::builder::Label>,
    }

    impl ThreadAsm {
        fn label(&mut self, name: &str) -> crate::builder::Label {
            if let Some(&l) = self.labels.get(name) {
                return l;
            }
            let l = self.tb.new_label();
            self.labels.insert(name.to_string(), l);
            l
        }
    }

    // Pre-scan label definitions per thread so unknown label names give a
    // proper error instead of a builder panic.
    let mut thread_labels: HashMap<String, Vec<String>> = HashMap::new();
    {
        let mut cur: Option<String> = None;
        for raw in source.lines() {
            let Some(line) = clean(raw) else { continue };
            if let Some(rest) = line.strip_prefix(".thread") {
                cur = Some(rest.trim().to_string());
            } else if line == ".end" {
                cur = None;
            } else if let (Some(name), _) = split_label(line) {
                if let Some(t) = &cur {
                    thread_labels
                        .entry(t.clone())
                        .or_default()
                        .push(name.to_string());
                }
            }
        }
    }

    let mut current_name = String::new();

    for (lineno0, raw) in source.lines().enumerate() {
        let lineno = lineno0 + 1;
        let Some(line) = clean(raw) else { continue };

        // Directives.
        if let Some(rest) = line.strip_prefix(".global") {
            let usage = "usage: .global NAME [@ADDR] words|zeroed|bytes ...";
            let rest = rest.trim();
            let Some((name, rest)) = rest.split_once(char::is_whitespace) else {
                return err(lineno, usage);
            };
            let mut rest = rest.trim_start();
            // Optional explicit address: `.global tbl @0x100000 words ...`
            // (the disassembler always emits one so layouts round-trip).
            let mut addr = None;
            if let Some(stripped) = rest.strip_prefix('@') {
                let (tok, tail) =
                    stripped
                        .split_once(char::is_whitespace)
                        .ok_or_else(|| AsmError {
                            line: lineno,
                            msg: usage.into(),
                        })?;
                addr = Some(parse_i64(tok, lineno)? as u64);
                rest = tail.trim_start();
            }
            let (kind, payload) = rest
                .split_once(char::is_whitespace)
                .map(|(k, p)| (k, p.trim_start()))
                .unwrap_or((rest, ""));
            let data: Vec<u8> = match kind {
                "words" => {
                    let words: Result<Vec<i32>, _> = payload
                        .split(',')
                        .filter(|s| !s.trim().is_empty())
                        .map(|s| parse_i64(s, lineno).map(|v| v as i32))
                        .collect();
                    words?.iter().flat_map(|w| w.to_le_bytes()).collect()
                }
                "zeroed" => {
                    let n = parse_i64(payload, lineno)? as usize;
                    vec![0; n]
                }
                "bytes" => {
                    let bytes: Result<Vec<u8>, _> = payload
                        .split_whitespace()
                        .map(|s| {
                            u8::from_str_radix(s, 16).map_err(|_| AsmError {
                                line: lineno,
                                msg: format!("bad hex byte {s:?}"),
                            })
                        })
                        .collect();
                    bytes?
                }
                other => return err(lineno, format!("unknown global kind {other:?}")),
            };
            match addr {
                Some(a) => {
                    pb.global_bytes_at(name, a, data);
                }
                None => {
                    pb.global_bytes(name, data);
                }
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(".entry") {
            let mut it = rest.split_whitespace();
            let (Some(name), Some(args)) = (it.next(), it.next()) else {
                return err(lineno, "usage: .entry NAME NARGS");
            };
            entry = Some((name.to_string(), parse_i64(args, lineno)? as u16, lineno));
            continue;
        }
        if let Some(rest) = line.strip_prefix(".thread") {
            if current.is_some() {
                return err(lineno, "nested .thread (missing .end?)");
            }
            let name = rest.trim().to_string();
            let id = thread_ids[&name];
            current = Some(ThreadAsm {
                id,
                tb: ThreadBuilder::new(name.clone()),
                labels: HashMap::new(),
            });
            current_name = name;
            continue;
        }
        if line == ".end" {
            let Some(t) = current.take() else {
                return err(lineno, ".end without .thread");
            };
            pb.define(t.id, t.tb);
            continue;
        }

        let Some(t) = current.as_mut() else {
            return err(lineno, format!("statement outside .thread: {line:?}"));
        };

        if let Some(rest) = line.strip_prefix(".frame_slots") {
            t.tb.frame_slots(parse_i64(rest, lineno)? as u16);
            continue;
        }
        if let Some(rest) = line.strip_prefix(".prefetch") {
            t.tb.prefetch_bytes(parse_i64(rest, lineno)? as u32);
            continue;
        }
        if let Some(rest) = line.strip_prefix(".fallback") {
            let name = rest.trim();
            let &fb = thread_ids.get(name).ok_or_else(|| AsmError {
                line: lineno,
                msg: format!("unknown fallback thread {name:?}"),
            })?;
            fallbacks.push((t.id, fb));
            continue;
        }
        if let Some(rest) = line.strip_prefix(".block") {
            match rest.trim() {
                "pf" => t.tb.begin_pf(),
                "pl" => t.tb.begin_pl(),
                "ex" => t.tb.begin_ex(),
                "ps" => t.tb.begin_ps(),
                other => return err(lineno, format!("unknown block {other:?}")),
            }
            continue;
        }
        let line = if let (Some(name), rest) = split_label(line) {
            let l = t.label(name);
            t.tb.bind(l);
            if rest.is_empty() {
                continue;
            }
            rest
        } else {
            line
        };

        // Instruction.
        let (mn, rest) = line
            .split_once(char::is_whitespace)
            .map(|(a, b)| (a, b.trim()))
            .unwrap_or((line, ""));
        let ops: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };
        let want = |n: usize| -> Result<(), AsmError> {
            if ops.len() == n {
                Ok(())
            } else {
                err(
                    lineno,
                    format!("{mn}: expected {n} operands, found {}", ops.len()),
                )
            }
        };

        // Branch target: label name or absolute index.
        let branch_to = |t: &mut ThreadAsm,
                         cond: Option<BrCond>,
                         ra: Reg,
                         rb: Src,
                         target: &str|
         -> Result<(), AsmError> {
            let tgt = target.trim();
            if tgt.chars().all(|c| c.is_ascii_digit()) {
                let idx: u32 = tgt.parse().unwrap();
                match cond {
                    Some(c) => t.tb.emit(Instr::Br {
                        cond: c,
                        ra,
                        rb,
                        target: idx,
                    }),
                    None => t.tb.emit(Instr::Jmp { target: idx }),
                };
                Ok(())
            } else {
                if !thread_labels
                    .get(&current_name)
                    .map(|v| v.iter().any(|l| l == tgt))
                    .unwrap_or(false)
                {
                    return err(lineno, format!("unknown label {tgt:?}"));
                }
                let l = t.label(tgt);
                match cond {
                    Some(c) => t.tb.br(c, ra, rb, l),
                    None => t.tb.jmp(l),
                }
                Ok(())
            }
        };

        if let Some(op) = AluOp::ALL.iter().find(|o| o.mnemonic() == mn) {
            want(3)?;
            let rd = parse_reg(ops[0], lineno)?;
            let ra = parse_reg(ops[1], lineno)?;
            let rb = parse_src(ops[2], lineno)?;
            t.tb.alu(*op, rd, ra, rb);
            continue;
        }
        if let Some(cond) = BrCond::ALL.iter().find(|c| c.mnemonic() == mn) {
            want(3)?;
            let ra = parse_reg(ops[0], lineno)?;
            let rb = parse_src(ops[1], lineno)?;
            branch_to(t, Some(*cond), ra, rb, ops[2])?;
            continue;
        }

        match mn {
            "li" => {
                want(2)?;
                let rd = parse_reg(ops[0], lineno)?;
                t.tb.li(rd, parse_i64(ops[1], lineno)?);
            }
            "mov" => {
                want(2)?;
                t.tb.mov(parse_reg(ops[0], lineno)?, parse_reg(ops[1], lineno)?);
            }
            "nop" => {
                want(0)?;
                t.tb.nop();
            }
            "jmp" => {
                want(1)?;
                branch_to(t, None, crate::reg::ZERO_REG, Src::Imm(0), ops[0])?;
            }
            "load" => {
                want(2)?;
                t.tb.load(
                    parse_reg(ops[0], lineno)?,
                    parse_i64(ops[1], lineno)? as u16,
                );
            }
            "store" => {
                want(3)?;
                t.tb.store(
                    parse_reg(ops[0], lineno)?,
                    parse_reg(ops[1], lineno)?,
                    parse_i64(ops[2], lineno)? as u16,
                );
            }
            "falloc" => {
                want(3)?;
                let rd = parse_reg(ops[0], lineno)?;
                let tgt = ops[1].trim();
                let id = if let Some(name) = tgt.strip_prefix('@') {
                    *thread_ids.get(name).ok_or_else(|| AsmError {
                        line: lineno,
                        msg: format!("unknown thread {name:?}"),
                    })?
                } else if let Some(num) = tgt.strip_prefix('t') {
                    ThreadId(num.parse().map_err(|_| AsmError {
                        line: lineno,
                        msg: format!("bad thread id {tgt:?}"),
                    })?)
                } else {
                    return err(lineno, format!("expected @name or tN, found {tgt:?}"));
                };
                t.tb.falloc(rd, id, parse_i64(ops[2], lineno)? as u16);
            }
            "ffree" => {
                want(1)?;
                t.tb.ffree(parse_reg(ops[0], lineno)?);
            }
            "stop" => {
                want(0)?;
                t.tb.stop();
            }
            "read" | "write" | "lsload" | "lsstore" => {
                want(2)?;
                let r1 = parse_reg(ops[0], lineno)?;
                let (off, ra) = parse_memop(ops[1], lineno)?;
                match mn {
                    "read" => t.tb.read(r1, ra, off),
                    "write" => t.tb.write(r1, ra, off),
                    "lsload" => t.tb.lsload(r1, ra, off),
                    _ => t.tb.lsstore(r1, ra, off),
                }
            }
            "dmaget" | "dmaput" => {
                want(4)?;
                let (ls_off, rls) = parse_memop(ops[0], lineno)?;
                let (mem_off, rmem) = parse_memop(ops[1], lineno)?;
                let bytes = parse_src(ops[2], lineno)?;
                let tag = parse_tag(ops[3], lineno)?;
                if mn == "dmaget" {
                    t.tb.dmaget(rls, ls_off, rmem, mem_off, bytes, tag);
                } else {
                    t.tb.dmaput(rls, ls_off, rmem, mem_off, bytes, tag);
                }
            }
            "dmagets" => {
                want(6)?;
                let (ls_off, rls) = parse_memop(ops[0], lineno)?;
                let (mem_off, rmem) = parse_memop(ops[1], lineno)?;
                let elem = parse_i64(parse_kv(ops[2], "elem", lineno)?, lineno)? as u16;
                let count = parse_src(parse_kv(ops[3], "count", lineno)?, lineno)?;
                let stride = parse_src(parse_kv(ops[4], "stride", lineno)?, lineno)?;
                let tag = parse_tag(ops[5], lineno)?;
                t.tb.dmagets(rls, ls_off, rmem, mem_off, elem, count, stride, tag);
            }
            "dmayield" => {
                want(0)?;
                t.tb.dmayield();
            }
            "dmawait" => {
                want(1)?;
                t.tb.dmawait(parse_tag(ops[0], lineno)?);
            }
            other => return err(lineno, format!("unknown mnemonic {other:?}")),
        }
    }

    if current.is_some() {
        return err(source.lines().count(), "missing .end at end of input");
    }
    let Some((entry_name, args, lineno)) = entry else {
        return err(source.lines().count().max(1), "missing .entry directive");
    };
    let Some(&id) = thread_ids.get(&entry_name) else {
        return err(lineno, format!("entry thread {entry_name:?} not defined"));
    };
    pb.set_entry(id, args);
    let mut program = pb.build();
    for (thread, fb) in fallbacks {
        program.threads[thread.index()].fallback = Some(fb);
    }
    Ok(program)
}

/// Disassembles a program into re-assemblable text: the globals, then
/// [`code_to_asm`].
pub fn program_to_asm(program: &Program) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();

    for g in &program.globals {
        if g.data.len() % 4 == 0 && !g.data.is_empty() {
            if g.data.iter().all(|&b| b == 0) {
                let _ = writeln!(
                    out,
                    ".global {} @{:#x} zeroed {}",
                    g.name,
                    g.addr,
                    g.data.len()
                );
            } else {
                let words: Vec<String> = g
                    .data
                    .chunks_exact(4)
                    .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]).to_string())
                    .collect();
                let _ = writeln!(
                    out,
                    ".global {} @{:#x} words {}",
                    g.name,
                    g.addr,
                    words.join(", ")
                );
            }
        } else {
            let bytes: Vec<String> = g.data.iter().map(|b| format!("{b:02x}")).collect();
            let _ = writeln!(
                out,
                ".global {} @{:#x} bytes {}",
                g.name,
                g.addr,
                bytes.join(" ")
            );
        }
    }
    out.push_str(&code_to_asm(program));
    out
}

/// Disassembles a program's code: the `.entry` line and every thread
/// section, with no globals. Two programs whose thread names hold no
/// line break print the same text only if their code is the same,
/// invalid programs included: a thread reference that no name pins
/// down (an id outside the thread table, or a name that several threads
/// share) prints as the id, `tN`.
pub fn code_to_asm(program: &Program) -> String {
    use std::fmt::Write as _;
    let name = |id: ThreadId| ThreadRef(program, id);
    let mut out = String::new();
    let _ = writeln!(out, ".entry {} {}", name(program.entry), program.entry_args);

    for t in &program.threads {
        let _ = writeln!(out, "\n.thread {}", t.name);
        let _ = writeln!(out, ".frame_slots {}", t.frame_slots);
        if t.prefetch_bytes > 0 {
            let _ = writeln!(out, ".prefetch {}", t.prefetch_bytes);
        }
        if let Some(fb) = t.fallback {
            let _ = writeln!(out, ".fallback {}", name(fb));
        }
        let mut last_block: Option<CodeBlock> = None;
        for (pc, instr) in t.code.iter().enumerate() {
            let block = t.block_of(pc as u32);
            if last_block != Some(block) {
                let _ = writeln!(out, ".block {}", block.name());
                last_block = Some(block);
            }
            // FALLOC: use @name so the text stays valid when thread order
            // changes; the plain form prints the target as `tN`.
            match instr {
                &Instr::Falloc { rd, thread, sc } => match unique_name(program, thread) {
                    Some(target) => {
                        let _ = writeln!(out, "    falloc {rd}, @{target}, {sc}");
                    }
                    None => {
                        let _ = writeln!(out, "    {instr}");
                    }
                },
                _ => {
                    let _ = writeln!(out, "    {instr}");
                }
            }
        }
        let _ = writeln!(out, ".end");
    }
    out
}

/// The name of thread `id`, if the program has that thread and no
/// other thread shares its name.
fn unique_name(program: &Program, id: ThreadId) -> Option<&str> {
    let name = &program.threads.get(id.index())?.name;
    let mut same = program.threads.iter().filter(|t| &t.name == name);
    same.next();
    same.next().is_none().then_some(name.as_str())
}

/// A thread reference in the text: the thread's name, when exactly one
/// thread has it. Any other id (one outside the thread table, which
/// validation rejects, or one whose name several threads share) prints
/// as `tN`, with `?`s appended until it names no thread of the program,
/// so it never reads as a reference to a named thread.
struct ThreadRef<'a>(&'a Program, ThreadId);

impl fmt::Display for ThreadRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ThreadRef(program, id) = *self;
        if let Some(name) = unique_name(program, id) {
            return f.write_str(name);
        }
        let mut text = id.to_string();
        while program.threads.iter().any(|t| t.name == text) {
            text.push('?');
        }
        f.write_str(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::r;

    const HELLO: &str = r#"
; a tiny two-thread program
.global table words 10, 20, 30, 40
.global out zeroed 16
.entry main 1

.thread main
.frame_slots 1
.block pl
    load r3, 0
.block ex
    falloc r4, @worker, 2
.block ps
    store r3, r4, 0
    store r3, r4, 1
    ffree r1
    stop
.end

.thread worker
.frame_slots 2
.block pl
    load r3, 0
    load r4, 1
.block ex
loop:
    sub r3, r3, #1
    bne r3, #0, loop
.block ps
    ffree r1
    stop
.end
"#;

    #[test]
    fn assemble_basic_program() {
        let p = assemble(HELLO).expect("assembles");
        assert_eq!(p.threads.len(), 2);
        let (main_id, main) = p.thread_by_name("main").unwrap();
        assert_eq!(p.entry, main_id);
        assert_eq!(p.entry_args, 1);
        assert_eq!(main.frame_slots, 1);
        let (_, worker) = p.thread_by_name("worker").unwrap();
        // bne in worker branches back to `loop`.
        let br = worker
            .code
            .iter()
            .find(|i| matches!(i, Instr::Br { .. }))
            .unwrap();
        assert_eq!(br.target(), Some(2));
        assert_eq!(p.global("table").unwrap().size(), 16);
        assert!(crate::validate_program(&p).is_empty());
    }

    #[test]
    fn forward_falloc_reference_resolves() {
        // `main` FALLOCs `worker`, which appears later in the file.
        let p = assemble(HELLO).unwrap();
        let (worker_id, _) = p.thread_by_name("worker").unwrap();
        let (_, main) = p.thread_by_name("main").unwrap();
        let f = main
            .code
            .iter()
            .find_map(|i| match i {
                Instr::Falloc { thread, .. } => Some(*thread),
                _ => None,
            })
            .unwrap();
        assert_eq!(f, worker_id);
    }

    #[test]
    fn roundtrip_disassemble_reassemble() {
        let p1 = assemble(HELLO).unwrap();
        let text = program_to_asm(&p1);
        let p2 = assemble(&text).unwrap_or_else(|e| panic!("re-assembly failed: {e}\n{text}"));
        assert_eq!(p1, p2);
    }

    #[test]
    fn fallback_links_roundtrip_and_unknown_names_report_line() {
        // `.fallback` may name a thread defined later in the file.
        let src = HELLO.replace(".frame_slots 1\n", ".frame_slots 1\n.fallback worker\n");
        let p = assemble(&src).unwrap();
        let (worker_id, _) = p.thread_by_name("worker").unwrap();
        assert_eq!(p.threads[0].fallback, Some(worker_id));
        assert_eq!(p.threads[1].fallback, None);
        let text = program_to_asm(&p);
        assert!(
            text.contains("\n.frame_slots 1\n.fallback worker\n"),
            "{text}"
        );
        assert_eq!(assemble(&text).unwrap(), p);

        let src = ".entry main 0\n.thread main\n.fallback nobody\n    stop\n.end\n";
        let e = assemble(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("nobody"), "{e}");
    }

    #[test]
    fn code_text_prints_dangling_thread_ids() {
        // Validation rejects these references; the text of the code (which
        // keys jobs) must still print them, and never as a real thread's
        // name.
        let mut p = assemble(HELLO).unwrap();
        p.threads[1].name = "t8".into();
        p.entry = ThreadId(7);
        p.threads[0].fallback = Some(ThreadId(8));
        p.threads[0].code[1] = Instr::Falloc {
            rd: r(4),
            thread: ThreadId(9),
            sc: 2,
        };
        let text = code_to_asm(&p);
        assert!(text.starts_with(".entry t7 1\n"), "{text}");
        assert!(text.contains("\n.fallback t8?\n"), "{text}");
        assert!(text.contains("    falloc r4, t9, 2\n"), "{text}");
        assert!(!text.contains(".global"));
        assert!(program_to_asm(&p).ends_with(&text));
    }

    #[test]
    fn code_text_prints_shared_thread_names_as_ids() {
        // Two threads named `worker`: references to either print as its
        // id, so programs that differ only in which one they name print
        // different text.
        let mut p = assemble(HELLO).unwrap();
        let mut twin = p.threads[1].clone();
        twin.fallback = Some(ThreadId(1));
        p.threads.push(twin);
        p.entry = ThreadId(1);
        let text = code_to_asm(&p);
        assert!(text.starts_with(".entry t1 1\n"), "{text}");
        assert!(text.contains("\n.fallback t1\n"), "{text}");
        assert!(text.contains("    falloc r4, t1, 2\n"), "{text}");
        p.entry = ThreadId(2);
        assert!(code_to_asm(&p).starts_with(".entry t2 1\n"));
        // A thread named like the id form does not capture the reference.
        p.threads[0].name = "t2".into();
        assert!(code_to_asm(&p).starts_with(".entry t2? 1\n"));
    }

    #[test]
    fn dma_instructions_roundtrip() {
        let src = r#"
.entry main 0
.thread main
.frame_slots 0
.prefetch 256
.block pf
    dmaget 0(r2), 64(r5), #128, tag0
    dmagets 128(r2), 0(r6), elem=4, count=#16, stride=#64, tag1
    dmayield
.block ex
    lsload r7, 0(r2)
    dmaput 0(r2), 0(r5), #4, tag2
    dmawait tag2
.block ps
    ffree r1
    stop
.end
"#;
        let p = assemble(src).unwrap();
        let main = &p.threads[0];
        assert!(matches!(main.code[0], Instr::DmaGet { tag: 0, .. }));
        assert!(matches!(
            main.code[1],
            Instr::DmaGetStrided {
                elem_bytes: 4,
                tag: 1,
                ..
            }
        ));
        assert!(matches!(main.code[2], Instr::DmaYield));
        let text = program_to_asm(&p);
        let p2 = assemble(&text).unwrap();
        assert_eq!(p.threads, p2.threads);
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let src = ".entry main 0\n.thread main\n    frobnicate r1\n    stop\n.end\n";
        let e = assemble(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("frobnicate"));
    }

    #[test]
    fn unknown_label_reports_error() {
        let src = ".entry main 0\n.thread main\n    jmp nowhere\n    stop\n.end\n";
        let e = assemble(src).unwrap_err();
        assert!(e.msg.contains("nowhere"));
    }

    #[test]
    fn missing_entry_is_error() {
        let src = ".thread main\n    stop\n.end\n";
        let e = assemble(src).unwrap_err();
        assert!(e.msg.contains(".entry"));
    }

    #[test]
    fn missing_end_is_error() {
        let src = ".entry main 0\n.thread main\n    stop\n";
        let e = assemble(src).unwrap_err();
        assert!(e.msg.contains(".end"));
    }

    #[test]
    fn statement_outside_thread_is_error() {
        let src = "    add r1, r2, r3\n";
        let e = assemble(src).unwrap_err();
        assert!(e.msg.contains("outside"));
    }

    #[test]
    fn inline_labels_share_a_line_with_instructions() {
        let src = "\
.entry main 0
.thread main
    li r3, 2
top: sub r3, r3, #1
    bne r3, #0, top
    stop
.end
";
        let p = assemble(src).unwrap();
        let br = p.threads[0]
            .code
            .iter()
            .find(|i| matches!(i, Instr::Br { .. }))
            .unwrap();
        assert_eq!(br.target(), Some(1));
    }

    #[test]
    fn numeric_branch_targets_accepted() {
        let src = ".entry main 0\n.thread main\n    nop\n    jmp 0\n    stop\n.end\n";
        let p = assemble(src).unwrap();
        assert_eq!(p.threads[0].code[1].target(), Some(0));
    }

    #[test]
    fn hex_immediates() {
        let src =
            ".entry main 0\n.thread main\n    li r3, 0x10\n    add r4, r3, #0x20\n    stop\n.end\n";
        let p = assemble(src).unwrap();
        assert!(matches!(p.threads[0].code[0], Instr::Li { imm: 16, .. }));
        assert!(matches!(
            p.threads[0].code[1],
            Instr::Alu {
                rb: Src::Imm(32),
                ..
            }
        ));
    }

    #[test]
    fn register_out_of_range_is_error() {
        let src = ".entry main 0\n.thread main\n    li r64, 0\n    stop\n.end\n";
        assert!(assemble(src).is_err());
    }

    #[test]
    fn byte_global_roundtrip() {
        let mut pb = ProgramBuilder::new();
        pb.global_bytes("odd", vec![1, 2, 3]); // not a multiple of 4
        let mut t = ThreadBuilder::new("main");
        t.stop();
        let id = pb.add_thread(t);
        pb.set_entry(id, 0);
        let p = pb.build();
        let text = program_to_asm(&p);
        assert!(text.contains("bytes 01 02 03"), "{text}");
        let p2 = assemble(&text).unwrap();
        assert_eq!(p.globals, p2.globals);
    }

    #[test]
    fn helpers_reject_garbage() {
        assert!(parse_reg("x3", 1).is_err());
        assert!(parse_reg("r999", 1).is_err());
        assert!(parse_memop("r3", 1).is_err());
        assert!(parse_memop("4(r3", 1).is_err());
        assert!(parse_tag("t3", 1).is_err());
        assert!(parse_i64("abc", 1).is_err());
        assert_eq!(parse_memop("(r3)", 1).unwrap(), (0, r(3)));
        assert_eq!(parse_memop("-8(r4)", 1).unwrap(), (-8, r(4)));
    }
}
