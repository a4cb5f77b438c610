//! Host-speed calibration.
//!
//! On a shared 2-core host the same pass can take 1.5–2× longer for
//! seconds to minutes at a time while other tenants load the physical
//! core; its process time grows with it, so no clock inside the process
//! can tell the slowdown apart from the simulator's own work. A fixed
//! reference workload — sorting, hash-table probing, a branchy
//! interpreter loop and random memory updates, written here and sharing
//! no code with the simulator — runs between passes. Host-time metrics
//! are divided by how much slower than [`NOMINAL_MS`] it ran in the same
//! process, so they read as milliseconds on the reference host (the
//! 2-core Xeon the benchmark was tuned on) in its usual state. A change
//! to the simulator moves only the numerator; the raw medians stay in the
//! run record.
//!
//! The reference workload allocates nothing after construction: heap
//! churn between passes would change the allocator state the simulator
//! runs on and slow the allocation-heavy workloads.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median reference-workload time on the reference host, ms; a run's
/// host slowdown is its median sample over this.
pub const NOMINAL_MS: f64 = 10.0;
/// Least time between two samples taken during the timed passes.
const SPACING: Duration = Duration::from_millis(100);
/// Hash-table slots (a power of two).
const SLOTS: usize = 1 << 17;

/// Reference-workload timings taken through a run.
pub struct Calibrator {
    samples: Vec<f64>,
    last: Option<Instant>,
    sort: Vec<u32>,
    table: Vec<(u64, u64)>,
    memory: Vec<u32>,
}

impl Calibrator {
    /// A calibrator with its buffers allocated and no samples yet.
    pub fn new() -> Calibrator {
        Calibrator {
            samples: Vec::with_capacity(4096),
            last: None,
            sort: vec![0; 100_000],
            table: vec![(0, 0); SLOTS],
            memory: vec![1; 1 << 20],
        }
    }

    /// Times one run of the reference workload.
    pub fn sample(&mut self) {
        let start = Instant::now();
        black_box(self.reference_workload());
        self.samples.push(start.elapsed().as_secs_f64() * 1e3);
        self.last = Some(Instant::now());
    }

    /// Samples unless the last sample was taken less than [`SPACING`] ago.
    pub fn sample_spaced(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= SPACING) {
            self.sample();
        }
    }

    /// Bytes of the reference workload's buffers, all resident after the
    /// first sample.
    pub fn buffer_bytes(&self) -> usize {
        std::mem::size_of_val(&self.sort[..])
            + std::mem::size_of_val(&self.table[..])
            + std::mem::size_of_val(&self.memory[..])
    }

    /// Every sample, ms.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// A fixed mix of branchy and memory-bound work.
    fn reference_workload(&mut self) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;

        for v in self.sort.iter_mut() {
            *v = xorshift(&mut x) as u32;
        }
        self.sort.sort_unstable();
        acc ^= self.sort[self.sort.len() / 2] as u64;

        // Linear probing; key 0 marks an empty slot.
        self.table.fill((0, 0));
        let mask = SLOTS as u64 - 1;
        for i in 0..100_000u64 {
            let key = (xorshift(&mut x) & 0xFFFF) | 1;
            let mut slot = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 47 & mask;
            loop {
                let (k, v) = &mut self.table[slot as usize];
                if *k == key || *k == 0 {
                    *k = key;
                    *v += i;
                    acc ^= *v;
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }

        // A register machine running a fixed random program.
        let program: [u64; 64] = std::array::from_fn(|_| xorshift(&mut x));
        let mut regs = [1u64; 16];
        let mut pc = 0usize;
        for _ in 0..600_000 {
            let op = program[pc];
            let (a, b, c) = (
                (op >> 8) as usize & 15,
                (op >> 16) as usize & 15,
                (op >> 24) as usize & 15,
            );
            match op % 5 {
                0 => regs[a] = regs[b].wrapping_add(regs[c]),
                1 => regs[a] = regs[b] ^ regs[c].rotate_left(5),
                2 => regs[a] = regs[b].wrapping_mul(regs[c] | 1),
                3 if regs[b] & 1 == 0 => {
                    pc = (pc + c) & 63;
                    continue;
                }
                _ => regs[a] = regs[b] >> (regs[c] & 7),
            }
            pc = (pc + 1) & 63;
        }
        acc ^= regs.iter().fold(0, |s, &r| s ^ r);

        let mask = self.memory.len() as u64 - 1;
        let mut word = 0u32;
        for _ in 0..500_000 {
            let i = (xorshift(&mut x) & mask) as usize;
            let m = self.memory[i];
            word = if m & 1 == 0 {
                word.wrapping_add(m)
            } else {
                word ^ m.rotate_left(3)
            };
            self.memory[i] = m.wrapping_mul(2_654_435_761).wrapping_add(word);
        }
        acc ^ word as u64
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}
