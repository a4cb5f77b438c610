//! Randomised property tests for the memory subsystem: reservation
//! invariants, backing-store equivalence against a naive model, and
//! timing sanity.
//!
//! Deterministic seeded PRNG (no external property-testing dependency —
//! the repo builds hermetically); failures print the seed so a case can
//! be replayed by pinning `SEED`.

use dta_mem::{
    BusModel, DmaCommand, DmaFaultPlan, DmaKind, LocalStore, MainMemory, MemoryModel, MemorySystem,
    Mfc, MfcParams, ResourcePool, TransferKind,
};
use std::collections::HashMap;

const SEED: u64 = 0xD1B5_4A32_D192_ED03;

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
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

/// Reservations on one pool never overlap within a channel, never
/// start before the request time, and have the requested duration.
#[test]
fn resource_pool_reservations_are_disjoint() {
    let mut rng = Rng::new(SEED);
    for case in 0..64 {
        let channels = rng.range(1, 6) as usize;
        let ops = rng.range(1, 200) as usize;
        let mut pool = ResourcePool::new(channels);
        let mut now = 0u64;
        let mut per_channel: Vec<Vec<(u64, u64)>> = vec![Vec::new(); channels];
        for _ in 0..ops {
            now += rng.below(10_000) / 100; // mostly-monotone request times
            let dur = rng.range(1, 200);
            let r = pool.reserve(now, dur);
            assert!(r.start >= now, "case {case}");
            assert_eq!(r.end - r.start, dur.max(1), "case {case}");
            per_channel[r.channel].push((r.start, r.end));
        }
        for spans in &per_channel {
            for w in spans.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "case {case}: overlapping reservations {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }
}

/// MainMemory agrees with a byte-map model under arbitrary mixed
/// u8/u32/bulk traffic.
#[test]
fn main_memory_matches_model() {
    let mut rng = Rng::new(SEED ^ 1);
    for case in 0..48 {
        let mut mem = MainMemory::new(1 << 16);
        let mut model: HashMap<u64, u8> = HashMap::new();
        for _ in 0..rng.range(1, 200) {
            let kind = rng.below(3) as usize;
            let addr = rng.below(65_500);
            let value = rng.next() as u32;
            let len = rng.range(1, 32) as usize;
            match kind {
                0 => {
                    let addr = addr.min((1 << 16) - 4);
                    mem.write_u32(addr, value);
                    for (i, b) in value.to_le_bytes().iter().enumerate() {
                        model.insert(addr + i as u64, *b);
                    }
                }
                1 => {
                    let addr = addr.min((1 << 16) - 4);
                    let expect = u32::from_le_bytes(std::array::from_fn(|i| {
                        model.get(&(addr + i as u64)).copied().unwrap_or(0)
                    }));
                    assert_eq!(mem.read_u32(addr), expect, "case {case}");
                }
                _ => {
                    let len = len.min(((1 << 16) - addr) as usize).max(1);
                    let data: Vec<u8> = (0..len).map(|i| (value as usize + i) as u8).collect();
                    mem.write_bytes(addr, &data);
                    for (i, b) in data.iter().enumerate() {
                        model.insert(addr + i as u64, *b);
                    }
                }
            }
        }
    }
}

/// LocalStore agrees with a dense byte-vector model under random aligned
/// and unaligned reads and writes of every width. Addresses cluster
/// around 4 KiB boundaries, around the current end of the store's
/// backed prefix (so reads straddle it) and around the end of the
/// store; sizes are not multiples of 4 KiB. The backed prefix always
/// covers the highest byte written and never exceeds the size.
#[test]
fn local_store_matches_dense_model() {
    let mut rng = Rng::new(SEED ^ 7);
    // Many short cases: the prefix only grows, and once it reaches the
    // end of the store nothing straddles it any more.
    for case in 0..512 {
        let size = rng.range(16, 40_000) as usize;
        let mut ls = LocalStore::new(size);
        let mut model = vec![0u8; size];
        let mut high = 0usize;
        for op in 0..rng.range(1, 60) {
            let len = [1usize, 4, 8, rng.range(1, 40) as usize][rng.below(4) as usize];
            let len = len.min(size);
            // Mostly the live prefix end.
            let near = match rng.below(16) {
                0 => size,
                1 | 2 => rng.below(size as u64) as usize,
                3..=6 => ((rng.below(5) as usize) << 12).min(size),
                _ => ls.backed(),
            };
            let jitter = rng.below(24) as usize;
            let mut addr = (near + jitter).saturating_sub(12).min(size - len);
            if rng.below(2) == 0 {
                addr &= !(len.next_power_of_two().min(8) - 1);
            }
            let at = format!("case {case} op {op}: size {size} addr {addr} len {len}");
            let a = addr as u32;
            let value = rng.next();
            if rng.below(2) == 0 {
                let data: Vec<u8> = match len {
                    4 => (value as u32).to_le_bytes().to_vec(),
                    8 => value.to_le_bytes().to_vec(),
                    _ => (0..len).map(|i| (value as usize + i) as u8).collect(),
                };
                match len {
                    4 => ls.write_u32(a, value as u32),
                    8 => ls.write_u64(a, value),
                    _ => ls.write_bytes(a, &data),
                }
                model[addr..addr + len].copy_from_slice(&data);
                high = high.max(addr + len);
            } else {
                let expect = &model[addr..addr + len];
                match len {
                    1 => assert_eq!(ls.read_u8(a), expect[0], "{at}"),
                    4 => {
                        let want = u32::from_le_bytes(expect.try_into().unwrap());
                        assert_eq!(ls.read_u32(a), want, "{at}");
                        assert_eq!(ls.read_i32_sext(a), want as i32 as i64, "{at}");
                    }
                    8 => {
                        let want = u64::from_le_bytes(expect.try_into().unwrap());
                        assert_eq!(ls.read_u64(a), want, "{at}");
                    }
                    _ => assert_eq!(ls_bytes(&ls, addr, len), expect, "{at}"),
                }
            }
            assert!(
                high <= ls.backed() && ls.backed() <= size,
                "{at}: backed {} outside [{high}, {size}]",
                ls.backed()
            );
        }
        let whole = ls_bytes(&ls, 0, size);
        if let Some(i) = (0..size).find(|&i| whole[i] != model[i]) {
            panic!(
                "case {case}: byte {i} of the whole store reads {}, the model holds {}",
                whole[i], model[i]
            );
        }
    }
}

/// `len` bytes of `ls` from `addr`, through `read_bytes`.
fn ls_bytes(ls: &LocalStore, addr: usize, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    ls.read_bytes(addr as u32, &mut buf);
    buf
}

/// Every transaction completes strictly after it was issued, and
/// issuing the same kinds in the same order is deterministic.
#[test]
fn memory_system_timing_sane() {
    let mut rng = Rng::new(SEED ^ 2);
    for case in 0..48 {
        let kinds: Vec<usize> = (0..rng.range(1, 100))
            .map(|_| rng.below(5) as usize)
            .collect();
        let build = |kinds: &[usize]| {
            let mut sys = MemorySystem::paper_default();
            let mut now = 0;
            let mut times = Vec::new();
            for &k in kinds {
                let kind = match k {
                    0 => TransferKind::ScalarRead,
                    1 => TransferKind::ScalarWrite,
                    2 => TransferKind::BlockGet { bytes: 256 },
                    3 => TransferKind::BlockPut { bytes: 64 },
                    _ => TransferKind::StridedGet {
                        count: 8,
                        elem_bytes: 4,
                    },
                };
                let done = sys.request(now, kind);
                times.push(done);
                now += 3;
            }
            times
        };
        let a = build(&kinds);
        let b = build(&kinds);
        assert_eq!(&a, &b, "case {case}");
        for (i, &t) in a.iter().enumerate() {
            assert!(
                t > (i as u64) * 3,
                "case {case}: transaction {i} completed at {t}"
            );
        }
    }
}

/// The MFC's functional data movement matches a plain memcpy model
/// for arbitrary command sequences over disjoint regions.
#[test]
fn mfc_moves_data_like_memcpy() {
    let mut rng = Rng::new(SEED ^ 3);
    for case in 0..24 {
        let mut mfc = Mfc::new(MfcParams::default());
        let mut sys = MemorySystem::paper_default();
        let mut ls = LocalStore::new(64 * 1024);
        let mut mem = MainMemory::new(1 << 20);
        // Seed memory deterministically.
        for i in 0..4096u64 {
            mem.write_u32(i * 4, (i as u32).wrapping_mul(0x9E37_79B9));
        }
        let mut model_ls = vec![0u8; 64 * 1024];
        let mut now = 0u64;
        for _ in 0..rng.range(1, 24) {
            let dir = rng.below(2) as usize;
            let slot = rng.below(16) as u32;
            let blocks = rng.range(1, 16) as u32;
            let tag = rng.below(32) as u8;
            let ls_addr = slot * 1024; // disjoint-ish LS slots
            let mem_addr = (slot as u64) * 1024;
            let bytes = blocks * 16;
            let cmd = DmaCommand {
                owner: 1,
                tag,
                ls_addr,
                mem_addr,
                kind: if dir == 0 {
                    DmaKind::Get { bytes }
                } else {
                    DmaKind::Put { bytes }
                },
            };
            // Retry until the queue accepts (time moves forward).
            loop {
                if let Some(c) = mfc.enqueue(now, cmd, &mut sys, &mut ls, &mut mem) {
                    assert!(
                        c.at >= now + MfcParams::default().command_latency,
                        "case {case}"
                    );
                    break;
                }
                now += 100;
            }
            // Mirror functionally.
            if dir == 0 {
                let mut buf = vec![0u8; bytes as usize];
                mem.read_bytes(mem_addr, &mut buf);
                model_ls[ls_addr as usize..(ls_addr + bytes) as usize].copy_from_slice(&buf);
            } else {
                let src = &model_ls[ls_addr as usize..(ls_addr + bytes) as usize];
                mem.write_bytes(mem_addr, src);
            }
            now += 1;
        }
        let mut actual = vec![0u8; 64 * 1024];
        ls.read_bytes(0, &mut actual);
        assert_eq!(actual, model_ls, "case {case}");
    }
}

/// Strided gathers pack exactly the elements a scalar loop would
/// read.
#[test]
fn strided_gather_matches_scalar_loop() {
    let mut rng = Rng::new(SEED ^ 4);
    for case in 0..48 {
        let count = rng.range(1, 64) as u32;
        let stride_words = rng.range(1, 64) as i64;
        let base_word = rng.below(256);
        let mut mfc = Mfc::new(MfcParams::default());
        let mut sys = MemorySystem::paper_default();
        let mut ls = LocalStore::new(64 * 1024);
        let mut mem = MainMemory::new(1 << 20);
        for i in 0..32_768u64 {
            mem.write_u32(i * 4, (i as u32) ^ 0xABCD_1234);
        }
        let base = base_word * 4;
        let stride = stride_words * 4;
        mfc.enqueue(
            0,
            DmaCommand {
                owner: 0,
                tag: 0,
                ls_addr: 0,
                mem_addr: base,
                kind: DmaKind::GetStrided {
                    elem_bytes: 4,
                    count,
                    stride,
                },
            },
            &mut sys,
            &mut ls,
            &mut mem,
        )
        .expect("queue empty");
        for i in 0..count {
            let want = mem.read_u32(base + i as u64 * stride as u64);
            assert_eq!(ls.read_u32(i * 4), want, "case {case}: element {i}");
        }
    }
}

/// Bus data transfers respect bandwidth: n back-to-back sends of B
/// bytes on one lane take at least n*ceil(B/bw) cycles.
#[test]
fn bus_bandwidth_bound() {
    let mut rng = Rng::new(SEED ^ 5);
    for case in 0..64 {
        let sends = rng.range(1, 40);
        let bytes = rng.range(1, 512);
        let mut bus = BusModel::new(1, 8, 0);
        let mut last = 0;
        for _ in 0..sends {
            last = bus.send(0, bytes);
        }
        assert!(last >= sends * bytes.div_ceil(8), "case {case}");
        assert_eq!(bus.bytes_moved(), sends * bytes, "case {case}");
    }
}

/// Regression (stats double-count hazard): a retried command must
/// contribute exactly one `commands` increment, one completion, one
/// `bytes` increment and N `attempts` — never one of each per retry.
#[test]
fn retried_command_counts_once() {
    let mut mfc = Mfc::new(MfcParams::default());
    // Every attempt fails; budget of 3 retries → 4 attempts, then the
    // fail-safe path still delivers the data.
    mfc.set_faults(DmaFaultPlan {
        seed: 0x5EED,
        salt: 0,
        fail_ppm: 1_000_000,
        stall_ppm: 0,
        retry_budget: 3,
        backoff_base: 64,
    });
    let mut sys = MemorySystem::paper_default();
    let mut ls = LocalStore::new(64 * 1024);
    let mut mem = MainMemory::new(1 << 20);
    mem.write_u32(0x100, 0xCAFE);
    let c = mfc
        .enqueue(
            0,
            DmaCommand {
                owner: 9,
                tag: 2,
                ls_addr: 0,
                mem_addr: 0x100,
                kind: DmaKind::Get { bytes: 8 },
            },
            &mut sys,
            &mut ls,
            &mut mem,
        )
        .expect("queue empty");
    assert_eq!(c.attempts, 4);
    assert!(!c.stalled);
    assert_eq!(ls.read_u32(0), 0xCAFE, "fail-safe path still moves data");
    let s = mfc.stats();
    assert_eq!(s.commands, 1, "one command despite 4 attempts");
    assert_eq!(s.attempts, 4);
    assert_eq!(s.retries, 3);
    assert_eq!(s.exhausted, 1);
    assert_eq!(s.bytes, 8, "payload counted once, not per attempt");
    assert_eq!(s.backoff_cycles, 64 + 128 + 256);
    // The backoff occupied the engine before issue.
    assert!(c.at >= 64 + 128 + 256 + 30, "completion at {}", c.at);
}

/// A stalled command wedges its queue slot forever, moves no data, and
/// yields a completion the caller must not schedule.
#[test]
fn stalled_command_never_completes() {
    let mut mfc = Mfc::new(MfcParams::default());
    mfc.set_faults(DmaFaultPlan {
        seed: 1,
        salt: 0,
        fail_ppm: 0,
        stall_ppm: 1_000_000,
        retry_budget: 3,
        backoff_base: 64,
    });
    let mut sys = MemorySystem::paper_default();
    let mut ls = LocalStore::new(64 * 1024);
    let mut mem = MainMemory::new(1 << 20);
    mem.write_u32(0, 0xBEEF);
    let c = mfc
        .enqueue(
            0,
            DmaCommand {
                owner: 1,
                tag: 0,
                ls_addr: 0,
                mem_addr: 0,
                kind: DmaKind::Get { bytes: 4 },
            },
            &mut sys,
            &mut ls,
            &mut mem,
        )
        .unwrap();
    assert!(c.stalled);
    assert_eq!(c.at, u64::MAX);
    assert_eq!(ls.read_u32(0), 0, "stalled command moves no data");
    let s = mfc.stats();
    assert_eq!((s.commands, s.stalled, s.bytes), (1, 1, 0));
    // The wedged slot still occupies the queue arbitrarily far ahead.
    assert_eq!(mfc.outstanding(1_000_000_000), 1);
}

/// Queue-full rejections must not consume fault-schedule indices or bump
/// command/attempt counters: the Nth *accepted* command gets the Nth
/// plan whether or not rejections happened in between (this is what keeps
/// the two engines' schedules aligned — both see identical rejections,
/// but neither charges them an index).
#[test]
fn rejection_does_not_advance_fault_schedule() {
    let plan = DmaFaultPlan {
        seed: 0xD15_EA5E,
        salt: 3,
        fail_ppm: 400_000,
        stall_ppm: 0,
        retry_budget: 4,
        backoff_base: 32,
    };
    let params = MfcParams {
        queue_capacity: 1,
        command_latency: 30,
    };
    let run = |hammer: bool| {
        let mut mfc = Mfc::new(params);
        mfc.set_faults(plan);
        let mut sys = MemorySystem::paper_default();
        let mut ls = LocalStore::new(64 * 1024);
        let mut mem = MainMemory::new(1 << 20);
        let cmd = DmaCommand {
            owner: 0,
            tag: 0,
            ls_addr: 0,
            mem_addr: 0,
            kind: DmaKind::Get { bytes: 4096 },
        };
        let mut seen = Vec::new();
        for round in 0..8u64 {
            let now = round * 1_000_000; // queue fully drained each round
            let c = mfc.enqueue(now, cmd, &mut sys, &mut ls, &mut mem).unwrap();
            seen.push(c.attempts);
            if hammer {
                // The queue (capacity 1) is now full: these are rejected.
                for _ in 0..3 {
                    assert!(mfc.enqueue(now, cmd, &mut sys, &mut ls, &mut mem).is_none());
                }
            }
        }
        (seen, mfc.stats())
    };
    let (clean, s0) = run(false);
    let (with_rejects, s1) = run(true);
    assert_eq!(clean, with_rejects, "rejections shifted the schedule");
    assert_eq!(s0.commands, 8);
    assert_eq!(s1.commands, 8, "rejections must not count as commands");
    assert_eq!(s0.attempts, s1.attempts);
    assert_eq!(s0.queue_full_rejections, 0);
    assert_eq!(s1.queue_full_rejections, 24);
    assert!(s1.attempts >= s1.commands);
}

/// Memory accesses complete no earlier than request + latency.
#[test]
fn memory_latency_is_a_floor() {
    let mut rng = Rng::new(SEED ^ 6);
    for case in 0..128 {
        let at = rng.below(10_000);
        let bytes = rng.range(1, 4096);
        let mut m = MemoryModel::new(1, 150, 32);
        let done = m.access(at, bytes, 0);
        assert!(done >= at + 150 + bytes.div_ceil(32), "case {case}");
    }
}
