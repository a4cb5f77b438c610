//! Backing stores: main memory and local store.
//!
//! Both stores are purely *functional* — access timing is modelled by
//! [`crate::bus`] and the local-store port model in the core simulator.
//! Accesses are little-endian; the machine's scalar access width is 32
//! bits (the paper: "each READ instruction fetches only 4 bytes").

use dta_isa::{GlobalDef, IdBuild};
use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sparse, paged main memory (Table 2: 512 MB by default).
///
/// Pages are allocated on first touch so simulating a 512 MB address space
/// costs only what programs actually use. Out-of-range accesses panic —
/// the validator plus the DTA execution model make them program bugs worth
/// failing loudly on.
#[derive(Clone, Debug, Default)]
pub struct MainMemory {
    size: u64,
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, IdBuild>,
}

impl MainMemory {
    /// Creates a memory of `size` bytes.
    pub fn new(size: u64) -> Self {
        MainMemory {
            size,
            pages: HashMap::default(),
        }
    }

    /// Memory size in bytes.
    #[inline]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of pages touched so far (useful for footprint assertions).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    #[inline]
    #[track_caller]
    fn check(&self, addr: u64, len: usize) {
        assert!(
            addr.checked_add(len as u64)
                .is_some_and(|end| end <= self.size),
            "main-memory access [{addr:#x}, +{len}) out of range (size {:#x})",
            self.size
        );
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.check(addr, 1);
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.check(addr, 1);
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads `buf.len()` bytes starting at `addr` (page-chunked: one
    /// table lookup per touched page, which keeps multi-KiB DMA copies
    /// off the per-byte path).
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        self.check(addr, buf.len());
        let mut done = 0usize;
        while done < buf.len() {
            let cur = addr + done as u64;
            let in_page = (cur as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - in_page).min(buf.len() - done);
            match self.pages.get(&(cur >> PAGE_SHIFT)) {
                Some(p) => buf[done..done + n].copy_from_slice(&p[in_page..in_page + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
        }
    }

    /// Writes `data` starting at `addr` (page-chunked).
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        self.check(addr, data.len());
        let mut done = 0usize;
        while done < data.len() {
            let cur = addr + done as u64;
            let in_page = (cur as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - in_page).min(data.len() - done);
            let page = self
                .pages
                .entry(cur >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[in_page..in_page + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
    }

    /// Reads a 32-bit little-endian value.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a 32-bit little-endian value.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a 32-bit value sign-extended to `i64` (the semantics of the
    /// `READ` instruction).
    #[inline]
    pub fn read_i32_sext(&self, addr: u64) -> i64 {
        self.read_u32(addr) as i32 as i64
    }

    /// Loads a program's global data segment.
    pub fn load_globals(&mut self, globals: &[GlobalDef]) {
        for g in globals {
            self.write_bytes(g.addr, &g.data);
        }
    }
}

/// A per-PE local store (Table 2: 156 kB usable, by default).
///
/// Grows on write: the store keeps its architectural `size` and backs
/// only a prefix, which a write extends in 4 KiB steps (capped at
/// `size`) to cover the highest byte it touches. Bytes past the prefix
/// read as 0, as a fresh store's do, so a PE that never writes its
/// store costs no memory and no zeroing at construction. The LSE hands
/// out prefetch buffers lowest index first, so the prefix stays at the
/// buffers actually in use. Bounds are checked against `size`, never
/// the prefix.
#[derive(Clone, Debug)]
pub struct LocalStore {
    size: usize,
    data: Vec<u8>,
}

/// Growth step of a [`LocalStore`]'s backed prefix, in bytes.
const LS_GROW: usize = 4096;

impl LocalStore {
    /// Creates a local store of `size` bytes, all reading as 0.
    pub fn new(size: usize) -> Self {
        LocalStore {
            size,
            data: Vec::new(),
        }
    }

    /// Size in bytes.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Bytes backed so far: the prefix that writes have grown to.
    pub fn backed(&self) -> usize {
        self.data.len()
    }

    #[inline]
    #[track_caller]
    fn check(&self, addr: u32, len: usize) -> usize {
        assert!(
            (addr as usize)
                .checked_add(len)
                .is_some_and(|end| end <= self.size),
            "local-store access [{addr:#x}, +{len}) out of range (size {:#x})",
            self.size
        );
        addr as usize
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        let a = self.check(addr, 1);
        self.data.get(a).copied().unwrap_or(0)
    }

    /// Reads bytes into `buf`: the backed ones, then zeros past the
    /// prefix.
    pub fn read_bytes(&self, addr: u32, buf: &mut [u8]) {
        let a = self.check(addr, buf.len());
        let backed = self.data.get(a..).unwrap_or(&[]);
        let n = backed.len().min(buf.len());
        buf[..n].copy_from_slice(&backed[..n]);
        buf[n..].fill(0);
    }

    /// Writes bytes, growing the backed prefix to cover them.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        let a = self.check(addr, data.len());
        let end = a + data.len();
        if end > self.data.len() {
            self.data
                .resize(end.next_multiple_of(LS_GROW).min(self.size), 0);
        }
        self.data[a..end].copy_from_slice(data);
    }

    /// Reads a 32-bit little-endian value.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        let a = self.check(addr, 4);
        match self.data.get(a..a + 4) {
            Some(b) => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            None => {
                let mut b = [0u8; 4];
                self.read_bytes(addr, &mut b);
                u32::from_le_bytes(b)
            }
        }
    }

    /// Writes a 32-bit little-endian value.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a 32-bit value sign-extended to `i64` (`LSLOAD` semantics).
    #[inline]
    pub fn read_i32_sext(&self, addr: u32) -> i64 {
        self.read_u32(addr) as i32 as i64
    }

    /// Reads a 64-bit little-endian value (frame slots are 64-bit).
    #[inline]
    pub fn read_u64(&self, addr: u32) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a 64-bit little-endian value.
    #[inline]
    pub fn write_u64(&mut self, addr: u32, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn main_memory_starts_zeroed_and_sparse() {
        let m = MainMemory::new(512 << 20);
        assert_eq!(m.read_u32(0), 0);
        assert_eq!(m.read_u32(511 << 20), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn main_memory_rw_roundtrip() {
        let mut m = MainMemory::new(1 << 20);
        m.write_u32(0x1000, 0xDEAD_BEEF);
        assert_eq!(m.read_u32(0x1000), 0xDEAD_BEEF);
        assert_eq!(m.read_u8(0x1000), 0xEF); // little-endian
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn main_memory_cross_page_access() {
        let mut m = MainMemory::new(1 << 20);
        let addr = (1 << 12) - 2; // straddles the first page boundary
        m.write_u32(addr, 0x0102_0304);
        assert_eq!(m.read_u32(addr), 0x0102_0304);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn main_memory_sign_extension() {
        let mut m = MainMemory::new(1 << 16);
        m.write_u32(0, -5i32 as u32);
        assert_eq!(m.read_i32_sext(0), -5);
        m.write_u32(4, 7);
        assert_eq!(m.read_i32_sext(4), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn main_memory_oob_panics() {
        let m = MainMemory::new(1 << 16);
        let _ = m.read_u32((1 << 16) - 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn main_memory_overflow_addr_panics() {
        let m = MainMemory::new(1 << 16);
        let _ = m.read_u8(u64::MAX);
    }

    #[test]
    fn load_globals_places_data() {
        let mut m = MainMemory::new(1 << 22);
        let g = vec![
            GlobalDef::from_words("a", 0x10_0000, &[1, 2]),
            GlobalDef::zeroed("b", 0x10_0010, 8),
        ];
        m.load_globals(&g);
        assert_eq!(m.read_u32(0x10_0000), 1);
        assert_eq!(m.read_u32(0x10_0004), 2);
        assert_eq!(m.read_u32(0x10_0010), 0);
    }

    #[test]
    fn local_store_rw_roundtrip() {
        let mut ls = LocalStore::new(4096);
        ls.write_u32(0, 42);
        ls.write_u64(8, u64::MAX - 1);
        assert_eq!(ls.read_u32(0), 42);
        assert_eq!(ls.read_u64(8), u64::MAX - 1);
        assert_eq!(ls.size(), 4096);
    }

    #[test]
    fn local_store_bytes_roundtrip() {
        let mut ls = LocalStore::new(64);
        ls.write_bytes(10, &[1, 2, 3]);
        let mut buf = [0u8; 3];
        ls.read_bytes(10, &mut buf);
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(ls.read_u8(11), 2);
    }

    #[test]
    fn local_store_sign_extension() {
        let mut ls = LocalStore::new(64);
        ls.write_u32(0, -1i32 as u32);
        assert_eq!(ls.read_i32_sext(0), -1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn local_store_oob_panics() {
        let ls = LocalStore::new(64);
        let _ = ls.read_u32(62);
    }

    #[test]
    fn unwritten_local_store_reads_zero_and_backs_nothing() {
        let ls = LocalStore::new(156 * 1024);
        assert_eq!(ls.read_u32(0), 0);
        assert_eq!(ls.read_u64(156 * 1024 - 8), 0);
        assert_eq!(ls.read_u8(156 * 1024 - 1), 0);
        let mut buf = [0xAAu8; 16];
        ls.read_bytes(4096, &mut buf);
        assert_eq!(buf, [0; 16]);
        assert_eq!(ls.backed(), 0);
    }

    #[test]
    fn local_store_grows_in_steps_capped_at_size() {
        let mut ls = LocalStore::new(10_000);
        ls.write_u32(8, 1);
        assert_eq!(ls.backed(), LS_GROW);
        ls.write_bytes(9_999, &[2]);
        assert_eq!(ls.backed(), 10_000);
        assert_eq!(ls.read_u32(8), 1);
    }

    #[test]
    fn local_store_last_byte_is_writable() {
        let mut ls = LocalStore::new(100);
        ls.write_bytes(99, &[7]);
        assert_eq!(ls.read_u8(99), 7);
        assert_eq!(ls.backed(), 100);
    }

    #[test]
    #[should_panic(expected = "local-store access [0x64, +1) out of range (size 0x64)")]
    fn local_store_write_at_size_panics() {
        let mut ls = LocalStore::new(100);
        ls.write_bytes(100, &[7]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn local_store_read_at_size_panics_unbacked() {
        let ls = LocalStore::new(100);
        let _ = ls.read_u8(100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn local_store_addr_len_overflow_panics() {
        let ls = LocalStore::new(64);
        let _ = ls.read_u32(u32::MAX);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn local_store_write_addr_len_overflow_panics() {
        let mut ls = LocalStore::new(64);
        ls.write_u64(u32::MAX - 3, 1);
    }

    #[test]
    fn local_store_reads_straddling_the_prefix_end() {
        let mut ls = LocalStore::new(3 * LS_GROW);
        let end = LS_GROW as u32;
        ls.write_bytes(end - 2, &[0x11, 0x22]);
        assert_eq!(ls.backed(), LS_GROW);
        // Two written bytes, then two past the prefix.
        assert_eq!(ls.read_u32(end - 2), 0x2211);
        assert_eq!(ls.read_i32_sext(end - 2), 0x2211);
        assert_eq!(ls.read_u64(end - 2), 0x2211);
        let mut buf = [0xAAu8; 6];
        ls.read_bytes(end - 3, &mut buf);
        assert_eq!(buf, [0, 0x11, 0x22, 0, 0, 0]);
        // Entirely past the prefix.
        assert_eq!(ls.read_u64(end + 8), 0);
    }
}
