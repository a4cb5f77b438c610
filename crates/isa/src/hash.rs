//! A fast hasher for simulator-internal integer keys.
//!
//! The simulator's hot tables (LSE instance tables, main-memory pages)
//! are keyed by values the simulator itself mints: instance ids and
//! page numbers. No adversary chooses them, so the std default hasher's
//! HashDoS resistance buys nothing and its SipHash rounds sit on every
//! lookup.
//! [`IdHasher`] is a single Fibonacci multiply per word instead.
//! Hashbrown takes its control byte from the top 7 bits and its bucket
//! index from the low bits. The multiply by an odd constant is a
//! bijection on `u64` that mixes every key bit into the top bits, and
//! it maps a run of sequential keys (instance counters, page numbers)
//! one-to-one onto the low bits.
//!
//! Iteration order over these maps is still unspecified: every site that
//! iterates one either sorts or folds order-insensitively.

use std::hash::{BuildHasherDefault, Hasher};

/// `2^64 / φ`, rounded to odd.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative hasher for simulator-minted keys (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

/// `BuildHasher` for [`IdHasher`]: `HashMap<K, V, IdBuild>`.
pub type IdBuild = BuildHasherDefault<IdHasher>;

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Folds arbitrary bytes eight at a time (little-endian, the last
    /// chunk zero-padded), so composite keys hash correctly too.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        IdBuild::default().hash_one(v)
    }

    /// Asserts the hashes are pairwise distinct and that both ends of
    /// the word hashbrown reads (top 7 bits: control byte; low bits:
    /// bucket index) take many values.
    fn assert_spread(hashes: &[u64]) {
        let distinct: HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), hashes.len(), "hash collision");
        let tops: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        let lows: HashSet<u64> = hashes.iter().map(|h| h & 0x3ff).collect();
        assert!(
            tops.len() >= 100,
            "top 7 bits take only {} values",
            tops.len()
        );
        assert!(
            lows.len() >= 900,
            "low 10 bits take only {} values",
            lows.len()
        );
    }

    #[test]
    fn instance_ids_from_several_pes_spread() {
        // Instance ids are `(pe << 48) | counter`.
        let ids: Vec<u64> = (0..4u64)
            .flat_map(|pe| (0..1024u64).map(move |c| (pe << 48) | c))
            .collect();
        assert_spread(&ids.iter().map(|&id| hash(id)).collect::<Vec<_>>());
    }

    #[test]
    fn byte_fold_hashes_composite_keys() {
        let mut h = IdHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut w = IdHasher::default();
        w.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        w.write_u64(9);
        assert_eq!(h.finish(), w.finish(), "bytes fold as little-endian words");
        assert_ne!(hash("ab"), hash("ba"));
        // Tuple and string keys work in a map.
        let mut m: HashMap<(u16, u32, &str), usize, IdBuild> = HashMap::default();
        for i in 0..1000u32 {
            m.insert((i as u16 % 7, i, "k"), i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u32).all(|i| m[&(i as u16 % 7, i, "k")] == i as usize));
    }
}
