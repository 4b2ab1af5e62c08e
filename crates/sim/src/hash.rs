//! A fast, deterministic hasher for simulation state.
//!
//! The protocol endpoints key several per-packet lookups by small integer
//! ids (message ids, sequence numbers). `std`'s default SipHash costs more
//! than the table probe it guards on those paths, and its per-process
//! random seed makes iteration order vary between runs. This multiply-
//! rotate hasher (the rustc/Firefox "Fx" construction) is a handful of
//! cycles per word and produces the same table layout on every run —
//! replicated simulations stay bit-for-bit reproducible even if a map is
//! ever iterated.
//!
//! Not DoS-resistant, which is irrelevant here: keys come from the
//! simulation itself, never from untrusted input.
//!
//! [`fnv1a`] is the workspace's content hash: spec hashes, training-spec
//! hashes, RNG stream labels and probe jitter all fold their bytes with it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The 64-bit FNV offset basis: the [`fnv1a`] basis of a plain content
/// hash.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes`, starting from `basis` — [`FNV_OFFSET_BASIS`]
/// for a content hash, or a value mixed with a seed or salt to derive
/// distinct hashes of the same bytes.
///
/// ```
/// use marnet_sim::hash::{fnv1a, FNV_OFFSET_BASIS};
/// assert_eq!(fnv1a(b"", FNV_OFFSET_BASIS), FNV_OFFSET_BASIS);
/// assert_eq!(fnv1a(b"a", FNV_OFFSET_BASIS), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    let mut hash = basis;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Multiply-rotate hasher over machine words.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_work_and_are_deterministic() {
        let mut a = FxHashMap::default();
        let mut b = FxHashMap::default();
        for i in (0..1000u64).rev() {
            a.insert(i, i * 2);
            b.insert(i, i * 2);
        }
        assert_eq!(a.get(&77), Some(&154));
        // Same insertion sequence → same iteration order, run after run.
        let oa: Vec<u64> = a.keys().copied().collect();
        let ob: Vec<u64> = b.keys().copied().collect();
        assert_eq!(oa, ob);
    }

    #[test]
    fn set_membership() {
        let mut s = FxHashSet::default();
        assert!(s.insert(42u64));
        assert!(!s.insert(42u64));
        assert!(s.contains(&42));
        assert!(!s.contains(&43));
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let bh: BuildHasherDefault<FxHasher> = BuildHasherDefault::default();
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(bh.hash_one(i));
        }
        assert_eq!(seen.len(), 10_000, "hash must be injective-ish on small ints");
    }
}
