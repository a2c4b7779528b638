//! A fast multiply-xor hasher (Fx-style), implemented locally.
//!
//! The namestamping tables key on small integers and integer pairs; SipHash's
//! DoS resistance buys nothing here and costs plenty. This is the standard
//! `hash = (hash.rotate_left(5) ^ word) * K` construction used by rustc,
//! reimplemented so the workspace has no external hashing dependency, with
//! one addition: [`FxHasher::finish`] passes the state through [`mix64`].
//! std's `HashMap` takes bucket bits from the low end of the hash, and the
//! low bits of a product depend only on the low bits of the key — without
//! the finalizer every packed pair key `a << 32 | b` that shares `b` lands
//! on one probe chain.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher over machine words.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.hash)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Finalizing mix for raw `u64` keys used by the open-addressing tables
/// (splitmix64 finalizer; full-avalanche so linear probing stays short).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&(1u32, 2u32)), hash_of(&(1u32, 2u32)));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn bytes_path_matches_padding_semantics() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0]);
        // Both pad to one 8-byte word; this documents (not endorses) the
        // prefix-padding collision — our tables never hash raw byte strings.
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn hashmap_works() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i + 1), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(500, 501)), Some(&500));
        assert_eq!(m.get(&(501, 500)), None);
    }

    #[test]
    fn keys_sharing_their_low_word_spread_over_buckets() {
        // Packed pair keys `(a, 7)`: a bare multiply leaves their low 32
        // hash bits identical, so every key would share one bucket.
        let buckets: FxHashSet<u64> = (0..4096u32)
            .map(|a| hash_of(&crate::table::pack(a, 7)) & 0xFFF)
            .collect();
        // A uniform hash covers 1 − 1/e ≈ 63% of the 4,096 values.
        assert!(buckets.len() > 2048, "only {} buckets", buckets.len());
    }

    #[test]
    fn mix64_bijective_on_sample() {
        let mut seen = FxHashSet::default();
        for i in 0..100_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn mix64_avalanche_smoke() {
        // Flipping one input bit should flip ~half the output bits.
        let a = mix64(0x1234_5678_9abc_def0);
        let b = mix64(0x1234_5678_9abc_def1);
        let diff = (a ^ b).count_ones();
        assert!((16..=48).contains(&diff), "weak avalanche: {diff} bits");
    }
}
