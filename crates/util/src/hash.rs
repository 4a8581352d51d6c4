//! FxHash-style fast hashing.
//!
//! Keyword ids and tree-node ids are small dense integers; SipHash (the
//! standard library default) costs more than the table lookup itself for
//! such keys. This module hand-rolls the well-known Fx multiply-rotate mix
//! (as used by rustc) instead of pulling an external crate, per the
//! workspace's offline-dependency policy.
//!
//! HashDoS resistance is irrelevant here: all hashed keys are internal ids,
//! never attacker-controlled strings.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The Fx multiply-rotate hasher.
///
/// Processes input a word at a time:
/// `state = (state.rotate_left(5) ^ word) * SEED`.
/// Extremely fast for integer keys; low quality for long strings, which
/// we do not use it for.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basic_ops() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.get(&3), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn set_basic_ops() {
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..100 {
            s.insert(i * 7);
        }
        assert_eq!(s.len(), 100);
        assert!(s.contains(&7));
        assert!(!s.contains(&8));
    }

    #[test]
    fn hash_is_deterministic() {
        let h = |x: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(x);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn byte_stream_hashing_covers_remainders() {
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        // Different lengths exercise the chunk/remainder paths.
        assert_ne!(h(b"abcdefgh"), h(b"abcdefg"));
        assert_ne!(h(b"abcdefghi"), h(b"abcdefgh"));
        assert_eq!(h(b"abcdefghi"), h(b"abcdefghi"));
    }

    #[test]
    fn distinct_small_keys_spread() {
        // Sanity: 1000 consecutive integers should produce 1000 distinct
        // hashes (Fx is a bijection on u64 for single-word input).
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..1000 {
            let mut hasher = FxHasher::default();
            hasher.write_u64(i);
            seen.insert(hasher.finish());
        }
        assert_eq!(seen.len(), 1000);
    }
}
