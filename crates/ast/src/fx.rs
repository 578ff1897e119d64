//! An FxHash-style multiplicative hasher for analysis-internal keys.
//!
//! The name table's index (identifier text), the effect solver (small
//! integer keys: `Loc`, `EffVar`) and the typing walk (`(struct, field)`
//! symbol pairs) spend real time probing hash tables; SipHash's
//! per-lookup cost dwarfs the one-multiply mix below.
//! Not DoS-resistant: the keys are locations and variables the analyses
//! allocate and the identifiers of the module under analysis, so a module
//! crafted to collide slows only its own analysis.
//!
//! This is the workspace's single `FxHasher` home. It lives in
//! `localias-ast`, the root of the crate graph, because the name table
//! ([`crate::intern::Names`]) hashes with it; `localias-alias` and `localias-cqual`
//! re-export it (the checker's hot maps use the [`FxHashMap`] /
//! [`FxHashSet`] spellings). Map iteration order is never observable in
//! reports (every ordered artifact is assembled from deterministic
//! schedules), so consumers may not rely on it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash-style hasher. See the module docs.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        // The golden-ratio multiplier used by rustc's FxHash.
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Word-at-a-time so string keys (identifiers) stay cheap.
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// A `HashMap` using [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using [`FxHasher`].
pub type FxSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// Alias for [`FxMap`] under the conventional rustc name.
pub type FxHashMap<K, V> = FxMap<K, V>;

/// Alias for [`FxSet`] under the conventional rustc name.
pub type FxHashSet<T> = FxSet<T>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_roundtrip_mixed_keys() {
        let mut m: FxMap<String, u32> = FxMap::default();
        for i in 0..100u32 {
            m.insert(format!("key_{i}"), i);
        }
        for i in 0..100u32 {
            assert_eq!(m.get(&format!("key_{i}")), Some(&i));
        }
        let mut ints: FxMap<u64, u64> = FxMap::default();
        for i in 0..1000u64 {
            ints.insert(i, i * 2);
        }
        assert_eq!(ints.get(&999), Some(&1998));
    }

    #[test]
    fn distinct_keys_hash_distinctly() {
        let mut set = FxHashSet::default();
        for i in 0..10_000u32 {
            set.insert(i);
        }
        assert_eq!(set.len(), 10_000);
        let mut strs = FxHashSet::default();
        for i in 0..10_000u32 {
            strs.insert(format!("fun{i:04}"));
        }
        assert_eq!(strs.len(), 10_000);
    }

    #[test]
    fn tail_bytes_participate_in_the_hash() {
        fn h(b: &[u8]) -> u64 {
            let mut hasher = FxHasher::default();
            hasher.write(b);
            hasher.finish()
        }
        assert_ne!(h(b"abcdefgh1"), h(b"abcdefgh2"));
        assert_ne!(h(b"ab"), h(b"ba"), "tail byte order is mixed");
    }
}
