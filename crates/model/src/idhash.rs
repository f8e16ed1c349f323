//! A multiplicative hasher for the internal ids the layers hand out.
//!
//! std's `HashMap` hashes with SipHash-1-3 under a random key, which
//! defends a map whose keys an attacker picks against collision floods.
//! Doc ids and node ids are allocated by the store, never taken from a
//! client's bytes, so for maps keyed on them that defence buys nothing
//! while every probe pays for it. [`IdHasher`] folds each integer word in
//! with one rotate, xor and multiply by an odd constant (the word step of
//! FxHash). It has no random state: an id hashes alike in every run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit constant (FxHash's). Multiplying by an odd number is a
/// bijection on every run of low bits, so sequential ids fill distinct
/// buckets, and the high bits mix the whole word.
const MUL: u64 = 0x517c_c1b7_2722_0a95;

/// The hasher of [`IdMap`] and [`IdSet`]. Unkeyed, so it is only for keys
/// no client chooses: such keys could be picked to collide.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MUL);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    // `i64` ids reach this through `write_i64`'s default.
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed on internal ids, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of internal ids, hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    #[test]
    fn a_key_hashes_alike_in_every_run() {
        // Pinned values: a hasher with random state would fail here in
        // some run, not only across builders of one run.
        assert_eq!(hash_of(0u64), 0);
        assert_eq!(hash_of(1u64), MUL);
        let key: (i64, u64) = (3, 7);
        let first = (3u64.wrapping_mul(MUL).rotate_left(5) ^ 7).wrapping_mul(MUL);
        assert_eq!(hash_of(key), first);
        // Bytes pad to whole little-endian words.
        let mut bytes = IdHasher::default();
        bytes.write(&[1, 0, 0]);
        assert_eq!(bytes.finish(), MUL);
    }

    #[test]
    fn sequential_ids_spread_over_low_bits() {
        // The low 10 bits of the hash of 0..1024 are a permutation, so a
        // 1,024-bucket table would place every sequential id alone.
        let mut low: Vec<u64> = (0u64..1024).map(|id| hash_of(id) & 1023).collect();
        low.sort_unstable();
        low.dedup();
        assert_eq!(low.len(), 1024);
    }

    proptest! {
        /// `IdSet` and `IdMap` answer every insert, lookup and remove as
        /// std's SipHash collections do. Keys come from a small range so
        /// that lookups and removes hit.
        #[test]
        fn id_collections_agree_with_std(
            ops in proptest::collection::vec((0u8..3, 0i64..6, 0u64..40, any::<u32>()), 0..200)
        ) {
            let mut set: IdSet<(i64, u64)> = IdSet::default();
            let mut std_set: HashSet<(i64, u64)> = HashSet::new();
            let mut map: IdMap<(i64, u64), u32> = IdMap::default();
            let mut std_map: HashMap<(i64, u64), u32> = HashMap::new();
            for (op, doc, node, value) in ops {
                let key = (doc, node);
                match op {
                    0 => {
                        prop_assert_eq!(set.insert(key), std_set.insert(key));
                        prop_assert_eq!(map.insert(key, value), std_map.insert(key, value));
                    }
                    1 => {
                        prop_assert_eq!(set.contains(&key), std_set.contains(&key));
                        prop_assert_eq!(map.get(&key), std_map.get(&key));
                    }
                    _ => {
                        prop_assert_eq!(set.remove(&key), std_set.remove(&key));
                        prop_assert_eq!(map.remove(&key), std_map.remove(&key));
                    }
                }
                prop_assert_eq!(set.len(), std_set.len());
                prop_assert_eq!(map.len(), std_map.len());
            }
            let mut got: Vec<_> = map.into_iter().collect();
            let mut want: Vec<_> = std_map.into_iter().collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
