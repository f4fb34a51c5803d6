//! A fast, deterministic hasher for the protocol's id-keyed maps.
//!
//! Every hot lookup of the protocol is keyed by a small fixed-size id — a
//! request or multicast id (process index plus counter), a process id, a
//! timer id. `std`'s default SipHash-1-3 is keyed per process and built to
//! resist hash flooding by adversarial keys; for these keys it is mostly
//! overhead. [`IdHasher`] is the Fx multiply-rotate hash (as used by
//! `rustc`): one rotate, one xor and one multiply per machine word.
//!
//! **Threat model.** The hasher is fixed and unkeyed, so a party that chooses
//! the keys could make them collide and turn O(1) lookups into O(n) scans.
//! The paper's system model is crash-stop with trusted clients: ids are
//! assigned by the processes themselves (a client's multicast counter, the
//! simulator's process indices), never taken from untrusted input, so
//! flooding is outside the model. A deployment that accepted ids from
//! untrusted peers would have to switch these maps back to a keyed hasher.
//!
//! **Determinism.** Being unkeyed, the hash — and with it the iteration
//! order of an [`IdMap`] — is the same in every run. The protocol does not
//! rely on that: every hash-iteration output that reaches a wire or a digest
//! is sorted first. Content digests (state digests, model-checker
//! fingerprints) keep `std`'s `DefaultHasher`, whose output is stable for a
//! given toolchain.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx hash: per word, rotate the state, xor the word in and multiply by
/// a fixed odd constant.
///
/// Fixed and unkeyed, so only for keys no adversary chooses. In the paper's
/// crash-stop model with trusted clients the protocol's ids are assigned by
/// its own processes, never taken from untrusted input, so hash flooding is
/// outside the model. Content digests keep `std`'s `DefaultHasher`.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher {
    hash: u64,
}

/// The multiplier of the Fx hash (from the golden ratio, made odd).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
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

/// Builds [`IdHasher`]s (zero-sized, so maps pay nothing for it).
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by protocol ids, hashed with [`IdHasher`]. Construct
/// with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of protocol ids, hashed with [`IdHasher`]. Construct with
/// `IdSet::default()`.
pub type IdSet<T> = HashSet<T, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        IdBuildHasher::default().hash_one(value)
    }

    #[test]
    fn hash_is_fixed_across_runs() {
        // Unkeyed: the same value hashes the same in every process.
        assert_eq!(hash_of(&0u64), 0);
        assert_eq!(hash_of(&1u64), SEED);
        assert_eq!(hash_of(&(3usize, 7u64)), hash_of(&(3usize, 7u64)));
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        assert_ne!(hash_of(&"abcdefgh1"), hash_of(&"abcdefgh2"));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
        assert_ne!(hash_of(&(1u64, 2u64)), hash_of(&(2u64, 1u64)));
    }

    #[test]
    fn maps_and_sets_work_as_usual() {
        let mut map: IdMap<(usize, u64), u32> = IdMap::default();
        for i in 0..1000u64 {
            map.insert(((i % 7) as usize, i), i as u32);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&(4, 500)), None);
        assert_eq!(map.get(&((500 % 7) as usize, 500)), Some(&500));
        let set: IdSet<u64> = (0..100).collect();
        assert!(set.contains(&99) && !set.contains(&100));
    }
}
