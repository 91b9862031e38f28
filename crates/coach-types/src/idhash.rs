//! A fixed multiplicative hasher for maps keyed by platform-assigned ids.
//!
//! The per-VM path keeps a few maps keyed by [`crate::VmId`] or
//! [`crate::ServerId`] (the controller's residents, the scheduler's VM →
//! slot map, the accountant's server index), and std's default SipHash
//! costs more per lookup than the rest of a lookup does. SipHash's keyed
//! randomness defends a map against keys an adversary picks to collide.
//! These ids are never picked by a tenant: the platform assigns them (a
//! trace index, a server's rack slot), so a fixed hash is safe here, and
//! [`IdMap`] must not be keyed by anything a request can choose.
//!
//! The hash is one widening multiply by an odd 64-bit constant, folded:
//! the high and low halves of the 128-bit product xor-ed, so the low bits
//! the table indexes by and the high bits it tags by both depend on every
//! bit of the id (ids with a common stride spread as well as consecutive
//! ones).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, odd: the Fibonacci-hashing multiplier.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// A [`Hasher`] for integer ids: `h = fold((h ^ word) · K)` per word,
/// where `fold` xors the two halves of the 128-bit product. Deterministic
/// across processes and runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.hash ^ word) * u128::from(MULTIPLIER);
        self.hash = (product >> 64) as u64 ^ product as u64;
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// One word: the hash `write` gives the length's native bytes on a
    /// little-endian target, without the byte loop (every slice and
    /// collection length prefix comes through here).
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`IdHasher`]s (all alike: the hash has no per-map key).
pub type BuildIdHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by platform-assigned ids, hashed with [`IdHasher`].
/// Construct with `IdMap::default()` or
/// `IdMap::with_capacity_and_hasher(n, Default::default())`.
pub type IdMap<K, V> = HashMap<K, V, BuildIdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServerId, VmId};
    use std::hash::{BuildHasher, Hash};

    fn hash_of(value: impl Hash) -> u64 {
        BuildIdHasher::default().hash_one(value)
    }

    #[test]
    fn the_hash_is_fixed_across_builders() {
        let vm = VmId::new(123_456);
        assert_eq!(hash_of(vm), hash_of(vm));
        assert_eq!(
            hash_of(vm),
            hash_of(123_456u64),
            "a newtype hashes its word"
        );
        assert_ne!(hash_of(VmId::new(1)), hash_of(VmId::new(2)));
    }

    /// Ids a common stride apart — consecutive trace indices, or ids with
    /// zero low bits — spread over a table's low bits: 4,096 ids into
    /// 4,096 buckets fill more than half of them.
    #[test]
    fn strided_ids_spread_over_the_low_bits() {
        for stride in [1u64, 64, 4096] {
            let mut seen = vec![false; 4096];
            for i in 0..4096u64 {
                seen[(hash_of(ServerId::new(i * stride)) & 4095) as usize] = true;
            }
            let used = seen.iter().filter(|&&s| s).count();
            assert!(used > 2048, "stride {stride}: {used} of 4096 buckets used");
        }
    }

    /// `write_usize` skips `write`'s byte loop and hashes the same.
    #[cfg(target_endian = "little")]
    #[test]
    fn a_length_prefix_hashes_as_its_bytes() {
        for len in [0usize, 1, 9, 255, 1 << 20, usize::MAX] {
            let (mut word, mut bytes) = (IdHasher::default(), IdHasher::default());
            word.write_usize(len);
            bytes.write(&len.to_ne_bytes());
            assert_eq!(word.finish(), bytes.finish(), "length {len}");
        }
    }

    #[test]
    fn a_map_works_as_a_std_one() {
        let mut map: IdMap<VmId, u32> = IdMap::default();
        for i in 0..1000 {
            map.insert(VmId::new(i), i as u32);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map[&VmId::new(777)], 777);
        assert_eq!(map.remove(&VmId::new(5)), Some(5));
        assert!(!map.contains_key(&VmId::new(5)));
        let mut bytes = IdHasher::default();
        bytes.write(b"twelve bytes");
        assert_ne!(bytes.finish(), IdHasher::default().finish());
    }
}
