//! A fixed, fast hasher for the simulator's integer-keyed maps.
//!
//! The std `HashMap` defaults to randomly keyed SipHash-1-3, which is
//! DoS-resistant and slow; every map in the simulator is keyed by
//! trusted integers (line, region and metadata-line numbers), so that
//! protection buys nothing. [`FastHasher`] folds each word in with a
//! multiply and finishes with a 64×64→128-bit *folded* multiply, so
//! every output bit depends on every input bit. That matters because
//! hashbrown picks the bucket from the hash's low bits: a bare
//! multiplicative hash of a line-aligned address keeps its six zero
//! low bits and piles every key into 1/64 of the buckets.
//!
//! # Examples
//!
//! ```
//! use lelantus_types::hash::FastHashMap;
//!
//! let mut m: FastHashMap<u64, u32> = FastHashMap::default();
//! m.insert(0x40, 1);
//! assert_eq!(m.get(&0x40), Some(&1));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier (the 64-bit golden ratio) for folding words in.
const K0: u64 = 0x9e37_79b9_7f4a_7c15;
/// Second odd multiplier for the finishing fold.
const K1: u64 = 0xbf58_476d_1ce4_e5b9;

/// 64×64→128-bit multiply, high and low halves XORed together.
#[inline(always)]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = (a as u128).wrapping_mul(b as u128);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Unkeyed, deterministic hasher for integer keys (see the module
/// docs). Not collision-resistant against adversarial keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline(always)]
    fn write_u64(&mut self, n: u64) {
        self.state = (self.state.rotate_left(23) ^ n).wrapping_mul(K0);
    }

    #[inline(always)]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline(always)]
    fn finish(&self) -> u64 {
        folded_multiply(self.state ^ K1, K1)
    }
}

/// `BuildHasher` for [`FastHasher`]; stateless, so every map built
/// with it hashes (and iterates) identically from run to run.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` on [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` on [`FastHasher`].
pub type FastHashSet<K> = HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_distinct() {
        assert_eq!(hash(42u64), hash(42u64));
        assert_ne!(hash(1u64), hash(2u64));
        assert_ne!(hash((1usize, 2usize)), hash((2usize, 1usize)));
        assert_ne!(hash(&b"ab"[..]), hash(&b"ab\0"[..]));
    }

    #[test]
    fn line_aligned_keys_spread_over_low_bits() {
        // 4096 line-aligned addresses must reach every one of
        // 64 low-bit buckets, not the single bucket an unmixed
        // multiplicative hash of a 64-aligned key would hit.
        let mut seen = [0u32; 64];
        for line in 0..4096u64 {
            seen[(hash(line * 64) & 63) as usize] += 1;
        }
        let used = seen.iter().filter(|&&c| c > 0).count();
        assert_eq!(used, 64, "low bits must be mixed: {seen:?}");
        assert!(seen.iter().all(|&c| c < 4096 / 64 * 2), "badly skewed: {seen:?}");
    }

    #[test]
    fn high_bits_mixed_too() {
        // hashbrown's control tag uses the top 7 bits.
        let mut seen = [false; 128];
        for line in 0..4096u64 {
            seen[(hash(line * 64) >> 57) as usize] = true;
        }
        assert!(seen.iter().filter(|&&s| s).count() > 120);
    }
}
