//! A seeded multiply-fold hasher for the diagnosis graph's interning
//! tables.
//!
//! Every hop of every probed path is looked up in the node and edge
//! tables, so the hash is on the request path. SipHash (std's default)
//! costs several times a multiply per key; an unseeded multiply-xor hash
//! (FxHash) is cheap but maps keys that differ only in their high bits —
//! addresses from one prefix — to the same low bits, i.e. the same bucket,
//! so a crafted snapshot could make interning quadratic. This hasher folds
//! a 64×64→128 multiply (high word xor low word) per written word and once
//! more on `finish`, under two keys drawn once per process from
//! [`RandomState`]. The fold carries every input bit into the low output
//! bits; the finishing round is needed because after one round the high
//! product word is still nearly linear in keys that differ only in a
//! narrow bit window (such keys reached as few as ~6,500 distinct low-16
//! values in 65,536 without it). The tables are only ever looked up, never
//! iterated, so the seed cannot change any id or output.

use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// `BuildHasher` for [`SeededHasher`], carrying the process keys.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SeededState {
    k0: u64,
    k1: u64,
}

impl Default for SeededState {
    fn default() -> Self {
        static KEYS: OnceLock<(u64, u64)> = OnceLock::new();
        let &(k0, k1) = KEYS.get_or_init(|| {
            let s = RandomState::new();
            // Odd multiplier: a multiply by it is a bijection.
            (s.hash_one(0u64), s.hash_one(1u64) | 1)
        });
        SeededState { k0, k1 }
    }
}

impl BuildHasher for SeededState {
    type Hasher = SeededHasher;

    fn build_hasher(&self) -> SeededHasher {
        SeededHasher {
            h: self.k0,
            k0: self.k0,
            k1: self.k1,
        }
    }
}

/// The streaming state: one folded multiply per written word, one more
/// on `finish`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SeededHasher {
    h: u64,
    k0: u64,
    k1: u64,
}

impl Hasher for SeededHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.h = fold(self.h ^ x, self.k1);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_isize(&mut self, x: isize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        fold(self.h, self.k0 | 1)
    }
}

/// The high and low words of the 128-bit product, xored.
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// A `HashMap` keyed through [`SeededState`].
pub(crate) type SeededMap<K, V> = std::collections::HashMap<K, V, SeededState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::net::Ipv4Addr;

    /// 65,536 keys that differ only in their high 16 bits, as the numeric
    /// value and as an address.
    fn high_bit_keys() -> impl Iterator<Item = u32> {
        (0u32..1 << 16).map(|i| (i << 16) | 0x0a01)
    }

    fn low16_distinct(hashes: impl Iterator<Item = u64>) -> usize {
        hashes.map(|h| h & 0xffff).collect::<BTreeSet<_>>().len()
    }

    #[test]
    fn high_bit_keys_spread_over_the_low_bits() {
        let s = SeededState::default();
        // A uniform random function lands on ~41,400 of the 65,536 values
        // (over 300 key draws, the fewest seen was ~41,200).
        let ints = low16_distinct(high_bit_keys().map(|x| s.hash_one(x)));
        assert!(ints >= 35_000, "u32 keys: {ints} distinct low-16 values");
        let addrs = low16_distinct(high_bit_keys().map(|x| s.hash_one(Ipv4Addr::from(x))));
        assert!(addrs >= 35_000, "addresses: {addrs} distinct low-16 values");
        // The unseeded multiplicative hash this guards against collapses
        // them all into one bucket.
        let fx = low16_distinct(
            high_bit_keys().map(|x| u64::from(x).wrapping_mul(0x517c_c1b7_2722_0a95)),
        );
        assert_eq!(fx, 1);
    }

    #[test]
    fn states_of_one_process_agree() {
        let (a, b) = (SeededState::default(), SeededState::default());
        assert_eq!(a.hash_one((7u32, 9u64)), b.hash_one((7u32, 9u64)));
        assert_ne!(a.hash_one(1u32), a.hash_one(2u32));
    }
}
