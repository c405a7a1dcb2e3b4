//! A multiplicative hasher for the integer keys the simulator generates.
//!
//! Cache-line indices, version granules and similar keys are plain `u64`s
//! chosen by the simulator itself, so SipHash's flooding resistance buys
//! nothing on them. One multiply per key does. Maps keyed this way must
//! never be iterated where the order could reach an output.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (2^64 / φ, rounded to odd).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The [`Hasher`] behind [`IdHash`]: each written word is mixed in by a
/// folded multiply (the 128-bit product's halves xored), so every input
/// bit reaches both the low bits that pick a bucket and the high bits
/// that tag it.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * u128::from(MUL);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hasher builder for maps keyed by simulator-generated integers.
///
/// # Examples
///
/// ```
/// use pulse_sim::IdHash;
/// use std::collections::HashMap;
///
/// let mut lines: HashMap<u64, u32, IdHash> = HashMap::default();
/// lines.insert(0x40, 7);
/// assert_eq!(lines.get(&0x40), Some(&7));
/// ```
pub type IdHash = BuildHasherDefault<IdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::BuildHasher;

    /// Dense keys (consecutive lines) and strided ones (only high bits
    /// differ) both spread over the low bucket bits and the high tag bits.
    #[test]
    fn dense_and_strided_keys_spread() {
        for shift in [0, 12, 40] {
            let hashes: Vec<u64> = (0..64u64)
                .map(|k| IdHash::default().hash_one(k << shift))
                .collect();
            let low: BTreeSet<u64> = hashes.iter().map(|h| h & 63).collect();
            let high: BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(low.len() > 32, "shift {shift}: {} low buckets", low.len());
            assert!(high.len() > 32, "shift {shift}: {} high tags", high.len());
        }
    }
}
