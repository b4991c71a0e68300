//! FNV-1a: the stable hash that picks engine shards (it must agree across
//! processes and runs), and the deterministic hasher of the hash maps on
//! the data path, where SipHash cost more than the lookups it served.

use std::hash::{BuildHasherDefault, Hasher};

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(OFFSET, |h, b| (h ^ u64::from(*b)).wrapping_mul(PRIME))
}

/// FNV-1a as a [`Hasher`], folding an integer in one step. `finish` folds
/// the high half into the low bits a table indexes by: FNV's low bits
/// depend only on its input's low bits, so every key of one `fnv1a % n`
/// shard would otherwise start its probe in the same few buckets.
pub struct Fnv1aHasher(u64);

impl Default for Fnv1aHasher {
    fn default() -> Self {
        Fnv1aHasher(OFFSET)
    }
}

impl Hasher for Fnv1aHasher {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.write_u64(u64::from(*b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(PRIME);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Deterministic `BuildHasher` for `HashMap` / `HashSet`.
pub type FnvBuildHasher = BuildHasherDefault<Fnv1aHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
