//! FNV-1a: the stable hash that picks engine shards (it must agree across
//! processes and runs), and the deterministic hasher of the hash maps on
//! the data path, where SipHash cost more than the lookups it served.

use std::borrow::Borrow;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::num::NonZeroU8;

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

/// The key of the hash maps on the data path: up to 23 bytes sit inside it
/// (in a map's bucket, or on the stack), so a probe compares bytes it has
/// loaded; a longer string goes on the heap. Hashes, compares and borrows
/// as its `str`, so a map keyed on it is queried with a `&str`.
#[derive(Clone, PartialEq, Eq)]
pub struct ShortKey(Repr);

/// Equal strings are equal values: the length picks the variant, and the
/// bytes past an inline string's end are zero. `end` is the length plus
/// one, a `NonZeroU8` whose niche tells `Heap`: the key is 24 bytes wide.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Inline { bytes: [u8; 23], end: NonZeroU8 },
    Heap(Box<str>),
}

impl ShortKey {
    pub fn new(s: &str) -> Self {
        if s.len() > 23 {
            return ShortKey(Repr::Heap(s.into()));
        }
        let mut bytes = [0; 23];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        let end = NonZeroU8::MIN.saturating_add(s.len() as u8);
        ShortKey(Repr::Inline { bytes, end })
    }

    pub fn as_str(&self) -> &str {
        match &self.0 {
            // Whole `str`s joined: the check always passes.
            Repr::Inline { bytes, end } => {
                std::str::from_utf8(&bytes[..usize::from(end.get()) - 1]).unwrap_or_default()
            }
            Repr::Heap(s) => s,
        }
    }
}

impl std::ops::Deref for ShortKey {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for ShortKey {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl Hash for ShortKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn short_keys_stay_inline_and_long_ones_round_trip() {
        assert_eq!(std::mem::size_of::<ShortKey>(), 24);
        let at_limit = "k".repeat(23);
        let over = "k".repeat(24);
        for (key, inline) in [
            ("", true),
            ("k0000042@v7", true),
            (&at_limit, true),
            (&over, false),
        ] {
            let short = ShortKey::new(key);
            assert_eq!(short.as_str(), key);
            assert_eq!(matches!(short.0, Repr::Inline { .. }), inline, "{key:?}");
        }
        assert_eq!(ShortKey::new("é€").as_str(), "é€");
    }

    #[test]
    fn a_map_keyed_on_short_keys_is_queried_with_str() {
        let long = "a-key-that-does-not-fit-inline";
        let mut map: HashMap<ShortKey, u32, FnvBuildHasher> = HashMap::default();
        map.insert(ShortKey::new("short"), 1);
        map.insert(ShortKey::new(long), 2);
        assert_eq!(map.get("short"), Some(&1));
        assert_eq!(map.get(long), Some(&2));
        assert_eq!(map.get("shorter"), None);
        let mut keys: Vec<&str> = map.keys().map(ShortKey::as_str).collect();
        keys.sort();
        assert_eq!(keys, [long, "short"]);
    }

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
