//! A fast, deterministic hasher for simulator-internal maps.
//!
//! The simulator's hot loops index small maps by line address, link id, or
//! short counter name millions of times per run. The standard library's
//! SipHash is DoS-resistant but costs tens of nanoseconds per short key;
//! none of these maps are exposed to untrusted input, so we use an
//! FxHash-style multiply-xor hasher instead. The hash is fully
//! deterministic (no per-process seed), which also keeps reruns of the
//! simulator byte-for-byte reproducible.
//!
//! The finalizer is a rotation that brings the product's high half down to
//! the low bits. A multiply only carries information upwards, so the low
//! bits of `key × K` are the low bits of `key`; nearly every map on the
//! per-line walk is keyed by a 64-byte-aligned line address, whose low six
//! bits are zero, and `hashbrown` picks the bucket from the low bits — left
//! unfolded, every probe would start at one bucket in 64.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash family (Firefox / rustc): a random-ish odd
/// 64-bit constant with a good avalanche when combined with a rotate.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style streaming hasher: word-at-a-time rotate-xor-multiply.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab\0" and "ab" cannot collide trivially.
            self.mix(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// A deterministic 128-bit content hash for fingerprints that live on disk.
///
/// [`FxHasher`] is tuned for map lookups; cache keys and workload
/// fingerprints need something stronger: they name files under
/// `results/cache/` and travel across processes (the `sweepd` protocol
/// verifies workload identity by fingerprint), so the hash must be stable
/// across runs, platforms, and compilers, and wide enough that collisions
/// are never a practical concern. Two independent mix lanes with distinct
/// odd multipliers feed a final avalanche; every input is folded word-at-a-
/// time with explicit little-endian widths, so `usize` never leaks in.
#[derive(Debug, Clone)]
pub struct StableHash {
    a: u64,
    b: u64,
    len: u64,
}

impl Default for StableHash {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHash {
    /// Multiplier for the second lane (first lane reuses [`K`]): another
    /// random-ish odd constant, from the splitmix64 family.
    const K2: u64 = 0x9E37_79B9_7F4A_7C15;

    /// A fresh hasher with fixed initial values.
    pub fn new() -> Self {
        Self { a: 0x6c62_272e_07bb_0142, b: 0x62b8_2175_6295_c58d, len: 0 }
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.a = (self.a.rotate_left(5) ^ word).wrapping_mul(K);
        self.b = (self.b.rotate_left(29) ^ word).wrapping_mul(Self::K2);
        self.len = self.len.wrapping_add(1);
    }

    /// Fold one `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.mix(v);
    }

    /// Fold one `f64` by bit pattern (`-0.0` and `0.0` stay distinct — a
    /// fingerprint must see every representational difference).
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.mix(v.to_bits());
    }

    /// Fold a byte slice, length-prefixed so concatenations cannot collide.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.mix(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(tail));
        }
    }

    /// Fold a string (length-prefixed UTF-8 bytes).
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Fold a slice of `u64`s.
    pub fn u64s(&mut self, vs: &[u64]) {
        self.mix(vs.len() as u64);
        for &v in vs {
            self.mix(v);
        }
    }

    /// Fold a slice of `u32`s (widened; width is part of the digest via the
    /// distinct length prefix path).
    pub fn u32s(&mut self, vs: &[u32]) {
        self.mix(vs.len() as u64);
        for &v in vs {
            self.mix(v as u64);
        }
    }

    /// Fold a slice of `f64`s by bit pattern.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.mix(vs.len() as u64);
        for &v in vs {
            self.mix(v.to_bits());
        }
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        // Final avalanche (splitmix64-style) on each lane, cross-fed so the
        // lanes cannot cancel.
        let mut x = self.a ^ self.len.wrapping_mul(Self::K2);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let mut y = self.b ^ x;
        y = (y ^ (y >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        y = (y ^ (y >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        y ^= y >> 31;
        ((x as u128) << 64) | y as u128
    }

    /// The digest as 32 lowercase hex digits — the on-disk spelling.
    pub fn finish_hex(&self) -> String {
        format!("{:032x}", self.finish())
    }
}

/// A `HashMap` keyed with [`FxHasher`] — drop-in for simulator-internal maps.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(b"l1.miss"), hash_of(b"l1.miss"));
        let mut a = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        let mut b = FxHasher::default();
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_close_keys() {
        assert_ne!(hash_of(b"l1.miss"), hash_of(b"l2.miss"));
        assert_ne!(hash_of(b"ab"), hash_of(b"ab\0"));
        let mut a = FxHasher::default();
        a.write_u64(64);
        let mut b = FxHasher::default();
        b.write_u64(128);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fast_map_works_like_hashmap() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 64, i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(512 * 64)), Some(&512));
        assert_eq!(m.remove(&0), Some(0));
        assert!(!m.contains_key(&0));
    }

    #[test]
    fn stable_hash_is_order_and_boundary_sensitive() {
        let digest = |f: &dyn Fn(&mut StableHash)| {
            let mut h = StableHash::new();
            f(&mut h);
            h.finish()
        };
        assert_eq!(digest(&|h| h.str("abc")), digest(&|h| h.str("abc")));
        assert_ne!(digest(&|h| h.str("abc")), digest(&|h| h.str("abd")));
        // Length prefixing: "ab"+"c" must differ from "a"+"bc".
        assert_ne!(
            digest(&|h| {
                h.str("ab");
                h.str("c");
            }),
            digest(&|h| {
                h.str("a");
                h.str("bc");
            })
        );
        assert_ne!(digest(&|h| h.u64(1)), digest(&|h| h.u64(2)));
        assert_ne!(digest(&|h| h.f64(0.0)), digest(&|h| h.f64(-0.0)));
        assert_ne!(digest(&|h| h.u64s(&[1, 2])), digest(&|h| h.u64s(&[2, 1])));
        assert_ne!(digest(&|h| h.u32s(&[7])), digest(&|h| h.u32s(&[7, 0])));
    }

    #[test]
    fn stable_hash_known_answer_pins_cross_version_stability() {
        // Cache entries persist across processes and PRs: the digest of a
        // fixed input is pinned so an accidental algorithm change (which
        // would silently orphan every cached result) fails loudly here.
        let mut h = StableHash::new();
        h.str("sdv");
        h.u64(42);
        assert_eq!(h.finish_hex(), "91a0dab9a3ac16edc6507400cf52650e");
        let mut h = StableHash::new();
        h.u64s(&[1, 2, 3]);
        h.bytes(b"longvec-sdv");
        assert_eq!(h.finish_hex(), "f8af65efa0813283aff53ff0c17246ca");
    }

    #[test]
    fn line_aligned_keys_spread_over_low_bits() {
        // hashbrown picks the bucket from the low bits of `finish()`. Line
        // addresses (64·n), page-strided addresses (4096·n) and plain
        // indices must each reach a healthy share of 1,024 buckets; an ideal
        // hash reaches about 647 of them with 1,024 keys.
        for stride in [64u64, 4096, 1] {
            let mut buckets = FastSet::default();
            for n in 0..1024u64 {
                let mut h = FxHasher::default();
                h.write_u64(n * stride);
                buckets.insert(h.finish() & 1023);
            }
            assert!(buckets.len() >= 400, "stride {stride}: {} of 1024 buckets", buckets.len());
        }
    }

    #[test]
    fn fast_set_works() {
        let mut s: FastSet<&str> = FastSet::default();
        assert!(s.insert("a"));
        assert!(!s.insert("a"));
        assert!(s.contains("a"));
    }
}
