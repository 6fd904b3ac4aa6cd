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

/// Independent lanes of [`StableHash`]'s bulk folds: one 64-byte stripe.
const LANES: usize = 8;

/// Stripes the bulk fold accumulates between two scrambles of its lanes.
const STRIPES: usize = 16;

/// The bulk fold's keys, a sliding window: stripe `s` of a block reads words
/// `s..s + LANES`, the scramble words `STRIPES..STRIPES + LANES`. Splitmix64
/// output from a fixed seed, computed at compile time.
const KEYS: [u64; STRIPES + LANES] = {
    let mut keys = [0; STRIPES + LANES];
    let mut state = 0x5344_565f_4b45_5953; // "SDV_KEYS"
    let mut i = 0;
    while i < keys.len() {
        keys[i] = crate::rng::splitmix64(&mut state);
        i += 1;
    }
    keys
};

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
///
/// The bulk folds [`u32s`](Self::u32s) and [`f64s`](Self::f64s) carry the
/// workload fingerprint's megabytes of input arrays. One `mix` chain costs a
/// dependent 64-bit multiply per word, so they fold 64-byte stripes into
/// eight lanes that each add a keyed 32×32→64 product per word, an
/// XXH3-style accumulate that compiles to vector multiplies. It still sees
/// every word: a changed word moves its neighbour lane by a translation,
/// and the periodic scramble of the lanes is a bijection.
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

    /// Fold a slice of `u32`s: length-prefixed, then two elements to a
    /// little-endian word through the eight lanes, the last fewer than
    /// sixteen elements widened one by one.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.mix(vs.len() as u64);
        let mut blocks = vs.chunks_exact(2 * LANES);
        self.fold_blocks(
            blocks
                .by_ref()
                .map(|b| std::array::from_fn(|i| b[2 * i] as u64 | (b[2 * i + 1] as u64) << 32)),
        );
        for &v in blocks.remainder() {
            self.mix(v as u64);
        }
    }

    /// Fold a slice of `f64`s by bit pattern: length-prefixed, then eight
    /// elements at a time through the eight lanes, the last fewer than eight
    /// one by one.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.mix(vs.len() as u64);
        let mut blocks = vs.chunks_exact(LANES);
        self.fold_blocks(blocks.by_ref().map(|b| std::array::from_fn(|i| b[i].to_bits())));
        for &v in blocks.remainder() {
            self.mix(v.to_bits());
        }
    }

    /// Fold stripes of eight words into eight independent lanes, then each
    /// lane into the running state through [`Self::mix`], in lane order.
    ///
    /// Lane `i` adds its neighbour's word `w[i ^ 1]` and the 32×32→64
    /// product of the halves of `w[i] ^ key[i]`, where stripe `s` of every
    /// block of [`STRIPES`] reads its own key window of [`KEYS`]; after each
    /// whole block every lane is scrambled (`x ^= x >> 47`, xor a key, times
    /// an odd constant). Every word is still seen: changing one word moves
    /// its neighbour lane by a translation, and the scramble is a bijection,
    /// so that lane ends different and so does the digest. Per-stripe keys
    /// keep the sum from commuting: equal words swapped between two stripes
    /// of one lane meet different keys. Lanes start from the running state,
    /// each at a distinct offset, and `mix`'s order sensitivity keeps a swap
    /// between lanes visible. Nothing chains from one stripe to the next but
    /// an add, so the stripe loop runs as vector multiplies at the speed of
    /// the loads.
    fn fold_blocks(&mut self, stripes: impl Iterator<Item = [u64; LANES]>) {
        let mut acc: [u64; LANES] =
            std::array::from_fn(|i| self.a ^ self.b.wrapping_add(i as u64).wrapping_mul(Self::K2));
        // One flat loop, the key window picked by `n % STRIPES`: written as a
        // loop over blocks around a 16-stripe loop, LLVM vectorizes across
        // stripes instead, with a transpose per stripe, and runs ~30 % slower.
        for (n, w) in stripes.enumerate() {
            let s = n % STRIPES;
            let key = &KEYS[s..s + LANES];
            for i in 0..LANES {
                let dk = w[i] ^ key[i];
                acc[i] =
                    acc[i].wrapping_add(w[i ^ 1]).wrapping_add((dk & 0xFFFF_FFFF) * (dk >> 32));
            }
            if s == STRIPES - 1 {
                for (x, k) in acc.iter_mut().zip(&KEYS[STRIPES..]) {
                    *x = (*x ^ (*x >> 47) ^ k).wrapping_mul(Self::K2);
                }
            }
        }
        for lane in acc {
            self.mix(lane);
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
        // Every cache key also carries `build_info()`, so a new build starts
        // cold whatever the digest does. What the pins guard is agreement
        // within one build: a `sweepd` client and server compare workload
        // fingerprints, and each may run on another platform or come from
        // another compiler, so the digest of a fixed input must not depend
        // on either.
        let mut h = StableHash::new();
        h.str("sdv");
        h.u64(42);
        assert_eq!(h.finish_hex(), "91a0dab9a3ac16edc6507400cf52650e");
        let mut h = StableHash::new();
        h.u64s(&[1, 2, 3]);
        h.bytes(b"longvec-sdv");
        assert_eq!(h.finish_hex(), "f8af65efa0813283aff53ff0c17246ca");
    }

    fn u32s_of(vs: &[u32]) -> u128 {
        let mut h = StableHash::new();
        h.u32s(vs);
        h.finish()
    }

    fn f64s_of(vs: &[f64]) -> u128 {
        let mut h = StableHash::new();
        h.f64s(vs);
        h.finish()
    }

    /// Lengths either side of one stripe (16 `u32`s, 8 `f64`s), of one
    /// block of sixteen stripes, after which the lanes are scrambled (256
    /// `u32`s, 128 `f64`s), and one long slice, pinned like the digests above.
    #[test]
    fn bulk_fold_known_answers_straddle_the_lane_block() {
        let pins: [(usize, &str, &str); 15] = [
            (0, "02cfa43b8908c4ecae182fbeb4e2bc0d", "02cfa43b8908c4ecae182fbeb4e2bc0d"),
            (1, "065595601fb7de0c9665680e7c5a5ab0", "44a19083f3b3a381b253d13f2184f528"),
            (7, "ae5cf98a35be3c73b9f3a3133cb65b57", "4494ad1662d43354ac39eb5ea13d4e1a"),
            (8, "12e8ae7bf33d76d754829429a158cce3", "d1fd8e696f92faab68e7d4201ab879c1"),
            (9, "7ea46831754c867784d1c70bd79d2a54", "50fa3ca330ac646b8eea5f632cabe41b"),
            (15, "eb707fb8d7f9b3d0412cfac106dfdaa6", "bcd3b9597a00ca8b2ea5b2058b565eb7"),
            (16, "d5c885afa011ef5825d29880313f5b33", "356a1b0910644b2e83500158232e9b72"),
            (17, "7a5bcd67e644bc3ea97a49250c950fdf", "a0aac2b7a4e833f084d6f612202e0a74"),
            (127, "1762bb5bb440d73c9e8ed862c9d7fb61", "f6221f1a3dba7c24e1b8d4a7ddf7634f"),
            (128, "3512c2a08e7a68c05f6ea50403c0d0fd", "5796b19004fed186546c47ee4fa6bb52"),
            (129, "fce05933251577154f390a80efa794d0", "8bac03bfeef2808d3a65a10ace6c8d91"),
            (255, "57dfaa1da76294d3d637fc4e239aaccb", "f3587f7e7b6020890151109e10c1cd43"),
            (256, "3b878e79084f1840a601dc9ba7493ea6", "a060c8a03997d3b9fdbeea3a4ba07640"),
            (257, "ab7456b84cb7d8cf3854912c2a4050cc", "38bc1392f4bee27b1213ec2052cb907d"),
            (1000, "8d924ff58a1389111822c1b6d16686af", "f3bdab6a0c7173f2a3f99d5fbb04c213"),
        ];
        for (len, want_u32s, want_f64s) in pins {
            let u: Vec<u32> = (0..len as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            let f: Vec<f64> = (0..len).map(|i| i as f64 * 0.75 - 3.5).collect();
            assert_eq!(format!("{:032x}", u32s_of(&u)), want_u32s, "u32s, {len} elements");
            assert_eq!(format!("{:032x}", f64s_of(&f)), want_f64s, "f64s, {len} elements");
        }
    }

    /// Every bit of every element reaches the digest: 500 seeded single-bit
    /// flips in a 100k-element slice of each type each change it.
    #[test]
    fn every_single_bit_flip_changes_a_bulk_digest() {
        let mut rng = crate::Rng::new(0xF11B);
        let mut u: Vec<u32> = (0..100_000).map(|_| rng.next_u64() as u32).collect();
        let mut f: Vec<f64> = (0..100_000).map(|_| rng.range_f64(-1e3, 1e3)).collect();
        let (u0, f0) = (u32s_of(&u), f64s_of(&f));
        for _ in 0..500 {
            let (at, bit) = (rng.index(u.len()), rng.below(32));
            u[at] ^= 1 << bit;
            assert_ne!(u32s_of(&u), u0, "u32s: bit {bit} of element {at}");
            u[at] ^= 1 << bit;
            let (at, bit) = (rng.index(f.len()), rng.below(64));
            f[at] = f64::from_bits(f[at].to_bits() ^ 1 << bit);
            assert_ne!(f64s_of(&f), f0, "f64s: bit {bit} of element {at}");
            f[at] = f64::from_bits(f[at].to_bits() ^ 1 << bit);
        }
        assert_eq!((u32s_of(&u), f64s_of(&f)), (u0, f0));
    }

    /// Lanes fold back in order, so moving words between lanes, or between
    /// a lane and the tail, is visible.
    #[test]
    fn swapping_elements_across_lanes_changes_a_bulk_digest() {
        let u: Vec<u32> = (0..40).collect();
        let f: Vec<f64> = (0..20).map(f64::from).collect();
        // u32 i sits in lane (i / 2) % 8 of a block, f64 i in lane i % 8;
        // u32s 32.. and f64s 16.. are the tail.
        for (i, j) in [(0, 2), (3, 12), (1, 15), (5, 19), (14, 33)] {
            let mut v = u.clone();
            v.swap(i, j);
            assert_ne!(u32s_of(&v), u32s_of(&u), "u32s: swap {i} and {j}");
        }
        for (i, j) in [(0, 1), (2, 7), (3, 12), (6, 17)] {
            let mut v = f.clone();
            v.swap(i, j);
            assert_ne!(f64s_of(&v), f64s_of(&f), "f64s: swap {i} and {j}");
        }
    }

    /// Each stripe of a block meets its own key, so the same lane's words
    /// swapped between two stripes, inside one block or across the scramble,
    /// are visible: with one key for every stripe the lane sum would commute.
    #[test]
    fn swapping_elements_across_stripes_changes_a_bulk_digest() {
        let u: Vec<u32> = (0..700).map(|i: u32| i.wrapping_mul(0x9E37_79B9)).collect();
        let f: Vec<f64> = (0..400).map(|i| i as f64 * 0.75 - 3.5).collect();
        let (u0, f0) = (u32s_of(&u), f64s_of(&f));
        for j in [0, 1, 6, 15] {
            for k in 1..=40 {
                let mut v = u.clone();
                v.swap(j, j + 16 * k);
                assert_ne!(u32s_of(&v), u0, "u32s: swap {j} and {}", j + 16 * k);
            }
        }
        for j in [0, 3, 7] {
            for k in 1..=40 {
                let mut v = f.clone();
                v.swap(j, j + 8 * k);
                assert_ne!(f64s_of(&v), f0, "f64s: swap {j} and {}", j + 8 * k);
            }
        }
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
