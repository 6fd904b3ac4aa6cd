//! Statistics collection.
//!
//! Every hardware model reports into a [`Stats`] registry: flat named
//! counters plus optional histograms. The registry is intentionally simple —
//! string keys, u64 values — so benches and tests can assert on any metric
//! without plumbing typed accessors through the machine.
//!
//! Components keep their own counters as plain struct fields and build one
//! registry per cell, when a report is assembled; the registry's traffic is
//! a cached result being read back (the cache, the `sweepd` wire, the
//! sweeper's memo), cloned and walked in name order. So it is laid out for
//! that: the names sit in one arena `String`, the counters in a `Vec` sorted
//! by name, and the histograms in a name-sorted `Vec`. A registry filled in
//! name order (every decoder, which reads what [`Stats::iter`] wrote) appends,
//! `iter` needs no sort, `clone` copies two buffers, and [`Stats::absorb`]
//! merges two sorted runs in one pass.

use std::fmt;

/// A fixed-bucket histogram over u64 samples.
///
/// Buckets are caller-defined upper bounds (inclusive); samples above the
/// last bound land in an overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    samples: u64,
    sum: u64,
    max: u64,
}

/// Default histogram bounds: one bucket per power of two, uniform in log2.
pub const DEFAULT_POW2_BOUNDS: [u64; 15] =
    [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384];

impl Histogram {
    /// A histogram with the given inclusive upper bounds, which must be
    /// strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must increase");
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            samples: 0,
            sum: 0,
            max: 0,
        }
    }

    /// A histogram over [`DEFAULT_POW2_BOUNDS`] (the ladder
    /// [`Stats::record`] uses for histograms it creates on first sample).
    pub fn default_pow2() -> Self {
        Self::new(&DEFAULT_POW2_BOUNDS)
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.samples += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Mean of all samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    /// Maximum sample seen (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Count in bucket `i` (the bucket after the last bound is the overflow).
    pub fn bucket(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// The inclusive upper bounds this histogram buckets into.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Fold another histogram's samples into this one. Both histograms must
    /// have identical bounds — merging differently-shaped histograms would
    /// silently misbucket, so that is a caller bug.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "cannot merge histograms with different bounds");
        for (c, &o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.samples += other.samples;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// A registry of named counters and histograms, kept in name (byte) order.
///
/// Counter names live back to back in one arena `String`; each counter is an
/// `Entry` pointing into it, and the entries are sorted by name. Histograms
/// sit in a name-sorted `Vec`.
#[derive(Default, Clone)]
pub struct Stats {
    keys: String,
    counters: Vec<Entry>,
    histograms: Vec<(String, Histogram)>,
}

/// One counter: its name is `keys[at..at + len]`.
#[derive(Clone, Copy)]
struct Entry {
    at: u32,
    len: u32,
    value: u64,
}

impl Stats {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn name(&self, e: &Entry) -> &str {
        &self.keys[e.at as usize..(e.at + e.len) as usize]
    }

    /// Copy `key` into the arena and return an entry for it.
    fn intern(&mut self, key: &str, value: u64) -> Entry {
        self.keys.push_str(key);
        let end = u32::try_from(self.keys.len()).expect("a registry's names fit in 4 GiB");
        // `key.len() <= end`, so the cast is lossless and `at + len` cannot overflow.
        let len = key.len() as u32;
        Entry { at: end - len, len, value }
    }

    /// The position of `key`, or where it would be inserted.
    fn find(&self, key: &str) -> Result<usize, usize> {
        self.counters.binary_search_by(|e| self.name(e).cmp(key))
    }

    /// Counter `key`, created at zero if absent. A key that sorts after
    /// every existing one (the common case when a registry is filled in name
    /// order) is an append; any other new key is inserted in place.
    fn slot(&mut self, key: &str) -> &mut u64 {
        let found = match self.counters.last() {
            Some(last) if self.name(last) >= key => self.find(key),
            _ => Err(self.counters.len()),
        };
        let i = found.unwrap_or_else(|i| {
            let e = self.intern(key, 0);
            self.counters.insert(i, e);
            i
        });
        &mut self.counters[i].value
    }

    fn histogram_slot(&self, key: &str) -> Result<usize, usize> {
        self.histograms.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    /// Add `n` to counter `key`, creating it at zero if absent.
    #[inline]
    pub fn add(&mut self, key: &str, n: u64) {
        *self.slot(key) += n;
    }

    /// Increment counter `key`.
    #[inline]
    pub fn inc(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Set counter `key` to an absolute value (for gauges like final cycle count).
    pub fn set(&mut self, key: &str, v: u64) {
        *self.slot(key) = v;
    }

    /// Read counter `key` (0 if never touched).
    pub fn get(&self, key: &str) -> u64 {
        self.find(key).map_or(0, |i| self.counters[i].value)
    }

    /// Record a histogram sample, creating the histogram with the
    /// [`DEFAULT_POW2_BOUNDS`] ladder on first use.
    pub fn record(&mut self, key: &str, v: u64) {
        let i = self.histogram_slot(key).unwrap_or_else(|i| {
            self.histograms.insert(i, (key.to_string(), Histogram::default_pow2()));
            i
        });
        self.histograms[i].1.record(v);
    }

    /// Install (or merge into) a histogram under `key`. Used by components
    /// that accumulate their own [`Histogram`] off the string-keyed path and
    /// publish it when a report is assembled.
    pub fn put_histogram(&mut self, key: &str, h: &Histogram) {
        match self.histogram_slot(key) {
            Ok(i) => self.histograms[i].1.merge(h),
            Err(i) => self.histograms.insert(i, (key.to_string(), h.clone())),
        }
    }

    /// Access a histogram by name.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histogram_slot(key).ok().map(|i| &self.histograms[i].1)
    }

    /// Iterate counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|e| (self.name(e), e.value))
    }

    /// Merge another registry into this one: counters add, and histograms
    /// that exist on both sides are merged sample-for-sample (they must have
    /// identical bounds). Sweeper shards absorb into one registry, so
    /// dropping either side's samples would silently lose data.
    ///
    /// Both counter lists are sorted, so they merge in one pass.
    pub fn absorb(&mut self, other: &Stats) {
        let mut merged = Vec::with_capacity(self.counters.len() + other.counters.len());
        let mut mine = std::mem::take(&mut self.counters).into_iter().peekable();
        for theirs in &other.counters {
            let key = other.name(theirs);
            while let Some(e) = mine.next_if(|e| self.name(e) < key) {
                merged.push(e);
            }
            match mine.next_if(|e| self.name(e) == key) {
                Some(mut e) => {
                    e.value += theirs.value;
                    merged.push(e);
                }
                None => merged.push(self.intern(key, theirs.value)),
            }
        }
        merged.extend(mine);
        self.counters = merged;
        for (k, h) in &other.histograms {
            self.put_histogram(k, h);
        }
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.counters.clear();
        self.histograms.clear();
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:<48} {v}")?;
        }
        for (k, h) in &self.histograms {
            writeln!(f, "{k:<48} n={} mean={:.2} max={}", h.samples(), h.mean(), h.max())?;
        }
        Ok(())
    }
}

impl fmt::Debug for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.iter())
            .entries(self.histograms.iter().map(|(k, h)| (k, h)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_counters_accumulate() {
        let mut s = Stats::new();
        s.inc("l1.miss");
        s.add("l1.miss", 9);
        assert_eq!(s.get("l1.miss"), 10);
        assert_eq!(s.get("never"), 0);
    }

    #[test]
    fn stats_set_overwrites() {
        let mut s = Stats::new();
        s.add("cycles", 5);
        s.set("cycles", 100);
        assert_eq!(s.get("cycles"), 100);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(&[10, 20, 30]);
        h.record(5); // bucket 0 (<=10)
        h.record(10); // bucket 0
        h.record(11); // bucket 1
        h.record(30); // bucket 2
        h.record(31); // overflow
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(2), 1);
        assert_eq!(h.bucket(3), 1);
        assert_eq!(h.samples(), 5);
        assert_eq!(h.max(), 31);
        assert!((h.mean() - 17.4).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bounds must increase")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[10, 10]);
    }

    #[test]
    fn absorb_adds_counters() {
        let mut a = Stats::new();
        a.add("x", 1);
        let mut b = Stats::new();
        b.add("x", 2);
        b.add("y", 3);
        a.absorb(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
    }

    #[test]
    fn default_ladder_is_uniform_in_log2() {
        let mut s = Stats::new();
        s.record("lat", 3);
        let h = s.histogram("lat").unwrap();
        assert_eq!(
            h.bounds(),
            &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384],
            "default ladder must have one bucket per power of two"
        );
        assert!(h.bounds().windows(2).all(|w| w[1] == 2 * w[0]), "spacing uniform in log2");
    }

    #[test]
    fn absorb_merges_duplicate_histograms() {
        // Two sweeper shards record into the same key; the merged registry
        // must hold every sample from both sides.
        let mut a = Stats::new();
        a.record("mem.occupancy", 4);
        a.record("mem.occupancy", 100);
        let mut b = Stats::new();
        b.record("mem.occupancy", 4);
        b.record("mem.occupancy", 9000);
        a.absorb(&b);
        let h = a.histogram("mem.occupancy").unwrap();
        assert_eq!(h.samples(), 4, "absorb must not drop the other shard's samples");
        assert_eq!(h.max(), 9000);
        assert!((h.mean() - (4.0 + 100.0 + 4.0 + 9000.0) / 4.0).abs() < 1e-9);
        let four = h.bounds().iter().position(|&b| b == 4).unwrap();
        assert_eq!(h.bucket(four), 2, "per-bucket counts add");
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1, 2]);
        a.merge(&Histogram::new(&[1, 2, 4]));
    }

    #[test]
    fn put_histogram_installs_and_merges() {
        let mut s = Stats::new();
        let mut h = Histogram::default_pow2();
        h.record(7);
        s.put_histogram("vpu.occ", &h);
        s.put_histogram("vpu.occ", &h);
        assert_eq!(s.histogram("vpu.occ").unwrap().samples(), 2);
    }

    #[test]
    fn display_includes_all_keys() {
        let mut s = Stats::new();
        s.add("alpha", 1);
        s.record("lat", 12);
        let out = s.to_string();
        assert!(out.contains("alpha"));
        assert!(out.contains("lat"));
    }

    /// What a [`Stats`] should hold: counters and, per histogram, its
    /// (samples, sum, max), each keyed in name order.
    #[derive(Default, Clone)]
    struct Model {
        counters: std::collections::BTreeMap<String, u64>,
        hists: std::collections::BTreeMap<String, (u64, u64, u64)>,
    }

    impl Model {
        fn sample(&mut self, key: &str, samples: u64, sum: u64, max: u64) {
            let h = self.hists.entry(key.to_string()).or_default();
            *h = (h.0 + samples, h.1 + sum, h.2.max(max));
        }

        fn absorb(&mut self, other: &Model) {
            for (k, v) in &other.counters {
                *self.counters.entry(k.clone()).or_default() += v;
            }
            for (k, &(n, sum, max)) in &other.hists {
                self.sample(k, n, sum, max);
            }
        }

        fn display(&self) -> String {
            let mut out = String::new();
            for (k, v) in &self.counters {
                out += &format!("{k:<48} {v}\n");
            }
            for (k, &(n, sum, max)) in &self.hists {
                let mean = if n == 0 { 0.0 } else { sum as f64 / n as f64 };
                out += &format!("{k:<48} n={n} mean={mean:.2} max={max}\n");
            }
            out
        }
    }

    /// Byte-prefix neighbours, the 16-tile shape (`tile10.` sorts between
    /// `tile1.` and `tile2.`), the empty key and a non-ASCII one.
    const POOL: [&str; 11] =
        ["a", "a.b", "a0", "tile1.x", "tile10.x", "tile2.x", "", "größe", "l2.miss", "b", "z"];

    fn check(s: &Stats, m: &Model, step: &str) {
        let got: Vec<(String, u64)> = s.iter().map(|(k, v)| (k.to_string(), v)).collect();
        let want: Vec<(String, u64)> = m.counters.iter().map(|(k, &v)| (k.clone(), v)).collect();
        assert_eq!(got, want, "iter after {step}");
        for k in POOL {
            assert_eq!(
                s.get(k),
                m.counters.get(k).copied().unwrap_or(0),
                "get({k:?}) after {step}"
            );
            let h = s.histogram(k).map(|h| (h.samples(), h.sum, h.max()));
            assert_eq!(h, m.hists.get(k).copied(), "histogram({k:?}) after {step}");
        }
        assert_eq!(s.to_string(), m.display(), "Display after {step}");
    }

    /// One random mutation of `s` and `m` alike; returns what it did.
    fn step(rng: &mut crate::Rng, s: &mut Stats, m: &mut Model) -> String {
        let key = POOL[rng.index(POOL.len())];
        let v = rng.below(1000);
        match rng.below(7) {
            0 => {
                s.set(key, v);
                m.counters.insert(key.to_string(), v);
                format!("set({key:?}, {v})")
            }
            1 => {
                s.add(key, v);
                *m.counters.entry(key.to_string()).or_default() += v;
                format!("add({key:?}, {v})")
            }
            2 => {
                s.inc(key);
                *m.counters.entry(key.to_string()).or_default() += 1;
                format!("inc({key:?})")
            }
            3 => {
                s.record(key, v);
                m.sample(key, 1, v, v);
                format!("record({key:?}, {v})")
            }
            4 => {
                let mut h = Histogram::default_pow2();
                let n = rng.below(3);
                for _ in 0..n {
                    h.record(rng.below(20_000));
                }
                s.put_histogram(key, &h);
                m.sample(key, n, h.sum, h.max());
                format!("put_histogram({key:?}, n={n})")
            }
            5 => {
                let (mut other, mut om) = (Stats::new(), Model::default());
                for _ in 0..rng.below(12) {
                    step(rng, &mut other, &mut om);
                }
                s.absorb(&other);
                m.absorb(&om);
                "absorb".to_string()
            }
            _ if rng.chance(0.2) => {
                s.clear();
                *m = Model::default();
                "clear".to_string()
            }
            _ => {
                let _ = s.get(key);
                format!("get({key:?})")
            }
        }
    }

    /// Seeded differential test: random operation sequences against a
    /// `BTreeMap` reference, compared after every step. An insertion-ordered
    /// or unsorted `iter()` fails the `iter` comparison.
    #[test]
    fn matches_a_btreemap_reference() {
        for seed in 0..200 {
            let mut rng = crate::Rng::new(seed);
            let (mut s, mut m) = (Stats::new(), Model::default());
            for i in 0..60 {
                let what = step(&mut rng, &mut s, &mut m);
                check(&s, &m, &format!("seed {seed} step {i}: {what}"));
                check(&s.clone(), &m, &format!("clone, seed {seed} step {i}: {what}"));
            }
        }
    }

    #[test]
    fn iter_is_name_ordered() {
        let mut s = Stats::new();
        s.add("b", 2);
        s.add("a", 1);
        let keys: Vec<_> = s.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }
}
