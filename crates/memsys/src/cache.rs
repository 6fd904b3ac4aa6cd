//! A set-associative cache model with LRU replacement.
//!
//! Tag-only (data lives in the platform's flat simulated memory — the
//! functional result never depends on the cache), but hit/miss behaviour is
//! exact, which is what makes the timing data-dependent: the SpMV gather
//! misses or hits depending on the actual CAGE-like sparsity pattern.

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Cache geometry.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        (self.size_bytes / self.line_bytes / self.ways as u64) as usize
    }

    /// A production-scale L1D reference geometry: 32 KiB, 8-way, 64 B lines.
    /// (The platform's FPGA-prototype default is smaller — see
    /// `sdv-uarch`'s `MemHierConfig`.)
    pub fn l1d() -> Self {
        Self { size_bytes: 32 * 1024, ways: 8, line_bytes: 64 }
    }

    /// A production-scale L2 bank reference geometry: 256 KiB, 16-way,
    /// 64 B lines (4 banks = 1 MiB shared L2).
    pub fn l2_bank() -> Self {
        Self { size_bytes: 256 * 1024, ways: 16, line_bytes: 64 }
    }
}

/// Sentinel tag for an invalid way. Tags are line indices
/// (`addr >> line_shift`), so this value would require an address in the last
/// line of the 64-bit space — unreachable for any simulated heap.
const INVALID_TAG: u64 = u64::MAX;

/// An evicted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line-aligned address of the evicted line.
    pub addr: u64,
    /// Whether it must be written back.
    pub dirty: bool,
}

/// The cache.
///
/// Way state is kept as flat structure-of-arrays slabs (`tags`, `dirty`,
/// `last_use`), each indexed `set * ways + way`: the tag scan on every
/// modelled access walks one contiguous run of `u64`s instead of chasing a
/// per-set `Vec` allocation. This is host-side layout only — hit/miss, LRU
/// and victim decisions are unchanged, so simulated cycles are bit-identical.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Tag per way (`INVALID_TAG` = empty way), flat `[set][way]`.
    tags: Vec<u64>,
    /// Dirty bit per way, flat `[set][way]`.
    dirty: Vec<bool>,
    /// LRU timestamp per way, flat `[set][way]`.
    last_use: Vec<u64>,
    ways: usize,
    set_mask: usize,
    /// `log2(line_bytes)`: tag extraction is a shift, not a division (this
    /// runs on every modelled access).
    line_shift: u32,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache from its geometry.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero sets/ways, non-pow2 line).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(cfg.ways > 0, "need at least one way");
        let num_sets = cfg.num_sets();
        assert!(num_sets > 0, "geometry yields zero sets");
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        let slots = num_sets * cfg.ways;
        Self {
            cfg,
            tags: vec![INVALID_TAG; slots],
            dirty: vec![false; slots],
            last_use: vec![0; slots],
            ways: cfg.ways,
            set_mask: num_sets - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Base slot of `addr`'s set and the tag to match.
    #[inline]
    fn base_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line as usize) & self.set_mask;
        (set * self.ways, line)
    }

    /// Slot index of the way holding `tag`, scanning the set's contiguous
    /// tag run.
    #[inline]
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        self.tags[base..base + self.ways].iter().position(|&t| t == tag).map(|w| base + w)
    }

    /// Whether the line containing `addr` is present.
    pub fn contains(&self, addr: u64) -> bool {
        let (base, tag) = self.base_and_tag(addr);
        self.find(base, tag).is_some()
    }

    /// Probe for the line containing `addr`, counting a hit or a miss. On a
    /// hit the LRU state is updated, a write marks the line dirty, and the
    /// line's slot is returned (valid for [`Self::touch`] until the next
    /// install or invalidation in this cache).
    #[inline]
    pub fn lookup(&mut self, addr: u64, kind: AccessKind) -> Option<usize> {
        self.tick += 1;
        let (base, tag) = self.base_and_tag(addr);
        let Some(slot) = self.find(base, tag) else {
            self.misses += 1;
            return None;
        };
        self.last_use[slot] = self.tick;
        if kind == AccessKind::Write {
            self.dirty[slot] = true;
        }
        self.hits += 1;
        Some(slot)
    }

    /// Allocate the line containing `addr`, which must be absent (its
    /// [`Self::lookup`] just missed, with nothing installed in between): no
    /// tag scan. Prefers an invalid way, otherwise evicts the LRU. Returns the
    /// line's slot and the victim if a valid line was evicted.
    #[inline]
    pub fn install(&mut self, addr: u64, dirty: bool) -> (usize, Option<Victim>) {
        self.tick += 1;
        let (base, tag) = self.base_and_tag(addr);
        debug_assert!(tag != INVALID_TAG, "address collides with the empty-way sentinel");
        debug_assert!(self.find(base, tag).is_none(), "install of a line that is present");
        let set_tags = &self.tags[base..base + self.ways];
        let slot = if let Some(w) = set_tags.iter().position(|&t| t == INVALID_TAG) {
            base + w
        } else {
            let lru = &self.last_use[base..base + self.ways];
            base + lru.iter().enumerate().min_by_key(|(_, &t)| t).map(|(w, _)| w).unwrap()
        };
        let victim = if self.tags[slot] != INVALID_TAG {
            Some(Victim { addr: self.tags[slot] * self.cfg.line_bytes, dirty: self.dirty[slot] })
        } else {
            None
        };
        self.tags[slot] = tag;
        self.dirty[slot] = dirty;
        self.last_use[slot] = self.tick;
        (slot, victim)
    }

    /// A counted read hit on a slot that [`Self::lookup`] or
    /// [`Self::install`] just returned: what `access(addr, Read)` does once it
    /// has found the line, without finding it again.
    #[inline]
    pub fn touch(&mut self, slot: usize) {
        self.tick += 1;
        self.last_use[slot] = self.tick;
        self.hits += 1;
    }

    /// Access the line containing `addr`. On hit the LRU state is updated and
    /// a write marks the line dirty. Returns `true` on hit.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> bool {
        self.lookup(addr, kind).is_some()
    }

    /// Allocate (fill) the line containing `addr`, marking it dirty when
    /// `dirty` (write-allocate). Returns the victim if a valid line was
    /// evicted. Filling an already-present line just updates its state.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<Victim> {
        let (base, tag) = self.base_and_tag(addr);
        match self.find(base, tag) {
            Some(slot) => {
                self.tick += 1;
                self.last_use[slot] = self.tick;
                self.dirty[slot] |= dirty;
                None
            }
            None => self.install(addr, dirty).1,
        }
    }

    /// Invalidate the line containing `addr` if present. Returns
    /// `Some(was_dirty)` when a line was dropped.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let (base, tag) = self.base_and_tag(addr);
        let slot = self.find(base, tag)?;
        self.tags[slot] = INVALID_TAG;
        Some(std::mem::replace(&mut self.dirty[slot], false))
    }

    /// Clear the dirty bit of the line containing `addr` (after a recall
    /// writeback). Returns whether the line was present and dirty.
    pub fn clean(&mut self, addr: u64) -> bool {
        let (base, tag) = self.base_and_tag(addr);
        if let Some(slot) = self.find(base, tag) {
            std::mem::replace(&mut self.dirty[slot], false)
        } else {
            false
        }
    }

    /// Whether the line containing `addr` is present *and* dirty.
    pub fn is_dirty(&self, addr: u64) -> bool {
        let (base, tag) = self.base_and_tag(addr);
        self.find(base, tag).is_some_and(|slot| self.dirty[slot])
    }

    /// Hit count since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drop every line (does not reset hit/miss counters).
    pub fn flush(&mut self) {
        self.tags.fill(INVALID_TAG);
        self.dirty.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 bytes.
        Cache::new(CacheConfig { size_bytes: 256, ways: 2, line_bytes: 64 })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::l1d().num_sets(), 64);
        assert_eq!(CacheConfig::l2_bank().num_sets(), 256);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x40, AccessKind::Read));
        assert_eq!(c.fill(0x40, false), None);
        assert!(c.access(0x40, AccessKind::Read));
        assert!(c.access(0x7F, AccessKind::Read), "same line hits");
        assert!(!c.access(0x80, AccessKind::Read), "next line misses");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines with even line index: 0x000, 0x080, 0x100 (2 sets => line%2).
        c.fill(0x000, false);
        c.fill(0x100, false);
        // Touch 0x000 so 0x100 is LRU.
        c.access(0x000, AccessKind::Read);
        let v = c.fill(0x200, false).expect("must evict");
        assert_eq!(v.addr, 0x100);
        assert!(!v.dirty);
        assert!(c.contains(0x000));
        assert!(c.contains(0x200));
        assert!(!c.contains(0x100));
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = tiny();
        c.fill(0x000, true);
        c.fill(0x100, false);
        c.access(0x100, AccessKind::Read);
        let v = c.fill(0x200, false).unwrap();
        assert_eq!(v.addr, 0x000);
        assert!(v.dirty);
    }

    #[test]
    fn write_access_marks_dirty() {
        let mut c = tiny();
        c.fill(0x40, false);
        assert!(!c.is_dirty(0x40));
        c.access(0x40, AccessKind::Write);
        assert!(c.is_dirty(0x40));
        assert!(c.clean(0x40));
        assert!(!c.is_dirty(0x40));
        assert!(!c.clean(0x40), "second clean is a no-op");
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.fill(0x40, true);
        assert_eq!(c.invalidate(0x40), Some(true));
        assert!(!c.contains(0x40));
        assert_eq!(c.invalidate(0x40), None);
    }

    #[test]
    fn refill_existing_line_does_not_evict() {
        let mut c = tiny();
        c.fill(0x000, false);
        c.fill(0x100, false);
        assert_eq!(c.fill(0x000, true), None, "already present");
        assert!(c.is_dirty(0x000), "fill can upgrade to dirty");
        assert!(c.contains(0x100));
    }

    #[test]
    fn flush_drops_everything() {
        let mut c = tiny();
        c.fill(0x000, true);
        c.fill(0x040, false);
        c.flush();
        assert!(!c.contains(0x000));
        assert!(!c.contains(0x040));
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny();
        // Lines 0x000 (set 0) and 0x040 (set 1).
        c.fill(0x000, false);
        c.fill(0x040, false);
        c.fill(0x0C0, false); // set 1
        c.fill(0x140, false); // set 1 -> evicts within set 1 only
        assert!(c.contains(0x000), "set 0 untouched by set-1 pressure");
    }

    /// The pre-slot `access`/`fill`, kept verbatim as the reference the slot
    /// primitives are checked against: each scans the set itself.
    impl Cache {
        fn ref_access(&mut self, addr: u64, kind: AccessKind) -> bool {
            self.tick += 1;
            let tick = self.tick;
            let (base, tag) = self.base_and_tag(addr);
            if let Some(slot) = self.find(base, tag) {
                self.last_use[slot] = tick;
                if kind == AccessKind::Write {
                    self.dirty[slot] = true;
                }
                self.hits += 1;
                true
            } else {
                self.misses += 1;
                false
            }
        }

        fn ref_fill(&mut self, addr: u64, dirty: bool) -> Option<Victim> {
            self.tick += 1;
            let tick = self.tick;
            let (base, tag) = self.base_and_tag(addr);
            if let Some(slot) = self.find(base, tag) {
                self.last_use[slot] = tick;
                self.dirty[slot] |= dirty;
                return None;
            }
            let set_tags = &self.tags[base..base + self.ways];
            let slot = if let Some(w) = set_tags.iter().position(|&t| t == INVALID_TAG) {
                base + w
            } else {
                let lru = &self.last_use[base..base + self.ways];
                base + lru.iter().enumerate().min_by_key(|(_, &t)| t).map(|(w, _)| w).unwrap()
            };
            let victim = (self.tags[slot] != INVALID_TAG).then(|| Victim {
                addr: self.tags[slot] * self.cfg.line_bytes,
                dirty: self.dirty[slot],
            });
            self.tags[slot] = tag;
            self.dirty[slot] = dirty;
            self.last_use[slot] = tick;
            victim
        }
    }

    #[test]
    fn slot_primitives_match_the_scanning_reference() {
        use sdv_engine::Rng;
        // The hierarchy's probe / fill-on-miss / post-fill read, three ways:
        // the reference, the public compositions, and the slot primitives
        // used the way `memhier` uses them. Writebacks into present lines,
        // invalidations and cleans keep invalid ways and dirty bits in play.
        let two_by_four = CacheConfig { size_bytes: 2 * 4 * 64, ways: 4, line_bytes: 64 };
        for (cfg, lines, seed) in [(two_by_four, 24u64, 18), (CacheConfig::l2_bank(), 12_000, 81)] {
            let mut rng = Rng::new(seed);
            let (mut r, mut p, mut s) = (Cache::new(cfg), Cache::new(cfg), Cache::new(cfg));
            for step in 0..200_000u32 {
                let addr = rng.below(lines) * 64 + rng.below(64);
                match rng.below(16) {
                    0 => {
                        let dirty = rng.chance(0.5);
                        let v = r.ref_fill(addr, dirty);
                        assert_eq!(p.fill(addr, dirty), v, "step {step}");
                        assert_eq!(s.fill(addr, dirty), v, "step {step}");
                    }
                    1 => {
                        let was = r.invalidate(addr);
                        assert_eq!((p.invalidate(addr), s.invalidate(addr)), (was, was));
                    }
                    2 => {
                        let was = r.clean(addr);
                        assert_eq!((p.clean(addr), s.clean(addr)), (was, was));
                    }
                    op => {
                        let kind = if op < 6 { AccessKind::Write } else { AccessKind::Read };
                        let hit = r.ref_access(addr, kind);
                        assert_eq!(p.access(addr, kind), hit, "step {step}");
                        let slot = s.lookup(addr, kind);
                        assert_eq!(slot.is_some(), hit, "step {step}");
                        if !hit {
                            let v = r.ref_fill(addr, false);
                            assert!(r.ref_access(addr, AccessKind::Read));
                            assert_eq!(p.fill(addr, false), v, "step {step}");
                            assert!(p.access(addr, AccessKind::Read));
                            let (slot, sv) = s.install(addr, false);
                            assert_eq!(sv, v, "step {step}");
                            s.touch(slot);
                        }
                    }
                }
                assert_eq!((p.hits(), p.misses()), (r.hits(), r.misses()), "step {step}");
                assert_eq!((s.hits(), s.misses()), (r.hits(), r.misses()), "step {step}");
            }
            assert!(r.hits() > 10_000 && r.misses() > 10_000, "both outcomes exercised");
            for line in 0..lines {
                let a = line * 64;
                assert_eq!((p.contains(a), p.is_dirty(a)), (r.contains(a), r.is_dirty(a)));
                assert_eq!((s.contains(a), s.is_dirty(a)), (r.contains(a), r.is_dirty(a)));
            }
            assert_eq!((&s.tags, &s.last_use), (&r.tags, &r.last_use), "same ways, same LRU order");
        }
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny(); // 4 lines total
        let lines: Vec<u64> = (0..16).map(|i| i * 64).collect();
        for &a in &lines {
            c.access(a, AccessKind::Read);
            c.fill(a, false);
        }
        // Second sweep still misses everywhere (LRU + working set 4x cache).
        let misses_before = c.misses();
        for &a in &lines {
            c.access(a, AccessKind::Read);
            c.fill(a, false);
        }
        assert_eq!(c.misses() - misses_before, 16);
    }
}
