//! The Home Node coherence directory (the "HN" of the paper's L2HN).
//!
//! The FPGA-SDV couples each shared-L2 slice with a MESI home node
//! (Chalmers). In the emulated single-core system there are two requestors:
//! the core's L1D (a caching requestor) and the VPU (which, like Vitruvius,
//! bypasses the L1 and issues non-caching reads/writes straight to L2). The
//! directory's job is to keep those coherent: a VPU read must observe data
//! dirty in the L1, and a VPU write must invalidate a stale L1 copy.
//!
//! With tiled machines every tile contributes two requestors (its L1D and
//! its VPU), so the sharer set is a [`SharerMask`] wide enough for 64 tiles
//! and requestor ids go through the checked [`requestor_id`] conversion
//! instead of a bare cast.
//!
//! Coherence traffic is counted in three *disjoint* buckets so a directory
//! traffic report can sum them exactly:
//!
//! * **downgrades** — a read hit a line held Exclusive/Modified elsewhere;
//!   the owner writes back and *keeps* a Shared copy (read recall).
//! * **recalls** — a write hit a line held Exclusive/Modified elsewhere;
//!   the owner writes back and its copy is invalidated (recall-with-
//!   invalidate). The accompanying invalidation is part of the recall and is
//!   deliberately *not* double-counted under `invalidations`.
//! * **invalidations** — clean Shared copies invalidated by a write; one
//!   count per sharer.

use sdv_engine::{FastMap, SimError};

/// A coherence requestor id (e.g. 0 = core L1D, 1 = VPU; tile `t`
/// contributes requestors `2t` and `2t+1`).
pub type Requestor = u8;

/// The sharer-set bitmask: one bit per requestor.
pub type SharerMask = u128;

/// Requestor ids must fit in the [`SharerMask`]: 64 tiles × (L1 + VPU).
pub const MAX_REQUESTORS: usize = SharerMask::BITS as usize;

/// Checked conversion from an arbitrary requestor index (e.g. derived from a
/// tile id) to a [`Requestor`]. Fails with [`SimError::BadInput`] instead of
/// silently wrapping the sharer-set shift.
pub fn requestor_id(idx: usize) -> Result<Requestor, SimError> {
    if idx < MAX_REQUESTORS {
        Ok(idx as Requestor)
    } else {
        Err(SimError::BadInput {
            what: format!(
                "requestor id {idx} exceeds directory capacity ({MAX_REQUESTORS} requestors / {} tiles)",
                MAX_REQUESTORS / 2
            ),
        })
    }
}

/// The sharer bit for a requestor. All internal transitions funnel through
/// here so an out-of-range id is caught (debug) instead of wrapping.
#[inline]
fn bit(who: Requestor) -> SharerMask {
    debug_assert!(
        (who as usize) < MAX_REQUESTORS,
        "requestor {who} out of range; use requestor_id() at the boundary"
    );
    1 << who
}

/// Directory state for one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirState {
    /// No private copies exist.
    Uncached,
    /// Copies exist in the sharer set (bitmask), all clean.
    Shared(SharerMask),
    /// One requestor holds the line exclusively (possibly dirty).
    Exclusive(Requestor),
}

/// What the home node must do before granting an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirAction {
    /// Requestor that must write back and downgrade/invalidate (owner recall).
    pub recall_from: Option<Requestor>,
    /// Requestors whose copies must be invalidated, one bit each.
    pub invalidate: SharerMask,
    /// Whether the grant is exclusive (E/M) rather than shared.
    pub exclusive: bool,
}

/// The per-bank MESI directory.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    lines: FastMap<u64, DirState>,
    recalls: u64,
    invalidations: u64,
    downgrades: u64,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    fn state(&self, line: u64) -> DirState {
        self.lines.get(&line).copied().unwrap_or(DirState::Uncached)
    }

    /// A *caching* read (the L1 will keep a copy). Returns the action and
    /// transitions the directory.
    pub fn caching_read(&mut self, line: u64, who: Requestor) -> DirAction {
        assert!((who as usize) < MAX_REQUESTORS);
        match self.state(line) {
            DirState::Uncached => {
                self.lines.insert(line, DirState::Exclusive(who));
                DirAction { recall_from: None, invalidate: 0, exclusive: true }
            }
            DirState::Shared(mask) => {
                self.lines.insert(line, DirState::Shared(mask | bit(who)));
                DirAction { recall_from: None, invalidate: 0, exclusive: false }
            }
            DirState::Exclusive(owner) if owner == who => {
                DirAction { recall_from: None, invalidate: 0, exclusive: true }
            }
            DirState::Exclusive(owner) => {
                // Owner downgrades to shared; data may need writeback.
                self.lines.insert(line, DirState::Shared(bit(owner) | bit(who)));
                self.downgrades += 1;
                DirAction { recall_from: Some(owner), invalidate: 0, exclusive: false }
            }
        }
    }

    /// A *caching* write (read-for-ownership). The requestor ends up the
    /// exclusive owner.
    pub fn caching_write(&mut self, line: u64, who: Requestor) -> DirAction {
        assert!((who as usize) < MAX_REQUESTORS);
        let action = match self.state(line) {
            DirState::Uncached => DirAction { recall_from: None, invalidate: 0, exclusive: true },
            DirState::Shared(mask) => {
                let inv = mask & !bit(who);
                self.invalidations += inv.count_ones() as u64;
                DirAction { recall_from: None, invalidate: inv, exclusive: true }
            }
            DirState::Exclusive(owner) if owner == who => {
                // Already the exclusive owner: the directory entry is
                // correct as-is, skip the redundant re-insert.
                return DirAction { recall_from: None, invalidate: 0, exclusive: true };
            }
            DirState::Exclusive(owner) => {
                // Recall-with-invalidate: one recall, and the implied
                // invalidation of the owner's copy rides along with it
                // (counted under `recalls` only).
                self.recalls += 1;
                DirAction { recall_from: Some(owner), invalidate: bit(owner), exclusive: true }
            }
        };
        self.lines.insert(line, DirState::Exclusive(who));
        action
    }

    /// A *non-caching* read (the VPU path): data is returned but no copy is
    /// registered. A dirty private copy must be recalled (written back) but
    /// may be retained by its owner in shared state.
    pub fn noncaching_read(&mut self, line: u64, who: Requestor) -> DirAction {
        match self.state(line) {
            DirState::Exclusive(owner) if owner != who => {
                self.lines.insert(line, DirState::Shared(bit(owner)));
                self.downgrades += 1;
                DirAction { recall_from: Some(owner), invalidate: 0, exclusive: false }
            }
            _ => DirAction { recall_from: None, invalidate: 0, exclusive: false },
        }
    }

    /// A *non-caching* write (the VPU path): all private copies become stale
    /// and must be invalidated; a dirty owner must write back first so the
    /// merge happens in L2.
    pub fn noncaching_write(&mut self, line: u64, who: Requestor) -> DirAction {
        // The line ends Uncached either way, and Uncached is represented by
        // *absence* (see `state`). Storing it explicitly would grow the map
        // by one dead entry per line the VPU ever streams through, so remove
        // instead — and in the common pure-streaming case (no entry at all)
        // the single lookup in `state` is the only hash operation.
        let state = self.state(line);
        if state != DirState::Uncached {
            self.lines.remove(&line);
        }
        match state {
            DirState::Uncached => DirAction { recall_from: None, invalidate: 0, exclusive: false },
            DirState::Shared(mask) => {
                let inv = mask & !bit(who);
                self.invalidations += inv.count_ones() as u64;
                DirAction { recall_from: None, invalidate: inv, exclusive: false }
            }
            DirState::Exclusive(owner) if owner == who => {
                DirAction { recall_from: None, invalidate: 0, exclusive: false }
            }
            DirState::Exclusive(owner) => {
                // Recall-with-invalidate (see `caching_write`).
                self.recalls += 1;
                DirAction { recall_from: Some(owner), invalidate: bit(owner), exclusive: false }
            }
        }
    }

    /// A caching requestor silently evicted its (possibly dirty) copy.
    pub fn evicted(&mut self, line: u64, who: Requestor) {
        match self.state(line) {
            DirState::Exclusive(owner) if owner == who => {
                self.lines.remove(&line);
            }
            DirState::Shared(mask) => {
                let m = mask & !bit(who);
                if m == 0 {
                    self.lines.remove(&line);
                } else {
                    self.lines.insert(line, DirState::Shared(m));
                }
            }
            _ => {}
        }
    }

    /// Whether any requestor other than `who` holds the line.
    pub fn held_by_others(&self, line: u64, who: Requestor) -> bool {
        match self.state(line) {
            DirState::Uncached => false,
            DirState::Shared(mask) => mask & !bit(who) != 0,
            DirState::Exclusive(owner) => owner != who,
        }
    }

    /// Number of lines currently holding directory state (Uncached lines
    /// are represented by absence, so this counts lines with live sharers
    /// or an exclusive owner).
    pub fn lines_tracked(&self) -> usize {
        self.lines.len()
    }

    /// Visit every tracked line with its holder bitmask (bit `r` set means
    /// requestor `r` holds a copy; an exclusive owner is a one-bit mask).
    /// Iteration order is unspecified — use only for order-independent
    /// audits and summary counts, never for timing decisions.
    pub fn for_each_holder(&self, mut f: impl FnMut(u64, SharerMask)) {
        for (&line, &st) in self.lines.iter() {
            let mask = match st {
                DirState::Uncached => 0,
                DirState::Shared(m) => m,
                DirState::Exclusive(o) => bit(o),
            };
            f(line, mask);
        }
    }

    /// Total recall-with-invalidates performed (a write found the line
    /// Exclusive/Modified elsewhere). Disjoint from [`Self::downgrades`] and
    /// [`Self::invalidations`].
    pub fn recalls(&self) -> u64 {
        self.recalls
    }

    /// Total clean-sharer invalidations sent (one per Shared copy killed by
    /// a write). Does *not* include the owner copy killed by a recall —
    /// that is counted once under [`Self::recalls`].
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Total read downgrades (owner recalled to Shared with writeback, copy
    /// retained). Disjoint from [`Self::recalls`].
    pub fn downgrades(&self) -> u64 {
        self.downgrades
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L1: Requestor = 0;
    const VPU: Requestor = 1;

    #[test]
    fn first_read_grants_exclusive() {
        let mut d = Directory::new();
        let a = d.caching_read(0x40, L1);
        assert!(a.exclusive);
        assert!(a.recall_from.is_none());
        assert_eq!(a.invalidate, 0);
    }

    #[test]
    fn vpu_read_recalls_dirty_l1_line() {
        let mut d = Directory::new();
        d.caching_write(0x40, L1); // L1 owns the line in M
        let a = d.noncaching_read(0x40, VPU);
        assert_eq!(a.recall_from, Some(L1), "home node must recall M data");
        assert_eq!(a.invalidate, 0, "read recall downgrades, no invalidation");
        assert_eq!(d.downgrades(), 1, "read recall is a downgrade, not a recall-with-invalidate");
        assert_eq!(d.recalls(), 0);
        // Subsequent VPU reads need nothing.
        let a2 = d.noncaching_read(0x40, VPU);
        assert_eq!(a2.recall_from, None);
        assert_eq!(d.downgrades(), 1);
    }

    #[test]
    fn vpu_write_invalidates_l1_copy() {
        let mut d = Directory::new();
        d.caching_read(0x80, L1);
        let a = d.noncaching_write(0x80, VPU);
        assert_eq!(a.recall_from, Some(L1), "exclusive clean copy still recalled in MESI-E");
        assert_eq!(a.invalidate, bit(L1));
        assert_eq!(d.recalls(), 1);
        assert_eq!(d.invalidations(), 0, "owner invalidation rides with the recall");
        // L1 re-reads later: fresh grant, no recall.
        let a2 = d.caching_read(0x80, L1);
        assert!(a2.recall_from.is_none());
    }

    #[test]
    fn vpu_write_to_shared_line_invalidates_sharers() {
        let mut d = Directory::new();
        d.caching_read(0xC0, L1);
        d.noncaching_read(0xC0, VPU); // downgrades E(L1) -> Shared{L1}
                                      // After the noncaching read, L1 retains a shared copy.
        let a = d.noncaching_write(0xC0, VPU);
        assert_eq!(a.invalidate, bit(L1));
        assert_eq!(d.invalidations(), 1);
        assert_eq!(d.recalls(), 0, "clean shared invalidate is not a recall");
    }

    #[test]
    fn caching_write_after_shared_invalidates_other_sharers() {
        let mut d = Directory::new();
        d.caching_read(0x100, L1);
        d.caching_read(0x100, 2); // second caching requestor -> Shared{L1,2}
        let a = d.caching_write(0x100, L1);
        assert!(a.exclusive);
        assert_eq!(a.invalidate, bit(2));
        assert_eq!(d.invalidations(), 1);
    }

    #[test]
    fn second_caching_read_downgrades_owner() {
        let mut d = Directory::new();
        d.caching_write(0x140, L1);
        let a = d.caching_read(0x140, 2);
        assert_eq!(a.recall_from, Some(L1));
        assert!(!a.exclusive);
        assert_eq!(d.downgrades(), 1);
        assert_eq!(d.recalls(), 0);
        // Both now share: a third read needs nothing.
        let a2 = d.caching_read(0x140, 3);
        assert!(a2.recall_from.is_none());
        assert!(!a2.exclusive);
    }

    #[test]
    fn owner_rewrite_is_silent() {
        let mut d = Directory::new();
        d.caching_write(0x180, L1);
        let a = d.caching_write(0x180, L1);
        assert!(a.exclusive);
        assert!(a.recall_from.is_none());
        assert_eq!(a.invalidate, 0);
        assert_eq!(d.recalls(), 0);
    }

    #[test]
    fn eviction_clears_ownership() {
        let mut d = Directory::new();
        d.caching_write(0x1C0, L1);
        d.evicted(0x1C0, L1);
        assert!(!d.held_by_others(0x1C0, VPU));
        let a = d.noncaching_read(0x1C0, VPU);
        assert!(a.recall_from.is_none(), "evicted line needs no recall");
    }

    #[test]
    fn eviction_from_shared_removes_one_sharer() {
        let mut d = Directory::new();
        d.caching_read(0x200, L1);
        d.caching_read(0x200, 2);
        d.evicted(0x200, L1);
        assert!(d.held_by_others(0x200, L1), "requestor 2 still holds it");
        d.evicted(0x200, 2);
        assert!(!d.held_by_others(0x200, L1));
    }

    #[test]
    fn holder_walk_reports_tracked_lines() {
        let mut d = Directory::new();
        d.caching_write(0x40, L1); // Exclusive(L1)
        d.caching_read(0x80, L1);
        d.caching_read(0x80, 2); // Shared{L1, 2}
        assert_eq!(d.lines_tracked(), 2);
        let mut seen = Vec::new();
        d.for_each_holder(|line, mask| seen.push((line, mask)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(0x40, 1 << L1), (0x80, (1 << L1) | (1 << 2))]);
        d.evicted(0x40, L1);
        assert_eq!(d.lines_tracked(), 1, "eviction drops the tracked entry");
    }

    #[test]
    fn vpu_traffic_alone_never_creates_state() {
        let mut d = Directory::new();
        d.noncaching_read(0x240, VPU);
        d.noncaching_write(0x240, VPU);
        assert!(!d.held_by_others(0x240, L1));
        assert_eq!(d.recalls(), 0);
        assert_eq!(d.invalidations(), 0);
        assert_eq!(d.downgrades(), 0);
    }

    #[test]
    fn requestor_id_boundary() {
        assert_eq!(requestor_id(0).unwrap(), 0);
        assert_eq!(requestor_id(MAX_REQUESTORS - 1).unwrap(), 127);
        let err = requestor_id(MAX_REQUESTORS).unwrap_err();
        assert!(
            matches!(err, SimError::BadInput { ref what } if what.contains("128")),
            "overflow must be a structured BadInput, got {err:?}"
        );
        assert!(requestor_id(usize::MAX).is_err());
    }

    #[test]
    fn high_requestor_bits_survive_the_sharer_mask() {
        // Regression for the old `1u8 << owner` wrap: requestor ids past bit
        // 7 must land in distinct mask bits, not alias low sharers.
        let hi: Requestor = (MAX_REQUESTORS - 1) as Requestor; // 127
        let mut d = Directory::new();
        d.caching_read(0x40, hi);
        d.caching_read(0x40, 63);
        d.caching_read(0x40, L1);
        let mut seen = Vec::new();
        d.for_each_holder(|line, mask| seen.push((line, mask)));
        assert_eq!(seen, vec![(0x40, (1u128 << 127) | (1u128 << 63) | 1)]);
        // A write by L1 invalidates exactly the two high sharers.
        let a = d.caching_write(0x40, L1);
        assert_eq!(a.invalidate, bit(63) | bit(hi));
        assert_eq!(d.invalidations(), 2);
        assert!(!d.held_by_others(0x40, L1));
    }

    /// Exhaustive (state × requestor-relation × operation) matrix proving the
    /// three counters are disjoint and sum exactly: every transition bumps at
    /// most one bucket, and the bucket matches the action's shape (recall
    /// with invalidate / recall without / pure invalidates).
    #[test]
    fn counter_matrix_is_disjoint_and_sums_exactly() {
        #[derive(Clone, Copy, Debug)]
        enum Seed {
            Uncached,
            SharedSelf,    // Shared{who}
            SharedOther,   // Shared{other}
            SharedBoth,    // Shared{who, other}
            ExclusiveSelf, // Exclusive(who)
            ExclusiveOther,
        }
        let who: Requestor = 2;
        let other: Requestor = 5;
        let seeds = [
            Seed::Uncached,
            Seed::SharedSelf,
            Seed::SharedOther,
            Seed::SharedBoth,
            Seed::ExclusiveSelf,
            Seed::ExclusiveOther,
        ];
        for &seed in &seeds {
            for op in 0..4usize {
                let mut d = Directory::new();
                // Build the seed state at line 0x40 (counters from seeding
                // are snapshotted and subtracted).
                match seed {
                    Seed::Uncached => {}
                    Seed::SharedSelf => {
                        d.caching_read(0x40, who);
                        d.caching_read(0x40, other);
                        d.evicted(0x40, other);
                    }
                    Seed::SharedOther => {
                        d.caching_read(0x40, other);
                        d.caching_read(0x40, who);
                        d.evicted(0x40, who);
                    }
                    Seed::SharedBoth => {
                        d.caching_read(0x40, who);
                        d.caching_read(0x40, other);
                    }
                    Seed::ExclusiveSelf => {
                        d.caching_write(0x40, who);
                    }
                    Seed::ExclusiveOther => {
                        d.caching_write(0x40, other);
                    }
                }
                let (r0, i0, g0) = (d.recalls(), d.invalidations(), d.downgrades());
                let a = match op {
                    0 => d.caching_read(0x40, who),
                    1 => d.caching_write(0x40, who),
                    2 => d.noncaching_read(0x40, who),
                    _ => d.noncaching_write(0x40, who),
                };
                let dr = d.recalls() - r0;
                let di = d.invalidations() - i0;
                let dg = d.downgrades() - g0;
                let ctx = format!("seed={seed:?} op={op} action={a:?}");

                // Buckets are mutually exclusive per transition.
                assert!(
                    (dr > 0) as u32 + (di > 0) as u32 + (dg > 0) as u32 <= 1,
                    "counters overlap: {ctx} dr={dr} di={di} dg={dg}"
                );
                // Each bucket matches the action's shape exactly.
                let is_write = op == 1 || op == 3;
                let recall_inv = a.recall_from.is_some() && is_write;
                let recall_down = a.recall_from.is_some() && !is_write;
                assert_eq!(dr, recall_inv as u64, "recalls: {ctx}");
                assert_eq!(dg, recall_down as u64, "downgrades: {ctx}");
                if recall_inv {
                    assert_eq!(a.invalidate, bit(a.recall_from.unwrap()), "{ctx}");
                    assert_eq!(di, 0, "owner invalidate must not double-count: {ctx}");
                } else {
                    assert_eq!(di, a.invalidate.count_ones() as u64, "invalidations: {ctx}");
                }
            }
        }
    }
}
