//! The Atrevido-style scalar core timing model.
//!
//! In-order superscalar issue with two mechanisms bounding memory-level
//! parallelism — the quantities that make the *scalar* curves in the paper's
//! figures steep:
//!
//! * an **MSHR cap** (`max_outstanding_loads`): at most N distinct lines may
//!   be in flight; further misses stall,
//! * a **run-ahead window** (`runahead_window`): the core may issue at most
//!   W ops past the oldest incomplete load, approximating stall-on-use with
//!   a modest out-of-order window.

use crate::config::ScalarConfig;
use crate::memhier::MemHierarchy;
use sdv_engine::{Cycle, Ring, Stats};

#[derive(Debug, Default, Clone, Copy)]
struct PendingLoad {
    completion: Cycle,
    op_idx: u64,
}

/// Event counters, kept as plain fields because they are bumped on every
/// single scalar op — the registry view is assembled in [`ScalarCore::stats`].
#[derive(Debug, Default, Clone, Copy)]
struct ScalarCounters {
    stall_cycles: u64,
    ops: u64,
    fp_ops: u64,
    branches: u64,
    loads: u64,
    stores: u64,
    window_stalls: u64,
    mshr_stalls: u64,
    store_buffer_stalls: u64,
    // Per-cause stall-cycle attribution. Each field accumulates the exact
    // cycles one stall site spent in `advance_to`, so the memory causes
    // (window/mshr/store-buffer/drain) plus the VPU causes (queue/sync) plus
    // branch bubbles decompose the core's total lost time.
    window_stall_cycles: u64,
    mshr_stall_cycles: u64,
    store_buffer_stall_cycles: u64,
    drain_stall_cycles: u64,
    branch_stall_cycles: u64,
    vpu_queue_stall_cycles: u64,
    vpu_sync_stall_cycles: u64,
}

/// The scalar core.
pub struct ScalarCore {
    cfg: ScalarConfig,
    /// Which tile this core belongs to (selects its L1 and mesh node in the
    /// shared hierarchy; 0 in the single-tile machine).
    tile: usize,
    cycle: Cycle,
    slot: u32,
    op_idx: u64,
    /// Loads in program order (`op_idx` strictly increases), completed
    /// entries popped lazily from the front — only the front matters for the
    /// run-ahead window, so retirement is amortized O(1) per load instead of
    /// an O(window) scan on every op. Bounded by the run-ahead window (each
    /// pending load consumes one op slot in it), so the ring is pre-sized at
    /// construction and never grows.
    pending: Ring<PendingLoad>,
    /// `(line, completion)` of each primary (MSHR-holding) load. At most
    /// `max_outstanding_loads` (4 by default) entries, so an unordered array
    /// with a linear scan beats any heap or map: push is a bounds-checked
    /// store and a scan is a handful of straight-line compares. It serves
    /// both questions a load asks: which MSHR frees first (min completion),
    /// and whether its line is already being fetched (a later load to the
    /// line of a primary whose `completion > cycle` merges with it and holds
    /// no MSHR of its own, so two live primaries never share a line).
    /// Entries whose completion has passed are dead to both and are dropped
    /// by `drain_primaries`.
    primaries: Vec<(u64, Cycle)>,
    /// The line -> completion map that used to answer the merge question,
    /// kept as the reference every load's scan is checked against.
    #[cfg(test)]
    shadow_inflight: std::collections::HashMap<u64, Cycle>,
    /// Store-buffer retirement times, FIFO. Bounded by `store_buffer`.
    stores: Ring<Cycle>,
    ctr: ScalarCounters,
}

impl ScalarCore {
    /// A core at cycle 0 (tile 0).
    pub fn new(cfg: ScalarConfig) -> Self {
        Self::new_for_tile(cfg, 0)
    }

    /// A core at cycle 0, accessing the shared hierarchy as `tile`.
    pub fn new_for_tile(cfg: ScalarConfig, tile: usize) -> Self {
        assert!(cfg.issue_width > 0, "issue width must be positive");
        assert!(cfg.max_outstanding_loads > 0, "need at least one MSHR");
        Self {
            cfg,
            tile,
            cycle: 0,
            slot: 0,
            op_idx: 0,
            pending: Ring::with_capacity(cfg.runahead_window + 2),
            primaries: Vec::with_capacity(cfg.max_outstanding_loads),
            #[cfg(test)]
            shadow_inflight: Default::default(),
            stores: Ring::with_capacity(cfg.store_buffer),
            ctr: ScalarCounters::default(),
        }
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.cycle
    }

    /// Jump forward to `t` (stalls).
    pub fn advance_to(&mut self, t: Cycle) {
        if t > self.cycle {
            self.ctr.stall_cycles += t - self.cycle;
            self.cycle = t;
            self.slot = 0;
        }
    }

    /// [`Self::advance_to`], returning the cycles actually stalled so the
    /// call site can attribute them to a cause.
    fn advance_counting(&mut self, t: Cycle) -> u64 {
        let before = self.cycle;
        self.advance_to(t);
        self.cycle - before
    }

    /// Stall until `t` waiting for a slot in the VPU's decoupling queue
    /// (dispatch backpressure).
    pub fn wait_for_vpu_queue(&mut self, t: Cycle) {
        let d = self.advance_counting(t);
        self.ctr.vpu_queue_stall_cycles += d;
    }

    /// Stall until `t` waiting for vector work to complete (an explicit
    /// sync, or a scalar-producing vector instruction's result).
    pub fn wait_for_vpu_sync(&mut self, t: Cycle) {
        let d = self.advance_counting(t);
        self.ctr.vpu_sync_stall_cycles += d;
    }

    /// Consume `n` issue slots at the configured width.
    fn issue_slots(&mut self, n: u32) {
        let total = self.slot + n;
        let w = self.cfg.issue_width;
        if w.is_power_of_two() {
            // Runs on every op: shift/mask for the common power-of-two
            // width (both branches compute the same quotient/remainder).
            self.cycle += (total >> w.trailing_zeros()) as Cycle;
            self.slot = total & (w - 1);
        } else {
            self.cycle += (total / w) as Cycle;
            self.slot = total % w;
        }
        self.op_idx += n as u64;
        self.ctr.ops += n as u64;
    }

    fn retire_completed(&mut self) {
        // Only the oldest incomplete load matters for the run-ahead window,
        // so completed entries are popped from the front; completed entries
        // *behind* an incomplete front are left in place (each is still
        // popped exactly once, so the cost stays amortized O(1) per load).
        let cycle = self.cycle;
        while self.pending.front().is_some_and(|p| p.completion <= cycle) {
            self.pending.pop_front();
        }
        while self.stores.front().is_some_and(|f| f <= cycle) {
            self.stores.pop_front();
        }
    }

    /// Release MSHRs whose fills have completed by the current cycle. A
    /// swap-retain over at most `max_outstanding_loads` entries.
    fn drain_primaries(&mut self) {
        let cycle = self.cycle;
        self.primaries.retain(|&(_, c)| c > cycle);
    }

    /// Enforce the run-ahead window before issuing the next op.
    fn window_stall(&mut self) {
        self.retire_completed();
        // The oldest incomplete load bounds how far ahead we may issue.
        // `pending` is pushed in program order (op_idx strictly increases
        // between pushes), so the oldest entry is simply the front.
        while let Some(oldest) = self.pending.front() {
            if self.op_idx.saturating_sub(oldest.op_idx) >= self.cfg.runahead_window as u64 {
                self.ctr.window_stalls += 1;
                let d = self.advance_counting(oldest.completion);
                self.ctr.window_stall_cycles += d;
                self.retire_completed();
            } else {
                break;
            }
        }
    }

    /// Issue `n` ops, `slots_per_op` issue slots each, enforcing the
    /// run-ahead window *within* the bulk: the core may not sail past an
    /// incomplete load by more than the window even inside one batch.
    fn bulk_issue(&mut self, mut n: u32, slots_per_op: u32) {
        while n > 0 {
            self.window_stall();
            let room = match self.pending.front().map(|p| p.op_idx) {
                Some(oldest) => {
                    let used = self.op_idx - oldest;
                    (self.cfg.runahead_window as u64).saturating_sub(used).max(1) as u32
                }
                None => n,
            };
            let chunk = n.min(room);
            self.issue_slots(chunk * slots_per_op);
            n -= chunk;
        }
    }

    /// Issue `n` integer/address ops.
    pub fn int_ops(&mut self, n: u32) {
        self.bulk_issue(n, 1);
    }

    /// Issue `n` FP ops.
    pub fn fp_ops(&mut self, n: u32) {
        self.bulk_issue(n, self.cfg.fp_issue_slots);
        self.ctr.fp_ops += n as u64;
    }

    /// Issue a branch.
    pub fn branch(&mut self, taken: bool) {
        self.window_stall();
        self.issue_slots(1);
        if taken {
            self.cycle += self.cfg.branch_penalty;
            self.slot = 0;
            self.ctr.branch_stall_cycles += self.cfg.branch_penalty;
        }
        self.ctr.branches += 1;
    }

    /// Issue a load through the hierarchy.
    pub fn load(&mut self, hier: &mut MemHierarchy, addr: u64) {
        self.window_stall();
        let line = hier.line_bytes();
        let line_addr = addr & !(line - 1);
        // Merge with an in-flight load of the same line: no new MSHR. A
        // primary whose fill already returned is NOT merged with — the line
        // re-fetches through the hierarchy.
        let cycle = self.cycle;
        let merged =
            self.primaries.iter().find(|&&(l, c)| l == line_addr && c > cycle).map(|&(_, c)| c);
        #[cfg(test)]
        assert_eq!(
            merged,
            self.shadow_inflight.get(&line_addr).copied().filter(|&c| c > cycle),
            "MSHR scan and in-flight map disagree on line {line_addr:#x} at cycle {cycle}"
        );
        if let Some(completion) = merged {
            self.pending.push_back(PendingLoad { completion, op_idx: self.op_idx });
            self.issue_slots(1);
            self.ctr.loads += 1;
            return;
        }
        // MSHR cap: stall until the earliest-finishing primary completes.
        // Draining leaves only future completions, so each iteration
        // strictly advances time.
        self.drain_primaries();
        while self.primaries.len() >= self.cfg.max_outstanding_loads {
            let next =
                self.primaries.iter().map(|&(_, c)| c).min().expect("cap > 0 implies non-empty");
            debug_assert!(next > self.cycle, "drain left a completed primary behind");
            self.ctr.mshr_stalls += 1;
            let d = self.advance_counting(next);
            self.ctr.mshr_stall_cycles += d;
            self.retire_completed();
            self.drain_primaries();
        }
        let completion = hier.core_access_tile(self.tile, addr, false, self.cycle);
        self.pending.push_back(PendingLoad { completion, op_idx: self.op_idx });
        #[cfg(test)]
        self.shadow_inflight.insert(line_addr, completion);
        self.primaries.push((line_addr, completion));
        self.issue_slots(1);
        self.ctr.loads += 1;
    }

    /// Issue a store (retires via the store buffer).
    pub fn store(&mut self, hier: &mut MemHierarchy, addr: u64) {
        self.window_stall();
        while self.stores.len() >= self.cfg.store_buffer {
            let f = self.stores.front().expect("store_buffer > 0 implies non-empty");
            self.ctr.store_buffer_stalls += 1;
            let d = self.advance_counting(f);
            self.ctr.store_buffer_stall_cycles += d;
            self.retire_completed();
        }
        let completion = hier.core_access_tile(self.tile, addr, true, self.cycle);
        self.stores.push_back(completion);
        self.issue_slots(1);
        self.ctr.stores += 1;
    }

    /// Drain: wait for every outstanding load and store.
    pub fn drain(&mut self) {
        let last =
            self.pending.iter().map(|p| p.completion).chain(self.stores.iter()).max().unwrap_or(0);
        let d = self.advance_counting(last);
        self.ctr.drain_stall_cycles += d;
        self.retire_completed();
    }

    /// Core statistics, assembled into a registry view.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("scalar.stall_cycles", self.ctr.stall_cycles);
        s.set("scalar.ops", self.ctr.ops);
        s.set("scalar.fp_ops", self.ctr.fp_ops);
        s.set("scalar.branches", self.ctr.branches);
        s.set("scalar.loads", self.ctr.loads);
        s.set("scalar.stores", self.ctr.stores);
        s.set("scalar.window_stalls", self.ctr.window_stalls);
        s.set("scalar.mshr_stalls", self.ctr.mshr_stalls);
        s.set("scalar.store_buffer_stalls", self.ctr.store_buffer_stalls);
        s.set("scalar.stall.window_cycles", self.ctr.window_stall_cycles);
        s.set("scalar.stall.mshr_cycles", self.ctr.mshr_stall_cycles);
        s.set("scalar.stall.store_buffer_cycles", self.ctr.store_buffer_stall_cycles);
        s.set("scalar.stall.drain_cycles", self.ctr.drain_stall_cycles);
        s.set("scalar.stall.branch_cycles", self.ctr.branch_stall_cycles);
        s.set("scalar.stall.vpu_queue_cycles", self.ctr.vpu_queue_stall_cycles);
        s.set("scalar.stall.vpu_sync_cycles", self.ctr.vpu_sync_stall_cycles);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemHierConfig;

    fn parts() -> (ScalarCore, MemHierarchy) {
        (ScalarCore::new(ScalarConfig::default()), MemHierarchy::new(MemHierConfig::default()))
    }

    #[test]
    fn issue_width_packs_ops() {
        let (mut c, _) = parts();
        c.int_ops(4); // 2-wide: 2 cycles
        assert_eq!(c.now(), 2);
        c.int_ops(1);
        assert_eq!(c.now(), 2, "half-filled cycle");
        c.int_ops(1);
        assert_eq!(c.now(), 3);
    }

    #[test]
    fn taken_branch_pays_penalty() {
        let (mut c, _) = parts();
        c.branch(false);
        let t0 = c.now();
        c.branch(true);
        assert!(c.now() >= t0 + ScalarConfig::default().branch_penalty);
    }

    #[test]
    fn independent_loads_overlap_up_to_mshr_cap() {
        let (mut c, mut h) = parts();
        // 4 loads to distinct lines: all issue back-to-back (cap is 4).
        for i in 0..4u64 {
            c.load(&mut h, i * 64);
        }
        assert!(c.now() < 10, "no stall within the MSHR budget: {}", c.now());
        // The 5th distinct-line load must wait for one to complete.
        c.load(&mut h, 4 * 64);
        assert!(c.now() > 40, "5th load stalls on MSHRs: {}", c.now());
        assert_eq!(c.stats().get("scalar.mshr_stalls"), 1);
    }

    #[test]
    fn same_line_loads_merge_without_mshr_pressure() {
        let (mut c, mut h) = parts();
        for i in 0..16u64 {
            c.load(&mut h, i * 8); // two lines total
        }
        assert_eq!(c.stats().get("scalar.mshr_stalls"), 0);
        assert!(c.now() < 16);
    }

    #[test]
    fn runahead_window_stalls_on_old_loads() {
        let (mut c, mut h) = parts();
        c.load(&mut h, 0); // cold miss, ~50 cycles
                           // Issue more ops than the window allows: the core must stall on the load.
        c.int_ops(ScalarConfig::default().runahead_window as u32 + 8);
        assert!(c.now() > 40, "window forces a stall: {}", c.now());
        assert!(c.stats().get("scalar.window_stalls") > 0);
    }

    #[test]
    fn window_does_not_stall_on_completed_loads() {
        let (mut c, mut h) = parts();
        c.load(&mut h, 0);
        c.advance_to(200); // load long since complete
        c.int_ops(100);
        assert_eq!(c.stats().get("scalar.window_stalls"), 0);
    }

    #[test]
    fn store_buffer_absorbs_then_backpressures() {
        let (mut c, mut h) = parts();
        let sb = ScalarConfig::default().store_buffer;
        for i in 0..sb as u64 {
            c.store(&mut h, i * 64);
        }
        let t = c.now();
        assert!(t < 10, "buffered stores don't stall: {t}");
        c.store(&mut h, 100 * 64);
        assert!(c.stats().get("scalar.store_buffer_stalls") >= 1);
    }

    #[test]
    fn drain_waits_for_everything() {
        let (mut c, mut h) = parts();
        c.load(&mut h, 0);
        c.store(&mut h, 4096);
        c.drain();
        let t = c.now();
        assert!(t > 40);
        // Idempotent.
        c.drain();
        assert_eq!(c.now(), t);
    }

    #[test]
    fn stall_attribution_decomposes_total() {
        // Exercise every stall cause, then check the per-cause cycle
        // attribution sums back to the advance_to total (branch bubbles are
        // charged directly to the cycle counter, not through advance_to).
        let (mut c, mut h) = parts();
        for i in 0..8u64 {
            c.load(&mut h, i * 4096); // MSHR pressure past the cap of 4
        }
        c.int_ops(ScalarConfig::default().runahead_window as u32 + 8); // window
        for i in 0..12u64 {
            c.store(&mut h, (100 + i) * 4096); // store-buffer pressure
        }
        c.branch(true);
        c.wait_for_vpu_queue(c.now() + 17);
        c.wait_for_vpu_sync(c.now() + 23);
        c.drain();
        let s = c.stats();
        let causes = s.get("scalar.stall.window_cycles")
            + s.get("scalar.stall.mshr_cycles")
            + s.get("scalar.stall.store_buffer_cycles")
            + s.get("scalar.stall.drain_cycles")
            + s.get("scalar.stall.vpu_queue_cycles")
            + s.get("scalar.stall.vpu_sync_cycles");
        assert_eq!(causes, s.get("scalar.stall_cycles"), "attribution must be exhaustive");
        assert!(s.get("scalar.stall.mshr_cycles") > 0);
        assert!(s.get("scalar.stall.window_cycles") > 0);
        assert!(s.get("scalar.stall.store_buffer_cycles") > 0);
        assert_eq!(s.get("scalar.stall.vpu_queue_cycles"), 17);
        assert_eq!(s.get("scalar.stall.vpu_sync_cycles"), 23);
        assert_eq!(s.get("scalar.stall.branch_cycles"), ScalarConfig::default().branch_penalty);
    }

    #[test]
    fn mshr_scan_agrees_with_the_inflight_map_on_a_random_stream() {
        use sdv_engine::Rng;
        // `load` asserts on every call that the scan over the MSHR list and
        // the shadow line map make the same merge decision with the same
        // completion; this drives it through reuse at every distance, from
        // back-to-back same-line loads to lines re-fetched long after their
        // fill returned, with the MSHRs both scarce and plentiful.
        for extra in [0, 32, 1024] {
            for mshrs in [1, 4, 8] {
                let cfg = ScalarConfig { max_outstanding_loads: mshrs, ..ScalarConfig::default() };
                let mut c = ScalarCore::new(cfg);
                let mut h = MemHierarchy::new(MemHierConfig::default());
                h.set_extra_latency(extra);
                let mut rng = Rng::new(extra * 16 + mshrs as u64);
                let mut recent = [0u64; 8];
                for i in 0..200_000usize {
                    match rng.below(8) {
                        0 => c.int_ops(1 + rng.below(40) as u32),
                        1 => c.store(&mut h, rng.below(1 << 20)),
                        2 => c.branch(rng.chance(0.3)),
                        3..=5 => c.load(&mut h, recent[rng.index(8)] + rng.below(64)),
                        _ => {
                            let addr = rng.below(1 << 14) * 64;
                            recent[i % 8] = addr;
                            c.load(&mut h, addr);
                        }
                    }
                }
                c.drain();
                let merged = c.stats().get("scalar.loads") - h.stats().get("l1.load");
                assert!(merged > 1_000, "+{extra}, {mshrs} MSHRs: only {merged} loads merged");
                assert!(c.primaries.len() <= mshrs);
            }
        }
    }

    #[test]
    fn latency_knob_hurts_serial_loads_linearly() {
        // Serial dependent-ish loads (window forces serialization):
        // doubling extra latency should add ~extra per miss.
        let window = ScalarConfig::default().runahead_window as u32;
        let run = |extra: u64| {
            let (mut c, mut h) = parts();
            h.set_extra_latency(extra);
            for i in 0..20u64 {
                c.load(&mut h, i * 4096);
                c.int_ops(window + 8); // beyond the window: forces stall-on-use
            }
            c.drain();
            c.now()
        };
        let t0 = run(0);
        let t256 = run(256);
        let delta = t256 - t0;
        assert!(
            (20 * 220..=20 * 280).contains(&delta),
            "each of 20 serialized misses should absorb ~256 extra cycles, delta={delta}"
        );
    }
}
