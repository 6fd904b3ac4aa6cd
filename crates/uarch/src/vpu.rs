//! The Vitruvius-style decoupled vector unit timing model.
//!
//! Three mechanisms shape the paper's results and are modelled directly:
//!
//! * **element throughput**: an arithmetic instruction occupies the 8-lane
//!   datapath for `ceil(vl/lanes)` cycles, plus a fixed startup — so short
//!   VLs pay proportionally more overhead per element,
//! * **decoupling**: the scalar core runs ahead through a small instruction
//!   queue and only waits when it consumes a vector-produced scalar,
//! * **deep vector-memory MLP**: the memory unit keeps up to
//!   `vmem_outstanding` line requests in flight, so one long-vector gather
//!   pays the DRAM latency roughly once per *batch* instead of once per
//!   element — the latency-tolerance mechanism of §4.1.

use crate::config::VpuConfig;
use crate::memhier::MemHierarchy;
use crate::op::{VClass, VectorOp};
use sdv_engine::{ArmedFault, Cycle, Probe, Ring, SimError, Stats, TraceEvent, WEDGE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of dispatching one vector instruction.
#[derive(Debug, Clone, Copy)]
pub struct Dispatched {
    /// Cycle the scalar core was able to hand the instruction over (later
    /// than the dispatch attempt when the queue was full).
    pub accepted_at: Cycle,
    /// Cycle the instruction completes in the VPU.
    pub completion: Cycle,
}

/// The vector unit.
pub struct VpuTiming {
    cfg: VpuConfig,
    /// Which tile this VPU belongs to (selects its mesh node and coherence
    /// requestor id in the shared hierarchy; 0 in the single-tile machine).
    tile: usize,
    /// Completion times of instructions still in the decoupled queue window.
    /// Bounded by `queue_depth`, so the ring is pre-sized and never grows.
    queue: Ring<Cycle>,
    /// When the arithmetic datapath frees.
    exec_free: Cycle,
    /// When the memory unit can start its next request stream.
    vmem_free: Cycle,
    /// In-flight line-request completions — shared across instructions:
    /// this is the hardware request window, so total vector MLP is
    /// `min(queue_depth × lines-per-instruction, vmem_outstanding)` — short
    /// VLs are queue-bound, long VLs window-bound. A min-heap, used three
    /// ways: below capacity a credit is pushed (a late completion lands at a
    /// leaf in O(1)); at capacity, returned credits are popped off the top;
    /// and when the window is still full after that, the line stalls until
    /// the top returns and its own credit *replaces* the top in place — one
    /// sift-down instead of a pop and a push. A sorted ring does not work
    /// here: completions mix latency classes (L2 hits tens of cycles out,
    /// DRAM misses hundreds), so the stream is not near-monotone. See
    /// EXPERIMENTS.md ("scheduler engine") for the numbers.
    outstanding: BinaryHeap<Reverse<Cycle>>,
    /// The window as it was run before the in-place replace (pop the top,
    /// push the new credit), kept as the reference `memory_op` checks every
    /// line against.
    #[cfg(test)]
    shadow_outstanding: BinaryHeap<Reverse<Cycle>>,
    /// In-order completion horizon.
    last_completion: Cycle,
    /// Armed wedge-credit fault (`None` when injection is off: the hot loop
    /// pays one never-taken branch).
    credit_fault: Option<ArmedFault>,
    /// Observability sink (off by default — same cost model as the fault).
    probe: Probe,
    ctr: VpuCounters,
}

/// Event counters bumped on every dispatched instruction / line request —
/// plain fields, assembled into a registry view by [`VpuTiming::stats`].
#[derive(Debug, Default, Clone, Copy)]
struct VpuCounters {
    instrs: u64,
    elements: u64,
    fp_elements: u64,
    exec_cycles: u64,
    queue_stall_cycles: u64,
    vloads: u64,
    vstores: u64,
    vmem_lines: u64,
    vmem_elems: u64,
    vmem_window_stall_cycles: u64,
    /// Cycles the in-order completion horizon advanced past the point a
    /// zero-latency memory system would have allowed: the VPU's exposed
    /// (non-overlapped) memory wait. Window throttling shows up here too —
    /// it only happens because line credits are still out to memory.
    mem_wait_cycles: u64,
}

impl VpuTiming {
    /// A VPU at cycle 0 (tile 0).
    pub fn new(cfg: VpuConfig) -> Self {
        Self::new_for_tile(cfg, 0)
    }

    /// A VPU at cycle 0, accessing the shared hierarchy as `tile`.
    pub fn new_for_tile(cfg: VpuConfig, tile: usize) -> Self {
        assert!(cfg.lanes > 0, "need at least one lane");
        assert!(cfg.queue_depth > 0, "decoupling queue needs depth");
        assert!(cfg.vmem_outstanding > 0, "memory unit needs outstanding slots");
        Self {
            cfg,
            tile,
            queue: Ring::with_capacity(cfg.queue_depth),
            exec_free: 0,
            vmem_free: 0,
            outstanding: BinaryHeap::with_capacity(cfg.vmem_outstanding + 1),
            #[cfg(test)]
            shadow_outstanding: BinaryHeap::new(),
            last_completion: 0,
            credit_fault: None,
            probe: Probe::off(),
            ctr: VpuCounters::default(),
        }
    }

    /// Arm the wedge-credit fault: from the armed trigger point on, issued
    /// line credits are never returned to the outstanding window.
    pub fn arm_wedge_credit(&mut self, fault: ArmedFault) {
        self.credit_fault = Some(fault);
    }

    /// Install an observability probe (replaces the default disabled one).
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// Timeline events recorded by this unit's probe (empty unless tracing).
    pub fn trace_events(&self) -> &[TraceEvent] {
        self.probe.events()
    }

    /// Cycles the datapath is occupied by `vl` elements.
    fn element_cycles(&self, vl: usize) -> Cycle {
        (vl.div_ceil(self.cfg.lanes)) as Cycle
    }

    /// Dispatch one vector instruction at `now`.
    pub fn dispatch(&mut self, vop: &VectorOp, now: Cycle, hier: &mut MemHierarchy) -> Dispatched {
        // Decoupling queue backpressure.
        let mut accepted_at = now;
        while self.queue.len() >= self.cfg.queue_depth {
            let head = self.queue.pop_front().expect("non-empty");
            if head > accepted_at {
                self.ctr.queue_stall_cycles += head - accepted_at;
                accepted_at = head;
            }
        }
        // Completions enter the queue in nondecreasing order (in-order
        // completion below), so draining instructions that finished by
        // `accepted_at` is a prefix pop — no O(depth) shift like `retain`.
        while self.queue.front().is_some_and(|c| c <= accepted_at) {
            self.queue.pop_front();
        }

        // For memory ops, the completion a zero-latency memory system would
        // have produced — the baseline the exposed memory wait is measured
        // against.
        let mut mem_issue_bound = None;
        let completion = match vop.class {
            VClass::SetVl => accepted_at + 1,
            VClass::Arith | VClass::ArithLong | VClass::Reduction => {
                let start = accepted_at.max(self.exec_free);
                let batches = self.element_cycles(vop.vl);
                let occupancy = if vop.class == VClass::ArithLong {
                    batches * self.cfg.long_op_factor
                } else {
                    batches
                };
                self.exec_free = start + occupancy;
                let extra =
                    if vop.class == VClass::Reduction { self.cfg.reduction_overhead } else { 0 };
                self.ctr.exec_cycles += occupancy;
                start + self.cfg.startup + occupancy + extra
            }
            VClass::Memory => {
                let (done, bound) = self.memory_op(vop, accepted_at, hier);
                mem_issue_bound = Some(bound);
                done
            }
        };
        // In-order completion.
        let prev_horizon = self.last_completion;
        let completion = completion.max(self.last_completion);
        if let Some(bound) = mem_issue_bound {
            // Whatever this instruction added to the completion horizon
            // beyond its issue-rate bound (and beyond where the horizon
            // already stood) is non-overlapped memory latency.
            self.ctr.mem_wait_cycles += completion.saturating_sub(bound.max(prev_horizon));
        }
        self.last_completion = completion;
        if self.probe.tracing() {
            let name = match vop.class {
                VClass::SetVl => "vsetvli",
                VClass::Arith => "varith",
                VClass::ArithLong => "varith.long",
                VClass::Reduction => "vreduce",
                VClass::Memory => {
                    if vop.mem.as_ref().is_some_and(|m| m.is_load) {
                        "vload"
                    } else {
                        "vstore"
                    }
                }
            };
            self.probe.span("vpu", name, 1, accepted_at, completion - accepted_at, vop.vl as u64);
        }
        self.queue.push_back(completion);
        self.ctr.instrs += 1;
        self.ctr.elements += vop.active as u64;
        if vop.is_fp {
            // FLOP accounting (FMAs count two by convention; approximated
            // as one element-op here and doubled by the roofline tool).
            self.ctr.fp_elements += vop.active as u64;
        }
        Dispatched { accepted_at, completion }
    }

    /// Cost a vector load/store: stream line requests into the hierarchy at
    /// the unit's issue rate, bounded by the outstanding-request window.
    /// Returns `(completion, issue_bound)` where `issue_bound` is the
    /// completion a zero-latency memory system would have produced (address
    /// generation + write-back only).
    fn memory_op(
        &mut self,
        vop: &VectorOp,
        accepted_at: Cycle,
        hier: &mut MemHierarchy,
    ) -> (Cycle, Cycle) {
        let mem = vop.mem.as_ref().expect("Memory class op without footprint");
        let start = accepted_at.max(self.vmem_free) + self.cfg.startup;
        if mem.lines.is_empty() {
            self.vmem_free = start;
            return (start, start);
        }
        if mem.is_load {
            self.ctr.vloads += 1;
        } else {
            self.ctr.vstores += 1;
        }
        self.ctr.vmem_lines += mem.lines.len() as u64;
        self.ctr.vmem_elems += mem.elems as u64;

        // Address-generation spacing between consecutive line requests,
        // computed inline per request (no spacing buffer): unit-stride is a
        // burst engine issuing `vmem_unit_issue_per_cycle` lines per cycle;
        // indexed generation is element-paced.
        let unit_rate = self.cfg.vmem_unit_issue_per_cycle as u64;
        let index_rate = self.cfg.vmem_index_issue_per_cycle as u64;
        let elems_per_line = (mem.elems as u64).max(1);
        let n_lines = mem.lines.len() as u64;

        // Indexed spacing is `floor(k * elems_per_line / (n_lines *
        // index_rate))`; step it incrementally (carry the remainder) so the
        // per-line division happens once per instruction, not once per line.
        let index_den = n_lines * index_rate;
        let index_quot = elems_per_line / index_den;
        let index_rem_step = elems_per_line % index_den;
        let mut index_spacing = 0u64;
        let mut index_rem = 0u64;

        let mut last_issue = start;
        let mut data_done = start;
        let mut last_spacing = 0u64;
        for (k, &line) in mem.lines.iter().enumerate() {
            let spacing = if mem.unit_stride {
                // The default burst engine issues one line per cycle; skip
                // the division entirely in that common configuration.
                if unit_rate == 1 {
                    k as u64
                } else {
                    k as u64 / unit_rate
                }
            } else {
                let s = index_spacing;
                index_spacing += index_quot;
                index_rem += index_rem_step;
                if index_rem >= index_den {
                    index_rem -= index_den;
                    index_spacing += 1;
                }
                s
            };
            last_spacing = spacing;
            let mut t = start + spacing;
            if t < last_issue {
                t = last_issue;
            }
            #[cfg(test)]
            let shadow_t = self.shadow_window_admit(t);
            // Outstanding-window backpressure: the mechanism that converts
            // latency into (amortized) throughput for long vectors. Returned
            // slots (completion <= t) are pruned lazily, only when the raw
            // count reaches the cap: issue times are nondecreasing across
            // the run, so a stale entry stays stale, is never the stalling
            // minimum, and cannot flip the at-capacity decision — while the
            // common under-capacity case skips the heap entirely.
            let mut window_full = false;
            if self.outstanding.len() >= self.cfg.vmem_outstanding {
                while let Some(&Reverse(c)) = self.outstanding.peek() {
                    if c <= t {
                        self.outstanding.pop();
                    } else {
                        break;
                    }
                }
                if self.outstanding.len() >= self.cfg.vmem_outstanding {
                    // Every credit at or before `t` was just popped, so the
                    // top is later: wait for it. It stays in the heap until
                    // this line's own credit overwrites it below.
                    let &Reverse(earliest) = self.outstanding.peek().expect("non-empty");
                    debug_assert!(earliest > t, "the prune left a returned credit on top");
                    self.ctr.vmem_window_stall_cycles += earliest - t;
                    t = earliest;
                    window_full = true;
                }
            }
            #[cfg(test)]
            assert_eq!(t, shadow_t, "replace-top and pop+push windows admit line {k} differently");
            let done = hier.vpu_access_tile(self.tile, line, !mem.is_load, t);
            // Injected wedge: the credit for this line is never returned —
            // the entry sits in the window at `WEDGE` forever. Data still
            // arrives (`done` is unchanged); only the credit counter wedges.
            let credit_done = match self.credit_fault.as_mut() {
                Some(f) => {
                    if f.fire_sticky() {
                        WEDGE
                    } else {
                        done
                    }
                }
                None => done,
            };
            if window_full {
                *self.outstanding.peek_mut().expect("non-empty") = Reverse(credit_done);
            } else {
                self.outstanding.push(Reverse(credit_done));
            }
            #[cfg(test)]
            {
                self.shadow_outstanding.push(Reverse(credit_done));
                assert_eq!(
                    self.outstanding.clone().into_sorted_vec(),
                    self.shadow_outstanding.clone().into_sorted_vec(),
                    "window contents diverged at line {k}"
                );
            }
            last_issue = t;
            data_done = data_done.max(done);
        }
        self.vmem_free = last_issue + 1;
        self.probe.sample("vpu.vmem_occupancy", self.outstanding.len() as u64);
        self.probe.counter("vmem_outstanding_lines", last_issue, self.outstanding.len() as u64);
        let write_back = if mem.is_load { self.element_cycles(vop.vl) } else { 0 };
        let issue_bound = start + last_spacing + write_back;
        let completion = if mem.is_load {
            // Register write-back of the gathered elements.
            data_done + write_back
        } else {
            // Stores complete (for dependence purposes) once issued and
            // globally ordered.
            data_done
        };
        (completion, issue_bound)
    }

    /// The pre-replace window discipline on the shadow heap: prune returned
    /// credits at capacity, then pop the minimum to make room. Returns the
    /// issue time it grants a line that wants to go at `t`.
    #[cfg(test)]
    fn shadow_window_admit(&mut self, mut t: Cycle) -> Cycle {
        if self.shadow_outstanding.len() >= self.cfg.vmem_outstanding {
            while self.shadow_outstanding.peek().is_some_and(|&Reverse(c)| c <= t) {
                self.shadow_outstanding.pop();
            }
            if self.shadow_outstanding.len() >= self.cfg.vmem_outstanding {
                let Reverse(earliest) = self.shadow_outstanding.pop().expect("non-empty");
                t = t.max(earliest);
            }
        }
        t
    }

    /// Completion time of the last instruction dispatched so far.
    pub fn all_done(&self) -> Cycle {
        self.last_completion
    }

    /// Instructions currently in the decoupling-queue window.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// One-line state dump for watchdog diagnostics.
    pub fn diagnostic(&self) -> String {
        format!(
            "vpu: queue {}/{}, line credits {}/{}, exec_free={}, vmem_free={}, last_completion={}",
            self.queue.len(),
            self.cfg.queue_depth,
            self.outstanding.len(),
            self.cfg.vmem_outstanding,
            self.exec_free,
            self.vmem_free,
            self.last_completion
        )
    }

    /// Credit-leak audit, run at program end (`now` = final cycle). Every
    /// legitimately issued line credit completes no later than the in-order
    /// completion horizon, so any credit still pending past it was leaked —
    /// exactly what the wedge-credit fault produces. Also cross-checks the
    /// window accounting against its configured capacity.
    pub fn audit(&self, now: Cycle) -> Result<(), SimError> {
        if self.outstanding.len() > self.cfg.vmem_outstanding {
            return Err(SimError::InvariantViolation {
                cycle: now,
                what: format!(
                    "vmem credit accounting: {} credits held, window capacity is {}",
                    self.outstanding.len(),
                    self.cfg.vmem_outstanding
                ),
            });
        }
        let horizon = self.last_completion;
        let leaked = self.outstanding.iter().filter(|r| r.0 > horizon).count();
        if leaked > 0 {
            let stuck = self.outstanding.iter().map(|r| r.0).max().unwrap_or(0);
            return Err(SimError::InvariantViolation {
                cycle: now,
                what: format!(
                    "vmem credit leak: {leaked} line credits never returned \
                     (stuck until cycle {stuck}, last completion {horizon})"
                ),
            });
        }
        Ok(())
    }

    /// Latency for the scalar core to read back a scalar result.
    pub fn scalar_read_latency(&self) -> Cycle {
        self.cfg.scalar_read_latency
    }

    /// VPU statistics, assembled into a registry view.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("vpu.instrs", self.ctr.instrs);
        s.set("vpu.elements", self.ctr.elements);
        s.set("vpu.fp_elements", self.ctr.fp_elements);
        s.set("vpu.exec_cycles", self.ctr.exec_cycles);
        s.set("vpu.queue_stall_cycles", self.ctr.queue_stall_cycles);
        s.set("vpu.vloads", self.ctr.vloads);
        s.set("vpu.vstores", self.ctr.vstores);
        s.set("vpu.vmem_lines", self.ctr.vmem_lines);
        s.set("vpu.vmem_elems", self.ctr.vmem_elems);
        s.set("vpu.vmem_window_stall_cycles", self.ctr.vmem_window_stall_cycles);
        s.set("vpu.mem_wait_cycles", self.ctr.mem_wait_cycles);
        self.probe.export(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemHierConfig;
    use crate::op::VectorMemOp;

    fn parts() -> (VpuTiming, MemHierarchy) {
        (VpuTiming::new(VpuConfig::default()), MemHierarchy::new(MemHierConfig::default()))
    }

    fn arith(vl: usize) -> VectorOp {
        VectorOp {
            class: VClass::Arith,
            vl,
            active: vl,
            mem: None,
            produces_scalar: false,
            is_fp: false,
        }
    }

    fn load_op(vl: usize, lines: Vec<u64>, unit: bool) -> VectorOp {
        VectorOp {
            class: VClass::Memory,
            vl,
            active: vl,
            mem: Some(VectorMemOp { is_load: true, unit_stride: unit, elems: vl, lines }),
            produces_scalar: false,
            is_fp: false,
        }
    }

    #[test]
    fn arith_cost_scales_with_vl_over_lanes() {
        let (mut v, mut h) = parts();
        let d8 = v.dispatch(&arith(8), 0, &mut h);
        let base = d8.completion; // startup + 1
        let (mut v2, mut h2) = parts();
        let d256 = v2.dispatch(&arith(256), 0, &mut h2);
        assert_eq!(d256.completion - base, 31, "256/8=32 batches vs 1 batch");
    }

    #[test]
    fn startup_amortizes_at_long_vl() {
        // Cycles per element strictly improves with VL.
        let per_elem = |vl: usize| {
            let (mut v, mut h) = parts();
            let d = v.dispatch(&arith(vl), 0, &mut h);
            d.completion as f64 / vl as f64
        };
        assert!(per_elem(8) > per_elem(64));
        assert!(per_elem(64) > per_elem(256));
    }

    #[test]
    fn back_to_back_arith_pipelines() {
        let (mut v, mut h) = parts();
        let d1 = v.dispatch(&arith(256), 0, &mut h);
        let d2 = v.dispatch(&arith(256), 1, &mut h);
        // Occupancy-limited, not completion-limited: spacing = 32 cycles,
        // not the full startup+32.
        assert_eq!(d2.completion - d1.completion, 32);
    }

    #[test]
    fn queue_backpressures_when_full() {
        let (mut v, mut h) = parts();
        let depth = VpuConfig::default().queue_depth;
        let mut last = Dispatched { accepted_at: 0, completion: 0 };
        for _ in 0..depth + 1 {
            last = v.dispatch(&arith(256), 0, &mut h);
        }
        assert!(last.accepted_at > 0, "queue full: dispatch had to wait");
        assert!(v.stats().get("vpu.queue_stall_cycles") > 0);
    }

    #[test]
    fn gather_overlaps_line_fetches() {
        // 32 distinct lines, all cold: if fetches were serial this would cost
        // 32 * ~50 = 1600 cycles; with deep MLP it must be far below that.
        let (mut v, mut h) = parts();
        let lines: Vec<u64> = (0..32).map(|i| i * 4096).collect();
        let d = v.dispatch(&load_op(256, lines, false), 0, &mut h);
        assert!(d.completion < 500, "MLP must overlap fetches: {}", d.completion);
        assert!(d.completion > 50, "but they are not free: {}", d.completion);
    }

    #[test]
    fn outstanding_window_caps_mlp() {
        // More lines than the window: issue must throttle.
        let cfg = VpuConfig { vmem_outstanding: 4, ..VpuConfig::default() };
        let mut v = VpuTiming::new(cfg);
        let mut h = MemHierarchy::new(MemHierConfig::default());
        let lines: Vec<u64> = (0..64).map(|i| i * 4096).collect();
        v.dispatch(&load_op(256, lines, false), 0, &mut h);
        assert!(v.stats().get("vpu.vmem_window_stall_cycles") > 0);
    }

    #[test]
    fn extra_latency_amortized_by_long_vectors() {
        // One 256-element gather over 64 lines: +1024 cycles of DRAM latency
        // must cost far less than 64 * 1024 extra.
        let run = |extra: u64| {
            let (mut v, mut h) = parts();
            h.set_extra_latency(extra);
            let lines: Vec<u64> = (0..64).map(|i| i * 4096).collect();
            v.dispatch(&load_op(256, lines, false), 0, &mut h).completion
        };
        let delta = run(1024) - run(0);
        assert!(delta >= 1024, "at least one serialized latency: {delta}");
        assert!(delta <= 3 * 1024, "but amortized across the window: {delta}");
    }

    #[test]
    fn unit_stride_streams_faster_than_gather() {
        let (mut v, mut h) = parts();
        let lines: Vec<u64> = (0..32).map(|i| i * 64).collect();
        let du = v.dispatch(&load_op(256, lines.clone(), true), 0, &mut h);
        let (mut v2, mut h2) = parts();
        let dg = v2.dispatch(&load_op(256, lines, false), 0, &mut h2);
        assert!(du.completion <= dg.completion, "{} vs {}", du.completion, dg.completion);
    }

    #[test]
    fn in_order_completion() {
        let (mut v, mut h) = parts();
        let d1 = v.dispatch(&load_op(256, (0..64).map(|i| i * 4096).collect(), false), 0, &mut h);
        let d2 = v.dispatch(&arith(8), d1.accepted_at, &mut h);
        assert!(d2.completion >= d1.completion, "no completion reordering");
    }

    #[test]
    fn reduction_pays_tree_overhead() {
        let (mut v, mut h) = parts();
        let red = VectorOp {
            class: VClass::Reduction,
            vl: 256,
            active: 256,
            mem: None,
            produces_scalar: false,
            is_fp: false,
        };
        let d = v.dispatch(&red, 0, &mut h);
        let (mut v2, mut h2) = parts();
        let a = v2.dispatch(&arith(256), 0, &mut h2);
        assert_eq!(d.completion - a.completion, VpuConfig::default().reduction_overhead);
    }

    #[test]
    fn clean_run_passes_credit_audit() {
        let (mut v, mut h) = parts();
        let d = v.dispatch(&load_op(256, (0..64).map(|i| i * 4096).collect(), false), 0, &mut h);
        assert_eq!(v.audit(d.completion), Ok(()));
        assert!(v.diagnostic().contains("line credits"), "{}", v.diagnostic());
    }

    #[test]
    fn wedged_credit_is_caught_by_the_audit() {
        use sdv_engine::{FaultKind, FaultPlan};
        // Window deep enough that the wedge never stalls issue within this
        // program — the subtle leak the audit (not the watchdog) must catch.
        let cfg = VpuConfig { vmem_outstanding: 1024, ..VpuConfig::default() };
        let mut v = VpuTiming::new(cfg);
        let mut h = MemHierarchy::new(MemHierConfig::default());
        v.arm_wedge_credit(FaultPlan::new(FaultKind::WedgeCredit, 3).arm(1));
        // 512 lines: past any trigger ordinal in [16, 272).
        for blk in 0..4u64 {
            let lines: Vec<u64> = (0..128).map(|i| (blk * 128 + i) * 4096).collect();
            v.dispatch(&load_op(256, lines, false), blk, &mut h);
        }
        let e = v.audit(v.all_done()).unwrap_err();
        assert!(matches!(e, SimError::InvariantViolation { .. }), "{e}");
        assert!(e.to_string().contains("credit leak"), "{e}");
    }

    #[test]
    fn replace_top_window_matches_pop_then_push_on_seeded_gathers() {
        use sdv_engine::Rng;
        // `memory_op` asserts per line that the in-place window and the
        // shadow pop+push window grant the same issue time and hold the same
        // credits. Gathers over a footprint a few times the L2 mix hits and
        // DRAM misses, so credits return out of order; windows of 1, 2 and 4
        // are full on nearly every line, 256 only under +1024.
        for extra in [0, 1024] {
            for window in [1, 2, 4, 256] {
                let cfg = VpuConfig { vmem_outstanding: window, ..VpuConfig::default() };
                let mut v = VpuTiming::new(cfg);
                let mut h = MemHierarchy::new(MemHierConfig::default());
                h.set_extra_latency(extra);
                let mut rng = Rng::new(extra + window as u64);
                let mut now = 0;
                for _ in 0..400 {
                    let n = 1 + rng.index(64);
                    let unit = rng.chance(0.3);
                    let base = rng.below(1 << 12);
                    let lines: Vec<u64> = (0..n as u64)
                        .map(|i| if unit { (base + i) * 64 } else { rng.below(1 << 12) * 64 })
                        .collect();
                    let mut op = load_op(256, lines, unit);
                    op.mem.as_mut().unwrap().is_load = rng.chance(0.8);
                    now = v.dispatch(&op, now, &mut h).accepted_at + rng.below(4);
                }
                assert_eq!(v.audit(v.all_done()), Ok(()));
                let stalled = v.stats().get("vpu.vmem_window_stall_cycles");
                assert!(
                    (window == 256 && extra == 0) || stalled > 0,
                    "window {window} at +{extra} never filled"
                );
            }
        }
    }

    #[test]
    fn mem_wait_attribution_tracks_exposed_latency() {
        // The exposed-memory-wait counter must grow with added DRAM latency
        // and stay well below the naive per-line sum (the window overlaps).
        let run = |extra: u64| {
            let (mut v, mut h) = parts();
            h.set_extra_latency(extra);
            let lines: Vec<u64> = (0..64).map(|i| i * 4096).collect();
            let d = v.dispatch(&load_op(256, lines, false), 0, &mut h);
            (v.stats().get("vpu.mem_wait_cycles"), d.completion)
        };
        let (w0, _) = run(0);
        let (w1024, completion) = run(1024);
        assert!(w0 > 0, "even unloaded DRAM exposes some latency");
        // The 256-deep window covers all 64 lines, so added latency is
        // exposed exactly once (at the critical line), never per line.
        assert_eq!(w1024, w0 + 1024, "window covers the stream: latency exposed once");
        assert!(w1024 < 64 * 1024, "amortized, not serialized per line");
        assert!(w1024 <= completion, "attribution cannot exceed wall time");
    }

    #[test]
    fn probe_records_spans_and_counters() {
        use sdv_engine::ProbeConfig;
        let (mut v, mut h) = parts();
        v.set_probe(Probe::new(ProbeConfig::tracing()));
        v.dispatch(&arith(256), 0, &mut h);
        v.dispatch(&load_op(256, (0..32).map(|i| i * 4096).collect(), false), 0, &mut h);
        let names: Vec<&str> = v.trace_events().iter().map(|e| e.name).collect();
        assert!(names.contains(&"varith"), "{names:?}");
        assert!(names.contains(&"vload"), "{names:?}");
        assert!(
            v.trace_events().iter().any(|e| e.dur.is_none() && e.name == "vmem_outstanding_lines"),
            "memory ops emit an outstanding-lines counter sample"
        );
        assert!(v.stats().histogram("vpu.vmem_occupancy").is_some());
    }

    #[test]
    fn empty_footprint_is_cheap() {
        let (mut v, mut h) = parts();
        let d = v.dispatch(&load_op(0, vec![], false), 0, &mut h);
        assert!(d.completion <= VpuConfig::default().startup + 1);
    }
}
