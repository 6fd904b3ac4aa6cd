//! The top-level timing consumer: scalar core + VPU + memory hierarchy.

use crate::config::{TimingConfig, WatchdogConfig};
use crate::memhier::MemHierarchy;
use crate::op::{Op, VClass};
use crate::scalar::ScalarCore;
use crate::vpu::VpuTiming;
use sdv_engine::{chrome_trace_json, Cycle, FaultKind, Probe, SimError, Stats, TraceEvent};

/// The assembled timing model. Feed it the dynamic [`Op`] stream a kernel
/// produces; read back cycles (the paper's hardware cycle counter) and
/// component statistics.
///
/// ## Failure handling
///
/// The model never returns `Result` from the per-op hot path. Instead the
/// forward-progress watchdog (when armed; see [`WatchdogConfig`]) *latches*
/// the first structured [`SimError`] it observes: from that point on
/// [`SdvTiming::issue`] is a no-op and [`SdvTiming::try_finish`] surfaces
/// the error with a full diagnostic dump. Kernels drive the op stream from
/// functional state only, so they always run to completion; the latched
/// error then tells the caller the cycle numbers are meaningless.
pub struct SdvTiming {
    /// One core+VPU pair per tile, indexed by tile id. Tile 0 is the paper's
    /// machine; the single-tile configuration is bit-identical to the old
    /// hard-wired core+VPU pair by construction.
    tiles: Vec<Tile>,
    hier: MemHierarchy,
    watchdog: WatchdogConfig,
    /// First failure observed; once set, `issue` short-circuits.
    fault: Option<Box<SimError>>,
    /// Wall-clock deadline, when armed (the probes' single-branch
    /// `Option<Box>` idiom: one never-taken branch per op when off).
    wall: Option<Box<WallDeadline>>,
    /// Measurement mode: accept and discard every op. `sdvbench --trace 1`
    /// uses it to time the functional half of a run in isolation (its
    /// `uarch.timing_share`); cycle counts of a bypassed run are meaningless.
    bypass: bool,
}

/// One tile: a scalar core and its decoupled VPU. Tiles share the banked
/// L2/MESI directory and DRAM through the mesh; everything above that line
/// is private per tile.
struct Tile {
    scalar: ScalarCore,
    vpu: VpuTiming,
}

/// An armed wall-clock deadline. `Instant::now()` costs a vDSO call, far too
/// much per op, so the clock is only consulted every [`WALL_STRIDE`] ops —
/// deadline detection is approximate by design (it guards operators against
/// runaway cells, it is not a timing result).
struct WallDeadline {
    deadline: std::time::Instant,
    limit_ms: u64,
    countdown: u32,
}

/// Ops between wall-clock checks. At the simulator's >100 M simulated
/// cycles/s this re-checks the clock a few thousand times per second.
const WALL_STRIDE: u32 = 1 << 14;

impl SdvTiming {
    /// Build from configuration, arming the watchdog and any fault plan.
    /// `cfg.mem.tiles` core+VPU pairs are instantiated around the shared
    /// hierarchy; an injected `WedgeCredit` fault arms on tile 0's VPU.
    pub fn new(cfg: TimingConfig) -> Self {
        let mut tiles: Vec<Tile> = (0..cfg.mem.tiles)
            .map(|t| Tile {
                scalar: ScalarCore::new_for_tile(cfg.scalar, t),
                vpu: VpuTiming::new_for_tile(cfg.vpu, t),
            })
            .collect();
        let mut hier = MemHierarchy::new(cfg.mem);
        if cfg.fault.is_active() {
            match cfg.fault.kind {
                FaultKind::WedgeCredit => tiles[0].vpu.arm_wedge_credit(cfg.fault.arm(1)),
                _ => hier.arm_fault(cfg.fault),
            }
        }
        if cfg.probe.any() {
            for tile in &mut tiles {
                tile.vpu.set_probe(Probe::new(cfg.probe));
            }
            hier.set_probe(Probe::new(cfg.probe));
        }
        Self { tiles, hier, watchdog: cfg.watchdog, fault: None, wall: None, bypass: false }
    }

    /// Number of tiles in this machine.
    pub fn tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Arm a wall-clock deadline for this run: if the op stream is still
    /// being issued `limit` from now, the first op past the deadline latches
    /// a structured [`SimError::DeadlineExceeded`] (checked every
    /// [`WALL_STRIDE`] ops). Deliberately *not* part of [`TimingConfig`]:
    /// host speed must never enter a cache key or the client/server config
    /// identity, and a deadline that does not fire is invisible — simulated
    /// cycles are bit-identical with or without it.
    pub fn set_wall_deadline(&mut self, limit: std::time::Duration) {
        self.wall = Some(Box::new(WallDeadline {
            deadline: std::time::Instant::now() + limit,
            limit_ms: limit.as_millis() as u64,
            countdown: WALL_STRIDE,
        }));
    }

    /// Discard all subsequent ops (attribution measurement mode): the wall
    /// clock of a bypassed run is the functional/exec share of a timed one.
    pub fn set_bypass(&mut self, on: bool) {
        self.bypass = on;
    }

    /// The §2.2 knob: extra DRAM latency in cycles.
    pub fn set_extra_latency(&mut self, extra: Cycle) {
        self.hier.set_extra_latency(extra);
    }

    /// The §2.3 knob: DRAM bandwidth cap in bytes/cycle.
    pub fn set_bandwidth_limit(&mut self, bytes_per_cycle: u64) {
        self.hier.set_bandwidth_limit(bytes_per_cycle);
    }

    /// Raw `(num, den)` limiter programming.
    pub fn set_bandwidth_fraction(&mut self, num: u32, den: u32) {
        self.hier.set_bandwidth_fraction(num, den);
    }

    /// Consume one trace operation on tile 0 — the single-tile machine's
    /// whole interface. Once a failure is latched this is a no-op: the
    /// kernel's remaining ops are accepted and discarded so the
    /// (functionally driven) program runs to completion cheaply.
    pub fn issue(&mut self, op: &Op) {
        self.issue_on(0, op);
    }

    /// Consume one trace operation on a specific tile. The per-tile scalar
    /// clock advances; shared hierarchy state (bank reservations, directory,
    /// DRAM admission) is visible to every other tile immediately.
    pub fn issue_on(&mut self, tile: usize, op: &Op) {
        if self.fault.is_some() || self.bypass {
            return;
        }
        if let Some(wall) = &mut self.wall {
            wall.countdown -= 1;
            if wall.countdown == 0 {
                wall.countdown = WALL_STRIDE;
                if std::time::Instant::now() >= wall.deadline {
                    let limit_ms = wall.limit_ms;
                    let diagnostic = self.diagnostic();
                    self.fault =
                        Some(Box::new(SimError::DeadlineExceeded { limit_ms, diagnostic }));
                    return;
                }
            }
        }
        let before = self.tiles[tile].scalar.now();
        self.hier.note_tile_clock(tile, before);
        match op {
            Op::IntOps(n) => self.tiles[tile].scalar.int_ops(*n),
            Op::FpOps(n) => self.tiles[tile].scalar.fp_ops(*n),
            Op::Load { addr, .. } => {
                let t = &mut self.tiles[tile];
                t.scalar.load(&mut self.hier, *addr);
            }
            Op::Store { addr, .. } => {
                let t = &mut self.tiles[tile];
                t.scalar.store(&mut self.hier, *addr);
            }
            Op::Branch { taken } => self.tiles[tile].scalar.branch(*taken),
            Op::Vector(vop) => {
                // Vector instructions consume a scalar issue slot, then run
                // decoupled. `vsetvli` stays on the scalar side entirely.
                self.tiles[tile].scalar.int_ops(1);
                if vop.class == VClass::SetVl {
                    return;
                }
                let d = {
                    let t = &mut self.tiles[tile];
                    let now = t.scalar.now();
                    t.vpu.dispatch(vop, now, &mut self.hier)
                };
                // Check the dispatch itself before advancing the scalar
                // core: a wedged resource shows up as this op's acceptance
                // or completion jumping an impossible distance past issue,
                // and latching here keeps the scalar clock at a sane value
                // for the diagnostic.
                let window = self.watchdog.progress_window;
                if window != 0 && d.completion.saturating_sub(before) > window {
                    self.latch_deadlock(before);
                    return;
                }
                let t = &mut self.tiles[tile];
                t.scalar.wait_for_vpu_queue(d.accepted_at);
                if vop.produces_scalar {
                    // The scalar core consumes the result immediately: a
                    // hard scalar<->vector synchronization.
                    let sync = d.completion + t.vpu.scalar_read_latency();
                    t.scalar.wait_for_vpu_sync(sync);
                }
            }
            Op::Sync => {
                let t = &mut self.tiles[tile];
                let done = t.vpu.all_done();
                t.scalar.wait_for_vpu_sync(done);
            }
        }
        self.watchdog_post(tile, before);
    }

    /// Post-op watchdog checks: a forward-progress jump on the scalar clock
    /// (a wedged bank eventually stalls the scalar core this way) and the
    /// cycle budget. Free when the watchdog is off.
    fn watchdog_post(&mut self, tile: usize, before: Cycle) {
        if !self.watchdog.armed() || self.fault.is_some() {
            return;
        }
        let now = self.tiles[tile].scalar.now();
        let window = self.watchdog.progress_window;
        if window != 0 && now.saturating_sub(before) > window {
            self.latch_deadlock(before);
            return;
        }
        let budget = self.watchdog.cycle_budget;
        if budget != 0 && now > budget {
            let diagnostic = self.diagnostic();
            self.fault = Some(Box::new(SimError::CycleBudgetExceeded {
                budget,
                cycle: now,
                diagnostic,
            }));
        }
    }

    fn latch_deadlock(&mut self, cycle: Cycle) {
        let diagnostic = self.diagnostic();
        self.fault = Some(Box::new(SimError::Deadlock { cycle, diagnostic }));
    }

    /// The first structured failure latched by the watchdog, if any.
    pub fn fault(&self) -> Option<&SimError> {
        self.fault.as_deref()
    }

    /// Machine-state dump attached to watchdog reports: VPU queue/credit
    /// state, per-bank reservations, directory summary, in-flight fills,
    /// DRAM horizon and mesh link credits.
    pub fn diagnostic(&self) -> String {
        let now = self.now();
        let mut parts: Vec<String> = Vec::with_capacity(self.tiles.len() + 1);
        for (i, t) in self.tiles.iter().enumerate() {
            if self.tiles.len() == 1 {
                parts.push(t.vpu.diagnostic());
            } else {
                parts.push(format!("tile{i} {}", t.vpu.diagnostic()));
            }
        }
        parts.push(self.hier.diagnostic(now));
        parts.join("\n")
    }

    /// Finish the program: drain everything and return the final cycle count
    /// (what the paper's hardware cycle counter would read). With a latched
    /// failure the drain is skipped (it would advance the clock to the wedge
    /// sentinel) — use [`SdvTiming::try_finish`] to observe the failure.
    pub fn finish(&mut self) -> Cycle {
        if self.fault.is_none() {
            for i in 0..self.tiles.len() {
                let before = self.tiles[i].scalar.now();
                let t = &mut self.tiles[i];
                let done = t.vpu.all_done();
                t.scalar.wait_for_vpu_sync(done);
                t.scalar.drain();
                self.watchdog_post(i, before);
            }
        }
        self.now()
    }

    /// Cross-tile barrier: every tile drains its VPU and store buffer, then
    /// all tile clocks align to the slowest tile. Returns the barrier cycle.
    /// The tiled kernels' synchronization primitive; a single-tile machine
    /// that never calls this is untouched by its existence.
    pub fn barrier(&mut self) -> Cycle {
        for t in &mut self.tiles {
            let done = t.vpu.all_done();
            t.scalar.wait_for_vpu_sync(done);
            t.scalar.drain();
        }
        let at = self.now();
        for t in &mut self.tiles {
            t.scalar.advance_to(at);
        }
        at
    }

    /// Finish the program, surfacing any latched watchdog failure and then
    /// running the end-of-run invariant audits (VPU credit accounting, MESI
    /// coherence). `Ok` carries the final cycle count.
    pub fn try_finish(&mut self) -> Result<Cycle, SimError> {
        let t = self.finish();
        if let Some(e) = self.fault.as_deref() {
            return Err(e.clone());
        }
        self.audit(t)?;
        Ok(t)
    }

    /// End-of-run invariant audits (read-only; never changes timing state).
    pub fn audit(&self, now: Cycle) -> Result<(), SimError> {
        for t in &self.tiles {
            t.vpu.audit(now)?;
        }
        self.hier.audit_coherence(now)
    }

    /// Current machine cycle: the furthest-advanced tile's scalar clock
    /// (identical to the scalar-core clock on a single-tile machine).
    pub fn now(&self) -> Cycle {
        self.tiles.iter().map(|t| t.scalar.now()).max().unwrap_or(0)
    }

    /// One tile's scalar-core cycle — the replay scheduler's ordering key.
    pub fn now_of(&self, tile: usize) -> Cycle {
        self.tiles[tile].scalar.now()
    }

    /// Merged statistics from every component. A single-tile machine emits
    /// exactly the historical key set; with more tiles each counter appears
    /// both under a `tileN.` prefix and in an unprefixed cross-tile sum.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        if self.tiles.len() == 1 {
            s.absorb(&self.tiles[0].scalar.stats());
            s.absorb(&self.tiles[0].vpu.stats());
        } else {
            for (i, t) in self.tiles.iter().enumerate() {
                let mut ts = Stats::new();
                ts.absorb(&t.scalar.stats());
                ts.absorb(&t.vpu.stats());
                for (k, v) in ts.iter() {
                    s.add(&format!("tile{i}.{k}"), v);
                }
                s.absorb(&ts);
            }
        }
        s.absorb(&self.hier.stats());
        s
    }

    /// Timeline events from every probed component (empty unless the
    /// config's probe enables tracing).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut ev = Vec::new();
        for t in &self.tiles {
            ev.extend_from_slice(t.vpu.trace_events());
        }
        ev.extend_from_slice(self.hier.trace_events());
        ev
    }

    /// The collected timeline as Chrome `trace_event` JSON — the format
    /// `chrome://tracing` and Perfetto load directly (1 trace µs = 1 cycle).
    pub fn trace_json(&self) -> String {
        chrome_trace_json(&self.trace_events(), &[(1, "VPU instructions")])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{VectorMemOp, VectorOp};

    fn machine() -> SdvTiming {
        SdvTiming::new(TimingConfig::default())
    }

    fn gather(vl: usize, lines: Vec<u64>) -> Op {
        Op::Vector(VectorOp {
            class: VClass::Memory,
            vl,
            active: vl,
            mem: Some(VectorMemOp { is_load: true, unit_stride: false, elems: vl, lines }),
            produces_scalar: false,
            is_fp: false,
        })
    }

    #[test]
    fn empty_program_is_zero_cycles() {
        let mut m = machine();
        assert_eq!(m.finish(), 0);
    }

    #[test]
    fn scalar_only_program() {
        let mut m = machine();
        m.issue(&Op::IntOps(100));
        m.issue(&Op::Branch { taken: true });
        let t = m.finish();
        assert!((50..70).contains(&t), "100 ops at 2-wide + branch: {t}");
    }

    #[test]
    fn sync_waits_for_vector_work() {
        let mut m = machine();
        m.issue(&gather(256, (0..64).map(|i| i * 4096).collect()));
        let before = m.now();
        m.issue(&Op::Sync);
        assert!(m.now() > before, "sync must wait for the gather");
    }

    #[test]
    fn finish_includes_vector_drain() {
        let mut m = machine();
        m.issue(&gather(256, (0..64).map(|i| i * 4096).collect()));
        let t = m.finish();
        assert!(t > 50);
    }

    #[test]
    fn scalar_producing_vector_op_synchronizes() {
        let mut m = machine();
        m.issue(&gather(256, (0..64).map(|i| i * 4096).collect()));
        let popc = Op::Vector(VectorOp {
            class: VClass::Arith,
            vl: 256,
            active: 256,
            mem: None,
            produces_scalar: true,
            is_fp: false,
        });
        m.issue(&popc);
        // In-order VPU completion means the popc result arrives after the
        // gather; the scalar core is now synchronized past it.
        let t_after_popc = m.now();
        assert!(t_after_popc > 50);
    }

    #[test]
    fn vector_program_beats_scalar_on_streaming() {
        // 4096 elements: scalar = 4096 loads; vector = 16 unit-stride loads
        // of 256 elements (512 lines total in both cases).
        let scalar_t = {
            let mut m = machine();
            for i in 0..4096u64 {
                m.issue(&Op::Load { addr: i * 8, size: 8 });
                m.issue(&Op::FpOps(1));
            }
            m.finish()
        };
        let vector_t = {
            let mut m = machine();
            for blk in 0..16u64 {
                let base = blk * 256 * 8;
                let lines: Vec<u64> = (0..32).map(|l| base + l * 64).collect();
                m.issue(&Op::Vector(VectorOp {
                    class: VClass::Memory,
                    vl: 256,
                    active: 256,
                    mem: Some(VectorMemOp { is_load: true, unit_stride: true, elems: 256, lines }),
                    produces_scalar: false,
            is_fp: false,
                }));
                m.issue(&Op::Vector(VectorOp {
                    class: VClass::Arith,
                    vl: 256,
                    active: 256,
                    mem: None,
                    produces_scalar: false,
            is_fp: false,
                }));
            }
            m.finish()
        };
        assert!(
            vector_t * 3 < scalar_t,
            "long vectors should win streaming by >3x: vector={vector_t} scalar={scalar_t}"
        );
    }

    #[test]
    fn latency_tolerance_improves_with_vl() {
        // The paper's central claim, reproduced at the op level: the same
        // 4096-element gather footprint, chunked at VL=8 vs VL=256. Adding
        // latency must hurt VL=8 more than VL=256.
        let run = |vl: u64, extra: u64| {
            let mut m = machine();
            m.set_extra_latency(extra);
            let total = 4096u64;
            for chunk in 0..total / vl {
                let lines: Vec<u64> = (0..vl).map(|e| (chunk * vl + e) * 4096).collect();
                m.issue(&gather(vl as usize, lines));
                m.issue(&Op::IntOps(4));
            }
            m.finish() as f64
        };
        let slowdown_8 = run(8, 512) / run(8, 0);
        let slowdown_256 = run(256, 512) / run(256, 0);
        assert!(
            slowdown_256 < slowdown_8,
            "long vectors must tolerate latency better: vl8 {slowdown_8:.2}x vs vl256 {slowdown_256:.2}x"
        );
    }

    #[test]
    fn bandwidth_utilization_improves_with_vl() {
        // Normalized-to-1B/cy execution time at full bandwidth: longer VL
        // must extract more benefit from the extra bandwidth (§4.2).
        let run = |vl: u64, bw: u64| {
            let mut m = machine();
            m.set_bandwidth_limit(bw);
            let total = 8192u64;
            for chunk in 0..total / vl {
                let base = chunk * vl * 8;
                let lines: Vec<u64> = (0..(vl * 8).div_ceil(64)).map(|l| base + l * 64).collect();
                m.issue(&Op::Vector(VectorOp {
                    class: VClass::Memory,
                    vl: vl as usize,
                    active: vl as usize,
                    mem: Some(VectorMemOp {
                        is_load: true,
                        unit_stride: true,
                        elems: vl as usize,
                        lines,
                    }),
                    produces_scalar: false,
            is_fp: false,
                }));
                m.issue(&Op::IntOps(4));
            }
            m.finish() as f64
        };
        let gain_8 = run(8, 1) / run(8, 64);
        let gain_256 = run(256, 1) / run(256, 64);
        assert!(
            gain_256 > gain_8,
            "long vectors must exploit bandwidth better: vl8 {gain_8:.2}x vs vl256 {gain_256:.2}x"
        );
    }

    #[test]
    fn stats_are_merged_across_components() {
        let mut m = machine();
        m.issue(&Op::Load { addr: 0, size: 8 });
        m.issue(&gather(8, vec![0, 4096]));
        m.finish();
        let s = m.stats();
        assert!(s.get("scalar.loads") == 1);
        assert!(s.get("vpu.instrs") == 1);
        assert!(s.get("dram.requests") >= 1);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut m = machine();
            for i in 0..500u64 {
                m.issue(&Op::Load { addr: (i * 809) % 100_000, size: 8 });
                m.issue(&Op::IntOps(3));
            }
            m.finish()
        };
        assert_eq!(run(), run());
    }

    fn mixed_program(m: &mut SdvTiming) -> Result<u64, sdv_engine::SimError> {
        for i in 0..40u64 {
            m.issue(&Op::Load { addr: (i * 937) % 65536, size: 8 });
            m.issue(&gather(256, (0..64).map(|l| (i * 64 + l) * 4096).collect()));
            m.issue(&Op::IntOps(8));
        }
        m.try_finish()
    }

    #[test]
    fn unfired_wall_deadline_is_a_pure_observer() {
        // A generous deadline must never change timing — same contract as
        // the watchdog and probes.
        let mut plain = machine();
        let t_plain = mixed_program(&mut plain).expect("clean run");
        let mut guarded = machine();
        guarded.set_wall_deadline(std::time::Duration::from_secs(3600));
        let t_guarded = mixed_program(&mut guarded).expect("clean run under deadline");
        assert_eq!(t_plain, t_guarded, "an unfired deadline must never change timing");
    }

    #[test]
    fn expired_wall_deadline_latches_structured_failure() {
        use sdv_engine::SimError;
        let mut m = machine();
        m.set_wall_deadline(std::time::Duration::ZERO);
        // Enough ops to cross the check stride at least once.
        let mut latched = None;
        for i in 0..200_000u64 {
            m.issue(&Op::IntOps(1));
            if i % 4096 == 0 && m.fault().is_some() {
                latched = Some(i);
                break;
            }
        }
        assert!(latched.is_some(), "an expired deadline must latch within the stride");
        let e = m.try_finish().expect_err("latched failure surfaces at finish");
        assert!(matches!(e, SimError::DeadlineExceeded { .. }), "{e}");
        assert!(e.to_string().contains("wall deadline"), "{e}");
    }

    #[test]
    fn armed_watchdog_is_a_pure_observer() {
        // Same program with the watchdog off vs armed: bit-identical cycles.
        let mut plain = machine();
        let t_plain = mixed_program(&mut plain).expect("clean run");
        let cfg = TimingConfig {
            watchdog: crate::config::WatchdogConfig::default_on(),
            ..TimingConfig::default()
        };
        let mut watched = SdvTiming::new(cfg);
        let t_watched = mixed_program(&mut watched).expect("clean run under watchdog");
        assert_eq!(t_plain, t_watched, "the watchdog must never change timing");
    }

    #[test]
    fn wedge_credit_fault_trips_the_watchdog() {
        use sdv_engine::{FaultKind, FaultPlan, SimError};
        let cfg = TimingConfig {
            watchdog: crate::config::WatchdogConfig::default_on(),
            fault: FaultPlan::new(FaultKind::WedgeCredit, 9),
            ..TimingConfig::default()
        };
        let mut m = SdvTiming::new(cfg);
        let e = mixed_program(&mut m).expect_err("the wedge must be caught");
        assert!(matches!(e, SimError::Deadlock { .. }), "{e}");
        let msg = e.to_string();
        assert!(msg.contains("vpu:"), "diagnostic has VPU state: {msg}");
        assert!(msg.contains("bank0:"), "diagnostic has bank state: {msg}");
        assert!(msg.contains("mesh:"), "diagnostic has NoC state: {msg}");
        // Latched: the machine keeps reporting the same failure.
        assert!(m.fault().is_some());
    }

    #[test]
    fn stall_bank_fault_trips_the_watchdog() {
        use sdv_engine::{FaultKind, FaultPlan, SimError};
        let cfg = TimingConfig {
            watchdog: crate::config::WatchdogConfig::default_on(),
            fault: FaultPlan::new(FaultKind::StallBank, 4),
            ..TimingConfig::default()
        };
        let mut m = SdvTiming::new(cfg);
        let e = mixed_program(&mut m).expect_err("the stalled bank must be caught");
        assert!(matches!(e, SimError::Deadlock { .. }), "{e}");
        assert!(e.to_string().contains("(WEDGED)"), "the victim bank is called out: {e}");
    }

    #[test]
    fn drop_response_fault_trips_the_watchdog() {
        use sdv_engine::{FaultKind, FaultPlan, SimError};
        let cfg = TimingConfig {
            watchdog: crate::config::WatchdogConfig::default_on(),
            fault: FaultPlan::new(FaultKind::DropResponse, 21),
            ..TimingConfig::default()
        };
        let mut m = SdvTiming::new(cfg);
        let e = mixed_program(&mut m).expect_err("the lost response must be caught");
        assert!(matches!(e, SimError::Deadlock { .. }), "{e}");
    }

    #[test]
    fn cycle_budget_aborts_long_runs() {
        use sdv_engine::SimError;
        let cfg = TimingConfig {
            watchdog: crate::config::WatchdogConfig { cycle_budget: 500, progress_window: 0 },
            ..TimingConfig::default()
        };
        let mut m = SdvTiming::new(cfg);
        let e = mixed_program(&mut m).expect_err("the program runs well past 500 cycles");
        match e {
            SimError::CycleBudgetExceeded { budget, cycle, .. } => {
                assert_eq!(budget, 500);
                assert!(cycle > 500);
            }
            other => panic!("expected a budget error, got {other}"),
        }
    }

    #[test]
    fn credit_leak_audit_fires_even_with_the_watchdog_off() {
        use sdv_engine::{FaultKind, FaultPlan, SimError};
        // A window deep enough that the wedge never stalls issue: nothing
        // for the watchdog to see, so only the end-of-run audit can catch
        // the leak.
        use crate::config::VpuConfig;
        let cfg = TimingConfig {
            vpu: VpuConfig { vmem_outstanding: 1 << 20, ..VpuConfig::default() },
            fault: FaultPlan::new(FaultKind::WedgeCredit, 3),
            ..TimingConfig::default()
        };
        let mut m = SdvTiming::new(cfg);
        let e = mixed_program(&mut m).expect_err("the audit must catch the leak");
        assert!(matches!(e, SimError::InvariantViolation { .. }), "{e}");
        assert!(e.to_string().contains("credit leak"), "{e}");
    }

    #[test]
    fn probes_are_pure_observers() {
        use sdv_engine::ProbeConfig;
        // Same program with probes off vs fully on: bit-identical cycles.
        let mut plain = machine();
        let t_plain = mixed_program(&mut plain).expect("clean run");
        let cfg = TimingConfig {
            probe: ProbeConfig { sample: true, trace: true },
            ..TimingConfig::default()
        };
        let mut probed = SdvTiming::new(cfg);
        let t_probed = mixed_program(&mut probed).expect("clean run under probes");
        assert_eq!(t_plain, t_probed, "probes must never change timing");
        // And the probed run actually collected something.
        assert!(!probed.trace_events().is_empty());
        assert!(probed.stats().histogram("vpu.vmem_occupancy").is_some());
        assert!(probed.stats().histogram("memsys.dram_queue_depth").is_some());
    }

    #[test]
    fn stall_attribution_sums_decompose_wall_time() {
        // Every stall cycle the machine reports must be attributed to
        // exactly one cause: the per-cause counters sum to the total.
        let mut m = machine();
        mixed_program(&mut m).expect("clean run");
        let s = m.stats();
        let total = s.get("scalar.stall_cycles");
        let parts = s.get("scalar.stall.window_cycles")
            + s.get("scalar.stall.mshr_cycles")
            + s.get("scalar.stall.store_buffer_cycles")
            + s.get("scalar.stall.drain_cycles")
            + s.get("scalar.stall.vpu_queue_cycles")
            + s.get("scalar.stall.vpu_sync_cycles");
        assert_eq!(parts, total, "stall causes must partition the total");
        assert!(s.get("scalar.stall.vpu_sync_cycles") > 0, "syncs happened");
    }

    #[test]
    fn trace_json_is_emitted_for_traced_runs() {
        use sdv_engine::ProbeConfig;
        let cfg = TimingConfig { probe: ProbeConfig::tracing(), ..TimingConfig::default() };
        let mut m = SdvTiming::new(cfg);
        mixed_program(&mut m).expect("clean run");
        let json = m.trace_json();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "complete events present");
        assert!(json.contains("\"ph\":\"C\""), "counter events present");
        assert!(json.contains("vload"), "vector loads named");
        // Untraced machines emit only metadata — no span/counter events.
        let empty = machine().trace_json();
        assert!(!empty.contains("\"ph\":\"X\"") && !empty.contains("\"ph\":\"C\""), "{empty}");
    }

    #[test]
    fn a_scalar_only_run_keeps_the_l2_inflight_map_bounded_by_live_fills() {
        // No vector op ever issues, so the VPU-side floor stays 0: the sweep
        // has to run off the scalar clock `issue_on` hands the hierarchy.
        // 60,000 distinct lines are 60,000 L2 misses; a few dozen are in
        // flight at any moment.
        let mut m = machine();
        m.set_extra_latency(1024);
        for i in 0..60_000u64 {
            m.issue(&Op::Load { addr: i * 64, size: 8 });
            m.issue(&Op::IntOps(2));
        }
        m.try_finish().expect("clean run");
        assert_eq!(m.stats().get("l2.miss"), 60_000);
        let entries = m.hier.l2_inflight_entries();
        assert!(entries < 2048, "{entries} entries for a few dozen live fills");
    }

    #[test]
    fn clean_runs_pass_try_finish() {
        let mut m = machine();
        let t = mixed_program(&mut m).expect("clean run");
        assert!(t > 0);
        assert!(m.fault().is_none());
    }
}
