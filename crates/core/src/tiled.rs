//! The multi-tile platform: N core+VPU tiles around the shared hierarchy.
//!
//! [`TiledMachine`] drives one kernel partition per tile through the
//! generalized [`SdvTiming`] model. Tile programs run in two phases per
//! barrier-delimited step:
//!
//! 1. **Capture** — each tile's program executes *functionally* against the
//!    shared [`SimMemory`] (in logical tile order, or a caller-supplied
//!    permutation), recording the dynamic [`Op`] stream it produces instead
//!    of issuing it to the timing model. Sequential capture is the model's
//!    relaxed-consistency approximation: within one step, a tile observes
//!    the functional writes of tiles captured before it, so correct tiled
//!    kernels must keep intra-step cross-tile writes disjoint or idempotent
//!    (the partitioned SpMV/BFS/PageRank kernels do).
//! 2. **Replay** — at the barrier, the captured traces interleave through
//!    the calendar-wheel [`EventQueue`]: every tile is scheduled at its
//!    current scalar clock (seeded in logical tile order), the earliest
//!    `(cycle, tile, seq)` event pops, that tile issues exactly one op to
//!    the timing model, and the tile reschedules at its advanced clock.
//!    The queue's FIFO-on-tie order makes the interleaving — and therefore
//!    every shared-resource conflict (bank reservations, directory state,
//!    DRAM admission, mesh links) — a pure function of the traces, so
//!    multi-tile cycle counts are bit-reproducible across runs, hosts, and
//!    tile-capture permutations.
//!
//! A single-tile `TiledMachine` captures the very op stream [`SdvMachine`]
//! would issue inline and replays it in order: its cycle counts are
//! bit-identical to the single-tile machine by construction.
//!
//! [`SdvMachine`]: crate::timed::SdvMachine

use crate::memory::SimMemory;
use crate::vm::Vm;
use sdv_engine::{Cycle, EventQueue, SimError, Stats};
use sdv_rvv::{exec_into, ExecInfo, ExecScratch, Lmul, Sew, VInst, VState};
use sdv_uarch::op::classify_into;
use sdv_uarch::{Op, SdvTiming, TimingConfig, VClass, VectorOp};

/// The multi-tile FPGA-SDV platform model. `cfg.mem.tiles` selects the tile
/// count; tile 0 is the paper's machine.
pub struct TiledMachine {
    /// Per-tile architectural vector state (tiles strip-mine independently).
    states: Vec<VState>,
    /// The shared simulated heap every tile reads and writes.
    mem: SimMemory,
    timing: SdvTiming,
    cfg: TimingConfig,
    line_bytes: u64,
    /// Captured-but-not-yet-replayed op trace, per tile.
    traces: Vec<Vec<Op>>,
    /// The order tile programs are captured in (a permutation of `0..tiles`).
    /// Replay ignores it — determinism across permutations is the point.
    capture_order: Vec<usize>,
    scratch: ExecScratch,
    info: ExecInfo,
    lines_pool: Vec<u64>,
}

impl TiledMachine {
    /// A machine with custom timing parameters (`cfg.mem.tiles` tiles).
    pub fn with_config(heap: usize, cfg: TimingConfig) -> Self {
        let tiles = cfg.mem.tiles;
        assert!(tiles >= 1, "need at least one tile");
        Self {
            states: (0..tiles).map(|_| VState::paper_vpu()).collect(),
            mem: SimMemory::new(heap),
            timing: SdvTiming::new(cfg),
            cfg,
            line_bytes: cfg.mem.l1.line_bytes,
            traces: vec![Vec::new(); tiles],
            capture_order: (0..tiles).collect(),
            scratch: ExecScratch::default(),
            info: ExecInfo::default(),
            lines_pool: Vec::new(),
        }
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.states.len()
    }

    /// The timing configuration in effect.
    pub fn config(&self) -> &TimingConfig {
        &self.cfg
    }

    /// Override the order tile programs are captured in. Must be a
    /// permutation of `0..tiles`. Cycle counts and stats are bit-identical
    /// across capture orders for correctly partitioned kernels — the
    /// determinism property test exercises exactly this.
    pub fn set_capture_order(&mut self, order: Vec<usize>) {
        let n = self.tiles();
        assert_eq!(order.len(), n, "capture order must cover every tile");
        let mut seen = vec![false; n];
        for &t in &order {
            assert!(t < n && !seen[t], "capture order must be a permutation of 0..{n}");
            seen[t] = true;
        }
        self.capture_order = order;
    }

    /// The capture order in effect (tiled kernel drivers iterate this).
    pub fn capture_order(&self) -> &[usize] {
        &self.capture_order
    }

    /// The §2.2 knob: extra DRAM latency in cycles.
    pub fn set_extra_latency(&mut self, extra: Cycle) {
        self.timing.set_extra_latency(extra);
    }

    /// The §2.3 knob: DRAM bandwidth cap in bytes/cycle.
    pub fn set_bandwidth_limit(&mut self, bytes_per_cycle: u64) {
        self.timing.set_bandwidth_limit(bytes_per_cycle);
    }

    /// Arm a wall-clock deadline (see `SdvMachine::set_wall_deadline`).
    pub fn set_wall_deadline(&mut self, limit: std::time::Duration) {
        self.timing.set_wall_deadline(limit);
    }

    /// Cap MAXVL on every tile (the paper's MAXVL CSR, machine-wide).
    pub fn set_maxvl_cap(&mut self, cap: usize) {
        for s in &mut self.states {
            s.set_maxvl_cap(cap);
        }
    }

    /// One tile's architectural vector state.
    pub fn state(&self, tile: usize) -> &VState {
        &self.states[tile]
    }

    /// The capture [`Vm`] for one tile: every op the program produces is
    /// recorded for replay at the next [`TiledMachine::barrier`].
    pub fn vm(&mut self, tile: usize) -> TileVm<'_> {
        assert!(tile < self.tiles(), "tile {tile} out of range");
        TileVm { m: self, tile }
    }

    /// Replay every captured trace through the timing model in deterministic
    /// `(cycle, tile, seq)` order, then align all tile clocks at a full
    /// drain barrier. Returns the barrier cycle.
    pub fn barrier(&mut self) -> Cycle {
        self.replay();
        self.timing.barrier()
    }

    fn replay(&mut self) {
        let n = self.tiles();
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut cursors = vec![0usize; n];
        // Seed in logical tile order: ties at the same cycle pop FIFO, so
        // the interleaving is independent of the capture permutation.
        for t in 0..n {
            if !self.traces[t].is_empty() {
                q.schedule(self.timing.now_of(t), t);
            }
        }
        while let Some((_, t)) = q.pop() {
            let op = &self.traces[t][cursors[t]];
            self.timing.issue_on(t, op);
            cursors[t] += 1;
            if cursors[t] < self.traces[t].len() {
                q.schedule(self.timing.now_of(t), t);
            }
        }
        for tr in &mut self.traces {
            tr.clear();
        }
    }

    /// Finish the program: replay any pending traces, drain every tile, and
    /// return the final cycle count (the slowest tile's clock).
    pub fn finish(&mut self) -> Cycle {
        self.replay();
        self.timing.finish()
    }

    /// Finish the program, surfacing any latched watchdog failure and the
    /// end-of-run invariant audits.
    pub fn try_finish(&mut self) -> Result<Cycle, SimError> {
        self.replay();
        self.timing.try_finish()
    }

    /// The first structured failure latched by the watchdog, if any.
    pub fn fault(&self) -> Option<&SimError> {
        self.timing.fault()
    }

    /// Merged statistics: per-tile counters under `tileN.` plus unprefixed
    /// cross-tile aggregates (single-tile machines emit the historical keys).
    pub fn stats(&self) -> Stats {
        self.timing.stats()
    }
}

/// The op-capturing [`Vm`] for one tile of a [`TiledMachine`]. Functional
/// effects land immediately in the shared memory; timing effects are
/// recorded and replayed at the next barrier.
pub struct TileVm<'a> {
    m: &'a mut TiledMachine,
    tile: usize,
}

impl TileVm<'_> {
    fn capture(&mut self, op: Op) {
        self.m.traces[self.tile].push(op);
    }
}

impl Vm for TileVm<'_> {
    fn alloc(&mut self, bytes: usize, align: usize) -> u64 {
        self.m.mem.alloc(bytes, align)
    }

    fn mem(&self) -> &SimMemory {
        &self.m.mem
    }

    fn mem_mut(&mut self) -> &mut SimMemory {
        &mut self.m.mem
    }

    fn load_f64(&mut self, addr: u64) -> f64 {
        self.capture(Op::Load { addr, size: 8 });
        self.m.mem.peek_f64(addr)
    }

    fn store_f64(&mut self, addr: u64, v: f64) {
        self.capture(Op::Store { addr, size: 8 });
        self.m.mem.poke_f64(addr, v);
    }

    fn load_u64(&mut self, addr: u64) -> u64 {
        self.capture(Op::Load { addr, size: 8 });
        self.m.mem.peek_u64(addr)
    }

    fn store_u64(&mut self, addr: u64, v: u64) {
        self.capture(Op::Store { addr, size: 8 });
        self.m.mem.poke_u64(addr, v);
    }

    fn load_u32(&mut self, addr: u64) -> u32 {
        self.capture(Op::Load { addr, size: 4 });
        self.m.mem.peek_u32(addr)
    }

    fn store_u32(&mut self, addr: u64, v: u32) {
        self.capture(Op::Store { addr, size: 4 });
        self.m.mem.poke_u32(addr, v);
    }

    fn int_ops(&mut self, n: u32) {
        if n > 0 {
            self.capture(Op::IntOps(n));
        }
    }

    fn fp_ops(&mut self, n: u32) {
        if n > 0 {
            self.capture(Op::FpOps(n));
        }
    }

    fn branch(&mut self, taken: bool) {
        self.capture(Op::Branch { taken });
    }

    fn setvl(&mut self, avl: usize, sew: Sew, lmul: Lmul) -> usize {
        let vl = self.m.states[self.tile].set_vl(avl, sew, lmul);
        self.capture(Op::Vector(VectorOp {
            class: VClass::SetVl,
            vl,
            active: 0,
            mem: None,
            produces_scalar: false,
            is_fp: false,
        }));
        vl
    }

    fn vl(&self) -> usize {
        self.m.states[self.tile].vl
    }

    fn maxvl(&self, sew: Sew) -> usize {
        let s = &self.m.states[self.tile];
        (s.regs.vlen_bits() / sew.bits()).min(s.maxvl_cap)
    }

    fn set_maxvl_cap(&mut self, cap: usize) {
        self.m.states[self.tile].set_maxvl_cap(cap);
    }

    fn exec_v(&mut self, inst: VInst) -> Option<u64> {
        let m = &mut *self.m;
        exec_into(&inst, &mut m.states[self.tile], &mut m.mem, &mut m.scratch, &mut m.info);
        let vop = classify_into(&inst, &m.info, m.line_bytes, &mut m.lines_pool);
        m.traces[self.tile].push(Op::Vector(vop));
        m.info.scalar
    }

    fn rdcycle(&mut self) -> u64 {
        // The pre-step clock: captured ops have not replayed yet. Tiled
        // kernel drivers read time at barriers, not mid-step.
        self.m.timing.now_of(self.tile)
    }

    fn fence(&mut self) {
        self.capture(Op::Sync);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::SdvMachine;

    fn stream_program<V: Vm>(vm: &mut V, base: u64, n: u64) {
        vm.setvl(256, Sew::E64, Lmul::M1);
        let mut off = 0;
        while off < n {
            vm.vle(1, base + off * 8);
            vm.vfmacc_vf(1, 2.0, 1);
            vm.vse(1, base + off * 8);
            vm.int_ops(2);
            vm.branch(off + 256 < n);
            off += 256;
        }
        vm.fence();
    }

    #[test]
    fn single_tile_matches_sdv_machine_exactly() {
        let n = 4096u64;
        let t_ref = {
            let mut m = SdvMachine::new(1 << 22);
            let a = m.alloc((n * 8) as usize, 64);
            stream_program(&mut m, a, n);
            m.try_finish().expect("clean run")
        };
        let t_tiled = {
            let mut m = TiledMachine::with_config(1 << 22, TimingConfig::default());
            let a = m.vm(0).alloc((n * 8) as usize, 64);
            stream_program(&mut m.vm(0), a, n);
            m.try_finish().expect("clean run")
        };
        assert_eq!(t_ref, t_tiled, "one tile must reproduce the single-tile machine");
    }

    #[test]
    fn multi_tile_runs_replay_deterministically() {
        let run = |order: Option<Vec<usize>>| {
            let mut cfg = TimingConfig::default();
            cfg.mem.tiles = 4;
            let mut m = TiledMachine::with_config(1 << 22, cfg);
            if let Some(o) = order {
                m.set_capture_order(o);
            }
            let n = 2048u64;
            let a = m.vm(0).alloc((n * 8) as usize, 64);
            for &t in &m.capture_order().to_vec() {
                let lo = n / 4 * t as u64;
                stream_program(&mut m.vm(t), a + lo * 8, n / 4);
            }
            m.barrier();
            let t = m.try_finish().expect("clean run");
            (t, format!("{:?}", m.stats()))
        };
        let a = run(None);
        let b = run(None);
        let c = run(Some(vec![3, 1, 0, 2]));
        assert_eq!(a, b, "repeat runs must be bit-identical");
        assert_eq!(a, c, "capture permutation must not change cycles or stats");
    }

    fn compute_program<V: Vm>(vm: &mut V, base: u64, n: u64) {
        vm.setvl(256, Sew::E64, Lmul::M1);
        let mut off = 0;
        while off < n {
            vm.vle(1, base + off * 8);
            for _ in 0..16 {
                vm.vfmacc_vf(1, 1.0000001, 1);
            }
            vm.vse(1, base + off * 8);
            vm.branch(off + 256 < n);
            off += 256;
        }
        vm.fence();
    }

    #[test]
    fn more_tiles_speed_up_compute_bound_partitions() {
        // The scale-out sanity check: a compute-bound workload split across
        // 4 tiles must be faster than one tile doing all of it. (A pure
        // memory stream need not speed up — the tiles share one DRAM.)
        let n = 8192u64;
        let one = {
            let mut m = TiledMachine::with_config(1 << 23, TimingConfig::default());
            let a = m.vm(0).alloc((n * 8) as usize, 64);
            compute_program(&mut m.vm(0), a, n);
            m.try_finish().expect("clean run")
        };
        let four = {
            let mut cfg = TimingConfig::default();
            cfg.mem.tiles = 4;
            let mut m = TiledMachine::with_config(1 << 23, cfg);
            let a = m.vm(0).alloc((n * 8) as usize, 64);
            for t in 0..4u64 {
                compute_program(&mut m.vm(t as usize), a + (n / 4) * t * 8, n / 4);
            }
            m.try_finish().expect("clean run")
        };
        assert!(
            four * 2 < one,
            "4 tiles must speed up compute-bound work by >2x: {four} vs {one}"
        );
    }

    #[test]
    fn multi_tile_stats_carry_per_tile_and_aggregate_keys() {
        let mut cfg = TimingConfig::default();
        cfg.mem.tiles = 2;
        let mut m = TiledMachine::with_config(1 << 22, cfg);
        let a = m.vm(0).alloc(8 * 1024, 64);
        for t in 0..2 {
            stream_program(&mut m.vm(t), a + 4096 * t as u64, 512);
        }
        m.try_finish().expect("clean run");
        let s = m.stats();
        assert!(s.get("tile0.vpu.instrs") > 0);
        assert!(s.get("tile1.vpu.instrs") > 0);
        assert_eq!(
            s.get("vpu.instrs"),
            s.get("tile0.vpu.instrs") + s.get("tile1.vpu.instrs"),
            "unprefixed keys are cross-tile sums"
        );
    }
}
