//! The timed platform: the FPGA-SDV machine, one tile or many.
//!
//! [`SdvMachine`] couples the functional RVV engine with the full timing
//! model (scalar core, VPU, mesh, L2HN banks, DRAM + knobs). Every `Vm` call
//! both computes the architectural result *and* advances simulated time, so
//! `rdcycle` behaves exactly like the hardware counter the paper reads.
//!
//! `cfg.mem.tiles` core+VPU tiles share one [`SimMemory`] and one
//! [`SdvTiming`]; each tile has its own architectural vector state and is
//! programmed through [`SdvMachine::vm`] (`impl Vm for SdvMachine` is tile
//! 0). Functional effects always land immediately. Timing ops take one path,
//! a pull-driven merge that runs once per barrier-to-barrier **epoch**
//! ([`SdvMachine::epoch`]):
//!
//! * **Who calls whom** — the kernel driver hands the machine a `step`
//!   closure: "capture this tile's next *piece* of program, say whether it
//!   has more before the barrier". A piece runs functionally against the
//!   shared memory and queues the dynamic [`Op`]s it produces on its tile's
//!   ring. The machine, not the driver, decides when each tile's next piece
//!   is captured: only when the merge needs an op from a tile whose ring is
//!   empty. No tile ever holds more than one piece.
//! * **The merge** — every tile with an op is scheduled on an
//!   [`EventQueue`] at its scalar clock (first pieces pulled
//!   in capture order, tiles seeded in logical order); the earliest
//!   `(cycle, tile, seq)` event pops, that tile issues exactly one op, its
//!   ring refills from `step` if that was its last, and it reschedules at its
//!   advanced clock iff it still has an op. FIFO-on-tie makes the
//!   interleaving — and so every shared-resource conflict (bank
//!   reservations, directory state, DRAM admission, mesh links) — a pure
//!   function of the per-tile op streams.
//! * **Why a partial merge is exact** — whether a tile is rescheduled after
//!   an op depends only on whether *it* has another op, and the time it is
//!   scheduled at only on its own clock. Capturing a tile's stream a piece
//!   at a time therefore produces the same `schedule(time, tile)` calls in
//!   the same order as capturing every stream whole and merging afterwards
//!   (the `cfg(test)` reference the differential test drives), provided the
//!   op streams themselves do not depend on when they are captured. That is
//!   the partitioned kernels' contract: within an epoch, cross-tile writes
//!   are disjoint or idempotent and classified identically either way, so a
//!   tile's ops are the same whether its neighbours' pieces ran before or
//!   after. The same contract makes results independent of the capture
//!   permutation.
//!
//! Ops queued by plain [`SdvMachine::vm`] calls outside an epoch wait on the
//! rings and merge at the next [`SdvMachine::barrier`] (an epoch with no
//! producer) or [`SdvMachine::finish`].
//!
//! With one tile there is nothing to interleave with, so an op's position in
//! the merge is known the moment it is produced: the op issues inline, and
//! an epoch just runs `step` until it reports the end. A one-tile program
//! driven through `vm(0)` and through `impl Vm for SdvMachine` is the same op
//! stream in the same order.
//!
//! # One functional pass, many timing models
//!
//! A one-tile machine can carry several timing **replicas**
//! ([`SdvMachine::reset_with_replicas`]): [`SdvTiming`]s built from one
//! [`TimingConfig`], each with its own setting of the paper's two memory
//! knobs ([`Knobs`]). The program runs once — one set-up, one `exec_into`
//! and one `classify_into` per instruction — and every replica is issued
//! the same op stream, so each ends with the cycles and statistics of a
//! machine that ran the program alone under its knobs. That is exact because
//! nothing flows back: a program's control flow and addresses depend on
//! functional state only, and a replica shares no state with another (each
//! latches its own fault; `rdcycle`, which no kernel calls, reads the first
//! replica). Ops reach the replicas a [`REPLAY_CHUNK`] at a time; a single
//! replica issues inline and never buffers. More than one tile allows one
//! replica only: the merge order follows the tiles' clocks, and those are
//! the replica's.

use crate::memory::SimMemory;
use crate::vm::Vm;
use sdv_engine::{Cycle, EventQueue, SimError, Stats};
use sdv_rvv::{exec_into, ExecInfo, ExecScratch, Lmul, Sew, VInst, VState, VLEN, VLMAX};
use sdv_uarch::op::classify_into;
use sdv_uarch::{Op, SdvTiming, TimingConfig, VClass, VectorOp};
use std::collections::VecDeque;

/// One timing replica's setting of the paper's two memory knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Extra DRAM latency in cycles (§2.2).
    pub extra_latency: Cycle,
    /// DRAM bandwidth cap in bytes/cycle (§2.3), 64 = unthrottled.
    pub bandwidth: u64,
}

/// Ops buffered before they are replayed through each replica in turn. One
/// constant, not a knob. A replica's working set (cache tags, directory,
/// in-flight maps, credit window) is what the host cache has to hold while it
/// is being issued to: handing every op to all replicas as it is produced
/// walks all of them per op, which costs nothing while they are small and
/// several points once they are not, and a long chunk only adds buffered line
/// lists. Host time of a whole fig3 grid run as groups of eight, over the
/// same cells run one at a time by the same binary (one thread, medians;
/// every run in `results/perf/pr21_pairs.json`):
///
/// | ops per chunk | `--small`, 224 cells | paper scale, 224 cells | its PageRank cells |
/// |---------------|----------------------|------------------------|--------------------|
/// | 1 (fan-out)   | 0.64 x               | 0.78 x                 | 0.90 x             |
/// | 128           | 0.64 x               | 0.76 x                 | 0.84 x             |
/// | 1024          | 0.68 x               | 0.80 x                 | 0.87 x             |
pub const REPLAY_CHUNK: usize = 128;

/// The FPGA-SDV platform model. `cfg.mem.tiles` selects the tile count; the
/// default single tile is the paper's machine.
pub struct SdvMachine {
    /// Per-tile architectural vector state (tiles strip-mine independently).
    states: Vec<VState>,
    /// The simulated heap every tile reads and writes.
    mem: SimMemory,
    /// The timing models this machine's one op stream feeds: never empty,
    /// exactly one unless [`SdvMachine::reset_with_replicas`] asked for more.
    replicas: Vec<SdvTiming>,
    /// Ops waiting to be replayed through every replica. Stays empty with
    /// one replica, which issues inline.
    chunk: Vec<Op>,
    cfg: TimingConfig,
    line_bytes: u64,
    /// The §2.2 knob lives in the DRAM channel; kept here for `describe`.
    extra_latency_for_display: Cycle,
    /// Captured-but-not-yet-issued ops, per tile: at most one piece each
    /// while an epoch merges. Stays empty on a one-tile machine, which
    /// issues inline.
    rings: Vec<VecDeque<Op>>,
    /// The merge's scheduler: each tile with an op queued, at its scalar
    /// clock. Empty between merges; a field so its buffer survives from
    /// epoch to epoch.
    tiles_by_clock: EventQueue<usize>,
    /// The order tiles' first pieces are captured in (a permutation of
    /// `0..tiles`). The merge ignores it — determinism across permutations
    /// is the point.
    capture_order: Vec<usize>,
    /// The cycle the last barrier returned: what `rdcycle` reads on more
    /// than one tile, where per-tile clocks move as the merge progresses.
    epoch_start: Cycle,
    /// Most ops ever queued at once across all rings since the last reset.
    peak_queued: usize,
    /// Reusable execution buffers: no per-instruction heap traffic.
    scratch: ExecScratch,
    info: ExecInfo,
    /// The line-address buffer the next vector memory instruction is
    /// classified into; it leaves with that instruction's op.
    lines_pool: Vec<u64>,
    /// Line buffers handed back by issued ops, restocking `lines_pool`.
    lines_free: Vec<Vec<u64>>,
}

impl SdvMachine {
    /// The paper's machine: VLEN = 16384 bits (256 × f64), default timing.
    pub fn new(heap: usize) -> Self {
        Self::with_config(heap, TimingConfig::default())
    }

    /// A machine with custom timing parameters (`cfg.mem.tiles` tiles).
    pub fn with_config(heap: usize, cfg: TimingConfig) -> Self {
        let tiles = cfg.mem.tiles;
        assert!(tiles >= 1, "need at least one tile");
        Self {
            states: (0..tiles).map(|_| VState::paper_vpu()).collect(),
            mem: SimMemory::new(heap),
            replicas: vec![SdvTiming::new(cfg)],
            chunk: Vec::new(),
            cfg,
            line_bytes: cfg.mem.l1.line_bytes,
            extra_latency_for_display: 0,
            rings: (0..tiles).map(|_| VecDeque::new()).collect(),
            tiles_by_clock: EventQueue::new(),
            capture_order: (0..tiles).collect(),
            epoch_start: 0,
            peak_queued: 0,
            scratch: ExecScratch::default(),
            info: ExecInfo::default(),
            lines_pool: Vec::new(),
            lines_free: Vec::new(),
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

    /// Attribution measurement mode: when on, every timing op is accepted
    /// and discarded, so the run's wall clock measures only the functional
    /// (exec + kernel driver) half of the machine. Cycle counts of a
    /// bypassed run are meaningless — `sdvbench --trace 1` subtracts its wall
    /// time from a timed run's to attribute the difference to the timing
    /// model (`uarch.timing_share`).
    pub fn set_timing_bypass(&mut self, on: bool) {
        self.replicas.iter_mut().for_each(|r| r.set_bypass(on));
    }

    /// Arm a wall-clock deadline for the current run: a cell still issuing
    /// ops `limit` from now latches a structured
    /// [`sdv_engine::SimError::DeadlineExceeded`] instead of running
    /// unbounded. Cleared by [`SdvMachine::reset_with_config`] — arm it per
    /// cell, after the reset. A deadline that does not fire never changes
    /// simulated cycles. Every replica is armed with the same `limit`: they
    /// share the one run it bounds.
    pub fn set_wall_deadline(&mut self, limit: std::time::Duration) {
        self.replicas.iter_mut().for_each(|r| r.set_wall_deadline(limit));
    }

    /// Rewind this machine to the state `with_config(heap, cfg)` would build,
    /// reusing the allocations (register files, simulated heap, exec scratch,
    /// op rings, line buffers, the merge's scheduler). `cfg` may name a
    /// different tile count than the machine has: the per-tile states and
    /// rings are resized, anything still queued is dropped and the capture
    /// order returns to the identity. Timing state is rebuilt from scratch —
    /// cycle counts of a reset machine are bit-identical to those of a fresh
    /// one.
    ///
    /// "From scratch" includes the hardening state: a latched fault
    /// (watchdog deadlock, cycle budget, wall-clock deadline) and any armed
    /// wall deadline die with the replaced timing model, so a machine that
    /// failed one cell simulates the next cleanly. The pooled-machine sweep
    /// workers rely on this — only a *panicking* cell forces them to discard
    /// a machine.
    pub fn reset_with_config(&mut self, cfg: TimingConfig) {
        self.rewind(cfg);
        self.replicas.push(SdvTiming::new(cfg));
    }

    /// [`SdvMachine::reset_with_config`] with one timing replica per entry of
    /// `knobs`, each a fresh model of `cfg` programmed with its entry: the
    /// next program runs once and is timed under every setting (see the
    /// module docs). Replica `i` answers [`SdvMachine::try_finish_each`] and
    /// [`SdvMachine::stats_of`] at index `i`; every other accessor reads
    /// replica 0, and the knob setters program all of them.
    ///
    /// # Panics
    /// Panics if `knobs` is empty, or holds more than one entry for a
    /// multi-tile `cfg` (the tiles' merge order depends on the replica's
    /// clocks, so there is no one op stream to share).
    pub fn reset_with_replicas(&mut self, cfg: TimingConfig, knobs: &[Knobs]) {
        assert!(!knobs.is_empty(), "need at least one timing replica");
        assert!(
            cfg.mem.tiles == 1 || knobs.len() == 1,
            "{} tiles cannot share one functional pass between {} timing replicas",
            cfg.mem.tiles,
            knobs.len()
        );
        self.rewind(cfg);
        self.extra_latency_for_display = knobs[0].extra_latency;
        self.replicas.extend(knobs.iter().map(|k| {
            let mut timing = SdvTiming::new(cfg);
            timing.set_extra_latency(k.extra_latency);
            timing.set_bandwidth_limit(k.bandwidth);
            timing
        }));
    }

    /// Number of timing replicas (one unless
    /// [`SdvMachine::reset_with_replicas`] asked for more).
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Everything of a reset but the timing models: the caller pushes fresh
    /// ones onto the emptied `replicas`.
    fn rewind(&mut self, cfg: TimingConfig) {
        let tiles = cfg.mem.tiles;
        assert!(tiles >= 1, "need at least one tile");
        // Old models go before new ones are built: a pooled machine never
        // holds two generations of cache tags at once.
        self.replicas.clear();
        // Only a program that unwound mid-replay leaves ops behind.
        self.chunk.clear();
        self.states.truncate(tiles);
        for s in &mut self.states {
            s.reset();
        }
        self.states.resize_with(tiles, VState::paper_vpu);
        self.mem.reset();
        self.line_bytes = cfg.mem.l1.line_bytes;
        self.cfg = cfg;
        self.extra_latency_for_display = 0;
        self.rings.truncate(tiles);
        self.rings.iter_mut().for_each(VecDeque::clear);
        self.rings.resize_with(tiles, VecDeque::new);
        // Only a program that unwound mid-merge leaves events behind.
        while self.tiles_by_clock.pop().is_some() {}
        self.capture_order.clear();
        self.capture_order.extend(0..tiles);
        self.epoch_start = 0;
        self.peak_queued = 0;
    }

    /// Override the order tiles' first pieces are captured in. Must be a
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

    /// The capture order in effect.
    pub fn capture_order(&self) -> &[usize] {
        &self.capture_order
    }

    /// Most ops queued at once, over all tiles, since the last reset: the
    /// merge's memory high-water mark in ops. Zero on a one-tile machine.
    pub fn peak_queued_ops(&self) -> usize {
        self.peak_queued
    }

    /// The paper's §2.2 knob: extra DRAM latency in cycles.
    pub fn set_extra_latency(&mut self, extra: Cycle) {
        self.extra_latency_for_display = extra;
        self.replicas.iter_mut().for_each(|r| r.set_extra_latency(extra));
    }

    /// The paper's §2.3 knob: DRAM bandwidth cap in bytes/cycle (1–64).
    pub fn set_bandwidth_limit(&mut self, bytes_per_cycle: u64) {
        self.replicas.iter_mut().for_each(|r| r.set_bandwidth_limit(bytes_per_cycle));
    }

    /// Raw `(num, den)` limiter programming (the register-level interface).
    pub fn set_bandwidth_fraction(&mut self, num: u32, den: u32) {
        self.replicas.iter_mut().for_each(|r| r.set_bandwidth_fraction(num, den));
    }

    /// The [`Vm`] of one tile.
    pub fn vm(&mut self, tile: usize) -> TileVm<'_> {
        assert!(tile < self.tiles(), "tile {tile} out of range");
        TileVm { m: self, tile }
    }

    /// Run one barrier-to-barrier epoch of a partitioned program. `step`
    /// captures the next piece of the program of the tile it is handed
    /// ([`TileVm::tile`]) and returns whether that tile has more before the
    /// barrier; the machine calls it for a tile only when the merge has run
    /// out of that tile's ops, so a tile never queues more than one piece
    /// (a piece may be empty). Every op is issued in deterministic
    /// `(cycle, tile, seq)` order, then every tile's VPU and store buffer
    /// drain and all tile clocks align to the slowest. Returns the barrier
    /// cycle.
    pub fn epoch(&mut self, mut step: impl FnMut(&mut TileVm<'_>) -> bool) -> Cycle {
        self.merge(&mut step);
        self.epoch_start = first(self.replicas.iter_mut().map(SdvTiming::barrier));
        self.epoch_start
    }

    /// Cross-tile barrier: the epoch with no producer. Ops queued by direct
    /// [`SdvMachine::vm`] calls merge and issue, then the tiles drain and
    /// align. On one tile nothing is queued, so this is a fence plus a
    /// store-buffer drain.
    pub fn barrier(&mut self) -> Cycle {
        self.epoch(|_| false)
    }

    /// The one merge loop: issue every queued op, and every op `step` goes on
    /// to produce, in `(cycle, tile, seq)` order.
    fn merge(&mut self, step: &mut dyn FnMut(&mut TileVm<'_>) -> bool) {
        let n = self.tiles();
        if n == 1 {
            // Ops issue inline as `step` produces them (through the replay
            // chunk when there is more than one replica).
            while step(&mut self.vm(0)) {}
            self.flush();
            return;
        }
        // More than one tile means exactly one replica.
        let mut more = vec![true; n];
        for i in 0..n {
            self.refill(self.capture_order[i], &mut more, step);
        }
        // Seed in logical tile order: ties at the same cycle pop FIFO, so
        // the interleaving is independent of the capture permutation.
        for t in 0..n {
            if !self.rings[t].is_empty() {
                self.tiles_by_clock.schedule(self.replicas[0].now_of(t), t);
            }
        }
        while let Some((_, t)) = self.tiles_by_clock.pop() {
            let op = self.rings[t].pop_front().expect("a scheduled tile has an op queued");
            self.replicas[0].issue_on(t, &op);
            self.recycle(op);
            if self.rings[t].is_empty() {
                self.refill(t, &mut more, step);
            }
            if !self.rings[t].is_empty() {
                self.tiles_by_clock.schedule(self.replicas[0].now_of(t), t);
            }
        }
    }

    /// Pull pieces of tile `t`'s program until it has an op queued or its
    /// producer is done.
    fn refill(
        &mut self,
        t: usize,
        more: &mut [bool],
        step: &mut dyn FnMut(&mut TileVm<'_>) -> bool,
    ) {
        while self.rings[t].is_empty() && more[t] {
            more[t] = step(&mut self.vm(t));
        }
        // Rings only grow inside `step` (or before the merge, which pulls
        // through here for every tile first), so this sees every peak.
        let queued = self.rings.iter().map(VecDeque::len).sum();
        self.peak_queued = self.peak_queued.max(queued);
    }

    /// Finish the program: issue anything still queued, drain every tile,
    /// and return the final cycle count (the slowest tile's clock).
    pub fn finish(&mut self) -> Cycle {
        self.merge(&mut |_| false);
        first(self.replicas.iter_mut().map(SdvTiming::finish))
    }

    /// Finish the program, surfacing any failure the watchdog latched during
    /// the run and then running the end-of-run invariant audits. `Ok` carries
    /// the final cycle count; `Err` means the cycle numbers are meaningless.
    pub fn try_finish(&mut self) -> Result<Cycle, SimError> {
        self.try_finish_each().swap_remove(0)
    }

    /// [`SdvMachine::try_finish`] for every replica, in replica order: each
    /// surfaces its own latched failure and runs its own audits, so one
    /// replica's fault never costs another its result.
    pub fn try_finish_each(&mut self) -> Vec<Result<Cycle, SimError>> {
        self.merge(&mut |_| false);
        self.replicas.iter_mut().map(SdvTiming::try_finish).collect()
    }

    /// The first structured failure latched by the watchdog, if any.
    pub fn fault(&self) -> Option<&SimError> {
        self.replicas[0].fault()
    }

    /// Merged statistics from every modelled component. One tile emits the
    /// historical key set; more tiles add per-tile counters under `tileN.`
    /// beside the unprefixed cross-tile sums.
    pub fn stats(&self) -> Stats {
        self.stats_of(0)
    }

    /// [`SdvMachine::stats`] of one replica.
    pub fn stats_of(&self, replica: usize) -> Stats {
        self.replicas[replica].stats()
    }

    /// The collected timeline as Chrome `trace_event` JSON (empty unless the
    /// config's probe enables tracing).
    pub fn trace_json(&self) -> String {
        self.replicas[0].trace_json()
    }

    /// A human-readable description of the instantiated platform — the
    /// textual equivalent of the paper's Figures 1 and 2 block diagrams.
    pub fn describe(&self) -> String {
        let c = &self.cfg;
        format!(
            "FPGA-SDV platform model\n\
               core   : in-order superscalar, {}-wide issue, {} MSHRs, run-ahead {} ops\n\
               L1D    : {} KiB, {}-way, {} B lines, {}-cycle hits (scalar side only)\n\
               VPU    : {} lanes, VLEN {} bits ({} x f64 per register), decoupling queue {},\n\
                        vector-memory window {} line requests (bypasses L1, coherent via home node)\n\
               NoC    : {}x{} mesh, {}-cycle routers, {} B links\n\
               L2HN   : {} banks x {} KiB ({}-way), MESI home node per bank, {}-cycle hits\n\
               DRAM   : {}-cycle service + latency controller (+{} cycles) + bandwidth limiter\n\
               knobs  : MAXVL CSR cap = {}, extra latency = {}, bandwidth fraction per paper §2.2-2.3",
            c.scalar.issue_width,
            c.scalar.max_outstanding_loads,
            c.scalar.runahead_window,
            c.mem.l1.size_bytes / 1024,
            c.mem.l1.ways,
            c.mem.l1.line_bytes,
            c.mem.l1_hit_latency,
            c.vpu.lanes,
            VLEN,
            VLMAX,
            c.vpu.queue_depth,
            c.vpu.vmem_outstanding,
            c.mem.mesh.width,
            c.mem.mesh.height,
            c.mem.mesh.router_latency,
            c.mem.mesh.flit_bytes,
            c.mem.num_banks,
            c.mem.l2_bank.size_bytes / 1024,
            c.mem.l2_bank.ways,
            c.mem.l2_hit_latency,
            c.mem.dram.service_latency,
            self.extra_latency_for_display,
            if self.states[0].maxvl_cap == usize::MAX {
                "none".to_string()
            } else {
                self.states[0].maxvl_cap.to_string()
            },
            self.extra_latency_for_display,
        )
    }

    /// The one place a timing op leaves the functional half of the machine.
    /// One tile: issue now, or with several replicas once the chunk fills.
    /// More tiles: queue for the merge.
    #[inline]
    fn emit(&mut self, tile: usize, op: Op) {
        if self.states.len() > 1 {
            self.rings[tile].push_back(op);
            return;
        }
        if let [only] = &mut self.replicas[..] {
            only.issue(&op);
            self.recycle(op);
            return;
        }
        self.chunk.push(op);
        if self.chunk.len() >= REPLAY_CHUNK {
            self.flush();
        }
    }

    /// Replay the buffered ops through each replica in turn, then take their
    /// line buffers back. Runs before anything reads or moves a replica's
    /// clock (`rdcycle`, barriers, finish).
    fn flush(&mut self) {
        if self.chunk.is_empty() {
            return;
        }
        let mut chunk = std::mem::take(&mut self.chunk);
        for timing in &mut self.replicas {
            chunk.iter().for_each(|op| timing.issue(op));
        }
        chunk.drain(..).for_each(|op| self.recycle(op));
        self.chunk = chunk;
    }

    /// Take an issued op's line buffer back for a later memory instruction
    /// (an instruction with no active element never allocated one).
    #[inline]
    fn recycle(&mut self, op: Op) {
        if let Op::Vector(VectorOp { mem: Some(mut m), .. }) = op {
            if m.lines.capacity() != 0 {
                m.lines.clear();
                self.lines_free.push(m.lines);
            }
        }
    }

    /// A scalar load or store as a timing op.
    #[inline]
    fn emit_access(&mut self, tile: usize, addr: u64, size: u8, is_store: bool) {
        self.emit(tile, if is_store { Op::Store { addr, size } } else { Op::Load { addr, size } });
    }
}

/// The first replica's answer, after every replica has been driven.
fn first<T>(mut each: impl Iterator<Item = T>) -> T {
    let first = each.next().expect("a machine has at least one timing replica");
    each.for_each(drop);
    first
}

/// One tile of an [`SdvMachine`] as a [`Vm`]. Functional effects land
/// immediately in the shared memory; timing ops go through the machine's
/// emit path (inline on one tile, merged with the other tiles' otherwise).
pub struct TileVm<'a> {
    m: &'a mut SdvMachine,
    tile: usize,
}

impl TileVm<'_> {
    /// Which tile this is.
    pub fn tile(&self) -> usize {
        self.tile
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
        self.m.emit_access(self.tile, addr, 8, false);
        self.m.mem.peek_f64(addr)
    }

    fn store_f64(&mut self, addr: u64, v: f64) {
        self.m.emit_access(self.tile, addr, 8, true);
        self.m.mem.poke_f64(addr, v);
    }

    fn load_u64(&mut self, addr: u64) -> u64 {
        self.m.emit_access(self.tile, addr, 8, false);
        self.m.mem.peek_u64(addr)
    }

    fn store_u64(&mut self, addr: u64, v: u64) {
        self.m.emit_access(self.tile, addr, 8, true);
        self.m.mem.poke_u64(addr, v);
    }

    fn load_u32(&mut self, addr: u64) -> u32 {
        self.m.emit_access(self.tile, addr, 4, false);
        self.m.mem.peek_u32(addr)
    }

    fn store_u32(&mut self, addr: u64, v: u32) {
        self.m.emit_access(self.tile, addr, 4, true);
        self.m.mem.poke_u32(addr, v);
    }

    fn int_ops(&mut self, n: u32) {
        if n > 0 {
            self.m.emit(self.tile, Op::IntOps(n));
        }
    }

    fn fp_ops(&mut self, n: u32) {
        if n > 0 {
            self.m.emit(self.tile, Op::FpOps(n));
        }
    }

    fn branch(&mut self, taken: bool) {
        self.m.emit(self.tile, Op::Branch { taken });
    }

    fn setvl(&mut self, avl: usize, sew: Sew, lmul: Lmul) -> usize {
        let vl = self.m.states[self.tile].set_vl(avl, sew, lmul);
        self.m.emit(
            self.tile,
            Op::Vector(VectorOp {
                class: VClass::SetVl,
                vl,
                active: 0,
                mem: None,
                produces_scalar: false,
                is_fp: false,
            }),
        );
        vl
    }

    fn vl(&self) -> usize {
        self.m.states[self.tile].vl
    }

    fn maxvl(&self, _: Sew) -> usize {
        self.m.states[self.tile].maxvl()
    }

    fn set_maxvl_cap(&mut self, cap: usize) {
        self.m.states[self.tile].set_maxvl_cap(cap);
    }

    fn exec_v(&mut self, inst: VInst) -> Option<u64> {
        let m = &mut *self.m;
        exec_into(&inst, &mut m.states[self.tile], &mut m.mem, &mut m.scratch, &mut m.info);
        if m.lines_pool.capacity() == 0 {
            // The last memory instruction's op left with the buffer. A new
            // one is sized once, for a full vector of the current length: a
            // gather touches at most one line per element.
            let fresh = || Vec::with_capacity(m.info.vl);
            m.lines_pool = m.lines_free.pop().unwrap_or_else(fresh);
        }
        let vop = classify_into(&inst, &m.info, m.line_bytes, &mut m.lines_pool);
        m.emit(self.tile, Op::Vector(vop));
        m.info.scalar
    }

    fn rdcycle(&mut self) -> u64 {
        if self.m.states.len() > 1 {
            // Time is only defined at barriers: mid-epoch the tile's clock
            // is wherever the merge happens to have got to, which depends on
            // piece boundaries and capture order. Every read inside an epoch
            // sees the cycle of the barrier that opened it.
            return self.m.epoch_start;
        }
        self.m.flush();
        self.m.replicas[0].now_of(self.tile)
    }

    fn fence(&mut self) {
        self.m.emit(self.tile, Op::Sync);
    }
}

/// Tile 0 of the machine — on the default one-tile machine, all of it.
impl Vm for SdvMachine {
    fn alloc(&mut self, bytes: usize, align: usize) -> u64 {
        self.mem.alloc(bytes, align)
    }

    fn mem(&self) -> &SimMemory {
        &self.mem
    }

    fn mem_mut(&mut self) -> &mut SimMemory {
        &mut self.mem
    }

    fn load_f64(&mut self, addr: u64) -> f64 {
        self.vm(0).load_f64(addr)
    }

    fn store_f64(&mut self, addr: u64, v: f64) {
        self.vm(0).store_f64(addr, v)
    }

    fn load_u64(&mut self, addr: u64) -> u64 {
        self.vm(0).load_u64(addr)
    }

    fn store_u64(&mut self, addr: u64, v: u64) {
        self.vm(0).store_u64(addr, v)
    }

    fn load_u32(&mut self, addr: u64) -> u32 {
        self.vm(0).load_u32(addr)
    }

    fn store_u32(&mut self, addr: u64, v: u32) {
        self.vm(0).store_u32(addr, v)
    }

    fn int_ops(&mut self, n: u32) {
        self.vm(0).int_ops(n)
    }

    fn fp_ops(&mut self, n: u32) {
        self.vm(0).fp_ops(n)
    }

    fn branch(&mut self, taken: bool) {
        self.vm(0).branch(taken)
    }

    fn setvl(&mut self, avl: usize, sew: Sew, lmul: Lmul) -> usize {
        self.vm(0).setvl(avl, sew, lmul)
    }

    fn vl(&self) -> usize {
        self.states[0].vl
    }

    fn maxvl(&self, _: Sew) -> usize {
        self.states[0].maxvl()
    }

    /// The experiment knob is machine-wide: every tile's MAXVL CSR is
    /// programmed. One tile's alone: `vm(tile).set_maxvl_cap(cap)`.
    fn set_maxvl_cap(&mut self, cap: usize) {
        for s in &mut self.states {
            s.set_maxvl_cap(cap);
        }
    }

    fn exec_v(&mut self, inst: VInst) -> Option<u64> {
        self.vm(0).exec_v(inst)
    }

    fn rdcycle(&mut self) -> u64 {
        self.vm(0).rdcycle()
    }

    fn fence(&mut self) {
        self.vm(0).fence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_results_match_functional_machine() {
        use crate::functional::FunctionalMachine;
        let run = |vm: &mut dyn Vm| -> Vec<f64> {
            let src = vm.alloc(8 * 64, 64);
            let dst = vm.alloc(8 * 64, 64);
            for i in 0..64 {
                vm.mem_mut().poke_f64(src + 8 * i, (i as f64) * 0.5);
            }
            vm.setvl(64, Sew::E64, Lmul::M1);
            vm.vle(1, src);
            vm.vfmacc_vf(1, 3.0, 1); // v1 += 3*v1 => 4*v1
            vm.vse(1, dst);
            vm.mem().peek_f64_vec(dst, 64)
        };
        let mut f = FunctionalMachine::new(1 << 16);
        let mut t = SdvMachine::new(1 << 16);
        assert_eq!(run(&mut f), run(&mut t));
    }

    #[test]
    fn rdcycle_advances_with_work() {
        let mut m = SdvMachine::new(1 << 20);
        let a = m.alloc(8 * 1024, 64);
        let t0 = m.rdcycle();
        for i in 0..128 {
            m.load_f64(a + 8 * i);
        }
        m.fence();
        assert!(m.rdcycle() > t0);
    }

    #[test]
    fn knobs_change_measured_time() {
        let run = |extra: u64, bw: u64| {
            let mut m = SdvMachine::new(1 << 22);
            m.set_extra_latency(extra);
            m.set_bandwidth_limit(bw);
            let n = 4096u64;
            let a = m.alloc((n * 8) as usize, 64);
            m.setvl(256, Sew::E64, Lmul::M1);
            let mut off = 0;
            while off < n {
                m.vle(1, a + off * 8);
                off += 256;
            }
            m.finish()
        };
        let base = run(0, 64);
        let slow_lat = run(512, 64);
        let slow_bw = run(0, 1);
        assert!(slow_lat > base, "latency knob must cost: {slow_lat} vs {base}");
        assert!(slow_bw > base, "bandwidth knob must cost: {slow_bw} vs {base}");
    }

    #[test]
    fn maxvl_cap_limits_granted_vl() {
        let mut m = SdvMachine::new(1 << 16);
        m.set_maxvl_cap(16);
        assert_eq!(m.setvl(1000, Sew::E64, Lmul::M1), 16);
    }

    #[test]
    fn describe_reports_the_paper_topology() {
        let mut m = SdvMachine::new(1 << 16);
        m.set_maxvl_cap(64);
        m.set_extra_latency(128);
        let d = m.describe();
        assert!(d.contains("8 lanes"), "{d}");
        assert!(d.contains("VLEN 16384 bits"), "{d}");
        assert!(d.contains("2x2 mesh"), "{d}");
        assert!(d.contains("4 banks"), "{d}");
        assert!(d.contains("MAXVL CSR cap = 64"), "{d}");
        assert!(d.contains("+128"), "{d}");
    }

    #[test]
    fn try_finish_surfaces_injected_faults_and_passes_clean_runs() {
        use sdv_engine::{FaultKind, FaultPlan, SimError};
        use sdv_uarch::WatchdogConfig;
        let program = |m: &mut SdvMachine| {
            let n = 8192u64;
            let a = m.alloc((n * 8) as usize, 64);
            m.setvl(256, Sew::E64, Lmul::M1);
            let mut off = 0;
            while off < n {
                m.vle(1, a + off * 8);
                off += 256;
            }
            m.try_finish()
        };
        let mut clean = SdvMachine::with_config(
            1 << 22,
            TimingConfig { watchdog: WatchdogConfig::default_on(), ..TimingConfig::default() },
        );
        program(&mut clean).expect("clean run passes");
        let mut faulty = SdvMachine::with_config(
            1 << 22,
            TimingConfig {
                watchdog: WatchdogConfig::default_on(),
                fault: FaultPlan::new(FaultKind::StallBank, 6),
                ..TimingConfig::default()
            },
        );
        let e = program(&mut faulty).expect_err("the stalled bank must surface");
        assert!(matches!(e, SimError::Deadlock { .. }), "{e}");
        assert!(faulty.fault().is_some());
    }

    #[test]
    fn reset_clears_latched_deadline_and_armed_wall() {
        use sdv_engine::SimError;
        let cfg = TimingConfig::default();
        // Enough scalar ops to cross the deadline's check stride (2^14 ops)
        // several times, so a zero deadline is guaranteed to latch.
        let program = |m: &mut SdvMachine| {
            let a = m.alloc(64, 64);
            for _ in 0..100_000u64 {
                m.load_f64(a);
            }
        };
        let mut fresh = SdvMachine::with_config(1 << 22, cfg);
        program(&mut fresh);
        let clean = fresh.try_finish().expect("no deadline armed");

        let mut m = SdvMachine::with_config(1 << 22, cfg);
        m.set_wall_deadline(std::time::Duration::ZERO);
        program(&mut m);
        let e = m.try_finish().expect_err("a zero deadline fires on the first op");
        assert!(matches!(e, SimError::DeadlineExceeded { .. }), "{e}");
        assert!(m.fault().is_some());

        // The reset must clear both the latched fault and the armed deadline:
        // the next cell on this machine runs clean and bit-identical.
        m.reset_with_config(cfg);
        assert!(m.fault().is_none(), "reset must clear the latched fault");
        program(&mut m);
        assert_eq!(m.try_finish().expect("deadline must not survive reset"), clean);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut m = SdvMachine::new(1 << 16);
        let a = m.alloc(64, 64);
        m.load_f64(a);
        let t1 = m.finish();
        let t2 = m.finish();
        assert_eq!(t1, t2);
    }

    fn tiled_cfg(tiles: usize) -> TimingConfig {
        let mut cfg = TimingConfig::default();
        cfg.mem.tiles = tiles;
        cfg
    }

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
    fn one_tile_through_vm0_matches_the_machine_as_vm() {
        let n = 4096u64;
        let direct = {
            let mut m = SdvMachine::new(1 << 22);
            let a = m.alloc((n * 8) as usize, 64);
            stream_program(&mut m, a, n);
            (m.try_finish().expect("clean run"), format!("{:?}", m.stats()))
        };
        let through_tile = {
            let mut m = SdvMachine::new(1 << 22);
            let a = m.vm(0).alloc((n * 8) as usize, 64);
            stream_program(&mut m.vm(0), a, n);
            assert!(m.rings[0].is_empty(), "one tile issues inline, nothing queues");
            assert_eq!(m.peak_queued_ops(), 0);
            (m.try_finish().expect("clean run"), format!("{:?}", m.stats()))
        };
        assert_eq!(direct, through_tile, "vm(0) and impl Vm are the same op stream");
    }

    #[test]
    fn barrier_on_one_tile_drains_and_is_idempotent() {
        let mut m = SdvMachine::new(1 << 22);
        let a = m.alloc(8 * 1024, 64);
        stream_program(&mut m, a, 1024);
        let at = m.barrier();
        assert_eq!(at, m.rdcycle(), "the barrier cycle is the tile's clock");
        assert_eq!(m.barrier(), at, "nothing in flight: a second barrier is free");
        assert_eq!(m.try_finish().expect("clean run"), at);
    }

    #[test]
    fn multi_tile_runs_replay_deterministically() {
        let run = |order: Option<Vec<usize>>| {
            let mut m = SdvMachine::with_config(1 << 22, tiled_cfg(4));
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
            let mut m = SdvMachine::new(1 << 23);
            let a = m.alloc((n * 8) as usize, 64);
            compute_program(&mut m, a, n);
            m.try_finish().expect("clean run")
        };
        let four = {
            let mut m = SdvMachine::with_config(1 << 23, tiled_cfg(4));
            let a = m.alloc((n * 8) as usize, 64);
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
        let mut m = SdvMachine::with_config(1 << 22, tiled_cfg(2));
        let a = m.alloc(8 * 1024, 64);
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

    #[test]
    fn machine_wide_maxvl_cap_reaches_every_tile() {
        let mut m = SdvMachine::with_config(1 << 16, tiled_cfg(2));
        m.set_maxvl_cap(16);
        assert_eq!(m.vm(1).setvl(1000, Sew::E64, Lmul::M1), 16);
        m.vm(1).set_maxvl_cap(8);
        assert_eq!(m.vm(1).maxvl(Sew::E64), 8);
        assert_eq!(m.maxvl(Sew::E64), 16, "a tile's own cap stays on that tile");
    }

    /// A partitioned program long enough per tile (scalar loads, one op
    /// each) that a zero wall deadline latches during the merge: per tile a
    /// vector streaming piece, then the loads in five pieces.
    fn partitioned_program(m: &mut SdvMachine) -> Result<Cycle, SimError> {
        let tiles = m.tiles() as u64;
        let n = 4096u64;
        let a = m.alloc((n * 8) as usize, 64);
        let share = n / tiles;
        let mut piece = vec![0u64; tiles as usize];
        m.epoch(|vm| {
            let t = vm.tile();
            let base = a + share * t as u64 * 8;
            if piece[t] == 0 {
                stream_program(vm, base, share);
            } else {
                for i in 0..4_000 / tiles {
                    vm.load_f64(base + (i % share) * 8);
                }
            }
            piece[t] += 1;
            piece[t] <= 5
        });
        m.try_finish()
    }

    #[test]
    fn pooled_reset_across_topologies_matches_fresh_machines() {
        let fresh = |tiles: usize| {
            let mut m = SdvMachine::with_config(1 << 22, tiled_cfg(tiles));
            let cycles = partitioned_program(&mut m).expect("clean run");
            (cycles, format!("{:?}", m.stats()))
        };
        let (four, one) = (fresh(4), fresh(1));
        assert_ne!(four.0, one.0, "the topologies must be told apart");

        let mut m = SdvMachine::with_config(1 << 22, tiled_cfg(4));
        m.set_capture_order(vec![2, 0, 3, 1]);
        // Fail the first cell mid-epoch: the deadline is consulted as ops
        // issue, with every tile's later pieces still uncaptured.
        m.set_wall_deadline(std::time::Duration::ZERO);
        let e = partitioned_program(&mut m).expect_err("a zero deadline fires in the merge");
        assert!(matches!(e, SimError::DeadlineExceeded { .. }), "{e}");
        assert!(m.peak_queued_ops() > 0, "four tiles queue");

        for (tiles, want) in [(1, &one), (4, &four), (1, &one)] {
            m.reset_with_config(tiled_cfg(tiles));
            assert!(m.fault().is_none(), "reset must clear the latched fault");
            assert_eq!(m.tiles(), tiles);
            assert_eq!(m.capture_order(), (0..tiles).collect::<Vec<_>>(), "identity order");
            assert!(
                m.rings.len() == tiles && m.rings.iter().all(VecDeque::is_empty),
                "reset must leave one empty ring per tile"
            );
            assert_eq!(m.peak_queued_ops(), 0, "the high-water mark is per cell");
            let cycles = partitioned_program(&mut m).expect("deadline must not survive reset");
            assert_eq!((cycles, format!("{:?}", m.stats())), *want, "pooled at {tiles} tiles");
        }
    }

    #[test]
    fn rdcycle_inside_an_epoch_reads_the_barrier_that_opened_it() {
        // Mid-epoch a tile's own clock is wherever the merge has got to,
        // which depends on piece boundaries and capture order; `rdcycle`
        // must not expose that.
        let run = |order: Vec<usize>| {
            let mut m = SdvMachine::with_config(1 << 22, tiled_cfg(4));
            m.set_capture_order(order);
            let a = m.alloc(8 * 4096, 64);
            for t in 0..4 {
                stream_program(&mut m.vm(t), a + 8192 * t as u64, 512);
            }
            let opened = m.barrier();
            assert!(opened > 0);
            let mut piece = [0u64; 4];
            let mut reads = Vec::new();
            let closed = m.epoch(|vm| {
                let t = vm.tile();
                reads.push(vm.rdcycle());
                stream_program(vm, a + 8192 * t as u64, 256 * (1 + t as u64));
                reads.push(vm.rdcycle());
                piece[t] += 1;
                piece[t] < 3
            });
            assert_eq!(reads.len(), 4 * 3 * 2, "every piece of every tile read twice");
            assert!(reads.iter().all(|&r| r == opened), "{reads:?} vs barrier {opened}");
            assert!(closed > opened);
            assert_eq!(m.vm(2).rdcycle(), closed, "the next epoch reads the new barrier");
            (opened, closed)
        };
        assert_eq!(run(vec![0, 1, 2, 3]), run(vec![3, 1, 0, 2]));
    }

    /// The collect-everything merge this machine used before capture became
    /// pull-driven, kept as the differential reference: every tile's whole
    /// barrier-to-barrier op stream is in `pending` before one op issues.
    fn replay_reference(timing: &mut SdvTiming, pending: &[Vec<Op>]) {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut cursors = vec![0usize; pending.len()];
        for (t, ops) in pending.iter().enumerate() {
            if !ops.is_empty() {
                q.schedule(timing.now_of(t), t);
            }
        }
        while let Some((_, t)) = q.pop() {
            timing.issue_on(t, &pending[t][cursors[t]]);
            cursors[t] += 1;
            if cursors[t] < pending[t].len() {
                q.schedule(timing.now_of(t), t);
            }
        }
    }

    /// One instruction of a seeded program; each is exactly one timing op.
    #[derive(Debug, Clone, Copy)]
    enum Ins {
        Int(u32),
        Load(u64),
        Store(u64),
        Branch(bool),
        SetVl(usize),
        Vle(u64),
        Vse(u64),
        Vlse(u64, i64),
        Fma,
        Fence,
    }

    fn apply<V: Vm>(vm: &mut V, base: u64, ins: Ins) {
        match ins {
            Ins::Int(n) => vm.int_ops(n),
            Ins::Load(off) => {
                vm.load_u64(base + off);
            }
            Ins::Store(off) => vm.store_u64(base + off, off),
            Ins::Branch(taken) => vm.branch(taken),
            Ins::SetVl(avl) => {
                vm.setvl(avl, Sew::E64, Lmul::M1);
            }
            Ins::Vle(off) => vm.vle(1, base + off),
            Ins::Vse(off) => vm.vse(1, base + off),
            Ins::Vlse(off, stride) => vm.vlse(2, base + off, stride),
            Ins::Fma => vm.vfmacc_vf(1, 1.5, 2),
            Ins::Fence => vm.fence(),
        }
    }

    fn random_ins(rng: &mut sdv_engine::Rng) -> Ins {
        let off = 8 * rng.below(1 << 15);
        match rng.below(20) {
            0..=3 => Ins::Int(1 + rng.below(6) as u32),
            4..=6 => Ins::Load(off),
            7..=8 => Ins::Store(off),
            9..=10 => Ins::Branch(rng.chance(0.5)),
            11 => Ins::SetVl(1 + rng.index(256)),
            12..=13 => Ins::Vle(off),
            14..=15 => Ins::Vse(off),
            16 => Ins::Vlse(off, 8 * (1 + rng.below(40)) as i64),
            17..=18 => Ins::Fma,
            _ => Ins::Fence,
        }
    }

    /// What a machine of its own reports for `program` under `knobs`:
    /// cycles (or the failure) and every statistic.
    fn alone(
        cfg: TimingConfig,
        knobs: Knobs,
        program: &[Ins],
    ) -> (Result<Cycle, SimError>, String) {
        let mut m = SdvMachine::with_config(1 << 20, cfg);
        m.set_extra_latency(knobs.extra_latency);
        m.set_bandwidth_limit(knobs.bandwidth);
        let base = m.alloc(1 << 19, 64);
        program.iter().for_each(|&i| apply(&mut m, base, i));
        (m.try_finish(), format!("{:?}", m.stats()))
    }

    /// Both knob axes, the unthrottled default twice.
    const REPLICA_KNOBS: [Knobs; 5] = [
        Knobs { extra_latency: 0, bandwidth: 64 },
        Knobs { extra_latency: 512, bandwidth: 64 },
        Knobs { extra_latency: 0, bandwidth: 2 },
        Knobs { extra_latency: 128, bandwidth: 8 },
        Knobs { extra_latency: 0, bandwidth: 64 },
    ];

    #[test]
    fn replicas_match_machines_of_their_own_at_every_chunk_boundary() {
        let cfg = TimingConfig::default();
        let mut rng = sdv_engine::Rng::new(0x5EED_0021);
        let mut m = SdvMachine::new(1 << 20);
        let lengths =
            [0, 1, REPLAY_CHUNK - 1, REPLAY_CHUNK, REPLAY_CHUNK + 1, 5 * REPLAY_CHUNK + 37];
        for n in lengths {
            let program: Vec<Ins> = (0..n).map(|_| random_ins(&mut rng)).collect();
            m.reset_with_replicas(cfg, &REPLICA_KNOBS);
            assert_eq!(m.replicas(), REPLICA_KNOBS.len());
            let base = m.alloc(1 << 19, 64);
            program.iter().for_each(|&i| apply(&mut m, base, i));
            assert_eq!(m.chunk.len(), n % REPLAY_CHUNK, "{n} ops: one op an instruction");
            let got = m.try_finish_each();
            assert!(m.chunk.is_empty(), "{n} ops: finishing replays what was buffered");
            for (i, &knobs) in REPLICA_KNOBS.iter().enumerate() {
                let (cycles, stats) = alone(cfg, knobs, &program);
                assert_eq!(got[i], cycles, "{n} ops, replica {i} ({knobs:?}): cycles");
                assert_eq!(format!("{:?}", m.stats_of(i)), stats, "{n} ops, replica {i}: stats");
            }
            assert_eq!(got[0], got[4], "{n} ops: equal knobs, equal replicas");
        }
    }

    #[test]
    fn a_fence_a_clock_read_and_a_barrier_mid_chunk_replay_what_is_buffered() {
        let cfg = TimingConfig::default();
        let mut rng = sdv_engine::Rng::new(0x5EED_0121);
        let stretch = |rng: &mut sdv_engine::Rng, n: usize| -> Vec<Ins> {
            (0..n).map(|_| random_ins(rng)).chain([Ins::Fence]).collect()
        };
        let (a, b, c) = (stretch(&mut rng, 40), stretch(&mut rng, 30), stretch(&mut rng, 200));

        // Replica 0's view on a machine of its own: the clock after the first
        // stretch, the barrier after the second, the end.
        let mut r = SdvMachine::new(1 << 20);
        r.set_extra_latency(REPLICA_KNOBS[0].extra_latency);
        r.set_bandwidth_limit(REPLICA_KNOBS[0].bandwidth);
        let base = r.alloc(1 << 19, 64);
        a.iter().for_each(|&i| apply(&mut r, base, i));
        let want_clock = r.rdcycle();
        b.iter().for_each(|&i| apply(&mut r, base, i));
        let want_barrier = r.barrier();
        c.iter().for_each(|&i| apply(&mut r, base, i));

        let mut m = SdvMachine::new(1 << 20);
        m.reset_with_replicas(cfg, &REPLICA_KNOBS);
        assert_eq!(m.alloc(1 << 19, 64), base);
        a.iter().for_each(|&i| apply(&mut m, base, i));
        assert_eq!(m.chunk.len(), a.len(), "a fence is one more buffered op");
        assert_eq!(m.rdcycle(), want_clock, "a clock read replays the chunk first");
        assert!(m.chunk.is_empty());
        b.iter().for_each(|&i| apply(&mut m, base, i));
        assert_eq!(m.barrier(), want_barrier, "so does a barrier");
        c.iter().for_each(|&i| apply(&mut m, base, i));
        assert_eq!(m.chunk.len(), c.len() % REPLAY_CHUNK);
        assert_eq!(m.try_finish(), r.try_finish(), "try_finish answers for replica 0");
        assert_eq!(format!("{:?}", m.stats()), format!("{:?}", r.stats()));

        // The other replicas took the same barrier on their own clocks.
        for (i, &knobs) in REPLICA_KNOBS.iter().enumerate().skip(1) {
            let mut r = SdvMachine::new(1 << 20);
            r.set_extra_latency(knobs.extra_latency);
            r.set_bandwidth_limit(knobs.bandwidth);
            assert_eq!(r.alloc(1 << 19, 64), base);
            a.iter().chain(&b).for_each(|&ins| apply(&mut r, base, ins));
            r.barrier();
            c.iter().for_each(|&ins| apply(&mut r, base, ins));
            r.try_finish().expect("clean run");
            assert_eq!(format!("{:?}", m.stats_of(i)), format!("{:?}", r.stats()), "replica {i}");
        }
    }

    #[test]
    fn every_replica_latches_its_own_fault() {
        use sdv_uarch::WatchdogConfig;
        // A budget the unthrottled replicas finish inside and the slowed ones
        // blow: the op stream is shared, the verdicts are not.
        let mut rng = sdv_engine::Rng::new(0x5EED_0221);
        let program: Vec<Ins> = (0..600).map(|_| random_ins(&mut rng)).collect();
        let free = TimingConfig::default();
        let alone_free: Vec<Cycle> = REPLICA_KNOBS
            .iter()
            .map(|&k| alone(free, k, &program).0.expect("no budget, clean run"))
            .collect();
        let (fastest, slowest) =
            (*alone_free.iter().min().unwrap(), *alone_free.iter().max().unwrap());
        assert!(fastest < slowest);
        let cfg = TimingConfig {
            watchdog: WatchdogConfig { cycle_budget: (fastest + slowest) / 2, progress_window: 0 },
            ..free
        };
        let mut m = SdvMachine::new(1 << 20);
        m.reset_with_replicas(cfg, &REPLICA_KNOBS);
        let base = m.alloc(1 << 19, 64);
        program.iter().for_each(|&i| apply(&mut m, base, i));
        let got = m.try_finish_each();
        assert!(got.iter().any(Result::is_ok) && got.iter().any(Result::is_err), "{got:?}");
        for (i, &knobs) in REPLICA_KNOBS.iter().enumerate() {
            let (want, stats) = alone(cfg, knobs, &program);
            assert_eq!(got[i], want, "replica {i} ({knobs:?})");
            assert_eq!(format!("{:?}", m.stats_of(i)), stats, "replica {i}: stats");
        }
        // The next reset leaves one clean replica behind.
        m.reset_with_config(free);
        assert_eq!(m.replicas(), 1);
        assert!(m.fault().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot share one functional pass")]
    fn more_than_one_tile_takes_one_replica_only() {
        SdvMachine::new(1 << 16).reset_with_replicas(tiled_cfg(2), &REPLICA_KNOBS);
    }

    /// One barrier-to-barrier stretch of a seeded program. Per tile: ops
    /// queued by direct `vm(t)` calls, then the pieces an `epoch` pulls.
    /// With no pieces anywhere the stretch ends in a bare `barrier()`.
    struct Stretch {
        direct: Vec<Vec<Ins>>,
        pieces: Vec<Vec<Vec<Ins>>>,
    }

    fn random_stretch(rng: &mut sdv_engine::Rng, tiles: usize) -> Stretch {
        let bare = rng.chance(0.2);
        let mut direct = Vec::new();
        let mut pieces = Vec::new();
        for _ in 0..tiles {
            let queued = if bare || rng.chance(0.25) { rng.index(12) } else { 0 };
            direct.push((0..queued).map(|_| random_ins(rng)).collect());
            pieces.push(if bare { Vec::new() } else { random_pieces(rng) });
        }
        Stretch { direct, pieces }
    }

    /// One tile's share of an epoch, cut into pieces. A fifth of the time the
    /// tile sits the epoch out (no ops, though maybe empty pieces); otherwise
    /// lengths differ by up to 80 ops, so some tiles finish long before
    /// others, and cuts are frequent enough that empty and one-op pieces are
    /// common.
    fn random_pieces(rng: &mut sdv_engine::Rng) -> Vec<Vec<Ins>> {
        let len = if rng.chance(0.2) { 0 } else { rng.index(80) };
        let mut pieces = vec![Vec::new()];
        for _ in 0..len {
            while rng.chance(0.3) {
                pieces.push(Vec::new());
            }
            pieces.last_mut().expect("starts with one piece").push(random_ins(rng));
        }
        while rng.chance(0.3) {
            pieces.push(Vec::new());
        }
        pieces
    }

    #[test]
    fn streaming_merge_matches_the_collect_everything_reference() {
        let mut rng = sdv_engine::Rng::new(0x5EED_0017);
        for case in 0..240 {
            let tiles = 2 + rng.index(4);
            let program: Vec<Stretch> =
                (0..1 + rng.index(4)).map(|_| random_stretch(&mut rng, tiles)).collect();
            let tail: Vec<Ins> = (0..rng.index(6)).map(|_| random_ins(&mut rng)).collect();
            let mut order: Vec<usize> = (0..tiles).collect();
            rng.shuffle(&mut order);
            let heap = 1 << 20;

            // Under test: pieces pulled by the merge, in a shuffled order.
            let mut m = SdvMachine::with_config(heap, tiled_cfg(tiles));
            m.set_capture_order(order.clone());
            let base = m.alloc(1 << 19, 64);
            let mut got_barriers = Vec::new();
            let mut bound = 0;
            for st in &program {
                for (t, ins) in st.direct.iter().enumerate() {
                    ins.iter().for_each(|&i| apply(&mut m.vm(t), base, i));
                }
                bound = bound.max(
                    (0..tiles)
                        .map(|t| {
                            st.direct[t].len()
                                + st.pieces[t].iter().map(Vec::len).max().unwrap_or(0)
                        })
                        .sum(),
                );
                if st.pieces.iter().all(Vec::is_empty) {
                    got_barriers.push(m.barrier());
                    continue;
                }
                let mut next = vec![0usize; tiles];
                got_barriers.push(m.epoch(|vm| {
                    let t = vm.tile();
                    if let Some(piece) = st.pieces[t].get(next[t]) {
                        piece.iter().for_each(|&i| apply(vm, base, i));
                        next[t] += 1;
                    }
                    next[t] < st.pieces[t].len()
                }));
                assert!(m.rings.iter().all(VecDeque::is_empty), "case {case}: an epoch drains");
            }
            tail.iter().for_each(|&i| apply(&mut m.vm(tiles - 1), base, i));
            let got = m.try_finish().expect("clean run");
            assert!(
                m.peak_queued_ops() <= bound,
                "case {case}: {} ops queued at once, one piece per tile allows {bound}",
                m.peak_queued_ops()
            );

            // Reference: the same per-tile instruction sequences collected
            // whole, tile after tile, then merged by the old loop.
            let mut r = SdvMachine::with_config(heap, tiled_cfg(tiles));
            assert_eq!(r.alloc(1 << 19, 64), base);
            let mut want_barriers = Vec::new();
            let collect_and_replay = |r: &mut SdvMachine| {
                let pending: Vec<Vec<Op>> =
                    r.rings.iter_mut().map(|q| q.drain(..).collect()).collect();
                replay_reference(&mut r.replicas[0], &pending);
            };
            for st in &program {
                for t in 0..tiles {
                    let all = st.direct[t].iter().chain(st.pieces[t].iter().flatten());
                    all.for_each(|&i| apply(&mut r.vm(t), base, i));
                }
                collect_and_replay(&mut r);
                want_barriers.push(r.replicas[0].barrier());
            }
            tail.iter().for_each(|&i| apply(&mut r.vm(tiles - 1), base, i));
            collect_and_replay(&mut r);
            let want = r.replicas[0].try_finish().expect("clean reference run");

            assert_eq!(got_barriers, want_barriers, "case {case}: barrier cycles ({tiles} tiles)");
            assert_eq!(got, want, "case {case}: final cycles ({tiles} tiles, order {order:?})");
            assert_eq!(
                format!("{:?}", m.stats()),
                format!("{:?}", r.replicas[0].stats()),
                "case {case}: stats"
            );
        }
    }
}
