//! Timing-model configuration.
//!
//! Defaults are calibrated so the *unloaded* round-trip from the core to
//! DRAM lands near the ≈50 cycles the paper reports for the FPGA system at
//! 50 MHz, and so the scalar core's memory-level parallelism sits in the
//! small single-digit range typical of a modest superscalar while the VPU
//! can keep tens of line requests in flight.

use std::fmt::Write as _;

use sdv_engine::{Cycle, FaultPlan, ProbeConfig};
use sdv_memsys::{CacheConfig, DramConfig};
use sdv_noc::MeshConfig;

/// Memory hierarchy configuration.
#[derive(Debug, Clone, Copy)]
pub struct MemHierConfig {
    /// L1 data cache geometry (scalar side only; the VPU bypasses L1).
    pub l1: CacheConfig,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: Cycle,
    /// Geometry of each L2HN bank.
    pub l2_bank: CacheConfig,
    /// L2 bank hit latency in cycles.
    pub l2_hit_latency: Cycle,
    /// Per-request bank occupancy (tag + data array throughput), cycles.
    pub l2_bank_occupancy: Cycle,
    /// Number of L2HN banks (mesh nodes).
    pub num_banks: usize,
    /// Mesh parameters.
    pub mesh: MeshConfig,
    /// DRAM channel parameters.
    pub dram: DramConfig,
    /// Extra path latency from an L2 bank to the memory controller, cycles.
    pub dram_path_latency: Cycle,
    /// Number of core+VPU tiles sharing the hierarchy. Tile 0 sits at
    /// `core_node`; further tiles are spread around the mesh (see
    /// `MemHierarchy::tile_node`). 1 = the paper's single-tile machine.
    pub tiles: usize,
    /// Mesh node hosting tile 0's core + VPU.
    pub core_node: usize,
    /// Latency of a home-node recall of a dirty L1 line (VPU reads data the
    /// core recently wrote), cycles on top of the L2 visit.
    pub recall_latency: Cycle,
    /// L1 stream-prefetch depth: on an L1 read, prefetch the next
    /// `l1_prefetch_depth` lines (0 = off, the paper's configuration; the
    /// `study ablation_prefetch` shows what a prefetcher would change).
    pub l1_prefetch_depth: usize,
}

impl Default for MemHierConfig {
    fn default() -> Self {
        Self {
            // Small FPGA-prototype caches: working sets of all four kernels
            // exceed the shared L2, which is what keeps every kernel
            // DRAM-resident enough for the latency/bandwidth knobs to bite
            // (as they visibly do in the paper's figures).
            l1: CacheConfig { size_bytes: 16 * 1024, ways: 4, line_bytes: 64 },
            l1_hit_latency: 2,
            l2_bank: CacheConfig { size_bytes: 16 * 1024, ways: 8, line_bytes: 64 },
            l2_hit_latency: 8,
            l2_bank_occupancy: 1,
            num_banks: 4,
            mesh: MeshConfig::default(),
            dram: DramConfig { service_latency: 30, line_bytes: 64, ..DramConfig::default() },
            dram_path_latency: 4,
            tiles: 1,
            core_node: 0,
            recall_latency: 10,
            l1_prefetch_depth: 0,
        }
    }
}

/// Scalar (Atrevido-style) core configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScalarConfig {
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Outstanding load misses the core can sustain (L1 MSHRs).
    pub max_outstanding_loads: usize,
    /// How many ops the core can issue past the oldest incomplete load
    /// before stalling (approximates stall-on-use in a small window).
    pub runahead_window: usize,
    /// Store buffer depth (stores retire in the background).
    pub store_buffer: usize,
    /// Redirect bubble for taken branches, cycles.
    pub branch_penalty: Cycle,
    /// Latency of one scalar FP op (pipelined), cycles — only exposed at
    /// dependency edges, charged as issue bandwidth here.
    pub fp_issue_slots: u32,
}

impl Default for ScalarConfig {
    fn default() -> Self {
        Self {
            issue_width: 2,
            max_outstanding_loads: 4,
            runahead_window: 32,
            store_buffer: 8,
            branch_penalty: 2,
            fp_issue_slots: 1,
        }
    }
}

/// Vector unit (Vitruvius-style) configuration.
#[derive(Debug, Clone, Copy)]
pub struct VpuConfig {
    /// Number of lanes (the paper's VPU has 8).
    pub lanes: usize,
    /// Fixed startup (dispatch + pipe fill) cycles per vector instruction.
    pub startup: Cycle,
    /// Extra per-instruction cost of long ops (fdiv) per element batch.
    pub long_op_factor: Cycle,
    /// Reduction tree + drain overhead, cycles.
    pub reduction_overhead: Cycle,
    /// Depth of the decoupled instruction queue between core and VPU.
    pub queue_depth: usize,
    /// Maximum outstanding vector-memory line requests (the deep MLP that
    /// makes long vectors latency-tolerant).
    pub vmem_outstanding: usize,
    /// Line requests the vector memory unit can issue per cycle for
    /// unit-stride bursts.
    pub vmem_unit_issue_per_cycle: u32,
    /// Element addresses the vector memory unit can generate per cycle for
    /// indexed (gather/scatter) accesses.
    pub vmem_index_issue_per_cycle: u32,
    /// Cost for the scalar core to read back a vector scalar result, cycles.
    pub scalar_read_latency: Cycle,
}

impl Default for VpuConfig {
    fn default() -> Self {
        Self {
            lanes: 8,
            startup: 10,
            long_op_factor: 4,
            reduction_overhead: 16,
            queue_depth: 16,
            vmem_outstanding: 256,
            vmem_unit_issue_per_cycle: 1,
            vmem_index_issue_per_cycle: 2,
            scalar_read_latency: 6,
        }
    }
}

/// Forward-progress watchdog configuration. Both knobs default to 0 (off):
/// the watchdog is a pure observer and never changes cycle arithmetic, but
/// keeping it off by default guarantees the golden runs stay bit-identical
/// by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Abort with `SimError::CycleBudgetExceeded` once the cycle counter
    /// passes this value. 0 = unlimited.
    pub cycle_budget: Cycle,
    /// Abort with `SimError::Deadlock` when a single operation's completion
    /// jumps more than this many cycles past its issue point — no real
    /// configuration stalls one op for billions of cycles, so a jump this
    /// large means a resource is wedged and will never free. 0 = off.
    pub progress_window: Cycle,
}

impl WatchdogConfig {
    /// Whether either check is armed.
    pub fn armed(&self) -> bool {
        self.cycle_budget != 0 || self.progress_window != 0
    }

    /// A production preset for long sweeps: progress window of 2^32 cycles
    /// (far above any legitimate stall — the paper's worst cells run ~10^8
    /// cycles *total* — far below the `WEDGE` sentinel) and no cycle budget.
    pub fn default_on() -> Self {
        Self { cycle_budget: 0, progress_window: 1 << 32 }
    }
}

/// The complete timing configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimingConfig {
    /// Memory hierarchy.
    pub mem: MemHierConfig,
    /// Scalar core.
    pub scalar: ScalarConfig,
    /// Vector unit.
    pub vpu: VpuConfig,
    /// Forward-progress watchdog (off by default).
    pub watchdog: WatchdogConfig,
    /// Deterministic fault injection (off by default).
    pub fault: FaultPlan,
    /// Observability probes: occupancy sampling + timeline tracing (off by
    /// default; pure observers, cycle counts are identical either way).
    pub probe: ProbeConfig,
}

impl TimingConfig {
    /// A canonical, *total* single-line rendering of every timing knob:
    /// `name=value` tokens, space-separated, in a fixed order.
    ///
    /// This is the configuration half of the persistent result cache's key,
    /// so two properties are load-bearing: the same config must always
    /// render the same string, and *every* field must appear — a knob the
    /// rendering missed would let two different configs share a cache entry.
    /// Each struct is exhaustively destructured below, so adding a field
    /// anywhere in the config tree is a compile error here until the
    /// canonical form learns about it (which correctly orphans old entries,
    /// since `sdv::build_info()` is also in the key only per code version).
    pub fn canonical(&self) -> String {
        let TimingConfig { mem, scalar, vpu, watchdog, fault, probe } = self;
        let mut s = String::with_capacity(640);
        mem_canonical(mem, &mut s);
        scalar_canonical(scalar, &mut s);
        vpu_canonical(vpu, &mut s);
        let WatchdogConfig { cycle_budget, progress_window } = *watchdog;
        let _ = write!(s, "wd.budget={cycle_budget} wd.window={progress_window} ");
        let FaultPlan { kind, seed } = *fault;
        let _ = write!(s, "fault={}:{seed} ", kind.name());
        let ProbeConfig { sample, trace } = *probe;
        let _ = write!(s, "probe={}{}", sample as u8, trace as u8);
        s
    }
}

fn cache_canonical(prefix: &str, c: &CacheConfig, s: &mut String) {
    let CacheConfig { size_bytes, ways, line_bytes } = *c;
    let _ = write!(s, "{prefix}={size_bytes}/{ways}/{line_bytes} ");
}

fn mem_canonical(mem: &MemHierConfig, s: &mut String) {
    let MemHierConfig {
        l1,
        l1_hit_latency,
        l2_bank,
        l2_hit_latency,
        l2_bank_occupancy,
        num_banks,
        mesh,
        dram,
        dram_path_latency,
        tiles,
        core_node,
        recall_latency,
        l1_prefetch_depth,
    } = mem;
    cache_canonical("l1", l1, s);
    cache_canonical("l2", l2_bank, s);
    let _ = write!(
        s,
        "l1.hit={l1_hit_latency} l2.hit={l2_hit_latency} l2.occ={l2_bank_occupancy} \
         banks={num_banks} "
    );
    let MeshConfig { width, height, router_latency, link_latency, flit_bytes } = *mesh;
    let _ = write!(
        s,
        "mesh={width}x{height}/{router_latency}/{link_latency}/{flit_bytes} "
    );
    let DramConfig { service_latency, line_bytes, row_bits, dram_banks, row_miss_penalty } =
        *dram;
    let _ = write!(
        s,
        "dram={service_latency}/{line_bytes}/{row_bits}/{dram_banks}/{row_miss_penalty} \
         dram.path={dram_path_latency} tiles={tiles} core_node={core_node} \
         recall={recall_latency} l1.pf={l1_prefetch_depth} "
    );
}

fn scalar_canonical(scalar: &ScalarConfig, s: &mut String) {
    let ScalarConfig {
        issue_width,
        max_outstanding_loads,
        runahead_window,
        store_buffer,
        branch_penalty,
        fp_issue_slots,
    } = *scalar;
    let _ = write!(
        s,
        "sc.issue={issue_width} sc.mshr={max_outstanding_loads} sc.ra={runahead_window} \
         sc.sb={store_buffer} sc.br={branch_penalty} sc.fp={fp_issue_slots} "
    );
}

fn vpu_canonical(vpu: &VpuConfig, s: &mut String) {
    let VpuConfig {
        lanes,
        startup,
        long_op_factor,
        reduction_overhead,
        queue_depth,
        vmem_outstanding,
        vmem_unit_issue_per_cycle,
        vmem_index_issue_per_cycle,
        scalar_read_latency,
    } = *vpu;
    let _ = write!(
        s,
        "v.lanes={lanes} v.start={startup} v.long={long_op_factor} \
         v.red={reduction_overhead} v.q={queue_depth} v.out={vmem_outstanding} \
         v.ui={vmem_unit_issue_per_cycle} v.ii={vmem_index_issue_per_cycle} \
         v.sr={scalar_read_latency} "
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = TimingConfig::default();
        assert_eq!(c.vpu.lanes, 8, "paper's Vitruvius has 8 lanes");
        assert_eq!(c.mem.num_banks, 4, "paper's 2x2 L2HN mesh");
        assert_eq!(c.mem.mesh.nodes(), 4);
        assert!(c.scalar.max_outstanding_loads < c.vpu.vmem_outstanding,
            "the VPU must out-MLP the scalar core or the paper's effect disappears");
    }

    #[test]
    fn hardening_knobs_default_off() {
        let c = TimingConfig::default();
        assert!(!c.watchdog.armed(), "watchdog must be off unless asked for");
        assert!(!c.fault.is_active(), "no fault injection by default");
        assert!(WatchdogConfig::default_on().armed());
        assert!(
            WatchdogConfig::default_on().progress_window < sdv_engine::WEDGE,
            "the preset window must always catch a wedged resource"
        );
    }

    #[test]
    fn canonical_is_stable_and_knob_sensitive() {
        let base = TimingConfig::default();
        assert_eq!(base.canonical(), TimingConfig::default().canonical());
        assert!(!base.canonical().contains('\n'), "must fit one cache-key line");
        // Every knob a figure binary actually sweeps must move the string.
        let mut lat = base;
        lat.mem.dram.service_latency += 1;
        let mut bw = base;
        bw.vpu.vmem_unit_issue_per_cycle += 1;
        let mut lanes = base;
        lanes.vpu.lanes *= 2;
        let mut probe = base;
        probe.probe = ProbeConfig::sampling();
        let mut fault = base;
        fault.fault = FaultPlan::new(sdv_engine::FaultKind::StallBank, 7);
        let all =
            [base, lat, bw, lanes, probe, fault].map(|c| c.canonical());
        let mut dedup = all.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "every knob must be key-visible: {all:?}");
    }

    #[test]
    fn unloaded_miss_latency_near_paper_50_cycles() {
        // L1 miss -> mesh -> L2 miss -> DRAM -> back: the static parts.
        let c = MemHierConfig::default();
        let static_path = c.l1_hit_latency
            + c.l2_hit_latency
            + c.dram_path_latency
            + c.dram.service_latency;
        // Mesh adds ~5-8 cycles each way depending on bank.
        assert!((40..=70).contains(&(static_path + 10)),
            "static path {static_path} + mesh should land near 50 cycles");
    }
}
