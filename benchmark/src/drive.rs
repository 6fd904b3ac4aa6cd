//! Driving a cell through public calls: the benchmark's own copy of the
//! harness's private `drive_kernel`, generic over [`Vm`] so the same cell can
//! run on the functional machine, the timed machine with or without the
//! timing model, and the op recorder. Also the host-side references the
//! functional outputs are checked against.

use sdv_bench::{Cell, ImplKind, KernelKind, Workloads};
use sdv_core::{SdvMachine, SimMemory, TiledMachine, Vm};
use sdv_engine::SimError;
use sdv_kernels::fft::{self, FftDevice};
use sdv_kernels::{bfs, pagerank, spmv};
use sdv_rvv::{exec_into, ExecInfo, ExecScratch, Lmul, Sew, VInst, VState};
use sdv_uarch::op::classify;
use sdv_uarch::{Op, SdvTiming, TimingConfig, VClass, VectorOp};

/// A kernel's arrays placed in simulated memory.
pub enum Dev {
    Spmv(spmv::SpmvDevice),
    Bfs(bfs::BfsDevice),
    Pr(pagerank::PrDevice),
    Fft(FftDevice),
}

/// Untimed: allocate and fill the kernel's arrays.
pub fn setup<V: Vm>(vm: &mut V, w: &Workloads, kernel: KernelKind) -> Dev {
    match kernel {
        KernelKind::Spmv => Dev::Spmv(spmv::setup_spmv(vm, &w.mat, &w.sell)),
        KernelKind::Bfs => Dev::Bfs(bfs::setup_bfs(vm, &w.graph, 256, w.bfs_src)),
        KernelKind::Pr => Dev::Pr(pagerank::setup_pagerank(
            vm, &w.graph, 256, 0.85, w.pr_iters,
        )),
        KernelKind::Fft => Dev::Fft(fft::setup_fft(vm, &w.signal.0, &w.signal.1)),
    }
}

/// Run the kernel; on a vector implementation the caller has already set the
/// MAXVL cap.
pub fn run<V: Vm>(vm: &mut V, dev: &Dev, imp: ImplKind) {
    let scalar = imp == ImplKind::Scalar;
    match dev {
        Dev::Spmv(d) if scalar => spmv::spmv_scalar(vm, d),
        Dev::Spmv(d) => spmv::spmv_vector_sell(vm, d),
        Dev::Bfs(d) if scalar => bfs::bfs_scalar(vm, d),
        Dev::Bfs(d) => bfs::bfs_vector(vm, d),
        Dev::Pr(d) if scalar => pagerank::pagerank_scalar(vm, d),
        Dev::Pr(d) => pagerank::pagerank_vector(vm, d),
        Dev::Fft(d) if scalar => fft::fft_scalar(vm, d),
        Dev::Fft(d) => fft::fft_vector(vm, d),
    }
}

/// Run the partitioned multi-tile kernel (vector SpMV, BFS and PageRank
/// only, as in the harness).
pub fn run_tiled(m: &mut TiledMachine, dev: &Dev) -> Result<(), SimError> {
    match dev {
        Dev::Spmv(d) => sdv_kernels::spmv_vector_sell_tiled(m, d),
        Dev::Bfs(d) => {
            sdv_kernels::bfs_vector_tiled(m, d);
        }
        Dev::Pr(d) => {
            sdv_kernels::pagerank_vector_tiled(m, d);
        }
        Dev::Fft(_) => {
            return Err(SimError::BadInput {
                what: "FFT has no multi-tile driver".to_string(),
            })
        }
    }
    Ok(())
}

pub fn set_knobs(m: &mut SdvMachine, cell: Cell) {
    m.set_extra_latency(cell.extra_latency);
    m.set_bandwidth_limit(cell.bandwidth);
    if let ImplKind::Vector { maxvl } = cell.imp {
        m.set_maxvl_cap(maxvl);
    }
}

fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() < tol * (1.0 + x.abs()))
}

/// Host-side expected outputs, independent of the simulator: CSR multiply,
/// queue BFS, power-iteration PageRank, Stockham FFT.
pub struct References {
    y: Vec<f64>,
    levels: Vec<u64>,
    pr: Vec<f64>,
    fft: fft::Complexes,
}

impl References {
    pub fn new(w: &Workloads) -> Self {
        Self {
            y: spmv::expected_y(&w.mat),
            levels: w
                .graph
                .bfs_reference(w.bfs_src)
                .iter()
                .map(|&l| {
                    if l == u32::MAX {
                        bfs::INF
                    } else {
                        u64::from(l)
                    }
                })
                .collect(),
            pr: w.graph.pagerank_reference(0.85, w.pr_iters),
            fft: fft::stockham_host(&w.signal.0, &w.signal.1),
        }
    }

    /// Compare what a finished kernel left in simulated memory with the
    /// reference (tolerances as in `tests/full_system.rs`).
    pub fn check<V: Vm>(&self, vm: &V, dev: &Dev) -> Result<(), String> {
        let ok = match dev {
            Dev::Spmv(d) => close(&spmv::read_y(vm, d), &self.y, 1e-9),
            Dev::Bfs(d) => bfs::read_levels(vm, d) == self.levels,
            Dev::Pr(d) => {
                let got = pagerank::read_pr(vm, d);
                got.len() == self.pr.len()
                    && got.iter().zip(&self.pr).all(|(a, b)| (a - b).abs() < 1e-9)
            }
            Dev::Fft(d) => {
                let (re, im) = fft::read_result(vm, d);
                close(&re, &self.fft.0, 1e-6) && close(&im, &self.fft.1, 1e-6)
            }
        };
        if ok {
            Ok(())
        } else {
            Err("output differs from the host reference".to_string())
        }
    }
}

/// The benchmark's own [`Vm`]. It executes functionally with the public
/// `exec_into` and, when recording, also builds the dynamic [`Op`] stream the
/// timed machine would have issued, with `sdv_uarch::op::classify`.
/// Replaying the stream through a fresh [`SdvTiming`] gives the same cycles
/// as [`SdvMachine`]; the per-layer probes replay parts of it through one
/// layer at a time. Not recording, it is the kernel driver, `exec_into` and
/// `SimMemory` and nothing else: the "exec" third of a cell's host time
/// (`FunctionalMachine` adds two string-keyed statistics updates per op,
/// which on scalar code cost more than the work they count).
pub struct RecordingVm {
    state: VState,
    mem: SimMemory,
    scratch: ExecScratch,
    info: ExecInfo,
    line_bytes: u64,
    record: bool,
    pub ops: Vec<Op>,
    /// Vector instructions executed and their active elements.
    pub vinstrs: u64,
    pub elements: u64,
}

impl RecordingVm {
    pub fn new(heap: usize, cfg: &TimingConfig) -> Self {
        Self {
            state: VState::paper_vpu(),
            mem: SimMemory::new(heap),
            scratch: ExecScratch::default(),
            info: ExecInfo::default(),
            line_bytes: cfg.mem.l1.line_bytes,
            record: true,
            ops: Vec::new(),
            vinstrs: 0,
            elements: 0,
        }
    }

    /// Execute only: no op is built or kept.
    pub fn exec_only(heap: usize) -> Self {
        Self {
            record: false,
            ..Self::new(heap, &TimingConfig::default())
        }
    }

    #[inline]
    fn push(&mut self, op: Op) {
        if self.record {
            self.ops.push(op);
        }
    }
}

impl Vm for RecordingVm {
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
        self.push(Op::Load { addr, size: 8 });
        self.mem.peek_f64(addr)
    }

    fn store_f64(&mut self, addr: u64, v: f64) {
        self.push(Op::Store { addr, size: 8 });
        self.mem.poke_f64(addr, v);
    }

    fn load_u64(&mut self, addr: u64) -> u64 {
        self.push(Op::Load { addr, size: 8 });
        self.mem.peek_u64(addr)
    }

    fn store_u64(&mut self, addr: u64, v: u64) {
        self.push(Op::Store { addr, size: 8 });
        self.mem.poke_u64(addr, v);
    }

    fn load_u32(&mut self, addr: u64) -> u32 {
        self.push(Op::Load { addr, size: 4 });
        self.mem.peek_u32(addr)
    }

    fn store_u32(&mut self, addr: u64, v: u32) {
        self.push(Op::Store { addr, size: 4 });
        self.mem.poke_u32(addr, v);
    }

    fn int_ops(&mut self, n: u32) {
        if n > 0 {
            self.push(Op::IntOps(n));
        }
    }

    fn fp_ops(&mut self, n: u32) {
        if n > 0 {
            self.push(Op::FpOps(n));
        }
    }

    fn branch(&mut self, taken: bool) {
        self.push(Op::Branch { taken });
    }

    fn setvl(&mut self, avl: usize, sew: Sew, lmul: Lmul) -> usize {
        let vl = self.state.set_vl(avl, sew, lmul);
        self.push(Op::Vector(VectorOp {
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
        self.state.vl
    }

    fn maxvl(&self, sew: Sew) -> usize {
        (self.state.regs.vlen_bits() / sew.bits()).min(self.state.maxvl_cap)
    }

    fn set_maxvl_cap(&mut self, cap: usize) {
        self.state.set_maxvl_cap(cap);
    }

    fn exec_v(&mut self, inst: VInst) -> Option<u64> {
        exec_into(
            &inst,
            &mut self.state,
            &mut self.mem,
            &mut self.scratch,
            &mut self.info,
        );
        self.vinstrs += 1;
        self.elements += self.info.active as u64;
        if self.record {
            self.ops
                .push(Op::Vector(classify(&inst, &self.info, self.line_bytes)));
        }
        self.info.scalar
    }

    fn rdcycle(&mut self) -> u64 {
        self.ops.len() as u64
    }

    fn fence(&mut self) {
        self.push(Op::Sync);
    }
}

/// Record the op stream of one single-tile cell.
pub fn record(w: &Workloads, cell: Cell, cfg: &TimingConfig) -> Vec<Op> {
    let mut vm = RecordingVm::new(w.heap, cfg);
    if let ImplKind::Vector { maxvl } = cell.imp {
        vm.set_maxvl_cap(maxvl);
    }
    let dev = setup(&mut vm, w, cell.kernel);
    run(&mut vm, &dev, cell.imp);
    vm.ops
}

/// A fresh single-tile timing model with the cell's knobs applied.
pub fn timing_for(cell: Cell, cfg: TimingConfig) -> SdvTiming {
    let mut t = SdvTiming::new(cfg);
    t.set_extra_latency(cell.extra_latency);
    t.set_bandwidth_limit(cell.bandwidth);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SPECS;
    use sdv_bench::{try_run_with_config, Workloads};
    use sdv_core::FunctionalMachine;

    #[test]
    fn recorded_stream_replays_to_the_same_cycles_as_the_timed_machine() {
        // The probe cells of every workload: SpMV under each implementation
        // the workload uses (small inputs keep the test quick), knobs varied.
        let w = Workloads::small();
        let cfg = TimingConfig::default();
        let mut impls: Vec<ImplKind> = Vec::new();
        for s in &SPECS {
            for imp in s.impls() {
                if !impls.contains(&imp) {
                    impls.push(imp);
                }
            }
        }
        assert!(impls.len() >= 7);
        for (i, imp) in impls.into_iter().enumerate() {
            let cell = Cell {
                kernel: KernelKind::Spmv,
                imp,
                extra_latency: [0, 32, 1024][i % 3],
                bandwidth: [64, 8, 1][i % 3],
            };
            let want = try_run_with_config(&w, cell, cfg)
                .expect("probe cell runs")
                .cycles;
            let ops = record(&w, cell, &cfg);
            let mut t = timing_for(cell, cfg);
            for op in &ops {
                t.issue(op);
            }
            assert_eq!(t.try_finish().expect("replay finishes"), want, "{cell:?}");
        }
    }

    #[test]
    fn every_kernel_and_implementation_matches_its_host_reference() {
        let w = Workloads::small();
        let refs = References::new(&w);
        for kernel in KernelKind::all() {
            for imp in [
                ImplKind::Scalar,
                ImplKind::Vector { maxvl: 8 },
                ImplKind::Vector { maxvl: 256 },
            ] {
                let mut m = FunctionalMachine::new(w.heap);
                if let ImplKind::Vector { maxvl } = imp {
                    m.set_maxvl_cap(maxvl);
                }
                let dev = setup(&mut m, &w, kernel);
                run(&mut m, &dev, imp);
                refs.check(&m, &dev)
                    .unwrap_or_else(|e| panic!("{kernel:?}/{imp}: {e}"));
            }
        }
    }

    #[test]
    fn a_wrong_output_is_reported_not_panicked() {
        let w = Workloads::small();
        let refs = References::new(&w);
        let mut m = FunctionalMachine::new(w.heap);
        let dev = setup(&mut m, &w, KernelKind::Spmv);
        // Never ran the kernel: y is still zero.
        assert!(refs.check(&m, &dev).is_err());
    }
}
