//! The functional (untimed) machine.
//!
//! Computes exactly the same architectural results as the timed platform but
//! skips the microarchitecture, so kernel correctness tests run fast. The
//! cycle counter reports retired trace-ops instead of cycles.

use crate::memory::SimMemory;
use crate::vm::Vm;
use sdv_engine::Stats;
use sdv_rvv::{exec_into, ExecInfo, ExecScratch, Lmul, Sew, VInst, VState};

/// A machine with architectural state only.
pub struct FunctionalMachine {
    state: VState,
    mem: SimMemory,
    ops: u64,
    ctr: FuncCounters,
    scratch: ExecScratch,
    info: ExecInfo,
}

/// Per-category op counters, kept as plain fields because they are bumped
/// on every op — the registry view is assembled in
/// [`FunctionalMachine::stats`].
#[derive(Debug, Default, Clone, Copy)]
struct FuncCounters {
    loads: u64,
    stores: u64,
    branches: u64,
    vector_instrs: u64,
    vector_elems: u64,
}

impl FunctionalMachine {
    /// A machine with the paper's VPU (VLEN = 16384 bits) and `heap` bytes of
    /// simulated memory.
    pub fn new(heap: usize) -> Self {
        Self {
            state: VState::paper_vpu(),
            mem: SimMemory::new(heap),
            ops: 0,
            ctr: FuncCounters::default(),
            scratch: ExecScratch::default(),
            info: ExecInfo::default(),
        }
    }

    /// Architectural vector state (tests poke registers directly).
    pub fn state(&self) -> &VState {
        &self.state
    }

    /// Mutable architectural vector state.
    pub fn state_mut(&mut self) -> &mut VState {
        &mut self.state
    }

    /// Retired trace-op count.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Per-category op statistics.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.set("func.loads", self.ctr.loads);
        s.set("func.stores", self.ctr.stores);
        s.set("func.branches", self.ctr.branches);
        s.set("func.vector_instrs", self.ctr.vector_instrs);
        s.set("func.vector_elems", self.ctr.vector_elems);
        s
    }
}

impl Vm for FunctionalMachine {
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
        self.ops += 1;
        self.ctr.loads += 1;
        self.mem.peek_f64(addr)
    }

    fn store_f64(&mut self, addr: u64, v: f64) {
        self.ops += 1;
        self.ctr.stores += 1;
        self.mem.poke_f64(addr, v);
    }

    fn load_u64(&mut self, addr: u64) -> u64 {
        self.ops += 1;
        self.ctr.loads += 1;
        self.mem.peek_u64(addr)
    }

    fn store_u64(&mut self, addr: u64, v: u64) {
        self.ops += 1;
        self.ctr.stores += 1;
        self.mem.poke_u64(addr, v);
    }

    fn load_u32(&mut self, addr: u64) -> u32 {
        self.ops += 1;
        self.ctr.loads += 1;
        self.mem.peek_u32(addr)
    }

    fn store_u32(&mut self, addr: u64, v: u32) {
        self.ops += 1;
        self.ctr.stores += 1;
        self.mem.poke_u32(addr, v);
    }

    fn int_ops(&mut self, n: u32) {
        self.ops += n as u64;
    }

    fn fp_ops(&mut self, n: u32) {
        self.ops += n as u64;
    }

    fn branch(&mut self, _taken: bool) {
        self.ops += 1;
        self.ctr.branches += 1;
    }

    fn setvl(&mut self, avl: usize, sew: Sew, lmul: Lmul) -> usize {
        self.ops += 1;
        self.state.set_vl(avl, sew, lmul)
    }

    fn vl(&self) -> usize {
        self.state.vl
    }

    fn maxvl(&self, _: Sew) -> usize {
        self.state.maxvl()
    }

    fn set_maxvl_cap(&mut self, cap: usize) {
        self.state.set_maxvl_cap(cap);
    }

    fn exec_v(&mut self, inst: VInst) -> Option<u64> {
        self.ops += 1;
        self.ctr.vector_instrs += 1;
        exec_into(&inst, &mut self.state, &mut self.mem, &mut self.scratch, &mut self.info);
        self.ctr.vector_elems += self.info.active as u64;
        self.info.scalar
    }

    fn rdcycle(&mut self) -> u64 {
        self.ops
    }

    fn fence(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setvl_and_maxvl_cap() {
        let mut m = FunctionalMachine::new(1 << 16);
        assert_eq!(m.setvl(10_000, Sew::E64, Lmul::M1), 256);
        m.set_maxvl_cap(32);
        assert_eq!(m.setvl(10_000, Sew::E64, Lmul::M1), 32);
        assert_eq!(m.maxvl(Sew::E64), 32);
    }

    #[test]
    fn vector_roundtrip_through_memory() {
        let mut m = FunctionalMachine::new(1 << 16);
        let src = m.alloc(8 * 16, 64);
        let dst = m.alloc(8 * 16, 64);
        for i in 0..16 {
            m.mem_mut().poke_f64(src + 8 * i, i as f64);
        }
        m.setvl(16, Sew::E64, Lmul::M1);
        m.vle(1, src);
        m.vfmul_vf(2, 1, 2.0);
        m.vse(2, dst);
        for i in 0..16 {
            assert_eq!(m.mem().peek_f64(dst + 8 * i), 2.0 * i as f64);
        }
    }

    /// `0, 1, … 7` as u64 indices in `v1` and as f64 data in `v2`, both
    /// `vle`-loaded from memory at VL=8.
    fn load_ramp(m: &mut FunctionalMachine) {
        let idx = m.alloc(8 * 8, 64);
        let data = m.alloc(8 * 8, 64);
        for i in 0..8 {
            m.mem_mut().poke_u64(idx + 8 * i, i);
            m.mem_mut().poke_f64(data + 8 * i, i as f64);
        }
        m.setvl(8, Sew::E64, Lmul::M1);
        m.vle(1, idx);
        m.vle(2, data);
    }

    #[test]
    fn intrinsic_scalar_results() {
        let mut m = FunctionalMachine::new(1 << 16);
        load_ramp(&mut m);
        m.vmseq_vx(3, 1, 5); // element 5 only
        assert_eq!(m.vpopc(3), 1);
        m.vmor(4, 3, 3);
        m.vmand(5, 4, 0); // v0 is all clear
        assert_eq!(m.vpopc(4), 1);
        assert_eq!(m.vpopc(5), 0);
        assert_eq!(m.vmv_xs(1), 0);
    }

    #[test]
    fn reduction_via_intrinsics() {
        let mut m = FunctionalMachine::new(1 << 16);
        load_ramp(&mut m); // v2 = 0..7 as f64
        m.vfmv_sf(3, 0.0);
        m.vfredsum(4, 2, 3);
        assert_eq!(m.vfmv_fs(4), 28.0);
    }

    #[test]
    fn rdcycle_counts_ops() {
        let mut m = FunctionalMachine::new(1 << 16);
        let t0 = m.rdcycle();
        m.int_ops(5);
        m.branch(true);
        assert_eq!(m.rdcycle() - t0, 6);
    }

    #[test]
    fn scalar_accessors_are_functional() {
        let mut m = FunctionalMachine::new(1 << 16);
        let a = m.alloc(64, 64);
        m.store_f64(a, 1.5);
        assert_eq!(m.load_f64(a), 1.5);
        m.store_u32(a + 8, 77);
        assert_eq!(m.load_u32(a + 8), 77);
        m.store_u64(a + 16, u64::MAX);
        assert_eq!(m.load_u64(a + 16), u64::MAX);
    }

    #[test]
    fn stats_report_the_five_op_categories() {
        let mut m = FunctionalMachine::new(1 << 16);
        let a = m.alloc(64, 64);
        m.store_u64(a, 7);
        m.load_u64(a);
        m.load_u32(a);
        m.branch(false);
        m.setvl(8, Sew::E64, Lmul::M1);
        m.vfmv_vf(1, 1.0);
        m.vle(2, a);
        let s = m.stats();
        let got: Vec<(&str, u64)> = s.iter().collect();
        assert_eq!(
            got,
            [
                ("func.branches", 1),
                ("func.loads", 2),
                ("func.stores", 1),
                ("func.vector_elems", 16),
                ("func.vector_instrs", 2),
            ]
        );
    }
}
