//! The `Vm` trait — the intrinsics-style programming interface.
//!
//! Kernels are written once against this trait, mirroring how the paper's
//! codes are written once against RVV intrinsics, and run unchanged on:
//!
//! * [`crate::functional::FunctionalMachine`] — architectural results only
//!   (fast; used by tests to validate kernel correctness), and
//! * [`crate::timed::SdvMachine`] — the same results *plus* cycle-accurate
//!   timing through the full platform model.
//!
//! Scalar data accesses (`load_f64` …) and the op hints (`int_ops`,
//! `fp_ops`, `branch`) narrate the scalar instruction stream; the `v*`
//! provided methods are one-to-one with RVV instructions.

use sdv_rvv::{
    ArithKind, CmpKind, FArithKind, FmaKind, Lmul, MaskKind, MemAddr, RedKind, Reg, Sew, VInst,
    VOp,
};

/// The machine interface kernels program against.
pub trait Vm {
    // ---------------- memory management (untimed) ----------------

    /// Allocate `bytes` with `align` alignment; returns the simulated address.
    fn alloc(&mut self, bytes: usize, align: usize) -> u64;

    /// Untimed access to simulated memory for workload setup / readback.
    fn mem(&self) -> &crate::memory::SimMemory;

    /// Untimed mutable access to simulated memory.
    fn mem_mut(&mut self) -> &mut crate::memory::SimMemory;

    // ---------------- scalar instruction stream ----------------

    /// Timed scalar load of an f64.
    fn load_f64(&mut self, addr: u64) -> f64;

    /// Timed scalar store of an f64.
    fn store_f64(&mut self, addr: u64, v: f64);

    /// Timed scalar load of a u64.
    fn load_u64(&mut self, addr: u64) -> u64;

    /// Timed scalar store of a u64.
    fn store_u64(&mut self, addr: u64, v: u64);

    /// Timed scalar load of a u32.
    fn load_u32(&mut self, addr: u64) -> u32;

    /// Timed scalar store of a u32.
    fn store_u32(&mut self, addr: u64, v: u32);

    /// Charge `n` scalar integer / address-generation ops.
    fn int_ops(&mut self, n: u32);

    /// Charge `n` scalar floating-point ops.
    fn fp_ops(&mut self, n: u32);

    /// Charge a conditional branch.
    fn branch(&mut self, taken: bool);

    // ---------------- vector configuration ----------------

    /// `vsetvli`: request `avl` elements; returns the granted VL,
    /// `min(avl, 256, MAXVL cap)`. `Sew` and `Lmul` have one value each.
    fn setvl(&mut self, avl: usize, sew: Sew, lmul: Lmul) -> usize;

    /// Current VL.
    fn vl(&self) -> usize;

    /// VLMAX (256) under the machine's MAXVL cap — what a
    /// VL-agnostic kernel strip-mines by.
    fn maxvl(&self, sew: Sew) -> usize;

    /// Program the paper's MAXVL CSR (experiment knob, §2.1).
    fn set_maxvl_cap(&mut self, cap: usize);

    // ---------------- vector execution ----------------

    /// Execute one vector instruction; returns its scalar result if any.
    fn exec_v(&mut self, inst: VInst) -> Option<u64>;

    // ---------------- measurement ----------------

    /// Read the cycle counter (the paper's §3.2 measurement primitive).
    /// Functional machines report retired-op counts instead.
    fn rdcycle(&mut self) -> u64;

    /// Wait for all outstanding vector work (vector fence).
    fn fence(&mut self);

    // =====================================================================
    // Provided intrinsics — one-to-one with the RVV instructions the
    // paper's kernels use. `m` suffix = masked under v0.t.
    // =====================================================================

    /// Unit-stride vector load.
    fn vle(&mut self, vd: Reg, base: u64) {
        self.exec_v(VInst::new(VOp::Load { vd, addr: MemAddr::Unit { base } }));
    }

    /// Strided vector load (`stride` in bytes).
    fn vlse(&mut self, vd: Reg, base: u64, stride: i64) {
        self.exec_v(VInst::new(VOp::Load { vd, addr: MemAddr::Strided { base, stride } }));
    }

    /// Indexed vector load (gather); `index` holds byte offsets.
    fn vlxe(&mut self, vd: Reg, base: u64, index: Reg) {
        self.exec_v(VInst::new(VOp::Load { vd, addr: MemAddr::Indexed { base, index } }));
    }

    /// Masked indexed load.
    fn vlxe_m(&mut self, vd: Reg, base: u64, index: Reg) {
        self.exec_v(VInst::masked(VOp::Load { vd, addr: MemAddr::Indexed { base, index } }));
    }

    /// Widening unit-stride load (`vlwu.v`): reads u32 elements,
    /// zero-extends them into 64-bit lanes. Streams u32 index arrays.
    fn vlwu(&mut self, vd: Reg, base: u64) {
        self.exec_v(VInst::new(VOp::LoadWiden { vd, base }));
    }

    /// Masked widening unit-stride load.
    fn vlwu_m(&mut self, vd: Reg, base: u64) {
        self.exec_v(VInst::masked(VOp::LoadWiden { vd, base }));
    }

    /// Unit-stride vector store.
    fn vse(&mut self, vs: Reg, base: u64) {
        self.exec_v(VInst::new(VOp::Store { vs, addr: MemAddr::Unit { base } }));
    }

    /// Strided store.
    fn vsse(&mut self, vs: Reg, base: u64, stride: i64) {
        self.exec_v(VInst::new(VOp::Store { vs, addr: MemAddr::Strided { base, stride } }));
    }

    /// Indexed store (scatter).
    fn vsxe(&mut self, vs: Reg, base: u64, index: Reg) {
        self.exec_v(VInst::new(VOp::Store { vs, addr: MemAddr::Indexed { base, index } }));
    }

    /// Masked indexed store.
    fn vsxe_m(&mut self, vs: Reg, base: u64, index: Reg) {
        self.exec_v(VInst::masked(VOp::Store { vs, addr: MemAddr::Indexed { base, index } }));
    }

    // ---- integer arithmetic ----

    /// `vd[i] = x[i] << s`.
    fn vsll_vx(&mut self, vd: Reg, x: Reg, s: u64) {
        self.exec_v(VInst::new(VOp::ArithVX { kind: ArithKind::Sll, vd, x, scalar: s }));
    }

    /// Masked `vd[i] = x[i] + s` under v0.t.
    fn vadd_vx_m(&mut self, vd: Reg, x: Reg, s: u64) {
        self.exec_v(VInst::masked(VOp::ArithVX { kind: ArithKind::Add, vd, x, scalar: s }));
    }

    // ---- floating-point arithmetic ----

    /// `vd[i] = x[i] + y[i]` (FP).
    fn vfadd_vv(&mut self, vd: Reg, x: Reg, y: Reg) {
        self.exec_v(VInst::new(VOp::FArithVV { kind: FArithKind::Fadd, vd, x, y }));
    }

    /// `vd[i] = x[i] - y[i]` (FP).
    fn vfsub_vv(&mut self, vd: Reg, x: Reg, y: Reg) {
        self.exec_v(VInst::new(VOp::FArithVV { kind: FArithKind::Fsub, vd, x, y }));
    }

    /// `vd[i] = x[i] * y[i]` (FP).
    fn vfmul_vv(&mut self, vd: Reg, x: Reg, y: Reg) {
        self.exec_v(VInst::new(VOp::FArithVV { kind: FArithKind::Fmul, vd, x, y }));
    }

    /// `vd[i] = x[i] * s` (FP, f64 scalar).
    fn vfmul_vf(&mut self, vd: Reg, x: Reg, s: f64) {
        self.exec_v(VInst::new(VOp::FArithVF {
            kind: FArithKind::Fmul,
            vd,
            x,
            scalar: s.to_bits(),
        }));
    }

    /// `vd[i] = x[i] + s` (FP).
    fn vfadd_vf(&mut self, vd: Reg, x: Reg, s: f64) {
        self.exec_v(VInst::new(VOp::FArithVF {
            kind: FArithKind::Fadd,
            vd,
            x,
            scalar: s.to_bits(),
        }));
    }

    /// `vd[i] = x[i] / y[i]` (FP).
    fn vfdiv_vv(&mut self, vd: Reg, x: Reg, y: Reg) {
        self.exec_v(VInst::new(VOp::FArithVV { kind: FArithKind::Fdiv, vd, x, y }));
    }

    /// `vd[i] += x[i] * y[i]` (FMA).
    fn vfmacc_vv(&mut self, vd: Reg, x: Reg, y: Reg) {
        self.exec_v(VInst::new(VOp::FmaVV { kind: FmaKind::Macc, vd, x, y }));
    }

    /// `vd[i] -= x[i] * y[i]`.
    fn vfnmsac_vv(&mut self, vd: Reg, x: Reg, y: Reg) {
        self.exec_v(VInst::new(VOp::FmaVV { kind: FmaKind::Nmsac, vd, x, y }));
    }

    /// `vd[i] += s * y[i]` (scalar multiplicand FMA).
    fn vfmacc_vf(&mut self, vd: Reg, s: f64, y: Reg) {
        self.exec_v(VInst::new(VOp::FmaVF { kind: FmaKind::Macc, vd, scalar: s.to_bits(), y }));
    }

    /// `vd[i] -= s * y[i]`.
    fn vfnmsac_vf(&mut self, vd: Reg, s: f64, y: Reg) {
        self.exec_v(VInst::new(VOp::FmaVF { kind: FmaKind::Nmsac, vd, scalar: s.to_bits(), y }));
    }

    // ---- comparisons / masks ----

    /// Mask `md.bit[i] = (x[i] == s)` (integer).
    fn vmseq_vx(&mut self, md: Reg, x: Reg, s: u64) {
        self.exec_v(VInst::new(VOp::CmpVX { kind: CmpKind::Eq, md, x, scalar: s }));
    }

    /// `md = m1 & m2`.
    fn vmand(&mut self, md: Reg, m1: Reg, m2: Reg) {
        self.exec_v(VInst::new(VOp::MaskOp { kind: MaskKind::And, md, m1, m2 }));
    }

    /// `md = m1 | m2`.
    fn vmor(&mut self, md: Reg, m1: Reg, m2: Reg) {
        self.exec_v(VInst::new(VOp::MaskOp { kind: MaskKind::Or, md, m1, m2 }));
    }

    /// Count set mask bits in `[0, vl)` — synchronizes scalar and vector.
    fn vpopc(&mut self, m: Reg) -> u64 {
        self.exec_v(VInst::new(VOp::Popc { m })).expect("popc yields a scalar")
    }

    // ---- reductions ----

    /// FP ordered-sum reduction: `vd[0] = acc[0] + sum(x[0..vl])`.
    fn vfredsum(&mut self, vd: Reg, x: Reg, acc: Reg) {
        self.exec_v(VInst::new(VOp::Red { kind: RedKind::Fsum, vd, x, acc }));
    }

    /// Integer sum reduction.
    fn vredsum(&mut self, vd: Reg, x: Reg, acc: Reg) {
        self.exec_v(VInst::new(VOp::Red { kind: RedKind::Sum, vd, x, acc }));
    }

    // ---- moves / broadcast ----

    /// `vd[i] = x[i]` (active elements).
    fn vmv_vv(&mut self, vd: Reg, x: Reg) {
        self.exec_v(VInst::new(VOp::Mv { vd, x }));
    }

    /// Broadcast integer `s` to all active elements.
    fn vmv_vx(&mut self, vd: Reg, s: u64) {
        self.exec_v(VInst::new(VOp::MvVX { vd, scalar: s }));
    }

    /// Broadcast f64 `s` to all active elements.
    fn vfmv_vf(&mut self, vd: Reg, s: f64) {
        self.exec_v(VInst::new(VOp::MvVX { vd, scalar: s.to_bits() }));
    }

    /// `vd[0] = s` (integer).
    fn vmv_sx(&mut self, vd: Reg, s: u64) {
        self.exec_v(VInst::new(VOp::MvSX { vd, scalar: s }));
    }

    /// `vd[0] = s` (f64).
    fn vfmv_sf(&mut self, vd: Reg, s: f64) {
        self.exec_v(VInst::new(VOp::MvSX { vd, scalar: s.to_bits() }));
    }

    /// Read element 0 as an integer — synchronizes.
    fn vmv_xs(&mut self, x: Reg) -> u64 {
        self.exec_v(VInst::new(VOp::MvXS { x })).expect("vmv.x.s yields a scalar")
    }

    /// Read element 0 as an f64 — synchronizes.
    fn vfmv_fs(&mut self, x: Reg) -> f64 {
        f64::from_bits(self.vmv_xs(x))
    }
}
