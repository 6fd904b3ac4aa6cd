//! # sdv-rvv
//!
//! A functional model of the RISC-V Vector instructions (RVV v0.7.1-style,
//! as implemented by the Vitruvius VPU in the paper's FPGA-SDV platform)
//! that the evaluated kernels execute — those and no others: sixteen
//! operations ([`VOp`]), pruned by a dynamic count over every committed grid
//! (the table is in DESIGN.md) and kept that size by
//! `crates/kernels/tests/isa_coverage.rs`. Loads and stores (unit-stride,
//! strided, indexed, and the widening `vlwu`), integer add and shift by a
//! scalar,
//! double-precision add/sub/mul/div and FMA, integer compare-equal, mask
//! and/or, `vpopc`, integer and FP sum reductions, and the moves.
//!
//! The model is *functional*: it computes architecturally-correct results for
//! every instruction, operating on the paper's 32-register vector register
//! file of VLEN = 16384 bits. Timing lives in `sdv-uarch`; the bridge between
//! the two is [`exec::ExecInfo`], which reports the memory accesses and
//! element counts each executed instruction produced.
//!
//! There is one element width, SEW = 64, and one register-group size,
//! LMUL = 1: the paper runs double precision only, its one length knob is
//! the MAXVL CSR, and every committed grid executes at that setting. A
//! register is 256 `u64` elements.
//!
//! Key RVV semantics modelled faithfully:
//!
//! * `vsetvli` returns `min(avl, VLMAX)` where `VLMAX = VLEN/64 = 256`;
//!   the paper's MAXVL CSR is modelled as an additional cap applied here.
//! * masked execution under `v0.t` with masked-off elements *undisturbed*;
//! * tail-undisturbed writes (v0.7.1 behaviour);
//! * mask registers hold one bit per element, LSB-first.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exec;
pub mod fmt;
pub mod instr;
pub mod mem;
pub mod regfile;
pub mod state;

pub use exec::{exec, exec_into, ExecInfo, ExecScratch, MemAccess, MemAccessKind, MemList, MemRun};
pub use instr::{
    ArithKind, CmpKind, FArithKind, FmaKind, MaskKind, MemAddr, RedKind, Reg, VInst, VOp,
};
pub use mem::VMemory;
pub use regfile::{VRegFile, VLEN, VLMAX};
pub use state::VState;

// Frozen-API residue: `benchmark/` (which this repository's changes may not
// edit) names the three types below. They select nothing and go when the
// benchmark stops naming them (ROADMAP 1(a)).

/// Element width, an argument of `VState::set_vl` and `Vm::setvl`/`maxvl`.
/// There is one: `benchmark/`'s `Vm` impl calls [`Sew::bits`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sew {
    /// 64-bit elements (double precision).
    E64,
}

impl Sew {
    /// Element width in bits.
    #[inline]
    pub fn bits(self) -> usize {
        64
    }
}

/// Register-group multiplier, an argument of `VState::set_vl` and
/// `Vm::setvl`. There is one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lmul {
    /// One register per operand.
    M1,
}

/// `benchmark/` passes `Backend::default()` to `CacheKey::for_cell` and
/// `ServerConfig::new`. There is one exec engine ([`exec_into`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Backend;
