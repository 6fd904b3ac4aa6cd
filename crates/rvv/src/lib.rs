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
//! every instruction, operating on a 32-register vector register file of
//! configurable VLEN (the paper's machine has VLEN = 16384 bits = 256 double
//! precision elements). Timing lives in `sdv-uarch`; the bridge between the
//! two is [`exec::ExecInfo`], which reports the memory accesses and element
//! counts each executed instruction produced.
//!
//! Key RVV semantics modelled faithfully:
//!
//! * `vsetvl` returns `min(avl, VLMAX)` where `VLMAX = VLEN/SEW · LMUL`;
//!   the paper's MAXVL CSR is modelled as an additional cap applied here.
//! * masked execution under `v0.t` with masked-off elements *undisturbed*;
//! * tail-undisturbed writes (v0.7.1 behaviour);
//! * mask registers hold one bit per element, LSB-first;
//! * register groups for LMUL ∈ {1, 2, 4, 8}.
//!
//! Integer, mask and memory instructions work at every SEW and LMUL (the
//! differential tests sweep them all); floating-point instructions are
//! double precision and require SEW=64. Every committed grid runs at
//! SEW=64, LMUL=1.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exec;
pub mod fmt;
pub mod instr;
pub mod mem;
pub mod regfile;
pub mod state;
pub mod vtype;

pub use exec::{exec, exec_into, ExecInfo, ExecScratch, MemAccess, MemAccessKind, MemList, MemRun};
pub use instr::{
    ArithKind, CmpKind, FArithKind, FmaKind, MaskKind, MemAddr, RedKind, Reg, VInst, VOp,
};
pub use mem::VMemory;
pub use regfile::VRegFile;
pub use state::VState;
pub use vtype::{Lmul, Sew, VType};

/// Frozen-API residue: `benchmark/` (which this repository's changes may not
/// edit) passes `Backend::default()` to `CacheKey::for_cell` and
/// `ServerConfig::new`. There is one exec engine ([`exec_into`]); this type
/// selects nothing and goes when the benchmark stops naming it (ROADMAP 1(a)).
#[derive(Debug, Clone, Copy, Default)]
pub struct Backend;
