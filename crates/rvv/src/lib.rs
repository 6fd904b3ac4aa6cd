//! # sdv-rvv
//!
//! A functional model of the subset of the RISC-V Vector extension
//! (RVV v0.7.1-style, as implemented by the Vitruvius VPU in the paper's
//! FPGA-SDV platform) that the four evaluated kernels need.
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
    ArithKind, CmpKind, CvtKind, FArithKind, FmaKind, FUnaryKind, MaskKind, MaskSetKind, MemAddr,
    RedKind, Reg, SlideKind, VInst, VOp, WidenKind,
};
pub use mem::VMemory;
pub use regfile::VRegFile;
pub use state::VState;
pub use vtype::{Lmul, Sew, VType};

/// Frozen-API residue: `benchmark/` (which this repository's changes may not
/// edit) passes `Backend::default()` to `CacheKey::for_cell` and
/// `ServerConfig::new`. There is one exec engine ([`exec_into`]); this type
/// selects nothing and goes when the benchmark stops naming it (ROADMAP 3a).
#[derive(Debug, Clone, Copy, Default)]
pub struct Backend;
