//! # sdv-core
//!
//! The FPGA-SDV platform (the paper's primary artifact, in software):
//!
//! * [`memory::SimMemory`] — flat simulated physical memory + bump allocator,
//! * [`vm::Vm`] — the intrinsics-style API kernels are written against,
//! * [`functional::FunctionalMachine`] — architectural results only (fast),
//! * [`timed::SdvMachine`] — architectural results + cycle-accurate timing
//!   through the scalar core, decoupled VPU, 2×2 mesh, four L2HN banks, and
//!   the DRAM channel with the paper's two experiment knobs:
//!   [`timed::SdvMachine::set_extra_latency`] (§2.2 Latency Controller) and
//!   [`timed::SdvMachine::set_bandwidth_limit`] (§2.3 Bandwidth Limiter),
//!   plus the MAXVL CSR cap ([`vm::Vm::set_maxvl_cap`], §2.1). It is the
//!   only timed machine: `cfg.mem.tiles` (default 1, the paper's platform)
//!   core+VPU tiles share the hierarchy, each programmed through
//!   [`timed::SdvMachine::vm`] — a piece at a time, pulled by
//!   [`timed::SdvMachine::epoch`] — and synchronized by
//!   [`timed::SdvMachine::barrier`]; the machine itself is tile 0's [`Vm`].
//!
//! ```
//! use sdv_core::{SdvMachine, Vm};
//! use sdv_rvv::{Sew, Lmul};
//!
//! let mut m = SdvMachine::new(1 << 20);
//! let a = m.alloc(256 * 8, 64);
//! for i in 0..256 { m.mem_mut().poke_f64(a + 8 * i, i as f64); }
//! m.setvl(256, Sew::E64, Lmul::M1);
//! m.vle(1, a);            // one vector load of 256 doubles
//! m.vfmul_vf(2, 1, 2.0);  // scale
//! m.vse(2, a);            // store back
//! let cycles = m.finish();
//! assert!(cycles > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod functional;
pub mod memory;
pub mod timed;
pub mod trace;
pub mod vm;

pub use functional::FunctionalMachine;
pub use memory::SimMemory;
pub use timed::{Knobs, SdvMachine, TileVm, REPLAY_CHUNK};
pub use trace::{TraceEvent, TracingMachine};
pub use vm::Vm;

/// Frozen-API residue: the multi-tile machine was a type of its own until it
/// was folded into [`SdvMachine`]. `benchmark/` still imports the old name
/// and could not be edited by the change that did the fold.
pub type TiledMachine = SdvMachine;
