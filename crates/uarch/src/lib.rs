//! # sdv-uarch
//!
//! Timing models of the FPGA-SDV compute pipeline:
//!
//! * [`op::Op`] — the dynamic trace-operation vocabulary the platform's `Vm`
//!   API emits while kernels execute functionally,
//! * [`memhier::MemHierarchy`] — the assembled memory system: L1D, the 2×2
//!   mesh, four L2HN banks (cache + MESI home node), and the DRAM channel
//!   behind the latency-controller and bandwidth-limiter knobs,
//! * [`scalar::ScalarCore`] — an Atrevido-style in-order superscalar model
//!   whose memory-level parallelism is bounded by its MSHR file and a
//!   run-ahead window (approximating stall-on-use),
//! * [`vpu::VpuTiming`] — a Vitruvius-style decoupled vector unit: 8 lanes,
//!   `ceil(vl/lanes)` element throughput, and a deep vector-memory request
//!   window — the mechanism that makes long vectors latency-tolerant,
//! * [`machine::SdvTiming`] — the top-level consumer: feed it [`op::Op`]s,
//!   read back cycles and statistics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod energy;
pub mod machine;
pub mod memhier;
pub mod op;
pub mod scalar;
pub mod vpu;

pub use config::{MemHierConfig, ScalarConfig, TimingConfig, VpuConfig, WatchdogConfig};
pub use energy::{estimate as estimate_energy, EnergyConfig, EnergyReport};
pub use machine::SdvTiming;
pub use memhier::MemHierarchy;
pub use op::{Op, VClass, VectorMemOp, VectorOp};
