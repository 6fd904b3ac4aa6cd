//! # sdv-memsys
//!
//! Passive models of the FPGA-SDV memory subsystem components:
//!
//! * [`cache::Cache`] — set-associative cache with LRU replacement and
//!   per-line MESI state (used for both the core's L1D and the shared L2
//!   banks),
//! * [`mesi::Directory`] — the Home Node directory keeping the L1 coherent
//!   with the (non-caching) VPU, as in the paper's L2HN slices,
//! * [`latency::LatencyController`] — the paper's §2.2 knob: a pipelined
//!   delay stage adding a programmable number of cycles to every DRAM access,
//! * [`bwlimit::BandwidthLimiter`] — the paper's §2.3 knob: admits `num`
//!   requests per `den`-cycle window,
//! * [`dram::DramChannel`] — the DDR4 channel behind both knobs,
//! * [`addr::AddressMap`] — line/bank address arithmetic.
//!
//! These are *passive* (no global clock); the `sdv-uarch` crate orchestrates
//! them into a timed hierarchy.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod bwlimit;
pub mod cache;
pub mod dram;
pub mod latency;
pub mod mesi;

pub use addr::AddressMap;
pub use bwlimit::BandwidthLimiter;
pub use cache::{AccessKind, Cache, CacheConfig, Victim};
pub use dram::{DramChannel, DramConfig};
pub use latency::LatencyController;
pub use mesi::{requestor_id, DirAction, Directory, Requestor, SharerMask, MAX_REQUESTORS};
