//! # sdv-engine
//!
//! Deterministic simulation substrate shared by every model crate in the
//! `longvec-sdv` workspace.
//!
//! The FPGA-SDV platform model is a *single-threaded, cycle-stepped*
//! simulator: determinism is a hard requirement (the paper reports cycle
//! counts, and our tests assert exact reproducibility), so this crate
//! deliberately contains no concurrency. It provides:
//!
//! * [`Cycle`] — the global time unit (one emulated clock cycle),
//! * [`EventQueue`] — a stable (FIFO-on-tie) future-event list on a
//!   `BinaryHeap`,
//! * [`Ring`] / [`MonotoneRing`] — the fixed-capacity rings every hardware
//!   queue with backpressure is modelled on,
//! * [`Stats`] / [`Histogram`] — a lightweight statistics registry every
//!   component reports into,
//! * [`Rng`] — a small, seedable xoshiro256** generator so workload
//!   generation does not depend on external crates in the runtime path,
//! * [`SimError`] — structured, recoverable failure values returned by the
//!   model run loops instead of panics,
//! * [`FaultPlan`] — seeded deterministic fault injection (off by default)
//!   used to prove the watchdog and invariant auditors actually fire,
//! * [`Probe`] — zero-cost-when-off observability sink (occupancy
//!   histograms + Chrome `trace_event` timelines).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod error;
pub mod events;
pub mod fault;
pub mod hash;
pub mod probe;
pub mod ring;
pub mod rng;
pub mod stats;

pub use clock::Cycle;
pub use error::SimError;
pub use events::EventQueue;
pub use fault::{ArmedFault, FaultKind, FaultPlan, WEDGE};
pub use hash::{FastMap, FastSet, FxHasher, StableHash};

/// The code-version fingerprint baked in at compile time: `g<git-hash>`
/// (with `-dirty` for uncommitted changes) or `v<crate-version>` outside a
/// git checkout. The persistent result cache folds this into every entry's
/// key, so results computed by older code can never be served for new code;
/// `sdvbench` and the `sdv-metrics-v1` export record it so any saved number
/// can be traced back to the code that produced it.
pub fn build_info() -> &'static str {
    env!("SDV_BUILD_INFO")
}
pub use probe::{chrome_trace_json, Probe, ProbeConfig, TraceEvent};
pub use ring::{MonotoneRing, Ring};
pub use rng::Rng;
pub use stats::{Histogram, Stats};
