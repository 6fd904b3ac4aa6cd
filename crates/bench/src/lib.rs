//! # sdv-bench
//!
//! The experiment harness: everything needed to regenerate the paper's
//! figures (see `DESIGN.md` §3 for the experiment index).
//!
//! * [`Workloads`] — the paper's inputs (CAGE10-scale matrix, 2^15-node
//!   graph, 2048-point FFT), built once and shared across runs,
//! * [`run`] — execute one (kernel, implementation, knob-setting) cell on a
//!   fresh [`sdv_core::SdvMachine`] and report cycles,
//! * [`Sweeper`] — run a grid of cells across OS threads (each simulation
//!   is single-threaded and deterministic; the grid is embarrassingly
//!   parallel), with pooled machines, a memo, the persistent result cache
//!   and per-cell fault isolation: the one way a cell is keyed and executed.
//!   Cells that differ only in a knob share one functional pass
//!   ([`try_run_group`]),
//! * binary `study` prints the paper's figures ([`figure`]), the ablations
//!   and the extension studies (`study NAME`), or every one of them from
//!   one process (`study all --out DIR`).

pub mod cache;
pub mod chaos;
pub mod cli;
pub mod figure;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod plot;
pub mod server;
pub mod table;

pub use cache::{CacheKey, CachedResult, FsckSummary, GcSummary, ResultCache};
pub use chaos::{ChaosKind, ChaosPlan, ServerChaos};
pub use harness::{
    run, try_run_group, try_run_traced, try_run_with_config, Cell, CellOutcome, ImplKind,
    KernelKind, RemoteSweep, RunResult, Sweeper, Workloads,
};
pub use metrics::StallBreakdown;
pub use server::{
    client_request, client_sweep, serve, RetryPolicy, ServerConfig, ShutdownSignal, SweepSummary,
    DEFAULT_ADDR,
};
