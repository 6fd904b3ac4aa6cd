//! FIG3 — Figure 3 of the paper: execution time of the four kernels as a
//! function of added memory latency, for the scalar implementation and the
//! vector implementation at MAXVL ∈ {8,16,32,64,128,256}.
//!
//! Usage: `fig3_latency [--small] [--threads N] [--csv PATH]
//! [--cache | --cache-dir DIR] [--server ADDR]
//! [--metrics-json PATH] [--trace PATH [--trace-kernel K]]
//! [--watchdog] [--cycle-budget N]
//! [--fault KIND [--fault-seed N]]`
//!
//! `--metrics-json` exports the per-cell stall breakdown; `--trace` writes a
//! Chrome `trace_event` timeline of the highest-latency vl=256 cell (another
//! kernel via `--trace-kernel`). Neither flag changes the sweep's cycles.
//!
//! `--cache` consults (and fills) the persistent result cache under
//! `results/cache/` before simulating — a warm rerun regenerates this
//! figure's CSV byte-identically without simulating anything. `--server`
//! ships the grid to a running `sweepd` instead of simulating locally.
//!
//! Every completed cell is persisted to the cache (fsync + rename) as it
//! lands, so re-running a killed sweep with the same `--cache-dir` continues
//! where it stopped and produces a bit-identical CSV, stats included.
//! Failing cells (watchdog deadlocks, invariant violations, injected
//! faults) are reported per cell, render as `FAILED`, and turn the exit
//! code into 4 — the rest of the grid still completes.

fn main() {
    sdv_bench::figure::main(sdv_bench::figure::Figure::Latency);
}
