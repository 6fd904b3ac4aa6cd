//! FIG5 — Figure 5 of the paper: execution time of the four kernels as a
//! function of the bandwidth cap (1–64 B/cycle), normalized per
//! implementation to its own run at 1 B/cycle. Lower is better; a curve that
//! keeps dropping at high caps is an implementation that can exploit more
//! bandwidth from a single core.
//!
//! Usage: `fig5_bandwidth [--small] [--threads N] [--csv PATH]
//! [--cache | --cache-dir DIR] [--server ADDR]
//! [--metrics-json PATH] [--trace PATH [--trace-kernel K]]
//! [--watchdog] [--cycle-budget N]
//! [--fault KIND [--fault-seed N]]`
//!
//! Failed cells render as `FAILED` (a failed 1 B/cycle baseline fails its
//! whole column), the rest of the grid completes, and the process exits 4.

fn main() {
    sdv_bench::figure::main(sdv_bench::figure::Figure::Bandwidth);
}
