//! FIG4 — Figure 4 of the paper: per-implementation slowdown tables.
//!
//! For each kernel, a table with implementations as columns (scalar,
//! vl=8..256) and added-latency values as rows; each cell is that
//! implementation's execution time normalized to its own run with 0 extra
//! latency. The paper color-codes green→red; we flag cells `*`/`**`/`!!` by
//! slowdown magnitude.
//!
//! Also prints the paper's §4.1 anchor comparison (SpMV at +32 and +1024).
//!
//! Usage: `fig4_slowdown [--small] [--threads N] [--csv PATH]
//! [--cache | --cache-dir DIR] [--server ADDR]
//! [--metrics-json PATH] [--trace PATH [--trace-kernel K]]
//! [--watchdog] [--cycle-budget N]
//! [--fault KIND [--fault-seed N]]`
//!
//! Failed cells render as `FAILED` (a failed 0-latency baseline fails its
//! whole column), the rest of the grid completes, and the process exits 4.

fn main() {
    sdv_bench::figure::main(sdv_bench::figure::Figure::Slowdown);
}
