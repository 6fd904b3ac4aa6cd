//! CHAOS — fault-injection smoke test for CI.
//!
//! Runs one small SpMV cell with a seeded fault armed and the watchdog on,
//! and *expects* the hardened stack to catch it: the cell must come back as
//! a structured [`CellOutcome::Failed`] (not a hang, not a process abort).
//! Prints the structured error — greppable by its class word (`Deadlock`,
//! `InvariantViolation`, `Panic`, ...) — and exits with the code that error
//! maps to (normally 4). If the fault is *not* caught, exits 1: that means
//! the watchdog/auditor net has a hole and CI should go red.
//!
//! Usage: `chaos_smoke --fault KIND [--fault-seed N] [--cycle-budget N] [--watchdog]`
//!
//! With `--fault none` (or no `--fault`), the cell must instead complete
//! cleanly — exits 0 with the cycle count, 1 otherwise. This double-checks
//! that the hardening knobs in their off state do not fail healthy runs.

use sdv_bench::cli;
use sdv_bench::{Cell, CellOutcome, ImplKind, KernelKind, Sweeper, Workloads};

const BIN: &str = "chaos_smoke";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // No --cache or --server: failed cells are never cached, so either
    // could only mask the live fault-injection path under test.
    cli::check_flags_or_die(
        BIN,
        &args,
        &["--watchdog"],
        &["--fault", "--fault-seed", "--cycle-budget"],
    );
    let cfg = cli::hardening_config(&args).unwrap_or_else(|e| cli::die_usage(BIN, &e));

    let w = Workloads::small();
    let cell = Cell {
        kernel: KernelKind::Spmv,
        imp: ImplKind::Vector { maxvl: 64 },
        extra_latency: 0,
        bandwidth: 64,
    };
    let mut sweeper = Sweeper::with_config(cfg);
    let outcomes = sweeper.sweep_outcomes(&w, &[cell], 1);
    match (&outcomes[0], cfg.fault.is_active()) {
        (CellOutcome::Done(r), false) => {
            println!("{BIN}: clean run completed in {} cycles", r.cycles);
        }
        (CellOutcome::Done(r), true) => {
            eprintln!(
                "{BIN}: FAULT ESCAPED — {:?} was injected but the cell completed in {} cycles",
                cfg.fault.kind, r.cycles
            );
            std::process::exit(1);
        }
        (CellOutcome::Failed { error, .. }, true) => {
            println!("{BIN}: fault {:?} caught as a structured error:\n{error}", cfg.fault.kind);
            std::process::exit(cli::exit_code_for(error));
        }
        (CellOutcome::Failed { error, .. }, false) => {
            eprintln!("{BIN}: clean run FAILED with no fault armed:\n{error}");
            std::process::exit(1);
        }
    }
}
