//! End-to-end tests for the hardened sweep stack: seeded fault injection is
//! caught as structured per-cell failures, panics are isolated to their cell,
//! cycle budgets split a grid without killing it, a killed sweep resumes from
//! its cache directory bit-identically (and only for the inputs that filled
//! it), a failed cell's exit 4 outranks a failed gate's exit 1, the armed
//! watchdog never perturbs healthy runs, and sweeps through a server under
//! seeded service chaos stay bit-identical to a fault-free run.

use std::time::Duration;

use sdv_bench::metrics::metrics_json;
use sdv_bench::server::{client_request, RetryPolicy};
use sdv_bench::{
    Cell, CellOutcome, ChaosPlan, ImplKind, KernelKind, ResultCache, Sweeper, Workloads,
};
use sdv_engine::{FaultKind, FaultPlan, SimError};
use sdv_uarch::{TimingConfig, WatchdogConfig};

mod common;
use common::{run, scratch, spawn_server, try_sweep_from};

fn cell(kernel: KernelKind, maxvl: usize, extra_latency: u64) -> Cell {
    Cell { kernel, imp: ImplKind::Vector { maxvl }, extra_latency, bandwidth: 64 }
}

fn fault_config(kind: FaultKind, seed: u64) -> TimingConfig {
    TimingConfig {
        fault: FaultPlan::new(kind, seed),
        watchdog: WatchdogConfig::default_on(),
        ..Default::default()
    }
}

#[test]
fn every_fault_class_is_caught_as_a_structured_failure_without_aborting_the_grid() {
    let w = Workloads::small();
    let grid =
        [cell(KernelKind::Spmv, 64, 0), cell(KernelKind::Fft, 64, 0), cell(KernelKind::Bfs, 64, 0)];
    for kind in [
        FaultKind::StallBank,
        FaultKind::DropResponse,
        FaultKind::WedgeCredit,
        FaultKind::InjectPanic,
    ] {
        let mut sweeper = Sweeper::with_config(fault_config(kind, 7));
        let outcomes = sweeper.sweep_outcomes(&w, &grid, 2);
        assert_eq!(outcomes.len(), grid.len(), "{kind:?}: the grid must complete");
        for o in &outcomes {
            let CellOutcome::Failed { error, .. } = o else {
                panic!("{kind:?}: fault escaped — cell {:?} completed", o.cell());
            };
            match kind {
                FaultKind::InjectPanic => {
                    assert!(
                        matches!(error, SimError::Panic { .. }),
                        "{kind:?}: expected an isolated panic, got {error}"
                    );
                    assert!(error.to_string().contains("fault injection"), "{error}");
                }
                _ => {
                    assert!(
                        matches!(error, SimError::Deadlock { .. }),
                        "{kind:?}: expected a watchdog deadlock, got {error}"
                    );
                    let msg = error.to_string();
                    assert!(msg.contains("vpu:"), "diagnostic has VPU state: {msg}");
                    assert!(msg.contains("mesh:"), "diagnostic has NoC state: {msg}");
                }
            }
        }
    }
}

#[test]
fn panicked_cells_leave_the_worker_able_to_run_more_cells() {
    // Three cells through ONE worker thread with a panic fault armed: the
    // first panic poisons nothing — the pool slot is rebuilt and the later
    // cells still run (and fail with their own structured error, since the
    // rebuilt machine re-arms the fault).
    let w = Workloads::small();
    let grid =
        [cell(KernelKind::Spmv, 64, 0), cell(KernelKind::Fft, 64, 0), cell(KernelKind::Pr, 64, 0)];
    let mut sweeper = Sweeper::with_config(fault_config(FaultKind::InjectPanic, 3));
    let outcomes = sweeper.sweep_outcomes(&w, &grid, 1);
    assert_eq!(outcomes.len(), 3);
    for (o, c) in outcomes.iter().zip(&grid) {
        assert_eq!(o.cell(), *c, "outcomes stay in input order");
        assert!(
            matches!(o, CellOutcome::Failed { error: SimError::Panic { .. }, .. }),
            "every cell should report its own isolated panic"
        );
    }
}

#[test]
fn cycle_budget_fails_slow_cells_and_passes_fast_ones_in_the_same_grid() {
    let w = Workloads::small();
    // Golden small-workload cycles: SPMV vl=64 ≈ 31k (under budget),
    // SPMV scalar ≈ 134k (over budget).
    let fast = cell(KernelKind::Spmv, 64, 0);
    let slow =
        Cell { kernel: KernelKind::Spmv, imp: ImplKind::Scalar, extra_latency: 0, bandwidth: 64 };
    let mut cfg = TimingConfig::default();
    cfg.watchdog.cycle_budget = 50_000;
    let mut sweeper = Sweeper::with_config(cfg);
    let outcomes = sweeper.sweep_outcomes(&w, &[fast, slow], 2);

    let CellOutcome::Done(r) = &outcomes[0] else {
        panic!("fast cell must finish under budget: {:?}", outcomes[0]);
    };
    // Budget checking must not perturb timing: same cycles as a vanilla run.
    let vanilla = Sweeper::new().run_cell(&w, fast).cycles;
    assert_eq!(r.cycles, vanilla, "budget watchdog is a pure observer");

    let CellOutcome::Failed { error, .. } = &outcomes[1] else {
        panic!("slow cell must exceed the 50k budget: {:?}", outcomes[1]);
    };
    assert!(
        matches!(error, SimError::CycleBudgetExceeded { budget: 50_000, .. }),
        "expected a budget error, got {error}"
    );
}

#[test]
fn resumed_sweeps_are_bit_identical_to_uninterrupted_ones() {
    let w = Workloads::small();
    let grid: Vec<Cell> = [8usize, 32, 64, 128]
        .iter()
        .flat_map(|&vl| [0u64, 64].map(|lat| cell(KernelKind::Spmv, vl, lat)))
        .collect();
    let half = grid.len() / 2;

    // The uninterrupted reference, no cache anywhere.
    let reference = Sweeper::new().sweep(&w, &grid, 2);

    // A run killed part-way: the cache directory holds the first half.
    let dir = std::env::temp_dir().join(format!("sdv_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut killed = Sweeper::new();
    killed.set_cache(ResultCache::open(&dir).unwrap());
    killed.sweep(&w, &grid[..half], 2);
    drop(killed);

    // Resume: a fresh process's sweeper over the same directory simulates
    // exactly the missing half and returns everything the reference did.
    let mut sweeper = Sweeper::new();
    sweeper.set_cache(ResultCache::open(&dir).unwrap());
    let resumed = sweeper.sweep_outcomes(&w, &grid, 2);
    assert_eq!(sweeper.fresh_simulations(), grid.len() - half, "only the missing half re-runs");
    for (r, o) in reference.iter().zip(&resumed) {
        let CellOutcome::Done(got) = o else { panic!("cell {:?} failed: {o:?}", r.cell) };
        assert_eq!(got.cycles, r.cycles, "cell {:?}", r.cell);
        assert_eq!(
            got.stats.iter().collect::<Vec<_>>(),
            r.stats.iter().collect::<Vec<_>>(),
            "stats survive a resume: cell {:?}",
            r.cell
        );
    }
    let doc = metrics_json("hardening", &resumed);
    assert!(!doc.contains("\"stalls\":null"), "every resumed cell exports its stalls: {doc}");

    // Identity: a directory filled from one set of inputs serves nothing to
    // a sweep over another, so a resume can never pass off the wrong figure.
    let mat = sdv_kernels::CsrMatrix::cage_like(900, 0xCA6E);
    let sell = sdv_kernels::SellCS::from_csr(&mat, 256, 256);
    let other = Workloads { mat, sell, ..Workloads::small() };
    let mut sweeper = Sweeper::new();
    sweeper.set_cache(ResultCache::open(&dir).unwrap());
    let fresh = sweeper.sweep(&other, &grid, 2);
    assert_eq!(sweeper.fresh_simulations(), grid.len(), "different inputs must never hit");
    assert_ne!(fresh[0].cycles, reference[0].cycles, "a hit would have been a wrong number");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn armed_watchdog_never_perturbs_healthy_grids() {
    let w = Workloads::small();
    let grid = [
        cell(KernelKind::Spmv, 64, 16),
        cell(KernelKind::Fft, 256, 0),
        cell(KernelKind::Bfs, 32, 0),
    ];
    let plain = Sweeper::new().sweep(&w, &grid, 2);
    let cfg = TimingConfig { watchdog: WatchdogConfig::default_on(), ..Default::default() };
    let watched = Sweeper::with_config(cfg).sweep_outcomes(&w, &grid, 2);
    for (p, o) in plain.iter().zip(&watched) {
        assert_eq!(o.cycles(), Some(p.cycles), "cell {:?}", p.cell);
    }
}

/// The end-of-run coherence audit's canary. On the paper's 2048-point FFT
/// the scalar implementation merges a store into an in-flight fill whose
/// tag has been evicted; the victim of that re-install used to stay in the
/// directory as a phantom holder, and the cell came back `Failed` at every
/// latency. The cycle count is the one `results/fig3.csv` records.
#[test]
fn paper_scale_fft_scalar_passes_the_coherence_audit() {
    let w = Workloads { signal: sdv_kernels::fft::test_signal(2048), ..Workloads::small() };
    let fft_scalar =
        Cell { kernel: KernelKind::Fft, imp: ImplKind::Scalar, extra_latency: 0, bandwidth: 64 };
    let r = sdv_bench::try_run_with_config(&w, fft_scalar, TimingConfig::default());
    assert_eq!(r.map(|r| r.cycles).map_err(|e| e.to_string()), Ok(601181));
}

/// Knobs outside what the Latency Controller and the Bandwidth Limiter
/// model fail their own cell as bad input; the rest of the group (one
/// program, one functional pass) still gets its golden fig3 cycles.
#[test]
fn out_of_range_knobs_fail_their_own_cell_and_the_group_runs_on() {
    let w = Workloads::small();
    let at = |extra_latency, bandwidth| Cell {
        extra_latency,
        bandwidth,
        ..cell(KernelKind::Spmv, 256, 0)
    };
    let grid = [at(0, 64), at(u64::MAX, 64), at(0, 0), at(512, 64), at(0, 65)];
    let outcomes = Sweeper::new().sweep_outcomes(&w, &grid, 1);
    let cycles: Vec<Option<u64>> = outcomes.iter().map(CellOutcome::cycles).collect();
    assert_eq!(cycles, [Some(25805), None, None, Some(38705), None], "golden SPMV,vl=256 rows");
    for o in outcomes.iter().filter(|o| !o.is_done()) {
        assert!(matches!(o.error(), Some(SimError::BadInput { .. })), "{o:?}");
    }
}

/// The service-layer soak: per seed, a server with every service fault armed
/// (dropped connection, delayed response, killed worker, corrupted cache
/// entry) over a fresh cache directory, then a fault-free server over the same
/// directory, which must quarantine the corrupted entry and simulate it again.
/// A client retrying on a seed-matched schedule must get, in both phases,
/// every cell with the fault-free baseline's cycles and statistics.
#[test]
fn twenty_seeded_chaos_soak_runs_are_bit_identical_to_the_baseline() {
    let w = Workloads::small();
    let mk = |kernel, imp| Cell { kernel, imp, extra_latency: 0, bandwidth: 64 };
    // Several kernels and implementations, so the soak covers distinct store
    // sizes and simulation lengths, and enough distinct cells that every
    // chaos trigger ordinal is reached.
    let grid = [
        mk(KernelKind::Spmv, ImplKind::Scalar),
        mk(KernelKind::Spmv, ImplKind::Vector { maxvl: 64 }),
        mk(KernelKind::Spmv, ImplKind::Vector { maxvl: 256 }),
        mk(KernelKind::Fft, ImplKind::Vector { maxvl: 64 }),
        mk(KernelKind::Bfs, ImplKind::Scalar),
    ];
    // Cycles and every counter; a failed cell fails the soak.
    let told = |o: &CellOutcome| match o {
        CellOutcome::Done(r) => {
            (r.cycles, r.stats.iter().map(|(k, v)| (k.to_string(), v)).collect::<Vec<_>>())
        }
        CellOutcome::Failed { cell, error } => panic!("cell {cell:?} failed: {error}"),
    };
    let baseline: Vec<_> = Sweeper::new().sweep_outcomes(&w, &grid, 2).iter().map(told).collect();
    for seed in 1..=20 {
        let dir = scratch(&format!("chaos_soak_{seed}"));
        let policy = RetryPolicy::retries(8, seed);
        for (phase, chaos) in [("chaos", ChaosPlan::all(seed)), ("heal", ChaosPlan::none())] {
            let cache = ResultCache::open(&dir).unwrap();
            let (addr, handle) = spawn_server(2, |sc| {
                sc.cache = Some(cache);
                sc.chaos = chaos;
                sc.io_timeout = Some(Duration::from_secs(10));
            });
            let swept = try_sweep_from(&addr, &w, &grid, &policy);
            // Down and joined before any assertion, so a failed seed leaves
            // no server behind.
            let shutdown = client_request(&addr, "shutdown", &policy);
            handle.join().unwrap();
            shutdown.unwrap_or_else(|e| panic!("seed {seed} {phase}: shutdown: {e}"));
            let (_, outcomes) = swept.unwrap_or_else(|e| panic!("seed {seed} {phase}: {e}"));
            for ((o, want), cell) in outcomes.iter().zip(&baseline).zip(&grid) {
                assert!(told(o) == *want, "seed {seed} {phase}: {cell:?} is not the baseline");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A wedged VPU line credit dies cleanly through `study`: the watchdog's
/// `Deadlock` diagnostic and exit 4, not a hang and not a bare panic.
#[test]
fn a_wedged_credit_is_a_deadlock_and_exit_4_through_study() {
    let args = ["fig_stalls", "--small", "--fault", "wedge-credit"];
    let out = run(env!("CARGO_BIN_EXE_study"), &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(stderr.contains("Deadlock at cycle"), "no Deadlock diagnostic: {stderr}");
}

/// A failed cell outranks a failed gate: under a cycle budget `study
/// fig_stalls` fails cells, and with them every kernel's verdict, yet exits
/// 4 (a simulation fault), not 1, after printing every table.
#[test]
fn a_failed_cell_outranks_a_failed_gate() {
    let args = ["fig_stalls", "--small", "--cycle-budget", "50000"];
    let out = run(env!("CARGO_BIN_EXE_study"), &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(stderr.contains("gate failed: SPMV: verdict skipped"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Stall breakdown — FFT at +1024"), "tables first: {stdout}");
}
