//! CHAOS_SOAK — service-layer chaos soak for CI.
//!
//! Proves the resilience tentpole end to end: N seeded runs of the sweepd
//! stack with *every* service fault armed (dropped connections, delayed
//! responses, killed workers, corrupted cache entries) must produce results
//! bit-identical to a fault-free local baseline. Each seed runs two server
//! phases against one persistent cache directory:
//!
//! 1. **chaos** — fresh cache, `ChaosPlan::all(seed)` armed, client retries
//!    with a seed-matched [`RetryPolicy`]. Every fault fires somewhere in
//!    the run; supervision, retry, and re-submission must absorb them all.
//! 2. **heal** — chaos off, same cache dir. The entry corrupted in phase 1
//!    must be quarantined and re-simulated (a miss, never wrong cycles).
//!
//! Any divergence from the baseline, any failed cell, or any missing cell
//! exits 1 — determinism must extend through the failure-handling paths.
//!
//! Usage: `chaos_soak [--runs N] [--seed-base S] [--threads N]`

use std::collections::HashMap;
use std::time::Duration;

use sdv_bench::server::{client_request, client_sweep, RetryPolicy};
use sdv_bench::{
    cli, serve, Cell, CellOutcome, ChaosPlan, ImplKind, KernelKind, ResultCache, ServerConfig,
    Sweeper, Workloads,
};
use sdv_rvv::Backend;
use sdv_uarch::TimingConfig;

const BIN: &str = "chaos_soak";

/// A small but diverse grid: several kernels and implementations so the
/// soak exercises distinct store sizes and simulation lengths, and enough
/// unique cells that every chaos trigger ordinal is reachable.
fn grid() -> Vec<Cell> {
    let mk = |kernel, imp| Cell { kernel, imp, extra_latency: 0, bandwidth: 64 };
    vec![
        mk(KernelKind::Spmv, ImplKind::Scalar),
        mk(KernelKind::Spmv, ImplKind::Vector { maxvl: 64 }),
        mk(KernelKind::Spmv, ImplKind::Vector { maxvl: 256 }),
        mk(KernelKind::Fft, ImplKind::Vector { maxvl: 64 }),
        mk(KernelKind::Bfs, ImplKind::Scalar),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // No --cache or --server: the soak manages its own servers and cache
    // directories, and an outside one would mask the faults under test.
    cli::check_flags_or_die(BIN, &args, &[], &["--runs", "--seed-base", "--threads"]);
    let runs = match cli::parse_arg::<u64>(&args, "--runs") {
        Ok(Some(0)) => cli::die_usage(BIN, "--runs must be positive"),
        Ok(v) => v.unwrap_or(20),
        Err(e) => cli::die_usage(BIN, &e),
    };
    let seed_base = match cli::parse_arg::<u64>(&args, "--seed-base") {
        Ok(v) => v.unwrap_or(1),
        Err(e) => cli::die_usage(BIN, &e),
    };
    let threads = match cli::parse_arg::<usize>(&args, "--threads") {
        Ok(Some(0)) => cli::die_usage(BIN, "--threads must be positive"),
        Ok(v) => v.unwrap_or(2),
        Err(e) => cli::die_usage(BIN, &e),
    };

    let w = Workloads::small();
    let cfg = TimingConfig::default();
    let cells = grid();

    // Fault-free local baseline: the bit-identity reference for every run.
    let mut sweeper = Sweeper::with_config(cfg);
    let mut baseline: HashMap<Cell, u64> = HashMap::new();
    for o in sweeper.sweep_outcomes(&w, &cells, threads) {
        match o {
            CellOutcome::Done(r) => {
                baseline.insert(r.cell, r.cycles);
            }
            CellOutcome::Failed { cell, error } => {
                eprintln!("{BIN}: baseline cell {}/{} failed: {error}", cell.kernel.name(), cell.imp);
                std::process::exit(1);
            }
        }
    }

    let mut failed_seeds = Vec::new();
    for seed in seed_base..seed_base + runs {
        match soak_one(seed, &w, &cfg, &cells, &baseline, threads) {
            Ok(()) => eprintln!("{BIN}: seed {seed}: chaos + heal phases bit-identical"),
            Err(e) => {
                eprintln!("{BIN}: seed {seed}: FAILED: {e}");
                failed_seeds.push(seed);
            }
        }
    }
    if failed_seeds.is_empty() {
        println!("{BIN}: {runs}/{runs} seeded chaos runs bit-identical to the fault-free baseline");
    } else {
        eprintln!("{BIN}: {} of {runs} seeds diverged: {failed_seeds:?}", failed_seeds.len());
        std::process::exit(1);
    }
}

/// One seeded soak iteration: chaos phase on a fresh cache, then a healing
/// phase (chaos off) over the same — possibly corrupted — cache directory.
fn soak_one(
    seed: u64,
    w: &Workloads,
    cfg: &TimingConfig,
    cells: &[Cell],
    baseline: &HashMap<Cell, u64>,
    threads: usize,
) -> Result<(), String> {
    let dir = std::env::temp_dir()
        .join(format!("sdv_chaos_soak_{}_{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = RetryPolicy::retries(8, seed);
    let result = run_phase("chaos", ChaosPlan::all(seed), &dir, &policy, w, cfg, cells, baseline, threads)
        .and_then(|_| {
            run_phase("heal", ChaosPlan::none(), &dir, &policy, w, cfg, cells, baseline, threads)
        });
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Serve on an ephemeral port with the given chaos plan and cache dir,
/// sweep the full grid through the retrying client, and compare every
/// returned cycle count against the baseline.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    phase: &str,
    chaos: ChaosPlan,
    dir: &std::path::Path,
    policy: &RetryPolicy,
    w: &Workloads,
    cfg: &TimingConfig,
    cells: &[Cell],
    baseline: &HashMap<Cell, u64>,
    threads: usize,
) -> Result<(), String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")
        .map_err(|e| format!("{phase}: bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("{phase}: local_addr: {e}"))?.to_string();
    let mut sc = ServerConfig::new("small", *cfg, Backend, threads);
    sc.cache = Some(ResultCache::open(dir).map_err(|e| format!("{phase}: cache: {e}"))?);
    sc.chaos = chaos;
    sc.io_timeout = Some(Duration::from_secs(10));
    let handle = std::thread::spawn(move || serve(listener, sc));

    let mut outcomes = Vec::new();
    let swept = client_sweep(
        &addr,
        "small",
        &w.fingerprint(),
        &cfg.canonical(),
        cells,
        policy,
        |o| outcomes.push(o),
    );
    // Always ask the server down and join it, even on sweep failure, so a
    // failed seed cannot leak a listener thread into the next one.
    let shutdown = client_request(&addr, "shutdown", policy);
    let served = handle.join().map_err(|_| format!("{phase}: server thread panicked"))?;
    swept.map_err(|e| format!("{phase}: sweep failed: {e}"))?;
    shutdown.map_err(|e| format!("{phase}: shutdown failed: {e}"))?;
    served.map_err(|e| format!("{phase}: server exited with error: {e}"))?;

    let mut seen: HashMap<Cell, u64> = HashMap::new();
    for o in outcomes {
        match o {
            CellOutcome::Done(r) => {
                seen.insert(r.cell, r.cycles);
            }
            CellOutcome::Failed { cell, error } => {
                return Err(format!(
                    "{phase}: cell {}/{} failed under chaos: {error}",
                    cell.kernel.name(),
                    cell.imp
                ));
            }
        }
    }
    for (cell, want) in baseline {
        match seen.get(cell) {
            Some(got) if got == want => {}
            Some(got) => {
                return Err(format!(
                    "{phase}: cell {}/{}: {got} cycles, baseline {want} — determinism broken",
                    cell.kernel.name(),
                    cell.imp
                ));
            }
            None => {
                return Err(format!(
                    "{phase}: cell {}/{} never returned",
                    cell.kernel.name(),
                    cell.imp
                ));
            }
        }
    }
    Ok(())
}
