//! FIG-SCALE — the tile scale-out study: how the paper's three partitionable
//! kernels (SpMV, BFS, PageRank) behave when the single core+VPU tile grows
//! to N tiles sharing the banked L2, MESI directory, and DRAM channel
//! through the mesh.
//!
//! For each kernel the binary prints a cycles table (rows: tile count and
//! mesh geometry; columns: one per swept MAXVL, each with its speedup over
//! the 1-tile run at the same MAXVL), then a traffic line per topology:
//! directory recalls/invalidations/downgrades (summed over banks — the sums
//! match the aggregate coherence counters exactly, and `--check` enforces
//! it) and the busiest NoC link's utilization.
//!
//! Usage: `fig_scale [--small] [--threads N] [--tiles 1,4,16] [--vls 8,64,256]
//! [--check] [--csv PATH] [--cache | --cache-dir DIR] [--server ADDR]
//! [--metrics-json PATH] [--watchdog] [--cycle-budget N]
//! [--fault KIND [--fault-seed N]]`
//!
//! `--tiles` takes a comma-separated list of tile counts; each count runs on
//! the smallest of the study's square meshes (2×2, 4×4, 8×8) that seats it,
//! with one L2HN bank per mesh node. 1-tile cells run the paper's
//! single-stream programs (bit-identical to every other figure binary, so
//! they share cache entries); multi-tile cells run the partitioned drivers
//! on the same machine type.
//!
//! `--csv` exports the raw data in long format (`kernel,impl,tiles,mesh,
//! kind,name,value`): per-tile stall attribution (`kind=stall`), per-bank
//! directory traffic (`kind=directory`), and per-link NoC busy cycles
//! (`kind=noc`) — one row per counter, so new topologies never change the
//! column set.
//!
//! `--server` ships cells to a `sweepd` whose topology must match, so it is
//! only accepted when `--tiles` names a single count (start the server with
//! the same `--tiles N`). A sweep over several topologies is several
//! config identities — run one server per topology or sweep locally.

use sdv_bench::cli;
use sdv_bench::table::render;
use sdv_bench::{Cell, CellOutcome, ImplKind, KernelKind, RunResult, Sweeper, Workloads};
use sdv_uarch::TimingConfig;

const BIN: &str = "fig_scale";

/// Parse a comma-separated list of positive integers.
fn parse_list(bin: &str, args: &[String], key: &str, default: &[usize]) -> Vec<usize> {
    let Some(spec) = cli::arg_value(args, key) else { return default.to_vec() };
    let list: Vec<usize> = spec
        .split(',')
        .map(|s| match s.trim().parse::<usize>() {
            Ok(0) | Err(_) => {
                cli::die_usage(bin, &format!("{key}: bad value '{s}' (need positive integers)"))
            }
            Ok(n) => n,
        })
        .collect();
    if list.is_empty() {
        cli::die_usage(bin, &format!("{key} named no values"));
    }
    list
}

/// `WxH` label for a topology's mesh.
fn mesh_label(cfg: &TimingConfig) -> String {
    format!("{}x{}", cfg.mem.mesh.width, cfg.mem.mesh.height)
}

/// Sum of `l2.bank{i}.<counter>` over all banks.
fn bank_sum(r: &RunResult, counter: &str) -> u64 {
    r.stats
        .iter()
        .filter(|(k, _)| k.starts_with("l2.bank") && k.ends_with(counter))
        .map(|(_, v)| v)
        .sum()
}

/// The busiest NoC link: `(from_to label, busy cycles)`.
fn busiest_link(r: &RunResult) -> Option<(String, u64)> {
    r.stats
        .iter()
        .filter(|(k, _)| k.starts_with("noc.link") && k.ends_with(".busy_cycles"))
        .max_by_key(|&(_, v)| v)
        .map(|(k, v)| {
            let label = k.trim_start_matches("noc.link").trim_end_matches(".busy_cycles");
            (label.to_string(), v)
        })
}

/// The exact-sum invariants `--check` enforces on a multi-tile result:
/// per-bank directory counters must sum to the aggregate coherence
/// counters, and per-tile stall counters must sum to the unprefixed
/// aggregates the stall columns are built from.
fn check_sums(r: &RunResult, tiles: usize) -> Result<(), String> {
    let recalls = bank_sum(r, ".recalls") + bank_sum(r, ".downgrades");
    if recalls != r.stats.get("coherence.recall") {
        return Err(format!(
            "bank recalls+downgrades {} != coherence.recall {}",
            recalls,
            r.stats.get("coherence.recall")
        ));
    }
    let inv = bank_sum(r, ".invalidations");
    if inv != r.stats.get("coherence.invalidate") {
        return Err(format!(
            "bank invalidations {} != coherence.invalidate {}",
            inv,
            r.stats.get("coherence.invalidate")
        ));
    }
    if tiles > 1 {
        for key in ["scalar.stall_cycles", "scalar.stall.vpu_sync_cycles", "scalar.ops"] {
            let per_tile: u64 =
                (0..tiles).map(|t| r.stats.get(&format!("tile{t}.{key}"))).sum();
            if per_tile != r.stats.get(key) {
                return Err(format!(
                    "per-tile {key} sum {} != aggregate {}",
                    per_tile,
                    r.stats.get(key)
                ));
            }
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::check_sweep_flags(BIN, &args, &["--check"], &["--tiles", "--vls"]);
    let small = args.iter().any(|a| a == "--small");
    let threads = cli::threads(BIN, &args);
    let check = args.iter().any(|a| a == "--check");
    let csv = cli::arg_value(&args, "--csv").map(str::to_string);
    let tile_counts = parse_list(BIN, &args, "--tiles", &[1, 4, 16]);
    let vls = parse_list(BIN, &args, "--vls", &[8, 64, 256]);
    if args.iter().any(|a| a == "--server") && tile_counts.len() > 1 {
        cli::die_usage(
            BIN,
            "--server holds one topology: pass --tiles with a single count \
             (and start sweepd with the same --tiles N)",
        );
    }
    let base = cli::hardening_config(&args).unwrap_or_else(|e| cli::die_usage(BIN, &e));
    let w = if small { Workloads::small() } else { Workloads::paper() };
    let workload = if small { "small" } else { "paper" };

    let kernels: Vec<KernelKind> =
        KernelKind::all().into_iter().filter(|k| k.partitionable()).collect();
    let cells: Vec<Cell> = kernels
        .iter()
        .flat_map(|&kernel| {
            vls.iter().map(move |&maxvl| Cell {
                kernel,
                imp: ImplKind::Vector { maxvl },
                extra_latency: 0,
                bandwidth: 64,
            })
        })
        .collect();

    // One sweeper per topology: the tile count and mesh live in the timing
    // configuration (and therefore in every cache / sweepd identity).
    let mut grids: Vec<(usize, TimingConfig, Vec<CellOutcome>)> = Vec::new();
    for &tiles in &tile_counts {
        let cfg = cli::with_tiles(base, tiles);
        let mut sweeper = Sweeper::with_config(cfg);
        cli::configure_sweeper(BIN, &args, &mut sweeper, workload);
        let outcomes = sweeper.sweep_outcomes(&w, &cells, threads);
        grids.push((tiles, cfg, outcomes));
    }
    let at = |gi: usize, ki: usize, vi: usize| -> &CellOutcome {
        &grids[gi].2[ki * vls.len() + vi]
    };

    let mut sums_ok = true;
    for (ki, kernel) in kernels.iter().enumerate() {
        let headers: Vec<String> = vls
            .iter()
            .flat_map(|vl| [format!("vl={vl}"), "speedup".to_string()])
            .collect();
        let rows: Vec<(String, Vec<String>)> = grids
            .iter()
            .enumerate()
            .map(|(gi, (tiles, cfg, _))| {
                let mut cols = Vec::new();
                for (vi, _) in vls.iter().enumerate() {
                    match (at(gi, ki, vi), at(0, ki, vi)) {
                        (CellOutcome::Done(r), CellOutcome::Done(b)) => {
                            cols.push(r.cycles.to_string());
                            cols.push(format!("{:.2}x", b.cycles as f64 / r.cycles as f64));
                        }
                        (CellOutcome::Done(r), _) => {
                            cols.push(r.cycles.to_string());
                            cols.push("-".to_string());
                        }
                        _ => {
                            cols.push("FAILED".to_string());
                            cols.push("-".to_string());
                        }
                    }
                }
                (format!("tiles={tiles} ({})", mesh_label(cfg)), cols)
            })
            .collect();
        println!(
            "{}",
            render(&format!("Tile scale-out — {}", kernel.name()), "topology", &headers, &rows)
        );
        // Traffic summary at the longest swept vector length.
        for (gi, (tiles, cfg, _)) in grids.iter().enumerate() {
            if let CellOutcome::Done(r) = at(gi, ki, vls.len() - 1) {
                let link = busiest_link(r)
                    .map(|(l, busy)| {
                        format!("link {l} busy {:.1}%", 100.0 * busy as f64 / r.cycles as f64)
                    })
                    .unwrap_or_else(|| "no NoC traffic".to_string());
                println!(
                    "  tiles={tiles} ({}): directory recalls={} invalidations={} \
                     downgrades={}; busiest {link}",
                    mesh_label(cfg),
                    bank_sum(r, ".recalls"),
                    bank_sum(r, ".invalidations"),
                    bank_sum(r, ".downgrades"),
                );
                if let Err(e) = check_sums(r, *tiles) {
                    sums_ok = false;
                    eprintln!(
                        "{BIN}: {}/tiles={tiles}: counter sums inconsistent: {e}",
                        kernel.name()
                    );
                }
            }
        }
        println!();
    }

    if let Some(path) = csv {
        use std::fmt::Write as _;
        let mut out = String::from("kernel,impl,tiles,mesh,kind,name,value\n");
        for (ki, kernel) in kernels.iter().enumerate() {
            for (gi, (tiles, cfg, _)) in grids.iter().enumerate() {
                let mesh = mesh_label(cfg);
                for (vi, _) in vls.iter().enumerate() {
                    let CellOutcome::Done(r) = at(gi, ki, vi) else {
                        writeln!(
                            out,
                            "{},{},{tiles},{mesh},cycles,total,FAILED",
                            kernel.name(),
                            cells[ki * vls.len() + vi].imp
                        )
                        .unwrap();
                        continue;
                    };
                    let imp = r.cell.imp;
                    let k = kernel.name();
                    writeln!(out, "{k},{imp},{tiles},{mesh},cycles,total,{}", r.cycles).unwrap();
                    for (key, v) in r.stats.iter() {
                        if *tiles == 1 && key.starts_with("scalar.stall.") {
                            // Single-tile stats carry no tile prefix; export
                            // under tile0 so the column is uniform.
                            writeln!(out, "{k},{imp},{tiles},{mesh},stall,tile0.{key},{v}")
                                .unwrap();
                        } else if key.starts_with("tile") && key.contains(".scalar.stall.") {
                            writeln!(out, "{k},{imp},{tiles},{mesh},stall,{key},{v}").unwrap();
                        } else if key.starts_with("l2.bank")
                            && (key.ends_with(".recalls")
                                || key.ends_with(".invalidations")
                                || key.ends_with(".downgrades"))
                        {
                            writeln!(out, "{k},{imp},{tiles},{mesh},directory,{key},{v}")
                                .unwrap();
                        } else if key.starts_with("noc.link") && key.ends_with(".busy_cycles") {
                            writeln!(out, "{k},{imp},{tiles},{mesh},noc,{key},{v}").unwrap();
                        }
                    }
                }
            }
        }
        if let Err(e) = std::fs::write(&path, out) {
            cli::die_bad_input(BIN, &format!("cannot write {path}: {e}"));
        }
        println!("wrote {path}");
    }

    let all: Vec<CellOutcome> =
        grids.iter().flat_map(|(_, _, o)| o.iter().cloned()).collect();
    sdv_bench::metrics::write_metrics_if_requested(BIN, &args, &all);
    if check && !sums_ok {
        eprintln!("{BIN}: --check failed — counter sums inconsistent");
        std::process::exit(1);
    }
    cli::report_failures_and_exit(BIN, &all);
}
