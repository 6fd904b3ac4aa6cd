//! One functional pass, many timing models: cells that differ only in a knob
//! run as a group, and everything a cell reports — cycles, every statistic,
//! how and with what words it fails — must be what the same cell reports when
//! it runs alone on a machine of its own.

use std::time::Duration;

use sdv_bench::json::Json;
use sdv_bench::{
    try_run_group, try_run_with_config, Cell, CellOutcome, ChaosKind, ChaosPlan, ImplKind,
    KernelKind, Sweeper, Workloads,
};
use sdv_core::SdvMachine;
use sdv_engine::{FaultKind, FaultPlan, Rng};
use sdv_uarch::{TimingConfig, WatchdogConfig};

mod common;
use common::{ask, spawn_server, sweep_from};

const LATENCIES: [u64; 8] = [0, 16, 32, 64, 128, 256, 512, 1024];
const BANDWIDTHS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Everything an outcome says, as text: cycles and every counter (in name
/// order: a registry decoded off the wire was filled in another order) of a
/// finished cell, the error's rendering (class, message, diagnostic dump) of
/// a failed one.
fn told(out: &CellOutcome) -> String {
    match out {
        CellOutcome::Done(r) => {
            format!("done {} {:?}", r.cycles, r.stats.iter().collect::<Vec<_>>())
        }
        CellOutcome::Failed { error, .. } => format!("failed [{}] {error}", error.class()),
    }
}

#[test]
fn seeded_groups_match_one_fresh_machine_per_cell() {
    let w = Workloads::small();
    let cfg = TimingConfig::default();
    let impls = ImplKind::paper_set();
    let mut rng = Rng::new(0x5EED_0021);
    // One pooled machine for every group, as a sweep worker has.
    let mut m = SdvMachine::new(w.heap);
    let mut sizes = [0usize; 9];
    for case in 0..14 {
        let kernel = KernelKind::all()[rng.index(4)];
        let imp = impls[rng.index(impls.len())];
        let n = if case < 2 { 1 } else { 1 + rng.index(8) };
        sizes[n] += 1;
        let cells: Vec<Cell> = (0..n)
            .map(|_| {
                // Either axis alone, as the figures sweep them, or both at once.
                let (extra_latency, bandwidth) = match rng.below(3) {
                    0 => (LATENCIES[rng.index(8)], 64),
                    1 => (0, BANDWIDTHS[rng.index(7)]),
                    _ => (LATENCIES[rng.index(8)], BANDWIDTHS[rng.index(7)]),
                };
                Cell { kernel, imp, extra_latency, bandwidth }
            })
            .collect();
        let grouped = try_run_group(&mut m, &w, &cells, cfg, None);
        assert_eq!(grouped.len(), cells.len(), "case {case}: one result a cell, duplicates too");
        for (got, &cell) in grouped.iter().zip(&cells) {
            let got = got.as_ref().unwrap_or_else(|e| panic!("case {case} {cell:?}: {e}"));
            let want = try_run_with_config(&w, cell, cfg).expect("the cell runs alone");
            assert_eq!(got.cell, cell, "case {case}: results in request order");
            assert_eq!(got.cycles, want.cycles, "case {case} {cell:?}: cycles");
            assert_eq!(
                format!("{:?}", got.stats),
                format!("{:?}", want.stats),
                "case {case} {cell:?}: stats"
            );
        }
    }
    assert!(sizes[1] >= 2 && sizes[2..].iter().sum::<usize>() >= 6, "group sizes drawn: {sizes:?}");
}

/// Three programs: a group that spans the latency axis, one that spans the
/// bandwidth axis, and a cell with its program to itself.
fn fault_grid() -> Vec<Cell> {
    grid_of(ImplKind::Vector { maxvl: 64 })
}

fn grid_of(imp: ImplKind) -> Vec<Cell> {
    let cell = |kernel, extra_latency, bandwidth| Cell { kernel, imp, extra_latency, bandwidth };
    vec![
        cell(KernelKind::Spmv, 0, 64),
        cell(KernelKind::Fft, 0, 64),
        cell(KernelKind::Spmv, 64, 64),
        cell(KernelKind::Bfs, 0, 64),
        cell(KernelKind::Fft, 0, 2),
        cell(KernelKind::Spmv, 512, 64),
    ]
}

/// The same cells swept as a grid (grouped) and one sweep per cell (a group
/// of one each, inline issue) must tell the same story cell by cell.
fn assert_grouped_equals_cell_by_cell(
    what: &str,
    cfg: TimingConfig,
    grid: &[Cell],
) -> Vec<CellOutcome> {
    let w = Workloads::small();
    let alone: Vec<CellOutcome> =
        grid.iter().map(|&c| Sweeper::with_config(cfg).try_run_cell(&w, c)).collect();
    let mut last = Vec::new();
    for threads in [1, 2] {
        let mut sweeper = Sweeper::with_config(cfg);
        let grouped = sweeper.sweep_outcomes(&w, grid, threads);
        assert_eq!(sweeper.fresh_simulations(), grid.len(), "{what}: every cell counted once");
        for ((g, a), cell) in grouped.iter().zip(&alone).zip(grid) {
            assert_eq!(g.cell(), *cell, "{what}: outcomes in input order");
            assert_eq!(told(g), told(a), "{what}, {threads} thread(s), {cell:?}");
        }
        last = grouped;
    }
    last
}

#[test]
fn every_fault_plan_fails_the_same_cells_with_the_same_words_grouped_or_not() {
    for kind in [
        FaultKind::InjectPanic,
        FaultKind::WedgeCredit,
        FaultKind::StallBank,
        FaultKind::DropResponse,
    ] {
        let cfg = TimingConfig {
            fault: FaultPlan::new(kind, 7),
            watchdog: WatchdogConfig::default_on(),
            ..Default::default()
        };
        let outs = assert_grouped_equals_cell_by_cell(&format!("{kind:?}"), cfg, &fault_grid());
        assert!(outs.iter().all(|o| !o.is_done()), "{kind:?}: the fault reaches every cell");
    }
}

#[test]
fn a_cycle_budget_splits_a_group_exactly_as_it_splits_separate_cells() {
    // SPMV/vl=64 at --small: 31k cycles at +0, far more at +512.
    let mut cfg = TimingConfig::default();
    cfg.watchdog.cycle_budget = 50_000;
    let outs = assert_grouped_equals_cell_by_cell("budget", cfg, &fault_grid());
    let spmv: Vec<bool> = outs
        .iter()
        .filter(|o| o.cell().kernel == KernelKind::Spmv)
        .map(CellOutcome::is_done)
        .collect();
    assert_eq!(spmv, [true, true, false], "one group, both verdicts: {outs:?}");
}

#[test]
fn a_wall_deadline_fails_or_spares_a_group_as_it_does_separate_cells() {
    let w = Workloads::small();
    // Scalar programs: long enough in ops that all but the FFT cross the
    // deadline's check stride (a shorter cell never looks at the clock, in a
    // group or out of one).
    let grid = grid_of(ImplKind::Scalar);
    // The text after the first line is the machine at the moment the host
    // clock ran out, which no two runs share.
    let first_line = |o: &CellOutcome| told(o).lines().next().unwrap().to_string();

    let (addr, handle) = spawn_server(1, |sc| sc.cell_wall = Some(Duration::from_micros(1)));
    let grouped = sweep_from(&addr, &w, &grid).1;
    ask(&addr, "shutdown");
    handle.join().unwrap();
    let (addr, handle) = spawn_server(1, |sc| sc.cell_wall = Some(Duration::from_micros(1)));
    let alone: Vec<CellOutcome> =
        grid.iter().flat_map(|c| sweep_from(&addr, &w, std::slice::from_ref(c)).1).collect();
    ask(&addr, "shutdown");
    handle.join().unwrap();
    for (g, a) in grouped.iter().zip(&alone) {
        assert_eq!(first_line(g), first_line(a), "{:?}", g.cell());
    }
    let blown = grouped.iter().filter(|o| first_line(o).contains("DeadlineExceeded")).count();
    assert!(blown >= 4, "a microsecond fits no real cell: {blown} of {} failed", grid.len());

    // A deadline nobody reaches changes nothing.
    let (addr, handle) = spawn_server(1, |sc| sc.cell_wall = Some(Duration::from_secs(3600)));
    let spared = sweep_from(&addr, &w, &grid).1;
    ask(&addr, "shutdown");
    handle.join().unwrap();
    let local = Sweeper::new().sweep_outcomes(&w, &grid, 1);
    for (s, l) in spared.iter().zip(&local) {
        assert_eq!(told(s), told(l), "{:?}", s.cell());
    }
}

/// The program of every cell each worker is holding, per a `status` reply.
fn held(status: &Json) -> Vec<Vec<(String, String)>> {
    let workers = status.get("workers").and_then(Json::as_arr).expect("workers array");
    workers
        .iter()
        .map(|wk| {
            let current = wk.get("current").and_then(Json::as_arr).expect("current array");
            current
                .iter()
                .map(|c| {
                    let text = |k| c.get(k).and_then(Json::as_str).expect("cell field").to_string();
                    (text("kernel"), text("imp"))
                })
                .collect()
        })
        .collect()
}

#[test]
fn a_worker_killed_holding_a_group_loses_no_cell_and_repeats_none() {
    let w = Workloads::small();
    // Five programs, twelve cells: three groups of three, a pair, a single.
    let mut grid = Vec::new();
    for imp in [ImplKind::Scalar, ImplKind::Vector { maxvl: 64 }, ImplKind::Vector { maxvl: 256 }] {
        for extra_latency in [0, 64, 256] {
            grid.push(Cell { kernel: KernelKind::Spmv, imp, extra_latency, bandwidth: 64 });
        }
    }
    let vl64 = ImplKind::Vector { maxvl: 64 };
    grid.push(Cell { kernel: KernelKind::Fft, imp: vl64, extra_latency: 0, bandwidth: 64 });
    grid.push(Cell { kernel: KernelKind::Fft, imp: vl64, extra_latency: 0, bandwidth: 4 });
    grid.push(Cell {
        kernel: KernelKind::Bfs,
        imp: ImplKind::Scalar,
        extra_latency: 0,
        bandwidth: 64,
    });
    let local = Sweeper::new().sweep_outcomes(&w, &grid, 2);

    // Every seed kills at one of the first four groups taken; between them
    // the seeds cover groups of more than one cell.
    let mut widest_seen = Vec::new();
    for seed in 1..=4 {
        let (addr, handle) =
            spawn_server(2, |sc| sc.chaos = ChaosPlan::only(ChaosKind::KillWorker, seed));
        // Watch `status` while the sweep runs: whatever a worker holds is one
        // program's cells.
        let (served, seen_groups) = std::thread::scope(|s| {
            let sweeping = s.spawn(|| sweep_from(&addr, &w, &grid).1);
            let mut seen = Vec::new();
            while !sweeping.is_finished() {
                for cells in held(&ask(&addr, "status")) {
                    assert!(cells.len() <= 3, "a group is one program's queued cells: {cells:?}");
                    assert!(cells.iter().all(|c| *c == cells[0]), "one program: {cells:?}");
                    seen.push(cells.len());
                }
            }
            (sweeping.join().unwrap(), seen)
        });
        for (got, want) in served.iter().zip(&local) {
            assert_eq!(told(got), told(want), "seed {seed}: {:?}", got.cell());
        }
        let stats = ask(&addr, "stats");
        let count = |k| stats.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(
            count("simulated"),
            grid.len() as u64,
            "seed {seed}: once each, kill or no kill"
        );
        assert_eq!((count("inflight"), count("queued")), (0, 0), "seed {seed}");
        let status = ask(&addr, "status");
        let workers = status.get("workers").and_then(Json::as_arr).unwrap();
        let restarts: u64 =
            workers.iter().map(|wk| wk.get("restarts").and_then(Json::as_u64).unwrap()).sum();
        assert_eq!(restarts, 1, "seed {seed}: the kill fired and the slot was respawned");
        assert!(held(&status).iter().all(Vec::is_empty), "seed {seed}: nothing held at rest");
        widest_seen.push(seen_groups.into_iter().max().unwrap_or(0));
        ask(&addr, "shutdown");
        handle.join().unwrap();
    }
    assert!(
        widest_seen.iter().any(|&n| n > 1),
        "status never showed a worker holding a multi-cell group: {widest_seen:?}"
    );
}

#[test]
fn the_fig3_grid_in_any_order_at_any_thread_count_is_the_golden_csv() {
    let w = Workloads::small();
    let impls = ImplKind::paper_set();
    let grid: Vec<Cell> = KernelKind::all()
        .into_iter()
        .flat_map(|kernel| {
            impls.iter().flat_map(move |&imp| {
                LATENCIES.map(|extra_latency| Cell { kernel, imp, extra_latency, bandwidth: 64 })
            })
        })
        .collect();
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/golden/fig3_small.csv"),
    )
    .expect("golden fig3 CSV");
    // The CSV's row order: kernel, then latency, then implementation.
    let csv = |outcomes: &[CellOutcome]| {
        let mut csv = String::from("kernel,impl,extra_latency,cycles\n");
        for kernel in KernelKind::all() {
            for lat in LATENCIES {
                for &imp in &impls {
                    let cell = Cell { kernel, imp, extra_latency: lat, bandwidth: 64 };
                    let out = outcomes.iter().find(|o| o.cell() == cell).expect("cell swept");
                    let cycles = out.cycles().expect("cell completed");
                    csv.push_str(&format!("{},{imp},{lat},{cycles}\n", kernel.name()));
                }
            }
        }
        csv
    };
    let mut shuffled = grid.clone();
    Rng::new(0x5EED_0321).shuffle(&mut shuffled);
    for (order, cells, threads) in
        [("grid order", &grid, 1), ("grid order", &grid, 2), ("shuffled", &shuffled, 2)]
    {
        let mut sweeper = Sweeper::new();
        let outcomes = sweeper.sweep_outcomes(&w, cells, threads);
        assert_eq!(sweeper.fresh_simulations(), grid.len());
        assert!(csv(&outcomes) == golden, "{order}, {threads} thread(s): CSV differs from golden");
    }
}
