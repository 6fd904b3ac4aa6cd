//! Tile scale-out regression tests.
//!
//! Three bit-identity contracts anchor the multi-tile work:
//!
//! * **Single-tile is untouched** — the classic 24-cell small perf suite
//!   must still sum to exactly 23,497,211 cycles (the pinned total in
//!   `results/perf/` baselines and the `/verify` recipe), and the tiles=1
//!   column of the scale-out study is the golden fig3 column.
//! * **Multi-tile is pinned** — every `cycles` row of
//!   `results/golden/fig_scale_small.csv` (1, 4 and 16 tiles × vl 8 and 256
//!   × SpMV/BFS/PageRank, recorded before the two machine types were
//!   folded into one) is reproduced exactly.
//! * **Multi-tile is reproducible** — the same topology swept twice (and
//!   across thread counts) returns byte-identical cycles and stats; the
//!   replay interleaving is a pure function of the captured traces.
//!
//! If a deliberate model change moves a pinned number, update the constant
//! or regenerate the golden file (`fig_scale --small --check --tiles 1,4,16
//! --vls 8,256 --csv results/golden/fig_scale_small.csv`), the recorded
//! perf baselines, and the `/verify` skill note in the same commit,
//! explaining why.

use sdv_bench::{Cell, CellOutcome, ImplKind, KernelKind, Sweeper, Workloads};
use sdv_uarch::TimingConfig;
use std::collections::BTreeMap;

/// A committed golden CSV as rows of fields (header dropped).
fn golden_rows(name: &str) -> Vec<Vec<String>> {
    let path = format!("{}/../../results/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.lines().skip(1).map(|l| l.split(',').map(str::to_string).collect()).collect()
}

fn vector_cell(kernel: &str, imp: &str) -> Cell {
    Cell {
        kernel: kernel.parse().expect("golden kernel name"),
        imp: imp.parse().expect("golden impl label"),
        extra_latency: 0,
        bandwidth: 64,
    }
}

/// The classic small-workload perf-suite total: 4 kernels × {scalar, vl=8,
/// vl=256} × {+0, +512} extra latency, summed.
const SUITE_TOTAL: u64 = 23_497_211;

fn suite_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for kernel in KernelKind::all() {
        for imp in [ImplKind::Scalar, ImplKind::Vector { maxvl: 8 }, ImplKind::Vector { maxvl: 256 }]
        {
            for extra_latency in [0, 512] {
                cells.push(Cell { kernel, imp, extra_latency, bandwidth: 64 });
            }
        }
    }
    cells
}

#[test]
fn classic_small_suite_total_is_pinned() {
    let w = Workloads::small();
    let cells = suite_cells();
    assert_eq!(cells.len(), 24);
    let mut sweeper = Sweeper::new();
    let total: u64 = sweeper.sweep(&w, &cells, 2).iter().map(|r| r.cycles).sum();
    assert_eq!(
        total, SUITE_TOTAL,
        "single-tile suite total moved — the one-tile machine must issue the paper's op stream"
    );
}

#[test]
fn multi_tile_sweep_is_reproducible_across_runs_and_threads() {
    let w = Workloads::small();
    let mut cfg = TimingConfig::default();
    cfg.mem.tiles = 4;
    let cells: Vec<Cell> = [KernelKind::Spmv, KernelKind::Bfs, KernelKind::Pr]
        .into_iter()
        .map(|kernel| Cell {
            kernel,
            imp: ImplKind::Vector { maxvl: 256 },
            extra_latency: 0,
            bandwidth: 64,
        })
        .collect();
    let sweep = |threads: usize| -> Vec<(u64, String)> {
        // A fresh sweeper per pass: no memo, every cell truly re-simulates.
        let mut s = Sweeper::with_config(cfg);
        s.sweep_outcomes(&w, &cells, threads)
            .into_iter()
            .map(|o| match o {
                CellOutcome::Done(r) => (r.cycles, format!("{:?}", r.stats)),
                CellOutcome::Failed { cell, error } => panic!("{cell:?} failed: {error}"),
            })
            .collect()
    };
    let a = sweep(1);
    let b = sweep(1);
    let c = sweep(3);
    assert_eq!(a, b, "same-thread reruns must be bit-identical");
    assert_eq!(a, c, "thread count must not leak into multi-tile results");
}

#[test]
fn fig_scale_golden_cycles_are_reproduced() {
    // kernel,impl,tiles,mesh,kind,name,value — the `cycles` rows only.
    let mut by_tiles: BTreeMap<usize, Vec<(Cell, u64)>> = BTreeMap::new();
    for row in golden_rows("fig_scale_small.csv").iter().filter(|r| r[4] == "cycles") {
        let tiles: usize = row[2].parse().expect("tile count");
        let want: u64 = row[6].parse().expect("cycle count");
        by_tiles.entry(tiles).or_default().push((vector_cell(&row[0], &row[1]), want));
    }
    assert_eq!(by_tiles.keys().copied().collect::<Vec<_>>(), [1, 4, 16]);
    let w = Workloads::small();
    for (tiles, rows) in by_tiles {
        assert_eq!(rows.len(), 6, "3 kernels x vl 8,256 at {tiles} tiles");
        let cells: Vec<Cell> = rows.iter().map(|(c, _)| *c).collect();
        let got = Sweeper::with_config(sdv_bench::cli::with_tiles(TimingConfig::default(), tiles)).sweep(&w, &cells, 2);
        for ((cell, want), r) in rows.iter().zip(&got) {
            assert_eq!(r.cycles, *want, "{cell:?} at {tiles} tiles moved off the golden CSV");
        }
    }
}

#[test]
fn one_tile_scale_out_column_is_the_golden_fig3_column() {
    // kernel,impl,extra_latency,cycles at vl=256, +0 latency.
    let w = Workloads::small();
    let cfg = sdv_bench::cli::with_tiles(TimingConfig::default(), 1);
    assert_eq!(
        cfg.canonical(),
        TimingConfig::default().canonical(),
        "tiles=1 must share cache entries with every other figure binary"
    );
    let mut checked = 0;
    for row in golden_rows("fig3_small.csv") {
        let kernel: KernelKind = row[0].parse().expect("golden kernel name");
        if !kernel.partitionable() || row[1] != "vl=256" || row[2] != "0" {
            continue;
        }
        let r = sdv_bench::try_run_with_config(&w, vector_cell(&row[0], &row[1]), cfg)
            .expect("one-tile cell");
        assert_eq!(r.cycles.to_string(), row[3], "{kernel:?}: tiles=1 must be the fig3 cell");
        checked += 1;
    }
    assert_eq!(checked, 3, "SpMV, BFS and PageRank overlap with fig3");
}
