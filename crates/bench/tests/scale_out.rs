//! Tile scale-out regression tests.
//!
//! Three bit-identity contracts anchor the multi-tile work:
//!
//! * **Single-tile is untouched** — the classic 24-cell small suite (each
//!   cell a row of `results/golden/fig3_small.csv`) must still sum to
//!   exactly 23,497,211 cycles, and the tiles=1 column of the scale-out
//!   study is the golden fig3 column.
//! * **Multi-tile is pinned** — every row of
//!   `results/golden/fig_scale_small.csv` (1, 4 and 16 tiles × vl 8, 64 and
//!   256 × SpMV/BFS/PageRank: cycles, per-tile stalls, per-bank directory
//!   traffic, per-link NoC busy cycles; its vl 8 and 256 rows were recorded
//!   before the two machine types were folded into one) is reproduced byte
//!   for byte by `study fig_scale`, cold and warm from a cache, and by
//!   `study all` (`tests/study.rs`).
//! * **Multi-tile is reproducible** — the same topology swept twice (and
//!   across thread counts) returns byte-identical cycles and stats; the
//!   merge's interleaving is a pure function of the tiles' op streams.
//! * **The merge's queue is bounded by the partition, not the input** — no
//!   tile ever holds more than one slice's ops, however large the epoch.
//!
//! If a deliberate model change moves a pinned number, update the constant
//! or regenerate the golden files as `tests/study.rs` says, in the same
//! commit, explaining why.

use sdv_bench::{Cell, CellOutcome, ImplKind, KernelKind, Sweeper, Workloads};
use sdv_core::{SdvMachine, Vm};
use sdv_kernels::{bfs, pagerank, spmv, CsrMatrix, Graph, SellCS, SlicedGraph};
use sdv_uarch::TimingConfig;

mod common;
use common::golden;

/// A committed golden CSV as rows of fields (header dropped).
fn golden_rows(name: &str) -> Vec<Vec<String>> {
    golden(name).lines().skip(1).map(|l| l.split(',').map(str::to_string).collect()).collect()
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
        for imp in
            [ImplKind::Scalar, ImplKind::Vector { maxvl: 8 }, ImplKind::Vector { maxvl: 256 }]
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
fn one_tile_scale_out_column_is_the_golden_fig3_column() {
    // kernel,impl,extra_latency,cycles at vl=256, +0 latency.
    let w = Workloads::small();
    let cfg = sdv_bench::cli::with_tiles(TimingConfig::default(), 1);
    assert_eq!(
        cfg.canonical(),
        TimingConfig::default().canonical(),
        "tiles=1 must share cache entries with every other study"
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

/// A partitioned vector kernel run directly on a `tiles`-tile machine at
/// `maxvl`: `(peak_queued_ops, issue slots consumed)`. Every op takes at
/// least one issue slot, so the second is a lower-bounded count of ops.
fn tiled_run(w: &Workloads, kernel: KernelKind, tiles: usize, maxvl: usize) -> (usize, u64) {
    let cfg = sdv_bench::cli::with_tiles(TimingConfig::default(), tiles);
    let mut m = SdvMachine::with_config(w.heap, cfg);
    m.set_maxvl_cap(maxvl);
    match kernel {
        KernelKind::Spmv => {
            let dev = spmv::setup_spmv(&mut m, &w.mat, &w.sell);
            spmv::spmv_vector_sell_tiled(&mut m, &dev);
        }
        KernelKind::Bfs => {
            let dev = bfs::setup_bfs(&mut m, &w.graph, 256, w.bfs_src);
            bfs::bfs_vector_tiled(&mut m, &dev);
        }
        KernelKind::Pr => {
            let dev = pagerank::setup_pagerank(&mut m, &w.graph, 256, 0.85, w.pr_iters);
            pagerank::pagerank_vector_tiled(&mut m, &dev);
        }
        KernelKind::Fft => unreachable!("FFT has no partitioned driver"),
    }
    m.try_finish().expect("clean run");
    (m.peak_queued_ops(), m.stats().get("scalar.ops"))
}

/// The most ops one slice of `kernel` can queue at `maxvl`: `256 / maxvl`
/// strips, each at most the widest slice's inner iterations (7 ops each in
/// SpMV, 14 in BFS with peers, 6 in the PageRank pull) plus at most 8 ops of
/// strip overhead, plus the slice header and the range's prologue/epilogue.
fn piece_bound(w: &Workloads, kernel: KernelKind, maxvl: usize) -> usize {
    let graph_width = || {
        let sliced = SlicedGraph::new(&w.graph, 256, 0);
        sliced.slice_width.iter().copied().max().expect("at least one slice")
    };
    let (inner, width) = match kernel {
        KernelKind::Spmv => (7, w.sell.slice_width.iter().copied().max().expect("slices")),
        KernelKind::Bfs => (14, graph_width()),
        KernelKind::Pr => (6, graph_width()),
        KernelKind::Fft => unreachable!("FFT has no partitioned driver"),
    };
    (256 / maxvl) * (width as usize * inner + 8) + 16
}

#[test]
fn queued_ops_are_bounded_by_one_slice_per_tile_not_by_the_input() {
    // `Workloads::small()` and the same generators at twice the rows and
    // vertices (same degree). At 4 tiles every tile owns several slices of
    // either input, so a machine that queued whole epochs would double its
    // peak with the input; at 16 tiles each tile owns at most one slice and
    // the bound is all that can be said.
    let small = Workloads::small();
    let mat = CsrMatrix::cage_like(2 * small.mat.nrows, 0xCA6E);
    let double = Workloads {
        sell: SellCS::from_csr(&mat, 256, 256),
        mat,
        graph: Graph::uniform(2 * small.graph.n, 16, 0x6AF),
        ..Workloads::small()
    };
    for kernel in [KernelKind::Spmv, KernelKind::Bfs, KernelKind::Pr] {
        for tiles in [4, 16] {
            let (peak_1x, ops_1x) = tiled_run(&small, kernel, tiles, 8);
            let (peak_2x, ops_2x) = tiled_run(&double, kernel, tiles, 8);
            for (w, peak) in [(&small, peak_1x), (&double, peak_2x)] {
                let bound = tiles * piece_bound(w, kernel, 8);
                assert!(
                    0 < peak && peak <= bound,
                    "{kernel:?} at {tiles} tiles queued {peak} ops; one slice per tile is {bound}"
                );
            }
            assert!(
                ops_2x * 10 >= ops_1x * 17,
                "{kernel:?} at {tiles} tiles: twice the input must be about twice the work \
                 ({ops_1x} -> {ops_2x})"
            );
            if tiles == 4 {
                assert!(
                    peak_2x * 10 <= peak_1x * 12,
                    "{kernel:?}: the queue must not grow with the input ({peak_1x} -> {peak_2x})"
                );
            }
        }
    }
}

#[test]
fn paper_scale_bfs_queues_a_twentieth_of_what_it_issues() {
    // The cell that set the parent's footprint: 16 tiles at vl=8, whose
    // largest level alone is 1.66 M ops — all of which used to be queued
    // before the first one issued.
    let (peak, ops) = tiled_run(&Workloads::paper(), KernelKind::Bfs, 16, 8);
    assert!(peak > 0 && peak as u64 * 20 <= ops, "queued {peak} of {ops} ops at once");
}
