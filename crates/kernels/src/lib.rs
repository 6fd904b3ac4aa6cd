//! # sdv-kernels
//!
//! The four non-dense kernels the paper evaluates — SpMV, BFS, PageRank,
//! FFT — each in a scalar and a long-vector implementation written against
//! the platform's [`sdv_core::Vm`] intrinsics API (mirroring how the
//! original codes are vectorized with RVV intrinsics), plus the workload
//! generators standing in for the paper's inputs (CAGE10, a 2^15-node
//! graph, a 2048-point FFT).
//!
//! Every implementation is VL-agnostic: strip-mining via `vsetvl` adapts to
//! whatever the machine's MAXVL CSR grants, so the paper's §2.1 experiment
//! (sweeping maximum vector length) needs no kernel changes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bfs;
pub mod cg;
pub mod dense;
pub mod fft;
pub mod graph;
pub mod pagerank;
pub mod sparse;
pub mod spmv;

use sdv_core::{SdvMachine, TileVm};

pub use bfs::bfs_vector_tiled;
pub use graph::{Graph, SlicedGraph};
pub use pagerank::pagerank_vector_tiled;
pub use sparse::{CsrMatrix, SellCS};
pub use spmv::spmv_vector_sell_tiled;

/// The contiguous share of `total` units owned by tile `t` of `tiles` — the
/// partition every tiled driver uses (slices for the sparse loops, vertices
/// for the streaming ones).
pub(crate) fn tile_range(total: usize, tiles: usize, t: usize) -> (usize, usize) {
    (total * t / tiles, total * (t + 1) / tiles)
}

/// One barrier-to-barrier epoch over `total` slices partitioned across the
/// machine's tiles. Each tile runs `begin`, then `slice(s, hi)` for every
/// slice `s` of its [`tile_range`] `[lo, hi)`, then `end` — the composition
/// the kernel's `*_range(lo, hi)` function is — captured one slice per pull
/// of [`SdvMachine::epoch`], so no tile ever queues more than a slice's ops.
/// The slice is the piece because it is the loop the kernels already have:
/// its ops are bounded by the slice's height and width, not by the input.
pub(crate) fn sliced_epoch(
    m: &mut SdvMachine,
    total: usize,
    mut begin: impl FnMut(&mut TileVm<'_>),
    mut slice: impl FnMut(&mut TileVm<'_>, usize, usize),
    mut end: impl FnMut(&mut TileVm<'_>),
) {
    let tiles = m.tiles();
    let mut next: Vec<usize> = (0..tiles).map(|t| tile_range(total, tiles, t).0).collect();
    m.epoch(|vm| {
        let t = vm.tile();
        let (lo, hi) = tile_range(total, tiles, t);
        if next[t] == lo {
            begin(vm);
        }
        if next[t] < hi {
            slice(vm, next[t], hi);
            next[t] += 1;
        }
        if next[t] < hi {
            return true;
        }
        end(vm);
        false
    });
}
