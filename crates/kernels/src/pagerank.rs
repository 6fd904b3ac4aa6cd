//! PageRank.
//!
//! Pull-based PageRank with damping: each iteration computes per-vertex
//! contributions `c[u] = pr[u]/deg[u]` (a unit-stride vector loop) and then
//! `pr'[v] = (1-d)/n + d * Σ c[u]` over v's neighbours — an SpMV-shaped
//! gather over the sliced adjacency, exactly the "slightly more
//! computational intensity than BFS" profile the paper describes.
//!
//! [`pagerank_vector_tiled`] runs the same contribution and pull loops over
//! per-tile chunks (disjoint vertex and row ranges) of an [`SdvMachine`],
//! then adds a merge phase: per-tile partial rank-mass reductions that tile 0
//! combines, a deliberate cross-tile read of freshly written lines that
//! exercises the MESI directory.
//!
//! Padding lanes point at a phantom vertex `n` whose contribution slot is
//! pinned to 0.0, so padded gathers are harmless.

use crate::graph::{Graph, SlicedGraph};
use crate::{sliced_epoch, tile_range};
use sdv_core::{SdvMachine, Vm};
use sdv_rvv::{Lmul, Reg, Sew};

// Register conventions.
const V_PR: Reg = 1;
const V_DEG: Reg = 2;
const V_C: Reg = 3;
const V_NBR: Reg = 4;
const V_NOFF: Reg = 5;
const V_ACC: Reg = 6;
const V_RED: Reg = 7;

/// Simulated-memory layout of one PageRank instance.
#[derive(Debug, Clone)]
pub struct PrDevice {
    /// Vertex count.
    pub n: usize,
    /// Damping factor.
    pub d: f64,
    /// Iterations to run.
    pub iters: usize,
    /// Slice height.
    pub c: usize,
    /// Slice count.
    pub num_slices: usize,
    /// Per-slice element offsets (u64\[num_slices+1\]).
    pub slice_ptr: u64,
    /// Per-slice widths (u32\[num_slices\]).
    pub slice_width: u64,
    /// Sliced adjacency padded with the phantom vertex `n` (u32\[stored\]).
    pub sadj: u64,
    /// CSR row pointer (scalar path).
    pub row_ptr: u64,
    /// CSR adjacency (scalar path).
    pub adj: u64,
    /// Degrees as f64 (f64\[n\]), 1.0 for isolated vertices (their pr never
    /// spreads; dividing by 1 keeps the vector loop branch-free).
    pub deg: u64,
    /// Current ranks (f64\[n\]).
    pub pr: u64,
    /// Next ranks (f64\[n\]).
    pub pr_new: u64,
    /// Contributions (f64\[n+1\]; slot n pinned to 0.0).
    pub contrib: u64,
}

/// Allocate and populate a PageRank instance (untimed setup).
pub fn setup_pagerank<V: Vm>(vm: &mut V, g: &Graph, c: usize, d: f64, iters: usize) -> PrDevice {
    let sliced = SlicedGraph::new(g, c, g.n as u32);
    let dev = PrDevice {
        n: g.n,
        d,
        iters,
        c,
        num_slices: sliced.num_slices(),
        slice_ptr: vm.alloc(8 * (sliced.num_slices() + 1), 64),
        slice_width: vm.alloc(4 * sliced.num_slices(), 64),
        sadj: vm.alloc(4 * sliced.stored().max(1), 64),
        row_ptr: vm.alloc(4 * (g.n + 1), 64),
        adj: vm.alloc(4 * g.num_edges().max(1), 64),
        deg: vm.alloc(8 * g.n, 64),
        pr: vm.alloc(8 * g.n, 64),
        pr_new: vm.alloc(8 * g.n, 64),
        contrib: vm.alloc(8 * (g.n + 1), 64),
    };
    let m = vm.mem_mut();
    m.poke_u64_slice(dev.slice_ptr, &sliced.slice_ptr);
    m.poke_u32_slice(dev.slice_width, &sliced.slice_width);
    m.poke_u32_slice(dev.sadj, &sliced.adj);
    m.poke_u32_slice(dev.row_ptr, &g.row_ptr);
    m.poke_u32_slice(dev.adj, &g.adj);
    let init = 1.0 / g.n as f64;
    for v in 0..g.n {
        m.poke_f64(dev.deg + 8 * v as u64, (g.degree(v) as f64).max(1.0));
        m.poke_f64(dev.pr + 8 * v as u64, init);
    }
    m.poke_f64(dev.contrib + 8 * g.n as u64, 0.0); // phantom slot
    dev
}

/// Read back the rank vector (from `pr` — both kernels leave the final
/// result there by swapping buffers an even/odd-aware way).
pub fn read_pr<V: Vm>(vm: &V, dev: &PrDevice) -> Vec<f64> {
    let src = if dev.iters.is_multiple_of(2) { dev.pr } else { dev.pr_new };
    vm.mem().peek_f64_vec(src, dev.n)
}

/// Scalar pull PageRank (timed).
pub fn pagerank_scalar<V: Vm>(vm: &mut V, dev: &PrDevice) {
    let base_rank = (1.0 - dev.d) / dev.n as f64;
    let (mut cur, mut next) = (dev.pr, dev.pr_new);
    for _it in 0..dev.iters {
        // Contribution phase.
        for v in 0..dev.n as u64 {
            let p = vm.load_f64(cur + 8 * v);
            let g = vm.load_f64(dev.deg + 8 * v);
            vm.store_f64(dev.contrib + 8 * v, p / g);
            vm.fp_ops(1);
            vm.int_ops(1);
            vm.branch(v + 1 != dev.n as u64);
        }
        // Pull phase.
        let mut start = vm.load_u32(dev.row_ptr) as u64;
        for v in 0..dev.n as u64 {
            let end = vm.load_u32(dev.row_ptr + 4 * (v + 1)) as u64;
            let mut acc = 0.0f64;
            vm.int_ops(2);
            for k in start..end {
                let u = vm.load_u32(dev.adj + 4 * k) as u64;
                let c = vm.load_f64(dev.contrib + 8 * u);
                acc += c;
                vm.fp_ops(1);
                vm.int_ops(2);
                vm.branch(k + 1 != end);
            }
            vm.store_f64(next + 8 * v, dev.d.mul_add(acc, base_rank));
            vm.fp_ops(2);
            vm.branch(v + 1 != dev.n as u64);
            start = end;
        }
        std::mem::swap(&mut cur, &mut next);
        vm.int_ops(2);
    }
}

/// Long-vector pull PageRank over the sliced adjacency (timed): the
/// full-range composition of the partition units the tiled driver runs.
pub fn pagerank_vector<V: Vm>(vm: &mut V, dev: &PrDevice) {
    let base_rank = (1.0 - dev.d) / dev.n as f64;
    let (mut cur, mut next) = (dev.pr, dev.pr_new);
    for _it in 0..dev.iters {
        pagerank_contrib_range(vm, dev, cur, 0, dev.n);
        pagerank_pull_range(vm, dev, next, base_rank, 0, dev.num_slices);
        std::mem::swap(&mut cur, &mut next);
        vm.int_ops(2);
    }
    vm.fence();
}

/// Tiled pull PageRank with a merge phase. Per iteration: a per-tile
/// contribution chunk, a barrier, a per-tile pull chunk, a barrier. After
/// the last iteration every tile reduces its chunk's rank mass into a
/// per-tile slot and tile 0 merges the partials — the returned total is
/// ~1.0 and doubles as a cross-tile coherence exercise.
pub fn pagerank_vector_tiled(m: &mut SdvMachine, dev: &PrDevice) -> f64 {
    let tiles = m.tiles();
    let mass = m.alloc(8 * tiles, 64);
    let base_rank = (1.0 - dev.d) / dev.n as f64;
    let (mut cur, mut next) = (dev.pr, dev.pr_new);
    for _it in 0..dev.iters {
        // The contribution strip loop is short: one piece per tile.
        m.epoch(|vm| {
            let (lo, hi) = tile_range(dev.n, tiles, vm.tile());
            pagerank_contrib_range(vm, dev, cur, lo, hi);
            false
        });
        sliced_epoch(
            m,
            dev.num_slices,
            |_| {},
            |vm, s, hi| pagerank_pull_slice(vm, dev, next, base_rank, s, hi),
            |_| {},
        );
        std::mem::swap(&mut cur, &mut next);
    }
    // Merge phase, step 1: per-tile partial rank mass (one piece per tile).
    m.epoch(|vm| {
        let t = vm.tile();
        let (lo, hi) = tile_range(dev.n, tiles, t);
        pagerank_mass_range(vm, cur, mass, t, lo, hi);
        false
    });
    // Merge phase, step 2: tile 0 combines the partials (scalar loads of
    // lines the other tiles just wrote — real recall traffic).
    let mut total = 0.0f64;
    for t in 0..tiles as u64 {
        total += m.load_f64(mass + 8 * t);
        m.fp_ops(1);
        m.branch(t + 1 != tiles as u64);
    }
    m.store_f64(mass, total);
    m.barrier();
    total
}

/// Contribution phase over the vertices `[lo, hi)`: the unit-stride
/// streaming divide `contrib[v] = pr[v]/deg[v]` (disjoint writes).
fn pagerank_contrib_range<V: Vm>(vm: &mut V, dev: &PrDevice, cur: u64, lo: usize, hi: usize) {
    let mut v = lo as u64;
    while (v as usize) < hi {
        let vl = vm.setvl(hi - v as usize, Sew::E64, Lmul::M1) as u64;
        vm.vle(V_PR, cur + 8 * v);
        vm.vle(V_DEG, dev.deg + 8 * v);
        vm.vfdiv_vv(V_C, V_PR, V_DEG);
        vm.vse(V_C, dev.contrib + 8 * v);
        vm.int_ops(2);
        v += vl;
        vm.branch((v as usize) < hi);
    }
}

/// Pull phase over the slices `[slice_lo, slice_hi)`: SpMV-shaped
/// gather-accumulate of contributions, writing the owned rows of `next`.
fn pagerank_pull_range<V: Vm>(
    vm: &mut V,
    dev: &PrDevice,
    next: u64,
    base_rank: f64,
    slice_lo: usize,
    slice_hi: usize,
) {
    for s in slice_lo..slice_hi {
        pagerank_pull_slice(vm, dev, next, base_rank, s, slice_hi);
    }
}

/// Slice `s` of a range that ends at `slice_hi`: the one pull loop body.
fn pagerank_pull_slice<V: Vm>(
    vm: &mut V,
    dev: &PrDevice,
    next: u64,
    base_rank: f64,
    s: usize,
    slice_hi: usize,
) {
    let s = s as u64;
    let base = vm.load_u64(dev.slice_ptr + 8 * s);
    let w = vm.load_u32(dev.slice_width + 4 * s) as u64;
    let row0 = s * dev.c as u64;
    let h = (dev.n as u64 - row0).min(dev.c as u64);
    vm.int_ops(4);
    let mut off = 0u64;
    while off < h {
        let vl = vm.setvl((h - off) as usize, Sew::E64, Lmul::M1) as u64;
        vm.vfmv_vf(V_ACC, 0.0);
        for j in 0..w {
            let eoff = base + j * h + off;
            vm.vlwu(V_NBR, dev.sadj + 4 * eoff);
            vm.vsll_vx(V_NOFF, V_NBR, 3);
            vm.vlxe(V_C, dev.contrib, V_NOFF);
            vm.vfadd_vv(V_ACC, V_ACC, V_C);
            vm.int_ops(3);
            vm.branch(j + 1 != w);
        }
        vm.vfmul_vf(V_ACC, V_ACC, dev.d);
        vm.vfadd_vf(V_ACC, V_ACC, base_rank);
        vm.vse(V_ACC, next + 8 * (row0 + off));
        vm.int_ops(2);
        off += vl;
        vm.branch(off < h);
    }
    vm.branch(s + 1 != slice_hi as u64);
}

/// One tile's merge partial: rank mass of `[lo, hi)` into `mass[t]`.
fn pagerank_mass_range<V: Vm>(vm: &mut V, cur: u64, mass: u64, t: usize, lo: usize, hi: usize) {
    vm.vfmv_sf(V_RED, 0.0);
    let mut v = lo as u64;
    while (v as usize) < hi {
        let vl = vm.setvl(hi - v as usize, Sew::E64, Lmul::M1) as u64;
        vm.vle(V_PR, cur + 8 * v);
        vm.vfredsum(V_RED, V_PR, V_RED);
        vm.int_ops(1);
        v += vl;
        vm.branch((v as usize) < hi);
    }
    let part = vm.vfmv_fs(V_RED); // scalar<->vector sync
    vm.store_f64(mass + 8 * t as u64, part);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdv_core::FunctionalMachine;

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
    }

    fn check_both(g: &Graph, c: usize, iters: usize) {
        let want = g.pagerank_reference(0.85, iters);

        let mut vm = FunctionalMachine::new(256 << 20);
        let dev = setup_pagerank(&mut vm, g, c, 0.85, iters);
        pagerank_scalar(&mut vm, &dev);
        assert!(close(&read_pr(&vm, &dev), &want, 1e-12), "scalar mismatch");

        let mut vm = FunctionalMachine::new(256 << 20);
        let dev = setup_pagerank(&mut vm, g, c, 0.85, iters);
        pagerank_vector(&mut vm, &dev);
        // Vector accumulates in slice-column order: tiny FP reassociation.
        assert!(close(&read_pr(&vm, &dev), &want, 1e-9), "vector mismatch (c={c})");
    }

    #[test]
    fn uniform_graph_ranks() {
        check_both(&Graph::uniform(400, 8, 3), 256, 10);
    }

    #[test]
    fn rmat_graph_ranks() {
        check_both(&Graph::rmat(9, 8, 7), 64, 8);
    }

    #[test]
    fn odd_iteration_count_readback() {
        check_both(&Graph::uniform(200, 6, 5), 32, 7);
    }

    #[test]
    fn star_graph_center_wins() {
        let edges: Vec<(u32, u32)> = (1..32).map(|i| (0, i)).collect();
        let g = Graph::from_edges(32, &edges);
        let mut vm = FunctionalMachine::new(64 << 20);
        let dev = setup_pagerank(&mut vm, &g, 16, 0.85, 20);
        pagerank_vector(&mut vm, &dev);
        let pr = read_pr(&vm, &dev);
        let max_idx = (0..32).max_by(|&a, &b| pr[a].partial_cmp(&pr[b]).unwrap()).unwrap();
        assert_eq!(max_idx, 0);
    }

    #[test]
    fn vector_respects_maxvl_cap() {
        let g = Graph::uniform(300, 6, 1);
        let want = g.pagerank_reference(0.85, 6);
        for cap in [8, 64, 256] {
            let mut vm = FunctionalMachine::new(128 << 20);
            vm.set_maxvl_cap(cap);
            let dev = setup_pagerank(&mut vm, &g, 256, 0.85, 6);
            pagerank_vector(&mut vm, &dev);
            assert!(close(&read_pr(&vm, &dev), &want, 1e-9), "cap={cap}");
        }
    }

    #[test]
    fn isolated_vertices_keep_base_rank() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2)]);
        let mut vm = FunctionalMachine::new(32 << 20);
        let dev = setup_pagerank(&mut vm, &g, 4, 0.85, 10);
        pagerank_vector(&mut vm, &dev);
        let pr = read_pr(&vm, &dev);
        let base = (1.0 - 0.85) / 6.0;
        assert!((pr[4] - base).abs() < 1e-12, "isolated vertex rank {}", pr[4]);
        assert!((pr[5] - base).abs() < 1e-12);
    }

    #[test]
    fn vector_op_stream_is_pinned() {
        // Recorded before the contrib and pull loops were shared with the
        // tiled driver: retired ops (functional), cycles (timed).
        let g = Graph::uniform(400, 8, 3);
        let mut f = FunctionalMachine::new(16 << 20);
        let dev = setup_pagerank(&mut f, &g, 256, 0.85, 3);
        pagerank_vector(&mut f, &dev);
        assert_eq!(f.ops(), 912);
        let mut t = SdvMachine::new(16 << 20);
        let dev = setup_pagerank(&mut t, &g, 256, 0.85, 3);
        pagerank_vector(&mut t, &dev);
        assert_eq!(t.try_finish().expect("clean run"), 13390);
    }

    #[test]
    fn tiled_pagerank_matches_reference_on_1_2_4_tiles() {
        let g = Graph::uniform(400, 8, 3);
        let want = g.pagerank_reference(0.85, 10);
        for tiles in [1, 2, 4] {
            let mut cfg = sdv_uarch::TimingConfig::default();
            cfg.mem.tiles = tiles;
            let mut m = SdvMachine::with_config(512 << 20, cfg);
            let dev = setup_pagerank(&mut m, &g, 256, 0.85, 10);
            let mass = pagerank_vector_tiled(&mut m, &dev);
            m.try_finish().expect("clean run");
            assert!((mass - 1.0).abs() < 0.2, "rank mass ~1, got {mass}");
            assert!(
                close(&read_pr(&m, &dev), &want, 1e-9),
                "tiled PageRank mismatch at {tiles} tiles"
            );
        }
    }
}
