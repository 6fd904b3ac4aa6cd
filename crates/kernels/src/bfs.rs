//! Breadth-First Search.
//!
//! * [`bfs_scalar`] — the classic queue-based top-down BFS on the scalar
//!   core (the paper's scalar baseline).
//! * [`bfs_vector`] — a long-vector level-synchronous BFS over a sliced
//!   (SELL-style) adjacency layout, after Vizcaíno's graph-v formulation:
//!   each level scans vertex slices, builds a frontier mask with a vector
//!   compare, gathers neighbour distances, and conditionally scatters the
//!   next level — masked gathers/scatters and `vpopc` synchronizations are
//!   exactly the operations whose latency behaviour the paper studies.
//! * [`bfs_vector_tiled`] — the same level body partitioned by slice range
//!   across the tiles of an [`SdvMachine`], one barrier per level. Tiles
//!   scatter `level+1` into the shared `dist[]` directly (same-value writes
//!   are idempotent) and per-tile discovered counts merge by sum for the
//!   termination decision.
//!
//! Distances are u64 with `INF = u64::MAX`; padding lanes point at the BFS
//! source (never INF once the search starts), so they can never trigger a
//! spurious update.

use crate::graph::{Graph, SlicedGraph};
use crate::{sliced_epoch, tile_range};
use sdv_core::{SdvMachine, Vm};
use sdv_rvv::{Lmul, Reg, Sew};

/// "Unvisited" marker.
pub const INF: u64 = u64::MAX;

// Register conventions.
const V_DIST: Reg = 1;
const V_NBR: Reg = 2;
const V_NOFF: Reg = 3;
const V_DN: Reg = 4;
const M_FRONT: Reg = 5;
const M_UPD: Reg = 6;
const V_CNT: Reg = 7;
const V_LVL: Reg = 8;
const V_RED: Reg = 9;
const M_NEW: Reg = 10;

/// Simulated-memory layout of one BFS instance.
#[derive(Debug, Clone)]
pub struct BfsDevice {
    /// Vertex count.
    pub n: usize,
    /// Search source.
    pub src: usize,
    /// Slice height of the sliced layout.
    pub c: usize,
    /// Number of slices.
    pub num_slices: usize,
    /// Sliced layout: per-slice element offsets (u64\[num_slices+1\]).
    pub slice_ptr: u64,
    /// Sliced layout: per-slice widths (u32\[num_slices\]).
    pub slice_width: u64,
    /// Sliced adjacency, column-major, padded with `src` (u32\[stored\]).
    pub sadj: u64,
    /// CSR row pointer for the scalar version (u32\[n+1\]).
    pub row_ptr: u64,
    /// CSR adjacency for the scalar version (u32\[edges\]).
    pub adj: u64,
    /// Distance/level array (u64\[n\]).
    pub dist: u64,
    /// Scalar worklist (u32\[n\]).
    pub queue: u64,
}

/// Allocate and populate a BFS instance (untimed setup). The sliced layout
/// uses `src` as the padding sentinel.
pub fn setup_bfs<V: Vm>(vm: &mut V, g: &Graph, c: usize, src: usize) -> BfsDevice {
    assert!(src < g.n, "source must be a vertex");
    let sliced = SlicedGraph::new(g, c, src as u32);
    let dev = BfsDevice {
        n: g.n,
        src,
        c,
        num_slices: sliced.num_slices(),
        slice_ptr: vm.alloc(8 * (sliced.num_slices() + 1), 64),
        slice_width: vm.alloc(4 * sliced.num_slices(), 64),
        sadj: vm.alloc(4 * sliced.stored().max(1), 64),
        row_ptr: vm.alloc(4 * (g.n + 1), 64),
        adj: vm.alloc(4 * g.num_edges().max(1), 64),
        dist: vm.alloc(8 * g.n, 64),
        queue: vm.alloc(4 * g.n, 64),
    };
    let m = vm.mem_mut();
    m.poke_u64_slice(dev.slice_ptr, &sliced.slice_ptr);
    m.poke_u32_slice(dev.slice_width, &sliced.slice_width);
    m.poke_u32_slice(dev.sadj, &sliced.adj);
    m.poke_u32_slice(dev.row_ptr, &g.row_ptr);
    m.poke_u32_slice(dev.adj, &g.adj);
    dev
}

/// Read back the level array.
pub fn read_levels<V: Vm>(vm: &V, dev: &BfsDevice) -> Vec<u64> {
    vm.mem().peek_u64_vec(dev.dist, dev.n)
}

/// Scalar queue-based BFS (timed, including distance initialization).
pub fn bfs_scalar<V: Vm>(vm: &mut V, dev: &BfsDevice) {
    // Initialize distances.
    for v in 0..dev.n as u64 {
        vm.store_u64(dev.dist + 8 * v, INF);
        vm.int_ops(1);
    }
    vm.store_u64(dev.dist + 8 * dev.src as u64, 0);
    vm.store_u32(dev.queue, dev.src as u32);
    let mut head = 0u64;
    let mut tail = 1u64;
    while head < tail {
        let u = vm.load_u32(dev.queue + 4 * head) as u64;
        head += 1;
        let du = vm.load_u64(dev.dist + 8 * u);
        let start = vm.load_u32(dev.row_ptr + 4 * u) as u64;
        let end = vm.load_u32(dev.row_ptr + 4 * (u + 1)) as u64;
        vm.int_ops(4);
        for k in start..end {
            let v = vm.load_u32(dev.adj + 4 * k) as u64;
            let dv = vm.load_u64(dev.dist + 8 * v);
            vm.int_ops(2);
            vm.branch(dv != INF);
            if dv == INF {
                vm.store_u64(dev.dist + 8 * v, du + 1);
                vm.store_u32(dev.queue + 4 * tail, v as u32);
                tail += 1;
                vm.int_ops(2);
            }
        }
        vm.branch(head != tail);
    }
}

/// Long-vector level-synchronous BFS over the sliced layout (timed): the
/// full-range composition of the partition units the tiled driver runs.
pub fn bfs_vector<V: Vm>(vm: &mut V, dev: &BfsDevice) {
    bfs_init_range(vm, dev, 0, dev.n);
    let mut level = 0u64;
    loop {
        let updates = bfs_level_range(vm, dev, level, 0, dev.num_slices, false);
        level += 1;
        vm.branch(updates != 0);
        if updates == 0 || level as usize > dev.n {
            break;
        }
    }
    vm.fence();
}

/// Tiled level-synchronous BFS: slices partition across tiles, one barrier
/// per level. Returns the number of levels run.
pub fn bfs_vector_tiled(m: &mut SdvMachine, dev: &BfsDevice) -> u64 {
    let tiles = m.tiles();
    // The init strip loop is short: one piece per tile.
    m.epoch(|vm| {
        let (lo, hi) = tile_range(dev.n, tiles, vm.tile());
        bfs_init_range(vm, dev, lo, hi);
        false
    });

    let mut level = 0u64;
    loop {
        let mut updates = 0u64;
        sliced_epoch(
            m,
            dev.num_slices,
            |vm| bfs_level_begin(vm, level),
            |vm, s, hi| bfs_level_slice(vm, dev, level, s, hi, tiles > 1),
            |vm| updates += bfs_level_end(vm),
        );
        level += 1;
        // Termination depends only on the sum's zero-ness, which is
        // capture-order invariant (every discovery is counted by at least
        // one tile, and only discoveries are counted).
        if updates == 0 || level as usize > dev.n {
            break;
        }
    }
    level
}

/// Fill `dist[lo..hi)` with INF using vector stores; the range owning the
/// source then seeds it (ownership, not tile 0 — a later-captured owner
/// must not wipe the seed).
fn bfs_init_range<V: Vm>(vm: &mut V, dev: &BfsDevice, lo: usize, hi: usize) {
    let maxvl = vm.maxvl(Sew::E64);
    vm.setvl(maxvl, Sew::E64, Lmul::M1);
    vm.vmv_vx(V_DIST, INF);
    let mut v = lo as u64;
    while (v as usize) < hi {
        let vl = vm.setvl(hi - v as usize, Sew::E64, Lmul::M1) as u64;
        vm.vse(V_DIST, dev.dist + 8 * v);
        v += vl;
        vm.int_ops(1);
        vm.branch((v as usize) < hi);
    }
    if (lo..hi).contains(&dev.src) {
        vm.store_u64(dev.dist + 8 * dev.src as u64, 0);
    }
}

/// One BFS level over the slices `[slice_lo, slice_hi)`: scan for frontier
/// lanes, scatter `level+1` to newly reached neighbours, and return the
/// range's update count (a scalar<->vector sync).
fn bfs_level_range<V: Vm>(
    vm: &mut V,
    dev: &BfsDevice,
    level: u64,
    slice_lo: usize,
    slice_hi: usize,
    peers: bool,
) -> u64 {
    bfs_level_begin(vm, level);
    for s in slice_lo..slice_hi {
        bfs_level_slice(vm, dev, level, s, slice_hi, peers);
    }
    bfs_level_end(vm)
}

/// Per-level setup: zero the update counter, broadcast level+1.
fn bfs_level_begin<V: Vm>(vm: &mut V, level: u64) {
    let maxvl = vm.maxvl(Sew::E64);
    vm.setvl(maxvl, Sew::E64, Lmul::M1);
    vm.vmv_vx(V_CNT, 0);
    vm.vmv_vx(V_LVL, level + 1);
}

/// Slice `s` of a range that ends at `slice_hi`: the one level loop body.
///
/// `peers` says another tile may discover the same vertex in this level.
/// The update mask then accepts `level+1` as well as `INF`, so a vertex
/// another tile has just reached classifies identically — and the whole op
/// stream stays identical — however the tiles' slices interleave in capture;
/// the re-scatter writes the same value.
fn bfs_level_slice<V: Vm>(
    vm: &mut V,
    dev: &BfsDevice,
    level: u64,
    s: usize,
    slice_hi: usize,
    peers: bool,
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
        vm.vle(V_DIST, dev.dist + 8 * (row0 + off));
        vm.vmseq_vx(0, V_DIST, level); // v0 = frontier lanes
        let front = vm.vpopc(0); // scalar<->vector sync
        vm.branch(front == 0);
        if front != 0 {
            vm.vmand(M_FRONT, 0, 0); // save frontier mask
            for j in 0..w {
                let eoff = base + j * h + off;
                vm.vmand(0, M_FRONT, M_FRONT); // v0 = frontier
                vm.vmv_vx(V_NBR, 0);
                vm.vlwu_m(V_NBR, dev.sadj + 4 * eoff);
                vm.vsll_vx(V_NOFF, V_NBR, 3);
                vm.vmv_vx(V_DN, 0);
                vm.vlxe_m(V_DN, dev.dist, V_NOFF); // gather dist[nbr]
                vm.vmseq_vx(M_UPD, V_DN, INF); // unvisited?
                if peers {
                    vm.vmseq_vx(M_NEW, V_DN, level + 1);
                    vm.vmor(M_UPD, M_UPD, M_NEW);
                }
                vm.vmand(0, M_UPD, M_FRONT); // v0 = updates
                vm.vsxe_m(V_LVL, dev.dist, V_NOFF); // scatter level+1
                vm.vadd_vx_m(V_CNT, V_CNT, 1); // count them
                vm.int_ops(3);
                vm.branch(j + 1 != w);
            }
        }
        off += vl;
        vm.branch(off < h);
    }
    vm.branch(s + 1 != slice_hi as u64);
}

/// Did anything update? Reduce the counter and read it back.
fn bfs_level_end<V: Vm>(vm: &mut V) -> u64 {
    let maxvl = vm.maxvl(Sew::E64);
    vm.setvl(maxvl, Sew::E64, Lmul::M1);
    vm.vmv_sx(V_RED, 0);
    vm.vredsum(V_RED, V_CNT, V_RED);
    vm.vmv_xs(V_RED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdv_core::FunctionalMachine;

    fn reference(g: &Graph, src: usize) -> Vec<u64> {
        g.bfs_reference(src).iter().map(|&l| if l == u32::MAX { INF } else { l as u64 }).collect()
    }

    fn check_both(g: &Graph, c: usize, src: usize) {
        let want = reference(g, src);

        let mut vm = FunctionalMachine::new(256 << 20);
        let dev = setup_bfs(&mut vm, g, c, src);
        bfs_scalar(&mut vm, &dev);
        assert_eq!(read_levels(&vm, &dev), want, "scalar mismatch");

        let mut vm = FunctionalMachine::new(256 << 20);
        let dev = setup_bfs(&mut vm, g, c, src);
        bfs_vector(&mut vm, &dev);
        assert_eq!(read_levels(&vm, &dev), want, "vector mismatch (c={c})");
    }

    #[test]
    fn path_graph_levels() {
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        check_both(&Graph::from_edges(10, &edges), 4, 0);
    }

    #[test]
    fn uniform_graph_levels() {
        check_both(&Graph::uniform(700, 6, 3), 256, 0);
    }

    #[test]
    fn rmat_graph_levels() {
        check_both(&Graph::rmat(9, 8, 5), 64, 1);
    }

    #[test]
    fn disconnected_vertices_stay_inf() {
        let g = Graph::from_edges(8, &[(0, 1), (1, 2), (4, 5)]);
        let mut vm = FunctionalMachine::new(16 << 20);
        let dev = setup_bfs(&mut vm, &g, 4, 0);
        bfs_vector(&mut vm, &dev);
        let l = read_levels(&vm, &dev);
        assert_eq!(l[2], 2);
        assert_eq!(l[4], INF);
        assert_eq!(l[7], INF);
    }

    #[test]
    fn nonzero_source() {
        check_both(&Graph::uniform(300, 5, 11), 32, 123);
    }

    #[test]
    fn vector_respects_maxvl_cap() {
        let g = Graph::uniform(500, 6, 9);
        let want = reference(&g, 2);
        for cap in [8, 32, 256] {
            let mut vm = FunctionalMachine::new(128 << 20);
            vm.set_maxvl_cap(cap);
            let dev = setup_bfs(&mut vm, &g, 256, 2);
            bfs_vector(&mut vm, &dev);
            assert_eq!(read_levels(&vm, &dev), want, "cap={cap}");
        }
    }

    #[test]
    fn star_graph_one_level() {
        let edges: Vec<(u32, u32)> = (1..64).map(|i| (0, i)).collect();
        check_both(&Graph::from_edges(64, &edges), 16, 0);
    }

    #[test]
    fn vector_op_stream_is_pinned() {
        // Recorded before the level body was shared with the tiled driver:
        // retired ops on the functional machine, cycles on the timed one.
        let g = Graph::uniform(700, 6, 3);
        let mut f = FunctionalMachine::new(16 << 20);
        let dev = setup_bfs(&mut f, &g, 256, 0);
        bfs_vector(&mut f, &dev);
        assert_eq!(f.ops(), 3609);
        let mut t = SdvMachine::new(16 << 20);
        let dev = setup_bfs(&mut t, &g, 256, 0);
        bfs_vector(&mut t, &dev);
        assert_eq!(t.try_finish().expect("clean run"), 51615);
    }

    fn machine(tiles: usize) -> SdvMachine {
        let mut cfg = sdv_uarch::TimingConfig::default();
        cfg.mem.tiles = tiles;
        SdvMachine::with_config(512 << 20, cfg)
    }

    #[test]
    fn tiled_bfs_matches_reference_on_1_2_4_tiles() {
        let g = Graph::uniform(700, 6, 3);
        let want = reference(&g, 0);
        for tiles in [1, 2, 4] {
            let mut m = machine(tiles);
            let dev = setup_bfs(&mut m, &g, 256, 0);
            bfs_vector_tiled(&mut m, &dev);
            m.try_finish().expect("clean run");
            assert_eq!(read_levels(&m, &dev), want, "tiled BFS mismatch at {tiles} tiles");
        }
    }

    #[test]
    fn tiled_kernels_are_deterministic_across_capture_orders() {
        let g = Graph::uniform(600, 6, 9);
        let run = |order: Option<Vec<usize>>| {
            let mut m = machine(4);
            if let Some(o) = order {
                m.set_capture_order(o);
            }
            let dev = setup_bfs(&mut m, &g, 256, 2);
            bfs_vector_tiled(&mut m, &dev);
            let cycles = m.try_finish().expect("clean run");
            (cycles, read_levels(&m, &dev), format!("{:?}", m.stats()))
        };
        let a = run(None);
        let b = run(Some(vec![2, 0, 3, 1]));
        assert_eq!(a, b, "capture order must not change BFS cycles, levels, or stats");
    }
}
