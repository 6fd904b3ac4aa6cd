//! Sparse matrix-vector multiplication.
//!
//! Three implementations, mirroring the paper's SpMV (Gómez et al.'s
//! long-vector SpMV, run on the CAGE10 matrix):
//!
//! * [`spmv_scalar`] — textbook CSR on the scalar core,
//! * [`spmv_vector_sell`] — SELL-C-σ: each vector instruction processes one
//!   slice column (unit-stride values/columns, one gather for `x`),
//!   strip-mined VL-agnostically so the MAXVL CSR knob shortens vectors
//!   without code changes,
//! * [`spmv_vector_csr`] — row-at-a-time CSR gather+reduce (the naive
//!   vectorization; kept as an ablation — short rows mean short vectors and
//!   a scalar synchronization per row),
//! * [`spmv_vector_sell_tiled`] — the SELL kernel over one contiguous slice
//!   range per tile of an [`SdvMachine`]; slices own disjoint output rows,
//!   one barrier at the end.

use crate::sliced_epoch;
use crate::sparse::{CsrMatrix, SellCS};
use sdv_core::{SdvMachine, Vm};
use sdv_rvv::{Lmul, Reg, Sew};

// Register conventions.
const V_ACC: Reg = 1;
const V_COL: Reg = 2;
const V_XV: Reg = 3;
const V_AV: Reg = 4;
const V_PERM: Reg = 5;
const V_SEED: Reg = 6;
const V_PROD: Reg = 7;

/// Simulated-memory layout of one SpMV problem instance.
#[derive(Debug, Clone)]
pub struct SpmvDevice {
    /// Rows (= columns; the evaluation matrices are square).
    pub n: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// CSR row pointer (u32\[n+1\]).
    pub row_ptr: u64,
    /// CSR column indices (u32\[nnz\]).
    pub col_idx: u64,
    /// CSR values (f64\[nnz\]).
    pub vals: u64,
    /// SELL slice height.
    pub sell_c: usize,
    /// SELL slice count.
    pub num_slices: usize,
    /// SELL per-slice element offsets (u64\[num_slices+1\]).
    pub sell_slice_ptr: u64,
    /// SELL per-slice widths (u32\[num_slices\]).
    pub sell_width: u64,
    /// SELL column indices, column-major (u32\[stored\]).
    pub sell_cols: u64,
    /// SELL values, column-major (f64\[stored\]).
    pub sell_vals: u64,
    /// SELL row permutation (u32\[n\]).
    pub sell_perm: u64,
    /// Input vector (f64\[n\]).
    pub x: u64,
    /// Output vector (f64\[n\]).
    pub y: u64,
}

/// Allocate and populate a problem instance (untimed — workload setup).
/// `x[i] = 1/(1+i)` gives a deterministic, well-conditioned input.
pub fn setup_spmv<V: Vm>(vm: &mut V, mat: &CsrMatrix, sell: &SellCS) -> SpmvDevice {
    assert_eq!(mat.nrows, mat.ncols, "evaluation matrices are square");
    assert_eq!(sell.nrows, mat.nrows, "formats must describe the same matrix");
    let n = mat.nrows;
    let dev = SpmvDevice {
        n,
        nnz: mat.nnz(),
        row_ptr: vm.alloc(4 * (n + 1), 64),
        col_idx: vm.alloc(4 * mat.nnz(), 64),
        vals: vm.alloc(8 * mat.nnz(), 64),
        sell_c: sell.c,
        num_slices: sell.num_slices(),
        sell_slice_ptr: vm.alloc(8 * (sell.num_slices() + 1), 64),
        sell_width: vm.alloc(4 * sell.num_slices(), 64),
        sell_cols: vm.alloc(4 * sell.stored(), 64),
        sell_vals: vm.alloc(8 * sell.stored(), 64),
        sell_perm: vm.alloc(4 * n, 64),
        x: vm.alloc(8 * n, 64),
        y: vm.alloc(8 * n, 64),
    };
    let m = vm.mem_mut();
    m.poke_u32_slice(dev.row_ptr, &mat.row_ptr);
    m.poke_u32_slice(dev.col_idx, &mat.col_idx);
    m.poke_f64_slice(dev.vals, &mat.vals);
    m.poke_u64_slice(dev.sell_slice_ptr, &sell.slice_ptr);
    m.poke_u32_slice(dev.sell_width, &sell.slice_width);
    m.poke_u32_slice(dev.sell_cols, &sell.cols);
    m.poke_f64_slice(dev.sell_vals, &sell.vals);
    m.poke_u32_slice(dev.sell_perm, &sell.perm);
    for i in 0..n {
        m.poke_f64(dev.x + 8 * i as u64, 1.0 / (1.0 + i as f64));
    }
    dev
}

/// The host-side expected result for the device's `x`.
pub fn expected_y(mat: &CsrMatrix) -> Vec<f64> {
    let x: Vec<f64> = (0..mat.ncols).map(|i| 1.0 / (1.0 + i as f64)).collect();
    mat.multiply(&x)
}

/// Read back the computed `y`.
pub fn read_y<V: Vm>(vm: &V, dev: &SpmvDevice) -> Vec<f64> {
    vm.mem().peek_f64_vec(dev.y, dev.n)
}

/// Scalar CSR SpMV.
pub fn spmv_scalar<V: Vm>(vm: &mut V, dev: &SpmvDevice) {
    let mut start = vm.load_u32(dev.row_ptr) as u64;
    for r in 0..dev.n as u64 {
        let end = vm.load_u32(dev.row_ptr + 4 * (r + 1)) as u64;
        let mut acc = 0.0f64;
        vm.int_ops(2); // row bookkeeping
        for k in start..end {
            let c = vm.load_u32(dev.col_idx + 4 * k) as u64;
            let a = vm.load_f64(dev.vals + 8 * k);
            let xv = vm.load_f64(dev.x + 8 * c);
            acc = a.mul_add(xv, acc);
            vm.fp_ops(1); // fused multiply-add
            vm.int_ops(2); // index increments / address generation
            vm.branch(k + 1 != end);
        }
        vm.store_f64(dev.y + 8 * r, acc);
        vm.branch(r + 1 != dev.n as u64);
        start = end;
    }
}

/// Long-vector SELL-C-σ SpMV (the paper's vector implementation), reading
/// the input vector at `dev.x` and writing `dev.y`.
pub fn spmv_vector_sell<V: Vm>(vm: &mut V, dev: &SpmvDevice) {
    spmv_vector_sell_at(vm, dev, dev.x, dev.y)
}

/// SELL-C-σ SpMV with caller-chosen input/output vectors (`y = A x`) — lets
/// iterative solvers (see `crate::cg`) apply the operator to arbitrary
/// device vectors.
pub fn spmv_vector_sell_at<V: Vm>(vm: &mut V, dev: &SpmvDevice, x: u64, y: u64) {
    spmv_vector_sell_range(vm, dev, x, y, 0, dev.num_slices)
}

/// SELL-C-σ SpMV over a contiguous slice range `[slice_lo, slice_hi)` — the
/// tiled partition unit. Slices own disjoint output rows (the SELL
/// permutation maps each slice's rows to distinct `y` entries), so tiles
/// processing disjoint slice ranges never write the same line of `y`.
/// `spmv_vector_sell_range(vm, dev, x, y, 0, dev.num_slices)` produces
/// exactly the single-machine op stream.
pub fn spmv_vector_sell_range<V: Vm>(
    vm: &mut V,
    dev: &SpmvDevice,
    x: u64,
    y: u64,
    slice_lo: usize,
    slice_hi: usize,
) {
    debug_assert!(slice_lo <= slice_hi && slice_hi <= dev.num_slices);
    for s in slice_lo..slice_hi {
        sell_slice(vm, dev, x, y, s, slice_hi);
    }
    vm.fence();
}

/// Slice `s` of a range that ends at `slice_hi`: the one SELL loop body.
fn sell_slice<V: Vm>(vm: &mut V, dev: &SpmvDevice, x: u64, y: u64, s: usize, slice_hi: usize) {
    let s = s as u64;
    let base = vm.load_u64(dev.sell_slice_ptr + 8 * s);
    let w = vm.load_u32(dev.sell_width + 4 * s) as u64;
    let row0 = s * dev.sell_c as u64;
    let h = (dev.n as u64 - row0).min(dev.sell_c as u64);
    vm.int_ops(4);
    let mut off = 0u64;
    while off < h {
        let vl = vm.setvl((h - off) as usize, Sew::E64, Lmul::M1) as u64;
        vm.vfmv_vf(V_ACC, 0.0);
        for j in 0..w {
            let eoff = base + j * h + off;
            // Unit-stride u32 columns, widened to u64 lanes.
            vm.vlwu(V_COL, dev.sell_cols + 4 * eoff);
            // Scale to byte offsets and gather x.
            vm.vsll_vx(V_COL, V_COL, 3);
            vm.vlxe(V_XV, x, V_COL);
            // Unit-stride values; fused multiply-accumulate.
            vm.vle(V_AV, dev.sell_vals + 8 * eoff);
            vm.vfmacc_vv(V_ACC, V_AV, V_XV);
            vm.int_ops(3); // j loop: address updates
            vm.branch(j + 1 != w);
        }
        // Scatter the slice's results to y[perm[...]].
        vm.vlwu(V_PERM, dev.sell_perm + 4 * (row0 + off));
        vm.vsll_vx(V_PERM, V_PERM, 3);
        vm.vsxe(V_ACC, y, V_PERM);
        vm.int_ops(2);
        off += vl;
        vm.branch(off < h);
    }
    vm.branch(s + 1 != slice_hi as u64);
}

/// Tiled SELL-C-σ SpMV: each tile processes a contiguous slice range
/// (disjoint output rows through the SELL permutation), captured a slice at
/// a time, then one barrier.
pub fn spmv_vector_sell_tiled(m: &mut SdvMachine, dev: &SpmvDevice) {
    sliced_epoch(
        m,
        dev.num_slices,
        |_| {},
        |vm, s, hi| sell_slice(vm, dev, dev.x, dev.y, s, hi),
        |vm| vm.fence(),
    );
}

/// Row-at-a-time vector CSR SpMV (ablation: short vectors + per-row sync).
pub fn spmv_vector_csr<V: Vm>(vm: &mut V, dev: &SpmvDevice) {
    let mut start = vm.load_u32(dev.row_ptr) as u64;
    for r in 0..dev.n as u64 {
        let end = vm.load_u32(dev.row_ptr + 4 * (r + 1)) as u64;
        vm.vfmv_sf(V_SEED, 0.0);
        let mut off = start;
        vm.int_ops(2);
        while off < end {
            let vl = vm.setvl((end - off) as usize, Sew::E64, Lmul::M1) as u64;
            vm.vlwu(V_COL, dev.col_idx + 4 * off);
            vm.vsll_vx(V_COL, V_COL, 3);
            vm.vlxe(V_XV, dev.x, V_COL);
            vm.vle(V_AV, dev.vals + 8 * off);
            vm.vfmul_vv(V_PROD, V_AV, V_XV);
            vm.vfredsum(V_SEED, V_PROD, V_SEED);
            vm.int_ops(2);
            off += vl;
            vm.branch(off < end);
        }
        // Scalar reads the row result: a per-row synchronization.
        let acc = vm.vfmv_fs(V_SEED);
        vm.store_f64(dev.y + 8 * r, acc);
        vm.branch(r + 1 != dev.n as u64);
        start = end;
    }
    vm.fence();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdv_core::FunctionalMachine;

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9 * (1.0 + x.abs().max(y.abs())))
    }

    fn check_all(mat: &CsrMatrix, c: usize) {
        let sell = SellCS::from_csr(mat, c, mat.nrows);
        let want = expected_y(mat);

        let mut vm = FunctionalMachine::new(64 << 20);
        let dev = setup_spmv(&mut vm, mat, &sell);
        spmv_scalar(&mut vm, &dev);
        assert!(close(&read_y(&vm, &dev), &want), "scalar mismatch");

        let mut vm = FunctionalMachine::new(64 << 20);
        let dev = setup_spmv(&mut vm, mat, &sell);
        spmv_vector_sell(&mut vm, &dev);
        assert!(close(&read_y(&vm, &dev), &want), "SELL mismatch (c={c})");

        let mut vm = FunctionalMachine::new(64 << 20);
        let dev = setup_spmv(&mut vm, mat, &sell);
        spmv_vector_csr(&mut vm, &dev);
        assert!(close(&read_y(&vm, &dev), &want), "vector-CSR mismatch");
    }

    #[test]
    fn all_impls_match_reference_cage() {
        check_all(&CsrMatrix::cage_like(500, 42), 256);
    }

    #[test]
    fn all_impls_match_reference_uniform() {
        check_all(&CsrMatrix::random_uniform(300, 9, 5), 64);
    }

    #[test]
    fn all_impls_match_reference_banded() {
        check_all(&CsrMatrix::banded(200, 4, 7), 32);
    }

    #[test]
    fn sell_handles_slice_taller_than_remaining_rows() {
        check_all(&CsrMatrix::cage_like(100, 1), 256); // single ragged slice
    }

    #[test]
    fn vector_sell_respects_maxvl_cap() {
        let mat = CsrMatrix::cage_like(400, 9);
        let sell = SellCS::from_csr(&mat, 256, 400);
        let want = expected_y(&mat);
        for cap in [8, 16, 64, 256] {
            let mut vm = FunctionalMachine::new(64 << 20);
            vm.set_maxvl_cap(cap);
            let dev = setup_spmv(&mut vm, &mat, &sell);
            spmv_vector_sell(&mut vm, &dev);
            assert!(close(&read_y(&vm, &dev), &want), "cap={cap}");
        }
    }

    #[test]
    fn vector_work_scales_with_nnz_not_n() {
        // Op accounting sanity: SELL SpMV vector-element count tracks stored
        // entries (incl. padding), not n^2.
        let mat = CsrMatrix::cage_like(600, 3);
        let sell = SellCS::from_csr(&mat, 256, 600);
        let mut vm = FunctionalMachine::new(64 << 20);
        let dev = setup_spmv(&mut vm, &mat, &sell);
        spmv_vector_sell(&mut vm, &dev);
        let elems = vm.stats().get("func.vector_elems");
        // 4 vector ops per (slice-column x element) plus overheads.
        assert!(elems as usize >= 4 * sell.stored());
        assert!((elems as usize) < 8 * sell.stored() + 16 * mat.nrows);
    }

    #[test]
    fn tiled_spmv_matches_reference_on_1_2_4_tiles() {
        let mat = CsrMatrix::cage_like(500, 42);
        let sell = SellCS::from_csr(&mat, 256, mat.nrows);
        let want = expected_y(&mat);
        for tiles in [1, 2, 4] {
            let mut cfg = sdv_uarch::TimingConfig::default();
            cfg.mem.tiles = tiles;
            let mut m = SdvMachine::with_config(512 << 20, cfg);
            let dev = setup_spmv(&mut m, &mat, &sell);
            spmv_vector_sell_tiled(&mut m, &dev);
            m.try_finish().expect("clean run");
            assert!(close(&read_y(&m, &dev), &want), "tiled SpMV mismatch at {tiles} tiles");
        }
    }
}
