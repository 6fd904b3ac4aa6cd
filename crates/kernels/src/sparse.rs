//! Sparse-matrix formats and generators.
//!
//! * [`CsrMatrix`] — compressed sparse row, the scalar baseline format.
//! * [`SellCS`] — SELL-C-σ (sliced ELLPACK with row sorting), the
//!   long-vector format of the SpMV the paper evaluates (Gómez et al.,
//!   "Optimizing SpMV in the NEC SX-Aurora vector engine").
//! * [`CsrMatrix::cage_like`] — a synthetic stand-in for the CAGE10 input
//!   (suitesparse is not reachable from this environment): matches CAGE10's
//!   published shape (n = 11397, nnz ≈ 150645, mean ≈ 13.2 nnz/row, bounded
//!   row degree, strong near-diagonal locality with some long-range
//!   scatter), which is what SpMV's gather locality and row-length
//!   distribution — the properties timing depends on — derive from.

use sdv_engine::Rng;

/// Compressed sparse row matrix, f64 values.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row start offsets into `col_idx`/`vals`; length `nrows + 1`.
    pub row_ptr: Vec<u32>,
    /// Column index of each nonzero.
    pub col_idx: Vec<u32>,
    /// Value of each nonzero.
    pub vals: Vec<f64>,
}

impl CsrMatrix {
    /// Build from per-row (column, value) lists. Columns are sorted and
    /// deduplicated (the first value for a duplicate column wins).
    pub fn from_rows(ncols: usize, rows: Vec<Vec<(u32, f64)>>) -> Self {
        let nrows = rows.len();
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0u32);
        for mut r in rows {
            r.sort_by_key(|&(c, _)| c);
            r.dedup_by_key(|&mut (c, _)| c);
            for (c, v) in r {
                assert!((c as usize) < ncols, "column {c} out of range");
                col_idx.push(c);
                vals.push(v);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Self { nrows, ncols, row_ptr, col_idx, vals }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Length of row `r`.
    pub fn row_len(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// Reference (host-side) SpMV: `y = A x`.
    #[allow(clippy::needless_range_loop)] // row id indexes row_ptr and y together
    pub fn multiply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        let mut y = vec![0.0; self.nrows];
        for r in 0..self.nrows {
            let mut acc = 0.0;
            for k in self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize {
                acc += self.vals[k] * x[self.col_idx[k] as usize];
            }
            y[r] = acc;
        }
        y
    }

    /// Synthetic CAGE10-like matrix (see module docs). `n = 11397` and
    /// `seed` fixed reproduce the evaluation input; tests use smaller `n`.
    ///
    /// Rows are appended straight to the CSR arrays through one reused
    /// column buffer. Per row the `Rng` draws the degree, then the columns,
    /// then the values in ascending column order.
    pub fn cage_like(n: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let band = (n / 64).max(8) as i64;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        let mut cols = Vec::with_capacity(33);
        row_ptr.push(0u32);
        for r in 0..n {
            // Row degree: 5..=33, mean ~13 (clamped geometric-ish mixture).
            let deg = {
                let base = 5 + rng.below(9); // 5..=13
                let extra = if rng.chance(0.35) { rng.below(21) } else { 0 };
                (base + extra).min(33) as usize
            };
            // The diagonal, then a near-diagonal band (electrophoresis
            // locality).
            cols.clear();
            cols.push(r as u32);
            while cols.len() < deg {
                let c = if rng.chance(0.85) {
                    let off = rng.below(2 * band as u64) as i64 - band;
                    (r as i64 + off).rem_euclid(n as i64) as u32
                } else {
                    // Long-range scatter.
                    rng.below(n as u64) as u32
                };
                cols.push(c);
            }
            cols.sort_unstable();
            cols.dedup();
            for &c in &cols {
                col_idx.push(c);
                vals.push(if c as usize == r {
                    1.0 + rng.f64() // diagonally dominant-ish
                } else {
                    rng.range_f64(-0.25, 0.25)
                });
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Self { nrows: n, ncols: n, row_ptr, col_idx, vals }
    }

    /// The paper's evaluation instance: CAGE10-scale (n = 11397).
    pub fn cage10_scale(seed: u64) -> Self {
        Self::cage_like(11397, seed)
    }

    /// Uniform random matrix: every row has exactly `per_row` nonzeros at
    /// uniform columns (worst-case gather locality).
    pub fn random_uniform(n: usize, per_row: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let rows = (0..n)
            .map(|_| {
                (0..per_row)
                    .map(|_| (rng.below(n as u64) as u32, rng.range_f64(-1.0, 1.0)))
                    .collect()
            })
            .collect();
        Self::from_rows(n, rows)
    }

    /// Banded matrix with half-bandwidth `hb` (best-case locality).
    pub fn banded(n: usize, hb: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let rows = (0..n)
            .map(|r| {
                let lo = r.saturating_sub(hb);
                let hi = (r + hb + 1).min(n);
                (lo..hi).map(|c| (c as u32, rng.range_f64(-1.0, 1.0))).collect()
            })
            .collect();
        Self::from_rows(n, rows)
    }

    /// Mean nonzeros per row.
    pub fn mean_row_len(&self) -> f64 {
        self.nnz() as f64 / self.nrows as f64
    }

    /// A symmetric positive-definite banded matrix (strictly diagonally
    /// dominant), the standard test operator for iterative solvers like CG.
    pub fn spd_banded(n: usize, hb: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        // Off-diagonals, mirrored to keep symmetry.
        for i in 0..n {
            for j in (i + 1)..(i + hb + 1).min(n) {
                let v = rng.range_f64(-1.0, 1.0);
                rows[i].push((j as u32, v));
                rows[j].push((i as u32, v));
            }
        }
        // Diagonal dominates its row: SPD by Gershgorin.
        for (i, row) in rows.iter_mut().enumerate() {
            let s: f64 = row.iter().map(|(_, v)| v.abs()).sum();
            row.push((i as u32, s + 1.0 + rng.f64()));
        }
        Self::from_rows(n, rows)
    }
}

/// SELL-C-σ: rows are sorted by length within windows of σ rows, grouped
/// into slices of C rows, and each slice is stored column-major padded to
/// its longest row — so a vector unit processes C rows per instruction with
/// unit-stride value/column loads and one gather for `x`.
#[derive(Debug, Clone)]
pub struct SellCS {
    /// Slice height (rows per slice) — matched to the machine's VLMAX.
    pub c: usize,
    /// Number of rows of the original matrix.
    pub nrows: usize,
    /// Row permutation: `perm[i]` = original row stored at sorted position i.
    pub perm: Vec<u32>,
    /// Per-slice offset into `cols`/`vals`, length `num_slices + 1`.
    pub slice_ptr: Vec<u64>,
    /// Per-slice padded width (longest row in the slice).
    pub slice_width: Vec<u32>,
    /// Column indices, column-major within each slice, padded entries point
    /// at column 0.
    pub cols: Vec<u32>,
    /// Values, padded entries are 0.0 (so padded FMAs are harmless).
    pub vals: Vec<f64>,
}

impl SellCS {
    /// Convert from CSR with slice height `c` and sorting window `sigma`
    /// (use `sigma = nrows` for full sorting, `sigma = c` for local).
    pub fn from_csr(m: &CsrMatrix, c: usize, sigma: usize) -> Self {
        assert!(c > 0 && sigma > 0, "C and sigma must be positive");
        let n = m.nrows;
        let mut perm: Vec<u32> = (0..n as u32).collect();
        // Sort rows by descending length within sigma windows.
        for w in perm.chunks_mut(sigma) {
            w.sort_by_key(|&r| std::cmp::Reverse(m.row_len(r as usize)));
        }
        let num_slices = n.div_ceil(c);
        let slice_width: Vec<u32> = perm
            .chunks(c)
            .map(|rows| rows.iter().map(|&r| m.row_len(r as usize)).max().unwrap_or(0) as u32)
            .collect();
        // Size the layout once: slice s holds width × height entries.
        let mut slice_ptr = Vec::with_capacity(num_slices + 1);
        let mut stored = 0;
        slice_ptr.push(0u64);
        for (rows, &w) in perm.chunks(c).zip(&slice_width) {
            stored += w as usize * rows.len();
            slice_ptr.push(stored as u64);
        }
        let mut cols = Vec::with_capacity(stored);
        let mut vals = Vec::with_capacity(stored);
        for (rows, &w) in perm.chunks(c).zip(&slice_width) {
            for j in 0..w as usize {
                for &r in rows {
                    let (start, end) =
                        (m.row_ptr[r as usize] as usize, m.row_ptr[r as usize + 1] as usize);
                    if start + j < end {
                        cols.push(m.col_idx[start + j]);
                        vals.push(m.vals[start + j]);
                    } else {
                        cols.push(0);
                        vals.push(0.0);
                    }
                }
            }
        }
        Self { c, nrows: n, perm, slice_ptr, slice_width, cols, vals }
    }

    /// Number of slices.
    pub fn num_slices(&self) -> usize {
        self.slice_width.len()
    }

    /// Stored entries including padding.
    pub fn stored(&self) -> usize {
        self.cols.len()
    }

    /// Padding overhead: stored / nnz.
    pub fn fill_ratio(&self, nnz: usize) -> f64 {
        self.stored() as f64 / nnz as f64
    }

    /// Reference SpMV through the SELL layout (validates the conversion).
    pub fn multiply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        for s in 0..self.num_slices() {
            let rows = &self.perm[s * self.c..((s + 1) * self.c).min(self.nrows)];
            let h = rows.len();
            let base = self.slice_ptr[s] as usize;
            for j in 0..self.slice_width[s] as usize {
                for (i, &r) in rows.iter().enumerate() {
                    let k = base + j * h + i;
                    y[r as usize] += self.vals[k] * x[self.cols[k] as usize];
                }
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9 * (1.0 + x.abs()))
    }

    /// `cage_like` as it was before it appended straight to the CSR arrays:
    /// one `Vec` per row, sorted there and again in `from_rows`.
    fn cage_like_reference(n: usize, seed: u64) -> CsrMatrix {
        let mut rng = Rng::new(seed);
        let mut rows = Vec::with_capacity(n);
        for r in 0..n {
            let deg = {
                let base = 5 + rng.below(9);
                let extra = if rng.chance(0.35) { rng.below(21) } else { 0 };
                (base + extra).min(33) as usize
            };
            let mut cols = Vec::with_capacity(deg);
            cols.push((r as u32, 0.0));
            let band = (n / 64).max(8) as i64;
            while cols.len() < deg {
                let c = if rng.chance(0.85) {
                    let off = rng.below(2 * band as u64) as i64 - band;
                    (r as i64 + off).rem_euclid(n as i64) as u32
                } else {
                    rng.below(n as u64) as u32
                };
                cols.push((c, 0.0));
            }
            cols.sort_by_key(|&(c, _)| c);
            cols.dedup_by_key(|&mut (c, _)| c);
            for (c, v) in cols.iter_mut() {
                *v = if *c as usize == r { 1.0 + rng.f64() } else { rng.range_f64(-0.25, 0.25) };
            }
            rows.push(cols);
        }
        CsrMatrix::from_rows(n, rows)
    }

    /// `SellCS::from_csr` as it was before it sized `cols` and `vals` once.
    fn from_csr_reference(m: &CsrMatrix, c: usize, sigma: usize) -> SellCS {
        let n = m.nrows;
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for w in perm.chunks_mut(sigma) {
            w.sort_by_key(|&r| std::cmp::Reverse(m.row_len(r as usize)));
        }
        let (mut slice_ptr, mut slice_width) = (vec![0u64], Vec::new());
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for s in 0..n.div_ceil(c) {
            let rows = &perm[s * c..((s + 1) * c).min(n)];
            let w = rows.iter().map(|&r| m.row_len(r as usize)).max().unwrap_or(0);
            for j in 0..w {
                for &r in rows {
                    let (start, end) =
                        (m.row_ptr[r as usize] as usize, m.row_ptr[r as usize + 1] as usize);
                    cols.push(if start + j < end { m.col_idx[start + j] } else { 0 });
                    vals.push(if start + j < end { m.vals[start + j] } else { 0.0 });
                }
            }
            slice_width.push(w as u32);
            slice_ptr.push(slice_ptr[s] + (w * rows.len()) as u64);
        }
        SellCS { c, nrows: n, perm, slice_ptr, slice_width, cols, vals }
    }

    fn bits(vs: &[f64]) -> Vec<u64> {
        vs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn cage_like_and_from_csr_equal_their_per_row_references() {
        for n in [11397, 1200] {
            let (m, want) = (CsrMatrix::cage_like(n, 0xCA6E), cage_like_reference(n, 0xCA6E));
            assert_eq!((m.nrows, m.ncols), (want.nrows, want.ncols), "n={n}");
            assert_eq!(m.row_ptr, want.row_ptr, "n={n}");
            assert_eq!(m.col_idx, want.col_idx, "n={n}");
            assert_eq!(bits(&m.vals), bits(&want.vals), "n={n}");
            for (c, sigma) in [(256, 256), (64, n), (100, 1)] {
                let (s, want) = (SellCS::from_csr(&m, c, sigma), from_csr_reference(&m, c, sigma));
                let what = format!("n={n} C={c} sigma={sigma}");
                assert_eq!((s.c, s.nrows, &s.perm), (want.c, want.nrows, &want.perm), "{what}");
                assert_eq!(s.slice_ptr, want.slice_ptr, "{what}");
                assert_eq!(s.slice_width, want.slice_width, "{what}");
                assert_eq!(s.cols, want.cols, "{what}");
                assert_eq!(bits(&s.vals), bits(&want.vals), "{what}");
                assert_eq!(s.cols.capacity(), s.cols.len(), "{what}: sized once");
            }
        }
    }

    #[test]
    fn from_rows_sorts_and_dedups() {
        let m = CsrMatrix::from_rows(
            4,
            vec![
                vec![(2, 1.0), (0, 2.0), (2, 3.0)],
                vec![],
                vec![(3, 4.0)],
                vec![(1, 5.0), (0, 6.0)],
            ],
        );
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row_len(0), 2);
        assert_eq!(m.row_len(1), 0);
        assert_eq!(m.col_idx[0], 0);
        assert_eq!(m.vals[1], 1.0, "first duplicate wins");
    }

    #[test]
    fn multiply_identity() {
        let n = 8;
        let rows = (0..n).map(|i| vec![(i as u32, 1.0)]).collect();
        let m = CsrMatrix::from_rows(n, rows);
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        assert_eq!(m.multiply(&x), x);
    }

    #[test]
    fn cage_like_statistics_match_cage10() {
        let m = CsrMatrix::cage_like(2000, 42);
        let mean = m.mean_row_len();
        assert!((9.0..18.0).contains(&mean), "mean row length {mean} should be near 13");
        let max = (0..m.nrows).map(|r| m.row_len(r)).max().unwrap();
        let min = (0..m.nrows).map(|r| m.row_len(r)).min().unwrap();
        assert!(max <= 33, "max {max}");
        assert!(min >= 1, "min {min}");
        // Diagonal present and locality: most entries near the diagonal.
        let mut near = 0usize;
        for r in 0..m.nrows {
            for k in m.row_ptr[r] as usize..m.row_ptr[r + 1] as usize {
                let c = m.col_idx[k] as i64;
                let d = (r as i64 - c).unsigned_abs() as usize;
                if d <= m.nrows / 32 || d >= m.nrows - m.nrows / 32 {
                    near += 1;
                }
            }
        }
        assert!(near as f64 / m.nnz() as f64 > 0.7, "banded locality expected");
    }

    #[test]
    fn cage10_scale_dimensions() {
        let m = CsrMatrix::cage10_scale(7);
        assert_eq!(m.nrows, 11397);
        let nnz = m.nnz();
        assert!((110_000..200_000).contains(&nnz), "CAGE10 has ~150k nnz, got {nnz}");
    }

    #[test]
    fn generators_are_deterministic() {
        let a = CsrMatrix::cage_like(500, 9);
        let b = CsrMatrix::cage_like(500, 9);
        assert_eq!(a.col_idx, b.col_idx);
        assert_eq!(a.vals, b.vals);
    }

    #[test]
    fn banded_has_expected_profile() {
        let m = CsrMatrix::banded(100, 2, 1);
        assert_eq!(m.row_len(50), 5);
        assert_eq!(m.row_len(0), 3);
        assert_eq!(m.row_len(99), 3);
    }

    #[test]
    fn sell_multiply_matches_csr_cage() {
        let m = CsrMatrix::cage_like(1000, 3);
        let x: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        for (c, sigma) in [(16, 1000), (64, 64), (256, 1000), (8, 8)] {
            let s = SellCS::from_csr(&m, c, sigma);
            assert!(close(&s.multiply(&x), &m.multiply(&x)), "C={c} sigma={sigma}");
        }
    }

    #[test]
    fn sell_multiply_matches_csr_uniform() {
        let m = CsrMatrix::random_uniform(300, 7, 5);
        let x: Vec<f64> = (0..300).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let s = SellCS::from_csr(&m, 32, 300);
        assert!(close(&s.multiply(&x), &m.multiply(&x)));
    }

    #[test]
    fn sell_sigma_sorting_reduces_padding() {
        let m = CsrMatrix::cage_like(2000, 11);
        let unsorted = SellCS::from_csr(&m, 256, 1); // sigma=1: no sorting
        let sorted = SellCS::from_csr(&m, 256, 2000); // full sort
        assert!(
            sorted.stored() <= unsorted.stored(),
            "sorting must not increase padding: {} vs {}",
            sorted.stored(),
            unsorted.stored()
        );
        assert!(sorted.fill_ratio(m.nnz()) < 2.2, "fill {:.2}", sorted.fill_ratio(m.nnz()));
    }

    #[test]
    fn sell_perm_is_a_permutation() {
        let m = CsrMatrix::cage_like(777, 2);
        let s = SellCS::from_csr(&m, 64, 128);
        let mut p = s.perm.clone();
        p.sort_unstable();
        assert_eq!(p, (0..777).collect::<Vec<u32>>());
    }

    #[test]
    fn sell_handles_ragged_last_slice() {
        let m = CsrMatrix::banded(100, 3, 2); // 100 rows, C=64 -> slices of 64 and 36
        let s = SellCS::from_csr(&m, 64, 100);
        assert_eq!(s.num_slices(), 2);
        let x = vec![1.0; 100];
        assert!(close(&s.multiply(&x), &m.multiply(&x)));
    }

    #[test]
    fn empty_rows_are_padded_safely() {
        let m = CsrMatrix::from_rows(4, vec![vec![(0, 1.0)], vec![], vec![], vec![(3, 2.0)]]);
        let s = SellCS::from_csr(&m, 4, 4);
        let x = vec![1.0, 1.0, 1.0, 1.0];
        assert!(close(&s.multiply(&x), &m.multiply(&x)));
    }
}
