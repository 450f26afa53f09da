//! Compressed sparse row matrices.
//!
//! This is the `TORCH.SPARSE` stand-in from Fig. 6 of the paper: the data
//! transformer converts the task-specific subgraph into CSR adjacency
//! matrices, and every GNN method consumes them through [`CsrMatrix::spmm`].

use crate::matrix::{Matrix, MR, NR, PAR_MIN_FLOPS};
use crate::memtrack;

/// An immutable CSR sparse matrix of `f32` values.
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Build from COO entries `(row, col, value)`. Entries outside the given
    /// shape panic.
    ///
    /// Construction is a stable counting sort on rows, O(entries + n_rows),
    /// followed by a stable sort of each row's columns. Duplicate
    /// coordinates are summed left to right in input order.
    pub fn from_coo(n_rows: usize, n_cols: usize, entries: Vec<(u32, u32, f32)>) -> Self {
        for &(r, c, _) in &entries {
            assert!((r as usize) < n_rows, "row {r} out of bounds ({n_rows})");
            assert!((c as usize) < n_cols, "col {c} out of bounds ({n_cols})");
        }
        let mut indptr = offsets(n_rows, entries.iter().map(|&(r, _, _)| r));
        // Scatter into row buckets; each bucket keeps its entries' input order.
        let mut next = indptr[..n_rows].to_vec();
        let mut by_row = vec![(0u32, 0.0f32); entries.len()];
        for (r, c, v) in entries {
            let slot = &mut next[r as usize];
            by_row[*slot] = (c, v);
            *slot += 1;
        }
        let mut indices = Vec::with_capacity(by_row.len());
        let mut values: Vec<f32> = Vec::with_capacity(by_row.len());
        for r in 0..n_rows {
            let row = &mut by_row[indptr[r]..indptr[r + 1]];
            row.sort_by_key(|&(c, _)| c);
            let start = indices.len();
            indptr[r] = start;
            for &(c, v) in row.iter() {
                if indices.len() > start && indices.last() == Some(&c) {
                    *values.last_mut().expect("merge target exists") += v;
                } else {
                    indices.push(c);
                    values.push(v);
                }
            }
        }
        indptr[n_rows] = indices.len();
        Self::from_parts(n_rows, n_cols, indptr, indices, values)
    }

    /// Take ownership of finished CSR arrays and charge them to memtrack.
    fn from_parts(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        let m = CsrMatrix { n_rows, n_cols, indptr, indices, values };
        memtrack::charge(m.nbytes());
        m
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Column indices and values of a row.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let start = self.indptr[r];
        let end = self.indptr[r + 1];
        (&self.indices[start..end], &self.values[start..end])
    }

    /// Out-degree (stored entries) of a row.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Kernel for output rows `r0..`, writing into a row block of the
    /// output. Every element starts at +0.0 and adds `v * dense[c][j]` in
    /// its row's CSR order. Whole [`STRIPE`]-column stripes of an output row
    /// are summed in local accumulators and stored once; the columns past
    /// the last whole stripe accumulate in place.
    fn spmm_block(&self, dense: &Matrix, r0: usize, out_chunk: &mut [f32]) {
        let n = dense.cols();
        for (i, out_row) in out_chunk.chunks_mut(n).enumerate() {
            let (cols, vals) = self.row(r0 + i);
            let (stripes, rest) = out_row.as_chunks_mut::<STRIPE>();
            for (s, out) in stripes.iter_mut().enumerate() {
                *out = stripe(cols, vals, dense, s * STRIPE);
            }
            let j0 = n - rest.len();
            for (&c, &v) in cols.iter().zip(vals) {
                for (o, &d) in rest.iter_mut().zip(&dense.row(c as usize)[j0..]) {
                    *o += v * d;
                }
            }
        }
    }

    /// Sparse-dense product: `self @ dense`, row-block parallel above a
    /// work cutoff. Each output row is written by one thread with the
    /// sequential kernel's accumulation order, so results are bit-identical
    /// for every pool size.
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        self.spmm_impl(dense, PAR_MIN_FLOPS)
    }

    pub(crate) fn spmm_impl(&self, dense: &Matrix, par_min_flops: usize) -> Matrix {
        assert_eq!(self.n_cols, dense.rows(), "spmm shape mismatch");
        let mut out = Matrix::zeros(self.n_rows, dense.cols());
        let work = self.nnz() * dense.cols();
        Matrix::run_row_blocks(&mut out, work, par_min_flops, |r0, chunk| {
            self.spmm_block(dense, r0, chunk)
        });
        out
    }

    /// Transposed copy (used to backpropagate through `spmm`), by counting
    /// sort on columns in O(nnz + n_cols). Source rows are walked in order,
    /// so every output row lists its columns ascending, as `from_coo` would.
    pub fn transpose(&self) -> CsrMatrix {
        let indptr = offsets(self.n_cols, self.indices.iter().copied());
        let mut next = indptr[..self.n_cols].to_vec();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = &mut next[c as usize];
                indices[*slot] = r as u32;
                values[*slot] = v;
                *slot += 1;
            }
        }
        Self::from_parts(self.n_cols, self.n_rows, indptr, indices, values)
    }

    /// Dense copy (tests / tiny matrices only).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.n_rows, self.n_cols);
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                out.set(r, c as usize, out.get(r, c as usize) + v);
            }
        }
        out
    }

    /// Symmetrically normalised adjacency with self-loops:
    /// `D^{-1/2} (A + I) D^{-1/2}` over an unweighted edge list. This is the
    /// standard GCN propagation operator.
    pub fn gcn_norm(n: usize, edges: &[(u32, u32)]) -> CsrMatrix {
        let mut deg = vec![1.0f32; n]; // self loop contributes 1
        for &(s, d) in edges {
            deg[s as usize] += 1.0;
            deg[d as usize] += 1.0;
        }
        let inv_sqrt: Vec<f32> = deg.iter().map(|&d| 1.0 / d.sqrt()).collect();
        let mut entries = Vec::with_capacity(edges.len() * 2 + n);
        for &(s, d) in edges {
            let w = inv_sqrt[s as usize] * inv_sqrt[d as usize];
            entries.push((s, d, w));
            entries.push((d, s, w));
        }
        for (i, &inv) in inv_sqrt.iter().enumerate() {
            entries.push((i as u32, i as u32, inv * inv));
        }
        CsrMatrix::from_coo(n, n, entries)
    }

    /// Row-normalised adjacency `D^{-1} A` over a directed edge list, with
    /// self-loops added to rows of out-degree zero so no node loses its
    /// representation. Used per relation by RGCN.
    pub fn row_norm(n: usize, edges: &[(u32, u32)]) -> CsrMatrix {
        let mut deg = vec![0u32; n];
        for &(s, _) in edges {
            deg[s as usize] += 1;
        }
        let mut entries = Vec::with_capacity(edges.len());
        for &(s, d) in edges {
            entries.push((s, d, 1.0 / deg[s as usize] as f32));
        }
        CsrMatrix::from_coo(n, n, entries)
    }

    /// Extract the given rows into a compact `rows.len() x n_cols` matrix
    /// (used to restrict per-relation propagation to active sources).
    pub fn select_rows(&self, rows: &[u32]) -> CsrMatrix {
        let mut entries = Vec::new();
        for (new_r, &r) in rows.iter().enumerate() {
            let (cols, vals) = self.row(r as usize);
            for (&c, &v) in cols.iter().zip(vals) {
                entries.push((new_r as u32, c, v));
            }
        }
        CsrMatrix::from_coo(rows.len(), self.n_cols, entries)
    }

    /// Rows with at least one stored entry.
    pub fn active_rows(&self) -> Vec<u32> {
        (0..self.n_rows as u32).filter(|&r| self.row_nnz(r as usize) > 0).collect()
    }

    /// Logical bytes charged to memtrack.
    pub fn nbytes(&self) -> usize {
        self.indptr.capacity() * 8 + self.indices.capacity() * 4 + self.values.capacity() * 4
    }

    /// Iterate all stored entries as `(row, col, value)`.
    pub fn iter_entries(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.n_rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r as u32, c, v))
        })
    }
}

/// Width of an `spmm` register stripe: the dense tile's `MR × NR`
/// accumulators laid along one output row. Each stripe walks the CSR row
/// once, so a 32-wide row (the GNNs' hidden width) walks it once; 8-wide
/// stripes walked it four times and ran slower than summing in place.
const STRIPE: usize = MR * NR;

/// Columns `j0..j0 + STRIPE` of one `spmm` output row: the sum of
/// `v * dense[c][j]` over the row's `(c, v)` in CSR order, from +0.0.
fn stripe(cols: &[u32], vals: &[f32], dense: &Matrix, j0: usize) -> [f32; STRIPE] {
    let mut acc = [0.0f32; STRIPE];
    for (&c, &v) in cols.iter().zip(vals) {
        let d = dense.row(c as usize)[j0..].first_chunk::<STRIPE>().expect("whole stripe");
        for (a, &x) in acc.iter_mut().zip(d) {
            *a += v * x;
        }
    }
    acc
}

/// CSR row offsets (`n + 1` entries) from the row of every entry: a count
/// per row, then a running sum.
fn offsets(n: usize, rows: impl Iterator<Item = u32>) -> Vec<usize> {
    let mut indptr = vec![0usize; n + 1];
    for r in rows {
        indptr[r as usize + 1] += 1;
    }
    for i in 0..n {
        indptr[i + 1] += indptr[i];
    }
    indptr
}

impl Drop for CsrMatrix {
    fn drop(&mut self) {
        memtrack::discharge(self.nbytes());
    }
}

impl std::fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CsrMatrix({}x{}, nnz={})", self.n_rows, self.n_cols, self.nnz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::tests::{bits, cycled, zero_heavy};
    use proptest::prelude::*;

    type Parts = (Vec<usize>, Vec<u32>, Vec<u32>);

    /// The raw arrays of `m`, values as bits.
    fn parts(m: &CsrMatrix) -> Parts {
        (m.indptr.clone(), m.indices.clone(), m.values.iter().map(|v| v.to_bits()).collect())
    }

    /// The comparison-sort construction: a stable sort of all entries by
    /// (row, col), then duplicates summed left to right.
    fn sorted_reference(n_rows: usize, mut entries: Vec<(u32, u32, f32)>) -> Parts {
        entries.sort_by_key(|&(r, c, _)| (r, c));
        let mut indptr = vec![0usize; n_rows + 1];
        let (mut indices, mut values) = (Vec::new(), Vec::<f32>::new());
        let mut prev = None;
        for (r, c, v) in entries {
            if prev == Some((r, c)) {
                *values.last_mut().unwrap() += v;
            } else {
                indices.push(c);
                values.push(v);
                indptr[r as usize + 1] += 1;
                prev = Some((r, c));
            }
        }
        for i in 0..n_rows {
            indptr[i + 1] += indptr[i];
        }
        (indptr, indices, values.iter().map(|v| v.to_bits()).collect())
    }

    /// Entries folded into an `n_rows x n_cols` shape: few coordinates for
    /// many entries, so duplicates are common, and some rows stay empty.
    fn fold(n_rows: usize, n_cols: usize, raw: &[(u32, u32, f32)]) -> Vec<(u32, u32, f32)> {
        raw.iter().map(|&(r, c, v)| (r % n_rows as u32, c % n_cols as u32, v)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn from_coo_matches_stable_sort_reference(
            n_rows in 1usize..12,
            n_cols in 1usize..12,
            raw in proptest::collection::vec((0u32..16, 0u32..16, -2.0f32..2.0), 0..60),
        ) {
            let entries = fold(n_rows, n_cols, &raw);
            let m = CsrMatrix::from_coo(n_rows, n_cols, entries.clone());
            prop_assert_eq!(parts(&m), sorted_reference(n_rows, entries));
        }

        /// spmm is the CSR-order sum, bit for bit: element `(i, j)` starts
        /// at +0.0 and adds `v * x[c][j]` over row `i`'s stored `(c, v)` in
        /// order, sequential or forced parallel. Widths up to 40 cover whole
        /// register stripes and the columns past them.
        #[test]
        fn spmm_matches_csr_order_reference(
            raw in proptest::collection::vec((0u32..24, 0u32..24, zero_heavy()), 0..160),
            cols in 1usize..41,
            x_vals in proptest::collection::vec(zero_heavy(), 1..48),
        ) {
            let m = CsrMatrix::from_coo(24, 24, raw);
            let x = cycled(24, cols, &x_vals);
            let mut want = Vec::with_capacity(24 * cols);
            for i in 0..24 {
                let (cs, vs) = m.row(i);
                for j in 0..cols {
                    let mut acc = 0.0f32;
                    for (&c, &v) in cs.iter().zip(vs) {
                        acc += v * x.get(c as usize, j);
                    }
                    want.push(acc.to_bits());
                }
            }
            for cutoff in [0, usize::MAX] {
                prop_assert_eq!(&bits(&m.spmm_impl(&x, cutoff)), &want);
            }
        }

        /// `transpose` equals the old COO round trip: entries swapped, then
        /// rebuilt by a full sort.
        #[test]
        fn transpose_matches_coo_round_trip(
            n_rows in 1usize..12,
            n_cols in 1usize..12,
            raw in proptest::collection::vec((0u32..16, 0u32..16, -2.0f32..2.0), 0..60),
        ) {
            let m = CsrMatrix::from_coo(n_rows, n_cols, fold(n_rows, n_cols, &raw));
            let swapped = m.iter_entries().map(|(r, c, v)| (c, r, v)).collect();
            prop_assert_eq!(parts(&m.transpose()), sorted_reference(n_cols, swapped));
        }
    }

    #[test]
    fn empty_shapes_build_and_transpose() {
        let m = CsrMatrix::from_coo(0, 3, vec![]);
        assert_eq!(parts(&m), (vec![0], vec![], vec![]));
        assert_eq!(parts(&m.transpose()), (vec![0; 4], vec![], vec![]));
    }

    #[test]
    #[should_panic(expected = "row 2 out of bounds (2)")]
    fn from_coo_rejects_row_out_of_bounds() {
        CsrMatrix::from_coo(2, 2, vec![(0, 0, 1.0), (2, 0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "col 5 out of bounds (3)")]
    fn from_coo_rejects_col_out_of_bounds() {
        CsrMatrix::from_coo(2, 3, vec![(1, 5, 1.0)]);
    }

    #[test]
    fn from_coo_sorts_and_sums_duplicates() {
        let m = CsrMatrix::from_coo(2, 3, vec![(1, 2, 1.0), (0, 1, 2.0), (1, 2, 3.0)]);
        assert_eq!(m.nnz(), 2);
        let (cols, vals) = m.row(1);
        assert_eq!(cols, &[2]);
        assert_eq!(vals, &[4.0]);
    }

    #[test]
    fn spmm_matches_dense() {
        let m = CsrMatrix::from_coo(3, 3, vec![(0, 1, 2.0), (1, 0, 1.0), (2, 2, 3.0)]);
        let x = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 + 1.0);
        let sparse = m.spmm(&x);
        let dense = m.to_dense().matmul(&x);
        assert_eq!(sparse, dense);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = CsrMatrix::from_coo(3, 4, vec![(0, 3, 1.0), (2, 1, 5.0), (1, 0, -2.0)]);
        let tt = m.transpose().transpose();
        assert_eq!(m.to_dense(), tt.to_dense());
    }

    #[test]
    fn gcn_norm_rows_reference_values() {
        // Path graph 0-1: deg+selfloop = [2,2]; entries 1/sqrt(2*2)=0.5.
        let a = CsrMatrix::gcn_norm(2, &[(0, 1)]);
        let d = a.to_dense();
        for r in 0..2 {
            for c in 0..2 {
                assert!((d.get(r, c) - 0.5).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn row_norm_rows_sum_to_one() {
        let a = CsrMatrix::row_norm(3, &[(0, 1), (0, 2), (1, 2)]);
        let d = a.to_dense();
        let row0: f32 = (0..3).map(|c| d.get(0, c)).sum();
        let row1: f32 = (0..3).map(|c| d.get(1, c)).sum();
        assert!((row0 - 1.0).abs() < 1e-6);
        assert!((row1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn parallel_spmm_bitwise_equals_sequential() {
        // A 200-row band matrix against a 64-wide dense block is far above
        // the cutoff; forced-parallel and forced-sequential must agree
        // exactly, on pools of any size.
        let entries: Vec<(u32, u32, f32)> = (0..200u32)
            .flat_map(|r| (0..5u32).map(move |k| (r, (r + k * 17) % 200, (r + k) as f32 * 0.1)))
            .collect();
        let m = CsrMatrix::from_coo(200, 200, entries);
        let x = Matrix::from_fn(200, 64, |r, c| ((r * 3 + c * 5) % 9) as f32 - 4.0);
        let seq = m.spmm_impl(&x, usize::MAX);
        let par = m.spmm_impl(&x, 0);
        assert_eq!(seq, par);
        let p4 = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let par4 = p4.install(|| m.spmm_impl(&x, 0));
        assert_eq!(seq, par4);
    }

    #[test]
    fn memtrack_charged_and_released() {
        // Other tests allocate concurrently, so retry until a quiet window.
        let ok = (0..50).any(|_| {
            let before = crate::memtrack::live_bytes();
            let m = CsrMatrix::from_coo(10, 10, vec![(0, 0, 1.0), (5, 5, 1.0)]);
            let charged = crate::memtrack::live_bytes() >= before + m.nbytes() - 16;
            drop(m);
            charged && crate::memtrack::live_bytes() == before
        });
        assert!(ok, "memtrack never observed a balanced charge/discharge");
    }
}
