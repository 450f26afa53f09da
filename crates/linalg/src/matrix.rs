//! Dense row-major `f32` matrices with memory accounting.
//!
//! All dense buffers used by the GML substrate go through [`Matrix`], which
//! charges its backing storage to [`crate::memtrack`] so that experiment
//! harnesses can report training memory the way the paper does.
//!
//! All three dense products run one row kernel, the ikj loop of
//! [`Matrix::matmul`]. [`Matrix::matmul_nt`] transposes its right operand
//! and [`Matrix::matmul_tn`] its left operand first, then call the same
//! kernel. The inner loop walks an output row, so it vectorises without
//! reassociating a sum. Each output element still adds its products in
//! increasing `k` from +0.0, exactly the order of a naive dot product.
//! The transposes cost O(size) against the O(size · width) product.
//!
//! The kernel runs data-parallel over row blocks of the output once the
//! arithmetic volume crosses `PAR_MIN_FLOPS` (tiny shapes stay on the
//! sequential path, so they pay no scheduling overhead). Each output row is
//! produced by exactly one thread in that same order, so parallel and
//! sequential results — and runs on pools of any size — are bit-identical.

use crate::memtrack;
use rayon::prelude::*;
use serde::de::{self, Deserializer};
use serde::ser::{SerializeStruct, Serializer};
use serde::{Deserialize, Serialize};

/// Arithmetic volume (multiply-adds) below which the matmul/spmm kernels
/// stay sequential: at this size the work is cheaper than fork/join
/// scheduling. Shared with [`crate::csr::CsrMatrix::spmm`].
pub(crate) const PAR_MIN_FLOPS: usize = 1 << 16;

/// Number of output-row blocks to split a parallel kernel into, per worker
/// thread; >1 lets work stealing rebalance rows of uneven cost.
pub(crate) const PAR_PIECES_PER_THREAD: usize = 4;

/// Pairwise (block) summation of `f(x)` over `xs`: splits in half down to a
/// fixed base block, giving O(log n) rounding-error growth instead of the
/// O(n) of a running sum. The combine tree depends only on the length, so
/// every caller — sequential or parallel, any pool size — agrees
/// bit-for-bit.
pub(crate) fn pairwise_sum_by(xs: &[f32], f: &impl Fn(f32) -> f32) -> f32 {
    const BASE: usize = 128;
    if xs.len() <= BASE {
        xs.iter().map(|&v| f(v)).sum()
    } else {
        let mid = xs.len() / 2;
        pairwise_sum_by(&xs[..mid], f) + pairwise_sum_by(&xs[mid..], f)
    }
}

/// A dense row-major matrix of `f32`.
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        memtrack::charge(rows * cols * 4);
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        memtrack::charge(rows * cols * 4);
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Build from an existing buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        memtrack::charge(data.capacity() * 4);
        Matrix { rows, cols, data }
    }

    /// Build element-wise from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// (rows, cols).
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Split `out`'s buffer into row blocks and run `kernel(first_row,
    /// block)` over them — in parallel above the flop cutoff, sequentially
    /// (as one whole block, with zero scheduling overhead) below it. Shared
    /// by the matmul kernels here and `CsrMatrix::spmm`, so cutoff and
    /// block-sizing policy live in one place.
    pub(crate) fn run_row_blocks(
        out: &mut Matrix,
        flops: usize,
        par_min_flops: usize,
        kernel: impl Fn(usize, &mut [f32]) + Sync + Send,
    ) {
        let (rows, cols) = out.shape();
        if rows == 0 || cols == 0 {
            return;
        }
        if flops < par_min_flops {
            kernel(0, &mut out.data);
            return;
        }
        let pieces = PAR_PIECES_PER_THREAD * rayon::current_num_threads();
        let block_rows = rows.div_ceil(pieces.max(1)).max(1);
        out.data
            .par_chunks_mut(block_rows * cols)
            .enumerate()
            .for_each(|(block, chunk)| kernel(block * block_rows, chunk));
    }

    /// The row kernel behind every dense product: ikj over rows `r0..` of
    /// `self @ other`, writing into `out_chunk`. Output element `(i, j)`
    /// starts at +0.0 and adds `self[i][k] * other[k][j]` for `k` in
    /// increasing order. The inner loop runs along an output row, so it
    /// vectorises without reassociating any sum. Terms with
    /// `self[i][k] == 0.0` are skipped; for finite inputs that is exact,
    /// because adding ±0.0 never changes an accumulator that starts at +0.0
    /// (it cannot become −0.0).
    fn matmul_block(&self, other: &Matrix, r0: usize, out_chunk: &mut [f32]) {
        let n = other.cols;
        for (i, out_row) in out_chunk.chunks_mut(n).enumerate() {
            let a_row = self.row(r0 + i);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * n..(k + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// `self @ other` (ikj row kernel, row-block parallel; adequate at
    /// reproduction scale).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_impl(other, PAR_MIN_FLOPS)
    }

    pub(crate) fn matmul_impl(&self, other: &Matrix, par_min_flops: usize) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let flops = self.rows * self.cols * other.cols;
        Self::run_row_blocks(&mut out, flops, par_min_flops, |r0, chunk| {
            self.matmul_block(other, r0, chunk)
        });
        out
    }

    /// `selfᵀ @ other`: the row kernel over a transposed copy of `self`.
    /// Output element `(i, j)` sums `self[k][i] * other[k][j]` in increasing
    /// `k`, the order of a dot product down column `i`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        self.matmul_tn_impl(other, PAR_MIN_FLOPS)
    }

    pub(crate) fn matmul_tn_impl(&self, other: &Matrix, par_min_flops: usize) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        self.transpose().matmul_impl(other, par_min_flops)
    }

    /// `self @ otherᵀ`: the row kernel against a transposed copy of `other`.
    /// Output element `(i, j)` sums `self[i][k] * other[j][k]` in increasing
    /// `k`, the order of the row-by-row dot product.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        self.matmul_nt_impl(other, PAR_MIN_FLOPS)
    }

    pub(crate) fn matmul_nt_impl(&self, other: &Matrix, par_min_flops: usize) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        self.matmul_impl(&other.transpose(), par_min_flops)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise in-place addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise in-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Element-wise in-place scaling.
    pub fn scale_assign(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&v| f(v)).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Per-row argmax (ties resolve to the lowest index).
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0usize;
                let mut best_v = f32::NEG_INFINITY;
                for (i, &v) in row.iter().enumerate() {
                    if v > best_v {
                        best_v = v;
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Frobenius norm, accumulated by pairwise (block) summation so the
    /// result is stable in `f32` and identical for every pool size.
    pub fn frobenius_norm(&self) -> f32 {
        pairwise_sum_by(&self.data, &|v| v * v).sqrt()
    }

    /// Sum of all elements, accumulated by pairwise (block) summation.
    pub fn sum(&self) -> f32 {
        pairwise_sum_by(&self.data, &|v| v)
    }

    /// Copy the rows indexed by `rows` into a new matrix.
    pub fn gather_rows(&self, rows: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r as usize));
        }
        out
    }

    /// Euclidean distance between two rows of (possibly different) matrices.
    pub fn row_l2(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum::<f32>().sqrt()
    }

    /// Dot product of two row slices.
    pub fn row_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(&x, &y)| x * y).sum()
    }

    /// Logical size of the backing buffer in bytes, as charged to memtrack.
    pub fn nbytes(&self) -> usize {
        self.data.capacity() * 4
    }
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix::from_vec(self.rows, self.cols, self.data.clone())
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        memtrack::discharge(self.data.capacity() * 4);
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data == other.data
    }
}

impl Serialize for Matrix {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("Matrix", 3)?;
        st.serialize_field("rows", &self.rows)?;
        st.serialize_field("cols", &self.cols)?;
        st.serialize_field("data", &self.data)?;
        st.end()
    }
}

impl<'de> Deserialize<'de> for Matrix {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Raw {
            rows: usize,
            cols: usize,
            data: Vec<f32>,
        }
        let raw = Raw::deserialize(deserializer)?;
        if raw.data.len() != raw.rows * raw.cols {
            return Err(de::Error::custom("matrix buffer size mismatch"));
        }
        Ok(Matrix::from_vec(raw.rows, raw.cols, raw.data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::Just;

    /// Matrix entries for the kernel oracles: exact zeros of both signs
    /// half the time, otherwise ordinary values or values tiny enough that
    /// their products underflow to ±0.0.
    fn zero_heavy() -> impl Strategy<Value = f32> {
        prop_oneof![Just(0.0f32), Just(-0.0f32), -4.0f32..4.0, -1e-25f32..1e-25]
    }

    /// A matrix dimension, 1 a quarter of the time (1×n and n×1 shapes).
    fn dim() -> impl Strategy<Value = usize> {
        prop_oneof![Just(1usize), 1usize..20, 1usize..20, 1usize..20]
    }

    /// A `rows x cols` matrix filled by cycling through `vals`.
    fn cycled(rows: usize, cols: usize, vals: &[f32]) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| vals[(r * cols + c) % vals.len()])
    }

    /// The naive product in dot order: element `(i, j)` starts at +0.0 and
    /// adds `a(i, k) * b(k, j)` for every `k` in increasing order, zeros
    /// included. Returned as bits.
    fn dot_order(
        (rows, inner, cols): (usize, usize, usize),
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
    ) -> Vec<u32> {
        let mut out = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                let mut acc = 0.0f32;
                for k in 0..inner {
                    acc += a(i, k) * b(k, j);
                }
                out.push(acc.to_bits());
            }
        }
        out
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every dense product, sequential or forced parallel, equals the
        /// dot-order reference bit for bit.
        #[test]
        fn kernels_match_dot_order_reference(
            rows in dim(),
            inner in dim(),
            cols in dim(),
            a_vals in proptest::collection::vec(zero_heavy(), 1..48),
            b_vals in proptest::collection::vec(zero_heavy(), 1..48),
        ) {
            let shape = (rows, inner, cols);
            let a = cycled(rows, inner, &a_vals);
            let b = cycled(inner, cols, &b_vals);
            let want = dot_order(shape, |i, k| a.get(i, k), |k, j| b.get(k, j));
            let b_t = cycled(cols, inner, &b_vals);
            let want_nt = dot_order(shape, |i, k| a.get(i, k), |k, j| b_t.get(j, k));
            let a_t = cycled(inner, rows, &a_vals);
            let want_tn = dot_order(shape, |i, k| a_t.get(k, i), |k, j| b.get(k, j));
            for cutoff in [0, usize::MAX] {
                prop_assert_eq!(&bits(&a.matmul_impl(&b, cutoff)), &want);
                prop_assert_eq!(&bits(&a.matmul_nt_impl(&b_t, cutoff)), &want_nt);
                prop_assert_eq!(&bits(&a_t.matmul_tn_impl(&b, cutoff)), &want_tn);
            }
        }
    }

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 10 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn argmax_rows_picks_max() {
        let a = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.5, 2.0, -1.0, 1.0]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn gather_rows_copies_selected() {
        let a = Matrix::from_fn(4, 2, |r, _| r as f32);
        let g = a.gather_rows(&[3, 1]);
        assert_eq!(g.as_slice(), &[3.0, 3.0, 1.0, 1.0]);
    }

    #[test]
    fn memtrack_charged_and_released() {
        // Other tests allocate concurrently, so retry until a quiet window.
        let ok = (0..50).any(|_| {
            let before = crate::memtrack::live_bytes();
            let m = Matrix::zeros(100, 100);
            let charged = crate::memtrack::live_bytes() >= before + 100 * 100 * 4;
            drop(m);
            charged && crate::memtrack::live_bytes() == before
        });
        assert!(ok, "memtrack never observed a balanced charge/discharge");
    }

    #[test]
    fn serde_roundtrip() {
        let a = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        let json = serde_json::to_string(&a).unwrap();
        let b: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matmul_bitwise_equals_sequential_above_cutoff() {
        // 96x96x96 ≈ 884k flops: well above PAR_MIN_FLOPS, so the parallel
        // row-block path runs; it must agree with the forced-sequential
        // kernel exactly, not just within tolerance.
        let a = Matrix::from_fn(96, 96, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(96, 96, |r, c| ((r * 5 + c * 17) % 11) as f32 - 5.0);
        assert_eq!(a.matmul_impl(&b, 0), a.matmul_impl(&b, usize::MAX));
        assert_eq!(a.matmul_tn_impl(&b, 0), a.matmul_tn_impl(&b, usize::MAX));
        assert_eq!(a.matmul_nt_impl(&b, 0), a.matmul_nt_impl(&b, usize::MAX));
    }

    #[test]
    fn parallel_matmul_on_dedicated_pools_is_identical() {
        let a = Matrix::from_fn(64, 48, |r, c| ((r * 3 + c) % 7) as f32 * 0.25 - 0.5);
        let b = Matrix::from_fn(48, 40, |r, c| ((r + c * 3) % 5) as f32 * 0.5 - 1.0);
        let p1 = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let p4 = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let r1 = p1.install(|| a.matmul_impl(&b, 0));
        let r4 = p4.install(|| a.matmul_impl(&b, 0));
        assert_eq!(r1, r4);
    }

    #[test]
    fn pairwise_sum_is_tight_against_f64_reference() {
        let data: Vec<f32> = (0..200_000).map(|i| ((i % 7) as f32) * 0.01 + 0.001).collect();
        let reference: f64 = data.iter().map(|&v| v as f64).sum();
        let m = Matrix::from_vec(1000, 200, data);
        let pairwise = m.sum() as f64;
        let rel = ((pairwise - reference) / reference).abs();
        assert!(rel < 1e-6, "pairwise sum drifted: rel err {rel}");
        let fro_ref: f64 =
            m.as_slice().iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt();
        let fro = m.frobenius_norm() as f64;
        assert!(((fro - fro_ref) / fro_ref).abs() < 1e-6);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert!(a.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
        a.scale_assign(2.0);
        assert!(a.as_slice().iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }
}
