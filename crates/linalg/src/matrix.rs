//! Dense row-major `f32` matrices with memory accounting.
//!
//! All dense buffers used by the GML substrate go through [`Matrix`], which
//! charges its backing storage to [`crate::memtrack`] so that experiment
//! harnesses can report training memory the way the paper does.
//!
//! All three dense products run one register-tiled kernel (Goto & van de
//! Geijn, "Anatomy of High-Performance Matrix Multiplication", TOMS 2008),
//! in safe, portable Rust. The right factor is packed once per call into
//! 8-column panels that every row block shares. Each tile keeps a 4-row ×
//! 8-column block of the output in local accumulators for the whole `k`
//! loop, so an output element is loaded and stored once, not once per `k`.
//! [`Matrix::matmul_nt`] packs its right operand's rows as the panels'
//! columns, and [`Matrix::matmul_tn`] reads its left operand's columns in
//! place, so neither makes a transposed copy. Each output element still
//! starts at +0.0 and adds its products in increasing `k`, exactly the
//! order of a naive dot product, and nothing reassociates a sum.
//!
//! The kernel runs data-parallel over row blocks of the output once the
//! arithmetic volume crosses `PAR_MIN_FLOPS` (tiny shapes stay on the
//! sequential path, so they pay no scheduling overhead). Each output row is
//! produced by exactly one thread in that same order, so parallel and
//! sequential results — and runs on pools of any size — are bit-identical.

use crate::memtrack;
use rayon::prelude::*;

/// Arithmetic volume (multiply-adds) below which the matmul/spmm kernels
/// stay sequential: at this size the work is cheaper than handing a batch
/// to the pool. Shared with [`crate::csr::CsrMatrix::spmm`].
pub(crate) const PAR_MIN_FLOPS: usize = 1 << 16;

/// Number of output-row blocks to split a parallel kernel into, per worker
/// thread; >1 lets a thread that finishes early claim the blocks others
/// have not started, which evens out rows of uneven cost.
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

    /// `self @ other`, row-block parallel above a flop cutoff.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_impl(other, PAR_MIN_FLOPS)
    }

    pub(crate) fn matmul_impl(&self, other: &Matrix, par_min_flops: usize) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        tiled_product(Left::Rows(self), &Panels::of(other), self.rows, par_min_flops)
    }

    /// `selfᵀ @ other`, read straight from `self`'s rows: output element
    /// `(i, j)` sums `self[k][i] * other[k][j]` in increasing `k`, the order
    /// of a dot product down column `i`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        self.matmul_tn_impl(other, PAR_MIN_FLOPS)
    }

    pub(crate) fn matmul_tn_impl(&self, other: &Matrix, par_min_flops: usize) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        tiled_product(Left::Cols(self), &Panels::of(other), self.cols, par_min_flops)
    }

    /// `self @ otherᵀ`, with `other`'s rows packed as the panels' columns:
    /// output element `(i, j)` sums `self[i][k] * other[j][k]` in
    /// increasing `k`, the order of the row-by-row dot product.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        self.matmul_nt_impl(other, PAR_MIN_FLOPS)
    }

    pub(crate) fn matmul_nt_impl(&self, other: &Matrix, par_min_flops: usize) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        tiled_product(Left::Rows(self), &Panels::of_transpose(other), self.rows, par_min_flops)
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

/// Height of an output tile: left-factor rows that share each panel load.
pub(crate) const MR: usize = 4;

/// Width of an output tile and of a packed panel. An `MR × NR` block of
/// accumulators is eight 128-bit registers, which leaves room in the
/// sixteen of baseline x86-64 for the panel row and the broadcast factor.
pub(crate) const NR: usize = 8;

/// How the tile kernel reads the left factor `A` of `A @ B`.
#[derive(Clone, Copy)]
enum Left<'a> {
    /// `A[i][k]` is this matrix's element `(i, k)`.
    Rows(&'a Matrix),
    /// `A[i][k]` is this matrix's element `(k, i)`: its transpose, read in
    /// place, a tile's `R` adjacent elements of one row per `k`.
    Cols(&'a Matrix),
}

impl Left<'_> {
    /// Copy `A`'s rows `i0..i0 + R` into `sliver`, `k`-major:
    /// `sliver[k][r] = A[i0 + r][k]`.
    fn pack<const R: usize>(self, i0: usize, sliver: &mut Vec<[f32; R]>) {
        match self {
            Left::Rows(a) => {
                sliver.resize(a.cols, [0.0; R]);
                for r in 0..R {
                    for (s, &v) in sliver.iter_mut().zip(a.row(i0 + r)) {
                        s[r] = v;
                    }
                }
            }
            Left::Cols(a) => {
                sliver.clear();
                sliver.extend(
                    a.data
                        .chunks_exact(a.cols)
                        .map(|row| *row[i0..].first_chunk().expect("a tile spans R columns")),
                );
            }
        }
    }
}

/// The right factor `B` (`k × n`) packed once per product into `⌈n / NR⌉`
/// column panels, each `k × NR` row-major and zero-padded past column `n`,
/// so that a tile reads its `NR` factors for each `k` from one contiguous
/// run. Every row block of a parallel product shares it.
struct Panels {
    k: usize,
    n: usize,
    data: Vec<f32>,
}

impl Panels {
    fn zeroed(k: usize, n: usize) -> Self {
        Panels { k, n, data: vec![0.0; n.div_ceil(NR) * k * NR] }
    }

    /// Panels of `B = b`.
    fn of(b: &Matrix) -> Self {
        let (k, n) = b.shape();
        let mut p = Panels::zeroed(k, n);
        for (kk, row) in b.data.chunks_exact(n.max(1)).enumerate() {
            for (pi, src) in row.chunks(NR).enumerate() {
                p.data[(pi * k + kk) * NR..][..src.len()].copy_from_slice(src);
            }
        }
        p
    }

    /// Panels of `B = bᵀ`: `b`'s rows become the panels' columns.
    fn of_transpose(b: &Matrix) -> Self {
        let (n, k) = b.shape();
        let mut p = Panels::zeroed(k, n);
        for (j, row) in b.data.chunks_exact(k.max(1)).enumerate() {
            let base = (j / NR) * k * NR + j % NR;
            for (kk, &v) in row.iter().enumerate() {
                p.data[base + kk * NR] = v;
            }
        }
        p
    }
}

/// `A @ B` for an `m`-row left factor, over output row blocks (parallel
/// above `par_min_flops`). Each block runs whole `MR`-row tiles, then one
/// row at a time for its remainder, each from a sliver of `A` packed by
/// [`Left::pack`]. The panels and slivers are call-local scratch about the
/// size of the operands, so they are not charged to memtrack.
fn tiled_product(a: Left<'_>, b: &Panels, m: usize, par_min_flops: usize) -> Matrix {
    let mut out = Matrix::zeros(m, b.n);
    if b.k == 0 {
        return out;
    }
    Matrix::run_row_blocks(&mut out, m * b.k * b.n, par_min_flops, |r0, chunk| {
        let mut tiles = chunk.chunks_exact_mut(MR * b.n);
        let mut i = r0;
        let mut sliver = Vec::new();
        for out in &mut tiles {
            a.pack::<MR>(i, &mut sliver);
            tile(&sliver, b, out);
            i += MR;
        }
        let mut sliver = Vec::new();
        for out in tiles.into_remainder().chunks_exact_mut(b.n) {
            a.pack::<1>(i, &mut sliver);
            tile(&sliver, b, out);
            i += 1;
        }
    });
    out
}

/// `R` output rows of `A @ B` into `out`, from `sliver` (`A`'s rows, packed
/// by [`Left::pack`]), one panel's `R × NR` block at a time.
fn tile<const R: usize>(sliver: &[[f32; R]], b: &Panels, out: &mut [f32]) {
    for (p, panel) in b.data.chunks_exact(b.k * NR).enumerate() {
        let acc = block(sliver, panel.as_chunks::<NR>().0);
        for (out_r, acc_r) in out.chunks_exact_mut(b.n).zip(&acc) {
            store_prefix(&mut out_r[p * NR..], acc_r);
        }
    }
}

/// One `R × NR` output block: the accumulators start at +0.0 and add
/// `A[i][k] * B[k][j]` for `k` in increasing order, so every element gets
/// exactly the naive dot product's sum. A zero factor is not skipped: for
/// finite inputs its ±0.0 product cannot change an accumulator that
/// started at +0.0 (such a sum is never −0.0), and `0 × ∞` gives NaN, as
/// IEEE multiplication does. It returns the block rather than storing it,
/// so that the accumulators stay in registers: inlined next to `tile`'s
/// partial stores, they were kept in memory.
fn block<const R: usize>(sliver: &[[f32; R]], panel: &[[f32; NR]]) -> [[f32; NR]; R] {
    let mut acc = [[0.0f32; NR]; R];
    for (a_k, b_k) in sliver.iter().zip(panel) {
        for (acc_r, &a_rk) in acc.iter_mut().zip(a_k) {
            for (o, &b_kj) in acc_r.iter_mut().zip(b_k) {
                *o += a_rk * b_kj;
            }
        }
    }
    acc
}

/// Write the first `min(out.len(), NR)` accumulators into `out`; a whole
/// `NR` lanes are copied as one fixed-size array, not by a `memcpy` call.
fn store_prefix(out: &mut [f32], acc: &[f32; NR]) {
    match out.first_chunk_mut::<NR>() {
        Some(o) => *o = *acc,
        None => {
            let w = out.len();
            out.copy_from_slice(&acc[..w]);
        }
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::Just;

    /// Matrix entries for the kernel oracles: exact zeros of both signs
    /// half the time, otherwise ordinary values or values tiny enough that
    /// their products underflow to ±0.0.
    pub(crate) fn zero_heavy() -> impl Strategy<Value = f32> {
        prop_oneof![Just(0.0f32), Just(-0.0f32), -4.0f32..4.0, -1e-25f32..1e-25]
    }

    /// A matrix dimension, 1 a quarter of the time (1×n and n×1 shapes).
    /// Up to 40, so a shape holds several whole 4×8 tiles plus row and
    /// column remainders, and a forced-parallel row block (⌈rows / 4t⌉
    /// rows on a `t`-thread pool) is often not a multiple of 4 rows.
    fn dim() -> impl Strategy<Value = usize> {
        prop_oneof![Just(1usize), 1usize..41, 1usize..41, 1usize..41]
    }

    /// A `rows x cols` matrix filled by cycling through `vals`.
    pub(crate) fn cycled(rows: usize, cols: usize, vals: &[f32]) -> Matrix {
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

    pub(crate) fn bits(m: &Matrix) -> Vec<u32> {
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
    fn zero_times_infinity_is_nan() {
        // No zero factor is skipped, so 0 × ∞ reaches the sum as IEEE says.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![f32::INFINITY, 2.0]);
        assert!(a.matmul(&b).get(0, 0).is_nan());
        assert!(a.transpose().matmul_tn(&b).get(0, 0).is_nan());
        assert!(a.matmul_nt(&b.transpose()).get(0, 0).is_nan());
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
