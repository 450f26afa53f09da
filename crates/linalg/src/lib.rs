//! # kgnet-linalg
//!
//! Numerical substrate for the KGNet reproduction: dense matrices, CSR sparse
//! matrices, a reverse-mode autodiff tape, weight initialisers, first-order
//! optimizers, and a global logical-memory tracker used to report training
//! memory the way the paper's figures do.
//!
//! This crate is the stand-in for `torch.sparse`/PyG tensor machinery in the
//! paper's Fig. 6 pipeline; every GML method in `kgnet-gml` is built on it.
//!
//! There is one dense kernel, register-tiled in safe Rust: `matmul`,
//! `matmul_nt` and `matmul_tn` pack the right factor into 8-column panels
//! and sum each 4 × 8 output block in local accumulators, with no
//! transposed copy of either operand. Every output element sums its
//! products from +0.0 in the naive dot-product order; CSR `spmm` keeps
//! each row's CSR order the same way. No zero factor is skipped, which
//! keeps the bits for finite inputs (a ±0 product never changes such a
//! sum) and gives NaN for `0 × ∞`, as IEEE does. CSR construction
//! (`from_coo`, `transpose`) is a counting sort, with no comparison sort
//! over all entries. The dense kernel and CSR `spmm` are data-parallel
//! over output-row blocks on the vendored `rayon` batch pool (sized by
//! `RAYON_NUM_THREADS`), with a sequential cutoff for small shapes. Each
//! output element keeps one accumulation order, so results are
//! bit-identical on pools of any size.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csr;
pub mod init;
pub mod kernels;
pub mod matrix;
pub mod memtrack;
pub mod optim;
pub mod tape;

pub use csr::CsrMatrix;
pub use matrix::Matrix;
pub use optim::{Adam, Optimizer, ParamId, ParamStore, Sgd};
pub use tape::{Tape, Var};

#[cfg(test)]
mod proptests {
    use crate::csr::CsrMatrix;
    use crate::matrix::Matrix;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// spmm must agree with dense matmul for arbitrary sparse patterns.
        #[test]
        fn spmm_matches_dense(
            entries in proptest::collection::vec((0u32..8, 0u32..8, -2.0f32..2.0), 0..40),
            cols in 1usize..5,
        ) {
            let m = CsrMatrix::from_coo(8, 8, entries);
            let x = Matrix::from_fn(8, cols, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
            let sparse = m.spmm(&x);
            let dense = m.to_dense().matmul(&x);
            for (a, b) in sparse.as_slice().iter().zip(dense.as_slice()) {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }

        /// Transposing twice is the identity on the dense image.
        #[test]
        fn csr_double_transpose_identity(
            entries in proptest::collection::vec((0u32..6, 0u32..9, -1.0f32..1.0), 0..30),
        ) {
            let m = CsrMatrix::from_coo(6, 9, entries);
            let tt = m.transpose().transpose();
            prop_assert_eq!(m.to_dense(), tt.to_dense());
        }

        /// (A B)ᵀ = Bᵀ Aᵀ.
        #[test]
        fn matmul_transpose_law(
            a_seed in 0u64..1000,
            rows in 1usize..5,
            inner in 1usize..5,
            cols in 1usize..5,
        ) {
            let a = Matrix::from_fn(rows, inner, |r, c| ((a_seed as usize + r * 3 + c) % 7) as f32 - 3.0);
            let b = Matrix::from_fn(inner, cols, |r, c| ((a_seed as usize + r + c * 5) % 11) as f32 - 5.0);
            let left = a.matmul(&b).transpose();
            let right = b.transpose().matmul(&a.transpose());
            prop_assert_eq!(left, right);
        }

        /// gather_rows preserves each selected row exactly.
        #[test]
        fn gather_rows_preserves_rows(
            idx in proptest::collection::vec(0u32..10, 1..20),
        ) {
            let m = Matrix::from_fn(10, 4, |r, c| (r * 4 + c) as f32);
            let g = m.gather_rows(&idx);
            for (i, &r) in idx.iter().enumerate() {
                prop_assert_eq!(g.row(i), m.row(r as usize));
            }
        }

        /// The forced-parallel spmm must equal the forced-sequential
        /// reference bit-for-bit on arbitrary sparse patterns.
        #[test]
        fn parallel_spmm_matches_sequential(
            entries in proptest::collection::vec((0u32..16, 0u32..16, -2.0f32..2.0), 0..80),
            cols in 1usize..6,
        ) {
            let m = CsrMatrix::from_coo(16, 16, entries);
            let x = Matrix::from_fn(16, cols, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
            prop_assert_eq!(m.spmm_impl(&x, 0), m.spmm_impl(&x, usize::MAX));
        }
    }
}
