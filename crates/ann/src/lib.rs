//! # kgnet-ann
//!
//! The vector-search subsystem of the KGNet platform: the approximate
//! nearest-neighbour index over entity embeddings and its exact-scan
//! oracle, both over in-memory vectors.
//!
//! The paper positions trained-model/embedding serving as a first-class
//! platform service next to SPARQL; this crate is the engine under that
//! service. It houses:
//!
//! - [`IvfIndex`] — the inverted-file coarse index (k-means cells plus
//!   posting lists): the one index the platform builds and serves.
//! - [`search_exact`] — the linear-scan oracle the index is measured
//!   against, and the search of a store with no index.
//! - [`VectorTable`] — the flat row-major matrix a store's vectors live in.
//!
//! Both searches read any [`Vectors`] source. Index construction is
//! data-parallel on the vendored batch pool: every parallel phase is a
//! pure, order-preserving map, so builds are bit-identical on any
//! `RAYON_NUM_THREADS` — the same guarantee `kgnet-linalg` kernels give.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod index;
pub mod ivf;
pub mod metric;
pub mod stats;
pub mod vectors;

pub use index::{search_exact, search_exact_with_stats};
pub use ivf::IvfIndex;
pub use metric::Metric;
pub use stats::{CountingVectors, SearchStats};
pub use vectors::{VectorTable, Vectors};

/// Candidate count below which scoring loops stay sequential (scoring a
/// handful of vectors is cheaper than handing a batch to the pool). Shared by
/// the exact scan and the IVF build and search.
pub(crate) const PAR_MIN_CANDIDATES: usize = 2048;

/// Errors from the vector-search subsystem.
#[derive(Debug)]
pub enum AnnError {
    /// A vector's width does not match the store/index dimensionality.
    DimensionMismatch {
        /// The width the store was created with.
        expected: usize,
        /// The width of the offending vector.
        got: usize,
    },
}

impl std::fmt::Display for AnnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnnError::DimensionMismatch { expected, got } => {
                write!(f, "vector width mismatch: store holds {expected}-d vectors, got {got}-d")
            }
        }
    }
}

impl std::error::Error for AnnError {}
