//! # kgnet-ann
//!
//! The vector-search subsystem of the KGNet platform: approximate
//! nearest-neighbour indexes over entity embeddings, and a binary columnar
//! persistence format with a memory-mapped zero-copy reader.
//!
//! The paper positions trained-model/embedding serving as a first-class
//! platform service next to SPARQL; this crate is the engine under that
//! service. It houses:
//!
//! - [`HnswIndex`] — a hierarchical navigable-small-world graph index
//!   (layered skip-list construction, `ef_construction` / `ef_search`
//!   tunables, deterministic level assignment from a seeded SplitMix64).
//! - [`PqIndex`] — product quantization: k-means-trained sub-codebooks,
//!   asymmetric distance computation with precomputed query-to-centroid
//!   tables, and an optional refine pass over the raw vectors.
//! - [`IvfIndex`] — the inverted-file coarse index (k-means cells plus
//!   posting lists), relocated here from the embedding store.
//! - [`format`](mod@format) / [`file`](mod@file) — a versioned, checksummed flat file format for
//!   embedding matrices and index structures, read back through a
//!   memory-mapped [`VectorTable`] so searches run straight off the page
//!   cache without JSON round-trips.
//!
//! All three indexes implement the common [`AnnIndex`] trait and search
//! any [`Vectors`] source. Index construction is data-parallel on the
//! vendored batch pool: every parallel phase is a pure,
//! order-preserving map, so builds are bit-identical on any
//! `RAYON_NUM_THREADS` — the same guarantee `kgnet-linalg` kernels give.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod file;
pub mod format;
pub mod hnsw;
pub mod index;
pub mod ivf;
pub mod metric;
pub mod pq;
pub mod stats;
pub mod vectors;
mod view;

pub use file::{
    load_embedding_file, save_embedding_file, EmbeddingFileContents, EmbeddingFileView,
};
pub use format::{AnnFile, AnnFileWriter, FormatError, SectionType};
pub use hnsw::{HnswConfig, HnswIndex};
pub use index::{search_exact, search_exact_with_stats, AnnIndex, AnyIndex, SearchParams};
pub use ivf::IvfIndex;
pub use metric::Metric;
pub use pq::{PqConfig, PqIndex};
pub use stats::{CountingVectors, SearchStats};
pub use vectors::{VectorTable, Vectors};

/// Candidate count below which scoring loops stay sequential (scoring a
/// handful of vectors is cheaper than handing a batch to the pool). Shared by
/// every index in this crate.
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
    /// An I/O failure while persisting or loading.
    Io(std::io::Error),
    /// A malformed, truncated or corrupt persisted file.
    Format(FormatError),
}

impl std::fmt::Display for AnnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnnError::DimensionMismatch { expected, got } => {
                write!(f, "vector width mismatch: store holds {expected}-d vectors, got {got}-d")
            }
            AnnError::Io(e) => write!(f, "i/o error: {e}"),
            AnnError::Format(e) => write!(f, "persisted file error: {e}"),
        }
    }
}

impl std::error::Error for AnnError {}

impl From<std::io::Error> for AnnError {
    fn from(e: std::io::Error) -> Self {
        AnnError::Io(e)
    }
}

impl From<FormatError> for AnnError {
    fn from(e: FormatError) -> Self {
        AnnError::Format(e)
    }
}

/// One SplitMix64 finalisation step: the mixer behind every deterministic
/// per-item seed in this crate (HNSW level assignment, sub-codebook RNG
/// streams), chained the same way `kgnet_gml::par` derives batch seeds.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
