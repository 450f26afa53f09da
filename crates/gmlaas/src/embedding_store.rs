//! The embedding store (the paper's FAISS substitute): keyed top-k
//! similarity search over entity embeddings, powering the
//! entity-similarity (ES) task of Table I.
//!
//! Vectors live in one flat row-major table, and [`EmbeddingStore::search`]
//! is an exact scan: it scores every row, so it returns every true
//! neighbour. At the largest store this platform trains (6 000 papers,
//! 32-d) one scan's p50 is about 0.3 ms on two cores, inside a 0.5 ms
//! serving budget, where an IVF index at its served settings measured
//! recall@10 of 0.43 on random tables. The scan is parallel over the
//! batch pool once the table is large enough, with an order-preserving
//! collect, and ties break on the key, so results are identical across
//! runs, insertion orders and pool sizes.

use std::cmp::Ordering;

use kgnet_linalg::kernels;
use rayon::prelude::*;

/// Row count below which a scan stays sequential (scoring a handful of
/// rows is cheaper than handing a batch to the pool).
const PAR_MIN_ROWS: usize = 2048;

/// Similarity metric. Scores are "larger = closer" for every variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Negative Euclidean distance (larger = closer).
    L2,
    /// Cosine similarity.
    Cosine,
    /// Inner product.
    Dot,
}

impl Metric {
    /// Similarity score between two vectors (larger = closer).
    pub fn score(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::Cosine => cosine(kernels::dot(a, b), kernels::norm(a), kernels::norm(b)),
            Metric::L2 => -kernels::l2_sq(a, b).max(0.0).sqrt(),
            Metric::Dot => kernels::dot(a, b),
        }
    }
}

/// Cosine similarity from a dot product and both norms; 0 against a zero
/// vector.
fn cosine(dot: f32, na: f32, nb: f32) -> f32 {
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Errors from the embedding store.
#[derive(Debug)]
pub enum AnnError {
    /// A vector's width does not match the store's dimensionality.
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

/// A keyed vector store with exact top-k search.
#[derive(Clone)]
pub struct EmbeddingStore {
    dim: usize,
    metric: Metric,
    keys: Vec<String>,
    /// Row `i` (the vector of `keys[i]`) is `data[i * dim..(i + 1) * dim]`.
    data: Vec<f32>,
}

impl EmbeddingStore {
    /// New empty store for vectors of width `dim`.
    pub fn new(dim: usize, metric: Metric) -> Self {
        EmbeddingStore { dim, metric, keys: Vec::new(), data: Vec::new() }
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The similarity metric searches rank by.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Add one keyed vector. Rejects width mismatches (which would
    /// otherwise corrupt every later scan over the flat table) and leaves
    /// the store untouched on error.
    pub fn add(&mut self, key: impl Into<String>, vector: Vec<f32>) -> Result<(), AnnError> {
        if vector.len() != self.dim {
            return Err(AnnError::DimensionMismatch { expected: self.dim, got: vector.len() });
        }
        self.data.extend_from_slice(&vector);
        self.keys.push(key.into());
        Ok(())
    }

    /// Fetch a vector by key.
    pub fn get(&self, key: &str) -> Option<&[f32]> {
        self.keys.iter().position(|k| k == key).map(|i| self.row(i))
    }

    /// The stored keys, in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.keys.iter().map(String::as_str)
    }

    fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The `k` stored keys closest to `query`, by score descending, ties by
    /// key ascending. One pass scores every row with [`Metric::score`]'s
    /// expression, bit for bit (the query's norm is computed once), then a
    /// partial select keeps the top `k` and only those are sorted.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<(String, f32)> {
        assert_eq!(query.len(), self.dim, "query width mismatch");
        let query_norm = kernels::norm(query);
        let score_one = |i: usize| {
            let row = self.row(i);
            let score = match self.metric {
                Metric::Cosine => cosine(kernels::dot(query, row), query_norm, kernels::norm(row)),
                metric => metric.score(query, row),
            };
            (i, score)
        };
        let n = self.len();
        let mut hits: Vec<(usize, f32)> = if n >= PAR_MIN_ROWS {
            (0..n).into_par_iter().map(score_one).collect()
        } else {
            (0..n).map(score_one).collect()
        };
        let rank = |a: &(usize, f32), b: &(usize, f32)| -> Ordering {
            b.1.total_cmp(&a.1).then_with(|| self.keys[a.0].cmp(&self.keys[b.0]))
        };
        if k < hits.len() {
            hits.select_nth_unstable_by(k, rank);
            hits.truncate(k);
        }
        hits.sort_unstable_by(rank);
        hits.into_iter().map(|(i, s)| (self.keys[i].clone(), s)).collect()
    }
}

impl std::fmt::Debug for EmbeddingStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingStore")
            .field("len", &self.len())
            .field("dim", &self.dim)
            .field("metric", &self.metric)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn filled_store(n: usize, dim: usize, metric: Metric, seed: u64) -> EmbeddingStore {
        let mut store = EmbeddingStore::new(dim, metric);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            store.add(format!("e{i}"), v).unwrap();
        }
        store
    }

    #[test]
    fn l2_score_is_negative_distance() {
        assert!((Metric::L2.score(&[0.0, 0.0], &[3.0, 4.0]) + 5.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_handles_zero_vectors() {
        assert_eq!(Metric::Cosine.score(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
        assert!((Metric::Cosine.score(&[2.0, 0.0], &[5.0, 0.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn search_returns_self_first() {
        let store = filled_store(50, 8, Metric::L2, 1);
        let q = store.get("e7").unwrap().to_vec();
        let hits = store.search(&q, 3);
        assert_eq!(hits[0].0, "e7");
        assert!(hits[0].1 >= hits[1].1);
    }

    #[test]
    fn search_truncates_to_k() {
        let store = filled_store(3, 2, Metric::L2, 4);
        assert_eq!(store.search(&[0.0, 0.0], 2).len(), 2);
        assert_eq!(store.search(&[0.0, 0.0], 9).len(), 3);
        assert!(store.search(&[0.0, 0.0], 0).is_empty());
        assert!(EmbeddingStore::new(2, Metric::L2).search(&[0.0, 0.0], 3).is_empty());
    }

    #[test]
    fn search_scores_are_metric_scores_bit_for_bit() {
        for metric in [Metric::L2, Metric::Cosine, Metric::Dot] {
            // Above the parallel cutoff, with a zero row for the cosine guard.
            let mut store = filled_store(PAR_MIN_ROWS + 100, 16, metric, 21);
            store.add("zero", vec![0.0; 16]).unwrap();
            let q = store.get("e5").unwrap().to_vec();
            for (key, score) in store.search(&q, store.len()) {
                let want = metric.score(&q, store.get(&key).unwrap());
                assert_eq!(score.to_bits(), want.to_bits(), "{metric:?} {key}");
            }
        }
    }

    #[test]
    fn cosine_and_dot_metrics() {
        let mut store = EmbeddingStore::new(2, Metric::Cosine);
        store.add("x", vec![1.0, 0.0]).unwrap();
        store.add("y", vec![0.0, 1.0]).unwrap();
        let hits = store.search(&[2.0, 0.1], 2);
        assert_eq!(hits[0].0, "x");
        assert!((hits[0].1 - 1.0).abs() < 0.01);

        let mut store = EmbeddingStore::new(2, Metric::Dot);
        store.add("x", vec![1.0, 0.0]).unwrap();
        store.add("y", vec![3.0, 0.0]).unwrap();
        let hits = store.search(&[1.0, 0.0], 2);
        assert_eq!(hits[0].0, "y");
    }

    #[test]
    fn dimension_mismatch_is_rejected_without_corruption() {
        let mut store = filled_store(5, 4, Metric::L2, 3);
        let err = store.add("bad", vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, AnnError::DimensionMismatch { expected: 4, got: 2 }));
        assert_eq!(store.len(), 5, "failed add must not grow the store");
        // Later scans stay healthy: every stored key still resolves.
        let q = store.get("e0").unwrap().to_vec();
        assert_eq!(store.search(&q, 1)[0].0, "e0");
    }

    #[test]
    fn ties_break_on_key_order() {
        let mut store = EmbeddingStore::new(2, Metric::L2);
        // Insert in reverse-lexicographic order; scores tie exactly.
        store.add("zeta", vec![1.0, 0.0]).unwrap();
        store.add("beta", vec![1.0, 0.0]).unwrap();
        store.add("alpha", vec![1.0, 0.0]).unwrap();
        store.add("omega", vec![0.0, 9.0]).unwrap();
        let keys = |k| -> Vec<String> {
            store.search(&[1.0, 0.0], k).into_iter().map(|(key, _)| key).collect()
        };
        assert_eq!(keys(3), ["alpha", "beta", "zeta"]);
        // Which tied rows make the cut at k is decided by key too, not by
        // insertion order.
        assert_eq!(keys(2), ["alpha", "beta"]);
    }

    #[test]
    fn parallel_search_matches_single_thread_above_cutoff() {
        // 3000 rows take the parallel scoring path; it must return exactly
        // what a one-thread pool returns.
        let store = filled_store(3000, 8, Metric::L2, 9);
        let q = store.get("e1234").unwrap().to_vec();
        let single = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let multi = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let hits_1 = single.install(|| store.search(&q, 25));
        let hits_4 = multi.install(|| store.search(&q, 25));
        assert_eq!(hits_1, hits_4);
        assert_eq!(hits_1[0].0, "e1234");
    }
}
