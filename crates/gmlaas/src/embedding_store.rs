//! The embedding store (the paper's FAISS substitute): keyed top-k
//! similarity search over entity embeddings, powering the
//! entity-similarity (ES) task of Table I.
//!
//! The store is a thin key-management layer over the `kgnet-ann`
//! subsystem: vectors live in a flat [`VectorTable`] (owned, or zero-copy
//! over a memory-mapped artifact after [`EmbeddingStore::load_binary`]),
//! and approximate search goes through any of the three [`AnnIndex`]
//! families — exact scan, IVF, HNSW or product quantization — built by
//! [`build_ivf`](EmbeddingStore::build_ivf),
//! [`build_hnsw`](EmbeddingStore::build_hnsw) and
//! [`build_pq`](EmbeddingStore::build_pq). All index construction is
//! deterministic-parallel on the batch pool (bit-identical on any
//! `RAYON_NUM_THREADS`), and every search tie-breaks deterministically on
//! (score, then key), so results are stable across runs and pool sizes.

use std::path::Path;

pub use kgnet_ann::{AnnError, HnswConfig, Metric, PqConfig, SearchParams, SearchStats};

use kgnet_ann::{
    load_embedding_file, save_embedding_file, search_exact as ann_search_exact,
    search_exact_with_stats as ann_search_exact_with_stats, AnnIndex, AnyIndex, EmbeddingFileView,
    HnswIndex, IvfIndex, PqIndex, VectorTable, Vectors,
};

/// A keyed vector store with exact and approximate search.
#[derive(Debug, Clone)]
pub struct EmbeddingStore {
    dim: usize,
    metric: Metric,
    keys: Vec<String>,
    vectors: VectorTable,
    index: Option<AnyIndex>,
}

impl EmbeddingStore {
    /// New empty store for vectors of width `dim`.
    pub fn new(dim: usize, metric: Metric) -> Self {
        EmbeddingStore {
            dim,
            metric,
            keys: Vec::new(),
            vectors: VectorTable::new(dim),
            index: None,
        }
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

    /// Family of the currently built index (`"ivf"`, `"hnsw"`, `"pq"`),
    /// or `None` when searches fall back to the exact scan.
    pub fn index_kind(&self) -> Option<&'static str> {
        self.index.as_ref().map(AnnIndex::kind)
    }

    /// Add one keyed vector. Rejects width mismatches (which would
    /// otherwise corrupt every later scan over the flat table) and leaves
    /// the store untouched on error. Invalidates any built index.
    pub fn add(&mut self, key: impl Into<String>, vector: Vec<f32>) -> Result<(), AnnError> {
        self.vectors.push(&vector)?;
        self.keys.push(key.into());
        self.index = None;
        Ok(())
    }

    /// Fetch a vector by key.
    pub fn get(&self, key: &str) -> Option<&[f32]> {
        self.keys.iter().position(|k| k == key).map(|i| self.vectors.vector(i as u32))
    }

    /// The stored keys, in insertion (vector id) order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.keys.iter().map(String::as_str)
    }

    /// Exact top-k search: a linear scan, parallel over the vector table
    /// once it is large enough, with deterministic (score, then key)
    /// tie-breaking.
    pub fn search_exact(&self, query: &[f32], k: usize) -> Vec<(String, f32)> {
        assert_eq!(query.len(), self.dim, "query width mismatch");
        self.to_keyed(ann_search_exact(&self.vectors, self.metric, query, k))
    }

    /// Build an IVF index with `n_cells` k-means cells (a few Lloyd
    /// iterations, like FAISS's coarse quantiser training). Bit-identical
    /// on any pool size.
    pub fn build_ivf(&mut self, n_cells: usize, iterations: usize, seed: u64) {
        if self.is_empty() {
            return;
        }
        self.index = Some(AnyIndex::Ivf(IvfIndex::build(&self.vectors, n_cells, iterations, seed)));
    }

    /// Build an HNSW graph index. Construction is wave-parallel on the
    /// batch pool and bit-identical on any pool size; levels are
    /// assigned deterministically from the config seed.
    pub fn build_hnsw(&mut self, cfg: &HnswConfig) {
        if self.is_empty() {
            return;
        }
        self.index = Some(AnyIndex::Hnsw(HnswIndex::build(&self.vectors, self.metric, cfg)));
    }

    /// Train a product-quantization index (k-means sub-codebooks,
    /// asymmetric distance computation, refine-over-raw-vectors).
    /// Bit-identical on any pool size.
    pub fn build_pq(&mut self, cfg: &PqConfig) {
        if self.is_empty() {
            return;
        }
        self.index = Some(AnyIndex::Pq(PqIndex::build(&self.vectors, cfg)));
    }

    /// Approximate top-k search through the built index, probing `nprobe`
    /// cells when that index is IVF (other families use their build-time
    /// defaults — see [`EmbeddingStore::search_with`] for full control).
    /// Falls back to exact search when no index is built.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<(String, f32)> {
        self.search_with(query, k, &SearchParams::with_nprobe(nprobe))
    }

    /// Approximate top-k search with explicit per-query tunables.
    pub fn search_with(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Vec<(String, f32)> {
        assert_eq!(query.len(), self.dim, "query width mismatch");
        match &self.index {
            None => self.search_exact(query, k),
            Some(ix) => self.to_keyed(ix.search(&self.vectors, self.metric, query, k, params)),
        }
    }

    /// [`search_with`](EmbeddingStore::search_with) plus what the search
    /// cost — candidate counts and distance-computation tallies the
    /// serving layer folds into its metrics.
    pub fn search_with_stats(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> (Vec<(String, f32)>, SearchStats) {
        assert_eq!(query.len(), self.dim, "query width mismatch");
        let (hits, stats) = match &self.index {
            None => ann_search_exact_with_stats(&self.vectors, self.metric, query, k),
            Some(ix) => ix.search_with_stats(&self.vectors, self.metric, query, k, params),
        };
        (self.to_keyed(hits), stats)
    }

    /// Map id-level hits to keys, re-breaking ties on (score desc, key
    /// asc) so the public result order never depends on insertion order.
    fn to_keyed(&self, hits: Vec<(u32, f32)>) -> Vec<(String, f32)> {
        let mut out: Vec<(String, f32)> =
            hits.into_iter().map(|(i, s)| (self.keys[i as usize].clone(), s)).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Persist this store (keys, vectors and any built index) as one
    /// checksummed binary artifact — the paper-scale replacement for JSON
    /// round-trips.
    pub fn save_binary(&self, path: &Path) -> Result<(), AnnError> {
        save_embedding_file(
            path,
            EmbeddingFileView {
                dim: self.dim,
                metric: self.metric,
                keys: &self.keys,
                vectors: &self.vectors,
                index: self.index.as_ref(),
            },
        )
    }

    /// Load a store persisted by [`EmbeddingStore::save_binary`]. The
    /// vector matrix is served zero-copy from the memory-mapped file, and
    /// searches return exactly what the in-memory store returned before
    /// saving.
    pub fn load_binary(path: &Path) -> Result<EmbeddingStore, AnnError> {
        let c = load_embedding_file(path)?;
        Ok(EmbeddingStore {
            dim: c.dim,
            metric: c.metric,
            keys: c.keys,
            vectors: c.vectors,
            index: c.index,
        })
    }

    /// True when the vector table reads from a memory-mapped artifact
    /// rather than owned memory (diagnostics only).
    pub fn is_mapped(&self) -> bool {
        self.vectors.is_mapped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn filled_store(n: usize, dim: usize, seed: u64) -> EmbeddingStore {
        let mut store = EmbeddingStore::new(dim, Metric::L2);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            store.add(format!("e{i}"), v).unwrap();
        }
        store
    }

    fn recall(store: &EmbeddingStore, queries: usize, dim: usize, seed: u64, nprobe: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut hits, mut total) = (0usize, 0usize);
        for _ in 0..queries {
            let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let exact: Vec<String> =
                store.search_exact(&q, 10).into_iter().map(|(k, _)| k).collect();
            let approx: Vec<String> =
                store.search(&q, 10, nprobe).into_iter().map(|(k, _)| k).collect();
            total += exact.len();
            hits += exact.iter().filter(|k| approx.contains(k)).count();
        }
        hits as f64 / total as f64
    }

    #[test]
    fn search_with_stats_matches_plain_search_and_reports_cost() {
        let mut store = filled_store(300, 8, 17);
        let q = store.get("e42").unwrap().to_vec();
        // No index: the exact fallback scores every stored vector.
        let (hits, stats) = store.search_with_stats(&q, 5, &SearchParams::default());
        assert_eq!(hits, store.search_with(&q, 5, &SearchParams::default()));
        assert_eq!(stats.candidates, 300);
        assert_eq!(stats.distance_computations, 300);
        // IVF: fewer candidates than the table, coarse scan on top.
        store.build_ivf(10, 4, 9);
        let params = SearchParams::with_nprobe(2);
        let (hits, stats) = store.search_with_stats(&q, 5, &params);
        assert_eq!(hits, store.search_with(&q, 5, &params));
        assert!(stats.candidates > 0 && stats.candidates < 300);
        assert_eq!(stats.distance_computations, stats.candidates + 10);
    }

    #[test]
    fn exact_search_returns_self_first() {
        let store = filled_store(50, 8, 1);
        let q = store.get("e7").unwrap().to_vec();
        let hits = store.search_exact(&q, 3);
        assert_eq!(hits[0].0, "e7");
        assert!(hits[0].1 >= hits[1].1);
    }

    #[test]
    fn cosine_and_dot_metrics() {
        let mut store = EmbeddingStore::new(2, Metric::Cosine);
        store.add("x", vec![1.0, 0.0]).unwrap();
        store.add("y", vec![0.0, 1.0]).unwrap();
        let hits = store.search_exact(&[2.0, 0.1], 2);
        assert_eq!(hits[0].0, "x");
        assert!((hits[0].1 - 1.0).abs() < 0.01);

        let mut store = EmbeddingStore::new(2, Metric::Dot);
        store.add("x", vec![1.0, 0.0]).unwrap();
        store.add("y", vec![3.0, 0.0]).unwrap();
        let hits = store.search_exact(&[1.0, 0.0], 2);
        assert_eq!(hits[0].0, "y");
    }

    #[test]
    fn dimension_mismatch_is_rejected_without_corruption() {
        let mut store = filled_store(5, 4, 3);
        let err = store.add("bad", vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, AnnError::DimensionMismatch { expected: 4, got: 2 }));
        assert_eq!(store.len(), 5, "failed add must not grow the store");
        // Later scans stay healthy: every stored key still resolves.
        let q = store.get("e0").unwrap().to_vec();
        assert_eq!(store.search_exact(&q, 1)[0].0, "e0");
    }

    #[test]
    fn ties_break_on_key_order() {
        let mut store = EmbeddingStore::new(2, Metric::L2);
        // Insert in reverse-lexicographic order; scores tie exactly.
        store.add("zeta", vec![1.0, 0.0]).unwrap();
        store.add("beta", vec![1.0, 0.0]).unwrap();
        store.add("alpha", vec![1.0, 0.0]).unwrap();
        store.add("omega", vec![0.0, 9.0]).unwrap();
        let hits = store.search_exact(&[1.0, 0.0], 3);
        let keys: Vec<&str> = hits.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["alpha", "beta", "zeta"]);
    }

    #[test]
    fn ivf_recall_at_10_is_high() {
        let mut store = filled_store(400, 16, 2);
        store.build_ivf(16, 5, 3);
        assert_eq!(store.index_kind(), Some("ivf"));
        let r = recall(&store, 20, 16, 4, 4);
        assert!(r > 0.6, "IVF recall too low: {r}");
    }

    #[test]
    fn hnsw_recall_at_10_beats_point_nine() {
        let mut store = filled_store(1500, 16, 12);
        store.build_hnsw(&HnswConfig::default());
        assert_eq!(store.index_kind(), Some("hnsw"));
        let r = recall(&store, 20, 16, 13, 4);
        assert!(r >= 0.9, "HNSW recall too low: {r}");
    }

    #[test]
    fn pq_recall_at_10_beats_point_nine() {
        let mut store = filled_store(1500, 16, 14);
        store.build_pq(&PqConfig { ks: 64, ..Default::default() });
        assert_eq!(store.index_kind(), Some("pq"));
        let r = recall(&store, 20, 16, 15, 4);
        assert!(r >= 0.9, "PQ recall too low: {r}");
    }

    #[test]
    fn adding_invalidates_index() {
        for build in [0usize, 1, 2] {
            let mut store = filled_store(20, 4, 5);
            match build {
                0 => store.build_ivf(4, 3, 1),
                1 => store.build_hnsw(&HnswConfig::default()),
                _ => store.build_pq(&PqConfig::default()),
            }
            store.add("new", vec![0.0; 4]).unwrap();
            assert_eq!(store.index_kind(), None);
            // Falls back to exact search and must find the new key.
            let hits = store.search(&[0.0; 4], 1, 2);
            assert_eq!(hits[0].0, "new");
        }
    }

    #[test]
    fn parallel_search_matches_single_thread_above_cutoff() {
        // 3000 vectors with nprobe covering most cells pushes the candidate
        // count past the parallel cutoff, so the parallel scoring path runs;
        // it must return exactly what a one-thread pool returns, for both
        // the IVF and the exact scan.
        let mut store = filled_store(3000, 8, 9);
        store.build_ivf(8, 3, 1);
        let q = store.get("e1234").unwrap().to_vec();
        let single = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let multi = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let ivf_1 = single.install(|| store.search(&q, 25, 7));
        let ivf_4 = multi.install(|| store.search(&q, 25, 7));
        assert_eq!(ivf_1, ivf_4);
        assert_eq!(ivf_1[0].0, "e1234");
        let exact_1 = single.install(|| store.search_exact(&q, 25));
        let exact_4 = multi.install(|| store.search_exact(&q, 25));
        assert_eq!(exact_1, exact_4);
    }

    #[test]
    fn builds_are_deterministic_across_pool_sizes() {
        // 3000 vectors crosses the parallel cutoff for all three builders:
        // each must produce the same index (centroids/graph/codebooks
        // bit-for-bit) on one thread and on four.
        let single = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let multi = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        for build in [0usize, 1, 2] {
            let mut a = filled_store(3000, 8, 9);
            let mut b = filled_store(3000, 8, 9);
            match build {
                0 => {
                    single.install(|| a.build_ivf(32, 4, 7));
                    multi.install(|| b.build_ivf(32, 4, 7));
                }
                1 => {
                    let cfg = HnswConfig { ef_construction: 48, ..Default::default() };
                    single.install(|| a.build_hnsw(&cfg));
                    multi.install(|| b.build_hnsw(&cfg));
                }
                _ => {
                    let cfg = PqConfig { ks: 32, ..Default::default() };
                    single.install(|| a.build_pq(&cfg));
                    multi.install(|| b.build_pq(&cfg));
                }
            }
            assert_eq!(
                format!("{:?}", a.index),
                format!("{:?}", b.index),
                "builder {build} diverged across pool sizes"
            );
        }
    }

    #[test]
    fn binary_roundtrip_serves_identical_searches() {
        let path = std::env::temp_dir().join(format!("kgnet-embstore-{}.ann", std::process::id()));
        for build in [0usize, 1, 2] {
            let mut store = filled_store(500, 8, 20 + build as u64);
            match build {
                0 => store.build_ivf(16, 4, 2),
                1 => store.build_hnsw(&HnswConfig::default()),
                _ => store.build_pq(&PqConfig { ks: 32, ..Default::default() }),
            }
            store.save_binary(&path).unwrap();
            let back = EmbeddingStore::load_binary(&path).unwrap();
            assert_eq!(back.len(), store.len());
            assert_eq!(back.index_kind(), store.index_kind());
            let q = store.get("e123").unwrap().to_vec();
            assert_eq!(store.search(&q, 10, 4), back.search(&q, 10, 4));
            assert_eq!(store.search_exact(&q, 10), back.search_exact(&q, 10));
        }
        let _ = std::fs::remove_file(&path);
    }
}
