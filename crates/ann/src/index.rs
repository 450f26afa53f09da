//! The common [`AnnIndex`] contract, the exact-scan reference search, and
//! the [`AnyIndex`] dispatch enum.

use rayon::prelude::*;

use crate::hnsw::HnswIndex;
use crate::ivf::IvfIndex;
use crate::metric::Metric;
use crate::pq::PqIndex;
use crate::stats::{CountingVectors, SearchStats};
use crate::vectors::Vectors;
use crate::PAR_MIN_CANDIDATES;

/// Per-query tunables. A zero means "use the index's build-time default",
/// so `SearchParams::default()` always does something sensible on any
/// index kind; fields irrelevant to an index are ignored.
#[derive(Debug, Clone, Copy)]
pub struct SearchParams {
    /// IVF: number of coarse cells to probe.
    pub nprobe: usize,
    /// HNSW: size of the layer-0 candidate beam (`ef`). Clamped to at
    /// least `k`.
    pub ef_search: usize,
    /// PQ: rescore the top `refine·k` ADC candidates against the raw
    /// vectors. `1` disables refinement (ADC scores are returned).
    pub refine: usize,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams { nprobe: 4, ef_search: 0, refine: 0 }
    }
}

impl SearchParams {
    /// Params with an explicit IVF probe count (the historical
    /// `search(query, k, nprobe)` shape).
    pub fn with_nprobe(nprobe: usize) -> Self {
        SearchParams { nprobe, ..Default::default() }
    }
}

/// The contract every ANN index satisfies: approximate top-k search over
/// any [`Vectors`] source, returning `(id, score)` pairs sorted by score
/// descending with ties broken by ascending id. Scores are exact
/// [`Metric::score`] values wherever the index touches raw vectors (HNSW,
/// IVF, refined PQ), so results are directly comparable with
/// [`search_exact`] — the recall contract the test-suite checks.
pub trait AnnIndex {
    /// Short name of the index family (`"ivf"`, `"hnsw"`, `"pq"`).
    fn kind(&self) -> &'static str;

    /// Number of vectors the index was built over.
    fn len(&self) -> usize;

    /// True when the index covers no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate top-`k` ids for `query`, scored under `metric` against
    /// `vectors` (the same table the index was built over).
    fn search(
        &self,
        vectors: &dyn Vectors,
        metric: Metric,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Vec<(u32, f32)>;

    /// Like [`search`](AnnIndex::search), also returning what the search
    /// cost. The default counts raw-vector accesses through a
    /// [`CountingVectors`] wrapper — exact for index families whose every
    /// distance computation fetches a raw vector (HNSW). Families that do
    /// distance work off to the side (IVF centroids, PQ codes) override
    /// this to fold that work into the tallies.
    fn search_with_stats(
        &self,
        vectors: &dyn Vectors,
        metric: Metric,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> (Vec<(u32, f32)>, SearchStats) {
        let counting = CountingVectors::new(vectors);
        let hits = self.search(&counting, metric, query, k, params);
        let n = counting.accesses();
        (hits, SearchStats { candidates: n, distance_computations: n })
    }
}

/// Sort hits by score descending, ties by ascending id — the deterministic
/// order every search path in this crate returns.
pub(crate) fn sort_hits(hits: &mut [(u32, f32)]) {
    hits.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
}

/// Exact top-k by linear scan: the reference oracle the approximate
/// indexes are measured against. Parallel over the table once it is large
/// enough, with an order-preserving collect, so results are identical on
/// any pool size.
pub fn search_exact(
    vectors: &dyn Vectors,
    metric: Metric,
    query: &[f32],
    k: usize,
) -> Vec<(u32, f32)> {
    let n = vectors.len();
    let score_one = |i: usize| (i as u32, metric.score(query, vectors.vector(i as u32)));
    let mut scored: Vec<(u32, f32)> = if n >= PAR_MIN_CANDIDATES {
        (0..n).into_par_iter().map(score_one).collect()
    } else {
        (0..n).map(score_one).collect()
    };
    sort_hits(&mut scored);
    scored.truncate(k);
    scored
}

/// [`search_exact`] plus its cost: a linear scan considers every stored
/// vector exactly once, so both tallies equal the table length.
pub fn search_exact_with_stats(
    vectors: &dyn Vectors,
    metric: Metric,
    query: &[f32],
    k: usize,
) -> (Vec<(u32, f32)>, SearchStats) {
    let n = vectors.len() as u64;
    (
        search_exact(vectors, metric, query, k),
        SearchStats { candidates: n, distance_computations: n },
    )
}

/// A built index of any family — the sum type the embedding
/// store holds and the persistence file round-trips.
#[derive(Debug, Clone)]
pub enum AnyIndex {
    /// Inverted-file coarse index.
    Ivf(IvfIndex),
    /// Hierarchical navigable-small-world graph.
    Hnsw(HnswIndex),
    /// Product quantization with asymmetric distance computation.
    Pq(PqIndex),
}

impl AnnIndex for AnyIndex {
    fn kind(&self) -> &'static str {
        match self {
            AnyIndex::Ivf(i) => i.kind(),
            AnyIndex::Hnsw(i) => i.kind(),
            AnyIndex::Pq(i) => i.kind(),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyIndex::Ivf(i) => i.len(),
            AnyIndex::Hnsw(i) => i.len(),
            AnyIndex::Pq(i) => i.len(),
        }
    }

    fn search(
        &self,
        vectors: &dyn Vectors,
        metric: Metric,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Vec<(u32, f32)> {
        match self {
            AnyIndex::Ivf(i) => i.search(vectors, metric, query, k, params),
            AnyIndex::Hnsw(i) => i.search(vectors, metric, query, k, params),
            AnyIndex::Pq(i) => i.search(vectors, metric, query, k, params),
        }
    }

    fn search_with_stats(
        &self,
        vectors: &dyn Vectors,
        metric: Metric,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> (Vec<(u32, f32)>, SearchStats) {
        match self {
            AnyIndex::Ivf(i) => i.search_with_stats(vectors, metric, query, k, params),
            AnyIndex::Hnsw(i) => i.search_with_stats(vectors, metric, query, k, params),
            AnyIndex::Pq(i) => i.search_with_stats(vectors, metric, query, k, params),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::VectorTable;

    #[test]
    fn exact_search_orders_ties_by_id() {
        let t = VectorTable::from_rows(
            2,
            &[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 0.0]],
        )
        .unwrap();
        let hits = search_exact(&t, Metric::L2, &[1.0, 0.0], 4);
        // Three exact ties at distance 0 must come back in id order.
        assert_eq!(hits.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![0, 2, 3, 1]);
    }

    #[test]
    fn exact_search_truncates_to_k() {
        let t = VectorTable::from_rows(1, &[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        assert_eq!(search_exact(&t, Metric::L2, &[0.0], 2).len(), 2);
        assert!(search_exact(&t, Metric::L2, &[0.0], 0).is_empty());
    }
}
