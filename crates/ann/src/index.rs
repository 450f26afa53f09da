//! The exact-scan reference search and the hit order every search returns.

use rayon::prelude::*;

use crate::metric::Metric;
use crate::stats::SearchStats;
use crate::vectors::Vectors;
use crate::PAR_MIN_CANDIDATES;

/// Sort hits by score descending, ties by ascending id — the deterministic
/// order every search path in this crate returns.
pub(crate) fn sort_hits(hits: &mut [(u32, f32)]) {
    hits.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
}

/// Exact top-k by linear scan: the reference oracle the IVF index is
/// measured against. Parallel over the table once it is large
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
