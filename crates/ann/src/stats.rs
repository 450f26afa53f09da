//! Per-search instrumentation: [`SearchStats`] tallies and the
//! [`CountingVectors`] adapter that counts raw-vector accesses.
//!
//! Every search scores candidates by fetching rows through the [`Vectors`]
//! trait, so wrapping the table in a counting adapter measures exactly how
//! many raw-vector distance computations a search performed — with no
//! changes to the search code itself. IVF also scores its coarse centroids
//! without touching a raw vector;
//! [`IvfIndex::search_with_stats`](crate::IvfIndex::search_with_stats)
//! folds that work in.

use kgnet_sync::atomic::{AtomicU64, Ordering};

use crate::vectors::Vectors;

/// What one search cost, in units the observability layer aggregates:
/// how many stored vectors were considered and how many distance/score
/// evaluations were spent considering them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Stored vectors considered (scored) as result candidates.
    pub candidates: u64,
    /// Total distance/score evaluations, including work that never
    /// touches a raw vector: IVF coarse-centroid scoring.
    pub distance_computations: u64,
}

impl SearchStats {
    /// Fold another search's tallies into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.candidates += other.candidates;
        self.distance_computations += other.distance_computations;
    }
}

/// A [`Vectors`] adapter that counts every [`vector`](Vectors::vector)
/// access with a relaxed atomic, so counting works unchanged under the
/// parallel scoring paths. One access corresponds to one raw-vector
/// distance computation in every search loop in this crate.
pub struct CountingVectors<'a> {
    inner: &'a dyn Vectors,
    accesses: AtomicU64,
}

impl<'a> CountingVectors<'a> {
    /// Wrap `inner`, starting the access count at zero.
    pub fn new(inner: &'a dyn Vectors) -> Self {
        CountingVectors { inner, accesses: AtomicU64::new(0) }
    }

    /// Number of `vector()` calls observed so far. Exact once the search
    /// that used this wrapper has returned (no recorder is in flight).
    pub fn accesses(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }
}

impl Vectors for CountingVectors<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn vector(&self, i: u32) -> &[f32] {
        self.accesses.fetch_add(1, Ordering::Relaxed);
        self.inner.vector(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::VectorTable;

    #[test]
    fn counting_adapter_is_transparent_and_counts() {
        let t = VectorTable::from_rows(2, &[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let c = CountingVectors::new(&t);
        assert_eq!(c.len(), 2);
        assert_eq!(c.dim(), 2);
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.vector(1), &[3.0, 4.0]);
        assert_eq!(c.vector(0), &[1.0, 2.0]);
        assert_eq!(c.vector(1), &[3.0, 4.0]);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = SearchStats { candidates: 3, distance_computations: 10 };
        a.merge(&SearchStats { candidates: 2, distance_computations: 7 });
        assert_eq!(a, SearchStats { candidates: 5, distance_computations: 17 });
    }
}
