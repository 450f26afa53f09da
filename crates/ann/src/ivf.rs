//! The inverted-file coarse index: k-means cells plus posting lists
//! (FAISS's `IndexIVFFlat` shape).

use kgnet_linalg::kernels;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::index::sort_hits;
use crate::metric::Metric;
use crate::stats::{CountingVectors, SearchStats};
use crate::vectors::Vectors;
use crate::PAR_MIN_CANDIDATES;

/// An inverted-file coarse index (k-means cells + posting lists).
#[derive(Debug, Clone)]
pub struct IvfIndex {
    centroids: Vec<Vec<f32>>,
    lists: Vec<Vec<u32>>,
    len: usize,
}

impl IvfIndex {
    /// Build an IVF index with `n_cells` k-means cells over `vectors` (a
    /// few Lloyd iterations, like FAISS's coarse quantiser training).
    ///
    /// The dominant O(n·cells·dim) phase — nearest-centroid assignment —
    /// runs data-parallel on the batch pool once the table is
    /// large enough, as a pure per-vector map with an order-preserving
    /// collect. The O(n·dim) centroid accumulation stays a single
    /// sequential fold in vector index order, so the index is
    /// bit-identical to the sequential build on any `RAYON_NUM_THREADS`.
    pub fn build(vectors: &dyn Vectors, n_cells: usize, iterations: usize, seed: u64) -> IvfIndex {
        let n = vectors.len();
        let dim = vectors.dim();
        if n == 0 {
            return IvfIndex { centroids: Vec::new(), lists: Vec::new(), len: 0 };
        }
        let n_cells = n_cells.clamp(1, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut centroids: Vec<Vec<f32>> =
            order[..n_cells].iter().map(|&i| vectors.vector(i as u32).to_vec()).collect();

        let mut assign = vec![0usize; n];
        for _ in 0..iterations.max(1) {
            assign_cells(vectors, &centroids, &mut assign);
            let mut sums = vec![vec![0.0f32; dim]; n_cells];
            let mut counts = vec![0usize; n_cells];
            for (i, &cell) in assign.iter().enumerate() {
                counts[cell] += 1;
                for (s, &x) in sums[cell].iter_mut().zip(vectors.vector(i as u32)) {
                    *s += x;
                }
            }
            for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
                if count > 0 {
                    *c = sum.iter().map(|&s| s / count as f32).collect();
                }
            }
        }
        assign_cells(vectors, &centroids, &mut assign);
        let mut lists = vec![Vec::new(); n_cells];
        for (i, &cell) in assign.iter().enumerate() {
            lists[cell].push(i as u32);
        }
        IvfIndex { centroids, lists, len: n }
    }

    /// Number of vectors the index was built over.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the index covers no vectors.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate top-`k` ids for `query`: probe the `nprobe` nearest
    /// cells and score their posting lists under `metric` against `vectors`
    /// (the table the index was built over). Hits are sorted by score
    /// descending, ties by ascending id, and carry exact [`Metric::score`]
    /// values, so they compare directly with
    /// [`search_exact`](crate::search_exact).
    ///
    /// Large probe sets fan the per-list scans out over the pool; the
    /// collect is order-preserving (cells in probe order, entries in list
    /// order), so both paths produce the same candidate sequence.
    pub fn search(
        &self,
        vectors: &dyn Vectors,
        metric: Metric,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Vec<(u32, f32)> {
        if self.centroids.is_empty() {
            return Vec::new();
        }
        let mut cells: Vec<(usize, f32)> =
            self.centroids.iter().enumerate().map(|(i, c)| (i, kernels::l2_sq(query, c))).collect();
        cells.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        let probed: Vec<&Vec<u32>> =
            cells.iter().take(nprobe.max(1)).map(|&(cell, _)| &self.lists[cell]).collect();
        let total: usize = probed.iter().map(|l| l.len()).sum();
        let score_list = |list: &&Vec<u32>| -> Vec<(u32, f32)> {
            list.iter().map(|&i| (i, metric.score(query, vectors.vector(i)))).collect()
        };
        let per_cell: Vec<Vec<(u32, f32)>> = if total >= PAR_MIN_CANDIDATES {
            probed.par_iter().map(score_list).collect()
        } else {
            probed.iter().map(score_list).collect()
        };
        let mut scored: Vec<(u32, f32)> = per_cell.into_iter().flatten().collect();
        sort_hits(&mut scored);
        scored.truncate(k);
        scored
    }

    /// Like [`search`](IvfIndex::search), also returning what the search
    /// cost. Candidates are the posting-list entries of the probed cells,
    /// counted through a [`CountingVectors`] wrapper; the coarse scan
    /// additionally scores every centroid without touching a raw vector,
    /// so it counts as distance work but not as candidates.
    pub fn search_with_stats(
        &self,
        vectors: &dyn Vectors,
        metric: Metric,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> (Vec<(u32, f32)>, SearchStats) {
        let counting = CountingVectors::new(vectors);
        let hits = self.search(&counting, metric, query, k, nprobe);
        let scored = counting.accesses();
        let coarse = self.centroids.len() as u64;
        (hits, SearchStats { candidates: scored, distance_computations: scored + coarse })
    }
}

/// Nearest-centroid assignment for every vector: a pure map, run on the
/// pool above the parallel cutoff with an order-preserving collect, so the
/// result is identical to the sequential loop.
fn assign_cells(vectors: &dyn Vectors, centroids: &[Vec<f32>], assign: &mut [usize]) {
    let n = vectors.len();
    if n >= PAR_MIN_CANDIDATES {
        let cells: Vec<usize> = (0..n)
            .into_par_iter()
            .map(|i| nearest_centroid(centroids, vectors.vector(i as u32)))
            .collect();
        assign.copy_from_slice(&cells);
    } else {
        for (i, a) in assign.iter_mut().enumerate() {
            *a = nearest_centroid(centroids, vectors.vector(i as u32));
        }
    }
}

fn nearest_centroid(centroids: &[Vec<f32>], v: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = kernels::l2_sq(v, c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::VectorTable;

    #[test]
    fn empty_table_builds_empty_index() {
        let t = VectorTable::new(4);
        let index = IvfIndex::build(&t, 8, 3, 1);
        assert!(index.is_empty());
        assert!(index.search(&t, Metric::L2, &[0.0; 4], 3, 4).is_empty());
    }
}
