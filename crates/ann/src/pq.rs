//! Product quantization (Jégou et al., 2011): split each vector into `m`
//! sub-vectors, k-means a small codebook per sub-space, and store every
//! vector as `m` one-byte codes. Queries score candidates with asymmetric
//! distance computation (ADC): one `m × ks` table of query-to-centroid
//! sub-distances is precomputed per query, after which scoring a candidate
//! is `m` table lookups — no vector data touched. An optional refine pass
//! rescores the top `refine·k` ADC candidates against the raw vectors, so
//! returned scores are exact [`Metric::score`] values and recall@k
//! approaches the exact scan's.
//!
//! Training and encoding are deterministic-parallel in the same style as
//! the other indexes: every pool-parallel phase is a pure order-preserving
//! map (centroid assignment, vector encoding, ADC scans); accumulations
//! stay sequential in id order.

use kgnet_linalg::kernels;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::format::{AnnFile, AnnFileWriter, FormatError};
use crate::index::{sort_hits, AnnIndex, SearchParams};
use crate::metric::Metric;
use crate::splitmix64;
use crate::stats::{CountingVectors, SearchStats};
use crate::vectors::Vectors;
use crate::PAR_MIN_CANDIDATES;

/// PQ build-time tunables.
#[derive(Debug, Clone, Copy)]
pub struct PqConfig {
    /// Requested number of sub-quantizers. The build uses the largest
    /// divisor of the vector width that does not exceed this, so every
    /// sub-space has equal width.
    pub m: usize,
    /// Centroids per sub-codebook (capped at 256 so codes fit one byte,
    /// and at the number of training vectors).
    pub ks: usize,
    /// Lloyd iterations per sub-codebook.
    pub iterations: usize,
    /// Training sample cap: at most this many vectors (chosen by a seeded
    /// shuffle) train the codebooks.
    pub sample: usize,
    /// Default refine factor: rescore the top `refine·k` ADC candidates
    /// against raw vectors (`1` disables refinement).
    pub refine: usize,
    /// Seed of the deterministic training streams.
    pub seed: u64,
}

impl Default for PqConfig {
    fn default() -> Self {
        PqConfig { m: 8, ks: 256, iterations: 6, sample: 65_536, refine: 8, seed: 0x9C0DE }
    }
}

/// A trained product-quantization index.
#[derive(Debug, Clone)]
pub struct PqIndex {
    dim: usize,
    m: usize,
    sub: usize,
    ks: usize,
    /// `m · ks · sub` flat sub-centroids: codebook `s` centroid `c` is
    /// `codebooks[(s·ks + c)·sub ..][..sub]`.
    codebooks: Vec<f32>,
    /// `n · m` one-byte codes.
    codes: Vec<u8>,
    /// Per-vector reconstructed norms (cosine scoring).
    norms: Vec<f32>,
    refine: usize,
}

/// Largest divisor of `dim` that is `<= want` (and `>= 1`).
fn effective_m(dim: usize, want: usize) -> usize {
    let want = want.clamp(1, dim.max(1));
    (1..=want).rev().find(|m| dim.is_multiple_of(*m)).unwrap_or(1)
}

impl PqIndex {
    /// Train sub-codebooks over `vectors` and encode every vector.
    pub fn build(vectors: &dyn Vectors, cfg: &PqConfig) -> PqIndex {
        let n = vectors.len();
        let dim = vectors.dim();
        let m = effective_m(dim, cfg.m);
        let sub = dim.checked_div(m).unwrap_or(0);
        if n == 0 || dim == 0 {
            return PqIndex {
                dim,
                m,
                sub,
                ks: 0,
                codebooks: Vec::new(),
                codes: Vec::new(),
                norms: Vec::new(),
                refine: cfg.refine.max(1),
            };
        }
        // Deterministic training sample: a seeded shuffle of all ids.
        let train_ids: Vec<u32> = if n > cfg.sample.max(1) {
            let mut ids: Vec<u32> = (0..n as u32).collect();
            ids.shuffle(&mut StdRng::seed_from_u64(cfg.seed));
            ids.truncate(cfg.sample.max(1));
            ids
        } else {
            (0..n as u32).collect()
        };
        let ks = cfg.ks.clamp(1, 256).min(train_ids.len());

        let mut codebooks = Vec::with_capacity(m * ks * sub);
        for s in 0..m {
            let start = s * sub;
            // Gather this sub-space's training matrix once (flat, t × sub).
            let train: Vec<f32> = train_ids
                .iter()
                .flat_map(|&i| vectors.vector(i)[start..start + sub].iter().copied())
                .collect();
            let centroids = kmeans_subspace(
                &train,
                sub,
                ks,
                cfg.iterations.max(1),
                splitmix64(cfg.seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            codebooks.extend_from_slice(&centroids);
        }

        // Encode every vector: a pure per-vector map (order-preserving
        // above the parallel cutoff), then one sequential flatten.
        let encode_one = |i: usize| -> (Vec<u8>, f32) {
            let v = vectors.vector(i as u32);
            let mut code = Vec::with_capacity(m);
            let mut norm_sq = 0.0f32;
            for s in 0..m {
                let qsub = &v[s * sub..(s + 1) * sub];
                let (c, _) = nearest_sub_centroid(&codebooks, s, ks, sub, qsub);
                code.push(c as u8);
                let cent = centroid(&codebooks, s, ks, sub, c);
                norm_sq += kernels::dot(cent, cent);
            }
            (code, norm_sq.max(0.0).sqrt())
        };
        let encoded: Vec<(Vec<u8>, f32)> = if n >= PAR_MIN_CANDIDATES {
            (0..n).into_par_iter().map(encode_one).collect()
        } else {
            (0..n).map(encode_one).collect()
        };
        let mut codes = Vec::with_capacity(n * m);
        let mut norms = Vec::with_capacity(n);
        for (code, norm) in encoded {
            codes.extend_from_slice(&code);
            norms.push(norm);
        }
        PqIndex { dim, m, sub, ks, codebooks, codes, norms, refine: cfg.refine.max(1) }
    }

    /// Number of sub-quantizers actually used.
    pub fn n_subquantizers(&self) -> usize {
        self.m
    }

    /// Centroids per sub-codebook.
    pub fn n_centroids(&self) -> usize {
        self.ks
    }

    /// Persist into `w` under the `index.` section prefix.
    pub(crate) fn put_sections(&self, w: &mut AnnFileWriter) {
        w.put_u32s(
            "index.params",
            &[self.dim as u32, self.m as u32, self.sub as u32, self.ks as u32, self.refine as u32],
        );
        w.put_f32s("index.codebooks", &self.codebooks);
        w.put_u8s("index.codes", &self.codes);
        w.put_f32s("index.norms", &self.norms);
    }

    /// Load from the `index.` sections of a persisted file.
    pub(crate) fn from_file(f: &AnnFile) -> Result<PqIndex, FormatError> {
        let params = f.u32s("index.params")?;
        if params.len() != 5 {
            return Err(FormatError::Malformed("pq params section has wrong arity".into()));
        }
        let (dim, m, sub, ks, refine) = (
            params[0] as usize,
            params[1] as usize,
            params[2] as usize,
            params[3] as usize,
            params[4] as usize,
        );
        let codebooks = f.f32s("index.codebooks")?;
        let codes = f.u8s("index.codes")?.to_vec();
        let norms = f.f32s("index.norms")?;
        if m * sub != dim
            || codebooks.len() != m * ks * sub
            || (m > 0 && codes.len() % m != 0)
            || (m > 0 && norms.len() != codes.len() / m)
            || codes.iter().any(|&c| c as usize >= ks.max(1))
        {
            return Err(FormatError::Malformed("pq sections are inconsistent".into()));
        }
        Ok(PqIndex { dim, m, sub, ks, codebooks, codes, norms, refine: refine.max(1) })
    }
}

fn centroid(codebooks: &[f32], s: usize, ks: usize, sub: usize, c: usize) -> &[f32] {
    let at = (s * ks + c) * sub;
    &codebooks[at..at + sub]
}

fn nearest_sub_centroid(
    codebooks: &[f32],
    s: usize,
    ks: usize,
    sub: usize,
    v: &[f32],
) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for c in 0..ks {
        let d = kernels::l2_sq(v, centroid(codebooks, s, ks, sub, c));
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// K-means over one sub-space's flat `t × sub` training matrix. The
/// assignment step is a pure order-preserving parallel map above the
/// cutoff; accumulation stays a sequential fold in row order, so the
/// codebook is bit-identical on any pool size.
fn kmeans_subspace(train: &[f32], sub: usize, ks: usize, iterations: usize, seed: u64) -> Vec<f32> {
    let t = train.len().checked_div(sub).unwrap_or(0);
    let mut init: Vec<usize> = (0..t).collect();
    init.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut centroids: Vec<f32> = Vec::with_capacity(ks * sub);
    for &i in init.iter().take(ks) {
        centroids.extend_from_slice(&train[i * sub..(i + 1) * sub]);
    }

    let mut assign = vec![0usize; t];
    for _ in 0..iterations {
        assign_rows(train, sub, &centroids, ks, &mut assign);
        let mut sums = vec![0.0f32; ks * sub];
        let mut counts = vec![0usize; ks];
        for (i, &c) in assign.iter().enumerate() {
            counts[c] += 1;
            for (dst, &x) in sums[c * sub..(c + 1) * sub].iter_mut().zip(&train[i * sub..]) {
                *dst += x;
            }
        }
        for c in 0..ks {
            if counts[c] > 0 {
                for (dst, &s) in centroids[c * sub..(c + 1) * sub].iter_mut().zip(&sums[c * sub..])
                {
                    *dst = s / counts[c] as f32;
                }
            }
        }
    }
    centroids
}

fn assign_rows(train: &[f32], sub: usize, centroids: &[f32], ks: usize, assign: &mut [usize]) {
    let t = assign.len();
    let assign_one = |i: usize| {
        let row = &train[i * sub..(i + 1) * sub];
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for c in 0..ks {
            let d = kernels::l2_sq(row, &centroids[c * sub..(c + 1) * sub]);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    };
    if t >= PAR_MIN_CANDIDATES {
        let cells: Vec<usize> = (0..t).into_par_iter().map(assign_one).collect();
        assign.copy_from_slice(&cells);
    } else {
        for (i, a) in assign.iter_mut().enumerate() {
            *a = assign_one(i);
        }
    }
}

impl AnnIndex for PqIndex {
    fn kind(&self) -> &'static str {
        "pq"
    }

    fn len(&self) -> usize {
        self.codes.len().checked_div(self.m).unwrap_or(0)
    }

    fn search(
        &self,
        vectors: &dyn Vectors,
        metric: Metric,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Vec<(u32, f32)> {
        let n = self.len();
        if n == 0 || k == 0 || self.ks == 0 {
            return Vec::new();
        }
        // Precompute the query-to-centroid table: for L2 the sub-distance,
        // for Dot/Cosine the sub-inner-product (both sum across sub-spaces).
        let mut table = vec![0.0f32; self.m * self.ks];
        for s in 0..self.m {
            let qsub = &query[s * self.sub..(s + 1) * self.sub];
            for c in 0..self.ks {
                let cent = centroid(&self.codebooks, s, self.ks, self.sub, c);
                table[s * self.ks + c] = match metric {
                    Metric::L2 => kernels::l2_sq(qsub, cent),
                    Metric::Dot | Metric::Cosine => kernels::dot(qsub, cent),
                };
            }
        }
        let qnorm = kernels::norm(query);
        let score_one = |i: usize| -> (u32, f32) {
            let code = &self.codes[i * self.m..(i + 1) * self.m];
            let mut acc = 0.0f32;
            for (s, &c) in code.iter().enumerate() {
                acc += table[s * self.ks + c as usize];
            }
            let score = match metric {
                Metric::L2 => -acc.max(0.0).sqrt(),
                Metric::Dot => acc,
                Metric::Cosine => {
                    let denom = qnorm * self.norms[i];
                    if denom == 0.0 {
                        0.0
                    } else {
                        acc / denom
                    }
                }
            };
            (i as u32, score)
        };
        let mut scored: Vec<(u32, f32)> = if n >= PAR_MIN_CANDIDATES {
            (0..n).into_par_iter().map(score_one).collect()
        } else {
            (0..n).map(score_one).collect()
        };
        sort_hits(&mut scored);

        let refine = if params.refine > 0 { params.refine } else { self.refine };
        if refine <= 1 {
            scored.truncate(k);
            return scored;
        }
        scored.truncate(k.saturating_mul(refine));
        let mut exact: Vec<(u32, f32)> =
            scored.into_iter().map(|(i, _)| (i, metric.score(query, vectors.vector(i)))).collect();
        sort_hits(&mut exact);
        exact.truncate(k);
        exact
    }

    /// ADC considers every stored code as a candidate without ever
    /// touching a raw vector; the distance tally adds the query-to-
    /// centroid table build (`m · ks` sub-distances), the per-code ADC
    /// sums (`n`), and any refine-pass raw-vector rescores.
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
        let n = self.len() as u64;
        let scanned = if n == 0 || k == 0 || self.ks == 0 { 0 } else { n };
        let table = if scanned > 0 { (self.m * self.ks) as u64 } else { 0 };
        let refined = counting.accesses();
        (
            hits,
            SearchStats { candidates: scanned, distance_computations: scanned + table + refined },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::search_exact;
    use crate::vectors::VectorTable;
    use rand::Rng;

    fn random_table(n: usize, dim: usize, seed: u64) -> VectorTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = VectorTable::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            t.push(&v).unwrap();
        }
        t
    }

    #[test]
    fn effective_m_divides_dim() {
        assert_eq!(effective_m(32, 8), 8);
        assert_eq!(effective_m(30, 8), 6);
        assert_eq!(effective_m(7, 4), 1);
        assert_eq!(effective_m(8, 100), 8);
    }

    #[test]
    fn refined_recall_at_10_beats_point_nine() {
        let t = random_table(2000, 16, 21);
        let index = PqIndex::build(&t, &PqConfig { ks: 64, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(22);
        let (mut hit, mut total) = (0usize, 0usize);
        for _ in 0..20 {
            let q: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let exact: Vec<u32> =
                search_exact(&t, Metric::L2, &q, 10).into_iter().map(|(i, _)| i).collect();
            let approx: Vec<u32> = index
                .search(&t, Metric::L2, &q, 10, &SearchParams::default())
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            total += exact.len();
            hit += exact.iter().filter(|i| approx.contains(i)).count();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall >= 0.9, "refined PQ recall@10 too low: {recall}");
    }

    #[test]
    fn refined_scores_are_exact_metric_scores() {
        let t = random_table(300, 8, 5);
        let index = PqIndex::build(&t, &PqConfig { ks: 16, ..Default::default() });
        let q = t.vector(42).to_vec();
        let hits = index.search(&t, Metric::L2, &q, 5, &SearchParams::default());
        for &(i, s) in &hits {
            assert_eq!(s, Metric::L2.score(&q, t.vector(i)), "score of {i} is not exact");
        }
        assert_eq!(hits[0].0, 42, "self-query must refine to the exact vector");
    }

    #[test]
    fn build_is_identical_across_pool_sizes() {
        let t = random_table(3000, 8, 31);
        let cfg = PqConfig { ks: 32, ..Default::default() };
        let single = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let multi = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let a = single.install(|| PqIndex::build(&t, &cfg));
        let b = multi.install(|| PqIndex::build(&t, &cfg));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn empty_table_builds_empty_index() {
        let t = VectorTable::new(8);
        let index = PqIndex::build(&t, &PqConfig::default());
        assert!(index.is_empty());
        assert!(index.search(&t, Metric::L2, &[0.0; 8], 3, &SearchParams::default()).is_empty());
    }
}
