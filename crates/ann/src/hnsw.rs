//! HNSW: a hierarchical navigable-small-world graph index (Malkov &
//! Yashunin, 2016) — layered skip-list-style construction with
//! `ef_construction` / `ef_search` beam tunables.
//!
//! Two properties matter here beyond the textbook algorithm:
//!
//! - **Deterministic levels.** Each node's top layer is drawn from the
//!   usual geometric distribution, but through a SplitMix64 stream keyed
//!   by `(seed, node id)` — never from shared RNG state — so the layer
//!   structure of a build is a pure function of the inputs.
//! - **Deterministic parallel construction.** Nodes are inserted in fixed
//!   id order; after a sequential seed phase, construction proceeds in
//!   *waves*: the expensive part of each insertion (finding its
//!   `ef_construction` nearest candidates per layer) runs as a pure
//!   parallel map against the graph frozen at the wave boundary, then the
//!   cheap link/prune mutations are applied sequentially in id order.
//!   Every parallel phase is an order-preserving map over immutable state,
//!   so the built graph is bit-identical on any `RAYON_NUM_THREADS` — the
//!   same discipline as `IvfIndex::build` and the linalg kernels.
//!
//! All traversal ordering uses `f32::total_cmp` with node-id tie-breaks,
//! so ties never introduce run-to-run nondeterminism.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rayon::prelude::*;
use rustc_hash::FxHashSet;
use serde::{Deserialize, Serialize};

use crate::format::{AnnFile, AnnFileWriter, FormatError};
use crate::index::{AnnIndex, SearchParams};
use crate::metric::Metric;
use crate::splitmix64;
use crate::vectors::Vectors;

/// Hard cap on a node's level (the geometric tail beyond this is
/// astronomically unlikely and would only waste layer bookkeeping).
const MAX_LEVEL: usize = 15;

/// Nodes inserted strictly one-by-one before wave-parallel construction
/// starts, so early waves always search a well-connected graph.
const SEQ_PHASE: usize = 1024;

/// Insertions per parallel construction wave.
const WAVE: usize = 256;

/// HNSW build-time tunables.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HnswConfig {
    /// Maximum links per node on layers above 0 (layer 0 keeps `2m`).
    pub m: usize,
    /// Candidate beam width during construction.
    pub ef_construction: usize,
    /// Default query beam width (overridable per query via
    /// [`SearchParams::ef_search`]).
    pub ef_search: usize,
    /// Seed of the deterministic level-assignment stream.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig { m: 16, ef_construction: 160, ef_search: 128, seed: 0x5EED }
    }
}

/// One layer's adjacency in CSR form: node `i`'s links are
/// `links[offsets[i]..offsets[i+1]]` (empty for nodes below this layer).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Layer {
    offsets: Vec<u32>,
    links: Vec<u32>,
}

/// A built HNSW graph index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HnswIndex {
    m: usize,
    ef_search: usize,
    entry: u32,
    levels: Vec<u8>,
    layers: Vec<Layer>,
}

/// Read access to a (possibly still under construction) layered graph.
trait Graph {
    fn neighbors(&self, node: u32, layer: usize) -> &[u32];
}

impl Graph for HnswIndex {
    fn neighbors(&self, node: u32, layer: usize) -> &[u32] {
        let Some(l) = self.layers.get(layer) else { return &[] };
        let a = l.offsets[node as usize] as usize;
        let b = l.offsets[node as usize + 1] as usize;
        &l.links[a..b]
    }
}

/// `(distance, id)` with a total, deterministic order.
#[derive(Clone, Copy, PartialEq)]
struct DistId(f32, u32);

impl Eq for DistId {}

impl Ord for DistId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then_with(|| self.1.cmp(&other.1))
    }
}

impl PartialOrd for DistId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Best-first beam search inside one layer: returns up to `ef` nearest
/// `(distance, id)` pairs, sorted ascending by `(distance, id)`.
fn search_layer(
    g: &impl Graph,
    vectors: &dyn Vectors,
    metric: Metric,
    q: &[f32],
    entry_points: &[(f32, u32)],
    ef: usize,
    layer: usize,
) -> Vec<(f32, u32)> {
    let ef = ef.max(1);
    let mut visited: FxHashSet<u32> = FxHashSet::default();
    let mut candidates: BinaryHeap<Reverse<DistId>> = BinaryHeap::new();
    let mut result: BinaryHeap<DistId> = BinaryHeap::new();
    for &(d, e) in entry_points {
        if visited.insert(e) {
            candidates.push(Reverse(DistId(d, e)));
            result.push(DistId(d, e));
            if result.len() > ef {
                result.pop();
            }
        }
    }
    while let Some(Reverse(DistId(d, c))) = candidates.pop() {
        let worst = result.peek().expect("result tracks candidates").0;
        if d > worst && result.len() >= ef {
            break;
        }
        for &nb in g.neighbors(c, layer) {
            if visited.insert(nb) {
                let dn = metric.distance(q, vectors.vector(nb));
                if result.len() < ef || dn < result.peek().expect("non-empty").0 {
                    candidates.push(Reverse(DistId(dn, nb)));
                    result.push(DistId(dn, nb));
                    if result.len() > ef {
                        result.pop();
                    }
                }
            }
        }
    }
    let mut out: Vec<(f32, u32)> = result.into_iter().map(|DistId(d, i)| (d, i)).collect();
    out.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    out
}

/// Greedy hill-climb from `best` through layers `from..=down_to`
/// (descending): at each layer, repeatedly move to the strictly closest
/// neighbor. Ties never move, so the walk is deterministic.
fn greedy_descend(
    g: &impl Graph,
    vectors: &dyn Vectors,
    metric: Metric,
    q: &[f32],
    mut best: (f32, u32),
    from: usize,
    down_to: usize,
) -> (f32, u32) {
    for layer in (down_to..=from).rev() {
        loop {
            let mut improved = false;
            for &nb in g.neighbors(best.1, layer) {
                let d = metric.distance(q, vectors.vector(nb));
                if d < best.0 {
                    best = (d, nb);
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }
    best
}

/// The neighbor-selection heuristic of the HNSW paper (algorithm 4):
/// scan candidates nearest-first, keep one when it is closer to the query
/// than to every already-kept neighbor (spreading links across directions),
/// then fill any remaining slots with the nearest skipped candidates.
fn select_neighbors(
    vectors: &dyn Vectors,
    metric: Metric,
    candidates: &[(f32, u32)],
    m: usize,
) -> Vec<u32> {
    let mut selected: Vec<(f32, u32)> = Vec::with_capacity(m);
    let mut skipped: Vec<(f32, u32)> = Vec::new();
    for &(d, c) in candidates {
        if selected.len() >= m {
            break;
        }
        let vc = vectors.vector(c);
        let diverse = selected.iter().all(|&(_, s)| metric.distance(vc, vectors.vector(s)) > d);
        if diverse {
            selected.push((d, c));
        } else {
            skipped.push((d, c));
        }
    }
    for &(d, c) in &skipped {
        if selected.len() >= m {
            break;
        }
        selected.push((d, c));
    }
    selected.into_iter().map(|(_, c)| c).collect()
}

/// Construction state: mutable adjacency plus the frozen-snapshot search
/// used by both the sequential and the wave-parallel phases.
struct Builder<'a> {
    vectors: &'a dyn Vectors,
    metric: Metric,
    m: usize,
    efc: usize,
    levels: Vec<u8>,
    /// `adj[node][layer]` — present for layers `0..=levels[node]`.
    adj: Vec<Vec<Vec<u32>>>,
    entry: u32,
    top: usize,
}

impl Graph for Builder<'_> {
    fn neighbors(&self, node: u32, layer: usize) -> &[u32] {
        self.adj[node as usize].get(layer).map_or(&[], Vec::as_slice)
    }
}

impl Builder<'_> {
    fn m_max(&self, layer: usize) -> usize {
        if layer == 0 {
            self.m * 2
        } else {
            self.m
        }
    }

    /// Pure candidate discovery for inserting `id` against the current
    /// (frozen) graph: per-layer `ef_construction` beams for layers
    /// `0..=min(level(id), top)`.
    fn find_candidates(&self, id: u32) -> Vec<Vec<(f32, u32)>> {
        let q = self.vectors.vector(id);
        let node_level = self.levels[id as usize] as usize;
        let mut best = (self.metric.distance(q, self.vectors.vector(self.entry)), self.entry);
        if self.top > node_level {
            best =
                greedy_descend(self, self.vectors, self.metric, q, best, self.top, node_level + 1);
        }
        let cap = node_level.min(self.top);
        let mut per_layer = vec![Vec::new(); cap + 1];
        let mut eps = vec![best];
        for layer in (0..=cap).rev() {
            let beam = search_layer(self, self.vectors, self.metric, q, &eps, self.efc, layer);
            eps.clone_from(&beam);
            per_layer[layer] = beam;
        }
        per_layer
    }

    /// Apply one insertion: select links from the discovered candidates,
    /// wire them bidirectionally, prune overflowing neighbor lists, and
    /// promote the node to graph entry when it tops the hierarchy.
    fn insert(&mut self, id: u32, per_layer: Vec<Vec<(f32, u32)>>) {
        for (layer, cands) in per_layer.into_iter().enumerate() {
            if cands.is_empty() {
                continue;
            }
            let selected = select_neighbors(self.vectors, self.metric, &cands, self.m);
            for &s in &selected {
                self.adj[s as usize][layer].push(id);
                if self.adj[s as usize][layer].len() > self.m_max(layer) {
                    self.prune(s, layer);
                }
            }
            self.adj[id as usize][layer] = selected;
        }
        let node_level = self.levels[id as usize] as usize;
        if node_level > self.top {
            self.top = node_level;
            self.entry = id;
        }
    }

    /// Re-select an overflowing neighbor list down to `m_max` with the
    /// same diversity heuristic used at insertion.
    fn prune(&mut self, node: u32, layer: usize) {
        let v = self.vectors.vector(node);
        let mut scored: Vec<(f32, u32)> = self.adj[node as usize][layer]
            .iter()
            .map(|&nb| (self.metric.distance(v, self.vectors.vector(nb)), nb))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        self.adj[node as usize][layer] =
            select_neighbors(self.vectors, self.metric, &scored, self.m_max(layer));
    }
}

/// Deterministic level draw for node `i`: a geometric level from the
/// SplitMix64 stream keyed by `(seed, i)`.
fn level_of(seed: u64, i: usize, ml: f64) -> u8 {
    let z = splitmix64(splitmix64(seed) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let u = ((z >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    ((-u.ln() * ml).floor() as usize).min(MAX_LEVEL) as u8
}

impl HnswIndex {
    /// Build an HNSW graph over `vectors` under `metric`.
    ///
    /// Nodes are inserted in id order: the first `SEQ_PHASE` strictly
    /// sequentially, the rest in waves of `WAVE` whose candidate
    /// discovery runs as a pure parallel map against the wave-frozen
    /// graph. Bit-identical on any pool size.
    pub fn build(vectors: &dyn Vectors, metric: Metric, cfg: &HnswConfig) -> HnswIndex {
        let n = vectors.len();
        let m = cfg.m.clamp(2, 64);
        let efc = cfg.ef_construction.max(m);
        let ml = 1.0 / (m as f64).ln();
        let levels: Vec<u8> = (0..n).map(|i| level_of(cfg.seed, i, ml)).collect();
        if n == 0 {
            return HnswIndex {
                m,
                ef_search: cfg.ef_search.max(1),
                entry: 0,
                levels,
                layers: Vec::new(),
            };
        }
        let adj: Vec<Vec<Vec<u32>>> =
            (0..n).map(|i| vec![Vec::new(); levels[i] as usize + 1]).collect();
        let top = levels[0] as usize;
        let mut b = Builder { vectors, metric, m, efc, levels, adj, entry: 0, top };

        let seq_end = n.min(SEQ_PHASE);
        for i in 1..seq_end {
            let cands = b.find_candidates(i as u32);
            b.insert(i as u32, cands);
        }
        let mut next = seq_end;
        while next < n {
            let end = (next + WAVE).min(n);
            let ids: Vec<u32> = (next..end).map(|i| i as u32).collect();
            let waves: Vec<Vec<Vec<(f32, u32)>>> =
                ids.par_iter().map(|&id| b.find_candidates(id)).collect();
            for (id, cands) in ids.into_iter().zip(waves) {
                b.insert(id, cands);
            }
            next = end;
        }

        // Freeze the ragged adjacency into per-layer CSR.
        let layers = (0..=b.top)
            .map(|l| {
                let mut offsets = Vec::with_capacity(n + 1);
                let mut links = Vec::new();
                offsets.push(0u32);
                for node in 0..n {
                    if let Some(nbs) = b.adj[node].get(l) {
                        links.extend_from_slice(nbs);
                    }
                    offsets.push(links.len() as u32);
                }
                Layer { offsets, links }
            })
            .collect();
        HnswIndex { m, ef_search: cfg.ef_search.max(1), entry: b.entry, levels: b.levels, layers }
    }

    /// The graph's entry node (top of the hierarchy).
    pub fn entry_point(&self) -> u32 {
        self.entry
    }

    /// Number of layers in the hierarchy.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Persist into `w` under the `index.` section prefix.
    pub(crate) fn put_sections(&self, w: &mut AnnFileWriter) {
        w.put_u32s(
            "index.params",
            &[self.m as u32, self.ef_search as u32, self.entry, self.layers.len() as u32],
        );
        w.put_u8s("index.levels", &self.levels);
        for (l, layer) in self.layers.iter().enumerate() {
            w.put_u32s(&format!("index.layer{l}.offsets"), &layer.offsets);
            w.put_u32s(&format!("index.layer{l}.links"), &layer.links);
        }
    }

    /// Load from the `index.` sections of a persisted file.
    pub(crate) fn from_file(f: &AnnFile) -> Result<HnswIndex, FormatError> {
        let params = f.u32s("index.params")?;
        if params.len() != 4 {
            return Err(FormatError::Malformed("hnsw params section has wrong arity".into()));
        }
        let (m, ef_search, entry, n_layers) =
            (params[0] as usize, params[1] as usize, params[2], params[3] as usize);
        let levels = f.u8s("index.levels")?.to_vec();
        let n = levels.len();
        let mut layers = Vec::with_capacity(n_layers);
        for l in 0..n_layers {
            let offsets = f.u32s(&format!("index.layer{l}.offsets"))?;
            let links = f.u32s(&format!("index.layer{l}.links"))?;
            if offsets.len() != n + 1
                || offsets.last().copied().unwrap_or(0) as usize != links.len()
                || offsets.windows(2).any(|w| w[0] > w[1])
                || links.iter().any(|&t| t as usize >= n)
            {
                return Err(FormatError::Malformed(format!("hnsw layer {l} CSR is inconsistent")));
            }
            layers.push(Layer { offsets, links });
        }
        if n > 0 && entry as usize >= n {
            return Err(FormatError::Malformed("hnsw entry point out of range".into()));
        }
        Ok(HnswIndex { m, ef_search: ef_search.max(1), entry, levels, layers })
    }
}

impl AnnIndex for HnswIndex {
    fn kind(&self) -> &'static str {
        "hnsw"
    }

    fn len(&self) -> usize {
        self.levels.len()
    }

    fn search(
        &self,
        vectors: &dyn Vectors,
        metric: Metric,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Vec<(u32, f32)> {
        if self.levels.is_empty() || k == 0 {
            return Vec::new();
        }
        let ef = if params.ef_search > 0 { params.ef_search } else { self.ef_search }.max(k);
        let mut best = (metric.distance(query, vectors.vector(self.entry)), self.entry);
        if self.layers.len() > 1 {
            best = greedy_descend(self, vectors, metric, query, best, self.layers.len() - 1, 1);
        }
        let beam = search_layer(self, vectors, metric, query, &[best], ef, 0);
        beam.into_iter().take(k).map(|(d, i)| (i, -d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::search_exact;
    use crate::vectors::VectorTable;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_table(n: usize, dim: usize, seed: u64) -> VectorTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = VectorTable::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            t.push(&v).unwrap();
        }
        t
    }

    fn recall_at(
        t: &VectorTable,
        index: &HnswIndex,
        metric: Metric,
        k: usize,
        queries: u64,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(queries);
        let (mut hit, mut total) = (0usize, 0usize);
        for _ in 0..20 {
            let q: Vec<f32> = (0..t.dim()).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let exact: Vec<u32> =
                search_exact(t, metric, &q, k).into_iter().map(|(i, _)| i).collect();
            let approx: Vec<u32> = index
                .search(t, metric, &q, k, &SearchParams::default())
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            total += exact.len();
            hit += exact.iter().filter(|i| approx.contains(i)).count();
        }
        hit as f64 / total as f64
    }

    #[test]
    fn recall_at_10_beats_point_nine() {
        let t = random_table(2000, 16, 7);
        let index = HnswIndex::build(&t, Metric::L2, &HnswConfig::default());
        let recall = recall_at(&t, &index, Metric::L2, 10, 11);
        assert!(recall >= 0.9, "HNSW recall@10 too low: {recall}");
    }

    #[test]
    fn self_query_returns_self_first() {
        let t = random_table(500, 8, 3);
        let index = HnswIndex::build(&t, Metric::Cosine, &HnswConfig::default());
        let q = t.vector(123).to_vec();
        let hits = index.search(&t, Metric::Cosine, &q, 3, &SearchParams::default());
        assert_eq!(hits[0].0, 123);
    }

    #[test]
    fn wave_parallel_build_is_identical_across_pool_sizes() {
        // 3000 nodes goes well past the sequential seed phase, so the
        // wave-parallel path runs; the frozen CSR must match bit-for-bit.
        let t = random_table(3000, 8, 9);
        let cfg = HnswConfig { ef_construction: 48, ..Default::default() };
        let single = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let multi = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let a = single.install(|| HnswIndex::build(&t, Metric::L2, &cfg));
        let b = multi.install(|| HnswIndex::build(&t, Metric::L2, &cfg));
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    fn tiny_and_empty_graphs_work() {
        let empty = VectorTable::new(4);
        let index = HnswIndex::build(&empty, Metric::L2, &HnswConfig::default());
        assert!(index
            .search(&empty, Metric::L2, &[0.0; 4], 5, &SearchParams::default())
            .is_empty());

        let one = VectorTable::from_rows(2, &[vec![1.0, 2.0]]).unwrap();
        let index = HnswIndex::build(&one, Metric::L2, &HnswConfig::default());
        let hits = index.search(&one, Metric::L2, &[1.0, 2.0], 3, &SearchParams::default());
        assert_eq!(hits, vec![(0, 0.0)]);
    }

    #[test]
    fn levels_follow_seed_not_call_order() {
        let cfg = HnswConfig::default();
        let a = level_of(cfg.seed, 42, 1.0 / 16f64.ln());
        let b = level_of(cfg.seed, 42, 1.0 / 16f64.ln());
        assert_eq!(a, b);
        // Level histogram sanity: most nodes stay on layer 0.
        let levels: Vec<u8> = (0..10_000).map(|i| level_of(1, i, 1.0 / 16f64.ln())).collect();
        let ground = levels.iter().filter(|&&l| l == 0).count();
        assert!(ground > 8_000, "geometric level distribution looks wrong: {ground}");
    }
}
