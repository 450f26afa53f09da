//! Integration contract of the vector-search subsystem through the public
//! facade: a recall bound for the served IVF index against the exact
//! scan, and the width check of `EmbeddingStore::add`.

use kgnet::ann::AnnError;
use kgnet::gmlaas::{served_ivf_cells, EmbeddingStore, Metric, SERVED_NPROBE};

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

fn recall_at_10(store: &EmbeddingStore, dim: usize, queries: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut hit, mut total) = (0usize, 0usize);
    for _ in 0..queries {
        let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let exact: Vec<String> = store.search_exact(&q, 10).into_iter().map(|(k, _)| k).collect();
        let approx: Vec<String> =
            store.search(&q, 10, SERVED_NPROBE).into_iter().map(|(k, _)| k).collect();
        total += exact.len();
        hit += exact.iter().filter(|k| approx.contains(k)).count();
    }
    hit as f64 / total.max(1) as f64
}

mod recall_bounds {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Recall@10 of the index training builds, searched the way both
        /// serving paths search it, stays above a floor on random stores of
        /// arbitrary size, width and metric.
        #[test]
        fn ivf_recall_bound(
            n in 200usize..1200,
            dim_step in 1usize..5,
            metric_pick in 0usize..3,
            seed in 0u64..1000,
        ) {
            let dim = dim_step * 8;
            let metric = [Metric::L2, Metric::Cosine, Metric::Dot][metric_pick];
            let mut store = filled_store(n, dim, metric, seed);
            store.build_ivf(served_ivf_cells(n), 4, seed);
            let recall = recall_at_10(&store, dim, 10, seed ^ 0xABCD);
            prop_assert!(recall >= 0.25, "IVF recall@10 = {recall} on n={n} dim={dim}");
        }
    }
}

#[test]
fn dimension_mismatch_surfaces_through_facade() {
    let mut store = EmbeddingStore::new(8, Metric::L2);
    store.add("ok", vec![0.0; 8]).unwrap();
    let err = store.add("bad", vec![0.0; 5]).unwrap_err();
    assert!(matches!(err, AnnError::DimensionMismatch { expected: 8, got: 5 }));
    assert_eq!(store.len(), 1);
}
