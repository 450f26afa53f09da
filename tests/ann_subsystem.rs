//! Integration contract of similarity search through the public facade:
//! `EmbeddingStore::search` returns exactly the brute-force top-k, and
//! `EmbeddingStore::add` checks widths.

use kgnet::gmlaas::{AnnError, EmbeddingStore, Metric};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_vector(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

mod exact_search {
    use super::*;
    use proptest::prelude::*;

    /// The reference: score every key, sort by (score desc, key asc), take
    /// the first `k`.
    fn brute_force(
        rows: &[(String, Vec<f32>)],
        metric: Metric,
        query: &[f32],
        k: usize,
    ) -> Vec<(String, f32)> {
        let mut all: Vec<(String, f32)> =
            rows.iter().map(|(key, v)| (key.clone(), metric.score(query, v))).collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// On random stores of arbitrary size, width and metric, the top 10
        /// is the reference's top 10, in the same order with the same
        /// scores: recall@10 is 1.0.
        #[test]
        fn search_is_the_brute_force_top_10(
            n in 200usize..1200,
            dim_step in 1usize..5,
            metric_pick in 0usize..3,
            seed in 0u64..1000,
        ) {
            let dim = dim_step * 8;
            let metric = [Metric::L2, Metric::Cosine, Metric::Dot][metric_pick];
            let mut rng = StdRng::seed_from_u64(seed);
            let rows: Vec<(String, Vec<f32>)> =
                (0..n).map(|i| (format!("e{i}"), random_vector(&mut rng, dim))).collect();
            let mut store = EmbeddingStore::new(dim, metric);
            for (key, v) in &rows {
                store.add(key.clone(), v.clone()).unwrap();
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            for _ in 0..10 {
                let q = random_vector(&mut rng, dim);
                prop_assert_eq!(store.search(&q, 10), brute_force(&rows, metric, &q, 10));
            }
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
