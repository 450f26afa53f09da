//! Integration contract of the vector-search subsystem through the public
//! facade: a recall bound for the served IVF index against the exact
//! scan, binary persistence round-trips (save → mmap-load → identical
//! search results), checksum rejection of truncated/corrupt artifacts,
//! and the model-store's skip-and-report directory loading.

use kgnet::ann::{AnnError, FormatError};
use kgnet::gmlaas::{
    served_ivf_cells, ArtifactPayload, EmbeddingStore, Metric, ModelStore, SERVED_NPROBE,
};

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

fn temp_file(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("kgnet-ann-it-{}-{name}", std::process::id()))
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
fn persistence_roundtrip_is_search_identical() {
    // save → mmap-load → every search result identical, for the IVF index
    // and the exact scan, across metrics.
    for (metric, tag) in [(Metric::L2, "l2"), (Metric::Cosine, "cos"), (Metric::Dot, "dot")] {
        let path = temp_file(&format!("roundtrip-{tag}.ann"));
        let mut store = filled_store(700, 16, metric, 77);
        store.build_ivf(24, 4, 5);
        store.save_binary(&path).unwrap();
        let mapped = EmbeddingStore::load_binary(&path).unwrap();
        assert_eq!(mapped.len(), store.len());
        assert!(mapped.is_indexed());
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..15 {
            let q: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            assert_eq!(store.search(&q, 10, 6), mapped.search(&q, 10, 6), "metric {tag}");
            assert_eq!(store.search_exact(&q, 10), mapped.search_exact(&q, 10));
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn truncated_artifact_is_rejected() {
    let path = temp_file("truncated.ann");
    let mut store = filled_store(300, 8, Metric::L2, 3);
    store.build_ivf(served_ivf_cells(300), 4, 3);
    store.save_binary(&path).unwrap();
    let full = std::fs::read(&path).unwrap();
    for cut in [full.len() - 1, full.len() - 9, full.len() / 2, 40, 0] {
        std::fs::write(&path, &full[..cut]).unwrap();
        assert!(
            EmbeddingStore::load_binary(&path).is_err(),
            "truncation to {cut} bytes was accepted"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_artifact_is_rejected_by_checksum() {
    let path = temp_file("corrupt.ann");
    let mut store = filled_store(300, 8, Metric::L2, 4);
    store.build_ivf(served_ivf_cells(300), 4, 4);
    store.save_binary(&path).unwrap();
    let clean = std::fs::read(&path).unwrap();
    // Flip one byte at several positions across the file body.
    for at in [30, clean.len() / 3, clean.len() / 2, clean.len() - 20] {
        let mut bytes = clean.clone();
        bytes[at] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        match EmbeddingStore::load_binary(&path) {
            Err(AnnError::Format(FormatError::Checksum { .. }))
            | Err(AnnError::Format(FormatError::Malformed(_)))
            | Err(AnnError::Format(FormatError::Version(_))) => {}
            other => panic!("corruption at byte {at} was accepted: {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn model_store_skips_and_reports_bad_files() {
    let dir = temp_file("modeldir");
    let _ = std::fs::remove_dir_all(&dir);

    // A healthy similarity model persisted through the binary path…
    let store = ModelStore::new();
    let mut emb = filled_store(80, 8, Metric::Cosine, 9);
    emb.build_ivf(served_ivf_cells(80), 4, 9);
    let artifact = sample_similarity_artifact("http://kgnet/sim-ok", emb);
    store.insert(artifact);
    store.save_dir(&dir).unwrap();
    // …plus one unparsable JSON neighbour.
    std::fs::write(dir.join("junk.json"), "{ definitely not json").unwrap();

    let restored = ModelStore::new();
    let report = restored.load_dir(&dir).unwrap();
    assert_eq!(report.loaded, 1);
    assert_eq!(report.skipped.len(), 1);
    assert!(report.skipped[0].0.ends_with("junk.json"));
    let m = restored.get("http://kgnet/sim-ok").unwrap();
    let ArtifactPayload::NodeSimilarity { store: emb } = &m.payload else {
        panic!("payload kind changed")
    };
    assert!(emb.is_indexed());
    assert_eq!(emb.len(), 80);
    let q = emb.get("e12").unwrap().to_vec();
    assert_eq!(emb.search(&q, 3, SERVED_NPROBE)[0].0, "e12");
    let _ = std::fs::remove_dir_all(&dir);
}

fn sample_similarity_artifact(uri: &str, emb: EmbeddingStore) -> kgnet::gmlaas::ModelArtifact {
    use kgnet::gml::config::{GmlMethodKind, TrainReport};
    kgnet::gmlaas::ModelArtifact {
        uri: uri.to_owned(),
        task_kind: kgnet::gmlaas::TaskKind::NodeSimilarity,
        target_type: "http://x/Paper".into(),
        label_predicate: String::new(),
        destination_type: None,
        method: GmlMethodKind::TransE,
        report: TrainReport {
            method: GmlMethodKind::TransE,
            train_time_s: 1.0,
            peak_mem_bytes: 1024,
            test_metric: 0.9,
            valid_metric: 0.88,
            mrr: 0.5,
            loss_curve: vec![1.0, 0.4],
            n_nodes: 80,
            n_edges: 160,
            inference_time_ms: 0.2,
        },
        sampler: "d1h1".into(),
        cardinality: 80,
        trained_generation: 0,
        payload: ArtifactPayload::NodeSimilarity { store: emb },
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
