//! Trained-model artifacts and the model registry (the paper's "Models &
//! Embeddings" store of Fig. 3).
//!
//! [`ModelStore::save_dir`] writes each artifact's metadata as JSON (the
//! `codec` module's hand-written encoding) and a NodeSimilarity artifact's
//! embeddings as a checksummed `.ann` sidecar in the `kgnet-ann` binary
//! columnar format; [`ModelStore::load_dir`] memory-maps the sidecar back
//! so the restored store serves searches zero-copy.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use kgnet_sync::RwLock;

use kgnet_gml::config::{GmlMethodKind, TrainReport};

use crate::codec::{read_artifact, write_artifact};
use crate::embedding_store::EmbeddingStore;
use crate::service::InferenceResponse;

/// Task-type tag stored on an artifact (mirrors the `kgnet:` model classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// `kgnet:NodeClassifier`.
    NodeClassifier,
    /// `kgnet:LinkPredictor`.
    LinkPredictor,
    /// `kgnet:NodeSimilarity`.
    NodeSimilarity,
}

/// The task-specific payload of a trained model.
#[derive(Debug, Clone)]
pub enum ArtifactPayload {
    /// Node classifier: target IRI -> predicted class IRI.
    NodeClassifier {
        /// Prediction dictionary over every inferable target, shared with
        /// every Dictionary response served from it.
        predictions: Arc<HashMap<String, String>>,
    },
    /// Link predictor: source IRI -> ranked `(destination IRI, score)`.
    LinkPredictor {
        /// Ranked candidate lists (already truncated to a stored k).
        topk: HashMap<String, Vec<(String, f32)>>,
    },
    /// Entity-similarity model backed by an embedding store.
    NodeSimilarity {
        /// The searchable embedding index.
        store: EmbeddingStore,
    },
}

/// A trained model with its KGMeta-relevant metadata.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    /// Unique model URI (minted by the training manager).
    pub uri: String,
    /// Task kind.
    pub task_kind: TaskKind,
    /// IRI of the task's target/source node type.
    pub target_type: String,
    /// IRI of the label predicate (NC) or predicted edge (LP).
    pub label_predicate: String,
    /// IRI of the destination type (LP only).
    pub destination_type: Option<String>,
    /// The GML method that produced the model.
    pub method: GmlMethodKind,
    /// Training/evaluation record.
    pub report: TrainReport,
    /// Sampler scope name used for `KG'` extraction (e.g. `d1h1`).
    pub sampler: String,
    /// Number of entities the model can answer for (the paper's "model
    /// cardinality", used by the query optimizer).
    pub cardinality: usize,
    /// Store generation (MVCC version) of the snapshot the model was
    /// trained against; `0` for standalone/ad-hoc training runs.
    pub trained_generation: u64,
    /// The inference payload.
    pub payload: ArtifactPayload,
}

impl ModelArtifact {
    /// Model accuracy in `[0,1]` (test accuracy / Hits@10).
    pub fn accuracy(&self) -> f64 {
        self.report.test_metric
    }

    /// Per-call inference latency estimate in milliseconds.
    pub fn inference_time_ms(&self) -> f64 {
        self.report.inference_time_ms
    }
}

/// One registry slot: an artifact and, for a node classifier, the JSON
/// length of its `NodeClassDict` response, computed once at registration
/// so the two are replaced and removed together.
#[derive(Clone)]
pub(crate) struct Registered {
    pub(crate) artifact: Arc<ModelArtifact>,
    pub(crate) dict_wire_len: Option<usize>,
}

/// Thread-safe registry of trained models, keyed by URI.
#[derive(Default, Clone)]
pub struct ModelStore {
    inner: Arc<RwLock<HashMap<String, Registered>>>,
}

impl ModelStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a model, replacing any previous artifact under its URI.
    pub fn insert(&self, artifact: ModelArtifact) -> Arc<ModelArtifact> {
        let dict_wire_len = match &artifact.payload {
            ArtifactPayload::NodeClassifier { predictions } => Some(
                InferenceResponse::NodeClassDict { predictions: Arc::clone(predictions) }
                    .wire_len(),
            ),
            _ => None,
        };
        let arc = Arc::new(artifact);
        let entry = Registered { artifact: arc.clone(), dict_wire_len };
        self.inner.write().insert(arc.uri.clone(), entry);
        arc
    }

    /// Fetch a model by URI.
    pub fn get(&self, uri: &str) -> Option<Arc<ModelArtifact>> {
        self.inner.read().get(uri).map(|entry| entry.artifact.clone())
    }

    /// Fetch a model together with its cached Dictionary response length.
    pub(crate) fn get_registered(&self, uri: &str) -> Option<Registered> {
        self.inner.read().get(uri).cloned()
    }

    /// Delete a model; returns whether it existed.
    pub fn remove(&self, uri: &str) -> bool {
        self.inner.write().remove(uri).is_some()
    }

    /// All registered URIs.
    pub fn uris(&self) -> Vec<String> {
        self.inner.read().keys().cloned().collect()
    }

    /// Number of stored models.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True when no model is stored.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Persist every artifact under `dir`: `<sanitised-uri>.json` for its
    /// metadata and non-embedding payload, plus `<sanitised-uri>.ann`
    /// (the binary columnar format) for a non-empty NodeSimilarity
    /// embedding store, whose vector count the JSON records.
    pub fn save_dir(&self, dir: &Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let guard = self.inner.read();
        for Registered { artifact, .. } in guard.values() {
            let name = sanitise(&artifact.uri);
            let ann_path = dir.join(format!("{name}.ann"));
            match &artifact.payload {
                ArtifactPayload::NodeSimilarity { store } if !store.is_empty() => {
                    store.save_binary(&ann_path).map_err(|e| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                    })?;
                }
                // No sidecar for this artifact: drop any stale one a
                // previous save of the same URI left behind, so a later
                // load cannot resurrect replaced embeddings.
                _ => match std::fs::remove_file(&ann_path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                },
            }
            std::fs::write(dir.join(format!("{name}.json")), write_artifact(artifact))?;
        }
        Ok(guard.len())
    }

    /// Load every artifact from a directory. Malformed files — unparsable
    /// JSON, or a corrupt/truncated `.ann` embedding file — are skipped
    /// and reported in the returned [`LoadReport`] instead of aborting
    /// the whole directory load; every healthy artifact still loads.
    ///
    /// A NodeSimilarity artifact whose JSON records vectors gets its
    /// embedding store memory-mapped from the sibling `.ann` file, which
    /// must exist and hold that many vectors.
    pub fn load_dir(&self, dir: &Path) -> std::io::Result<LoadReport> {
        let mut report = LoadReport::default();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let read = std::fs::read_to_string(&path).map_err(|e| e.to_string());
            let (mut artifact, vectors) = match read.and_then(|json| read_artifact(&json)) {
                Ok(read) => read,
                Err(e) => {
                    report.skipped.push((path, e));
                    continue;
                }
            };
            if vectors > 0 {
                let ann_path = path.with_extension("ann");
                match EmbeddingStore::load_binary(&ann_path) {
                    Ok(store) if store.len() == vectors => {
                        artifact.payload = ArtifactPayload::NodeSimilarity { store };
                    }
                    Ok(store) => {
                        let e = format!("holds {} vectors, the metadata {vectors}", store.len());
                        report.skipped.push((ann_path, e));
                        continue;
                    }
                    Err(e) => {
                        report.skipped.push((ann_path, e.to_string()));
                        continue;
                    }
                }
            }
            self.insert(artifact);
            report.loaded += 1;
        }
        Ok(report)
    }
}

/// Outcome of a [`ModelStore::load_dir`]: how many artifacts loaded, and
/// which files were skipped (with the reason) instead of failing the
/// whole directory.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Artifacts successfully registered.
    pub loaded: usize,
    /// Skipped files and why each failed.
    pub skipped: Vec<(PathBuf, String)>,
}

fn sanitise(uri: &str) -> String {
    uri.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn dummy_artifact(uri: &str) -> ModelArtifact {
        ModelArtifact {
            uri: uri.to_owned(),
            task_kind: TaskKind::NodeClassifier,
            target_type: "http://x/Paper".into(),
            label_predicate: "http://x/venue".into(),
            destination_type: None,
            method: GmlMethodKind::Gcn,
            report: TrainReport {
                method: GmlMethodKind::Gcn,
                train_time_s: 1.0,
                peak_mem_bytes: 1024,
                test_metric: 0.9,
                valid_metric: 0.88,
                mrr: 0.0,
                loss_curve: vec![1.0, 0.5],
                n_nodes: 10,
                n_edges: 20,
                inference_time_ms: 0.5,
            },
            sampler: "d1h1".into(),
            cardinality: 10,
            trained_generation: 0,
            payload: ArtifactPayload::NodeClassifier {
                predictions: Arc::new(
                    [("http://x/p1".to_owned(), "http://x/v1".to_owned())].into_iter().collect(),
                ),
            },
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let store = ModelStore::new();
        store.insert(dummy_artifact("http://kgnet/m1"));
        assert_eq!(store.len(), 1);
        let m = store.get("http://kgnet/m1").unwrap();
        assert_eq!(m.accuracy(), 0.9);
        assert!(store.remove("http://kgnet/m1"));
        assert!(store.is_empty());
        assert!(!store.remove("http://kgnet/m1"));
    }

    fn similarity_artifact(uri: &str, n: usize, seed: u64) -> ModelArtifact {
        use crate::embedding_store::Metric;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut store = EmbeddingStore::new(8, Metric::Cosine);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let v: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            store.add(format!("http://x/e{i}"), v).unwrap();
        }
        store.build_ivf(4, 3, seed);
        let mut a = dummy_artifact(uri);
        a.task_kind = TaskKind::NodeSimilarity;
        a.payload = ArtifactPayload::NodeSimilarity { store };
        a
    }

    #[test]
    fn save_and_load_directory() {
        let dir = std::env::temp_dir().join(format!("kgnet-models-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ModelStore::new();
        store.insert(dummy_artifact("http://kgnet/m1"));
        store.insert(dummy_artifact("http://kgnet/m2"));
        assert_eq!(store.save_dir(&dir).unwrap(), 2);
        let restored = ModelStore::new();
        let report = restored.load_dir(&dir).unwrap();
        assert_eq!((report.loaded, report.skipped.len()), (2, 0));
        assert!(restored.get("http://kgnet/m2").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn similarity_payloads_round_trip_through_binary_files() {
        let dir = std::env::temp_dir().join(format!("kgnet-models-bin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ModelStore::new();
        store.insert(similarity_artifact("http://kgnet/sim", 60, 5));
        store.save_dir(&dir).unwrap();
        // The embedding payload must live in the binary sidecar, not JSON.
        let ann = dir.join(format!("{}.ann", sanitise("http://kgnet/sim")));
        assert!(ann.exists(), "no binary embedding artifact written");
        let json =
            std::fs::read_to_string(dir.join(format!("{}.json", sanitise("http://kgnet/sim"))))
                .unwrap();
        assert!(!json.contains("http://x/e59"), "embedding keys leaked into the metadata JSON");

        let restored = ModelStore::new();
        let report = restored.load_dir(&dir).unwrap();
        assert_eq!((report.loaded, report.skipped.len()), (1, 0));
        let m = restored.get("http://kgnet/sim").unwrap();
        let ArtifactPayload::NodeSimilarity { store: emb } = &m.payload else {
            panic!("payload kind changed across persistence");
        };
        assert_eq!(emb.len(), 60);
        let orig = store.get("http://kgnet/sim").unwrap();
        let ArtifactPayload::NodeSimilarity { store: orig_emb } = &orig.payload else {
            unreachable!()
        };
        let q = orig_emb.get("http://x/e7").unwrap().to_vec();
        assert_eq!(orig_emb.search(&q, 5, 2), emb.search(&q, 5, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_files_are_skipped_and_reported() {
        let dir = std::env::temp_dir().join(format!("kgnet-models-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ModelStore::new();
        store.insert(dummy_artifact("http://kgnet/good"));
        store.insert(similarity_artifact("http://kgnet/sim", 30, 6));
        store.save_dir(&dir).unwrap();
        // One unparsable JSON file and one corrupted binary sidecar.
        std::fs::write(dir.join("broken.json"), "{ not json").unwrap();
        let ann = dir.join(format!("{}.ann", sanitise("http://kgnet/sim")));
        let mut bytes = std::fs::read(&ann).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&ann, bytes).unwrap();

        let restored = ModelStore::new();
        let report = restored.load_dir(&dir).unwrap();
        assert_eq!(report.loaded, 1, "the healthy artifact must still load");
        assert!(restored.get("http://kgnet/good").is_some());
        assert!(restored.get("http://kgnet/sim").is_none());
        assert_eq!(report.skipped.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replacing_an_artifact_drops_its_stale_sidecar() {
        let dir = std::env::temp_dir().join(format!("kgnet-models-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ModelStore::new();
        store.insert(similarity_artifact("http://kgnet/sim", 30, 8));
        store.save_dir(&dir).unwrap();
        let ann = dir.join(format!("{}.ann", sanitise("http://kgnet/sim")));
        assert!(ann.exists());

        // Replace the model with one whose embedding store is empty and
        // save again: the old sidecar must not survive to resurrect the
        // replaced embeddings on the next load.
        let mut empty = dummy_artifact("http://kgnet/sim");
        empty.task_kind = TaskKind::NodeSimilarity;
        empty.payload = ArtifactPayload::NodeSimilarity {
            store: EmbeddingStore::new(8, crate::embedding_store::Metric::Cosine),
        };
        store.insert(empty);
        store.save_dir(&dir).unwrap();
        assert!(!ann.exists(), "stale binary sidecar survived the re-save");

        let restored = ModelStore::new();
        let report = restored.load_dir(&dir).unwrap();
        assert_eq!((report.loaded, report.skipped.len()), (1, 0));
        let m = restored.get("http://kgnet/sim").unwrap();
        let ArtifactPayload::NodeSimilarity { store: emb } = &m.payload else {
            panic!("payload kind changed")
        };
        assert!(emb.is_empty(), "old embeddings resurrected from a stale sidecar");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sharing NC predictions behind an `Arc` is invisible on disk: the
    /// bytes `save_dir` writes are the ones it wrote when the payload was
    /// a plain map, and they load back into an equal map.
    #[test]
    fn node_classifier_json_on_disk_is_unchanged() {
        const EXPECTED: &str = r#"{"uri":"http://kgnet/nc","task_kind":"NodeClassifier","target_type":"http://x/Paper","label_predicate":"http://x/venue","destination_type":null,"method":"Gcn","report":{"method":"Gcn","train_time_s":1.0,"peak_mem_bytes":1024,"test_metric":0.9,"valid_metric":0.88,"mrr":0.0,"loss_curve":[1.0,0.5],"n_nodes":10,"n_edges":20,"inference_time_ms":0.5},"sampler":"d1h1","cardinality":10,"trained_generation":0,"payload":{"NodeClassifier":{"predictions":{"http://x/p1":"http://x/v1","http://x/p2":"http://x/v\"2"}}}}"#;
        let dir = std::env::temp_dir().join(format!("kgnet-models-nc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let uri = "http://kgnet/nc";
        let predictions: HashMap<String, String> = [
            ("http://x/p2".to_owned(), "http://x/v\"2".to_owned()),
            ("http://x/p1".to_owned(), "http://x/v1".to_owned()),
        ]
        .into_iter()
        .collect();
        let mut artifact = dummy_artifact(uri);
        artifact.payload = ArtifactPayload::NodeClassifier { predictions: Arc::new(predictions) };
        let store = ModelStore::new();
        store.insert(artifact);
        store.save_dir(&dir).unwrap();
        let json = std::fs::read_to_string(dir.join(format!("{}.json", sanitise(uri)))).unwrap();
        assert_eq!(json, EXPECTED);

        let restored = ModelStore::new();
        assert_eq!(restored.load_dir(&dir).unwrap().loaded, 1);
        let (a, b) = (store.get(uri).unwrap(), restored.get(uri).unwrap());
        let (
            ArtifactPayload::NodeClassifier { predictions: saved },
            ArtifactPayload::NodeClassifier { predictions: loaded },
        ) = (&a.payload, &b.payload)
        else {
            panic!("payload kind changed across persistence")
        };
        assert_eq!(saved, loaded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A diverged run's NaN loss and a NaN link score are written as
    /// `null` and read back as NaN, so the artifact still loads.
    #[test]
    fn non_finite_floats_survive_a_save_and_load() {
        let dir = std::env::temp_dir().join(format!("kgnet-models-nan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut nc = dummy_artifact("http://kgnet/nan");
        nc.report.loss_curve = vec![0.5, f32::NAN, f32::INFINITY];
        nc.report.mrr = f64::NAN;
        let mut lp = dummy_artifact("http://kgnet/lp");
        lp.task_kind = TaskKind::LinkPredictor;
        lp.destination_type = Some("http://x/Venue".into());
        let links =
            vec![("http://x/v1".to_owned(), 0.25f32), ("http://x/v\"2".to_owned(), f32::NAN)];
        lp.payload = ArtifactPayload::LinkPredictor {
            topk: [("http://x/p1".to_owned(), links), ("http://x/p2".to_owned(), vec![])].into(),
        };
        let store = ModelStore::new();
        store.insert(nc);
        store.insert(lp);
        store.save_dir(&dir).unwrap();

        let restored = ModelStore::new();
        let report = restored.load_dir(&dir).unwrap();
        assert_eq!((report.loaded, report.skipped), (2, vec![]));
        let curve = &restored.get("http://kgnet/nan").unwrap().report.loss_curve;
        assert_eq!(curve[0], 0.5);
        assert!(curve[1].is_nan() && curve[2].is_nan(), "{curve:?}");
        assert!(restored.get("http://kgnet/nan").unwrap().report.mrr.is_nan());
        let lp = restored.get("http://kgnet/lp").unwrap();
        assert_eq!(lp.destination_type.as_deref(), Some("http://x/Venue"));
        let ArtifactPayload::LinkPredictor { topk } = &lp.payload else { panic!("payload kind") };
        assert_eq!(topk.len(), 2);
        assert_eq!(topk["http://x/p1"][0], ("http://x/v1".to_owned(), 0.25));
        assert_eq!(topk["http://x/p1"][1].0, "http://x/v\"2");
        assert!(topk["http://x/p1"][1].1.is_nan());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A similarity artifact whose sidecar is gone, or holds a different
    /// number of vectors than its metadata records, is skipped and
    /// reported rather than loaded as an empty model.
    #[test]
    fn missing_or_mismatched_sidecars_are_skipped_and_reported() {
        let dir = std::env::temp_dir().join(format!("kgnet-models-side-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ModelStore::new();
        store.insert(similarity_artifact("http://kgnet/gone", 20, 3));
        store.insert(similarity_artifact("http://kgnet/swapped", 20, 4));
        store.save_dir(&dir).unwrap();
        let sidecar = |uri: &str| dir.join(format!("{}.ann", sanitise(uri)));
        std::fs::remove_file(sidecar("http://kgnet/gone")).unwrap();
        let ArtifactPayload::NodeSimilarity { store: other } =
            similarity_artifact("http://kgnet/other", 25, 5).payload
        else {
            unreachable!()
        };
        other.save_binary(&sidecar("http://kgnet/swapped")).unwrap();

        let restored = ModelStore::new();
        let report = restored.load_dir(&dir).unwrap();
        assert_eq!(report.loaded, 0);
        let mut skipped: Vec<_> = report.skipped.iter().map(|(path, _)| path.clone()).collect();
        skipped.sort();
        assert_eq!(skipped, vec![sidecar("http://kgnet/gone"), sidecar("http://kgnet/swapped")]);
        assert!(restored.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
