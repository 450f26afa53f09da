//! Trained-model artifacts and the model registry (the paper's "Models &
//! Embeddings" store of Fig. 3).
//!
//! Artifacts live in memory only, keyed by the model URI that the KGMeta
//! triples of the served graph name. The server removes a deleted model's
//! artifact once no retained graph version lists it.

use std::collections::HashMap;
use std::sync::Arc;

use kgnet_sync::RwLock;

use kgnet_gml::config::{GmlMethodKind, TrainReport};

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
        /// The embedding store similarity searches scan.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_artifact(uri: &str) -> ModelArtifact {
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
}
