//! The GML Inference Manager's service boundary.
//!
//! In the paper, the RDF engine's UDFs reach trained models through HTTP
//! calls into GMLaaS, and the number of such calls is exactly what the
//! SPARQL-ML optimizer minimises (Figs. 11/12). This module keeps that
//! objective observable in-process: the service counts calls, and the JSON
//! bytes of each request and response, through their `wire_len`, which
//! counts the bytes of their JSON encoding without building it. The
//! typed request is served and the typed response returned directly, so
//! the counts are what an HTTP client would send and receive.
//!
//! The Fig. 12 Dictionary response is the exception on both counts: it
//! shares the artifact's prediction map (an `Arc` clone, not a copy), and
//! its wire size is the length [`ModelStore::insert`] cached when the model
//! was registered, so a call neither copies nor walks the map.

use kgnet_sync::atomic::{AtomicUsize, Ordering};
use std::collections::HashMap;
use std::sync::Arc;

use kgnet_obs::{push_json_string, ByteCount, JsonSink};

use crate::codec::{push_key, push_links, push_map, push_tag};
use crate::model_store::{ArtifactPayload, ModelStore, Registered};

/// A request to the inference service (one "HTTP call").
#[derive(Debug, Clone, PartialEq)]
pub enum InferenceRequest {
    /// Fig. 11 per-instance call: class of one node.
    GetNodeClass {
        /// Model URI.
        model: String,
        /// Target node IRI.
        node: String,
    },
    /// Fig. 12 single call: the full prediction dictionary.
    GetNodeClassDict {
        /// Model URI.
        model: String,
    },
    /// Top-k predicted links for one source node.
    GetTopkLinks {
        /// Model URI.
        model: String,
        /// Source node IRI.
        source: String,
        /// Links requested.
        k: usize,
    },
    /// All sources' top-k predicted links in one call.
    GetAllTopkLinks {
        /// Model URI.
        model: String,
        /// Links per source.
        k: usize,
    },
    /// k nearest entities in embedding space.
    GetSimilarNodes {
        /// Model URI.
        model: String,
        /// Query node IRI.
        node: String,
        /// Neighbours requested.
        k: usize,
    },
}

/// A JSON response from the inference service.
#[derive(Debug, Clone, PartialEq)]
pub enum InferenceResponse {
    /// Class of a single node (absent when the model cannot infer it).
    NodeClass {
        /// Echoed node IRI.
        node: String,
        /// Predicted class IRI.
        class: Option<String>,
    },
    /// Full prediction dictionary.
    NodeClassDict {
        /// target IRI -> class IRI, shared with the model artifact.
        predictions: Arc<HashMap<String, String>>,
    },
    /// Ranked links for one source.
    TopkLinks {
        /// Echoed source IRI.
        source: String,
        /// `(destination, score)` best first.
        links: Vec<(String, f32)>,
    },
    /// Ranked links for all sources.
    AllTopkLinks {
        /// source IRI -> `(destination, score)` lists.
        links: HashMap<String, Vec<(String, f32)>>,
    },
    /// Embedding-space neighbours.
    SimilarNodes {
        /// `(entity, similarity)` best first.
        neighbors: Vec<(String, f32)>,
    },
}

impl InferenceRequest {
    /// Bytes of this request's JSON encoding: the tag `"op"` (the variant
    /// name) first, then the fields in declaration order.
    pub fn wire_len(&self) -> usize {
        let (op, model, node, k) = match self {
            InferenceRequest::GetNodeClass { model, node } => {
                ("GetNodeClass", model, Some(("node", node)), None)
            }
            InferenceRequest::GetNodeClassDict { model } => ("GetNodeClassDict", model, None, None),
            InferenceRequest::GetTopkLinks { model, source, k } => {
                ("GetTopkLinks", model, Some(("source", source)), Some(k))
            }
            InferenceRequest::GetAllTopkLinks { model, k } => {
                ("GetAllTopkLinks", model, None, Some(k))
            }
            InferenceRequest::GetSimilarNodes { model, node, k } => {
                ("GetSimilarNodes", model, Some(("node", node)), Some(k))
            }
        };
        let out = &mut ByteCount::default();
        push_tag(out, "op", op);
        push_key(out, "model");
        push_json_string(out, model);
        if let Some((key, node)) = node {
            push_key(out, key);
            push_json_string(out, node);
        }
        if let Some(k) = k {
            push_key(out, "k");
            out.push_fmt(format_args!("{k}"));
        }
        out.push_str("}");
        out.0
    }
}

impl InferenceResponse {
    /// Bytes of this response's JSON encoding: the tag `"kind"` (the
    /// variant name) first, then the fields in declaration order; a map
    /// is an object, a link a `["entity",score]` pair.
    pub fn wire_len(&self) -> usize {
        let out = &mut ByteCount::default();
        match self {
            InferenceResponse::NodeClass { node, class } => {
                push_tag(out, "kind", "NodeClass");
                push_key(out, "node");
                push_json_string(out, node);
                push_key(out, "class");
                match class {
                    Some(class) => push_json_string(out, class),
                    None => out.push_str("null"),
                }
            }
            InferenceResponse::NodeClassDict { predictions } => {
                push_tag(out, "kind", "NodeClassDict");
                push_key(out, "predictions");
                push_map(out, predictions.iter(), |out, class| push_json_string(out, class));
            }
            InferenceResponse::TopkLinks { source, links } => {
                push_tag(out, "kind", "TopkLinks");
                push_key(out, "source");
                push_json_string(out, source);
                push_key(out, "links");
                push_links(out, links);
            }
            InferenceResponse::AllTopkLinks { links } => {
                push_tag(out, "kind", "AllTopkLinks");
                push_key(out, "links");
                push_map(out, links.iter(), |out, links| push_links(out, links));
            }
            InferenceResponse::SimilarNodes { neighbors } => {
                push_tag(out, "kind", "SimilarNodes");
                push_key(out, "neighbors");
                push_links(out, neighbors);
            }
        }
        out.push_str("}");
        out.0
    }
}

/// Service-level errors (the HTTP error responses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Unknown model URI.
    ModelNotFound(String),
    /// Request not applicable to the model's task kind.
    WrongTask(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::ModelNotFound(uri) => write!(f, "model not found: {uri}"),
            ServiceError::WrongTask(msg) => write!(f, "wrong task: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Call/byte counters of the service boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Number of calls served.
    pub calls: usize,
    /// Request bytes received (JSON).
    pub bytes_in: usize,
    /// Response bytes sent (JSON).
    pub bytes_out: usize,
}

/// The inference service.
#[derive(Clone, Default)]
pub struct InferenceService {
    models: ModelStore,
    calls: Arc<AtomicUsize>,
    bytes_in: Arc<AtomicUsize>,
    bytes_out: Arc<AtomicUsize>,
}

impl InferenceService {
    /// Service over a model store.
    pub fn new(models: ModelStore) -> Self {
        InferenceService {
            models,
            calls: Arc::new(AtomicUsize::new(0)),
            bytes_in: Arc::new(AtomicUsize::new(0)),
            bytes_out: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The backing model store.
    pub fn models(&self) -> &ModelStore {
        &self.models
    }

    /// Current counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            calls: self.calls.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }

    /// Reset counters (e.g. between benchmarked queries).
    pub fn reset_stats(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.bytes_in.store(0, Ordering::Relaxed);
        self.bytes_out.store(0, Ordering::Relaxed);
    }

    /// Perform one call across the JSON boundary: the call and the JSON
    /// size of the request and of the response are counted, and the
    /// caller's request is served directly.
    pub fn call(&self, request: &InferenceRequest) -> Result<InferenceResponse, ServiceError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(request.wire_len(), Ordering::Relaxed);

        let mut cached_len = None;
        let response = self.handle(request, &mut cached_len)?;

        let wire_len = cached_len.unwrap_or_else(|| response.wire_len());
        self.bytes_out.fetch_add(wire_len, Ordering::Relaxed);
        Ok(response)
    }

    /// Serve `request`. A response whose wire length the registry cached
    /// reports it through `cached_len`, so `call` need not count it.
    fn handle(
        &self,
        request: &InferenceRequest,
        cached_len: &mut Option<usize>,
    ) -> Result<InferenceResponse, ServiceError> {
        match request {
            InferenceRequest::GetNodeClass { model, node } => {
                let artifact = self.lookup(model)?;
                match &artifact.payload {
                    ArtifactPayload::NodeClassifier { predictions } => {
                        Ok(InferenceResponse::NodeClass {
                            node: node.clone(),
                            class: predictions.get(node).cloned(),
                        })
                    }
                    _ => Err(ServiceError::WrongTask(format!("{model} is not a node classifier"))),
                }
            }
            InferenceRequest::GetNodeClassDict { model } => {
                // Artifact and cached length come from one registry read,
                // so a concurrent re-insert cannot pair one with the other.
                let Registered { artifact, dict_wire_len } = self
                    .models
                    .get_registered(model)
                    .ok_or_else(|| ServiceError::ModelNotFound(model.clone()))?;
                match &artifact.payload {
                    ArtifactPayload::NodeClassifier { predictions } => {
                        *cached_len = dict_wire_len;
                        Ok(InferenceResponse::NodeClassDict {
                            predictions: Arc::clone(predictions),
                        })
                    }
                    _ => Err(ServiceError::WrongTask(format!("{model} is not a node classifier"))),
                }
            }
            InferenceRequest::GetTopkLinks { model, source, k } => {
                let artifact = self.lookup(model)?;
                match &artifact.payload {
                    ArtifactPayload::LinkPredictor { topk } => Ok(InferenceResponse::TopkLinks {
                        source: source.clone(),
                        links: topk
                            .get(source)
                            .map(|l| l.iter().take(*k).cloned().collect())
                            .unwrap_or_default(),
                    }),
                    _ => Err(ServiceError::WrongTask(format!("{model} is not a link predictor"))),
                }
            }
            InferenceRequest::GetAllTopkLinks { model, k } => {
                let artifact = self.lookup(model)?;
                match &artifact.payload {
                    ArtifactPayload::LinkPredictor { topk } => {
                        let links = topk
                            .iter()
                            .map(|(s, l)| (s.clone(), l.iter().take(*k).cloned().collect()))
                            .collect();
                        Ok(InferenceResponse::AllTopkLinks { links })
                    }
                    _ => Err(ServiceError::WrongTask(format!("{model} is not a link predictor"))),
                }
            }
            InferenceRequest::GetSimilarNodes { model, node, k } => {
                let artifact = self.lookup(model)?;
                match &artifact.payload {
                    ArtifactPayload::NodeSimilarity { store } => {
                        let Some(query) = store.get(node) else {
                            return Ok(InferenceResponse::SimilarNodes { neighbors: vec![] });
                        };
                        let q = query.to_vec();
                        Ok(InferenceResponse::SimilarNodes { neighbors: store.search(&q, *k) })
                    }
                    _ => Err(ServiceError::WrongTask(format!("{model} is not a similarity model"))),
                }
            }
        }
    }

    fn lookup(&self, uri: &str) -> Result<Arc<crate::model_store::ModelArtifact>, ServiceError> {
        self.models.get(uri).ok_or_else(|| ServiceError::ModelNotFound(uri.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_store::{ModelArtifact, TaskKind};
    use kgnet_gml::config::{GmlMethodKind, TrainReport};

    fn report() -> TrainReport {
        TrainReport {
            method: GmlMethodKind::Gcn,
            train_time_s: 0.0,
            peak_mem_bytes: 0,
            test_metric: 0.9,
            valid_metric: 0.9,
            mrr: 0.0,
            loss_curve: vec![],
            n_nodes: 0,
            n_edges: 0,
            inference_time_ms: 0.1,
        }
    }

    fn nc_artifact(uri: &str, papers: usize) -> ModelArtifact {
        ModelArtifact {
            uri: uri.to_owned(),
            task_kind: TaskKind::NodeClassifier,
            target_type: "http://x/Paper".into(),
            label_predicate: "http://x/venue".into(),
            destination_type: None,
            method: GmlMethodKind::Gcn,
            report: report(),
            sampler: "d1h1".into(),
            cardinality: papers,
            trained_generation: 0,
            payload: ArtifactPayload::NodeClassifier {
                predictions: Arc::new(
                    (1..=papers)
                        .map(|i| (format!("http://x/p{i}"), format!("http://x/v{i}")))
                        .collect(),
                ),
            },
        }
    }

    fn service_with_nc() -> (InferenceService, String) {
        let store = ModelStore::new();
        let uri = "https://www.kgnet.com/model/nc/test-1".to_owned();
        store.insert(nc_artifact(&uri, 2));
        (InferenceService::new(store), uri)
    }

    fn dict(resp: &InferenceResponse) -> &Arc<HashMap<String, String>> {
        match resp {
            InferenceResponse::NodeClassDict { predictions } => predictions,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn node_class_lookup_counts_calls() {
        let (svc, uri) = service_with_nc();
        let resp = svc
            .call(&InferenceRequest::GetNodeClass {
                model: uri.clone(),
                node: "http://x/p1".into(),
            })
            .unwrap();
        assert_eq!(
            resp,
            InferenceResponse::NodeClass {
                node: "http://x/p1".into(),
                class: Some("http://x/v1".into())
            }
        );
        let stats = svc.stats();
        assert_eq!(stats.calls, 1);
        assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    }

    #[test]
    fn dictionary_call_is_one_call_many_bytes() {
        let (svc, uri) = service_with_nc();
        svc.reset_stats();
        let resp = svc.call(&InferenceRequest::GetNodeClassDict { model: uri }).unwrap();
        assert_eq!(dict(&resp).len(), 2);
        assert_eq!(svc.stats().calls, 1);
    }

    #[test]
    fn dictionary_calls_share_the_artifact_predictions() {
        let (svc, uri) = service_with_nc();
        let req = InferenceRequest::GetNodeClassDict { model: uri.clone() };
        let (a, b) = (svc.call(&req).unwrap(), svc.call(&req).unwrap());
        assert!(Arc::ptr_eq(dict(&a), dict(&b)), "each call copied the prediction map");
        let artifact = svc.models().get(&uri).unwrap();
        let ArtifactPayload::NodeClassifier { predictions } = &artifact.payload else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(dict(&a), predictions));
    }

    /// The Dictionary response is sized from the length cached at
    /// registration; it must stay the exact serialised size across a
    /// re-insert of the URI, and vanish with the model.
    #[test]
    fn cached_dictionary_length_tracks_the_registry() {
        let (svc, uri) = service_with_nc();
        let req = InferenceRequest::GetNodeClassDict { model: uri.clone() };
        let bytes_out_of_one_call = || {
            svc.reset_stats();
            let resp = svc.call(&req).unwrap();
            (svc.stats().bytes_out, resp.wire_len(), dict(&resp).len())
        };
        let (counted, serialised, entries) = bytes_out_of_one_call();
        assert_eq!((counted, entries), (serialised, 2));

        svc.models().insert(nc_artifact(&uri, 40));
        let (counted_after, serialised_after, entries) = bytes_out_of_one_call();
        assert_eq!((counted_after, entries), (serialised_after, 40));
        assert!(counted_after > counted, "re-insert kept the old cached length");

        assert!(svc.models().remove(&uri));
        svc.reset_stats();
        assert!(matches!(svc.call(&req), Err(ServiceError::ModelNotFound(_))));
        let expected_in = req.wire_len();
        assert_eq!(svc.stats(), ServiceStats { calls: 1, bytes_in: expected_in, bytes_out: 0 });
    }

    #[test]
    fn unknown_model_and_wrong_task_errors() {
        let (svc, uri) = service_with_nc();
        let err = svc
            .call(&InferenceRequest::GetNodeClass { model: "http://nope".into(), node: "n".into() })
            .unwrap_err();
        assert!(matches!(err, ServiceError::ModelNotFound(_)));
        let err = svc
            .call(&InferenceRequest::GetTopkLinks { model: uri, source: "s".into(), k: 3 })
            .unwrap_err();
        assert!(matches!(err, ServiceError::WrongTask(_)));
    }

    #[test]
    fn unknown_node_returns_none_class() {
        let (svc, uri) = service_with_nc();
        let resp = svc
            .call(&InferenceRequest::GetNodeClass { model: uri, node: "http://x/unknown".into() })
            .unwrap();
        assert_eq!(
            resp,
            InferenceResponse::NodeClass { node: "http://x/unknown".into(), class: None }
        );
    }

    /// `wire_len` counts exactly the bytes of each variant's JSON encoding:
    /// the golden texts are what the serde-based encoder wrote before it was
    /// replaced (a multi-entry map in key order; its length is order-free).
    #[test]
    fn every_variant_has_its_golden_wire_len() {
        let model = "https://www.kgnet.com/model/x".to_owned();
        let requests = [
            (
                InferenceRequest::GetNodeClass {
                    model: model.clone(),
                    node: "http://x/p\"1".into(),
                },
                r#"{"op":"GetNodeClass","model":"https://www.kgnet.com/model/x","node":"http://x/p\"1"}"#,
            ),
            (
                InferenceRequest::GetNodeClassDict { model: model.clone() },
                r#"{"op":"GetNodeClassDict","model":"https://www.kgnet.com/model/x"}"#,
            ),
            (
                InferenceRequest::GetTopkLinks { model: model.clone(), source: "s".into(), k: 3 },
                r#"{"op":"GetTopkLinks","model":"https://www.kgnet.com/model/x","source":"s","k":3}"#,
            ),
            (
                InferenceRequest::GetAllTopkLinks { model: model.clone(), k: 0 },
                r#"{"op":"GetAllTopkLinks","model":"https://www.kgnet.com/model/x","k":0}"#,
            ),
            (
                InferenceRequest::GetSimilarNodes { model, node: "Zürich 😀".into(), k: 10 },
                r#"{"op":"GetSimilarNodes","model":"https://www.kgnet.com/model/x","node":"Zürich 😀","k":10}"#,
            ),
        ];
        for (req, golden) in requests {
            assert_eq!(req.wire_len(), golden.len(), "{golden}");
        }
        let links = vec![("http://x/d1".to_owned(), 0.1f32), ("d2".to_owned(), -3.5e-7)];
        let responses = [
            (
                InferenceResponse::NodeClass { node: "n".into(), class: Some("c".into()) },
                r#"{"kind":"NodeClass","node":"n","class":"c"}"#,
            ),
            (
                InferenceResponse::NodeClass { node: "n".into(), class: None },
                r#"{"kind":"NodeClass","node":"n","class":null}"#,
            ),
            (
                InferenceResponse::NodeClassDict {
                    predictions: Arc::new(
                        [("p1".to_owned(), "v1".to_owned()), ("p\n2".into(), "ü".into())]
                            .into_iter()
                            .collect(),
                    ),
                },
                r#"{"kind":"NodeClassDict","predictions":{"p\n2":"ü","p1":"v1"}}"#,
            ),
            (
                InferenceResponse::TopkLinks {
                    source: "s".into(),
                    links: vec![("http://x/d1".to_owned(), 0.1f32), ("d2".to_owned(), f32::NAN)],
                },
                r#"{"kind":"TopkLinks","source":"s","links":[["http://x/d1",0.10000000149011612],["d2",null]]}"#,
            ),
            (
                InferenceResponse::AllTopkLinks {
                    links: [("s".to_owned(), links.clone()), ("t".to_owned(), vec![])]
                        .into_iter()
                        .collect(),
                },
                r#"{"kind":"AllTopkLinks","links":{"s":[["http://x/d1",0.10000000149011612],["d2",-3.4999999343199306e-7]],"t":[]}}"#,
            ),
            (
                InferenceResponse::SimilarNodes { neighbors: links },
                r#"{"kind":"SimilarNodes","neighbors":[["http://x/d1",0.10000000149011612],["d2",-3.4999999343199306e-7]]}"#,
            ),
        ];
        for (resp, golden) in responses {
            assert_eq!(resp.wire_len(), golden.len(), "{golden}");
        }
    }

    #[test]
    fn byte_counters_equal_serialised_sizes() {
        let (svc, uri) = service_with_nc();
        let requests = [
            InferenceRequest::GetNodeClass { model: uri.clone(), node: "http://x/p2".into() },
            InferenceRequest::GetNodeClassDict { model: uri },
        ];
        for req in requests {
            svc.reset_stats();
            let resp = svc.call(&req).unwrap();
            let stats = svc.stats();
            assert_eq!(stats.calls, 1);
            assert_eq!(stats.bytes_in, req.wire_len());
            assert_eq!(stats.bytes_out, resp.wire_len());
        }
    }

    #[test]
    fn error_paths_still_count_the_call() {
        let (svc, uri) = service_with_nc();
        svc.reset_stats();
        let missing = InferenceRequest::GetNodeClassDict { model: "http://nope".into() };
        let wrong = InferenceRequest::GetAllTopkLinks { model: uri, k: 2 };
        assert!(matches!(svc.call(&missing), Err(ServiceError::ModelNotFound(_))));
        assert!(matches!(svc.call(&wrong), Err(ServiceError::WrongTask(_))));
        let expected_in = missing.wire_len() + wrong.wire_len();
        assert_eq!(svc.stats(), ServiceStats { calls: 2, bytes_in: expected_in, bytes_out: 0 });
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let (svc, uri) = service_with_nc();
        let _ = svc.call(&InferenceRequest::GetNodeClassDict { model: uri });
        svc.reset_stats();
        assert_eq!(svc.stats(), ServiceStats::default());
    }
}
