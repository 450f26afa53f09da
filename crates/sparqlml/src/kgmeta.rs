//! KGMeta: the RDF graph of trained-model metadata (paper Fig. 7).
//!
//! Every trained model is described by triples in the served graph itself,
//! next to the data it was trained on: model class (`kgnet:NodeClassifier`
//! / `kgnet:LinkPredictor` / `kgnet:NodeSimilarity`), target/label types,
//! accuracy, inference time, cardinality, method, sampler and budget,
//! interlinked with the data KG through `kgnet:HasGMLTask` on the target
//! node type. The SPARQL-ML query optimizer reads its statistics through
//! ordinary SPARQL against the snapshot it serves, so the models a query
//! sees are those of its store version, and a registration or DELETE
//! commits and aborts with the data.
//!
//! Every KGMeta triple has a predicate in the `kgnet:` namespace, or is an
//! `rdf:type` whose class is in it. Only [`register`] (through
//! [`publish`]) and [`unregister`] write them; the query manager refuses a
//! plain update that would delete or insert one once its templates are
//! instantiated, and the meta-sampler never copies one into `KG'`.

use std::sync::Arc;

use kgnet_gmlaas::{ModelArtifact, ModelStore, TaskKind};
use kgnet_rdf::term::RDF_TYPE;
use kgnet_rdf::{RdfStore, Term};

/// The `kgnet:` vocabulary (IRIs used by KGMeta and SPARQL-ML).
pub mod vocab {
    /// Namespace base.
    pub const NS: &str = kgnet_graph::KGNET_NS;

    /// Node classifier model class.
    pub const NODE_CLASSIFIER: &str = "https://www.kgnet.com/NodeClassifier";
    /// Link predictor model class.
    pub const LINK_PREDICTOR: &str = "https://www.kgnet.com/LinkPredictor";
    /// Node-similarity (entity search) model class.
    pub const NODE_SIMILARITY: &str = "https://www.kgnet.com/NodeSimilarity";

    /// Model -> target node type.
    pub const TARGET_NODE: &str = "https://www.kgnet.com/TargetNode";
    /// Model -> label edge type (node classification).
    pub const NODE_LABEL: &str = "https://www.kgnet.com/NodeLabel";
    /// Model -> source node type (link prediction).
    pub const SOURCE_NODE: &str = "https://www.kgnet.com/SourceNode";
    /// Model -> destination node type (link prediction).
    pub const DESTINATION_NODE: &str = "https://www.kgnet.com/DestinationNode";
    /// Query constraint: top-k links requested.
    pub const TOPK_LINKS: &str = "https://www.kgnet.com/TopK-Links";
    /// Model -> accuracy score.
    pub const MODEL_ACCURACY: &str = "https://www.kgnet.com/ModelAccuracy";
    /// Model -> per-call inference time (milliseconds).
    pub const INFERENCE_TIME: &str = "https://www.kgnet.com/InferenceTime";
    /// Model -> prediction cardinality.
    pub const MODEL_CARDINALITY: &str = "https://www.kgnet.com/ModelCardinality";
    /// Model -> GML method name.
    pub const GML_METHOD: &str = "https://www.kgnet.com/GMLMethod";
    /// Model -> meta-sampler scope name.
    pub const SAMPLER: &str = "https://www.kgnet.com/Sampler";
    /// Model -> training time in seconds.
    pub const TRAINING_TIME: &str = "https://www.kgnet.com/TrainingTime";
    /// Model -> peak training memory in bytes.
    pub const TRAINING_MEMORY: &str = "https://www.kgnet.com/TrainingMemory";
    /// Model -> store generation (MVCC snapshot version) it was trained on.
    pub const TRAINED_GENERATION: &str = "https://www.kgnet.com/TrainedGeneration";
    /// Data node type -> model (interlink into the data KG, Fig. 7).
    pub const HAS_GML_TASK: &str = "https://www.kgnet.com/HasGMLTask";

    /// Model class IRI for a task kind.
    pub fn class_of(kind: kgnet_gmlaas::TaskKind) -> &'static str {
        match kind {
            kgnet_gmlaas::TaskKind::NodeClassifier => NODE_CLASSIFIER,
            kgnet_gmlaas::TaskKind::LinkPredictor => LINK_PREDICTOR,
            kgnet_gmlaas::TaskKind::NodeSimilarity => NODE_SIMILARITY,
        }
    }
}

/// Statistics of one registered model, as read back from KGMeta.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelInfo {
    /// Model URI.
    pub uri: String,
    /// Accuracy in `[0,1]`.
    pub accuracy: f64,
    /// Per-call inference time, milliseconds.
    pub inference_time_ms: f64,
    /// Prediction cardinality.
    pub cardinality: usize,
    /// Method name.
    pub method: String,
}

/// Filter describing which models a user-defined predicate accepts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelFilter {
    /// Required model class (task kind).
    pub task_kind: Option<TaskKind>,
    /// Required `kgnet:TargetNode`.
    pub target_type: Option<String>,
    /// Required `kgnet:NodeLabel`.
    pub node_label: Option<String>,
    /// Required `kgnet:SourceNode`.
    pub source_type: Option<String>,
    /// Required `kgnet:DestinationNode`.
    pub destination_type: Option<String>,
}

/// Describe a trained model in `store` (Fig. 7 shape).
pub fn register(store: &mut RdfStore, artifact: &ModelArtifact) {
    let m = Term::iri(artifact.uri.clone());
    let mut insert = |predicate: &str, object: Term| {
        store.insert(m.clone(), Term::iri(predicate), object);
    };
    insert(RDF_TYPE, Term::iri(vocab::class_of(artifact.task_kind)));
    let target = || Term::iri(artifact.target_type.clone());
    let label = || Term::iri(artifact.label_predicate.clone());
    match artifact.task_kind {
        TaskKind::NodeClassifier => {
            insert(vocab::TARGET_NODE, target());
            insert(vocab::NODE_LABEL, label());
        }
        TaskKind::LinkPredictor => {
            insert(vocab::SOURCE_NODE, target());
            if let Some(dest) = &artifact.destination_type {
                insert(vocab::DESTINATION_NODE, Term::iri(dest.clone()));
            }
            insert(vocab::NODE_LABEL, label());
        }
        TaskKind::NodeSimilarity => insert(vocab::TARGET_NODE, target()),
    }
    insert(vocab::MODEL_ACCURACY, Term::double(artifact.accuracy()));
    insert(vocab::INFERENCE_TIME, Term::double(artifact.inference_time_ms()));
    insert(vocab::MODEL_CARDINALITY, Term::int(artifact.cardinality as i64));
    insert(vocab::GML_METHOD, Term::str(artifact.method.name()));
    insert(vocab::SAMPLER, Term::str(artifact.sampler.clone()));
    insert(vocab::TRAINING_TIME, Term::double(artifact.report.train_time_s));
    insert(vocab::TRAINING_MEMORY, Term::int(artifact.report.peak_mem_bytes as i64));
    insert(vocab::TRAINED_GENERATION, Term::int(artifact.trained_generation as i64));
    // Interlink with the data KG: the target type advertises the task.
    store.insert(target(), Term::iri(vocab::HAS_GML_TASK), m);
}

/// Put a trained model into service: insert it into the registry, then
/// describe it in `store`, the version being written. The artifact is in
/// the registry before any reader can find it in KGMeta.
pub fn publish(
    registry: &ModelStore,
    store: &mut RdfStore,
    artifact: ModelArtifact,
) -> Arc<ModelArtifact> {
    let artifact = registry.insert(artifact);
    register(store, &artifact);
    artifact
}

/// Remove every triple about a model URI from `store` (including
/// interlinks). Returns the number of triples removed.
pub fn unregister(store: &mut RdfStore, uri: &str) -> usize {
    let Some(id) = store.lookup(&Term::iri(uri)) else { return 0 };
    let mut doomed = store.matches(Some(id), None, None);
    doomed.extend(store.matches(None, None, Some(id)));
    let n = doomed.len();
    for (s, p, o) in doomed {
        let (s, p, o) =
            (store.resolve(s).clone(), store.resolve(p).clone(), store.resolve(o).clone());
        store.remove(&s, &p, &o);
    }
    n
}

/// Find the models described in `store` that match a filter, best
/// accuracy first. Implemented as a SPARQL query against the graph
/// (exactly what the paper's query optimizer does).
pub fn find_models(store: &RdfStore, filter: &ModelFilter) -> Vec<ModelInfo> {
    let class = filter.task_kind.map(vocab::class_of);
    let mut where_clauses = vec![
        "?m <https://www.kgnet.com/ModelAccuracy> ?acc .".to_owned(),
        "?m <https://www.kgnet.com/InferenceTime> ?time .".to_owned(),
        "?m <https://www.kgnet.com/ModelCardinality> ?card .".to_owned(),
        "?m <https://www.kgnet.com/GMLMethod> ?method .".to_owned(),
    ];
    if let Some(c) = class {
        where_clauses.push(format!("?m a <{c}> ."));
    }
    let mut push_opt = |pred: &str, value: &Option<String>| {
        if let Some(v) = value {
            where_clauses.push(format!("?m <{pred}> <{v}> ."));
        }
    };
    push_opt(vocab::TARGET_NODE, &filter.target_type);
    push_opt(vocab::NODE_LABEL, &filter.node_label);
    push_opt(vocab::SOURCE_NODE, &filter.source_type);
    push_opt(vocab::DESTINATION_NODE, &filter.destination_type);

    let query =
        format!("SELECT ?m ?acc ?time ?card ?method WHERE {{ {} }}", where_clauses.join(" "));
    let result = kgnet_rdf::query(store, &query).expect("well-formed KGMeta query");
    let mut models: Vec<ModelInfo> = result
        .rows
        .iter()
        .filter_map(|row| {
            Some(ModelInfo {
                uri: row[0].as_ref()?.as_iri()?.to_owned(),
                accuracy: row[1].as_ref()?.as_f64()?,
                inference_time_ms: row[2].as_ref()?.as_f64()?,
                cardinality: row[3].as_ref()?.as_int()? as usize,
                method: row[4].as_ref()?.as_literal()?.to_owned(),
            })
        })
        .collect();
    models.sort_by(|a, b| b.accuracy.partial_cmp(&a.accuracy).unwrap_or(std::cmp::Ordering::Equal));
    models.dedup_by(|a, b| a.uri == b.uri);
    models
}

/// Whether a triple with predicate `p` and object `o` is KGMeta: a
/// `kgnet:` predicate, or `rdf:type` with a `kgnet:` class.
pub(crate) fn is_kgmeta(p: &Term, o: &Term) -> bool {
    let in_ns = |t: &Term| t.as_iri().is_some_and(|i| i.starts_with(vocab::NS));
    in_ns(p) || (p.as_iri() == Some(RDF_TYPE) && in_ns(o))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgnet_gml::config::{GmlMethodKind, TrainReport};
    use kgnet_gmlaas::ArtifactPayload;
    use kgnet_graph::{GmlTask, NcTask};
    use kgnet_sampler::{meta_sample_task, SamplingScope};

    fn artifact(uri: &str, accuracy: f64, infer_ms: f64) -> ModelArtifact {
        ModelArtifact {
            uri: uri.to_owned(),
            task_kind: TaskKind::NodeClassifier,
            target_type: "https://www.dblp.org/Publication".into(),
            label_predicate: "https://www.dblp.org/publishedIn".into(),
            destination_type: None,
            method: GmlMethodKind::GraphSaint,
            report: TrainReport {
                method: GmlMethodKind::GraphSaint,
                train_time_s: 12.0,
                peak_mem_bytes: 4096,
                test_metric: accuracy,
                valid_metric: accuracy,
                mrr: 0.0,
                loss_curve: vec![],
                n_nodes: 5,
                n_edges: 9,
                inference_time_ms: infer_ms,
            },
            sampler: "d1h1".into(),
            cardinality: 42,
            trained_generation: 0,
            payload: ArtifactPayload::NodeClassifier { predictions: Default::default() },
        }
    }

    #[test]
    fn register_creates_fig7_shape() {
        let mut st = RdfStore::new();
        register(&mut st, &artifact("https://www.kgnet.com/model/nc/m1", 0.9, 0.2));
        assert!(st.contains(
            &Term::iri("https://www.kgnet.com/model/nc/m1"),
            &Term::iri(RDF_TYPE),
            &Term::iri(vocab::NODE_CLASSIFIER)
        ));
        assert!(st.contains(
            &Term::iri("https://www.dblp.org/Publication"),
            &Term::iri(vocab::HAS_GML_TASK),
            &Term::iri("https://www.kgnet.com/model/nc/m1")
        ));
        assert!(st.len() >= 10);
    }

    #[test]
    fn find_models_filters_and_sorts() {
        let mut st = RdfStore::new();
        register(&mut st, &artifact("https://www.kgnet.com/model/nc/m1", 0.80, 0.2));
        register(&mut st, &artifact("https://www.kgnet.com/model/nc/m2", 0.92, 0.9));
        let filter = ModelFilter {
            task_kind: Some(TaskKind::NodeClassifier),
            target_type: Some("https://www.dblp.org/Publication".into()),
            node_label: Some("https://www.dblp.org/publishedIn".into()),
            ..Default::default()
        };
        let models = find_models(&st, &filter);
        assert_eq!(models.len(), 2);
        assert_eq!(models[0].uri, "https://www.kgnet.com/model/nc/m2");
        assert!((models[0].accuracy - 0.92).abs() < 1e-9);
        assert_eq!(models[0].cardinality, 42);
        assert_eq!(models[0].method, "G-SAINT");
    }

    #[test]
    fn mismatched_filter_finds_nothing() {
        let mut st = RdfStore::new();
        register(&mut st, &artifact("https://www.kgnet.com/model/nc/m1", 0.8, 0.2));
        let filter = ModelFilter { task_kind: Some(TaskKind::LinkPredictor), ..Default::default() };
        assert!(find_models(&st, &filter).is_empty());
    }

    #[test]
    fn unregister_removes_all_triples() {
        let mut st = RdfStore::new();
        register(&mut st, &artifact("https://www.kgnet.com/model/nc/m1", 0.8, 0.2));
        let removed = unregister(&mut st, "https://www.kgnet.com/model/nc/m1");
        assert!(removed >= 10);
        assert!(st.is_empty());
        assert_eq!(unregister(&mut st, "https://www.kgnet.com/model/nc/m1"), 0);
    }

    /// KG' sampled from a store holding KGMeta equals KG' sampled from the
    /// same data without it, for every task seed type and scope.
    fn assert_kg_prime_ignores_kgmeta(data: &RdfStore, scopes: &[SamplingScope]) {
        use kgnet_datagen::vocab::dblp;
        let mut with_models = data.clone();
        register(&mut with_models, &artifact("https://www.kgnet.com/model/nc/m1", 0.9, 0.2));
        let mut lp = artifact("https://www.kgnet.com/model/lp/m2", 0.5, 0.1);
        lp.task_kind = TaskKind::LinkPredictor;
        lp.target_type = dblp::PERSON.into();
        lp.label_predicate = dblp::AFFILIATED_WITH.into();
        lp.destination_type = Some(dblp::AFFILIATION.into());
        register(&mut with_models, &lp);
        assert!(with_models.len() > data.len());

        let dump = |st: &RdfStore| {
            let mut lines: Vec<String> = st.to_ntriples().lines().map(str::to_owned).collect();
            lines.sort_unstable();
            lines
        };
        let tasks = [
            GmlTask::NodeClassification(NcTask {
                target_type: dblp::PUBLICATION.into(),
                label_predicate: dblp::PUBLISHED_IN.into(),
            }),
            GmlTask::EntitySimilarity { target_type: dblp::PERSON.into() },
        ];
        for task in &tasks {
            for &scope in scopes {
                let plain = meta_sample_task(data, task, scope).store;
                let sampled = meta_sample_task(&with_models, task, scope).store;
                assert_eq!(dump(&sampled), dump(&plain), "{task:?} at {scope}");
            }
        }
    }

    #[test]
    fn kg_prime_never_contains_kgmeta() {
        use kgnet_datagen::{generate_dblp, vocab::dblp, DblpConfig};
        let (data, _) = generate_dblp(&DblpConfig::tiny(41));
        assert_kg_prime_ignores_kgmeta(&data, &SamplingScope::ALL);

        // A data edge that is not `rdf:type` puts the target class itself
        // one hop from a seed, so d2h2 expands the class node, whose
        // KGMeta edges (`kgnet:HasGMLTask` out, `kgnet:TargetNode` in) the
        // sampler must not follow.
        let mut schema = data.clone();
        let class = Term::iri(dblp::PUBLICATION);
        schema.insert(Term::iri(dblp::paper(0)), Term::iri(DCTERMS_TYPE), class.clone());
        schema.insert(class, Term::iri(RDFS_SUBCLASS_OF), Term::iri("https://www.dblp.org/Work"));
        assert_kg_prime_ignores_kgmeta(&schema, &[SamplingScope::D2H2]);
    }

    const DCTERMS_TYPE: &str = "http://purl.org/dc/terms/type";
    const RDFS_SUBCLASS_OF: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
}
