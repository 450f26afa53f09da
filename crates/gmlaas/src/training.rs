//! The GML Training Manager (Fig. 6): one entry point that takes a
//! task-specific subgraph `KG'`, a task and a budget, runs the automated
//! pipeline — data transformation, budget-constrained method selection,
//! training, evaluation — and packages the result as a [`ModelArtifact`].

use kgnet_sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kgnet_gml::config::{GmlMethodKind, GnnConfig};
use kgnet_gml::control::TrainControl;
use kgnet_gml::dataset::{build_lp_dataset, build_nc_dataset};
use kgnet_gml::estimate::GraphDims;
use kgnet_gml::lp::{kge, train_lp_ctl};
use kgnet_gml::nc::train_nc_ctl;
use kgnet_graph::{transform, GmlTask, SplitRatios, SplitStrategy};
use kgnet_rdf::RdfStore;
use kgnet_sampler::SamplingScope;

use crate::budget::TaskBudget;
use crate::embedding_store::{EmbeddingStore, Metric};
use crate::model_store::{ArtifactPayload, ModelArtifact, ModelStore, TaskKind};
use crate::selector::select_method;

/// Stored top-k depth for link-prediction artifacts.
const STORED_TOPK: usize = 20;

/// A training request, as decoded from a SPARQL-ML `TrainGML` call.
#[derive(Debug, Clone)]
pub struct TrainRequest {
    /// Human-readable model name (used in the minted URI).
    pub name: String,
    /// The task.
    pub task: GmlTask,
    /// Resource budget.
    pub budget: TaskBudget,
    /// Hyper-parameters.
    pub cfg: GnnConfig,
    /// Expert override: skip selection and use this method, which must be
    /// one that can train `task`.
    pub forced_method: Option<GmlMethodKind>,
    /// Split strategy for the transformer.
    pub split_strategy: SplitStrategy,
    /// Name of the sampler scope that produced `KG'` (recorded in KGMeta).
    pub sampler: String,
}

impl TrainRequest {
    /// A request with defaults for everything but the task. The sampler
    /// scope is the paper's best for the task kind,
    /// [`SamplingScope::default_for`].
    pub fn new(name: impl Into<String>, task: GmlTask) -> Self {
        let sampler = SamplingScope::default_for(&task).name();
        TrainRequest {
            name: name.into(),
            task,
            budget: TaskBudget::unlimited(),
            cfg: GnnConfig::default(),
            forced_method: None,
            split_strategy: SplitStrategy::Random,
            sampler,
        }
    }
}

/// Errors from the training manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// No method fits the requested budget.
    BudgetInfeasible,
    /// The task matched no targets/edges in the provided graph.
    EmptyTask,
    /// The run was cancelled mid-training; any partial result was discarded.
    Cancelled,
    /// The forced method cannot train the request's task (a link predictor
    /// forced on node classification, say).
    MethodNotForTask {
        /// The forced method.
        method: GmlMethodKind,
        /// The task's [`GmlTask::kind_name`].
        task: &'static str,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::BudgetInfeasible => write!(f, "no GML method fits the task budget"),
            TrainError::EmptyTask => write!(f, "task selects no targets in the graph"),
            TrainError::Cancelled => write!(f, "training cancelled before completion"),
            TrainError::MethodNotForTask { method, task } => {
                write!(f, "{method} cannot train a {task} task")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// The training manager: owns the model registry and mints model URIs.
///
/// Cloning produces a handle over the *same* registry and URI counter, so
/// concurrent trainers (e.g. a server's training job queue next to the
/// query manager) never mint colliding URIs or diverge on visible models.
#[derive(Clone)]
pub struct TrainingManager {
    store: ModelStore,
    counter: Arc<AtomicU64>,
}

impl Default for TrainingManager {
    fn default() -> Self {
        Self::new(ModelStore::new())
    }
}

impl TrainingManager {
    /// Manager over an existing model store.
    pub fn new(store: ModelStore) -> Self {
        TrainingManager { store, counter: Arc::new(AtomicU64::new(1)) }
    }

    /// The shared model store.
    pub fn model_store(&self) -> &ModelStore {
        &self.store
    }

    /// Run the automated pipeline on a task-specific subgraph and return
    /// the built artifact, which exists only on the caller's stack: the
    /// caller registers it in the [`model_store`](Self::model_store)
    /// together with its own metadata, so a failure anywhere (a forced
    /// method that cannot train the task, an infeasible budget, an empty
    /// task, a panicking trainer) leaves the registry exactly as it was.
    /// `ctl` is polled in the trainer's epoch loop: a raised flag stops the
    /// run within one epoch and yields [`TrainError::Cancelled`] (the
    /// partial model is dropped, never built into an artifact).
    pub fn train(
        &self,
        kg_prime: &RdfStore,
        req: &TrainRequest,
        ctl: TrainControl<'_>,
    ) -> Result<ModelArtifact, TrainError> {
        let methods = methods_for(&req.task);
        if let Some(method) = req.forced_method.filter(|m| !methods.contains(m)) {
            return Err(TrainError::MethodNotForTask { method, task: req.task.kind_name() });
        }
        match &req.task {
            GmlTask::NodeClassification(nc) => self.train_nc_task(kg_prime, req, nc, ctl),
            GmlTask::LinkPrediction(lp) => self.train_lp_task(kg_prime, req, lp, ctl),
            GmlTask::EntitySimilarity { target_type } => {
                self.train_similarity(kg_prime, req, target_type, ctl)
            }
        }
    }

    fn mint_uri(&self, kind: &str, method: GmlMethodKind, name: &str) -> String {
        let id = self.counter.fetch_add(1, Ordering::Relaxed);
        let slug: String =
            name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect();
        format!("https://www.kgnet.com/model/{kind}/{}-{slug}-{id}", method.name())
    }

    fn train_nc_task(
        &self,
        kg: &RdfStore,
        req: &TrainRequest,
        task: &kgnet_graph::NcTask,
        ctl: TrainControl<'_>,
    ) -> Result<ModelArtifact, TrainError> {
        let data =
            build_nc_dataset(kg, task, req.split_strategy, SplitRatios::default(), req.cfg.seed);
        if data.n_targets() == 0 || data.n_classes() == 0 {
            return Err(TrainError::EmptyTask);
        }
        let dims = GraphDims::of_nc(&data);
        let method = req
            .forced_method
            .or_else(|| select_method(&GmlMethodKind::NC_METHODS, &dims, &req.cfg, &req.budget))
            .ok_or(TrainError::BudgetInfeasible)?;
        let trained = train_nc_ctl(method, &data, &req.cfg, ctl);
        if ctl.is_cancelled() {
            return Err(TrainError::Cancelled);
        }

        let predictions = data
            .target_iris
            .iter()
            .zip(&trained.predictions)
            .map(|(iri, &class)| (iri.clone(), data.class_iris[class].clone()))
            .collect();
        let artifact = ModelArtifact {
            uri: self.mint_uri("nc", method, &req.name),
            task_kind: TaskKind::NodeClassifier,
            target_type: task.target_type.clone(),
            label_predicate: task.label_predicate.clone(),
            destination_type: None,
            method,
            report: trained.report,
            sampler: req.sampler.clone(),
            cardinality: data.n_targets(),
            trained_generation: 0,
            payload: ArtifactPayload::NodeClassifier { predictions: Arc::new(predictions) },
        };
        Ok(artifact)
    }

    fn train_lp_task(
        &self,
        kg: &RdfStore,
        req: &TrainRequest,
        task: &kgnet_graph::LpTask,
        ctl: TrainControl<'_>,
    ) -> Result<ModelArtifact, TrainError> {
        let data = build_lp_dataset(kg, task, SplitRatios::default(), req.cfg.seed);
        if data.n_edges() == 0 || data.destinations.is_empty() {
            return Err(TrainError::EmptyTask);
        }
        let dims = GraphDims::of_lp(&data);
        let method = req
            .forced_method
            .or_else(|| select_method(&GmlMethodKind::LP_METHODS, &dims, &req.cfg, &req.budget))
            .ok_or(TrainError::BudgetInfeasible)?;
        let trained = train_lp_ctl(method, &data, &req.cfg, ctl);
        if ctl.is_cancelled() {
            return Err(TrainError::Cancelled);
        }

        let mut topk = std::collections::HashMap::with_capacity(data.sources.len());
        for (pos, iri) in data.source_iris.iter().enumerate() {
            let ranked: Vec<(String, f32)> = trained
                .topk(pos, STORED_TOPK)
                .into_iter()
                .map(|(j, s)| (data.destination_iris[j].clone(), s))
                .collect();
            topk.insert(iri.clone(), ranked);
        }
        let artifact = ModelArtifact {
            uri: self.mint_uri("lp", method, &req.name),
            task_kind: TaskKind::LinkPredictor,
            target_type: task.source_type.clone(),
            label_predicate: task.edge_predicate.clone(),
            destination_type: Some(task.dest_type.clone()),
            method,
            report: trained.report,
            sampler: req.sampler.clone(),
            cardinality: data.sources.len(),
            trained_generation: 0,
            payload: ArtifactPayload::LinkPredictor { topk },
        };
        Ok(artifact)
    }

    fn train_similarity(
        &self,
        kg: &RdfStore,
        req: &TrainRequest,
        target_type: &str,
        ctl: TrainControl<'_>,
    ) -> Result<ModelArtifact, TrainError> {
        let (graph, _stats) = transform(kg, &[]);
        if graph.n_nodes() == 0 {
            return Err(TrainError::EmptyTask);
        }
        let (embeddings, report) = kge::train_unsupervised_ctl(&graph, &req.cfg, ctl);
        if ctl.is_cancelled() {
            return Err(TrainError::Cancelled);
        }

        let mut store = EmbeddingStore::new(embeddings.cols(), Metric::Cosine);
        let wanted_type = graph.node_type_id(&format!("<{target_type}>"));
        let mut cardinality = 0usize;
        for node in 0..graph.n_nodes() as u32 {
            if let Some(t) = wanted_type {
                if graph.node_type(node) != t {
                    continue;
                }
            }
            let term = graph.term_of(node);
            let iri = match kg.resolve(term) {
                kgnet_rdf::Term::Iri(i) => i.clone(),
                other => other.to_string(),
            };
            store
                .add(iri, embeddings.row(node as usize).to_vec())
                .expect("KGE embedding rows all share the trained output width");
            cardinality += 1;
        }
        if cardinality == 0 {
            return Err(TrainError::EmptyTask);
        }

        let artifact = ModelArtifact {
            uri: self.mint_uri("sim", GmlMethodKind::TransE, &req.name),
            task_kind: TaskKind::NodeSimilarity,
            target_type: target_type.to_owned(),
            label_predicate: String::new(),
            destination_type: None,
            method: GmlMethodKind::TransE,
            report,
            sampler: req.sampler.clone(),
            cardinality,
            trained_generation: 0,
            payload: ArtifactPayload::NodeSimilarity { store },
        };
        Ok(artifact)
    }
}

/// The methods that can train `task`, whether forced or selected.
fn methods_for(task: &GmlTask) -> &'static [GmlMethodKind] {
    match task {
        GmlTask::NodeClassification(_) => &GmlMethodKind::NC_METHODS,
        GmlTask::LinkPrediction(_) => &GmlMethodKind::LP_METHODS,
        GmlTask::EntitySimilarity { .. } => &[GmlMethodKind::TransE],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgnet_datagen::vocab::dblp as v;
    use kgnet_datagen::{generate_dblp, DblpConfig};
    use kgnet_graph::{LpTask, NcTask};

    fn tiny_store() -> RdfStore {
        generate_dblp(&DblpConfig::tiny(31)).0
    }

    /// Train and, on success, register the artifact, as serving layers do.
    fn train(
        mgr: &TrainingManager,
        st: &RdfStore,
        req: &TrainRequest,
    ) -> Result<Arc<ModelArtifact>, TrainError> {
        mgr.train(st, req, TrainControl::NONE).map(|artifact| mgr.model_store().insert(artifact))
    }

    fn nc_task() -> GmlTask {
        GmlTask::NodeClassification(NcTask {
            target_type: v::PUBLICATION.into(),
            label_predicate: v::PUBLISHED_IN.into(),
        })
    }

    #[test]
    fn nc_training_produces_registered_artifact() {
        let st = tiny_store();
        let mgr = TrainingManager::default();
        let mut req = TrainRequest::new("paper-venue", nc_task());
        req.cfg = GnnConfig::fast_test();
        let artifact = train(&mgr, &st, &req).unwrap();
        assert!(artifact.uri.contains("/model/nc/"));
        assert_eq!(artifact.task_kind, TaskKind::NodeClassifier);
        assert!(artifact.cardinality > 0);
        assert!(mgr.model_store().get(&artifact.uri).is_some());
        match &artifact.payload {
            ArtifactPayload::NodeClassifier { predictions } => {
                assert_eq!(predictions.len(), artifact.cardinality);
                let class = predictions.values().next().unwrap();
                assert!(class.contains("venue"), "prediction should be a venue IRI: {class}");
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn lp_training_produces_topk_lists() {
        let st = tiny_store();
        let mgr = TrainingManager::default();
        let mut req = TrainRequest::new(
            "author-affiliation",
            GmlTask::LinkPrediction(LpTask {
                source_type: v::PERSON.into(),
                edge_predicate: v::AFFILIATED_WITH.into(),
                dest_type: v::AFFILIATION.into(),
            }),
        );
        req.cfg = GnnConfig { epochs: 10, ..GnnConfig::fast_test() };
        req.forced_method = Some(GmlMethodKind::Morse);
        let artifact = train(&mgr, &st, &req).unwrap();
        match &artifact.payload {
            ArtifactPayload::LinkPredictor { topk } => {
                assert!(!topk.is_empty());
                let links = topk.values().next().unwrap();
                assert!(!links.is_empty());
                assert!(links[0].1 >= links[links.len() - 1].1, "topk not sorted");
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn similarity_training_serves_its_embeddings() {
        let st = tiny_store();
        let mgr = TrainingManager::default();
        let mut req = TrainRequest::new(
            "paper-similarity",
            GmlTask::EntitySimilarity { target_type: v::PUBLICATION.into() },
        );
        req.cfg = GnnConfig { epochs: 5, ..GnnConfig::fast_test() };
        let artifact = train(&mgr, &st, &req).unwrap();
        match &artifact.payload {
            ArtifactPayload::NodeSimilarity { store } => {
                assert!(!store.is_empty());
                let key = v::paper(0);
                let q = store.get(&key).unwrap().to_vec();
                let hits = store.search(&q, 3);
                assert_eq!(hits[0].0, key);
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn impossible_budget_is_an_error() {
        let st = tiny_store();
        let mgr = TrainingManager::default();
        let mut req = TrainRequest::new("impossible", nc_task());
        req.budget = TaskBudget::with_memory(1);
        match train(&mgr, &st, &req) {
            Err(e) => assert_eq!(e, TrainError::BudgetInfeasible),
            Ok(_) => panic!("expected budget error"),
        }
    }

    #[test]
    fn failed_training_leaves_model_store_unchanged() {
        // Insert-on-success: a request that fails anywhere in the pipeline
        // must leave the registry exactly as it was, even when the store
        // already holds models.
        let st = tiny_store();
        let mgr = TrainingManager::default();
        let mut ok = TrainRequest::new("good", nc_task());
        ok.cfg = GnnConfig::fast_test();
        train(&mgr, &st, &ok).unwrap();
        let uris_before = mgr.model_store().uris();

        let mut bad = TrainRequest::new("starved", nc_task());
        bad.budget = TaskBudget::with_memory(1);
        match train(&mgr, &st, &bad) {
            Err(e) => assert_eq!(e, TrainError::BudgetInfeasible),
            Ok(_) => panic!("expected budget error"),
        }
        let empty = TrainRequest::new(
            "empty",
            GmlTask::NodeClassification(NcTask {
                target_type: "http://nope/T".into(),
                label_predicate: "http://nope/p".into(),
            }),
        );
        assert!(train(&mgr, &st, &empty).is_err());
        assert_eq!(mgr.model_store().uris(), uris_before);
    }

    #[test]
    fn a_forced_method_that_cannot_train_the_task_is_refused_before_training() {
        let st = tiny_store();
        let mgr = TrainingManager::default();
        let lp = GmlTask::LinkPrediction(LpTask {
            source_type: v::PERSON.into(),
            edge_predicate: v::AFFILIATED_WITH.into(),
            dest_type: v::AFFILIATION.into(),
        });
        let similarity = GmlTask::EntitySimilarity { target_type: v::PUBLICATION.into() };
        let cases = [
            (nc_task(), GmlMethodKind::Morse, "NodeClassification"),
            (nc_task(), GmlMethodKind::TransE, "NodeClassification"),
            (lp, GmlMethodKind::Gcn, "LinkPrediction"),
            (similarity, GmlMethodKind::Rgcn, "EntitySimilarity"),
        ];
        for (task, method, kind) in cases {
            let mut req = TrainRequest::new("mismatched", task);
            req.forced_method = Some(method);
            match mgr.train(&st, &req, TrainControl::NONE) {
                Err(e) => assert_eq!(e, TrainError::MethodNotForTask { method, task: kind }),
                Ok(_) => panic!("{method} trained a {kind} task"),
            }
        }
        assert!(mgr.model_store().is_empty());
    }

    #[test]
    fn cloned_managers_share_registry_and_never_collide_on_uris() {
        let st = tiny_store();
        let a = TrainingManager::default();
        let b = a.clone();
        let mut req = TrainRequest::new("shared", nc_task());
        req.cfg = GnnConfig::fast_test();
        let ua = train(&a, &st, &req).unwrap().uri.clone();
        let ub = train(&b, &st, &req).unwrap().uri.clone();
        assert_ne!(ua, ub, "shared counter must keep minted URIs distinct");
        assert_eq!(a.model_store().len(), 2);
        assert!(b.model_store().get(&ua).is_some());
    }

    #[test]
    fn empty_task_is_an_error() {
        let st = tiny_store();
        let mgr = TrainingManager::default();
        let req = TrainRequest::new(
            "nothing",
            GmlTask::NodeClassification(NcTask {
                target_type: "http://nope/T".into(),
                label_predicate: "http://nope/p".into(),
            }),
        );
        match train(&mgr, &st, &req) {
            Err(e) => assert_eq!(e, TrainError::EmptyTask),
            Ok(_) => panic!("expected empty-task error"),
        }
    }
}
