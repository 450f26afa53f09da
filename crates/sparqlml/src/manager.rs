//! The Query Manager (paper Fig. 3): end-to-end SPARQL-ML execution.
//!
//! `INSERT`/`TrainGML` requests run the full KGNet pipeline — meta-sampling
//! of `KG'`, budget-constrained training via GMLaaS, KGMeta registration.
//! `SELECT` queries are optimized (model, then plan selection: the paper's
//! integer programs, solved in closed form per predicate by
//! [`opt`](mod@crate::opt)) into one [`PreparedQuery`] for the plain
//! streaming executor, whose inference steps call the inference service's
//! JSON boundary.
//! `DELETE` removes models' KGMeta metadata.
//!
//! The manager holds no mutable state: KGMeta lives in the store each call
//! is given (see [`kgmeta`](mod@crate::kgmeta)), so every method takes `&self`
//! and the models a query finds are those of the version it reads.

use std::borrow::Cow;

use kgnet_gml::config::{GmlMethodKind, GnnConfig};
use kgnet_gml::control::TrainControl;
use kgnet_gmlaas::{
    InferenceRequest, InferenceResponse, InferenceService, ModelStore, ServiceError, TaskKind,
    TrainError, TrainRequest, TrainingManager,
};
use kgnet_rdf::sparql::eval::{
    evaluate_prepared, evaluate_select, execute_update, prepare_select_inferring, PreparedQuery,
    QueryResult, UpdateStats,
};
use kgnet_rdf::sparql::{InferredObjects, ObjectsFn, TermPattern};
use kgnet_rdf::{RdfStore, SparqlError, Term};
use kgnet_sampler::{meta_sample_task, SamplingScope};

use crate::kgmeta;
use crate::opt::{select_model, select_plan, RewritePlan};
use crate::parser::{parse, SparqlMlOperation, SparqlMlQuery};
use crate::rewrite::{rewrite, RewrittenQuery};

/// Errors surfaced by SPARQL-ML execution.
#[derive(Debug)]
pub enum MlError {
    /// Parse/evaluation error from the SPARQL layer.
    Sparql(SparqlError),
    /// A user-defined predicate matched no trained model in KGMeta.
    NoModel(String),
    /// Model selection infeasible under the inference-time bound.
    SelectionInfeasible,
    /// Training failed.
    Train(TrainError),
    /// Inference-service failure.
    Service(ServiceError),
    /// A write operation (update, TrainGML, model DELETE) was submitted
    /// through the read-only [`QueryManager::query`] path.
    ReadOnly,
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::Sparql(e) => write!(f, "{e}"),
            MlError::NoModel(var) => {
                write!(f, "no trained model satisfies user-defined predicate ?{var}")
            }
            MlError::SelectionInfeasible => {
                write!(f, "no model of a user-defined predicate satisfies the inference-time bound")
            }
            MlError::Train(e) => write!(f, "{e}"),
            MlError::Service(e) => write!(f, "{e}"),
            MlError::ReadOnly => {
                write!(f, "write operation rejected: this execution path is read-only")
            }
        }
    }
}

impl std::error::Error for MlError {}

impl From<SparqlError> for MlError {
    fn from(e: SparqlError) -> Self {
        MlError::Sparql(e)
    }
}

impl From<TrainError> for MlError {
    fn from(e: TrainError) -> Self {
        MlError::Train(e)
    }
}

/// Summary of a completed training request.
#[derive(Debug, Clone)]
pub struct TrainedSummary {
    /// Minted model URI.
    pub model_uri: String,
    /// Chosen method.
    pub method: GmlMethodKind,
    /// Test metric (accuracy / Hits@10).
    pub accuracy: f64,
    /// Meta-sampling scope used.
    pub sampler: String,
    /// Triples in the sampled `KG'`.
    pub kg_prime_triples: usize,
    /// Training seconds.
    pub train_time_s: f64,
    /// Peak tracked training memory, bytes.
    pub peak_mem_bytes: usize,
    /// Store generation (MVCC snapshot version) the model was trained on.
    pub trained_generation: u64,
}

/// Result of executing one SPARQL-ML operation.
#[derive(Debug)]
pub enum MlOutcome {
    /// SELECT rows.
    Rows(QueryResult),
    /// A model was trained and registered.
    Trained(TrainedSummary),
    /// Models deleted (their URIs). Their KGMeta triples are gone from
    /// the store written; their artifacts stay in the registry for the
    /// caller to retire once no reader can still see them.
    DeletedModels(Vec<String>),
    /// A plain update ran.
    Updated(UpdateStats),
}

/// Tuning knobs of the query manager.
///
/// Both caps bound each user-defined predicate of a query alone, not a sum
/// over the query's predicates as in the paper's integer programs.
#[derive(Debug, Clone, Default)]
pub struct ManagerConfig {
    /// Default training hyper-parameters.
    pub default_cfg: GnnConfig,
    /// Optional bound on each predicate's per-call inference time: the
    /// most accurate model within it is chosen.
    pub max_inference_ms: Option<f64>,
    /// Optional cap on each predicate's dictionary bytes (96 per entry): a
    /// dictionary over it is replaced by per-binding calls.
    pub dict_bytes_cap: Option<usize>,
}

/// The SPARQL-ML query manager.
pub struct QueryManager {
    trainer: TrainingManager,
    service: InferenceService,
    config: ManagerConfig,
}

impl Default for QueryManager {
    fn default() -> Self {
        Self::new(ManagerConfig::default())
    }
}

impl QueryManager {
    /// Manager with a fresh model store.
    pub fn new(config: ManagerConfig) -> Self {
        let models = ModelStore::new();
        QueryManager {
            trainer: TrainingManager::new(models.clone()),
            service: InferenceService::new(models),
            config,
        }
    }

    /// The inference service (exposes HTTP-call counters).
    pub fn service(&self) -> &InferenceService {
        &self.service
    }

    /// The training manager / model registry.
    pub fn trainer(&self) -> &TrainingManager {
        &self.trainer
    }

    /// The read path: evaluate a plain or ML SELECT through shared borrows
    /// only, so any number of queries run concurrently against one store.
    /// Rejects every state-mutating operation with [`MlError::ReadOnly`].
    pub fn query(&self, data: &RdfStore, text: &str) -> Result<MlOutcome, MlError> {
        self.read(data, parse(text)?)
    }

    fn read(&self, data: &RdfStore, op: SparqlMlOperation) -> Result<MlOutcome, MlError> {
        Ok(MlOutcome::Rows(match op {
            SparqlMlOperation::PlainSelect(q) => evaluate_select(data, &q)?,
            SparqlMlOperation::Select(q) => evaluate_prepared(data, &self.prepare(data, &q)?.0)?.0,
            // Every other operation writes.
            _ => return Err(MlError::ReadOnly),
        }))
    }

    /// Compile an already-parsed SPARQL-ML SELECT against `data` for
    /// serving layers that classify the operation themselves: models and
    /// plans are chosen now, and the plan runs (and explains) through
    /// [`evaluate_prepared`] like any plain one, calling this manager's
    /// inference service as rows reach its inference steps. The models and
    /// plans are fixed by `data`'s KGMeta, so the plan is reusable for every
    /// execution at `data`'s generation, like a plain one: each execution
    /// fetches a Dictionary plan's dictionary once, for itself.
    pub fn prepare_select(
        &self,
        data: &RdfStore,
        q: &SparqlMlQuery,
    ) -> Result<PreparedQuery, MlError> {
        self.prepare(data, q).map(|(prepared, ..)| prepared)
    }

    /// The write path: INSERT-MODEL (`TrainGML`), model DELETE and plain
    /// data updates, all writing `data` (KGMeta included). SELECTs are
    /// delegated to the read path. A plain update whose templates name a
    /// KGMeta triple is refused: only `TrainGML` and model DELETE keep
    /// KGMeta and the model registry in step.
    pub fn update(&self, data: &mut RdfStore, text: &str) -> Result<MlOutcome, MlError> {
        match parse(text)? {
            SparqlMlOperation::PlainUpdate(u) if kgmeta::writes_kgmeta(&u) => {
                Err(MlError::Sparql(SparqlError::eval(
                    "a plain update may not write KGMeta (a kgnet: predicate or class); \
                     use TrainGML or a model DELETE",
                )))
            }
            SparqlMlOperation::PlainUpdate(u) => Ok(MlOutcome::Updated(execute_update(data, &u)?)),
            SparqlMlOperation::Train(spec) => self.train(data, spec),
            SparqlMlOperation::DeleteModels(filter) => {
                let uris: Vec<String> =
                    kgmeta::find_models(data, &filter).into_iter().map(|m| m.uri).collect();
                for uri in &uris {
                    kgmeta::unregister(data, uri);
                }
                Ok(MlOutcome::DeletedModels(uris))
            }
            op => self.read(data, op),
        }
    }

    /// Optimize and rewrite a SPARQL-ML SELECT without executing it: the
    /// models and plans the same query runs with.
    pub fn explain(&self, data: &RdfStore, text: &str) -> Result<RewrittenQuery, MlError> {
        match parse(text)? {
            SparqlMlOperation::Select(q) => {
                let (_, models, plans) = self.prepare(data, &q)?;
                Ok(rewrite(&q, &models, &plans))
            }
            _ => Err(MlError::Sparql(SparqlError::parse("explain expects an ML SELECT"))),
        }
    }

    // -- training ----------------------------------------------------------

    fn train(
        &self,
        data: &mut RdfStore,
        spec: crate::parser::TrainGmlSpec,
    ) -> Result<MlOutcome, MlError> {
        // Hyper-parameters are checked before sampling: out-of-range values
        // would panic a trainer (a zero batch size) or train a degenerate
        // model, and both happen while the caller holds the writer gate.
        let mut cfg = self.config.default_cfg.clone();
        for (key, &value) in &spec.hyperparams {
            let invalid = |rule: &str| {
                MlError::Sparql(SparqlError::parse(format!(
                    "TrainGML Hyperparams: `{key}` must be {rule}, got {value}"
                )))
            };
            let whole = |min: f64| {
                let ok = value.fract() == 0.0 && value >= min;
                ok.then_some(value as usize)
                    .ok_or_else(|| invalid(&format!("a whole number >= {min}")))
            };
            let lr = value as f32;
            match key.as_str() {
                "Epochs" => cfg.epochs = whole(1.0)?,
                "Hidden" => cfg.hidden = whole(1.0)?,
                "BatchSize" => cfg.batch_size = whole(1.0)?,
                "Negatives" => cfg.negatives = whole(1.0)?,
                "Seed" => cfg.seed = whole(0.0)? as u64,
                "LR" | "LearningRate" if lr.is_finite() && lr > 0.0 => cfg.lr = lr,
                "LR" | "LearningRate" => return Err(invalid("finite and > 0")),
                "Dropout" if (0.0..1.0).contains(&value) => cfg.dropout = value as f32,
                "Dropout" => return Err(invalid("in [0, 1)")),
                _ => {
                    return Err(MlError::Sparql(SparqlError::parse(format!(
                        "TrainGML Hyperparams: unknown key `{key}`"
                    ))))
                }
            }
        }
        let scope = spec.sampler.unwrap_or_else(|| SamplingScope::default_for(&spec.task));
        let sampled = meta_sample_task(data, &spec.task, scope);

        let req = TrainRequest {
            name: spec.name.clone(),
            task: spec.task.clone(),
            budget: spec.budget,
            cfg,
            forced_method: spec.method,
            split_strategy: kgnet_graph::SplitStrategy::Random,
            sampler: scope.name(),
        };
        let mut artifact = self.trainer.train(&sampled.store, &req, TrainControl::NONE)?;
        // Stamp which store version the model saw, then publish it as the
        // final step: registry insert, then KGMeta triples into `data`.
        artifact.trained_generation = data.generation();
        let artifact = kgmeta::publish(self.trainer.model_store(), data, artifact);
        Ok(MlOutcome::Trained(TrainedSummary {
            model_uri: artifact.uri.clone(),
            method: artifact.method,
            accuracy: artifact.accuracy(),
            sampler: scope.name(),
            kg_prime_triples: sampled.store.len(),
            train_time_s: artifact.report.train_time_s,
            peak_mem_bytes: artifact.report.peak_mem_bytes,
            trained_generation: artifact.trained_generation,
        }))
    }

    // -- SELECT ------------------------------------------------------------

    /// Choose one model and one plan per user-defined predicate, then
    /// compile the query with one inference step per predicate. Execution
    /// and [`explain`](Self::explain) both come through here.
    fn prepare(
        &self,
        data: &RdfStore,
        q: &SparqlMlQuery,
    ) -> Result<(PreparedQuery, Vec<String>, Vec<RewritePlan>), MlError> {
        // Candidate models per predicate from the KGMeta triples in `data`.
        let mut candidates = Vec::with_capacity(q.ud_predicates.len());
        for ud in &q.ud_predicates {
            let models = kgmeta::find_models(data, &ud.filter);
            if models.is_empty() {
                return Err(MlError::NoModel(ud.var.clone()));
            }
            candidates.push(models);
        }
        let (mut models, mut plans, mut objects) = (Vec::new(), Vec::new(), Vec::new());
        for (ud, candidates) in q.ud_predicates.iter().zip(&candidates) {
            let model = select_model(candidates, self.config.max_inference_ms)
                .ok_or(MlError::SelectionInfeasible)?;
            let plan = select_plan(ud.task_kind, model.cardinality, self.config.dict_bytes_cap);
            objects.push(Box::new(Inference {
                service: self.service.clone(),
                model: model.uri.clone(),
                kind: ud.task_kind,
                plan,
                k: ud.topk,
            }) as Box<dyn InferredObjects>);
            models.push(model.uri.clone());
            plans.push(plan);
        }
        let patterns: Vec<(TermPattern, String)> =
            q.ud_predicates.iter().map(|ud| (ud.subject.clone(), ud.object_var.clone())).collect();
        let prepared = prepare_select_inferring(data, q.base.clone(), &patterns, objects)?;
        Ok((prepared, models, plans))
    }
}

/// One user-defined predicate answered through the inference service under
/// its chosen plan: the Fig. 12 dictionary, fetched once per execution on
/// first use and dropped with it, or the Fig. 11 per-binding call, which
/// the executor makes once per distinct subject. At most `k` objects are
/// kept per subject. It names its model and holds no predictions, so a
/// cached plan keeps no artifact's answers alive.
struct Inference {
    service: InferenceService,
    model: String,
    kind: TaskKind,
    plan: RewritePlan,
    k: usize,
}

impl Inference {
    /// The call this predicate's plan makes for `node`.
    fn request(&self, node: &str) -> InferenceRequest {
        use {InferenceRequest as R, RewritePlan as P, TaskKind as T};
        let (model, node, k) = (self.model.clone(), node.to_owned(), self.k);
        match (self.kind, self.plan) {
            (T::NodeClassifier, P::Dictionary) => R::GetNodeClassDict { model },
            (T::NodeClassifier, P::PerBinding) => R::GetNodeClass { model, node },
            (T::LinkPredictor, P::Dictionary) => R::GetAllTopkLinks { model, k },
            (T::LinkPredictor, P::PerBinding) => R::GetTopkLinks { model, source: node, k },
            (T::NodeSimilarity, _) => R::GetSimilarNodes { model, node, k },
        }
    }

    /// The objects predicted for `subject`; `dictionary` is the calling
    /// execution's Fig. 12 dictionary, fetched into it on first use.
    fn objects(
        &self,
        subject: &Term,
        dictionary: &mut Option<InferenceResponse>,
    ) -> Result<Vec<Term>, SparqlError> {
        let node = subject.as_iri().map_or_else(|| Cow::Owned(subject.to_string()), Cow::Borrowed);
        let call = || {
            let failed = |e: ServiceError| SparqlError::eval(format!("inference failed: {e}"));
            self.service.call(&self.request(&node)).map_err(failed)
        };
        let fetched;
        let response = match (self.plan, dictionary) {
            (RewritePlan::Dictionary, Some(dictionary)) => &*dictionary,
            (RewritePlan::Dictionary, empty) => &*empty.insert(call()?),
            (RewritePlan::PerBinding, _) => {
                fetched = call()?;
                &fetched
            }
        };
        use InferenceResponse as R;
        let ranked = |links: &[(String, f32)]| {
            links.iter().take(self.k).map(|(o, _)| Term::iri(o.as_str())).collect()
        };
        Ok(match response {
            R::NodeClass { class, .. } => class.iter().map(|c| Term::iri(c.as_str())).collect(),
            R::NodeClassDict { predictions } => {
                predictions.get(&*node).map(|c| Term::iri(c.as_str())).into_iter().collect()
            }
            R::TopkLinks { links, .. } | R::SimilarNodes { neighbors: links } => ranked(links),
            R::AllTopkLinks { links } => links.get(&*node).map_or_else(Vec::new, |l| ranked(l)),
        })
    }
}

impl InferredObjects for Inference {
    fn execution(&self) -> ObjectsFn<'_> {
        let mut dictionary = None;
        Box::new(move |subject| self.objects(subject, &mut dictionary))
    }

    fn describe(&self) -> String {
        format!("<{}> {:?}", self.model, self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgnet_datagen::{generate_dblp, DblpConfig};

    fn manager() -> QueryManager {
        let cfg = ManagerConfig { default_cfg: GnnConfig::fast_test(), ..Default::default() };
        QueryManager::new(cfg)
    }

    fn train_nc(mgr: &QueryManager, data: &mut RdfStore) -> TrainedSummary {
        let out = mgr
            .update(
                data,
                r#"PREFIX dblp: <https://www.dblp.org/>
                   PREFIX kgnet: <https://www.kgnet.com/>
                   INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
                     {Name: 'paper-venue',
                      GML-Task:{ TaskType: kgnet:NodeClassifier,
                                 TargetNode: dblp:Publication,
                                 NodeLabel: dblp:publishedIn},
                      Method: 'GraphSAINT'})}"#,
            )
            .unwrap();
        match out {
            MlOutcome::Trained(s) => s,
            other => panic!("unexpected {other:?}"),
        }
    }

    const PV_QUERY: &str = r#"
        PREFIX dblp: <https://www.dblp.org/>
        PREFIX kgnet: <https://www.kgnet.com/>
        SELECT ?title ?venue WHERE {
          ?paper a dblp:Publication .
          ?paper dblp:title ?title .
          ?paper ?NodeClassifier ?venue .
          ?NodeClassifier a kgnet:NodeClassifier .
          ?NodeClassifier kgnet:TargetNode dblp:Publication .
          ?NodeClassifier kgnet:NodeLabel dblp:publishedIn . }"#;

    #[test]
    fn end_to_end_train_then_query() {
        let (mut data, _) = generate_dblp(&DblpConfig::tiny(41));
        let mgr = manager();
        let summary = train_nc(&mgr, &mut data);
        assert!(summary.kg_prime_triples < data.len());
        assert_eq!(summary.sampler, "d1h1");

        let out = mgr.update(&mut data, PV_QUERY).unwrap();
        let MlOutcome::Rows(rows) = out else { panic!("expected rows") };
        assert_eq!(rows.vars, vec!["title", "venue"]);
        // Every paper gets a predicted venue.
        assert_eq!(rows.len(), 60);
        for row in &rows.rows {
            let venue = row[1].as_ref().unwrap().as_iri().unwrap();
            assert!(venue.contains("venue/"), "unexpected prediction {venue}");
        }
        // Dictionary plan: exactly one HTTP call for 60 papers.
        assert_eq!(mgr.service().stats().calls, 1);
    }

    #[test]
    fn read_path_runs_ml_select_through_shared_borrows() {
        let (mut data, _) = generate_dblp(&DblpConfig::tiny(41));
        let mgr = manager();
        train_nc(&mgr, &mut data);
        // From here on: &QueryManager and &RdfStore only.
        let mgr_ref: &QueryManager = &mgr;
        let data_ref: &RdfStore = &data;
        let MlOutcome::Rows(via_query) = mgr_ref.query(data_ref, PV_QUERY).unwrap() else {
            panic!("expected rows")
        };
        assert_eq!(via_query.len(), 60);
        // The read and write paths agree exactly.
        let MlOutcome::Rows(via_update) = mgr.update(&mut data, PV_QUERY).unwrap() else {
            panic!("expected rows")
        };
        assert_eq!(via_query, via_update);
    }

    #[test]
    fn read_path_rejects_writes() {
        let (data, _) = generate_dblp(&DblpConfig::tiny(43));
        let mgr = manager();
        let err =
            mgr.query(&data, "INSERT DATA { <http://x/a> <http://x/p> <http://x/b> }").unwrap_err();
        assert!(matches!(err, MlError::ReadOnly));
        let err = mgr
            .query(
                &data,
                r#"PREFIX kgnet: <https://www.kgnet.com/>
                   DELETE { ?m ?p ?o } WHERE { ?m a kgnet:NodeClassifier . }"#,
            )
            .unwrap_err();
        assert!(matches!(err, MlError::ReadOnly));
    }

    #[test]
    fn failed_training_leaves_kgmeta_and_registry_unchanged() {
        let (mut data, _) = generate_dblp(&DblpConfig::tiny(45));
        let before = data.clone();
        let mgr = manager();
        // Unsatisfiable task: no such target type in the graph.
        let err = mgr
            .update(
                &mut data,
                r#"PREFIX kgnet: <https://www.kgnet.com/>
                   PREFIX nope: <http://nope/>
                   INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
                     {Name: 'doomed',
                      GML-Task:{ TaskType: kgnet:NodeClassifier,
                                 TargetNode: nope:T,
                                 NodeLabel: nope:p}})}"#,
            )
            .unwrap_err();
        assert!(matches!(err, MlError::Train(TrainError::EmptyTask)), "unexpected error: {err}");
        assert_eq!(
            data.to_ntriples(),
            before.to_ntriples(),
            "failed training must not touch KGMeta"
        );
        assert!(mgr.trainer().model_store().is_empty(), "failed training must not register models");
    }

    #[test]
    fn out_of_range_hyperparams_are_rejected_before_training() {
        let (mut data, _) = generate_dblp(&DblpConfig::tiny(45));
        let before = data.len();
        let mgr = manager();
        let cases = [
            ("BatchSize: 0", "BatchSize"),
            ("Hidden: 0", "Hidden"),
            ("Epochs: 0", "Epochs"),
            ("Epochs: 2.5", "Epochs"),
            ("Negatives: -1", "Negatives"),
            ("Seed: -1", "Seed"),
            ("LR: 0", "LR"),
            ("LearningRate: -0.1", "LearningRate"),
            ("Dropout: 1", "Dropout"),
            ("Epoch: 5", "Epoch"),
        ];
        for (hyperparams, key) in cases {
            let text = format!(
                r#"PREFIX dblp: <https://www.dblp.org/>
                   PREFIX kgnet: <https://www.kgnet.com/>
                   INSERT INTO <kgnet> {{ ?s ?p ?o }} WHERE {{ SELECT * FROM kgnet.TrainGML(
                     {{Name: 'bad', GML-Task:{{ TaskType: kgnet:NodeClassifier,
                        TargetNode: dblp:Publication, NodeLabel: dblp:publishedIn}},
                      Method: 'ShadowSAINT', Hyperparams: {{{hyperparams}}}}})}}"#
            );
            match mgr.update(&mut data, &text) {
                Err(e @ MlError::Sparql(_)) => {
                    assert!(e.to_string().contains(&format!("`{key}`")), "{hyperparams}: {e}")
                }
                other => panic!("{hyperparams}: expected a rejection, got {other:?}"),
            }
        }
        assert_eq!(data.len(), before, "a rejected request must not register a model");
    }

    #[test]
    fn traingml_refuses_unknown_names_and_a_method_that_cannot_train_the_task() {
        let (mut data, _) = generate_dblp(&DblpConfig::tiny(45));
        let before = data.len();
        let mgr = manager();
        let cases = [
            ("Method: 'Bogus'", "unknown Method 'Bogus'"),
            ("Sampler: 'd9h9'", "unknown Sampler 'd9h9'"),
            ("Method: 'MorsE'", "MorsE cannot train a NodeClassification task"),
        ];
        for (named, refused) in cases {
            let text = format!(
                r#"PREFIX dblp: <https://www.dblp.org/>
                   PREFIX kgnet: <https://www.kgnet.com/>
                   INSERT INTO <kgnet> {{ ?s ?p ?o }} WHERE {{ SELECT * FROM kgnet.TrainGML(
                     {{Name: 'misnamed', GML-Task:{{ TaskType: kgnet:NodeClassifier,
                        TargetNode: dblp:Publication, NodeLabel: dblp:publishedIn}},
                      {named}}})}}"#
            );
            match mgr.update(&mut data, &text) {
                Err(
                    e @ (MlError::Sparql(_) | MlError::Train(TrainError::MethodNotForTask { .. })),
                ) => {
                    assert!(e.to_string().contains(refused), "{named}: {e}")
                }
                other => panic!("{named}: expected a refusal, got {other:?}"),
            }
        }
        assert_eq!(data.len(), before, "a refused request must not register a model");
        assert!(mgr.trainer().model_store().is_empty());
    }

    #[test]
    fn query_without_model_errors() {
        let (mut data, _) = generate_dblp(&DblpConfig::tiny(43));
        let mgr = manager();
        match mgr.update(&mut data, PV_QUERY) {
            Err(MlError::NoModel(var)) => assert_eq!(var, "NodeClassifier"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delete_models_clears_kgmeta_and_leaves_the_registry_to_the_caller() {
        let (mut data, _) = generate_dblp(&DblpConfig::tiny(47));
        let before = data.len();
        let mgr = manager();
        let summary = train_nc(&mgr, &mut data);
        assert!(data.len() > before, "training registers KGMeta triples in the data store");
        let out = mgr
            .update(
                &mut data,
                r#"PREFIX dblp: <https://www.dblp.org/>
                   PREFIX kgnet: <https://www.kgnet.com/>
                   DELETE { ?m ?p ?o } WHERE {
                     ?m a kgnet:NodeClassifier .
                     ?m kgnet:TargetNode dblp:Publication .
                     ?m kgnet:NodeLabel dblp:publishedIn . }"#,
            )
            .unwrap();
        match out {
            MlOutcome::DeletedModels(uris) => assert_eq!(uris, vec![summary.model_uri.clone()]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(data.len(), before, "every KGMeta triple of the model is gone");
        // The artifact stays until the caller retires it: a reader of an
        // older version may still find the model in its KGMeta.
        assert!(mgr.trainer().model_store().get(&summary.model_uri).is_some());
        // Querying now fails again.
        assert!(matches!(mgr.update(&mut data, PV_QUERY), Err(MlError::NoModel(_))));
    }

    #[test]
    fn plain_updates_may_not_write_kgmeta() {
        let (mut data, _) = generate_dblp(&DblpConfig::tiny(47));
        let mgr = manager();
        train_nc(&mgr, &mut data);
        let before = data.to_ntriples();
        let writes = [
            "PREFIX kgnet: <https://www.kgnet.com/> \
             INSERT DATA { <http://x/m> a kgnet:NodeClassifier }",
            "PREFIX kgnet: <https://www.kgnet.com/> \
             INSERT DATA { <http://x/m> kgnet:ModelAccuracy 1.0 }",
            "PREFIX kgnet: <https://www.kgnet.com/> \
             DELETE WHERE { ?m kgnet:ModelAccuracy ?a }",
            "PREFIX kgnet: <https://www.kgnet.com/> PREFIX dblp: <https://www.dblp.org/> \
             DELETE { ?t kgnet:HasGMLTask ?m } INSERT { ?t dblp:note ?m } \
             WHERE { ?t kgnet:HasGMLTask ?m }",
        ];
        for text in writes {
            match mgr.update(&mut data, text) {
                Err(MlError::Sparql(e)) => assert!(e.to_string().contains("KGMeta"), "{e}"),
                other => panic!("{text}: expected a rejection, got {other:?}"),
            }
        }
        assert_eq!(data.to_ntriples(), before, "a rejected update must not write");
        // Reading KGMeta in WHERE is fine: only the templates are checked.
        let copy = "PREFIX kgnet: <https://www.kgnet.com/> \
                    INSERT { ?m <http://x/seen> <http://x/yes> } WHERE { ?m kgnet:ModelAccuracy ?a }";
        let MlOutcome::Updated(stats) = mgr.update(&mut data, copy).unwrap() else {
            panic!("expected an update")
        };
        assert_eq!(stats.inserted, 1);
    }

    #[test]
    fn link_prediction_query_expands_topk() {
        let (mut data, _) = generate_dblp(&DblpConfig::tiny(53));
        let mgr = manager();
        let out = mgr
            .update(
                &mut data,
                r#"PREFIX dblp: <https://www.dblp.org/>
                   PREFIX kgnet: <https://www.kgnet.com/>
                   INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
                     {Name: 'author-aff',
                      GML-Task:{ TaskType: kgnet:LinkPredictor,
                                 SourceNode: dblp:Person,
                                 DestinationNode: dblp:Affiliation,
                                 TargetEdge: dblp:affiliatedWith},
                      Method: 'MorsE', Sampler: 'd2h1',
                      Hyperparams: {Epochs: 10}})}"#,
            )
            .unwrap();
        assert!(matches!(out, MlOutcome::Trained(_)));

        let out = mgr
            .update(
                &mut data,
                r#"PREFIX dblp: <https://www.dblp.org/>
                   PREFIX kgnet: <https://www.kgnet.com/>
                   SELECT ?author ?affiliation WHERE {
                     ?author a dblp:Person .
                     ?author ?LinkPredictor ?affiliation .
                     ?LinkPredictor a kgnet:LinkPredictor .
                     ?LinkPredictor kgnet:SourceNode dblp:Person .
                     ?LinkPredictor kgnet:DestinationNode dblp:Affiliation .
                     ?LinkPredictor kgnet:TopK-Links 3 . }"#,
            )
            .unwrap();
        let MlOutcome::Rows(rows) = out else { panic!("expected rows") };
        // 30 authors x top-3 affiliations.
        assert_eq!(rows.len(), 90);
        let aff = rows.rows[0][1].as_ref().unwrap().as_iri().unwrap();
        assert!(aff.contains("org/aff"), "unexpected destination {aff}");
    }

    #[test]
    fn plain_sparql_passes_through() {
        let (mut data, _) = generate_dblp(&DblpConfig::tiny(59));
        let mgr = manager();
        let out = mgr
            .update(
                &mut data,
                "PREFIX dblp: <https://www.dblp.org/> SELECT (COUNT(*) AS ?n) WHERE { ?p a dblp:Publication }",
            )
            .unwrap();
        let MlOutcome::Rows(rows) = out else { panic!("expected rows") };
        assert_eq!(rows.rows[0][0].as_ref().unwrap().as_int(), Some(60));
    }

    /// ML `DISTINCT` compares `Term`s where it once compared their
    /// N-Triples renderings. The two disagree only on a literal carrying
    /// both a language tag and a datatype; neither parser builds one.
    #[test]
    fn no_parser_builds_a_literal_with_both_lang_and_datatype() {
        use kgnet_rdf::sparql::lexer::{tokenize, Token};
        let literal = |datatype: Option<&str>, lang: Option<&str>| Term::Literal {
            lexical: "x".into(),
            datatype: datatype.map(str::to_owned),
            lang: lang.map(str::to_owned),
        };
        let (both, tagged) = (literal(Some("http://x/dt"), Some("en")), literal(None, Some("en")));
        assert_ne!(both, tagged);
        assert_eq!(both.to_string(), tagged.to_string(), "the one case the two tests differ");

        let texts = [r#""x"@en^^<http://x/dt>"#, r#""x"^^<http://x/dt>@en"#];
        for text in texts {
            let doc = format!("<http://x/s> <http://x/p> {text} .");
            assert!(kgnet_rdf::parse_ntriples(&doc).is_err(), "N-Triples accepted {doc}");
            for token in tokenize(text).into_iter().flatten() {
                if let Token::Literal { datatype, lang, .. } = token {
                    assert!(datatype.is_none() || lang.is_none(), "lexer built {text}");
                }
            }
        }
    }

    /// The plan is chosen without the binding estimate: Dictionary at an
    /// estimate of 0 (a store term that is no subject's type) and of 1 (a
    /// ground subject) alike.
    #[test]
    fn dictionary_plan_at_estimates_zero_and_one() {
        let (mut data, _) = generate_dblp(&DblpConfig::tiny(61));
        let mgr = manager();
        train_nc(&mgr, &mut data);
        let paper = kgnet_datagen::vocab::dblp::paper(0);
        let cases = [
            ("?paper a dblp:publishedIn . ?paper ?NC ?venue .".to_owned(), "(est 0.0)"),
            (format!("<{paper}> ?NC ?venue ."), "(est 1.0)"),
        ];
        for (patterns, est) in cases {
            let text = format!(
                "PREFIX dblp: <https://www.dblp.org/> PREFIX kgnet: <https://www.kgnet.com/> \
                 SELECT ?venue WHERE {{ {patterns} ?NC a kgnet:NodeClassifier . \
                 ?NC kgnet:TargetNode dblp:Publication . ?NC kgnet:NodeLabel dblp:publishedIn . }}"
            );
            let SparqlMlOperation::Select(q) = parse(&text).unwrap() else { panic!("{text}") };
            let explain = mgr.prepare_select(&data, &q).unwrap().explain(&data);
            let infer = explain.lines().find(|l| l.starts_with("infer")).expect(&explain);
            assert!(infer.contains("Dictionary") && infer.ends_with(est), "{infer}");
        }
    }

    #[test]
    fn explain_reports_dictionary_plan() {
        let (mut data, _) = generate_dblp(&DblpConfig::tiny(61));
        let mgr = manager();
        train_nc(&mgr, &mut data);
        let rewritten = mgr.explain(&data, PV_QUERY).unwrap();
        assert_eq!(rewritten.steps.len(), 1);
        assert_eq!(rewritten.steps[0].plan, RewritePlan::Dictionary);
        assert!(rewritten.sparql.contains("getKeyValue"));
    }
}
