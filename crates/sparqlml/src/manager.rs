//! The Query Manager (paper Fig. 3): end-to-end SPARQL-ML execution.
//!
//! `INSERT`/`TrainGML` requests run the full KGNet pipeline — meta-sampling
//! of `KG'`, budget-constrained training via GMLaaS, KGMeta registration.
//! `SELECT` queries are optimized (model selection + plan selection integer
//! programs), rewritten, executed against the RDF store, and their
//! user-defined predicates are evaluated through the inference service's
//! JSON boundary. `DELETE` removes models and their KGMeta metadata.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use rustc_hash::{FxHashMap, FxHashSet};

use kgnet_gml::config::{GmlMethodKind, GnnConfig};
use kgnet_gmlaas::{
    InferenceRequest, InferenceResponse, InferenceService, ModelArtifact, ModelStore, ServiceError,
    TaskKind, TrainError, TrainRequest, TrainingManager,
};
use kgnet_rdf::sparql::eval::{
    evaluate_select, execute_update, order_key, sort_by_order_keys, QueryResult, UpdateStats,
};
use kgnet_rdf::sparql::{Order, Projection, ProjectionItem, TermPattern};
use kgnet_rdf::{RdfStore, SparqlError, Term};
use kgnet_sampler::{meta_sample_task, SamplingScope};

use crate::kgmeta::KgMeta;
use crate::opt::{select_models, select_plans, PlanInputs, RewritePlan};
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
                write!(f, "no model combination satisfies the inference-time bound")
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

impl From<ServiceError> for MlError {
    fn from(e: ServiceError) -> Self {
        MlError::Service(e)
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
    /// Models deleted (their URIs).
    DeletedModels(Vec<String>),
    /// A plain update ran.
    Updated(UpdateStats),
}

/// Tuning knobs of the query manager.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Default training hyper-parameters.
    pub default_cfg: GnnConfig,
    /// Optional bound on summed per-call inference time across predicates.
    pub max_inference_ms: Option<f64>,
    /// Optional cap on total dictionary bytes for plan selection.
    pub dict_bytes_cap: Option<usize>,
    /// Estimated bytes per dictionary entry.
    pub entry_bytes: usize,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            default_cfg: GnnConfig::default(),
            max_inference_ms: None,
            dict_bytes_cap: None,
            entry_bytes: 96,
        }
    }
}

/// The SPARQL-ML query manager.
pub struct QueryManager {
    kgmeta: KgMeta,
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
    /// Manager with a fresh model store and KGMeta.
    pub fn new(config: ManagerConfig) -> Self {
        let models = ModelStore::new();
        QueryManager {
            kgmeta: KgMeta::new(),
            trainer: TrainingManager::new(models.clone()),
            service: InferenceService::new(models),
            config,
        }
    }

    /// The KGMeta graph.
    pub fn kgmeta(&self) -> &KgMeta {
        &self.kgmeta
    }

    /// The inference service (exposes HTTP-call counters).
    pub fn service(&self) -> &InferenceService {
        &self.service
    }

    /// The training manager / model registry.
    pub fn trainer(&self) -> &TrainingManager {
        &self.trainer
    }

    /// Execute one SPARQL-ML operation against a data KG (reads and writes;
    /// equivalent to [`QueryManager::update`]).
    pub fn execute(&mut self, data: &mut RdfStore, text: &str) -> Result<MlOutcome, MlError> {
        self.update(data, text)
    }

    /// The read path: evaluate a plain or ML SELECT through shared borrows
    /// only, so any number of queries run concurrently against one store.
    /// Rejects every state-mutating operation with [`MlError::ReadOnly`].
    pub fn query(&self, data: &RdfStore, text: &str) -> Result<MlOutcome, MlError> {
        match parse(text)? {
            SparqlMlOperation::PlainSelect(q) => Ok(MlOutcome::Rows(evaluate_select(data, &q)?)),
            SparqlMlOperation::Select(q) => self.select(data, &q).map(MlOutcome::Rows),
            SparqlMlOperation::PlainUpdate(_)
            | SparqlMlOperation::Train(_)
            | SparqlMlOperation::DeleteModels(_) => Err(MlError::ReadOnly),
        }
    }

    /// Evaluate an already-parsed SPARQL-ML SELECT through shared borrows —
    /// the read path without re-parsing, for serving layers that classify
    /// the operation themselves.
    pub fn query_select(&self, data: &RdfStore, q: &SparqlMlQuery) -> Result<QueryResult, MlError> {
        self.select(data, q)
    }

    /// The write path: INSERT-MODEL (`TrainGML`), model DELETE and plain
    /// data updates, requiring exclusive access to both the manager state
    /// (KGMeta) and the store. SELECTs are delegated to the read path.
    pub fn update(&mut self, data: &mut RdfStore, text: &str) -> Result<MlOutcome, MlError> {
        match parse(text)? {
            SparqlMlOperation::PlainSelect(q) => Ok(MlOutcome::Rows(evaluate_select(data, &q)?)),
            SparqlMlOperation::Select(q) => self.select(data, &q).map(MlOutcome::Rows),
            SparqlMlOperation::PlainUpdate(u) => Ok(MlOutcome::Updated(execute_update(data, &u)?)),
            SparqlMlOperation::Train(spec) => self.train(data, spec),
            SparqlMlOperation::DeleteModels(filter) => {
                let uris = self.kgmeta.matching_uris(&filter);
                for uri in &uris {
                    self.kgmeta.unregister(uri);
                    self.trainer.model_store().remove(uri);
                }
                Ok(MlOutcome::DeletedModels(uris))
            }
        }
    }

    /// Register an externally trained artifact in KGMeta. Used by serving
    /// layers whose job queues train through a [`TrainingManager`] clone
    /// outside any manager lock and commit the metadata under a brief
    /// exclusive borrow once training has succeeded.
    pub fn register_artifact(&mut self, artifact: &ModelArtifact) {
        self.kgmeta.register(artifact);
    }

    /// Optimize and rewrite a SPARQL-ML SELECT without executing it.
    pub fn explain(&self, data: &RdfStore, text: &str) -> Result<RewrittenQuery, MlError> {
        match parse(text)? {
            SparqlMlOperation::Select(q) => {
                let (models, plans, _) = self.optimize(data, &q)?;
                Ok(rewrite(&q, &models, &plans))
            }
            _ => Err(MlError::Sparql(SparqlError::parse("explain expects an ML SELECT"))),
        }
    }

    // -- training ----------------------------------------------------------

    fn train(
        &mut self,
        data: &RdfStore,
        spec: crate::parser::TrainGmlSpec,
    ) -> Result<MlOutcome, MlError> {
        let scope = spec
            .sampler
            .as_deref()
            .and_then(SamplingScope::parse)
            .unwrap_or_else(|| SamplingScope::default_for(&spec.task));
        let sampled = meta_sample_task(data, &spec.task, scope);

        let mut cfg = self.config.default_cfg.clone();
        for (key, value) in &spec.hyperparams {
            match key.as_str() {
                "Epochs" => cfg.epochs = *value as usize,
                "Hidden" => cfg.hidden = *value as usize,
                "LR" | "LearningRate" => cfg.lr = *value as f32,
                "Dropout" => cfg.dropout = *value as f32,
                "BatchSize" => cfg.batch_size = *value as usize,
                "Negatives" => cfg.negatives = *value as usize,
                "Seed" => cfg.seed = *value as u64,
                _ => {}
            }
        }
        let req = TrainRequest {
            name: spec.name.clone(),
            task: spec.task.clone(),
            budget: spec.budget,
            cfg,
            forced_method: spec.method.as_deref().and_then(parse_method),
            split_strategy: kgnet_graph::SplitStrategy::Random,
            sampler: scope.name(),
        };
        let (mut artifact, _trace) = self.trainer.train_uncommitted(&sampled.store, &req)?;
        // Stamp which store version the model saw, then commit: registry
        // insert and KGMeta registration happen together as the final step.
        artifact.trained_generation = data.generation();
        let artifact = self.trainer.model_store().insert(artifact);
        self.kgmeta.register(&artifact);
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

    /// Model + plan selection for an ML query; returns the per-predicate
    /// model URIs, plans and the evaluated base result.
    fn optimize(
        &self,
        data: &RdfStore,
        q: &SparqlMlQuery,
    ) -> Result<(Vec<String>, Vec<RewritePlan>, QueryResult), MlError> {
        // Candidate models per predicate from KGMeta.
        let mut candidates = Vec::with_capacity(q.ud_predicates.len());
        for ud in &q.ud_predicates {
            let models = self.kgmeta.find_models(&ud.filter);
            if models.is_empty() {
                return Err(MlError::NoModel(ud.var.clone()));
            }
            candidates.push(models);
        }
        let chosen = select_models(&candidates, self.config.max_inference_ms)
            .ok_or(MlError::SelectionInfeasible)?;
        let models: Vec<String> =
            chosen.iter().zip(&candidates).map(|(&i, c)| c[i].uri.clone()).collect();

        // Evaluate the base query with subjects projected, to count distinct
        // bindings per predicate (the cardinalities of §IV.B.3).
        let exec = self.executable_base(q);
        let base_result = evaluate_select(data, &exec)?;
        let inputs: Vec<PlanInputs> = q
            .ud_predicates
            .iter()
            .zip(chosen.iter().zip(&candidates))
            .map(|(ud, (&i, c))| PlanInputs {
                bindings: distinct_subject_count(&base_result, &ud.subject),
                model_cardinality: c[i].cardinality,
                entry_bytes: self.config.entry_bytes,
            })
            .collect();
        let plans = select_plans(&inputs, self.config.dict_bytes_cap);
        Ok((models, plans, base_result))
    }

    /// The base query, projected to also bind every UD subject/object var
    /// and every ORDER BY key.
    fn executable_base(&self, q: &SparqlMlQuery) -> kgnet_rdf::sparql::SelectQuery {
        let mut exec = q.base.clone();
        exec.distinct = false;
        exec.limit = None;
        exec.offset = None;
        exec.order_by.clear();
        let mut items: Vec<ProjectionItem> = match &exec.projection {
            Projection::All => {
                exec.pattern.bindable_vars().into_iter().map(ProjectionItem::Var).collect()
            }
            Projection::Items(items) => items.clone(),
        };
        let mut have: FxHashSet<String> = items
            .iter()
            .filter_map(|i| match i {
                ProjectionItem::Var(v) => Some(v.clone()),
                ProjectionItem::Agg { .. } => None,
            })
            .collect();
        for ud in &q.ud_predicates {
            if let TermPattern::Var(v) = &ud.subject {
                if have.insert(v.clone()) {
                    items.push(ProjectionItem::Var(v.clone()));
                }
            }
            if have.insert(ud.object_var.clone()) {
                items.push(ProjectionItem::Var(ud.object_var.clone()));
            }
        }
        for (v, _) in &q.base.order_by {
            if have.insert(v.clone()) {
                items.push(ProjectionItem::Var(v.clone()));
            }
        }
        exec.projection = Projection::Items(items);
        exec
    }

    fn select(&self, data: &RdfStore, q: &SparqlMlQuery) -> Result<QueryResult, MlError> {
        let (models, plans, mut result) = self.optimize(data, q)?;
        let rewritten = rewrite(q, &models, &plans);

        for step in &rewritten.steps {
            let subj_col = match &step.ud.subject {
                TermPattern::Var(v) => result.column(v),
                TermPattern::Ground(_) => None,
            };
            let obj_col = result
                .column(&step.ud.object_var)
                .expect("object var projected by executable_base");
            match step.ud.task_kind {
                TaskKind::NodeClassifier => {
                    self.fill_node_class(&mut result, step, subj_col, obj_col)?;
                }
                TaskKind::LinkPredictor | TaskKind::NodeSimilarity => {
                    self.expand_links(&mut result, step, subj_col, obj_col)?;
                }
            }
        }

        // Re-apply the original solution modifiers and projection, in SPARQL
        // order. ORDER BY sorts the full-width rows, so a key need not be
        // projected, by the plain evaluator's `OrderKey`s, one per cell.
        let (cols, orders): (Vec<usize>, Vec<Order>) =
            q.base.order_by.iter().filter_map(|(v, o)| result.column(v).map(|c| (c, *o))).unzip();
        if !cols.is_empty() {
            let keys: Vec<_> = result
                .rows
                .iter()
                .flat_map(|row| cols.iter().map(|&c| order_key(row[c].as_ref())))
                .collect();
            sort_by_order_keys(&mut result.rows, &keys, &orders);
        }
        // Cells are moved out of the base rows; only a column projected more
        // than once is cloned, for every use but its last.
        let final_vars = q.base.output_vars();
        let cols: Vec<usize> = final_vars.iter().filter_map(|v| result.column(v)).collect();
        let used_again: Vec<bool> =
            cols.iter().enumerate().map(|(i, c)| cols[i + 1..].contains(c)).collect();
        let mut rows: Vec<Vec<Option<Term>>> = result
            .rows
            .into_iter()
            .map(|mut row| {
                cols.iter()
                    .zip(&used_again)
                    .map(|(&c, &again)| if again { row[c].clone() } else { row[c].take() })
                    .collect()
            })
            .collect();
        if q.base.distinct {
            // Term equality: the same as comparing N-Triples renderings for
            // every term the parsers build (no literal has both a language
            // tag and a datatype).
            let mut seen = FxHashSet::default();
            let first: Vec<bool> = rows.iter().map(|row| seen.insert(row.as_slice())).collect();
            let mut first = first.into_iter();
            rows.retain(|_| first.next().unwrap_or(false));
        }
        let offset = q.base.offset.unwrap_or(0);
        if offset > 0 {
            rows.drain(..offset.min(rows.len()));
        }
        if let Some(limit) = q.base.limit {
            rows.truncate(limit);
        }
        Ok(QueryResult { vars: final_vars, rows })
    }

    fn fill_node_class(
        &self,
        result: &mut QueryResult,
        step: &crate::rewrite::InferenceStep,
        subj_col: Option<usize>,
        obj_col: usize,
    ) -> Result<(), MlError> {
        let subject = SubjectKey::of(step, subj_col);
        let predicted: Arc<HashMap<String, String>> = match step.plan {
            // The artifact's own map, shared by the service: looked up in
            // place, never copied.
            RewritePlan::Dictionary => match self
                .service
                .call(&InferenceRequest::GetNodeClassDict { model: step.model_uri.clone() })?
            {
                InferenceResponse::NodeClassDict { predictions } => predictions,
                _ => Arc::default(),
            },
            RewritePlan::PerBinding => {
                let mut predicted = HashMap::new();
                for iri in collect_subjects(result, &subject) {
                    let resp = self.service.call(&InferenceRequest::GetNodeClass {
                        model: step.model_uri.clone(),
                        node: iri.clone(),
                    })?;
                    if let InferenceResponse::NodeClass { class: Some(class), .. } = resp {
                        predicted.insert(iri, class);
                    }
                }
                Arc::new(predicted)
            }
        };
        // Bind predictions; rows whose subject has no prediction are dropped
        // (the inferred triple pattern did not match).
        result.rows.retain_mut(|row| {
            let class = subject.of_row(row).and_then(|s| predicted.get(s.as_ref()));
            let Some(class) = class else { return false };
            row[obj_col] = Some(Term::iri(class.clone()));
            true
        });
        Ok(())
    }

    fn expand_links(
        &self,
        result: &mut QueryResult,
        step: &crate::rewrite::InferenceStep,
        subj_col: Option<usize>,
        obj_col: usize,
    ) -> Result<(), MlError> {
        let subject = SubjectKey::of(step, subj_col);
        let k = step.ud.topk;
        let mut links: FxHashMap<String, Vec<(String, f32)>> = FxHashMap::default();
        match (step.ud.task_kind, step.plan) {
            (TaskKind::LinkPredictor, RewritePlan::Dictionary) => {
                let resp = self.service.call(&InferenceRequest::GetAllTopkLinks {
                    model: step.model_uri.clone(),
                    k,
                })?;
                if let InferenceResponse::AllTopkLinks { links: l } = resp {
                    links.extend(l);
                }
            }
            (TaskKind::LinkPredictor, RewritePlan::PerBinding) => {
                for iri in collect_subjects(result, &subject) {
                    let resp = self.service.call(&InferenceRequest::GetTopkLinks {
                        model: step.model_uri.clone(),
                        source: iri.clone(),
                        k,
                    })?;
                    if let InferenceResponse::TopkLinks { links: l, .. } = resp {
                        links.insert(iri, l);
                    }
                }
            }
            (TaskKind::NodeSimilarity, _) => {
                for iri in collect_subjects(result, &subject) {
                    let resp = self.service.call(&InferenceRequest::GetSimilarNodes {
                        model: step.model_uri.clone(),
                        node: iri.clone(),
                        k,
                    })?;
                    if let InferenceResponse::SimilarNodes { neighbors } = resp {
                        links.insert(iri, neighbors);
                    }
                }
            }
            (TaskKind::NodeClassifier, _) => unreachable!("handled by fill_node_class"),
        }

        let mut expanded = Vec::with_capacity(result.rows.len());
        for row in &result.rows {
            let ranked = subject.of_row(row).and_then(|s| links.get(s.as_ref()));
            let Some(ranked) = ranked else { continue };
            for (dest, _score) in ranked.iter().take(k) {
                let mut new_row = row.clone();
                new_row[obj_col] = Some(Term::iri(dest.clone()));
                expanded.push(new_row);
            }
        }
        result.rows = expanded;
        Ok(())
    }
}

/// Where an inference step reads its subject: a ground term, rendered once
/// per step, or a column of the base rows.
enum SubjectKey<'a> {
    Ground(Cow<'a, str>),
    Column(Option<usize>),
}

impl<'a> SubjectKey<'a> {
    fn of(step: &'a crate::rewrite::InferenceStep, subj_col: Option<usize>) -> Self {
        match &step.ud.subject {
            TermPattern::Ground(t) => SubjectKey::Ground(plain_iri(t)),
            TermPattern::Var(_) => SubjectKey::Column(subj_col),
        }
    }

    /// The subject of one base row, borrowed unless it is not an IRI.
    fn of_row<'r>(&'r self, row: &'r [Option<Term>]) -> Option<Cow<'r, str>> {
        match self {
            SubjectKey::Ground(iri) => Some(Cow::Borrowed(iri)),
            SubjectKey::Column(col) => row[(*col)?].as_ref().map(plain_iri),
        }
    }
}

/// The distinct subjects, in row order, for plans that call once per subject.
fn collect_subjects(result: &QueryResult, subject: &SubjectKey) -> Vec<String> {
    if let SubjectKey::Ground(iri) = subject {
        return vec![iri.to_string()];
    }
    let mut seen = FxHashSet::default();
    result
        .rows
        .iter()
        .filter_map(|row| subject.of_row(row))
        .filter(|s| seen.insert(s.clone()))
        .map(Cow::into_owned)
        .collect()
}

fn plain_iri(t: &Term) -> Cow<'_, str> {
    match t {
        Term::Iri(i) => Cow::Borrowed(i),
        other => Cow::Owned(other.to_string()),
    }
}

fn distinct_subject_count(result: &QueryResult, subject: &TermPattern) -> usize {
    match subject {
        TermPattern::Ground(_) => 1,
        TermPattern::Var(v) => {
            let Some(col) = result.column(v) else { return 0 };
            result.rows.iter().filter_map(|r| r[col].as_ref()).collect::<FxHashSet<&Term>>().len()
        }
    }
}

fn parse_method(name: &str) -> Option<GmlMethodKind> {
    let n = name.to_ascii_lowercase();
    Some(match n.as_str() {
        "gcn" => GmlMethodKind::Gcn,
        "rgcn" => GmlMethodKind::Rgcn,
        "graphsaint" | "g-saint" | "saint" => GmlMethodKind::GraphSaint,
        "shadowsaint" | "sh-saint" | "shadow" => GmlMethodKind::ShadowSaint,
        "morse" => GmlMethodKind::Morse,
        "transe" => GmlMethodKind::TransE,
        "distmult" => GmlMethodKind::DistMult,
        "complex" => GmlMethodKind::ComplEx,
        "rotate" => GmlMethodKind::RotatE,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::plan_calls;
    use kgnet_datagen::{generate_dblp, DblpConfig};

    fn manager() -> QueryManager {
        let cfg = ManagerConfig { default_cfg: GnnConfig::fast_test(), ..Default::default() };
        QueryManager::new(cfg)
    }

    fn train_nc(mgr: &mut QueryManager, data: &mut RdfStore) -> TrainedSummary {
        let out = mgr
            .execute(
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
        let mut mgr = manager();
        let summary = train_nc(&mut mgr, &mut data);
        assert!(summary.kg_prime_triples < data.len());
        assert_eq!(summary.sampler, "d1h1");

        let out = mgr.execute(&mut data, PV_QUERY).unwrap();
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
        let mut mgr = manager();
        train_nc(&mut mgr, &mut data);
        // From here on: &QueryManager and &RdfStore only.
        let mgr_ref: &QueryManager = &mgr;
        let data_ref: &RdfStore = &data;
        let MlOutcome::Rows(via_query) = mgr_ref.query(data_ref, PV_QUERY).unwrap() else {
            panic!("expected rows")
        };
        assert_eq!(via_query.len(), 60);
        // The read and write paths agree exactly.
        let MlOutcome::Rows(via_execute) = mgr.execute(&mut data, PV_QUERY).unwrap() else {
            panic!("expected rows")
        };
        assert_eq!(via_query, via_execute);
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
        let mut mgr = manager();
        // Unsatisfiable task: no such target type in the graph.
        let err = mgr
            .execute(
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
        assert!(mgr.kgmeta().is_empty(), "failed training must not touch KGMeta");
        assert!(mgr.trainer().model_store().is_empty(), "failed training must not register models");
    }

    #[test]
    fn query_without_model_errors() {
        let (mut data, _) = generate_dblp(&DblpConfig::tiny(43));
        let mut mgr = manager();
        match mgr.execute(&mut data, PV_QUERY) {
            Err(MlError::NoModel(var)) => assert_eq!(var, "NodeClassifier"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delete_models_clears_kgmeta_and_registry() {
        let (mut data, _) = generate_dblp(&DblpConfig::tiny(47));
        let mut mgr = manager();
        let summary = train_nc(&mut mgr, &mut data);
        let out = mgr
            .execute(
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
            MlOutcome::DeletedModels(uris) => assert_eq!(uris, vec![summary.model_uri]),
            other => panic!("unexpected {other:?}"),
        }
        assert!(mgr.kgmeta().is_empty());
        assert!(mgr.trainer().model_store().is_empty());
        // Querying now fails again.
        assert!(matches!(mgr.execute(&mut data, PV_QUERY), Err(MlError::NoModel(_))));
    }

    #[test]
    fn link_prediction_query_expands_topk() {
        let (mut data, _) = generate_dblp(&DblpConfig::tiny(53));
        let mut mgr = manager();
        let out = mgr
            .execute(
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
            .execute(
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
        let mut mgr = manager();
        let out = mgr
            .execute(
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

    #[test]
    fn explain_reports_dictionary_plan() {
        let (mut data, _) = generate_dblp(&DblpConfig::tiny(61));
        let mut mgr = manager();
        train_nc(&mut mgr, &mut data);
        let rewritten = mgr.explain(&data, PV_QUERY).unwrap();
        assert_eq!(rewritten.steps.len(), 1);
        assert_eq!(rewritten.steps[0].plan, RewritePlan::Dictionary);
        assert!(rewritten.sparql.contains("getKeyValue"));
        assert_eq!(plan_calls(rewritten.steps[0].plan, 60), 1);
    }
}
