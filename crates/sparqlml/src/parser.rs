//! The SPARQL-ML parser.
//!
//! SPARQL-ML extends SPARQL with *user-defined predicates*: a variable in
//! predicate position whose model class is constrained by ordinary triple
//! patterns (`?m a kgnet:NodeClassifier . ?m kgnet:TargetNode dblp:Publication ...`,
//! Fig. 2/10). Three operation shapes are recognised:
//!
//! * SELECT with user-defined predicates (Figs. 2 and 10);
//! * `INSERT ... kgnet.TrainGML({...})` training requests (Fig. 8);
//! * DELETE of trained models by KGMeta pattern (Fig. 9).
//!
//! Anything else falls through as a plain SPARQL operation.

use rustc_hash::FxHashMap;

use kgnet_gml::config::GmlMethodKind;
use kgnet_gmlaas::{Priority, TaskBudget, TaskKind};
use kgnet_graph::{GmlTask, LpTask, NcTask};
use kgnet_rdf::sparql::{Operation, SelectQuery, TermPattern, TriplePattern, Update};
use kgnet_rdf::{SparqlError, Term};
use kgnet_sampler::SamplingScope;

use crate::kgmeta::{vocab, ModelFilter};

/// A user-defined predicate occurrence inside a SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct UdPredicate {
    /// The predicate variable name (e.g. `NodeClassifier` in Fig. 2).
    pub var: String,
    /// The model class required for this predicate.
    pub task_kind: TaskKind,
    /// Subject of the inferred triple (e.g. `?paper`).
    pub subject: TermPattern,
    /// Object variable receiving predictions (e.g. `?venue`).
    pub object_var: String,
    /// Model filter assembled from the `kgnet:` constraint triples.
    pub filter: ModelFilter,
    /// `kgnet:TopK-Links` bound for link prediction (defaults to 10).
    pub topk: usize,
}

/// A parsed SPARQL-ML SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct SparqlMlQuery {
    /// The data query with UD-predicate and `kgnet:` triples removed.
    pub base: SelectQuery,
    /// The user-defined predicates to evaluate.
    pub ud_predicates: Vec<UdPredicate>,
}

/// A parsed `TrainGML` request.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainGmlSpec {
    /// Model name.
    pub name: String,
    /// The task to train.
    pub task: GmlTask,
    /// The task budget.
    pub budget: TaskBudget,
    /// Optional expert method override, named as
    /// [`GmlMethodKind::parse`] reads it (e.g. "RGCN").
    pub method: Option<GmlMethodKind>,
    /// Optional hyper-parameter overrides.
    pub hyperparams: FxHashMap<String, f64>,
    /// Optional sampler scope override, named as [`SamplingScope::parse`]
    /// reads it (e.g. "d2h1").
    pub sampler: Option<SamplingScope>,
}

/// Any SPARQL-ML operation.
#[derive(Debug, Clone, PartialEq)]
pub enum SparqlMlOperation {
    /// A SELECT with at least one user-defined predicate.
    Select(SparqlMlQuery),
    /// A plain SPARQL SELECT (no ML predicates).
    PlainSelect(SelectQuery),
    /// A model-training request.
    Train(TrainGmlSpec),
    /// Deletion of trained models matching a KGMeta filter.
    DeleteModels(ModelFilter),
    /// A plain SPARQL update.
    PlainUpdate(Update),
}

/// Parse a SPARQL-ML operation.
pub fn parse(input: &str) -> Result<SparqlMlOperation, SparqlError> {
    if contains_traingml(input) {
        return parse_traingml(input);
    }
    match kgnet_rdf::sparql::parse(input)? {
        Operation::Select(q) => Ok(classify_select(q)),
        Operation::Update(u) => Ok(classify_update(u)),
    }
}

/// The raw-text gate [`parse`] applies *before* tokenizing: a query
/// mentioning TrainGML anywhere (comments included) is routed to the
/// relaxed TrainGML parser. Exported so serving layers that cache by token
/// stream can mirror the classification exactly instead of re-deriving it.
pub fn contains_traingml(input: &str) -> bool {
    input.as_bytes().windows("traingml".len()).any(|w| w.eq_ignore_ascii_case(b"traingml"))
}

// ---------------------------------------------------------------------------
// SELECT classification
// ---------------------------------------------------------------------------

fn task_kind_of_class(iri: &str) -> Option<TaskKind> {
    match iri {
        vocab::NODE_CLASSIFIER => Some(TaskKind::NodeClassifier),
        vocab::LINK_PREDICTOR => Some(TaskKind::LinkPredictor),
        vocab::NODE_SIMILARITY => Some(TaskKind::NodeSimilarity),
        _ => None,
    }
}

/// Split a SELECT into its data part and its user-defined predicates.
pub fn classify_select(query: SelectQuery) -> SparqlMlOperation {
    let mut base = query.clone();
    let triples = std::mem::take(&mut base.pattern.triples);

    // Predicate-position variables typed as kgnet model classes.
    let mut ud: FxHashMap<String, UdPredicate> = FxHashMap::default();
    for tp in &triples {
        let Some(var) = tp.s.as_var() else { continue };
        let (Some(p), Some(o)) = (tp.p.as_ground(), tp.o.as_ground()) else { continue };
        if p.as_iri() != Some(kgnet_rdf::term::RDF_TYPE) {
            continue;
        }
        let Some(kind) = o.as_iri().and_then(task_kind_of_class) else { continue };
        ud.insert(
            var.to_owned(),
            UdPredicate {
                var: var.to_owned(),
                task_kind: kind,
                subject: TermPattern::Var(String::new()),
                object_var: String::new(),
                filter: ModelFilter { task_kind: Some(kind), ..Default::default() },
                topk: 10,
            },
        );
    }
    // Only a variable some triple uses as its predicate, with a variable
    // object, is a user-defined predicate. A model-typed variable used
    // otherwise reads KGMeta like any data, so its triples stay.
    ud.retain(|var, _| {
        triples.iter().any(|tp| tp.p.as_var() == Some(var.as_str()) && tp.o.as_var().is_some())
    });
    if ud.is_empty() {
        // Nothing ML about this query.
        base.pattern.triples = triples;
        return SparqlMlOperation::PlainSelect(base);
    }

    // Constraint triples (?m kgnet:X value) and the inferred triples
    // (?s ?m ?o); everything else stays in the data pattern.
    let mut kept = Vec::with_capacity(triples.len());
    for tp in triples {
        // Constraint triple on a UD variable subject.
        if let Some(var) = tp.s.as_var() {
            if let Some(entry) = ud.get_mut(var) {
                apply_constraint(entry, &tp);
                continue;
            }
        }
        // Inferred triple: variable predicate matching a UD variable.
        if let TermPattern::Var(pvar) = &tp.p {
            if let Some(entry) = ud.get_mut(pvar) {
                entry.subject = tp.s.clone();
                if let Some(ovar) = tp.o.as_var() {
                    entry.object_var = ovar.to_owned();
                }
                continue;
            }
        }
        kept.push(tp);
    }
    base.pattern.triples = kept;

    let mut ud_predicates: Vec<UdPredicate> = ud.into_values().collect();
    ud_predicates.sort_by(|a, b| a.var.cmp(&b.var));
    SparqlMlOperation::Select(SparqlMlQuery { base, ud_predicates })
}

fn apply_constraint(entry: &mut UdPredicate, tp: &TriplePattern) {
    let Some(pred) = tp.p.as_ground().and_then(Term::as_iri) else { return };
    let object_iri = tp.o.as_ground().and_then(Term::as_iri).map(str::to_owned);
    match pred {
        vocab::TARGET_NODE => entry.filter.target_type = object_iri,
        vocab::NODE_LABEL => entry.filter.node_label = object_iri,
        vocab::SOURCE_NODE => entry.filter.source_type = object_iri,
        vocab::DESTINATION_NODE => entry.filter.destination_type = object_iri,
        vocab::TOPK_LINKS => {
            if let Some(k) = tp.o.as_ground().and_then(Term::as_int) {
                entry.topk = k.max(1) as usize;
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// DELETE classification
// ---------------------------------------------------------------------------

fn classify_update(update: Update) -> SparqlMlOperation {
    let pattern_triples: Option<&Vec<TriplePattern>> = match &update {
        Update::DeleteWhere(ts) => Some(ts),
        Update::Modify { pattern, insert, .. } if insert.is_empty() => Some(&pattern.triples),
        _ => None,
    };
    let Some(triples) = pattern_triples else {
        return SparqlMlOperation::PlainUpdate(update);
    };

    // A model-delete names a variable typed as a kgnet model class.
    let mut filter: Option<(String, ModelFilter)> = None;
    for tp in triples {
        let Some(var) = tp.s.as_var() else { continue };
        let (Some(p), Some(o)) = (tp.p.as_ground(), tp.o.as_ground()) else { continue };
        if p.as_iri() == Some(kgnet_rdf::term::RDF_TYPE) {
            if let Some(kind) = o.as_iri().and_then(task_kind_of_class) {
                filter = Some((
                    var.to_owned(),
                    ModelFilter { task_kind: Some(kind), ..Default::default() },
                ));
            }
        }
    }
    let Some((var, mut mf)) = filter else {
        return SparqlMlOperation::PlainUpdate(update);
    };
    for tp in triples {
        if tp.s.as_var() == Some(var.as_str()) {
            let mut probe = UdPredicate {
                var: var.clone(),
                task_kind: mf.task_kind.expect("set above"),
                subject: TermPattern::Var(String::new()),
                object_var: String::new(),
                filter: mf.clone(),
                topk: 10,
            };
            apply_constraint(&mut probe, tp);
            mf = probe.filter;
        }
    }
    SparqlMlOperation::DeleteModels(mf)
}

// ---------------------------------------------------------------------------
// TrainGML parsing (Fig. 8)
// ---------------------------------------------------------------------------

fn parse_traingml(input: &str) -> Result<SparqlMlOperation, SparqlError> {
    // Collect prefixes with the standard prologue parser.
    let mut prologue = kgnet_rdf::sparql::Parser::from_query(input)?;
    prologue.parse_prologue()?;
    let prefixes = prologue.prefixes().clone();

    // Locate TrainGML( ... ) and extract the balanced argument.
    let lower = input.to_ascii_lowercase();
    let at = lower.find("traingml").expect("caller checked");
    let open = input[at..]
        .find('(')
        .map(|i| at + i)
        .ok_or_else(|| SparqlError::parse("TrainGML missing '('"))?;
    let arg = balanced_parens(input, open)
        .ok_or_else(|| SparqlError::parse("TrainGML argument not balanced"))?;
    let namespace = |prefix: &str| prefixes.get(prefix).map(String::as_str);
    let json = kgnet_obs::json::parse(arg.trim(), namespace)
        .map_err(|e| SparqlError::parse(format!("TrainGML JSON: {e}")))?;

    let name = json.get("Name").and_then(|v| v.as_str()).unwrap_or("unnamed-model").to_owned();
    let task_obj = json
        .get("GML-Task")
        .or_else(|| json.get("GMLTask"))
        .filter(|v| v.as_object().is_some())
        .ok_or_else(|| SparqlError::parse("TrainGML: missing GML-Task object"))?;
    let get_s = |key: &str| -> Option<String> {
        task_obj.get(key).and_then(|v| v.as_str()).map(str::to_owned)
    };
    let task_type =
        get_s("TaskType").ok_or_else(|| SparqlError::parse("TrainGML: missing TaskType"))?;
    let task = match task_kind_of_class(&task_type) {
        Some(TaskKind::NodeClassifier) => {
            let target = get_s("TargetNode")
                .ok_or_else(|| SparqlError::parse("TrainGML: missing TargetNode"))?;
            // The paper's Fig. 8 spells it "NodeLable"; accept both.
            let label = get_s("NodeLabel")
                .or_else(|| get_s("NodeLable"))
                .ok_or_else(|| SparqlError::parse("TrainGML: missing NodeLabel"))?;
            GmlTask::NodeClassification(NcTask { target_type: target, label_predicate: label })
        }
        Some(TaskKind::LinkPredictor) => {
            let source = get_s("SourceNode")
                .ok_or_else(|| SparqlError::parse("TrainGML: missing SourceNode"))?;
            let dest = get_s("DestinationNode")
                .ok_or_else(|| SparqlError::parse("TrainGML: missing DestinationNode"))?;
            let edge = get_s("TargetEdge")
                .ok_or_else(|| SparqlError::parse("TrainGML: missing TargetEdge"))?;
            GmlTask::LinkPrediction(LpTask {
                source_type: source,
                edge_predicate: edge,
                dest_type: dest,
            })
        }
        Some(TaskKind::NodeSimilarity) => {
            let target = get_s("TargetNode")
                .ok_or_else(|| SparqlError::parse("TrainGML: missing TargetNode"))?;
            GmlTask::EntitySimilarity { target_type: target }
        }
        None => {
            return Err(SparqlError::parse(format!("TrainGML: unknown TaskType '{task_type}'")))
        }
    };

    // A budget field that cannot be read is refused, never left unset.
    let mut budget = TaskBudget::unlimited();
    if let Some(b) = json.get("Task Budget").or_else(|| json.get("TaskBudget")) {
        let fields = b
            .as_object()
            .ok_or_else(|| SparqlError::parse("TrainGML: Task Budget is not an object"))?;
        for (key, value) in fields {
            let unreadable = |rule: &str| {
                SparqlError::parse(format!(
                    "TrainGML Task Budget: `{key}` must be {rule}, got {value:?}"
                ))
            };
            match key.as_str() {
                "MaxMemory" => {
                    let bytes = match value.as_str() {
                        Some(text) => TaskBudget::parse_memory(text),
                        None => value.as_u64().and_then(|n| usize::try_from(n).ok()),
                    };
                    budget.max_memory_bytes =
                        Some(bytes.ok_or_else(|| unreadable("a size (50GB) or whole bytes"))?);
                }
                "MaxTime" => {
                    let secs = match value.as_str() {
                        Some(text) => TaskBudget::parse_time(text),
                        None => value.as_f64().filter(|t| t.is_finite() && *t >= 0.0),
                    };
                    budget.max_time_s =
                        Some(secs.ok_or_else(|| unreadable("a duration (1h) or seconds >= 0"))?);
                }
                "Priority" => {
                    budget.priority = match value.as_str() {
                        Some("ModelScore") => Priority::ModelScore,
                        Some("TrainingTime" | "Time") => Priority::TrainingTime,
                        Some("Memory") => Priority::Memory,
                        _ => return Err(unreadable("ModelScore, TrainingTime, Time or Memory")),
                    };
                }
                _ => {
                    return Err(SparqlError::parse(format!(
                        "TrainGML Task Budget: unknown key `{key}`"
                    )))
                }
            }
        }
    }

    // An unknown name, or a value that is not a name, is refused, never
    // read as "choose for me".
    let named = |key: &str| {
        json.get(key)
            .map(|v| {
                v.as_str().ok_or_else(|| {
                    SparqlError::parse(format!("TrainGML: {key} must be a name, got {v:?}"))
                })
            })
            .transpose()
    };
    let unknown =
        |key: &str, name: &str| SparqlError::parse(format!("TrainGML: unknown {key} '{name}'"));
    let method = named("Method")?
        .map(|name| GmlMethodKind::parse(name).ok_or_else(|| unknown("Method", name)))
        .transpose()?;
    let sampler = named("Sampler")?
        .map(|name| SamplingScope::parse(name).ok_or_else(|| unknown("Sampler", name)))
        .transpose()?;
    let mut hyperparams = FxHashMap::default();
    if let Some(h) = json.get("Hyperparams").and_then(|v| v.as_object()) {
        for (k, v) in h {
            if let Some(f) = v.as_f64() {
                hyperparams.insert(k.clone(), f);
            }
        }
    }

    Ok(SparqlMlOperation::Train(TrainGmlSpec { name, task, budget, method, hyperparams, sampler }))
}

/// Content between the parenthesis at `open` and its match.
fn balanced_parens(input: &str, open: usize) -> Option<&str> {
    let bytes = input.as_bytes();
    debug_assert_eq!(bytes[open], b'(');
    let mut depth = 0usize;
    let mut in_string: Option<u8> = None;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match in_string {
            Some(q) => {
                if b == q {
                    in_string = None;
                }
            }
            None => match b {
                b'\'' | b'"' => in_string = Some(b),
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(&input[open + 1..i]);
                    }
                }
                _ => {}
            },
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2: &str = r#"
        PREFIX dblp: <https://www.dblp.org/>
        PREFIX kgnet: <https://www.kgnet.com/>
        SELECT ?title ?venue
        WHERE {
          ?paper a dblp:Publication .
          ?paper dblp:title ?title .
          ?paper ?NodeClassifier ?venue .
          ?NodeClassifier a kgnet:NodeClassifier .
          ?NodeClassifier kgnet:TargetNode dblp:Publication .
          ?NodeClassifier kgnet:NodeLabel dblp:venue .
        }"#;

    #[test]
    fn parses_fig2_node_classifier_query() {
        let op = parse(FIG2).unwrap();
        let SparqlMlOperation::Select(q) = op else { panic!("expected ML select") };
        assert_eq!(q.ud_predicates.len(), 1);
        let ud = &q.ud_predicates[0];
        assert_eq!(ud.var, "NodeClassifier");
        assert_eq!(ud.task_kind, TaskKind::NodeClassifier);
        assert_eq!(ud.subject, TermPattern::Var("paper".into()));
        assert_eq!(ud.object_var, "venue");
        assert_eq!(ud.filter.target_type.as_deref(), Some("https://www.dblp.org/Publication"));
        assert_eq!(ud.filter.node_label.as_deref(), Some("https://www.dblp.org/venue"));
        // Base query keeps only the two data triples.
        assert_eq!(q.base.pattern.triples.len(), 2);
        assert_eq!(q.base.output_vars(), vec!["title", "venue"]);
    }

    #[test]
    fn parses_fig10_link_predictor_query() {
        let op = parse(
            r#"
            PREFIX dblp: <https://www.dblp.org/>
            PREFIX kgnet: <https://www.kgnet.com/>
            SELECT ?author ?affiliation
            WHERE {
              ?author a dblp:Person .
              ?author ?LinkPredictor ?affiliation .
              ?LinkPredictor a kgnet:LinkPredictor .
              ?LinkPredictor kgnet:SourceNode dblp:Person .
              ?LinkPredictor kgnet:DestinationNode dblp:Affiliation .
              ?LinkPredictor kgnet:TopK-Links 10 .
            }"#,
        )
        .unwrap();
        let SparqlMlOperation::Select(q) = op else { panic!("expected ML select") };
        let ud = &q.ud_predicates[0];
        assert_eq!(ud.task_kind, TaskKind::LinkPredictor);
        assert_eq!(ud.topk, 10);
        assert_eq!(ud.filter.source_type.as_deref(), Some("https://www.dblp.org/Person"));
        assert_eq!(ud.filter.destination_type.as_deref(), Some("https://www.dblp.org/Affiliation"));
    }

    #[test]
    fn plain_select_passes_through() {
        let op = parse("SELECT ?s WHERE { ?s ?p ?o }").unwrap();
        assert!(matches!(op, SparqlMlOperation::PlainSelect(_)));
    }

    #[test]
    fn parses_fig8_traingml_insert() {
        let op = parse(
            r#"
            PREFIX dblp: <https://www.dblp.org/>
            PREFIX kgnet: <https://www.kgnet.com/>
            Insert into <kgnet> { ?s ?p ?o }
            where { select * from kgnet.TrainGML(
              {Name: 'DBLP_Paper-Venue_Classifier',
               GML-Task:{ TaskType: kgnet:NodeClassifier,
                          TargetNode: dblp:Publication,
                          NodeLable: dblp:publishedIn},
               Task Budget:{ MaxMemory:50GB, MaxTime:1h, Priority:ModelScore} } )}"#,
        )
        .unwrap();
        let SparqlMlOperation::Train(spec) = op else { panic!("expected train") };
        assert_eq!(spec.name, "DBLP_Paper-Venue_Classifier");
        match &spec.task {
            GmlTask::NodeClassification(nc) => {
                assert_eq!(nc.target_type, "https://www.dblp.org/Publication");
                assert_eq!(nc.label_predicate, "https://www.dblp.org/publishedIn");
            }
            other => panic!("unexpected task {other:?}"),
        }
        assert_eq!(spec.budget.max_memory_bytes, Some(50 * 1024 * 1024 * 1024));
        assert_eq!(spec.budget.max_time_s, Some(3600.0));
    }

    /// The Fig. 8 TrainGML with `{budget}` as its `Task Budget` and
    /// `{extra}` as further top-level fields.
    fn traingml(budget: &str, extra: &str) -> Result<SparqlMlOperation, SparqlError> {
        parse(&format!(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               INSERT INTO <kgnet> {{ ?s ?p ?o }} WHERE {{ SELECT * FROM kgnet.TrainGML(
                 {{Name: 'budgeted',
                  GML-Task:{{ TaskType: kgnet:NodeClassifier,
                             TargetNode: dblp:Publication, NodeLabel: dblp:publishedIn}},
                  Task Budget:{{ {budget} }}{extra}}})}}"#
        ))
    }

    #[test]
    fn traingml_reads_every_budget_spelling_in_use() {
        let budget = |fields: &str| match traingml(fields, "").unwrap() {
            SparqlMlOperation::Train(spec) => spec.budget,
            other => panic!("expected train, got {other:?}"),
        };
        let b = budget("MaxMemory: 50GB, MaxTime: 1h, Priority: ModelScore");
        assert_eq!(b.max_memory_bytes, Some(50 * 1024 * 1024 * 1024));
        assert_eq!((b.max_time_s, b.priority), (Some(3600.0), Priority::ModelScore));
        let b = budget("MaxMemory: 4096, MaxTime: 90.5, Priority: 'TrainingTime'");
        assert_eq!((b.max_memory_bytes, b.max_time_s), (Some(4096), Some(90.5)));
        assert_eq!(b.priority, Priority::TrainingTime);
        assert_eq!(budget("Priority: Time").priority, Priority::TrainingTime);
        assert_eq!(budget("Priority: Memory").priority, Priority::Memory);
        assert_eq!(budget(""), TaskBudget::unlimited());
    }

    /// Each of these once trained with the field dropped or replaced: an
    /// unknown priority read as ModelScore, an unreadable cap left unset, a
    /// negative memory cap clamped to 0, a negative or infinite time cap
    /// accepted, a non-string method or sampler read as absent.
    #[test]
    fn traingml_refuses_budget_fields_and_names_it_cannot_read() {
        let cases = [
            ("Priority: Accuracy", "", "`Priority`"),
            ("Priority: 3", "", "`Priority`"),
            ("MaxMemory: 'lots'", "", "`MaxMemory`"),
            ("MaxMemory: -1", "", "`MaxMemory`"),
            ("MaxMemory: 1.5", "", "`MaxMemory`"),
            ("MaxMemory: '-2GB'", "", "`MaxMemory`"),
            ("MaxTime: 'soon'", "", "`MaxTime`"),
            ("MaxTime: -5", "", "`MaxTime`"),
            ("MaxTime: 1e999", "", "`MaxTime`"),
            ("MaxTime: true", "", "`MaxTime`"),
            ("MaxMem: 1GB", "", "unknown key `MaxMem`"),
            ("", ", Method: 42", "Method must be a name"),
            ("", ", Sampler: ['d1h1']", "Sampler must be a name"),
        ];
        for (budget, extra, refused) in cases {
            match traingml(budget, extra) {
                Err(e) => assert!(e.to_string().contains(refused), "{budget}{extra}: {e}"),
                Ok(op) => panic!("{budget}{extra}: expected a refusal, got {op:?}"),
            }
        }
        let not_an_object = parse(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
                 {GML-Task:{ TaskType: kgnet:NodeClassifier,
                             TargetNode: dblp:Publication, NodeLabel: dblp:publishedIn},
                  Task Budget: 5})}"#,
        );
        assert!(not_an_object.is_err_and(|e| e.to_string().contains("not an object")));
    }

    #[test]
    fn parses_traingml_link_prediction_with_overrides() {
        let op = parse(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
                 {Name: 'aff-lp',
                  GML-Task:{ TaskType: kgnet:LinkPredictor,
                             SourceNode: dblp:Person,
                             DestinationNode: dblp:Affiliation,
                             TargetEdge: dblp:affiliatedWith},
                  Method: 'MorsE', Sampler: 'd2h1',
                  Hyperparams: {Epochs: 25, Hidden: 16}})}"#,
        )
        .unwrap();
        let SparqlMlOperation::Train(spec) = op else { panic!("expected train") };
        assert_eq!(spec.method, Some(GmlMethodKind::Morse));
        assert_eq!(spec.sampler, Some(SamplingScope::D2H1));
        assert_eq!(spec.hyperparams.get("Epochs"), Some(&25.0));
        assert!(matches!(spec.task, GmlTask::LinkPrediction(_)));
    }

    fn traingml_naming(method: &str, sampler: &str) -> Result<SparqlMlOperation, SparqlError> {
        parse(&format!(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               INSERT INTO <kgnet> {{ ?s ?p ?o }} WHERE {{ SELECT * FROM kgnet.TrainGML(
                 {{Name: 'named', GML-Task:{{ TaskType: kgnet:NodeClassifier,
                    TargetNode: dblp:Publication, NodeLabel: dblp:publishedIn}},
                  Method: '{method}', Sampler: '{sampler}'}})}}"#
        ))
    }

    #[test]
    fn traingml_reads_the_method_and_scope_spellings_in_use() {
        for (name, method) in [
            ("GCN", GmlMethodKind::Gcn),
            ("GraphSAINT", GmlMethodKind::GraphSaint),
            ("ShadowSAINT", GmlMethodKind::ShadowSaint),
            ("MorsE", GmlMethodKind::Morse),
        ] {
            let Ok(SparqlMlOperation::Train(spec)) = traingml_naming(name, "d2h1") else {
                panic!("{name} did not parse")
            };
            assert_eq!((spec.method, spec.sampler), (Some(method), Some(SamplingScope::D2H1)));
        }
    }

    #[test]
    fn traingml_refuses_unknown_method_and_sampler_names() {
        for (method, sampler, refused) in
            [("Bogus", "d1h1", "unknown Method 'Bogus'"), ("GCN", "d9h9", "unknown Sampler 'd9h9'")]
        {
            match traingml_naming(method, sampler) {
                Err(e) => assert!(e.to_string().contains(refused), "{e}"),
                Ok(op) => panic!("{method}/{sampler} parsed as {op:?}"),
            }
        }
    }

    #[test]
    fn traingml_strings_decode_their_escapes() {
        let op = parse(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
                 {Name: 'a\tb',
                  GML-Task:{ TaskType: kgnet:NodeSimilarity, TargetNode: 'dblp:Person\u00e9'}})}"#,
        )
        .unwrap();
        let SparqlMlOperation::Train(spec) = op else { panic!("expected train") };
        assert_eq!(spec.name, "a\tb");
        assert_eq!(
            spec.task,
            GmlTask::EntitySimilarity { target_type: "dblp:Person\u{e9}".into() }
        );
    }

    #[test]
    fn parses_fig9_delete_models() {
        let op = parse(
            r#"
            PREFIX dblp: <https://www.dblp.org/>
            PREFIX kgnet: <https://www.kgnet.com/>
            DELETE {?NodeClassifier ?p ?o}
            WHERE {
              ?NodeClassifier a kgnet:NodeClassifier .
              ?NodeClassifier kgnet:TargetNode dblp:Publication .
              ?NodeClassifier kgnet:NodeLabel dblp:venue . }"#,
        )
        .unwrap();
        let SparqlMlOperation::DeleteModels(filter) = op else { panic!("expected delete") };
        assert_eq!(filter.task_kind, Some(TaskKind::NodeClassifier));
        assert_eq!(filter.target_type.as_deref(), Some("https://www.dblp.org/Publication"));
        assert_eq!(filter.node_label.as_deref(), Some("https://www.dblp.org/venue"));
    }

    #[test]
    fn plain_update_passes_through() {
        let op = parse("INSERT DATA { <http://x/a> <http://x/p> <http://x/b> }").unwrap();
        assert!(matches!(op, SparqlMlOperation::PlainUpdate(_)));
    }

    #[test]
    fn a_model_typed_variable_that_is_not_a_predicate_reads_kgmeta() {
        let text = "PREFIX kgnet: <https://www.kgnet.com/> PREFIX dblp: <https://www.dblp.org/> \
                    SELECT ?m WHERE { ?m a kgnet:NodeClassifier . \
                    ?m kgnet:TargetNode dblp:Publication . }";
        let SparqlMlOperation::PlainSelect(q) = parse(text).unwrap() else {
            panic!("expected a plain select")
        };
        assert_eq!(q.pattern.triples.len(), 2, "the KGMeta patterns were dropped");
    }

    #[test]
    fn missing_constraints_are_tolerated() {
        // No TargetNode constraint: the filter simply stays open.
        let op = parse(
            r#"PREFIX kgnet: <https://www.kgnet.com/>
               SELECT ?s ?c WHERE {
                 ?s ?M ?c . ?M a kgnet:NodeClassifier . }"#,
        )
        .unwrap();
        let SparqlMlOperation::Select(q) = op else { panic!("expected ML select") };
        assert!(q.ud_predicates[0].filter.target_type.is_none());
    }
}
