//! Plan equivalence for node-classification SELECTs: the Fig. 12
//! Dictionary plan and the Fig. 11 per-binding plan answer every query
//! shape with the same rows.
//!
//! One model is trained, and its artifact is registered unchanged in a
//! second manager whose zero dictionary-byte cap rules the Dictionary plan
//! out, so the only difference between the two runs is the plan.
//!
//! The virtual-triple oracle below goes further: hand-built NC, LP and
//! similarity models answer each ML SELECT exactly like a plain SELECT
//! over a copy of the store in which every prediction is a real triple.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use kgnet_datagen::vocab::dblp;
use kgnet_datagen::{generate_dblp, DblpConfig};
use kgnet_gml::config::{GmlMethodKind, GnnConfig, TrainReport};
use kgnet_gmlaas::{ArtifactPayload, EmbeddingStore, Metric, ModelArtifact, TaskKind};
use kgnet_rdf::{QueryResult, RdfStore, Term};
use kgnet_sparqlml::{kgmeta, ManagerConfig, MlOutcome, QueryManager, RewritePlan};

const PREFIXES: &str =
    "PREFIX dblp: <https://www.dblp.org/>\nPREFIX kgnet: <https://www.kgnet.com/>\n";

const TRAIN: &str = r#"INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
    {Name: 'paper-venue',
     GML-Task:{ TaskType: kgnet:NodeClassifier,
                TargetNode: dblp:Publication,
                NodeLabel: dblp:publishedIn},
     Method: 'GraphSAINT'})}"#;

const CLASSIFIER: &str = "?NodeClassifier a kgnet:NodeClassifier . \
     ?NodeClassifier kgnet:TargetNode dblp:Publication . \
     ?NodeClassifier kgnet:NodeLabel dblp:publishedIn .";

/// The Fig. 2 query with a projection, extra patterns around the inferred
/// triple, and trailing solution modifiers.
fn ml_query(select: &str, subject: &str, narrow: &str, modifiers: &str) -> String {
    format!(
        "{PREFIXES}SELECT {select} WHERE {{ {narrow} {subject} ?NodeClassifier ?venue . \
         {CLASSIFIER} }}{modifiers}"
    )
}

fn rows(mgr: &QueryManager, data: &RdfStore, text: &str) -> QueryResult {
    match mgr.query(data, text) {
        Ok(MlOutcome::Rows(rows)) => rows,
        other => panic!("{text}\n=> {other:?}"),
    }
}

fn sorted(result: &QueryResult) -> Vec<Vec<Option<Term>>> {
    let mut rows = result.rows.clone();
    rows.sort();
    rows
}

#[test]
fn dictionary_and_per_binding_plans_return_the_same_rows() {
    let (mut data, _) = generate_dblp(&DblpConfig::tiny(41));
    let cfg = ManagerConfig { default_cfg: GnnConfig::fast_test(), ..Default::default() };
    let dictionary = QueryManager::new(cfg.clone());
    let Ok(MlOutcome::Trained(summary)) =
        dictionary.update(&mut data, &format!("{PREFIXES}{TRAIN}"))
    else {
        panic!("training failed")
    };
    let artifact = dictionary.trainer().model_store().get(&summary.model_uri).unwrap();
    let per_binding = QueryManager::new(ManagerConfig { dict_bytes_cap: Some(0), ..cfg });
    kgmeta::publish(per_binding.trainer().model_store(), &mut data, (*artifact).clone());

    let paper = dblp::paper(3);
    let author = rows(
        &dictionary,
        &data,
        &format!("SELECT ?a WHERE {{ <{paper}> <{}> ?a }} LIMIT 1", dblp::AUTHORED_BY),
    );
    let author = author.rows[0][0].clone().unwrap();
    let all = "?paper a dblp:Publication . ?paper dblp:title ?title .";
    let by_venue = format!("{all} ?paper dblp:publishedIn ?v . FILTER(?v = <{}>)", dblp::venue(1));
    let by_author = format!("{all} ?paper dblp:authoredBy {author} .");
    let ground = format!("<{paper}> dblp:title ?title .");
    let with_year = format!("{all} ?paper dblp:yearOfPublication ?year .");
    let by_year = " ORDER BY DESC(?year) ?title";
    let shapes = [
        // The four `ml-select` selectivities.
        ml_query("?paper ?title ?venue", "?paper", all, ""),
        ml_query("?paper ?title ?venue", "?paper", &by_venue, ""),
        ml_query("?paper ?title ?venue", "?paper", &by_author, ""),
        ml_query("?paper ?title ?venue", "?paper", all, " LIMIT 10"),
        // Solution modifiers re-applied after inference.
        ml_query("DISTINCT ?venue", "?paper", all, ""),
        ml_query("?title ?venue", "?paper", all, " ORDER BY ?title OFFSET 5 LIMIT 10"),
        ml_query("?title ?venue", "?paper", all, " ORDER BY DESC(?venue) ?title LIMIT 7"),
        // A ground subject, and a variable projected twice.
        ml_query("?title ?venue", &format!("<{paper}>"), &ground, ""),
        ml_query("?paper ?venue ?paper", "?paper", all, ""),
        // An ORDER BY key the query does not project.
        ml_query("?title ?venue", "?paper", &with_year, by_year),
    ];

    for text in &shapes {
        assert_eq!(plan_of(&per_binding, &data, text), RewritePlan::PerBinding, "{text}");
        let (a, b) = (rows(&dictionary, &data, text), rows(&per_binding, &data, text));
        assert!(!a.is_empty(), "vacuous shape: {text}");
        assert_eq!(a.vars, b.vars, "{text}");
        assert_eq!(sorted(&a), sorted(&b), "row multisets differ: {text}");
        if text.contains("ORDER BY") {
            assert_eq!(a.rows, b.rows, "ordered rows differ: {text}");
        }
    }
    assert_eq!(plan_of(&dictionary, &data, &shapes[0]), RewritePlan::Dictionary);

    // Spot checks that the shared pipeline itself is right, not just agreed.
    let all_papers = rows(&dictionary, &data, &shapes[0]);
    assert_eq!(all_papers.len(), 60);
    assert_eq!(rows(&dictionary, &data, &shapes[3]).len(), 10);
    let distinct = rows(&dictionary, &data, &shapes[4]);
    let unique: HashSet<_> = distinct.rows.iter().collect();
    assert_eq!(unique.len(), distinct.len(), "DISTINCT kept a duplicate");
    assert!(distinct.len() < all_papers.len());
    let twice = rows(&dictionary, &data, &shapes[8]);
    assert_eq!(twice.vars, vec!["paper", "venue", "paper"]);
    for row in &twice.rows {
        assert!(row[0].is_some(), "projected-twice column lost its value");
        assert_eq!(row[0], row[2]);
    }
    // The unprojected `?year` key orders the ML rows exactly as it orders
    // the plain query over the same pattern.
    let plain = rows(
        &dictionary,
        &data,
        &format!("{PREFIXES}SELECT ?title WHERE {{ {with_year} }}{by_year}"),
    );
    let titles = |r: &QueryResult| r.rows.iter().map(|row| row[0].clone()).collect::<Vec<_>>();
    assert_eq!(titles(&rows(&dictionary, &data, &shapes[9])), titles(&plain));
}

fn plan_of(mgr: &QueryManager, data: &RdfStore, text: &str) -> RewritePlan {
    mgr.explain(data, text).unwrap().steps[0].plan
}

// ---------------------------------------------------------------------------
// The virtual-triple oracle
// ---------------------------------------------------------------------------

/// The predicates the oracle store asserts each model's predictions under.
const ORACLE_NC: &str = "http://oracle.kgnet/nc";
const ORACLE_LP: &str = "http://oracle.kgnet/lp";
const ORACLE_SIM: &str = "http://oracle.kgnet/sim";
/// A class the NC model predicts for paper 1 that the data store never
/// interned.
const ABSENT_VENUE: &str = "http://oracle.kgnet/venue/absent";
/// `kgnet:TopK-Links` of the LP and similarity queries; the LP model
/// stores one more candidate than this.
const LP_K: usize = 2;
const SIM_K: usize = 3;

const LINK_PREDICTOR: &str = "?LinkPredictor a kgnet:LinkPredictor . \
     ?LinkPredictor kgnet:SourceNode dblp:Person . \
     ?LinkPredictor kgnet:DestinationNode dblp:Affiliation . \
     ?LinkPredictor kgnet:TopK-Links 2 .";

const SIMILARITY: &str = "?NodeSimilarity a kgnet:NodeSimilarity . \
     ?NodeSimilarity kgnet:TargetNode dblp:Publication . \
     ?NodeSimilarity kgnet:TopK-Links 3 .";

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

fn artifact(
    name: &str,
    task_kind: TaskKind,
    target_type: &str,
    destination_type: Option<&str>,
    cardinality: usize,
    payload: ArtifactPayload,
) -> ModelArtifact {
    let label = match task_kind {
        TaskKind::LinkPredictor => dblp::AFFILIATED_WITH,
        _ => dblp::PUBLISHED_IN,
    };
    ModelArtifact {
        uri: format!("https://www.kgnet.com/model/{name}"),
        task_kind,
        target_type: target_type.to_owned(),
        label_predicate: label.to_owned(),
        destination_type: destination_type.map(str::to_owned),
        method: GmlMethodKind::Gcn,
        report: report(),
        sampler: "d1h1".into(),
        cardinality,
        trained_generation: 0,
        payload,
    }
}

/// NC predictions for every paper but each fifth; paper 1 is predicted the
/// absent venue.
fn nc_predictions(cfg: &DblpConfig, skip_every: usize) -> HashMap<String, String> {
    (0..cfg.n_papers)
        .filter(|i| i % skip_every != 0 || skip_every == 1)
        .map(|i| {
            let class = if i == 1 { ABSENT_VENUE.to_owned() } else { dblp::venue(i * 3 % 5) };
            (dblp::paper(i), class)
        })
        .collect()
}

/// The hand-built models: an NC map, an LP top-3 map over every author but
/// each fourth, and an index-free similarity store over every paper but
/// each sixth (so its neighbours are exact).
fn oracle_models(cfg: &DblpConfig) -> Vec<ModelArtifact> {
    let nc = nc_predictions(cfg, 5);
    let lp: HashMap<String, Vec<(String, f32)>> = (0..cfg.n_authors)
        .filter(|j| j % 4 != 3)
        .map(|j| {
            let ranked = (0..=LP_K)
                .map(|r| (dblp::affiliation((j + r) % cfg.n_affiliations), 1.0 - r as f32 / 10.0))
                .collect();
            (dblp::author(j), ranked)
        })
        .collect();
    let mut sim = EmbeddingStore::new(3, Metric::L2);
    for i in (0..cfg.n_papers).filter(|i| i % 6 != 5) {
        let theta = i as f32 * 0.7;
        sim.add(dblp::paper(i), vec![theta.cos(), theta.sin(), i as f32 / 60.0]).unwrap();
    }
    let (n_nc, n_lp, n_sim) = (nc.len(), lp.len(), sim.len());
    vec![
        artifact(
            "nc/oracle",
            TaskKind::NodeClassifier,
            dblp::PUBLICATION,
            None,
            n_nc,
            ArtifactPayload::NodeClassifier { predictions: Arc::new(nc) },
        ),
        artifact(
            "lp/oracle",
            TaskKind::LinkPredictor,
            dblp::PERSON,
            Some(dblp::AFFILIATION),
            n_lp,
            ArtifactPayload::LinkPredictor { topk: lp },
        ),
        artifact(
            "sim/oracle",
            TaskKind::NodeSimilarity,
            dblp::PUBLICATION,
            None,
            n_sim,
            ArtifactPayload::NodeSimilarity { store: sim },
        ),
    ]
}

/// A manager serving `models` without training, registered in `data`;
/// `dict_bytes_cap: Some(0)` rules the Dictionary plan out.
fn manager_with(
    data: &mut RdfStore,
    models: &[ModelArtifact],
    dict_bytes_cap: Option<usize>,
) -> QueryManager {
    let mgr = QueryManager::new(ManagerConfig { dict_bytes_cap, ..Default::default() });
    for model in models {
        kgmeta::publish(mgr.trainer().model_store(), data, model.clone());
    }
    mgr
}

/// A copy of `data` in which every prediction of `models` is a real triple
/// (LP and similarity truncated to their `TopK-Links`).
fn oracle_store(data: &RdfStore, models: &[ModelArtifact]) -> RdfStore {
    let mut oracle = data.clone();
    let mut assert = |s: &str, p: &str, o: &str| {
        oracle.insert(Term::iri(s), Term::iri(p), Term::iri(o));
    };
    for model in models {
        match &model.payload {
            ArtifactPayload::NodeClassifier { predictions } => {
                for (s, class) in predictions.iter() {
                    assert(s, ORACLE_NC, class);
                }
            }
            ArtifactPayload::LinkPredictor { topk } => {
                for (s, ranked) in topk {
                    for (o, _) in ranked.iter().take(LP_K) {
                        assert(s, ORACLE_LP, o);
                    }
                }
            }
            ArtifactPayload::NodeSimilarity { store } => {
                for s in store.keys() {
                    for (o, _) in store.search_exact(store.get(s).unwrap(), SIM_K) {
                        assert(s, ORACLE_SIM, &o);
                    }
                }
            }
        }
    }
    oracle
}

/// How an ML answer is held against the oracle's.
#[derive(Clone, Copy)]
enum Check {
    /// The same row multiset.
    Multiset,
    /// The same rows in the same order (the ORDER BY keys are unique).
    Ordered,
    /// `LIMIT n` without ORDER BY: `min(n, |oracle|)` rows, each one of
    /// the oracle's un-limited rows.
    Limit(usize),
}

struct Shape {
    name: &'static str,
    select: String,
    /// The WHERE body; `%NC%`, `%LP%` and `%SIM%` mark inferred predicates.
    body: String,
    modifiers: String,
    check: Check,
}

fn shape(name: &'static str, select: &str, body: &str, modifiers: &str, check: Check) -> Shape {
    Shape { name, select: select.into(), body: body.into(), modifiers: modifiers.into(), check }
}

impl Shape {
    /// The ML SELECT and the plain SELECT over the oracle store that uses
    /// each oracle predicate in place of its inferred pattern.
    fn texts(&self) -> (String, String) {
        let (mut ml, mut plain) = (self.body.clone(), self.body.clone());
        for (marker, var, constraints, oracle) in [
            ("%NC%", "?NodeClassifier", CLASSIFIER, ORACLE_NC),
            ("%LP%", "?LinkPredictor", LINK_PREDICTOR, ORACLE_LP),
            ("%SIM%", "?NodeSimilarity", SIMILARITY, ORACLE_SIM),
        ] {
            if self.body.contains(marker) {
                ml = format!("{constraints} {}", ml.replace(marker, var));
                plain = plain.replace(marker, &format!("<{oracle}>"));
            }
        }
        let plain_modifiers = match self.check {
            Check::Limit(_) => "",
            Check::Multiset | Check::Ordered => &self.modifiers,
        };
        let text = |body: &str, modifiers: &str| {
            format!("{PREFIXES}SELECT {} WHERE {{ {body} }}{modifiers}", self.select)
        };
        (text(&ml, &self.modifiers), text(&plain, plain_modifiers))
    }
}

/// Every fixed shape: the four `ml-select` selectivities, the solution
/// modifiers, a ground subject, NC and LP together, similarity, and FILTER,
/// BOUND and COUNT over the inferred variable.
fn oracle_shapes(data: &RdfStore) -> Vec<Shape> {
    let author = kgnet_rdf::query(
        data,
        &format!("SELECT ?a WHERE {{ <{}> <{}> ?a }} LIMIT 1", dblp::paper(3), dblp::AUTHORED_BY),
    )
    .unwrap();
    let author = author.rows[0][0].clone().unwrap();
    let all = "?paper a dblp:Publication . ?paper dblp:title ?title . ?paper %NC% ?venue .";
    let by_venue = format!(
        "?paper a dblp:Publication . ?paper dblp:title ?title . ?paper dblp:publishedIn ?v . \
         ?paper %NC% ?venue . FILTER(?v = <{}>)",
        dblp::venue(1)
    );
    let by_author = format!(
        "?paper a dblp:Publication . ?paper dblp:title ?title . \
         ?paper dblp:authoredBy {author} . ?paper %NC% ?venue ."
    );
    let with_year = format!("{all} ?paper dblp:yearOfPublication ?year .");
    let ground = format!("<{0}> dblp:title ?title . <{0}> %NC% ?venue .", dblp::paper(1));
    let nc_lp = "?paper a dblp:Publication . ?paper dblp:authoredBy ?author . \
                 ?paper %NC% ?venue . ?author %LP% ?aff .";
    let similar = "?paper a dblp:Publication . ?paper %SIM% ?other .";
    let venue_known = "?paper a dblp:Publication . ?paper dblp:publishedIn ?venue . \
                       ?paper %NC% ?venue .";
    let on_venue = |filter: &str| format!("{all} FILTER({filter})");
    let ptv = "?paper ?title ?venue";
    use Check::*;
    vec![
        shape("all papers", ptv, all, "", Multiset),
        shape("one venue's papers", ptv, &by_venue, "", Multiset),
        shape("one author's papers", ptv, &by_author, "", Multiset),
        shape("LIMIT 10", ptv, all, " LIMIT 10", Limit(10)),
        shape("DISTINCT", "DISTINCT ?venue", all, "", Multiset),
        shape(
            "ORDER BY OFFSET LIMIT",
            "?title ?venue",
            all,
            " ORDER BY ?title OFFSET 5 LIMIT 10",
            Ordered,
        ),
        shape("ORDER BY inferred", "?paper ?venue", all, " ORDER BY DESC(?venue) ?paper", Ordered),
        shape(
            "unprojected key",
            "?title ?venue",
            &with_year,
            " ORDER BY DESC(?year) ?paper",
            Ordered,
        ),
        shape("ground subject", "?title ?venue", &ground, "", Multiset),
        shape("NC and LP", "?paper ?venue ?author ?aff", nc_lp, "", Multiset),
        shape("similarity", "?paper ?other", similar, "", Multiset),
        shape("inferred object bound by data", "?paper ?venue", venue_known, "", Multiset),
        shape(
            "FILTER inferred",
            ptv,
            &on_venue(&format!("?venue = <{}>", dblp::venue(1))),
            "",
            Multiset,
        ),
        shape(
            "FILTER absent term",
            ptv,
            &on_venue(&format!("?venue = <{ABSENT_VENUE}>")),
            "",
            Multiset,
        ),
        shape("BOUND inferred", ptv, &on_venue("BOUND(?venue)"), "", Multiset),
        shape("COUNT inferred", "(COUNT(?venue) AS ?n)", all, "", Multiset),
        shape("COUNT DISTINCT inferred", "(COUNT(DISTINCT ?venue) AS ?n)", all, "", Multiset),
    ]
}

/// Where `got` differs from the oracle's answer under `check`, why.
fn mismatch(got: &QueryResult, want: &QueryResult, check: Check) -> Option<String> {
    if got.vars != want.vars {
        return Some(format!("columns {:?} != {:?}", got.vars, want.vars));
    }
    match check {
        Check::Multiset if sorted(got) != sorted(want) => {
            Some(format!("{} rows, oracle has {}", got.len(), want.len()))
        }
        Check::Ordered if got.rows != want.rows => Some("rows or their order differ".into()),
        Check::Limit(n) => {
            let pool: HashSet<_> = want.rows.iter().collect();
            (got.len() != n.min(want.len()) || !got.rows.iter().all(|row| pool.contains(row)))
                .then(|| format!("{} rows not drawn from the oracle's {}", got.len(), want.len()))
        }
        _ => None,
    }
}

#[test]
fn ml_selects_equal_plain_selects_over_materialised_predictions() {
    let cfg = DblpConfig::tiny(41);
    let (mut data, _) = generate_dblp(&cfg);
    let models = oracle_models(&cfg);
    let oracle = oracle_store(&data, &models);
    assert!(
        data.lookup(&Term::iri(ABSENT_VENUE)).is_none(),
        "the absent venue must be unknown to the data store"
    );
    let managers = [
        ("default", manager_with(&mut data, &models, None)),
        ("per-binding", manager_with(&mut data, &models, Some(0))),
    ];

    let mut failures = Vec::new();
    for shape in oracle_shapes(&data) {
        let (ml_text, plain_text) = shape.texts();
        let want = kgnet_rdf::query(&oracle, &plain_text).unwrap();
        assert!(!want.is_empty(), "vacuous shape {}: {plain_text}", shape.name);
        for (plan, mgr) in &managers {
            let why = match mgr.query(&data, &ml_text) {
                Ok(MlOutcome::Rows(got)) => mismatch(&got, &want, shape.check),
                other => Some(format!("{other:?}")),
            };
            if let Some(why) = why {
                failures.push(format!("{} ({plan}): {why}", shape.name));
            }
        }
    }
    assert!(failures.is_empty(), "shapes that differ from the oracle:\n{}", failures.join("\n"));
}

#[test]
fn an_inference_failure_aborts_the_query() {
    let cfg = DblpConfig::tiny(41);
    let (mut data, _) = generate_dblp(&cfg);
    let models = oracle_models(&cfg);
    for dict_bytes_cap in [None, Some(0)] {
        // KGMeta still lists the NC model, but the service no longer has it.
        let mgr = manager_with(&mut data, &models, dict_bytes_cap);
        mgr.trainer().model_store().remove(&models[0].uri);
        let text = format!(
            "{PREFIXES}SELECT ?paper ?venue WHERE {{ {CLASSIFIER} \
             ?paper a dblp:Publication . ?paper ?NodeClassifier ?venue . }}"
        );
        let err = mgr.query(&data, &text).unwrap_err();
        assert!(err.to_string().contains("model not found"), "{err}");
    }
}

#[test]
fn explain_names_the_call_each_task_kind_makes() {
    let cfg = DblpConfig::tiny(41);
    let (mut data, _) = generate_dblp(&cfg);
    let mgr = manager_with(&mut data, &oracle_models(&cfg), None);
    let explain = |body: &str, constraints: &str| {
        let text = format!("{PREFIXES}SELECT * WHERE {{ {constraints} {body} }}");
        mgr.explain(&data, &text).unwrap()
    };

    let sim = explain("?paper a dblp:Publication . ?paper ?NodeSimilarity ?other .", SIMILARITY);
    assert_eq!(sim.steps[0].plan, RewritePlan::PerBinding, "{}", sim.sparql);
    assert!(sim.sparql.contains("getSimilarNodes"), "{}", sim.sparql);
    assert!(!sim.sparql.contains("getNodeClass"), "{}", sim.sparql);

    let lp = explain("?author a dblp:Person . ?author ?LinkPredictor ?aff .", LINK_PREDICTOR);
    assert_eq!(lp.steps[0].plan, RewritePlan::Dictionary, "{}", lp.sparql);
    assert!(lp.sparql.contains("getAllTopkLinks"), "{}", lp.sparql);
    assert!(!lp.sparql.contains("getNodeClass"), "{}", lp.sparql);
}

#[test]
fn limit_stops_calling_the_model() {
    let cfg = DblpConfig::tiny(41);
    let (mut data, _) = generate_dblp(&cfg);
    // An NC model with a prediction for every paper, so every pulled row
    // survives inference.
    let full_nc = artifact(
        "nc/full",
        TaskKind::NodeClassifier,
        dblp::PUBLICATION,
        None,
        cfg.n_papers,
        ArtifactPayload::NodeClassifier { predictions: Arc::new(nc_predictions(&cfg, 1)) },
    );
    let mut models = oracle_models(&cfg);
    models[0] = full_nc;
    let mgr = manager_with(&mut data, &models, Some(0));
    let calls = |text: &str| {
        let before = mgr.service().stats().calls;
        let Ok(MlOutcome::Rows(rows)) = mgr.query(&data, text) else { panic!("{text}") };
        (rows.len(), mgr.service().stats().calls - before)
    };

    let nc = format!(
        "{PREFIXES}SELECT ?paper ?venue WHERE {{ {CLASSIFIER} \
         ?paper a dblp:Publication . ?paper ?NodeClassifier ?venue . }} LIMIT 10"
    );
    let (rows, made) = calls(&nc);
    assert_eq!(rows, 10);
    assert!(made <= 10, "per-binding NC under LIMIT 10 made {made} calls");

    let sim = format!(
        "{PREFIXES}SELECT ?paper ?other WHERE {{ {SIMILARITY} \
         ?paper a dblp:Publication . ?paper ?NodeSimilarity ?other . }} LIMIT 5"
    );
    let (rows, made) = calls(&sim);
    assert_eq!(rows, 5);
    assert!(made <= 5, "similarity under LIMIT 5 made {made} calls");
}
