//! Plan equivalence for node-classification SELECTs: the Fig. 12
//! Dictionary plan and the Fig. 11 per-binding plan answer every query
//! shape with the same rows.
//!
//! One model is trained, and its artifact is registered unchanged in a
//! second manager whose zero dictionary-byte cap rules the Dictionary plan
//! out, so the only difference between the two runs is the plan.

use std::collections::HashSet;

use kgnet_datagen::vocab::dblp;
use kgnet_datagen::{generate_dblp, DblpConfig};
use kgnet_gml::config::GnnConfig;
use kgnet_rdf::{QueryResult, RdfStore, Term};
use kgnet_sparqlml::{ManagerConfig, MlOutcome, QueryManager, RewritePlan};

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
    let mut dictionary = QueryManager::new(cfg.clone());
    let Ok(MlOutcome::Trained(summary)) =
        dictionary.execute(&mut data, &format!("{PREFIXES}{TRAIN}"))
    else {
        panic!("training failed")
    };
    let artifact = dictionary.trainer().model_store().get(&summary.model_uri).unwrap();
    let mut per_binding = QueryManager::new(ManagerConfig { dict_bytes_cap: Some(0), ..cfg });
    let registered = per_binding.trainer().model_store().insert((*artifact).clone());
    per_binding.register_artifact(&registered);

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
