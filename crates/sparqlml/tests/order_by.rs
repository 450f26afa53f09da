//! ORDER BY on the SPARQL-ML path sorts by the plain evaluator's
//! `OrderKey`s: a sort column mixing numbers, text and NaN returns every
//! row in the documented order instead of panicking the query thread
//! (Rust's `sort_by` rejects a comparator that is not a total order).

use kgnet_datagen::vocab::dblp;
use kgnet_datagen::{generate_dblp, DblpConfig};
use kgnet_gml::config::GnnConfig;
use kgnet_rdf::sparql::cmp_terms;
use kgnet_rdf::Term;
use kgnet_sparqlml::{ManagerConfig, MlOutcome, QueryManager};

const PREFIXES: &str =
    "PREFIX dblp: <https://www.dblp.org/>\nPREFIX kgnet: <https://www.kgnet.com/>\n";

const TRAIN: &str = r#"INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
    {Name: 'paper-venue',
     GML-Task:{ TaskType: kgnet:NodeClassifier,
                TargetNode: dblp:Publication,
                NodeLabel: dblp:publishedIn},
     Method: 'GraphSAINT'})}"#;

#[test]
fn ml_order_by_over_mixed_numbers_and_text_returns_every_row() {
    let cfg = DblpConfig::tiny(41);
    let (mut data, _) = generate_dblp(&cfg);
    let mgr = QueryManager::new(ManagerConfig {
        default_cfg: GnnConfig::fast_test(),
        ..Default::default()
    });
    let trained = mgr.update(&mut data, &format!("{PREFIXES}{TRAIN}"));
    assert!(matches!(trained, Ok(MlOutcome::Trained(_))), "training failed: {trained:?}");

    // ~5 000 sort keys spread over the papers, mixing integers, doubles,
    // plain strings and "NaN".
    let n = 5_000;
    for i in 0..n {
        let key = match i % 4 {
            0 => Term::int(i as i64),
            1 => Term::double(i as f64 / 7.0),
            2 => Term::str(format!("{i}x")),
            _ => Term::str("NaN"),
        };
        data.insert(Term::iri(dblp::paper(i % cfg.n_papers)), Term::iri("http://x/key"), key);
    }

    let base = format!(
        "{PREFIXES}SELECT ?paper ?k ?venue WHERE {{ ?paper a dblp:Publication . \
         ?paper <http://x/key> ?k . ?paper ?NodeClassifier ?venue . \
         ?NodeClassifier a kgnet:NodeClassifier . \
         ?NodeClassifier kgnet:TargetNode dblp:Publication . \
         ?NodeClassifier kgnet:NodeLabel dblp:publishedIn . }}"
    );
    let rows = |text: &str| match mgr.query(&data, text) {
        Ok(MlOutcome::Rows(rows)) => rows.rows,
        other => panic!("{text}\n=> {other:?}"),
    };
    let mut unordered = rows(&base);
    assert!(unordered.len() > 3_000, "too few predicted rows: {}", unordered.len());
    unordered.sort();
    for dir in ["ASC", "DESC"] {
        let ordered = rows(&format!("{base} ORDER BY {dir}(?k)"));
        for pair in ordered.windows(2) {
            let c = cmp_terms(pair[0][1].as_ref(), pair[1][1].as_ref());
            assert!(if dir == "ASC" { c.is_le() } else { c.is_ge() }, "{dir}: {pair:?}");
        }
        let mut every = ordered;
        every.sort();
        assert_eq!(every, unordered, "{dir}: ORDER BY must return every row");
    }
}
