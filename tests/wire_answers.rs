//! The `POST /sparql` body on the wire: a real frontend on a loopback port
//! answers the benchmark's scan shapes and the paper's Fig. 2 SPARQL-ML
//! SELECT, and every body, parsed back, is the in-process answer of
//! `ReadSession::query` on the same snapshot: the same variables, the same
//! rows in the same order, each cell its term's N-Triples rendering or
//! `null`.

use std::sync::Arc;

use kgnet::datagen::{generate_dblp, DblpConfig};
use kgnet::http::{client, HttpConfig, HttpServer};
use kgnet::obs::json::{self, Value};
use kgnet::rdf::QueryResult;
use kgnet::server::{KgServer, ServerConfig};
use kgnet::sparqlml::ManagerConfig;
use kgnet::GnnConfig;

const DBLP: &str = "PREFIX dblp: <https://www.dblp.org/> ";

/// The shapes of the benchmark's `plain-scan` texts: multi-pattern joins,
/// a FILTER, OPTIONAL under ORDER BY, and a sub-SELECT under an outer
/// LIMIT.
const SCANS: [&str; 8] = [
    "SELECT ?p ?a ?n WHERE { ?p a dblp:Publication . ?p dblp:authoredBy ?a . ?a dblp:name ?n }",
    "SELECT ?p ?c ?t WHERE { ?p dblp:yearOfPublication ?y . ?p dblp:cites ?c . \
     ?c dblp:title ?t FILTER(?y >= 2010) }",
    "SELECT ?p ?t ?v ?k WHERE { ?p dblp:publishedIn ?v . ?p dblp:title ?t . \
     ?p dblp:hasKeyword ?k . ?p dblp:yearOfPublication ?y }",
    "SELECT ?p ?y ?k WHERE { ?p a dblp:Publication . ?p dblp:yearOfPublication ?y . \
     OPTIONAL { ?p dblp:hasKeyword ?k } FILTER(?y >= 2005) } ORDER BY ?y ?p",
    "SELECT ?p ?v ?n WHERE { ?p dblp:publishedIn ?v . ?v dblp:name ?n . \
     ?p dblp:yearOfPublication ?y FILTER(?y < 2015) }",
    "SELECT ?p ?a ?f WHERE { ?p dblp:authoredBy ?a . ?a dblp:affiliatedWith ?f . \
     ?p dblp:yearOfPublication ?y FILTER(?y >= 2012) }",
    "SELECT ?p ?k ?t WHERE { ?p dblp:hasKeyword ?k . ?p dblp:title ?t . \
     ?p dblp:publishedIn ?v } ORDER BY ?k",
    "SELECT ?p ?t WHERE { ?p dblp:title ?t . \
     { SELECT ?p WHERE { ?p dblp:authoredBy ?a . ?a dblp:affiliatedWith ?f } } } LIMIT 20",
];

/// The paper's Fig. 2 query: each paper's venue, predicted by a node
/// classifier chosen from KGMeta.
const FIG2: &str = "PREFIX kgnet: <https://www.kgnet.com/> \
    SELECT ?paper ?title ?venue WHERE { ?paper a dblp:Publication . \
    ?paper dblp:title ?title . ?paper ?NodeClassifier ?venue . \
    ?NodeClassifier a kgnet:NodeClassifier . \
    ?NodeClassifier kgnet:TargetNode dblp:Publication . \
    ?NodeClassifier kgnet:NodeLabel dblp:publishedIn . }";

const TRAIN_NC: &str = "PREFIX kgnet: <https://www.kgnet.com/> \
    INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML( \
      {Name: 'wire-venue', GML-Task:{ TaskType: kgnet:NodeClassifier, \
       TargetNode: dblp:Publication, NodeLabel: dblp:publishedIn}, \
       Method: 'GraphSAINT'})}";

/// `result` as the wire should carry it: the column names, and each cell
/// as its term's N-Triples rendering (`None` for `null`).
fn expected_cells(result: &QueryResult) -> (Vec<String>, Vec<Vec<Option<String>>>) {
    let rows = result
        .rows
        .iter()
        .map(|row| row.iter().map(|t| t.as_ref().map(|t| t.to_string())).collect())
        .collect();
    (result.vars.clone(), rows)
}

/// A `POST /sparql` body parsed back into the same shape.
fn wire_cells(body: &str) -> (Vec<String>, Vec<Vec<Option<String>>>) {
    let value = json::parse(body, |_| None).unwrap_or_else(|e| panic!("{e}: {body:.200}"));
    let strings = |v: &Value| v.as_str().expect("a column name is a string").to_owned();
    let vars = value.get("vars").and_then(Value::as_array).expect("vars").iter().map(strings);
    let cell = |v: &Value| match v {
        Value::Null => None,
        Value::String(s) => Some(s.clone()),
        other => panic!("a cell is a string or null, not {other:?}"),
    };
    let rows = value.get("rows").and_then(Value::as_array).expect("rows");
    let rows = rows.iter().map(|r| r.as_array().expect("a row is an array").iter().map(cell));
    (vars.collect(), rows.map(Iterator::collect).collect())
}

#[test]
fn sparql_bodies_carry_the_in_process_answers() {
    let (kg, _) = generate_dblp(&DblpConfig::tiny(19));
    let config = ServerConfig {
        manager: ManagerConfig { default_cfg: GnnConfig::fast_test(), ..Default::default() },
        ..Default::default()
    };
    let server = Arc::new(KgServer::new(kg, config));
    let mut writer = server.write_session();
    writer.execute(&format!("{DBLP}{TRAIN_NC}")).expect("train the venue classifier");
    writer.commit();

    let http = HttpServer::start(Arc::clone(&server), HttpConfig::default()).expect("bind");
    let mut session = server.read_session();
    let generation = session.generation();
    let mut conn = client::Client::connect(http.addr()).expect("connect");
    let mut rows = 0;
    for (i, text) in SCANS.iter().chain([&FIG2]).enumerate() {
        let text = format!("{DBLP}{text}");
        let r = conn.post("/sparql", text.as_bytes()).expect("POST /sparql");
        assert_eq!(r.status, 200, "query {i}: {}", r.text());
        let expected = session.query(&text).unwrap_or_else(|e| panic!("query {i}: {e}"));
        let (vars, cells) = wire_cells(&r.text());
        let (expected_vars, expected_rows) = expected_cells(&expected);
        assert_eq!(vars, expected_vars, "query {i}: columns");
        assert_eq!(cells.len(), expected_rows.len(), "query {i}: row count");
        for (j, (got, want)) in cells.iter().zip(&expected_rows).enumerate() {
            assert_eq!(got, want, "query {i}, row {j}");
        }
        if i == SCANS.len() {
            assert!(!cells.is_empty(), "the Fig. 2 query predicts a venue per paper");
            assert!(cells.iter().all(|row| row[2].is_some()), "every paper gets a venue");
        }
        rows += cells.len();
    }
    assert!(rows > 0, "the scans answered nothing on the tiny KG");
    assert_eq!(server.store().generation(), generation, "every answer came from one snapshot");
    http.shutdown();
}
