//! Cross-crate integration: one SPARQL-ML query with *two* user-defined
//! predicates (a node classifier and a link predictor), the workload shape
//! §III.C says a SPARQL-ML benchmark must cover. The optimizer selects one
//! model per predicate and the executor joins both inferences.

use kgnet::datagen::{generate_dblp, DblpConfig};
use kgnet::server::{KgServer, ServerConfig};
use kgnet::sparqlml::ManagerConfig;
use kgnet::GnnConfig;

fn trained_server() -> KgServer {
    let (kg, _) = generate_dblp(&DblpConfig::tiny(301));
    let manager = ManagerConfig { default_cfg: GnnConfig::fast_test(), ..Default::default() };
    let server = KgServer::new(kg, ServerConfig { manager, ..Default::default() });
    let mut writer = server.write_session();
    writer
        .execute(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
                 {Name: 'pv', GML-Task:{ TaskType: kgnet:NodeClassifier,
                    TargetNode: dblp:Publication, NodeLabel: dblp:publishedIn},
                  Method: 'GCN'})}"#,
        )
        .expect("NC training");
    writer
        .execute(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
                 {Name: 'aff', GML-Task:{ TaskType: kgnet:LinkPredictor,
                    SourceNode: dblp:Person, DestinationNode: dblp:Affiliation,
                    TargetEdge: dblp:affiliatedWith},
                  Method: 'MorsE', Sampler: 'd2h1', Hyperparams: {Epochs: 8}})}"#,
        )
        .expect("LP training");
    writer.commit();
    server
}

const TWO_PRED: &str = r#"
    PREFIX dblp: <https://www.dblp.org/>
    PREFIX kgnet: <https://www.kgnet.com/>
    SELECT ?paper ?venue ?author ?affiliation WHERE {
      ?paper a dblp:Publication .
      ?paper dblp:authoredBy ?author .
      ?paper ?NC ?venue .
      ?NC a kgnet:NodeClassifier .
      ?NC kgnet:TargetNode dblp:Publication .
      ?NC kgnet:NodeLabel dblp:publishedIn .
      ?author ?LP ?affiliation .
      ?LP a kgnet:LinkPredictor .
      ?LP kgnet:SourceNode dblp:Person .
      ?LP kgnet:DestinationNode dblp:Affiliation .
      ?LP kgnet:TopK-Links 2 . }"#;

#[test]
fn two_predicates_in_one_query() {
    let server = trained_server();
    server.manager().read().service().reset_stats();

    // The base data join: papers x their authors.
    let mut session = server.read_session();
    let base = session
        .query(
            "PREFIX dblp: <https://www.dblp.org/>
             SELECT ?paper ?author WHERE { ?paper a dblp:Publication . ?paper dblp:authoredBy ?author }",
        )
        .unwrap();

    let rows = session.query(TWO_PRED).unwrap();
    // Every (paper, author) pair expands into top-2 affiliations, with one
    // venue per paper.
    assert_eq!(rows.len(), base.len() * 2, "top-2 expansion of the base join");
    assert_eq!(rows.vars, vec!["paper", "venue", "author", "affiliation"]);
    for row in &rows.rows {
        assert!(row[1].as_ref().unwrap().as_iri().unwrap().contains("venue/"));
        assert!(row[3].as_ref().unwrap().as_iri().unwrap().contains("org/aff"));
    }
    // Both predicates served by dictionary-style plans: exactly 2 calls.
    assert_eq!(server.manager().read().service().stats().calls, 2);
}

#[test]
fn explain_reports_both_steps() {
    let server = trained_server();
    let session = server.read_session();
    let rewritten = server.manager().read().explain(session.snapshot(), TWO_PRED).unwrap();
    assert_eq!(rewritten.steps.len(), 2);
    let vars: Vec<&str> = rewritten.steps.iter().map(|s| s.ud.var.as_str()).collect();
    assert!(vars.contains(&"NC") && vars.contains(&"LP"));
}

#[test]
fn inference_time_bound_can_make_selection_infeasible() {
    let (kg, _) = generate_dblp(&DblpConfig::tiny(303));
    let manager = ManagerConfig {
        default_cfg: GnnConfig::fast_test(),
        // Impossible bound: no model can answer in 0 ms.
        max_inference_ms: Some(0.0),
        ..Default::default()
    };
    let server = KgServer::new(kg, ServerConfig { manager, ..Default::default() });
    let mut writer = server.write_session();
    writer
        .execute(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
                 {Name: 'pv', GML-Task:{ TaskType: kgnet:NodeClassifier,
                    TargetNode: dblp:Publication, NodeLabel: dblp:publishedIn},
                  Method: 'GCN'})}"#,
        )
        .expect("training");
    writer.commit();
    let err = server.read_session().query(
        r#"PREFIX dblp: <https://www.dblp.org/>
           PREFIX kgnet: <https://www.kgnet.com/>
           SELECT ?p ?v WHERE {
             ?p a dblp:Publication . ?p ?NC ?v .
             ?NC a kgnet:NodeClassifier .
             ?NC kgnet:TargetNode dblp:Publication .
             ?NC kgnet:NodeLabel dblp:publishedIn . }"#,
    );
    assert!(err.is_err(), "0ms inference bound must be infeasible");
}
