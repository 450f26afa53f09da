//! Cross-crate integration: the full KGNet lifecycle through `KgServer` —
//! generate KG, train via SPARQL-ML, inspect KGMeta, query with user-defined
//! predicates, re-train a second model, verify optimizer selection, delete.

use kgnet::datagen::{generate_dblp, DblpConfig};
use kgnet::graph::kg_stats;
use kgnet::server::{KgServer, ServerConfig};
use kgnet::sparqlml::{ManagerConfig, MlError, MlOutcome, TrainedSummary};
use kgnet::GnnConfig;

fn platform(seed: u64) -> KgServer {
    let (kg, _) = generate_dblp(&DblpConfig::tiny(seed));
    let manager = ManagerConfig { default_cfg: GnnConfig::fast_test(), ..Default::default() };
    KgServer::new(kg, ServerConfig { manager, ..Default::default() })
}

/// Run one write operation (TrainGML, model DELETE) and commit it.
fn execute(server: &KgServer, text: &str) -> Result<MlOutcome, MlError> {
    let mut writer = server.write_session();
    let out = writer.execute(text)?;
    writer.commit();
    Ok(out)
}

fn train(platform: &KgServer, name: &str, method: &str) -> TrainedSummary {
    let q = format!(
        r#"PREFIX dblp: <https://www.dblp.org/>
           PREFIX kgnet: <https://www.kgnet.com/>
           INSERT INTO <kgnet> {{ ?s ?p ?o }} WHERE {{ SELECT * FROM kgnet.TrainGML(
             {{Name: '{name}',
              GML-Task:{{ TaskType: kgnet:NodeClassifier,
                         TargetNode: dblp:Publication,
                         NodeLabel: dblp:publishedIn}},
              Method: '{method}'}})}}"#
    );
    match execute(platform, &q).expect("training") {
        MlOutcome::Trained(s) => s,
        other => panic!("unexpected {other:?}"),
    }
}

const PV: &str = r#"
    PREFIX dblp: <https://www.dblp.org/>
    PREFIX kgnet: <https://www.kgnet.com/>
    SELECT ?paper ?venue WHERE {
      ?paper a dblp:Publication .
      ?paper ?NC ?venue .
      ?NC a kgnet:NodeClassifier .
      ?NC kgnet:TargetNode dblp:Publication .
      ?NC kgnet:NodeLabel dblp:publishedIn . }"#;

#[test]
fn two_models_and_optimizer_picks_more_accurate() {
    let p = platform(71);
    let m1 = train(&p, "first", "GCN");
    let m2 = train(&p, "second", "GraphSAINT");
    // KGMeta holds both.
    let mut session = p.read_session();
    let meta = session
        .query(
            "PREFIX kgnet: <https://www.kgnet.com/>
             SELECT (COUNT(?m) AS ?n) WHERE { ?m a kgnet:NodeClassifier }",
        )
        .unwrap();
    assert_eq!(meta.rows[0][0].as_ref().unwrap().as_int(), Some(2));

    // The rewriter must choose the more accurate model.
    let expected = if m1.accuracy >= m2.accuracy { &m1.model_uri } else { &m2.model_uri };
    let rewritten = p.manager().read().explain(session.snapshot(), PV).unwrap();
    assert_eq!(&rewritten.steps[0].model_uri, expected);
}

#[test]
fn sampled_training_graph_is_smaller_and_query_works() {
    let p = platform(73);
    let summary = train(&p, "pv", "GraphSAINT");
    let mut session = p.read_session();
    assert!(summary.kg_prime_triples < kg_stats(session.snapshot()).n_triples);
    let rows = session.query(PV).unwrap();
    assert_eq!(rows.len(), 60);
    // Every prediction is one of the KG's venues.
    for row in &rows.rows {
        let venue = row[1].as_ref().unwrap().as_iri().unwrap().to_owned();
        let check = session
            .query(&format!(
                "SELECT (COUNT(*) AS ?n) WHERE {{ <{venue}> a <https://www.dblp.org/Venue> }}"
            ))
            .unwrap();
        assert_eq!(check.rows[0][0].as_ref().unwrap().as_int(), Some(1), "{venue} not a venue");
    }
}

#[test]
fn delete_then_retrain_works() {
    let p = platform(79);
    train(&p, "gen1", "GCN");
    let out = execute(
        &p,
        r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               DELETE { ?m ?p ?o } WHERE {
                 ?m a kgnet:NodeClassifier .
                 ?m kgnet:TargetNode dblp:Publication . }"#,
    )
    .unwrap();
    assert!(matches!(out, MlOutcome::DeletedModels(u) if u.len() == 1));
    // Retraining re-registers the task.
    train(&p, "gen2", "GCN");
    let rows = p.read_session().query(PV).unwrap();
    assert_eq!(rows.len(), 60);
}

#[test]
fn training_accuracy_is_well_above_chance() {
    let p = platform(83);
    // The tiny graph has only 60 papers; give the trainer enough epochs to
    // converge so the margin over chance is meaningful.
    let q = r#"PREFIX dblp: <https://www.dblp.org/>
        PREFIX kgnet: <https://www.kgnet.com/>
        INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
          {Name: 'acc',
           GML-Task:{ TaskType: kgnet:NodeClassifier,
                      TargetNode: dblp:Publication,
                      NodeLabel: dblp:publishedIn},
           Method: 'GraphSAINT',
           Hyperparams: {Epochs: 60}})}"#;
    let MlOutcome::Trained(s) = execute(&p, q).expect("training") else {
        panic!("expected trained model")
    };
    // 5 venues in the tiny config: chance = 20%.
    assert!(s.accuracy > 0.4, "accuracy {} too close to chance", s.accuracy);
}

#[test]
fn budget_violation_surfaces_as_error() {
    let p = platform(89);
    let err = execute(
        &p,
        r#"PREFIX dblp: <https://www.dblp.org/>
           PREFIX kgnet: <https://www.kgnet.com/>
           INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
             {Name: 'impossible',
              GML-Task:{ TaskType: kgnet:NodeClassifier,
                         TargetNode: dblp:Publication,
                         NodeLabel: dblp:publishedIn},
              Task Budget:{ MaxMemory:1KB }})}"#,
    );
    assert!(err.is_err(), "1KB budget should be infeasible");
}
