//! A tour of the SPARQL-ML language: plain SPARQL, TrainGML INSERT, the
//! optimizer's EXPLAIN (Fig. 11 vs Fig. 12 candidate rewrites), KGMeta
//! introspection with plain SPARQL, and model DELETE (Fig. 9) — each
//! through the `KgServer` handle a deployment serves.
//!
//! Run with: `cargo run --release --example sparqlml_tour`

use kgnet::datagen::{generate_dblp, DblpConfig};
use kgnet::server::{KgServer, ServerConfig};
use kgnet::sparqlml::{ManagerConfig, MlOutcome};
use kgnet::GnnConfig;

fn main() {
    let (kg, _) = generate_dblp(&DblpConfig::small(3));
    let manager = ManagerConfig {
        default_cfg: GnnConfig { epochs: 15, ..GnnConfig::default() },
        ..Default::default()
    };
    let server = KgServer::new(kg, ServerConfig { manager, ..Default::default() });

    // --- 1. Plain SPARQL works untouched.
    let rows = server
        .read_session()
        .query(
            "PREFIX dblp: <https://www.dblp.org/>
             SELECT (COUNT(*) AS ?papers) WHERE { ?p a dblp:Publication }",
        )
        .unwrap();
    println!("1. Plain SPARQL:\n{}", rows.to_table());

    // --- 2. Train a model (Fig. 8).
    let mut writer = server.write_session();
    let out = writer
        .execute(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
                 {Name: 'tour-model',
                  GML-Task:{ TaskType: kgnet:NodeClassifier,
                             TargetNode: dblp:Publication,
                             NodeLabel: dblp:publishedIn },
                  Task Budget:{ MaxMemory:2GB, MaxTime:10m, Priority:ModelScore }})}"#,
        )
        .unwrap();
    writer.commit();
    if let MlOutcome::Trained(m) = out {
        println!(
            "2. Trained: {} via {} (accuracy {:.1}%)\n",
            m.model_uri,
            m.method,
            m.accuracy * 100.0
        );
    }

    // --- 3. KGMeta is triples in the served graph: inspect it with SPARQL
    // (Fig. 7), at the session's snapshot like any data.
    let mut session = server.read_session();
    let meta = session
        .query(
            "PREFIX kgnet: <https://www.kgnet.com/>
             SELECT ?model ?acc ?time ?card WHERE {
               ?model a kgnet:NodeClassifier .
               ?model kgnet:ModelAccuracy ?acc .
               ?model kgnet:InferenceTime ?time .
               ?model kgnet:ModelCardinality ?card . }",
        )
        .unwrap();
    println!("3. KGMeta contents:\n{}", meta.to_table());

    // --- 4. EXPLAIN: the optimizer's candidate rewrite (Fig. 11/12).
    const QUERY: &str = r#"
        PREFIX dblp: <https://www.dblp.org/>
        PREFIX kgnet: <https://www.kgnet.com/>
        SELECT ?title ?venue WHERE {
          ?paper a dblp:Publication .
          ?paper dblp:title ?title .
          ?paper ?NodeClassifier ?venue .
          ?NodeClassifier a kgnet:NodeClassifier .
          ?NodeClassifier kgnet:TargetNode dblp:Publication .
          ?NodeClassifier kgnet:NodeLabel dblp:publishedIn . }"#;
    let rewritten = server.manager().read().explain(session.snapshot(), QUERY).unwrap();
    println!(
        "4. Chosen plan: {:?}; candidate SPARQL:\n{}\n",
        rewritten.steps[0].plan, rewritten.sparql
    );

    // --- 5. Execute the ML SELECT.
    let rows = session.query(QUERY).unwrap();
    println!(
        "5. {} rows inferred with {} service call(s)\n",
        rows.len(),
        server.manager().read().service().stats().calls
    );

    // --- 6. DELETE the model (Fig. 9).
    let mut writer = server.write_session();
    let out = writer
        .execute(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               DELETE { ?m ?p ?o } WHERE {
                 ?m a kgnet:NodeClassifier .
                 ?m kgnet:TargetNode dblp:Publication .
                 ?m kgnet:NodeLabel dblp:publishedIn . }"#,
        )
        .unwrap();
    writer.commit();
    if let MlOutcome::DeletedModels(uris) = out {
        let listed = server
            .read_session()
            .query(
                "PREFIX kgnet: <https://www.kgnet.com/>
                 SELECT ?m WHERE { ?m a kgnet:NodeClassifier }",
            )
            .unwrap();
        println!(
            "6. Deleted {} model(s); KGMeta now lists {} node classifier(s)",
            uris.len(),
            listed.len()
        );
    }
}
