//! Quickstart: load a knowledge graph, train a node classifier through a
//! SPARQL-ML INSERT, then query the KG *and* the model with a SPARQL-ML
//! SELECT — the end-to-end loop of the paper's Figs. 2 and 8 — through
//! `KgServer`, the platform handle `HttpServer` serves: training runs in a
//! write session, queries in read sessions pinned to a snapshot.
//!
//! Run with: `cargo run --release --example quickstart`

use kgnet::datagen::{generate_dblp, DblpConfig};
use kgnet::graph::kg_stats;
use kgnet::server::{KgServer, ServerConfig};
use kgnet::sparqlml::{ManagerConfig, MlOutcome};
use kgnet::GnnConfig;

fn main() {
    // 1. A DBLP-shaped knowledge graph (synthetic stand-in for dblp.org).
    let (kg, _truth) = generate_dblp(&DblpConfig::small(7));
    let manager = ManagerConfig {
        default_cfg: GnnConfig { epochs: 25, ..GnnConfig::default() },
        ..Default::default()
    };
    let server = KgServer::new(kg, ServerConfig { manager, ..Default::default() });
    let stats = kg_stats(server.read_session().snapshot());
    println!(
        "Loaded KG: {} triples, {} node types, {} edge types",
        stats.n_triples, stats.n_node_types, stats.n_edge_types
    );

    // 2. Train a paper -> venue classifier (Fig. 8's TrainGML INSERT).
    //    KGNet meta-samples the task-specific subgraph (d1h1), picks a
    //    method within the budget, trains, and registers KGMeta metadata.
    let mut writer = server.write_session();
    let out = writer
        .execute(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               INSERT INTO <kgnet> { ?s ?p ?o }
               WHERE { SELECT * FROM kgnet.TrainGML(
                 {Name: 'DBLP_Paper-Venue_Classifier',
                  GML-Task:   { TaskType: kgnet:NodeClassifier,
                                TargetNode: dblp:Publication,
                                NodeLabel: dblp:publishedIn },
                  Task Budget:{ MaxMemory:50GB, MaxTime:1h, Priority:ModelScore }})}"#,
        )
        .expect("training failed");
    writer.commit();
    let MlOutcome::Trained(model) = out else { panic!("expected a trained model") };
    println!(
        "\nTrained {} on KG' ({} triples, sampler {}): accuracy {:.1}%, {:.2}s, peak {} bytes",
        model.method,
        model.kg_prime_triples,
        model.sampler,
        model.accuracy * 100.0,
        model.train_time_s,
        model.peak_mem_bytes
    );
    println!("Model URI: {}", model.model_uri);

    // 3. Query with a user-defined predicate (the paper's Fig. 2 query).
    let rows = server
        .read_session()
        .query(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               SELECT ?title ?venue
               WHERE {
                 ?paper a dblp:Publication .
                 ?paper dblp:title ?title .
                 ?paper ?NodeClassifier ?venue .
                 ?NodeClassifier a kgnet:NodeClassifier .
                 ?NodeClassifier kgnet:TargetNode dblp:Publication .
                 ?NodeClassifier kgnet:NodeLabel dblp:publishedIn .
               } ORDER BY ?title LIMIT 8"#,
        )
        .expect("query failed");
    println!("\nPredicted venues (8 of many):\n{}", rows.to_table());
    println!(
        "Inference used {} HTTP-style service call(s) — the optimizer chose",
        server.manager().read().service().stats().calls
    );
    println!("the Fig. 12 dictionary plan instead of one call per paper.");
}
