//! The ES (entity-similarity) task of Table I: train entity embeddings,
//! keep them in the FAISS-style embedding store, and ask for the nearest
//! papers of a probe — both through the public API and through SPARQL-ML
//! on a `KgServer`.
//!
//! Run with: `cargo run --release --example entity_similarity`

use kgnet::datagen::{generate_dblp, DblpConfig};
use kgnet::gmlaas::{EmbeddingStore, Metric};
use kgnet::server::{KgServer, ServerConfig};
use kgnet::sparqlml::ManagerConfig;
use kgnet::GnnConfig;

fn main() {
    // Direct embedding-store usage: an exact top-k search.
    let mut store = EmbeddingStore::new(8, Metric::Cosine);
    for i in 0..500 {
        let angle = i as f32 * 0.1;
        store
            .add(
                format!("e{i}"),
                vec![angle.cos(), angle.sin(), (i % 7) as f32, 1.0, 0.0, 0.5, -0.5, (i % 3) as f32],
            )
            .expect("widths match");
    }
    let probe = store.get("e100").unwrap().to_vec();
    println!("Nearest to e100: {:?}\n", store.search(&probe, 4));

    // Through the platform: a NodeSimilarity model over papers.
    let (kg, _) = generate_dblp(&DblpConfig::small(11));
    let manager = ManagerConfig {
        default_cfg: GnnConfig { epochs: 25, ..GnnConfig::default() },
        ..Default::default()
    };
    let server = KgServer::new(kg, ServerConfig { manager, ..Default::default() });
    let mut writer = server.write_session();
    writer
        .execute(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
                 {Name: 'Paper_Similarity',
                  GML-Task:{ TaskType: kgnet:NodeSimilarity,
                             TargetNode: dblp:Publication }})}"#,
        )
        .expect("training failed");
    writer.commit();

    let rows = server
        .read_session()
        .query(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               SELECT ?similar WHERE {
                 <https://www.dblp.org/rec/paper0> ?Sim ?similar .
                 ?Sim a kgnet:NodeSimilarity .
                 ?Sim kgnet:TargetNode dblp:Publication .
                 ?Sim kgnet:TopK-Links 5 . }"#,
        )
        .expect("query failed");
    println!("Papers most similar to paper0 (TransE embedding space):\n{}", rows.to_table());
}
