//! Link prediction through SPARQL-ML: train a MorsE author→affiliation
//! model (the paper's Fig. 15 task) and ask for top-k predicted links with
//! the Fig. 10 query, through `KgServer`'s write and read sessions.
//!
//! Run with: `cargo run --release --example author_affiliation`

use kgnet::datagen::{generate_dblp, DblpConfig};
use kgnet::server::{KgServer, ServerConfig};
use kgnet::sparqlml::{ManagerConfig, MlOutcome};
use kgnet::GnnConfig;

fn main() {
    let (kg, truth) = generate_dblp(&DblpConfig::small(33));
    let manager = ManagerConfig {
        default_cfg: GnnConfig { epochs: 40, ..GnnConfig::default() },
        ..Default::default()
    };
    let server = KgServer::new(kg, ServerConfig { manager, ..Default::default() });

    // Train with the d2h1 sampler the paper found best for link prediction.
    let mut writer = server.write_session();
    let out = writer
        .execute(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
                 {Name: 'Author_Affiliation_LP',
                  GML-Task:{ TaskType: kgnet:LinkPredictor,
                             SourceNode: dblp:Person,
                             DestinationNode: dblp:Affiliation,
                             TargetEdge: dblp:affiliatedWith },
                  Method: 'MorsE', Sampler: 'd2h1'})}"#,
        )
        .expect("training failed");
    writer.commit();
    let MlOutcome::Trained(model) = out else { panic!("expected trained model") };
    println!(
        "Trained {} (sampler {}): Hits@10 {:.1}% on held-out affiliation links\n",
        model.method,
        model.sampler,
        model.accuracy * 100.0
    );

    // Fig. 10: predict affiliation links for authors.
    let rows = server
        .read_session()
        .query(
            r#"PREFIX dblp: <https://www.dblp.org/>
               PREFIX kgnet: <https://www.kgnet.com/>
               SELECT ?author ?affiliation
               WHERE {
                 ?author a dblp:Person .
                 ?author ?LinkPredictor ?affiliation .
                 ?LinkPredictor a kgnet:LinkPredictor .
                 ?LinkPredictor kgnet:SourceNode dblp:Person .
                 ?LinkPredictor kgnet:DestinationNode dblp:Affiliation .
                 ?LinkPredictor kgnet:TopK-Links 3 .
               } LIMIT 9"#,
        )
        .expect("query failed");
    println!("Top-3 predicted affiliations per author (first 3 authors):\n{}", rows.to_table());

    // Sanity: compare the first author's top-1 against the generator truth.
    let author0_truth = truth.author_affiliation[0];
    println!("Ground truth for author0: affiliation aff{author0_truth}");
}
