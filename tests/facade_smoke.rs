//! Facade smoke test: every layer re-export resolves through the `kgnet`
//! root crate, and a `KgServer` round-trips a tiny DBLP graph.

use kgnet::datagen::{generate_dblp, DblpConfig};
use kgnet::gml::config::GmlMethodKind;
use kgnet::graph::{kg_stats, NcTask};
use kgnet::rdf::{query, RdfStore, Term};
use kgnet::server::{KgServer, ServerConfig};
use kgnet::sparqlml::ManagerConfig;
use kgnet::GnnConfig;

#[test]
fn layer_reexports_resolve() {
    // kgnet::rdf
    let mut store = RdfStore::new();
    store.insert(Term::iri("http://x/s"), Term::iri("http://x/p"), Term::iri("http://x/o"));
    assert_eq!(store.len(), 1);
    let rows = query(&store, "SELECT ?s WHERE { ?s <http://x/p> ?o }").unwrap();
    assert_eq!(rows.len(), 1);

    // kgnet::graph
    let task = NcTask {
        target_type: "https://www.dblp.org/Publication".into(),
        label_predicate: "https://www.dblp.org/publishedIn".into(),
    };
    assert_eq!(task.target_type, "https://www.dblp.org/Publication");

    // kgnet::gml
    assert_ne!(GmlMethodKind::Gcn, GmlMethodKind::TransE);

    // kgnet::linalg
    let m = kgnet::linalg::Matrix::zeros(2, 3);
    assert_eq!(m.shape(), (2, 3));

    // kgnet::gmlaas
    let store = kgnet::gmlaas::EmbeddingStore::new(4, kgnet::gmlaas::Metric::Cosine);
    assert_eq!(store.len(), 0);
}

#[test]
fn facade_round_trips_tiny_dblp_graph() {
    // kgnet::datagen
    let (kg, _truth) = generate_dblp(&DblpConfig::tiny(13));
    let n_triples = kg.len();
    assert!(n_triples > 0, "generator must emit triples");

    let manager = ManagerConfig { default_cfg: GnnConfig::fast_test(), ..Default::default() };
    let server = KgServer::new(kg, ServerConfig { manager, ..Default::default() });
    let mut session = server.read_session();

    // The loaded graph is exactly what the generator produced.
    assert_eq!(session.snapshot().len(), n_triples);
    let stats = kg_stats(session.snapshot());
    assert_eq!(stats.n_triples, n_triples);

    // And it is queryable end to end through the server.
    let rows = session
        .query(
            "PREFIX dblp: <https://www.dblp.org/> \
             SELECT (COUNT(*) AS ?n) WHERE { ?p a dblp:Publication }",
        )
        .unwrap();
    let n = rows.rows[0][0].as_ref().unwrap().as_int().unwrap();
    assert!(n > 0, "tiny DBLP graph must contain publications");
}
