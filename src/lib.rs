//! # KGNet — a GML-enabled knowledge graph platform
//!
//! A from-scratch Rust reproduction of *"Towards a GML-Enabled Knowledge
//! Graph Platform"* (Abdallah & Mansour, ICDE 2023): an RDF engine with a
//! SPARQL subset, the SPARQL-ML language (user-defined predicates backed by
//! trained graph-ML models), GML-as-a-service with budget-constrained
//! automatic method selection, task-specific meta-sampling, the KGMeta
//! metadata graph, and tests checking the paper's evaluation claims on
//! schema-faithful synthetic KGs.
//!
//! Start with [`server::KgServer`], the one platform handle: read sessions
//! for plain and SPARQL-ML SELECTs, write sessions for updates, `TrainGML`
//! and model DELETE, and a background training queue; [`http::HttpServer`]
//! puts it on the wire. See the `examples/` directory for end-to-end
//! walkthroughs and `tests/paper_claims.rs` for the paper's claims.

// Task and training-configuration types, named at the root for callers
// that build training requests.
pub use kgnet_gml::config::{GmlMethodKind, GnnConfig};
pub use kgnet_graph::{GmlTask, LpTask, NcTask};

/// The RDF engine: terms, triple store, SPARQL subset.
pub use kgnet_rdf as rdf;

/// Observability: metric registry, latency histograms, structured
/// tracing, Prometheus-text and JSON exporters.
pub use kgnet_obs as obs;

/// Heterogeneous graphs, the data transformer, splits and statistics.
pub use kgnet_graph as graph;

/// Meta-sampling of task-specific subgraphs.
pub use kgnet_sampler as sampler;

/// GML methods: GCN, RGCN, GraphSAINT, ShadowSAINT, MorsE, KGE family.
pub use kgnet_gml as gml;

/// Vector search: the IVF index and its exact-scan oracle.
pub use kgnet_ann as ann;

/// GML-as-a-service: training manager, model/embedding stores, inference.
pub use kgnet_gmlaas as gmlaas;

/// The SPARQL-ML language layer: parser, KGMeta, optimizer, rewriter.
pub use kgnet_sparqlml as sparqlml;

/// Concurrent serving: shared-store read/write sessions and the
/// admission-controlled training job queue.
pub use kgnet_server as server;

/// The wire-level frontend: dependency-free HTTP/1.1 server exposing
/// `/metrics`, health probes, debug surfaces and the query endpoints.
pub use kgnet_http as http;

/// Synthetic DBLP/YAGO4-shaped KG generators.
pub use kgnet_datagen as datagen;

/// Dense/CSR matrices, autodiff, optimizers, memory tracking.
pub use kgnet_linalg as linalg;
