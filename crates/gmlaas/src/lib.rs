//! # kgnet-gmlaas
//!
//! GML-as-a-service (the paper's Fig. 3/6 right half): the automated
//! training manager with budget-constrained method selection (an exact 0/1
//! integer program over per-method cost estimates), the model registry, the
//! FAISS-style embedding store for entity-similarity search, and the
//! JSON inference-service boundary whose call counter the SPARQL-ML
//! optimizer minimises.

#![warn(missing_docs)]

pub mod budget;
mod codec;
pub mod embedding_store;
pub mod ip;
pub mod model_store;
pub mod selector;
pub mod service;
pub mod training;

pub use budget::{Priority, TaskBudget};
pub use embedding_store::{served_ivf_cells, AnnError, EmbeddingStore, Metric, SERVED_NPROBE};
pub use ip::{solve, IntegerProgram, IpSolution};
pub use model_store::{ArtifactPayload, ModelArtifact, ModelStore, TaskKind};
pub use selector::{select_method, Candidate, SelectionTrace};
pub use service::{
    InferenceRequest, InferenceResponse, InferenceService, ServiceError, ServiceStats,
};
pub use training::{TrainError, TrainOutcome, TrainRequest, TrainingManager};
