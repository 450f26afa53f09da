//! # kgnet-gmlaas
//!
//! GML-as-a-service (the paper's Fig. 3/6 right half): the automated
//! training manager with budget-constrained method selection (the paper's
//! 0/1 integer program over per-method cost estimates, solved in closed
//! form), the model registry, the FAISS-style embedding store for
//! entity-similarity search, and the JSON inference-service boundary whose
//! call counter the SPARQL-ML optimizer minimises.

#![warn(missing_docs)]

pub mod budget;
mod codec;
pub mod embedding_store;
pub mod model_store;
pub mod selector;
pub mod service;
pub mod training;

pub use budget::{Priority, TaskBudget};
pub use embedding_store::{AnnError, EmbeddingStore, Metric};
pub use model_store::{ArtifactPayload, ModelArtifact, ModelStore, TaskKind};
pub use selector::select_method;
pub use service::{
    InferenceRequest, InferenceResponse, InferenceService, ServiceError, ServiceStats,
};
pub use training::{TrainError, TrainRequest, TrainingManager};
