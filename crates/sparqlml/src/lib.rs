//! # kgnet-sparqlml
//!
//! The SPARQL-ML language service of the KGNet platform: the parser for
//! user-defined predicates and `TrainGML` requests (paper Figs. 2, 8–10),
//! KGMeta, the model-metadata triples stored in the served graph (Fig. 7), the
//! query optimizer (model selection and HTTP-call-minimising plan selection,
//! §IV.B.3: the paper's integer programs, solved in closed form per
//! predicate), the Fig. 11/12 query re-writer, and the end-to-end query
//! manager.

#![warn(missing_docs)]

pub mod kgmeta;
pub mod manager;
pub mod opt;
pub mod parser;
pub mod rewrite;

pub use kgmeta::{ModelFilter, ModelInfo};
pub use manager::{ManagerConfig, MlError, MlOutcome, QueryManager, TrainedSummary};
pub use opt::{select_model, select_plan, RewritePlan};
pub use parser::{
    contains_traingml, parse, SparqlMlOperation, SparqlMlQuery, TrainGmlSpec, UdPredicate,
};
pub use rewrite::{rewrite, InferenceStep, RewrittenQuery};
