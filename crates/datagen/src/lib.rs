//! # kgnet-datagen
//!
//! Synthetic knowledge-graph generators that substitute for the two real KGs
//! of the paper's evaluation (DBLP, 252M triples; YAGO-4, 400M triples) at
//! laptop scale, while preserving the schema shape of Table I and the causal
//! structure the experiments depend on (label signal inside the
//! task-relevant 1-hop neighbourhood, task-irrelevant distractor structure
//! elsewhere). See DESIGN.md §2 for the substitution argument.

#![warn(missing_docs)]

pub mod dblp;
pub mod vocab;
pub mod yago;

pub use dblp::{generate as generate_dblp, DblpConfig, DblpGroundTruth};
pub use yago::{generate as generate_yago, YagoConfig, YagoGroundTruth};
