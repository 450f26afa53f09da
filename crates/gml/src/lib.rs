//! # kgnet-gml
//!
//! The graph machine-learning methods of the KGNet reproduction, all built
//! on the `kgnet-linalg` autodiff tape:
//!
//! * node classification — GCN, RGCN (full batch), GraphSAINT and
//!   ShadowSAINT (sampling-based), matching the methods of the paper's
//!   Figs. 13/14;
//! * link prediction — MorsE (edge-sampled, entity-agnostic; Fig. 15) and
//!   the KGE family TransE / DistMult / ComplEx / RotatE from the Fig. 5
//!   taxonomy;
//! * dataset builders (the Fig. 6 data-transformer hand-off), evaluation
//!   metrics, and the closed-form resource estimators the method selector
//!   uses to respect time/memory budgets.
//!
//! The sampling-based trainers are data-parallel: per-batch gradient tapes
//! fan out over the vendored `rayon` batch pool in fixed-width
//! waves and reduce deterministically in batch order (see [`par`]), so a
//! fixed seed reproduces identical results on any `RAYON_NUM_THREADS`.

#![warn(missing_docs)]

pub mod config;
pub mod control;
pub mod dataset;
pub mod estimate;
pub mod lp;
pub mod metrics;
pub mod nc;
pub mod par;

pub use config::{GmlMethodKind, GnnConfig, TrainReport};
pub use control::{EpochObserver, PairObserver, TrainControl};
pub use dataset::{build_lp_dataset, build_nc_dataset, LpDataset, NcDataset};
pub use estimate::{estimate, GraphDims, ResourceEstimate};
pub use lp::{train_lp, train_lp_ctl, TrainedLp};
pub use nc::{train_nc, train_nc_ctl, TrainedNc};
