//! # kgnet-obs
//!
//! The platform's flight recorder: one offline, dependency-free
//! observability layer every subsystem records into and every consumer
//! (the `kgnet-http` `/metrics` endpoint, the benchmark, and the catalog
//! checks in the `kgnet-server` and `kgnet-http` integration tests) reads
//! from.
//!
//! Four pieces:
//!
//! - **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) collected in a
//!   [`Registry`] injected per component. Recording is lock-free
//!   (relaxed `kgnet-sync` atomics); histograms are log-bucketed
//!   (≤6.25% relative quantile error), mergeable, and snapshot with
//!   coherent totals under concurrent writers (model-checked).
//! - **Tracing** ([`Tracer`], [`SpanGuard`]) — RAII spans with monotonic
//!   ids and per-thread parent linkage, completing into a bounded ring
//!   buffer drained by subscribers; [`SpanNode::assemble`] rebuilds span
//!   trees from drained records.
//! - **Bounded logs** ([`Ring`]) — the one evict-oldest record buffer:
//!   the tracer's span ring, the server's slow-query log and the HTTP
//!   access log, each locking through its own contention site and
//!   counting what it evicts (model-checked).
//! - **Exporters** — [`Registry::render_prometheus`] (text exposition
//!   format) and [`Registry::render_json`], plus [`push_json_string`] and
//!   its quote-less half [`push_json_escaped`], the one JSON string
//!   escaper every hand-written body uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod profile;
pub mod promcheck;
pub mod registry;
pub mod ring;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use profile::SpanNode;
pub use promcheck::validate_prometheus;
pub use registry::{push_json_escaped, push_json_string, Registry};
pub use ring::Ring;
pub use trace::{SpanGuard, SpanRecord, Tracer};
