//! # kgnet-obs
//!
//! The platform's flight recorder: one offline, dependency-free
//! observability layer every subsystem records into and every consumer
//! (the `kgnet-http` `/metrics` endpoint, the benchmark, and the catalog
//! checks in the `kgnet-server` and `kgnet-http` integration tests) reads
//! from.
//!
//! Five pieces:
//!
//! - **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) collected in a
//!   [`Registry`] injected per component. Recording is lock-free
//!   (relaxed `kgnet-sync` atomics); histograms are log-bucketed
//!   (≤6.25% relative quantile error), mergeable, and snapshot with
//!   coherent totals under concurrent writers (model-checked).
//! - **Profiles** ([`SpanNode`]) — the one span-tree type: named timed
//!   nodes with row counts, built directly by the instrumented code that
//!   timed them (the server's `query_profiled`), so the children's times
//!   are measured on the same clock as their root's.
//! - **Bounded logs** ([`Ring`]) — the one evict-oldest record buffer:
//!   the server's slow-query log and the HTTP access log, each locking
//!   through its own contention site and counting what it evicts
//!   (model-checked).
//! - **Exporters** — [`Registry::render_prometheus`] (text exposition
//!   format) and [`Registry::render_json`].
//! - **JSON** ([`mod@json`]) — the workspace's one JSON codec: the parser
//!   [`json::parse`] (the paper's relaxed dialect, a superset of JSON)
//!   and the writers [`push_json_string`], its quote-less half
//!   [`push_json_escaped`] and [`push_json_f64`], which write text or,
//!   into a [`ByteCount`], only count it.

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod profile;
pub mod promcheck;
pub mod registry;
pub mod ring;

pub use json::{push_json_escaped, push_json_f64, push_json_string, ByteCount, JsonSink};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use profile::SpanNode;
pub use promcheck::validate_prometheus;
pub use registry::Registry;
pub use ring::Ring;
