//! The server's observability surface: one [`Registry`] carrying the full
//! metric catalog and the handle bundle the job queue records through.
//! Per-request timings live in the latency histograms and, at the HTTP
//! frontend, in its access log; a per-query span tree is built directly
//! by `ReadSession::query_profiled`.
//!
//! Every metric is declared exactly once, in the `declare_metrics!` list
//! below: its field, kind, exposition name and help text. That one entry
//! generates the `pub` handle field (documented by the help text), its
//! registration and its [`METRIC_CATALOG`] row, so adding a metric is one
//! entry. `kgnet-lint`'s `metric-once` rule rejects a second literal of
//! any metric name in non-test code.
//!
//! Every metric the server will ever emit is registered eagerly at
//! construction, so a scrape sees the complete catalog (with zero values)
//! from the very first render instead of metrics popping into existence
//! when first touched — the catalog checks in the integration tests
//! depend on that.
//! Hot paths record exclusively through the cloned `Arc` handles below;
//! the registry lock is only taken at registration and render time.

use std::sync::Arc;
use std::time::Instant;

use kgnet_obs::{Counter, Gauge, Histogram, Registry};
use kgnet_sync::atomic::{AtomicU64, Ordering};

/// The handle type of one metric kind.
macro_rules! handle {
    (counter) => { Arc<Counter> };
    (gauge) => { Arc<Gauge> };
    (histogram) => { Arc<Histogram> };
}

/// Declares the metric-carrying structs from one list. A plain field is
/// passed through and becomes an argument of the generated `register`
/// constructor. A metric entry `field: kind("name", "help")` becomes a
/// `pub` handle field documented by `help`, a registration on the
/// `Registry` method `kind` (structs, then entries, in list order) and a
/// `METRIC_CATALOG` row.
macro_rules! declare_metrics {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* $field:ident: $ty:ty,)*
        } metrics {
            $($metric:ident: $kind:ident($expo:literal, $help:literal),)*
        }
    )*) => {
        $(
            $(#[$meta])*
            pub struct $name {
                $($(#[$field_meta])* $field: $ty,)*
                $(#[doc = $help] pub $metric: handle!($kind),)*
            }

            impl $name {
                /// Register this struct's metrics on `r`, in list order.
                fn register(r: &Registry $(, $field: $ty)*) -> $name {
                    $name { $($field,)* $($metric: r.$kind($expo, $help),)* }
                }
            }
        )*

        /// Every metric the server registers, as `(name, kind)` pairs in
        /// registration order. The `kgnet-server` and `kgnet-http`
        /// integration tests walk this catalog and fail when the
        /// in-process render or the `/metrics` wire scrape is missing any
        /// of it.
        pub const METRIC_CATALOG: &[(&str, &str)] = &[$($(($expo, stringify!($kind)),)*)*];
    };
}

declare_metrics! {
    /// The metric handles the job queue records through, split out so the
    /// queue can hold them without depending on the whole server surface.
    /// The `jobs_*_total` counters are monotonic: pruning or forgetting a
    /// terminal job record never takes its outcome back out of them. The
    /// per-job peak memory is exact for serial runs; concurrent jobs share
    /// the process-global tracker.
    pub struct QueueObs {
    } metrics {
        jobs_submitted: counter("kgnet_jobs_submitted_total", "Training jobs admitted"),
        jobs_rejected: counter("kgnet_jobs_rejected_total", "Training submissions refused at admission"),
        jobs_completed: counter("kgnet_jobs_completed_total", "Training jobs finished Done"),
        jobs_failed: counter("kgnet_jobs_failed_total", "Training jobs finished Failed"),
        jobs_cancelled: counter("kgnet_jobs_cancelled_total", "Training jobs finished Cancelled"),
        queue_depth: gauge("kgnet_queue_depth", "Training jobs waiting for a worker"),
        job_duration: histogram("kgnet_job_duration_nanos", "Training job wall time, pickup to terminal"),
        train_pool_busy_nanos: counter("kgnet_train_pool_busy_nanos_total", "Busy worker-nanos of the dedicated training pools"),
        train_pool_jobs: counter("kgnet_train_pool_jobs_total", "Rayon tasks executed by the training pools"),
        job_epochs: counter("kgnet_job_epochs_total", "Training epochs completed across jobs"),
        job_triples_sampled: counter("kgnet_job_triples_sampled_total", "Triples sampled into training subgraphs"),
        job_lock_wait_nanos: counter("kgnet_job_lock_wait_nanos_total", "Facade-lock wait nanos on job worker threads"),
        job_peak_mem: histogram("kgnet_job_peak_mem_bytes", "Peak tracked-memory delta per job"),
    }

    /// The server-wide metric catalog. One instance per
    /// [`crate::KgServer`]; sessions and the queue record through cloned
    /// handles.
    pub struct ServerMetrics {
        registry: Arc<Registry>,
        queue: Arc<QueueObs>,
        /// Last harvested totals of the process-wide sources, so
        /// [`refresh_system`](Self::refresh_system) bumps the aggregate
        /// counters by delta instead of re-adding cumulative values.
        harvest: Harvest,
    } metrics {
        query_latency: histogram("kgnet_query_latency_nanos", "End-to-end read-session query latency"),
        query_rows: histogram("kgnet_query_rows", "Rows returned per read-session query"),
        query_triples_scanned: counter("kgnet_query_triples_scanned_total", "Triples pulled from index scans by queries"),
        plan_cache_hits: counter("kgnet_plan_cache_hits_total", "Shared plan-cache hits"),
        plan_cache_misses: counter("kgnet_plan_cache_misses_total", "Shared plan-cache misses"),
        commit_latency: histogram("kgnet_commit_latency_nanos", "Write-session commit latency"),
        store_generation: gauge("kgnet_store_generation", "Generation of the published store version"),
        retained_versions: gauge("kgnet_retained_versions", "MVCC store versions currently retained"),
        retained_bytes: gauge("kgnet_retained_bytes", "Approximate index bytes retained across versions"),
        train_epoch: histogram("kgnet_train_epoch_nanos", "Wall time of completed epochs of queued training jobs"),
        ann_search_latency: histogram("kgnet_ann_search_latency_nanos", "ANN similarity-search latency"),
        ann_candidates: counter("kgnet_ann_candidates_total", "Candidate vectors considered by ANN searches"),
        lock_acquires: counter("kgnet_lock_acquires_total", "Facade-lock acquisitions across sites"),
        lock_contended: counter("kgnet_lock_contended_total", "Contended facade-lock acquisitions"),
        lock_wait_nanos: counter("kgnet_lock_wait_nanos_total", "Nanos waiting on contended facade locks"),
        slow_queries: counter("kgnet_slow_queries_total", "Queries over the slow-query threshold"),
        pool_threads: gauge("kgnet_pool_global_threads", "Global rayon pool worker threads"),
        pool_jobs: gauge("kgnet_pool_global_jobs", "Jobs executed by the global pool"),
        pool_busy_nanos: gauge("kgnet_pool_global_busy_nanos", "Busy worker-nanos of the global pool"),
        pool_queue_depth: gauge("kgnet_pool_global_queue_depth", "Jobs queued in the global pool"),
        http_requests: counter("kgnet_http_requests_total", "HTTP requests reaching the router"),
        http_responses_2xx: counter("kgnet_http_responses_2xx_total", "2xx responses written"),
        http_responses_3xx: counter("kgnet_http_responses_3xx_total", "3xx responses written"),
        http_responses_4xx: counter("kgnet_http_responses_4xx_total", "4xx responses written"),
        http_responses_5xx: counter("kgnet_http_responses_5xx_total", "5xx responses written"),
        http_request_latency: histogram("kgnet_http_request_latency_nanos", "HTTP time from a fully parsed request to its response written"),
        http_bytes_in: counter("kgnet_http_bytes_in_total", "Request bytes read"),
        http_bytes_out: counter("kgnet_http_bytes_out_total", "Response bytes written"),
        http_active_connections: gauge("kgnet_http_active_connections", "Open HTTP connections"),
        http_rejected_over_limit: counter("kgnet_http_rejected_over_limit_total", "Connections refused over the connection limit"),
        http_parse_errors: counter("kgnet_http_parse_errors_total", "Requests rejected by the parser"),
    }
}

/// Last-seen cumulative values of the process-wide lock-site counters.
/// Facade atomics so the model checker can compile this crate,
/// `fetch_max` so concurrent harvests never double-count a delta.
#[derive(Default)]
struct Harvest {
    lock_acquires: AtomicU64,
    lock_contended: AtomicU64,
    lock_wait_nanos: AtomicU64,
}

/// Bump `counter` by how far `current` has advanced past the last
/// harvested value. `fetch_max` ensures each unit of the underlying
/// monotonic source is credited exactly once even under concurrent
/// harvesters.
fn bump_delta(counter: &Counter, last: &AtomicU64, current: u64) {
    let prev = last.fetch_max(current, Ordering::SeqCst);
    if current > prev {
        counter.add(current - prev);
    }
}

/// Metric-name-safe rendering of a lock-site label: ASCII alphanumerics
/// are kept (lowercased), everything else becomes `_`.
fn sanitize_site(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect()
}

impl ServerMetrics {
    /// Build the catalog on a fresh registry (one per server, so tests and
    /// embedded instances never share counters).
    pub fn new() -> ServerMetrics {
        let r = Arc::new(Registry::new());
        let queue = Arc::new(QueueObs::register(&r));
        ServerMetrics::register(&r, Arc::clone(&r), queue, Harvest::default())
    }

    /// The underlying registry (for embedding extra metrics beside the
    /// server's own catalog).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The queue's handle bundle.
    pub fn queue_obs(&self) -> Arc<QueueObs> {
        Arc::clone(&self.queue)
    }

    /// Harvest the process-wide instrumentation sources into the registry:
    /// facade-lock site counters (the three `kgnet_lock_*_total` aggregates
    /// bumped by delta, plus one lazily registered
    /// `kgnet_lock_site_<site>_{acquires,contended,wait_nanos}` gauge
    /// triple per site) and the global rayon pool's scheduler stats.
    /// [`crate::KgServer::metrics`] calls this ahead of every render; the
    /// per-site gauges appear on first harvest rather than at construction
    /// because the site list is discovered at runtime (a site registers
    /// itself on its first recorded acquire).
    pub fn refresh_system(&self) {
        let totals = kgnet_sync::sites::totals();
        bump_delta(&self.lock_acquires, &self.harvest.lock_acquires, totals.acquires);
        bump_delta(&self.lock_contended, &self.harvest.lock_contended, totals.contended);
        bump_delta(&self.lock_wait_nanos, &self.harvest.lock_wait_nanos, totals.wait_nanos);
        for site in kgnet_sync::sites::all() {
            let base = sanitize_site(site.name);
            let help = format!("Facade-lock site {}", site.name);
            self.registry
                .gauge(&format!("kgnet_lock_site_{base}_acquires"), &help)
                .set(i64::try_from(site.acquires).unwrap_or(i64::MAX));
            self.registry
                .gauge(&format!("kgnet_lock_site_{base}_contended"), &help)
                .set(i64::try_from(site.contended).unwrap_or(i64::MAX));
            self.registry
                .gauge(&format!("kgnet_lock_site_{base}_wait_nanos"), &help)
                .set(i64::try_from(site.wait_nanos).unwrap_or(i64::MAX));
        }
        let pool = rayon::global_pool_stats();
        self.pool_threads.set(i64::try_from(pool.n_threads).unwrap_or(i64::MAX));
        self.pool_jobs.set(i64::try_from(pool.jobs_executed).unwrap_or(i64::MAX));
        self.pool_busy_nanos.set(i64::try_from(pool.busy_nanos).unwrap_or(i64::MAX));
        self.pool_queue_depth.set(i64::try_from(pool.queue_depth).unwrap_or(i64::MAX));
    }

    /// Render the full catalog in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Render the full catalog as one JSON object.
    pub fn render_json(&self) -> String {
        self.registry.render_json()
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl std::fmt::Debug for ServerMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerMetrics")
            .field("metrics", &self.registry.names().len())
            .finish_non_exhaustive()
    }
}

/// Nanoseconds since `t0`, saturating at `u64::MAX`.
pub(crate) fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_registered_eagerly_with_declared_kinds() {
        let m = ServerMetrics::new();
        let text = m.render_prometheus();
        for (name, kind) in METRIC_CATALOG {
            assert!(
                text.contains(&format!("# TYPE {name} {kind}\n")),
                "missing or miskinded metric {name} ({kind})"
            );
        }
        assert_eq!(m.registry().names().len(), METRIC_CATALOG.len());
    }

    /// Pins every `# HELP`/`# TYPE` line of the exposition, in order: a
    /// renamed, re-kinded, re-worded or reordered metric fails here.
    #[test]
    fn exposition_header_matches_the_golden_file() {
        let text = ServerMetrics::new().render_prometheus();
        let header: Vec<&str> = text.lines().filter(|l| l.starts_with("# ")).collect();
        let golden: Vec<&str> = include_str!("../tests/exposition_header.txt").lines().collect();
        for (i, (got, want)) in header.iter().zip(&golden).enumerate() {
            assert_eq!(got, want, "exposition header line {}", i + 1);
        }
        assert_eq!(header.len(), golden.len());
    }

    #[test]
    fn two_servers_do_not_share_counters() {
        let a = ServerMetrics::new();
        let b = ServerMetrics::new();
        a.plan_cache_hits.add(5);
        assert_eq!(b.plan_cache_hits.get(), 0);
    }

    #[test]
    fn refresh_system_registers_per_site_gauges_lazily() {
        let m = ServerMetrics::new();
        // Per-site gauges must never be part of the construction-time
        // catalog: the eager-registration invariant stays intact.
        assert_eq!(m.registry().names().len(), METRIC_CATALOG.len());

        static SITE: kgnet_sync::profile::SyncSite =
            kgnet_sync::profile::SyncSite::new("server.metrics-test.site");
        SITE.record_uncontended();
        SITE.record_contended(1_000);
        m.refresh_system();

        assert!(m.registry().names().len() > METRIC_CATALOG.len());
        let text = m.render_prometheus();
        assert!(text.contains("kgnet_lock_site_server_metrics_test_site_acquires 2"), "{text}");
        assert!(text.contains("kgnet_lock_site_server_metrics_test_site_contended 1"), "{text}");
        assert!(text.contains("kgnet_lock_site_server_metrics_test_site_wait_nanos 1000"));
        // Aggregates cover the recorded site (other sites in this process
        // may add more, never less).
        assert!(m.lock_acquires.get() >= 2);
        assert!(m.lock_contended.get() >= 1);
        assert!(m.lock_wait_nanos.get() >= 1_000);
        // A second refresh is delta-based: the aggregate equals the
        // process-wide total it harvested, so already harvested
        // acquisitions are never counted twice. (Tests running beside this
        // one may take tracked locks in between, so the total can move.)
        m.refresh_system();
        assert_eq!(m.lock_acquires.get(), m.harvest.lock_acquires.load(Ordering::SeqCst));
        // Pool gauges are populated from the global pool.
        assert!(m.pool_threads.get() >= 1);
    }

    #[test]
    fn bump_delta_credits_each_unit_once() {
        let c = Counter::new();
        let last = AtomicU64::new(0);
        bump_delta(&c, &last, 10);
        bump_delta(&c, &last, 10);
        bump_delta(&c, &last, 17);
        // A stale (smaller) observation never subtracts or re-adds.
        bump_delta(&c, &last, 12);
        assert_eq!(c.get(), 17);
    }

    #[test]
    fn sanitize_site_maps_to_metric_charset() {
        assert_eq!(sanitize_site("rdf.writer_gate"), "rdf_writer_gate");
        assert_eq!(sanitize_site("Server.Plan-Cache"), "server_plan_cache");
    }
}
