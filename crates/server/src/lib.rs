//! # kgnet-server
//!
//! The concurrent serving layer of the KGNet platform: one shared data KG
//! published as generation-versioned MVCC snapshots, SELECT-serving
//! sessions that run in parallel against pinned versions, and an
//! admission-controlled queue that trains GML models in the background
//! without stalling queries — the "GML as a service under load" shape the
//! paper assumes of its platform.
//!
//! Architecture:
//!
//! ```text
//!   client threads                      KgServer
//!   ┌────────────┐ pin+query ┌─────────────────────────────────┐
//!   │ ReadSession├──────────►│ SharedStore (versioned Arcs)    │ N readers,
//!   │  Snapshot  │           │   data + KGMeta triples         │ zero locks
//!   └────────────┘           │   snapshot() ──► frozen vN      │
//!   ┌────────────┐  execute  │   begin()/commit ─► publish vN+1│
//!   │WriteSession├──────────►│ SharedPlanCache ((query, vN))   │
//!   │  WriteTxn  │ commit/   │ QueryManager · InferenceService │
//!   └────────────┘  abort    │ ModelStore · RetiredModels      │
//!                            └───────────────▲─────────────────┘
//!   submit_train ──► JobQueue ──► workers ───┘ publish: one commit
//!                    (admission)   (pin snapshot, train, commit)
//! ```
//!
//! KGMeta, the trained-model metadata, is ordinary triples in the served
//! graph, so it rides the MVCC versions with the data: a reader finds the
//! models of the version it pinned, and a model registration or DELETE
//! commits or aborts with the rest of its write.
//!
//! Training jobs pin a snapshot with zero lock hold, sample their task
//! subgraph from it, train on the private copy inside a dedicated thread
//! pool — polling the job's cancellation flag between epochs — and publish
//! in one final commit: the artifact (stamped with the generation it was
//! trained against) lands in the
//! [`ModelStore`](kgnet_gmlaas::ModelStore) registry, then its KGMeta
//! triples are committed like any data write. Queries keep flowing while
//! models train and while writers commit; a cancelled or failed job leaves
//! both untouched. A deleted model's artifact stays in the registry until
//! no retained version lists the model ([`RetiredModels`]).
//!
//! A SPARQL-ML SELECT is prepared by the manager (model and plan choice
//! from the pinned version's KGMeta) and then runs on the same streaming
//! executor as a plain SELECT, its inference steps calling the model
//! service as rows reach them. Its plan is cached like a plain one, keyed
//! by generation: a repeat skips parsing, model selection and planning,
//! and still makes its own inference calls.
//!
//! Every SELECT a session runs is timed; one at or above
//! [`ServerConfig::slow_query`] lands, with its rendered plan and span
//! profile, in the server's slow-query log — a [`kgnet_obs::Ring`] of the
//! newest [`SLOW_LOG_CAPACITY`] offenders, read back through
//! [`KgServer::slow_queries`].

#![warn(missing_docs)]

pub mod cache;
pub mod metrics;
pub mod pool;
pub mod queue;
mod report;
pub mod retire;
pub mod session;

pub use cache::{CacheStats, SharedPlanCache};
pub use metrics::{QueueObs, ServerMetrics, METRIC_CATALOG};
pub use pool::{PooledSession, SessionPool};
pub use queue::{
    AdmissionError, JobId, JobInfo, JobOutcome, JobQueue, JobRunner, JobState, QueueConfig,
    ResourceUsage, UsageProbe,
};
pub use retire::RetiredModels;
pub use session::{ReadSession, SessionStats, SlowQuery, WriteSession};

use kgnet_sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kgnet_obs::{Histogram, Ring, SpanNode};
use kgnet_sync::profile::SyncSite;
use kgnet_sync::RwLock;

use kgnet_gml::control::{EpochObserver, PairObserver, TrainControl};
use kgnet_gmlaas::{TrainError, TrainRequest, TrainingManager};
use kgnet_rdf::{RdfStore, SharedStore};
use kgnet_sampler::{meta_sample_task, SamplingScope};
use kgnet_sparqlml::{kgmeta, ManagerConfig, QueryManager};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Query-manager configuration (training defaults, optimizer bounds).
    pub manager: ManagerConfig,
    /// Training-queue sizing and admission policy.
    pub queue: QueueConfig,
    /// Latency at or above which a SELECT is captured into the slow-query
    /// log with its rendered plan and span profile (default 100 ms).
    pub slow_query: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            manager: ManagerConfig::default(),
            queue: QueueConfig::default(),
            slow_query: Duration::from_millis(100),
        }
    }
}

/// Plans held in the server-wide shared cache, across all read sessions
/// and snapshot versions.
const PLAN_CACHE_CAPACITY: usize = 128;

/// Slow-query records retained; the oldest is dropped when a new offender
/// arrives at capacity.
pub const SLOW_LOG_CAPACITY: usize = 32;

/// Contention profile of the slow-log ring. Only above-threshold queries
/// touch it, so sustained contention here means the threshold is too low
/// (or the workload is genuinely pathological).
static SLOW_LOG_SITE: SyncSite = SyncSite::new("server.slow_log");

/// The concurrently servable platform: a snapshot-published data KG, a
/// shared SPARQL-ML manager, a server-wide plan cache and a background
/// training queue.
pub struct KgServer {
    store: SharedStore,
    manager: Arc<RwLock<QueryManager>>,
    retired: Arc<RetiredModels>,
    queue: JobQueue,
    plan_cache: Arc<SharedPlanCache>,
    metrics: Arc<ServerMetrics>,
    slow_log: Arc<Ring<SlowQuery>>,
    slow_nanos: u64,
}

impl KgServer {
    /// Serve a knowledge graph with custom configuration.
    pub fn new(data: RdfStore, config: ServerConfig) -> Self {
        let store = SharedStore::new(data);
        let manager = QueryManager::new(config.manager);
        let trainer = manager.trainer().clone();
        let retired = Arc::new(RetiredModels::new(trainer.model_store().clone()));
        let metrics = Arc::new(ServerMetrics::new());
        metrics.store_generation.set(store.generation() as i64);
        let runner =
            train_runner(store.clone(), trainer, Arc::clone(&retired), Arc::clone(&metrics));
        let queue = JobQueue::with_metrics(config.queue, runner, metrics.queue_obs());
        KgServer {
            store,
            manager: Arc::new(RwLock::new(manager)),
            retired,
            queue,
            plan_cache: Arc::new(SharedPlanCache::new(PLAN_CACHE_CAPACITY)),
            metrics,
            slow_log: Arc::new(Ring::new(SLOW_LOG_CAPACITY, &SLOW_LOG_SITE)),
            slow_nanos: u64::try_from(config.slow_query.as_nanos()).unwrap_or(u64::MAX),
        }
    }

    /// Serve a knowledge graph with default configuration.
    pub fn with_graph(data: RdfStore) -> Self {
        Self::new(data, ServerConfig::default())
    }

    /// The shared store handle (cloneable; snapshot pinning and write
    /// transactions).
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// The shared query manager (advanced use: `explain`, service
    /// statistics, the model registry). Every [`QueryManager`] method takes
    /// `&self` and nothing takes this lock for writing; the `RwLock`
    /// remains only because the benchmark harness calls `.read()` on it.
    pub fn manager(&self) -> Arc<RwLock<QueryManager>> {
        self.manager.clone()
    }

    /// Server-wide plan-cache counters (sessions report their own local
    /// hit/miss splits on top of these totals).
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// MVCC retention telemetry: every store version currently kept alive —
    /// the published version plus any older version pinned by a live
    /// [`ReadSession`] (or raw [`Snapshot`](kgnet_rdf::Snapshot)) — with
    /// per-version pin counts and approximate retained index bytes. An old
    /// version disappears from this list the moment its last pin drops.
    pub fn retained_versions(&self) -> Vec<kgnet_rdf::RetainedVersion> {
        self.store.retained_versions()
    }

    /// Open a concurrent read session pinned to the current snapshot.
    /// Sessions are independent — hand one to each client thread — and
    /// all share the server's plan cache.
    pub fn read_session(&self) -> ReadSession {
        ReadSession::new(
            self.store.clone(),
            self.manager.clone(),
            Arc::clone(&self.plan_cache),
            Arc::clone(&self.metrics),
            Arc::clone(&self.slow_log),
            self.slow_nanos,
        )
    }

    /// Open a write session holding an open transaction on the next store
    /// version. Blocks while another write session is open (writers are
    /// serialised); never blocks or is blocked by readers. Call
    /// [`WriteSession::commit`] to publish — dropping the session discards
    /// its data mutations and the models it trained.
    pub fn write_session(&self) -> WriteSession {
        WriteSession::new(
            self.store.clone(),
            self.manager.clone(),
            Arc::clone(&self.retired),
            Arc::clone(&self.metrics),
        )
    }

    /// The server's metric catalog, with the store gauges (generation,
    /// retained versions/bytes) refreshed from the live store — and the
    /// system-wide profiles (lock-site counters, pool gauges, dropped-span
    /// total) harvested — so a subsequent
    /// [`ServerMetrics::render_prometheus`] or
    /// [`ServerMetrics::render_json`] reports current state.
    pub fn metrics(&self) -> &ServerMetrics {
        self.metrics.store_generation.set(self.store.generation() as i64);
        let retained = self.store.retained_versions();
        self.metrics.retained_versions.set(retained.len() as i64);
        let bytes: usize = retained.iter().map(|v| v.approx_bytes).sum();
        self.metrics.retained_bytes.set(i64::try_from(bytes).unwrap_or(i64::MAX));
        self.metrics.refresh_system();
        &self.metrics
    }

    /// A shared handle to the raw metric catalog, *without* refreshing the
    /// store gauges or harvesting system profiles — for hot paths (the
    /// HTTP frontend bumps its per-request counters through this) that
    /// must not pay the refresh walk per call. Exporters should prefer
    /// [`metrics`](Self::metrics).
    pub fn metrics_handle(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The retained slow-query records, oldest first: every SELECT whose
    /// latency reached [`ServerConfig::slow_query`], with the plan
    /// it ran and its span profile. At most [`SLOW_LOG_CAPACITY`] records
    /// are kept; older offenders are dropped as new ones arrive.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log.snapshot()
    }

    /// One human-readable report of the server's observable state: metric
    /// totals, the most contended lock sites, thread-pool utilization, the
    /// slow-query log and per-job resource usage. Built for dropping into
    /// a bug report or a terminal — nothing in it is machine-parsed.
    pub fn debug_report(&self) -> String {
        self.metrics();
        report::render(self)
    }

    /// Drain every span buffered since the last dump and rebuild the
    /// profile trees (children-first drain order), oldest roots first.
    pub fn trace_dump(&self) -> Vec<SpanNode> {
        SpanNode::assemble(&self.metrics.tracer().drain())
    }

    /// Submit a training job to the background queue. Returns immediately
    /// with a job id after admission (budget envelope, queue capacity).
    pub fn submit_train(&self, req: TrainRequest) -> Result<JobId, AdmissionError> {
        self.queue.submit(req)
    }

    /// Poll one job's lifecycle state.
    pub fn job(&self, id: JobId) -> Option<JobInfo> {
        self.queue.status(id)
    }

    /// Snapshot of every job still on record, ordered by id (terminal
    /// records past the retention cap, or dropped via
    /// [`forget`](Self::forget), are excluded).
    pub fn jobs(&self) -> Vec<JobInfo> {
        self.queue.jobs()
    }

    /// Request cancellation of a job: immediate when queued, within one
    /// training epoch when running (the flag is polled at every epoch
    /// boundary). `false` when unknown or already terminal.
    pub fn cancel(&self, id: JobId) -> bool {
        self.queue.cancel(id)
    }

    /// Block until a job reaches a terminal state. `None` when the id is
    /// unknown — never submitted, or its terminal record already pruned or
    /// forgotten.
    pub fn wait(&self, id: JobId) -> Option<JobInfo> {
        self.queue.wait(id)
    }

    /// Drop a finished job's record once its outcome has been observed
    /// (ahead of the queue's automatic retention pruning). `false` when the
    /// id is unknown or the job is still live.
    pub fn forget(&self, id: JobId) -> bool {
        self.queue.forget(id)
    }

    /// One readiness probe for load balancers and the HTTP `/readyz`
    /// endpoint: the store must hold data and the training queue must have
    /// admission headroom. A server that would bounce the very next
    /// `submit_train` with `QueueFull` reports not-ready so traffic drains
    /// to a replica instead of piling onto a saturated queue.
    pub fn readiness(&self) -> Readiness {
        let store_loaded = !self.store.is_empty();
        let queue_headroom = self.queue.admission_headroom();
        Readiness { store_loaded, queue_headroom, ready: store_loaded && queue_headroom > 0 }
    }
}

/// Snapshot of the server's readiness signals (see
/// [`KgServer::readiness`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readiness {
    /// The published store version holds at least one triple.
    pub store_loaded: bool,
    /// Training submissions the queue would still admit.
    pub queue_headroom: usize,
    /// Conjunction the probe reports: loaded and admitting.
    pub ready: bool,
}

/// Feeds per-epoch wall times into `kgnet_train_epoch_nanos`: each
/// [`epoch_completed`](EpochObserver::epoch_completed) records the time
/// since the previous one (or since training start for the first epoch).
/// Only queued jobs carry one; a `TrainGML` run through
/// `WriteSession::execute` records no epochs.
struct EpochTimer {
    epochs: Arc<Histogram>,
    last: kgnet_sync::Mutex<Instant>,
}

impl EpochTimer {
    fn new(epochs: Arc<Histogram>) -> EpochTimer {
        EpochTimer { epochs, last: kgnet_sync::Mutex::new(Instant::now()) }
    }
}

impl EpochObserver for EpochTimer {
    fn epoch_completed(&self, _epoch: usize) {
        let now = Instant::now();
        let mut last = self.last.lock();
        let prev = std::mem::replace(&mut *last, now);
        self.epochs.record(u64::try_from((now - prev).as_nanos()).unwrap_or(u64::MAX));
    }
}

/// The production job runner: pin a snapshot (zero lock hold), sample the
/// task subgraph from it, train on the private subgraph inside the
/// worker's dedicated pool with the job's cancellation flag threaded into
/// the trainer's epoch loop, then publish as the single final step — the
/// artifact, stamped with the snapshot generation it was trained against,
/// enters the registry and its KGMeta triples are committed through the
/// writer gate like any data write, after which retired artifacts are
/// swept. Cancellation is observed between epochs (a raised flag ends the
/// run within one epoch) and re-checked before the commit; until then the
/// artifact exists only on the worker's stack, so a cancelled or failed
/// job leaves both the model store and KGMeta exactly as they were.
fn train_runner(
    store: SharedStore,
    trainer: TrainingManager,
    retired: Arc<RetiredModels>,
    metrics: Arc<ServerMetrics>,
) -> Arc<JobRunner> {
    Arc::new(move |req, cancel, probe| {
        let scope = SamplingScope::parse(&req.sampler)
            .unwrap_or_else(|| SamplingScope::default_for(&req.task));
        // The pin is released once sampled, so it never holds back a sweep.
        let (sampled, generation) = {
            let snapshot = store.snapshot();
            (meta_sample_task(&snapshot, &req.task, scope), snapshot.generation())
        };
        probe.add_triples_sampled(sampled.store.len() as u64);
        if cancel.load(Ordering::SeqCst) {
            return JobOutcome::Cancelled;
        }
        let timer = EpochTimer::new(Arc::clone(&metrics.train_epoch));
        // The worker's probe rides along with the epoch-latency timer, so
        // per-job epoch counts come from the same notifications as the
        // epoch histogram.
        let pair = PairObserver::new(&timer, probe);
        let ctl = TrainControl::with_flag(cancel).with_observer(&pair);
        let mut artifact = match trainer.train(&sampled.store, req, ctl) {
            Ok(built) => built,
            Err(TrainError::Cancelled) => return JobOutcome::Cancelled,
            Err(e) => return JobOutcome::Failed(e.to_string()),
        };
        if cancel.load(Ordering::SeqCst) {
            return JobOutcome::Cancelled;
        }
        artifact.trained_generation = generation;
        // KGMeta records the scope the job sampled at, not the request text.
        artifact.sampler = scope.name();
        let mut txn = store.begin();
        let artifact = kgmeta::publish(trainer.model_store(), txn.store_mut(), artifact);
        retired.commit(&store, txn, Vec::new());
        JobOutcome::Done(artifact.uri.clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgnet_datagen::{generate_dblp, DblpConfig};
    use kgnet_gml::config::{GmlMethodKind, GnnConfig};
    use kgnet_graph::{GmlTask, NcTask};
    use kgnet_sparqlml::MlOutcome;

    fn fast_server(seed: u64) -> KgServer {
        let (kg, _) = generate_dblp(&DblpConfig::tiny(seed));
        let config = ServerConfig {
            manager: ManagerConfig { default_cfg: GnnConfig::fast_test(), ..Default::default() },
            ..Default::default()
        };
        KgServer::new(kg, config)
    }

    fn nc_request(name: &str) -> TrainRequest {
        let mut req = TrainRequest::new(
            name,
            GmlTask::NodeClassification(NcTask {
                target_type: "https://www.dblp.org/Publication".into(),
                label_predicate: "https://www.dblp.org/publishedIn".into(),
            }),
        );
        req.cfg = GnnConfig::fast_test();
        req
    }

    const PV_QUERY: &str = r#"
        PREFIX dblp: <https://www.dblp.org/>
        PREFIX kgnet: <https://www.kgnet.com/>
        SELECT ?title ?venue WHERE {
          ?paper a dblp:Publication .
          ?paper dblp:title ?title .
          ?paper ?NodeClassifier ?venue .
          ?NodeClassifier a kgnet:NodeClassifier .
          ?NodeClassifier kgnet:TargetNode dblp:Publication .
          ?NodeClassifier kgnet:NodeLabel dblp:publishedIn . }"#;

    #[test]
    fn train_job_then_ml_select_through_read_session() {
        let server = fast_server(41);
        let id = server.submit_train(nc_request("paper-venue")).unwrap();
        let done = server.wait(id).unwrap();
        let JobState::Done { model_uri } = &done.state else { panic!("job failed: {done:?}") };
        assert!(model_uri.contains("/model/nc/"));

        let mut session = server.read_session();
        let rows = session.query(PV_QUERY).unwrap();
        assert_eq!(rows.len(), 60);
        // KGMeta visible through the session.
        let meta = session
            .query(
                "PREFIX kgnet: <https://www.kgnet.com/>
                 SELECT ?m WHERE { ?m a kgnet:NodeClassifier }",
            )
            .unwrap();
        assert_eq!(meta.len(), 1);
    }

    #[test]
    fn a_queued_job_forcing_a_method_that_cannot_train_its_task_fails_without_training() {
        let server = fast_server(41);
        let before = server.store().snapshot().len();
        let mut req = nc_request("mismatched");
        req.forced_method = Some(GmlMethodKind::Morse);
        let id = server.submit_train(req).unwrap();
        let done = server.wait(id).unwrap();
        let JobState::Failed { error } = &done.state else {
            panic!("expected a failure: {done:?}")
        };
        assert_eq!(error, "MorsE cannot train a NodeClassification task");
        assert!(server.manager().read().trainer().model_store().is_empty());
        assert_eq!(server.store().snapshot().len(), before, "no KGMeta was written");
    }

    #[test]
    fn queued_artifact_is_stamped_with_its_snapshot_generation() {
        let server = fast_server(67);
        // Bump the published version first so the stamp is a non-trivial
        // generation.
        let mut writer = server.write_session();
        writer.execute("INSERT DATA { <http://x/a> <http://x/p> <http://x/b> }").unwrap();
        writer.commit();
        let trained_against = server.store().generation();

        let id = server.submit_train(nc_request("stamped")).unwrap();
        let done = server.wait(id).unwrap();
        let JobState::Done { model_uri } = &done.state else { panic!("job failed: {done:?}") };

        let manager = server.manager();
        let artifact = manager.read().trainer().model_store().get(model_uri).unwrap();
        assert_eq!(artifact.trained_generation, trained_against);
        // The stamp is queryable through KGMeta (Fig. 7 metadata).
        let mut session = server.read_session();
        let rows = session
            .query(
                "PREFIX kgnet: <https://www.kgnet.com/>
                 SELECT ?m ?g WHERE { ?m kgnet:TrainedGeneration ?g }",
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.rows[0][1].as_ref().unwrap().as_int(), Some(trained_against as i64));
    }

    #[test]
    fn a_job_records_the_scope_it_sampled_at() {
        // An unparseable scope falls back to the task's default, and that
        // default, not the request text, is what the artifact and KGMeta
        // record.
        let server = fast_server(73);
        let mut req = nc_request("bogus-scope");
        req.sampler = "bogus".into();
        let id = server.submit_train(req).unwrap();
        let done = server.wait(id).unwrap();
        let JobState::Done { model_uri } = &done.state else { panic!("job failed: {done:?}") };

        let manager = server.manager();
        let artifact = manager.read().trainer().model_store().get(model_uri).unwrap();
        assert_eq!(artifact.sampler, "d1h1");
        let mut session = server.read_session();
        let rows = session
            .query(
                "PREFIX kgnet: <https://www.kgnet.com/>
                 SELECT ?s WHERE { ?m kgnet:Sampler ?s }",
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.rows[0][0].as_ref().unwrap().as_literal(), Some("d1h1"));
    }

    #[test]
    fn read_session_pins_its_snapshot_until_refresh() {
        let server = fast_server(43);
        let mut session = server.read_session();
        let q = "PREFIX dblp: <https://www.dblp.org/> \
                 SELECT (COUNT(*) AS ?n) WHERE { ?p a dblp:Publication }";
        let first = session.query(q).unwrap();
        let second = session.query(q).unwrap();
        assert_eq!(first, second);
        let stats = session.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // A committed write does not perturb the pinned session: its plan
        // stays valid for its version and keeps hitting.
        let mut writer = server.write_session();
        writer
            .execute(
                "INSERT DATA { <http://x/extra> a <https://www.dblp.org/Publication> . \
                 <http://x/extra> <https://www.dblp.org/title> \"extra\" }",
            )
            .unwrap();
        writer.commit();
        let third = session.query(q).unwrap();
        assert_eq!(first, third, "pinned snapshot must not see the commit");
        assert_eq!(session.cache_stats().hits, 2);

        // Refresh re-pins onto the new version: one more plan compile, and
        // the count now includes the inserted publication.
        let pinned = session.generation();
        let refreshed = session.refresh();
        assert!(refreshed > pinned);
        let fourth = session.query(q).unwrap();
        assert_ne!(first, fourth, "refreshed session must see the commit");
        assert_eq!(session.cache_stats().misses, 2);
    }

    #[test]
    fn plan_cache_is_shared_across_sessions() {
        let server = fast_server(71);
        let q = "PREFIX dblp: <https://www.dblp.org/> \
                 SELECT (COUNT(*) AS ?n) WHERE { ?p a dblp:Publication }";
        let mut first = server.read_session();
        first.query(q).unwrap();
        assert_eq!((first.cache_stats().hits, first.cache_stats().misses), (0, 1));

        // A second session on the same version hits the plan the first one
        // compiled, without ever having prepared it itself.
        let mut second = server.read_session();
        second.query(q).unwrap();
        assert_eq!((second.cache_stats().hits, second.cache_stats().misses), (1, 0));

        // Server-wide totals aggregate both sessions.
        let total = server.plan_cache_stats();
        assert_eq!((total.hits, total.misses, total.entries), (1, 1, 1));
    }

    #[test]
    fn read_session_rejects_writes() {
        let server = fast_server(47);
        let mut session = server.read_session();
        let err =
            session.query("INSERT DATA { <http://x/a> <http://x/p> <http://x/b> }").unwrap_err();
        assert!(matches!(err, kgnet_sparqlml::MlError::ReadOnly));
    }

    #[test]
    fn write_session_commit_publishes_and_abort_discards() {
        let server = fast_server(73);
        let before = server.store().generation();
        let len_before = server.store().len();

        // Abort path: the mutation is visible inside the session
        // (read-your-writes) but never published.
        let mut aborted = server.write_session();
        aborted.execute("INSERT DATA { <http://x/a> <http://x/p> <http://x/b> }").unwrap();
        assert_eq!(aborted.store().len(), len_before + 1);
        aborted.abort();
        assert_eq!(server.store().generation(), before, "abort must not publish");
        assert_eq!(server.store().len(), len_before);

        // Drop path behaves identically to abort.
        {
            let mut dropped = server.write_session();
            dropped.with_store(|st| {
                st.insert(
                    kgnet_rdf::Term::iri("http://x/c"),
                    kgnet_rdf::Term::iri("http://x/p"),
                    kgnet_rdf::Term::iri("http://x/d"),
                );
            });
        }
        assert_eq!(server.store().len(), len_before, "drop must discard the pending version");

        // Commit path publishes atomically.
        let mut committed = server.write_session();
        assert_eq!(committed.base_generation(), before);
        committed.execute("INSERT DATA { <http://x/a> <http://x/p> <http://x/b> }").unwrap();
        let published = committed.commit();
        assert!(published > before);
        assert_eq!(server.store().generation(), published);
        assert_eq!(server.store().len(), len_before + 1);
    }

    #[test]
    fn retained_versions_surface_session_pins() {
        let server = fast_server(61);
        let base = server.store().generation();
        let session = server.read_session(); // pins the current version
        let mut writer = server.write_session();
        writer.execute("INSERT DATA { <http://x/a> <http://x/p> <http://x/b> }").unwrap();
        writer.commit();

        let retained = server.retained_versions();
        assert_eq!(retained.len(), 2, "pinned old version + current: {retained:?}");
        assert_eq!(retained[0].generation, base);
        assert_eq!(retained[0].pins, 1);
        assert!(!retained[0].is_current);
        assert!(retained[1].is_current);

        drop(session);
        let retained = server.retained_versions();
        assert_eq!(retained.len(), 1, "dropping the session frees the old version");
        assert!(retained[0].is_current);
    }

    #[test]
    fn cancelled_queued_job_registers_nothing() {
        // The real training runner behind a gate: the single worker parks
        // inside `first` until the test releases it, so the cancel of
        // `second` deterministically lands while it is still queued (no
        // reliance on training being slower than the test thread).
        use std::sync::mpsc;
        use std::sync::Mutex;

        let (kg, _) = generate_dblp(&DblpConfig::tiny(53));
        let store = SharedStore::new(kg);
        let trainer = QueryManager::new(ManagerConfig::default()).trainer().clone();
        let retired = Arc::new(RetiredModels::new(trainer.model_store().clone()));
        let real = train_runner(store, trainer.clone(), retired, Arc::new(ServerMetrics::new()));
        let (started_tx, started_rx) = mpsc::channel();
        let (proceed_tx, proceed_rx) = mpsc::channel::<()>();
        let proceed = Mutex::new(proceed_rx);
        let gated: Arc<JobRunner> = Arc::new(move |req, cancel, probe| {
            started_tx.send(()).unwrap();
            proceed.lock().unwrap().recv().unwrap();
            real(req, cancel, probe)
        });
        let cfg = QueueConfig { max_concurrent: 1, ..Default::default() };
        let queue = JobQueue::new(cfg, gated);

        let running = queue.submit(nc_request("first")).unwrap();
        started_rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        let doomed = queue.submit(nc_request("second")).unwrap();
        assert!(queue.cancel(doomed), "cancel of the queued job must be acknowledged");
        assert_eq!(queue.status(doomed).unwrap().state, JobState::Cancelled);
        proceed_tx.send(()).unwrap();
        let first = queue.wait(running).unwrap();
        assert!(matches!(first.state, JobState::Done { .. }), "first job failed: {first:?}");
        assert_eq!(queue.wait(doomed).unwrap().state, JobState::Cancelled);
        assert_eq!(trainer.model_store().len(), 1, "cancelled job left a model");
    }

    #[test]
    fn cancelling_a_running_job_stops_it_mid_training() {
        // The job is configured with a training horizon far beyond what the
        // test would tolerate; the epoch-boundary cancellation checkpoint
        // must end it early, report Cancelled and register nothing.
        let server = fast_server(57);
        let mut req = nc_request("marathon");
        req.cfg = GnnConfig { epochs: 200_000, dropout: 0.0, ..GnnConfig::fast_test() };
        let id = server.submit_train(req).unwrap();
        // Wait until the worker has actually picked the job up.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            match server.job(id).map(|j| j.state) {
                Some(JobState::Running) => break,
                Some(JobState::Queued) => {
                    assert!(std::time::Instant::now() < deadline, "job never started running");
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                other => panic!("job reached {other:?} without being cancelled"),
            }
        }
        assert!(server.cancel(id));
        let finished = server.wait(id).unwrap();
        assert_eq!(finished.state, JobState::Cancelled);
        let manager = server.manager();
        assert_eq!(manager.read().trainer().model_store().len(), 0, "cancelled job left a model");
    }

    #[test]
    fn similarity_search_needs_no_store_access() {
        let server = fast_server(61);
        let mut writer = server.write_session();
        writer
            .execute(
                r#"PREFIX dblp: <https://www.dblp.org/>
                   PREFIX kgnet: <https://www.kgnet.com/>
                   INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
                     {Name: 'paper-sim', GML-Task:{ TaskType: kgnet:NodeSimilarity,
                        TargetNode: dblp:Publication}})}"#,
            )
            .unwrap();
        writer.commit();
        let manager = server.manager();
        let (model_uri, probe) = {
            let guard = manager.read();
            let uri = guard.trainer().model_store().uris().pop().unwrap();
            let artifact = guard.trainer().model_store().get(&uri).unwrap();
            let kgnet_gmlaas::ArtifactPayload::NodeSimilarity { store } = &artifact.payload else {
                panic!("expected a similarity payload")
            };
            let probe = store.keys().next().unwrap().to_owned();
            (uri, probe)
        };
        let session = server.read_session();
        // Hold an open write transaction across the search: the similarity
        // path touches neither the store versions nor the writer gate, so
        // this cannot block or deadlock.
        let txn = server.store().begin();
        let hits = session.similar_nodes(&model_uri, &probe, 3).unwrap();
        txn.abort();
        assert!(!hits.is_empty());
        assert_eq!(hits[0].0, probe, "self-query must rank the probe node first");
        assert!(session.similar_nodes(&model_uri, "http://nope/x", 3).unwrap().is_empty());
        let err = session.similar_nodes("http://kgnet/nope", &probe, 3).unwrap_err();
        assert!(matches!(err, kgnet_sparqlml::MlError::Service(_)));
    }

    #[test]
    fn write_session_trains_synchronously_via_sparql_ml() {
        let server = fast_server(59);
        let mut writer = server.write_session();
        let out = writer
            .execute(
                r#"PREFIX dblp: <https://www.dblp.org/>
                   PREFIX kgnet: <https://www.kgnet.com/>
                   INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
                     {Name: 'pv', GML-Task:{ TaskType: kgnet:NodeClassifier,
                        TargetNode: dblp:Publication, NodeLabel: dblp:publishedIn},
                      Method: 'GCN'})}"#,
            )
            .unwrap();
        writer.commit();
        assert!(matches!(out, MlOutcome::Trained(_)));
        let mut session = server.read_session();
        assert_eq!(session.query(PV_QUERY).unwrap().len(), 60);
    }

    const DELETE_NC: &str = r#"PREFIX dblp: <https://www.dblp.org/>
        PREFIX kgnet: <https://www.kgnet.com/>
        DELETE { ?m ?p ?o } WHERE {
          ?m a kgnet:NodeClassifier . ?m kgnet:TargetNode dblp:Publication . }"#;

    /// A completed queued NC job's model URI.
    fn trained_nc(server: &KgServer) -> String {
        let id = server.submit_train(nc_request("paper-venue")).unwrap();
        match server.wait(id).unwrap().state {
            JobState::Done { model_uri } => model_uri,
            other => panic!("job failed: {other:?}"),
        }
    }

    fn registered(server: &KgServer, uri: &str) -> bool {
        server.manager().read().trainer().model_store().get(uri).is_some()
    }

    #[test]
    fn pinned_reader_keeps_a_deleted_model_until_its_pin_drops() {
        let server = fast_server(41);
        // A version from before the model was trained never lists it, so
        // this pin does not hold the artifact back.
        let _before_training = server.read_session();
        let uri = trained_nc(&server);
        let mut pinned = server.read_session();
        let before = pinned.query(PV_QUERY).unwrap();
        assert_eq!(before.len(), 60);

        let mut writer = server.write_session();
        let out = writer.execute(DELETE_NC).unwrap();
        assert!(matches!(&out, MlOutcome::DeletedModels(uris) if *uris == [uri.clone()]));
        writer.commit();

        // The pinned version still lists the model, so its artifact stays
        // and the answer is the same; a new session finds no model.
        assert_eq!(pinned.query(PV_QUERY).unwrap(), before);
        let err = server.read_session().query(PV_QUERY).unwrap_err();
        assert!(matches!(err, kgnet_sparqlml::MlError::NoModel(_)), "{err}");
        assert!(registered(&server, &uri));

        // Dropping the pin frees nothing by itself; the next commit sweeps.
        drop(pinned);
        assert!(registered(&server, &uri));
        server.write_session().commit();
        assert!(!registered(&server, &uri), "the artifact outlived every version listing it");
    }

    #[test]
    fn a_repeated_ml_select_hits_its_plan_and_still_calls_once_per_execution() {
        let server = fast_server(41);
        trained_nc(&server);
        let mut session = server.read_session();
        let explained = server.manager().read().explain(session.snapshot(), PV_QUERY).unwrap();
        assert_eq!(explained.steps[0].plan, kgnet_sparqlml::RewritePlan::Dictionary);
        let calls = || server.manager().read().service().stats().calls;
        let cache = |session: &ReadSession| {
            let stats = session.cache_stats();
            (stats.hits, stats.misses)
        };

        let before = calls();
        let first = session.query(PV_QUERY).unwrap();
        assert_eq!(first.len(), 60);
        assert_eq!(calls(), before + 1);
        assert_eq!(cache(&session), (0, 1));

        // The second run reuses the plan (no parse, no model selection) but
        // fetches the dictionary again: the plan holds no predictions.
        let second = session.query(PV_QUERY).unwrap();
        assert_eq!(second, first);
        assert_eq!(calls(), before + 2, "a cached Dictionary plan makes one call per execution");
        assert_eq!(cache(&session), (1, 1));

        let (profiled, profile) = session.query_profiled(PV_QUERY).unwrap();
        assert_eq!(profiled, first);
        assert_eq!(calls(), before + 3);
        assert_eq!(cache(&session), (2, 1));
        assert_eq!(profile.name, "sparql-ml", "a hit is rooted by its plan, not by a parse");
        assert!(profile.children.iter().any(|c| c.name.starts_with("infer ")), "{profile:?}");
    }

    #[test]
    fn a_pinned_session_keeps_its_cached_ml_plan_across_a_model_delete() {
        let server = fast_server(43);
        trained_nc(&server);
        let mut pinned = server.read_session();
        let before = pinned.query(PV_QUERY).unwrap();
        assert_eq!(before.len(), 60);

        let mut writer = server.write_session();
        writer.execute(DELETE_NC).unwrap();
        writer.commit();

        // The pin's generation still lists the model, so its cached plan
        // keeps hitting and its artifact still answers.
        for hits in 1..=2 {
            assert_eq!(pinned.query(PV_QUERY).unwrap(), before);
            let stats = pinned.cache_stats();
            assert_eq!((stats.hits, stats.misses), (hits, 1));
        }

        // On the new generation the lookup misses, and preparing finds no
        // model; a plan that fails to prepare is neither cached nor counted.
        pinned.refresh();
        let err = pinned.query(PV_QUERY).unwrap_err();
        assert!(matches!(err, kgnet_sparqlml::MlError::NoModel(_)), "{err}");
        let stats = pinned.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn aborted_model_writes_leave_registry_and_kgmeta_unchanged() {
        let server = fast_server(43);
        let uri = trained_nc(&server);
        let state = || {
            let mut uris = server.manager().read().trainer().model_store().uris();
            uris.sort();
            (server.store().snapshot().to_ntriples(), uris)
        };
        let before = state();
        let train = r#"PREFIX dblp: <https://www.dblp.org/>
            PREFIX kgnet: <https://www.kgnet.com/>
            INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
              {Name: 'doomed', GML-Task:{ TaskType: kgnet:NodeClassifier,
                 TargetNode: dblp:Publication, NodeLabel: dblp:publishedIn},
               Method: 'GCN'})}"#;
        for abort in [true, false] {
            let mut writer = server.write_session();
            let Ok(MlOutcome::Trained(summary)) = writer.execute(train) else {
                panic!("TrainGML failed")
            };
            assert!(registered(&server, &summary.model_uri));
            if abort {
                writer.abort();
            } else {
                drop(writer);
            }
            assert_eq!(state(), before, "TrainGML left a trace (abort: {abort})");

            let mut writer = server.write_session();
            let out = writer.execute(DELETE_NC).unwrap();
            assert!(matches!(&out, MlOutcome::DeletedModels(uris) if *uris == [uri.clone()]));
            if abort {
                writer.abort();
            } else {
                drop(writer);
            }
            assert_eq!(state(), before, "DELETE left a trace (abort: {abort})");
            assert_eq!(server.read_session().query(PV_QUERY).unwrap().len(), 60);
        }
    }

    #[test]
    fn a_queued_model_is_seen_only_after_refresh() {
        let server = fast_server(47);
        let mut session = server.read_session();
        trained_nc(&server);
        let listed = "PREFIX kgnet: <https://www.kgnet.com/> \
                      SELECT ?m WHERE { ?m a kgnet:NodeClassifier }";
        let err = session.query(PV_QUERY).unwrap_err();
        assert!(matches!(err, kgnet_sparqlml::MlError::NoModel(_)), "{err}");
        assert!(session.query(listed).unwrap().is_empty());

        session.refresh();
        assert_eq!(session.query(PV_QUERY).unwrap().len(), 60);
        assert_eq!(session.query(listed).unwrap().len(), 1);
    }
}
