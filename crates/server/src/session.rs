//! Read and write sessions over one shared platform.
//!
//! A [`ReadSession`] *pins* an MVCC [`Snapshot`] when it opens and
//! evaluates every plain SPARQL and SPARQL-ML SELECT against that frozen
//! version with zero store locks held — concurrent writers commit new
//! versions without ever blocking it, and the session's results are
//! repeatable until it chooses to [`refresh`](ReadSession::refresh) onto
//! the latest version. That holds for ML answers too: KGMeta is triples
//! in the same version, so the models a query chooses are the pinned
//! version's, and a deleted model's artifact outlives every pin that can
//! still see it. Plans, plain and SPARQL-ML alike, come from the
//! server-wide [`SharedPlanCache`], keyed by the lexer's token stream and
//! the pinned snapshot's generation, so a query planned by any session
//! serves all sessions on the same version; each session keeps its own
//! hit/miss counters on top of the shared totals.
//!
//! [`query`](ReadSession::query) and
//! [`query_profiled`](ReadSession::query_profiled) share one dispatch that
//! takes each step once: probe the plan cache; on a miss parse, prepare
//! the plan — a plain SELECT directly, a SPARQL-ML SELECT through the
//! manager, whose inference steps run inside the same executor — and
//! insert it; then evaluate it (operator-profiled when asked), record the
//! latency, row and scan metrics plus the session totals, and — when the
//! latency crosses the server's slow-query threshold — capture a
//! [`SlowQuery`] into the server's bounded slow-query [`Ring`]. Only a slow
//! query pays for rendering its plan; a fast one pays the comparison.
//!
//! A [`WriteSession`] owns a [`WriteTxn`]: it batches data mutations into
//! a private next version and publishes them in one atomic
//! [`commit`](WriteSession::commit); [`abort`](WriteSession::abort) (or
//! just dropping the session) discards the pending version and no reader
//! ever sees it. Writers are serialised against each other by the store's
//! writer gate but never block readers. SPARQL-ML *model* operations ride
//! the same cycle: a `TrainGML` writes its model's KGMeta triples into the
//! pending version (its artifact enters the registry at once, and leaves
//! it again if the session aborts), and a model DELETE removes them there,
//! its artifacts retired at the committed generation (see
//! [`RetiredModels`]).
//!
//! The query manager holds no mutable state, so nothing takes its lock for
//! writing: it is read-locked while an ML SELECT misses the plan cache and
//! is prepared (not on a hit, nor while it runs), while a write session's
//! operation runs, and to look up an artifact.

use std::sync::Arc;
use std::time::Instant;

use kgnet_obs::{Ring, SpanNode};
use kgnet_sync::profile::SyncSite;
use kgnet_sync::tracked::read_tracked;
use kgnet_sync::RwLock;

use kgnet_gmlaas::{ArtifactPayload, ServiceError};
use kgnet_rdf::sparql::{evaluate_prepared, evaluate_prepared_profiled, prepare_select};
use kgnet_rdf::{PreparedQuery, QueryResult, RdfStore, SharedStore, Snapshot, WriteTxn};
use kgnet_sparqlml::{
    contains_traingml, parse, MlError, MlOutcome, QueryManager, SparqlMlOperation,
};

use crate::cache::{CacheStats, SharedPlanCache};
use crate::metrics::{nanos_since, ServerMetrics};
use crate::retire::RetiredModels;

/// Contention profile of query-manager acquisitions (ML SELECT prepare on
/// a plan-cache miss, write-session operations, artifact lookups). All are
/// shared.
static MANAGER_SITE: SyncSite = SyncSite::new("server.manager.read");

/// One query that crossed the slow threshold, captured with everything a
/// postmortem needs: what ran, how long, how much it touched, and the plan
/// the optimizer actually chose against the session's snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowQuery {
    /// The SPARQL text as submitted.
    pub text: String,
    /// End-to-end latency of the execution.
    pub total_nanos: u64,
    /// Result rows returned.
    pub rows: u64,
    /// Triples scanned while evaluating.
    pub triples_scanned: u64,
    /// The rendered execution plan (operators in execution order, with
    /// cardinality estimates and pushed filters; a SPARQL-ML SELECT adds an
    /// `infer` line per user-defined predicate, naming model and plan).
    pub plan: String,
    /// The span profile of the execution: the full operator tree when the
    /// query ran under `query_profiled`, a single root span otherwise.
    pub profile: SpanNode,
}

/// Per-session resource totals, accumulated across every SELECT the
/// session executed (plain and SPARQL-ML alike).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// SELECTs executed to completion (errors not counted).
    pub queries: u64,
    /// Result rows returned across all of them.
    pub rows: u64,
    /// Triples scanned across all of them.
    pub triples_scanned: u64,
    /// Time this session's thread spent blocked on contended facade locks
    /// inside `query`/`query_profiled` calls.
    pub lock_wait_nanos: u64,
}

/// A concurrent read handle: SELECT-only execution against a pinned
/// snapshot, with shared plan caching.
pub struct ReadSession {
    snapshot: Snapshot,
    store: SharedStore,
    manager: Arc<RwLock<QueryManager>>,
    cache: Arc<SharedPlanCache>,
    metrics: Arc<ServerMetrics>,
    slow_log: Arc<Ring<SlowQuery>>,
    slow_nanos: u64,
    stats: SessionStats,
    hits: u64,
    misses: u64,
}

impl ReadSession {
    pub(crate) fn new(
        store: SharedStore,
        manager: Arc<RwLock<QueryManager>>,
        cache: Arc<SharedPlanCache>,
        metrics: Arc<ServerMetrics>,
        slow_log: Arc<Ring<SlowQuery>>,
        slow_nanos: u64,
    ) -> Self {
        ReadSession {
            snapshot: store.snapshot(),
            store,
            manager,
            cache,
            metrics,
            slow_log,
            slow_nanos,
            stats: SessionStats::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// Execute a plain or SPARQL-ML SELECT against the pinned snapshot.
    /// Updates, `TrainGML` and model DELETEs are rejected with
    /// [`MlError::ReadOnly`] — use a [`WriteSession`] or the server's
    /// training queue.
    ///
    /// Plain and ML SELECTs run through the shared plan cache — a hit skips
    /// parsing and planning, and for an ML SELECT model and plan selection
    /// too (an ML plan's models and plans are its generation's KGMeta's) —
    /// and execute against the snapshot with no lock held; each execution
    /// makes its own inference calls. KGMeta itself is queried like any
    /// data: `SELECT ?m WHERE { ?m a kgnet:NodeClassifier }` lists the
    /// models of the pinned version.
    pub fn query(&mut self, text: &str) -> Result<QueryResult, MlError> {
        self.run(text, false).map(|(rows, _)| rows)
    }

    /// Execute a SELECT with per-operator profiling: the rows plus a span
    /// tree whose root covers the end-to-end evaluation and whose children
    /// carry per-operator *self* times and row counts, so the children's
    /// nanos sum exactly to the root's. Both kinds ride the shared plan
    /// cache like [`query`](Self::query); SPARQL-ML SELECTs, rooted at a
    /// `sparql-ml` node, add one `infer` child per user-defined predicate.
    /// Every operator is profiled. Updates and `TrainGML` are rejected with
    /// [`MlError::ReadOnly`].
    pub fn query_profiled(&mut self, text: &str) -> Result<(QueryResult, SpanNode), MlError> {
        let (rows, profile) = self.run(text, true)?;
        Ok((rows, profile.expect("a profiled run builds its profile")))
    }

    /// The one read dispatch behind [`query`](Self::query) and
    /// [`query_profiled`](Self::query_profiled). Returns the rows and, when
    /// `profiled`, the span tree.
    fn run(
        &mut self,
        text: &str,
        profiled: bool,
    ) -> Result<(QueryResult, Option<SpanNode>), MlError> {
        let metrics = Arc::clone(&self.metrics);
        let _span = metrics.span(if profiled { "read.query_profiled" } else { "read.query" });
        let wait0 = kgnet_sync::profile::thread_wait_nanos();
        let t0 = Instant::now();
        // Plain and SPARQL-ML SELECTs are cached alike, and the key is the
        // token stream classification is a pure function of, so a hit proves
        // this text parses to the cached plan's query. The one exception is
        // `contains_traingml` — `parse` applies it to *raw* text (comments
        // included) before tokenizing — so it gates the probe.
        let cached =
            if contains_traingml(text) { None } else { self.cache.get(self.generation(), text) };
        let prepared = match cached {
            Some(prepared) => {
                self.hits += 1;
                metrics.plan_cache_hits.inc();
                Ok(prepared)
            }
            None => self.prepare(text).map(|prepared| {
                self.misses += 1;
                metrics.plan_cache_misses.inc();
                self.cache.insert(text, prepared)
            }),
        };
        let executed = prepared.and_then(|prepared| {
            let (rows, stats, ops) = if profiled {
                let (rows, stats, ops) = evaluate_prepared_profiled(&self.snapshot, &prepared)?;
                (rows, stats, Some(ops))
            } else {
                let (rows, stats) = evaluate_prepared(&self.snapshot, &prepared)?;
                (rows, stats, None)
            };
            Ok((prepared, rows, stats.triples_scanned, ops))
        });
        let out = executed.map(|(prepared, rows, scanned, ops)| {
            let root = if prepared.infers() { "sparql-ml" } else { "query" };
            let total = nanos_since(t0);
            let n = rows.len() as u64;
            metrics.query_latency.record(total);
            metrics.query_rows.record(n);
            metrics.query_triples_scanned.add(scanned);
            self.stats.queries += 1;
            self.stats.rows += n;
            self.stats.triples_scanned += scanned;
            let profile = match ops {
                Some(ops) => {
                    let mut node = SpanNode::new(root, ops.total_nanos, n);
                    node.children = ops
                        .ops
                        .into_iter()
                        .map(|op| SpanNode::new(op.label, op.nanos, op.rows))
                        .collect();
                    Some(node)
                }
                None => profiled.then(|| SpanNode::new(root, total, n)),
            };
            if total >= self.slow_nanos {
                metrics.slow_queries.inc();
                self.slow_log.push(SlowQuery {
                    text: text.to_owned(),
                    total_nanos: total,
                    rows: n,
                    triples_scanned: scanned,
                    plan: prepared.explain(&self.snapshot),
                    profile: profile.clone().unwrap_or_else(|| SpanNode::new(root, total, n)),
                });
            }
            (rows, profile)
        });
        self.stats.lock_wait_nanos +=
            kgnet_sync::profile::thread_wait_nanos().saturating_sub(wait0);
        out
    }

    /// Parse `text` and plan it against the pinned snapshot: a plain SELECT
    /// directly, a SPARQL-ML SELECT through the manager (model and plan
    /// choice from the snapshot's KGMeta). Every other operation writes.
    fn prepare(&self, text: &str) -> Result<PreparedQuery, MlError> {
        match parse(text)? {
            SparqlMlOperation::PlainSelect(q) => Ok(prepare_select(&self.snapshot, q)?),
            SparqlMlOperation::Select(q) => {
                read_tracked(&self.manager, &MANAGER_SITE).prepare_select(&self.snapshot, &q)
            }
            SparqlMlOperation::PlainUpdate(_)
            | SparqlMlOperation::Train(_)
            | SparqlMlOperation::DeleteModels(_) => Err(MlError::ReadOnly),
        }
    }

    /// Top-k entity-similarity search against a trained NodeSimilarity
    /// model, served without touching the data store at all: the manager
    /// read lock is held only long enough to clone the artifact's `Arc`
    /// out of the model registry, then the exact scan runs against that
    /// shared immutable embedding store — concurrent readers and writers
    /// never wait on it. The model is looked up by URI in the registry,
    /// not in the pinned version's KGMeta: a model trained after the pin
    /// is found, and one whose DELETE has been swept is not.
    pub fn similar_nodes(
        &self,
        model_uri: &str,
        node: &str,
        k: usize,
    ) -> Result<Vec<(String, f32)>, MlError> {
        let artifact =
            read_tracked(&self.manager, &MANAGER_SITE).trainer().model_store().get(model_uri);
        let Some(artifact) = artifact else {
            return Err(MlError::Service(ServiceError::ModelNotFound(model_uri.to_owned())));
        };
        let ArtifactPayload::NodeSimilarity { store } = &artifact.payload else {
            return Err(MlError::Service(ServiceError::WrongTask(format!(
                "{model_uri} is not a similarity model"
            ))));
        };
        let Some(query) = store.get(node) else { return Ok(Vec::new()) };
        let q = query.to_vec();
        let _span = self.metrics.span("read.similar_nodes");
        let t0 = Instant::now();
        let hits = store.search(&q, k);
        self.metrics.ann_search_latency.record(nanos_since(t0));
        self.metrics.ann_candidates.add(store.len() as u64);
        Ok(hits)
    }

    /// Re-pin onto the store's current version, making every commit since
    /// the last pin visible. Returns the new generation. Cached plans for
    /// the new version are picked up from the shared cache automatically.
    pub fn refresh(&mut self) -> u64 {
        self.snapshot = self.store.snapshot();
        self.snapshot.generation()
    }

    /// The pinned snapshot (direct scans, term resolution).
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Generation (MVCC version id) of the pinned snapshot.
    pub fn generation(&self) -> u64 {
        self.snapshot.generation()
    }

    /// This session's accumulated resource totals: queries run, rows
    /// returned, triples scanned, and time spent blocked on contended
    /// locks inside query calls.
    pub fn session_stats(&self) -> SessionStats {
        self.stats
    }

    /// This session's own plan-cache hit/miss counters (`entries` reports
    /// the shared cache's occupancy).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats { hits: self.hits, misses: self.misses, entries: self.cache.stats().entries }
    }

    /// The shared store handle (for re-pinning checks and new sessions).
    pub fn store(&self) -> &SharedStore {
        &self.store
    }
}

/// A write handle owning one open [`WriteTxn`]: data updates, synchronous
/// `TrainGML` and model deletion, batched into a private next version.
///
/// Nothing is visible to readers until [`commit`](Self::commit) publishes
/// the version atomically; [`abort`](Self::abort) — or simply dropping the
/// session — discards every pending mutation, KGMeta included, and removes
/// the artifacts of the models it trained from the registry. Opening a
/// second write session blocks until the first commits or aborts (writers
/// are serialised), but readers are never blocked either way.
pub struct WriteSession {
    txn: WriteTxn,
    store: SharedStore,
    manager: Arc<RwLock<QueryManager>>,
    models: ModelWrites,
    metrics: Arc<ServerMetrics>,
}

/// The models a write session trained and deleted, settled when it ends:
/// on commit the deleted ones are retired, on abort (this type's `Drop`)
/// the trained ones leave the registry.
struct ModelWrites {
    retired: Arc<RetiredModels>,
    trained: Vec<String>,
    deleted: Vec<String>,
}

impl Drop for ModelWrites {
    fn drop(&mut self) {
        for uri in &self.trained {
            self.retired.registry().remove(uri);
        }
    }
}

impl WriteSession {
    pub(crate) fn new(
        store: SharedStore,
        manager: Arc<RwLock<QueryManager>>,
        retired: Arc<RetiredModels>,
        metrics: Arc<ServerMetrics>,
    ) -> Self {
        let models = ModelWrites { retired, trained: Vec::new(), deleted: Vec::new() };
        WriteSession { txn: store.begin(), store, manager, models, metrics }
    }

    /// Execute any SPARQL-ML operation against the pending version. Its
    /// mutations, KGMeta included, stay private until
    /// [`commit`](Self::commit); reads through this session see them
    /// immediately (read-your-writes). A `TrainGML` here trains
    /// *synchronously while this session holds the writer gate*, so
    /// concurrent serving should submit training through the server's job
    /// queue instead.
    pub fn execute(&mut self, text: &str) -> Result<MlOutcome, MlError> {
        let _span = self.metrics.span("write.execute");
        let manager = read_tracked(&self.manager, &MANAGER_SITE);
        let out = manager.update(self.txn.store_mut(), text);
        match &out {
            Ok(MlOutcome::Trained(summary)) => self.models.trained.push(summary.model_uri.clone()),
            Ok(MlOutcome::DeletedModels(uris)) => self.models.deleted.extend(uris.iter().cloned()),
            _ => {}
        }
        out
    }

    /// Run a closure with exclusive access to the pending version (bulk
    /// loads, manual asserts). Mutations bump the pending generation and
    /// stay invisible to readers until [`commit`](Self::commit).
    pub fn with_store<R>(&mut self, f: impl FnOnce(&mut RdfStore) -> R) -> R {
        f(self.txn.store_mut())
    }

    /// Read access to the pending version (this session's own view).
    pub fn store(&self) -> &RdfStore {
        self.txn.store()
    }

    /// Generation of the published version this session branched from.
    pub fn base_generation(&self) -> u64 {
        self.txn.base_generation()
    }

    /// Atomically publish the pending version; every snapshot pinned from
    /// now on sees all of this session's mutations, snapshots pinned
    /// earlier see none. The models this session deleted are retired at
    /// the committed generation, and every retired artifact no retained
    /// version lists is swept. Returns the committed generation.
    pub fn commit(self) -> u64 {
        let WriteSession { txn, store, mut models, metrics, .. } = self;
        let _span = metrics.span("write.commit");
        let t0 = Instant::now();
        models.trained.clear();
        let generation = models.retired.commit(&store, txn, std::mem::take(&mut models.deleted));
        metrics.commit_latency.record(nanos_since(t0));
        metrics.store_generation.set(generation as i64);
        generation
    }

    /// Discard the pending version: readers never observe any of this
    /// session's mutations, and the models it trained leave the registry.
    /// Equivalent to dropping the session; spelled out for call sites that
    /// want the intent visible.
    pub fn abort(self) {}
}
