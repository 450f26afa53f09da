//! The traced run: where an operation's time goes, layer by layer, timed
//! from the benchmark's side of each public call.
//!
//! A traced request is one wire round trip (the root span) followed by the
//! same request replayed in-process stage by stage: session checkout,
//! `ReadSession::query`, and under it the crate-level calls it is made of.
//! Spans stay in memory and are written out when the run ends. A layer's
//! self time is its span's duration minus its children's; self times
//! telescope to the root per request, so `trace.coverage` (sum of the
//! layers' median self times over the root's median) says how far the
//! medians, and the replay, can be trusted — not whether the sum closes.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kgnet::gml::{build_lp_dataset, build_nc_dataset, train_lp, train_nc};
use kgnet::gmlaas::{InferenceRequest, InferenceService, ModelArtifact, TrainRequest};
use kgnet::graph::{SplitRatios, SplitStrategy};
use kgnet::http::{Client, Response};
use kgnet::linalg::memtrack;
use kgnet::rdf::sparql::{
    evaluate_prepared, evaluate_prepared_profiled, parse_select, prepare_select,
};
use kgnet::rdf::Snapshot;
use kgnet::sampler::{meta_sample_task, SamplingScope};
use kgnet::server::SessionPool;
use kgnet::sparqlml::RewritePlan;
use kgnet::{GmlMethodKind, GmlTask};

use crate::drive::{self, OpenLoop, Window};
use crate::env::{peak_rss_mb, secs, train_job_requests, Env};
use crate::gen::Workload;
use crate::json::quote;
use crate::oracle::verify;
use crate::stats;

/// Requests whose exact counts (bytes, inference calls, triples scanned)
/// are reported: a fixed prefix of the seeded sequence, so the counts
/// repeat exactly for one seed however many requests the run has time for.
const COUNTED: usize = 40;
/// Cap on traced requests, which bounds the spans held in memory.
const MAX_TRACED: u32 = 4_000;

/// One timed interval. `parent` indexes the span that caused it (`-1` for a
/// request's root); spans of one request share `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i64,
}

/// The in-memory span log of one traced run.
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, request: u32, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let parent = parent.map_or(-1, |p| p as i64);
        self.spans.push(Span { request, name, start_ns, end_ns: start_ns, parent });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn timed<T>(
        &mut self,
        request: u32,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(request, name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Per request, the summed duration (or self time) in ms of its spans
    /// called `name`; one value per request that has any.
    pub fn per_request_ms(&self, name: &str, self_time: bool) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        if self_time {
            for s in &self.spans {
                if let Ok(parent) = usize::try_from(s.parent) {
                    child_ns[parent] += s.end_ns - s.start_ns;
                }
            }
        }
        let mut by_request: BTreeMap<u32, f64> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns).filter(|(s, _)| s.name == name) {
            let ns = (s.end_ns - s.start_ns) as f64 - children as f64;
            *by_request.entry(s.request).or_insert(0.0) += ns / 1e6;
        }
        by_request.into_values().collect()
    }

    /// Sum over every layer of (median self time x share of requests the
    /// layer appears in), over the median duration of the `root` spans.
    pub fn coverage(&self, root: &str, requests: usize) -> f64 {
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let layers: f64 = names
            .iter()
            .map(|name| {
                let selfs = self.per_request_ms(name, true);
                let presence = selfs.len() as f64 / requests.max(1) as f64;
                stats::median(selfs) * presence
            })
            .sum();
        ratio(layers, stats::median(self.per_request_ms(root, false)))
    }

    /// The spans as a JSON array, in recording order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{i},\"request\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{}}}{}\n",
                s.request,
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.parent,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        out
    }
}

/// Every per-layer metric the benchmark prints, with its unit. A metric a
/// workload does not exercise — a stage that is not on its request path, a
/// layer it never calls — prints 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("http.overhead_ms", "ms"),
    ("http.bytes_out_per_op", "B"),
    ("server.checkout_us", "us"),
    ("server.query_ms", "ms"),
    ("server.self_us", "us"),
    ("server.plan_cache_hit_ratio", "ratio"),
    ("server.commit_p50_ms", "ms"),
    ("server.commit_late_share", "ratio"),
    ("server.job_overhead_ms", "ms"),
    ("obs.lock_wait_us_per_op", "us"),
    ("sparqlml.parse_us", "us"),
    ("sparqlml.optimize_ms", "ms"),
    ("sparqlml.inference_calls_per_op", "count"),
    ("sparqlml.inference_bytes_per_op", "B"),
    ("sparqlml.dictionary_plan_share", "ratio"),
    ("gmlaas.infer_ms", "ms"),
    ("rdf.parse_us", "us"),
    ("rdf.plan_us", "us"),
    ("rdf.exec_ms", "ms"),
    ("rdf.scanned_per_row", "count"),
    ("rdf.top_operator_share", "ratio"),
    ("rdf.commit_ms", "ms"),
    ("sampler.sample_ms", "ms"),
    ("sampler.kgprime_share", "ratio"),
    ("graph.transform_ms", "ms"),
    ("gml.train_ms", "ms"),
    ("gml.epoch_ms", "ms"),
    ("gml.peak_tracked_mb", "MB"),
    ("gml.fullkg_time_ratio", "ratio"),
    ("gml.accuracy", "ratio"),
    ("tail.p99_ms", "ms"),
    ("proc.peak_rss_mb", "MB"),
    ("trace.requests", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Span-derived metrics: (metric, span name, self time?, scale from ms).
const SPAN_METRICS: &[(&str, &str, bool, f64)] = &[
    ("http.overhead_ms", "wire", true, 1.0),
    ("server.checkout_us", "server.checkout", false, 1e3),
    ("server.query_ms", "server.query", false, 1.0),
    ("server.self_us", "server.query", true, 1e3),
    ("server.job_overhead_ms", "server.job", true, 1.0),
    ("sparqlml.parse_us", "sparqlml.parse", false, 1e3),
    ("sparqlml.optimize_ms", "sparqlml.optimize", false, 1.0),
    ("gmlaas.infer_ms", "gmlaas.infer", false, 1.0),
    ("rdf.parse_us", "rdf.parse", false, 1e3),
    ("rdf.plan_us", "rdf.plan", false, 1e3),
    ("rdf.exec_ms", "rdf.exec", false, 1.0),
    ("sampler.sample_ms", "sampler.sample", false, 1.0),
    ("graph.transform_ms", "graph.transform", false, 1.0),
    ("gml.train_ms", "gml.train", false, 1.0),
];

/// What a traced run reports.
pub struct Traced {
    /// Per-layer metric values by name (absent = 0).
    pub layers: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub trace: Trace,
}

/// Exact counts over the first `COUNTED` traced requests.
#[derive(Default)]
struct Counts {
    requests: usize,
    bytes_out: u64,
    inference_calls: u64,
    inference_bytes: u64,
    steps: u64,
    dictionary_steps: u64,
    triples_scanned: u64,
    rows: u64,
}

impl Counts {
    fn per_request(&self, total: u64) -> f64 {
        total as f64 / self.requests.max(1) as f64
    }
}

/// The traced run of `env`'s workload, `seconds` long in all: the workload
/// as the untraced run drives it (contention counters, tail), then one
/// untraced client alone (the base the tracing overhead is taken against),
/// then one traced client.
pub fn run(env: &Env, seconds: f64) -> Traced {
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let warm = secs((seconds * 0.1).min(1.0));

    // Phase A: the real client count.
    let wait0 = lock_wait_nanos(env);
    let cache0 = env.server.plan_cache_stats();
    let contended = drive::run(env, env.workload.wire_clients(), warm, secs(seconds * 0.25));
    let wait1 = lock_wait_nanos(env);
    let cache1 = env.server.plan_cache_stats();
    let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    // The counters cover warm-up too, so the denominator is an estimate of
    // every operation of the phase, not only the measured ones.
    let phase_ops = contended.ops_per_s * (warm.as_secs_f64() + seconds * 0.25);
    layers.insert("obs.lock_wait_us_per_op", (wait1 - wait0) / 1e3 / phase_ops.max(1.0));
    layers.insert("server.plan_cache_hit_ratio", ratio(hits as f64, (hits + misses) as f64));
    layers.insert("tail.p99_ms", contended.p99_ms());
    layers.insert("proc.peak_rss_mb", peak_rss_mb());
    if let Some(commits) = &contended.commits {
        let n = commits.latencies_ms.len();
        layers.insert("server.commit_p50_ms", stats::median(commits.latencies_ms.clone()));
        layers.insert("server.commit_late_share", ratio(commits.late as f64, n as f64));
    }
    if let Some(accuracy) = contended.accuracy {
        layers.insert("gml.accuracy", accuracy);
    }
    let mut attempted = contended.attempted;
    let mut failed = contended.failed;

    // Phase B: one untraced client (train-job has one submitter already).
    let solo_p50 = if env.workload == Workload::TrainJob {
        contended.p50_ms()
    } else {
        let solo = drive::run(env, 1, Duration::ZERO, secs(seconds * 0.15));
        attempted += solo.attempted;
        failed += solo.failed;
        solo.p50_ms()
    };

    // Phase C: one traced client for what is left of `seconds`.
    let spent =
        warm.as_secs_f64() + seconds * if env.workload == Workload::TrainJob { 0.25 } else { 0.40 };
    let budget = secs(seconds - spent);
    let mut trace = Trace::new();
    let (requests, root) = if env.workload == Workload::TrainJob {
        (trace_train_ops(env, &mut trace, &mut layers, budget, &mut failed), "op")
    } else {
        (trace_wire(env, &mut trace, &mut layers, budget, &mut failed), "wire")
    };
    attempted += requests as u64;

    for &(metric, span, self_time, scale) in SPAN_METRICS {
        let values = trace.per_request_ms(span, self_time);
        if !values.is_empty() {
            layers.insert(metric, stats::median(values) * scale);
        }
    }
    let traced_p50 = stats::median(trace.per_request_ms(root, false));
    layers.insert("trace.requests", requests as f64);
    layers.insert("trace.coverage", trace.coverage(root, requests));
    layers.insert("trace.overhead_share", ratio(traced_p50, solo_p50) - 1.0);
    Traced { layers, attempted, failed, trace }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// `kgnet_lock_wait_nanos_total` as `GET /metrics` reports it (0 for the
/// workload without a frontend).
fn lock_wait_nanos(env: &Env) -> f64 {
    let Some(frontend) = &env.http else { return 0.0 };
    let body =
        kgnet::http::client::get(frontend.addr(), "/metrics").map(|r| r.text()).unwrap_or_default();
    body.lines()
        .find_map(|l| l.strip_prefix("kgnet_lock_wait_nanos_total")?.trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

// ---------------------------------------------------------------------------
// Wire workloads
// ---------------------------------------------------------------------------

fn trace_wire(
    env: &Env,
    trace: &mut Trace,
    layers: &mut BTreeMap<&'static str, f64>,
    budget: Duration,
    failed: &mut u64,
) -> usize {
    let window = Window::after_warmup(Duration::ZERO, budget);
    let schedule = OpenLoop::commits_from(window.start);
    let mut top_operator = Vec::new();
    let (requests, counts) = std::thread::scope(|scope| {
        let writing = (env.workload == Workload::MixedRw)
            .then(|| scope.spawn(move || drive::writer(env, schedule, window)));
        let mut tracer = WireTracer {
            env,
            trace,
            conn: Client::connect(env.frontend().addr()).expect("connect to the frontend"),
            pool: SessionPool::new(Arc::clone(&env.server), 8),
            service: env.server.manager().read().service().clone(),
            counts: Counts::default(),
        };
        let mut stream = env.mix.stream(env.seed, 0);
        let mut request = 0u32;
        while Instant::now() < window.end && request < MAX_TRACED {
            let index = stream.next_index();
            let ok = if env.workload == Workload::MlSelect {
                tracer.ml(request, index)
            } else {
                let share = tracer.plain(request, index);
                top_operator.extend(share);
                share.is_some()
            };
            *failed += u64::from(!ok);
            request += 1;
        }
        if let Some(writing) = writing {
            let commits = writing.join().expect("writer panicked");
            *failed += commits.failed;
        }
        (request as usize, tracer.counts)
    });

    layers.insert("http.bytes_out_per_op", counts.per_request(counts.bytes_out));
    layers.insert("sparqlml.inference_calls_per_op", counts.per_request(counts.inference_calls));
    layers.insert("sparqlml.inference_bytes_per_op", counts.per_request(counts.inference_bytes));
    layers.insert(
        "sparqlml.dictionary_plan_share",
        ratio(counts.dictionary_steps as f64, counts.steps as f64),
    );
    layers.insert("rdf.scanned_per_row", ratio(counts.triples_scanned as f64, counts.rows as f64));
    layers.insert("rdf.top_operator_share", stats::median(top_operator));
    if env.workload == Workload::MixedRw {
        layers.insert("rdf.commit_ms", quiet_commit_ms(env));
    }
    requests
}

/// The one traced wire client: its connection, the session pool the replay
/// checks out of, and the exact counts it keeps.
struct WireTracer<'a> {
    env: &'a Env,
    trace: &'a mut Trace,
    conn: Client,
    pool: SessionPool,
    service: InferenceService,
    counts: Counts,
}

impl WireTracer<'_> {
    /// The wire round trip of `text` under a root span.
    fn post(&mut self, request: u32, text: &str) -> (usize, Option<Response>) {
        let root = self.trace.open(request, "wire", None);
        let response = self.conn.post("/sparql", text.as_bytes());
        self.trace.close(root);
        (root, response.ok())
    }

    /// What the frontend did with the request, replayed call by call: a
    /// session out of a pool, then `text` through it. Returns the query's
    /// span, whether it succeeded, and the store version it ran on.
    fn replay_query(&mut self, request: u32, root: usize, text: &str) -> (usize, bool, Snapshot) {
        let pool = &self.pool;
        let mut session =
            self.trace.timed(request, "server.checkout", Some(root), || pool.checkout());
        let query = self.trace.open(request, "server.query", Some(root));
        let ok = session.query(text).is_ok();
        self.trace.close(query);
        (query, ok, session.snapshot().clone())
    }

    /// The first `COUNTED` requests leave their exact counts.
    fn counted(&mut self, request: u32) -> Option<&mut Counts> {
        ((request as usize) < COUNTED).then_some(&mut self.counts)
    }

    /// One traced plain SELECT. Returns the share of the execution its most
    /// expensive operator took, or `None` when the answer was wrong.
    fn plain(&mut self, request: u32, index: usize) -> Option<f64> {
        let (spec, answer) = (&self.env.mix.specs[index], &self.env.answers[index]);
        // One reader, so the server-wide miss counter moving means this
        // request missed (the writer of `mixed-rw` never touches the cache).
        let misses = self.env.server.plan_cache_stats().misses;
        let (root, response) = self.post(request, &spec.text);
        let missed = self.env.server.plan_cache_stats().misses > misses;
        let response = response?;
        let ok = response.status == 200 && verify(&response.body, &answer.check);

        // A request that missed the plan cache is replayed under its twin,
        // which misses again; one that hit is replayed as itself, and hits.
        let text = if missed { &spec.twin } else { &spec.text };
        let (query, replayed, snapshot) = self.replay_query(request, root, text);

        // A hit skips parsing and planning, so they are stages of a miss only.
        let trace = &mut *self.trace;
        let prepared = if missed {
            let parsed =
                trace.timed(request, "rdf.parse", Some(query), || parse_select(text)).ok()?;
            trace.timed(request, "rdf.plan", Some(query), || prepare_select(&snapshot, parsed))
        } else {
            prepare_select(&snapshot, parse_select(text).ok()?)
        }
        .ok()?;
        let (rows, exec) = trace
            .timed(request, "rdf.exec", Some(query), || evaluate_prepared(&snapshot, &prepared))
            .ok()?;
        let (_, _, profile) = evaluate_prepared_profiled(&snapshot, &prepared).ok()?;
        let top = profile.ops.iter().map(|op| op.nanos).max().unwrap_or(0);

        if let Some(counts) = self.counted(request) {
            counts.requests += 1;
            counts.bytes_out += response.body.len() as u64;
            counts.triples_scanned += exec.triples_scanned;
            counts.rows += rows.len() as u64;
        }
        (ok && replayed).then(|| ratio(top as f64, profile.total_nanos as f64))
    }

    /// One traced SPARQL-ML SELECT; `false` when the answer was wrong.
    fn ml(&mut self, request: u32, index: usize) -> bool {
        let (spec, answer) = (&self.env.mix.specs[index], &self.env.answers[index]);
        // The service's own counters around the wire request alone: the exact
        // number of inference calls the chosen plan issued (the paper's
        // Figs. 11-12 quantity), untouched by the replay below.
        let before = self.service.stats();
        let (root, response) = self.post(request, &spec.text);
        let after = self.service.stats();
        let Some(response) = response else { return false };
        let ok = response.status == 200 && verify(&response.body, &answer.check);

        let (query, replayed, snapshot) = self.replay_query(request, root, &spec.text);
        let (env, service, trace) = (self.env, &self.service, &mut *self.trace);
        let parsed = trace
            .timed(request, "sparqlml.parse", Some(query), || kgnet::sparqlml::parse(&spec.text));
        // `explain` = model selection + base evaluation + plan choice + rewrite.
        let rewritten = trace.timed(request, "sparqlml.optimize", Some(query), || {
            env.server.manager().read().explain(&snapshot, &spec.text)
        });
        let (Ok(_), Ok(rewritten)) = (parsed, rewritten) else { return false };
        // The request(s) the chosen plan issues: one dictionary fetch, or one
        // call per bound subject.
        let inferred = trace.timed(request, "gmlaas.infer", Some(query), || {
            rewritten.steps.iter().all(|step| match step.plan {
                RewritePlan::Dictionary => service
                    .call(&InferenceRequest::GetNodeClassDict { model: step.model_uri.clone() })
                    .is_ok(),
                RewritePlan::PerBinding => answer.subjects.iter().all(|node| {
                    let model = step.model_uri.clone();
                    service
                        .call(&InferenceRequest::GetNodeClass { model, node: node.clone() })
                        .is_ok()
                }),
            })
        });

        if let Some(counts) = self.counted(request) {
            counts.requests += 1;
            counts.bytes_out += response.body.len() as u64;
            counts.inference_calls += (after.calls - before.calls) as u64;
            counts.inference_bytes +=
                ((after.bytes_in + after.bytes_out) - (before.bytes_in + before.bytes_out)) as u64;
            counts.steps += rewritten.steps.len() as u64;
            counts.dictionary_steps +=
                rewritten.steps.iter().filter(|s| s.plan == RewritePlan::Dictionary).count() as u64;
        }
        ok && replayed && inferred
    }
}

/// Median duration of the writer's batch committed straight through the
/// store (`SharedStore::begin` .. `WriteTxn::commit`) with no reader or
/// session in the way: the storage layer's share of a `mixed-rw` commit.
fn quiet_commit_ms(env: &Env) -> f64 {
    let store = env.server.store();
    let mut millis = Vec::new();
    for round in 0..20u32 {
        let t0 = Instant::now();
        let mut txn = store.begin();
        for j in 0..20 {
            let s = kgnet::rdf::Term::iri(format!("http://bench.kgnet/q/s{j}"));
            let p = kgnet::rdf::Term::iri("http://bench.kgnet/q/p");
            let o = kgnet::rdf::Term::iri(format!("http://bench.kgnet/q/o{}", round % 2));
            let stale = kgnet::rdf::Term::iri(format!("http://bench.kgnet/q/o{}", (round + 1) % 2));
            txn.store_mut().insert(s.clone(), p.clone(), o);
            txn.store_mut().remove(&s, &p, &stale);
        }
        txn.commit();
        millis.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(millis)
}

// ---------------------------------------------------------------------------
// train-job
// ---------------------------------------------------------------------------

/// The in-process replay of one served job: KG' extraction, data
/// transformation and training, each under its own span. Returns the KG'
/// size in triples.
fn replay_job(
    trace: &mut Trace,
    request: u32,
    parent: Option<usize>,
    snapshot: &Snapshot,
    req: &TrainRequest,
    method: GmlMethodKind,
    scope: Option<SamplingScope>,
) -> usize {
    let sampled = scope.map(|scope| {
        trace.timed(request, "sampler.sample", parent, || {
            meta_sample_task(snapshot, &req.task, scope)
        })
    });
    let store = sampled.as_ref().map_or(&**snapshot, |s| &s.store);
    match &req.task {
        GmlTask::NodeClassification(task) => {
            let data = trace.timed(request, "graph.transform", parent, || {
                build_nc_dataset(
                    store,
                    task,
                    SplitStrategy::Random,
                    SplitRatios::default(),
                    req.cfg.seed,
                )
            });
            trace.timed(request, "gml.train", parent, || train_nc(method, &data, &req.cfg));
        }
        GmlTask::LinkPrediction(task) => {
            let data = trace.timed(request, "graph.transform", parent, || {
                build_lp_dataset(store, task, SplitRatios::default(), req.cfg.seed)
            });
            trace.timed(request, "gml.train", parent, || train_lp(method, &data, &req.cfg));
        }
        GmlTask::EntitySimilarity { .. } => unreachable!("train-job submits NC and LP jobs only"),
    }
    store.len()
}

fn trace_train_ops(
    env: &Env,
    trace: &mut Trace,
    layers: &mut BTreeMap<&'static str, f64>,
    budget: Duration,
    failed: &mut u64,
) -> usize {
    let requests = train_job_requests();
    let snapshot = env.server.store().snapshot();
    let deadline = Instant::now() + budget;
    let mut ops = 0u32;
    let mut kgprime_triples = 0usize;
    let mut peak_tracked = 0usize;
    let mut saint_kgprime_ms = Vec::new();
    while ops == 0 || Instant::now() < deadline {
        // The served operation, job by job.
        let root = trace.open(ops, "op", None);
        let mut served: Vec<(usize, Option<Arc<ModelArtifact>>)> = Vec::new();
        for req in requests.iter().cloned() {
            let job = trace.open(ops, "server.job", Some(root));
            let artifact = drive::train_job(env, req);
            trace.close(job);
            served.push((job, artifact));
        }
        trace.close(root);
        let cleaned = drive::delete_models(env);
        let all_done = served.iter().all(|(_, a)| a.is_some());
        *failed += u64::from(!(all_done && cleaned));

        // The replay, under each job's span.
        kgprime_triples = 0;
        for (i, (req, (job, artifact))) in requests.iter().zip(&served).enumerate() {
            let Some(artifact) = artifact else { continue };
            let scope = SamplingScope::parse(&req.sampler).expect("requests name their scope");
            memtrack::reset_peak();
            let t0 = Instant::now();
            kgprime_triples +=
                replay_job(trace, ops, Some(*job), &snapshot, req, artifact.method, Some(scope));
            if i == 0 {
                saint_kgprime_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            peak_tracked = peak_tracked.max(memtrack::peak_bytes());
        }
        ops += 1;
    }

    // The paper's baseline: the first job's method trained on the whole KG,
    // once, against the same pipeline on KG'.
    let t0 = Instant::now();
    replay_job(
        &mut Trace::new(),
        0,
        None,
        &snapshot,
        &requests[0],
        GmlMethodKind::GraphSaint,
        None,
    );
    let full_kg_ms = t0.elapsed().as_secs_f64() * 1e3;

    let epochs: usize = requests.iter().map(|r| r.cfg.epochs).sum();
    let train_ms = stats::median(trace.per_request_ms("gml.train", false));
    layers.insert("gml.epoch_ms", train_ms / epochs.max(1) as f64);
    layers.insert("gml.peak_tracked_mb", peak_tracked as f64 / (1024.0 * 1024.0));
    layers.insert("gml.fullkg_time_ratio", ratio(full_kg_ms, stats::median(saint_kgprime_ms)));
    layers.insert(
        "sampler.kgprime_share",
        ratio(kgprime_triples as f64, (requests.len() * env.kg_triples) as f64),
    );
    ops as usize
}
