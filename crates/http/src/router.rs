//! Endpoint routing and response rendering over one [`KgServer`].
//!
//! Every parsed request flows through [`handle`]: it assigns (or echoes)
//! the request id, opens the root `http.request` span tagged with
//! id/method/path — sessions opened by the handler on the same thread
//! nest their own spans under it — dispatches on `(method, path)`,
//! writes the response, and lands the request in the metric counters and
//! the access log.

use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use kgnet_obs::{push_json_escaped, push_json_string, Ring};
use kgnet_server::metrics::ServerMetrics;
use kgnet_server::{KgServer, SessionPool};
use kgnet_sparqlml::MlError;
use kgnet_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use kgnet_sync::profile::SyncSite;

use crate::parser::Request;
use crate::response::write_response;
use crate::HttpConfig;

/// Requests retained in the access log.
const ACCESS_LOG_CAPACITY: usize = 256;

/// Idle read sessions kept for `POST /sparql` and `POST /similar` between
/// requests.
const SESSION_POOL_CAPACITY: usize = 8;

/// Contention site for the access-log ring (every request thread appends
/// one record through this lock).
static ACCESS_LOG_SITE: SyncSite = SyncSite::new("http.access_log");

/// One completed request, as the access log retains it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// Request id — echoed from `X-Request-Id` or frontend-assigned. The
    /// same id is tagged onto the request's root trace span.
    pub request_id: String,
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Response status.
    pub status: u16,
    /// Request bytes consumed (head + body).
    pub bytes_in: u64,
    /// Response bytes written (head + body).
    pub bytes_out: u64,
    /// From a fully parsed request to its response written, in nanoseconds.
    pub latency_nanos: u64,
}

/// Shared state of one frontend: the served platform plus the frontend's
/// own request-scoped machinery.
pub(crate) struct AppState {
    pub server: Arc<KgServer>,
    pub metrics: Arc<ServerMetrics>,
    pub pool: SessionPool,
    pub access_log: Ring<AccessRecord>,
    /// Raised by shutdown: the accept loop stops, handlers answer with
    /// `Connection: close`, idle keep-alive connections wind down.
    pub drain: AtomicBool,
    /// Connections currently open (accept-loop admission control).
    pub active: AtomicUsize,
    next_request_id: AtomicU64,
    pub config: HttpConfig,
}

impl AppState {
    pub fn new(server: Arc<KgServer>, config: HttpConfig) -> AppState {
        let metrics = server.metrics_handle();
        let pool = SessionPool::new(Arc::clone(&server), SESSION_POOL_CAPACITY);
        AppState {
            server,
            metrics,
            pool,
            access_log: Ring::new(ACCESS_LOG_CAPACITY, &ACCESS_LOG_SITE),
            drain: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            next_request_id: AtomicU64::new(1),
            config,
        }
    }
}

/// Serve one parsed request end to end. `bytes_in` is the wire size of
/// the request (head + body) for the access record; `close` is decided by
/// the connection loop (drain or `Connection: close`).
pub(crate) fn handle(
    state: &AppState,
    req: &Request,
    bytes_in: u64,
    stream: &mut TcpStream,
    close: bool,
) -> io::Result<()> {
    let t0 = Instant::now();
    let request_id = match req.header("x-request-id") {
        Some(id) if !id.is_empty() => id.to_owned(),
        _ => format!("req-{}", state.next_request_id.fetch_add(1, Ordering::Relaxed)),
    };
    state.metrics.http_requests.inc();
    let (status, content_type, body) = {
        // Scoped so the root span closes (and records) before the access
        // log entry is written: a scraper reading `/accesslog` and then
        // `trace_dump()` finds a root span for every logged id.
        let mut span = state.metrics.span("http.request");
        span.tag("request_id", request_id.as_str());
        span.tag("method", req.method.as_str());
        span.tag("path", req.path.as_str());
        route(state, req)
    };
    let bytes_out = write_response(stream, status, content_type, Some(&request_id), &body, close)?;
    let latency = elapsed_nanos(t0);
    state.metrics.http_request_latency.record(latency);
    state.metrics.http_bytes_out.add(bytes_out);
    bump_status_class(&state.metrics, status);
    state.access_log.push(AccessRecord {
        request_id,
        method: req.method.clone(),
        path: req.path.clone(),
        status,
        bytes_in,
        bytes_out,
        latency_nanos: latency,
    });
    Ok(())
}

/// Count one response into its status-class counter.
pub(crate) fn bump_status_class(metrics: &ServerMetrics, status: u16) {
    match status {
        200..=299 => metrics.http_responses_2xx.inc(),
        300..=399 => metrics.http_responses_3xx.inc(),
        400..=499 => metrics.http_responses_4xx.inc(),
        _ => metrics.http_responses_5xx.inc(),
    }
}

pub(crate) fn elapsed_nanos(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

const TEXT: &str = "text/plain; charset=utf-8";
const PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";
const JSON: &str = "application/json";

/// Dispatch on `(method, path)`. Pure with respect to the wire: returns
/// `(status, content type, body)` and leaves serialisation to the caller.
fn route(state: &AppState, req: &Request) -> (u16, &'static str, Vec<u8>) {
    let path = req.path.split('?').next().unwrap_or(&req.path);
    match (req.method.as_str(), path) {
        ("GET", "/metrics") => {
            (200, PROMETHEUS, state.server.metrics().render_prometheus().into_bytes())
        }
        ("GET", "/metrics.json") => (200, JSON, state.server.metrics().render_json().into_bytes()),
        ("GET", "/debug") => (200, TEXT, state.server.debug_report().into_bytes()),
        ("GET", "/healthz") => (200, TEXT, b"ok\n".to_vec()),
        ("GET", "/readyz") => readyz(state),
        ("GET", "/slowlog") => (200, JSON, slowlog_json(state).into_bytes()),
        ("GET", "/traces") => (200, JSON, traces_json(state).into_bytes()),
        ("GET", "/accesslog") => (200, JSON, accesslog_json(state).into_bytes()),
        ("POST", "/sparql") => sparql(state, req),
        ("POST", "/similar") => similar(state, req),
        (
            _,
            "/metrics" | "/metrics.json" | "/debug" | "/healthz" | "/readyz" | "/slowlog"
            | "/traces" | "/accesslog" | "/sparql" | "/similar",
        ) => (405, TEXT, format!("method {} not allowed here\n", req.method).into_bytes()),
        _ => (404, TEXT, format!("no such endpoint: {path}\n").into_bytes()),
    }
}

/// Readiness: the store must be loaded, the training queue must have
/// admission headroom, and the frontend must not be draining.
fn readyz(state: &AppState) -> (u16, &'static str, Vec<u8>) {
    let draining = state.drain.load(Ordering::SeqCst);
    let r = state.server.readiness();
    let ready = r.ready && !draining;
    let body = format!(
        "{{\"ready\":{},\"store_loaded\":{},\"queue_headroom\":{},\"draining\":{}}}\n",
        ready, r.store_loaded, r.queue_headroom, draining
    );
    (if ready { 200 } else { 503 }, JSON, body.into_bytes())
}

fn sparql(state: &AppState, req: &Request) -> (u16, &'static str, Vec<u8>) {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return (400, TEXT, b"query body is not UTF-8\n".to_vec());
    };
    if text.trim().is_empty() {
        return (400, TEXT, b"empty query body\n".to_vec());
    }
    let mut session = state.pool.checkout();
    match session.query(text) {
        Ok(rows) => {
            let mut out = String::from("{\"vars\":[");
            push_string_array(&mut out, rows.vars.iter().map(String::as_str));
            out.push_str("],\"rows\":[");
            for (i, row) in rows.rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                for (j, term) in row.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    // A cell is its term's N-Triples rendering as a JSON
                    // string, escaped piece by piece into the body.
                    match term {
                        Some(t) => {
                            out.push('"');
                            t.render(|piece| push_json_escaped(&mut out, piece));
                            out.push('"');
                        }
                        None => out.push_str("null"),
                    }
                }
                out.push(']');
            }
            out.push_str("]}\n");
            (200, JSON, out.into_bytes())
        }
        Err(e) => ml_error_response(e),
    }
}

fn similar(state: &AppState, req: &Request) -> (u16, &'static str, Vec<u8>) {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return (400, TEXT, b"body is not UTF-8\n".to_vec());
    };
    let Ok(value) = kgnet_obs::json::parse(text, |_| None) else {
        return (400, TEXT, b"body is not valid JSON\n".to_vec());
    };
    let (Some(model), Some(node)) =
        (value.get("model").and_then(|v| v.as_str()), value.get("node").and_then(|v| v.as_str()))
    else {
        return (400, TEXT, b"expected {\"model\",\"node\"[,\"k\"]}\n".to_vec());
    };
    let k = value.get("k").and_then(|v| v.as_u64()).unwrap_or(10) as usize;
    let session = state.pool.checkout();
    match session.similar_nodes(model, node, k) {
        Ok(hits) => {
            let mut out = String::from("[");
            for (i, (uri, score)) in hits.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"node\":");
                push_json_string(&mut out, uri);
                // JSON has no NaN or infinity: a non-finite score (a NaN or
                // infinite embedding component) is `null`, as in
                // `push_json_f64`. Finite scores keep the f32's own text.
                let score = if score.is_finite() { score.to_string() } else { "null".into() };
                out.push_str(&format!(",\"score\":{score}}}"));
            }
            out.push_str("]\n");
            (200, JSON, out.into_bytes())
        }
        Err(e) => ml_error_response(e),
    }
}

/// Client mistakes are 4xx, platform failures 5xx.
fn ml_error_response(e: MlError) -> (u16, &'static str, Vec<u8>) {
    let status = match &e {
        MlError::Sparql(_)
        | MlError::NoModel(_)
        | MlError::SelectionInfeasible
        | MlError::ReadOnly => 400,
        MlError::Train(_) | MlError::Service(_) => 500,
    };
    (status, TEXT, format!("{e}\n").into_bytes())
}

fn slowlog_json(state: &AppState) -> String {
    let mut out = String::from("[");
    for (i, q) in state.server.slow_queries().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"text\":");
        push_json_string(&mut out, &q.text);
        out.push_str(&format!(
            ",\"total_nanos\":{},\"rows\":{},\"triples_scanned\":{},\"plan\":",
            q.total_nanos, q.rows, q.triples_scanned
        ));
        push_json_string(&mut out, &q.plan);
        out.push_str(",\"profile\":");
        push_json_string(&mut out, &q.profile.render());
        out.push('}');
    }
    out.push_str("]\n");
    out
}

fn traces_json(state: &AppState) -> String {
    let mut out = String::from("[");
    for (i, root) in state.server.trace_dump().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_span_json(&mut out, root);
    }
    out.push_str("]\n");
    out
}

fn push_span_json(out: &mut String, node: &kgnet_obs::SpanNode) {
    out.push_str("{\"name\":");
    push_json_string(out, &node.name);
    out.push_str(&format!(",\"nanos\":{},\"rows\":{},\"tags\":{{", node.nanos, node.rows));
    for (i, (k, v)) in node.tags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, k);
        out.push(':');
        push_json_string(out, v);
    }
    out.push_str("},\"children\":[");
    for (i, child) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_span_json(out, child);
    }
    out.push_str("]}");
}

fn accesslog_json(state: &AppState) -> String {
    let mut out = String::from("[");
    for (i, r) in state.access_log.snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"request_id\":");
        push_json_string(&mut out, &r.request_id);
        out.push_str(",\"method\":");
        push_json_string(&mut out, &r.method);
        out.push_str(",\"path\":");
        push_json_string(&mut out, &r.path);
        out.push_str(&format!(
            ",\"status\":{},\"bytes_in\":{},\"bytes_out\":{},\"latency_nanos\":{}}}",
            r.status, r.bytes_in, r.bytes_out, r.latency_nanos
        ));
    }
    out.push_str("]\n");
    out
}

fn push_string_array<'a>(out: &mut String, items: impl Iterator<Item = &'a str>) {
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, item);
    }
}
