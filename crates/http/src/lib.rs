//! # kgnet-http
//!
//! Wire-level operational surface: a dependency-free HTTP/1.1 frontend
//! over one [`KgServer`]. The whole serving stack below this crate is
//! in-process; this is the one place the platform touches a socket
//! (`clippy.toml`'s `disallowed-types` bans socket types in every other
//! crate), exposing:
//!
//! | Endpoint | What it serves |
//! |---|---|
//! | `GET /metrics` | Prometheus text exposition of the full catalog |
//! | `GET /metrics.json` | The same catalog as JSON |
//! | `GET /debug` | The human-readable debug report |
//! | `GET /healthz` | Liveness (always 200 while the process serves) |
//! | `GET /readyz` | Readiness: store loaded, queue headroom, not draining |
//! | `GET /slowlog` | Retained slow queries |
//! | `GET /accesslog` | The bounded access-log ring |
//! | `POST /sparql` | SPARQL / SPARQL-ML SELECT (body = query text) |
//! | `POST /similar` | ANN similarity: `{"model","node","k"}` (JSON or the relaxed TrainGML dialect) |
//!
//! Design, deliberately boring: a blocking accept loop hands each
//! connection to its own thread, capped by
//! [`HttpConfig::max_connections`] (over-limit connections get an
//! immediate 503 and a `kgnet_http_rejected_over_limit_total` bump); an
//! incremental parser enforces head/body size limits and a per-request
//! read timeout; responses are written with `Content-Length`, keep-alive
//! by default. Every request gets a request id (an incoming
//! `X-Request-Id` is respected, otherwise one is assigned), echoed on
//! the response and recorded — with method, path, status, byte counts
//! and latency — in the access log, a [`kgnet_obs::Ring`] of the newest
//! 256 requests. `POST /sparql` and
//! `POST /similar` run on pooled read sessions (up to 8 kept idle between
//! requests). [`HttpServer::shutdown`] drains gracefully:
//! in-flight requests complete, new connections stop being accepted.

#![warn(missing_docs)]
// The one crate allowed to name socket types.
#![allow(clippy::disallowed_types)]

pub mod client;
mod parser;
mod response;
mod router;

pub use client::{Client, Response};
pub use router::AccessRecord;

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kgnet_server::KgServer;
use kgnet_sync::atomic::Ordering;
use kgnet_sync::thread;

use parser::{Limits, ParseError};
use router::AppState;

/// Frontend tuning knobs.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`HttpServer::addr`] for the resolved one).
    pub addr: String,
    /// Connections served concurrently; the accept loop answers anything
    /// beyond this with an immediate 503.
    pub max_connections: usize,
    /// Cap on a request head (request line + headers, bytes) — 431 beyond.
    pub max_head_bytes: usize,
    /// Cap on a request body (bytes) — 413 beyond.
    pub max_body_bytes: usize,
    /// Budget for one request to arrive in full once its first byte is
    /// read (slow-loris guard, 408 beyond); also the idle keep-alive
    /// timeout after which a silent connection is closed.
    pub read_timeout_millis: u64,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_connections: 64,
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            read_timeout_millis: 5_000,
        }
    }
}

/// A running frontend: the accept loop plus per-connection threads.
/// Dropping the handle shuts it down gracefully (prefer the explicit
/// [`shutdown`](Self::shutdown) so the drain is visible at the call site).
pub struct HttpServer {
    local_addr: SocketAddr,
    state: Arc<AppState>,
    accept: Option<thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `config.addr` and start serving `server` in background
    /// threads. Returns as soon as the listener is live.
    pub fn start(server: Arc<KgServer>, config: HttpConfig) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(AppState::new(server, config));
        let accept_state = Arc::clone(&state);
        let accept = thread::Builder::new()
            .name("kgnet-http-accept".to_owned())
            .spawn(move || accept_loop(listener, accept_state))?;
        Ok(HttpServer { local_addr, state, accept: Some(accept) })
    }

    /// The resolved bind address (the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Copy of the access-log ring, oldest record first (also served at
    /// `GET /accesslog`).
    pub fn access_log(&self) -> Vec<AccessRecord> {
        self.state.access_log.snapshot()
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> usize {
        self.state.active.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish
    /// (bounded by a drain deadline), then return. Idempotent.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.state.drain.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop sits in a blocking `accept`; one throwaway
        // connection wakes it so it can observe the drain flag.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(500));
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.state.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: TcpListener, state: Arc<AppState>) {
    for conn in listener.incoming() {
        // A connection whose handshake completed before the drain flag
        // rose may only reach userspace now — it is ahead of shutdown's
        // wake-up connection in the backlog, so serve it (its handler
        // answers with `Connection: close`) and break afterwards rather
        // than reset a request already on the wire.
        let draining = state.drain.load(Ordering::SeqCst);
        let Ok(mut stream) = conn else {
            if draining {
                break;
            }
            continue;
        };
        // Admission: reserve a slot first; losing the race means the
        // limit is already spent, so answer 503 inline and move on —
        // the accept loop itself never blocks on a slow client thanks
        // to the write being tiny (fits any socket buffer).
        if state.active.fetch_add(1, Ordering::SeqCst) >= state.config.max_connections {
            state.active.fetch_sub(1, Ordering::SeqCst);
            state.metrics.http_rejected_over_limit.inc();
            state.metrics.http_responses_5xx.inc();
            let _ = response::write_response(
                &mut stream,
                503,
                "text/plain; charset=utf-8",
                None,
                b"connection limit reached\n",
                true,
            );
            // Shutdown's wake-up connection can land here when the last
            // slot is still being released — skipping the drain check
            // below would leave the loop blocked in `accept` forever.
            if draining {
                break;
            }
            continue;
        }
        state.metrics.http_active_connections.add(1);
        let conn_state = Arc::clone(&state);
        let spawned = thread::Builder::new().name("kgnet-http-conn".to_owned()).spawn(move || {
            let _slot = ConnSlot(&conn_state);
            handle_connection(stream, &conn_state);
        });
        if spawned.is_err() {
            drop(ConnSlot(&state));
        }
        if draining {
            break;
        }
    }
}

/// One admitted connection's slot. Dropping it releases the slot and the
/// active-connections gauge, so a handler that panics still frees both
/// instead of leaving the frontend at its connection limit.
struct ConnSlot<'a>(&'a AppState);

impl Drop for ConnSlot<'_> {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
        self.0.metrics.http_active_connections.add(-1);
    }
}

/// Serve one connection: read requests off it (keep-alive, pipelining
/// included) until the peer closes, a protocol error ends it, or a drain
/// finds it idle.
fn handle_connection(mut stream: TcpStream, state: &AppState) {
    let _ = stream.set_nodelay(true);
    let read_timeout = Duration::from_millis(state.config.read_timeout_millis.max(1));
    // Short read ticks so an idle keep-alive connection notices a drain
    // promptly instead of sleeping out its full timeout.
    let tick = read_timeout.min(Duration::from_millis(50));
    if stream.set_read_timeout(Some(tick)).is_err() {
        return;
    }
    let limits = Limits {
        max_head_bytes: state.config.max_head_bytes,
        max_body_bytes: state.config.max_body_bytes,
    };
    let mut buf: Vec<u8> = Vec::new();
    loop {
        // Accumulate one complete request (or die trying).
        let t0 = Instant::now();
        let (request, consumed) = loop {
            match parser::try_parse(&buf, &limits) {
                Ok(Some(parsed)) => break parsed,
                Ok(None) => {}
                Err(e) => {
                    reject(state, &mut stream, e);
                    return;
                }
            }
            if t0.elapsed() >= read_timeout {
                if buf.is_empty() {
                    return; // idle keep-alive expiry: clean close
                }
                // Partial request that never completed: slow-loris or a
                // stalled peer. Answer 408 and hang up.
                state.metrics.http_parse_errors.inc();
                state.metrics.http_responses_4xx.inc();
                let _ = response::write_response(
                    &mut stream,
                    408,
                    "text/plain; charset=utf-8",
                    None,
                    b"request did not arrive in time\n",
                    true,
                );
                return;
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => {
                    if !buf.is_empty() {
                        // EOF mid-request: truncated on the wire.
                        state.metrics.http_parse_errors.inc();
                    }
                    return;
                }
                Ok(n) => {
                    state.metrics.http_bytes_in.add(n as u64);
                    buf.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Idle-at-drain close only AFTER a read confirmed
                    // nothing is pending: request bytes may already sit
                    // in the socket buffer while `buf` is still empty,
                    // and those are in flight, not idle.
                    if state.drain.load(Ordering::SeqCst) && buf.is_empty() {
                        return;
                    }
                    continue;
                }
                Err(_) => return,
            }
        };
        buf.drain(..consumed);
        let close = state.drain.load(Ordering::SeqCst) || request.wants_close();
        if router::handle(state, &request, consumed as u64, &mut stream, close).is_err() || close {
            return;
        }
    }
}

/// Answer a terminal parse failure and count it.
fn reject(state: &AppState, stream: &mut TcpStream, e: ParseError) {
    state.metrics.http_parse_errors.inc();
    router::bump_status_class(&state.metrics, e.status());
    let _ = response::write_response(
        stream,
        e.status(),
        "text/plain; charset=utf-8",
        None,
        format!("{}\n", e.message()).as_bytes(),
        true,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgnet_rdf::RdfStore;
    use kgnet_server::ServerConfig;

    #[test]
    fn a_panicking_handler_releases_its_connection_slot() {
        let server = Arc::new(KgServer::new(RdfStore::new(), ServerConfig::default()));
        let state = AppState::new(server, HttpConfig::default());
        // Admit one connection the way the accept loop does.
        state.active.fetch_add(1, Ordering::SeqCst);
        state.metrics.http_active_connections.add(1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = ConnSlot(&state);
            panic!("handler panicked");
        }));
        assert!(unwound.is_err());
        assert_eq!(state.active.load(Ordering::SeqCst), 0);
        assert_eq!(state.metrics.http_active_connections.get(), 0);
    }
}
