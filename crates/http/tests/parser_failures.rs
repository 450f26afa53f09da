//! Failure-mode coverage for the frontend's incremental parser and
//! accept loop: every malformed, truncated, oversized or stalled request
//! must produce a clean 4xx (or a counted close), bump
//! `kgnet_http_parse_errors_total`, and leave the accept loop serving —
//! never a panic, never a hung connection slot.
//!
//! The raw `TcpStream` writes below are the point of the test (driving
//! the parser with wire garbage the [`kgnet_http::Client`] cannot emit),
//! hence the file-level allow of `clippy.toml`'s socket-type ban.

#![allow(clippy::disallowed_types)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kgnet_datagen::{generate_dblp, DblpConfig};
use kgnet_gml::config::GnnConfig;
use kgnet_http::{client, HttpConfig, HttpServer};
use kgnet_server::{KgServer, ServerConfig};
use kgnet_sparqlml::ManagerConfig;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn tiny_server(seed: u64) -> Arc<KgServer> {
    let (kg, _) = generate_dblp(&DblpConfig::tiny(seed));
    let config = ServerConfig {
        manager: ManagerConfig { default_cfg: GnnConfig::fast_test(), ..Default::default() },
        ..Default::default()
    };
    Arc::new(KgServer::new(kg, config))
}

fn start(server: &Arc<KgServer>) -> HttpServer {
    let config = HttpConfig {
        max_head_bytes: 512,
        max_body_bytes: 256,
        read_timeout_millis: 300,
        ..Default::default()
    };
    HttpServer::start(Arc::clone(server), config).expect("bind loopback")
}

/// Read whatever the peer sends until EOF (bounded by the socket's read
/// timeout) and return it as text.
fn read_to_end(stream: &mut TcpStream) -> String {
    let mut out = Vec::new();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

fn wait_for(deadline_secs: u64, mut probe: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(deadline_secs);
    while Instant::now() < deadline {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn wire_garbage_yields_clean_4xx_and_the_loop_survives() {
    let server = tiny_server(11);
    let http = start(&server);
    let metrics = server.metrics_handle();
    let addr = http.addr();

    // 1. Truncated request: head cut mid-line, then EOF. No response is
    //    owed; the close must be counted as a parse error.
    let before = metrics.http_parse_errors.get();
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /sparql HTTP/1.1\r\nContent-Le").unwrap();
    }
    assert!(
        wait_for(10, || metrics.http_parse_errors.get() > before),
        "truncated request never counted as a parse error"
    );

    // 2. Oversized head: headers growing past the limit draw a 431
    //    without waiting for a terminator that will never come.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /metrics HTTP/1.1\r\n").unwrap();
    let filler = format!("X-Filler: {}\r\n", "f".repeat(600));
    s.write_all(filler.as_bytes()).unwrap();
    let reply = read_to_end(&mut s);
    assert!(reply.starts_with("HTTP/1.1 431 "), "oversized head reply: {reply:.60}");

    // 3. Oversized declared body: rejected from the head alone with 413 —
    //    the server must not stream 100k bytes it will throw away.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /sparql HTTP/1.1\r\nContent-Length: 100000\r\n\r\n").unwrap();
    let reply = read_to_end(&mut s);
    assert!(reply.starts_with("HTTP/1.1 413 "), "oversized body reply: {reply:.60}");

    // 4. Pipelined garbage: a valid request followed by junk in one
    //    write. The valid one is served, the junk draws a 400, and the
    //    connection closes without taking the accept loop with it.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\n\r\nTOTAL GARBAGE\r\n\r\n").unwrap();
    let reply = read_to_end(&mut s);
    assert!(reply.starts_with("HTTP/1.1 200 "), "pipelined healthz reply: {reply:.60}");
    assert!(reply.contains("HTTP/1.1 400 "), "garbage after healthz must draw a 400: {reply:.80}");

    // 5. Slow loris: a partial request trickling in slower than the
    //    read timeout is answered 408 and hung up on.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /metr").unwrap();
    let reply = read_to_end(&mut s);
    assert!(reply.starts_with("HTTP/1.1 408 "), "slow-loris reply: {reply:.60}");

    // 6. Deterministic fuzz: random byte salads never panic the server
    //    and never leak a connection slot.
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..32 {
        let len = rng.gen_range(1..200);
        let junk: Vec<u8> = (0..len).map(|_| rng.gen_range(1u8..=255)).collect();
        let mut s = TcpStream::connect(addr).unwrap();
        let _ = s.write_all(&junk);
        let _ = read_to_end(&mut s);
    }

    // Every failure above was counted, and the frontend still serves.
    assert!(
        metrics.http_parse_errors.get() >= 5,
        "parse errors: {}",
        metrics.http_parse_errors.get()
    );
    let ok = client::get(addr, "/healthz").expect("frontend must still accept");
    assert_eq!(ok.status, 200);
    assert!(
        wait_for(10, || http.active_connections() == 0),
        "a failure case leaked a connection slot"
    );
    http.shutdown();
}

#[test]
fn over_limit_connections_draw_an_immediate_503() {
    let server = tiny_server(13);
    let config = HttpConfig { max_connections: 1, ..Default::default() };
    let http = HttpServer::start(Arc::clone(&server), config).expect("bind loopback");
    let metrics = server.metrics_handle();

    // Occupy the single slot with a live keep-alive connection.
    let mut holder = client::Client::connect(http.addr()).unwrap();
    assert_eq!(holder.get("/healthz").unwrap().status, 200);

    // The next connection is bounced with a 503 before routing.
    let mut s = TcpStream::connect(http.addr()).unwrap();
    let reply = read_to_end(&mut s);
    assert!(reply.starts_with("HTTP/1.1 503 "), "over-limit reply: {reply:.60}");
    assert!(metrics.http_rejected_over_limit.get() >= 1);

    // Releasing the slot restores service.
    drop(holder);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client::get(http.addr(), "/healthz") {
            Ok(r) if r.status == 200 => break,
            _ if Instant::now() >= deadline => panic!("slot never freed"),
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    http.shutdown();
}

#[test]
fn a_request_smuggled_in_chunk_data_is_never_answered() {
    let server = tiny_server(17);
    let http = start(&server);
    let metrics = server.metrics_handle();
    let before = metrics.http_parse_errors.get();

    // The chunk data is a complete request of its own. Read as a bodiless
    // POST, the chunk bytes would be parsed as the next request on the
    // keep-alive connection and the smuggled one could be answered.
    let inner = "GET /healthz HTTP/1.1\r\nX-Request-Id: smuggled\r\n\r\n";
    let wire = format!(
        "POST /sparql HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{inner}\r\n0\r\n\r\n",
        inner.len()
    );
    let mut s = TcpStream::connect(http.addr()).unwrap();
    s.write_all(wire.as_bytes()).unwrap();
    let reply = read_to_end(&mut s);
    assert!(reply.starts_with("HTTP/1.1 400 "), "chunked request reply: {reply:.80}");
    assert!(reply.contains("transfer-encoding"), "the 400 names the refused framing: {reply}");
    assert_eq!(reply.matches("HTTP/1.1 ").count(), 1, "one response, then the close: {reply}");
    assert!(!reply.contains("smuggled"), "the smuggled request was answered: {reply}");
    assert!(metrics.http_parse_errors.get() > before);
    assert_eq!(metrics.http_requests.get(), 0, "no request reached the router");
    http.shutdown();
}
