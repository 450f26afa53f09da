//! End-to-end acceptance for the wire-level operational surface: a real
//! frontend on an ephemeral loopback port, concurrent SPARQL and
//! similarity clients while training churns in the background, the
//! `/metrics` body held to the same structural rules as the in-process
//! render, readiness flipping under queue saturation, every client-sent
//! request id landing in the access log, and a graceful
//! shutdown that finishes an in-flight request.

// A raw `TcpStream` holds a request in flight across the shutdown.
#![allow(clippy::disallowed_types)]

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kgnet_datagen::{generate_dblp, DblpConfig};
use kgnet_gml::config::GnnConfig;
use kgnet_gmlaas::TrainRequest;
use kgnet_graph::{GmlTask, NcTask};
use kgnet_http::{client, Client, HttpConfig, HttpServer};
use kgnet_obs::validate_prometheus;
use kgnet_rdf::{RdfStore, Term};
use kgnet_server::{JobState, KgServer, QueueConfig, ServerConfig, METRIC_CATALOG};
use kgnet_sparqlml::ManagerConfig;

const COUNT_QUERY: &str = "PREFIX dblp: <https://www.dblp.org/> \
     SELECT (COUNT(*) AS ?n) WHERE { ?p a dblp:Publication }";

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

/// One Prometheus sample by exact series name (unlabelled metrics only).
fn sample(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            let (n, v) = l.rsplit_once(' ')?;
            if n == name {
                v.parse().ok()
            } else {
                None
            }
        })
        .unwrap_or_else(|| panic!("no sample for {name}"))
}

#[test]
fn frontend_serves_queries_and_probes_under_churn() {
    let (kg, _) = generate_dblp(&DblpConfig::tiny(29));
    let server = Arc::new(KgServer::new(
        kg,
        ServerConfig {
            manager: ManagerConfig { default_cfg: GnnConfig::fast_test(), ..Default::default() },
            queue: QueueConfig { max_concurrent: 1, max_pending: 1, ..Default::default() },
            slow_query: Duration::from_nanos(1),
        },
    ));

    // A similarity model for `/similar`, trained synchronously up front.
    let (sim_model, probe_node) = {
        let mut writer = server.write_session();
        writer
            .execute(
                r#"PREFIX dblp: <https://www.dblp.org/>
                   PREFIX kgnet: <https://www.kgnet.com/>
                   INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
                     {Name: 'wire-sim', GML-Task:{ TaskType: kgnet:NodeSimilarity,
                        TargetNode: dblp:Publication}})}"#,
            )
            .unwrap();
        writer.commit();
        let manager = server.manager();
        let guard = manager.read();
        let uri = guard.trainer().model_store().uris().pop().unwrap();
        let artifact = guard.trainer().model_store().get(&uri).unwrap();
        let kgnet_gmlaas::ArtifactPayload::NodeSimilarity { store } = &artifact.payload else {
            panic!("expected a similarity payload")
        };
        let probe = store.keys().next().unwrap().to_owned();
        (uri, probe)
    };

    let http = HttpServer::start(Arc::clone(&server), HttpConfig::default()).expect("bind");
    let addr = http.addr();

    // Training churns in the background while the wire traffic runs.
    let churn = server.submit_train(nc_request("churn")).unwrap();

    let handles: Vec<_> = (0..4)
        .map(|worker| {
            let similar_body =
                format!("{{\"model\":\"{sim_model}\",\"node\":\"{probe_node}\",\"k\":3}}");
            std::thread::spawn(move || {
                let mut conn = Client::connect(addr).expect("client connect");
                for round in 0..10 {
                    if (worker + round) % 2 == 0 {
                        let id = format!("client-{worker}-{round}");
                        let r = conn
                            .request(
                                "POST",
                                "/sparql",
                                &[("X-Request-Id", id.as_str())],
                                COUNT_QUERY.as_bytes(),
                            )
                            .expect("sparql over the wire");
                        assert_eq!(r.status, 200, "{}", r.text());
                        assert_eq!(r.header("x-request-id"), Some(id.as_str()), "id must echo");
                        assert!(r.text().contains("\"vars\":[\"n\"]"), "{}", r.text());
                    } else {
                        let r = conn
                            .post("/similar", similar_body.as_bytes())
                            .expect("similar over the wire");
                        assert_eq!(r.status, 200, "{}", r.text());
                        assert!(r.text().contains("\"node\":"), "{}", r.text());
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let done = server.wait(churn).unwrap();
    assert!(matches!(done.state, JobState::Done { .. }), "churn job failed: {done:?}");

    let mut conn = Client::connect(addr).unwrap();

    // `/similar` decodes `\u` escapes, takes the paper's relaxed dialect,
    // and answers 400 to a body that does not parse or lacks a field.
    let plain = format!("{{\"model\":\"{sim_model}\",\"node\":\"{probe_node}\",\"k\":3}}");
    let escaped_node: String = probe_node.chars().map(|c| format!("\\u{:04x}", c as u32)).collect();
    let escaped = format!("{{\"model\":\"{sim_model}\",\"node\":\"{escaped_node}\",\"k\":3}}");
    let relaxed = format!("{{model: '{sim_model}', node: '{probe_node}', k: 3}}");
    let expected = conn.post("/similar", plain.as_bytes()).unwrap().text();
    assert!(expected.contains("\"node\":"), "{expected}");
    for body in [escaped, relaxed] {
        let r = conn.post("/similar", body.as_bytes()).unwrap();
        assert_eq!((r.status, r.text()), (200, expected.clone()), "{body}");
    }
    let missing_node = format!("{{\"model\":\"{sim_model}\"}}");
    for body in
        ["{\"model\": ", "[1, 2]", missing_node.as_str(), r#"{"model":"m","node":"\ud800"}"#]
    {
        assert_eq!(conn.post("/similar", body.as_bytes()).unwrap().status, 400, "{body}");
    }

    // With a 1 ns capture threshold every query is "slow", so the ML
    // SELECT over the fresh model must appear in the slow-query log, its
    // plan carrying the inference step — and therefore on `/slowlog`.
    let r = conn.post("/sparql", PV_QUERY.as_bytes()).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let slowlog = conn.get("/slowlog").unwrap();
    assert_eq!(slowlog.status, 200);
    assert!(
        slowlog.text().contains("infer ?paper <"),
        "ML SELECT missing from the slow-query log: {}",
        slowlog.text()
    );

    // The wire body passes the same structural validation as the
    // in-process render, and the frontend's own series are live.
    let scraped = conn.get("/metrics").unwrap();
    assert_eq!(scraped.status, 200);
    let content_type = scraped.header("content-type");
    assert!(
        content_type.is_some_and(|ct| ct.starts_with("text/plain")),
        "GET /metrics content-type: {content_type:?}, want text/plain"
    );
    let body = scraped.text();
    let kinds = validate_prometheus(&body).expect("wire exposition must validate");
    // Every catalog entry reaches the wire under its declared kind: a
    // refactor that drops or renames an instrument fails here.
    let drift: Vec<String> = METRIC_CATALOG
        .iter()
        .filter_map(|(name, kind)| match kinds.get(*name) {
            Some(k) if k == kind => None,
            Some(k) => Some(format!("{name}: declared {kind}, rendered as {k}")),
            None => Some(format!("{name}: missing from the exposition")),
        })
        .collect();
    assert!(
        drift.is_empty(),
        "catalog drift in the wire scrape of GET /metrics:\n{}",
        drift.join("\n")
    );
    assert_eq!(kinds.get("kgnet_http_requests_total").map(String::as_str), Some("counter"));
    assert!(sample(&body, "kgnet_http_requests_total") >= 41.0, "all requests counted");
    assert!(sample(&body, "kgnet_http_responses_2xx_total") >= 41.0);
    assert!(sample(&body, "kgnet_http_bytes_in_total") > 0.0);
    assert!(sample(&body, "kgnet_http_bytes_out_total") > 0.0);
    assert!(sample(&body, "kgnet_http_request_latency_nanos_count") >= 41.0);
    assert_eq!(conn.get("/healthz").unwrap().status, 200);
    assert_eq!(conn.get("/metrics.json").unwrap().status, 200);
    assert!(conn.get("/debug").unwrap().text().contains("KGNet server debug report"));

    // Readiness: 200 while the queue admits, 503 once saturated (one
    // running marathon + a full pending lane), 200 again after cancels.
    let ready = conn.get("/readyz").unwrap();
    assert_eq!(ready.status, 200, "{}", ready.text());
    let mut marathon = nc_request("marathon");
    marathon.cfg = GnnConfig { epochs: 200_000, dropout: 0.0, ..GnnConfig::fast_test() };
    let running = server.submit_train(marathon).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !matches!(server.job(running).map(|j| j.state), Some(JobState::Running)) {
        assert!(Instant::now() < deadline, "marathon never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    let queued = server.submit_train(nc_request("overflow")).unwrap();
    let saturated = conn.get("/readyz").unwrap();
    assert_eq!(saturated.status, 503, "{}", saturated.text());
    assert!(saturated.text().contains("\"ready\":false"));
    assert!(saturated.text().contains("\"queue_headroom\":0"));
    assert!(server.cancel(queued));
    assert!(server.cancel(running));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let again = conn.get("/readyz").unwrap();
        if again.status == 200 {
            assert!(again.text().contains("\"ready\":true"));
            break;
        }
        assert!(Instant::now() < deadline, "readiness never recovered: {}", again.text());
        std::thread::sleep(Duration::from_millis(10));
    }
    server.wait(running);
    drop(conn);

    // The access log is the one per-request record: every id a worker
    // sent is in it, under the path it was sent to, and nothing else
    // carries a client id.
    let records = http.access_log();
    assert!(records.len() >= 41, "access log too small: {}", records.len());
    for worker in 0..4 {
        for round in (0..10).filter(|round| (worker + round) % 2 == 0) {
            let id = format!("client-{worker}-{round}");
            assert!(
                records.iter().any(|r| r.request_id == id && r.path == "/sparql"),
                "{id} missing from the access log"
            );
        }
    }
    assert_eq!(records.iter().filter(|r| r.request_id.starts_with("client-")).count(), 20);

    // Graceful shutdown: a request whose body is still arriving when the
    // drain starts is finished, answered `Connection: close`, and only
    // then does shutdown return; new connections are refused after.
    let mut inflight = TcpStream::connect(addr).unwrap();
    let head = format!("POST /sparql HTTP/1.1\r\nContent-Length: {}\r\n\r\n", COUNT_QUERY.len());
    inflight.write_all(head.as_bytes()).unwrap();
    inflight.write_all(&COUNT_QUERY.as_bytes()[..10]).unwrap();
    let drain = std::thread::spawn(move || http.shutdown());
    std::thread::sleep(Duration::from_millis(200));
    inflight.write_all(&COUNT_QUERY.as_bytes()[10..]).unwrap();
    let mut reply = Vec::new();
    inflight.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = std::io::Read::read_to_end(&mut inflight, &mut reply);
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 200 "), "in-flight request dropped: {reply:.80}");
    assert!(reply.contains("Connection: close"), "drain must announce the close: {reply:.200}");
    drain.join().expect("shutdown thread");
    assert!(client::get(addr, "/healthz").is_err(), "listener must be gone after shutdown");
    assert_eq!(server.metrics_handle().http_active_connections.get(), 0);
}

/// The cell formulas `POST /sparql` bodies were first written with, kept
/// verbatim as the reference the wire format is pinned to: the term's
/// `to_string()` through a literal escaper that built a new string, then a
/// char-by-char JSON string escaper.
mod reference {
    use kgnet_rdf::{QueryResult, Term};

    fn escape_literal(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                other => out.push(other),
            }
        }
        out
    }

    pub fn display(t: &Term) -> String {
        match t {
            Term::Iri(v) => format!("<{v}>"),
            Term::Literal { lexical, datatype, lang } => {
                let mut out = format!("\"{}\"", escape_literal(lexical));
                if let Some(l) = lang {
                    out.push_str(&format!("@{l}"));
                } else if let Some(dt) = datatype {
                    out.push_str(&format!("^^<{dt}>"));
                }
                out
            }
            Term::Blank(label) => format!("_:{label}"),
        }
    }

    pub fn json_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// A whole `POST /sparql` answer body.
    pub fn body(result: &QueryResult) -> String {
        let mut out = String::from("{\"vars\":[");
        for (i, v) in result.vars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, v);
        }
        out.push_str("],\"rows\":[");
        for (i, row) in result.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, term) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match term {
                    Some(t) => json_string(&mut out, &display(t)),
                    None => out.push_str("null"),
                }
            }
            out.push(']');
        }
        out.push_str("]}\n");
        out
    }
}

mod cell_rendering {
    use kgnet_obs::push_json_escaped;
    use kgnet_rdf::Term;
    use proptest::prelude::*;

    use super::reference;

    /// Characters the escapers treat specially or that span several UTF-8
    /// bytes; every C0 control is drawn besides these.
    const SPECIAL: [char; 14] =
        ['"', '\\', 'a', 'Z', '0', ' ', '<', '>', '@', 'é', '日', '😀', '\u{7f}', '\u{2028}'];

    fn arb_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..32 + SPECIAL.len(), 0..10).prop_map(|picks| {
            picks
                .into_iter()
                .map(|i| if i < 32 { char::from(i as u8) } else { SPECIAL[i - 32] })
                .collect()
        })
    }

    fn arb_term() -> impl Strategy<Value = Term> {
        prop_oneof![
            arb_text().prop_map(Term::Iri),
            arb_text().prop_map(Term::Blank),
            (arb_text(), proptest::option::of(arb_text()), proptest::option::of(arb_text()))
                .prop_map(|(lexical, datatype, lang)| Term::Literal { lexical, datatype, lang }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// A cell rendered piece by piece through the escaping sink equals
        /// the reference formula, and `Display` is unchanged.
        #[test]
        fn rendered_cells_equal_the_reference_formula(t in arb_term()) {
            let mut cell = String::from("\"");
            t.render(|piece| push_json_escaped(&mut cell, piece));
            cell.push('"');
            let mut expected = String::new();
            reference::json_string(&mut expected, &reference::display(&t));
            prop_assert_eq!(&cell, &expected, "{:?}", t);
            prop_assert_eq!(t.to_string(), reference::display(&t));
        }
    }
}

#[test]
fn similar_writes_non_finite_scores_as_null() {
    use kgnet_gml::config::{GmlMethodKind, TrainReport};
    use kgnet_gmlaas::{ArtifactPayload, EmbeddingStore, Metric, ModelArtifact, TaskKind};

    // Served artifacts need not be trained Cosine models: a Dot model with
    // a NaN component scores NaN, an L2 model with an infinite one -inf.
    let server = Arc::new(KgServer::new(RdfStore::new(), ServerConfig::default()));
    for (uri, metric, a) in [
        ("http://x/dot", Metric::Dot, [f32::NAN, 1.0]),
        ("http://x/l2", Metric::L2, [f32::INFINITY, 0.0]),
    ] {
        let mut store = EmbeddingStore::new(2, metric);
        store.add("http://x/a", a.to_vec()).unwrap();
        store.add("http://x/b", vec![1.0, 1.0]).unwrap();
        store.add("http://x/c", vec![0.5, 0.25]).unwrap();
        let artifact = ModelArtifact {
            uri: uri.into(),
            task_kind: TaskKind::NodeSimilarity,
            target_type: "http://x/Paper".into(),
            label_predicate: String::new(),
            destination_type: None,
            method: GmlMethodKind::TransE,
            report: TrainReport {
                method: GmlMethodKind::TransE,
                train_time_s: 0.0,
                peak_mem_bytes: 0,
                test_metric: 0.0,
                valid_metric: 0.0,
                mrr: 0.0,
                loss_curve: Vec::new(),
                n_nodes: 3,
                n_edges: 0,
                inference_time_ms: 0.0,
            },
            sampler: "d1h1".into(),
            cardinality: 3,
            trained_generation: 0,
            payload: ArtifactPayload::NodeSimilarity { store },
        };
        server.manager().read().trainer().model_store().insert(artifact);
    }
    let http = HttpServer::start(server, HttpConfig::default()).expect("bind");
    let mut conn = Client::connect(http.addr()).unwrap();
    for (model, finite) in
        [("http://x/dot", "\"score\":2}"), ("http://x/l2", "\"score\":-0.9013878}")]
    {
        let body = format!("{{\"model\":\"{model}\",\"node\":\"http://x/b\",\"k\":3}}");
        let r = conn.post("/similar", body.as_bytes()).unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        let text = r.text();
        let hits = kgnet_obs::json::parse(&text, |_| None).expect("the body is JSON");
        assert_eq!(hits.as_array().map(|a| a.len()), Some(3), "{text}");
        assert!(text.contains("\"score\":null"), "{text}");
        assert!(text.contains(finite), "finite scores keep their f32 text: {text}");
    }
    http.shutdown();
}

#[test]
fn sparql_body_is_byte_identical_to_the_reference_formula() {
    let objects = [
        Term::str(""),
        Term::str("a\"b\\c"),
        Term::str("\u{1}\t\n\r\u{1f}"),
        Term::str("日本 😀"),
        Term::Literal { lexical: "chat".into(), datatype: None, lang: Some("fr".into()) },
        Term::Literal { lexical: "x\"y".into(), datatype: Some("http://x/dt".into()), lang: None },
        Term::int(7),
        Term::double(-0.5),
        Term::iri("http://x/é\"q"),
        Term::blank("b0"),
    ];
    let mut store = RdfStore::new();
    for (i, o) in objects.iter().enumerate() {
        store.insert(Term::iri(format!("http://x/s{i}")), Term::iri("http://x/p"), o.clone());
    }
    // Only one subject binds ?q: the other rows carry a null cell.
    store.insert(Term::iri("http://x/s1"), Term::iri("http://x/q"), Term::str("tab\there"));
    let text = "SELECT ?s ?o ?q WHERE { ?s <http://x/p> ?o OPTIONAL { ?s <http://x/q> ?q } } \
                ORDER BY ?o";
    let expected = reference::body(&kgnet_rdf::sparql::query(&store, text).unwrap());

    let server = Arc::new(KgServer::new(store, ServerConfig::default()));
    let http = HttpServer::start(server, HttpConfig::default()).expect("bind");
    let r = client::post(http.addr(), "/sparql", text.as_bytes()).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.text(), expected);
    // Spot-check the escaping by hand: the N-Triples escapes are escaped
    // again for JSON, other controls become \u00xx, the rest is verbatim.
    assert!(expected.starts_with(
        r#"{"vars":["s","o","q"],"rows":[["<http://x/s7>","\"-0.5\"^^<http://www.w3.org/2001/XMLSchema#double>",null],"#
    ));
    for cell in [
        r#""\"a\\\"b\\\\c\"""#,
        r#""\"\u0001\\t\\n\\r\u001f\"""#,
        r#""\"日本 😀\"""#,
        r#""\"chat\"@fr""#,
        r#""\"x\\\"y\"^^<http://x/dt>""#,
        r#""<http://x/é\"q>""#,
        r#""_:b0""#,
        r#""\"tab\\there\"""#,
    ] {
        assert!(expected.contains(cell), "{cell} missing from {expected}");
    }
    http.shutdown();
}

#[test]
fn sparql_bodies_the_answer_resolves_are_byte_identical_to_the_reference_formula() {
    let (kg, _) = generate_dblp(&DblpConfig::tiny(31));
    let server = Arc::new(KgServer::new(
        kg,
        ServerConfig {
            manager: ManagerConfig { default_cfg: GnnConfig::fast_test(), ..Default::default() },
            ..Default::default()
        },
    ));
    let job = server.submit_train(nc_request("wire-venue")).unwrap();
    let state = server.wait(job).map(|info| info.state);
    assert!(matches!(state, Some(JobState::Done { .. })), "{state:?}");

    let all_triples = "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }";
    let sub_select = "PREFIX dblp: <https://www.dblp.org/> \
        SELECT ?p ?t WHERE { ?p dblp:title ?t . \
        { SELECT ?p WHERE { ?p dblp:authoredBy ?a } ORDER BY ?p LIMIT 12 } } \
        ORDER BY ?p ?t LIMIT 4 OFFSET 3";
    let bodies = [
        // An empty answer: the columns and no row.
        ("empty", "SELECT ?p ?q WHERE { ?p <http://x/absent> ?q }"),
        // A COUNT literal the store's dictionary does not hold: it
        // resolves from the execution's own terms.
        ("count", all_triples),
        ("sub-SELECT", sub_select),
        // The venue cells are the model's inferred objects.
        ("ML SELECT", PV_QUERY),
    ];
    let http = HttpServer::start(Arc::clone(&server), HttpConfig::default()).expect("bind");
    let mut conn = Client::connect(http.addr()).unwrap();
    let mut session = server.read_session();
    for (name, text) in bodies {
        let result = session.query(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let r = conn.post("/sparql", text.as_bytes()).unwrap();
        assert_eq!(r.status, 200, "{name}: {}", r.text());
        assert_eq!(r.text(), reference::body(&result), "{name}");
        match name {
            "empty" => assert_eq!(r.text(), "{\"vars\":[\"p\",\"q\"],\"rows\":[]}\n"),
            "count" => {
                let n = result.rows[0][0].as_ref().expect("a count is bound");
                assert!(session.snapshot().lookup(n).is_none(), "{name}: {n} is a store term");
            }
            "sub-SELECT" => assert_eq!(result.len(), 4, "{name}"),
            _ => assert!(!result.is_empty() && result.rows.iter().all(|row| row[1].is_some())),
        }
    }
    http.shutdown();
}
