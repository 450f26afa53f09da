//! End-to-end observability: a mixed read/write/train/ANN workload must
//! surface in the server's Prometheus exposition, the span ring, and the
//! per-query profiles.

use std::time::Duration;

use kgnet_datagen::{generate_dblp, DblpConfig};
use kgnet_gml::config::GnnConfig;
use kgnet_gmlaas::TrainRequest;
use kgnet_graph::{GmlTask, NcTask};
use kgnet_server::{JobState, KgServer, ServerConfig, METRIC_CATALOG};
use kgnet_sparqlml::ManagerConfig;

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

const PLAIN_QUERY: &str = "PREFIX dblp: <https://www.dblp.org/> \
     SELECT ?p ?t WHERE { ?p a dblp:Publication . ?p dblp:title ?t }";

/// The value of a plain `name value` sample line in a Prometheus text
/// exposition (not a `# HELP`/`# TYPE` header, not a labeled bucket).
fn metric_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("metric {name} not rendered"))
        .parse()
        .unwrap_or_else(|e| panic!("metric {name} not a u64: {e}"))
}

#[test]
fn mixed_workload_surfaces_in_prometheus_and_traces() {
    let server = fast_server(41);

    // Reads: same query twice — one plan-cache miss, then one hit.
    let mut session = server.read_session();
    let rows = session.query(PLAIN_QUERY).unwrap();
    assert!(!rows.is_empty());
    session.query(PLAIN_QUERY).unwrap();

    // Write: one committed insert.
    let mut writer = server.write_session();
    writer.execute("INSERT DATA { <http://x/a> <http://x/p> <http://x/b> }").unwrap();
    writer.commit();

    // Train: one completed job through the queue, plus a similarity model
    // trained synchronously so an ANN search has something to hit.
    let id = server.submit_train(nc_request("paper-venue")).unwrap();
    let done = server.wait(id).unwrap();
    assert!(matches!(done.state, JobState::Done { .. }), "job failed: {done:?}");

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
    let (model_uri, probe) = {
        let manager = server.manager();
        let guard = manager.read();
        let uri = guard
            .trainer()
            .model_store()
            .uris()
            .into_iter()
            .find(|u| u.contains("sim"))
            .expect("similarity model registered");
        let artifact = guard.trainer().model_store().get(&uri).unwrap();
        let kgnet_gmlaas::ArtifactPayload::NodeSimilarity { store } = &artifact.payload else {
            panic!("expected a similarity payload")
        };
        let probe = store.keys().next().unwrap().to_owned();
        (uri, probe)
    };
    let hits = session.similar_nodes(&model_uri, &probe, 3).unwrap();
    assert!(!hits.is_empty());

    let text = server.metrics().render_prometheus();

    // The full catalog renders, each metric under its declared kind.
    for (name, kind) in METRIC_CATALOG {
        assert!(
            text.contains(&format!("# TYPE {name} {kind}\n")),
            "catalog metric {name} missing from exposition"
        );
    }

    // Query path: two plain SELECTs (one miss, one hit) plus whatever the
    // similarity probe recorded.
    assert!(metric_value(&text, "kgnet_query_latency_nanos_count") >= 2);
    assert!(metric_value(&text, "kgnet_query_rows_count") >= 2);
    assert!(metric_value(&text, "kgnet_query_triples_scanned_total") > 0);
    assert_eq!(metric_value(&text, "kgnet_plan_cache_hits_total"), 1);
    assert!(metric_value(&text, "kgnet_plan_cache_misses_total") >= 1);

    // Write path: two commits (insert + similarity model), live MVCC gauges.
    assert!(metric_value(&text, "kgnet_commit_latency_nanos_count") >= 2);
    assert!(metric_value(&text, "kgnet_store_generation") >= 2);
    assert!(metric_value(&text, "kgnet_retained_versions") >= 1);

    // Job path: one queued job completed, its epochs timed.
    assert!(metric_value(&text, "kgnet_jobs_submitted_total") >= 1);
    assert!(metric_value(&text, "kgnet_jobs_completed_total") >= 1);
    assert_eq!(metric_value(&text, "kgnet_jobs_failed_total"), 0);
    assert!(metric_value(&text, "kgnet_job_duration_nanos_count") >= 1);
    assert!(metric_value(&text, "kgnet_train_epoch_nanos_count") >= 1);

    // ANN path: the similarity search reported its cost.
    assert!(metric_value(&text, "kgnet_ann_search_latency_nanos_count") >= 1);
    assert!(metric_value(&text, "kgnet_ann_candidates_total") > 0);

    // JSON render stays one well-formed object with the same catalog.
    let json = server.metrics().render_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"kgnet_query_latency_nanos\""));

    // The span ring saw the reads, the writes and the ANN search.
    let roots = server.trace_dump();
    let names: Vec<&str> = roots.iter().map(|r| r.name.as_str()).collect();
    assert!(names.contains(&"read.query"), "spans: {names:?}");
    assert!(names.contains(&"write.commit"), "spans: {names:?}");
    assert!(names.contains(&"read.similar_nodes"), "spans: {names:?}");
    // Drained once: a second dump starts empty.
    assert!(server.trace_dump().is_empty());
}

#[test]
fn cancelled_and_rejected_jobs_are_counted() {
    let server = fast_server(57);
    let mut req = nc_request("marathon");
    req.cfg = GnnConfig { epochs: 200_000, dropout: 0.0, ..GnnConfig::fast_test() };
    let id = server.submit_train(req).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        match server.job(id).map(|j| j.state) {
            Some(JobState::Running) => break,
            Some(JobState::Queued) => {
                assert!(std::time::Instant::now() < deadline, "job never started");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            other => panic!("job reached {other:?} before cancel"),
        }
    }
    assert!(server.cancel(id));
    assert_eq!(server.wait(id).unwrap().state, JobState::Cancelled);
    // Forgetting the record must not take the outcome off the books.
    assert!(server.forget(id));
    let text = server.metrics().render_prometheus();
    assert_eq!(metric_value(&text, "kgnet_jobs_submitted_total"), 1);
    assert_eq!(metric_value(&text, "kgnet_jobs_cancelled_total"), 1);
    assert_eq!(metric_value(&text, "kgnet_jobs_completed_total"), 0);
    assert_eq!(metric_value(&text, "kgnet_queue_depth"), 0);
}

#[test]
fn profiled_query_matches_plain_and_sums_to_its_root() {
    let server = fast_server(43);
    let mut session = server.read_session();
    let q = "PREFIX dblp: <https://www.dblp.org/> \
             SELECT ?p ?t ?v WHERE { ?p a dblp:Publication . ?p dblp:title ?t . \
             OPTIONAL { ?p dblp:publishedIn ?v } }";
    let plain = session.query(q).unwrap();
    let (rows, profile) = session.query_profiled(q).unwrap();
    assert_eq!(rows, plain, "profiling must not change results");
    // Cache behaviour matches query(): the profiled run hit the plan the
    // plain run compiled.
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    assert_eq!(profile.name, "query");
    assert_eq!(profile.rows, rows.len() as u64);
    assert!(!profile.children.is_empty(), "no operator children: {}", profile.render());
    // Children carry *self* times: they sum exactly to the end-to-end span.
    assert_eq!(
        profile.child_nanos(),
        profile.nanos,
        "operator self-times must account for the whole query: {}",
        profile.render()
    );
    assert_eq!(profile.self_nanos(), 0);
    let labels: Vec<&str> = profile.children.iter().map(|c| c.name.as_str()).collect();
    assert!(labels.iter().filter(|l| l.starts_with("scan ")).count() >= 2, "labels: {labels:?}");
    assert!(labels.contains(&"optional"), "labels: {labels:?}");
    assert_eq!(*labels.last().unwrap(), "project");

    // The profiled latency landed in the histograms too.
    let text = server.metrics().render_prometheus();
    assert!(metric_value(&text, "kgnet_query_latency_nanos_count") >= 2);
}

#[test]
fn profiled_ml_query_matches_plain_and_sums_to_its_root() {
    // A 1 ns threshold captures every execution into the slow-query log.
    let (kg, _) = generate_dblp(&DblpConfig::tiny(43));
    let config = ServerConfig {
        manager: ManagerConfig { default_cfg: GnnConfig::fast_test(), ..Default::default() },
        slow_query: Duration::from_nanos(1),
        ..Default::default()
    };
    let server = KgServer::new(kg, config);
    let done = server.wait(server.submit_train(nc_request("paper-venue")).unwrap()).unwrap();
    assert!(matches!(done.state, JobState::Done { .. }), "job failed: {done:?}");

    let mut session = server.read_session();
    let q = "PREFIX dblp: <https://www.dblp.org/> PREFIX kgnet: <https://www.kgnet.com/> \
             SELECT ?p ?t ?venue WHERE { ?p a dblp:Publication . ?p dblp:title ?t . \
             ?p ?NodeClassifier ?venue . ?NodeClassifier a kgnet:NodeClassifier . \
             ?NodeClassifier kgnet:TargetNode dblp:Publication . \
             ?NodeClassifier kgnet:NodeLabel dblp:publishedIn . }";
    let plain = session.query(q).unwrap();
    let (rows, profile) = session.query_profiled(q).unwrap();
    assert_eq!(rows, plain, "profiling must not change results");
    assert!(!rows.is_empty());
    // ML SELECTs ride the plan cache: the profiled run hit the plan the
    // first run prepared.
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    // The inference step is one operator of the plain pipeline: the
    // children's self times sum exactly to the root, a hit's too.
    assert_eq!(profile.name, "sparql-ml");
    assert_eq!(profile.rows, rows.len() as u64);
    assert_eq!(
        profile.child_nanos(),
        profile.nanos,
        "operator self-times must account for the whole query: {}",
        profile.render()
    );
    let labels: Vec<&str> = profile.children.iter().map(|c| c.name.as_str()).collect();
    assert!(labels.iter().any(|l| l.starts_with("scan ")), "labels: {labels:?}");
    assert_eq!(*labels.last().unwrap(), "project");
    let infer = profile.children.iter().find(|c| c.name.starts_with("infer ?p <")).unwrap();
    assert_eq!(infer.rows, rows.len() as u64);

    // Both runs reached the slow-query log with their physical plan, and
    // their scans count like a plain query's.
    let slow = server.slow_queries();
    assert_eq!(slow.len(), 2);
    for entry in &slow {
        assert!(entry.plan.contains("\ninfer ?p <"), "plan: {}", entry.plan);
        assert!(entry.plan.contains("project"), "plan: {}", entry.plan);
        assert!(entry.triples_scanned > 0);
    }
    assert_eq!(slow[1].profile.name, "sparql-ml");
    assert!(!slow[1].profile.children.is_empty());
    let totals = session.session_stats();
    assert_eq!(totals.triples_scanned, slow.iter().map(|e| e.triples_scanned).sum::<u64>());
}

#[test]
fn profiled_subselect_query_sums_to_its_root() {
    // A sub-SELECT materialises its inner rows before the outer pipeline
    // joins them — the costliest shape the profiler covers, so pin that
    // its tap nests like every other operator and self-times still sum
    // exactly to the root.
    let server = fast_server(47);
    let mut session = server.read_session();
    let q = "PREFIX dblp: <https://www.dblp.org/> \
             SELECT ?p ?t WHERE { ?p dblp:title ?t . \
             { SELECT ?p WHERE { ?p a dblp:Publication } } }";
    let plain = session.query(q).unwrap();
    let (rows, profile) = session.query_profiled(q).unwrap();
    assert_eq!(rows, plain, "profiling must not change results");
    assert!(!rows.is_empty());

    assert_eq!(profile.name, "query");
    assert_eq!(
        profile.child_nanos(),
        profile.nanos,
        "operator self-times must account for the whole query: {}",
        profile.render()
    );
    let labels: Vec<&str> = profile.children.iter().map(|c| c.name.as_str()).collect();
    assert!(labels.contains(&"subselect join"), "labels: {labels:?}");
    assert_eq!(*labels.last().unwrap(), "project");
    // The subselect operator emitted the joined rows.
    let sub = profile.children.iter().find(|c| c.name == "subselect join").unwrap();
    assert_eq!(sub.rows, rows.len() as u64);
}

#[test]
fn slow_query_log_captures_plan_and_profile() {
    // A 1 ns threshold makes every execution slow, so one run is captured.
    let (kg, _) = generate_dblp(&DblpConfig::tiny(41));
    let config = ServerConfig {
        manager: ManagerConfig { default_cfg: GnnConfig::fast_test(), ..Default::default() },
        slow_query: Duration::from_nanos(1),
        ..Default::default()
    };
    let server = KgServer::new(kg, config);
    let mut session = server.read_session();
    let q = "PREFIX dblp: <https://www.dblp.org/> \
             SELECT ?p ?t ?q WHERE { ?p dblp:title ?t . ?q a dblp:Publication . \
             { SELECT ?p WHERE { ?p a dblp:Publication } } }";
    session.query_profiled(q).unwrap();

    let slow = server.slow_queries();
    assert_eq!(slow.len(), 1);
    let entry = &slow[0];
    assert_eq!(entry.text, q);
    assert!(entry.total_nanos >= 1, "below threshold: {}", entry.total_nanos);
    assert!(entry.rows > 0);
    assert!(entry.triples_scanned > 0);
    // The captured plan is the rendered execution plan, not a placeholder.
    assert!(entry.plan.contains("subselect join"), "plan: {}", entry.plan);
    assert!(entry.plan.contains("project"), "plan: {}", entry.plan);
    // Profiled runs capture the full operator tree.
    assert_eq!(entry.profile.name, "query");
    assert!(!entry.profile.children.is_empty());
    // The slow-query counter matches the log.
    let text = server.metrics().render_prometheus();
    assert!(metric_value(&text, "kgnet_slow_queries_total") >= slow.len() as u64);

    // The session totals saw the same execution.
    let stats = session.session_stats();
    assert_eq!(
        (stats.queries, stats.rows, stats.triples_scanned),
        (1, entry.rows, entry.triples_scanned)
    );
}

#[test]
fn debug_report_renders_every_section() {
    let server = fast_server(53);
    let mut session = server.read_session();
    // Twice, so the second run is a plan-cache hit.
    session.query(PLAIN_QUERY).unwrap();
    session.query(PLAIN_QUERY).unwrap();
    let id = server.submit_train(nc_request("reported")).unwrap();
    let done = server.wait(id).unwrap();
    assert!(matches!(done.state, JobState::Done { .. }), "job failed: {done:?}");
    let usage = done.usage.expect("finished job carries usage");
    assert!(usage.triples_sampled > 0, "runner reports sampled triples");
    assert!(usage.epochs > 0, "runner reports completed epochs");
    assert!(usage.wall_nanos > 0);
    assert!(
        usage.busy_nanos <= usage.wall_nanos.saturating_mul(usage.pool_threads),
        "busy {} > wall {} x threads {}",
        usage.busy_nanos,
        usage.wall_nanos,
        usage.pool_threads
    );

    let report = server.debug_report();
    for section in [
        "== KGNet server debug report ==",
        "-- lock sites",
        "-- thread pools",
        "-- slow queries",
        "-- training jobs",
        "-- metrics",
    ] {
        assert!(report.contains(section), "missing section {section:?} in:\n{report}");
    }
    // The job and its usage line render.
    assert!(report.contains("reported"), "job name missing:\n{report}");
    assert!(report.contains("triples sampled"), "usage line missing:\n{report}");
    // Lock sites seen by this workload are listed with their counts.
    assert!(report.contains("server.queue_state"), "queue-state site missing:\n{report}");

    // And the per-site gauges surface in the exposition after refresh.
    let text = server.metrics().render_prometheus();
    assert!(metric_value(&text, "kgnet_lock_site_server_queue_state_acquires") > 0);
    assert!(
        metric_value(&text, "kgnet_lock_site_server_plan_cache_acquires") > 0,
        "kgnet_lock_site_server_plan_cache_acquires: per-site lock gauge zero after a plan-cache hit"
    );
    assert!(metric_value(&text, "kgnet_lock_acquires_total") > 0);
    assert!(metric_value(&text, "kgnet_pool_global_threads") >= 1);
    assert!(metric_value(&text, "kgnet_job_epochs_total") >= usage.epochs);
    assert!(metric_value(&text, "kgnet_job_triples_sampled_total") >= usage.triples_sampled);
}
