//! Mixed-traffic proof for the serving layer: SPARQL-ML SELECTs execute
//! against pinned MVCC snapshots end-to-end, so four concurrent reader
//! threads serve against one `SharedStore` while training jobs churn on the
//! admission-controlled queue — and every concurrent result is identical to
//! serial execution. A second scenario pins one reader's snapshot across
//! concurrent bulk DELETE+INSERT commits and asserts repeatable reads.

use std::sync::{Arc, Barrier};

use kgnet::datagen::{generate_dblp, DblpConfig};
use kgnet::gmlaas::TrainRequest;
use kgnet::server::{JobState, KgServer, ServerConfig};
use kgnet::sparqlml::{ManagerConfig, MlOutcome, QueryManager};
use kgnet::{GmlMethodKind, GmlTask, GnnConfig, LpTask, NcTask};

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

const COUNT_QUERY: &str = "PREFIX dblp: <https://www.dblp.org/> \
    SELECT (COUNT(*) AS ?n) WHERE { ?p a dblp:Publication }";

const TRAIN_NC: &str = r#"
    PREFIX dblp: <https://www.dblp.org/>
    PREFIX kgnet: <https://www.kgnet.com/>
    INSERT INTO <kgnet> { ?s ?p ?o } WHERE { SELECT * FROM kgnet.TrainGML(
      {Name: 'paper-venue',
       GML-Task:{ TaskType: kgnet:NodeClassifier,
                  TargetNode: dblp:Publication,
                  NodeLabel: dblp:publishedIn},
       Method: 'GraphSAINT'})}"#;

fn fast_config() -> ManagerConfig {
    ManagerConfig { default_cfg: GnnConfig::fast_test(), ..Default::default() }
}

/// The queue-submitted twin of `TRAIN_NC`: same task, method, sampler and
/// hyper-parameters, so the trained model is bit-identical (the trainers are
/// deterministic under any pool size).
fn nc_request() -> TrainRequest {
    let mut req = TrainRequest::new(
        "paper-venue",
        GmlTask::NodeClassification(NcTask {
            target_type: "https://www.dblp.org/Publication".into(),
            label_predicate: "https://www.dblp.org/publishedIn".into(),
        }),
    );
    req.cfg = GnnConfig::fast_test();
    req.forced_method = Some(GmlMethodKind::GraphSaint);
    req
}

/// A background job over a *different* task kind, so its registration
/// cannot perturb which model the NC query selects mid-run.
fn lp_request(name: &str) -> TrainRequest {
    let mut req = TrainRequest::new(
        name,
        GmlTask::LinkPrediction(LpTask {
            source_type: "https://www.dblp.org/Person".into(),
            edge_predicate: "https://www.dblp.org/affiliatedWith".into(),
            dest_type: "https://www.dblp.org/Affiliation".into(),
        }),
    );
    req.cfg = GnnConfig { epochs: 10, ..GnnConfig::fast_test() };
    req.forced_method = Some(GmlMethodKind::Morse);
    req.sampler = "d2h1".into();
    req
}

#[test]
fn four_readers_serve_while_training_jobs_churn() {
    // Serial baseline on an identical graph (the generator is seeded): one
    // unversioned store and one query manager, no sessions or plan cache.
    let (mut kg, _) = generate_dblp(&DblpConfig::tiny(41));
    let baseline = QueryManager::new(fast_config());
    baseline.update(&mut kg, TRAIN_NC).unwrap();
    let select = |text| match baseline.query(&kg, text).unwrap() {
        MlOutcome::Rows(rows) => rows,
        other => panic!("expected rows, got {other:?}"),
    };
    let expected = select(PV_QUERY);
    assert_eq!(expected.len(), 60);
    let expected_count = select(COUNT_QUERY);

    // Concurrent server over the same graph: the NC model arrives through
    // the job queue, not through an exclusive execute().
    let (kg, _) = generate_dblp(&DblpConfig::tiny(41));
    let server =
        Arc::new(KgServer::new(kg, ServerConfig { manager: fast_config(), ..Default::default() }));
    let nc_job = server.submit_train(nc_request()).unwrap();
    let done = server.wait(nc_job).expect("job record retained");
    assert!(matches!(done.state, JobState::Done { .. }), "NC training failed: {done:?}");

    // Two more jobs churn in the background while the readers run.
    let lp_a = server.submit_train(lp_request("aff-a")).unwrap();
    let lp_b = server.submit_train(lp_request("aff-b")).unwrap();

    const READERS: usize = 4;
    const ROUNDS: usize = 8;
    let barrier = Arc::new(Barrier::new(READERS));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let server = server.clone();
            let barrier = barrier.clone();
            let expected = expected.clone();
            let expected_count = expected_count.clone();
            std::thread::spawn(move || {
                let mut session = server.read_session();
                barrier.wait(); // all four issue their first SELECT together
                for _ in 0..ROUNDS {
                    let rows = session.query(PV_QUERY).expect("ML SELECT");
                    assert_eq!(rows, expected, "concurrent result diverged from serial");
                    let count = session.query(COUNT_QUERY).expect("plain SELECT");
                    assert_eq!(count, expected_count);
                }
                let stats = session.cache_stats();
                assert!(stats.hits >= (ROUNDS - 1) as u64, "plan cache never hit: {stats:?}");
            })
        })
        .collect();
    for reader in readers {
        reader.join().expect("reader thread panicked");
    }

    // The background jobs complete and register their models.
    assert!(matches!(server.wait(lp_a).unwrap().state, JobState::Done { .. }));
    assert!(matches!(server.wait(lp_b).unwrap().state, JobState::Done { .. }));
    let manager = server.manager();
    let guard = manager.read();
    assert_eq!(guard.trainer().model_store().len(), 3);

    // Readers still see the stable NC answer afterwards.
    let mut session = server.read_session();
    assert_eq!(session.query(PV_QUERY).unwrap(), expected);
}

#[test]
fn pinned_reader_holds_repeatable_reads_across_bulk_rewrites() {
    use kgnet::rdf::term::RDF_TYPE;
    use kgnet::rdf::Term;

    const ROUNDS: usize = 4;
    const EXTRA_PER_ROUND: usize = 3;
    let pub_class = "https://www.dblp.org/Publication";

    let (kg, _) = generate_dblp(&DblpConfig::tiny(83));
    let server =
        Arc::new(KgServer::new(kg, ServerConfig { manager: fast_config(), ..Default::default() }));

    // Pin a snapshot before any write and take its full fingerprint.
    let mut session = server.read_session();
    let count_before = session.query(COUNT_QUERY).unwrap();
    let dump_before = session.snapshot().to_ntriples();
    let pinned_generation = session.generation();

    // Writer thread: each round bulk-DELETEs every publication typing
    // triple and re-INSERTs the same population under fresh IRIs (plus a
    // few extra), committing one new version per round.
    let barrier = Arc::new(Barrier::new(2));
    let writer = {
        let server = server.clone();
        let barrier = barrier.clone();
        std::thread::spawn(move || {
            barrier.wait();
            for round in 0..ROUNDS {
                let mut txn = server.write_session();
                txn.with_store(|st| {
                    let t = st.lookup(&Term::iri(RDF_TYPE)).expect("rdf:type interned");
                    let c = st.lookup(&Term::iri(pub_class)).expect("class interned");
                    let doomed: Vec<(Term, Term, Term)> = st
                        .matches(None, Some(t), Some(c))
                        .into_iter()
                        .map(|(s, p, o)| {
                            (st.resolve(s).clone(), st.resolve(p).clone(), st.resolve(o).clone())
                        })
                        .collect();
                    let population = doomed.len();
                    for (s, p, o) in &doomed {
                        st.remove(s, p, o);
                    }
                    for i in 0..population + EXTRA_PER_ROUND {
                        st.insert(
                            Term::iri(format!("http://churn/{round}/{i}")),
                            Term::iri(RDF_TYPE),
                            Term::iri(pub_class),
                        );
                    }
                });
                txn.commit();
            }
        })
    };

    // While the writer churns versions, the pinned session must keep
    // answering from its frozen one.
    barrier.wait();
    for _ in 0..32 {
        assert_eq!(
            session.query(COUNT_QUERY).unwrap(),
            count_before,
            "pinned snapshot leaked a concurrent commit"
        );
    }
    writer.join().expect("writer thread panicked");

    // After every commit has landed: the pinned view is bit-identical to
    // what it was before the first write.
    assert_eq!(session.generation(), pinned_generation);
    assert_eq!(session.query(COUNT_QUERY).unwrap(), count_before);
    assert_eq!(session.snapshot().to_ntriples(), dump_before, "pinned snapshot mutated");

    // Refreshing the same session exposes the rewritten population.
    let as_int = |rows: &kgnet::rdf::QueryResult| {
        rows.rows[0][0].as_ref().unwrap().as_int().expect("count is an int")
    };
    session.refresh();
    let after = session.query(COUNT_QUERY).unwrap();
    assert_eq!(
        as_int(&after),
        as_int(&count_before) + (ROUNDS * EXTRA_PER_ROUND) as i64,
        "refreshed session must see all committed rounds"
    );
}

/// Deterministic regression of the queue's cancel-vs-complete race, run
/// through the `kgnet-check` scheduler *in a normal build*: the scenario
/// drives the production `QueueState::cancel` / `QueueState::finish`
/// transition logic under an instrumented mutex, first exhaustively over
/// the bounded-preemption tree, then replaying one pinned seed so the
/// exact historical schedule stays reproducible forever. A regression that
/// double-writes the terminal state or mismatches the delivery flag fails
/// here with a replayable schedule, without needing `--cfg kgnet_check`.
#[test]
fn queue_cancel_complete_race_is_exactly_once_and_seed_replayable() {
    use kgnet::server::queue::QueueState;
    use kgnet_check::sync::Mutex;
    use kgnet_check::{explore, replay_seed, Config};

    let scenario = || {
        let q = Arc::new(Mutex::new(QueueState::default()));
        {
            q.lock().register(3, "regression-job");
        }
        let worker = {
            let q = Arc::clone(&q);
            kgnet_check::thread::spawn(move || {
                q.lock().finish(3, JobState::Failed { error: "boom".into() }, 4);
            })
        };
        let delivered = q.lock().cancel(3, 4);
        worker.join().unwrap();

        let st = q.lock();
        let state = st.state_of(3).expect("job lost");
        assert!(state.is_terminal(), "job left non-terminal: {state:?}");
        assert_eq!(st.terminal_count(), 1, "terminal state written more than once");
        assert_eq!(
            delivered,
            state == JobState::Cancelled,
            "cancel delivery disagrees with the winning transition"
        );
    };

    // Exhaustive bounded exploration (the race's schedule space is small).
    let report =
        explore(&Config { max_schedules: 512, random_iters: 64, ..Config::default() }, scenario);
    assert!(report.dfs_exhausted, "bounded tree must be fully enumerated");
    assert!(report.distinct_schedules >= 4, "got {report:?}");

    // Pinned-seed replay: one exact schedule, deterministic across runs.
    replay_seed(0x6b67_0007_c0de_5eed, scenario);
}
