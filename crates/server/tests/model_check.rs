//! Deterministic model-check suites for the serving layer: the training
//! queue's cancel-vs-complete race, the shared plan cache under a
//! concurrent generation bump, and KGMeta readers against model DELETE and
//! registration commits.
//!
//! Compiled only under `--cfg kgnet_check`: the `kgnet-sync` facade then
//! routes every lock and atomic inside [`QueueState`]'s mutex and
//! [`SharedPlanCache`] to the `kgnet-check` scheduler, so these tests
//! drive the *production* transition logic (`QueueState::cancel` /
//! `QueueState::finish` are exactly what `JobQueue` and its workers call)
//! through every bounded-preemption interleaving plus seeded random
//! walks. Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg kgnet_check" cargo test -p kgnet-server --test model_check
//! ```

#![cfg(kgnet_check)]

use std::sync::Arc;

use kgnet_check::{explore, Config, Report};
use kgnet_gml::config::{GmlMethodKind, TrainReport};
use kgnet_gmlaas::{ArtifactPayload, ModelArtifact, ModelStore, TaskKind};
use kgnet_rdf::{RdfStore, SharedStore, Term};
use kgnet_server::cache::SharedPlanCache;
use kgnet_server::queue::{JobState, QueueState};
use kgnet_server::RetiredModels;
use kgnet_sparqlml::{kgmeta, ModelFilter};
use kgnet_sync::atomic::Ordering;
use kgnet_sync::{thread, Mutex};

const CAP: usize = 8;

/// Wider budgets than the library default — these scenarios run in tens of
/// microseconds per schedule. `KGNET_CHECK_*` env caps still override.
fn cfg() -> Config {
    Config {
        preemption_bound: Some(3),
        max_schedules: 20_000,
        random_iters: 20_000,
        ..Config::default()
    }
}

fn assert_coverage(suite: &str, reports: &[Report], floor: usize) {
    let distinct: usize = reports.iter().map(|r| r.distinct_schedules).sum();
    let runs: usize = reports.iter().map(|r| r.schedules).sum();
    println!("model-check[{suite}]: {runs} schedules run, {distinct} distinct");
    let capped = std::env::var_os("KGNET_CHECK_MAX_SCHEDULES").is_some()
        || std::env::var_os("KGNET_CHECK_RANDOM_ITERS").is_some();
    if !capped {
        assert!(distinct >= floor, "{suite}: only {distinct} distinct schedules (floor {floor})");
    }
}

/// Cancel racing a worker's completion on a **running** job: the terminal
/// state is written exactly once (`finish` is a no-op on terminal jobs),
/// the job ends `Done` either way (a running job cancels cooperatively),
/// and the cooperative-stop flag is raised iff the cancel was delivered.
#[test]
fn cancel_vs_complete_on_running_job_is_exactly_once() {
    let report = explore(&cfg(), || {
        let q = Arc::new(Mutex::new(QueueState::default()));
        let flag = {
            let mut st = q.lock();
            let flag = st.register(7, "train-job");
            st.mark_running(7);
            flag
        };

        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                q.lock().finish(7, JobState::Done { model_uri: "kgnet:m7".into() }, CAP);
            })
        };
        let delivered = q.lock().cancel(7, CAP);
        worker.join().unwrap();

        let st = q.lock();
        let state = st.state_of(7).expect("job lost");
        assert!(state.is_terminal(), "job left non-terminal: {state:?}");
        assert_eq!(st.terminal_count(), 1, "terminal transition recorded twice");
        // A running job is never yanked out from under its worker: the
        // worker's completion stands whether or not the cancel landed.
        assert_eq!(state, JobState::Done { model_uri: "kgnet:m7".into() });
        assert_eq!(
            flag.load(Ordering::SeqCst),
            delivered,
            "stop flag disagrees with the cancel's reported delivery"
        );
    });
    // The race is two one-lock critical sections: its schedule space is
    // tiny, so demand *complete* enumeration rather than a big count.
    assert!(report.dfs_exhausted, "bounded tree must be fully enumerated");
    assert_coverage("server/cancel-vs-complete-running", &[report], 6);
}

/// Cancel racing completion on a **queued** job: here cancel itself writes
/// the terminal state, so the two sides genuinely race to finish the job —
/// exactly one wins, and the winner matches the reported delivery.
#[test]
fn cancel_vs_complete_on_queued_job_single_winner() {
    let report = explore(&cfg(), || {
        let q = Arc::new(Mutex::new(QueueState::default()));
        {
            q.lock().register(9, "queued-job");
        }

        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                q.lock().finish(9, JobState::Failed { error: "boom".into() }, CAP);
            })
        };
        let delivered = q.lock().cancel(9, CAP);
        worker.join().unwrap();

        let st = q.lock();
        let state = st.state_of(9).expect("job lost");
        assert_eq!(st.terminal_count(), 1, "terminal transition recorded twice");
        match state {
            JobState::Cancelled => {
                assert!(delivered, "job ended Cancelled but cancel reported undelivered")
            }
            JobState::Failed { .. } => {
                assert!(!delivered, "job ended Failed but cancel reported delivered")
            }
            other => panic!("queued job ended in impossible state {other:?}"),
        }
    });
    assert!(report.dfs_exhausted, "bounded tree must be fully enumerated");
    assert_coverage("server/cancel-vs-complete-queued", &[report], 6);
}

fn seed_store() -> RdfStore {
    let mut st = RdfStore::new();
    st.insert(
        Term::iri("http://kgnet/s0".to_owned()),
        Term::iri("http://kgnet/p".to_owned()),
        Term::iri("http://kgnet/o0".to_owned()),
    );
    st
}

/// Plan-cache lookups race a writer's generation bump: a plan is only ever
/// served for the generation it was planned against, and the pinned
/// snapshot it was planned on stays frozen throughout.
#[test]
fn plan_cache_never_serves_stale_generation() {
    const TEXT: &str = "SELECT ?s WHERE { ?s <http://kgnet/p> ?o }";
    let report = explore(&cfg(), || {
        let store = SharedStore::new(seed_store());
        let cache = Arc::new(SharedPlanCache::new(64));
        let writer = {
            let store = store.clone();
            thread::spawn(move || {
                let mut txn = store.begin();
                txn.store_mut().insert(
                    Term::iri("http://kgnet/s1".to_owned()),
                    Term::iri("http://kgnet/p".to_owned()),
                    Term::iri("http://kgnet/o1".to_owned()),
                );
                txn.commit()
            })
        };

        let snap = store.snapshot();
        let gen = snap.generation();
        assert!(cache.get(gen, TEXT).is_none(), "cold cache produced a plan");

        let parsed = kgnet_rdf::sparql::parse_select(TEXT).expect("query parses");
        let prepared = cache.prepare_insert(&snap, TEXT, parsed).expect("plans on snapshot");
        let hit = cache.get(gen, TEXT).expect("plan for the pinned generation was dropped");
        assert!(Arc::ptr_eq(&prepared, &hit), "hit returned a different plan");

        let committed = writer.join().unwrap();
        if gen == committed {
            // The pin landed after the commit: the plan was prepared
            // against the committed version and serving it is correct.
            assert_eq!(snap.len(), 2);
        } else {
            // The pin predates the commit: the committed generation must
            // miss (no stale plan), and the pin stays frozen pre-commit.
            assert!(
                cache.get(committed, TEXT).is_none(),
                "plan prepared against generation {gen} served for generation {committed}"
            );
            assert_eq!(snap.len(), 1, "pinned snapshot observed the concurrent commit");
        }
    });
    assert_coverage("server/plan-cache-vs-bump", &[report], 1_000);
}

fn nc_model(uri: &str) -> ModelArtifact {
    ModelArtifact {
        uri: uri.to_owned(),
        task_kind: TaskKind::NodeClassifier,
        target_type: "http://kgnet/T".into(),
        label_predicate: "http://kgnet/p".into(),
        destination_type: None,
        method: GmlMethodKind::Gcn,
        report: TrainReport {
            method: GmlMethodKind::Gcn,
            train_time_s: 0.0,
            peak_mem_bytes: 0,
            test_metric: 0.5,
            valid_metric: 0.5,
            mrr: 0.0,
            loss_curve: Vec::new(),
            n_nodes: 1,
            n_edges: 1,
            inference_time_ms: 0.0,
        },
        sampler: "d1h1".into(),
        cardinality: 1,
        trained_generation: 0,
        payload: ArtifactPayload::NodeClassifier { predictions: Default::default() },
    }
}

/// A reader (pin, `find_models` on the pinned version, registry lookup)
/// races a model DELETE's commit and sweep and a training job's
/// registration, each committing the way `WriteSession::commit` and the
/// job runner do. In no schedule does a model the reader's KGMeta lists
/// miss its artifact; once both writers are done and the pin is gone, the
/// next commit has swept the deleted artifact and kept the registered one.
#[test]
fn kgmeta_listed_models_never_miss_their_artifact() {
    const OLD: &str = "http://kgnet/model/old";
    const NEW: &str = "http://kgnet/model/new";
    let report = explore(&cfg(), || {
        let store = SharedStore::new(seed_store());
        let registry = ModelStore::new();
        let retired = Arc::new(RetiredModels::new(registry.clone()));
        let mut old = nc_model(OLD);
        old.trained_generation = store.generation();
        store.commit(|st| kgmeta::publish(&registry, st, old));

        let deleter = {
            let (store, retired) = (store.clone(), Arc::clone(&retired));
            thread::spawn(move || {
                let mut txn = store.begin();
                kgmeta::unregister(txn.store_mut(), OLD);
                retired.commit(&store, txn, vec![OLD.to_owned()]);
            })
        };
        let registrar = {
            let (store, retired, registry) =
                (store.clone(), Arc::clone(&retired), registry.clone());
            thread::spawn(move || {
                let mut new = nc_model(NEW);
                new.trained_generation = store.snapshot().generation();
                let mut txn = store.begin();
                kgmeta::publish(&registry, txn.store_mut(), new);
                retired.commit(&store, txn, Vec::new());
            })
        };

        let snapshot = store.snapshot();
        for model in kgmeta::find_models(&snapshot, &ModelFilter::default()) {
            assert!(
                registry.get(&model.uri).is_some(),
                "{} is listed at generation {} but its artifact is gone",
                model.uri,
                snapshot.generation()
            );
        }
        drop(snapshot);
        deleter.join().unwrap();
        registrar.join().unwrap();

        retired.commit(&store, store.begin(), Vec::new());
        assert!(registry.get(OLD).is_none(), "the deleted artifact outlived every pin");
        assert!(registry.get(NEW).is_some(), "the registered artifact was lost");
        let listed = kgmeta::find_models(&store.snapshot(), &ModelFilter::default());
        assert_eq!(listed.iter().map(|m| m.uri.as_str()).collect::<Vec<_>>(), [NEW]);
    });
    assert_coverage("server/kgmeta-reader-vs-delete-and-register", &[report], 1_000);
}
