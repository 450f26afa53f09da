//! Deterministic model-check suite for the MVCC core: reader pin vs
//! commit vs abort.
//!
//! Compiled only under `--cfg kgnet_check`, where the `kgnet-sync` facade
//! routes every lock, condvar and atomic inside [`SharedStore`] to the
//! `kgnet-check` scheduler — so `explore` drives the *production*
//! writer-gate/commit/pin code through thousands of distinct
//! interleavings, failing with a replayable schedule on any torn read,
//! lost version or deadlock. Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg kgnet_check" cargo test -p kgnet-rdf --test model_check
//! ```
//!
//! Budgets come from `kgnet_check::Config::default()` and can be capped in
//! CI via `KGNET_CHECK_MAX_SCHEDULES` / `KGNET_CHECK_RANDOM_ITERS`; the
//! coverage floors below only apply when no cap is set.

#![cfg(kgnet_check)]

use kgnet_check::{explore, Config, Report};
use kgnet_rdf::{RdfStore, SharedStore, Term};
use kgnet_sync::thread;

/// Wider budgets than the library default: these scenarios are cheap
/// (tens of microseconds per schedule), so buy real interleaving coverage.
/// `KGNET_CHECK_*` env caps still override for bounded CI runs.
fn cfg() -> Config {
    Config {
        preemption_bound: Some(3),
        max_schedules: 20_000,
        random_iters: 20_000,
        ..Config::default()
    }
}

/// Assert a distinct-schedule floor, unless CI capped the budgets.
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

fn iri(n: u32) -> Term {
    Term::iri(format!("http://kgnet/e{n}"))
}

fn seed_store() -> RdfStore {
    let mut st = RdfStore::new();
    st.insert(iri(0), iri(1), iri(2));
    st
}

/// A pinned snapshot observes one frozen generation — never a torn or
/// in-flight version — no matter how a concurrent commit interleaves.
#[test]
fn pinned_reads_frozen_across_concurrent_commit() {
    let report = explore(&cfg(), || {
        let store = SharedStore::new(seed_store());
        let writer = {
            let store = store.clone();
            thread::spawn(move || {
                let mut txn = store.begin();
                txn.store_mut().insert(iri(3), iri(1), iri(4));
                txn.commit()
            })
        };

        let reader = {
            let store = store.clone();
            thread::spawn(move || {
                // Every concurrently-pinned snapshot is internally coherent:
                // its length matches its generation (1 triple before the
                // commit, 2 after), never a half-applied mix.
                let side = store.snapshot();
                let coherent = side.len() == 1 || side.len() == 2;
                assert!(coherent, "side snapshot saw a half-applied commit");
                (side.generation(), side.len())
            })
        };

        let snap = store.snapshot();
        let gen0 = snap.generation();
        let len0 = snap.len();
        assert!(len0 == 1 || len0 == 2, "snapshot saw a half-applied commit");

        // Re-reads through the same pin are repeatable whatever the writer
        // does in between.
        let snap2 = store.snapshot();
        assert_eq!(snap.generation(), gen0, "pinned generation drifted");
        assert_eq!(snap.len(), len0, "pinned contents drifted");

        // A later pin is same-or-newer, and its contents match its
        // generation exactly (no plan-of-one-version/data-of-another).
        assert!(snap2.generation() >= gen0);
        let expect2 = if snap2.generation() == gen0 { len0 } else { len0 + 1 };
        assert_eq!(snap2.len(), expect2, "generation and contents disagree");

        let committed = writer.join().unwrap();
        assert!(committed > gen0 || len0 == 2, "commit did not advance the generation");
        let (side_gen, side_len) = reader.join().unwrap();
        assert_eq!(side_len, if side_gen == committed { 2 } else { 1 });

        // After the join the commit must be visible to new pins, while the
        // old pin still answers from its frozen version.
        let fresh = store.snapshot();
        assert_eq!(fresh.len(), 2, "committed triple lost");
        assert_eq!(snap.len(), len0, "old pin observed the commit");
    });
    assert_coverage("rdf/pin-vs-commit", &[report], 8_000);
}

/// An aborted transaction is invisible: no generation bump, no data, no
/// retained version left behind — under every interleaving with a reader.
#[test]
fn abort_leaves_no_trace_under_concurrent_reader() {
    let report = explore(&cfg(), || {
        let store = SharedStore::new(seed_store());
        let pin = store.snapshot();
        let writer = {
            let store = store.clone();
            thread::spawn(move || {
                let mut txn = store.begin();
                txn.store_mut().insert(iri(3), iri(1), iri(4));
                txn.abort();
            })
        };
        let reader = {
            let store = store.clone();
            thread::spawn(move || {
                // A second independent pin must also never observe the
                // aborted insert, at any interleaving point.
                let side = store.snapshot();
                assert_eq!(side.len(), 1, "aborted insert became visible");
                side.generation()
            })
        };

        let gen0 = pin.generation();
        assert_eq!(pin.len(), 1);
        assert_eq!(reader.join().unwrap(), gen0, "abort bumped the published generation");
        writer.join().unwrap();

        let after = store.snapshot();
        assert_eq!(after.generation(), gen0, "abort published a version");
        assert_eq!(after.len(), 1, "aborted insert leaked");

        drop(after);
        drop(pin);
        let rows = store.retained_versions();
        assert_eq!(rows.len(), 1, "aborted/unpinned versions must be freed: {rows:?}");
        assert!(rows[0].is_current);
        assert_eq!(rows[0].pins, 0);
    });
    assert_coverage("rdf/pin-vs-abort", &[report], 2_000);
}

/// Two concurrent writers serialise through the writer gate: both commits
/// land, generations are distinct, and no insert is lost.
#[test]
fn concurrent_writers_serialise_without_lost_commits() {
    let report = explore(&cfg(), || {
        let store = SharedStore::new(seed_store());
        let writers: Vec<_> = (0..2)
            .map(|i| {
                let store = store.clone();
                thread::spawn(move || {
                    let mut txn = store.begin();
                    txn.store_mut().insert(iri(10 + i), iri(1), iri(2));
                    txn.commit()
                })
            })
            .collect();
        let gens: Vec<u64> = writers.into_iter().map(|t| t.join().unwrap()).collect();
        assert_ne!(gens[0], gens[1], "serialised commits reused a generation");

        let snap = store.snapshot();
        assert_eq!(snap.len(), 3, "a commit was lost");
        assert_eq!(snap.generation(), gens[0].max(gens[1]));
    });
    assert_coverage("rdf/writer-vs-writer", &[report], 3_000);
}
