//! Deterministic model-check suite for the lock-site contention profiler:
//! concurrent tracked acquisitions never lose a counter increment, no
//! matter how the scheduler interleaves them.
//!
//! Compiled only under `--cfg kgnet_check`, where the facade routes the
//! `Mutex`/`RwLock` underneath [`lock_tracked`]/[`read_tracked`]/
//! [`write_tracked`] to the `kgnet-check` scheduler — so `explore` drives
//! the *production* tracked-acquire paths through distinct interleavings
//! while the profiler's counters ride along. Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg kgnet_check" cargo test -p kgnet-sync --test model_check
//! ```
//!
//! The [`SyncSite`] statics are process-wide and the checker replays the
//! closure thousands of times, so every assertion is on the *delta* of a
//! snapshot taken at the top of the execution — never on absolute counts.
//!
//! Budgets come from `kgnet_check::Config::default()` and can be capped in
//! CI via `KGNET_CHECK_MAX_SCHEDULES` / `KGNET_CHECK_RANDOM_ITERS`; the
//! coverage floors below only apply when no cap is set.

#![cfg(kgnet_check)]

use std::sync::Arc;

use kgnet_check::{explore, Config, Report};
use kgnet_sync::profile::SyncSite;
use kgnet_sync::thread;
use kgnet_sync::tracked::{lock_tracked, read_tracked, write_tracked};
use kgnet_sync::{Mutex, RwLock};

static MUTEX_SITE: SyncSite = SyncSite::new("sync.model-check.mutex");
static READ_SITE: SyncSite = SyncSite::new("sync.model-check.read");
static WRITE_SITE: SyncSite = SyncSite::new("sync.model-check.write");

fn cfg() -> Config {
    Config {
        preemption_bound: Some(2),
        max_schedules: 3_000,
        random_iters: 3_000,
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

/// Three threads funnel through one [`lock_tracked`] mutex: in every
/// interleaving the protected data sees all three writes *and* the site's
/// acquire counter sees all three acquisitions — profiling must never
/// trade away an increment, and contended acquisitions can never
/// outnumber acquisitions.
#[test]
fn concurrent_tracked_acquires_lose_no_increments() {
    let report = explore(&cfg(), || {
        let before = MUTEX_SITE.snapshot();
        let shared = Arc::new(Mutex::new(0u64));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let shared = shared.clone();
                thread::spawn(move || *lock_tracked(&shared, &MUTEX_SITE) += 1)
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(*lock_tracked(&shared, &MUTEX_SITE), 3, "a mutex-protected write was lost");
        let after = MUTEX_SITE.snapshot();
        // 3 worker acquisitions + the assertion's own lock above.
        assert_eq!(after.acquires - before.acquires, 4, "tracked acquisitions lost an increment");
        assert!(
            after.contended - before.contended <= after.acquires - before.acquires,
            "more contended acquisitions than acquisitions"
        );
    });
    assert_coverage("sync-tracked-mutex", &[report], 50);
}

/// Two tracked readers race one tracked writer on an `RwLock`: the reader
/// and writer sites account for every acquisition separately, and the
/// writer's increments are never lost to a racing reader.
#[test]
fn tracked_rwlock_attributes_reads_and_writes_to_their_sites() {
    let report = explore(&cfg(), || {
        let read_before = READ_SITE.snapshot();
        let write_before = WRITE_SITE.snapshot();
        let shared = Arc::new(RwLock::new(0u64));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let shared = shared.clone();
                thread::spawn(move || *read_tracked(&shared, &READ_SITE))
            })
            .collect();
        let writer = {
            let shared = shared.clone();
            thread::spawn(move || *write_tracked(&shared, &WRITE_SITE) = 7)
        };
        for r in readers {
            // Readers observe either the initial or the written value,
            // never anything else.
            let seen = r.join().unwrap();
            assert!(seen == 0 || seen == 7, "reader saw torn value {seen}");
        }
        writer.join().unwrap();
        assert_eq!(*read_tracked(&shared, &READ_SITE), 7);
        let read_after = READ_SITE.snapshot();
        let write_after = WRITE_SITE.snapshot();
        // 2 racing readers + the final assertion read; exactly 1 write.
        assert_eq!(read_after.acquires - read_before.acquires, 3);
        assert_eq!(write_after.acquires - write_before.acquires, 1);
    });
    assert_coverage("sync-tracked-rwlock", &[report], 50);
}
