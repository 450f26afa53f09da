//! Deterministic model-check suite for the two concurrent obs primitives:
//! the histogram snapshot coherence protocol (a registry snapshot racing
//! concurrent recorders never observes torn totals) and the bounded
//! [`Ring`] (racing pushers and a drainer never lose, duplicate or reorder
//! a record).
//!
//! Compiled only under `--cfg kgnet_check`, where the `kgnet-sync` facade
//! routes every atomic and lock inside [`Histogram`] and [`Ring`] to the
//! `kgnet-check` scheduler — so `explore` drives the *production* code
//! through distinct interleavings, failing with a replayable schedule on
//! any violation. Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg kgnet_check" cargo test -p kgnet-obs --test model_check
//! ```
//!
//! Budgets come from `kgnet_check::Config::default()` and can be capped in
//! CI via `KGNET_CHECK_MAX_SCHEDULES` / `KGNET_CHECK_RANDOM_ITERS`; the
//! coverage floors below only apply when no cap is set.

#![cfg(kgnet_check)]

use std::sync::Arc;

use kgnet_check::{explore, Config, Report};
use kgnet_obs::{Histogram, Ring};
use kgnet_sync::profile::SyncSite;
use kgnet_sync::thread;

/// A histogram snapshot touches ~1000 atomics per attempt, so each
/// schedule is long; a tighter schedule budget than the lock-centric
/// suites keeps the test fast while the preemption bound still forces the
/// adversarial placements (a recorder paused mid-update inside the
/// snapshot's read window).
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

/// Two recorders with distinguishable values race one snapshotter. Every
/// snapshot the protocol *accepts* (`coherent == true`) must be a state
/// some serial execution produces: count, sum and the bucket total agree,
/// and (count, sum) is one of the four achievable prefixes.
#[test]
fn accepted_snapshots_are_never_torn() {
    const A: u64 = 1;
    const B: u64 = 3;
    let report = explore(&cfg(), || {
        let h = Arc::new(Histogram::new());
        let recorders: Vec<_> = [A, B]
            .into_iter()
            .map(|v| {
                let h = h.clone();
                thread::spawn(move || h.record(v))
            })
            .collect();

        let snap = {
            let h = h.clone();
            thread::spawn(move || h.snapshot()).join().unwrap()
        };
        if snap.coherent {
            let ok = matches!(
                (snap.count, snap.sum),
                (0, 0) | (1, A) | (1, B) | (2, _) if snap.count != 2 || snap.sum == A + B
            );
            assert!(ok, "torn accepted snapshot: count={} sum={}", snap.count, snap.sum);
            assert_eq!(
                snap.bucket_total(),
                snap.count,
                "accepted snapshot's buckets disagree with its count"
            );
            assert_eq!(snap.max == 0, snap.count == 0, "max torn against count");
        }

        for r in recorders {
            r.join().unwrap();
        }
        // Quiescent: the final snapshot is always coherent and exact.
        let end = h.snapshot();
        assert!(end.coherent, "quiescent snapshot must be accepted on the first attempt");
        assert_eq!((end.count, end.sum, end.max), (2, A + B, B));
        assert_eq!(end.bucket_total(), 2);
    });
    assert_coverage("obs-snapshot-coherence", &[report], 50);
}

/// Concurrent recorders alone (no snapshot in flight) always leave exact
/// totals behind: recording is pure atomic RMWs, so no interleaving can
/// lose an update.
#[test]
fn concurrent_recording_never_loses_updates() {
    let report = explore(&cfg(), || {
        let h = Arc::new(Histogram::new());
        let workers: Vec<_> = (0..3u64)
            .map(|v| {
                let h = h.clone();
                thread::spawn(move || h.record(v + 1))
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let s = h.snapshot();
        assert!(s.coherent);
        assert_eq!((s.count, s.sum, s.max), (3, 6, 3));
        assert_eq!(s.bucket_total(), 3);
    });
    assert_coverage("obs-recording-exact", &[report], 50);
}

/// Two pushers race one drainer on a capacity-2 ring, so evictions and a
/// mid-stream drain both happen under some schedules. Every pushed record
/// is accounted for exactly once — drained, still retained, or counted as
/// dropped — and each pusher's surviving records come out in the order it
/// pushed them.
#[test]
fn ring_accounts_for_every_record_in_fifo_order() {
    static SITE: SyncSite = SyncSite::new("obs.model-check.ring");
    const PUSHERS: u32 = 2;
    const PER_PUSHER: u32 = 2;
    let report = explore(&cfg(), || {
        let ring = Arc::new(Ring::new(2, &SITE));
        let pushers: Vec<_> = (0..PUSHERS)
            .map(|p| {
                let ring = ring.clone();
                thread::spawn(move || (0..PER_PUSHER).for_each(|seq| ring.push((p, seq))))
            })
            .collect();
        let drained = {
            let ring = ring.clone();
            thread::spawn(move || ring.drain()).join().unwrap()
        };
        for p in pushers {
            p.join().unwrap();
        }
        let retained = ring.drain();
        let out = (drained.len() + retained.len()) as u64;
        assert_eq!(
            out + ring.dropped(),
            u64::from(PUSHERS * PER_PUSHER),
            "drained {drained:?} + retained {retained:?} + dropped {} != pushed",
            ring.dropped()
        );
        for p in 0..PUSHERS {
            let seqs: Vec<u32> =
                drained.iter().chain(&retained).filter(|r| r.0 == p).map(|r| r.1).collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "pusher {p} out of order: {seqs:?}");
        }
    });
    assert_coverage("obs-ring-accounting", &[report], 50);
}
