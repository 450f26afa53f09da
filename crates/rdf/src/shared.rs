//! MVCC snapshot publishing: the engine-side half of the platform's
//! read/write split, where writers never block readers.
//!
//! [`SharedStore`] holds the *current* immutable store version behind an
//! `Arc<RwLock<Arc<RdfStore>>>`. Readers call [`SharedStore::snapshot`] to
//! pin the current version — a single `Arc` clone under a momentary read
//! lock — and then evaluate against that [`Snapshot`] for as long as they
//! like with **zero** locks held. Writers call [`SharedStore::begin`] (or
//! the [`SharedStore::commit`] convenience) to build the *next* version
//! privately on a copy-on-write clone and publish it as one atomic pointer
//! swap. The [`RdfStore::generation`] epoch doubles as the version id.
//!
//! A commit copies what it changes, not the store: the clone `begin` makes
//! shares every index shard and the frozen part of the term dictionary
//! with the published version (see [`RdfStore`]), and the transaction
//! deep-copies only the shards it touches. Freeing a superseded version,
//! which falls to whoever drops its last pin, is as small.
//!
//! Writers are serialised by an internal gate (one pending version at a
//! time, so no committed change can be lost), but a writer holding the gate
//! never blocks snapshot acquisition: the `RwLock` is only touched for the
//! nanoseconds of the pointer read/swap itself.
//!
//! Consistency contract: everything observed through one [`Snapshot`] — the
//! generation, triple count, scans, full query evaluations — comes from a
//! single frozen version. A concurrent commit, however large, is either
//! entirely visible to a *later* snapshot or not visible at all; a pinned
//! snapshot never observes a torn intermediate state (property-tested below
//! under real writer threads).

use std::collections::BTreeMap;
use std::ops::Deref;

use kgnet_sync::profile::SyncSite;
use kgnet_sync::tracked::{lock_tracked, read_tracked, write_tracked};
use kgnet_sync::{Arc, Condvar, Mutex, RwLock};

use crate::store::RdfStore;

/// The published-version pointer: every snapshot pin and version flip.
static CURRENT_SITE: SyncSite = SyncSite::new("rdf.store.current");
/// The retention tracker: every pin/unpin/GC report.
static TRACKER_SITE: SyncSite = SyncSite::new("rdf.store.tracker");
/// The writer semaphore: contended exactly when writers queue behind an
/// open transaction.
static WRITER_GATE_SITE: SyncSite = SyncSite::new("rdf.writer_gate");

/// An immutable, cheaply clonable pin of one published store version.
///
/// Dereferences to [`RdfStore`], so every `&RdfStore` consumer (SPARQL
/// evaluation, sampling, statistics) works on a snapshot unchanged. Holding
/// a snapshot keeps that version's shards alive but holds no lock: writers
/// publish new versions freely while old pins stay readable.
#[derive(Clone)]
pub struct Snapshot {
    inner: Arc<RdfStore>,
    /// Present when the snapshot was pinned from a [`SharedStore`]: held
    /// purely so its `Clone`/`Drop` keep the per-version pin count in the
    /// store's retention tracker accurate.
    _pin: Option<VersionPin>,
}

impl Snapshot {
    /// Freeze a standalone store into a snapshot (version 0 of nothing in
    /// particular; mostly useful in tests and one-shot pipelines). Untracked:
    /// it never appears in [`SharedStore::retained_versions`].
    pub fn freeze(store: RdfStore) -> Self {
        Snapshot { inner: Arc::new(store), _pin: None }
    }
}

impl Deref for Snapshot {
    type Target = RdfStore;

    fn deref(&self) -> &RdfStore {
        &self.inner
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("triples", &self.len())
            .field("generation", &self.generation())
            .finish()
    }
}

/// Serialises writers: at most one [`WriteTxn`] exists per store at a time.
/// A plain mutex+condvar semaphore rather than a lock guard so the permit
/// can be *owned* (stored in a session struct) instead of borrowed.
#[derive(Default)]
struct WriterGate {
    busy: Mutex<bool>,
    cv: Condvar,
}

impl WriterGate {
    fn acquire(self: &Arc<Self>) -> WriterPermit {
        // Contention is hand-classified at the *semaphore* level: the inner
        // mutex is only ever held for the flag flip, so what matters is
        // whether the slot was free on arrival or the caller had to park
        // behind another writer's whole transaction.
        let mut busy = self.busy.lock();
        if !*busy {
            WRITER_GATE_SITE.record_uncontended();
        } else {
            let t0 = std::time::Instant::now();
            while *busy {
                busy = self.cv.wait(busy);
            }
            WRITER_GATE_SITE
                .record_contended(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        *busy = true;
        WriterPermit { gate: Arc::clone(self) }
    }
}

/// Owned writer slot; releasing it (on drop) wakes the next queued writer.
struct WriterPermit {
    gate: Arc<WriterGate>,
}

impl Drop for WriterPermit {
    fn drop(&mut self) {
        *self.gate.busy.lock() = false;
        self.gate.cv.notify_one();
    }
}

/// Per-version retention bookkeeping: generation → live pins + size.
#[derive(Default)]
struct VersionTracker {
    versions: BTreeMap<u64, TrackedVersion>,
}

struct TrackedVersion {
    pins: usize,
    approx_bytes: usize,
}

impl VersionTracker {
    fn pin(&mut self, generation: u64, approx_bytes: usize) {
        self.versions.entry(generation).or_insert(TrackedVersion { pins: 0, approx_bytes }).pins +=
            1;
    }

    fn unpin(&mut self, generation: u64) {
        if let Some(entry) = self.versions.get_mut(&generation) {
            entry.pins -= 1;
            if entry.pins == 0 {
                // Last pin gone: the version is reclaimable (its `Arc` drops
                // as soon as it is no longer current), so stop reporting it.
                self.versions.remove(&generation);
            }
        }
    }
}

/// Keeps one pin registered in the owning store's [`VersionTracker`] for as
/// long as the snapshot (or any clone of it) is alive.
struct VersionPin {
    tracker: Arc<Mutex<VersionTracker>>,
    generation: u64,
    approx_bytes: usize,
}

impl Clone for VersionPin {
    fn clone(&self) -> Self {
        lock_tracked(&self.tracker, &TRACKER_SITE).pin(self.generation, self.approx_bytes);
        VersionPin {
            tracker: Arc::clone(&self.tracker),
            generation: self.generation,
            approx_bytes: self.approx_bytes,
        }
    }
}

impl Drop for VersionPin {
    fn drop(&mut self) {
        lock_tracked(&self.tracker, &TRACKER_SITE).unpin(self.generation);
    }
}

/// One row of [`SharedStore::retained_versions`]: a store version currently
/// kept alive, why (pins / being current), and roughly how big it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetainedVersion {
    /// The version id ([`RdfStore::generation`] epoch).
    pub generation: u64,
    /// Live [`Snapshot`] pins holding this version. The current version
    /// reports `0` when nobody has it pinned — it is retained regardless.
    pub pins: usize,
    /// Approximate index memory retained by this version (shards are
    /// copy-on-write shared between versions, so sums overcount).
    pub approx_bytes: usize,
    /// Whether this is the published (most recent committed) version.
    pub is_current: bool,
}

/// A cheaply cloneable handle publishing MVCC versions of one RDF store.
#[derive(Clone, Default)]
pub struct SharedStore {
    current: Arc<RwLock<Arc<RdfStore>>>,
    gate: Arc<WriterGate>,
    tracker: Arc<Mutex<VersionTracker>>,
}

impl std::fmt::Debug for SharedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("SharedStore")
            .field("triples", &snap.len())
            .field("generation", &snap.generation())
            .finish()
    }
}

impl SharedStore {
    /// Publish an existing store as the initial version.
    pub fn new(store: RdfStore) -> Self {
        SharedStore {
            current: Arc::new(RwLock::new(Arc::new(store))),
            gate: Arc::new(WriterGate::default()),
            tracker: Arc::new(Mutex::new(VersionTracker::default())),
        }
    }

    /// Pin the current version. One `Arc` clone under a momentary read
    /// lock; after that the snapshot holds no lock whatsoever.
    ///
    /// The pin is registered before the read lock is released, so a commit
    /// that supersedes this version finishes after the pin is counted:
    /// [`retained_versions`](Self::retained_versions) called once a commit
    /// has returned lists every version a snapshot still holds.
    pub fn snapshot(&self) -> Snapshot {
        let (inner, generation, approx_bytes) = {
            let current = read_tracked(&self.current, &CURRENT_SITE);
            let (generation, approx_bytes) = (current.generation(), current.approx_bytes());
            lock_tracked(&self.tracker, &TRACKER_SITE).pin(generation, approx_bytes);
            (Arc::clone(&current), generation, approx_bytes)
        };
        Snapshot {
            inner,
            _pin: Some(VersionPin { tracker: Arc::clone(&self.tracker), generation, approx_bytes }),
        }
    }

    /// GC telemetry: every store version currently retained, with its live
    /// pin count and approximate index footprint. The published version is
    /// always listed (marked [`RetainedVersion::is_current`]); an older
    /// version appears exactly while at least one [`Snapshot`] pins it, and
    /// vanishes when the last pin drops.
    pub fn retained_versions(&self) -> Vec<RetainedVersion> {
        // Read `current` before locking the tracker; the one place both
        // are held, `snapshot`, takes them in the same order.
        let (current_generation, current_bytes) = {
            let cur = read_tracked(&self.current, &CURRENT_SITE);
            (cur.generation(), cur.approx_bytes())
        };
        let tracker = lock_tracked(&self.tracker, &TRACKER_SITE);
        let mut rows: Vec<RetainedVersion> = tracker
            .versions
            .iter()
            .map(|(&generation, entry)| RetainedVersion {
                generation,
                pins: entry.pins,
                approx_bytes: entry.approx_bytes,
                is_current: generation == current_generation,
            })
            .collect();
        if !rows.iter().any(|r| r.is_current) {
            rows.push(RetainedVersion {
                generation: current_generation,
                pins: 0,
                approx_bytes: current_bytes,
                is_current: true,
            });
        }
        rows.sort_by_key(|r| r.generation);
        rows
    }

    /// Open a write transaction on a private copy-on-write clone of the
    /// current version. Blocks while another transaction is open (writers
    /// are serialised); never blocks readers. Dropping the transaction
    /// without [`WriteTxn::commit`] discards the pending version.
    pub fn begin(&self) -> WriteTxn {
        // Acquire the gate *before* reading `current`: only the permit
        // holder publishes, so the clone is guaranteed to be of the latest
        // committed version and no committed change can be lost.
        let permit = self.gate.acquire();
        let base = Arc::clone(&read_tracked(&self.current, &CURRENT_SITE));
        let pending = (*base).clone();
        WriteTxn {
            current: Arc::clone(&self.current),
            base_generation: pending.generation(),
            pending,
            _permit: permit,
        }
    }

    /// Apply one batch of mutations and publish them as a single version
    /// flip: `begin` → mutate → commit.
    pub fn commit<R>(&self, f: impl FnOnce(&mut RdfStore) -> R) -> R {
        let mut txn = self.begin();
        let out = f(txn.store_mut());
        txn.commit();
        out
    }

    /// The current version id, read under the momentary `current` read
    /// lock: no snapshot is pinned, so the retention tracker is untouched.
    pub fn generation(&self) -> u64 {
        read_tracked(&self.current, &CURRENT_SITE).generation()
    }

    /// Triple count of the current version (momentary read lock, no pin).
    pub fn len(&self) -> usize {
        read_tracked(&self.current, &CURRENT_SITE).len()
    }

    /// True when the current version holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Recover the store when this is the last handle; otherwise the shared
    /// handle is returned unchanged. Outstanding [`Snapshot`]s do not block
    /// recovery — the current version is copy-on-write extracted from under
    /// them.
    pub fn try_unwrap(self) -> Result<RdfStore, SharedStore> {
        match Arc::try_unwrap(self.current) {
            Ok(lock) => {
                let version = lock.into_inner();
                Ok(Arc::try_unwrap(version).unwrap_or_else(|shared| (*shared).clone()))
            }
            Err(current) => Err(SharedStore { current, gate: self.gate, tracker: self.tracker }),
        }
    }
}

/// An exclusive, owned write transaction: the next store version being
/// built privately. Readers keep pinning and scanning the published version
/// while this exists; nothing becomes visible until [`WriteTxn::commit`].
pub struct WriteTxn {
    current: Arc<RwLock<Arc<RdfStore>>>,
    pending: RdfStore,
    base_generation: u64,
    _permit: WriterPermit,
}

impl WriteTxn {
    /// The pending version, readable: a transaction sees its own writes.
    pub fn store(&self) -> &RdfStore {
        &self.pending
    }

    /// The pending version, mutable. Mutations stay private until commit.
    pub fn store_mut(&mut self) -> &mut RdfStore {
        &mut self.pending
    }

    /// The generation of the version this transaction branched from.
    pub fn base_generation(&self) -> u64 {
        self.base_generation
    }

    /// Atomically publish the pending version; returns its generation.
    /// Every snapshot pinned afterwards sees all of this transaction's
    /// mutations; every snapshot pinned before sees none of them.
    pub fn commit(self) -> u64 {
        let generation = self.pending.generation();
        let next = Arc::new(self.pending);
        let previous = std::mem::replace(&mut *write_tracked(&self.current, &CURRENT_SITE), next);
        // Drop the superseded version after the write lock is released, so
        // readers pinning the new one never wait on its shards being freed.
        drop(previous);
        generation
    }

    /// Discard the pending version: nothing is published, the store stays
    /// at the version it was. Equivalent to dropping the transaction.
    pub fn abort(self) {}
}

impl std::fmt::Debug for WriteTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteTxn")
            .field("base_generation", &self.base_generation)
            .field("pending_generation", &self.pending.generation())
            .field("pending_triples", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::TermId;
    use crate::term::Term;
    use proptest::prelude::*;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    #[test]
    fn clone_shares_one_store() {
        let shared = SharedStore::new(RdfStore::new());
        let other = shared.clone();
        shared.commit(|st| st.insert(iri("a"), iri("p"), iri("b")));
        assert_eq!(other.len(), 1);
        assert_eq!(other.generation(), shared.generation());
    }

    #[test]
    fn try_unwrap_returns_store_only_when_unique() {
        let shared = SharedStore::new(RdfStore::new());
        let other = shared.clone();
        let Err(shared) = shared.try_unwrap() else { panic!("two handles alive") };
        drop(other);
        let Ok(store) = shared.try_unwrap() else { panic!("last handle must unwrap") };
        assert!(store.is_empty());
    }

    #[test]
    fn try_unwrap_succeeds_under_outstanding_snapshot() {
        let shared = SharedStore::new(RdfStore::new());
        shared.commit(|st| st.insert(iri("a"), iri("p"), iri("b")));
        let pin = shared.snapshot();
        let Ok(store) = shared.try_unwrap() else { panic!("snapshots must not block unwrap") };
        assert_eq!(store.len(), 1);
        assert_eq!(pin.len(), 1);
    }

    #[test]
    fn pinned_snapshot_is_frozen_across_commits() {
        let shared = SharedStore::new(RdfStore::new());
        shared.commit(|st| {
            st.insert(iri("p1"), iri("cites"), iri("p2"));
            st.insert(iri("p2"), iri("cites"), iri("p3"));
        });
        let pin = shared.snapshot();
        let dump = pin.to_ntriples();
        let generation = pin.generation();

        // Bulk DELETE+INSERT commits while the pin is held.
        shared.commit(|st| {
            st.remove(&iri("p1"), &iri("cites"), &iri("p2"));
            st.remove(&iri("p2"), &iri("cites"), &iri("p3"));
            for i in 0..50u32 {
                st.insert(iri(&format!("n{i}")), iri("p"), iri("o"));
            }
        });

        // The pin is bit-identical; a fresh snapshot sees the new version.
        assert_eq!(pin.generation(), generation);
        assert_eq!(pin.len(), 2);
        assert_eq!(pin.to_ntriples(), dump);
        let fresh = shared.snapshot();
        assert_eq!(fresh.len(), 50);
        assert!(fresh.generation() > generation);
    }

    #[test]
    fn pinned_dictionary_is_frozen_across_folds() {
        let shared = SharedStore::new(RdfStore::new());
        shared.commit(|st| {
            for i in 0..100u32 {
                st.insert(iri(&format!("base{i}")), iri("p"), iri(&format!("o{}", i % 7)));
            }
        });
        let pin = shared.snapshot();
        let len = pin.dict().len();
        let terms: Vec<Term> = pin.dict().iter().map(|(_, t)| t.clone()).collect();
        let dump = pin.to_ntriples();

        // 3 000 fresh terms in commits of 20: the dictionary folds on the way.
        for batch in 0..150u32 {
            shared.commit(|st| {
                for j in 0..20u32 {
                    st.insert(iri(&format!("new{batch}_{j}")), iri("p"), iri("o0"));
                }
            });
        }

        assert_eq!(pin.dict().len(), len);
        for (i, term) in terms.iter().enumerate() {
            assert_eq!(pin.resolve(TermId(i as u32)), term);
        }
        assert_eq!(pin.dict().try_resolve(TermId(len as u32)), None);
        assert_eq!(pin.to_ntriples(), dump);
        let fresh = shared.snapshot();
        assert!(!fresh.dict().shares_frozen_with(pin.dict()), "no fold happened");
        assert_eq!(fresh.dict().len(), len + 3_000);
        for batch in 0..150u32 {
            for j in 0..20u32 {
                let term = iri(&format!("new{batch}_{j}"));
                let id = fresh.lookup(&term).expect("a committed term is visible");
                assert_eq!(fresh.resolve(id), &term);
                assert_eq!(pin.lookup(&term), None);
            }
        }
    }

    #[test]
    fn retained_versions_track_pins_and_free_on_last_drop() {
        let shared = SharedStore::new(RdfStore::new());
        shared.commit(|st| st.insert(iri("a"), iri("p"), iri("b")));
        let pin = shared.snapshot();
        let old_generation = pin.generation();
        let pin2 = pin.clone();

        shared.commit(|st| {
            for i in 0..10u32 {
                st.insert(iri(&format!("n{i}")), iri("p"), iri("o"));
            }
        });

        let retained = shared.retained_versions();
        assert_eq!(retained.len(), 2, "old pinned version + current: {retained:?}");
        let old = &retained[0];
        assert_eq!(old.generation, old_generation);
        assert_eq!(old.pins, 2, "snapshot clones each count as a pin");
        assert!(!old.is_current);
        assert!(old.approx_bytes > 0);
        let cur = &retained[1];
        assert!(cur.is_current);
        assert_eq!(cur.pins, 0);
        assert!(cur.approx_bytes > old.approx_bytes);

        drop(pin);
        assert_eq!(shared.retained_versions().len(), 2, "one pin still live");
        drop(pin2);
        let retained = shared.retained_versions();
        assert_eq!(retained.len(), 1, "last pin dropped frees the old version");
        assert!(retained[0].is_current);
    }

    #[test]
    fn pinning_the_current_version_reports_one_row() {
        let shared = SharedStore::new(RdfStore::new());
        shared.commit(|st| st.insert(iri("a"), iri("p"), iri("b")));
        let pin = shared.snapshot();
        let retained = shared.retained_versions();
        assert_eq!(retained.len(), 1);
        assert_eq!(retained[0].pins, 1);
        assert!(retained[0].is_current);
        drop(pin);
        assert_eq!(shared.retained_versions()[0].pins, 0);
    }

    #[test]
    fn abort_discards_the_pending_version() {
        let shared = SharedStore::new(RdfStore::new());
        shared.commit(|st| st.insert(iri("keep"), iri("p"), iri("o")));
        let generation = shared.generation();

        let mut txn = shared.begin();
        txn.store_mut().insert(iri("scrapped"), iri("p"), iri("o"));
        txn.store_mut().remove(&iri("keep"), &iri("p"), &iri("o"));
        assert_eq!(txn.store().len(), 1, "transaction reads its own writes");
        txn.abort();

        assert_eq!(shared.generation(), generation);
        assert_eq!(shared.len(), 1);
        assert!(shared.snapshot().contains(&iri("keep"), &iri("p"), &iri("o")));
        // The gate was released: the next writer proceeds.
        let published = shared.commit(|st| st.insert(iri("next"), iri("p"), iri("o")));
        assert!(published);
    }

    #[test]
    fn open_transaction_never_blocks_snapshots() {
        let shared = SharedStore::new(RdfStore::new());
        shared.commit(|st| st.insert(iri("a"), iri("p"), iri("b")));
        let mut txn = shared.begin();
        txn.store_mut().insert(iri("pending"), iri("p"), iri("o"));
        // With the writer gate held and a dirty pending version, readers
        // still pin and scan the published version without blocking.
        let snap = shared.snapshot();
        assert_eq!(snap.len(), 1);
        assert!(!snap.contains(&iri("pending"), &iri("p"), &iri("o")));
        txn.commit();
        assert_eq!(shared.snapshot().len(), 2);
    }

    #[test]
    fn commits_are_atomic_never_torn() {
        // The writer flips between state A {x} and state B {y} with a
        // remove+insert batch per commit. Any snapshot must see exactly one
        // of the two markers — both or neither means a torn publication.
        let shared = SharedStore::new(RdfStore::new());
        shared.commit(|st| st.insert(iri("x"), iri("state"), iri("on")));
        let writer = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                for _ in 0..300 {
                    shared.commit(|st| {
                        st.remove(&iri("x"), &iri("state"), &iri("on"));
                        st.insert(iri("y"), iri("state"), iri("on"));
                    });
                    shared.commit(|st| {
                        st.remove(&iri("y"), &iri("state"), &iri("on"));
                        st.insert(iri("x"), iri("state"), iri("on"));
                    });
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || {
                    for _ in 0..300 {
                        let snap = shared.snapshot();
                        let has_x = snap.contains(&iri("x"), &iri("state"), &iri("on"));
                        let has_y = snap.contains(&iri("y"), &iri("state"), &iri("on"));
                        assert!(has_x ^ has_y, "torn commit: x={has_x} y={has_y}");
                        assert_eq!(snap.len(), 1);
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn serialised_writers_lose_no_commits() {
        let shared = SharedStore::new(RdfStore::new());
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let shared = shared.clone();
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        shared
                            .commit(|st| st.insert(iri(&format!("w{w}-{i}")), iri("p"), iri("o")));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(shared.len(), 200, "a concurrent commit was lost");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Interleaved batched commits vs pinned snapshots: every snapshot
        /// is internally consistent (len == full-scan count) and *stays*
        /// bit-identical while the writer churns; the final store equals the
        /// sequential application of the writer's operations.
        #[test]
        fn interleaved_commits_keep_snapshots_frozen(
            ops in proptest::collection::vec(
                ("[a-d]{1,2}", "[p-r]", "[x-z]{1,2}", any::<bool>()), 1..40),
        ) {
            let shared = SharedStore::new(RdfStore::new());
            let writer = {
                let shared = shared.clone();
                let ops = ops.clone();
                std::thread::spawn(move || {
                    // Commit in small batches: each batch is one version flip.
                    for batch in ops.chunks(3) {
                        shared.commit(|st| {
                            for (s, p, o, insert) in batch {
                                if *insert {
                                    st.insert(iri(s), iri(p), iri(o));
                                } else {
                                    st.remove(&iri(s), &iri(p), &iri(o));
                                }
                            }
                        });
                    }
                })
            };
            let readers: Vec<_> = (0..2).map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || {
                    for _ in 0..30 {
                        let snap = shared.snapshot();
                        let generation = snap.generation();
                        let len = snap.len();
                        let dump = snap.to_ntriples();
                        assert_eq!(snap.scan_iter(None, None, None).count(), len);
                        for pred in snap.predicates() {
                            assert!(snap.scan_iter(None, Some(pred), None).count() <= len);
                        }
                        // Re-inspect the same pin: nothing may have moved.
                        assert_eq!(snap.generation(), generation);
                        assert_eq!(snap.len(), len);
                        assert_eq!(snap.to_ntriples(), dump, "pinned snapshot mutated");
                    }
                })
            }).collect();
            writer.join().unwrap();
            for r in readers {
                r.join().unwrap();
            }

            // Serial reference.
            let mut reference = std::collections::BTreeSet::new();
            for (s, p, o, insert) in &ops {
                if *insert {
                    reference.insert((s.clone(), p.clone(), o.clone()));
                } else {
                    reference.remove(&(s.clone(), p.clone(), o.clone()));
                }
            }
            let Ok(store) = shared.try_unwrap() else { panic!("all threads joined") };
            prop_assert_eq!(store.len(), reference.len());
            for (s, p, o) in &reference {
                prop_assert!(store.contains(&iri(s), &iri(p), &iri(o)));
            }
        }
    }
}
