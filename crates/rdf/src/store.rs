//! The triple store: three orderings (SPO/POS/OSP) over interned triples.
//!
//! This is the reproduction's Virtuoso stand-in: the KGNet platform loads
//! knowledge graphs here, the meta-sampler extracts task-specific subgraphs
//! from it through pattern scans, and the SPARQL engine evaluates basic
//! graph patterns against its indexes.
//!
//! # Copy-on-write interior
//!
//! Each index is split into `SHARDS` = 1024 B-tree shards keyed by the
//! tuple's first component, every shard behind its own [`Arc`]. Cloning a
//! store copies those pointers, the small recent part of the term
//! dictionary (its frozen part is shared, see [`TermDict`]) and the
//! statistics cache. After that the clone shares every shard with the
//! original until one side mutates, and then only the touched shard is
//! deep-copied ([`Arc::make_mut`]). A commit of `n` triples therefore copies
//! at most `3n` shards: an SPO or OSP shard holds ~1/1024 of its index, a
//! POS shard the whole range of the predicates it holds. This is what makes
//! MVCC snapshots cheap: a writer clones the current version, mutates its
//! private copy shard-by-shard, and publishes the result atomically while
//! readers keep scanning the old shards (see `shared.rs`).
//!
//! Because a shard holds every tuple whose first component hashes to it,
//! bound-first-component scans (`S??`, `?P?`, `??O` and their refinements)
//! stay single-shard range walks; only the unconstrained `???` scan pays a
//! heap merge across shards to preserve global SPO order.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{btree_set, BTreeSet, BinaryHeap};
use std::ops::Bound;
use std::sync::Arc;

use kgnet_sync::Mutex;
use rustc_hash::{FxHashMap, FxHashSet};

use crate::dict::{TermDict, TermId};
use crate::term::{Term, RDF_TYPE};

/// A triple of interned term ids `(subject, predicate, object)`.
pub type Triple = (TermId, TermId, TermId);

/// One position of a triple pattern: bound to a term id or a wildcard.
pub type PatternSlot = Option<TermId>;

/// Number of copy-on-write B-tree shards per index.
const SHARDS: usize = 1024;
const SHARD_MASK: u32 = SHARDS as u32 - 1;

/// Cached index statistics for one predicate, used by the query planner to
/// order joins by estimated cardinality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredicateStats {
    /// Triples using this predicate.
    pub triples: usize,
    /// Distinct subjects appearing with this predicate.
    pub distinct_subjects: usize,
    /// Distinct objects appearing with this predicate.
    pub distinct_objects: usize,
}

/// One index entry: a triple's ids in its index's own order.
type Entry = (u32, u32, u32);

/// One index ordering as copy-on-write B-tree shards, partitioned by the
/// first tuple component (`first & SHARD_MASK`). Tuples sharing a first
/// component live in one shard, so fixing the first component keeps range
/// scans single-shard.
#[derive(Clone)]
struct ShardedIndex {
    shards: Box<[Arc<BTreeSet<Entry>>]>,
}

impl Default for ShardedIndex {
    /// Every shard starts as a clone of one shared empty set.
    fn default() -> Self {
        let empty = Arc::new(BTreeSet::new());
        ShardedIndex { shards: (0..SHARDS).map(|_| Arc::clone(&empty)).collect() }
    }
}

impl ShardedIndex {
    fn shard_of(first: u32) -> usize {
        (first & SHARD_MASK) as usize
    }

    fn contains(&self, t: &(u32, u32, u32)) -> bool {
        self.shards[Self::shard_of(t.0)].contains(t)
    }

    /// Insert, deep-copying the target shard only if it is shared *and* the
    /// tuple is actually new.
    fn insert(&mut self, t: (u32, u32, u32)) -> bool {
        let shard = &mut self.shards[Self::shard_of(t.0)];
        if shard.contains(&t) {
            return false;
        }
        Arc::make_mut(shard).insert(t)
    }

    /// Remove, deep-copying the target shard only if it is shared *and* the
    /// tuple is actually present.
    fn remove(&mut self, t: &(u32, u32, u32)) -> bool {
        let shard = &mut self.shards[Self::shard_of(t.0)];
        if !shard.contains(t) {
            return false;
        }
        Arc::make_mut(shard).remove(t)
    }

    /// All tuples whose first component is `a` (one shard, one range).
    fn range1(&self, a: u32) -> btree_set::Range<'_, (u32, u32, u32)> {
        self.shards[Self::shard_of(a)]
            .range((Bound::Included((a, 0, 0)), Bound::Included((a, u32::MAX, u32::MAX))))
    }

    /// All tuples with first component `a` and second component `b`.
    fn range2(&self, a: u32, b: u32) -> btree_set::Range<'_, (u32, u32, u32)> {
        self.shards[Self::shard_of(a)]
            .range((Bound::Included((a, b, 0)), Bound::Included((a, b, u32::MAX))))
    }

    /// Every tuple across all shards in global sort order (k-way merge).
    fn iter_merged(&self) -> MergeIter<'_> {
        let mut shards = Vec::new();
        let mut heap = BinaryHeap::new();
        for shard in self.shards.iter() {
            let mut it = shard.iter();
            if let Some(&t) = it.next() {
                heap.push(Reverse((t, shards.len())));
                shards.push(it);
            }
        }
        MergeIter { shards, heap }
    }
}

/// K-way merge over the sorted shards of one index, restoring global tuple
/// order for unconstrained scans: a min-heap holds each non-empty shard's
/// next tuple, so each item costs O(log shards).
struct MergeIter<'a> {
    shards: Vec<btree_set::Iter<'a, Entry>>,
    /// `(next tuple, index into shards)` per shard not yet drained.
    heap: BinaryHeap<Reverse<(Entry, usize)>>,
}

impl Iterator for MergeIter<'_> {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        let mut top = self.heap.peek_mut()?;
        let Reverse((t, i)) = *top;
        match self.shards[i].next() {
            Some(&next) => *top = Reverse((next, i)),
            None => {
                PeekMut::pop(top);
            }
        }
        Some(t)
    }
}

/// An in-memory RDF store with SPO, POS and OSP indexes.
///
/// `Clone` is cheap (copy-on-write): the clone shares the term dictionary's
/// frozen part and all index shards until either side mutates. It copies
/// the statistics cache, so a version starts with its parent's statistics;
/// a mutation drops only the entry of the predicate it touches. The two
/// caches are separate afterwards, so a pinned old snapshot and the current
/// version never thrash one cache.
#[derive(Default)]
pub struct RdfStore {
    dict: TermDict,
    spo: ShardedIndex,
    pos: ShardedIndex,
    osp: ShardedIndex,
    /// Triple count, maintained incrementally (shards make summing O(k)).
    triples: usize,
    /// Bumped on every successful insert/remove: the MVCC version id.
    generation: u64,
    /// Per-predicate statistics computed so far, valid for this version.
    stats: Mutex<FxHashMap<u32, PredicateStats>>,
}

impl Clone for RdfStore {
    fn clone(&self) -> Self {
        RdfStore {
            dict: self.dict.clone(),
            spo: self.spo.clone(),
            pos: self.pos.clone(),
            osp: self.osp.clone(),
            triples: self.triples,
            generation: self.generation,
            stats: Mutex::new(self.stats.lock().clone()),
        }
    }
}

impl RdfStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The term dictionary (for id resolution).
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// Intern a term without asserting any triple.
    pub fn intern(&mut self, term: Term) -> TermId {
        self.dict.intern(term)
    }

    /// Look up an already-interned term.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.dict.get(term)
    }

    /// Resolve a term id.
    pub fn resolve(&self, id: TermId) -> &Term {
        self.dict.resolve(id)
    }

    /// Insert a triple of terms. Returns `true` when newly added.
    pub fn insert(&mut self, s: Term, p: Term, o: Term) -> bool {
        let s = self.intern(s);
        let p = self.intern(p);
        let o = self.intern(o);
        self.insert_ids(s, p, o)
    }

    /// Insert a triple of pre-interned ids. Returns `true` when newly added.
    pub fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        let added = self.spo.insert((s.0, p.0, o.0));
        if added {
            self.pos.insert((p.0, o.0, s.0));
            self.osp.insert((o.0, s.0, p.0));
            self.triples += 1;
            self.generation += 1;
            self.stats.get_mut().remove(&p.0);
        }
        added
    }

    /// Remove a triple of terms. Returns `true` when it existed.
    pub fn remove(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        match (self.dict.get(s), self.dict.get(p), self.dict.get(o)) {
            (Some(s), Some(p), Some(o)) => self.remove_ids(s, p, o),
            _ => false,
        }
    }

    /// Remove a triple of ids. Returns `true` when it existed.
    pub fn remove_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        let removed = self.spo.remove(&(s.0, p.0, o.0));
        if removed {
            self.pos.remove(&(p.0, o.0, s.0));
            self.osp.remove(&(o.0, s.0, p.0));
            self.triples -= 1;
            self.generation += 1;
            self.stats.get_mut().remove(&p.0);
        }
        removed
    }

    /// Mutation counter; bumped whenever a triple is added or removed. This
    /// is the MVCC version id: a published snapshot is identified by the
    /// generation it was committed at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples
    }

    /// True when the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples == 0
    }

    /// Coarse index-memory estimate for this version: every triple is held
    /// as three `(u32, u32, u32)` entries (SPO/POS/OSP), doubled for B-tree
    /// node overhead. The term dictionary is mostly shared between versions
    /// (its frozen part) and is deliberately not counted.
    pub fn approx_bytes(&self) -> usize {
        self.triples * 3 * std::mem::size_of::<(u32, u32, u32)>() * 2
    }

    /// Membership test on ids.
    pub fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.spo.contains(&(s.0, p.0, o.0))
    }

    /// Membership test on terms.
    pub fn contains(&self, s: &Term, p: &Term, o: &Term) -> bool {
        match (self.dict.get(s), self.dict.get(p), self.dict.get(o)) {
            (Some(s), Some(p), Some(o)) => self.contains_ids(s, p, o),
            _ => false,
        }
    }

    /// Iterate every triple in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter_merged().map(|(s, p, o)| (TermId(s), TermId(p), TermId(o)))
    }

    /// Lazily match a triple pattern, yielding each match in index order.
    ///
    /// Index choice: `S??`/`SP?`/`SPO` use SPO; `?P?`/`?PO` use POS;
    /// `??O`/`S?O` use OSP; `???` merges the SPO shards. Because the
    /// iterator walks the underlying B-tree ranges on demand,
    /// short-circuiting consumers (e.g. a `LIMIT k` query) stop the index
    /// scan as soon as they have enough matches.
    pub fn scan_iter(&self, s: PatternSlot, p: PatternSlot, o: PatternSlot) -> ScanIter<'_> {
        let inner = match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                ScanInner::One(self.contains_ids(s, p, o).then_some((s, p, o)))
            }
            (Some(s), Some(p), None) => ScanInner::Spo(self.spo.range2(s.0, p.0)),
            (Some(s), None, None) => ScanInner::Spo(self.spo.range1(s.0)),
            (None, Some(p), Some(o)) => ScanInner::Pos(self.pos.range2(p.0, o.0)),
            (None, Some(p), None) => ScanInner::Pos(self.pos.range1(p.0)),
            (None, None, Some(o)) => ScanInner::Osp(self.osp.range1(o.0)),
            (Some(s), None, Some(o)) => ScanInner::Osp(self.osp.range2(o.0, s.0)),
            (None, None, None) => ScanInner::Full(self.spo.iter_merged()),
        };
        ScanIter { inner }
    }

    /// Match a triple pattern, pushing each match into `out`.
    pub fn scan(&self, s: PatternSlot, p: PatternSlot, o: PatternSlot, out: &mut Vec<Triple>) {
        out.extend(self.scan_iter(s, p, o));
    }

    /// Collected matches for a pattern.
    pub fn matches(&self, s: PatternSlot, p: PatternSlot, o: PatternSlot) -> Vec<Triple> {
        self.scan_iter(s, p, o).collect()
    }

    /// Count matches for a pattern without materialising terms.
    pub fn count(&self, s: PatternSlot, p: PatternSlot, o: PatternSlot) -> usize {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => usize::from(self.contains_ids(s, p, o)),
            (None, None, None) => self.triples,
            _ => self.scan_iter(s, p, o).count(),
        }
    }

    /// Index statistics for one predicate: triple count plus distinct
    /// subject/object counts, i.e. the fan-outs the join planner divides by
    /// when a variable position is already bound.
    ///
    /// Computed on first request per predicate and cached. Each store
    /// version (snapshot) owns its cache, so stats are snapshot-keyed; a
    /// clone inherits its parent's entries, and inserting or removing a
    /// triple drops only its predicate's entry.
    pub fn predicate_stats(&self, p: TermId) -> PredicateStats {
        // Non-poisoning facade mutex: a reader that panics (e.g. a
        // cancelled training job sharing the store) cannot wedge the cache.
        // It is not held during the walk, so a clone (a writer's `begin`)
        // never waits on a reader's computation; two readers may compute
        // one predicate at once and store the same answer.
        if let Some(&stats) = self.stats.lock().get(&p.0) {
            return stats;
        }
        // POS range for p is sorted by object: distinct objects fall out of
        // run-length counting, distinct subjects need a set.
        let mut stats = PredicateStats::default();
        let mut last_object = None;
        let mut subjects = FxHashSet::default();
        for &(_, o, s) in self.pos.range1(p.0) {
            stats.triples += 1;
            if last_object != Some(o) {
                stats.distinct_objects += 1;
                last_object = Some(o);
            }
            subjects.insert(s);
        }
        stats.distinct_subjects = subjects.len();
        self.stats.lock().insert(p.0, stats);
        stats
    }

    /// All subjects with `rdf:type <type_iri>`.
    pub fn subjects_of_type(&self, type_iri: &str) -> Vec<TermId> {
        let Some(rdf_type) = self.dict.get(&Term::iri(RDF_TYPE)) else {
            return vec![];
        };
        let Some(ty) = self.dict.get(&Term::iri(type_iri)) else {
            return vec![];
        };
        self.pos.range2(rdf_type.0, ty.0).map(|&(_, _, s)| TermId(s)).collect()
    }

    /// Distinct predicates in the store, ascending by id.
    pub fn predicates(&self) -> Vec<TermId> {
        // Shards partition the POS index by predicate id, so per-shard
        // run-length distincts never collide across shards; one global sort
        // restores ascending order.
        let mut out = Vec::new();
        for shard in self.pos.shards.iter() {
            let mut last: Option<u32> = None;
            for &(p, _, _) in shard.iter() {
                if last != Some(p) {
                    out.push(p);
                    last = Some(p);
                }
            }
        }
        out.sort_unstable();
        out.into_iter().map(TermId).collect()
    }

    /// Serialise to N-Triples text (stable SPO order).
    pub fn to_ntriples(&self) -> String {
        let mut out = String::new();
        for (s, p, o) in self.iter() {
            out.push_str(&format!(
                "{} {} {} .\n",
                self.resolve(s),
                self.resolve(p),
                self.resolve(o)
            ));
        }
        out
    }
}

/// Lazy pattern-match iterator returned by [`RdfStore::scan_iter`].
pub struct ScanIter<'a> {
    inner: ScanInner<'a>,
}

/// Which index backs the scan, with its tuple order.
enum ScanInner<'a> {
    /// Fully-ground pattern: at most one match.
    One(Option<Triple>),
    /// SPO-ordered range: tuples are `(s, p, o)`.
    Spo(btree_set::Range<'a, (u32, u32, u32)>),
    /// POS-ordered range: tuples are `(p, o, s)`.
    Pos(btree_set::Range<'a, (u32, u32, u32)>),
    /// OSP-ordered range: tuples are `(o, s, p)`.
    Osp(btree_set::Range<'a, (u32, u32, u32)>),
    /// Unconstrained scan: heap merge across the SPO shards.
    Full(MergeIter<'a>),
}

impl Iterator for ScanIter<'_> {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        match &mut self.inner {
            ScanInner::One(t) => t.take(),
            ScanInner::Spo(r) => r.next().map(|&(s, p, o)| (TermId(s), TermId(p), TermId(o))),
            ScanInner::Pos(r) => r.next().map(|&(p, o, s)| (TermId(s), TermId(p), TermId(o))),
            ScanInner::Osp(r) => r.next().map(|&(o, s, p)| (TermId(s), TermId(p), TermId(o))),
            ScanInner::Full(it) => it.next().map(|(s, p, o)| (TermId(s), TermId(p), TermId(o))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn small_store() -> RdfStore {
        let mut st = RdfStore::new();
        st.insert(iri("p1"), iri("cites"), iri("p2"));
        st.insert(iri("p1"), iri("title"), Term::str("Paper one"));
        st.insert(iri("p2"), iri("cites"), iri("p3"));
        st.insert(iri("p1"), Term::iri(RDF_TYPE), iri("Publication"));
        st.insert(iri("p2"), Term::iri(RDF_TYPE), iri("Publication"));
        st
    }

    #[test]
    fn insert_is_idempotent() {
        let mut st = RdfStore::new();
        assert!(st.insert(iri("a"), iri("p"), iri("b")));
        assert!(!st.insert(iri("a"), iri("p"), iri("b")));
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn remove_updates_all_indexes() {
        let mut st = small_store();
        assert!(st.remove(&iri("p1"), &iri("cites"), &iri("p2")));
        assert_eq!(st.len(), 4);
        let p = st.lookup(&iri("cites")).unwrap();
        assert_eq!(st.count(None, Some(p), None), 1);
        let s = st.lookup(&iri("p1")).unwrap();
        assert_eq!(st.count(Some(s), None, None), 2);
    }

    #[test]
    fn scan_each_pattern_shape() {
        let st = small_store();
        let s = st.lookup(&iri("p1")).unwrap();
        let p = st.lookup(&iri("cites")).unwrap();
        let o = st.lookup(&iri("p2")).unwrap();
        assert_eq!(st.matches(Some(s), Some(p), Some(o)).len(), 1);
        assert_eq!(st.matches(Some(s), Some(p), None).len(), 1);
        assert_eq!(st.matches(Some(s), None, None).len(), 3);
        assert_eq!(st.matches(None, Some(p), Some(o)).len(), 1);
        assert_eq!(st.matches(None, Some(p), None).len(), 2);
        assert_eq!(st.matches(None, None, Some(o)).len(), 1);
        assert_eq!(st.matches(Some(s), None, Some(o)).len(), 1);
        assert_eq!(st.matches(None, None, None).len(), 5);
    }

    #[test]
    fn count_matches_scan_lengths() {
        let st = small_store();
        let p = st.lookup(&iri("cites")).unwrap();
        assert_eq!(st.count(None, Some(p), None), st.matches(None, Some(p), None).len());
        assert_eq!(st.count(None, None, None), st.len());
    }

    #[test]
    fn subjects_of_type_finds_typed_nodes() {
        let st = small_store();
        let subs = st.subjects_of_type("http://x/Publication");
        assert_eq!(subs.len(), 2);
        let names: Vec<&Term> = subs.iter().map(|&s| st.resolve(s)).collect();
        assert!(names.contains(&&iri("p1")));
        assert!(names.contains(&&iri("p2")));
    }

    #[test]
    fn predicates_are_distinct() {
        let st = small_store();
        assert_eq!(st.predicates().len(), 3); // cites, title, rdf:type
    }

    #[test]
    fn scan_iter_is_lazy_and_matches_scan() {
        let st = small_store();
        let p = st.lookup(&iri("cites")).unwrap();
        // Taking one match must not require walking the whole range.
        let first = st.scan_iter(None, Some(p), None).next().unwrap();
        assert!(st.matches(None, Some(p), None).contains(&first));
        // Full drain agrees with the eager scan for every shape.
        let s = st.lookup(&iri("p1")).unwrap();
        for (a, b, c) in [(None, None, None), (Some(s), None, None), (None, Some(p), None)] {
            assert_eq!(st.scan_iter(a, b, c).collect::<Vec<_>>(), st.matches(a, b, c));
        }
    }

    #[test]
    fn full_scan_merges_shards_in_global_spo_order() {
        // 100 distinct subjects land in 100 distinct SPO shards (the other
        // 924 stay empty), so the merge has many shards to interleave.
        let mut st = RdfStore::new();
        for i in 0..100u32 {
            st.insert(iri(&format!("s{i}")), iri(&format!("q{}", i % 7)), iri(&format!("o{i}")));
        }
        let merged: Vec<_> =
            st.scan_iter(None, None, None).map(|(s, p, o)| (s.0, p.0, o.0)).collect();
        assert_eq!(merged.len(), 100);
        let mut sorted = merged.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(merged, sorted, "merge must restore global sorted order without duplicates");
    }

    #[test]
    fn clone_is_copy_on_write_snapshot() {
        let st = small_store();
        let before = st.to_ntriples();
        let generation = st.generation();

        let mut clone = st.clone();
        clone.remove(&iri("p1"), &iri("cites"), &iri("p2"));
        clone.insert(iri("p9"), iri("cites"), iri("p1"));
        clone.insert(iri("p9"), iri("extra"), Term::str("new term"));

        // The original is bit-identical: same dump, length and generation.
        assert_eq!(st.to_ntriples(), before);
        assert_eq!(st.len(), 5);
        assert_eq!(st.generation(), generation);
        assert!(st.lookup(&iri("extra")).is_none(), "dict mutation leaked into the original");
        // The clone diverged independently.
        assert_eq!(clone.len(), 6);
        assert!(clone.generation() > generation);
        assert!(clone.contains(&iri("p9"), &iri("cites"), &iri("p1")));
        assert!(!clone.contains(&iri("p1"), &iri("cites"), &iri("p2")));
    }

    /// Shards of `a` that are not the very allocation `b` holds.
    fn shards_differing(a: &RdfStore, b: &RdfStore) -> usize {
        [(&a.spo, &b.spo), (&a.pos, &b.pos), (&a.osp, &b.osp)]
            .iter()
            .flat_map(|(x, y)| x.shards.iter().zip(y.shards.iter()))
            .filter(|(x, y)| !Arc::ptr_eq(x, y))
            .count()
    }

    #[test]
    fn small_commit_copies_only_touched_shards_and_no_dictionary() {
        let mut base = RdfStore::new();
        for i in 0..10_000u32 {
            base.insert(
                iri(&format!("s{}", i / 5)),
                iri(&format!("q{}", i % 5)),
                iri(&format!("o{i}")),
            );
        }
        let mut clone = base.clone();
        assert_eq!(shards_differing(&clone, &base), 0);
        for i in 0..20u32 {
            clone.insert(iri(&format!("fresh{i}")), iri("q0"), iri("o7"));
        }
        assert!(clone.dict().shares_frozen_with(base.dict()), "the commit copied the dictionary");
        let copied = shards_differing(&clone, &base);
        assert!(copied <= 3 * 20, "{copied} shards copied for 20 triples");
        assert_eq!(base.len(), 10_000);
        assert_eq!(base.lookup(&iri("fresh0")), None);
        assert_eq!(clone.len(), 10_020);
    }

    #[test]
    fn full_scan_over_every_shard_is_in_global_spo_order() {
        let mut st = RdfStore::new();
        for i in 0..4_000u32 {
            st.insert(
                iri(&format!("s{i}")),
                iri(&format!("q{}", i % 3)),
                iri(&format!("o{}", i % 11)),
            );
        }
        assert!(st.spo.shards.iter().all(|s| !s.is_empty()), "some shard stayed empty");
        let merged: Vec<Triple> = st.iter().collect();
        assert_eq!(merged.len(), st.len());
        assert!(merged.windows(2).all(|w| w[0] < w[1]), "merge is out of order");
    }

    #[test]
    fn predicate_stats_counts_and_invalidates() {
        let mut st = small_store();
        let cites = st.lookup(&iri("cites")).unwrap();
        let stats = st.predicate_stats(cites);
        assert_eq!(stats.triples, 2);
        assert_eq!(stats.distinct_subjects, 2); // p1, p2
        assert_eq!(stats.distinct_objects, 2); // p2, p3

        // rdf:type has two subjects sharing one object class.
        let ty = st.lookup(&Term::iri(RDF_TYPE)).unwrap();
        let stats = st.predicate_stats(ty);
        assert_eq!(stats.distinct_subjects, 2);
        assert_eq!(stats.distinct_objects, 1);

        // Mutations invalidate the cache via the generation counter.
        let generation = st.generation();
        st.insert(iri("p3"), iri("cites"), iri("p1"));
        assert!(st.generation() > generation);
        assert_eq!(st.predicate_stats(cites).triples, 3);
        assert_eq!(st.predicate_stats(cites).distinct_subjects, 3);
    }

    #[test]
    fn predicate_stats_of_unknown_predicate_is_zero() {
        let st = small_store();
        let dangling = st.lookup(&iri("title")).unwrap();
        assert_eq!(st.predicate_stats(dangling).triples, 1);
        // An id never used as predicate has empty stats.
        let p1 = st.lookup(&iri("p1")).unwrap();
        assert_eq!(st.predicate_stats(p1), PredicateStats::default());
    }

    #[test]
    fn ntriples_dump_contains_all_triples() {
        let st = small_store();
        let text = st.to_ntriples();
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains("<http://x/p1> <http://x/cites> <http://x/p2> ."));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Statistics a clone inherits stay right: after random inserts and
        /// removes on a clone of a store whose cache is full, every
        /// predicate's (possibly cached) stats equal those of an uncached
        /// store holding the same triples.
        #[test]
        fn inherited_stats_match_an_uncached_store(
            base_triples in proptest::collection::vec((0..12u8, 0..4u8, 0..12u8), 1..60),
            ops in proptest::collection::vec(
                (0..12u8, 0..5u8, 0..12u8, proptest::prelude::any::<bool>()), 1..40),
        ) {
            let t = |s: u8, p: u8, o: u8| {
                (iri(&format!("s{s}")), iri(&format!("q{p}")), iri(&format!("s{o}")))
            };
            let mut base = RdfStore::new();
            for &(s, p, o) in &base_triples {
                let (s, p, o) = t(s, p, o);
                base.insert(s, p, o);
            }
            for p in base.predicates() {
                base.predicate_stats(p);
            }
            let mut clone = base.clone();
            for &(s, p, o, insert) in &ops {
                let (s, p, o) = t(s, p, o);
                if insert {
                    clone.insert(s, p, o);
                } else {
                    clone.remove(&s, &p, &o);
                }
            }
            let mut uncached = RdfStore::new();
            for (s, p, o) in clone.iter() {
                let [s, p, o] = [s, p, o].map(|id| clone.resolve(id).clone());
                uncached.insert(s, p, o);
            }
            for q in 0..5u8 {
                let term = iri(&format!("q{q}"));
                let expected =
                    uncached.lookup(&term).map(|p| uncached.predicate_stats(p)).unwrap_or_default();
                if let Some(p) = clone.lookup(&term) {
                    proptest::prop_assert_eq!(clone.predicate_stats(p), expected, "q{}", q);
                }
            }
        }
    }
}
