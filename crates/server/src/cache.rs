//! The server-wide shared LRU cache of prepared SPARQL plans.
//!
//! Planning a SELECT re-resolves every ground term, re-reads predicate
//! statistics and re-plans sub-selects (a plan holds no rows: each
//! execution runs its sub-selects once); a SPARQL-ML SELECT adds model
//! selection over KGMeta and the inference-plan choice (a plan holds no
//! predictions either: each execution makes its own inference calls). For
//! the repeated parametric queries of an OLTP-style workload that work is
//! identical run after run — and identical *across sessions*, so one
//! [`SharedPlanCache`] hangs off the server and every
//! [`ReadSession`](crate::ReadSession) consults it. A plan prepared by any
//! session serves all of them.
//!
//! Entries are keyed by the *lexer's token stream* plus the store
//! [`generation`](kgnet_rdf::RdfStore::generation) (MVCC snapshot version)
//! they were compiled against. Deriving the key from [`tokenize`] makes it
//! agree with the parser by construction — whitespace and `#` comments
//! never fragment the cache, both `"..."` and `'...'` literal styles keep
//! their content significant, a `#` inside an `<...>` IRI is a fragment.
//! Because the generation is part of the key (not a validity check), a
//! session pinned to an older snapshot keeps hitting the plans compiled
//! for *its* version while sessions on the current version populate
//! theirs; superseded-generation entries age out through the LRU policy.
//! KGMeta is triples in the same version, so the models an ML plan names
//! are that generation's, and their artifacts outlive every pin of it
//! ([`RetiredModels`](crate::RetiredModels)).
//!
//! Lookup ([`SharedPlanCache::get`]) and insertion
//! ([`SharedPlanCache::insert`]) are split so a hit costs one tokenize +
//! hash under a short mutex hold — callers skip parsing and planning
//! entirely on the hot path, and plan a miss outside the lock. Sessions
//! count their own hits and misses; the cache keeps the server-wide totals.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use kgnet_sync::profile::SyncSite;
use kgnet_sync::tracked::lock_tracked;
use kgnet_sync::Mutex;

use kgnet_rdf::sparql::lexer::tokenize;

/// Contention profile of the shared plan-cache mutex: every session's
/// lookup and every cold-plan insertion funnels through it, so its
/// contended share is the first thing to check when read p99 regresses.
static PLAN_CACHE_SITE: SyncSite = SyncSite::new("server.plan_cache");
use kgnet_rdf::PreparedQuery;

/// Hit/miss counters and occupancy of a plan cache (server-wide when read
/// off the cache itself, per-session when read off a `ReadSession`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (same token stream, same generation).
    pub hits: u64,
    /// Plans prepared and inserted (cold, or a generation not yet seen),
    /// plain and SPARQL-ML alike. Lookups for queries that are never cached
    /// (updates, `TrainGML`, a SELECT that fails to prepare) do not count,
    /// so hits/misses reflect only cacheable traffic.
    pub misses: u64,
    /// Entries currently cached (across all generations).
    pub entries: usize,
}

struct Entry {
    prepared: Arc<PreparedQuery>,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<(String, u64), Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// A shared LRU map from `(query token stream, store generation)` to a
/// prepared plan. Interior-mutable: sessions hold it behind an `Arc` and
/// call through `&self` concurrently.
pub struct SharedPlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl SharedPlanCache {
    /// Cache holding at most `capacity` plans (at least one).
    pub fn new(capacity: usize) -> Self {
        SharedPlanCache { capacity: capacity.max(1), inner: Mutex::new(Inner::default()) }
    }

    /// Server-wide counters.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_tracked(&self.inner, &PLAN_CACHE_SITE);
        CacheStats { hits: inner.hits, misses: inner.misses, entries: inner.entries.len() }
    }

    /// Fetch the plan for `text` compiled against snapshot `generation`.
    /// On `None` the caller should parse, prepare and [`insert`](Self::insert)
    /// next; the miss is counted there, so lookups for never-cached query
    /// kinds do not skew the stats.
    pub fn get(&self, generation: u64, text: &str) -> Option<Arc<PreparedQuery>> {
        let key = key_of(text)?;
        let mut inner = lock_tracked(&self.inner, &PLAN_CACHE_SITE);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.get_mut(&(key, generation)) {
            entry.last_used = tick;
            let prepared = entry.prepared.clone();
            inner.hits += 1;
            return Some(prepared);
        }
        None
    }

    /// Cache `prepared`, a plan the caller compiled from `text` — a plain
    /// or a SPARQL-ML SELECT — under `text`'s token stream and the plan's
    /// generation for the next [`get`](Self::get), by this session or any
    /// other, and count the miss. When two sessions race on the same cold
    /// query both prepare and the last insert wins, which is correct
    /// because equal keys imply equal plans.
    pub fn insert(&self, text: &str, prepared: PreparedQuery) -> Arc<PreparedQuery> {
        let prepared = Arc::new(prepared);
        let mut inner = lock_tracked(&self.inner, &PLAN_CACHE_SITE);
        inner.misses += 1;
        if let Some(key) = key_of(text) {
            inner.tick += 1;
            let tick = inner.tick;
            if inner.entries.len() >= self.capacity {
                evict_lru(&mut inner);
            }
            inner.entries.insert(
                (key, prepared.generation()),
                Entry { prepared: prepared.clone(), last_used: tick },
            );
        }
        prepared
    }
}

fn evict_lru(inner: &mut Inner) {
    if let Some(key) = inner.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
    {
        inner.entries.remove(&key);
    }
}

/// The cache key: the query's token stream rendered unambiguously. Built on
/// the parser's own [`tokenize`], so "same query" can never drift from what
/// the parser sees — whitespace and comments are discarded, literal content
/// (either quote style) is significant, IRIs are scanned atomically. `None`
/// when the text does not lex; such a query cannot have produced a plan and
/// is never cached.
fn key_of(text: &str) -> Option<String> {
    let tokens = tokenize(text).ok()?;
    let mut key = String::with_capacity(text.len());
    for token in &tokens {
        // Debug rendering is self-delimiting: variant name + quoted,
        // escaped payloads.
        let _ = write!(key, "{token:?} ");
    }
    Some(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgnet_rdf::sparql::{parse_select, prepare_select};
    use kgnet_rdf::{RdfStore, Term};

    fn store() -> RdfStore {
        let mut st = RdfStore::new();
        for i in 0..5 {
            st.insert(Term::iri(format!("http://x/s{i}")), Term::iri("http://x/p"), Term::int(i));
        }
        st
    }

    /// The caller-side protocol: consult the cache, parse + insert on miss.
    fn fetch(cache: &SharedPlanCache, st: &RdfStore, q: &str) -> Arc<PreparedQuery> {
        if let Some(prepared) = cache.get(st.generation(), q) {
            return prepared;
        }
        cache.insert(q, prepare_select(st, parse_select(q).unwrap()).unwrap())
    }

    #[test]
    fn hit_on_repeat_and_whitespace_variants() {
        let st = store();
        let cache = SharedPlanCache::new(8);
        let q = "SELECT ?s WHERE { ?s <http://x/p> ?o }";
        let a = fetch(&cache, &st, q);
        let variant = "SELECT ?s  WHERE {\n  ?s <http://x/p> ?o\n}";
        let b = fetch(&cache, &st, variant);
        assert!(Arc::ptr_eq(&a, &b), "token-identical variants must share one plan");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn literal_whitespace_is_significant() {
        // Two queries differing only inside a string literal must not share
        // a cache key — otherwise the second silently gets the first's plan
        // (and, for ground literals, the first's results).
        let mut st = RdfStore::new();
        st.insert(Term::iri("http://x/two"), Term::iri("http://x/t"), Term::str("a  b"));
        st.insert(Term::iri("http://x/one"), Term::iri("http://x/t"), Term::str("a b"));
        let cache = SharedPlanCache::new(8);
        let two_spaces = r#"SELECT ?p WHERE { ?p <http://x/t> "a  b" }"#;
        let one_space = r#"SELECT ?p WHERE { ?p <http://x/t> "a b" }"#;
        assert_ne!(key_of(two_spaces), key_of(one_space));
        let a = fetch(&cache, &st, two_spaces);
        let b = fetch(&cache, &st, one_space);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().misses, 2);
        // Escaped quotes do not terminate the literal early.
        assert_ne!(
            key_of(r#"SELECT ?p WHERE { ?p <http://x/t> "x\" y" }"#),
            key_of(r#"SELECT ?p WHERE { ?p <http://x/t> "x\"  y" }"#),
        );
    }

    #[test]
    fn single_quoted_literal_whitespace_is_significant() {
        // The lexer accepts '...' literals too: they must get the same
        // treatment as "...", or two queries differing only inside a
        // single-quoted literal would share one cache key (and plan).
        let mut st = RdfStore::new();
        st.insert(Term::iri("http://x/two"), Term::iri("http://x/t"), Term::str("a  b"));
        st.insert(Term::iri("http://x/one"), Term::iri("http://x/t"), Term::str("a b"));
        let cache = SharedPlanCache::new(8);
        let two_spaces = "SELECT ?p WHERE { ?p <http://x/t> 'a  b' }";
        let one_space = "SELECT ?p WHERE { ?p <http://x/t> 'a b' }";
        assert_ne!(key_of(two_spaces), key_of(one_space));
        let a = fetch(&cache, &st, two_spaces);
        let b = fetch(&cache, &st, one_space);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().misses, 2);
        // Both quote styles of the same content are the same token stream.
        assert_eq!(key_of("{ 'a b' }"), key_of("{ \"a b\" }"));
    }

    #[test]
    fn comments_are_stripped_like_the_lexer() {
        // The lexer discards #-to-end-of-line comments, so comment text must
        // not fragment the key...
        assert_eq!(
            key_of("SELECT ?s # fetch\nWHERE { ?s <http://x/p> ?o }"),
            key_of("SELECT ?s WHERE { ?s <http://x/p> ?o }"),
        );
        // ...and an unmatched quote inside a comment must not desync the
        // literal tracking for a real literal later in the query.
        let a = "SELECT ?s # don't\nWHERE { ?s <http://x/p> \"a  b\" }";
        let b = "SELECT ?s # don't\nWHERE { ?s <http://x/p> \"a b\" }";
        assert_ne!(key_of(a), key_of(b));
        // '#' inside an IRI is a fragment, not a comment start.
        assert_ne!(
            key_of("SELECT ?s WHERE { ?s <http://x/p#frag> ?o }"),
            key_of("SELECT ?s WHERE { ?s <http://x/p> ?o }"),
        );
        // Unlexable text never produces a key (and is never cached).
        assert_eq!(key_of("SELECT ?s WHERE { \"unterminated }"), None);
    }

    #[test]
    fn generations_key_independent_entries() {
        // A new store version misses (its plan is compiled fresh), but the
        // old version's plan survives under its own key: a session pinned
        // to the older snapshot keeps hitting it.
        let mut st = store();
        let cache = SharedPlanCache::new(8);
        let q = "SELECT ?s WHERE { ?s <http://x/p> ?o }";
        let old_gen = st.generation();
        let a = fetch(&cache, &st, q);
        st.insert(Term::iri("http://x/new"), Term::iri("http://x/p"), Term::int(9));
        let b = fetch(&cache, &st, q);
        assert!(!Arc::ptr_eq(&a, &b), "a new version must get a freshly compiled plan");
        assert_eq!(b.generation(), st.generation());
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 2, "both versions' plans coexist");
        let pinned = cache.get(old_gen, q).expect("old version's plan must survive");
        assert!(Arc::ptr_eq(&a, &pinned));
    }

    #[test]
    fn plans_are_shared_across_caller_identities() {
        // The same `&SharedPlanCache` consulted by two independent callers
        // (standing in for two read sessions): the second caller hits the
        // plan the first one prepared.
        let st = store();
        let cache = SharedPlanCache::new(8);
        let q = "SELECT ?s WHERE { ?s <http://x/p> ?o }";
        let a = fetch(&cache, &st, q);
        let b = cache.get(st.generation(), q).expect("cross-caller hit");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, entries: 1 });
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let st = store();
        let cache = SharedPlanCache::new(2);
        let q1 = "SELECT ?s WHERE { ?s <http://x/p> ?o } LIMIT 1";
        let q2 = "SELECT ?s WHERE { ?s <http://x/p> ?o } LIMIT 2";
        let q3 = "SELECT ?s WHERE { ?s <http://x/p> ?o } LIMIT 3";
        fetch(&cache, &st, q1);
        fetch(&cache, &st, q2);
        fetch(&cache, &st, q1); // refresh q1
        fetch(&cache, &st, q3); // evicts q2
        assert_eq!(cache.stats().entries, 2);
        fetch(&cache, &st, q1);
        assert_eq!(cache.stats().hits, 2, "q1 must still be cached");
        fetch(&cache, &st, q2);
        assert_eq!(cache.stats().misses, 4, "q2 must have been evicted");
    }
}
