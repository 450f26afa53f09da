//! Term dictionary: interns [`Term`]s into dense `u32` identifiers.
//!
//! Every triple in the store is a compact `[TermId; 3]`, which keeps the
//! indexes small and makes joins integer comparisons — the same design used
//! by production RDF engines (Virtuoso's IRI_ID, oxigraph's encoded terms).

use std::sync::Arc;

use rustc_hash::FxHashMap;

use crate::term::Term;

/// A dense identifier for an interned [`Term`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// `recent` is folded into `frozen` once it holds more than this many terms
/// or an eighth of `frozen`, whichever is larger.
const FOLD_MIN: usize = 1024;

/// Bidirectional term <-> id mapping.
///
/// Two parts serve the store's copy-on-write versioning. `frozen` holds the
/// older ids behind an [`Arc`] that every clone shares; `recent` holds the
/// ids interned since the last fold, and a clone copies it. So a clone costs
/// O(recent), not O(terms), and interning into a clone never touches the
/// frozen part. When `recent` outgrows `max(1024, frozen / 8)` it is folded
/// into `frozen` — the one O(terms) copy when a clone still shares `frozen`,
/// paid once per `frozen / 8` new terms. Ids never move: `frozen` holds
/// `0..frozen.len()` and `recent` continues from there.
#[derive(Default, Clone)]
pub struct TermDict {
    frozen: Arc<Part>,
    recent: Part,
}

/// One run of consecutive ids. `by_term` maps to global ids; `by_id` is
/// indexed from the part's first id.
#[derive(Default, Clone)]
struct Part {
    by_term: FxHashMap<Term, TermId>,
    by_id: Vec<Term>,
}

impl TermDict {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a term, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, term: Term) -> TermId {
        if let Some(id) = self.get(&term) {
            return id;
        }
        let id = TermId(self.len() as u32);
        self.recent.by_id.push(term.clone());
        self.recent.by_term.insert(term, id);
        if self.recent.by_id.len() > FOLD_MIN.max(self.frozen.by_id.len() / 8) {
            let frozen = Arc::make_mut(&mut self.frozen);
            frozen.by_term.extend(self.recent.by_term.drain());
            frozen.by_id.append(&mut self.recent.by_id);
        }
        id
    }

    /// Look up an existing term without interning.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        self.frozen.by_term.get(term).or_else(|| self.recent.by_term.get(term)).copied()
    }

    /// Resolve an id back to its term. Panics on a foreign id.
    pub fn resolve(&self, id: TermId) -> &Term {
        self.try_resolve(id).expect("term id belongs to this dictionary")
    }

    /// Resolve an id if it belongs to this dictionary.
    pub fn try_resolve(&self, id: TermId) -> Option<&Term> {
        let i = id.0 as usize;
        let frozen = self.frozen.by_id.len();
        if i < frozen {
            Some(&self.frozen.by_id[i])
        } else {
            self.recent.by_id.get(i - frozen)
        }
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.frozen.by_id.len() + self.recent.by_id.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate all `(id, term)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.frozen
            .by_id
            .iter()
            .chain(&self.recent.by_id)
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }

    /// Whether `self` and `other` share one frozen part (copy-on-write
    /// tests).
    #[cfg(test)]
    pub(crate) fn shares_frozen_with(&self, other: &TermDict) -> bool {
        Arc::ptr_eq(&self.frozen, &other.frozen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dictionaries every test runs on: empty; just past a fold; and a
    /// clone sharing a folded `frozen` with terms in `recent`.
    fn dicts() -> Vec<TermDict> {
        let mut folded = TermDict::new();
        for i in 0..=FOLD_MIN {
            folded.intern(Term::iri(format!("http://filler/{i}")));
        }
        assert!(folded.recent.by_id.is_empty(), "the filler crossed a fold");
        let mut shared = folded.clone();
        shared.intern(Term::iri("http://filler/recent"));
        assert!(shared.shares_frozen_with(&folded));
        vec![TermDict::new(), folded, shared]
    }

    #[test]
    fn intern_is_idempotent() {
        for mut d in dicts() {
            let before = d.len();
            let a = d.intern(Term::iri("http://x/a"));
            let b = d.intern(Term::iri("http://x/a"));
            assert_eq!(a, b);
            assert_eq!(d.len(), before + 1);
        }
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        for mut d in dicts() {
            let before = d.len();
            let a = d.intern(Term::iri("http://x/a"));
            let b = d.intern(Term::str("http://x/a")); // same text, different kind
            assert_ne!(a, b);
            assert_eq!(d.len(), before + 2);
        }
    }

    #[test]
    fn resolve_roundtrip() {
        for mut d in dicts() {
            let terms = [Term::iri("i"), Term::str("s"), Term::int(4), Term::blank("b")];
            for t in &terms {
                let id = d.intern(t.clone());
                assert_eq!(d.resolve(id), t);
                assert_eq!(d.get(t), Some(id));
            }
        }
    }

    #[test]
    fn get_does_not_intern() {
        for d in dicts() {
            let before = d.len();
            assert_eq!(d.get(&Term::iri("missing")), None);
            assert_eq!(d.len(), before);
        }
        assert!(TermDict::new().is_empty());
    }

    #[test]
    fn ids_survive_folds_and_clones_stay_apart() {
        let mut base = TermDict::new();
        let terms: Vec<Term> = (0..3 * FOLD_MIN).map(|i| Term::iri(format!("t{i}"))).collect();
        let ids: Vec<TermId> = terms.iter().map(|t| base.intern(t.clone())).collect();
        assert_eq!(ids, (0..terms.len() as u32).map(TermId).collect::<Vec<_>>());

        let mut clone = base.clone();
        for i in 0..FOLD_MIN {
            clone.intern(Term::str(format!("new{i}")));
        }
        assert!(!clone.shares_frozen_with(&base), "the clone folded into its own copy");
        assert_eq!(base.len(), terms.len());
        assert_eq!(base.get(&Term::str("new0")), None);
        for (t, &id) in terms.iter().zip(&ids) {
            assert_eq!(base.resolve(id), t);
            assert_eq!(clone.resolve(id), t);
            assert_eq!(clone.get(t), Some(id));
        }
        let listed: Vec<TermId> = clone.iter().map(|(id, _)| id).collect();
        assert_eq!(listed, (0..clone.len() as u32).map(TermId).collect::<Vec<_>>());
        assert_eq!(clone.try_resolve(TermId(clone.len() as u32)), None);
    }
}
