//! # kgnet-rdf
//!
//! An in-memory RDF engine: interned terms, a triple store with SPO/POS/OSP
//! indexes and a SPARQL subset (SELECT with BGPs, FILTER, OPTIONAL,
//! sub-SELECT, COUNT aggregates, ORDER/LIMIT/OFFSET; INSERT/DELETE updates).
//!
//! In the paper's architecture this crate plays the role of the Virtuoso
//! endpoint that stores the knowledge graphs, answers the meta-sampler's
//! extraction queries and executes the rewritten SPARQL produced by the
//! SPARQL-ML query manager.

#![warn(missing_docs)]

pub mod dict;
pub mod error;
pub mod ntriples;
pub mod shared;
pub mod sparql;
pub mod store;
pub mod term;

pub use dict::{TermDict, TermId};
pub use error::SparqlError;
pub use ntriples::{load_ntriples, parse_ntriples};
pub use shared::{RetainedVersion, SharedStore, Snapshot, WriteTxn};
pub use sparql::{
    execute, query, query_with_stats, ExecOutcome, ExecStats, OpProfile, OpTiming, PreparedQuery,
    QueryResult, Solutions,
};
pub use store::{PredicateStats, RdfStore, Triple};
pub use term::Term;

#[cfg(test)]
mod proptests {
    use crate::store::RdfStore;
    use crate::term::Term;
    use proptest::prelude::*;

    fn arb_term() -> impl Strategy<Value = Term> {
        prop_oneof![
            "[a-z]{1,6}".prop_map(|s| Term::iri(format!("http://x/{s}"))),
            "[a-z ]{0,8}".prop_map(Term::str),
            any::<i32>().prop_map(|v| Term::int(v as i64)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// All three indexes agree with the canonical triple set.
        #[test]
        fn indexes_stay_coherent(
            ops in proptest::collection::vec((arb_term(), arb_term(), arb_term(), any::<bool>()), 1..60),
        ) {
            let mut st = RdfStore::new();
            let mut reference = std::collections::BTreeSet::new();
            for (s, p, o, insert) in ops {
                if insert {
                    st.insert(s.clone(), p.clone(), o.clone());
                    reference.insert((s, p, o));
                } else {
                    st.remove(&s, &p, &o);
                    reference.remove(&(s, p, o));
                }
            }
            prop_assert_eq!(st.len(), reference.len());
            // Every reference triple is findable through every index shape.
            for (s, p, o) in &reference {
                prop_assert!(st.contains(s, p, o));
                let sid = st.lookup(s).unwrap();
                let pid = st.lookup(p).unwrap();
                let oid = st.lookup(o).unwrap();
                prop_assert!(st.matches(Some(sid), None, None).iter().any(|&(a, b, c)| (a, b, c) == (sid, pid, oid)));
                prop_assert!(st.matches(None, Some(pid), None).iter().any(|&(a, b, c)| (a, b, c) == (sid, pid, oid)));
                prop_assert!(st.matches(None, None, Some(oid)).iter().any(|&(a, b, c)| (a, b, c) == (sid, pid, oid)));
            }
        }

        /// Count agrees with the length of the scan for every pattern shape.
        #[test]
        fn count_matches_scan(
            triples in proptest::collection::vec((arb_term(), arb_term(), arb_term()), 1..40),
        ) {
            let mut st = RdfStore::new();
            for (s, p, o) in &triples {
                st.insert(s.clone(), p.clone(), o.clone());
            }
            let (s0, p0, o0) = &triples[0];
            let s = st.lookup(s0);
            let p = st.lookup(p0);
            let o = st.lookup(o0);
            for (a, b, c) in [
                (None, None, None),
                (s, None, None),
                (s, p, None),
                (s, p, o),
                (None, p, None),
                (None, p, o),
                (None, None, o),
                (s, None, o),
            ] {
                prop_assert_eq!(st.count(a, b, c), st.matches(a, b, c).len());
            }
        }

        /// Term display output parses back through the SPARQL lexer as one
        /// ground token (printer/lexer round-trip).
        #[test]
        fn term_display_lexes_back(t in arb_term()) {
            let text = t.to_string();
            let toks = crate::sparql::lexer::tokenize(&text).unwrap();
            // Token + EOF.
            prop_assert_eq!(toks.len(), 2);
        }
    }
}
