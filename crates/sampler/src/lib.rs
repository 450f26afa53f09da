//! # kgnet-sampler
//!
//! KGNet's meta-sampler (paper §IV.B.2): given a GML task, extract the
//! task-specific subgraph `KG'` from the data KG. The scope of the
//! extraction is controlled by two parameters:
//!
//! * direction `d` — `1` follows only outgoing edges of the frontier,
//!   `2` follows both directions;
//! * hops `h` — how many hops from the target nodes are kept.
//!
//! The paper evaluates the four combinations `d ∈ {1,2} × h ∈ {1,2}` and
//! reports `d1h1` best for node classification and `d2h1` best for link
//! prediction; [`SamplingScope::default_for`] encodes those defaults.
//!
//! The extraction is exactly what a SPARQL `CONSTRUCT` over the endpoint
//! would return (the paper calls it "SPARQL-based meta-sampling"); here it
//! runs as index scans against the `kgnet-rdf` store.

#![warn(missing_docs)]

use rustc_hash::FxHashSet;

use kgnet_graph::{GmlTask, KGNET_NS};
use kgnet_rdf::term::RDF_TYPE;
use kgnet_rdf::{RdfStore, Term, TermId};

/// Traversal direction of the meta-sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `d = 1`: outgoing edges only.
    Outgoing,
    /// `d = 2`: outgoing and incoming edges.
    Bidirectional,
}

/// The `(d, h)` scope of a meta-sampling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SamplingScope {
    /// Traversal direction.
    pub direction: Direction,
    /// Number of hops from the target nodes (the paper uses 1 or 2).
    pub hops: u8,
}

impl SamplingScope {
    /// `d1h1` — outgoing, one hop.
    pub const D1H1: SamplingScope = SamplingScope { direction: Direction::Outgoing, hops: 1 };
    /// `d1h2` — outgoing, two hops.
    pub const D1H2: SamplingScope = SamplingScope { direction: Direction::Outgoing, hops: 2 };
    /// `d2h1` — bidirectional, one hop.
    pub const D2H1: SamplingScope = SamplingScope { direction: Direction::Bidirectional, hops: 1 };
    /// `d2h2` — bidirectional, two hops.
    pub const D2H2: SamplingScope = SamplingScope { direction: Direction::Bidirectional, hops: 2 };

    /// All four scopes evaluated by the paper.
    pub const ALL: [SamplingScope; 4] =
        [SamplingScope::D1H1, SamplingScope::D1H2, SamplingScope::D2H1, SamplingScope::D2H2];

    /// The paper's best scope per task kind: `d1h1` for node
    /// classification/similarity, `d2h1` for link prediction.
    pub fn default_for(task: &GmlTask) -> SamplingScope {
        match task {
            GmlTask::NodeClassification(_) | GmlTask::EntitySimilarity { .. } => Self::D1H1,
            GmlTask::LinkPrediction(_) => Self::D2H1,
        }
    }

    /// Parse a scope name like `"d2h1"` (case-insensitive); `None` for
    /// anything that is not one of the paper's four scopes.
    pub fn parse(name: &str) -> Option<SamplingScope> {
        match name.to_ascii_lowercase().as_str() {
            "d1h1" => Some(Self::D1H1),
            "d1h2" => Some(Self::D1H2),
            "d2h1" => Some(Self::D2H1),
            "d2h2" => Some(Self::D2H2),
            _ => None,
        }
    }

    /// Short name, e.g. `d1h1`.
    pub fn name(&self) -> String {
        let d = match self.direction {
            Direction::Outgoing => 1,
            Direction::Bidirectional => 2,
        };
        format!("d{d}h{}", self.hops)
    }
}

impl std::fmt::Display for SamplingScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Outcome of a meta-sampling run.
pub struct SampledSubgraph {
    /// The extracted task-specific subgraph `KG'`.
    pub store: RdfStore,
    /// Number of distinct nodes reached.
    pub n_nodes: usize,
    /// The scope used.
    pub scope: SamplingScope,
}

/// Extract the task-specific subgraph for explicit seed nodes.
///
/// The result contains every triple on a path of at most `scope.hops` hops
/// from a seed (following `scope.direction`), plus the `rdf:type` triple of
/// every included node (the transformer needs node types). Literal-object
/// triples of visited subjects are preserved (the transformer strips them,
/// mirroring the paper's pipeline). Edges whose predicate is in the
/// `kgnet:` namespace are KGMeta, model metadata stored beside the data,
/// and are never followed or copied.
pub fn meta_sample(store: &RdfStore, seeds: &[TermId], scope: SamplingScope) -> SampledSubgraph {
    let rdf_type = store.lookup(&Term::iri(RDF_TYPE));
    let is_kgmeta = |p: TermId| store.resolve(p).as_iri().is_some_and(|p| p.starts_with(KGNET_NS));
    let mut out = RdfStore::new();
    let mut visited: FxHashSet<TermId> = seeds.iter().copied().collect();
    let mut frontier: Vec<TermId> = seeds.to_vec();
    let mut included: FxHashSet<TermId> = visited.clone();
    let mut scratch = Vec::new();

    for _hop in 0..scope.hops {
        let mut next: Vec<TermId> = Vec::new();
        for &node in &frontier {
            // Outgoing triples.
            scratch.clear();
            store.scan(Some(node), None, None, &mut scratch);
            for &(s, p, o) in &scratch {
                if Some(p) == rdf_type || is_kgmeta(p) {
                    continue; // types are added for all included nodes below
                }
                copy_triple(store, &mut out, s, p, o);
                included.insert(o);
                if !store.resolve(o).is_literal() && visited.insert(o) {
                    next.push(o);
                }
            }
            // Incoming triples for bidirectional scopes.
            if scope.direction == Direction::Bidirectional {
                scratch.clear();
                store.scan(None, None, Some(node), &mut scratch);
                for &(s, p, o) in &scratch {
                    if Some(p) == rdf_type || is_kgmeta(p) {
                        continue;
                    }
                    copy_triple(store, &mut out, s, p, o);
                    included.insert(s);
                    if visited.insert(s) {
                        next.push(s);
                    }
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }

    // Type triples for every included node.
    if let Some(rt) = rdf_type {
        for &node in &included {
            scratch.clear();
            store.scan(Some(node), Some(rt), None, &mut scratch);
            for &(s, p, o) in &scratch {
                copy_triple(store, &mut out, s, p, o);
            }
        }
    }

    SampledSubgraph { store: out, n_nodes: included.len(), scope }
}

/// Extract the task-specific subgraph for a GML task: seeds are the
/// instances of the task's target (NC/similarity) or source (LP) type.
pub fn meta_sample_task(store: &RdfStore, task: &GmlTask, scope: SamplingScope) -> SampledSubgraph {
    let seeds = task_seeds(store, task);
    meta_sample(store, &seeds, scope)
}

/// The seed nodes of a task.
pub fn task_seeds(store: &RdfStore, task: &GmlTask) -> Vec<TermId> {
    match task {
        GmlTask::NodeClassification(t) => store.subjects_of_type(&t.target_type),
        GmlTask::LinkPrediction(t) => store.subjects_of_type(&t.source_type),
        GmlTask::EntitySimilarity { target_type } => store.subjects_of_type(target_type),
    }
}

fn copy_triple(src: &RdfStore, dst: &mut RdfStore, s: TermId, p: TermId, o: TermId) {
    dst.insert(src.resolve(s).clone(), src.resolve(p).clone(), src.resolve(o).clone());
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgnet_graph::NcTask;
    use kgnet_rdf::execute;

    fn chain_store() -> RdfStore {
        // t (target) -> a -> b -> c, plus x -> t (incoming), types on all.
        let mut st = RdfStore::new();
        execute(
            &mut st,
            r#"PREFIX x: <http://x/>
            INSERT DATA {
              x:t a x:Target . x:a a x:A . x:b a x:B . x:c a x:C . x:x a x:X .
              x:t x:p x:a . x:a x:p x:b . x:b x:p x:c . x:x x:q x:t .
              x:t x:label "lit" .
            }"#,
        )
        .unwrap();
        st
    }

    fn seeds(st: &RdfStore) -> Vec<TermId> {
        st.subjects_of_type("http://x/Target")
    }

    fn has(st: &RdfStore, s: &str, p: &str, o: &str) -> bool {
        st.contains(
            &Term::iri(format!("http://x/{s}")),
            &Term::iri(format!("http://x/{p}")),
            &Term::iri(format!("http://x/{o}")),
        )
    }

    #[test]
    fn d1h1_keeps_only_outgoing_one_hop() {
        let st = chain_store();
        let sub = meta_sample(&st, &seeds(&st), SamplingScope::D1H1).store;
        assert!(has(&sub, "t", "p", "a"));
        assert!(!has(&sub, "a", "p", "b"));
        assert!(!has(&sub, "x", "q", "t"));
    }

    #[test]
    fn d1h2_reaches_two_hops_out() {
        let st = chain_store();
        let sub = meta_sample(&st, &seeds(&st), SamplingScope::D1H2).store;
        assert!(has(&sub, "t", "p", "a"));
        assert!(has(&sub, "a", "p", "b"));
        assert!(!has(&sub, "b", "p", "c"));
    }

    #[test]
    fn d2h1_includes_incoming() {
        let st = chain_store();
        let sub = meta_sample(&st, &seeds(&st), SamplingScope::D2H1).store;
        assert!(has(&sub, "t", "p", "a"));
        assert!(has(&sub, "x", "q", "t"));
        assert!(!has(&sub, "a", "p", "b"));
    }

    #[test]
    fn types_of_included_nodes_are_preserved() {
        let st = chain_store();
        let sub = meta_sample(&st, &seeds(&st), SamplingScope::D1H1).store;
        assert!(sub.contains(
            &Term::iri("http://x/a"),
            &Term::iri(RDF_TYPE),
            &Term::iri("http://x/A")
        ));
        assert!(sub.contains(
            &Term::iri("http://x/t"),
            &Term::iri(RDF_TYPE),
            &Term::iri("http://x/Target")
        ));
    }

    #[test]
    fn literals_are_kept_for_subjects_in_scope() {
        let st = chain_store();
        let sub = meta_sample(&st, &seeds(&st), SamplingScope::D1H1).store;
        assert!(sub.contains(
            &Term::iri("http://x/t"),
            &Term::iri("http://x/label"),
            &Term::str("lit")
        ));
    }

    #[test]
    fn subgraph_is_never_larger_than_kg() {
        let st = chain_store();
        for scope in SamplingScope::ALL {
            let sub = meta_sample(&st, &seeds(&st), scope).store;
            assert!(sub.len() <= st.len(), "{scope} produced a larger graph");
        }
    }

    #[test]
    fn default_scope_per_task_kind() {
        let nc = GmlTask::NodeClassification(NcTask {
            target_type: "T".into(),
            label_predicate: "L".into(),
        });
        assert_eq!(SamplingScope::default_for(&nc), SamplingScope::D1H1);
        assert_eq!(SamplingScope::D2H1.name(), "d2h1");
    }

    #[test]
    fn task_sampling_uses_target_type_seeds() {
        let st = chain_store();
        let task = GmlTask::NodeClassification(NcTask {
            target_type: "http://x/Target".into(),
            label_predicate: "http://x/none".into(),
        });
        let sub = meta_sample_task(&st, &task, SamplingScope::D1H1);
        assert!(sub.n_nodes >= 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every triple of the subgraph exists in the source KG (closure
        /// soundness), for random small graphs; widening the scope never
        /// shrinks the subgraph.
        #[test]
        fn subgraph_triples_come_from_source(
            edges in proptest::collection::vec((0u32..12, 0u32..3, 0u32..12), 1..60),
            n_seeds in 1usize..4,
            scope_idx in 0usize..4,
        ) {
            let mut st = RdfStore::new();
            for &(s, p, o) in &edges {
                st.insert(
                    Term::iri(format!("http://n/{s}")),
                    Term::iri(format!("http://p/{p}")),
                    Term::iri(format!("http://n/{o}")),
                );
            }
            let seeds: Vec<TermId> = (0..n_seeds)
                .filter_map(|i| st.lookup(&Term::iri(format!("http://n/{i}"))))
                .collect();
            prop_assume!(!seeds.is_empty());
            let scope = SamplingScope::ALL[scope_idx];
            let sub = meta_sample(&st, &seeds, scope).store;
            for (s, p, o) in sub.iter() {
                let (s, p, o) = (sub.resolve(s).clone(), sub.resolve(p).clone(), sub.resolve(o).clone());
                prop_assert!(st.contains(&s, &p, &o));
            }
            let wider = meta_sample(&st, &seeds, SamplingScope::D2H2).store;
            prop_assert!(wider.len() >= sub.len());
        }
    }
}
