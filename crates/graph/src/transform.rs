//! The data transformer of the paper's Fig. 6: converts an RDF (sub)graph
//! into the sparse-matrix-ready [`HeteroGraph`], removing literal data and
//! the target class (label) edges, and extracting labels/edge sets for the
//! task at hand.

use rustc_hash::{FxHashMap, FxHashSet};

use kgnet_rdf::term::RDF_TYPE;
use kgnet_rdf::{RdfStore, Term, TermId};

use crate::hetero::HeteroGraph;

/// Node-classification task description (paper: TargetNode + NodeLabel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NcTask {
    /// IRI of the class whose instances are classified (e.g.
    /// `dblp:Publication`).
    pub target_type: String,
    /// IRI of the label edge predicate (e.g. `dblp:publishedIn`).
    pub label_predicate: String,
}

/// Link-prediction task description (paper: SourceNode + DestinationNode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LpTask {
    /// IRI of the source node class (e.g. `dblp:Person`).
    pub source_type: String,
    /// IRI of the predicted edge predicate (e.g. `dblp:affiliatedWith`).
    pub edge_predicate: String,
    /// IRI of the destination node class (e.g. `dblp:Affiliation`).
    pub dest_type: String,
}

/// The `kgnet:` namespace. KGMeta, the graph of trained-model metadata,
/// uses only predicates in it (and `rdf:type` with a class in it), which
/// is what keeps it apart from the data it is stored with.
pub const KGNET_NS: &str = "https://www.kgnet.com/";

/// A GML task, as encoded in SPARQL-ML queries and KGMeta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GmlTask {
    /// Node classification.
    NodeClassification(NcTask),
    /// Link prediction.
    LinkPrediction(LpTask),
    /// Entity similarity over embeddings of a node type.
    EntitySimilarity {
        /// IRI of the node class embedded for similarity search.
        target_type: String,
    },
}

impl GmlTask {
    /// Short task-kind name used in model URIs and KGMeta.
    pub fn kind_name(&self) -> &'static str {
        match self {
            GmlTask::NodeClassification(_) => "NodeClassification",
            GmlTask::LinkPrediction(_) => "LinkPrediction",
            GmlTask::EntitySimilarity { .. } => "EntitySimilarity",
        }
    }

    /// Predicates that must be excluded from the model's input graph
    /// (the label edge for NC, the predicted edge for LP).
    pub fn excluded_predicates(&self) -> Vec<String> {
        match self {
            GmlTask::NodeClassification(t) => vec![t.label_predicate.clone()],
            GmlTask::LinkPrediction(t) => vec![t.edge_predicate.clone()],
            GmlTask::EntitySimilarity { .. } => vec![],
        }
    }
}

/// Labels extracted for node classification.
#[derive(Debug, Clone)]
pub struct NcLabels {
    /// Target nodes (RDF terms) in a stable order.
    pub targets: Vec<TermId>,
    /// Class index per target (into `classes`).
    pub labels: Vec<u32>,
    /// Class terms (e.g. the venue IRIs).
    pub classes: Vec<TermId>,
}

impl NcLabels {
    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }
}

/// Edges extracted for link prediction.
#[derive(Debug, Clone)]
pub struct LpEdges {
    /// (source, destination) term pairs of the predicted edge type.
    pub edges: Vec<(TermId, TermId)>,
    /// All candidate destination terms.
    pub destinations: Vec<TermId>,
}

/// Statistics recorded by the transformer (paper: "generating graph
/// statistics" + consistency validation).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransformStats {
    /// Triples seen in the input store.
    pub triples_in: usize,
    /// Literal-object triples removed.
    pub literals_removed: usize,
    /// Label/target-class edges removed.
    pub label_edges_removed: usize,
    /// `rdf:type` triples consumed as node typing.
    pub type_triples: usize,
    /// Edges kept in the output graph.
    pub edges_out: usize,
}

/// Transform an RDF store into a [`HeteroGraph`], excluding the task's label
/// predicates. Returns the graph and the transformation statistics.
pub fn transform(store: &RdfStore, exclude_predicates: &[String]) -> (HeteroGraph, TransformStats) {
    let mut g = HeteroGraph::new();
    let mut stats = TransformStats { triples_in: store.len(), ..Default::default() };

    let excluded: FxHashSet<TermId> =
        exclude_predicates.iter().filter_map(|p| store.lookup(&Term::iri(p.clone()))).collect();
    let rdf_type = store.lookup(&Term::iri(RDF_TYPE));

    // Pass 1: node types from rdf:type.
    let mut type_of: FxHashMap<TermId, TermId> = FxHashMap::default();
    if let Some(rt) = rdf_type {
        for (s, _, o) in store.matches(None, Some(rt), None) {
            stats.type_triples += 1;
            type_of.entry(s).or_insert(o);
        }
    }

    let unknown = g.add_node_type("kgnet:UntypedNode");
    let node_of = |g: &mut HeteroGraph,
                   type_of: &FxHashMap<TermId, TermId>,
                   store: &RdfStore,
                   t: TermId|
     -> u32 {
        match g.node_of(t) {
            Some(n) => n,
            None => {
                let ty = match type_of.get(&t) {
                    Some(&class) => {
                        let name = store.resolve(class).to_string();
                        g.add_node_type(&name)
                    }
                    None => unknown,
                };
                g.add_node(t, ty)
            }
        }
    };

    // Pass 2: edges.
    for (s, p, o) in store.iter() {
        if Some(p) == rdf_type {
            continue;
        }
        if excluded.contains(&p) {
            stats.label_edges_removed += 1;
            continue;
        }
        if store.resolve(o).is_literal() {
            stats.literals_removed += 1;
            continue;
        }
        let pname = store.resolve(p).to_string();
        let et = g.add_edge_type(&pname);
        let sn = node_of(&mut g, &type_of, store, s);
        let on = node_of(&mut g, &type_of, store, o);
        g.add_edge(et, sn, on);
        stats.edges_out += 1;
    }

    (g, stats)
}

/// Extract node-classification labels from the store (before the label edge
/// is removed by [`transform`]). Targets without a label edge are skipped;
/// targets with several labels keep the first.
pub fn extract_nc_labels(store: &RdfStore, task: &NcTask) -> NcLabels {
    let mut targets = Vec::new();
    let mut labels = Vec::new();
    let mut classes: Vec<TermId> = Vec::new();
    let mut class_index: FxHashMap<TermId, u32> = FxHashMap::default();
    let Some(pred) = store.lookup(&Term::iri(task.label_predicate.clone())) else {
        return NcLabels { targets, labels, classes };
    };
    for subject in store.subjects_of_type(&task.target_type) {
        let found = store.matches(Some(subject), Some(pred), None).first().map(|&(_, _, o)| o);
        let Some(class) = found else { continue };
        let idx = *class_index.entry(class).or_insert_with(|| {
            classes.push(class);
            (classes.len() - 1) as u32
        });
        targets.push(subject);
        labels.push(idx);
    }
    NcLabels { targets, labels, classes }
}

/// Extract link-prediction edges from the store.
pub fn extract_lp_edges(store: &RdfStore, task: &LpTask) -> LpEdges {
    let mut edges = Vec::new();
    let Some(pred) = store.lookup(&Term::iri(task.edge_predicate.clone())) else {
        return LpEdges { edges, destinations: vec![] };
    };
    let sources: FxHashSet<TermId> =
        store.subjects_of_type(&task.source_type).into_iter().collect();
    let mut dest_set: FxHashSet<TermId> = FxHashSet::default();
    for (s, _, o) in store.matches(None, Some(pred), None) {
        if sources.contains(&s) {
            edges.push((s, o));
            dest_set.insert(o);
        }
    }
    // All typed destinations are candidates even if currently unlinked.
    for d in store.subjects_of_type(&task.dest_type) {
        dest_set.insert(d);
    }
    let mut destinations: Vec<TermId> = dest_set.into_iter().collect();
    destinations.sort_unstable();
    LpEdges { edges, destinations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgnet_rdf::execute;

    fn toy_store() -> RdfStore {
        let mut st = RdfStore::new();
        execute(
            &mut st,
            r#"PREFIX x: <http://x/>
            INSERT DATA {
              x:p1 a x:Paper . x:p2 a x:Paper .
              x:v1 a x:Venue . x:v2 a x:Venue .
              x:a1 a x:Author .
              x:p1 x:publishedIn x:v1 .
              x:p2 x:publishedIn x:v2 .
              x:p1 x:cites x:p2 .
              x:p1 x:authoredBy x:a1 .
              x:p1 x:title "Paper 1" .
              x:a1 x:affiliatedWith x:org1 .
            }"#,
        )
        .unwrap();
        st
    }

    #[test]
    fn transform_removes_literals_and_labels() {
        let st = toy_store();
        let (g, stats) = transform(&st, &["http://x/publishedIn".to_owned()]);
        assert_eq!(stats.literals_removed, 1);
        assert_eq!(stats.label_edges_removed, 2);
        assert_eq!(stats.edges_out, 3); // cites, authoredBy, affiliatedWith
        assert!(g.edge_type_id("<http://x/publishedIn>").is_none());
        assert!(g.edge_type_id("<http://x/cites>").is_some());
    }

    #[test]
    fn untyped_nodes_get_placeholder_type() {
        let st = toy_store();
        let (g, _) = transform(&st, &[]);
        // org1 has no rdf:type.
        let org = st.lookup(&Term::iri("http://x/org1")).unwrap();
        let n = g.node_of(org).unwrap();
        assert_eq!(g.node_type_name(g.node_type(n)), "kgnet:UntypedNode");
    }

    #[test]
    fn nc_labels_extracted_in_class_index_space() {
        let st = toy_store();
        let task = NcTask {
            target_type: "http://x/Paper".into(),
            label_predicate: "http://x/publishedIn".into(),
        };
        let labels = extract_nc_labels(&st, &task);
        assert_eq!(labels.targets.len(), 2);
        assert_eq!(labels.n_classes(), 2);
        assert_ne!(labels.labels[0], labels.labels[1]);
    }

    #[test]
    fn lp_edges_extracted_with_candidate_destinations() {
        let st = toy_store();
        let task = LpTask {
            source_type: "http://x/Author".into(),
            edge_predicate: "http://x/affiliatedWith".into(),
            dest_type: "http://x/Org".into(),
        };
        let lp = extract_lp_edges(&st, &task);
        assert_eq!(lp.edges.len(), 1);
        assert_eq!(lp.destinations.len(), 1);
    }

    #[test]
    fn task_excluded_predicates() {
        let t = GmlTask::NodeClassification(NcTask {
            target_type: "T".into(),
            label_predicate: "L".into(),
        });
        assert_eq!(t.excluded_predicates(), vec!["L".to_owned()]);
        assert_eq!(t.kind_name(), "NodeClassification");
    }
}
