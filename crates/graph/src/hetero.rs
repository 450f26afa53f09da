//! Heterogeneous graph representation produced by the data transformer.
//!
//! Nodes occupy one global contiguous index space (what the GNN embedding
//! table is indexed by); each node carries its type, and edges are grouped
//! by edge type so RGCN-style methods can build one adjacency per relation
//! while GCN-style methods merge them.

use rustc_hash::FxHashMap;

use kgnet_linalg::CsrMatrix;
use kgnet_rdf::TermId;

/// Index of a node type.
pub type NodeTypeId = u16;
/// Index of an edge type.
pub type EdgeTypeId = u16;

/// A heterogeneous directed multigraph over interned RDF nodes.
#[derive(Default)]
pub struct HeteroGraph {
    node_type_names: Vec<String>,
    edge_type_names: Vec<String>,
    /// Global node index -> node type.
    node_type_of: Vec<NodeTypeId>,
    /// Global node index -> originating RDF term.
    node_term: Vec<TermId>,
    node_of_term: FxHashMap<TermId, u32>,
    /// Per edge type: (src, dst) pairs over global node indexes.
    edges: Vec<Vec<(u32, u32)>>,
}

impl HeteroGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a node type name, returning its id.
    pub fn add_node_type(&mut self, name: &str) -> NodeTypeId {
        if let Some(i) = self.node_type_names.iter().position(|n| n == name) {
            return i as NodeTypeId;
        }
        self.node_type_names.push(name.to_owned());
        (self.node_type_names.len() - 1) as NodeTypeId
    }

    /// Intern an edge type name, returning its id.
    pub fn add_edge_type(&mut self, name: &str) -> EdgeTypeId {
        if let Some(i) = self.edge_type_names.iter().position(|n| n == name) {
            return i as EdgeTypeId;
        }
        self.edge_type_names.push(name.to_owned());
        self.edges.push(Vec::new());
        (self.edge_type_names.len() - 1) as EdgeTypeId
    }

    /// Add (or fetch) the node for an RDF term.
    pub fn add_node(&mut self, term: TermId, node_type: NodeTypeId) -> u32 {
        if let Some(&n) = self.node_of_term.get(&term) {
            return n;
        }
        let n = self.node_term.len() as u32;
        self.node_term.push(term);
        self.node_type_of.push(node_type);
        self.node_of_term.insert(term, n);
        n
    }

    /// Add a directed edge of a given type between existing nodes.
    pub fn add_edge(&mut self, edge_type: EdgeTypeId, src: u32, dst: u32) {
        self.edges[edge_type as usize].push((src, dst));
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.node_term.len()
    }

    /// Number of node types.
    pub fn n_node_types(&self) -> usize {
        self.node_type_names.len()
    }

    /// Number of edge types.
    pub fn n_edge_types(&self) -> usize {
        self.edge_type_names.len()
    }

    /// Total number of edges over all types.
    pub fn n_edges(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Name of a node type.
    pub fn node_type_name(&self, t: NodeTypeId) -> &str {
        &self.node_type_names[t as usize]
    }

    /// Id of a node type by name.
    pub fn node_type_id(&self, name: &str) -> Option<NodeTypeId> {
        self.node_type_names.iter().position(|n| n == name).map(|i| i as NodeTypeId)
    }

    /// Id of an edge type by name.
    pub fn edge_type_id(&self, name: &str) -> Option<EdgeTypeId> {
        self.edge_type_names.iter().position(|n| n == name).map(|i| i as EdgeTypeId)
    }

    /// Type of a node.
    pub fn node_type(&self, node: u32) -> NodeTypeId {
        self.node_type_of[node as usize]
    }

    /// RDF term of a node.
    pub fn term_of(&self, node: u32) -> TermId {
        self.node_term[node as usize]
    }

    /// Node for an RDF term, when present.
    pub fn node_of(&self, term: TermId) -> Option<u32> {
        self.node_of_term.get(&term).copied()
    }

    /// All global node indexes of one type.
    pub fn nodes_of_type(&self, t: NodeTypeId) -> Vec<u32> {
        (0..self.n_nodes() as u32).filter(|&n| self.node_type_of[n as usize] == t).collect()
    }

    /// Edges of one type.
    pub fn edges_of_type(&self, t: EdgeTypeId) -> &[(u32, u32)] {
        &self.edges[t as usize]
    }

    /// All edges flattened across types.
    pub fn merged_edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.n_edges());
        for es in &self.edges {
            out.extend_from_slice(es);
        }
        out
    }

    /// Symmetrically normalised merged adjacency (GCN operator).
    pub fn gcn_adjacency(&self) -> CsrMatrix {
        CsrMatrix::gcn_norm(self.n_nodes(), &self.merged_edges())
    }

    /// Per-relation row-normalised adjacencies; with `add_inverse`, each
    /// relation also contributes its reverse adjacency (standard RGCN
    /// practice).
    pub fn relation_adjacencies(&self, add_inverse: bool) -> Vec<CsrMatrix> {
        let n = self.n_nodes();
        let mut out = Vec::with_capacity(self.edges.len() * if add_inverse { 2 } else { 1 });
        for es in &self.edges {
            out.push(CsrMatrix::row_norm(n, es));
            if add_inverse {
                let rev: Vec<(u32, u32)> = es.iter().map(|&(s, d)| (d, s)).collect();
                out.push(CsrMatrix::row_norm(n, &rev));
            }
        }
        out
    }

    /// Undirected neighbour lists (CSR offsets + flat targets) over the
    /// merged edges; used by samplers.
    pub fn neighbor_lists(&self) -> (Vec<usize>, Vec<u32>) {
        let n = self.n_nodes();
        let mut deg = vec![0usize; n];
        for es in &self.edges {
            for &(s, d) in es {
                deg[s as usize] += 1;
                deg[d as usize] += 1;
            }
        }
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + deg[i];
        }
        let mut targets = vec![0u32; offsets[n]];
        let mut cursor = offsets.clone();
        for es in &self.edges {
            for &(s, d) in es {
                targets[cursor[s as usize]] = d;
                cursor[s as usize] += 1;
                targets[cursor[d as usize]] = s;
                cursor[d as usize] += 1;
            }
        }
        (offsets, targets)
    }
}

impl std::fmt::Debug for HeteroGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HeteroGraph(nodes={}, node_types={}, edges={}, edge_types={})",
            self.n_nodes(),
            self.n_node_types(),
            self.n_edges(),
            self.n_edge_types()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> HeteroGraph {
        let mut g = HeteroGraph::new();
        let paper = g.add_node_type("Paper");
        let author = g.add_node_type("Author");
        let wrote = g.add_edge_type("wrote");
        let cites = g.add_edge_type("cites");
        let p0 = g.add_node(TermId(0), paper);
        let p1 = g.add_node(TermId(1), paper);
        let a0 = g.add_node(TermId(2), author);
        g.add_edge(cites, p0, p1);
        g.add_edge(wrote, a0, p0);
        g
    }

    #[test]
    fn interning_types_and_nodes() {
        let mut g = toy();
        assert_eq!(g.add_node_type("Paper"), 0);
        assert_eq!(g.add_node(TermId(0), 0), 0); // existing node
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_edge_types(), 2);
        assert_eq!(g.node_type_id("Author"), Some(1));
    }

    #[test]
    fn nodes_of_type_filters() {
        let g = toy();
        assert_eq!(g.nodes_of_type(0), vec![0, 1]);
        assert_eq!(g.nodes_of_type(1), vec![2]);
    }

    #[test]
    fn merged_edges_and_adjacency() {
        let g = toy();
        assert_eq!(g.merged_edges().len(), 2);
        let adj = g.gcn_adjacency();
        assert_eq!(adj.n_rows(), 3);
        // self loops + 2 symmetric edges = 3 + 4 entries.
        assert_eq!(adj.nnz(), 7);
    }

    #[test]
    fn relation_adjacencies_with_inverse() {
        let g = toy();
        let adjs = g.relation_adjacencies(true);
        assert_eq!(adjs.len(), 4);
        // "wrote" forward has edge a0 -> p0.
        let wrote_fwd = &adjs[0];
        assert_eq!(
            wrote_fwd.row(2).0.len() + wrote_fwd.row(0).0.len() + wrote_fwd.row(1).0.len(),
            1
        );
    }

    #[test]
    fn neighbor_lists_symmetric() {
        let g = toy();
        let (off, tgt) = g.neighbor_lists();
        // p0 has neighbours p1 (cites) and a0 (wrote) -> degree 2.
        assert_eq!(off[1] - off[0], 2);
        let nb: Vec<u32> = tgt[off[0]..off[1]].to_vec();
        assert!(nb.contains(&1) && nb.contains(&2));
    }
}
