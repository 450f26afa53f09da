//! Training configuration and reports shared by all GML methods.

/// Identifier of a supported GML method (the paper's Fig. 5/6 lists).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GmlMethodKind {
    /// Full-batch spectral GCN.
    Gcn,
    /// Full-batch relational GCN.
    Rgcn,
    /// GraphSAINT subgraph-sampled mini-batch GCN.
    GraphSaint,
    /// ShadowSAINT (shaDow-GNN) bounded-scope per-seed subgraphs.
    ShadowSaint,
    /// MorsE inductive, edge-sampled link prediction.
    Morse,
    /// TransE knowledge-graph embedding.
    TransE,
    /// DistMult knowledge-graph embedding.
    DistMult,
    /// ComplEx knowledge-graph embedding.
    ComplEx,
    /// RotatE knowledge-graph embedding.
    RotatE,
}

impl GmlMethodKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            GmlMethodKind::Gcn => "GCN",
            GmlMethodKind::Rgcn => "RGCN",
            GmlMethodKind::GraphSaint => "G-SAINT",
            GmlMethodKind::ShadowSaint => "SH-SAINT",
            GmlMethodKind::Morse => "MorsE",
            GmlMethodKind::TransE => "TransE",
            GmlMethodKind::DistMult => "DistMult",
            GmlMethodKind::ComplEx => "ComplEx",
            GmlMethodKind::RotatE => "RotatE",
        }
    }

    /// Methods applicable to node classification.
    pub const NC_METHODS: [GmlMethodKind; 4] = [
        GmlMethodKind::Gcn,
        GmlMethodKind::Rgcn,
        GmlMethodKind::GraphSaint,
        GmlMethodKind::ShadowSaint,
    ];

    /// Methods applicable to link prediction.
    pub const LP_METHODS: [GmlMethodKind; 5] = [
        GmlMethodKind::Morse,
        GmlMethodKind::TransE,
        GmlMethodKind::DistMult,
        GmlMethodKind::ComplEx,
        GmlMethodKind::RotatE,
    ];

    /// Whether the method trains by mini-batch sampling (vs full batch).
    pub fn is_sampling_based(&self) -> bool {
        !matches!(self, GmlMethodKind::Gcn | GmlMethodKind::Rgcn)
    }
}

impl std::fmt::Display for GmlMethodKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Hyper-parameters for the GNN/KGE trainers. Defaults follow the paper's
/// "OGB default configurations" spirit, scaled to the reproduction size.
#[derive(Debug, Clone)]
pub struct GnnConfig {
    /// Hidden/embedding width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate (Adam).
    pub lr: f32,
    /// Dropout probability on hidden activations.
    pub dropout: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// RNG seed for init, sampling and negatives.
    pub seed: u64,
    /// Mini-batch size (sampling-based methods).
    pub batch_size: usize,
    /// GraphSAINT: random-walk roots per sampled subgraph.
    pub saint_roots: usize,
    /// GraphSAINT: walk length.
    pub saint_walk_length: usize,
    /// ShadowSAINT: extraction depth around each seed.
    pub shadow_depth: usize,
    /// ShadowSAINT: neighbour cap per node during extraction.
    pub shadow_neighbor_cap: usize,
    /// Negative samples per positive (link prediction).
    pub negatives: usize,
    /// Margin for margin-ranking losses (TransE/RotatE/MorsE).
    pub margin: f32,
}

impl Default for GnnConfig {
    fn default() -> Self {
        GnnConfig {
            hidden: 32,
            epochs: 40,
            lr: 0.01,
            dropout: 0.1,
            weight_decay: 5e-4,
            seed: 1,
            batch_size: 512,
            saint_roots: 64,
            saint_walk_length: 2,
            shadow_depth: 1,
            shadow_neighbor_cap: 10,
            negatives: 8,
            margin: 1.0,
        }
    }
}

impl GnnConfig {
    /// A faster configuration for unit tests.
    pub fn fast_test() -> Self {
        GnnConfig { hidden: 16, epochs: 15, batch_size: 128, ..Default::default() }
    }
}

/// Everything the platform records about one training run (feeds KGMeta).
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// The trained method.
    pub method: GmlMethodKind,
    /// Wall-clock training seconds.
    pub train_time_s: f64,
    /// Peak tracked memory during training, bytes.
    pub peak_mem_bytes: usize,
    /// Test metric: accuracy for NC, Hits@10 for LP, in `[0, 1]`.
    pub test_metric: f64,
    /// Validation metric at the end of training.
    pub valid_metric: f64,
    /// Mean reciprocal rank (LP only; 0 for NC).
    pub mrr: f64,
    /// Loss per epoch.
    pub loss_curve: Vec<f32>,
    /// Nodes in the training graph.
    pub n_nodes: usize,
    /// Edges in the training graph.
    pub n_edges: usize,
    /// Measured single-item inference latency, milliseconds.
    pub inference_time_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names_match_paper_figures() {
        assert_eq!(GmlMethodKind::GraphSaint.name(), "G-SAINT");
        assert_eq!(GmlMethodKind::ShadowSaint.name(), "SH-SAINT");
        assert_eq!(GmlMethodKind::Rgcn.to_string(), "RGCN");
    }

    #[test]
    fn sampling_classification() {
        assert!(!GmlMethodKind::Rgcn.is_sampling_based());
        assert!(GmlMethodKind::GraphSaint.is_sampling_based());
        assert!(GmlMethodKind::Morse.is_sampling_based());
    }

    #[test]
    fn default_config_is_reasonable() {
        let c = GnnConfig::default();
        assert!(c.hidden > 0 && c.epochs > 0 && c.lr > 0.0);
        assert!(c.dropout < 1.0);
    }
}
