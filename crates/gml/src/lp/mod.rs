//! Link-prediction trainers: MorsE and the KGE family.

pub mod kge;
pub mod morse;

use kgnet_linalg::Matrix;

use crate::config::{GmlMethodKind, GnnConfig, TrainReport};
use crate::control::TrainControl;
use crate::dataset::LpDataset;
use crate::metrics::{hits_at, mrr, rank_of, Rank};

/// A trained link predictor with a full source x destination score matrix.
pub struct TrainedLp {
    /// Training/evaluation record (`test_metric` is Hits@10).
    pub report: TrainReport,
    /// Score of every dataset source against every candidate destination
    /// (`sources x destinations`, higher is better).
    pub scores: Matrix,
    /// Source embedding per dataset source (`sources x d`).
    pub source_embeddings: Matrix,
}

impl TrainedLp {
    /// Top-k destination indexes (into the dataset's `destinations`) for a
    /// source position, best first.
    pub fn topk(&self, source_pos: usize, k: usize) -> Vec<(usize, f32)> {
        let row = self.scores.row(source_pos);
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap_or(std::cmp::Ordering::Equal));
        idx.into_iter().take(k).map(|i| (i, row[i])).collect()
    }
}

/// Dispatch a link-prediction training run by method kind.
///
/// Panics if `method` is not an LP method.
pub fn train_lp(method: GmlMethodKind, data: &LpDataset, cfg: &GnnConfig) -> TrainedLp {
    train_lp_ctl(method, data, cfg, TrainControl::NONE)
}

/// [`train_lp`] with a cancellation handle polled between epochs: raising
/// the flag stops the run at the next epoch boundary with a partial result.
pub fn train_lp_ctl(
    method: GmlMethodKind,
    data: &LpDataset,
    cfg: &GnnConfig,
    ctl: TrainControl<'_>,
) -> TrainedLp {
    match method {
        GmlMethodKind::Morse => morse::train(data, cfg, ctl),
        GmlMethodKind::TransE
        | GmlMethodKind::DistMult
        | GmlMethodKind::ComplEx
        | GmlMethodKind::RotatE => kge::train(method, data, cfg, ctl),
        other => panic!("{other} is not a link-prediction method"),
    }
}

/// Evaluate ranking metrics over a set of edges. `score_all(src_node)` must
/// return one score per candidate destination, aligned with
/// `data.destinations`.
pub(crate) fn rank_edges(
    data: &LpDataset,
    edge_idx: &[u32],
    mut score_all: impl FnMut(u32) -> Vec<f32>,
) -> (f64, f64) {
    let dest_pos = |node: u32| data.destinations.iter().position(|&d| d == node);
    let mut ranks: Vec<Rank> = Vec::with_capacity(edge_idx.len());
    for &i in edge_idx {
        let (s, d) = data.edges[i as usize];
        let Some(true_pos) = dest_pos(d) else { continue };
        let scores = score_all(s);
        ranks.push(rank_of(true_pos, &scores));
    }
    (hits_at(10, &ranks), mrr(&ranks))
}

/// Assemble the final [`TrainedLp`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_lp(
    method: GmlMethodKind,
    data: &LpDataset,
    scores: Matrix,
    source_embeddings: Matrix,
    loss_curve: Vec<f32>,
    train_time_s: f64,
    peak_mem_bytes: usize,
    inference_time_ms: f64,
) -> TrainedLp {
    // Rank test/valid edges straight from the precomputed score matrix.
    let src_pos = |node: u32| data.sources.iter().position(|&s| s == node);
    let eval = |idx: &[u32]| -> (f64, f64) {
        rank_edges(data, idx, |s| match src_pos(s) {
            Some(p) => scores.row(p).to_vec(),
            // No score row: every candidate ties, so the true one ranks
            // mid-list.
            None => vec![0.0; data.destinations.len()],
        })
    };
    let (test_hits, test_mrr) = eval(&data.split.test);
    let (valid_hits, _) = eval(&data.split.valid);
    TrainedLp {
        report: TrainReport {
            method,
            train_time_s,
            peak_mem_bytes,
            test_metric: test_hits,
            valid_metric: valid_hits,
            mrr: test_mrr,
            loss_curve,
            n_nodes: data.graph.n_nodes(),
            n_edges: data.graph.n_edges(),
            inference_time_ms,
        },
        scores,
        source_embeddings,
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use kgnet_datagen::vocab::dblp as v;
    use kgnet_datagen::{generate_dblp, DblpConfig};
    use kgnet_graph::{LpTask, SplitRatios};

    use crate::dataset::{build_lp_dataset, LpDataset};

    /// A tiny DBLP LP dataset for trainer smoke tests. Uses extra
    /// affiliations so Hits@10 is not trivially perfect.
    pub fn tiny_lp() -> LpDataset {
        let cfg = DblpConfig {
            n_affiliations: 40,
            n_authors: 120,
            n_papers: 150,
            ..DblpConfig::tiny(29)
        };
        let (st, _) = generate_dblp(&cfg);
        build_lp_dataset(
            &st,
            &LpTask {
                source_type: v::PERSON.into(),
                edge_predicate: v::AFFILIATED_WITH.into(),
                dest_type: v::AFFILIATION.into(),
            },
            SplitRatios::default(),
            7,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pre_raised_cancel_runs_zero_epochs() {
        use std::sync::atomic::AtomicBool;
        let data = testutil::tiny_lp();
        let cfg = GnnConfig { epochs: 5000, ..GnnConfig::fast_test() };
        let flag = AtomicBool::new(true);
        for method in [GmlMethodKind::Morse, GmlMethodKind::TransE, GmlMethodKind::DistMult] {
            let out = train_lp_ctl(method, &data, &cfg, TrainControl::with_flag(&flag));
            assert!(
                out.report.loss_curve.is_empty(),
                "{method} ran {} epochs after cancellation",
                out.report.loss_curve.len()
            );
        }
        // The unsupervised similarity trainer polls the same handle.
        let (_, report) =
            kge::train_unsupervised_ctl(&data.graph, &cfg, TrainControl::with_flag(&flag));
        assert!(report.loss_curve.is_empty());
    }

    #[test]
    fn topk_orders_by_score() {
        let scores = Matrix::from_vec(1, 4, vec![0.2, 0.9, -1.0, 0.5]);
        let lp = TrainedLp {
            report: TrainReport {
                method: GmlMethodKind::TransE,
                train_time_s: 0.0,
                peak_mem_bytes: 0,
                test_metric: 0.0,
                valid_metric: 0.0,
                mrr: 0.0,
                loss_curve: vec![],
                n_nodes: 0,
                n_edges: 0,
                inference_time_ms: 0.0,
            },
            scores,
            source_embeddings: Matrix::zeros(1, 1),
        };
        let top = lp.topk(0, 2);
        assert_eq!(top[0].0, 1);
        assert_eq!(top[1].0, 3);
    }
}
