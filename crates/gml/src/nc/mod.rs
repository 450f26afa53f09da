//! Node-classification trainers.
//!
//! All four methods of the paper's NC experiments are implemented on the
//! autodiff tape: full-batch [`gcn`] and [`rgcn`], and the sampling-based
//! [`saint`] (GraphSAINT) and [`shadow`] (ShadowSAINT / shaDow-GNN).

pub mod gcn;
pub mod rgcn;
pub mod saint;
pub mod shadow;

use std::rc::Rc;

use rand::rngs::StdRng;

use kgnet_linalg::{init, CsrMatrix, Matrix, ParamId, ParamStore, Tape, Var};

use crate::config::{GmlMethodKind, GnnConfig, TrainReport};
use crate::control::TrainControl;
use crate::dataset::NcDataset;
use crate::metrics::accuracy;

/// A trained node classifier, with full inference over the dataset targets.
pub struct TrainedNc {
    /// Training/evaluation record.
    pub report: TrainReport,
    /// Logits for every dataset target (`n_targets x n_classes`).
    pub target_logits: Matrix,
    /// Final hidden embedding of every target (`n_targets x hidden`).
    pub target_embeddings: Matrix,
    /// Argmax class index per target.
    pub predictions: Vec<usize>,
}

/// Dispatch a node-classification training run by method kind.
///
/// Panics if `method` is not an NC method.
pub fn train_nc(method: GmlMethodKind, data: &NcDataset, cfg: &GnnConfig) -> TrainedNc {
    train_nc_ctl(method, data, cfg, TrainControl::NONE)
}

/// [`train_nc`] with a cancellation handle polled between epochs: raising
/// the flag stops the run at the next epoch boundary with a partial result.
pub fn train_nc_ctl(
    method: GmlMethodKind,
    data: &NcDataset,
    cfg: &GnnConfig,
    ctl: TrainControl<'_>,
) -> TrainedNc {
    match method {
        GmlMethodKind::Gcn => gcn::train(data, cfg, ctl),
        GmlMethodKind::Rgcn => rgcn::train(data, cfg, ctl),
        GmlMethodKind::GraphSaint => saint::train(data, cfg, ctl),
        GmlMethodKind::ShadowSaint => shadow::train(data, cfg, ctl),
        other => panic!("{other} is not a node-classification method"),
    }
}

/// The two-layer GCN that [`gcn`] trains on the whole graph and [`saint`]
/// on sampled subgraphs: a learnable node-feature table `X`, then
/// `H = relu(Â X W1 + b1)` and `Z = Â H W2 + b2`.
pub(crate) struct Gcn {
    x: ParamId,
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
}

impl Gcn {
    /// Register Xavier-initialised parameters for `n` nodes, hidden width
    /// `f` and `c` classes.
    pub(crate) fn init(ps: &mut ParamStore, n: usize, f: usize, c: usize, rng: &mut StdRng) -> Gcn {
        Gcn {
            x: ps.add(init::xavier_uniform(n, f, rng)),
            w1: ps.add(init::xavier_uniform(f, f, rng)),
            b1: ps.add(Matrix::zeros(1, f)),
            w2: ps.add(init::xavier_uniform(f, c, rng)),
            b2: ps.add(Matrix::zeros(1, c)),
        }
    }

    /// `Z` on the tape, with dropout after the first layer. `x_rows` picks
    /// the feature rows of a sampled subgraph that `adj` covers; `None`
    /// uses the whole table.
    pub(crate) fn logits<'p>(
        &self,
        tape: &mut Tape<'p>,
        ps: &'p ParamStore,
        adj: Rc<CsrMatrix>,
        x_rows: Option<Rc<Vec<u32>>>,
        dropout: f32,
        rng: &mut StdRng,
    ) -> Var {
        let a = tape.adjacency(adj);
        let vx = tape.param(ps, self.x);
        let vw1 = tape.param(ps, self.w1);
        let vb1 = tape.param(ps, self.b1);
        let vw2 = tape.param(ps, self.w2);
        let vb2 = tape.param(ps, self.b2);
        let x = match x_rows {
            Some(rows) => tape.gather(vx, rows),
            None => vx,
        };
        let xw = tape.matmul(x, vw1);
        let h = tape.spmm(a, xw);
        let h = tape.add_bias(h, vb1);
        let h = tape.relu(h);
        let h = tape.dropout(h, dropout, rng);
        let hw = tape.matmul(h, vw2);
        let z = tape.spmm(a, hw);
        tape.add_bias(z, vb2)
    }

    /// Tape-free `(H, Z)` over the whole graph, for inference.
    pub(crate) fn forward(&self, ps: &ParamStore, adj: &CsrMatrix) -> (Matrix, Matrix) {
        let mut h = adj.spmm(&ps.get(self.x).matmul(ps.get(self.w1)));
        add_bias_inplace(&mut h, ps.get(self.b1));
        relu_inplace(&mut h);
        let mut z = adj.spmm(&h.matmul(ps.get(self.w2)));
        add_bias_inplace(&mut z, ps.get(self.b2));
        (h, z)
    }
}

pub(crate) fn add_bias_inplace(m: &mut Matrix, bias: &Matrix) {
    for r in 0..m.rows() {
        for (o, &b) in m.row_mut(r).iter_mut().zip(bias.row(0)) {
            *o += b;
        }
    }
}

pub(crate) fn relu_inplace(m: &mut Matrix) {
    for v in m.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Split-wise accuracy of predictions indexed by target position.
pub(crate) fn split_accuracy(pred: &[usize], labels: &[u32], idx: &[u32]) -> f64 {
    let p: Vec<usize> = idx.iter().map(|&i| pred[i as usize]).collect();
    let t: Vec<u32> = idx.iter().map(|&i| labels[i as usize]).collect();
    accuracy(&p, &t)
}

/// Assemble the final [`TrainedNc`] from full-target logits/embeddings.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish(
    method: GmlMethodKind,
    data: &NcDataset,
    target_logits: Matrix,
    target_embeddings: Matrix,
    loss_curve: Vec<f32>,
    train_time_s: f64,
    peak_mem_bytes: usize,
    inference_time_ms: f64,
) -> TrainedNc {
    let predictions = target_logits.argmax_rows();
    let test_metric = split_accuracy(&predictions, &data.labels, &data.split.test);
    let valid_metric = split_accuracy(&predictions, &data.labels, &data.split.valid);
    TrainedNc {
        report: TrainReport {
            method,
            train_time_s,
            peak_mem_bytes,
            test_metric,
            valid_metric,
            mrr: 0.0,
            loss_curve,
            n_nodes: data.graph.n_nodes(),
            n_edges: data.graph.n_edges(),
            inference_time_ms,
        },
        target_logits,
        target_embeddings,
        predictions,
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use kgnet_datagen::vocab::dblp as v;
    use kgnet_datagen::{generate_dblp, DblpConfig};
    use kgnet_graph::{NcTask, SplitRatios, SplitStrategy};

    use crate::dataset::{build_nc_dataset, NcDataset};

    /// A tiny DBLP NC dataset with strong signal for trainer smoke tests.
    pub fn tiny_nc() -> NcDataset {
        let (st, _) = generate_dblp(&DblpConfig::tiny(23));
        build_nc_dataset(
            &st,
            &NcTask { target_type: v::PUBLICATION.into(), label_predicate: v::PUBLISHED_IN.into() },
            SplitStrategy::Random,
            SplitRatios::default(),
            5,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcn_forward_shapes() {
        use rand::SeedableRng;
        let adj = CsrMatrix::gcn_norm(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut ps = ParamStore::new();
        let gcn = Gcn::init(&mut ps, 4, 5, 2, &mut StdRng::seed_from_u64(0));
        let (h, z) = gcn.forward(&ps, &adj);
        assert_eq!(h.shape(), (4, 5));
        assert_eq!(z.shape(), (4, 2));
    }

    #[test]
    fn pre_raised_cancel_runs_zero_epochs() {
        use kgnet_sync::atomic::AtomicBool;
        // A flag raised before the run starts proves every trainer runs its
        // epochs through `TrainControl::run_epochs`: not a single epoch may
        // execute, no matter how many are configured.
        let data = testutil::tiny_nc();
        let cfg = GnnConfig { epochs: 5000, ..GnnConfig::fast_test() };
        let flag = AtomicBool::new(true);
        for method in [
            GmlMethodKind::Gcn,
            GmlMethodKind::Rgcn,
            GmlMethodKind::GraphSaint,
            GmlMethodKind::ShadowSaint,
        ] {
            let out = train_nc_ctl(method, &data, &cfg, TrainControl::with_flag(&flag));
            assert!(
                out.report.loss_curve.is_empty(),
                "{method} ran {} epochs after cancellation",
                out.report.loss_curve.len()
            );
        }
    }

    #[test]
    fn mid_run_cancel_stops_within_epochs_not_at_run_end() {
        use kgnet_sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        // The run is configured far beyond what could finish quickly; a
        // cancel raised shortly after the start must end it long before the
        // configured horizon (the per-epoch poll bounds the overshoot).
        let data = testutil::tiny_nc();
        let cfg = GnnConfig { epochs: 200_000, dropout: 0.0, ..GnnConfig::fast_test() };
        let flag = Arc::new(AtomicBool::new(false));
        let raiser = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                flag.store(true, Ordering::SeqCst);
            })
        };
        let out = train_nc_ctl(GmlMethodKind::Gcn, &data, &cfg, TrainControl::with_flag(&flag));
        raiser.join().unwrap();
        let epochs_run = out.report.loss_curve.len();
        assert!(
            epochs_run < cfg.epochs / 10,
            "cancel did not bound the run: {epochs_run}/{} epochs",
            cfg.epochs
        );
    }

    #[test]
    fn relu_and_bias_helpers() {
        let mut m = Matrix::from_vec(1, 3, vec![-1.0, 0.5, 2.0]);
        relu_inplace(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 0.5, 2.0]);
        let b = Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        add_bias_inplace(&mut m, &b);
        assert_eq!(m.as_slice(), &[1.0, 1.5, 3.0]);
    }
}
