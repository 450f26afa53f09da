//! Full-batch two-layer GCN (Kipf & Welling) with learnable node features.
//!
//! Node features are a trainable embedding table initialised with Xavier
//! weights, matching the paper's setup ("node features are initialized
//! randomly using Xavier weight initialization").

use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use kgnet_linalg::{memtrack, Adam, ParamStore, Tape};

use crate::config::{GmlMethodKind, GnnConfig};
use crate::control::TrainControl;
use crate::dataset::NcDataset;
use crate::nc::{finish, Gcn, TrainedNc};
use crate::par;

/// Train a full-batch GCN on the dataset. Cancellation via `ctl` is polled
/// at every epoch boundary.
pub fn train(data: &NcDataset, cfg: &GnnConfig, ctl: TrainControl<'_>) -> TrainedNc {
    let scope = memtrack::MemScope::begin();
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let n = data.graph.n_nodes();
    let c = data.n_classes().max(2);
    let adj = Rc::new(data.graph.gcn_adjacency());

    let mut ps = ParamStore::new();
    let gcn = Gcn::init(&mut ps, n, cfg.hidden, c, &mut rng);
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);

    let train_nodes: Rc<Vec<u32>> =
        Rc::new(data.split.train.iter().map(|&i| data.target_nodes[i as usize]).collect());
    let train_labels: Rc<Vec<u32>> =
        Rc::new(data.split.train.iter().map(|&i| data.labels[i as usize]).collect());

    let loss_curve = ctl.run_epochs(cfg.epochs, |_| {
        let mut tape = Tape::new();
        let z = gcn.logits(&mut tape, &ps, adj.clone(), None, cfg.dropout, &mut rng);
        let zt = tape.gather(z, train_nodes.clone());
        let loss = tape.softmax_ce(zt, train_labels.clone());
        tape.backward(loss);
        let step = (tape.scalar(loss), tape.param_grads());
        let loss = par::reduce_grads_into(&mut ps, vec![step]);
        opt.step(&mut ps);
        loss
    });
    let train_time_s = t0.elapsed().as_secs_f64();
    let peak = scope.peak_delta();

    // Final full-graph inference.
    let ti = Instant::now();
    let (h, z) = gcn.forward(&ps, &adj);
    let infer_ms = ti.elapsed().as_secs_f64() * 1e3 / data.target_nodes.len().max(1) as f64;

    let target_logits = z.gather_rows(&data.target_nodes);
    let target_embeddings = h.gather_rows(&data.target_nodes);
    finish(
        GmlMethodKind::Gcn,
        data,
        target_logits,
        target_embeddings,
        loss_curve,
        train_time_s,
        peak,
        infer_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nc::testutil::tiny_nc;

    #[test]
    fn gcn_learns_better_than_chance() {
        let data = tiny_nc();
        let cfg = GnnConfig { epochs: 60, dropout: 0.0, ..GnnConfig::fast_test() };
        let out = train(&data, &cfg, TrainControl::NONE);
        let chance = 1.0 / data.n_classes() as f64;
        assert!(
            out.report.test_metric > chance * 2.0,
            "test accuracy {} not better than chance {chance}",
            out.report.test_metric
        );
        assert_eq!(out.predictions.len(), data.n_targets());
        assert_eq!(out.target_logits.shape(), (data.n_targets(), data.n_classes()));
    }

    #[test]
    fn loss_decreases_over_training() {
        let data = tiny_nc();
        let cfg = GnnConfig { epochs: 30, dropout: 0.0, ..GnnConfig::fast_test() };
        let out = train(&data, &cfg, TrainControl::NONE);
        let first = out.report.loss_curve[0];
        let last = *out.report.loss_curve.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn report_records_resources() {
        let data = tiny_nc();
        let out = train(&data, &GnnConfig::fast_test(), TrainControl::NONE);
        assert!(out.report.train_time_s > 0.0);
        assert!(out.report.peak_mem_bytes > 0);
        assert!(out.report.n_nodes > 0 && out.report.n_edges > 0);
    }
}
