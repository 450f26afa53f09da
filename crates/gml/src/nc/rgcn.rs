//! Full-batch relational GCN (Schlichtkrull et al., ESWC 2018).
//!
//! Message passing runs per relation (edge type), including inverse
//! directions, with a separate projection per relation plus a self-loop
//! projection:
//!
//! `H^(l+1) = σ( Σ_r Â_r H^(l) W_r^(l) + H^(l) W_self^(l) + b )`
//!
//! At reproduction scale we use direct per-relation weights instead of basis
//! decomposition (the decomposition is a regulariser for very large relation
//! counts; the memory/time profile that the paper's Fig. 13/14 measures —
//! full-batch propagation over every relation — is preserved).
//!
//! Per-relation propagation is restricted to rows with outgoing edges under
//! that relation (`select_rows`), then scatter-summed back, which keeps the
//! dense work proportional to the number of edges rather than
//! `relations x nodes`.

use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use kgnet_linalg::{init, memtrack, Adam, CsrMatrix, Matrix, ParamId, ParamStore, Tape, Var};

use crate::config::{GmlMethodKind, GnnConfig};
use crate::control::TrainControl;
use crate::dataset::NcDataset;
use crate::nc::{add_bias_inplace, finish, relu_inplace, TrainedNc};
use crate::par;

struct Relation {
    /// Compact adjacency over active source rows (`k x n`).
    sub_adj: Rc<CsrMatrix>,
    /// The active source rows.
    rows: Rc<Vec<u32>>,
}

/// Train a full-batch RGCN on the dataset. Cancellation via `ctl` is
/// polled at every epoch boundary.
pub fn train(data: &NcDataset, cfg: &GnnConfig, ctl: TrainControl<'_>) -> TrainedNc {
    let scope = memtrack::MemScope::begin();
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let n = data.graph.n_nodes();
    let c = data.n_classes().max(2);
    let f = cfg.hidden;

    // Build per-relation compact adjacencies (forward + inverse).
    let relations: Vec<Relation> = data
        .graph
        .relation_adjacencies(true)
        .into_iter()
        .filter(|adj| adj.nnz() > 0)
        .map(|adj| {
            let rows = adj.active_rows();
            let sub_adj = Rc::new(adj.select_rows(&rows));
            Relation { sub_adj, rows: Rc::new(rows) }
        })
        .collect();
    let n_rel = relations.len();

    let mut ps = ParamStore::new();
    let x = ps.add(init::xavier_uniform(n, f, &mut rng));
    let w1_self = ps.add(init::xavier_uniform(f, f, &mut rng));
    let b1 = ps.add(Matrix::zeros(1, f));
    let w2_self = ps.add(init::xavier_uniform(f, c, &mut rng));
    let b2 = ps.add(Matrix::zeros(1, c));
    let w1_rel: Vec<ParamId> =
        (0..n_rel).map(|_| ps.add(init::xavier_uniform(f, f, &mut rng))).collect();
    let w2_rel: Vec<ParamId> =
        (0..n_rel).map(|_| ps.add(init::xavier_uniform(f, c, &mut rng))).collect();
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);

    let train_nodes: Rc<Vec<u32>> =
        Rc::new(data.split.train.iter().map(|&i| data.target_nodes[i as usize]).collect());
    let train_labels: Rc<Vec<u32>> =
        Rc::new(data.split.train.iter().map(|&i| data.labels[i as usize]).collect());

    let loss_curve = ctl.run_epochs(cfg.epochs, |_| {
        let mut tape = Tape::new();
        let adj_ids: Vec<usize> =
            relations.iter().map(|r| tape.adjacency(r.sub_adj.clone())).collect();
        let vx = tape.param(&ps, x);
        let vw1s = tape.param(&ps, w1_self);
        let vb1 = tape.param(&ps, b1);
        let vw2s = tape.param(&ps, w2_self);
        let vb2 = tape.param(&ps, b2);
        let vw1r: Vec<Var> = w1_rel.iter().map(|&p| tape.param(&ps, p)).collect();
        let vw2r: Vec<Var> = w2_rel.iter().map(|&p| tape.param(&ps, p)).collect();

        let h = rgcn_layer(&mut tape, &relations, &adj_ids, vx, &vw1r, vw1s, vb1, n);
        let h = tape.relu(h);
        let h = tape.dropout(h, cfg.dropout, &mut rng);
        let z = rgcn_layer(&mut tape, &relations, &adj_ids, h, &vw2r, vw2s, vb2, n);
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

    // Final inference (tape-free forward).
    let ti = Instant::now();
    let (h, z) = forward_eval(&relations, &ps, x, &w1_rel, w1_self, b1, &w2_rel, w2_self, b2);
    let infer_ms = ti.elapsed().as_secs_f64() * 1e3 / data.target_nodes.len().max(1) as f64;

    let target_logits = z.gather_rows(&data.target_nodes);
    let target_embeddings = h.gather_rows(&data.target_nodes);
    finish(
        GmlMethodKind::Rgcn,
        data,
        target_logits,
        target_embeddings,
        loss_curve,
        train_time_s,
        peak,
        infer_ms,
    )
}

/// One RGCN layer on the tape.
#[allow(clippy::too_many_arguments)]
fn rgcn_layer(
    tape: &mut Tape<'_>,
    relations: &[Relation],
    adj_ids: &[usize],
    input: Var,
    w_rel: &[Var],
    w_self: Var,
    bias: Var,
    n: usize,
) -> Var {
    let mut parts = Vec::with_capacity(relations.len());
    for (rel, (&adj, &w)) in relations.iter().zip(adj_ids.iter().zip(w_rel)) {
        let msg = tape.spmm(adj, input); // k x f
        let proj = tape.matmul(msg, w); // k x out
        parts.push((proj, rel.rows.clone()));
    }
    let self_msg = tape.matmul(input, w_self);
    let agg = if parts.is_empty() {
        self_msg
    } else {
        let scattered = tape.scatter_sum(parts, n);
        tape.add(scattered, self_msg)
    };
    tape.add_bias(agg, bias)
}

/// Tape-free forward for evaluation.
#[allow(clippy::too_many_arguments)]
fn forward_eval(
    relations: &[Relation],
    ps: &ParamStore,
    x: ParamId,
    w1_rel: &[ParamId],
    w1_self: ParamId,
    b1: ParamId,
    w2_rel: &[ParamId],
    w2_self: ParamId,
    b2: ParamId,
) -> (Matrix, Matrix) {
    let layer = |input: &Matrix, w_rel: &[ParamId], w_self: ParamId, b: ParamId, out_dim: usize| {
        let mut acc = input.matmul(ps.get(w_self));
        debug_assert_eq!(acc.cols(), out_dim);
        for (rel, &w) in relations.iter().zip(w_rel) {
            let msg = rel.sub_adj.spmm(input);
            let proj = msg.matmul(ps.get(w));
            for (j, &r) in rel.rows.iter().enumerate() {
                let dst = acc.row_mut(r as usize);
                for (o, &v) in dst.iter_mut().zip(proj.row(j)) {
                    *o += v;
                }
            }
        }
        add_bias_inplace(&mut acc, ps.get(b));
        acc
    };
    let mut h = layer(ps.get(x), w1_rel, w1_self, b1, ps.get(w1_self).cols());
    relu_inplace(&mut h);
    let z = layer(&h, w2_rel, w2_self, b2, ps.get(w2_self).cols());
    (h, z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nc::testutil::tiny_nc;

    #[test]
    fn rgcn_learns_better_than_chance() {
        let data = tiny_nc();
        let cfg = GnnConfig { epochs: 40, dropout: 0.0, ..GnnConfig::fast_test() };
        let out = train(&data, &cfg, TrainControl::NONE);
        let chance = 1.0 / data.n_classes() as f64;
        assert!(
            out.report.test_metric > chance * 2.0,
            "test accuracy {} vs chance {chance}",
            out.report.test_metric
        );
    }

    #[test]
    fn rgcn_loss_decreases() {
        let data = tiny_nc();
        let cfg = GnnConfig { epochs: 25, dropout: 0.0, ..GnnConfig::fast_test() };
        let out = train(&data, &cfg, TrainControl::NONE);
        assert!(out.report.loss_curve.last().unwrap() < &out.report.loss_curve[0]);
    }

    #[test]
    fn rgcn_uses_more_memory_than_sampled_methods_would() {
        // Full-batch RGCN must at least allocate per-relation activations.
        let data = tiny_nc();
        let out = train(&data, &GnnConfig::fast_test(), TrainControl::NONE);
        assert!(out.report.peak_mem_bytes > data.graph.n_nodes() * 16);
    }
}
