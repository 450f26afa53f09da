//! Knowledge-graph embedding link predictors: TransE, DistMult, ComplEx,
//! RotatE (the KGE branch of the paper's Fig. 5 taxonomy).
//!
//! One entity table is trained jointly over all context relations plus the
//! predicted relation; negatives corrupt the tail. TransE/RotatE use margin
//! ranking over L2 distance; DistMult/ComplEx use the logistic (softplus)
//! loss over their bilinear scores.

use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use kgnet_linalg::{init, memtrack, Adam, Matrix, ParamStore, Tape, Var};

use crate::config::{GmlMethodKind, GnnConfig};
use crate::control::TrainControl;
use crate::dataset::LpDataset;
use crate::lp::{finish_lp, TrainedLp};
use crate::par;

/// One sampled triple batch (positives plus corrupted tails), ready for
/// tape evaluation on any worker.
struct PreparedBatch {
    heads: Vec<u32>,
    rels: Vec<u32>,
    tails: Vec<u32>,
    negs: Vec<u32>,
}

/// Train a KGE method on the dataset. Cancellation via `ctl` is polled at
/// every epoch boundary.
pub fn train(
    method: GmlMethodKind,
    data: &LpDataset,
    cfg: &GnnConfig,
    ctl: TrainControl<'_>,
) -> TrainedLp {
    let scope = memtrack::MemScope::begin();
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let n = data.graph.n_nodes();
    let d = cfg.hidden & !1; // even width for the complex-paired methods
    let d = d.max(2);
    let n_rel = data.graph.n_edge_types() + 1; // context relations + target
    let target_rel = (n_rel - 1) as u16;

    // Training triples: all typed context edges + train-split target edges.
    let mut triples: Vec<(u16, u32, u32)> = Vec::new();
    for r in 0..data.graph.n_edge_types() {
        for &(s, t) in data.graph.edges_of_type(r as u16) {
            triples.push((r as u16, s, t));
        }
    }
    for &i in &data.split.train {
        let (s, t) = data.edges[i as usize];
        triples.push((target_rel, s, t));
    }

    let mut ps = ParamStore::new();
    let entities = ps.add(init::xavier_uniform(n, d, &mut rng));
    // For RotatE the relation table stores d/2 phases; otherwise d values.
    let rel_width = if method == GmlMethodKind::RotatE { d / 2 } else { d };
    let relations = ps.add(init::xavier_uniform(n_rel, rel_width, &mut rng));
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);

    let batches_per_epoch = (triples.len() / cfg.batch_size.max(1)).clamp(1, 16);
    let loss_curve = ctl.run_epochs(cfg.epochs, |_| {
        let mut epoch_loss = 0.0f32;
        let mut done = 0usize;
        // Waves of GRAD_WAVE batches: sampling (positives and corrupted
        // tails) stays on the trainer's RNG stream; the scoring/gradient
        // tapes run in parallel and reduce in batch order.
        while done < batches_per_epoch {
            let wave_len = par::GRAD_WAVE.min(batches_per_epoch - done);
            let mut prepared: Vec<PreparedBatch> = (0..wave_len)
                .map(|_| {
                    let mut batch: Vec<(u16, u32, u32)> = Vec::with_capacity(cfg.batch_size);
                    for _ in 0..cfg.batch_size {
                        batch.push(*triples.choose(&mut rng).expect("non-empty triples"));
                    }
                    PreparedBatch {
                        heads: batch.iter().map(|&(_, s, _)| s).collect(),
                        rels: batch.iter().map(|&(r, _, _)| r as u32).collect(),
                        tails: batch.iter().map(|&(_, _, t)| t).collect(),
                        negs: batch.iter().map(|_| rng.gen_range(0..n as u32)).collect(),
                    }
                })
                .collect();
            done += wave_len;

            let wave = par::parallel_batch_grads(&mut prepared, |pb| {
                let mut tape = Tape::new();
                let ve = tape.param(&ps, entities);
                let vr = tape.param(&ps, relations);
                let h = tape.gather(ve, Rc::new(std::mem::take(&mut pb.heads)));
                let r = tape.gather(vr, Rc::new(std::mem::take(&mut pb.rels)));
                let t = tape.gather(ve, Rc::new(std::mem::take(&mut pb.tails)));
                let t_neg = tape.gather(ve, Rc::new(std::mem::take(&mut pb.negs)));

                let loss = match method {
                    GmlMethodKind::TransE => {
                        let pos = transe_dist(&mut tape, h, r, t);
                        let neg = transe_dist(&mut tape, h, r, t_neg);
                        margin_loss(&mut tape, pos, neg, cfg.margin)
                    }
                    GmlMethodKind::RotatE => {
                        let pos = rotate_dist(&mut tape, h, r, t, d);
                        let neg = rotate_dist(&mut tape, h, r, t_neg, d);
                        margin_loss(&mut tape, pos, neg, cfg.margin)
                    }
                    GmlMethodKind::DistMult => {
                        let pos = distmult_score(&mut tape, h, r, t);
                        let neg = distmult_score(&mut tape, h, r, t_neg);
                        logistic_loss(&mut tape, pos, neg)
                    }
                    GmlMethodKind::ComplEx => {
                        let pos = complex_score(&mut tape, h, r, t, d);
                        let neg = complex_score(&mut tape, h, r, t_neg, d);
                        logistic_loss(&mut tape, pos, neg)
                    }
                    other => panic!("{other} is not a KGE method"),
                };
                tape.backward(loss);
                (tape.scalar(loss), tape.param_grads())
            });
            epoch_loss += par::reduce_grads_into(&mut ps, wave);
            opt.step(&mut ps);
        }
        epoch_loss / batches_per_epoch as f32
    });
    let train_time_s = t0.elapsed().as_secs_f64();
    let peak = scope.peak_delta();

    // Inference: score every source against every destination under the
    // target relation (tape-free).
    let ti = Instant::now();
    let ent = ps.get(entities);
    let rel_row = ps.get(relations).row(target_rel as usize).to_vec();
    let mut scores = Matrix::zeros(data.sources.len(), data.destinations.len());
    let mut source_embeddings = Matrix::zeros(data.sources.len(), d);
    for (i, &s) in data.sources.iter().enumerate() {
        let es = ent.row(s as usize);
        source_embeddings.row_mut(i).copy_from_slice(es);
        for (j, &dst) in data.destinations.iter().enumerate() {
            let ed = ent.row(dst as usize);
            scores.set(i, j, score_rows(method, es, &rel_row, ed));
        }
    }
    let infer_ms = ti.elapsed().as_secs_f64() * 1e3 / data.sources.len().max(1) as f64;

    finish_lp(method, data, scores, source_embeddings, loss_curve, train_time_s, peak, infer_ms)
}

/// Train TransE embeddings over every typed edge of a graph without a
/// prediction target (used by the entity-similarity task): returns one
/// embedding row per graph node plus the training report.
pub fn train_unsupervised(
    graph: &kgnet_graph::HeteroGraph,
    cfg: &GnnConfig,
) -> (Matrix, crate::config::TrainReport) {
    train_unsupervised_ctl(graph, cfg, TrainControl::NONE)
}

/// [`train_unsupervised`] with a cancellation handle polled between epochs.
pub fn train_unsupervised_ctl(
    graph: &kgnet_graph::HeteroGraph,
    cfg: &GnnConfig,
    ctl: TrainControl<'_>,
) -> (Matrix, crate::config::TrainReport) {
    let scope = memtrack::MemScope::begin();
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = graph.n_nodes();
    let d = cfg.hidden.max(2);
    let n_rel = graph.n_edge_types().max(1);

    let mut triples: Vec<(u16, u32, u32)> = Vec::new();
    for r in 0..graph.n_edge_types() {
        for &(s, t) in graph.edges_of_type(r as u16) {
            triples.push((r as u16, s, t));
        }
    }
    let mut ps = ParamStore::new();
    let entities = ps.add(init::xavier_uniform(n, d, &mut rng));
    let relations = ps.add(init::xavier_uniform(n_rel, d, &mut rng));
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);

    // No triples, nothing to train on: zero epochs.
    let epochs = if triples.is_empty() { 0 } else { cfg.epochs };
    let loss_curve = ctl.run_epochs(epochs, |_| {
        let mut batch: Vec<(u16, u32, u32)> = Vec::with_capacity(cfg.batch_size);
        for _ in 0..cfg.batch_size {
            batch.push(*triples.choose(&mut rng).expect("non-empty triples"));
        }
        let heads: Rc<Vec<u32>> = Rc::new(batch.iter().map(|&(_, s, _)| s).collect());
        let rels: Rc<Vec<u32>> = Rc::new(batch.iter().map(|&(r, _, _)| r as u32).collect());
        let tails: Rc<Vec<u32>> = Rc::new(batch.iter().map(|&(_, _, t)| t).collect());
        let negs: Rc<Vec<u32>> =
            Rc::new(batch.iter().map(|_| rng.gen_range(0..n as u32)).collect());
        let mut tape = Tape::new();
        let ve = tape.param(&ps, entities);
        let vr = tape.param(&ps, relations);
        let h = tape.gather(ve, heads);
        let r = tape.gather(vr, rels);
        let t = tape.gather(ve, tails);
        let t_neg = tape.gather(ve, negs);
        let pos = transe_dist(&mut tape, h, r, t);
        let neg = transe_dist(&mut tape, h, r, t_neg);
        let loss = margin_loss(&mut tape, pos, neg, cfg.margin);
        tape.backward(loss);
        let step = (tape.scalar(loss), tape.param_grads());
        let loss = par::reduce_grads_into(&mut ps, vec![step]);
        opt.step(&mut ps);
        loss
    });
    let report = crate::config::TrainReport {
        method: GmlMethodKind::TransE,
        train_time_s: t0.elapsed().as_secs_f64(),
        peak_mem_bytes: scope.peak_delta(),
        test_metric: 0.0,
        valid_metric: 0.0,
        mrr: 0.0,
        loss_curve,
        n_nodes: n,
        n_edges: graph.n_edges(),
        inference_time_ms: 0.01,
    };
    (ps.get(entities).clone(), report)
}

fn transe_dist(tape: &mut Tape<'_>, h: Var, r: Var, t: Var) -> Var {
    let hr = tape.add(h, r);
    let diff = tape.sub(hr, t);
    let sq = tape.mul(diff, diff);
    let ss = tape.row_sum(sq);
    tape.sqrt(ss)
}

fn rotate_dist(tape: &mut Tape<'_>, h: Var, phases: Var, t: Var, d: usize) -> Var {
    let half = d / 2;
    let h_re = tape.slice_cols(h, 0, half);
    let h_im = tape.slice_cols(h, half, d);
    let t_re = tape.slice_cols(t, 0, half);
    let t_im = tape.slice_cols(t, half, d);
    let cosp = tape.cos(phases);
    let sinp = tape.sin(phases);
    // (h_re + i h_im)(cos + i sin)
    let a = tape.mul(h_re, cosp);
    let b = tape.mul(h_im, sinp);
    let rot_re = tape.sub(a, b);
    let c = tape.mul(h_re, sinp);
    let e = tape.mul(h_im, cosp);
    let rot_im = tape.add(c, e);
    let dre = tape.sub(rot_re, t_re);
    let dim = tape.sub(rot_im, t_im);
    let sre = tape.mul(dre, dre);
    let sim = tape.mul(dim, dim);
    let s = tape.add(sre, sim);
    let ss = tape.row_sum(s);
    tape.sqrt(ss)
}

fn distmult_score(tape: &mut Tape<'_>, h: Var, r: Var, t: Var) -> Var {
    let hr = tape.mul(h, r);
    let hrt = tape.mul(hr, t);
    tape.row_sum(hrt)
}

fn complex_score(tape: &mut Tape<'_>, h: Var, r: Var, t: Var, d: usize) -> Var {
    let half = d / 2;
    let (h_re, h_im) = (tape.slice_cols(h, 0, half), tape.slice_cols(h, half, d));
    let (r_re, r_im) = (tape.slice_cols(r, 0, half), tape.slice_cols(r, half, d));
    let (t_re, t_im) = (tape.slice_cols(t, 0, half), tape.slice_cols(t, half, d));
    // Re(<h, r, conj(t)>) expanded over real pairs.
    let a = tape.mul(h_re, r_re);
    let a = tape.mul(a, t_re);
    let b = tape.mul(h_im, r_re);
    let b = tape.mul(b, t_im);
    let c = tape.mul(h_re, r_im);
    let c = tape.mul(c, t_im);
    let e = tape.mul(h_im, r_im);
    let e = tape.mul(e, t_re);
    let ab = tape.add(a, b);
    let abc = tape.add(ab, c);
    let full = tape.sub(abc, e);
    tape.row_sum(full)
}

fn margin_loss(tape: &mut Tape<'_>, pos_dist: Var, neg_dist: Var, margin: f32) -> Var {
    let gap = tape.sub(pos_dist, neg_dist);
    let gap = tape.add_scalar(gap, margin);
    let hinge = tape.relu(gap);
    tape.mean_all(hinge)
}

fn logistic_loss(tape: &mut Tape<'_>, pos_score: Var, neg_score: Var) -> Var {
    let npos = tape.scale(pos_score, -1.0);
    let lp = tape.softplus(npos);
    let ln = tape.softplus(neg_score);
    let s = tape.add(lp, ln);
    tape.mean_all(s)
}

/// Tape-free scoring of one (head, relation, tail) row triple.
fn score_rows(method: GmlMethodKind, h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    match method {
        GmlMethodKind::TransE => {
            let mut ss = 0.0f32;
            for ((&a, &b), &c) in h.iter().zip(r).zip(t) {
                let v = a + b - c;
                ss += v * v;
            }
            -ss.max(1e-12).sqrt()
        }
        GmlMethodKind::DistMult => h.iter().zip(r).zip(t).map(|((&a, &b), &c)| a * b * c).sum(),
        GmlMethodKind::ComplEx => {
            let half = h.len() / 2;
            let mut s = 0.0f32;
            for i in 0..half {
                let (hre, him) = (h[i], h[half + i]);
                let (rre, rim) = (r[i], r[half + i]);
                let (tre, tim) = (t[i], t[half + i]);
                s += hre * rre * tre + him * rre * tim + hre * rim * tim - him * rim * tre;
            }
            s
        }
        GmlMethodKind::RotatE => {
            let half = h.len() / 2;
            let mut ss = 0.0f32;
            for i in 0..half {
                let (hre, him) = (h[i], h[half + i]);
                let (cosp, sinp) = (r[i].cos(), r[i].sin());
                let rot_re = hre * cosp - him * sinp;
                let rot_im = hre * sinp + him * cosp;
                let dre = rot_re - t[i];
                let dim = rot_im - t[half + i];
                ss += dre * dre + dim * dim;
            }
            -ss.max(1e-12).sqrt()
        }
        other => panic!("{other} is not a KGE method"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::testutil::tiny_lp;

    fn run(method: GmlMethodKind) -> f64 {
        let data = tiny_lp();
        let cfg = GnnConfig { epochs: 40, batch_size: 128, ..GnnConfig::fast_test() };
        let out = train(method, &data, &cfg, TrainControl::NONE);
        let random = 10.0 / data.destinations.len() as f64;
        assert!(out.report.loss_curve.len() == 40);
        assert!(
            out.report.test_metric >= random * 0.5,
            "{method}: Hits@10 {} catastrophically below random {random}",
            out.report.test_metric
        );
        out.report.test_metric
    }

    #[test]
    fn transe_trains_and_ranks() {
        let hits = run(GmlMethodKind::TransE);
        assert!(hits > 0.0);
    }

    #[test]
    fn distmult_trains_and_ranks() {
        run(GmlMethodKind::DistMult);
    }

    #[test]
    fn complex_trains_and_ranks() {
        run(GmlMethodKind::ComplEx);
    }

    #[test]
    fn rotate_trains_and_ranks() {
        run(GmlMethodKind::RotatE);
    }

    #[test]
    fn score_rows_consistency_transe() {
        // Perfect translation scores 0 (max), mismatch scores negative.
        let h = [1.0f32, 0.0];
        let r = [0.5f32, 0.5];
        let t = [1.5f32, 0.5];
        assert!(score_rows(GmlMethodKind::TransE, &h, &r, &t) > -1e-3);
        let t_bad = [9.0f32, 9.0];
        assert!(score_rows(GmlMethodKind::TransE, &h, &r, &t_bad) < -1.0);
    }

    #[test]
    fn score_rows_consistency_rotate() {
        // Zero phase = identity rotation.
        let h = [0.6f32, 0.8];
        let r = [0.0f32];
        let t = [0.6f32, 0.8];
        assert!(score_rows(GmlMethodKind::RotatE, &h, &r, &t) > -1e-3);
    }
}
