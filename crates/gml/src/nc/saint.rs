//! GraphSAINT (Zeng et al., ICLR 2020): mini-batch training on sampled
//! subgraphs with full-graph inference.
//!
//! Each step samples a subgraph by random walks from a root set (half train
//! targets, half uniform nodes), induces the edge set among sampled nodes,
//! builds the normalised sub-adjacency, and trains a two-layer GCN on it.
//! Loss normalisation uses uniform weights (the unbiased-estimator
//! coefficients of the paper are a variance reduction; the sampled-training
//! time/memory profile measured by Fig. 13/14 is preserved).

use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashMap;

use kgnet_linalg::{memtrack, Adam, CsrMatrix, ParamStore, Tape};

use crate::config::{GmlMethodKind, GnnConfig};
use crate::control::TrainControl;
use crate::dataset::NcDataset;
use crate::nc::{finish, Gcn, TrainedNc};
use crate::par;

/// One sampled subgraph batch, ready for tape evaluation on any worker.
struct PreparedBatch {
    nodes: Vec<u32>,
    edges: Vec<(u32, u32)>,
    batch_rows: Vec<u32>,
    batch_labels: Vec<u32>,
    /// Derived dropout seed (see [`par::batch_seed`]).
    seed: u64,
}

/// Train GraphSAINT on the dataset. Cancellation via `ctl` is polled at
/// every epoch boundary.
pub fn train(data: &NcDataset, cfg: &GnnConfig, ctl: TrainControl<'_>) -> TrainedNc {
    let scope = memtrack::MemScope::begin();
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let n = data.graph.n_nodes();
    let c = data.n_classes().max(2);
    let (offsets, neighbors) = data.graph.neighbor_lists();

    let mut ps = ParamStore::new();
    let gcn = Gcn::init(&mut ps, n, cfg.hidden, c, &mut rng);
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);

    // Label lookup: global node -> (target index).
    let mut label_of_node: FxHashMap<u32, u32> = FxHashMap::default();
    for &i in &data.split.train {
        label_of_node.insert(data.target_nodes[i as usize], data.labels[i as usize]);
    }
    let train_target_nodes: Vec<u32> =
        data.split.train.iter().map(|&i| data.target_nodes[i as usize]).collect();

    let steps_per_epoch = (train_target_nodes.len() / cfg.saint_roots.max(1)).clamp(1, 32);

    let loss_curve = ctl.run_epochs(cfg.epochs, |epoch| {
        let mut epoch_loss = 0.0f32;
        let mut counted = 0usize;
        let mut step = 0usize;
        // Waves of GRAD_WAVE sampled subgraphs: sampling stays sequential on
        // the trainer's RNG stream; the gradient tapes run in parallel and
        // reduce in batch order into one synchronous optimizer step.
        while step < steps_per_epoch {
            let wave_len = par::GRAD_WAVE.min(steps_per_epoch - step);
            let mut prepared: Vec<PreparedBatch> = Vec::with_capacity(wave_len);
            for wave_step in 0..wave_len {
                // --- Sample subgraph by random walks.
                let mut nodes: Vec<u32> =
                    Vec::with_capacity(cfg.saint_roots * (cfg.saint_walk_length + 1));
                let mut local: FxHashMap<u32, u32> = FxHashMap::default();
                let push = |v: u32, nodes: &mut Vec<u32>, local: &mut FxHashMap<u32, u32>| {
                    local.entry(v).or_insert_with(|| {
                        nodes.push(v);
                        (nodes.len() - 1) as u32
                    });
                };
                for r in 0..cfg.saint_roots {
                    let root = if r % 2 == 0 {
                        *train_target_nodes.choose(&mut rng).expect("train targets")
                    } else {
                        rng.gen_range(0..n as u32)
                    };
                    push(root, &mut nodes, &mut local);
                    let mut cur = root;
                    for _ in 0..cfg.saint_walk_length {
                        let (s, e) = (offsets[cur as usize], offsets[cur as usize + 1]);
                        if s == e {
                            break;
                        }
                        cur = neighbors[rng.gen_range(s..e)];
                        push(cur, &mut nodes, &mut local);
                    }
                }
                // --- Induce edges among sampled nodes.
                let mut edges = Vec::new();
                for (&u, &lu) in local.iter() {
                    let (s, e) = (offsets[u as usize], offsets[u as usize + 1]);
                    for &v in &neighbors[s..e] {
                        if let Some(&lv) = local.get(&v) {
                            if lu < lv {
                                edges.push((lu, lv));
                            }
                        }
                    }
                }

                // --- Train targets inside the subgraph.
                let mut batch_rows = Vec::new();
                let mut batch_labels = Vec::new();
                for (i, &g) in nodes.iter().enumerate() {
                    if let Some(&lab) = label_of_node.get(&g) {
                        batch_rows.push(i as u32);
                        batch_labels.push(lab);
                    }
                }
                if batch_labels.is_empty() {
                    continue;
                }
                let seed = par::batch_seed(cfg.seed, epoch, step + wave_step);
                prepared.push(PreparedBatch { nodes, edges, batch_rows, batch_labels, seed });
            }
            step += wave_len;
            if prepared.is_empty() {
                continue;
            }

            // --- One data-parallel GCN wave over the sampled subgraphs.
            counted += prepared.len();
            let wave = par::parallel_batch_grads(&mut prepared, |batch| {
                let mut drop_rng = StdRng::seed_from_u64(batch.seed);
                let sub_adj = Rc::new(CsrMatrix::gcn_norm(batch.nodes.len(), &batch.edges));
                let nodes = Rc::new(std::mem::take(&mut batch.nodes));
                let mut tape = Tape::new();
                let z =
                    gcn.logits(&mut tape, &ps, sub_adj, Some(nodes), cfg.dropout, &mut drop_rng);
                let zt = tape.gather(z, Rc::new(std::mem::take(&mut batch.batch_rows)));
                let loss = tape.softmax_ce(zt, Rc::new(std::mem::take(&mut batch.batch_labels)));
                tape.backward(loss);
                (tape.scalar(loss), tape.param_grads())
            });
            epoch_loss += par::reduce_grads_into(&mut ps, wave);
            opt.step(&mut ps);
        }
        if counted > 0 {
            epoch_loss / counted as f32
        } else {
            f32::NAN
        }
    });
    let train_time_s = t0.elapsed().as_secs_f64();
    let peak = scope.peak_delta();

    // Full-graph inference with the trained weights (standard GraphSAINT).
    let ti = Instant::now();
    let adj = data.graph.gcn_adjacency();
    let (h, z) = gcn.forward(&ps, &adj);
    let infer_ms = ti.elapsed().as_secs_f64() * 1e3 / data.target_nodes.len().max(1) as f64;

    let target_logits = z.gather_rows(&data.target_nodes);
    let target_embeddings = h.gather_rows(&data.target_nodes);
    finish(
        GmlMethodKind::GraphSaint,
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
    fn saint_learns_better_than_chance() {
        let data = tiny_nc();
        let cfg = GnnConfig {
            epochs: 60,
            dropout: 0.0,
            saint_roots: 24,
            saint_walk_length: 2,
            ..GnnConfig::fast_test()
        };
        let out = train(&data, &cfg, TrainControl::NONE);
        let chance = 1.0 / data.n_classes() as f64;
        assert!(
            out.report.test_metric > chance * 2.0,
            "test accuracy {} vs chance {chance}",
            out.report.test_metric
        );
    }

    #[test]
    fn saint_records_sampling_based_profile() {
        let data = tiny_nc();
        let out = train(&data, &GnnConfig::fast_test(), TrainControl::NONE);
        assert_eq!(out.report.method, GmlMethodKind::GraphSaint);
        assert!(out.report.train_time_s > 0.0);
        assert_eq!(out.target_logits.rows(), data.n_targets());
    }
}
