//! ShadowSAINT / shaDow-GNN (Zeng et al., 2022): decoupled depth and scope.
//!
//! For every target node a small bounded-scope subgraph is extracted once
//! (BFS with a per-node neighbour cap); batches of these ego-subgraphs are
//! assembled into one block-diagonal adjacency, a two-layer GCN runs on the
//! batch, and each target is classified from its own root-node
//! representation. Inference for valid/test targets uses the same batched
//! extraction, so both training and inference touch only the local scopes.

use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rustc_hash::FxHashMap;

use kgnet_linalg::{init, memtrack, Adam, CsrMatrix, Matrix, ParamStore, Tape};

use crate::config::{GmlMethodKind, GnnConfig};
use crate::control::TrainControl;
use crate::dataset::NcDataset;
use crate::nc::{finish, TrainedNc};
use crate::par;

/// A cached per-target ego subgraph (local node 0 is the root).
struct EgoNet {
    nodes: Vec<u32>,
    edges: Vec<(u32, u32)>,
}

/// One assembled mini-batch, ready for tape evaluation on any worker.
struct PreparedBatch {
    nodes: Vec<u32>,
    edges: Vec<(u32, u32)>,
    roots: Vec<u32>,
    labels: Vec<u32>,
    /// Derived dropout seed (see [`par::batch_seed`]).
    seed: u64,
}

/// Train ShadowSAINT on the dataset. Cancellation via `ctl` is polled at
/// every epoch boundary.
pub fn train(data: &NcDataset, cfg: &GnnConfig, ctl: TrainControl<'_>) -> TrainedNc {
    let scope = memtrack::MemScope::begin();
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let n = data.graph.n_nodes();
    let c = data.n_classes().max(2);
    let f = cfg.hidden;
    let (offsets, neighbors) = data.graph.neighbor_lists();

    // Extract every target's bounded-scope subgraph once; reused each epoch.
    let egos: Vec<EgoNet> = data
        .target_nodes
        .iter()
        .map(|&root| extract_ego(root, &offsets, &neighbors, cfg, &mut rng))
        .collect();

    let mut ps = ParamStore::new();
    let x = ps.add(init::xavier_uniform(n, f, &mut rng));
    let w1 = ps.add(init::xavier_uniform(f, f, &mut rng));
    let b1 = ps.add(Matrix::zeros(1, f));
    let w2 = ps.add(init::xavier_uniform(f, f, &mut rng));
    let b2 = ps.add(Matrix::zeros(1, f));
    let w3 = ps.add(init::xavier_uniform(f, c, &mut rng));
    let b3 = ps.add(Matrix::zeros(1, c));
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);

    let mut train_idx: Vec<u32> = data.split.train.clone();
    let loss_curve = ctl.run_epochs(cfg.epochs, |epoch| {
        train_idx.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        // Waves of GRAD_WAVE batches: assembled sequentially (one RNG
        // stream), tapes evaluated in parallel, gradients averaged in batch
        // order into one synchronous step — identical on any pool size.
        for wave_idx in train_idx.chunks(cfg.batch_size * par::GRAD_WAVE) {
            let mut prepared: Vec<PreparedBatch> = wave_idx
                .chunks(cfg.batch_size)
                .map(|chunk| {
                    let (nodes, edges, roots) = assemble_batch(&egos, chunk);
                    let labels: Vec<u32> = chunk.iter().map(|&i| data.labels[i as usize]).collect();
                    let seed = par::batch_seed(cfg.seed, epoch, batches);
                    batches += 1;
                    PreparedBatch { nodes, edges, roots, labels, seed }
                })
                .collect();

            let wave = par::parallel_batch_grads(&mut prepared, |batch| {
                let mut drop_rng = StdRng::seed_from_u64(batch.seed);
                let k = batch.nodes.len();
                let sub_adj = Rc::new(CsrMatrix::gcn_norm(k, &batch.edges));

                let mut tape = Tape::new();
                let a = tape.adjacency(sub_adj);
                let vx = tape.param(&ps, x);
                let vw1 = tape.param(&ps, w1);
                let vb1 = tape.param(&ps, b1);
                let vw2 = tape.param(&ps, w2);
                let vb2 = tape.param(&ps, b2);
                let vw3 = tape.param(&ps, w3);
                let vb3 = tape.param(&ps, b3);

                let xs = tape.gather(vx, Rc::new(std::mem::take(&mut batch.nodes)));
                let xw = tape.matmul(xs, vw1);
                let h = tape.spmm(a, xw);
                let h = tape.add_bias(h, vb1);
                let h = tape.relu(h);
                let h = tape.dropout(h, cfg.dropout, &mut drop_rng);
                let hw = tape.matmul(h, vw2);
                let h2 = tape.spmm(a, hw);
                let h2 = tape.add_bias(h2, vb2);
                let h2 = tape.relu(h2);
                let root_emb = tape.gather(h2, Rc::new(std::mem::take(&mut batch.roots)));
                let z = tape.matmul(root_emb, vw3);
                let z = tape.add_bias(z, vb3);
                let loss = tape.softmax_ce(z, Rc::new(std::mem::take(&mut batch.labels)));
                tape.backward(loss);
                (tape.scalar(loss), tape.param_grads())
            });
            epoch_loss += par::reduce_grads_into(&mut ps, wave);
            opt.step(&mut ps);
        }
        if batches > 0 {
            epoch_loss / batches as f32
        } else {
            f32::NAN
        }
    });
    let train_time_s = t0.elapsed().as_secs_f64();
    let peak = scope.peak_delta();

    // Inference over every target via the same batched scopes.
    let ti = Instant::now();
    let mut target_logits = Matrix::zeros(data.n_targets(), c);
    let mut target_embeddings = Matrix::zeros(data.n_targets(), f);
    let all_idx: Vec<u32> = (0..data.n_targets() as u32).collect();
    for chunk in all_idx.chunks(cfg.batch_size) {
        let (batch_nodes, batch_edges, roots) = assemble_batch(&egos, chunk);
        let k = batch_nodes.len();
        let sub_adj = CsrMatrix::gcn_norm(k, &batch_edges);
        let xs = ps.get(x).gather_rows(&batch_nodes);
        let mut h = sub_adj.spmm(&xs.matmul(ps.get(w1)));
        crate::nc::add_bias_inplace(&mut h, ps.get(b1));
        crate::nc::relu_inplace(&mut h);
        let mut h2 = sub_adj.spmm(&h.matmul(ps.get(w2)));
        crate::nc::add_bias_inplace(&mut h2, ps.get(b2));
        crate::nc::relu_inplace(&mut h2);
        let root_emb = h2.gather_rows(&roots);
        let mut z = root_emb.matmul(ps.get(w3));
        crate::nc::add_bias_inplace(&mut z, ps.get(b3));
        for (j, &i) in chunk.iter().enumerate() {
            target_logits.row_mut(i as usize).copy_from_slice(z.row(j));
            target_embeddings.row_mut(i as usize).copy_from_slice(root_emb.row(j));
        }
    }
    let infer_ms = ti.elapsed().as_secs_f64() * 1e3 / data.n_targets().max(1) as f64;

    finish(
        GmlMethodKind::ShadowSaint,
        data,
        target_logits,
        target_embeddings,
        loss_curve,
        train_time_s,
        peak,
        infer_ms,
    )
}

/// BFS with a neighbour cap; local node 0 is the root.
fn extract_ego(
    root: u32,
    offsets: &[usize],
    neighbors: &[u32],
    cfg: &GnnConfig,
    rng: &mut StdRng,
) -> EgoNet {
    let mut nodes = vec![root];
    let mut local: FxHashMap<u32, u32> = FxHashMap::default();
    local.insert(root, 0);
    let mut edges = Vec::new();
    let mut frontier = vec![root];
    for _depth in 0..cfg.shadow_depth {
        let mut next = Vec::new();
        for &u in &frontier {
            let lu = local[&u];
            let (s, e) = (offsets[u as usize], offsets[u as usize + 1]);
            let mut nb: Vec<u32> = neighbors[s..e].to_vec();
            if nb.len() > cfg.shadow_neighbor_cap {
                nb.shuffle(rng);
                nb.truncate(cfg.shadow_neighbor_cap);
            }
            for v in nb {
                let lv = *local.entry(v).or_insert_with(|| {
                    nodes.push(v);
                    next.push(v);
                    (nodes.len() - 1) as u32
                });
                edges.push((lu, lv));
            }
        }
        frontier = next;
    }
    EgoNet { nodes, edges }
}

/// Concatenate ego subgraphs of the chosen targets into one block-diagonal
/// batch. Returns `(batch nodes, batch edges, root positions)`.
fn assemble_batch(egos: &[EgoNet], chunk: &[u32]) -> (Vec<u32>, Vec<(u32, u32)>, Vec<u32>) {
    let mut nodes = Vec::new();
    let mut edges = Vec::new();
    let mut roots = Vec::with_capacity(chunk.len());
    for &i in chunk {
        let ego = &egos[i as usize];
        let base = nodes.len() as u32;
        roots.push(base);
        nodes.extend_from_slice(&ego.nodes);
        edges.extend(ego.edges.iter().map(|&(a, b)| (base + a, base + b)));
    }
    (nodes, edges, roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nc::testutil::tiny_nc;

    #[test]
    fn shadow_learns_better_than_chance() {
        let data = tiny_nc();
        let cfg = GnnConfig { epochs: 50, dropout: 0.0, batch_size: 32, ..GnnConfig::fast_test() };
        let out = train(&data, &cfg, TrainControl::NONE);
        let chance = 1.0 / data.n_classes() as f64;
        assert!(
            out.report.test_metric > chance * 2.0,
            "test accuracy {} vs chance {chance}",
            out.report.test_metric
        );
    }

    #[test]
    fn ego_extraction_respects_cap_and_depth() {
        let data = tiny_nc();
        let (offsets, neighbors) = data.graph.neighbor_lists();
        let cfg = GnnConfig { shadow_depth: 1, shadow_neighbor_cap: 3, ..GnnConfig::fast_test() };
        let mut rng = StdRng::seed_from_u64(0);
        let ego = extract_ego(data.target_nodes[0], &offsets, &neighbors, &cfg, &mut rng);
        assert!(ego.nodes.len() <= 1 + 3);
        assert!(ego.edges.len() <= 3);
        assert_eq!(ego.nodes[0], data.target_nodes[0]);
    }

    #[test]
    fn batch_assembly_is_block_diagonal() {
        let egos = vec![
            EgoNet { nodes: vec![10, 11], edges: vec![(0, 1)] },
            EgoNet { nodes: vec![20, 21, 22], edges: vec![(0, 1), (0, 2)] },
        ];
        let (nodes, edges, roots) = assemble_batch(&egos, &[0, 1]);
        assert_eq!(nodes, vec![10, 11, 20, 21, 22]);
        assert_eq!(roots, vec![0, 2]);
        assert_eq!(edges, vec![(0, 1), (2, 3), (2, 4)]);
    }
}
