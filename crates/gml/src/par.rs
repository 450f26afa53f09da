//! Deterministic data-parallel gradient fan-out for the mini-batch trainers.
//!
//! The sampling-based methods (GraphSAINT, ShadowSAINT, the KGE family)
//! train in *waves*: up to [`GRAD_WAVE`] mini-batches are prepared
//! sequentially (so every random draw comes from the trainer's single seeded
//! RNG stream), their gradient tapes are evaluated concurrently on the
//! batch pool, and the resulting gradients are averaged in batch
//! order into one synchronous optimizer step.
//!
//! Determinism contract: nothing here depends on the pool size. The wave
//! width is a constant, the reduction is a left fold over batch index, and
//! per-batch randomness (dropout masks) comes from [`batch_seed`] rather
//! than from whichever worker happens to run the batch. A fixed `GnnConfig`
//! seed therefore reproduces bit-identical training under
//! `RAYON_NUM_THREADS=1`, 4, or any other pool.

use kgnet_linalg::{Matrix, ParamId, ParamStore};
use rayon::prelude::*;

/// Mini-batches per synchronous optimizer step. A constant — never derived
/// from the pool size — so the training trajectory is identical on any
/// thread count; the pool only decides how many of these run concurrently.
pub const GRAD_WAVE: usize = 4;

/// Per-batch training output: the scalar loss and the parameter gradients
/// as `Tape::param_grads` returns them, in the order the batch put its
/// parameters on the tape (`None` where the loss did not reach one).
pub type BatchGrads = (f32, Vec<(ParamId, Option<Matrix>)>);

/// An independent, reproducible RNG seed for one mini-batch (dropout masks
/// and any other in-tape randomness), derived only from the configured seed
/// and the batch's logical position — never from the executing worker.
/// SplitMix64 finalisers chained over `(seed, epoch, batch)`.
pub fn batch_seed(seed: u64, epoch: usize, batch: usize) -> u64 {
    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    splitmix(splitmix(seed ^ splitmix(epoch as u64)) ^ batch as u64)
}

/// Evaluate `grad_fn` over every prepared batch — concurrently on the
/// current pool — returning the results in batch order. Batches are handed
/// to the closure mutably so it can `std::mem::take` index buffers straight
/// into the tape instead of cloning them.
pub fn parallel_batch_grads<B, F>(batches: &mut [B], grad_fn: F) -> Vec<BatchGrads>
where
    B: Send,
    F: Fn(&mut B) -> BatchGrads + Sync + Send,
{
    batches.par_chunks_mut(1).map(|chunk| grad_fn(&mut chunk[0])).collect()
}

/// Average a wave's gradients in batch order and install them into the
/// store; returns the sum of the batch losses. The fold order is fixed by
/// batch index, so the reduced gradient is bit-identical regardless of
/// which workers computed the parts, or in what order they finished. The
/// full-batch trainers pass a one-batch wave, whose gradients are installed
/// as they are, unscaled.
pub fn reduce_grads_into(ps: &mut ParamStore, wave: Vec<BatchGrads>) -> f32 {
    let k = wave.len();
    let mut loss_sum = 0.0f32;
    let mut acc: Vec<(ParamId, Option<Matrix>)> = Vec::new();
    for (i, (loss, grads)) in wave.into_iter().enumerate() {
        loss_sum += loss;
        if i == 0 {
            acc = grads;
            continue;
        }
        for ((acc_id, acc_grad), (batch_id, batch_grad)) in acc.iter_mut().zip(grads) {
            debug_assert_eq!(*acc_id, batch_id, "wave batches disagree on parameter order");
            match (acc_grad.as_mut(), batch_grad) {
                (Some(a), Some(b)) => a.add_assign(&b),
                (None, Some(b)) => *acc_grad = Some(b),
                _ => {}
            }
        }
    }
    if k > 1 {
        let inv = 1.0 / k as f32;
        for (_, grad) in &mut acc {
            if let Some(g) = grad {
                g.scale_assign(inv);
            }
        }
    }
    for (pid, grad) in acc {
        if let Some(g) = grad {
            ps.set_grad(pid, g);
        }
    }
    loss_sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_seed_is_stable_and_spread() {
        assert_eq!(batch_seed(1, 0, 0), batch_seed(1, 0, 0));
        let mut seen = std::collections::HashSet::new();
        for epoch in 0..20 {
            for batch in 0..20 {
                seen.insert(batch_seed(7, epoch, batch));
            }
        }
        assert_eq!(seen.len(), 400, "derived seeds collide");
    }

    #[test]
    fn reduce_averages_in_batch_order() {
        let mut ps = ParamStore::new();
        let w = ps.add(Matrix::zeros(1, 2));
        let wave: Vec<BatchGrads> = vec![
            (1.0, vec![(w, Some(Matrix::from_vec(1, 2, vec![2.0, 4.0])))]),
            (3.0, vec![(w, Some(Matrix::from_vec(1, 2, vec![4.0, 0.0])))]),
        ];
        let loss = reduce_grads_into(&mut ps, wave);
        assert_eq!(loss, 4.0);
        assert_eq!(ps.grad(w).map(Matrix::as_slice), Some(&[3.0, 2.0][..]));
    }

    #[test]
    fn reduce_installs_one_batch_unscaled() {
        let mut ps = ParamStore::new();
        let w = ps.add(Matrix::zeros(1, 2));
        let v = ps.add(Matrix::zeros(1, 1));
        let grads = vec![(w, Some(Matrix::from_vec(1, 2, vec![0.1, -0.3]))), (v, None)];
        assert_eq!(reduce_grads_into(&mut ps, vec![(0.5, grads)]), 0.5);
        assert_eq!(ps.grad(w).map(Matrix::as_slice), Some(&[0.1, -0.3][..]));
        assert!(ps.grad(v).is_none());
    }

    #[test]
    fn parallel_grads_preserve_batch_order() {
        let mut ps = ParamStore::new();
        let w = ps.add(Matrix::zeros(1, 1));
        let mut batches: Vec<f32> = (0..13).map(|i| i as f32).collect();
        let out = parallel_batch_grads(&mut batches, |&mut b| {
            (b, vec![(w, Some(Matrix::from_vec(1, 1, vec![b])))])
        });
        let losses: Vec<f32> = out.iter().map(|(l, _)| *l).collect();
        assert_eq!(losses, batches);
    }
}
