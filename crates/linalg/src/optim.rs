//! Parameter storage and the Adam optimizer.
//!
//! Trainers keep their weights in a [`ParamStore`], put them on a fresh
//! tape each step by reference, install the tape's gradients with
//! [`ParamStore::set_grad`], and apply an [`Adam::step`].

use crate::matrix::Matrix;

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(usize);

/// Owned parameter matrices plus their current gradients.
#[derive(Default)]
pub struct ParamStore {
    params: Vec<Matrix>,
    grads: Vec<Option<Matrix>>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter, returning its handle.
    pub fn add(&mut self, value: Matrix) -> ParamId {
        self.params.push(value);
        self.grads.push(None);
        ParamId(self.params.len() - 1)
    }

    /// Current value.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.params[id.0]
    }

    /// Install the gradient for one parameter.
    pub fn set_grad(&mut self, id: ParamId, grad: Matrix) {
        debug_assert_eq!(self.params[id.0].shape(), grad.shape(), "grad shape mismatch");
        self.grads[id.0] = Some(grad);
    }

    /// The gradient installed for one parameter, if any.
    pub fn grad(&self, id: ParamId) -> Option<&Matrix> {
        self.grads[id.0].as_ref()
    }
}

/// Adam (Kingma & Ba) with decoupled weight decay (AdamW-style).
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub eps: f32,
    /// Decoupled weight decay coefficient.
    pub weight_decay: f32,
    t: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl Adam {
    /// Adam with standard betas (0.9 / 0.999) and no weight decay.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: vec![],
            v: vec![],
        }
    }

    /// Builder-style weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Apply one update using the gradients currently installed in
    /// `store`, taking them out of it: a parameter with no gradient is left
    /// as it is.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let n = store.params.len();
        self.m.resize_with(n, || None);
        self.v.resize_with(n, || None);
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..n {
            let Some(grad) = store.grads[i].take() else { continue };
            let p = &mut store.params[i];
            let m = self.m[i].get_or_insert_with(|| Matrix::zeros(p.rows(), p.cols()));
            let v = self.v[i].get_or_insert_with(|| Matrix::zeros(p.rows(), p.cols()));
            if self.weight_decay > 0.0 {
                p.scale_assign(1.0 - self.lr * self.weight_decay);
            }
            for ((pv, gv), (mv, vv)) in p
                .as_mut_slice()
                .iter_mut()
                .zip(grad.as_slice())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice()))
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                *pv -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let id = store.add(Matrix::filled(2, 2, 10.0));
        let mut opt = Adam::new(0.3);
        for _ in 0..300 {
            // f(p) = 0.5 * ||p - 3||^2, grad = p - 3.
            let g = store.get(id).map(|v| v - 3.0);
            store.set_grad(id, g);
            opt.step(&mut store);
            assert!(store.grad(id).is_none(), "step must consume the gradient");
        }
        for &v in store.get(id).as_slice() {
            assert!((v - 3.0).abs() < 1e-2, "v = {v}");
        }
    }

    #[test]
    fn step_without_grads_is_noop() {
        let mut store = ParamStore::new();
        let id = store.add(Matrix::filled(1, 3, 5.0));
        let before = store.get(id).clone();
        let mut opt = Adam::new(0.1).with_weight_decay(0.5);
        opt.step(&mut store);
        assert_eq!(&before, store.get(id));
    }

    #[test]
    fn weight_decay_shrinks_params() {
        // A zero gradient leaves both moments at zero, so the whole update
        // is the decoupled decay: p *= 1 - lr * wd.
        let mut store = ParamStore::new();
        let id = store.add(Matrix::filled(1, 1, 1.0));
        let mut opt = Adam::new(0.1).with_weight_decay(0.5);
        store.set_grad(id, Matrix::zeros(1, 1));
        opt.step(&mut store);
        let v = store.get(id).get(0, 0);
        assert!((v - 0.95).abs() < 1e-6, "v = {v}");
    }
}
