//! Minimal reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! The GNN methods of the paper (GCN, RGCN, GraphSAINT, ShadowSAINT) are all
//! expressed as compositions of a small closed set of operations: dense
//! matmul, sparse-dense matmul, bias/elementwise ops, ReLU, dropout, row
//! gather, scatter-sum and softmax cross-entropy. A tape of those
//! operations with exact gradients reproduces the training dynamics of the
//! PyG/DGL pipelines the paper uses, at laptop scale.
//!
//! Usage: build a fresh [`Tape`] per step and put parameters on it with
//! [`Tape::param`], which borrows each value from the [`ParamStore`]
//! rather than copying it (so a feature table costs no tracked memory).
//! Compose ops, call [`Tape::backward`] on the loss var, then take the
//! parameter gradients with [`Tape::param_grads`], in registration order,
//! ready for `ParamStore::set_grad` and an optimizer step.

use std::borrow::Cow;
use std::rc::Rc;

use rand::Rng;

use crate::csr::CsrMatrix;
use crate::matrix::Matrix;
use crate::optim::{ParamId, ParamStore};

/// Handle to a value on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    /// A parameter, borrowed from its store.
    Leaf,
    MatMul(Var, Var),
    SpMM {
        adj: usize,
        x: Var,
    },
    Add(Var, Var),
    /// `a + bias` where bias is `1 x cols` broadcast over rows.
    AddBias(Var, Var),
    Relu(Var),
    /// Inverted dropout; `mask` holds `0` or `1/(1-p)` per element.
    Dropout(Var, Matrix),
    Scale(Var, f32),
    Mul(Var, Var),
    Gather(Var, Rc<Vec<u32>>),
    /// Sum several `k_i x d` parts into an `n x d` output, part `i`'s row
    /// `j` landing on output row `rows_i[j]` (duplicates accumulate).
    ScatterSum {
        /// `(part, target rows)` pairs.
        parts: Vec<(Var, Rc<Vec<u32>>)>,
    },
    /// Scalar softmax cross-entropy against integer labels.
    SoftmaxCe {
        logits: Var,
        probs: Matrix,
    },
    /// Add a scalar constant elementwise (constant kept for Debug).
    AddScalar(Var),
    /// Row-wise sum producing a `k x 1` column.
    RowSum(Var),
    /// Sum of all elements producing a `1 x 1` scalar.
    SumAll(Var),
    /// Elementwise square root (clamped at a small epsilon).
    Sqrt(Var),
    /// Contiguous column slice `[start, end)`.
    SliceCols(Var, usize, usize),
    /// Elementwise softplus `ln(1 + e^x)`.
    Softplus(Var),
    /// Elementwise sine.
    Sin(Var),
    /// Elementwise cosine.
    Cos(Var),
}

/// Every node depends on some parameter, so every node can receive a
/// gradient; a node the loss does not reach simply never gets one, and
/// after [`Tape::backward`] only parameters hold theirs.
struct Node<'p> {
    op: Op,
    value: Cow<'p, Matrix>,
    grad: Option<Matrix>,
}

/// A single-use reverse-mode differentiation tape over parameters borrowed
/// from one [`ParamStore`] for the tape's lifetime `'p`.
#[derive(Default)]
pub struct Tape<'p> {
    nodes: Vec<Node<'p>>,
    adjs: Vec<Adjacency>,
    /// Parameters in registration order.
    params: Vec<(ParamId, Var)>,
}

/// A registered adjacency. Its transpose is built by the first backward use
/// and dropped after the last, so a two-layer model transposes each
/// adjacency once per step and holds the copy no longer than it needs it.
struct Adjacency {
    matrix: Rc<CsrMatrix>,
    transpose: Option<CsrMatrix>,
    /// Backward uses still to come: one per `spmm` over it.
    uses_left: usize,
}

impl<'p> Tape<'p> {
    /// Fresh empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    fn push_node(&mut self, op: Op, value: Cow<'p, Matrix>) -> Var {
        self.nodes.push(Node { op, value, grad: None });
        Var(self.nodes.len() - 1)
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        self.push_node(op, Cow::Owned(value))
    }

    /// Put parameter `id` on the tape. The value is borrowed from `store`,
    /// not copied; its gradient comes back through [`Tape::param_grads`].
    pub fn param(&mut self, store: &'p ParamStore, id: ParamId) -> Var {
        debug_assert!(self.params.iter().all(|&(p, _)| p != id), "parameter registered twice");
        let v = self.push_node(Op::Leaf, Cow::Borrowed(store.get(id)));
        self.params.push((id, v));
        v
    }

    /// Take every parameter's gradient after [`Tape::backward`], in
    /// registration order; `None` for a parameter the loss does not reach.
    pub fn param_grads(&mut self) -> Vec<(ParamId, Option<Matrix>)> {
        let nodes = &mut self.nodes;
        self.params.iter().map(|&(id, v)| (id, nodes[v.0].grad.take())).collect()
    }

    /// Register a sparse adjacency used by [`Tape::spmm`]. The matrix is
    /// treated as a constant (no gradient w.r.t. edge weights).
    pub fn adjacency(&mut self, adj: Rc<CsrMatrix>) -> usize {
        self.adjs.push(Adjacency { matrix: adj, transpose: None, uses_left: 0 });
        self.adjs.len() - 1
    }

    /// Current value of a var.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of a parameter var after [`Tape::backward`], if the loss
    /// reached it. `None` for any other var: backward drops an
    /// activation's gradient once it has propagated it.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Dense product `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(Op::MatMul(a, b), value)
    }

    /// Sparse-dense product `adj @ x` for a registered adjacency.
    pub fn spmm(&mut self, adj: usize, x: Var) -> Var {
        let value = self.adjs[adj].matrix.spmm(&self.nodes[x.0].value);
        self.adjs[adj].uses_left += 1;
        self.push(Op::SpMM { adj, x }, value)
    }

    /// Elementwise sum of two same-shaped vars.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.value(a).clone();
        value.add_assign(&self.nodes[b.0].value);
        self.push(Op::Add(a, b), value)
    }

    /// Broadcast-add a `1 x d` bias row to every row of `a`.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let b = &self.nodes[bias.0].value;
        assert_eq!(b.rows(), 1, "bias must be a single row");
        assert_eq!(b.cols(), self.nodes[a.0].value.cols(), "bias width mismatch");
        let mut value = self.value(a).clone();
        for r in 0..value.rows() {
            let row = value.row_mut(r);
            for (o, &bv) in row.iter_mut().zip(b.row(0)) {
                *o += bv;
            }
        }
        self.push(Op::AddBias(a, bias), value)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|v| v.max(0.0));
        self.push(Op::Relu(a), value)
    }

    /// Inverted dropout with keep-prob `1 - p`; identity when `p == 0`.
    pub fn dropout(&mut self, a: Var, p: f32, rng: &mut impl Rng) -> Var {
        if p <= 0.0 {
            return a;
        }
        let (rows, cols) = self.nodes[a.0].value.shape();
        let scale = 1.0 / (1.0 - p);
        let mask =
            Matrix::from_fn(rows, cols, |_, _| if rng.gen::<f32>() < p { 0.0 } else { scale });
        let src = &self.nodes[a.0].value;
        let mut value = Matrix::zeros(rows, cols);
        for (o, (&x, &m)) in
            value.as_mut_slice().iter_mut().zip(src.as_slice().iter().zip(mask.as_slice()))
        {
            *o = x * m;
        }
        self.push(Op::Dropout(a, mask), value)
    }

    /// Multiply by a scalar.
    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        let value = self.nodes[a.0].value.map(|v| v * alpha);
        self.push(Op::Scale(a, alpha), value)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[b.0].value;
        assert_eq!(av.shape(), bv.shape(), "mul shape mismatch");
        let mut value = Matrix::zeros(av.rows(), av.cols());
        for (o, (&x, &y)) in
            value.as_mut_slice().iter_mut().zip(av.as_slice().iter().zip(bv.as_slice()))
        {
            *o = x * y;
        }
        self.push(Op::Mul(a, b), value)
    }

    /// Select rows of `a` by index (with repetition allowed).
    pub fn gather(&mut self, a: Var, rows: Rc<Vec<u32>>) -> Var {
        let value = self.nodes[a.0].value.gather_rows(&rows);
        self.push(Op::Gather(a, rows), value)
    }

    /// Sum `k_i x d` parts into one `n_rows x d` matrix, scattering part
    /// rows to the given output rows (RGCN's per-relation aggregation).
    pub fn scatter_sum(&mut self, parts: Vec<(Var, Rc<Vec<u32>>)>, n_rows: usize) -> Var {
        assert!(!parts.is_empty(), "scatter_sum needs at least one part");
        let cols = self.nodes[parts[0].0 .0].value.cols();
        let mut value = Matrix::zeros(n_rows, cols);
        for (v, rows) in &parts {
            let src = &self.nodes[v.0].value;
            assert_eq!(src.cols(), cols, "scatter_sum column mismatch");
            assert_eq!(src.rows(), rows.len(), "scatter_sum row-map mismatch");
            for (j, &r) in rows.iter().enumerate() {
                let out = value.row_mut(r as usize);
                for (o, &x) in out.iter_mut().zip(src.row(j)) {
                    *o += x;
                }
            }
        }
        self.push(Op::ScatterSum { parts }, value)
    }

    /// Mean softmax cross-entropy of `logits` rows against integer labels.
    pub fn softmax_ce(&mut self, logits: Var, labels: Rc<Vec<u32>>) -> Var {
        let lv = &self.nodes[logits.0].value;
        assert_eq!(lv.rows(), labels.len(), "labels length mismatch");
        let n = lv.rows();
        let c = lv.cols();
        let mut probs = Matrix::zeros(n, c);
        let mut loss = 0.0f64;
        for r in 0..n {
            let row = lv.row(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for (i, &x) in row.iter().enumerate() {
                let e = (x - max).exp();
                probs.set(r, i, e);
                denom += e;
            }
            let label = labels[r] as usize;
            assert!(label < c, "label {label} out of range for {c} classes");
            let p = probs.get(r, label) / denom;
            loss -= (p.max(1e-12) as f64).ln();
            // Store dL/dlogits per row before the mean: softmax - onehot.
            for i in 0..c {
                let sm = probs.get(r, i) / denom;
                probs.set(r, i, sm - if i == label { 1.0 } else { 0.0 });
            }
        }
        let mean = if n > 0 { (loss / n as f64) as f32 } else { 0.0 };
        if n > 0 {
            probs.scale_assign(1.0 / n as f32);
        }
        let value = Matrix::from_vec(1, 1, vec![mean]);
        self.push(Op::SoftmaxCe { logits, probs }, value)
    }

    /// Add a scalar constant elementwise.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let value = self.nodes[a.0].value.map(|v| v + c);
        self.push(Op::AddScalar(a), value)
    }

    /// Row-wise sum: `k x d -> k x 1`.
    pub fn row_sum(&mut self, a: Var) -> Var {
        let src = &self.nodes[a.0].value;
        let mut value = Matrix::zeros(src.rows(), 1);
        for r in 0..src.rows() {
            value.set(r, 0, src.row(r).iter().sum());
        }
        self.push(Op::RowSum(a), value)
    }

    /// Sum of every element: `k x d -> 1 x 1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = self.nodes[a.0].value.sum();
        let value = Matrix::from_vec(1, 1, vec![s]);
        self.push(Op::SumAll(a), value)
    }

    /// Mean of every element as a scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let n = self.nodes[a.0].value.len().max(1);
        let s = self.sum_all(a);
        self.scale(s, 1.0 / n as f32)
    }

    /// Elementwise `sqrt(max(x, eps))` — used for L2 distances.
    pub fn sqrt(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|v| v.max(1e-12).sqrt());
        self.push(Op::Sqrt(a), value)
    }

    /// Contiguous column slice `[start, end)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let src = &self.nodes[a.0].value;
        assert!(start < end && end <= src.cols(), "bad column slice");
        let mut value = Matrix::zeros(src.rows(), end - start);
        for r in 0..src.rows() {
            value.row_mut(r).copy_from_slice(&src.row(r)[start..end]);
        }
        self.push(Op::SliceCols(a, start, end), value)
    }

    /// Elementwise softplus `ln(1 + e^x)` (numerically stabilised).
    pub fn softplus(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|v| {
            if v > 20.0 {
                v
            } else if v < -20.0 {
                0.0
            } else {
                (1.0 + v.exp()).ln()
            }
        });
        self.push(Op::Softplus(a), value)
    }

    /// Elementwise sine.
    pub fn sin(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(f32::sin);
        self.push(Op::Sin(a), value)
    }

    /// Elementwise cosine.
    pub fn cos(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(f32::cos);
        self.push(Op::Cos(a), value)
    }

    /// `a - b` elementwise (sugar over add/scale).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let nb = self.scale(b, -1.0);
        self.add(a, nb)
    }

    /// Scalar value of a `1x1` var (e.g. a loss).
    pub fn scalar(&self, v: Var) -> f32 {
        let m = &self.nodes[v.0].value;
        assert_eq!(m.shape(), (1, 1), "scalar() on non-scalar var");
        m.get(0, 0)
    }

    fn accumulate(&mut self, v: Var, grad: Matrix) {
        match &mut self.nodes[v.0].grad {
            Some(g) => g.add_assign(&grad),
            slot @ None => *slot = Some(grad),
        }
    }

    /// Run reverse-mode accumulation seeding `d(root)/d(root) = 1`.
    /// `root` must be a scalar (`1x1`) var. Each activation's gradient is
    /// freed once propagated, so a step's peak holds parameter gradients
    /// and the gradients still in flight, not one per activation.
    pub fn backward(&mut self, root: Var) {
        assert_eq!(self.nodes[root.0].value.shape(), (1, 1), "backward root must be scalar");
        self.nodes[root.0].grad = Some(Matrix::from_vec(1, 1, vec![1.0]));
        for i in (0..=root.0).rev() {
            let Some(grad) = self.nodes[i].grad.take() else { continue };
            // Only a parameter keeps its gradient, for `param_grads`; an
            // activation's is dropped as soon as it has been propagated.
            if matches!(self.nodes[i].op, Op::Leaf) {
                self.nodes[i].grad = Some(grad);
                continue;
            }
            // Borrow dance: move op out, propagate, put back.
            let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
            self.propagate(&op, grad);
            self.nodes[i].op = op;
        }
    }

    fn propagate(&mut self, op: &Op, grad: Matrix) {
        match op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                let ga = grad.matmul_nt(&self.nodes[b.0].value);
                self.accumulate(*a, ga);
                let gb = self.nodes[a.0].value.matmul_tn(&grad);
                self.accumulate(*b, gb);
            }
            Op::SpMM { adj, x } => {
                // d/dx (A x) = Aᵀ grad
                let a = &mut self.adjs[*adj];
                let gt = a.transpose.get_or_insert_with(|| a.matrix.transpose()).spmm(&grad);
                a.uses_left = a.uses_left.saturating_sub(1);
                if a.uses_left == 0 {
                    a.transpose = None;
                }
                self.accumulate(*x, gt);
            }
            Op::Add(a, b) => {
                self.accumulate(*a, grad.clone());
                self.accumulate(*b, grad);
            }
            Op::AddBias(a, bias) => {
                let mut gb = Matrix::zeros(1, grad.cols());
                for r in 0..grad.rows() {
                    let row = grad.row(r);
                    let out = gb.row_mut(0);
                    for (o, &g) in out.iter_mut().zip(row) {
                        *o += g;
                    }
                }
                self.accumulate(*a, grad);
                self.accumulate(*bias, gb);
            }
            Op::Relu(a) => {
                let forward = &self.nodes[a.0].value;
                let mut ga = grad;
                for (g, &x) in ga.as_mut_slice().iter_mut().zip(forward.as_slice()) {
                    if x <= 0.0 {
                        *g = 0.0;
                    }
                }
                self.accumulate(*a, ga);
            }
            Op::Dropout(a, mask) => {
                let mut ga = grad;
                for (g, &m) in ga.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                    *g *= m;
                }
                self.accumulate(*a, ga);
            }
            Op::Scale(a, alpha) => {
                let mut ga = grad;
                ga.scale_assign(*alpha);
                self.accumulate(*a, ga);
            }
            Op::Mul(a, b) => {
                let mut ga = grad.clone();
                for (g, &y) in ga.as_mut_slice().iter_mut().zip(self.nodes[b.0].value.as_slice()) {
                    *g *= y;
                }
                self.accumulate(*a, ga);
                let mut gb = grad;
                for (g, &x) in gb.as_mut_slice().iter_mut().zip(self.nodes[a.0].value.as_slice()) {
                    *g *= x;
                }
                self.accumulate(*b, gb);
            }
            Op::Gather(a, rows) => {
                let src = &self.nodes[a.0].value;
                let mut ga = Matrix::zeros(src.rows(), src.cols());
                for (i, &r) in rows.iter().enumerate() {
                    let out = ga.row_mut(r as usize);
                    for (o, &g) in out.iter_mut().zip(grad.row(i)) {
                        *o += g;
                    }
                }
                self.accumulate(*a, ga);
            }
            Op::ScatterSum { parts } => {
                for (v, rows) in parts {
                    let gv = grad.gather_rows(rows);
                    self.accumulate(*v, gv);
                }
            }
            Op::SoftmaxCe { logits, probs } => {
                let scale = grad.get(0, 0);
                let mut gl = probs.clone();
                gl.scale_assign(scale);
                self.accumulate(*logits, gl);
            }
            Op::AddScalar(a) => {
                self.accumulate(*a, grad);
            }
            Op::RowSum(a) => {
                let src = &self.nodes[a.0].value;
                let mut ga = Matrix::zeros(src.rows(), src.cols());
                for r in 0..src.rows() {
                    let g = grad.get(r, 0);
                    for o in ga.row_mut(r) {
                        *o = g;
                    }
                }
                self.accumulate(*a, ga);
            }
            Op::SumAll(a) => {
                let src = &self.nodes[a.0].value;
                let ga = Matrix::filled(src.rows(), src.cols(), grad.get(0, 0));
                self.accumulate(*a, ga);
            }
            Op::Sqrt(a) => {
                // d sqrt(x) = 1 / (2 sqrt(x)); forward clamped at eps.
                let fwd = &self.nodes[a.0].value;
                let mut ga = grad;
                for (g, &x) in ga.as_mut_slice().iter_mut().zip(fwd.as_slice()) {
                    *g *= 0.5 / x.max(1e-12).sqrt();
                }
                self.accumulate(*a, ga);
            }
            Op::SliceCols(a, start, _end) => {
                let src = &self.nodes[a.0].value;
                let mut ga = Matrix::zeros(src.rows(), src.cols());
                for r in 0..grad.rows() {
                    let dst = &mut ga.row_mut(r)[*start..*start + grad.cols()];
                    dst.copy_from_slice(grad.row(r));
                }
                self.accumulate(*a, ga);
            }
            Op::Softplus(a) => {
                // d softplus = sigmoid(x).
                let fwd = &self.nodes[a.0].value;
                let mut ga = grad;
                for (g, &x) in ga.as_mut_slice().iter_mut().zip(fwd.as_slice()) {
                    let sig = if x > 20.0 {
                        1.0
                    } else if x < -20.0 {
                        0.0
                    } else {
                        1.0 / (1.0 + (-x).exp())
                    };
                    *g *= sig;
                }
                self.accumulate(*a, ga);
            }
            Op::Sin(a) => {
                let fwd = &self.nodes[a.0].value;
                let mut ga = grad;
                for (g, &x) in ga.as_mut_slice().iter_mut().zip(fwd.as_slice()) {
                    *g *= x.cos();
                }
                self.accumulate(*a, ga);
            }
            Op::Cos(a) => {
                let fwd = &self.nodes[a.0].value;
                let mut ga = grad;
                for (g, &x) in ga.as_mut_slice().iter_mut().zip(fwd.as_slice()) {
                    *g *= -x.sin();
                }
                self.accumulate(*a, ga);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtrack;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Numeric gradient of `f` w.r.t. entry (r,c) of `m` by central
    /// differences.
    fn numeric_grad(
        m: &Matrix,
        r: usize,
        c: usize,
        mut f: impl FnMut(&Matrix) -> f32,
        eps: f32,
    ) -> f32 {
        let mut plus = m.clone();
        plus.set(r, c, plus.get(r, c) + eps);
        let mut minus = m.clone();
        minus.set(r, c, minus.get(r, c) - eps);
        (f(&plus) - f(&minus)) / (2.0 * eps)
    }

    fn seeded(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0f32))
    }

    /// A store holding `values` as parameters, in order.
    fn store_of(values: &[&Matrix]) -> (ParamStore, Vec<ParamId>) {
        let mut ps = ParamStore::new();
        let ids = values.iter().map(|&m| ps.add(m.clone())).collect();
        (ps, ids)
    }

    #[test]
    fn matmul_gradients_match_numeric() {
        let mut rng = seeded(1);
        let a = random_matrix(3, 4, &mut rng);
        let b = random_matrix(4, 2, &mut rng);
        let labels = Rc::new(vec![0u32, 1, 0]);

        let run = |am: &Matrix, bm: &Matrix| -> (f32, Vec<(ParamId, Option<Matrix>)>) {
            let (ps, ids) = store_of(&[am, bm]);
            let mut t = Tape::new();
            let va = t.param(&ps, ids[0]);
            let vb = t.param(&ps, ids[1]);
            let o = t.matmul(va, vb);
            let l = t.softmax_ce(o, labels.clone());
            t.backward(l);
            (t.scalar(l), t.param_grads())
        };
        let grads = run(&a, &b).1;
        let ga = grads[0].1.as_ref().unwrap();
        let gb = grads[1].1.as_ref().unwrap();
        for (r, c) in [(0, 0), (1, 2), (2, 3)] {
            let n = numeric_grad(&a, r, c, |m| run(m, &b).0, 1e-3);
            assert!((ga.get(r, c) - n).abs() < 1e-2, "a[{r},{c}]: {} vs {n}", ga.get(r, c));
        }
        for (r, c) in [(0, 0), (3, 1)] {
            let n = numeric_grad(&b, r, c, |m| run(&a, m).0, 1e-3);
            assert!((gb.get(r, c) - n).abs() < 1e-2, "b[{r},{c}]: {} vs {n}", gb.get(r, c));
        }
    }

    #[test]
    fn spmm_relu_gradients_match_numeric() {
        let mut rng = seeded(2);
        let adj = Rc::new(CsrMatrix::from_coo(
            3,
            3,
            vec![(0, 1, 0.5), (1, 0, 0.5), (1, 2, 0.5), (2, 2, 1.0)],
        ));
        let x = random_matrix(3, 3, &mut rng);
        let labels = Rc::new(vec![2u32, 0, 1]);

        let run = |xm: &Matrix| -> (f32, Matrix) {
            let (ps, ids) = store_of(&[xm]);
            let mut t = Tape::new();
            let a = t.adjacency(adj.clone());
            let vx = t.param(&ps, ids[0]);
            let h = t.spmm(a, vx);
            let h = t.relu(h);
            let l = t.softmax_ce(h, labels.clone());
            t.backward(l);
            (t.scalar(l), t.grad(vx).unwrap().clone())
        };
        let g = run(&x).1;
        for (r, c) in [(0, 0), (1, 1), (2, 2), (0, 2)] {
            let n = numeric_grad(&x, r, c, |m| run(m).0, 1e-3);
            assert!((g.get(r, c) - n).abs() < 1e-2, "x[{r},{c}]: {} vs {n}", g.get(r, c));
        }
    }

    #[test]
    fn gather_gradients_match_numeric() {
        let mut rng = seeded(3);
        let x = random_matrix(4, 3, &mut rng);
        // Repeated and missing rows: row 2 and row 0 accumulate twice.
        let rows = Rc::new(vec![0u32, 2, 2, 3, 1, 0]);
        let labels = Rc::new(vec![0u32, 1, 2, 1, 0, 2]);

        let run = |xm: &Matrix| -> (f32, Matrix) {
            let (ps, ids) = store_of(&[xm]);
            let mut t = Tape::new();
            let vx = t.param(&ps, ids[0]);
            let g = t.gather(vx, rows.clone());
            let l = t.softmax_ce(g, labels.clone());
            t.backward(l);
            (t.scalar(l), t.grad(vx).unwrap().clone())
        };
        let g = run(&x).1;
        for (r, c) in [(0, 0), (2, 1), (3, 2)] {
            let n = numeric_grad(&x, r, c, |m| run(m).0, 1e-3);
            assert!((g.get(r, c) - n).abs() < 1e-2, "x[{r},{c}]: {} vs {n}", g.get(r, c));
        }
    }

    #[test]
    fn bias_gradients_match_numeric() {
        let mut rng = seeded(4);
        let x = random_matrix(3, 2, &mut rng);
        let bias = random_matrix(1, 2, &mut rng);
        let labels = Rc::new(vec![0u32, 1, 1]);

        let run = |bm: &Matrix| -> (f32, Matrix) {
            let (ps, ids) = store_of(&[&x, bm]);
            let mut t = Tape::new();
            let vx = t.param(&ps, ids[0]);
            let vb = t.param(&ps, ids[1]);
            let h = t.add_bias(vx, vb);
            let l = t.softmax_ce(h, labels.clone());
            t.backward(l);
            (t.scalar(l), t.grad(vb).unwrap().clone())
        };
        let g = run(&bias).1;
        for c in 0..2 {
            let n = numeric_grad(&bias, 0, c, |m| run(m).0, 1e-3);
            assert!((g.get(0, c) - n).abs() < 1e-2, "bias[{c}]: {} vs {n}", g.get(0, c));
        }
    }

    #[test]
    fn scatter_sum_gradients_match_numeric() {
        let mut rng = seeded(9);
        let a = random_matrix(2, 3, &mut rng);
        let b = random_matrix(3, 3, &mut rng);
        let rows_a = Rc::new(vec![0u32, 2]);
        let rows_b = Rc::new(vec![1u32, 2, 0]);
        let labels = Rc::new(vec![0u32, 1, 2, 0]);

        let run = |am: &Matrix| -> (f32, Matrix) {
            let (ps, ids) = store_of(&[am, &b]);
            let mut t = Tape::new();
            let va = t.param(&ps, ids[0]);
            let vb = t.param(&ps, ids[1]);
            let s = t.scatter_sum(vec![(va, rows_a.clone()), (vb, rows_b.clone())], 4);
            let l = t.softmax_ce(s, labels.clone());
            t.backward(l);
            (t.scalar(l), t.grad(va).unwrap().clone())
        };
        let g = run(&a).1;
        for (r, c) in [(0, 0), (1, 2)] {
            let n = numeric_grad(&a, r, c, |m| run(m).0, 1e-3);
            assert!((g.get(r, c) - n).abs() < 1e-2, "a[{r},{c}]: {} vs {n}", g.get(r, c));
        }
    }

    #[test]
    fn elementwise_and_reduction_gradients_match_numeric() {
        // Compose the LP-style ops: slice, sin/cos, mul, row_sum, sqrt,
        // softplus, add_scalar, sum_all.
        let mut rng = seeded(10);
        let x = random_matrix(3, 4, &mut rng);
        let run = |xm: &Matrix| -> (f32, Matrix) {
            let (ps, ids) = store_of(&[xm]);
            let mut t = Tape::new();
            let v = t.param(&ps, ids[0]);
            let left = t.slice_cols(v, 0, 2);
            let right = t.slice_cols(v, 2, 4);
            let s = t.sin(left);
            let c = t.cos(right);
            let m = t.mul(s, c);
            let rs = t.row_sum(m);
            let rs = t.add_scalar(rs, 2.0); // keep sqrt away from 0
            let sq = t.sqrt(rs);
            let sp = t.softplus(sq);
            let l = t.sum_all(sp);
            t.backward(l);
            (t.scalar(l), t.grad(v).unwrap().clone())
        };
        let g = run(&x).1;
        for (r, c) in [(0, 0), (1, 2), (2, 3), (0, 1)] {
            let n = numeric_grad(&x, r, c, |m| run(m).0, 1e-3);
            assert!((g.get(r, c) - n).abs() < 5e-2, "x[{r},{c}]: {} vs {n}", g.get(r, c));
        }
    }

    #[test]
    fn sub_and_mean_all() {
        let (ps, ids) = store_of(&[&Matrix::filled(2, 2, 5.0), &Matrix::filled(2, 2, 3.0)]);
        let mut t = Tape::new();
        let va = t.param(&ps, ids[0]);
        let vb = t.param(&ps, ids[1]);
        let d = t.sub(va, vb);
        let m = t.mean_all(d);
        assert!((t.scalar(m) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn param_charges_no_tracked_bytes() {
        let (ps, ids) = store_of(&[&Matrix::zeros(100, 100)]);
        // Other tests allocate concurrently, so retry until a quiet window.
        let ok = (0..50).any(|_| {
            let before = memtrack::live_bytes();
            let mut t = Tape::new();
            let v = t.param(&ps, ids[0]);
            memtrack::live_bytes() == before && std::ptr::eq(t.value(v), ps.get(ids[0]))
        });
        assert!(ok, "putting a parameter on the tape charged tracked memory");
    }

    #[test]
    fn param_grads_follow_registration_order() {
        let (ps, ids) = store_of(&[
            &Matrix::filled(2, 3, 0.5),
            &Matrix::filled(3, 2, -0.5),
            &Matrix::filled(1, 2, 1.0),
        ]);
        let mut t = Tape::new();
        // Registered out of store order; the bias never reaches the loss.
        let vb = t.param(&ps, ids[1]);
        let vunused = t.param(&ps, ids[2]);
        let va = t.param(&ps, ids[0]);
        let o = t.matmul(va, vb);
        let l = t.sum_all(o);
        t.backward(l);
        assert!(t.grad(vunused).is_none());
        let grads = t.param_grads();
        let order: Vec<ParamId> = grads.iter().map(|&(id, _)| id).collect();
        assert_eq!(order, vec![ids[1], ids[2], ids[0]]);
        assert_eq!(grads[0].1.as_ref().map(Matrix::shape), Some((3, 2)));
        assert!(grads[1].1.is_none(), "unreached parameter got a gradient");
        assert_eq!(grads[2].1.as_ref().map(Matrix::shape), Some((2, 3)));
    }

    #[test]
    fn backward_keeps_gradients_only_on_parameters() {
        let (ps, ids) = store_of(&[&Matrix::filled(2, 3, 0.5), &Matrix::filled(3, 2, -0.5)]);
        let mut t = Tape::new();
        let va = t.param(&ps, ids[0]);
        let vb = t.param(&ps, ids[1]);
        let h = t.matmul(va, vb);
        let r = t.relu(h);
        let l = t.sum_all(r);
        t.backward(l);
        assert!(t.grad(va).is_some() && t.grad(vb).is_some());
        for v in [h, r, l] {
            assert!(t.grad(v).is_none(), "activation {v:?} kept its gradient");
        }
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let mut rng = seeded(6);
        let (ps, ids) = store_of(&[&random_matrix(2, 2, &mut rng)]);
        let mut t = Tape::new();
        let v = t.param(&ps, ids[0]);
        let d = t.dropout(v, 0.0, &mut rng);
        assert_eq!(v, d);
    }

    #[test]
    fn dropout_mask_scales_gradient() {
        let mut rng = seeded(7);
        let (ps, ids) = store_of(&[&Matrix::filled(10, 10, 1.0)]);
        let mut t = Tape::new();
        let v = t.param(&ps, ids[0]);
        let d = t.dropout(v, 0.5, &mut rng);
        let l = t.sum_all(d);
        t.backward(l);
        let g = t.grad(v).unwrap();
        // Gradient entries are the mask: 0 (dropped) or the scale 2.
        for &gv in g.as_slice() {
            assert!(gv == 0.0 || (gv - 2.0).abs() < 1e-6, "unexpected grad {gv}");
        }
        assert!(g.as_slice().contains(&0.0) && g.as_slice().contains(&2.0));
    }

    #[test]
    fn training_loop_decreases_loss() {
        // Tiny logistic regression sanity check: loss must fall.
        let mut rng = seeded(8);
        let labels: Vec<u32> = (0..20).map(|i| (i % 3) as u32).collect();
        let labels = Rc::new(labels);
        let (mut ps, ids) =
            store_of(&[&random_matrix(20, 4, &mut rng), &random_matrix(4, 3, &mut rng)]);
        let mut opt = crate::optim::Adam::new(0.1);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..50 {
            let mut t = Tape::new();
            let vx = t.param(&ps, ids[0]);
            let vw = t.param(&ps, ids[1]);
            let out = t.matmul(vx, vw);
            let l = t.softmax_ce(out, labels.clone());
            t.backward(l);
            last = t.scalar(l);
            first.get_or_insert(last);
            // Train only the weights; the inputs stay fixed.
            let (_, gw) = t.param_grads().swap_remove(1);
            ps.set_grad(ids[1], gw.unwrap());
            opt.step(&mut ps);
        }
        assert!(last < first.unwrap() * 0.9, "loss did not decrease: {first:?} -> {last}");
    }
}
