//! Minimal reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! The GNN methods of the paper (GCN, RGCN, GraphSAINT, ShadowSAINT) are all
//! expressed as compositions of a small closed set of operations: dense
//! matmul, sparse-dense matmul, bias/elementwise ops, ReLU, dropout, row
//! gather, grouped mean-pooling and softmax cross-entropy. A tape of those
//! operations with exact gradients reproduces the training dynamics of the
//! PyG/DGL pipelines the paper uses, at laptop scale.
//!
//! Usage: build a fresh [`Tape`] per step, feed parameters in as leaves,
//! compose ops, call [`Tape::backward`] on the loss var, then read leaf
//! gradients back out with [`Tape::grad`].

use std::rc::Rc;

use rand::Rng;

use crate::csr::CsrMatrix;
use crate::matrix::Matrix;

/// Handle to a value on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    /// Leaf value (parameter or constant input).
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
    /// Mean over contiguous row groups given by offsets (CSR-style).
    MeanPool(Var, Rc<Vec<usize>>),
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
    /// Scalar mean squared L2 norm of a var (weight decay à la carte).
    L2(Var),
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

struct Node {
    op: Op,
    value: Matrix,
    grad: Option<Matrix>,
    needs_grad: bool,
}

/// A single-use reverse-mode differentiation tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    adjs: Vec<Adjacency>,
}

/// A registered adjacency. Its transpose is built by the first backward use
/// and dropped after the last, so a two-layer model transposes each
/// adjacency once per step and holds the copy no longer than it needs it.
struct Adjacency {
    matrix: Rc<CsrMatrix>,
    transpose: Option<CsrMatrix>,
    /// Backward uses still to come: one per `spmm` that needs a gradient.
    uses_left: usize,
}

impl Tape {
    /// Fresh empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    fn push(&mut self, op: Op, value: Matrix, needs_grad: bool) -> Var {
        self.nodes.push(Node { op, value, grad: None, needs_grad });
        Var(self.nodes.len() - 1)
    }

    /// Register a trainable leaf (its gradient will be accumulated).
    pub fn param(&mut self, value: Matrix) -> Var {
        self.push(Op::Leaf, value, true)
    }

    /// Register a constant leaf (no gradient).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(Op::Leaf, value, false)
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

    /// Gradient of a var after [`Tape::backward`], if it required one.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Take ownership of a leaf gradient (avoids a copy in optimizers).
    pub fn take_grad(&mut self, v: Var) -> Option<Matrix> {
        self.nodes[v.0].grad.take()
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Dense product `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::MatMul(a, b), value, ng)
    }

    /// Sparse-dense product `adj @ x` for a registered adjacency.
    pub fn spmm(&mut self, adj: usize, x: Var) -> Var {
        let value = self.adjs[adj].matrix.spmm(&self.nodes[x.0].value);
        let ng = self.needs(x);
        self.adjs[adj].uses_left += usize::from(ng);
        self.push(Op::SpMM { adj, x }, value, ng)
    }

    /// Elementwise sum of two same-shaped vars.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.nodes[a.0].value.clone();
        value.add_assign(&self.nodes[b.0].value);
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Add(a, b), value, ng)
    }

    /// Broadcast-add a `1 x d` bias row to every row of `a`.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let b = &self.nodes[bias.0].value;
        assert_eq!(b.rows(), 1, "bias must be a single row");
        assert_eq!(b.cols(), self.nodes[a.0].value.cols(), "bias width mismatch");
        let mut value = self.nodes[a.0].value.clone();
        for r in 0..value.rows() {
            let row = value.row_mut(r);
            for (o, &bv) in row.iter_mut().zip(b.row(0)) {
                *o += bv;
            }
        }
        let ng = self.needs(a) || self.needs(bias);
        self.push(Op::AddBias(a, bias), value, ng)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|v| v.max(0.0));
        let ng = self.needs(a);
        self.push(Op::Relu(a), value, ng)
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
        let ng = self.needs(a);
        self.push(Op::Dropout(a, mask), value, ng)
    }

    /// Multiply by a scalar.
    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        let value = self.nodes[a.0].value.map(|v| v * alpha);
        let ng = self.needs(a);
        self.push(Op::Scale(a, alpha), value, ng)
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
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Mul(a, b), value, ng)
    }

    /// Select rows of `a` by index (with repetition allowed).
    pub fn gather(&mut self, a: Var, rows: Rc<Vec<u32>>) -> Var {
        let value = self.nodes[a.0].value.gather_rows(&rows);
        let ng = self.needs(a);
        self.push(Op::Gather(a, rows), value, ng)
    }

    /// Sum `k_i x d` parts into one `n_rows x d` matrix, scattering part
    /// rows to the given output rows (RGCN's per-relation aggregation).
    pub fn scatter_sum(&mut self, parts: Vec<(Var, Rc<Vec<u32>>)>, n_rows: usize) -> Var {
        assert!(!parts.is_empty(), "scatter_sum needs at least one part");
        let cols = self.nodes[parts[0].0 .0].value.cols();
        let mut value = Matrix::zeros(n_rows, cols);
        let mut ng = false;
        for (v, rows) in &parts {
            let src = &self.nodes[v.0].value;
            assert_eq!(src.cols(), cols, "scatter_sum column mismatch");
            assert_eq!(src.rows(), rows.len(), "scatter_sum row-map mismatch");
            ng |= self.needs(*v);
            for (j, &r) in rows.iter().enumerate() {
                let out = value.row_mut(r as usize);
                for (o, &x) in out.iter_mut().zip(src.row(j)) {
                    *o += x;
                }
            }
        }
        self.push(Op::ScatterSum { parts }, value, ng)
    }

    /// Mean-pool contiguous row groups. `offsets` has `groups + 1` entries;
    /// group `g` covers rows `offsets[g]..offsets[g+1]` of `a`.
    pub fn mean_pool(&mut self, a: Var, offsets: Rc<Vec<usize>>) -> Var {
        let src = &self.nodes[a.0].value;
        let groups = offsets.len() - 1;
        let mut value = Matrix::zeros(groups, src.cols());
        for g in 0..groups {
            let (start, end) = (offsets[g], offsets[g + 1]);
            assert!(end >= start && end <= src.rows(), "bad pool offsets");
            if end == start {
                continue;
            }
            let inv = 1.0 / (end - start) as f32;
            for r in start..end {
                let row = src.row(r);
                let out = value.row_mut(g);
                for (o, &x) in out.iter_mut().zip(row) {
                    *o += x * inv;
                }
            }
        }
        let ng = self.needs(a);
        self.push(Op::MeanPool(a, offsets), value, ng)
    }

    /// Mean softmax cross-entropy of `logits` rows against integer labels,
    /// optionally weighted per-row (GraphSAINT loss normalisation).
    pub fn softmax_ce_weighted(
        &mut self,
        logits: Var,
        labels: Rc<Vec<u32>>,
        weights: Option<&[f32]>,
    ) -> Var {
        let lv = &self.nodes[logits.0].value;
        assert_eq!(lv.rows(), labels.len(), "labels length mismatch");
        let n = lv.rows();
        let c = lv.cols();
        let mut probs = Matrix::zeros(n, c);
        let mut loss = 0.0f64;
        let mut wsum = 0.0f64;
        for r in 0..n {
            let row = lv.row(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for (i, &x) in row.iter().enumerate() {
                let e = (x - max).exp();
                probs.set(r, i, e);
                denom += e;
            }
            let w = weights.map_or(1.0, |ws| ws[r]) as f64;
            let label = labels[r] as usize;
            assert!(label < c, "label {label} out of range for {c} classes");
            let p = probs.get(r, label) / denom;
            loss -= w * (p.max(1e-12) as f64).ln();
            wsum += w;
            // Store dL/dlogits-per-row pre-weighting: softmax - onehot.
            for i in 0..c {
                let sm = probs.get(r, i) / denom;
                let grad = (sm - if i == label { 1.0 } else { 0.0 }) * w as f32;
                probs.set(r, i, grad);
            }
        }
        let mean = if wsum > 0.0 { (loss / wsum) as f32 } else { 0.0 };
        if wsum > 0.0 {
            probs.scale_assign(1.0 / wsum as f32);
        }
        let value = Matrix::from_vec(1, 1, vec![mean]);
        let ng = self.needs(logits);
        self.push(Op::SoftmaxCe { logits, probs }, value, ng)
    }

    /// Unweighted mean softmax cross-entropy.
    pub fn softmax_ce(&mut self, logits: Var, labels: Rc<Vec<u32>>) -> Var {
        self.softmax_ce_weighted(logits, labels, None)
    }

    /// Add a scalar constant elementwise.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let value = self.nodes[a.0].value.map(|v| v + c);
        let ng = self.needs(a);
        self.push(Op::AddScalar(a), value, ng)
    }

    /// Row-wise sum: `k x d -> k x 1`.
    pub fn row_sum(&mut self, a: Var) -> Var {
        let src = &self.nodes[a.0].value;
        let mut value = Matrix::zeros(src.rows(), 1);
        for r in 0..src.rows() {
            value.set(r, 0, src.row(r).iter().sum());
        }
        let ng = self.needs(a);
        self.push(Op::RowSum(a), value, ng)
    }

    /// Sum of every element: `k x d -> 1 x 1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = self.nodes[a.0].value.sum();
        let value = Matrix::from_vec(1, 1, vec![s]);
        let ng = self.needs(a);
        self.push(Op::SumAll(a), value, ng)
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
        let ng = self.needs(a);
        self.push(Op::Sqrt(a), value, ng)
    }

    /// Contiguous column slice `[start, end)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let src = &self.nodes[a.0].value;
        assert!(start < end && end <= src.cols(), "bad column slice");
        let mut value = Matrix::zeros(src.rows(), end - start);
        for r in 0..src.rows() {
            value.row_mut(r).copy_from_slice(&src.row(r)[start..end]);
        }
        let ng = self.needs(a);
        self.push(Op::SliceCols(a, start, end), value, ng)
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
        let ng = self.needs(a);
        self.push(Op::Softplus(a), value, ng)
    }

    /// Elementwise sine.
    pub fn sin(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(f32::sin);
        let ng = self.needs(a);
        self.push(Op::Sin(a), value, ng)
    }

    /// Elementwise cosine.
    pub fn cos(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(f32::cos);
        let ng = self.needs(a);
        self.push(Op::Cos(a), value, ng)
    }

    /// `a - b` elementwise (sugar over add/scale).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let nb = self.scale(b, -1.0);
        self.add(a, nb)
    }

    /// `0.5 * sum(a^2)` as a scalar (for explicit L2 regularisation).
    pub fn l2(&mut self, a: Var) -> Var {
        let s: f32 = self.nodes[a.0].value.as_slice().iter().map(|v| 0.5 * v * v).sum();
        let value = Matrix::from_vec(1, 1, vec![s]);
        let ng = self.needs(a);
        self.push(Op::L2(a), value, ng)
    }

    /// Scalar value of a `1x1` var (e.g. a loss).
    pub fn scalar(&self, v: Var) -> f32 {
        let m = &self.nodes[v.0].value;
        assert_eq!(m.shape(), (1, 1), "scalar() on non-scalar var");
        m.get(0, 0)
    }

    fn accumulate(&mut self, v: Var, grad: Matrix) {
        if !self.nodes[v.0].needs_grad {
            return;
        }
        match &mut self.nodes[v.0].grad {
            Some(g) => g.add_assign(&grad),
            slot @ None => *slot = Some(grad),
        }
    }

    /// Run reverse-mode accumulation seeding `d(root)/d(root) = 1`.
    /// `root` must be a scalar (`1x1`) var.
    pub fn backward(&mut self, root: Var) {
        assert_eq!(self.nodes[root.0].value.shape(), (1, 1), "backward root must be scalar");
        self.nodes[root.0].grad = Some(Matrix::from_vec(1, 1, vec![1.0]));
        for i in (0..=root.0).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            let Some(grad) = self.nodes[i].grad.take() else { continue };
            // Borrow dance: move op out, propagate, put back.
            let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
            self.propagate(&op, &grad);
            self.nodes[i].op = op;
            self.nodes[i].grad = Some(grad);
        }
    }

    fn propagate(&mut self, op: &Op, grad: &Matrix) {
        match op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                if self.needs(*a) {
                    let ga = grad.matmul_nt(&self.nodes[b.0].value);
                    self.accumulate(*a, ga);
                }
                if self.needs(*b) {
                    let gb = self.nodes[a.0].value.matmul_tn(grad);
                    self.accumulate(*b, gb);
                }
            }
            Op::SpMM { adj, x } => {
                if self.needs(*x) {
                    // d/dx (A x) = Aᵀ grad
                    let a = &mut self.adjs[*adj];
                    let gt = a.transpose.get_or_insert_with(|| a.matrix.transpose()).spmm(grad);
                    a.uses_left = a.uses_left.saturating_sub(1);
                    if a.uses_left == 0 {
                        a.transpose = None;
                    }
                    self.accumulate(*x, gt);
                }
            }
            Op::Add(a, b) => {
                if self.needs(*a) {
                    self.accumulate(*a, grad.clone());
                }
                if self.needs(*b) {
                    self.accumulate(*b, grad.clone());
                }
            }
            Op::AddBias(a, bias) => {
                if self.needs(*a) {
                    self.accumulate(*a, grad.clone());
                }
                if self.needs(*bias) {
                    let mut gb = Matrix::zeros(1, grad.cols());
                    for r in 0..grad.rows() {
                        let row = grad.row(r);
                        let out = gb.row_mut(0);
                        for (o, &g) in out.iter_mut().zip(row) {
                            *o += g;
                        }
                    }
                    self.accumulate(*bias, gb);
                }
            }
            Op::Relu(a) => {
                if self.needs(*a) {
                    let forward = &self.nodes[a.0].value;
                    let mut ga = grad.clone();
                    for (g, &x) in ga.as_mut_slice().iter_mut().zip(forward.as_slice()) {
                        if x <= 0.0 {
                            *g = 0.0;
                        }
                    }
                    self.accumulate(*a, ga);
                }
            }
            Op::Dropout(a, mask) => {
                if self.needs(*a) {
                    let mut ga = grad.clone();
                    for (g, &m) in ga.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                        *g *= m;
                    }
                    self.accumulate(*a, ga);
                }
            }
            Op::Scale(a, alpha) => {
                if self.needs(*a) {
                    let mut ga = grad.clone();
                    ga.scale_assign(*alpha);
                    self.accumulate(*a, ga);
                }
            }
            Op::Mul(a, b) => {
                if self.needs(*a) {
                    let mut ga = grad.clone();
                    for (g, &y) in
                        ga.as_mut_slice().iter_mut().zip(self.nodes[b.0].value.as_slice())
                    {
                        *g *= y;
                    }
                    self.accumulate(*a, ga);
                }
                if self.needs(*b) {
                    let mut gb = grad.clone();
                    for (g, &x) in
                        gb.as_mut_slice().iter_mut().zip(self.nodes[a.0].value.as_slice())
                    {
                        *g *= x;
                    }
                    self.accumulate(*b, gb);
                }
            }
            Op::Gather(a, rows) => {
                if self.needs(*a) {
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
            }
            Op::ScatterSum { parts } => {
                for (v, rows) in parts {
                    if self.needs(*v) {
                        let gv = grad.gather_rows(rows);
                        self.accumulate(*v, gv);
                    }
                }
            }
            Op::MeanPool(a, offsets) => {
                if self.needs(*a) {
                    let src = &self.nodes[a.0].value;
                    let mut ga = Matrix::zeros(src.rows(), src.cols());
                    for g in 0..offsets.len() - 1 {
                        let (start, end) = (offsets[g], offsets[g + 1]);
                        if end == start {
                            continue;
                        }
                        let inv = 1.0 / (end - start) as f32;
                        for r in start..end {
                            let out = ga.row_mut(r);
                            for (o, &gv) in out.iter_mut().zip(grad.row(g)) {
                                *o += gv * inv;
                            }
                        }
                    }
                    self.accumulate(*a, ga);
                }
            }
            Op::SoftmaxCe { logits, probs } => {
                if self.needs(*logits) {
                    let scale = grad.get(0, 0);
                    let mut gl = probs.clone();
                    gl.scale_assign(scale);
                    self.accumulate(*logits, gl);
                }
            }
            Op::L2(a) => {
                if self.needs(*a) {
                    let scale = grad.get(0, 0);
                    let mut ga = self.nodes[a.0].value.clone();
                    ga.scale_assign(scale);
                    self.accumulate(*a, ga);
                }
            }
            Op::AddScalar(a) => {
                if self.needs(*a) {
                    self.accumulate(*a, grad.clone());
                }
            }
            Op::RowSum(a) => {
                if self.needs(*a) {
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
            }
            Op::SumAll(a) => {
                if self.needs(*a) {
                    let src = &self.nodes[a.0].value;
                    let ga = Matrix::filled(src.rows(), src.cols(), grad.get(0, 0));
                    self.accumulate(*a, ga);
                }
            }
            Op::Sqrt(a) => {
                if self.needs(*a) {
                    // d sqrt(x) = 1 / (2 sqrt(x)); forward clamped at eps.
                    let fwd = &self.nodes[a.0].value;
                    let mut ga = grad.clone();
                    for (g, &x) in ga.as_mut_slice().iter_mut().zip(fwd.as_slice()) {
                        *g *= 0.5 / x.max(1e-12).sqrt();
                    }
                    self.accumulate(*a, ga);
                }
            }
            Op::SliceCols(a, start, _end) => {
                if self.needs(*a) {
                    let src = &self.nodes[a.0].value;
                    let mut ga = Matrix::zeros(src.rows(), src.cols());
                    for r in 0..grad.rows() {
                        let dst = &mut ga.row_mut(r)[*start..*start + grad.cols()];
                        dst.copy_from_slice(grad.row(r));
                    }
                    self.accumulate(*a, ga);
                }
            }
            Op::Softplus(a) => {
                if self.needs(*a) {
                    // d softplus = sigmoid(x).
                    let fwd = &self.nodes[a.0].value;
                    let mut ga = grad.clone();
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
            }
            Op::Sin(a) => {
                if self.needs(*a) {
                    let fwd = &self.nodes[a.0].value;
                    let mut ga = grad.clone();
                    for (g, &x) in ga.as_mut_slice().iter_mut().zip(fwd.as_slice()) {
                        *g *= x.cos();
                    }
                    self.accumulate(*a, ga);
                }
            }
            Op::Cos(a) => {
                if self.needs(*a) {
                    let fwd = &self.nodes[a.0].value;
                    let mut ga = grad.clone();
                    for (g, &x) in ga.as_mut_slice().iter_mut().zip(fwd.as_slice()) {
                        *g *= -x.sin();
                    }
                    self.accumulate(*a, ga);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn matmul_gradients_match_numeric() {
        let mut rng = seeded(1);
        let a = random_matrix(3, 4, &mut rng);
        let b = random_matrix(4, 2, &mut rng);
        let labels = Rc::new(vec![0u32, 1, 0]);

        let mut tape = Tape::new();
        let va = tape.param(a.clone());
        let vb = tape.param(b.clone());
        let out = tape.matmul(va, vb);
        let loss = tape.softmax_ce(out, labels.clone());
        tape.backward(loss);
        let ga = tape.grad(va).unwrap().clone();
        let gb = tape.grad(vb).unwrap().clone();

        let eval_a = |am: &Matrix| {
            let mut t = Tape::new();
            let va = t.param(am.clone());
            let vb = t.constant(b.clone());
            let o = t.matmul(va, vb);
            let l = t.softmax_ce(o, labels.clone());
            t.scalar(l)
        };
        let eval_b = |bm: &Matrix| {
            let mut t = Tape::new();
            let va = t.constant(a.clone());
            let vb = t.param(bm.clone());
            let o = t.matmul(va, vb);
            let l = t.softmax_ce(o, labels.clone());
            t.scalar(l)
        };
        for (r, c) in [(0, 0), (1, 2), (2, 3)] {
            let n = numeric_grad(&a, r, c, eval_a, 1e-3);
            assert!((ga.get(r, c) - n).abs() < 1e-2, "a[{r},{c}]: {} vs {n}", ga.get(r, c));
        }
        for (r, c) in [(0, 0), (3, 1)] {
            let n = numeric_grad(&b, r, c, eval_b, 1e-3);
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

        let run = |xm: &Matrix, want_grad: bool| -> (f32, Option<Matrix>) {
            let mut t = Tape::new();
            let a = t.adjacency(adj.clone());
            let vx = if want_grad { t.param(xm.clone()) } else { t.constant(xm.clone()) };
            let h = t.spmm(a, vx);
            let h = t.relu(h);
            let l = t.softmax_ce(h, labels.clone());
            t.backward(l);
            let g = if want_grad { Some(t.grad(vx).unwrap().clone()) } else { None };
            (t.scalar(l), g)
        };
        let (_, g) = run(&x, true);
        let g = g.unwrap();
        for (r, c) in [(0, 0), (1, 1), (2, 2), (0, 2)] {
            let n = numeric_grad(&x, r, c, |m| run(m, false).0, 1e-3);
            assert!((g.get(r, c) - n).abs() < 1e-2, "x[{r},{c}]: {} vs {n}", g.get(r, c));
        }
    }

    #[test]
    fn gather_meanpool_gradients_match_numeric() {
        let mut rng = seeded(3);
        let x = random_matrix(4, 3, &mut rng);
        let rows = Rc::new(vec![0u32, 2, 2, 3, 1, 0]);
        let offsets = Rc::new(vec![0usize, 2, 4, 6]);
        let labels = Rc::new(vec![0u32, 1, 2]);

        let run = |xm: &Matrix, want_grad: bool| -> (f32, Option<Matrix>) {
            let mut t = Tape::new();
            let vx = if want_grad { t.param(xm.clone()) } else { t.constant(xm.clone()) };
            let g = t.gather(vx, rows.clone());
            let p = t.mean_pool(g, offsets.clone());
            let l = t.softmax_ce(p, labels.clone());
            t.backward(l);
            let gr = if want_grad { Some(t.grad(vx).unwrap().clone()) } else { None };
            (t.scalar(l), gr)
        };
        let (_, g) = run(&x, true);
        let g = g.unwrap();
        for (r, c) in [(0, 0), (2, 1), (3, 2)] {
            let n = numeric_grad(&x, r, c, |m| run(m, false).0, 1e-3);
            assert!((g.get(r, c) - n).abs() < 1e-2, "x[{r},{c}]: {} vs {n}", g.get(r, c));
        }
    }

    #[test]
    fn bias_and_l2_gradients() {
        let mut rng = seeded(4);
        let x = random_matrix(3, 2, &mut rng);
        let bias = random_matrix(1, 2, &mut rng);
        let labels = Rc::new(vec![0u32, 1, 1]);

        let run = |bm: &Matrix, want_grad: bool| -> (f32, Option<Matrix>) {
            let mut t = Tape::new();
            let vx = t.constant(x.clone());
            let vb = if want_grad { t.param(bm.clone()) } else { t.constant(bm.clone()) };
            let h = t.add_bias(vx, vb);
            let ce = t.softmax_ce(h, labels.clone());
            let reg = t.l2(vb);
            let reg = t.scale(reg, 0.1);
            let l = t.add(ce, reg);
            t.backward(l);
            let g = if want_grad { Some(t.grad(vb).unwrap().clone()) } else { None };
            (t.scalar(l), g)
        };
        let (_, g) = run(&bias, true);
        let g = g.unwrap();
        for c in 0..2 {
            let n = numeric_grad(&bias, 0, c, |m| run(m, false).0, 1e-3);
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

        let run = |am: &Matrix, bm: &Matrix, grad_a: bool| -> (f32, Option<Matrix>) {
            let mut t = Tape::new();
            let va = if grad_a { t.param(am.clone()) } else { t.constant(am.clone()) };
            let vb = t.param(bm.clone());
            let s = t.scatter_sum(vec![(va, rows_a.clone()), (vb, rows_b.clone())], 4);
            let l = t.softmax_ce(s, labels.clone());
            t.backward(l);
            let g = if grad_a { Some(t.grad(va).unwrap().clone()) } else { None };
            (t.scalar(l), g)
        };
        let (_, g) = run(&a, &b, true);
        let g = g.unwrap();
        for (r, c) in [(0, 0), (1, 2)] {
            let n = numeric_grad(&a, r, c, |m| run(m, &b, false).0, 1e-3);
            assert!((g.get(r, c) - n).abs() < 1e-2, "a[{r},{c}]: {} vs {n}", g.get(r, c));
        }
    }

    #[test]
    fn weighted_ce_reduces_to_unweighted_with_unit_weights() {
        let mut rng = seeded(5);
        let x = random_matrix(4, 3, &mut rng);
        let labels = Rc::new(vec![0u32, 1, 2, 1]);
        let mut t1 = Tape::new();
        let v1 = t1.constant(x.clone());
        let l1 = t1.softmax_ce(v1, labels.clone());
        let mut t2 = Tape::new();
        let v2 = t2.constant(x.clone());
        let l2 = t2.softmax_ce_weighted(v2, labels, Some(&[1.0; 4]));
        assert!((t1.scalar(l1) - t2.scalar(l2)).abs() < 1e-6);
    }

    #[test]
    fn elementwise_and_reduction_gradients_match_numeric() {
        // Compose the LP-style ops: slice, sin/cos, mul, row_sum, sqrt,
        // softplus, add_scalar, sum_all.
        let mut rng = seeded(10);
        let x = random_matrix(3, 4, &mut rng);
        let run = |xm: &Matrix, want: bool| -> (f32, Option<Matrix>) {
            let mut t = Tape::new();
            let v = if want { t.param(xm.clone()) } else { t.constant(xm.clone()) };
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
            let g = if want { Some(t.grad(v).unwrap().clone()) } else { None };
            (t.scalar(l), g)
        };
        let (_, g) = run(&x, true);
        let g = g.unwrap();
        for (r, c) in [(0, 0), (1, 2), (2, 3), (0, 1)] {
            let n = numeric_grad(&x, r, c, |m| run(m, false).0, 1e-3);
            assert!((g.get(r, c) - n).abs() < 5e-2, "x[{r},{c}]: {} vs {n}", g.get(r, c));
        }
    }

    #[test]
    fn sub_and_mean_all() {
        let a = Matrix::filled(2, 2, 5.0);
        let b = Matrix::filled(2, 2, 3.0);
        let mut t = Tape::new();
        let va = t.constant(a);
        let vb = t.constant(b);
        let d = t.sub(va, vb);
        let m = t.mean_all(d);
        assert!((t.scalar(m) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let mut rng = seeded(6);
        let x = random_matrix(2, 2, &mut rng);
        let mut t = Tape::new();
        let v = t.param(x.clone());
        let d = t.dropout(v, 0.0, &mut rng);
        assert_eq!(v, d);
    }

    #[test]
    fn dropout_mask_scales_gradient() {
        let mut rng = seeded(7);
        let x = Matrix::filled(10, 10, 1.0);
        let mut t = Tape::new();
        let v = t.param(x);
        let d = t.dropout(v, 0.5, &mut rng);
        let l = t.l2(d);
        t.backward(l);
        let g = t.grad(v).unwrap();
        // Gradient entries are either 0 (dropped) or x * scale^2 = 4.
        for &gv in g.as_slice() {
            assert!(gv == 0.0 || (gv - 4.0).abs() < 1e-5, "unexpected grad {gv}");
        }
    }

    #[test]
    fn training_loop_decreases_loss() {
        // Tiny logistic regression sanity check: loss must fall.
        let mut rng = seeded(8);
        let x = random_matrix(20, 4, &mut rng);
        let labels: Vec<u32> = (0..20).map(|i| (i % 3) as u32).collect();
        let labels = Rc::new(labels);
        let mut w = random_matrix(4, 3, &mut rng);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..50 {
            let mut t = Tape::new();
            let vx = t.constant(x.clone());
            let vw = t.param(w.clone());
            let out = t.matmul(vx, vw);
            let l = t.softmax_ce(out, labels.clone());
            t.backward(l);
            last = t.scalar(l);
            first.get_or_insert(last);
            let g = t.take_grad(vw).unwrap();
            w.axpy(-0.5, &g);
        }
        assert!(last < first.unwrap() * 0.9, "loss did not decrease: {first:?} -> {last}");
    }
}
