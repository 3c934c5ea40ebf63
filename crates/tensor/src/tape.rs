//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records a computation graph of [`Matrix`] values for one forward
//! pass (typically one mini-batch). Calling [`Tape::backward`] propagates
//! gradients from a scalar loss to every node; [`Tape::flush_grads`] then
//! accumulates gradients of parameter leaves into the shared
//! [`crate::param::ParamStore`].
//!
//! The op set is deliberately small — just what recurrent/attention models
//! over EHR data need — and every op's backward rule is validated against
//! finite differences in `crate::gradcheck` tests.
//!
//! ## Buffer arena
//!
//! A tape owns a free-list of `f32` buffers recycled across training steps:
//! call [`Tape::reset`] instead of constructing a fresh tape each minibatch
//! and every node value/gradient allocated by the previous step is reused.
//! One epoch then settles into a steady state with essentially zero allocator
//! traffic from the tape — the dominant cost of the small per-feature models
//! this workspace trains (thousands of tiny nodes per batch).

use crate::exec::kernel::{self, GateKind};
use crate::exec::Exec;
use crate::matrix::Matrix;
use crate::param::{ParamId, ParamStore};

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// The operation that produced a node, holding parent handles.
#[derive(Debug, Clone)]
enum Op {
    /// Constant input (no gradient flows past it).
    Leaf,
    /// Parameter leaf; gradient is flushed to the store.
    Param(ParamId),
    MatMul(Var, Var),
    Add(Var, Var),
    /// `(r x c) + (1 x c)` — bias addition.
    AddRowBroadcast(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// `(r x c) * (r x 1)` — per-row scaling (attention weights).
    MulColBroadcast(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Transpose(Var),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    SoftmaxRows(Var),
    SumCols(Var),
    SumRows(Var),
    MeanAll(Var),
    ConcatCols(Vec<Var>),
    SliceCols(Var, usize),
    /// Mean binary-cross-entropy over all elements, from logits.
    /// Stores targets (and optional per-element weights) as constants.
    BceWithLogits(Var, Matrix),
    /// Mean squared error against a constant target.
    Mse(Var, Matrix),
    /// Fused gate: `act(a + b + bias)` with `bias` a `1 x c` row vector.
    /// Collapses the add / add_row_broadcast / activation chain every
    /// GRU/LSTM gate records into one node.
    GateAct(Var, Var, Var, GateKind),
    /// Fused GRU state blend: `(1-z) ⊙ h + z ⊙ cand`.
    GruBlend(Var, Var, Var),
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
}

/// A single-pass computation graph.
pub struct Tape {
    nodes: Vec<Node>,
    /// Recycled `f32` buffers (the arena free-list); see the module docs.
    pool: Vec<Vec<f32>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::with_capacity(1024),
            pool: Vec::new(),
        }
    }

    /// Clears the graph for the next forward pass, recycling every node's
    /// value and gradient buffer into the arena. Reusing one tape via
    /// `reset` across minibatches is the allocation-free fast path; a fresh
    /// [`Tape::new`] per step stays correct but re-allocates every buffer.
    pub fn reset(&mut self) {
        let mut nodes = std::mem::take(&mut self.nodes);
        for node in nodes.drain(..) {
            self.reclaim(node.value);
            if let Some(g) = node.grad {
                self.reclaim(g);
            }
        }
        self.nodes = nodes;
    }

    /// Returns a value buffer to the arena.
    fn reclaim(&mut self, m: Matrix) {
        let buf = m.into_vec();
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// Pops a recycled buffer (emptied, capacity retained) or a fresh one.
    fn grab(&mut self) -> Vec<f32> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// An all-zero `rows x cols` matrix backed by the arena.
    fn alloc_zero(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut buf = self.grab();
        buf.resize(rows * cols, 0.0);
        Matrix::from_vec(rows, cols, buf)
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of a node after [`Tape::backward`]; `None` if no gradient
    /// reached it.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    // ---------------------------------------------------------------- leaves

    /// Records a constant (non-differentiable) input.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Records a parameter leaf by copying its current value from the store.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let mut buf = self.grab();
        let src = store.value(id);
        buf.extend_from_slice(src.as_slice());
        let v = Matrix::from_vec(src.rows(), src.cols(), buf);
        self.push(v, Op::Param(id))
    }

    // ------------------------------------------------------------------ ops

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let buf = self.grab();
        let v = kernel::matmul(buf, self.value(a), self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Element-wise sum of equally shaped nodes.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let buf = self.grab();
        let v = kernel::add(buf, self.value(a), self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// `(r x c) + (1 x c)`: adds a row vector (bias) to every row.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let buf = self.grab();
        let v = kernel::add_row_broadcast(buf, self.value(a), self.value(bias));
        self.push(v, Op::AddRowBroadcast(a, bias))
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let mut buf = self.grab();
        let (am, bm) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(am.shape(), bm.shape(), "sub shape mismatch");
        buf.extend(
            am.as_slice()
                .iter()
                .zip(bm.as_slice())
                .map(|(&x, &y)| x - y),
        );
        let v = Matrix::from_vec(am.rows(), am.cols(), buf);
        self.push(v, Op::Sub(a, b))
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let buf = self.grab();
        let v = kernel::mul(buf, self.value(a), self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    /// `(r x c) * (r x 1)`: scales each row of `a` by the matching entry of
    /// the column vector `w` (e.g. per-sample attention weights).
    pub fn mul_col_broadcast(&mut self, a: Var, w: Var) -> Var {
        let buf = self.grab();
        let v = kernel::mul_col_broadcast(buf, self.value(a), self.value(w));
        self.push(v, Op::MulColBroadcast(a, w))
    }

    /// Multiplication by a compile-time scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let buf = self.grab();
        let v = kernel::scale(buf, self.value(a), s);
        self.push(v, Op::Scale(a, s))
    }

    /// Addition of a compile-time scalar.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let mut buf = self.grab();
        let am = &self.nodes[a.0].value;
        buf.extend(am.as_slice().iter().map(|&x| x + s));
        let v = Matrix::from_vec(am.rows(), am.cols(), buf);
        self.push(v, Op::AddScalar(a))
    }

    /// Convenience for `1 - a`, common in gated RNN cells.
    pub fn one_minus(&mut self, a: Var) -> Var {
        let neg = self.scale(a, -1.0);
        self.add_scalar(neg, 1.0)
    }

    /// Transposed copy.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let buf = self.grab();
        let v = kernel::sigmoid(buf, self.value(a));
        self.push(v, Op::Sigmoid(a))
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let buf = self.grab();
        let v = kernel::tanh(buf, self.value(a));
        self.push(v, Op::Tanh(a))
    }

    /// Element-wise rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let mut buf = self.grab();
        let am = &self.nodes[a.0].value;
        buf.extend(am.as_slice().iter().map(|&x| x.max(0.0)));
        let v = Matrix::from_vec(am.rows(), am.cols(), buf);
        self.push(v, Op::Relu(a))
    }

    /// Fused sigmoid gate: `σ(a + b + bias)` in one node.
    ///
    /// Semantically identical to `sigmoid(add_row_broadcast(add(a, b), bias))`
    /// but records one node instead of three — the shape every GRU/LSTM gate
    /// takes (`x·W + h·U + b`).
    pub fn gate_sigmoid(&mut self, a: Var, b: Var, bias: Var) -> Var {
        self.gate_act(a, b, bias, GateKind::Sigmoid)
    }

    /// Fused tanh gate: `tanh(a + b + bias)` in one node (see
    /// [`Tape::gate_sigmoid`]).
    pub fn gate_tanh(&mut self, a: Var, b: Var, bias: Var) -> Var {
        self.gate_act(a, b, bias, GateKind::Tanh)
    }

    fn gate_act(&mut self, a: Var, b: Var, bias: Var, kind: GateKind) -> Var {
        let buf = self.grab();
        let v = kernel::gate(buf, self.value(a), self.value(b), self.value(bias), kind);
        self.push(v, Op::GateAct(a, b, bias, kind))
    }

    /// Fused GRU state blend: `(1 - z) ⊙ h + z ⊙ cand` in one node.
    ///
    /// Replaces the `one_minus` / `mul` / `mul` / `add` five-node chain at
    /// the end of every GRU step.
    pub fn gru_blend(&mut self, z: Var, h: Var, cand: Var) -> Var {
        let buf = self.grab();
        let v = kernel::gru_blend(buf, self.value(z), self.value(h), self.value(cand));
        self.push(v, Op::GruBlend(z, h, cand))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.softmax_rows();
        self.push(v, Op::SoftmaxRows(a))
    }

    /// Row sums: `(r x c) -> (r x 1)`.
    pub fn sum_cols(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.sum_cols();
        self.push(v, Op::SumCols(a))
    }

    /// Column sums: `(r x c) -> (1 x c)`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.sum_rows();
        self.push(v, Op::SumRows(a))
    }

    /// Mean of all elements: `-> (1 x 1)`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Matrix::from_vec(1, 1, vec![self.nodes[a.0].value.mean()]);
        self.push(v, Op::MeanAll(a))
    }

    /// Horizontal concatenation of nodes sharing a row count.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols needs at least one node");
        let mats: Vec<&Matrix> = parts.iter().map(|v| &self.nodes[v.0].value).collect();
        let v = Matrix::concat_cols(&mats);
        self.push(v, Op::ConcatCols(parts.to_vec()))
    }

    /// Copy of columns `[start, end)` of `a`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let v = self.nodes[a.0].value.slice_cols(start, end);
        self.push(v, Op::SliceCols(a, start))
    }

    /// Mean binary cross-entropy from logits against constant 0/1 targets.
    ///
    /// Numerically stable (`log1p`-based). Result is `1 x 1`.
    pub fn bce_with_logits(&mut self, logits: Var, targets: Matrix) -> Var {
        let z = &self.nodes[logits.0].value;
        assert_eq!(z.shape(), targets.shape(), "bce target shape mismatch");
        let n = z.len() as f32;
        let mut total = 0.0f64;
        for (&zi, &yi) in z.as_slice().iter().zip(targets.as_slice()) {
            // max(z,0) - z*y + ln(1 + e^{-|z|})
            let l = zi.max(0.0) - zi * yi + (-zi.abs()).exp().ln_1p();
            total += l as f64;
        }
        let v = Matrix::from_vec(1, 1, vec![(total / n as f64) as f32]);
        self.push(v, Op::BceWithLogits(logits, targets))
    }

    /// Mean squared error against a constant target. Result is `1 x 1`.
    pub fn mse(&mut self, pred: Var, targets: Matrix) -> Var {
        let p = &self.nodes[pred.0].value;
        assert_eq!(p.shape(), targets.shape(), "mse target shape mismatch");
        let n = p.len() as f32;
        let total: f32 = p
            .as_slice()
            .iter()
            .zip(targets.as_slice())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum();
        let v = Matrix::from_vec(1, 1, vec![total / n]);
        self.push(v, Op::Mse(pred, targets))
    }

    // ------------------------------------------------------------- backward

    fn grad_buf(&mut self, v: Var) -> &mut Matrix {
        if self.nodes[v.0].grad.is_none() {
            let (r, c) = self.nodes[v.0].value.shape();
            let m = self.alloc_zero(r, c);
            self.nodes[v.0].grad = Some(m);
        }
        self.nodes[v.0].grad.as_mut().unwrap()
    }

    /// Takes ownership of a node's gradient buffer (a zeroed arena buffer if
    /// none exists yet) so backward rules can accumulate into it while still
    /// reading other nodes' values; the caller must put it back.
    fn take_grad(&mut self, v: Var) -> Matrix {
        match self.nodes[v.0].grad.take() {
            Some(g) => g,
            None => {
                let (r, c) = self.nodes[v.0].value.shape();
                self.alloc_zero(r, c)
            }
        }
    }

    /// Runs reverse-mode differentiation seeded at `root` (gradient 1 for
    /// every element of `root`, which is normally a `1 x 1` loss).
    pub fn backward(&mut self, root: Var) {
        {
            if let Some(old) = self.nodes[root.0].grad.take() {
                self.reclaim(old);
            }
            let (r, c) = self.nodes[root.0].value.shape();
            let mut seed = self.alloc_zero(r, c);
            seed.as_mut_slice().fill(1.0);
            self.nodes[root.0].grad = Some(seed);
        }
        for i in (0..=root.0).rev() {
            let Some(g) = self.nodes[i].grad.take() else {
                continue;
            };
            let op = self.nodes[i].op.clone();
            let out_value = std::mem::replace(&mut self.nodes[i].value, Matrix::zeros(0, 0));
            self.propagate(&op, &out_value, &g);
            self.nodes[i].value = out_value;
            self.nodes[i].grad = Some(g);
        }
    }

    fn propagate(&mut self, op: &Op, out: &Matrix, g: &Matrix) {
        match op {
            Op::Leaf | Op::Param(_) => {}
            Op::MatMul(a, b) => {
                // dA += g · Bᵀ ; dB += Aᵀ · g — transpose-fused GEMM, no
                // transposed copies and no gradient temporaries.
                let mut ga = self.take_grad(*a);
                crate::gemm::gemm_into(false, true, g, &self.nodes[b.0].value, &mut ga, true);
                self.nodes[a.0].grad = Some(ga);
                let mut gb = self.take_grad(*b);
                crate::gemm::gemm_into(true, false, &self.nodes[a.0].value, g, &mut gb, true);
                self.nodes[b.0].grad = Some(gb);
            }
            Op::Add(a, b) => {
                self.grad_buf(*a).add_assign(g);
                self.grad_buf(*b).add_assign(g);
            }
            Op::AddRowBroadcast(a, bias) => {
                self.grad_buf(*a).add_assign(g);
                let db = g.sum_rows();
                self.grad_buf(*bias).add_assign(&db);
            }
            Op::Sub(a, b) => {
                self.grad_buf(*a).add_assign(g);
                self.grad_buf(*b).add_scaled_assign(g, -1.0);
            }
            Op::Mul(a, b) => {
                let mut ga = self.take_grad(*a);
                for ((o, &gi), &bi) in ga
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(self.nodes[b.0].value.as_slice())
                {
                    *o += gi * bi;
                }
                self.nodes[a.0].grad = Some(ga);
                let mut gb = self.take_grad(*b);
                for ((o, &gi), &ai) in gb
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(self.nodes[a.0].value.as_slice())
                {
                    *o += gi * ai;
                }
                self.nodes[b.0].grad = Some(gb);
            }
            Op::MulColBroadcast(a, w) => {
                let wm = self.nodes[w.0].value.clone();
                let am = self.nodes[a.0].value.clone();
                // dA[r,c] = g[r,c] * w[r]
                let mut da = g.clone();
                for r in 0..da.rows() {
                    let s = wm[(r, 0)];
                    for c in 0..da.cols() {
                        da[(r, c)] *= s;
                    }
                }
                self.grad_buf(*a).add_assign(&da);
                // dW[r] = sum_c g[r,c] * a[r,c]
                let dw = g.mul(&am).sum_cols();
                self.grad_buf(*w).add_assign(&dw);
            }
            Op::Scale(a, s) => {
                self.grad_buf(*a).add_scaled_assign(g, *s);
            }
            Op::AddScalar(a) => {
                self.grad_buf(*a).add_assign(g);
            }
            Op::Transpose(a) => {
                let da = g.transpose();
                self.grad_buf(*a).add_assign(&da);
            }
            Op::Sigmoid(a) => {
                let buf = self.grad_buf(*a);
                for ((o, &gi), &yi) in buf
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(out.as_slice())
                {
                    *o += gi * yi * (1.0 - yi);
                }
            }
            Op::Tanh(a) => {
                let buf = self.grad_buf(*a);
                for ((o, &gi), &yi) in buf
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(out.as_slice())
                {
                    *o += gi * (1.0 - yi * yi);
                }
            }
            Op::Relu(a) => {
                let buf = self.grad_buf(*a);
                for ((o, &gi), &yi) in buf
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(out.as_slice())
                {
                    if yi > 0.0 {
                        *o += gi;
                    }
                }
            }
            Op::SoftmaxRows(a) => {
                // dx = y * (g - <g, y>_row)
                let mut da = Matrix::zeros(out.rows(), out.cols());
                for r in 0..out.rows() {
                    let dot: f32 = out
                        .row(r)
                        .iter()
                        .zip(g.row(r).iter())
                        .map(|(&y, &gi)| y * gi)
                        .sum();
                    for c in 0..out.cols() {
                        da[(r, c)] = out[(r, c)] * (g[(r, c)] - dot);
                    }
                }
                self.grad_buf(*a).add_assign(&da);
            }
            Op::SumCols(a) => {
                let (r, c) = self.nodes[a.0].value.shape();
                let mut da = Matrix::zeros(r, c);
                for i in 0..r {
                    let gi = g[(i, 0)];
                    for j in 0..c {
                        da[(i, j)] = gi;
                    }
                }
                self.grad_buf(*a).add_assign(&da);
            }
            Op::SumRows(a) => {
                let (r, c) = self.nodes[a.0].value.shape();
                let mut da = Matrix::zeros(r, c);
                for i in 0..r {
                    for j in 0..c {
                        da[(i, j)] = g[(0, j)];
                    }
                }
                self.grad_buf(*a).add_assign(&da);
            }
            Op::MeanAll(a) => {
                let (r, c) = self.nodes[a.0].value.shape();
                let s = g[(0, 0)] / (r * c) as f32;
                let da = Matrix::full(r, c, s);
                self.grad_buf(*a).add_assign(&da);
            }
            Op::ConcatCols(parts) => {
                let mut offset = 0;
                for p in parts {
                    let w = self.nodes[p.0].value.cols();
                    let dp = g.slice_cols(offset, offset + w);
                    self.grad_buf(*p).add_assign(&dp);
                    offset += w;
                }
            }
            Op::SliceCols(a, start) => {
                let (r, _) = g.shape();
                let buf = self.grad_buf(*a);
                for i in 0..r {
                    for j in 0..g.cols() {
                        buf[(i, start + j)] += g[(i, j)];
                    }
                }
            }
            Op::BceWithLogits(logits, targets) => {
                let z = &self.nodes[logits.0].value;
                let n = z.len() as f32;
                let s = g[(0, 0)] / n;
                let dz = z.zip(targets, |zi, yi| {
                    let p = 1.0 / (1.0 + (-zi).exp());
                    (p - yi) * s
                });
                self.grad_buf(*logits).add_assign(&dz);
            }
            Op::Mse(pred, targets) => {
                let p = &self.nodes[pred.0].value;
                let n = p.len() as f32;
                let s = 2.0 * g[(0, 0)] / n;
                let dp = p.zip(targets, |a, b| (a - b) * s);
                self.grad_buf(*pred).add_assign(&dp);
            }
            Op::GateAct(a, b, bias, kind) => {
                // Pre-activation gradient gp = g · act'(y), with act'
                // computed from the output value alone:
                // σ: y(1-y); tanh: 1-y². Both summed operands receive gp,
                // the bias receives its column sums.
                let deriv = |gi: f32, yi: f32| match kind {
                    GateKind::Sigmoid => gi * yi * (1.0 - yi),
                    GateKind::Tanh => gi * (1.0 - yi * yi),
                };
                let mut ga = self.take_grad(*a);
                for ((o, &gi), &yi) in ga
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(out.as_slice())
                {
                    *o += deriv(gi, yi);
                }
                self.nodes[a.0].grad = Some(ga);
                let mut gb = self.take_grad(*b);
                for ((o, &gi), &yi) in gb
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(out.as_slice())
                {
                    *o += deriv(gi, yi);
                }
                self.nodes[b.0].grad = Some(gb);
                let mut gbias = self.take_grad(*bias);
                {
                    let row = gbias.row_mut(0);
                    for r in 0..out.rows() {
                        for ((o, &gi), &yi) in row.iter_mut().zip(g.row(r)).zip(out.row(r)) {
                            *o += deriv(gi, yi);
                        }
                    }
                }
                self.nodes[bias.0].grad = Some(gbias);
            }
            Op::GruBlend(z, h, cand) => {
                // y = (1-z)⊙h + z⊙cand:
                // dz += g⊙(cand-h); dh += g⊙(1-z); dcand += g⊙z.
                let mut gz = self.take_grad(*z);
                for (((o, &gi), &ci), &hi) in gz
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(self.nodes[cand.0].value.as_slice())
                    .zip(self.nodes[h.0].value.as_slice())
                {
                    *o += gi * (ci - hi);
                }
                self.nodes[z.0].grad = Some(gz);
                let mut gh = self.take_grad(*h);
                for ((o, &gi), &zi) in gh
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(self.nodes[z.0].value.as_slice())
                {
                    *o += gi * (1.0 - zi);
                }
                self.nodes[h.0].grad = Some(gh);
                let mut gc = self.take_grad(*cand);
                for ((o, &gi), &zi) in gc
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(self.nodes[z.0].value.as_slice())
                {
                    *o += gi * zi;
                }
                self.nodes[cand.0].grad = Some(gc);
            }
        }
    }

    /// Accumulates parameter-leaf gradients into the store.
    ///
    /// Call after [`Tape::backward`]. Nodes whose gradient never materialised
    /// (dead branches) are skipped.
    pub fn flush_grads(&self, store: &mut ParamStore) {
        for node in &self.nodes {
            if let (Op::Param(id), Some(g)) = (&node.op, &node.grad) {
                store.accumulate_grad(*id, g);
            }
        }
    }

    /// Accumulates parameter-leaf gradients into a detached
    /// [`crate::param::GradBuffer`] instead of the shared store — the
    /// per-shard half of data-parallel training, where workers must not
    /// touch the store concurrently.
    pub fn flush_grads_into(&self, buf: &mut crate::param::GradBuffer) {
        for node in &self.nodes {
            if let (Op::Param(id), Some(g)) = (&node.op, &node.grad) {
                buf.accumulate(*id, g);
            }
        }
    }
}

/// The recording executor: every op becomes a graph node, so the forward it
/// runs can be differentiated with [`Tape::backward`].
impl Exec for Tape {
    type V = Var;
    type G = Vec<Var>;

    fn value<'s>(&'s self, v: &'s Var) -> &'s Matrix {
        Tape::value(self, *v)
    }

    fn constant(&mut self, value: Matrix) -> Var {
        Tape::constant(self, value)
    }

    fn param(&mut self, ps: &ParamStore, id: ParamId) -> Var {
        Tape::param(self, ps, id)
    }

    fn matmul(&mut self, a: &Var, b: &Var) -> Var {
        Tape::matmul(self, *a, *b)
    }

    fn add(&mut self, a: &Var, b: &Var) -> Var {
        Tape::add(self, *a, *b)
    }

    fn add_row_broadcast(&mut self, a: &Var, bias: &Var) -> Var {
        Tape::add_row_broadcast(self, *a, *bias)
    }

    fn mul(&mut self, a: &Var, b: &Var) -> Var {
        Tape::mul(self, *a, *b)
    }

    fn mul_col_broadcast(&mut self, a: &Var, w: &Var) -> Var {
        Tape::mul_col_broadcast(self, *a, *w)
    }

    fn scale(&mut self, a: &Var, s: f32) -> Var {
        Tape::scale(self, *a, s)
    }

    fn transpose(&mut self, a: &Var) -> Var {
        Tape::transpose(self, *a)
    }

    fn sigmoid(&mut self, a: &Var) -> Var {
        Tape::sigmoid(self, *a)
    }

    fn tanh(&mut self, a: &Var) -> Var {
        Tape::tanh(self, *a)
    }

    fn gate_sigmoid(&mut self, a: &Var, b: &Var, bias: &Var) -> Var {
        Tape::gate_sigmoid(self, *a, *b, *bias)
    }

    fn gate_tanh(&mut self, a: &Var, b: &Var, bias: &Var) -> Var {
        Tape::gate_tanh(self, *a, *b, *bias)
    }

    fn gru_blend(&mut self, z: &Var, h: &Var, cand: &Var) -> Var {
        Tape::gru_blend(self, *z, *h, *cand)
    }

    fn softmax_rows(&mut self, a: &Var) -> Var {
        Tape::softmax_rows(self, *a)
    }

    fn sum_cols(&mut self, a: &Var) -> Var {
        Tape::sum_cols(self, *a)
    }

    fn concat_cols(&mut self, parts: &[&Var]) -> Var {
        let parts: Vec<Var> = parts.iter().map(|&&v| v).collect();
        Tape::concat_cols(self, &parts)
    }

    fn slice_cols(&mut self, a: &Var, start: usize, end: usize) -> Var {
        Tape::slice_cols(self, *a, start, end)
    }

    fn group(&mut self, parts: Vec<Var>) -> Vec<Var> {
        parts
    }

    fn ungroup(&mut self, g: &Vec<Var>) -> Vec<Var> {
        g.clone()
    }

    fn block_row<'s>(&'s self, g: &'s Vec<Var>, f: usize, r: usize) -> &'s [f32] {
        Tape::value(self, g[f]).row(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values_match_matrix_ops() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let b = t.constant(Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]));
        let c = t.matmul(a, b);
        assert_eq!(t.value(c).as_slice(), &[19., 22., 43., 50.]);
        let d = t.add(a, b);
        assert_eq!(t.value(d).as_slice(), &[6., 8., 10., 12.]);
    }

    #[test]
    fn backward_through_matmul() {
        // loss = mean(A*B); check dA and dB shapes/values.
        let mut t = Tape::new();
        let a = t.constant(Matrix::from_vec(1, 2, vec![1., 2.]));
        let b = t.constant(Matrix::from_vec(2, 1, vec![3., 4.]));
        let c = t.matmul(a, b); // 1x1 = 11
        let l = t.mean_all(c);
        t.backward(l);
        assert_eq!(t.grad(a).unwrap().as_slice(), &[3., 4.]);
        assert_eq!(t.grad(b).unwrap().as_slice(), &[1., 2.]);
    }

    #[test]
    fn backward_through_sigmoid_chain() {
        // y = sigmoid(x); loss = mean(y). dy/dx = y(1-y)/n
        let mut t = Tape::new();
        let x = t.constant(Matrix::from_vec(1, 1, vec![0.0]));
        let y = t.sigmoid(x);
        let l = t.mean_all(y);
        t.backward(l);
        let g = t.grad(x).unwrap()[(0, 0)];
        assert!((g - 0.25).abs() < 1e-6);
    }

    #[test]
    fn one_minus_matches_manual() {
        let mut t = Tape::new();
        let x = t.constant(Matrix::from_vec(1, 2, vec![0.3, 0.9]));
        let y = t.one_minus(x);
        assert_eq!(t.value(y).as_slice(), &[0.7, 0.100000024]);
    }

    #[test]
    fn bce_with_logits_value() {
        // logit 0 against target 1 => ln 2
        let mut t = Tape::new();
        let z = t.constant(Matrix::from_vec(1, 1, vec![0.0]));
        let l = t.bce_with_logits(z, Matrix::from_vec(1, 1, vec![1.0]));
        assert!((t.value(l)[(0, 0)] - std::f32::consts::LN_2).abs() < 1e-6);
        t.backward(l);
        // d/dz = sigma(0) - 1 = -0.5
        assert!((t.grad(z).unwrap()[(0, 0)] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn bce_with_logits_extreme_logits_are_finite() {
        let mut t = Tape::new();
        let z = t.constant(Matrix::from_vec(1, 2, vec![100.0, -100.0]));
        let l = t.bce_with_logits(z, Matrix::from_vec(1, 2, vec![1.0, 0.0]));
        assert!(t.value(l).all_finite());
        assert!(t.value(l)[(0, 0)] < 1e-3);
    }

    #[test]
    fn flush_grads_accumulates_into_store() {
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::from_vec(1, 1, vec![2.0]));
        let mut t = Tape::new();
        let wv = t.param(&ps, w);
        let x = t.constant(Matrix::from_vec(1, 1, vec![3.0]));
        let y = t.mul(wv, x);
        let l = t.mean_all(y);
        t.backward(l);
        t.flush_grads(&mut ps);
        assert_eq!(ps.grad(w)[(0, 0)], 3.0);
    }

    #[test]
    fn grad_accumulates_across_multiple_uses() {
        // y = w*x1 + w*x2 — w used twice, grads must sum.
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::from_vec(1, 1, vec![1.0]));
        let mut t = Tape::new();
        let wv = t.param(&ps, w);
        let x1 = t.constant(Matrix::from_vec(1, 1, vec![2.0]));
        let x2 = t.constant(Matrix::from_vec(1, 1, vec![5.0]));
        let a = t.mul(wv, x1);
        let b = t.mul(wv, x2);
        let y = t.add(a, b);
        let l = t.mean_all(y);
        t.backward(l);
        t.flush_grads(&mut ps);
        assert_eq!(ps.grad(w)[(0, 0)], 7.0);
    }

    #[test]
    fn concat_slice_round_trip_grads() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::from_vec(2, 1, vec![1., 2.]));
        let b = t.constant(Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]));
        let c = t.concat_cols(&[a, b]);
        let s = t.slice_cols(c, 1, 3); // recover b
        assert_eq!(t.value(s).as_slice(), &[3., 4., 5., 6.]);
        let l = t.mean_all(s);
        t.backward(l);
        // Gradient reaches b, not a.
        assert_eq!(t.grad(b).unwrap().as_slice(), &[0.25; 4]);
        assert!(t.grad(a).unwrap().as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn softmax_rows_grad_sums_to_zero() {
        // For softmax followed by picking one coordinate, gradient over the
        // input row sums to ~0 (shift invariance).
        let mut t = Tape::new();
        let x = t.constant(Matrix::from_vec(1, 3, vec![0.1, 0.5, -0.2]));
        let s = t.softmax_rows(x);
        let p = t.slice_cols(s, 1, 2);
        let l = t.mean_all(p);
        t.backward(l);
        let g = t.grad(x).unwrap();
        assert!(g.sum().abs() < 1e-6);
    }

    #[test]
    fn reset_recycles_buffers_and_keeps_results_identical() {
        // Train-loop shape: one tape reused across steps via reset() must
        // produce bit-identical values and gradients to fresh tapes.
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::from_vec(2, 2, vec![0.5, -0.3, 0.8, 0.1]));
        let run = |t: &mut Tape, ps: &ParamStore| -> (f32, Matrix) {
            let wv = t.param(ps, w);
            let x = t.constant(Matrix::from_vec(2, 2, vec![1.0, 2.0, -1.0, 0.5]));
            let y = t.matmul(x, wv);
            let s = t.sigmoid(y);
            let l = t.mean_all(s);
            t.backward(l);
            (t.value(l)[(0, 0)], t.grad(wv).unwrap().clone())
        };
        let mut reused = Tape::new();
        for _ in 0..3 {
            reused.reset();
            let (loss_reused, grad_reused) = run(&mut reused, &ps);
            let mut fresh = Tape::new();
            let (loss_fresh, grad_fresh) = run(&mut fresh, &ps);
            assert_eq!(loss_reused.to_bits(), loss_fresh.to_bits());
            for (a, b) in grad_reused.as_slice().iter().zip(grad_fresh.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn reset_empties_the_graph() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::zeros(4, 4));
        let _ = t.sigmoid(a);
        assert_eq!(t.len(), 2);
        t.reset();
        assert!(t.is_empty());
        // The tape is fully usable after reset.
        let b = t.constant(Matrix::full(2, 2, 1.0));
        let c = t.tanh(b);
        assert_eq!(t.value(c).shape(), (2, 2));
    }

    #[test]
    fn mul_col_broadcast_forward_and_backward() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let w = t.constant(Matrix::from_vec(2, 1, vec![10., 100.]));
        let y = t.mul_col_broadcast(a, w);
        assert_eq!(t.value(y).as_slice(), &[10., 20., 300., 400.]);
        let l = t.mean_all(y);
        t.backward(l);
        let gw = t.grad(w).unwrap();
        // dW[r] = sum_c a[r,c] / 4
        assert_eq!(gw.as_slice(), &[0.75, 1.75]);
    }
}
