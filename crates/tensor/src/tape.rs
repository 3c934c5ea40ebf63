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
//! finite differences in `crate::gradcheck` tests. The grouped ops
//! ([`Exec::biel_blocks`], [`Exec::linear_blocks`], [`Exec::gru_blocks`],
//! [`Exec::pair_attention`], [`Exec::attention_sum`]) are each recorded as
//! one fused node plus one row view per block; their backward replays the
//! rules of their primitive reference and is checked against it bit for
//! bit instead (see [`crate::exec`]). A fused node that touches weights
//! keeps its per-block weight gradients and hands them to
//! [`Tape::flush_grads`] in the order the reference's weight leaves would.
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
use crate::exec::{Act, Exec, GruGates, GruScratch, Weights};
use crate::gemm::gemm_into;
use crate::matrix::Matrix;
use crate::nn::{Biel, GruCell, GruParams, Linear};
use crate::param::{ParamId, ParamStore};
use std::borrow::Borrow;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// The operation that produced a node, holding parent handles.
#[derive(Debug)]
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
    /// Copy of one block's rows of a fused grouped op's stacked node: the
    /// view of the block the op hands out. Its gradient is read in place by
    /// the fused node's backward.
    Block(Var),
    /// [`Exec::pair_attention`] over query and key blocks, stacked.
    PairAttention {
        q: Vec<Var>,
        k: Vec<Var>,
        scale: f32,
    },
    /// [`Exec::attention_sum`] over attention and value blocks, stacked.
    AttentionSum {
        alpha: Vec<Var>,
        v: Vec<Var>,
    },
    /// [`Exec::biel_blocks`], stacked.
    Biel(Box<BielNode>),
    /// [`Exec::linear_blocks`] over input blocks, stacked.
    Linear(Box<LinearNode>),
    /// [`Exec::gru_blocks`] over input and state blocks, stacked.
    Gru(Box<GruNode>),
}

/// Per-block weight gradients a fused node's backward leaves for
/// [`Tape::flush_grads`], in the order the reference records its parameter
/// leaves.
type ParamGrads = Vec<(ParamId, Matrix)>;

/// What [`Op::Biel`] keeps for its backward. Its inputs are data, so
/// gradients reach only the anchors.
#[derive(Debug)]
struct BielNode {
    biel: Vec<Biel>,
    step: Matrix,
    mask: Matrix,
    grads: ParamGrads,
}

/// What [`Op::Linear`] keeps for its backward.
#[derive(Debug)]
struct LinearNode {
    x: Vec<Var>,
    w: ParamId,
    b: Option<ParamId>,
    act: Act,
    /// The weight's value at record time.
    weight: Matrix,
    grads: ParamGrads,
}

/// What [`Op::Gru`] keeps for its backward, per block: the cell's
/// parameters, its gates, and its weights at record time in the order
/// `[wz, uz, wr, ur, wh, uh]`.
#[derive(Debug)]
struct GruNode {
    x: Vec<Var>,
    h: Vec<Var>,
    params: Vec<GruParams>,
    gates: Vec<GruGates>,
    weights: Vec<[Matrix; 6]>,
    grads: ParamGrads,
}

impl Op {
    /// The weight gradients a fused node holds after a backward pass.
    fn param_grads(&self) -> &[(ParamId, Matrix)] {
        match self {
            Op::Biel(n) => &n.grads,
            Op::Linear(n) => &n.grads,
            Op::Gru(n) => &n.grads,
            _ => &[],
        }
    }
}

/// The gradient `act'(y) · g` a fused gate `y = act(a + b + bias)` passes
/// to each summed operand, with `act'` computed from the output alone:
/// σ: `y(1-y)`; tanh: `1-y²`.
#[inline]
fn gate_deriv(kind: GateKind, gi: f32, yi: f32) -> f32 {
    match kind {
        GateKind::Sigmoid => gi * yi * (1.0 - yi),
        GateKind::Tanh => gi * (1.0 - yi * yi),
    }
}

/// The backward of a [`Op::GateAct`] whose output gradient is `g` and
/// whose operands are fresh: each operand's gradient `0.0 + act'(y)·g`
/// into `pre`, and the bias gradient, rows added in order, into the zeroed
/// `db`.
fn gate_grads(kind: GateKind, g: &Matrix, y: &Matrix, pre: &mut Matrix, db: &mut Matrix) {
    let cols = y.cols();
    let db = db.row_mut(0);
    for ((p, (&gi, &yi)), c) in pre
        .as_mut_slice()
        .iter_mut()
        .zip(g.as_slice().iter().zip(y.as_slice()))
        .zip((0..cols).cycle())
    {
        let d = gate_deriv(kind, gi, yi);
        *p = 0.0 + d;
        db[c] += d;
    }
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
    /// Scratch of the fused GRU step.
    gru: GruScratch,
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
            gru: GruScratch::default(),
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
            self.reclaim_op(node.op);
        }
        self.nodes = nodes;
    }

    /// Returns the buffers a fused node owns to the arena.
    fn reclaim_op(&mut self, op: Op) {
        match op {
            Op::Biel(n) => {
                let BielNode {
                    step, mask, grads, ..
                } = *n;
                self.reclaim(step);
                self.reclaim(mask);
                self.reclaim_grads(grads);
            }
            Op::Linear(n) => {
                self.reclaim(n.weight);
                self.reclaim_grads(n.grads);
            }
            Op::Gru(n) => {
                let GruNode {
                    gates,
                    weights,
                    grads,
                    ..
                } = *n;
                for GruGates { z, r, rh, cand } in gates {
                    [z, r, rh, cand].into_iter().for_each(|m| self.reclaim(m));
                }
                weights.into_iter().flatten().for_each(|m| self.reclaim(m));
                self.reclaim_grads(grads);
            }
            _ => {}
        }
    }

    fn reclaim_grads(&mut self, grads: ParamGrads) {
        for (_, g) in grads {
            self.reclaim(g);
        }
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

    /// A copy of `m` backed by the arena.
    fn copy(&mut self, m: &Matrix) -> Matrix {
        let mut buf = self.grab();
        buf.extend_from_slice(m.as_slice());
        Matrix::from_vec(m.rows(), m.cols(), buf)
    }

    /// An empty matrix backed by the arena, to be shaped by its writer.
    fn scratch(&mut self) -> Matrix {
        Matrix::from_vec(0, 0, self.grab())
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

    // ------------------------------------------------------------------ ops
    //
    // The ops forwards are written with are the [`Exec`] impl below; these
    // are the tape-only ones.

    /// Addition of a compile-time scalar.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let mut buf = self.grab();
        let am = &self.nodes[a.0].value;
        buf.extend(am.as_slice().iter().map(|&x| x + s));
        let v = Matrix::from_vec(am.rows(), am.cols(), buf);
        self.push(v, Op::AddScalar(a))
    }

    /// Element-wise rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let mut buf = self.grab();
        let am = &self.nodes[a.0].value;
        buf.extend(am.as_slice().iter().map(|&x| x.max(0.0)));
        let v = Matrix::from_vec(am.rows(), am.cols(), buf);
        self.push(v, Op::Relu(a))
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

    /// Records `op(a, b)`, valued by `kernel` over the values of `a` and `b`.
    fn binary(
        &mut self,
        a: impl Borrow<Var>,
        b: impl Borrow<Var>,
        kernel: fn(Vec<f32>, &Matrix, &Matrix) -> Matrix,
        op: fn(Var, Var) -> Op,
    ) -> Var {
        let (a, b) = (*a.borrow(), *b.borrow());
        let buf = self.grab();
        let v = kernel(buf, self.value(a), self.value(b));
        self.push(v, op(a, b))
    }

    /// Records `op(a)`, valued by `kernel` over the value of `a`.
    fn unary(
        &mut self,
        a: impl Borrow<Var>,
        kernel: fn(Vec<f32>, &Matrix) -> Matrix,
        op: fn(Var) -> Op,
    ) -> Var {
        let a = *a.borrow();
        let buf = self.grab();
        let v = kernel(buf, self.value(a));
        self.push(v, op(a))
    }

    /// Records the fused gate `act(a + b + bias)` as one node: the shape
    /// every GRU/LSTM gate takes (`x·W + h·U + b`).
    fn gate_act(
        &mut self,
        a: impl Borrow<Var>,
        b: impl Borrow<Var>,
        bias: impl Borrow<Var>,
        kind: GateKind,
    ) -> Var {
        let (a, b, bias) = (*a.borrow(), *b.borrow(), *bias.borrow());
        let buf = self.grab();
        let v = kernel::gate(buf, self.value(a), self.value(b), self.value(bias), kind);
        self.push(v, Op::GateAct(a, b, bias, kind))
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

    // ---------------------------------------------------------- grouped ops

    /// The values of `blocks`, each of which must be `shape`.
    fn block_values(&self, blocks: &[Var], shape: (usize, usize)) -> Vec<&[f32]> {
        blocks
            .iter()
            .map(|v| {
                let m = &self.nodes[v.0].value;
                assert_eq!(m.shape(), shape, "grouped values must share a shape");
                m.as_slice()
            })
            .collect()
    }

    /// Records the stacked result of a fused grouped op (`blocks` blocks of
    /// equal height) and hands out one [`Op::Block`] view per block, as the
    /// nodes right after it.
    fn push_stacked(&mut self, value: Matrix, op: Op, blocks: usize) -> Vec<Var> {
        let (rows, cols) = (value.rows() / blocks, value.cols());
        let stacked = self.push(value, op);
        (0..blocks)
            .map(|f| {
                let mut buf = self.grab();
                let block = rows * cols;
                buf.extend_from_slice(
                    &self.nodes[stacked.0].value.as_slice()[f * block..(f + 1) * block],
                );
                self.push(Matrix::from_vec(rows, cols, buf), Op::Block(stacked))
            })
            .collect()
    }

    /// The backward of [`Op::PairAttention`]: the rules of the nodes of
    /// [`crate::exec::reference::pair_attention`], replayed in its reverse
    /// node order — blocks `i` and then pairs `j` descending. Each add into
    /// a fresh gradient buffer is kept as `0.0 + x` (which turns `-0.0`
    /// into `+0.0`).
    fn pair_attention_backward(&mut self, node: usize, q: &[Var], k: &[Var], scale: f32) {
        let nf = q.len();
        let batch = self.nodes[node + 1].value.rows();
        // One block's score-matrix gradient, and one pair's score gradient.
        let mut g_scores = self.alloc_zero(batch, nf);
        let mut g_pair = self.alloc_zero(batch, 1);
        for i in (0..nf).rev() {
            let Some(g) = self.block_grad(node, i) else {
                continue;
            };
            // SoftmaxRows: `y ⊙ (g - <g, y>)` per row.
            let out = &self.nodes[node + 1 + i].value;
            for r in 0..batch {
                let (y, g_r) = (out.row(r), g.row(r));
                let dot: f32 = y.iter().zip(g_r).map(|(&y, &gi)| y * gi).sum();
                for ((o, &y_c), &g_c) in g_scores.row_mut(r).iter_mut().zip(y).zip(g_r) {
                    *o = 0.0 + y_c * (g_c - dot);
                }
            }
            for j in (0..nf).rev() {
                // ConcatCols, then Scale, then SumCols.
                for r in 0..batch {
                    let g_scaled = 0.0 + g_scores[(r, j)];
                    let g_sum = 0.0 + g_scaled * scale;
                    g_pair[(r, 0)] = 0.0 + g_sum;
                }
                // Mul(q_i, k_j): q_i's gradient, then k_j's.
                self.add_row_scaled(q[i], g_pair.as_slice(), k[j]);
                self.add_row_scaled(k[j], g_pair.as_slice(), q[i]);
            }
            self.put_block_grad(node, i, g);
        }
        self.reclaim(g_scores);
        self.reclaim(g_pair);
    }

    /// `grad(dst)[r, c] += s[r] · value(src)[r, c]`: one operand's rule of a
    /// `Mul` whose upstream gradient is constant along each row.
    fn add_row_scaled(&mut self, dst: Var, s: &[f32], src: Var) {
        let mut grad = self.take_grad(dst);
        let x = &self.nodes[src.0].value;
        for (r, &s_r) in s.iter().enumerate() {
            for (o, &x_c) in grad.row_mut(r).iter_mut().zip(x.row(r)) {
                *o += s_r * x_c;
            }
        }
        self.nodes[dst.0].grad = Some(grad);
    }

    /// The backward of [`Op::AttentionSum`]: the rules of the nodes of
    /// [`crate::exec::reference::attention_sum`] in its reverse node order,
    /// as in [`Tape::pair_attention_backward`].
    fn attention_sum_backward(&mut self, node: usize, alpha: &[Var], v: &[Var]) {
        let nf = alpha.len();
        let (batch, d) = self.nodes[node + 1].value.shape();
        let mut g_term = self.alloc_zero(batch, d);
        for i in (0..nf).rev() {
            let Some(g_u) = self.block_grad(node, i) else {
                continue;
            };
            // The chain of Adds hands every term `0.0 + g_u`; a lone term is
            // `u` itself and gets `g_u`.
            for (o, &x) in g_term.as_mut_slice().iter_mut().zip(g_u.as_slice()) {
                *o = if nf == 1 { x } else { 0.0 + x };
            }
            for j in (0..nf).rev() {
                // MulColBroadcast(v_j, α_i[:, j]): v_j's gradient ...
                let mut g_v = self.take_grad(v[j]);
                let a = &self.nodes[alpha[i].0].value;
                for r in 0..batch {
                    let s = a[(r, j)];
                    for (o, &x) in g_v.row_mut(r).iter_mut().zip(g_term.row(r)) {
                        *o += x * s;
                    }
                }
                self.nodes[v[j].0].grad = Some(g_v);
                // ... then the weight's, into a fresh buffer, which
                // SliceCols adds into column `j` of α_i's gradient.
                let mut g_a = self.take_grad(alpha[i]);
                let v_j = &self.nodes[v[j].0].value;
                for r in 0..batch {
                    let dw: f32 = g_term
                        .row(r)
                        .iter()
                        .zip(v_j.row(r))
                        .map(|(&x, &y)| x * y)
                        .sum();
                    g_a[(r, j)] += 0.0 + dw;
                }
                self.nodes[alpha[i].0].grad = Some(g_a);
            }
            self.put_block_grad(node, i, g_u);
        }
        self.reclaim(g_term);
    }

    /// The gradient of block `f` of the fused node `i`: its view's (node
    /// `i + 1 + f`, see [`Tape::push_stacked`]), taken out until
    /// [`Tape::put_block_grad`]. `None` when no gradient reached the view:
    /// the reference nodes of such a block get none either, so a fused
    /// backward skips it — it passes nothing to the block's inputs and
    /// flushes nothing for its weights.
    fn block_grad(&mut self, i: usize, f: usize) -> Option<Matrix> {
        self.nodes[i + 1 + f].grad.take()
    }

    fn put_block_grad(&mut self, i: usize, f: usize, g: Matrix) {
        self.nodes[i + 1 + f].grad = Some(g);
    }

    /// The backward of [`Op::Biel`]: the rules of one feature's nodes in
    /// [`Biel::forward`], in its reverse node order — the final `Add`, the
    /// missing-value product, the presence mask, the anchor sum and the two
    /// anchor products — each add into a fresh buffer kept as `0.0 + x`.
    /// Each anchor's gradient is a `k = batch` product chain, rows
    /// ascending.
    fn biel_backward(&mut self, i: usize, node: &mut BielNode) {
        let grads = std::mem::take(&mut node.grads);
        self.reclaim_grads(grads);
        let batch = node.step.rows();
        for (f, ch) in node.biel.iter().enumerate() {
            let Some(g) = self.block_grad(i, f) else {
                continue;
            };
            let dim = g.cols();
            let [mut dva, mut dvb, mut dvm] = [(); 3].map(|_| self.alloc_zero(1, dim));
            let (dva_r, dvb_r, dvm_r) = (dva.row_mut(0), dvb.row_mut(0), dvm.row_mut(0));
            for r in 0..batch {
                let (wa, wb, present) = ch.weights(node.step[(r, f)], node.mask[(r, f)]);
                let (on, off) = (f32::from(present), f32::from(!present));
                for (c, &gi) in g.row(r).iter().enumerate() {
                    let g_out = 0.0 + gi;
                    dvm_r[c] += off * g_out;
                    let g_present = 0.0 + g_out * on;
                    let g_anchor = 0.0 + g_present;
                    dvb_r[c] += wb * g_anchor;
                    dva_r[c] += wa * g_anchor;
                }
            }
            let (a, b, m) = ch.params();
            node.grads.extend([(a, dva), (b, dvb), (m, dvm)]);
            self.put_block_grad(i, f, g);
        }
    }

    /// The backward of [`Op::Linear`]: per live block, blocks descending,
    /// the rules of the reference's `Tanh`, `AddRowBroadcast` and `MatMul`
    /// nodes in reverse order, each add into a fresh buffer kept as
    /// `0.0 + x`. The input's gradient takes `g · Wᵀ` as one product chain
    /// from its prior value; each block's `W` and `b` gradients go to fresh
    /// buffers, flushed one block at a time in block order.
    fn linear_backward(&mut self, i: usize, node: &mut LinearNode) {
        let grads = std::mem::take(&mut node.grads);
        self.reclaim_grads(grads);
        let (batch, n_out) = self.nodes[i + 1].value.shape();
        let mut g_xw = self.alloc_zero(batch, n_out);
        for (f, &x) in node.x.iter().enumerate().rev() {
            let Some(g) = self.block_grad(i, f) else {
                continue;
            };
            let y = &self.nodes[i + 1 + f].value;
            for ((o, &gi), &yi) in g_xw
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(y.as_slice())
            {
                *o = match node.act {
                    Act::Tanh => 0.0 + gi * (1.0 - yi * yi),
                    Act::Identity => gi,
                };
            }
            let bias_grad = node.b.map(|b| {
                let mut db = self.alloc_zero(1, n_out);
                for r in 0..batch {
                    for (d, &gy) in db.row_mut(0).iter_mut().zip(g_xw.row(r)) {
                        *d += gy;
                    }
                }
                // Both land in fresh buffers: `0.0 + x`.
                db.as_mut_slice().iter_mut().for_each(|d| *d += 0.0);
                g_xw.as_mut_slice().iter_mut().for_each(|o| *o += 0.0);
                (b, db)
            });
            self.add_product_nt(x, &g_xw, &node.weight);
            let mut dw = self.alloc_zero(node.weight.rows(), n_out);
            gemm_into(true, false, &self.nodes[x.0].value, &g_xw, &mut dw, true);
            // Reversed with the blocks below.
            node.grads.extend(bias_grad);
            node.grads.push((node.w, dw));
            self.put_block_grad(i, f, g);
        }
        node.grads.reverse();
        self.reclaim(g_xw);
    }

    /// The backward of [`Op::Gru`]: per live block, blocks descending, the
    /// rules of the nodes of [`GruCell::step`] in its reverse node order —
    /// blend, candidate gate, `r⊙h · Uh`, `x · Wh`, `r ⊙ h`, reset gate,
    /// `h · Ur`, `x · Wr`, update gate, `h · Uz`, `x · Wz` — each add into a
    /// fresh buffer kept as `0.0 + x`. So `x`'s gradient takes
    /// `[g_h|g_r|g_z] · [Wh|Wr|Wz]ᵀ` and `h`'s, after the blend and `r ⊙ h`
    /// terms, `[g_r|g_z] · [Ur|Uz]ᵀ`, each one product chain from its prior
    /// value; every weight gradient goes to a fresh buffer, flushed in block
    /// order.
    fn gru_backward(&mut self, i: usize, node: &mut GruNode) {
        use GateKind::{Sigmoid, Tanh};
        let grads = std::mem::take(&mut node.grads);
        self.reclaim_grads(grads);
        let (batch, hid) = self.nodes[i + 1].value.shape();
        // One block's gradients of the gate outputs (`gz`, `gr`, `gc`), of
        // `r⊙h`, and of the gates' pre-activations (`pz`, `pr`, `pc`: what
        // each gate's two products receive).
        let [mut gz, mut gr, mut gc, mut grh, mut pz, mut pr, mut pc] =
            [(); 7].map(|_| self.alloc_zero(batch, hid));
        for f in (0..node.x.len()).rev() {
            let Some(g) = self.block_grad(i, f) else {
                continue;
            };
            let (x, h, p) = (node.x[f], node.h[f], node.params[f]);
            let GruGates { z, r, rh, cand } = &node.gates[f];
            let [wz, uz, wr, ur, wh, uh] = &node.weights[f];
            let in_dim = wz.rows();
            let [mut dwz, mut dwr, mut dwh] = [(); 3].map(|_| self.alloc_zero(in_dim, hid));
            let [mut duz, mut dur, mut duh] = [(); 3].map(|_| self.alloc_zero(hid, hid));
            let [mut dbz, mut dbr, mut dbh] = [(); 3].map(|_| self.alloc_zero(1, hid));
            // GruBlend: dz += g⊙(cand-h); dh += g⊙(1-z); dcand += g⊙z.
            let mut gh = self.take_grad(h);
            let hv = &self.nodes[h.0].value;
            for ((((o_z, o_h), o_c), &gi), ((&zi, &hi), &ci)) in gz
                .as_mut_slice()
                .iter_mut()
                .zip(gh.as_mut_slice())
                .zip(gc.as_mut_slice())
                .zip(g.as_slice())
                .zip(z.as_slice().iter().zip(hv.as_slice()).zip(cand.as_slice()))
            {
                *o_z = 0.0 + gi * (ci - hi);
                *o_h += gi * (1.0 - zi);
                *o_c = 0.0 + gi * zi;
            }
            self.nodes[h.0].grad = Some(gh);
            gate_grads(Tanh, &gc, cand, &mut pc, &mut dbh);
            grh.fill_zero();
            gemm_into(false, true, &pc, uh, &mut grh, true);
            gemm_into(true, false, rh, &pc, &mut duh, true);
            self.add_product_nt(x, &pc, wh);
            gemm_into(true, false, &self.nodes[x.0].value, &pc, &mut dwh, true);
            // Mul(r, h): r's gradient, then h's.
            let mut gh = self.take_grad(h);
            let hv = &self.nodes[h.0].value;
            for (((o_r, o_h), &gi), (&hi, &ri)) in gr
                .as_mut_slice()
                .iter_mut()
                .zip(gh.as_mut_slice())
                .zip(grh.as_slice())
                .zip(hv.as_slice().iter().zip(r.as_slice()))
            {
                *o_r = 0.0 + gi * hi;
                *o_h += gi * ri;
            }
            self.nodes[h.0].grad = Some(gh);
            gate_grads(Sigmoid, &gr, r, &mut pr, &mut dbr);
            self.add_product_nt(h, &pr, ur);
            gemm_into(true, false, &self.nodes[h.0].value, &pr, &mut dur, true);
            self.add_product_nt(x, &pr, wr);
            gemm_into(true, false, &self.nodes[x.0].value, &pr, &mut dwr, true);
            gate_grads(Sigmoid, &gz, z, &mut pz, &mut dbz);
            self.add_product_nt(h, &pz, uz);
            gemm_into(true, false, &self.nodes[h.0].value, &pz, &mut duz, true);
            self.add_product_nt(x, &pz, wz);
            gemm_into(true, false, &self.nodes[x.0].value, &pz, &mut dwz, true);
            // Reversed with the blocks below.
            node.grads.extend([
                (p.bh, dbh),
                (p.uh, duh),
                (p.wh, dwh),
                (p.br, dbr),
                (p.ur, dur),
                (p.wr, dwr),
                (p.bz, dbz),
                (p.uz, duz),
                (p.wz, dwz),
            ]);
            self.put_block_grad(i, f, g);
        }
        node.grads.reverse();
        for m in [gz, gr, gc, grh, pz, pr, pc] {
            self.reclaim(m);
        }
    }

    /// `grad(dst) += a · bᵀ`: the input operand's rule of a `MatMul` by
    /// `b`, as one product chain from the prior gradient.
    fn add_product_nt(&mut self, dst: Var, a: &Matrix, b: &Matrix) {
        let mut grad = self.take_grad(dst);
        gemm_into(false, true, a, b, &mut grad, true);
        self.nodes[dst.0].grad = Some(grad);
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
            let mut op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
            let out_value = std::mem::take(&mut self.nodes[i].value);
            self.propagate(i, &mut op, &out_value, &g);
            self.nodes[i].value = out_value;
            self.nodes[i].grad = Some(g);
            self.nodes[i].op = op;
        }
    }

    /// Passes node `i`'s gradient `g` back to its parents by the rule of
    /// its `op` (taken out of the node meanwhile); `out` is its value.
    fn propagate(&mut self, i: usize, op: &mut Op, out: &Matrix, g: &Matrix) {
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
                // dA[r,c] += g[r,c] * w[r]
                let mut ga = self.take_grad(*a);
                let wm = &self.nodes[w.0].value;
                for r in 0..g.rows() {
                    let s = wm[(r, 0)];
                    for (o, &gi) in ga.row_mut(r).iter_mut().zip(g.row(r)) {
                        *o += gi * s;
                    }
                }
                self.nodes[a.0].grad = Some(ga);
                // dW[r] += sum_c g[r,c] * a[r,c]
                let mut gw = self.take_grad(*w);
                let am = &self.nodes[a.0].value;
                for r in 0..g.rows() {
                    let dw: f32 = g.row(r).iter().zip(am.row(r)).map(|(&gi, &x)| gi * x).sum();
                    gw[(r, 0)] += dw;
                }
                self.nodes[w.0].grad = Some(gw);
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
                let start = *start;
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
                let mut p = z.clone();
                crate::math::sigmoid(p.as_mut_slice());
                let dz = p.zip(targets, |pi, yi| (pi - yi) * s);
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
                // Both summed operands receive the pre-activation gradient
                // `act'(y) · g`, the bias its column sums.
                let deriv = |gi: f32, yi: f32| gate_deriv(*kind, gi, yi);
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
            Op::Block(a) => {
                // Marks the fused node reached; its backward reads this
                // gradient from the view (see `Tape::block_grad`).
                self.nodes[a.0].grad.get_or_insert_with(Matrix::default);
            }
            Op::PairAttention { q, k, scale } => self.pair_attention_backward(i, q, k, *scale),
            Op::AttentionSum { alpha, v } => self.attention_sum_backward(i, alpha, v),
            Op::Biel(node) => self.biel_backward(i, node),
            Op::Linear(node) => self.linear_backward(i, node),
            Op::Gru(node) => self.gru_backward(i, node),
        }
    }

    /// Calls `f` with every weight gradient in recording order: each
    /// parameter leaf's, and each fused node's per-block ones in the order
    /// its reference records their leaves. So every [`ParamId`] receives
    /// the same gradients in the same order as from the reference. Nodes
    /// whose gradient never materialised (dead branches) are skipped.
    fn for_each_param_grad(&self, mut f: impl FnMut(ParamId, &Matrix)) {
        for node in &self.nodes {
            if let (Op::Param(id), Some(g)) = (&node.op, &node.grad) {
                f(*id, g);
            }
            for (id, g) in node.op.param_grads() {
                f(*id, g);
            }
        }
    }

    /// Accumulates parameter gradients into the store.
    ///
    /// Call after [`Tape::backward`]. Nodes whose gradient never materialised
    /// (dead branches) are skipped.
    pub fn flush_grads(&self, store: &mut ParamStore) {
        self.for_each_param_grad(|id, g| store.accumulate_grad(id, g));
    }

    /// Accumulates parameter gradients into a detached
    /// [`crate::param::GradBuffer`] instead of the shared store — the
    /// per-shard half of data-parallel training, where workers must not
    /// touch the store concurrently.
    pub fn flush_grads_into(&self, buf: &mut crate::param::GradBuffer) {
        self.for_each_param_grad(|id, g| buf.accumulate(id, g));
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

    /// Records a constant (non-differentiable) input.
    fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Records a parameter leaf by copying its current value from the store.
    fn param(&mut self, ps: &ParamStore, id: ParamId) -> Var {
        let v = self.copy(ps.value(id));
        self.push(v, Op::Param(id))
    }

    fn matmul(&mut self, a: impl Borrow<Var>, b: impl Borrow<Var>) -> Var {
        self.binary(a, b, kernel::matmul, Op::MatMul)
    }

    fn add(&mut self, a: impl Borrow<Var>, b: impl Borrow<Var>) -> Var {
        self.binary(a, b, kernel::add, Op::Add)
    }

    fn add_row_broadcast(&mut self, a: impl Borrow<Var>, bias: impl Borrow<Var>) -> Var {
        self.binary(a, bias, kernel::add_row_broadcast, Op::AddRowBroadcast)
    }

    fn sub(&mut self, a: impl Borrow<Var>, b: impl Borrow<Var>) -> Var {
        self.binary(a, b, kernel::sub, Op::Sub)
    }

    fn mul(&mut self, a: impl Borrow<Var>, b: impl Borrow<Var>) -> Var {
        self.binary(a, b, kernel::mul, Op::Mul)
    }

    fn mul_col_broadcast(&mut self, a: impl Borrow<Var>, w: impl Borrow<Var>) -> Var {
        self.binary(a, w, kernel::mul_col_broadcast, Op::MulColBroadcast)
    }

    fn scale(&mut self, a: impl Borrow<Var>, s: f32) -> Var {
        let a = *a.borrow();
        let buf = self.grab();
        let v = kernel::scale(buf, self.value(a), s);
        self.push(v, Op::Scale(a, s))
    }

    fn transpose(&mut self, a: impl Borrow<Var>) -> Var {
        let a = *a.borrow();
        let v = self.nodes[a.0].value.transpose();
        self.push(v, Op::Transpose(a))
    }

    fn sigmoid(&mut self, a: impl Borrow<Var>) -> Var {
        self.unary(a, kernel::sigmoid, Op::Sigmoid)
    }

    fn tanh(&mut self, a: impl Borrow<Var>) -> Var {
        self.unary(a, kernel::tanh, Op::Tanh)
    }

    fn gate_sigmoid(
        &mut self,
        a: impl Borrow<Var>,
        b: impl Borrow<Var>,
        bias: impl Borrow<Var>,
    ) -> Var {
        self.gate_act(a, b, bias, GateKind::Sigmoid)
    }

    fn gate_tanh(
        &mut self,
        a: impl Borrow<Var>,
        b: impl Borrow<Var>,
        bias: impl Borrow<Var>,
    ) -> Var {
        self.gate_act(a, b, bias, GateKind::Tanh)
    }

    fn gru_blend(
        &mut self,
        z: impl Borrow<Var>,
        h: impl Borrow<Var>,
        cand: impl Borrow<Var>,
    ) -> Var {
        let (z, h, cand) = (*z.borrow(), *h.borrow(), *cand.borrow());
        let buf = self.grab();
        let v = kernel::gru_blend(buf, self.value(z), self.value(h), self.value(cand));
        self.push(v, Op::GruBlend(z, h, cand))
    }

    fn softmax_rows(&mut self, a: impl Borrow<Var>) -> Var {
        let a = *a.borrow();
        let v = self.nodes[a.0].value.softmax_rows();
        self.push(v, Op::SoftmaxRows(a))
    }

    fn sum_cols(&mut self, a: impl Borrow<Var>) -> Var {
        let a = *a.borrow();
        let v = self.nodes[a.0].value.sum_cols();
        self.push(v, Op::SumCols(a))
    }

    fn concat_cols(&mut self, parts: &[impl Borrow<Var>]) -> Var {
        assert!(!parts.is_empty(), "concat_cols needs at least one node");
        let parts: Vec<Var> = parts.iter().map(|v| *v.borrow()).collect();
        let mats: Vec<&Matrix> = parts.iter().map(|v| &self.nodes[v.0].value).collect();
        let v = Matrix::concat_cols(&mats);
        self.push(v, Op::ConcatCols(parts))
    }

    fn slice_cols(&mut self, a: impl Borrow<Var>, start: usize, end: usize) -> Var {
        let a = *a.borrow();
        let v = self.nodes[a.0].value.slice_cols(start, end);
        self.push(v, Op::SliceCols(a, start))
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

    fn biel_blocks(
        &mut self,
        ps: &ParamStore,
        biel: &[Biel],
        step: &Matrix,
        mask: &Matrix,
    ) -> Vec<Var> {
        if biel.is_empty() {
            return Vec::new();
        }
        let buf = self.grab();
        let value = kernel::biel(buf, ps, biel, step, mask);
        let node = BielNode {
            biel: biel.to_vec(),
            step: self.copy(step),
            mask: self.copy(mask),
            grads: Vec::new(),
        };
        self.push_stacked(value, Op::Biel(Box::new(node)), biel.len())
    }

    fn linear_blocks(
        &mut self,
        ps: &ParamStore,
        layer: &Linear,
        x: &Vec<Var>,
        act: Act,
    ) -> Vec<Var> {
        if x.is_empty() {
            return Vec::new();
        }
        let shape = self.nodes[x[0].0].value.shape();
        let mut buf = self.grab();
        for block in self.block_values(x, shape) {
            buf.extend_from_slice(block);
        }
        let stacked = Matrix::from_vec(x.len() * shape.0, shape.1, buf);
        let mut value = self.scratch();
        Weights::f32(ps).linear(layer, &stacked, act, &mut value);
        self.reclaim(stacked);
        let node = LinearNode {
            x: x.clone(),
            w: layer.weight(),
            b: layer.bias(),
            act,
            weight: self.copy(ps.value(layer.weight())),
            grads: Vec::new(),
        };
        self.push_stacked(value, Op::Linear(Box::new(node)), x.len())
    }

    fn gru_blocks(
        &mut self,
        ps: &ParamStore,
        cells: &[GruCell],
        x: &Vec<Var>,
        h: &Vec<Var>,
    ) -> Vec<Var> {
        assert_eq!(cells.len(), x.len(), "one GRU cell per input block");
        assert_eq!(h.len(), x.len(), "GRU input and state block counts differ");
        if x.is_empty() {
            return Vec::new();
        }
        let (batch, hid) = self.nodes[h[0].0].value.shape();
        let n = batch * hid;
        let mut value = self.alloc_zero(x.len() * batch, hid);
        let mut gates = Vec::with_capacity(cells.len());
        let mut weights = Vec::with_capacity(cells.len());
        for (f, cell) in cells.iter().enumerate() {
            let p = cell.params();
            let mut step = GruGates {
                z: self.scratch(),
                r: self.scratch(),
                rh: self.scratch(),
                cand: self.scratch(),
            };
            let (xv, hv) = (&self.nodes[x[f].0].value, &self.nodes[h[f].0].value);
            assert_eq!(
                hv.shape(),
                (batch, hid),
                "grouped values must share a shape"
            );
            let out = &mut value.as_mut_slice()[f * n..(f + 1) * n];
            self.gru.step(Weights::f32(ps), p, (xv, hv), &mut step, out);
            gates.push(step);
            weights.push([p.wz, p.uz, p.wr, p.ur, p.wh, p.uh].map(|id| self.copy(ps.value(id))));
        }
        let node = GruNode {
            x: x.clone(),
            h: h.clone(),
            params: cells.iter().map(GruCell::params).collect(),
            gates,
            weights,
            grads: Vec::new(),
        };
        self.push_stacked(value, Op::Gru(Box::new(node)), x.len())
    }

    fn pair_attention(&mut self, q: &Vec<Var>, k: &Vec<Var>, scale: f32) -> Vec<Var> {
        assert_eq!(q.len(), k.len(), "query and key block counts differ");
        let Some(&first) = q.first() else {
            return Vec::new();
        };
        let shape = self.nodes[first.0].value.shape();
        let buf = self.grab();
        let value = kernel::pair_attention(
            buf,
            &self.block_values(q, shape),
            &self.block_values(k, shape),
            shape,
            scale,
        );
        let op = Op::PairAttention {
            q: q.clone(),
            k: k.clone(),
            scale,
        };
        self.push_stacked(value, op, q.len())
    }

    fn attention_sum(&mut self, alpha: &Vec<Var>, v: &Vec<Var>) -> Vec<Var> {
        assert_eq!(
            alpha.len(),
            v.len(),
            "attention and value block counts differ"
        );
        let Some(&first) = v.first() else {
            return Vec::new();
        };
        let shape = self.nodes[first.0].value.shape();
        let buf = self.grab();
        let value = kernel::attention_sum(
            buf,
            &self.block_values(alpha, (shape.0, alpha.len())),
            &self.block_values(v, shape),
            shape,
        );
        let op = Op::AttentionSum {
            alpha: alpha.clone(),
            v: v.clone(),
        };
        self.push_stacked(value, op, v.len())
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
