//! One forward definition, two executors.
//!
//! Model code (layers in [`crate::nn`], and the CohortNet modules built on
//! them) is written once against the [`Exec`] trait. Two executors run it:
//!
//! * [`crate::tape::Tape`] records every op as a graph node, so the same
//!   forward can be differentiated (training, interpretation);
//! * [`Eager`] computes values only, dropping each temporary as soon as the
//!   model code does — serving and cohort discovery.
//!
//! Weights enter by [`ParamId`] ([`Exec::param`]), never as values: the tape
//! copies them into leaf nodes, the eager executor borrows them from the
//! [`ParamStore`] and, when built with [`QuantWeights`], runs `x · W` through
//! the int8 [`qgemm`](crate::quant::qgemm) for every weight that has an int8
//! stand-in.
//!
//! Both executors compute each op's value with the same `kernel`
//! function, so a forward run eagerly is bit-identical to the same forward
//! recorded on a tape. Every op also maps input row `r` to output row `r`
//! without reading other rows (matmuls by the GEMM contract), so a patient's
//! output does not depend on which other patients share the batch.
//!
//! # Grouped ops
//!
//! A per-feature model (one channel per medical feature) applies the same
//! few layers to `F` feature blocks at every time step. Written with the
//! primitive ops that is thousands of tiny ops per step, so the trait also
//! has **grouped ops** over a group [`Exec::G`] of `F` same-shaped
//! per-feature values (`batch x d` each):
//!
//! | op | block `f` of the result |
//! |----|--------------------------|
//! | [`Exec::biel_blocks`] | the [`Biel`] embedding of column `f` of one step |
//! | [`Exec::linear_blocks`] | `act(x_f W + b)`, one weight shared by all blocks |
//! | [`Exec::gru_blocks`] | `cells[f]`'s GRU step on `(x_f, h_f)` — one weight set per block |
//! | [`Exec::concat_blocks`] | the column concatenation of the parts' blocks `f` |
//! | [`Exec::pair_attention`] | `α_f = softmax_j(scale · Σ_c q_f ⊙ k_j)` (`batch x F`) |
//! | [`Exec::attention_sum`] | `u_f = v_0·α_f0 + v_1·α_f1 + …`, `j` left to right |
//!
//! **Contract.** Each grouped op's default body is its *reference*: the
//! primitive-op composition in [`mod@reference`], which the tape records node by
//! node (so training graphs and gradients are those of the per-feature
//! loops). An executor may override a grouped op only with a computation
//! that equals the reference bit for bit, for every input — including
//! signed zeros, quantized weights and every SIMD backend. [`Eager`]
//! overrides all of them with fused kernels over a [`Stack`]: the `F`
//! blocks stacked as `F·batch` rows of one matrix, so a shared weight is one
//! GEMM over all blocks and each op allocates one output instead of one
//! per primitive. Stacking cannot move a bit: the GEMM computes every
//! element as one `k`-ascending chain and rows independently, and the int8
//! [`qgemm`](crate::quant::qgemm) quantizes activations per row.

use crate::gemm::gemm_into;
use crate::matrix::{softmax_in_place, Matrix};
use crate::nn::{Biel, GruCell, Linear};
use crate::param::{ParamId, ParamStore};
use crate::quant::{qgemm, qgemm_rows, QuantRows, QuantWeights};

/// The activation a grouped [`Exec::linear_blocks`] applies to `x W + b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// No activation.
    Identity,
    /// Hyperbolic tangent.
    Tanh,
}

/// An executor of model forward passes (see the module docs).
///
/// Operands are passed by reference; `Self::V` is a cheap node handle on the
/// tape and an owned value on the eager executor.
pub trait Exec: Sized {
    /// A computed value (or a handle to one).
    type V: Clone;
    /// A group of `F` same-shaped per-feature values, the operand of the
    /// grouped ops (see the module docs).
    type G;

    /// The matrix behind `v`.
    fn value<'s>(&'s self, v: &'s Self::V) -> &'s Matrix;
    /// A constant (non-differentiable) input.
    fn constant(&mut self, value: Matrix) -> Self::V;
    /// The current value of parameter `id` in `ps`.
    fn param(&mut self, ps: &ParamStore, id: ParamId) -> Self::V;
    /// Matrix product `a · b`.
    fn matmul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Element-wise sum of equally shaped values.
    fn add(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `(r x c) + (1 x c)`: adds a row vector (bias) to every row.
    fn add_row_broadcast(&mut self, a: &Self::V, bias: &Self::V) -> Self::V;
    /// Element-wise (Hadamard) product.
    fn mul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `(r x c) * (r x 1)`: scales row `r` of `a` by `w[r]`.
    fn mul_col_broadcast(&mut self, a: &Self::V, w: &Self::V) -> Self::V;
    /// Multiplication by a scalar.
    fn scale(&mut self, a: &Self::V, s: f32) -> Self::V;
    /// Transposed copy.
    fn transpose(&mut self, a: &Self::V) -> Self::V;
    /// Element-wise logistic sigmoid.
    fn sigmoid(&mut self, a: &Self::V) -> Self::V;
    /// Element-wise hyperbolic tangent.
    fn tanh(&mut self, a: &Self::V) -> Self::V;
    /// Fused gate `σ(a + b + bias)`.
    fn gate_sigmoid(&mut self, a: &Self::V, b: &Self::V, bias: &Self::V) -> Self::V;
    /// Fused gate `tanh(a + b + bias)`.
    fn gate_tanh(&mut self, a: &Self::V, b: &Self::V, bias: &Self::V) -> Self::V;
    /// Fused GRU state blend `(1 - z) ⊙ h + z ⊙ cand`.
    fn gru_blend(&mut self, z: &Self::V, h: &Self::V, cand: &Self::V) -> Self::V;
    /// Row-wise softmax.
    fn softmax_rows(&mut self, a: &Self::V) -> Self::V;
    /// Row sums: `(r x c) -> (r x 1)`.
    fn sum_cols(&mut self, a: &Self::V) -> Self::V;
    /// Horizontal concatenation of values sharing a row count.
    fn concat_cols(&mut self, parts: &[&Self::V]) -> Self::V;
    /// Copy of columns `[start, end)`.
    fn slice_cols(&mut self, a: &Self::V, start: usize, end: usize) -> Self::V;

    /// Groups per-feature values of one shape: block `f` is `parts[f]`.
    fn group(&mut self, parts: Vec<Self::V>) -> Self::G;
    /// The per-feature values of `g`, in block order.
    fn ungroup(&mut self, g: &Self::G) -> Vec<Self::V>;
    /// Row `r` of block `f` of `g`.
    fn block_row<'s>(&'s self, g: &'s Self::G, f: usize, r: usize) -> &'s [f32];

    /// BiEL embeddings of every column of one `batch x F` step (`biel[f]`
    /// embeds column `f`; presence flags in `mask`).
    fn biel_blocks(
        &mut self,
        ps: &ParamStore,
        biel: &[Biel],
        step: &Matrix,
        mask: &Matrix,
    ) -> Self::G {
        reference::biel_blocks(self, ps, biel, step, mask)
    }

    /// `layer` applied to every block, followed by `act`.
    fn linear_blocks(&mut self, ps: &ParamStore, layer: &Linear, x: &Self::G, act: Act) -> Self::G {
        reference::linear_blocks(self, ps, layer, x, act)
    }

    /// One GRU step per block: block `f` steps `cells[f]` on input block `f`
    /// of `x` and state block `f` of `h`.
    fn gru_blocks(
        &mut self,
        ps: &ParamStore,
        cells: &[GruCell],
        x: &Self::G,
        h: &Self::G,
    ) -> Self::G {
        reference::gru_blocks(self, ps, cells, x, h)
    }

    /// Block-wise horizontal concatenation of groups with one block count.
    fn concat_blocks(&mut self, parts: &[&Self::G]) -> Self::G {
        reference::concat_blocks(self, parts)
    }

    /// Scaled-dot attention of every query block over every key block:
    /// block `i` is `softmax_j(scale · rowsum(q_i ⊙ k_j))` (`batch x F`).
    fn pair_attention(&mut self, q: &Self::G, k: &Self::G, scale: f32) -> Self::G {
        reference::pair_attention(self, q, k, scale)
    }

    /// Attention-weighted sums: block `i` is `Σ_j v_j · alpha_i[:, j]`,
    /// accumulated `j` left to right.
    fn attention_sum(&mut self, alpha: &Self::G, v: &Self::G) -> Self::G {
        reference::attention_sum(self, alpha, v)
    }
}

/// The grouped ops written with primitive ops — their definitions and the
/// bodies the tape records (see the module docs). Each processes the blocks
/// one after another, exactly as a per-feature loop would.
pub mod reference {
    use super::{Act, Exec};
    use crate::matrix::Matrix;
    use crate::nn::{Biel, GruCell, Linear};
    use crate::param::ParamStore;

    /// See [`Exec::biel_blocks`].
    pub fn biel_blocks<E: Exec>(
        e: &mut E,
        ps: &ParamStore,
        biel: &[Biel],
        step: &Matrix,
        mask: &Matrix,
    ) -> E::G {
        let parts = biel
            .iter()
            .enumerate()
            .map(|(f, ch)| ch.forward(e, ps, step, mask, f))
            .collect();
        e.group(parts)
    }

    /// See [`Exec::linear_blocks`].
    pub fn linear_blocks<E: Exec>(
        e: &mut E,
        ps: &ParamStore,
        layer: &Linear,
        x: &E::G,
        act: Act,
    ) -> E::G {
        let xs = e.ungroup(x);
        let ys = xs
            .iter()
            .map(|x| {
                let y = layer.forward(e, ps, x);
                match act {
                    Act::Identity => y,
                    Act::Tanh => e.tanh(&y),
                }
            })
            .collect();
        e.group(ys)
    }

    /// See [`Exec::gru_blocks`].
    pub fn gru_blocks<E: Exec>(
        e: &mut E,
        ps: &ParamStore,
        cells: &[GruCell],
        x: &E::G,
        h: &E::G,
    ) -> E::G {
        let (xs, hs) = (e.ungroup(x), e.ungroup(h));
        assert_eq!(cells.len(), xs.len(), "one GRU cell per input block");
        let out = cells
            .iter()
            .zip(&xs)
            .zip(&hs)
            .map(|((cell, x), h)| cell.step(e, ps, x, h))
            .collect();
        e.group(out)
    }

    /// See [`Exec::concat_blocks`].
    pub fn concat_blocks<E: Exec>(e: &mut E, parts: &[&E::G]) -> E::G {
        let parts: Vec<Vec<E::V>> = parts.iter().map(|g| e.ungroup(g)).collect();
        let out = (0..parts.first().map_or(0, Vec::len))
            .map(|f| {
                let blocks: Vec<&E::V> = parts.iter().map(|p| &p[f]).collect();
                e.concat_cols(&blocks)
            })
            .collect();
        e.group(out)
    }

    /// See [`Exec::pair_attention`].
    pub fn pair_attention<E: Exec>(e: &mut E, q: &E::G, k: &E::G, scale: f32) -> E::G {
        let (qs, ks) = (e.ungroup(q), e.ungroup(k));
        let alphas = qs
            .iter()
            .map(|q_i| {
                let scores: Vec<E::V> = ks
                    .iter()
                    .map(|k_j| {
                        let qk = e.mul(q_i, k_j);
                        let s = e.sum_cols(&qk);
                        e.scale(&s, scale)
                    })
                    .collect();
                let mat = e.concat_cols(&scores.iter().collect::<Vec<_>>());
                e.softmax_rows(&mat)
            })
            .collect();
        e.group(alphas)
    }

    /// See [`Exec::attention_sum`].
    pub fn attention_sum<E: Exec>(e: &mut E, alpha: &E::G, v: &E::G) -> E::G {
        let (alphas, vs) = (e.ungroup(alpha), e.ungroup(v));
        let us = alphas
            .iter()
            .map(|alpha| {
                let mut u: Option<E::V> = None;
                for (j, v) in vs.iter().enumerate() {
                    let a_j = e.slice_cols(alpha, j, j + 1);
                    let w = e.mul_col_broadcast(v, &a_j);
                    u = Some(match u {
                        Some(acc) => e.add(&acc, &w),
                        None => w,
                    });
                }
                u.expect("attention over at least one block")
            })
            .collect();
        e.group(us)
    }
}

/// The value kernels both executors compute ops with. Each writes into a
/// caller-supplied empty buffer (the tape passes a recycled arena buffer, the
/// eager executor `Vec::new()`) and returns the result matrix.
pub(crate) mod kernel {
    use crate::matrix::Matrix;

    /// Readies the empty `buf` to take `n` values without regrowing: a fresh
    /// buffer is allocated at exactly `n`, a recycled one only grows if it
    /// is too small.
    #[inline]
    fn sized(mut buf: Vec<f32>, n: usize) -> Vec<f32> {
        if buf.capacity() == 0 {
            return Vec::with_capacity(n);
        }
        buf.reserve(n);
        buf
    }

    /// Which activation a fused gate applies.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum GateKind {
        Sigmoid,
        Tanh,
    }

    /// `a · b`, accumulated into a zeroed buffer.
    #[inline]
    pub(crate) fn matmul(buf: Vec<f32>, a: &Matrix, b: &Matrix) -> Matrix {
        let mut buf = sized(buf, a.rows() * b.cols());
        buf.resize(a.rows() * b.cols(), 0.0);
        let mut out = Matrix::from_vec(a.rows(), b.cols(), buf);
        crate::gemm::gemm_into(false, false, a, b, &mut out, true);
        out
    }

    #[inline]
    fn zip(buf: Vec<f32>, a: &Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        let mut buf = sized(buf, a.len());
        buf.extend(
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(&x, &y)| f(x, y)),
        );
        Matrix::from_vec(a.rows(), a.cols(), buf)
    }

    #[inline]
    fn map(buf: Vec<f32>, a: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
        let mut buf = sized(buf, a.len());
        buf.extend(a.as_slice().iter().map(|&x| f(x)));
        Matrix::from_vec(a.rows(), a.cols(), buf)
    }

    #[inline]
    pub(crate) fn add(buf: Vec<f32>, a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.shape(), b.shape(), "add shape mismatch");
        zip(buf, a, b, |x, y| x + y)
    }

    #[inline]
    pub(crate) fn mul(buf: Vec<f32>, a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.shape(), b.shape(), "mul shape mismatch");
        zip(buf, a, b, |x, y| x * y)
    }

    #[inline]
    pub(crate) fn scale(buf: Vec<f32>, a: &Matrix, s: f32) -> Matrix {
        map(buf, a, |x| x * s)
    }

    #[inline]
    pub(crate) fn sigmoid(buf: Vec<f32>, a: &Matrix) -> Matrix {
        map(buf, a, |x| 1.0 / (1.0 + (-x).exp()))
    }

    #[inline]
    pub(crate) fn tanh(buf: Vec<f32>, a: &Matrix) -> Matrix {
        map(buf, a, f32::tanh)
    }

    #[inline]
    pub(crate) fn add_row_broadcast(buf: Vec<f32>, a: &Matrix, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(a.cols(), bias.cols(), "bias width mismatch");
        let bias_row = bias.row(0);
        let mut buf = sized(buf, a.len());
        for r in 0..a.rows() {
            buf.extend(a.row(r).iter().zip(bias_row).map(|(&x, &b)| x + b));
        }
        Matrix::from_vec(a.rows(), a.cols(), buf)
    }

    #[inline]
    pub(crate) fn mul_col_broadcast(buf: Vec<f32>, a: &Matrix, w: &Matrix) -> Matrix {
        assert_eq!(w.cols(), 1, "weight must be a column vector");
        assert_eq!(a.rows(), w.rows(), "weight height mismatch");
        let mut buf = sized(buf, a.len());
        for r in 0..a.rows() {
            let s = w[(r, 0)];
            buf.extend(a.row(r).iter().map(|&x| x * s));
        }
        Matrix::from_vec(a.rows(), a.cols(), buf)
    }

    /// `act(a + b + bias)`. The pre-activation `(x + y) + c` is
    /// SIMD-dispatched (lane-per-element, scalar add order — bit-identical
    /// across backends); the transcendental stays scalar libm.
    #[inline]
    pub(crate) fn gate(
        buf: Vec<f32>,
        a: &Matrix,
        b: &Matrix,
        bias: &Matrix,
        kind: GateKind,
    ) -> Matrix {
        let mut buf = sized(buf, a.len());
        buf.resize(a.len(), 0.0);
        gate_into(&mut buf, a, b, bias, kind);
        Matrix::from_vec(a.rows(), a.cols(), buf)
    }

    /// [`gate`] into `dst` (`a.len()` values).
    #[inline]
    pub(crate) fn gate_into(
        dst: &mut [f32],
        a: &Matrix,
        b: &Matrix,
        bias: &Matrix,
        kind: GateKind,
    ) {
        assert_eq!(a.shape(), b.shape(), "gate operand shape mismatch");
        assert_eq!(bias.rows(), 1, "gate bias must be a row vector");
        assert_eq!(bias.cols(), a.cols(), "gate bias width mismatch");
        assert_eq!(dst.len(), a.len(), "gate output length mismatch");
        let cols = a.cols();
        for r in 0..a.rows() {
            crate::simd::add3(
                &mut dst[r * cols..(r + 1) * cols],
                a.row(r),
                b.row(r),
                bias.row(0),
            );
        }
        match kind {
            GateKind::Sigmoid => dst.iter_mut().for_each(|p| *p = 1.0 / (1.0 + (-*p).exp())),
            GateKind::Tanh => dst.iter_mut().for_each(|p| *p = p.tanh()),
        }
    }

    /// `(1 - z) ⊙ h + z ⊙ cand`, SIMD-dispatched with the scalar op order.
    #[inline]
    pub(crate) fn gru_blend(buf: Vec<f32>, z: &Matrix, h: &Matrix, cand: &Matrix) -> Matrix {
        assert_eq!(z.shape(), h.shape(), "blend shape mismatch");
        assert_eq!(z.shape(), cand.shape(), "blend shape mismatch");
        let mut buf = sized(buf, z.len());
        buf.resize(z.len(), 0.0);
        crate::simd::gru_blend_slices(&mut buf, z.as_slice(), h.as_slice(), cand.as_slice());
        Matrix::from_vec(z.rows(), z.cols(), buf)
    }
}

/// A value computed by [`Eager`]: an owned result, or a weight read from the
/// executor's [`ParamStore`] in place.
#[derive(Debug, Clone)]
pub enum Val {
    /// A computed (or constant) matrix.
    Owned(Matrix),
    /// A parameter, borrowed from the store on use.
    Param(ParamId),
}

/// [`Eager`]'s group of per-feature values: the `F` blocks (`batch x d`
/// each) stacked as the `F·batch` rows of one matrix, block `f` in rows
/// `f·batch .. (f+1)·batch`.
#[derive(Debug, Clone)]
pub struct Stack {
    blocks: usize,
    m: Matrix,
}

impl Stack {
    fn new(blocks: usize, m: Matrix) -> Self {
        assert!(
            blocks == 0 && m.rows() == 0 || blocks > 0 && m.rows().is_multiple_of(blocks),
            "{} rows do not stack {blocks} blocks",
            m.rows()
        );
        Stack { blocks, m }
    }

    /// Rows per block (the batch size).
    fn block_rows(&self) -> usize {
        self.m.rows().checked_div(self.blocks).unwrap_or(0)
    }

    /// Row `r` of block `f`.
    fn row(&self, f: usize, r: usize) -> &[f32] {
        self.m.row(f * self.block_rows() + r)
    }

    /// Block `f`'s `batch x d` values, row-major.
    fn block(&self, f: usize) -> &[f32] {
        let n = self.block_rows() * self.m.cols();
        &self.m.as_slice()[f * n..(f + 1) * n]
    }
}

/// Where [`Eager`] reads weights: the f32 store, and the int8 stand-ins of
/// the quantized ones.
#[derive(Debug, Clone, Copy)]
struct Weights<'a> {
    ps: &'a ParamStore,
    quant: Option<&'a QuantWeights>,
}

impl<'a> Weights<'a> {
    /// The matrix behind `v`.
    fn value<'v>(self, v: &'v Val) -> &'v Matrix
    where
        'a: 'v,
    {
        match v {
            Val::Owned(m) => m,
            Val::Param(id) => self.ps.value(*id),
        }
    }

    /// `out = x · W` for weight `id`: through the int8 kernel when `id` has a
    /// stand-in (from `qx`, `x`'s rows quantized by the caller, when given),
    /// else the f32 GEMM with the chains of [`kernel::matmul`]. `out` is
    /// reshaped to fit.
    fn matmul(self, x: &Matrix, qx: Option<&QuantRows>, id: ParamId, out: &mut Matrix) {
        match self.quant.and_then(|q| q.get(id)) {
            Some(w) => {
                reshape(out, x.rows(), w.n());
                match qx {
                    Some(qx) => qgemm_rows(qx, w, out),
                    None => qgemm(x, w, out),
                }
            }
            None => {
                let w = self.ps.value(id);
                reshape(out, x.rows(), w.cols());
                gemm_into(false, false, x, w, out, false);
            }
        }
    }

    /// Whether any of `ids` has an int8 stand-in.
    fn any_int8(self, ids: &[ParamId]) -> bool {
        self.quant
            .is_some_and(|q| ids.iter().any(|&id| q.get(id).is_some()))
    }
}

/// The product buffers of one fused gate.
#[derive(Debug, Clone, Default)]
struct Products {
    xw: Matrix,
    hu: Matrix,
}

impl Products {
    /// `dst = act(x·W + h·U + b)` for the `[W, U, b]` of one GRU gate — the
    /// values of the reference's two products and fused gate. `qx`/`qh` are
    /// `x`/`h` quantized once for every gate of the step that reads them.
    fn gate(
        &mut self,
        wts: Weights,
        (x, qx): (&Matrix, Option<&QuantRows>),
        (h, qh): (&Matrix, Option<&QuantRows>),
        [w, u, b]: [ParamId; 3],
        kind: kernel::GateKind,
        dst: &mut Matrix,
    ) {
        wts.matmul(x, qx, w, &mut self.xw);
        wts.matmul(h, qh, u, &mut self.hu);
        reshape(dst, self.xw.rows(), self.xw.cols());
        kernel::gate_into(
            dst.as_mut_slice(),
            &self.xw,
            &self.hu,
            wts.ps.value(b),
            kind,
        );
    }
}

/// Work matrices [`Eager`]'s fused kernels reuse across blocks, steps
/// and calls instead of allocating per op.
#[derive(Debug, Clone, Default)]
struct Workspace {
    x: Matrix,
    h: Matrix,
    z: Matrix,
    r: Matrix,
    rh: Matrix,
    cand: Matrix,
    prod: Products,
    qx: QuantRows,
    qh: QuantRows,
}

/// Gives `m` the shape `rows x cols`, reusing its buffer; the contents are
/// left unspecified.
fn reshape(m: &mut Matrix, rows: usize, cols: usize) {
    if m.shape() != (rows, cols) {
        let mut buf = std::mem::take(m).into_vec();
        buf.resize(rows * cols, 0.0);
        *m = Matrix::from_vec(rows, cols, buf);
    }
}

/// Copies block `f` of `g` into `dst`.
fn copy_block(g: &Stack, f: usize, dst: &mut Matrix) {
    reshape(dst, g.block_rows(), g.m.cols());
    dst.as_mut_slice().copy_from_slice(g.block(f));
}

/// The value-only executor: runs a forward definition without recording a
/// graph. Weights are borrowed from `ps`; weights present in the optional
/// [`QuantWeights`] multiply through the int8 kernel instead. The grouped
/// ops run as fused kernels over [`Stack`]s (see the module docs).
#[derive(Debug, Clone)]
pub struct Eager<'a> {
    w: Weights<'a>,
    work: Workspace,
}

impl<'a> Eager<'a> {
    /// An f32 executor over `ps`.
    pub fn new(ps: &'a ParamStore) -> Self {
        Eager {
            w: Weights { ps, quant: None },
            work: Workspace::default(),
        }
    }

    /// An executor over `ps` whose `x · W` products use the int8 stand-in
    /// of `W` wherever `quant` has one.
    pub fn quantized(ps: &'a ParamStore, quant: &'a QuantWeights) -> Self {
        Eager {
            w: Weights {
                ps,
                quant: Some(quant),
            },
            work: Workspace::default(),
        }
    }

    /// Takes the matrix out of `v` (copying only when `v` is a weight).
    pub fn into_matrix(&self, v: Val) -> Matrix {
        match v {
            Val::Owned(m) => m,
            Val::Param(id) => self.w.ps.value(id).clone(),
        }
    }

    fn check_store(&self, ps: &ParamStore) {
        debug_assert!(
            std::ptr::eq(ps, self.w.ps),
            "eager executor asked for a weight of a different store"
        );
    }
}

impl Exec for Eager<'_> {
    type V = Val;
    type G = Stack;

    fn value<'s>(&'s self, v: &'s Val) -> &'s Matrix {
        self.w.value(v)
    }

    fn constant(&mut self, value: Matrix) -> Val {
        Val::Owned(value)
    }

    fn param(&mut self, ps: &ParamStore, id: ParamId) -> Val {
        self.check_store(ps);
        Val::Param(id)
    }

    fn matmul(&mut self, a: &Val, b: &Val) -> Val {
        let x = self.w.value(a);
        match b {
            Val::Param(id) => {
                let mut out = Matrix::default();
                self.w.matmul(x, None, *id, &mut out);
                Val::Owned(out)
            }
            Val::Owned(w) => Val::Owned(kernel::matmul(Vec::new(), x, w)),
        }
    }

    fn add(&mut self, a: &Val, b: &Val) -> Val {
        Val::Owned(kernel::add(Vec::new(), self.value(a), self.value(b)))
    }

    fn add_row_broadcast(&mut self, a: &Val, bias: &Val) -> Val {
        Val::Owned(kernel::add_row_broadcast(
            Vec::new(),
            self.value(a),
            self.value(bias),
        ))
    }

    fn mul(&mut self, a: &Val, b: &Val) -> Val {
        Val::Owned(kernel::mul(Vec::new(), self.value(a), self.value(b)))
    }

    fn mul_col_broadcast(&mut self, a: &Val, w: &Val) -> Val {
        Val::Owned(kernel::mul_col_broadcast(
            Vec::new(),
            self.value(a),
            self.value(w),
        ))
    }

    fn scale(&mut self, a: &Val, s: f32) -> Val {
        Val::Owned(kernel::scale(Vec::new(), self.value(a), s))
    }

    fn transpose(&mut self, a: &Val) -> Val {
        Val::Owned(self.value(a).transpose())
    }

    fn sigmoid(&mut self, a: &Val) -> Val {
        Val::Owned(kernel::sigmoid(Vec::new(), self.value(a)))
    }

    fn tanh(&mut self, a: &Val) -> Val {
        Val::Owned(kernel::tanh(Vec::new(), self.value(a)))
    }

    fn gate_sigmoid(&mut self, a: &Val, b: &Val, bias: &Val) -> Val {
        let (a, b, bias) = (self.value(a), self.value(b), self.value(bias));
        Val::Owned(kernel::gate(
            Vec::new(),
            a,
            b,
            bias,
            kernel::GateKind::Sigmoid,
        ))
    }

    fn gate_tanh(&mut self, a: &Val, b: &Val, bias: &Val) -> Val {
        let (a, b, bias) = (self.value(a), self.value(b), self.value(bias));
        Val::Owned(kernel::gate(Vec::new(), a, b, bias, kernel::GateKind::Tanh))
    }

    fn gru_blend(&mut self, z: &Val, h: &Val, cand: &Val) -> Val {
        Val::Owned(kernel::gru_blend(
            Vec::new(),
            self.value(z),
            self.value(h),
            self.value(cand),
        ))
    }

    fn softmax_rows(&mut self, a: &Val) -> Val {
        Val::Owned(self.value(a).softmax_rows())
    }

    fn sum_cols(&mut self, a: &Val) -> Val {
        Val::Owned(self.value(a).sum_cols())
    }

    fn concat_cols(&mut self, parts: &[&Val]) -> Val {
        let mats: Vec<&Matrix> = parts.iter().map(|v| self.value(v)).collect();
        Val::Owned(Matrix::concat_cols(&mats))
    }

    fn slice_cols(&mut self, a: &Val, start: usize, end: usize) -> Val {
        Val::Owned(self.value(a).slice_cols(start, end))
    }

    fn group(&mut self, parts: Vec<Val>) -> Stack {
        if parts.is_empty() {
            return Stack::new(0, Matrix::zeros(0, 0));
        }
        let mats: Vec<&Matrix> = parts.iter().map(|v| self.value(v)).collect();
        let rows = mats[0].rows();
        assert!(
            mats.iter().all(|m| m.rows() == rows),
            "grouped values must share a shape"
        );
        Stack::new(parts.len(), Matrix::concat_rows(&mats))
    }

    fn ungroup(&mut self, g: &Stack) -> Vec<Val> {
        let n = g.block_rows();
        (0..g.blocks)
            .map(|f| Val::Owned(g.m.slice_rows(f * n, (f + 1) * n)))
            .collect()
    }

    fn block_row<'s>(&'s self, g: &'s Stack, f: usize, r: usize) -> &'s [f32] {
        g.row(f, r)
    }

    fn biel_blocks(
        &mut self,
        ps: &ParamStore,
        biel: &[Biel],
        step: &Matrix,
        mask: &Matrix,
    ) -> Stack {
        self.check_store(ps);
        let quantized = biel.iter().any(|ch| {
            let (a, b, m) = ch.params();
            self.w.any_int8(&[a, b, m])
        });
        if quantized {
            return reference::biel_blocks(self, ps, biel, step, mask);
        }
        let batch = step.rows();
        let dim = biel.first().map_or(0, |ch| ps.value(ch.params().0).cols());
        let mut out = Matrix::zeros(biel.len() * batch, dim);
        for (f, ch) in biel.iter().enumerate() {
            let (a, b, m) = ch.params();
            let (va, vb, vm) = (ps.value(a).row(0), ps.value(b).row(0), ps.value(m).row(0));
            for r in 0..batch {
                let (wa, wb, present) = ch.weights(step[(r, f)], mask[(r, f)]);
                let (on, off) = (f32::from(present), f32::from(!present));
                let row = out.row_mut(f * batch + r);
                for (c, o) in row.iter_mut().enumerate() {
                    // Each reference product is a k = 1 GEMM, whose chain
                    // starts at +0.0: `0.0 + w·v` (a -0.0 product becomes
                    // +0.0) is part of the definition.
                    *o = ((0.0 + wa * va[c]) + (0.0 + wb * vb[c])) * on + (0.0 + off * vm[c]);
                }
            }
        }
        Stack::new(biel.len(), out)
    }

    fn linear_blocks(&mut self, ps: &ParamStore, layer: &Linear, x: &Stack, act: Act) -> Stack {
        self.check_store(ps);
        let mut out = Matrix::zeros(0, 0);
        self.w.matmul(&x.m, None, layer.weight(), &mut out);
        if let Some(b) = layer.bias() {
            let bias = ps.value(b);
            assert_eq!(bias.shape(), (1, out.cols()), "bias width mismatch");
            let bias = bias.row(0);
            for r in 0..out.rows() {
                out.row_mut(r)
                    .iter_mut()
                    .zip(bias)
                    .for_each(|(o, &b)| *o += b);
            }
        }
        if act == Act::Tanh {
            out.as_mut_slice().iter_mut().for_each(|o| *o = o.tanh());
        }
        Stack::new(x.blocks, out)
    }

    fn gru_blocks(&mut self, ps: &ParamStore, cells: &[GruCell], x: &Stack, h: &Stack) -> Stack {
        use kernel::GateKind::{Sigmoid, Tanh};
        self.check_store(ps);
        assert_eq!(cells.len(), x.blocks, "one GRU cell per input block");
        assert_eq!(
            h.blocks, x.blocks,
            "GRU input and state block counts differ"
        );
        let wts = self.w;
        let Workspace {
            x: xs,
            h: hs,
            z,
            r,
            rh,
            cand,
            prod,
            qx,
            qh,
        } = &mut self.work;
        let mut out = Matrix::zeros(h.m.rows(), h.m.cols());
        let block_len = h.block_rows() * h.m.cols();
        for (f, cell) in cells.iter().enumerate() {
            let p = cell.params();
            copy_block(x, f, xs);
            copy_block(h, f, hs);
            // An int8 cell quantizes `x`, `h` and `r⊙h` once per step
            // for every gate that reads them.
            let int8 = wts.any_int8(&[p.wz, p.uz, p.wr, p.ur, p.wh, p.uh]);
            if int8 {
                qx.quantize(xs);
                qh.quantize(hs);
            }
            let xq = (&*xs, int8.then_some(&*qx));
            let hq = (&*hs, int8.then_some(&*qh));
            prod.gate(wts, xq, hq, [p.wz, p.uz, p.bz], Sigmoid, z);
            prod.gate(wts, xq, hq, [p.wr, p.ur, p.br], Sigmoid, r);
            reshape(rh, hs.rows(), hs.cols());
            for ((o, &rv), &hv) in rh
                .as_mut_slice()
                .iter_mut()
                .zip(r.as_slice())
                .zip(hs.as_slice())
            {
                *o = rv * hv;
            }
            if int8 {
                qh.quantize(rh);
            }
            prod.gate(
                wts,
                xq,
                (rh, int8.then_some(&*qh)),
                [p.wh, p.uh, p.bh],
                Tanh,
                cand,
            );
            crate::simd::gru_blend_slices(
                &mut out.as_mut_slice()[f * block_len..(f + 1) * block_len],
                z.as_slice(),
                hs.as_slice(),
                cand.as_slice(),
            );
        }
        Stack::new(x.blocks, out)
    }

    fn concat_blocks(&mut self, parts: &[&Stack]) -> Stack {
        let blocks = parts.first().map_or(0, |p| p.blocks);
        assert!(
            parts.iter().all(|p| p.blocks == blocks),
            "concatenated groups must share a block count"
        );
        let mats: Vec<&Matrix> = parts.iter().map(|p| &p.m).collect();
        Stack::new(blocks, Matrix::concat_cols(&mats))
    }

    fn pair_attention(&mut self, q: &Stack, k: &Stack, scale: f32) -> Stack {
        assert_eq!(q.blocks, k.blocks, "query and key block counts differ");
        let (nf, batch) = (q.blocks, q.block_rows());
        let mut out = Matrix::zeros(nf * batch, nf);
        for i in 0..nf {
            for r in 0..batch {
                let q_ir = q.row(i, r);
                let row = out.row_mut(i * batch + r);
                for (j, s) in row.iter_mut().enumerate() {
                    let dot: f32 = q_ir.iter().zip(k.row(j, r)).map(|(&a, &b)| a * b).sum();
                    *s = dot * scale;
                }
                softmax_in_place(row);
            }
        }
        Stack::new(nf, out)
    }

    fn attention_sum(&mut self, alpha: &Stack, v: &Stack) -> Stack {
        assert_eq!(
            alpha.blocks, v.blocks,
            "attention and value block counts differ"
        );
        let (nf, batch) = (alpha.blocks, alpha.block_rows());
        let mut out = Matrix::zeros(nf * batch, v.m.cols());
        for i in 0..nf {
            for r in 0..batch {
                let a = alpha.row(i, r);
                let u = out.row_mut(i * batch + r);
                for (j, &a_ij) in a.iter().enumerate() {
                    let v_jr = v.row(j, r);
                    if j == 0 {
                        u.iter_mut().zip(v_jr).for_each(|(o, &x)| *o = x * a_ij);
                    } else {
                        u.iter_mut().zip(v_jr).for_each(|(o, &x)| *o += x * a_ij);
                    }
                }
            }
        }
        Stack::new(nf, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::{qgemm, QuantMatrix};
    use crate::tape::Tape;

    fn m(rows: usize, cols: usize, seed: u32) -> Matrix {
        // Deterministic awkward fill: mixes signs, magnitudes and zeros.
        Matrix::from_fn(rows, cols, |r, c| {
            let v = ((r * 31 + c * 17 + seed as usize) % 13) as f32 - 6.0;
            v * 0.37
        })
    }

    /// Every op of the trait, once, written generically — run on both
    /// executors below.
    fn every_op<E: Exec>(e: &mut E, ps: &ParamStore, ids: &[ParamId]) -> Vec<Matrix> {
        let a = e.param(ps, ids[0]);
        let b = e.param(ps, ids[1]);
        let bias = e.param(ps, ids[2]);
        let w = e.constant(m(4, 1, 4));
        let sq = e.constant(m(5, 3, 5));
        let outs = [
            e.matmul(&a, &sq),
            e.add(&a, &b),
            e.add_row_broadcast(&a, &bias),
            e.mul(&a, &b),
            e.mul_col_broadcast(&a, &w),
            e.scale(&a, -0.3),
            e.transpose(&a),
            e.sigmoid(&a),
            e.tanh(&a),
            e.gate_sigmoid(&a, &b, &bias),
            e.gate_tanh(&a, &b, &bias),
            e.softmax_rows(&a),
            e.sum_cols(&a),
            e.concat_cols(&[&a, &w, &b]),
            e.slice_cols(&a, 1, 3),
        ];
        let z = e.sigmoid(&a);
        let blend = e.gru_blend(&z, &b, &a);
        outs.iter()
            .chain(std::iter::once(&blend))
            .map(|v| e.value(v).clone())
            .collect()
    }

    fn store() -> (ParamStore, Vec<ParamId>) {
        let mut ps = ParamStore::new();
        let ids = vec![
            ps.register("a", m(4, 5, 1)),
            ps.register("b", m(4, 5, 2)),
            ps.register("bias", m(1, 5, 3)),
        ];
        (ps, ids)
    }

    /// The eager executor computes every op to the bit of the tape.
    #[test]
    fn eager_ops_match_tape_bitwise() {
        let (ps, ids) = store();
        let want = every_op(&mut Tape::new(), &ps, &ids);
        let got = every_op(&mut Eager::new(&ps), &ps, &ids);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.shape(), w.shape(), "op {i} shape");
            for (gv, wv) in g.as_slice().iter().zip(w.as_slice()) {
                assert_eq!(gv.to_bits(), wv.to_bits(), "op {i} drifted");
            }
        }
    }

    /// The SIMD-dispatched gate/blend kernels equal the plain scalar
    /// expressions (`σ((x + y) + c)`, `(1 - z)·h + z·c`) on every backend
    /// the host supports, including ragged row widths.
    #[test]
    fn gate_kernels_bit_identical_across_backends() {
        let a = m(5, 19, 7);
        let b = m(5, 19, 8);
        let bias = m(1, 19, 9);
        let z = a.map(|x| 1.0 / (1.0 + (-x).exp()));
        let cand = b.map(f32::tanh);
        let pre = |r: usize, c: usize| a[(r, c)] + b[(r, c)] + bias[(0, c)];
        let want = [
            Matrix::from_fn(5, 19, |r, c| 1.0 / (1.0 + (-pre(r, c)).exp())),
            Matrix::from_fn(5, 19, |r, c| pre(r, c).tanh()),
            Matrix::from_fn(5, 19, |r, c| {
                (1.0 - z[(r, c)]) * a[(r, c)] + z[(r, c)] * cand[(r, c)]
            }),
        ];
        let before = crate::simd::active();
        for backend in crate::simd::supported_backends() {
            assert!(crate::simd::set_backend(backend));
            let got = [
                kernel::gate(Vec::new(), &a, &b, &bias, kernel::GateKind::Sigmoid),
                kernel::gate(Vec::new(), &a, &b, &bias, kernel::GateKind::Tanh),
                kernel::gru_blend(Vec::new(), &z, &a, &cand),
            ];
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                for (gv, wv) in g.as_slice().iter().zip(w.as_slice()) {
                    assert_eq!(gv.to_bits(), wv.to_bits(), "op {i} drifted on {backend:?}");
                }
            }
        }
        crate::simd::set_backend(before);
    }

    /// Inputs and weights of the grouped-op bit tests: `nf` blocks of
    /// `batch` rows, ragged widths (embedding 5, hidden 11, linear 5 -> 7),
    /// raw values at, beyond and between the BiEL bounds, absent features
    /// and `-0.0` entries in every input and weight.
    struct Grouped {
        ps: ParamStore,
        biel: Vec<Biel>,
        lin: Linear,
        lin_nb: Linear,
        cells: Vec<GruCell>,
        step: Matrix,
        mask: Matrix,
        xs: Vec<Matrix>,
        hs: Vec<Matrix>,
        wide: Vec<Matrix>,
        alpha: Vec<Matrix>,
    }

    /// `m` with every third entry replaced by `-0.0`.
    fn signed(rows: usize, cols: usize, seed: u32) -> Matrix {
        let mut out = m(rows, cols, seed);
        out.as_mut_slice()
            .iter_mut()
            .step_by(3)
            .for_each(|v| *v = -0.0);
        out
    }

    fn grouped(batch: usize, nf: usize) -> Grouped {
        use rand::SeedableRng;
        let (d, hid) = (5, 11);
        let mut ps = ParamStore::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let biel = (0..nf)
            .map(|f| {
                Biel::new(
                    &mut ps,
                    &mut rng,
                    &format!("b{f}"),
                    d,
                    (-1.0 + f as f32 * 0.1, 1.5),
                )
            })
            .collect();
        let lin = Linear::new(&mut ps, &mut rng, "lin", d, 7);
        let lin_nb = Linear::new_no_bias(&mut ps, &mut rng, "lin_nb", d, 7);
        let cells = (0..nf)
            .map(|f| GruCell::new(&mut ps, &mut rng, &format!("g{f}"), d, hid))
            .collect();
        // Overwrite every weight (zero-initialised biases included) with an
        // awkward fill.
        let ids: Vec<ParamId> = (0..ps.len()).map(ParamId).collect();
        for (i, id) in ids.into_iter().enumerate() {
            let (r, c) = ps.value(id).shape();
            *ps.value_mut(id) = signed(r, c, 11 + i as u32);
        }
        let step = Matrix::from_fn(batch, nf, |r, f| match (r + 2 * f) % 5 {
            0 => -1.0 + f as f32 * 0.1, // exactly the lower bound: w_a = 0
            1 => 1.5,                   // exactly the upper bound: w_b = 0
            2 => -0.0,
            3 => 7.0, // clamped
            _ => 0.3 * r as f32 - 0.2,
        });
        let mask = Matrix::from_fn(batch, nf, |r, f| f32::from((r + f) % 3 != 1));
        let alpha: Vec<Matrix> = (0..nf)
            .map(|f| signed(batch, nf, 40 + f as u32).softmax_rows())
            .collect();
        Grouped {
            ps,
            biel,
            lin,
            lin_nb,
            cells,
            step,
            mask,
            xs: (0..nf).map(|f| signed(batch, d, 20 + f as u32)).collect(),
            hs: (0..nf).map(|f| signed(batch, hid, 30 + f as u32)).collect(),
            wide: (0..nf).map(|f| signed(batch, 3, 50 + f as u32)).collect(),
            alpha,
        }
    }

    /// Every grouped op on `g`'s inputs, each result as its block values:
    /// the executor's own ops, or (`reference`) the primitive compositions
    /// of `reference` run on the same executor.
    fn every_grouped_op<E: Exec>(e: &mut E, g: &Grouped, reference: bool) -> Vec<Vec<Matrix>> {
        let ps = &g.ps;
        let group = |e: &mut E, ms: &[Matrix]| {
            let parts = ms.iter().map(|m| e.constant(m.clone())).collect();
            e.group(parts)
        };
        let (x, h, wide, alpha) = (
            group(e, &g.xs),
            group(e, &g.hs),
            group(e, &g.wide),
            group(e, &g.alpha),
        );
        let keys = flipped_keys(e, &x);
        let scale = 0.45;
        let outs = if reference {
            vec![
                super::reference::biel_blocks(e, ps, &g.biel, &g.step, &g.mask),
                super::reference::linear_blocks(e, ps, &g.lin, &x, Act::Tanh),
                super::reference::linear_blocks(e, ps, &g.lin_nb, &x, Act::Identity),
                super::reference::gru_blocks(e, ps, &g.cells, &x, &h),
                super::reference::concat_blocks(e, &[&x, &wide, &h]),
                super::reference::pair_attention(e, &x, &keys, scale),
                super::reference::attention_sum(e, &alpha, &h),
            ]
        } else {
            vec![
                e.biel_blocks(ps, &g.biel, &g.step, &g.mask),
                e.linear_blocks(ps, &g.lin, &x, Act::Tanh),
                e.linear_blocks(ps, &g.lin_nb, &x, Act::Identity),
                e.gru_blocks(ps, &g.cells, &x, &h),
                e.concat_blocks(&[&x, &wide, &h]),
                e.pair_attention(&x, &keys, scale),
                e.attention_sum(&alpha, &h),
            ]
        };
        outs.iter()
            .map(|o| {
                let blocks = e.ungroup(o);
                blocks.iter().map(|v| e.value(v).clone()).collect()
            })
            .collect()
    }

    /// Keys for the attention test: the query group with its rows reversed
    /// within each block, so `q_i · k_j` pairs differing rows.
    fn flipped_keys<E: Exec>(e: &mut E, x: &E::G) -> E::G {
        let blocks = e.ungroup(x);
        let flipped = blocks
            .iter()
            .map(|v| {
                let m = e.value(v);
                let rows = m.rows();
                let f = Matrix::from_fn(rows, m.cols(), |r, c| m[(rows - 1 - r, c)]);
                e.constant(f)
            })
            .collect();
        e.group(flipped)
    }

    const GROUPED_OPS: [&str; 7] = [
        "biel_blocks",
        "linear_blocks(tanh)",
        "linear_blocks(no bias)",
        "gru_blocks",
        "concat_blocks",
        "pair_attention",
        "attention_sum",
    ];

    fn assert_same_bits(got: &[Vec<Matrix>], want: &[Vec<Matrix>], case: &str) {
        assert_eq!(got.len(), want.len());
        for ((g, w), op) in got.iter().zip(want).zip(GROUPED_OPS) {
            assert_eq!(g.len(), w.len(), "{op} block count ({case})");
            for (f, (gb, wb)) in g.iter().zip(w).enumerate() {
                assert_eq!(gb.shape(), wb.shape(), "{op} block {f} shape ({case})");
                for (i, (gv, wv)) in gb.as_slice().iter().zip(wb.as_slice()).enumerate() {
                    assert_eq!(
                        gv.to_bits(),
                        wv.to_bits(),
                        "{op} block {f} element {i}: {gv} vs {wv} ({case})"
                    );
                }
            }
        }
    }

    /// Each fused grouped op of the eager executor equals its reference
    /// composition recorded on a tape, bit for bit, on every SIMD backend,
    /// for batch 1 and 3 and 1 and 5 blocks.
    #[test]
    fn grouped_ops_match_reference_bitwise() {
        let before = crate::simd::active();
        for backend in crate::simd::supported_backends() {
            assert!(crate::simd::set_backend(backend));
            for (batch, nf) in [(1, 1), (1, 5), (3, 1), (3, 5)] {
                let g = grouped(batch, nf);
                let want = every_grouped_op(&mut Tape::new(), &g, false);
                let got = every_grouped_op(&mut Eager::new(&g.ps), &g, false);
                let case = format!("{backend:?}, batch {batch}, {nf} blocks");
                assert_same_bits(&got, &want, &case);
            }
        }
        crate::simd::set_backend(before);
    }

    /// With int8 stand-ins for only some weights — the shared linear weight,
    /// two gates of the first GRU cell, one of the last, and one BiEL anchor
    /// — each fused op still equals its reference composition run on the
    /// same quantized executor.
    #[test]
    fn quantized_grouped_ops_match_reference_bitwise() {
        let before = crate::simd::active();
        for backend in crate::simd::supported_backends() {
            assert!(crate::simd::set_backend(backend));
            for (batch, nf) in [(1, 1), (1, 5), (3, 1), (3, 5)] {
                let g = grouped(batch, nf);
                let first = g.cells[0].params();
                let last = g.cells[nf - 1].params();
                let mut quant = QuantWeights::default();
                for id in [
                    g.lin.weight(),
                    first.wz,
                    first.uh,
                    last.ur,
                    g.biel[0].params().1,
                ] {
                    quant.insert(id, QuantMatrix::quantize(g.ps.value(id)));
                }
                let want = every_grouped_op(&mut Eager::quantized(&g.ps, &quant), &g, true);
                let got = every_grouped_op(&mut Eager::quantized(&g.ps, &quant), &g, false);
                let case = format!("int8, {backend:?}, batch {batch}, {nf} blocks");
                assert_same_bits(&got, &want, &case);
            }
        }
        crate::simd::set_backend(before);
    }

    /// The fused BiEL keeps the reference's `0.0 + w·v` chains: a zero
    /// interpolation weight against a negative anchor gives `+0.0`, never
    /// the `-0.0` of a bare product.
    #[test]
    fn fused_biel_turns_negative_zero_products_positive() {
        let mut ps = ParamStore::new();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let biel = vec![Biel::new(&mut ps, &mut rng, "b", 2, (0.0, 1.0))];
        for id in 0..3 {
            *ps.value_mut(ParamId(id)) = Matrix::from_vec(1, 2, vec![-0.5, -0.0]);
        }
        // x = 0 (lower bound): w_a = 0 against v_a = -0.5; present, so
        // m_off = 0 against v_m.
        let step = Matrix::from_vec(1, 1, vec![0.0]);
        let mask = Matrix::from_vec(1, 1, vec![1.0]);
        let got = Eager::new(&ps).biel_blocks(&ps, &biel, &step, &mask);
        let mut tape = Tape::new();
        let want = tape.biel_blocks(&ps, &biel, &step, &mask);
        let want = tape.value(want[0]);
        // Column 1: every product is `±0·-0.0 = -0.0`, each lifted to +0.0.
        assert_eq!(got.m.as_slice()[0], -0.5);
        assert_eq!(got.m.as_slice()[1].to_bits(), 0.0f32.to_bits());
        for (g, w) in got.m.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    /// A quantized executor runs `x · W` through `qgemm` exactly for the
    /// weights it holds int8 stand-ins for, and through f32 for the rest.
    #[test]
    fn quantized_matmul_swaps_only_listed_weights() {
        let mut ps = ParamStore::new();
        let w_q = ps.register("wq", m(6, 4, 1));
        let w_f = ps.register("wf", m(6, 4, 2));
        let q = QuantMatrix::quantize(ps.value(w_q));
        let mut quant = QuantWeights::default();
        quant.insert(w_q, q.clone());
        let x = m(3, 6, 3);

        let mut e = Eager::quantized(&ps, &quant);
        let xv = e.constant(x.clone());
        let (wq, wf) = (e.param(&ps, w_q), e.param(&ps, w_f));
        let got_q = e.matmul(&xv, &wq);
        let got_f = e.matmul(&xv, &wf);

        let mut want_q = Matrix::zeros(3, 4);
        qgemm(&x, &q, &mut want_q);
        let want_f = x.matmul(ps.value(w_f));
        for (got, want) in [(&got_q, &want_q), (&got_f, &want_f)] {
            for (g, w) in e.value(got).as_slice().iter().zip(want.as_slice()) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
        assert!(quant.get(w_f).is_none());
    }
}
