//! One forward definition, two executors.
//!
//! Model code (layers in [`crate::nn`], and the CohortNet modules built on
//! them) is written once against the [`Exec`] trait. Two executors run it:
//!
//! * [`crate::tape::Tape`] records every op as a graph node, so the same
//!   forward can be differentiated (training, discovery, interpretation);
//! * [`Eager`] computes values only, dropping each temporary as soon as the
//!   model code does — the serving path.
//!
//! Weights enter by [`ParamId`] ([`Exec::param`]), never as values: the tape
//! copies them into leaf nodes, the eager executor borrows them from the
//! [`ParamStore`] and, when built with [`QuantWeights`], runs `x · W` through
//! the int8 [`qgemm`] for every weight that has an int8 stand-in.
//!
//! Both executors compute each op's value with the same `kernel`
//! function, so a forward run eagerly is bit-identical to the same forward
//! recorded on a tape. Every op also maps input row `r` to output row `r`
//! without reading other rows (matmuls by the GEMM contract), so a patient's
//! output does not depend on which other patients share the batch.

use crate::matrix::Matrix;
use crate::param::{ParamId, ParamStore};
use crate::quant::{qgemm, QuantWeights};

/// An executor of model forward passes (see the module docs).
///
/// Operands are passed by reference; `Self::V` is a cheap node handle on the
/// tape and an owned value on the eager executor.
pub trait Exec {
    /// A computed value (or a handle to one).
    type V: Clone;

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
        assert_eq!(a.shape(), b.shape(), "gate operand shape mismatch");
        assert_eq!(bias.rows(), 1, "gate bias must be a row vector");
        assert_eq!(bias.cols(), a.cols(), "gate bias width mismatch");
        let cols = a.cols();
        let mut buf = sized(buf, a.len());
        buf.resize(a.len(), 0.0);
        for r in 0..a.rows() {
            crate::simd::add3(
                &mut buf[r * cols..(r + 1) * cols],
                a.row(r),
                b.row(r),
                bias.row(0),
            );
        }
        match kind {
            GateKind::Sigmoid => buf.iter_mut().for_each(|p| *p = 1.0 / (1.0 + (-*p).exp())),
            GateKind::Tanh => buf.iter_mut().for_each(|p| *p = p.tanh()),
        }
        Matrix::from_vec(a.rows(), cols, buf)
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

/// The value-only executor: runs a forward definition without recording a
/// graph. Weights are borrowed from `ps`; weights present in the optional
/// [`QuantWeights`] multiply through the int8 kernel instead.
#[derive(Debug, Clone, Copy)]
pub struct Eager<'a> {
    ps: &'a ParamStore,
    quant: Option<&'a QuantWeights>,
}

impl<'a> Eager<'a> {
    /// An f32 executor over `ps`.
    pub fn new(ps: &'a ParamStore) -> Self {
        Eager { ps, quant: None }
    }

    /// An executor over `ps` whose `x · W` products use the int8 stand-in
    /// of `W` wherever `quant` has one.
    pub fn quantized(ps: &'a ParamStore, quant: &'a QuantWeights) -> Self {
        Eager {
            ps,
            quant: Some(quant),
        }
    }

    /// Takes the matrix out of `v` (copying only when `v` is a weight).
    pub fn into_matrix(&self, v: Val) -> Matrix {
        match v {
            Val::Owned(m) => m,
            Val::Param(id) => self.ps.value(id).clone(),
        }
    }
}

impl Exec for Eager<'_> {
    type V = Val;

    fn value<'s>(&'s self, v: &'s Val) -> &'s Matrix {
        match v {
            Val::Owned(m) => m,
            Val::Param(id) => self.ps.value(*id),
        }
    }

    fn constant(&mut self, value: Matrix) -> Val {
        Val::Owned(value)
    }

    fn param(&mut self, ps: &ParamStore, id: ParamId) -> Val {
        debug_assert!(
            std::ptr::eq(ps, self.ps),
            "eager executor asked for a weight of a different store"
        );
        Val::Param(id)
    }

    fn matmul(&mut self, a: &Val, b: &Val) -> Val {
        let x = self.value(a);
        if let (Val::Param(id), Some(q)) = (b, self.quant) {
            if let Some(w) = q.get(*id) {
                let mut out = Matrix::zeros(x.rows(), w.n());
                qgemm(x, w, &mut out);
                return Val::Owned(out);
            }
        }
        Val::Owned(kernel::matmul(Vec::new(), x, self.value(b)))
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QuantMatrix;
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
