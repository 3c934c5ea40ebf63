//! Reusable neural layers.
//!
//! Every layer owns [`ParamId`] handles into a shared [`ParamStore`] and
//! exposes a `forward`/`step` method that runs on a caller-provided
//! executor. Layers are therefore cheap to clone-free share across time
//! steps — weight tying across a sequence falls out naturally.
//!
//! [`Linear`], [`GruCell`] and [`Biel`] — the layers CohortNet's forward
//! is built from — are generic over [`Exec`], so one definition runs on
//! the autograd [`Tape`] and on the value-only [`crate::exec::Eager`]
//! executor. Inputs are taken as `impl Borrow<E::V>`: tape callers pass
//! [`Var`] handles by value, eager callers pass references to owned values.

use crate::exec::Exec;
use crate::init;
use crate::matrix::Matrix;
use crate::param::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use rand::rngs::StdRng;
use std::borrow::Borrow;

/// Fully connected layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
}

impl Linear {
    /// Registers a new linear layer's parameters.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = ps.register(
            format!("{name}.w"),
            init::xavier_uniform(rng, in_dim, out_dim),
        );
        let b = ps.register(format!("{name}.b"), init::zeros(1, out_dim));
        Linear {
            w,
            b: Some(b),
            in_dim,
            out_dim,
        }
    }

    /// Registers a linear layer with no bias term (`y = x W`), for heads
    /// whose intercept must live elsewhere — e.g. CohortNet's Eq. 14
    /// calibration term `w^c · ĥ`, where the only bias is `b^p` on the
    /// individual path.
    pub fn new_no_bias(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = ps.register(
            format!("{name}.w"),
            init::xavier_uniform(rng, in_dim, out_dim),
        );
        Linear {
            w,
            b: None,
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer to a `(batch x in_dim)` value.
    pub fn forward<E: Exec>(&self, e: &mut E, ps: &ParamStore, x: impl Borrow<E::V>) -> E::V {
        let w = e.param(ps, self.w);
        let xw = e.matmul(x.borrow(), &w);
        match self.b {
            Some(b) => {
                let b = e.param(ps, b);
                e.add_row_broadcast(&xw, &b)
            }
            None => xw,
        }
    }

    /// The weight parameter handle (for introspection, e.g. calibration
    /// decomposition in CohortNet's CEM).
    pub fn weight(&self) -> ParamId {
        self.w
    }

    /// The bias parameter handle, `None` for bias-free layers.
    pub fn bias(&self) -> Option<ParamId> {
        self.b
    }
}

/// Bi-directional embedding of one scalar feature (CohortNet's BiEL, Eq. 1).
///
/// A present value `x`, clamped to the feature's bounds `[lo, hi]`,
/// interpolates between two anchor vectors, `e = w_a·v_a + w_b·v_b` with
/// `w_a = (x - lo)/(hi - lo)` and `w_b = (hi - x)/(hi - lo)`; an absent
/// value embeds as the learned missing-value vector `v_m`. The
/// interpolation weights are data, so no gradient flows through `x`.
#[derive(Debug, Clone)]
pub struct Biel {
    v_a: ParamId,
    v_b: ParamId,
    v_m: ParamId,
    lo: f32,
    hi: f32,
}

impl Biel {
    /// Registers the three `1 x dim` vectors `{name}.a`, `{name}.b`,
    /// `{name}.m` of a feature bounded by `bounds = (lo, hi)`.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        dim: usize,
        bounds: (f32, f32),
    ) -> Self {
        let mut anchor =
            |s: &str| ps.register(format!("{name}.{s}"), init::uniform(rng, 1, dim, 0.3));
        Biel {
            v_a: anchor("a"),
            v_b: anchor("b"),
            v_m: anchor("m"),
            lo: bounds.0,
            hi: bounds.1,
        }
    }

    /// The `(v_a, v_b, v_m)` parameter handles.
    pub fn params(&self) -> (ParamId, ParamId, ParamId) {
        (self.v_a, self.v_b, self.v_m)
    }

    /// `(w_a, w_b, present)` for raw value `x` with presence flag `mask`.
    #[inline]
    pub fn weights(&self, x: f32, mask: f32) -> (f32, f32, bool) {
        let range = (self.hi - self.lo).max(1e-4);
        let x = x.clamp(self.lo, self.hi);
        ((x - self.lo) / range, (self.hi - x) / range, mask > 0.5)
    }

    /// Embeds column `f` of `step` (`batch x F` raw values, presence in the
    /// same column of `mask`): `batch x dim`.
    pub fn forward<E: Exec>(
        &self,
        e: &mut E,
        ps: &ParamStore,
        step: &Matrix,
        mask: &Matrix,
        f: usize,
    ) -> E::V {
        let batch = step.rows();
        let mut w_a = Matrix::zeros(batch, 1);
        let mut w_b = Matrix::zeros(batch, 1);
        let mut m_on = Matrix::zeros(batch, 1);
        let mut m_off = Matrix::zeros(batch, 1);
        for r in 0..batch {
            let (a, b, present) = self.weights(step[(r, f)], mask[(r, f)]);
            w_a[(r, 0)] = a;
            w_b[(r, 0)] = b;
            m_on[(r, 0)] = f32::from(present);
            m_off[(r, 0)] = f32::from(!present);
        }
        let wa = e.constant(w_a);
        let wb = e.constant(w_b);
        let mon = e.constant(m_on);
        let moff = e.constant(m_off);
        let va = e.param(ps, self.v_a);
        let vb = e.param(ps, self.v_b);
        let vm = e.param(ps, self.v_m);
        let ea = e.matmul(&wa, &va);
        let eb = e.matmul(&wb, &vb);
        let e_present = e.add(&ea, &eb);
        let e_masked = e.mul_col_broadcast(&e_present, &mon);
        let em = e.matmul(&moff, &vm);
        e.add(&e_masked, &em)
    }
}

/// Activation functions selectable in an [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No activation.
    Identity,
}

impl Activation {
    fn apply(self, t: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Relu => t.relu(x),
            Activation::Tanh => t.tanh(x),
            Activation::Sigmoid => t.sigmoid(x),
            Activation::Identity => x,
        }
    }
}

/// Multi-layer perceptron with a uniform hidden activation and a selectable
/// output activation.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    output_act: Activation,
}

impl Mlp {
    /// Builds an MLP through the widths in `dims` (e.g. `[24, 16, 8]` gives
    /// two layers).
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        dims: &[usize],
        hidden_act: Activation,
        output_act: Activation,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(ps, rng, &format!("{name}.l{i}"), w[0], w[1]))
            .collect();
        Mlp {
            layers,
            hidden_act,
            output_act,
        }
    }

    /// Applies the MLP to a `(batch x dims[0])` node.
    pub fn forward(&self, t: &mut Tape, ps: &ParamStore, mut x: Var) -> Var {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(t, ps, x);
            x = if i == last {
                self.output_act.apply(t, x)
            } else {
                self.hidden_act.apply(t, x)
            };
        }
        x
    }

    /// Output width of the final layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim
    }
}

/// Gated recurrent unit cell (Cho et al., 2014).
///
/// `z = σ(x Wz + h Uz + bz)`, `r = σ(x Wr + h Ur + br)`,
/// `h̃ = tanh(x Wh + (r⊙h) Uh + bh)`, `h' = (1-z)⊙h + z⊙h̃`.
#[derive(Debug, Clone)]
pub struct GruCell {
    wz: ParamId,
    uz: ParamId,
    bz: ParamId,
    wr: ParamId,
    ur: ParamId,
    br: ParamId,
    wh: ParamId,
    uh: ParamId,
    bh: ParamId,
    /// Input width.
    pub in_dim: usize,
    /// Hidden width.
    pub hidden_dim: usize,
}

/// The nine parameter handles of a [`GruCell`], in gate order. Exposed so
/// callers can enumerate a cell's weights by id (e.g. to build int8
/// stand-ins for them, see [`crate::quant::QuantWeights`]).
#[derive(Debug, Clone, Copy)]
pub struct GruParams {
    /// Update-gate input weights `Wz`.
    pub wz: ParamId,
    /// Update-gate recurrent weights `Uz`.
    pub uz: ParamId,
    /// Update-gate bias `bz`.
    pub bz: ParamId,
    /// Reset-gate input weights `Wr`.
    pub wr: ParamId,
    /// Reset-gate recurrent weights `Ur`.
    pub ur: ParamId,
    /// Reset-gate bias `br`.
    pub br: ParamId,
    /// Candidate input weights `Wh`.
    pub wh: ParamId,
    /// Candidate recurrent weights `Uh`.
    pub uh: ParamId,
    /// Candidate bias `bh`.
    pub bh: ParamId,
}

impl GruCell {
    /// The cell's parameter handles (see [`GruParams`]).
    pub fn params(&self) -> GruParams {
        GruParams {
            wz: self.wz,
            uz: self.uz,
            bz: self.bz,
            wr: self.wr,
            ur: self.ur,
            br: self.br,
            wh: self.wh,
            uh: self.uh,
            bh: self.bh,
        }
    }

    /// Registers a new GRU cell's parameters.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        hidden_dim: usize,
    ) -> Self {
        GruCell {
            wz: ps.register(
                format!("{name}.wz"),
                init::xavier_uniform(rng, in_dim, hidden_dim),
            ),
            uz: ps.register(
                format!("{name}.uz"),
                init::recurrent(rng, hidden_dim, hidden_dim),
            ),
            bz: ps.register(format!("{name}.bz"), init::zeros(1, hidden_dim)),
            wr: ps.register(
                format!("{name}.wr"),
                init::xavier_uniform(rng, in_dim, hidden_dim),
            ),
            ur: ps.register(
                format!("{name}.ur"),
                init::recurrent(rng, hidden_dim, hidden_dim),
            ),
            br: ps.register(format!("{name}.br"), init::zeros(1, hidden_dim)),
            wh: ps.register(
                format!("{name}.wh"),
                init::xavier_uniform(rng, in_dim, hidden_dim),
            ),
            uh: ps.register(
                format!("{name}.uh"),
                init::recurrent(rng, hidden_dim, hidden_dim),
            ),
            bh: ps.register(format!("{name}.bh"), init::zeros(1, hidden_dim)),
            in_dim,
            hidden_dim,
        }
    }

    /// Creates the initial zero hidden state for a batch.
    pub fn init_state<E: Exec>(&self, e: &mut E, batch: usize) -> E::V {
        e.constant(crate::matrix::Matrix::zeros(batch, self.hidden_dim))
    }

    /// One recurrent step: `(x: batch x in_dim, h: batch x hidden) -> h'`.
    ///
    /// Each gate is one fused op (`σ/tanh(xW + hU + b)`) and the state
    /// update is the fused blend `(1-z)⊙h + z⊙h̃`.
    pub fn step<E: Exec>(
        &self,
        e: &mut E,
        ps: &ParamStore,
        x: impl Borrow<E::V>,
        h: impl Borrow<E::V>,
    ) -> E::V {
        let (x, h) = (x.borrow(), h.borrow());
        let pre = |e: &mut E, w: ParamId, u: ParamId, hh: &E::V| {
            let wv = e.param(ps, w);
            let uv = e.param(ps, u);
            let xw = e.matmul(x, &wv);
            let hu = e.matmul(hh, &uv);
            (xw, hu)
        };
        let (zxw, zhu) = pre(e, self.wz, self.uz, h);
        let bz = e.param(ps, self.bz);
        let z = e.gate_sigmoid(&zxw, &zhu, &bz);
        let (rxw, rhu) = pre(e, self.wr, self.ur, h);
        let br = e.param(ps, self.br);
        let r = e.gate_sigmoid(&rxw, &rhu, &br);
        let rh = e.mul(&r, h);
        // Note: the candidate path must not add `h Uh` twice — the recurrent
        // matmul below already uses `rh` as its input.
        let (cxw, chu) = pre(e, self.wh, self.uh, &rh);
        let bh = e.param(ps, self.bh);
        let cand = e.gate_tanh(&cxw, &chu, &bh);
        e.gru_blend(&z, h, &cand)
    }

    /// Unrolls the cell over a sequence of inputs, returning all hidden
    /// states (one per step).
    pub fn unroll(&self, t: &mut Tape, ps: &ParamStore, xs: &[Var], batch: usize) -> Vec<Var> {
        let mut h = self.init_state(t, batch);
        let mut out = Vec::with_capacity(xs.len());
        for &x in xs {
            h = self.step(t, ps, x, h);
            out.push(h);
        }
        out
    }
}

/// Long short-term memory cell (Hochreiter & Schmidhuber, 1997).
#[derive(Debug, Clone)]
pub struct LstmCell {
    wi: ParamId,
    ui: ParamId,
    bi: ParamId,
    wf: ParamId,
    uf: ParamId,
    bf: ParamId,
    wo: ParamId,
    uo: ParamId,
    bo: ParamId,
    wc: ParamId,
    uc: ParamId,
    bc: ParamId,
    /// Input width.
    pub in_dim: usize,
    /// Hidden width.
    pub hidden_dim: usize,
}

/// The `(hidden, cell)` state pair of an LSTM.
#[derive(Debug, Clone, Copy)]
pub struct LstmState {
    /// Hidden state node.
    pub h: Var,
    /// Cell memory node.
    pub c: Var,
}

impl LstmCell {
    /// Registers a new LSTM cell's parameters.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        hidden_dim: usize,
    ) -> Self {
        let reg_w = |ps: &mut ParamStore, rng: &mut StdRng, s: &str| {
            ps.register(
                format!("{name}.{s}"),
                init::xavier_uniform(rng, in_dim, hidden_dim),
            )
        };
        let wi = reg_w(ps, rng, "wi");
        let wf = reg_w(ps, rng, "wf");
        let wo = reg_w(ps, rng, "wo");
        let wc = reg_w(ps, rng, "wc");
        let reg_u = |ps: &mut ParamStore, rng: &mut StdRng, s: &str| {
            ps.register(
                format!("{name}.{s}"),
                init::recurrent(rng, hidden_dim, hidden_dim),
            )
        };
        let ui = reg_u(ps, rng, "ui");
        let uf = reg_u(ps, rng, "uf");
        let uo = reg_u(ps, rng, "uo");
        let uc = reg_u(ps, rng, "uc");
        // Forget-gate bias starts at 1 so early training retains memory.
        let bf = ps.register(
            format!("{name}.bf"),
            crate::matrix::Matrix::full(1, hidden_dim, 1.0),
        );
        let bi = ps.register(format!("{name}.bi"), init::zeros(1, hidden_dim));
        let bo = ps.register(format!("{name}.bo"), init::zeros(1, hidden_dim));
        let bc = ps.register(format!("{name}.bc"), init::zeros(1, hidden_dim));
        LstmCell {
            wi,
            ui,
            bi,
            wf,
            uf,
            bf,
            wo,
            uo,
            bo,
            wc,
            uc,
            bc,
            in_dim,
            hidden_dim,
        }
    }

    /// Creates the initial zero state for a batch.
    pub fn init_state(&self, t: &mut Tape, batch: usize) -> LstmState {
        LstmState {
            h: t.constant(crate::matrix::Matrix::zeros(batch, self.hidden_dim)),
            c: t.constant(crate::matrix::Matrix::zeros(batch, self.hidden_dim)),
        }
    }

    /// One recurrent step. Every gate is one fused
    /// `σ/tanh(xW + hU + b)` node.
    pub fn step(&self, t: &mut Tape, ps: &ParamStore, x: Var, state: LstmState) -> LstmState {
        let pre = |t: &mut Tape, w: ParamId, u: ParamId| {
            let wv = t.param(ps, w);
            let uv = t.param(ps, u);
            let xw = t.matmul(x, wv);
            let hu = t.matmul(state.h, uv);
            (xw, hu)
        };
        let (ixw, ihu) = pre(t, self.wi, self.ui);
        let bi = t.param(ps, self.bi);
        let i = t.gate_sigmoid(ixw, ihu, bi);
        let (fxw, fhu) = pre(t, self.wf, self.uf);
        let bf = t.param(ps, self.bf);
        let f = t.gate_sigmoid(fxw, fhu, bf);
        let (oxw, ohu) = pre(t, self.wo, self.uo);
        let bo = t.param(ps, self.bo);
        let o = t.gate_sigmoid(oxw, ohu, bo);
        let (gxw, ghu) = pre(t, self.wc, self.uc);
        let bc = t.param(ps, self.bc);
        let g = t.gate_tanh(gxw, ghu, bc);
        let fc = t.mul(f, state.c);
        let ig = t.mul(i, g);
        let c = t.add(fc, ig);
        let tc = t.tanh(c);
        let h = t.mul(o, tc);
        LstmState { h, c }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::optim::Adam;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_shapes() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut ps, &mut rng, "lin", 3, 5);
        let mut t = Tape::new();
        let x = t.constant(Matrix::zeros(4, 3));
        let y = lin.forward(&mut t, &ps, x);
        assert_eq!(t.value(y).shape(), (4, 5));
    }

    #[test]
    fn mlp_learns_xor() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(
            &mut ps,
            &mut rng,
            "xor",
            &[2, 8, 1],
            Activation::Tanh,
            Activation::Identity,
        );
        let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let y = Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]);
        let mut opt = Adam::new(0.05);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let mut t = Tape::new();
            let xv = t.constant(x.clone());
            let logits = mlp.forward(&mut t, &ps, xv);
            let loss = t.bce_with_logits(logits, y.clone());
            last = t.value(loss)[(0, 0)];
            t.backward(loss);
            t.flush_grads(&mut ps);
            opt.step(&mut ps);
        }
        assert!(last < 0.1, "xor loss did not converge: {last}");
    }

    #[test]
    fn gru_step_shapes_and_bounds() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cell = GruCell::new(&mut ps, &mut rng, "gru", 4, 6);
        let mut t = Tape::new();
        let h0 = cell.init_state(&mut t, 3);
        let x = t.constant(Matrix::full(3, 4, 0.5));
        let h1 = cell.step(&mut t, &ps, x, h0);
        assert_eq!(t.value(h1).shape(), (3, 6));
        // GRU hidden state is a convex-combination of h (0) and tanh, so in (-1, 1).
        assert!(t.value(h1).as_slice().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn gru_remembers_input_sign() {
        // Train a GRU to output the sign of the FIRST input over a short
        // sequence — requires the recurrent path to carry information.
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let cell = GruCell::new(&mut ps, &mut rng, "gru", 1, 8);
        let head = Linear::new(&mut ps, &mut rng, "head", 8, 1);
        let mut opt = Adam::new(0.02);
        let seqs: Vec<(Vec<f32>, f32)> = vec![
            (vec![1.0, 0.0, 0.0, 0.0], 1.0),
            (vec![-1.0, 0.0, 0.0, 0.0], 0.0),
            (vec![1.0, 0.1, -0.1, 0.0], 1.0),
            (vec![-1.0, 0.1, -0.1, 0.0], 0.0),
        ];
        let mut last = f32::INFINITY;
        for _ in 0..250 {
            let mut t = Tape::new();
            let xs: Vec<Var> = (0..4)
                .map(|step| {
                    let col: Vec<f32> = seqs.iter().map(|(s, _)| s[step]).collect();
                    t.constant(Matrix::col_vector(&col))
                })
                .collect();
            let hs = cell.unroll(&mut t, &ps, &xs, seqs.len());
            let logits = head.forward(&mut t, &ps, *hs.last().unwrap());
            let y = Matrix::col_vector(&seqs.iter().map(|(_, l)| *l).collect::<Vec<_>>());
            let loss = t.bce_with_logits(logits, y);
            last = t.value(loss)[(0, 0)];
            t.backward(loss);
            t.flush_grads(&mut ps);
            opt.step(&mut ps);
        }
        assert!(last < 0.2, "gru memory task did not converge: {last}");
    }

    #[test]
    fn lstm_step_shapes() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let cell = LstmCell::new(&mut ps, &mut rng, "lstm", 4, 6);
        let mut t = Tape::new();
        let s0 = cell.init_state(&mut t, 2);
        let x = t.constant(Matrix::full(2, 4, 0.1));
        let s1 = cell.step(&mut t, &ps, x, s0);
        assert_eq!(t.value(s1.h).shape(), (2, 6));
        assert_eq!(t.value(s1.c).shape(), (2, 6));
    }

    #[test]
    fn lstm_trains_on_last_input() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let cell = LstmCell::new(&mut ps, &mut rng, "lstm", 1, 6);
        let head = Linear::new(&mut ps, &mut rng, "head", 6, 1);
        let mut opt = Adam::new(0.03);
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let mut t = Tape::new();
            let mut st = cell.init_state(&mut t, 2);
            for step in 0..3 {
                let x = t.constant(Matrix::from_vec(
                    2,
                    1,
                    vec![0.0, if step == 2 { 1.0 } else { 0.0 }],
                ));
                st = cell.step(&mut t, &ps, x, st);
            }
            let logits = head.forward(&mut t, &ps, st.h);
            let loss = t.bce_with_logits(logits, Matrix::from_vec(2, 1, vec![0.0, 1.0]));
            last = t.value(loss)[(0, 0)];
            t.backward(loss);
            t.flush_grads(&mut ps);
            opt.step(&mut ps);
        }
        assert!(last < 0.2, "lstm task did not converge: {last}");
    }
}
