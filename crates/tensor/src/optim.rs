//! First-order optimisers over a [`ParamStore`].
//!
//! The paper trains every model with Adam at learning rate 1e-3 (§4.1
//! Implementation Details); SGD is kept for tests and ablations.

use crate::matrix::Matrix;
use crate::param::ParamStore;

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Creates an SGD optimiser with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// Applies one update from the accumulated gradients, then clears them.
    pub fn step(&mut self, store: &mut ParamStore) {
        for e in store.entries_mut() {
            let lr = self.lr;
            for (v, &g) in e.value.as_mut_slice().iter_mut().zip(e.grad.as_slice()) {
                *v -= lr * g;
            }
        }
        store.zero_grads();
    }
}

/// Adam optimiser (Kingma & Ba, 2014) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate (paper default: 1e-3).
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability constant.
    pub eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates an Adam optimiser with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one Adam update from accumulated gradients, then clears them.
    ///
    /// Moment buffers are allocated lazily on first call and keyed by the
    /// parameter order in the store, so the same optimiser must always be
    /// used with the same store.
    pub fn step(&mut self, store: &mut ParamStore) {
        if self.m.is_empty() {
            for e in store.entries() {
                self.m.push(Matrix::zeros(e.value.rows(), e.value.cols()));
                self.v.push(Matrix::zeros(e.value.rows(), e.value.cols()));
            }
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, e) in store.entries_mut().enumerate() {
            let (m, v) = (&mut self.m[i], &mut self.v[i]);
            let vals = e.value.as_mut_slice();
            let grads = e.grad.as_slice();
            let (ms, vs) = (m.as_mut_slice(), v.as_mut_slice());
            for j in 0..vals.len() {
                let g = grads[j];
                ms[j] = self.beta1 * ms[j] + (1.0 - self.beta1) * g;
                vs[j] = self.beta2 * vs[j] + (1.0 - self.beta2) * g * g;
                let m_hat = ms[j] / bc1;
                let v_hat = vs[j] / bc2;
                vals[j] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
        store.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Exec;
    use crate::tape::Tape;

    /// Minimises (w - 3)^2 and checks convergence.
    fn quadratic_descent(mut step: impl FnMut(&mut ParamStore)) -> f32 {
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::from_vec(1, 1, vec![0.0]));
        for _ in 0..400 {
            let mut t = Tape::new();
            let wv = t.param(&ps, w);
            let loss = t.mse(wv, Matrix::from_vec(1, 1, vec![3.0]));
            t.backward(loss);
            t.flush_grads(&mut ps);
            step(&mut ps);
        }
        ps.value(w)[(0, 0)]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let w = quadratic_descent(|ps| opt.step(ps));
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        let w = quadratic_descent(|ps| opt.step(ps));
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn step_clears_gradients() {
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::from_vec(1, 1, vec![1.0]));
        ps.accumulate_grad(w, &Matrix::from_vec(1, 1, vec![2.0]));
        let mut opt = Adam::new(0.001);
        opt.step(&mut ps);
        assert_eq!(ps.grad(w)[(0, 0)], 0.0);
    }

    #[test]
    fn adam_moves_against_gradient_sign() {
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::from_vec(1, 1, vec![1.0]));
        ps.accumulate_grad(w, &Matrix::from_vec(1, 1, vec![5.0]));
        let mut opt = Adam::new(0.01);
        opt.step(&mut ps);
        assert!(ps.value(w)[(0, 0)] < 1.0);
    }
}
