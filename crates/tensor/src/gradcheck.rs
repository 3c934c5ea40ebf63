//! Finite-difference gradient checking.
//!
//! Used by tests (including property tests) to validate every backward rule
//! on the [`crate::tape::Tape`] against a central-difference numerical
//! gradient.

use crate::exec::Exec;
use crate::matrix::Matrix;
use crate::param::{ParamId, ParamStore};
use crate::tape::{Tape, Var};

/// Builds the graph with `build`, evaluates the scalar loss, and compares the
/// analytic gradient of every parameter against central differences.
///
/// Returns the maximum absolute difference found; asserts nothing itself.
///
/// `build` receives a fresh tape plus the store and must return the scalar
/// loss node (`1 x 1`).
pub fn max_grad_error(
    store: &mut ParamStore,
    eps: f32,
    build: impl Fn(&mut Tape, &ParamStore) -> Var,
) -> f32 {
    // Analytic gradients.
    let mut tape = Tape::new();
    let loss = build(&mut tape, store);
    assert_eq!(tape.value(loss).shape(), (1, 1), "loss must be scalar");
    tape.backward(loss);
    store.zero_grads();
    tape.flush_grads(store);

    let ids: Vec<ParamId> = (0..store.len()).map(crate::param::ParamId).collect();
    let mut max_err = 0.0f32;
    for id in ids {
        let (rows, cols) = store.value(id).shape();
        for r in 0..rows {
            for c in 0..cols {
                let orig = store.value(id)[(r, c)];
                store.value_mut(id)[(r, c)] = orig + eps;
                let plus = eval(store, &build);
                store.value_mut(id)[(r, c)] = orig - eps;
                let minus = eval(store, &build);
                store.value_mut(id)[(r, c)] = orig;
                let numeric = (plus - minus) / (2.0 * eps);
                let analytic = store.grad(id)[(r, c)];
                let err = (numeric - analytic).abs();
                if err > max_err {
                    max_err = err;
                }
            }
        }
    }
    max_err
}

fn eval(store: &ParamStore, build: &impl Fn(&mut Tape, &ParamStore) -> Var) -> f32 {
    let mut tape = Tape::new();
    let loss = build(&mut tape, store);
    tape.value(loss)[(0, 0)]
}

/// Convenience constant-input helper for tests.
pub fn constant(t: &mut Tape, rows: usize, cols: usize, data: &[f32]) -> Var {
    t.constant(Matrix::from_vec(rows, cols, data.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{Activation, GruCell, Linear, LstmCell, Mlp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f32 = 2e-2; // f32 central differences are noisy; rules are exact.

    #[test]
    fn gradcheck_linear_bce() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(17);
        let lin = Linear::new(&mut ps, &mut rng, "l", 3, 2);
        let err = max_grad_error(&mut ps, 1e-2, |t, ps| {
            let x = constant(t, 2, 3, &[0.5, -0.2, 0.1, 0.9, 0.3, -0.7]);
            let y = lin.forward(t, ps, x);
            t.bce_with_logits(y, Matrix::from_vec(2, 2, vec![1., 0., 0., 1.]))
        });
        assert!(err < TOL, "max grad err {err}");
    }

    #[test]
    fn gradcheck_mlp_tanh() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(23);
        let mlp = Mlp::new(
            &mut ps,
            &mut rng,
            "m",
            &[2, 4, 1],
            Activation::Tanh,
            Activation::Identity,
        );
        let err = max_grad_error(&mut ps, 1e-2, |t, ps| {
            let x = constant(t, 3, 2, &[0.1, 0.4, -0.3, 0.8, 0.5, -0.9]);
            let y = mlp.forward(t, ps, x);
            t.mse(y, Matrix::from_vec(3, 1, vec![0.2, -0.1, 0.7]))
        });
        assert!(err < TOL, "max grad err {err}");
    }

    #[test]
    fn gradcheck_gru_two_steps() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(29);
        let cell = GruCell::new(&mut ps, &mut rng, "g", 2, 3);
        let err = max_grad_error(&mut ps, 1e-2, |t, ps| {
            let h0 = cell.init_state(t, 2);
            let x1 = constant(t, 2, 2, &[0.3, -0.1, 0.6, 0.2]);
            let x2 = constant(t, 2, 2, &[-0.4, 0.5, 0.1, -0.2]);
            let h1 = cell.step(t, ps, x1, h0);
            let h2 = cell.step(t, ps, x2, h1);
            t.mean_all(h2)
        });
        assert!(err < TOL, "max grad err {err}");
    }

    #[test]
    fn gradcheck_lstm_two_steps() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(31);
        let cell = LstmCell::new(&mut ps, &mut rng, "l", 2, 3);
        let err = max_grad_error(&mut ps, 1e-2, |t, ps| {
            let s0 = cell.init_state(t, 1);
            let x1 = constant(t, 1, 2, &[0.3, -0.6]);
            let x2 = constant(t, 1, 2, &[0.9, 0.4]);
            let s1 = cell.step(t, ps, x1, s0);
            let s2 = cell.step(t, ps, x2, s1);
            t.mean_all(s2.h)
        });
        assert!(err < TOL, "max grad err {err}");
    }

    #[test]
    fn gradcheck_softmax_attention_pattern() {
        // Mirrors the attention pattern used by Dipole/CEM: scores -> softmax
        // -> weighted sum via mul_col_broadcast.
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(37);
        let score = Linear::new(&mut ps, &mut rng, "s", 3, 1);
        let err = max_grad_error(&mut ps, 1e-2, |t, ps| {
            let h1 = constant(t, 2, 3, &[0.1, 0.2, 0.3, -0.1, 0.5, 0.0]);
            let h2 = constant(t, 2, 3, &[0.7, -0.2, 0.4, 0.3, 0.1, -0.6]);
            let s1 = score.forward(t, ps, h1);
            let s2 = score.forward(t, ps, h2);
            let scores = t.concat_cols(&[s1, s2]);
            let attn = t.softmax_rows(scores);
            let a1 = t.slice_cols(attn, 0, 1);
            let a2 = t.slice_cols(attn, 1, 2);
            let w1 = t.mul_col_broadcast(h1, a1);
            let w2 = t.mul_col_broadcast(h2, a2);
            let ctx = t.add(w1, w2);
            t.mean_all(ctx)
        });
        assert!(err < TOL, "max grad err {err}");
    }

    #[test]
    fn gradcheck_remaining_ops() {
        // Covers Sub, SumRows, SumCols, Scale, AddScalar, Relu and Mse in
        // one composite graph so every backward rule is exercised.
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(43);
        let lin = Linear::new(&mut ps, &mut rng, "l", 2, 3);
        let err = max_grad_error(&mut ps, 1e-2, |t, ps| {
            let x = constant(t, 2, 2, &[0.4, -0.3, 0.7, 0.1]);
            let y = lin.forward(t, ps, x);
            let r = t.relu(y);
            let shifted = t.add_scalar(r, -0.2);
            let scaled = t.scale(shifted, 1.7);
            let neg = t.sub(scaled, y);
            let col = t.sum_cols(neg);
            let row = t.sum_rows(col);
            t.mse(row, Matrix::from_vec(1, 1, vec![0.3]))
        });
        assert!(err < TOL, "max grad err {err}");
    }

    #[test]
    fn gradcheck_fused_gate_kernels() {
        // The fused GateAct (σ and tanh) and GruBlend ops, exercised directly
        // with every operand on the parameter path so all three gradients
        // (both summands and the bias) are checked.
        let mut ps = ParamStore::new();
        let a = ps.register(
            "a",
            Matrix::from_vec(2, 3, vec![0.3, -0.2, 0.5, 0.1, 0.7, -0.4]),
        );
        let b = ps.register(
            "b",
            Matrix::from_vec(2, 3, vec![-0.1, 0.4, 0.2, -0.6, 0.3, 0.8]),
        );
        let bias = ps.register("bias", Matrix::from_vec(1, 3, vec![0.05, -0.3, 0.2]));
        let h = ps.register(
            "h",
            Matrix::from_vec(2, 3, vec![0.6, -0.5, 0.1, 0.2, -0.8, 0.4]),
        );
        let err = max_grad_error(&mut ps, 1e-2, |t, ps| {
            let av = t.param(ps, a);
            let bv = t.param(ps, b);
            let biasv = t.param(ps, bias);
            let hv = t.param(ps, h);
            let z = t.gate_sigmoid(av, bv, biasv);
            let cand = t.gate_tanh(bv, av, biasv);
            let blended = t.gru_blend(z, hv, cand);
            t.mean_all(blended)
        });
        assert!(err < TOL, "max grad err {err}");
    }

    #[test]
    fn fused_gate_matches_unfused_chain() {
        // Same inputs through the fused node and the three-op chain it
        // replaces: values and input gradients must agree.
        let run = |fused: bool| -> (Matrix, Matrix) {
            let mut t = Tape::new();
            let a = constant(&mut t, 2, 2, &[0.4, -1.2, 0.9, 0.3]);
            let b = constant(&mut t, 2, 2, &[-0.7, 0.5, 0.2, -0.1]);
            let bias = constant(&mut t, 1, 2, &[0.3, -0.6]);
            let y = if fused {
                t.gate_sigmoid(a, b, bias)
            } else {
                let s = t.add(a, b);
                let s = t.add_row_broadcast(s, bias);
                t.sigmoid(s)
            };
            let l = t.mean_all(y);
            t.backward(l);
            (t.value(y).clone(), t.grad(a).unwrap().clone())
        };
        let (vf, gf) = run(true);
        let (vu, gu) = run(false);
        for (x, y) in vf.as_slice().iter().zip(vu.as_slice()) {
            assert!((x - y).abs() < 1e-6, "fused value diverged: {x} vs {y}");
        }
        for (x, y) in gf.as_slice().iter().zip(gu.as_slice()) {
            assert!((x - y).abs() < 1e-6, "fused grad diverged: {x} vs {y}");
        }
    }

    #[test]
    fn gradcheck_transpose_matmul() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(41);
        let lin = Linear::new(&mut ps, &mut rng, "k", 3, 3);
        let err = max_grad_error(&mut ps, 1e-2, |t, ps| {
            let q = constant(t, 2, 3, &[0.2, -0.1, 0.4, 0.6, 0.3, -0.5]);
            let keys = constant(t, 4, 3, &[0.1; 12]);
            let kproj = lin.forward(t, ps, keys);
            let kt = t.transpose(kproj);
            let scores = t.matmul(q, kt);
            let attn = t.softmax_rows(scores);
            t.mean_all(attn)
        });
        assert!(err < TOL, "max grad err {err}");
    }
}
