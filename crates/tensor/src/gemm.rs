//! Register-tiled f32 GEMM — the single kernel entry point behind every
//! matrix product in the workspace.
//!
//! [`gemm_into`] computes `C (+)= op(A) · op(B)` where each operand is
//! optionally transposed *logically*: `op(A)` is read in place through row
//! and column strides, and only `op(B)` of an NT or TT product is laid out
//! as a `k x n` copy. The four transpose variants (NN, TN, NT, TT) share one
//! path, so `Matrix::matmul`, `matmul_acc`, and the transpose-fused backward
//! products (`Aᵀ·B`, `A·Bᵀ`) all have a single owner.
//!
//! # Determinism contract
//!
//! Every output element is produced by exactly one accumulation chain that
//! adds the `k` terms in strictly increasing `k` order, starting from the
//! element's prior value (zero when not accumulating):
//!
//! ```text
//! c_ij = ((((c0 + a_i0·b_0j) + a_i1·b_1j) + …) + a_i,K-1·b_K-1,j)
//! ```
//!
//! There is no K-blocking of partial sums, no FMA contraction, and no
//! per-element sparsity branch, so every backend's kernel and a naive
//! branch-free triple loop produce bit-identical results. This mirrors the
//! discovery runtime's determinism contract and is what lets data-parallel
//! training reproduce the sequential loss trajectory exactly.
//!
//! # Kernel
//!
//! The product runs on the active backend's register-tiled kernel
//! ([`simd::small_gemm`]): four output rows at a time, then one, each row's
//! 8-wide column tiles held in registers across the whole `k` loop, with a
//! partial tile for the last `n % 8` columns. AVX2 has its own intrinsics
//! kernel; SSE2 and scalar share a portable one that LLVM vectorizes. The
//! model only multiplies narrow matrices (widths 6-24, rows stacked
//! `F·batch` tall), which is the shape this kernel is built for; there is
//! no packed path and no GEMM threading.

use crate::matrix::Matrix;
use crate::simd;
use std::cell::RefCell;

thread_local! {
    /// The NT and TT products' `k x n` copy of `op(B)`, reused across calls.
    static OP_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

#[inline]
fn op_shape(m: &Matrix, transposed: bool) -> (usize, usize) {
    if transposed {
        (m.cols(), m.rows())
    } else {
        (m.rows(), m.cols())
    }
}

/// `C (+)= op(A) · op(B)` — the one kernel entry point.
///
/// `ta` / `tb` select the logical transpose of each operand; `accumulate`
/// chooses between `C +=` and `C =`. See the module docs for the determinism
/// contract.
///
/// # Panics
/// Panics on inner-dimension or output-shape mismatch.
pub fn gemm_into(ta: bool, tb: bool, a: &Matrix, b: &Matrix, out: &mut Matrix, accumulate: bool) {
    let (m, k_dim) = op_shape(a, ta);
    let (kb, n) = op_shape(b, tb);
    assert_eq!(
        k_dim, kb,
        "matmul shape mismatch: op(A) is {}x{}, op(B) is {}x{}",
        m, k_dim, kb, n
    );
    assert_eq!(
        out.shape(),
        (m, n),
        "gemm output shape: expected {}x{}, got {}x{}",
        m,
        n,
        out.rows(),
        out.cols()
    );
    if !accumulate {
        out.fill_zero();
    }
    if m == 0 || n == 0 || k_dim == 0 {
        return;
    }
    let shape = (m, k_dim, n);
    let a_strides = if ta { (1, m) } else { (k_dim, 1) };
    if !tb {
        simd::small_gemm(
            shape,
            a.as_slice(),
            a_strides,
            b.as_slice(),
            out.as_mut_slice(),
        );
        return;
    }
    OP_B.with(|op_b| {
        let mut op_b = op_b.borrow_mut();
        if op_b.len() < k_dim * n {
            op_b.resize(k_dim * n, 0.0);
        }
        let op_b = &mut op_b[..k_dim * n];
        for (j, b_row) in b.as_slice().chunks_exact(k_dim).enumerate() {
            for (kk, &x) in b_row.iter().enumerate() {
                op_b[kk * n + j] = x;
            }
        }
        simd::small_gemm(shape, a.as_slice(), a_strides, op_b, out.as_mut_slice());
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Branch-free naive reference: the chain every path must match exactly.
    fn naive(ta: bool, tb: bool, a: &Matrix, b: &Matrix, init: Option<&Matrix>) -> Matrix {
        let (m, k_dim) = op_shape(a, ta);
        let (_, n) = op_shape(b, tb);
        let mut out = match init {
            Some(c) => c.clone(),
            None => Matrix::zeros(m, n),
        };
        for i in 0..m {
            for j in 0..n {
                let mut s = out[(i, j)];
                for k in 0..k_dim {
                    let a_ik = if ta { a[(k, i)] } else { a[(i, k)] };
                    let b_kj = if tb { b[(j, k)] } else { b[(k, j)] };
                    s += a_ik * b_kj;
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    fn random_matrix(rng: &mut rand::rngs::StdRng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-2.0..2.0))
    }

    fn assert_bits_equal(got: &Matrix, want: &Matrix, ctx: &str) {
        assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
        for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{ctx}: element {idx} differs: {g} vs {w}"
            );
        }
    }

    #[test]
    fn all_variants_match_naive_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        // Ragged tile edges (non-multiples of 4 rows and 8 columns), up to
        // a 150 x 70 x 90 product.
        let sizes = [
            (1, 1, 1),
            (3, 5, 2),
            (7, 9, 11),
            (33, 17, 29),
            (64, 40, 50),
            (150, 70, 90),
        ];
        for &(m, k_dim, n) in &sizes {
            for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
                let a = if ta {
                    random_matrix(&mut rng, k_dim, m)
                } else {
                    random_matrix(&mut rng, m, k_dim)
                };
                let b = if tb {
                    random_matrix(&mut rng, n, k_dim)
                } else {
                    random_matrix(&mut rng, k_dim, n)
                };
                let init = random_matrix(&mut rng, m, n);
                let ctx = format!("{m}x{k_dim}x{n} ta={ta} tb={tb}");
                let mut out = Matrix::zeros(m, n);
                gemm_into(ta, tb, &a, &b, &mut out, false);
                assert_bits_equal(&out, &naive(ta, tb, &a, &b, None), &ctx);

                // Accumulating variant: chain must start from the prior
                // value.
                let mut out = init.clone();
                gemm_into(ta, tb, &a, &b, &mut out, true);
                let want = naive(ta, tb, &a, &b, Some(&init));
                assert_bits_equal(&out, &want, &format!("acc {ctx}"));
            }
        }
    }

    #[test]
    fn every_backend_matches_naive_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        // Ragged against the 4-row groups and the 8-wide tiles.
        let a = random_matrix(&mut rng, 70, 45);
        let b = random_matrix(&mut rng, 45, 37);
        let want = naive(false, false, &a, &b, None);
        let before = crate::simd::active();
        for backend in crate::simd::supported_backends() {
            assert!(crate::simd::set_backend(backend));
            let mut out = Matrix::zeros(70, 37);
            gemm_into(false, false, &a, &b, &mut out, false);
            assert_bits_equal(&out, &want, &format!("backend={}", backend.name()));
        }
        crate::simd::set_backend(before);
    }

    #[test]
    fn signed_zero_columns_stay_branch_free() {
        // A zero in A must still contribute `0.0 * b` to the chain: with the
        // old sparsity skip, (-0.0) + 0.0*b = -0.0 vs skipped = -0.0 is fine
        // but 0-chain prefixes differ once mixed signs appear. Lock the
        // branch-free behaviour down with exact bits.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![-0.0, -0.0]);
        let mut out = Matrix::zeros(1, 1);
        gemm_into(false, false, &a, &b, &mut out, false);
        // 0.0 + 0.0*(-0.0) + 1.0*(-0.0) = 0.0 + 0.0 + (-0.0) = 0.0
        assert_eq!(out[(0, 0)].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn empty_inner_dim_is_identity_for_accumulate() {
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 3);
        let mut out = Matrix::full(2, 3, 7.0);
        gemm_into(false, false, &a, &b, &mut out, true);
        assert!(out.as_slice().iter().all(|&x| x == 7.0));
        gemm_into(false, false, &a, &b, &mut out, false);
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
    }
}
