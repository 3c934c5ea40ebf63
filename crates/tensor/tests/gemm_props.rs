//! Property tests for the GEMM kernel's 0-ULP determinism contract.
//!
//! The contract (see `cohortnet_tensor::gemm`): every output element is one
//! f32 accumulation chain over `k` in strictly increasing order, starting
//! from the prior value (zero when not accumulating). All four transpose
//! variants on every SIMD backend must produce bit-identical results to the
//! branch-free naive reference below — not merely close, *equal to the
//! bit*.
//!
//! Sizes and fills are drawn from the in-tree `proptest` stand-in; matrices
//! are filled from a drawn `u64` seed (the stand-in has no `prop_flat_map`,
//! so dependent lengths are derived in the body). Fills inject exact `0.0`
//! and `-0.0` entries so any sparsity branch (`a_ik == 0.0` skips) would be
//! caught: skipping a `+ 0.0 * b` term changes `-0.0` outcomes and rounding.

use cohortnet_tensor::gemm::gemm_into;
use cohortnet_tensor::simd::{set_backend, supported_backends};
use cohortnet_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random matrix with ~15% exact signed zeros.
fn fill(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.gen_bool(0.15) {
                if rng.gen_bool(0.5) {
                    0.0
                } else {
                    -0.0
                }
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Branch-free naive reference: one k-ascending chain per output element,
/// seeded from the prior `out` value.
fn naive(ta: bool, tb: bool, a: &Matrix, b: &Matrix, out: &mut Matrix, k_dim: usize) {
    let (m, n) = out.shape();
    for i in 0..m {
        for j in 0..n {
            let mut acc = out[(i, j)];
            for k in 0..k_dim {
                let av = if ta { a[(k, i)] } else { a[(i, k)] };
                let bv = if tb { b[(j, k)] } else { b[(k, j)] };
                acc += av * bv;
            }
            out[(i, j)] = acc;
        }
    }
}

fn assert_bits_equal(got: &Matrix, want: &Matrix, ctx: &str) -> Result<(), TestCaseError> {
    for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits(),
            "{ctx}: element {idx} differs: {g} vs {w}"
        );
    }
    Ok(())
}

fn operand_shapes(
    ta: bool,
    tb: bool,
    m: usize,
    k: usize,
    n: usize,
) -> ((usize, usize), (usize, usize)) {
    let a_shape = if ta { (k, m) } else { (m, k) };
    let b_shape = if tb { (n, k) } else { (k, n) };
    (a_shape, b_shape)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All four transpose variants, plain and accumulating, hit the naive
    /// chain bit-for-bit on small-path sizes.
    #[test]
    fn small_sizes_match_naive_bitwise(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        ta in coin(),
        tb in coin(),
        accumulate in coin(),
        seed in 0u64..u64::MAX,
    ) {
        check_variant(m, k, n, ta, tb, accumulate, seed)?;
    }

    /// Larger sizes, many 4-row groups and 8-column tiles, still match
    /// naive.
    #[test]
    fn blocked_sizes_match_naive_bitwise(
        m in 24usize..80,
        k in 16usize..64,
        n in 24usize..80,
        ta in coin(),
        tb in coin(),
        accumulate in coin(),
        seed in 0u64..u64::MAX,
    ) {
        check_variant(m, k, n, ta, tb, accumulate, seed)?;
    }

    /// The SIMD backend never changes a single bit: every lane runs the
    /// scalar chain.
    #[test]
    fn backend_is_invisible(
        m in 32usize..96,
        k in 16usize..64,
        n in 32usize..96,
        ta in coin(),
        tb in coin(),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ((am, ak), (bm, bk)) = operand_shapes(ta, tb, m, k, n);
        let a = fill(am, ak, &mut rng);
        let b = fill(bm, bk, &mut rng);
        let mut base = Matrix::zeros(m, n);
        naive(ta, tb, &a, &b, &mut base, k);
        for backend in supported_backends() {
            prop_assert!(set_backend(backend));
            let mut out = Matrix::zeros(m, n);
            gemm_into(ta, tb, &a, &b, &mut out, false);
            assert_bits_equal(&out, &base, &format!("backend={}", backend.name()))?;
        }
    }

    /// The public `Matrix` wrappers route through the same kernel.
    #[test]
    fn matrix_wrappers_agree_with_kernel(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = fill(m, k, &mut rng);
        let b = fill(k, n, &mut rng);
        let at = fill(k, m, &mut rng);
        let bt = fill(n, k, &mut rng);

        let mut want = Matrix::zeros(m, n);
        gemm_into(false, false, &a, &b, &mut want, false);
        assert_bits_equal(&a.matmul(&b), &want, "matmul")?;

        let mut want_tn = Matrix::zeros(m, n);
        gemm_into(true, false, &at, &b, &mut want_tn, false);
        assert_bits_equal(&at.matmul_tn(&b), &want_tn, "matmul_tn")?;

        let mut want_nt = Matrix::zeros(m, n);
        gemm_into(false, true, &a, &bt, &mut want_nt, false);
        assert_bits_equal(&a.matmul_nt(&bt), &want_nt, "matmul_nt")?;

        let mut acc = fill(m, n, &mut rng);
        let mut want_acc = acc.clone();
        naive(false, false, &a, &b, &mut want_acc, k);
        a.matmul_acc(&b, &mut acc);
        assert_bits_equal(&acc, &want_acc, "matmul_acc")?;
    }
}

/// `bool` implements `Strategy` as a fair coin (the value itself is
/// ignored); this name just makes the draw sites read as intended.
fn coin() -> bool {
    true
}

fn check_variant(
    m: usize,
    k: usize,
    n: usize,
    ta: bool,
    tb: bool,
    accumulate: bool,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ((am, ak), (bm, bk)) = operand_shapes(ta, tb, m, k, n);
    let a = fill(am, ak, &mut rng);
    let b = fill(bm, bk, &mut rng);
    let out = if accumulate {
        fill(m, n, &mut rng)
    } else {
        Matrix::zeros(m, n)
    };
    let mut want = if accumulate {
        out.clone()
    } else {
        Matrix::zeros(m, n)
    };
    naive(ta, tb, &a, &b, &mut want, k);
    // Every supported SIMD backend must hit the same naive chain bitwise.
    for backend in supported_backends() {
        prop_assert!(set_backend(backend));
        let mut got = out.clone();
        gemm_into(ta, tb, &a, &b, &mut got, accumulate);
        let ctx = format!(
            "m={m} k={k} n={n} ta={ta} tb={tb} acc={accumulate} backend={}",
            backend.name()
        );
        assert_bits_equal(&got, &want, &ctx)?;
    }
    Ok(())
}
