//! Runtime-dispatched SIMD kernels for the GEMM and fused gate paths.
//!
//! One backend is selected per process — AVX2 when the CPU has it, else SSE2
//! (baseline on x86_64), else scalar — detected once via
//! `is_x86_feature_detected!` and overridable with `COHORTNET_SIMD=avx2|
//! sse2|scalar` (or [`set_backend`] from code, which tests and benches use
//! to sweep backends in one process).
//!
//! # Why vectorization preserves the 0-ULP contract
//!
//! The GEMM determinism contract (see [`crate::gemm`]) is *per element*:
//! every output element is one k-ascending f32 chain of `acc = acc + a*b`
//! steps. The GEMM kernels vectorize **across the output columns** — each
//! SIMD lane owns exactly one output element and performs exactly the scalar
//! kernel's operation sequence for it: a correctly-rounded IEEE-754 multiply
//! followed by a correctly-rounded add, k ascending. Lanes never exchange
//! data mid-chain (no horizontal adds, no k-splitting), so every lane's bits
//! equal the scalar chain's bits.
//!
//! For the same reason the kernels deliberately do **not** use FMA
//! (`vfmadd*`): a fused multiply-add skips the intermediate rounding of the
//! product, producing results that differ from the scalar `mul` + `add`
//! chain by up to 1 ULP per step. FMA would be faster; it would also break
//! bit-identity with the training forward, the tape kernels, and every
//! recorded loss trajectory. The AVX2 kernel therefore issues `vmulps` +
//! `vaddps` pairs and wins its speedup from width and register blocking,
//! not contraction.
//!
//! There is one GEMM kernel shape, [`small_gemm`]: four output rows at a
//! time (then one), each row's 8-column tiles held in registers across the
//! whole `k` loop, no packing. It has two bodies:
//!
//! | backend      | kernel                | accumulators per 4 rows   |
//! |--------------|-----------------------|---------------------------|
//! | avx2         | `small_gemm_avx2`     | 4 × `__m256`, masked tail |
//! | sse2, scalar | `small_gemm_portable` | 4 × `[f32; 8]`            |
//!
//! The portable body is plain Rust that LLVM vectorizes to SSE2 width, so
//! SSE2 needs no intrinsics of its own; `COHORTNET_SIMD=scalar` and `sse2`
//! run the same GEMM code and differ only in the slice kernels and
//! transcendentals below.
//!
//! The active backend also selects the transcendentals of the fused gates
//! and softmax: [`crate::math`] holds vector ports of libm's `expf` and
//! `tanhf` (AVX2: both, `expf` only with FMA; SSE2: `tanhf`; scalar: plain
//! libm). The same rule applies there — a lane does exactly what the
//! scalar routine does — which is why the `expf` port *does* fuse: libm's
//! `__expf_fma` fuses, so replaying it lane by lane must too.

use std::sync::atomic::{AtomicU8, Ordering};

/// A SIMD instruction-set backend for the dispatched kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// 256-bit AVX2 kernels (no FMA contraction — see the module docs).
    Avx2,
    /// 128-bit SSE2 kernels (baseline on x86_64).
    Sse2,
    /// Pure-Rust scalar kernels (every platform).
    Scalar,
}

impl Backend {
    /// Stable lowercase name (`avx2`/`sse2`/`scalar`) — used by
    /// `COHORTNET_SIMD`, `/healthz`, `/metrics` and the bench output.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx2 => "avx2",
            Backend::Sse2 => "sse2",
            Backend::Scalar => "scalar",
        }
    }

    /// Whether the running CPU can execute this backend.
    pub fn supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => true, // SSE2 is part of the x86_64 baseline ABI.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// Every backend the running CPU supports, fastest first.
pub fn supported_backends() -> Vec<Backend> {
    [Backend::Avx2, Backend::Sse2, Backend::Scalar]
        .into_iter()
        .filter(|b| b.supported())
        .collect()
}

/// The best backend the running CPU supports (ignoring the env override).
pub fn detect() -> Backend {
    if Backend::Avx2.supported() {
        Backend::Avx2
    } else if Backend::Sse2.supported() {
        Backend::Sse2
    } else {
        Backend::Scalar
    }
}

const ACTIVE_UNSET: u8 = 0;

/// Process-wide active backend; 0 until first use, then 1 + discriminant.
static ACTIVE: AtomicU8 = AtomicU8::new(ACTIVE_UNSET);

fn encode(b: Backend) -> u8 {
    match b {
        Backend::Avx2 => 1,
        Backend::Sse2 => 2,
        Backend::Scalar => 3,
    }
}

fn decode(v: u8) -> Backend {
    match v {
        1 => Backend::Avx2,
        2 => Backend::Sse2,
        _ => Backend::Scalar,
    }
}

fn init_from_env() -> Backend {
    let detected = detect();
    let Ok(spec) = std::env::var("COHORTNET_SIMD") else {
        return detected;
    };
    let requested = match spec.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => return detected,
        "avx2" => Backend::Avx2,
        "sse2" => Backend::Sse2,
        "scalar" => Backend::Scalar,
        other => {
            eprintln!(
                "COHORTNET_SIMD={other:?} is not avx2|sse2|scalar|auto; using detected {}",
                detected.name()
            );
            return detected;
        }
    };
    if requested.supported() {
        requested
    } else {
        eprintln!(
            "COHORTNET_SIMD requested {} but the CPU does not support it; using {}",
            requested.name(),
            detected.name()
        );
        detected
    }
}

/// The active backend, resolving `COHORTNET_SIMD` / CPU detection on first
/// use. All dispatched kernels produce bit-identical results, so the choice
/// only trades wall-clock.
pub fn active() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        ACTIVE_UNSET => {
            let b = init_from_env();
            ACTIVE.store(encode(b), Ordering::Relaxed);
            b
        }
        v => decode(v),
    }
}

/// Forces the active backend (process-wide). Returns `false` — leaving the
/// current backend unchanged — when the CPU does not support `b`. Tests and
/// benches use this to sweep backends; because every backend is
/// bit-identical, flipping it concurrently with other work is benign.
pub fn set_backend(b: Backend) -> bool {
    if !b.supported() {
        return false;
    }
    ACTIVE.store(encode(b), Ordering::Relaxed);
    true
}

// ---------------------------------------------------------------------------
// GEMM kernels
// ---------------------------------------------------------------------------

/// The register-tiled GEMM kernel of the active backend: `c += op(A) · B`
/// for an `m x n` row-major `c`, a row-major `k x n` `B`, and
/// `op(A)[i][k] = a[i·a_rs + k·a_cs]` (so one kernel serves `A` and `Aᵀ`).
/// Every element is one k-ascending mul+add chain from its prior value.
/// AVX2 runs `small_gemm_avx2`; SSE2 and scalar run `small_gemm_portable`,
/// which LLVM vectorizes to SSE2 width.
pub fn small_gemm(
    mkn: (usize, usize, usize),
    a: &[f32],
    a_strides: (usize, usize),
    b: &[f32],
    c: &mut [f32],
) {
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => small_gemm_avx2(mkn, a, a_strides, b, c),
        _ => small_gemm_portable(mkn, a, a_strides, b, c),
    }
}

/// The portable [`small_gemm`] kernel, in plain Rust: rows four at a time
/// (then one at a time), each row's outputs in `[f32; 8]` tiles held across
/// the whole `k` loop, the last `n % 8` columns in a tile whose spare lanes
/// are computed and never stored. Each lane is `acc = acc + a·b`, k
/// ascending: Rust never contracts that to an FMA, so the chain is the
/// scalar one.
fn small_gemm_portable(
    (m, k_dim, n): (usize, usize, usize),
    a: &[f32],
    a_strides: (usize, usize),
    b: &[f32],
    c: &mut [f32],
) {
    let mut i = 0;
    while i + 4 <= m {
        small_rows_portable::<4>(i, (k_dim, n), a, a_strides, b, c);
        i += 4;
    }
    while i < m {
        small_rows_portable::<1>(i, (k_dim, n), a, a_strides, b, c);
        i += 1;
    }
}

/// Rows `i0 .. i0 + R` of [`small_gemm_portable`]: for each 8-column tile,
/// `R` accumulator tiles loaded from `c`, stepped over every `k`, stored
/// back.
#[inline]
fn small_rows_portable<const R: usize>(
    i0: usize,
    (k_dim, n): (usize, usize),
    a: &[f32],
    (a_rs, a_cs): (usize, usize),
    b: &[f32],
    c: &mut [f32],
) {
    let mut j0 = 0;
    while j0 < n {
        let w = (n - j0).min(8);
        let mut acc = [[0.0f32; 8]; R];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            *acc_r = load8(c, (i0 + r) * n + j0, w);
        }
        for k in 0..k_dim {
            let b_k = load8(b, k * n + j0, w);
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let a_ik = a[(i0 + r) * a_rs + k * a_cs];
                for (x, &y) in acc_r.iter_mut().zip(&b_k) {
                    *x += a_ik * y;
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let row = (i0 + r) * n + j0;
            if w == 8 {
                c[row..row + 8].copy_from_slice(acc_r);
            } else {
                c[row..row + w].copy_from_slice(&acc_r[..w]);
            }
        }
        j0 += 8;
    }
}

/// A tile's lanes from `src[at..]`: 8 values where 8 remain (lanes past
/// `w` then hold whatever follows, which the kernel never stores), else the
/// `w` there and zeros. The fixed-length load keeps every full-width step
/// free of a variable-length copy.
#[inline(always)]
fn load8(src: &[f32], at: usize, w: usize) -> [f32; 8] {
    match src.get(at..at + 8) {
        Some(full) => full.try_into().expect("8 values"),
        None => {
            let mut tile = [0.0f32; 8];
            tile[..w].copy_from_slice(&src[at..at + w]);
            tile
        }
    }
}

/// The AVX2 [`small_gemm`] kernel: rows four at a time (then one at a time),
/// each row's outputs in 8-wide register tiles held across the whole `k`
/// loop, with a masked tile for the last `n % 8` columns. One `vmulps` +
/// `vaddps` per step per lane, k ascending — no FMA, see the module docs.
#[cfg(target_arch = "x86_64")]
fn small_gemm_avx2(
    (m, k_dim, n): (usize, usize, usize),
    a: &[f32],
    (a_rs, a_cs): (usize, usize),
    b: &[f32],
    c: &mut [f32],
) {
    assert_eq!(c.len(), m * n, "small GEMM output length");
    assert!(b.len() >= k_dim * n, "small GEMM B too short");
    if m == 0 || n == 0 || k_dim == 0 {
        return;
    }
    assert!(
        (m - 1) * a_rs + (k_dim - 1) * a_cs < a.len(),
        "small GEMM A too short"
    );
    let mut i = 0;
    while i + 4 <= m {
        // SAFETY: `small_gemm` calls this kernel only for
        // `Backend::Avx2`, which `Backend::supported` gates on AVX2
        // detection; the asserts above bound every index the tile reads
        // (rows `i..i + 4 <= m`, columns `< n`, `k < k_dim`).
        unsafe { small_rows_avx2::<4>(i, (k_dim, n), a, (a_rs, a_cs), b, c) };
        i += 4;
    }
    while i < m {
        // SAFETY: as above, for the single row `i < m`.
        unsafe { small_rows_avx2::<1>(i, (k_dim, n), a, (a_rs, a_cs), b, c) };
        i += 1;
    }
}

/// Lane masks for a tile's first `w` columns: `TAIL_MASK[8 - w..16 - w]`.
#[cfg(target_arch = "x86_64")]
static TAIL_MASK: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// Rows `i0 .. i0 + R` of [`small_gemm_avx2`]: for each 8-column tile, `R`
/// accumulators loaded from `c`, stepped over every `k`, stored back.
///
/// # Safety
/// Requires AVX2. Rows `i0 .. i0 + R` must lie in `c` (`n` columns each),
/// `b` must hold `k_dim` rows of `n`, and `a` must hold
/// `(i0 + R - 1)·a_rs + (k_dim - 1)·a_cs + 1` values.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn small_rows_avx2<const R: usize>(
    i0: usize,
    (k_dim, n): (usize, usize),
    a: &[f32],
    (a_rs, a_cs): (usize, usize),
    b: &[f32],
    c: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (a_ptr, b_ptr, c_ptr) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    let mut j0 = 0;
    while j0 < n {
        let w = (n - j0).min(8);
        let mask = _mm256_loadu_si256(TAIL_MASK.as_ptr().add(8 - w).cast());
        let mut acc = [_mm256_setzero_ps(); R];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            *acc_r = load_tile(c_ptr.add((i0 + r) * n + j0), w, mask);
        }
        for k in 0..k_dim {
            let b_k = load_tile(b_ptr.add(k * n + j0), w, mask);
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let a_ik = _mm256_set1_ps(*a_ptr.add((i0 + r) * a_rs + k * a_cs));
                *acc_r = _mm256_add_ps(*acc_r, _mm256_mul_ps(a_ik, b_k));
            }
        }
        for (r, &acc_r) in acc.iter().enumerate() {
            let dst = c_ptr.add((i0 + r) * n + j0);
            if w == 8 {
                _mm256_storeu_ps(dst, acc_r);
            } else {
                _mm256_maskstore_ps(dst, mask, acc_r);
            }
        }
        j0 += 8;
    }
}

/// The `w` (≤ 8) floats at `p` in the low lanes, the rest zero.
///
/// # Safety
/// Requires AVX2; `p .. p + w` must be readable and `mask` must select the
/// first `w` lanes.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_tile(
    p: *const f32,
    w: usize,
    mask: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    if w == 8 {
        _mm256_loadu_ps(p)
    } else {
        _mm256_maskload_ps(p, mask)
    }
}

// ---------------------------------------------------------------------------
// Fused-gate slice kernels (used by `crate::exec::kernel`)
// ---------------------------------------------------------------------------

/// `dst[i] = (a[i] + b[i]) + c[i]` — the pre-activation sum of the fused
/// gate kernels, vectorized lane-per-element (bit-identical to the scalar
/// left-to-right sum).
pub fn add3(dst: &mut [f32], a: &[f32], b: &[f32], c: &[f32]) {
    assert!(dst.len() == a.len() && a.len() == b.len() && b.len() == c.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: backend gated on AVX2 support.
            unsafe { add3_avx2(dst, a, b, c) }
        }
        _ => add3_scalar(dst, a, b, c),
    }
}

fn add3_scalar(dst: &mut [f32], a: &[f32], b: &[f32], c: &[f32]) {
    for i in 0..dst.len() {
        dst[i] = a[i] + b[i] + c[i];
    }
}

/// # Safety
/// Requires AVX2; slices must be equal length (checked by the caller).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add3_avx2(dst: &mut [f32], a: &[f32], b: &[f32], c: &[f32]) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let mut i = 0;
    while i + 8 <= n {
        let s = _mm256_add_ps(
            _mm256_add_ps(
                _mm256_loadu_ps(a.as_ptr().add(i)),
                _mm256_loadu_ps(b.as_ptr().add(i)),
            ),
            _mm256_loadu_ps(c.as_ptr().add(i)),
        );
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), s);
        i += 8;
    }
    while i < n {
        dst[i] = a[i] + b[i] + c[i];
        i += 1;
    }
}

/// `dst[i] = (1 - z[i]) * h[i] + z[i] * cand[i]` — the fused GRU blend,
/// vectorized lane-per-element with the scalar operation order
/// (`sub`, `mul`, `mul`, `add`), so bits match the scalar kernel exactly.
pub fn gru_blend_slices(dst: &mut [f32], z: &[f32], h: &[f32], cand: &[f32]) {
    assert!(dst.len() == z.len() && z.len() == h.len() && h.len() == cand.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: backend gated on AVX2 support.
            unsafe { gru_blend_avx2(dst, z, h, cand) }
        }
        _ => gru_blend_scalar(dst, z, h, cand),
    }
}

fn gru_blend_scalar(dst: &mut [f32], z: &[f32], h: &[f32], cand: &[f32]) {
    for i in 0..dst.len() {
        dst[i] = (1.0 - z[i]) * h[i] + z[i] * cand[i];
    }
}

/// # Safety
/// Requires AVX2; slices must be equal length (checked by the caller).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gru_blend_avx2(dst: &mut [f32], z: &[f32], h: &[f32], cand: &[f32]) {
    use std::arch::x86_64::*;
    let one = _mm256_set1_ps(1.0);
    let n = dst.len();
    let mut i = 0;
    while i + 8 <= n {
        let zv = _mm256_loadu_ps(z.as_ptr().add(i));
        let hv = _mm256_loadu_ps(h.as_ptr().add(i));
        let cv = _mm256_loadu_ps(cand.as_ptr().add(i));
        let keep = _mm256_mul_ps(_mm256_sub_ps(one, zv), hv);
        let take = _mm256_mul_ps(zv, cv);
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(keep, take));
        i += 8;
    }
    while i < n {
        dst[i] = (1.0 - z[i]) * h[i] + z[i] * cand[i];
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for b in [Backend::Avx2, Backend::Sse2, Backend::Scalar] {
            assert_eq!(decode(encode(b)), b);
        }
        assert_eq!(Backend::Avx2.name(), "avx2");
    }

    #[test]
    fn scalar_always_supported_and_settable() {
        assert!(Backend::Scalar.supported());
        let before = active();
        assert!(set_backend(Backend::Scalar));
        assert_eq!(active(), Backend::Scalar);
        assert!(set_backend(before));
    }

    #[test]
    fn detect_is_among_supported() {
        assert!(supported_backends().contains(&detect()));
    }

    #[test]
    fn slice_kernels_match_scalar_bitwise() {
        let n = 37; // straddles the 8-lane boundary with a ragged tail
        let a: Vec<f32> = (0..n).map(|i| (i as f32 - 17.0) * 0.37).collect();
        let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).sin()).collect();
        let c: Vec<f32> = (0..n).map(|i| 1.0 / (i as f32 + 1.0)).collect();
        let z: Vec<f32> = (0..n)
            .map(|i| (i as f32 / n as f32).clamp(0.0, 1.0))
            .collect();

        let mut want_add = vec![0.0f32; n];
        add3_scalar(&mut want_add, &a, &b, &c);
        let mut want_blend = vec![0.0f32; n];
        gru_blend_scalar(&mut want_blend, &z, &a, &b);

        let before = active();
        for backend in supported_backends() {
            assert!(set_backend(backend));
            let mut got = vec![0.0f32; n];
            add3(&mut got, &a, &b, &c);
            for (g, w) in got.iter().zip(&want_add) {
                assert_eq!(g.to_bits(), w.to_bits(), "add3 drifted on {backend:?}");
            }
            let mut got = vec![0.0f32; n];
            gru_blend_slices(&mut got, &z, &a, &b);
            for (g, w) in got.iter().zip(&want_blend) {
                assert_eq!(g.to_bits(), w.to_bits(), "gru_blend drifted on {backend:?}");
            }
        }
        set_backend(before);
    }
}
