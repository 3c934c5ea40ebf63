//! Runtime-dispatched SIMD micro-kernels for the GEMM and fused gate paths.
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
//! steps. The SIMD kernels vectorize **across the NR output columns** — each
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
//! Tile shapes per backend (`MR` rows is 4 everywhere so A-packing is
//! shared; only the packed-B panel width differs):
//!
//! | backend | panel width NR | accumulators            |
//! |---------|----------------|-------------------------|
//! | avx2    | 16             | 8 × `__m256` (8 chains) |
//! | sse2    | 8              | 8 × `__m128` (8 chains) |
//! | scalar  | 8              | `[[f32; 8]; 4]`         |
//!
//! The scalar kernel is the PR-2 register-tiled loop unchanged; the wider
//! AVX2 tile exists because a 4×8 tile has only 4 independent chains per
//! column group and stalls on add latency, while 8 chains keep both FP ports
//! busy every cycle.

use std::sync::atomic::{AtomicU8, Ordering};

/// Rows per micro-kernel tile — shared by every backend so `op(A)` packing
/// has a single layout.
pub const MR: usize = 4;
/// Widest packed-B panel any backend uses (the AVX2 tile).
pub const NR_MAX: usize = 16;

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
// GEMM micro-kernel dispatch
// ---------------------------------------------------------------------------

/// A micro-kernel: updates the `mr x nr` live region of `c` (row stride
/// `ldc`) with the full-K product of a K-major `MR`-wide packed A tile and a
/// K-major `nr_panel`-wide packed B panel, one k-ascending mul+add chain per
/// element.
pub type MicroKernel = fn(
    k_dim: usize,
    a_tile: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
);

/// The packed-B panel width and micro-kernel for one backend.
#[derive(Clone, Copy)]
pub struct GemmSpec {
    /// Packed panel width (columns per tile).
    pub nr: usize,
    /// The tile kernel.
    pub kernel: MicroKernel,
}

/// The GEMM kernel spec for the active backend.
pub fn gemm_spec() -> GemmSpec {
    gemm_spec_for(active())
}

/// The GEMM kernel spec for a specific backend (bench/test use).
pub fn gemm_spec_for(b: Backend) -> GemmSpec {
    match b {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => GemmSpec {
            nr: 16,
            kernel: microkernel_avx2,
        },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => GemmSpec {
            nr: 8,
            kernel: microkernel_sse2,
        },
        _ => GemmSpec {
            nr: 8,
            kernel: microkernel_scalar,
        },
    }
}

/// The PR-2 scalar register tile (MR=4, NR=8), kept as the reference
/// implementation and the portable fallback.
fn microkernel_scalar(
    k_dim: usize,
    a_tile: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    const NR: usize = 8;
    debug_assert!(nr <= NR && mr <= MR);
    let mut acc = [[0.0f32; NR]; MR];
    for i in 0..mr {
        let c_row = &c[i * ldc..i * ldc + nr];
        acc[i][..nr].copy_from_slice(c_row);
    }
    for k in 0..k_dim {
        let a_col = &a_tile[k * MR..k * MR + MR];
        let b_row = &b_panel[k * NR..k * NR + NR];
        for i in 0..MR {
            let a_ik = a_col[i];
            for j in 0..NR {
                acc[i][j] += a_ik * b_row[j];
            }
        }
    }
    for i in 0..mr {
        let c_row = &mut c[i * ldc..i * ldc + nr];
        c_row.copy_from_slice(&acc[i][..nr]);
    }
}

/// AVX2 4×16 tile: 8 × `__m256` accumulators (one chain per lane), one
/// `vmulps` + `vaddps` per step — no FMA, see the module docs. The live C
/// region is staged through a zero-padded 4×16 buffer so ragged edges run
/// the same dense loop; padded lanes compute garbage that is never stored
/// back.
#[cfg(target_arch = "x86_64")]
fn microkernel_avx2(
    k_dim: usize,
    a_tile: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    const NR: usize = 16;
    debug_assert!(nr <= NR && mr <= MR);
    let mut buf = [0.0f32; MR * NR];
    for i in 0..mr {
        buf[i * NR..i * NR + nr].copy_from_slice(&c[i * ldc..i * ldc + nr]);
    }
    // SAFETY: `gemm_spec_for` only hands this kernel out for `Backend::Avx2`,
    // which `Backend::supported` gates on `is_x86_feature_detected!("avx2")`.
    unsafe { avx2_tile(k_dim, a_tile, b_panel, &mut buf) };
    for i in 0..mr {
        c[i * ldc..i * ldc + nr].copy_from_slice(&buf[i * NR..i * NR + nr]);
    }
}

/// The dense AVX2 4×16 inner loop over a padded accumulator buffer.
///
/// # Safety
/// Requires AVX2. `a_tile` must hold at least `k_dim * MR` floats and
/// `b_panel` at least `k_dim * 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_tile(k_dim: usize, a_tile: &[f32], b_panel: &[f32], buf: &mut [f32; MR * 16]) {
    use std::arch::x86_64::*;
    debug_assert!(a_tile.len() >= k_dim * MR);
    debug_assert!(b_panel.len() >= k_dim * 16);
    let mut acc: [__m256; 8] = [
        _mm256_loadu_ps(buf.as_ptr()),
        _mm256_loadu_ps(buf.as_ptr().add(8)),
        _mm256_loadu_ps(buf.as_ptr().add(16)),
        _mm256_loadu_ps(buf.as_ptr().add(24)),
        _mm256_loadu_ps(buf.as_ptr().add(32)),
        _mm256_loadu_ps(buf.as_ptr().add(40)),
        _mm256_loadu_ps(buf.as_ptr().add(48)),
        _mm256_loadu_ps(buf.as_ptr().add(56)),
    ];
    let a_ptr = a_tile.as_ptr();
    let b_ptr = b_panel.as_ptr();
    for k in 0..k_dim {
        let b0 = _mm256_loadu_ps(b_ptr.add(k * 16));
        let b1 = _mm256_loadu_ps(b_ptr.add(k * 16 + 8));
        let a_col = a_ptr.add(k * MR);
        // Manually indexed so each accumulator stays in its own register;
        // mul then add keeps the per-lane chain identical to scalar.
        let a0 = _mm256_set1_ps(*a_col);
        acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(a0, b0));
        acc[1] = _mm256_add_ps(acc[1], _mm256_mul_ps(a0, b1));
        let a1 = _mm256_set1_ps(*a_col.add(1));
        acc[2] = _mm256_add_ps(acc[2], _mm256_mul_ps(a1, b0));
        acc[3] = _mm256_add_ps(acc[3], _mm256_mul_ps(a1, b1));
        let a2 = _mm256_set1_ps(*a_col.add(2));
        acc[4] = _mm256_add_ps(acc[4], _mm256_mul_ps(a2, b0));
        acc[5] = _mm256_add_ps(acc[5], _mm256_mul_ps(a2, b1));
        let a3 = _mm256_set1_ps(*a_col.add(3));
        acc[6] = _mm256_add_ps(acc[6], _mm256_mul_ps(a3, b0));
        acc[7] = _mm256_add_ps(acc[7], _mm256_mul_ps(a3, b1));
    }
    for (i, v) in acc.into_iter().enumerate() {
        _mm256_storeu_ps(buf.as_mut_ptr().add(i * 8), v);
    }
}

/// SSE2 4×8 tile: 8 × `__m128` accumulators, same chain discipline as the
/// scalar kernel, 4 lanes per op.
#[cfg(target_arch = "x86_64")]
fn microkernel_sse2(
    k_dim: usize,
    a_tile: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    const NR: usize = 8;
    debug_assert!(nr <= NR && mr <= MR);
    let mut buf = [0.0f32; MR * NR];
    for i in 0..mr {
        buf[i * NR..i * NR + nr].copy_from_slice(&c[i * ldc..i * ldc + nr]);
    }
    // SAFETY: SSE2 is unconditionally available on x86_64.
    unsafe { sse2_tile(k_dim, a_tile, b_panel, &mut buf) };
    for i in 0..mr {
        c[i * ldc..i * ldc + nr].copy_from_slice(&buf[i * NR..i * NR + nr]);
    }
}

/// The dense SSE2 4×8 inner loop over a padded accumulator buffer.
///
/// # Safety
/// `a_tile` must hold at least `k_dim * MR` floats and `b_panel` at least
/// `k_dim * 8`. (SSE2 itself is part of the x86_64 baseline.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn sse2_tile(k_dim: usize, a_tile: &[f32], b_panel: &[f32], buf: &mut [f32; MR * 8]) {
    use std::arch::x86_64::*;
    debug_assert!(a_tile.len() >= k_dim * MR);
    debug_assert!(b_panel.len() >= k_dim * 8);
    let mut acc: [__m128; 8] = [
        _mm_loadu_ps(buf.as_ptr()),
        _mm_loadu_ps(buf.as_ptr().add(4)),
        _mm_loadu_ps(buf.as_ptr().add(8)),
        _mm_loadu_ps(buf.as_ptr().add(12)),
        _mm_loadu_ps(buf.as_ptr().add(16)),
        _mm_loadu_ps(buf.as_ptr().add(20)),
        _mm_loadu_ps(buf.as_ptr().add(24)),
        _mm_loadu_ps(buf.as_ptr().add(28)),
    ];
    let a_ptr = a_tile.as_ptr();
    let b_ptr = b_panel.as_ptr();
    for k in 0..k_dim {
        let b0 = _mm_loadu_ps(b_ptr.add(k * 8));
        let b1 = _mm_loadu_ps(b_ptr.add(k * 8 + 4));
        let a_col = a_ptr.add(k * MR);
        let a0 = _mm_set1_ps(*a_col);
        acc[0] = _mm_add_ps(acc[0], _mm_mul_ps(a0, b0));
        acc[1] = _mm_add_ps(acc[1], _mm_mul_ps(a0, b1));
        let a1 = _mm_set1_ps(*a_col.add(1));
        acc[2] = _mm_add_ps(acc[2], _mm_mul_ps(a1, b0));
        acc[3] = _mm_add_ps(acc[3], _mm_mul_ps(a1, b1));
        let a2 = _mm_set1_ps(*a_col.add(2));
        acc[4] = _mm_add_ps(acc[4], _mm_mul_ps(a2, b0));
        acc[5] = _mm_add_ps(acc[5], _mm_mul_ps(a2, b1));
        let a3 = _mm_set1_ps(*a_col.add(3));
        acc[6] = _mm_add_ps(acc[6], _mm_mul_ps(a3, b0));
        acc[7] = _mm_add_ps(acc[7], _mm_mul_ps(a3, b1));
    }
    for (i, v) in acc.into_iter().enumerate() {
        _mm_storeu_ps(buf.as_mut_ptr().add(i * 4), v);
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
