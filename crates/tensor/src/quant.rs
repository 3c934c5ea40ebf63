//! Int8 per-channel quantized inference kernels.
//!
//! The quantized path trades the f32 GEMM's bit-identity-with-training for
//! throughput: weights are packed to `i8` with one scale per output channel
//! (computed once at snapshot save), activations are quantized per row at
//! runtime, and the dot products accumulate in `i32` — dequantizing only at
//! the epilogue.
//!
//! # Determinism
//!
//! Integer addition is exact and associative, so the `i32` accumulator is
//! order-free: scalar, SSE2, and AVX2 integer kernels produce the *same*
//! `i32` for every dot product, and the epilogue is one fixed f32
//! expression. A fixed snapshot therefore scores bit-identically on every
//! backend and thread count — the quantized path has its own reproducibility
//! guarantee, just anchored to the snapshot rather than to the f32 training
//! forward.
//!
//! # Scheme (`int8-perchan-v1`)
//!
//! For a weight matrix `W (k x n)` used as `x · W`:
//!
//! * per **output channel** `j`: `scale_w[j] = absmax(W[:, j]) / 127`,
//!   `Q[j][i] = round(W[i][j] / scale_w[j])` clamped to ±127, stored
//!   channel-contiguous (column-major) so each dot streams two `i8` runs;
//! * per **activation row** `r` at runtime: `scale_x = absmax(x[r]) / 127`,
//!   same round/clamp (all-zero rows get scale 0 and a zero row);
//! * `out[r][j] = (Σ_i qx[i]·qw[j][i] as f32) · (scale_x · scale_w[j])`.
//!
//! `round` is `f32::round` (half away from zero) everywhere — save-time and
//! runtime quantization share this one definition.

use crate::matrix::Matrix;
use crate::param::ParamId;
use crate::simd::{self, Backend};

/// An `i8`-packed weight matrix with per-output-channel scales, laid out for
/// `x · W` products: channel `j`'s `k` weights are contiguous.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    k: usize,
    n: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

/// Int8 stand-ins for some of a [`crate::ParamStore`]'s weights, keyed by
/// [`ParamId`]. The eager executor ([`crate::exec::Eager::quantized`]) runs
/// `x · W` through [`qgemm`] for every weight found here and through the f32
/// GEMM for the rest — quantization is a weight lookup, not a second forward.
#[derive(Debug, Clone, Default)]
pub struct QuantWeights {
    by_id: Vec<Option<QuantMatrix>>,
}

impl QuantWeights {
    /// Registers `q` as the int8 stand-in of weight `id`.
    pub fn insert(&mut self, id: ParamId, q: QuantMatrix) {
        if self.by_id.len() <= id.0 {
            self.by_id.resize(id.0 + 1, None);
        }
        self.by_id[id.0] = Some(q);
    }

    /// The int8 stand-in of weight `id`, if one is registered.
    pub fn get(&self, id: ParamId) -> Option<&QuantMatrix> {
        self.by_id.get(id.0).and_then(Option::as_ref)
    }
}

/// Quantizes one f32 slice to `i8` at `absmax/127` scale, returning the
/// scale. An all-zero (or empty) slice quantizes to zeros with scale 0.
pub fn quantize_slice(src: &[f32], dst: &mut [i8]) -> f32 {
    assert_eq!(src.len(), dst.len(), "quantize_slice length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd::active() == Backend::Avx2 {
        // SAFETY: backend gated on AVX2 support.
        return unsafe { quantize_slice_avx2(src, dst) };
    }
    quantize_slice_impl(src, dst)
}

/// The one quantization definition: `round(v / scale)` with `f32::round`
/// (half away from zero), clamped to ±127. `#[inline(always)]` so the AVX2
/// wrapper compiles this body *with* AVX2 enabled — `round` then lowers to a
/// `vroundps`-based branchless sequence (bit-exact with libm `roundf`)
/// instead of one libm call per element, and the loop auto-vectorizes.
#[inline(always)]
fn quantize_slice_impl(src: &[f32], dst: &mut [i8]) -> f32 {
    let absmax = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if absmax == 0.0 {
        dst.fill(0);
        return 0.0;
    }
    let scale = absmax / 127.0;
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = (v / scale).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

/// See [`quantize_slice_impl`] — same arithmetic, compiled with AVX2.
///
/// # Safety
/// Requires AVX2 (caller-gated on the active backend).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_slice_avx2(src: &[f32], dst: &mut [i8]) -> f32 {
    quantize_slice_impl(src, dst)
}

impl QuantMatrix {
    /// Quantizes `w` (shape `k x n`, used as the right operand of `x · W`)
    /// with one scale per output channel (column).
    pub fn quantize(w: &Matrix) -> QuantMatrix {
        let (k, n) = w.shape();
        let mut data = vec![0i8; k * n];
        let mut scales = vec![0.0f32; n];
        let mut col = vec![0.0f32; k];
        for j in 0..n {
            for i in 0..k {
                col[i] = w[(i, j)];
            }
            scales[j] = quantize_slice(&col, &mut data[j * k..(j + 1) * k]);
        }
        QuantMatrix { k, n, data, scales }
    }

    /// Rebuilds a matrix from stored parts (snapshot load).
    ///
    /// # Panics
    /// Panics when the buffer lengths disagree with the shape.
    pub fn from_parts(k: usize, n: usize, data: Vec<i8>, scales: Vec<f32>) -> QuantMatrix {
        assert_eq!(data.len(), k * n, "quant data length mismatch");
        assert_eq!(scales.len(), n, "quant scales length mismatch");
        QuantMatrix { k, n, data, scales }
    }

    /// Inner (reduction) dimension `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output channels `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Channel-contiguous `i8` weights (`n` runs of `k`).
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Per-channel scales (`n` entries).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The f32 matrix this quantization represents (dequantized) — used by
    /// tests to measure quantization error, not by the serving path.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.k, self.n, |i, j| {
            f32::from(self.data[j * self.k + i]) * self.scales[j]
        })
    }
}

/// `out = x · W` through the int8 path: each row of `x` is quantized at
/// `absmax/127`, dotted against every channel in `i32`, and dequantized at
/// the epilogue. `out` must be `x.rows() x w.n()`.
pub fn qgemm(x: &Matrix, w: &QuantMatrix, out: &mut Matrix) {
    let mut rows = QuantRows::default();
    rows.quantize(x);
    qgemm_rows(&rows, w, out);
}

/// The rows of an activation matrix quantized for the int8 kernel: `k`
/// `i8` values and one `absmax/127` scale per row. Products that read the
/// same activations (the gates of one GRU step) share one quantization.
#[derive(Debug, Clone, Default)]
pub(crate) struct QuantRows {
    k: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantRows {
    /// Quantizes every row of `x`, reusing the buffers.
    pub(crate) fn quantize(&mut self, x: &Matrix) {
        let k = x.cols();
        self.k = k;
        self.data.clear();
        self.data.resize(x.rows() * k, 0);
        self.scales.clear();
        for r in 0..x.rows() {
            let scale = quantize_slice(x.row(r), &mut self.data[r * k..(r + 1) * k]);
            self.scales.push(scale);
        }
    }

    /// Rows held.
    pub(crate) fn rows(&self) -> usize {
        self.scales.len()
    }
}

/// [`qgemm`] over rows quantized beforehand. `out` must be
/// `x.rows() x w.n()`.
pub(crate) fn qgemm_rows(x: &QuantRows, w: &QuantMatrix, out: &mut Matrix) {
    assert_eq!(x.k, w.k, "qgemm inner dimension mismatch");
    assert_eq!(out.shape(), (x.rows(), w.n), "qgemm output shape mismatch");
    for (r, &sx) in x.scales.iter().enumerate() {
        let out_row = out.row_mut(r);
        if sx == 0.0 {
            out_row.fill(0.0);
            continue;
        }
        score_row(&x.data[r * x.k..(r + 1) * x.k], w, sx, out_row);
    }
}

/// One quantized activation row against every channel. On AVX2 the whole
/// row goes through [`score_row_avx2`], which shares each 16-byte activation
/// load across eight weight streams — the single-channel kernel is
/// instruction-bound on its loads and sign-extends, not its multiplies.
/// Integer accumulation is exact, so the blocking cannot change a single
/// output bit.
fn score_row(qrow: &[i8], w: &QuantMatrix, sx: f32, out_row: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd::active() == Backend::Avx2 {
        // SAFETY: backend gated on AVX2 support; shapes checked by `qgemm`.
        unsafe { score_row_avx2(qrow, &w.data, w.k, &w.scales, sx, out_row) };
        return;
    }
    for (j, o) in out_row.iter_mut().enumerate() {
        let qw = &w.data[j * w.k..(j + 1) * w.k];
        let acc = qdot(qrow, qw);
        *o = acc as f32 * (sx * w.scales[j]);
    }
}

/// Signed `i8` dot product with an `i32` accumulator, dispatched on the
/// active SIMD backend. Exact (integer) — every backend returns the same
/// value for the same inputs.
pub fn qdot(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "qdot length mismatch");
    match simd::active() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: backend gated on AVX2 support.
            unsafe { qdot_avx2(a, b) }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => {
            // SAFETY: SSE2 is part of the x86_64 baseline.
            unsafe { qdot_sse2(a, b) }
        }
        _ => qdot_scalar(a, b),
    }
}

fn qdot_scalar(a: &[i8], b: &[i8]) -> i32 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| i32::from(x) * i32::from(y))
        .sum()
}

/// 16 bytes per step: sign-extend both operands to `i16`, `vpmaddwd` the
/// pairs into `i32` lanes, accumulate. `pmaddwd` on sign-extended `i8`
/// cannot overflow its `i16`-pair sum (≤ 2·127² < 2¹⁵), unlike the
/// `maddubs` shortcut, so the result is exact.
///
/// # Safety
/// Requires AVX2; `a` and `b` must be equal length (caller-checked).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qdot_avx2(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 16 <= n {
        let va = _mm_loadu_si128(a.as_ptr().add(i).cast());
        let vb = _mm_loadu_si128(b.as_ptr().add(i).cast());
        let wa = _mm256_cvtepi8_epi16(va);
        let wb = _mm256_cvtepi8_epi16(vb);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wa, wb));
        i += 16;
    }
    let mut lanes = [0i32; 8];
    _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
    let mut sum: i32 = lanes.iter().sum();
    while i < n {
        sum += i32::from(*a.get_unchecked(i)) * i32::from(*b.get_unchecked(i));
        i += 1;
    }
    sum
}

/// One whole activation row against every channel, eight channels per pass:
/// each 16-byte activation load/extend feeds eight `pmaddwd` streams, so the
/// kernel spends its port-5 shuffle budget (the `cvtepi8_epi16`s) nine times
/// per 128 MACs instead of twelve per 32. One call per row also keeps the
/// non-inlinable `target_feature` boundary out of the hot loop. Exact —
/// every lane is the same sign-extended `i16` product sum as the scalar
/// loop, and `i32` addition is order-free.
///
/// # Safety
/// Requires AVX2. `data` must hold `out_row.len()` channel-contiguous runs
/// of `k` weights, `qrow` must have `k` entries, and `scales` must cover
/// every channel (all checked by `qgemm` before dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn score_row_avx2(
    qrow: &[i8],
    data: &[i8],
    k: usize,
    scales: &[f32],
    sx: f32,
    out_row: &mut [f32],
) {
    use std::arch::x86_64::*;
    let n = out_row.len();
    let hsum = |v: __m256i| -> i32 {
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        lanes.iter().sum()
    };
    let mut j = 0;
    while j + 8 <= n {
        let mut acc0 = _mm256_setzero_si256();
        let mut acc1 = _mm256_setzero_si256();
        let mut acc2 = _mm256_setzero_si256();
        let mut acc3 = _mm256_setzero_si256();
        let mut acc4 = _mm256_setzero_si256();
        let mut acc5 = _mm256_setzero_si256();
        let mut acc6 = _mm256_setzero_si256();
        let mut acc7 = _mm256_setzero_si256();
        let base = data.as_ptr().add(j * k);
        let mut i = 0;
        while i + 16 <= k {
            let ext =
                |off: usize| _mm256_cvtepi8_epi16(_mm_loadu_si128(base.add(off * k + i).cast()));
            let wa = _mm256_cvtepi8_epi16(_mm_loadu_si128(qrow.as_ptr().add(i).cast()));
            acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(wa, ext(0)));
            acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(wa, ext(1)));
            acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(wa, ext(2)));
            acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(wa, ext(3)));
            acc4 = _mm256_add_epi32(acc4, _mm256_madd_epi16(wa, ext(4)));
            acc5 = _mm256_add_epi32(acc5, _mm256_madd_epi16(wa, ext(5)));
            acc6 = _mm256_add_epi32(acc6, _mm256_madd_epi16(wa, ext(6)));
            acc7 = _mm256_add_epi32(acc7, _mm256_madd_epi16(wa, ext(7)));
            i += 16;
        }
        let sums = [acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7].map(hsum);
        for (t, s) in sums.into_iter().enumerate() {
            let mut sum = s;
            for ii in i..k {
                sum += i32::from(*qrow.get_unchecked(ii))
                    * i32::from(*data.get_unchecked((j + t) * k + ii));
            }
            *out_row.get_unchecked_mut(j + t) = sum as f32 * (sx * scales.get_unchecked(j + t));
        }
        j += 8;
    }
    while j < n {
        let acc = qdot_avx2(qrow, &data[j * k..(j + 1) * k]);
        *out_row.get_unchecked_mut(j) = acc as f32 * (sx * scales.get_unchecked(j));
        j += 1;
    }
}

/// SSE2 variant: sign-extension via the `unpack` + arithmetic-shift trick
/// (`cvtepi8_epi16` needs SSE4.1), then `pmaddwd` as above.
///
/// # Safety
/// `a` and `b` must be equal length (caller-checked); SSE2 is baseline on
/// x86_64.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn qdot_sse2(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut acc = _mm_setzero_si128();
    let mut i = 0;
    while i + 16 <= n {
        let va = _mm_loadu_si128(a.as_ptr().add(i).cast());
        let vb = _mm_loadu_si128(b.as_ptr().add(i).cast());
        // Duplicate each byte into the high half of an i16 lane, then shift
        // right arithmetically: a branch-free sign extension.
        let a_lo = _mm_srai_epi16(_mm_unpacklo_epi8(va, va), 8);
        let a_hi = _mm_srai_epi16(_mm_unpackhi_epi8(va, va), 8);
        let b_lo = _mm_srai_epi16(_mm_unpacklo_epi8(vb, vb), 8);
        let b_hi = _mm_srai_epi16(_mm_unpackhi_epi8(vb, vb), 8);
        acc = _mm_add_epi32(acc, _mm_madd_epi16(a_lo, b_lo));
        acc = _mm_add_epi32(acc, _mm_madd_epi16(a_hi, b_hi));
        i += 16;
    }
    let mut lanes = [0i32; 4];
    _mm_storeu_si128(lanes.as_mut_ptr().cast(), acc);
    let mut sum: i32 = lanes.iter().sum();
    while i < n {
        sum += i32::from(*a.get_unchecked(i)) * i32::from(*b.get_unchecked(i));
        i += 1;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn awkward(n: usize, seed: i32) -> Vec<i8> {
        (0..n)
            .map(|i| (((i as i32 * 37 + seed * 101) % 255) - 127) as i8)
            .collect()
    }

    #[test]
    fn qdot_backends_agree_exactly() {
        let before = simd::active();
        for n in [0, 1, 15, 16, 17, 64, 129] {
            let a = awkward(n, 1);
            let b = awkward(n, 2);
            let want = qdot_scalar(&a, &b);
            for backend in simd::supported_backends() {
                assert!(simd::set_backend(backend));
                assert_eq!(qdot(&a, &b), want, "n={n} backend={backend:?}");
            }
        }
        simd::set_backend(before);
    }

    #[test]
    fn qdot_extremes_do_not_overflow_i16_paths() {
        // ±127 everywhere is the worst case for a maddubs-style kernel; our
        // sign-extended pmaddwd must get it exactly right.
        let a = vec![127i8; 64];
        let b = vec![-127i8; 64];
        let want = -127 * 127 * 64;
        let before = simd::active();
        for backend in simd::supported_backends() {
            assert!(simd::set_backend(backend));
            assert_eq!(qdot(&a, &b), want, "backend={backend:?}");
        }
        simd::set_backend(before);
    }

    #[test]
    fn quantize_round_trips_within_step() {
        let w = Matrix::from_fn(13, 7, |i, j| ((i * 7 + j * 3) as f32 - 40.0) * 0.13);
        let q = QuantMatrix::quantize(&w);
        let back = q.dequantize();
        for j in 0..7 {
            let scale = q.scales()[j];
            for i in 0..13 {
                let err = (w[(i, j)] - back[(i, j)]).abs();
                assert!(err <= scale * 0.5 + 1e-6, "err {err} > half-step {scale}");
            }
        }
    }

    #[test]
    fn zero_channel_and_zero_row_are_exact() {
        let w = Matrix::from_fn(5, 2, |i, _j| if i == 0 { 0.0 } else { 0.0 });
        let q = QuantMatrix::quantize(&w);
        assert_eq!(q.scales(), &[0.0, 0.0]);
        let x = Matrix::zeros(3, 5);
        let mut out = Matrix::zeros(3, 2);
        qgemm(&x, &q, &mut out);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn qgemm_tracks_f32_gemm_closely() {
        let x = Matrix::from_fn(4, 24, |r, c| ((r * 24 + c) as f32 * 0.31).sin());
        let w = Matrix::from_fn(24, 9, |r, c| ((r * 9 + c) as f32 * 0.17).cos() * 0.4);
        let q = QuantMatrix::quantize(&w);
        let exact = x.matmul(&w);
        let mut quant = Matrix::zeros(4, 9);
        qgemm(&x, &q, &mut quant);
        for (e, g) in exact.as_slice().iter().zip(quant.as_slice()) {
            // 1% absmax-relative: int8 per-channel keeps small products tight.
            assert!((e - g).abs() < 0.05, "quant drifted: {e} vs {g}");
        }
    }

    #[test]
    fn qgemm_bit_reproducible_across_backends() {
        let before = simd::active();
        // n=13 walks the AVX2 row kernel through its 8-wide block, then the
        // single-channel remainder; k=33 leaves a 1-byte scalar tail.
        for (k, n) in [(33usize, 13usize), (16, 8), (7, 3)] {
            let x = Matrix::from_fn(3, k, |r, c| ((r * k + c) as f32 * 0.7).sin());
            let w = Matrix::from_fn(k, n, |r, c| ((r + c) as f32 * 0.2).cos());
            let q = QuantMatrix::quantize(&w);
            assert!(simd::set_backend(Backend::Scalar));
            let mut want = Matrix::zeros(3, n);
            qgemm(&x, &q, &mut want);
            for backend in simd::supported_backends() {
                assert!(simd::set_backend(backend));
                let mut got = Matrix::zeros(3, n);
                qgemm(&x, &q, &mut got);
                for (g, w2) in got.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(g.to_bits(), w2.to_bits(), "k={k} n={n} backend={backend:?}");
                }
            }
        }
        simd::set_backend(before);
    }
}
