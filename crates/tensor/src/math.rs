//! Slice-wide `exp`, `tanh` and `sigmoid` that return libm's exact bits,
//! eight (AVX2) or four (SSE2) lanes at a time.
//!
//! # Why a vector port can be bit-exact
//!
//! Every model output is pinned to the bits of `f32::exp` and `f32::tanh`,
//! which call the host libm's `expf` and `tanhf`. A faster approximation
//! would move every pinned score, so the ports here do not approximate:
//! each lane performs the same IEEE-754 operations, with the same constants
//! and in the same order, as the libm routine does for one value. Correctly
//! rounded operations give the same bits in a vector lane as in a scalar
//! register, so the lane's result is libm's result.
//!
//! The routines ported are those of glibc 2.36 on x86_64, read from its
//! machine code:
//!
//! * **`expf`** is an IFUNC that resolves to `__expf_fma` on CPUs with FMA
//!   and AVX2: the input is widened to `f64`, reduced by `k/32·ln2` with two
//!   fused multiply-adds, looked up in a 32-entry table of `2^(i/32)` and
//!   finished with a degree-3 polynomial of fused multiply-adds. The AVX2
//!   port replays it on two `__m256d` halves with a 64-bit gather; it needs
//!   FMA, so SSE2 (and AVX2 without FMA) keep calling libm.
//! * **`tanhf`** is fdlibm's float routine compiled without FMA:
//!   `-t/(t+2)` with `t = expm1f(-2|x|)` below 1, `1 - 2/(expm1f(2|x|)+2)`
//!   from 1 to 22. Its `expm1f` branches (`k = 0`, `-1`, `≤ -2`, `2..22`,
//!   `23..56`, `> 56`) become blends of separate multiplies and adds, so
//!   one port serves AVX2 and SSE2.
//!
//! Lanes on a routine's special paths take the same shortcut libm does
//! where it is a constant (`exp`: `+0` below log(2⁻¹⁵⁰), so a masked
//! softmax's `-1e9` logits stay in the vector, and `+inf` above
//! log(2¹²⁸); `tanh`: `±1` from 22 on). Every other lane outside a port's
//! fast range (`exp`: NaN and the errno band just above log(2⁻¹⁵⁰);
//! `tanh`: |x| < 2⁻⁵⁵, NaN, ±inf) calls libm for itself, so those results
//! are libm's by construction. A ragged tail is padded into one vector.
//!
//! # The start-up self-check
//!
//! The ports hard-code one libm's algorithm. Under another libm, or on a CPU
//! where libm picks its non-FMA `expf`, they would differ. So before a
//! function first runs on a port, a self-check compares every backend's
//! port with the scalar call on a fixed input set: ±0, subnormals, ±inf,
//! NaN, the overflow and underflow edges, both sides of every branch
//! threshold and `k` boundary, and a few thousand seeded values. On any
//! mismatch that function runs on libm on every backend for the rest of the
//! process, and one warning goes to stderr. [`Func::path`] reports the
//! outcome (`/debug/config` shows it as `transcendentals`).
//!
//! `COHORTNET_SIMD=scalar` runs plain libm, so "every backend equals
//! scalar" still means "equals libm".

use std::sync::atomic::{AtomicU8, Ordering};

use crate::simd::{active, supported_backends, Backend};

/// A transcendental with vector ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// `f32::exp` (libm `expf`).
    Exp,
    /// `f32::tanh` (libm `tanhf`).
    Tanh,
}

const UNCHECKED: u8 = 0;
const VECTOR: u8 = 1;
const LIBM: u8 = 2;

static EXP_STATE: AtomicU8 = AtomicU8::new(UNCHECKED);
static TANH_STATE: AtomicU8 = AtomicU8::new(UNCHECKED);

impl Func {
    /// Both functions, in reporting order.
    pub const ALL: [Func; 2] = [Func::Exp, Func::Tanh];

    /// Stable lowercase name (`exp`/`tanh`).
    pub fn name(self) -> &'static str {
        match self {
            Func::Exp => "exp",
            Func::Tanh => "tanh",
        }
    }

    /// The scalar libm call the ports reproduce.
    fn libm(self) -> fn(f32) -> f32 {
        match self {
            Func::Exp => f32::exp,
            Func::Tanh => f32::tanh,
        }
    }

    fn state(self) -> &'static AtomicU8 {
        match self {
            Func::Exp => &EXP_STATE,
            Func::Tanh => &TANH_STATE,
        }
    }

    /// Whether backend `b` has a port of this function on the running CPU.
    pub fn has_port(self, b: Backend) -> bool {
        match (self, b) {
            #[cfg(target_arch = "x86_64")]
            (Func::Exp, Backend::Avx2) => {
                b.supported() && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            (Func::Tanh, Backend::Avx2 | Backend::Sse2) => b.supported(),
            _ => false,
        }
    }

    /// Whether the ports passed the self-check (running it on first use).
    fn ports_ok(self) -> bool {
        match self.state().load(Ordering::Relaxed) {
            UNCHECKED => {
                let got = if self_check(self, self.libm()) {
                    VECTOR
                } else {
                    LIBM
                };
                // A concurrent first use computes the same outcome; never
                // overwrite a fallback already recorded.
                let _ = self.state().compare_exchange(
                    UNCHECKED,
                    got,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                self.state().load(Ordering::Relaxed) == VECTOR
            }
            s => s == VECTOR,
        }
    }

    /// Whether this function runs on backend `b`'s port right now.
    fn vector_on(self, b: Backend) -> bool {
        self.has_port(b) && self.ports_ok()
    }

    /// `"vector"` when the active backend computes this function with its
    /// port, `"libm"` when it calls libm (no port on this backend, or the
    /// self-check fell back).
    pub fn path(self) -> &'static str {
        if self.vector_on(active()) {
            "vector"
        } else {
            "libm"
        }
    }
}

/// Compares every supported backend's port of `f` with `reference` on
/// [`check_inputs`], bit for bit. On the first mismatch it logs one
/// warning and returns `false`; backends without a port are skipped.
fn self_check(f: Func, reference: fn(f32) -> f32) -> bool {
    let inputs = check_inputs();
    let want: Vec<f32> = inputs.iter().map(|&x| reference(x)).collect();
    for b in supported_backends() {
        if !f.has_port(b) {
            continue;
        }
        let mut got = inputs.clone();
        port(f, b, &mut got);
        if let Some(i) = (0..inputs.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
            eprintln!(
                "warning: the {} port of {}f differs from libm at x = {:#010x} \
                 ({:#010x} against {:#010x}); {} uses libm on every backend",
                b.name(),
                f.name(),
                inputs[i].to_bits(),
                got[i].to_bits(),
                want[i].to_bits(),
                f.name(),
            );
            return false;
        }
    }
    true
}

/// Reruns the self-check of `f` against `reference` and records its
/// outcome, as the first use does against libm. A test hook: a reference
/// that is not libm forces the fallback path.
#[doc(hidden)]
pub fn self_check_against(f: Func, reference: fn(f32) -> f32) -> bool {
    let ok = self_check(f, reference);
    f.state()
        .store(if ok { VECTOR } else { LIBM }, Ordering::Relaxed);
    ok
}

/// The self-check's input set: specials, every branch edge with its
/// neighbours, both signs, then seeded values.
fn check_inputs() -> Vec<f32> {
    let mut bits: Vec<u32> = vec![
        0,
        1,
        2,
        0x0040_0000,
        0x007f_ffff,
        0x0080_0000,
        0x0080_0001,
        0x7f7f_ffff,
        0x7f80_0000,
        0x7fc0_0000,
        0x7fa0_0001,
        0x7fff_ffff,
    ];
    let mut around = |b: u32, ulps: u32| {
        for d in 0..=ulps {
            bits.push(b.wrapping_add(d));
            bits.push(b.wrapping_sub(d));
        }
    };
    // expf: the slow-path test (|x| ≥ 88), overflow at 0x1.62e42ep6 and
    // underflow at -0x1.9fe368p6 and -0x1.9d1d9ep6.
    for b in [0x42b0_0000, 0x42b1_7217, 0x42cf_f1b4, 0x42ce_8ecf] {
        around(b, 2);
    }
    // tanhf: tiny, |x| = 1, |x| = 22; expm1f's thresholds on its argument
    // 2|x| (so at half the value, one exponent lower) and as raw inputs.
    for b in [0x2400_0000, 0x3f80_0000, 0x41b0_0000] {
        around(b, 2);
    }
    for b in [0x3300_0000u32, 0x3eb1_7218, 0x3f85_1592, 0x4195_b844] {
        around(b, 2);
        around(b - 0x0080_0000, 2);
    }
    // expm1f's `k` steps, where `|a|/ln2 + 0.5` crosses an integer; tanhf
    // reaches |k| ≤ 63 through a = ±2|x|.
    for k in 1..=66 {
        let a = (f64::from(k) - 0.5) * std::f64::consts::LN_2;
        around(((a / 2.0) as f32).to_bits(), 8);
    }
    let mut out: Vec<f32> = bits
        .iter()
        .flat_map(|&b| [f32::from_bits(b), f32::from_bits(b ^ 0x8000_0000)])
        .collect();
    let mut rng = SplitMix(0x5eed_cafe);
    out.extend((0..2048).map(|_| f32::from_bits(rng.next() as u32)));
    out.extend((0..2048).map(|_| (rng.unit() * 60.0 - 30.0) as f32));
    out.extend((0..1024).map(|_| (rng.unit() * 4.0 - 2.0) as f32));
    out
}

/// SplitMix64, for seeded check inputs without a `rand` dependency here.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runs `f`'s port for backend `b` over `xs` in place.
///
/// # Panics
/// When `b` has no port of `f` on this CPU.
fn port(f: Func, b: Backend, xs: &mut [f32]) {
    assert!(f.has_port(b), "{} has no {} port here", b.name(), f.name());
    match (f, b) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `has_port` checked AVX2 and FMA on this CPU.
        (Func::Exp, Backend::Avx2) => unsafe { x86::avx2::exp_slice(xs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `has_port` checked AVX2 on this CPU.
        (Func::Tanh, Backend::Avx2) => unsafe { x86::avx2::tanh_slice(xs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        (Func::Tanh, Backend::Sse2) => unsafe { x86::sse2::tanh_slice(xs) },
        _ => unreachable!("has_port admits no other pair"),
    }
}

/// `x = exp(x)` for every element: bit-equal to `f32::exp`.
pub fn exp(xs: &mut [f32]) {
    let b = active();
    if Func::Exp.vector_on(b) {
        port(Func::Exp, b, xs);
    } else {
        xs.iter_mut().for_each(|x| *x = x.exp());
    }
}

/// `x = tanh(x)` for every element: bit-equal to `f32::tanh`.
pub fn tanh(xs: &mut [f32]) {
    let b = active();
    if Func::Tanh.vector_on(b) {
        port(Func::Tanh, b, xs);
    } else {
        xs.iter_mut().for_each(|x| *x = x.tanh());
    }
}

/// `x = 1 / (1 + exp(-x))` for every element — the one logistic sigmoid
/// definition. The `exp` is [`exp`]'s, so this is bit-equal to the scalar
/// expression on every backend.
pub fn sigmoid(xs: &mut [f32]) {
    let b = active();
    if Func::Exp.vector_on(b) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `vector_on` checked AVX2 and FMA on this CPU (only AVX2
        // has an `exp` port).
        unsafe {
            x86::avx2::sigmoid_slice(xs)
        };
    } else {
        xs.iter_mut().for_each(|x| *x = 1.0 / (1.0 + (-*x).exp()));
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    /// `expm1f` restricted to the arguments whose results `tanhf` uses
    /// (`2|x|` in `[2, 44)` and `-2|x|` in `(-2, 0)`), then `tanhf` itself, written
    /// once against the lane operations of the enclosing module (`F` float
    /// lanes, `I` integer lanes, masks as all-ones integer lanes). Every
    /// float operation is one separately rounded IEEE op in libm's order.
    macro_rules! tanh_port {
        ($feat:literal) => {
            /// glibc's `expm1f` on every lane, for `a` in `(-2, 0)` or
            /// `[2, 44)`: on that domain only the `k = 0`, `-1`, `≤ -2`,
            /// `2..22`, `23..56` and `> 56` branches and the tiny-argument
            /// return are reached.
            #[inline]
            #[target_feature(enable = $feat)]
            fn expm1(a: F) -> F {
                let ha = and_i(bits(a), splat_i(0x7fff_ffff));
                let neg = and_f(a, splat(-0.0));
                // Argument reduction: x = hi - lo ≈ a - k·ln2, c its error.
                let kg = cvtt(add(mul(splat(INV_LN2), a), or_f(splat(0.5), neg)));
                let tg = cvt(kg);
                let k0 = gt_i(splat_i(0x3eb1_7219), ha);
                let km1 = andnot_i(k0, gt_i(splat_i(0x3f85_1592), ha));
                let hi = select(
                    k0,
                    a,
                    select(km1, add(a, splat(LN2_HI)), sub(a, mul(tg, splat(LN2_HI)))),
                );
                let lo = select(
                    k0,
                    splat(0.0),
                    select(km1, splat(-LN2_LO), mul(tg, splat(LN2_LO))),
                );
                let k = select_i(k0, splat_i(0), select_i(km1, splat_i(-1), kg));
                let x = sub(hi, lo);
                let c = sub(sub(hi, x), lo);
                // The rational approximation on the reduced argument.
                let hfx = mul(x, splat(0.5));
                let hxs = mul(x, hfx);
                let mut r1 = add(mul(splat(Q5), hxs), splat(Q4));
                r1 = sub(mul(r1, hxs), splat(Q3_NEG));
                r1 = add(mul(r1, hxs), splat(Q2));
                r1 = sub(mul(r1, hxs), splat(Q1_NEG));
                r1 = add(mul(r1, hxs), splat(1.0));
                let t = sub(splat(3.0), mul(hfx, r1));
                let e = mul(div(sub(r1, t), sub(splat(6.0), mul(t, x))), hxs);
                // k = 0
                let r_k0 = sub(x, sub(mul(e, x), hxs));
                let e = sub(sub(mul(sub(e, c), x), c), hxs);
                // k = -1
                let r_km1 = sub(mul(sub(x, e), splat(0.5)), splat(0.5));
                // Scale 2^k into the exponent field.
                let k23 = slli23(k);
                // k ≤ -2 or k > 56
                let r_far = sub(scale(sub(splat(1.0), sub(e, x)), k23), splat(1.0));
                // 23 ≤ k ≤ 56, with 2^-k built in the exponent field
                let two_mk = from_bits(slli23(sub_i(splat_i(0x7f), k)));
                let r_mid = scale(add(sub(x, add(e, two_mk)), splat(1.0)), k23);
                // 2 ≤ k ≤ 22: 1 - 2^-k is exact in f32
                let r_near = scale(sub(sub(splat(1.0), two_mk), sub(e, x)), k23);
                let far = or_i(gt_i(splat_i(-1), k), gt_i(k, splat_i(56)));
                let r = select(
                    eq_i(k, splat_i(0)),
                    r_k0,
                    select(
                        eq_i(k, splat_i(-1)),
                        r_km1,
                        select(far, r_far, select(gt_i(k, splat_i(22)), r_mid, r_near)),
                    ),
                );
                select(gt_i(splat_i(0x3300_0000), ha), a, r)
            }

            /// `y` times `2^k`, by adding `k << 23` to its bits.
            #[inline]
            #[target_feature(enable = $feat)]
            fn scale(y: F, k23: I) -> F {
                from_bits(add_i(bits(y), k23))
            }

            /// glibc's `tanhf` on every lane: `±(1 - tiny) = ±1` from 22 on;
            /// lanes with |x| < 2^-55, NaN or ±inf call libm.
            #[inline]
            #[target_feature(enable = $feat)]
            fn tanh(x: F) -> F {
                let sign = and_f(x, splat(-0.0));
                let ax = xor_f(x, sign);
                let ix = bits(ax);
                let fast = andnot_i(
                    gt_i(splat_i(0x2400_0000), ix),
                    gt_i(splat_i(0x7f80_0000), ix),
                );
                let big = gt_i(ix, splat_i(0x3f7f_ffff));
                let t = expm1(select(big, add(ax, ax), mul(ax, splat(-2.0))));
                // One division per lane: `2/(t+2)` from 1 up, `-t/(t+2)` below.
                let q = div(
                    select(big, splat(2.0), xor_f(t, splat(-0.0))),
                    add(t, splat(2.0)),
                );
                let z = select(big, sub(splat(1.0), q), q);
                let z = select(gt_i(ix, splat_i(0x41af_ffff)), splat(1.0), z);
                patch(x, xor_f(z, sign), fast, f32::tanh)
            }

            /// `tanh` over a slice, the ragged tail padded into one vector.
            #[target_feature(enable = $feat)]
            pub(in crate::math) fn tanh_slice(xs: &mut [f32]) {
                lanewise!(xs, tanh);
            }
        };
    }

    /// Applies the vector function `$f` to `$xs` in place, `N` lanes at a
    /// time; a ragged tail is padded into one more vector with `1.0`, which
    /// every port computes on its fast path (a `0.0` would send each padded
    /// `tanh` lane to libm).
    macro_rules! lanewise {
        ($xs:expr, $f:ident) => {{
            let mut chunks = $xs.chunks_exact_mut(N);
            for c in &mut chunks {
                store(c, $f(load(c)));
            }
            let tail = chunks.into_remainder();
            if !tail.is_empty() {
                let mut buf = [1.0f32; N];
                buf[..tail.len()].copy_from_slice(tail);
                let v = $f(load(&buf));
                store(&mut buf, v);
                let n = tail.len();
                tail.copy_from_slice(&buf[..n]);
            }
        }};
    }

    // fdlibm `expm1f` constants (bit patterns as in glibc's rodata). The
    // odd coefficients are stored positive and subtracted, as libm does.
    const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
    const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
    const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
    const Q1_NEG: f32 = f32::from_bits(0x3d08_8889);
    const Q2: f32 = f32::from_bits(0x3ad0_0d01);
    const Q3_NEG: f32 = f32::from_bits(0x38a6_70cd);
    const Q4: f32 = f32::from_bits(0x3686_7e54);
    const Q5: f32 = f32::from_bits(0xb457_edbb);

    pub(super) mod avx2 {
        use super::*;
        use std::arch::x86_64::*;

        type F = __m256;
        type I = __m256i;
        const N: usize = 8;

        #[inline]
        #[target_feature(enable = "avx2")]
        fn splat(x: f32) -> F {
            _mm256_set1_ps(x)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn splat_i(x: i32) -> I {
            _mm256_set1_epi32(x)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn add(a: F, b: F) -> F {
            _mm256_add_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn sub(a: F, b: F) -> F {
            _mm256_sub_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn mul(a: F, b: F) -> F {
            _mm256_mul_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn div(a: F, b: F) -> F {
            _mm256_div_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn and_f(a: F, b: F) -> F {
            _mm256_and_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn or_f(a: F, b: F) -> F {
            _mm256_or_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn xor_f(a: F, b: F) -> F {
            _mm256_xor_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn bits(a: F) -> I {
            _mm256_castps_si256(a)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn from_bits(a: I) -> F {
            _mm256_castsi256_ps(a)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn cvtt(a: F) -> I {
            _mm256_cvttps_epi32(a)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn cvt(a: I) -> F {
            _mm256_cvtepi32_ps(a)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn add_i(a: I, b: I) -> I {
            _mm256_add_epi32(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn sub_i(a: I, b: I) -> I {
            _mm256_sub_epi32(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn and_i(a: I, b: I) -> I {
            _mm256_and_si256(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn or_i(a: I, b: I) -> I {
            _mm256_or_si256(a, b)
        }
        /// `!a & b`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn andnot_i(a: I, b: I) -> I {
            _mm256_andnot_si256(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn slli23(a: I) -> I {
            _mm256_slli_epi32::<23>(a)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn gt_i(a: I, b: I) -> I {
            _mm256_cmpgt_epi32(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn eq_i(a: I, b: I) -> I {
            _mm256_cmpeq_epi32(a, b)
        }
        /// `m ? a : b` per lane.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn select(m: I, a: F, b: F) -> F {
            _mm256_blendv_ps(b, a, _mm256_castsi256_ps(m))
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn select_i(m: I, a: I, b: I) -> I {
            _mm256_blendv_epi8(b, a, m)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn load(xs: &[f32]) -> F {
            assert!(xs.len() >= N);
            // SAFETY: `xs` holds at least `N` floats (asserted).
            unsafe { _mm256_loadu_ps(xs.as_ptr()) }
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        fn store(xs: &mut [f32], v: F) {
            assert!(xs.len() >= N);
            // SAFETY: `xs` holds at least `N` floats (asserted).
            unsafe { _mm256_storeu_ps(xs.as_mut_ptr(), v) }
        }
        /// `y`, with every lane outside `fast` replaced by `libm(x)`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn patch(x: F, y: F, fast: I, libm: fn(f32) -> f32) -> F {
            let slow = !_mm256_movemask_ps(from_bits(fast)) & 0xff;
            if slow == 0 {
                return y;
            }
            let (mut xa, mut ya) = ([0.0f32; N], [0.0f32; N]);
            store(&mut xa, x);
            store(&mut ya, y);
            for i in 0..N {
                if slow >> i & 1 != 0 {
                    ya[i] = libm(xa[i]);
                }
            }
            load(&ya)
        }

        tanh_port!("avx2");

        // `__expf_fma`'s constants and table, as in glibc's rodata:
        // `T[i] = bits(2^(i/32)) - (i << 47)`.
        const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
        const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
        const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
        const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
        const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
        // The slow path's bounds: log(2^128), log(2^-150), log(2^-149).
        const OFLOW: f32 = f32::from_bits(0x42b1_7217);
        const UFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
        const MAY_UFLOW: f32 = f32::from_bits(0xc2ce_8ecf);
        static EXP2_T: [u64; 32] = [
            0x3ff0_0000_0000_0000,
            0x3fef_d9b0_d315_8574,
            0x3fef_b558_6cf9_890f,
            0x3fef_9301_d012_5b51,
            0x3fef_72b8_3c7d_517b,
            0x3fef_5487_3168_b9aa,
            0x3fef_387a_6e75_6238,
            0x3fef_1e9d_f51f_dee1,
            0x3fef_06fe_0a31_b715,
            0x3fee_f1a7_373a_a9cb,
            0x3fee_dea6_4c12_3422,
            0x3fee_ce08_6061_892d,
            0x3fee_bfda_d536_2a27,
            0x3fee_b42b_569d_4f82,
            0x3fee_ab07_dd48_5429,
            0x3fee_a47e_b03a_5585,
            0x3fee_a09e_667f_3bcd,
            0x3fee_9f75_e8ec_5f74,
            0x3fee_a114_73eb_0187,
            0x3fee_a589_994c_ce13,
            0x3fee_ace5_422a_a0db,
            0x3fee_b737_b0cd_c5e5,
            0x3fee_c491_82a3_f090,
            0x3fee_d503_b23e_255d,
            0x3fee_e89f_995a_d3ad,
            0x3fee_ff76_f2fb_5e47,
            0x3fef_199b_dd85_529c,
            0x3fef_3720_dcef_9069,
            0x3fef_5818_dcfb_a487,
            0x3fef_7c97_337b_9b5f,
            0x3fef_a4af_a2a4_90da,
            0x3fef_d076_5b6e_4540,
        ];

        /// `__expf_fma`'s fast path on four widened lanes.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn exp4d(xd: __m256d) -> __m256d {
            let inv = _mm256_set1_pd(INV_LN2_N);
            let shift = _mm256_set1_pd(SHIFT);
            let kd = _mm256_fmadd_pd(inv, xd, shift);
            let ki = _mm256_castpd_si256(kd);
            let kd = _mm256_sub_pd(kd, shift);
            let r = _mm256_fmsub_pd(inv, xd, kd);
            let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
            // SAFETY: every index is `ki & 31`, inside the 32-entry table.
            let t = unsafe { _mm256_i64gather_epi64::<8>(EXP2_T.as_ptr().cast(), idx) };
            let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
            let z = _mm256_fmadd_pd(r, _mm256_set1_pd(C0), _mm256_set1_pd(C1));
            let r2 = _mm256_mul_pd(r, r);
            let y = _mm256_fmadd_pd(r, _mm256_set1_pd(C2), _mm256_set1_pd(1.0));
            let y = _mm256_fmadd_pd(z, r2, y);
            _mm256_mul_pd(y, s)
        }

        /// glibc's `__expf_fma` on every lane. Its slow path (|x| ≥ 88)
        /// returns `+0` below `UFLOW` (-inf included), `+inf` above
        /// `OFLOW` (+inf included), and otherwise rejoins the fast path
        /// from `MAY_UFLOW` up; the rest (NaN, and `UFLOW ≤ x < MAY_UFLOW`,
        /// where it sets `errno`) calls libm. A masked softmax's `-1e9`
        /// logits thus stay in the vector.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn exp(x: F) -> F {
            let lo = exp4d(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
            let hi = exp4d(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
            let y = _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
            let under = bits(_mm256_cmp_ps::<_CMP_LT_OQ>(x, splat(UFLOW)));
            let over = bits(_mm256_cmp_ps::<_CMP_GT_OQ>(x, splat(OFLOW)));
            let y = select(under, splat(0.0), select(over, splat(f32::INFINITY), y));
            let rejoins = bits(_mm256_cmp_ps::<_CMP_GE_OQ>(x, splat(MAY_UFLOW)));
            patch(x, y, or_i(rejoins, under), f32::exp)
        }

        /// `1 / (1 + exp(-x))` on every lane.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn sigmoid(x: F) -> F {
            let one = splat(1.0);
            div(one, add(one, exp(xor_f(x, splat(-0.0)))))
        }

        /// `exp` over a slice.
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::math) fn exp_slice(xs: &mut [f32]) {
            lanewise!(xs, exp);
        }

        /// `sigmoid` over a slice.
        #[target_feature(enable = "avx2,fma")]
        pub(in crate::math) fn sigmoid_slice(xs: &mut [f32]) {
            lanewise!(xs, sigmoid);
        }
    }

    pub(super) mod sse2 {
        use super::*;
        use std::arch::x86_64::*;

        type F = __m128;
        type I = __m128i;
        const N: usize = 4;

        #[inline]
        #[target_feature(enable = "sse2")]
        fn splat(x: f32) -> F {
            _mm_set1_ps(x)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn splat_i(x: i32) -> I {
            _mm_set1_epi32(x)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn add(a: F, b: F) -> F {
            _mm_add_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn sub(a: F, b: F) -> F {
            _mm_sub_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn mul(a: F, b: F) -> F {
            _mm_mul_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn div(a: F, b: F) -> F {
            _mm_div_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn and_f(a: F, b: F) -> F {
            _mm_and_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn or_f(a: F, b: F) -> F {
            _mm_or_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn xor_f(a: F, b: F) -> F {
            _mm_xor_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn bits(a: F) -> I {
            _mm_castps_si128(a)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn from_bits(a: I) -> F {
            _mm_castsi128_ps(a)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn cvtt(a: F) -> I {
            _mm_cvttps_epi32(a)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn cvt(a: I) -> F {
            _mm_cvtepi32_ps(a)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn add_i(a: I, b: I) -> I {
            _mm_add_epi32(a, b)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn sub_i(a: I, b: I) -> I {
            _mm_sub_epi32(a, b)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn and_i(a: I, b: I) -> I {
            _mm_and_si128(a, b)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn or_i(a: I, b: I) -> I {
            _mm_or_si128(a, b)
        }
        /// `!a & b`.
        #[inline]
        #[target_feature(enable = "sse2")]
        fn andnot_i(a: I, b: I) -> I {
            _mm_andnot_si128(a, b)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn slli23(a: I) -> I {
            _mm_slli_epi32::<23>(a)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn gt_i(a: I, b: I) -> I {
            _mm_cmpgt_epi32(a, b)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn eq_i(a: I, b: I) -> I {
            _mm_cmpeq_epi32(a, b)
        }
        /// `m ? a : b` per lane.
        #[inline]
        #[target_feature(enable = "sse2")]
        fn select(m: I, a: F, b: F) -> F {
            from_bits(select_i(m, bits(a), bits(b)))
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn select_i(m: I, a: I, b: I) -> I {
            _mm_or_si128(_mm_and_si128(m, a), _mm_andnot_si128(m, b))
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn load(xs: &[f32]) -> F {
            assert!(xs.len() >= N);
            // SAFETY: `xs` holds at least `N` floats (asserted).
            unsafe { _mm_loadu_ps(xs.as_ptr()) }
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        fn store(xs: &mut [f32], v: F) {
            assert!(xs.len() >= N);
            // SAFETY: `xs` holds at least `N` floats (asserted).
            unsafe { _mm_storeu_ps(xs.as_mut_ptr(), v) }
        }
        /// `y`, with every lane outside `fast` replaced by `libm(x)`.
        #[inline]
        #[target_feature(enable = "sse2")]
        fn patch(x: F, y: F, fast: I, libm: fn(f32) -> f32) -> F {
            let slow = !_mm_movemask_ps(from_bits(fast)) & 0xf;
            if slow == 0 {
                return y;
            }
            let (mut xa, mut ya) = ([0.0f32; N], [0.0f32; N]);
            store(&mut xa, x);
            store(&mut ya, y);
            for i in 0..N {
                if slow >> i & 1 != 0 {
                    ya[i] = libm(xa[i]);
                }
            }
            load(&ya)
        }

        tanh_port!("sse2");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::set_backend;

    /// The libm reference for `f` applied to `xs`.
    fn libm_of(f: fn(f32) -> f32, xs: &[f32]) -> Vec<f32> {
        xs.iter().map(|&x| f(x)).collect()
    }

    fn sigmoid_ref(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }

    fn assert_bits(got: &[f32], want: &[f32], what: &str, xs: &[f32]) {
        for i in 0..want.len() {
            assert_eq!(
                got[i].to_bits(),
                want[i].to_bits(),
                "{what} differs at x = {:#010x}",
                xs[i].to_bits()
            );
        }
    }

    /// About a million seeded inputs: uniform bit patterns, then values in
    /// the ranges the model's gates and softmaxes see.
    fn seeded_inputs() -> Vec<f32> {
        let mut rng = SplitMix(0x00c0_4047);
        let mut xs: Vec<f32> = (0..1 << 18)
            .map(|_| f32::from_bits(rng.next() as u32))
            .collect();
        xs.extend((0..1 << 19).map(|_| (rng.unit() * 40.0 - 20.0) as f32));
        xs.extend((0..1 << 18).map(|_| (rng.unit() * 4.0 - 2.0) as f32));
        xs
    }

    /// A slice kernel with its name and scalar reference.
    type Case = (&'static str, fn(&mut [f32]), fn(f32) -> f32);
    const SLICE_FNS: [Case; 3] = [
        ("exp", exp, f32::exp),
        ("tanh", tanh, f32::tanh),
        ("sigmoid", sigmoid, sigmoid_ref),
    ];

    #[test]
    fn vector_transcendentals_equal_libm_bitwise() {
        let edges = check_inputs();
        let seeded = seeded_inputs();
        let before = active();
        for backend in supported_backends() {
            assert!(set_backend(backend));
            for (name, slice_fn, scalar) in SLICE_FNS {
                for xs in [&edges, &seeded] {
                    let mut got = xs.clone();
                    slice_fn(&mut got);
                    assert_bits(&got, &libm_of(scalar, xs), name, xs);
                }
                // Ragged tails: every length up to two vectors and a lane.
                for n in 0..=17 {
                    let xs: Vec<f32> = (0..n).map(|i| i as f32 * 0.73 - 5.1).collect();
                    let mut got = xs.clone();
                    slice_fn(&mut got);
                    assert_bits(&got, &libm_of(scalar, &xs), name, &xs);
                }
            }
        }
        set_backend(before);
    }

    #[test]
    fn softmax_equals_scalar_libm_reference_bitwise() {
        fn reference(row: &[f32]) -> Vec<f32> {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut out = row.to_vec();
            let mut sum = 0.0;
            for x in out.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            if sum > 0.0 {
                out.iter_mut().for_each(|x| *x /= sum);
            }
            out
        }
        let mut rows: Vec<Vec<f32>> = (0..=17)
            .map(|n| (0..n).map(|i| (i as f32 * 1.37).sin() * 6.0).collect())
            .collect();
        rows.push(vec![-0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -0.0, -0.0, -0.0]);
        rows.push(vec![
            -0.0,
            -1e-40,
            3.5,
            -0.0,
            -200.0,
            f32::NEG_INFINITY,
            1.0,
        ]);
        rows.push(vec![f32::NEG_INFINITY; 9]);
        let before = active();
        for backend in supported_backends() {
            assert!(set_backend(backend));
            for row in &rows {
                let mut got = row.clone();
                crate::matrix::softmax_in_place(&mut got);
                assert_bits(&got, &reference(row), "softmax", row);
            }
        }
        set_backend(before);
    }

    #[test]
    fn ports_pass_the_self_check_on_this_host() {
        for f in Func::ALL {
            assert!(self_check(f, f.libm()), "{} port mismatch", f.name());
        }
    }

    /// Every f32 input through every port on this CPU, against libm.
    /// Minutes per port in release: run by `make check-math`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run by `make check-math`"]
    fn exhaustive_ports_equal_libm() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut total = 0u64;
        for f in Func::ALL {
            for b in supported_backends() {
                if !f.has_port(b) {
                    continue;
                }
                let t0 = std::time::Instant::now();
                let chunks = 1u64 << 12;
                let per = (1u64 << 32) / chunks;
                let next = std::sync::atomic::AtomicU64::new(0);
                let mismatches = std::sync::atomic::AtomicU64::new(0);
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        s.spawn(|| {
                            let mut xs = vec![0.0f32; per as usize];
                            loop {
                                let c = next.fetch_add(1, Ordering::Relaxed);
                                if c >= chunks {
                                    break;
                                }
                                let base = (c * per) as u32;
                                for (i, x) in xs.iter_mut().enumerate() {
                                    *x = f32::from_bits(base + i as u32);
                                }
                                port(f, b, &mut xs);
                                let bad = xs
                                    .iter()
                                    .enumerate()
                                    .filter(|&(i, y)| {
                                        let x = f32::from_bits(base + i as u32);
                                        y.to_bits() != f.libm()(x).to_bits()
                                    })
                                    .count();
                                mismatches.fetch_add(bad as u64, Ordering::Relaxed);
                            }
                        });
                    }
                });
                let bad = mismatches.into_inner();
                println!(
                    "{}f on {}: {bad} mismatches over 2^32 inputs ({:.1} s, {threads} threads)",
                    f.name(),
                    b.name(),
                    t0.elapsed().as_secs_f64()
                );
                total += bad;
            }
        }
        assert_eq!(total, 0, "vector ports differ from libm");
    }
}
