//! Tensor kernel micro-benchmarks — the register-tiled GEMM vs the naive
//! triple loop, the products the system really issues on every SIMD
//! backend, the SIMD backends against each other, the int8 quantized kernel
//! against f32, and the vector `exp`/`tanh`/`sigmoid` against libm —
//! written to `BENCH_tensor.json`.
//!
//! Every f32 configuration is checked bit-identical against the branch-free
//! naive reference before it is timed: a kernel that drifts by one ULP is a
//! bug, not a data point (see the determinism contract in
//! `cohortnet_tensor::gemm` and DESIGN.md §11). The int8 kernel is checked
//! bit-identical across backends, and its accuracy cost is reported as
//! AUC / PR-AUC drift on a small trained model rather than ULPs.
//!
//! The report records `host_cpus`; every product runs on one thread.
//!
//! Run: `cargo run --release -p cohortnet-bench --bin tensor_gemm`
//! (`COHORTNET_FAST=1` shrinks sizes and repetitions for smoke runs.)

use cohortnet::config::CohortNetConfig;
use cohortnet::infer::{Inferencer, ScoreRequest};
use cohortnet::quant::{QuantInferencer, QuantTable};
use cohortnet::train::train_without_cohorts;
use cohortnet_bench::fast;
use cohortnet_bench::report::render_table;
use cohortnet_ehr::{profiles, standardize::Standardizer, synth::generate};
use cohortnet_metrics::{pr_auc, roc_auc};
use cohortnet_models::data::prepare;
use cohortnet_tensor::gemm::gemm_into;
use cohortnet_tensor::math::{self, Func};
use cohortnet_tensor::quant::{qgemm, QuantMatrix};
use cohortnet_tensor::simd::{self, set_backend, supported_backends, Backend};
use cohortnet_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Branch-free naive reference (the pre-PR kernel shape): one k-ascending
/// accumulation chain per output element.
fn naive(ta: bool, tb: bool, a: &Matrix, b: &Matrix, out: &mut Matrix, k_dim: usize) {
    let (m, n) = out.shape();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..k_dim {
                let av = if ta { a[(k, i)] } else { a[(i, k)] };
                let bv = if tb { b[(j, k)] } else { b[(k, j)] };
                acc += av * bv;
            }
            out[(i, j)] = acc;
        }
    }
}

/// Best-of-`reps` wall-clock for one closure.
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

struct GemmRow {
    variant: &'static str,
    m: usize,
    k: usize,
    n: usize,
    naive_sec: f64,
    gemm_sec: f64,
    gflops: f64,
    speedup: f64,
}

/// One recorded product on one backend, timed against the naive loop.
struct SmallRow {
    variant: &'static str,
    m: usize,
    k: usize,
    n: usize,
    backend: Backend,
    naive_ns: f64,
    gemm_ns: f64,
}

struct SimdRow {
    backend: Backend,
    sec: f64,
    gflops: f64,
    speedup_vs_scalar: f64,
}

struct TransRow {
    func: &'static str,
    backend: Backend,
    len: usize,
    path: &'static str,
    libm_ns: f64,
    vector_ns: f64,
}

/// Nanoseconds per element of each slice transcendental on every supported
/// backend against its scalar libm loop, at the model's row widths (16 and
/// 20: batch-1 gate and attention rows) and a long row (512). Inputs are
/// uniform in `[-3, 3)`, where the gates and softmaxes live; outputs are
/// checked bit-equal to libm before timing.
fn bench_transcendentals(reps: usize, rng: &mut StdRng) -> Vec<TransRow> {
    // Name, slice kernel, scalar reference, and the port it runs on
    // (sigmoid runs on the `exp` port).
    type Case = (&'static str, fn(&mut [f32]), fn(f32) -> f32, Func);
    let funcs: [Case; 3] = [
        ("exp", math::exp, f32::exp, Func::Exp),
        ("tanh", math::tanh, f32::tanh, Func::Tanh),
        (
            "sigmoid",
            math::sigmoid,
            |x| 1.0 / (1.0 + (-x).exp()),
            Func::Exp,
        ),
    ];
    let mut rows = Vec::new();
    for len in [16, 20, 512] {
        let xs: Vec<f32> = (0..len).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        // About 200k elements per timed rep.
        let iters = 200_000 / len;
        let mut buf = vec![0.0f32; len];
        for (func, vector, scalar, port) in funcs {
            let want: Vec<f32> = xs.iter().map(|&x| scalar(x)).collect();
            let libm_ns = time_ns(reps, iters, || {
                buf.copy_from_slice(&xs);
                buf.iter_mut().for_each(|x| *x = scalar(*x));
                std::hint::black_box(&mut buf);
            }) / len as f64;
            for backend in supported_backends() {
                assert!(set_backend(backend));
                buf.copy_from_slice(&xs);
                vector(&mut buf);
                for (g, w) in buf.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{func} drifted on {backend:?}");
                }
                let vector_ns = time_ns(reps, iters, || {
                    buf.copy_from_slice(&xs);
                    vector(&mut buf);
                    std::hint::black_box(&mut buf);
                }) / len as f64;
                rows.push(TransRow {
                    func,
                    backend,
                    len,
                    path: port.path(),
                    libm_ns,
                    vector_ns,
                });
            }
        }
    }
    assert!(set_backend(simd::detect()));
    eprintln!("[tensor_gemm] transcendentals done");
    rows
}

struct QuantReport {
    m: usize,
    k: usize,
    n: usize,
    f32_sec: f64,
    f32_gflops: f64,
    f32_weight_gbytes_per_sec: f64,
    int8_sec: f64,
    int8_gops: f64,
    int8_weight_gbytes_per_sec: f64,
    int8_effective_gbytes_per_sec: f64,
    weight_bandwidth_amplification: f64,
    auc_f32: f64,
    auc_int8: f64,
    pr_auc_f32: f64,
    pr_auc_int8: f64,
}

/// Square and oblong products against the naive loop (on the detected
/// backend).
fn bench_gemm(reps: usize, rng: &mut StdRng) -> Vec<GemmRow> {
    let sizes: &[(usize, usize, usize)] = if fast() {
        &[(64, 64, 64), (128, 128, 128)]
    } else {
        &[
            (64, 64, 64),
            (128, 128, 128),
            (256, 256, 256),
            (64, 512, 64),
            (512, 64, 512),
        ]
    };
    let variants: &[(&'static str, bool, bool)] = &[
        ("A*B", false, false),
        ("At*B", true, false),
        ("A*Bt", false, true),
    ];
    let mut rows: Vec<GemmRow> = Vec::new();
    for &(m, k, n) in sizes {
        for &(name, ta, tb) in variants {
            let (am, ak) = if ta { (k, m) } else { (m, k) };
            let (bm, bk) = if tb { (n, k) } else { (k, n) };
            let a = random_matrix(am, ak, rng);
            let b = random_matrix(bm, bk, rng);

            let mut reference = Matrix::zeros(m, n);
            naive(ta, tb, &a, &b, &mut reference, k);
            let naive_sec = time_best(reps, || {
                let mut out = Matrix::zeros(m, n);
                naive(ta, tb, &a, &b, &mut out, k);
            });

            let mut out = Matrix::zeros(m, n);
            gemm_into(ta, tb, &a, &b, &mut out, false);
            for (idx, (g, w)) in out.as_slice().iter().zip(reference.as_slice()).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{name} {m}x{k}x{n}: element {idx} drifted"
                );
            }
            let gemm_sec = time_best(reps, || {
                let mut out = Matrix::zeros(m, n);
                gemm_into(ta, tb, &a, &b, &mut out, false);
            });
            rows.push(GemmRow {
                variant: name,
                m,
                k,
                n,
                naive_sec,
                gemm_sec,
                gflops: 2.0 * (m * k * n) as f64 / gemm_sec / 1e9,
                speedup: naive_sec / gemm_sec,
            });
            eprintln!("[tensor_gemm] {name} {m}x{k}x{n} done");
        }
    }
    rows
}

/// Best-of-`reps` nanoseconds per call of `f`, over `iters` calls per rep.
fn time_ns(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    time_best(reps, || {
        for _ in 0..iters {
            f();
        }
    }) * 1e9
        / iters as f64
}

/// The recorded GEMM traffic: every distinct product with its call count,
/// per source and phase.
const TRAFFIC: &str = include_str!("../../data/gemm_traffic.txt");

/// The distinct `(variant, m, k, n)` of [`TRAFFIC`]'s perfbench and
/// paper-width rows, largest first. The perfbench rows include its
/// 64 x 256 x 256 `tensor.matmul_b64` probe.
fn recorded_products() -> Vec<(&'static str, usize, usize, usize)> {
    let mut shapes = Vec::new();
    for line in TRAFFIC.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&'static str> = line.split_whitespace().collect();
        if !(f[0].starts_with("perfbench") || f[0] == "paper_width") {
            continue;
        }
        let dim = |i: usize| -> usize { f[i].parse().expect("a dimension") };
        let shape = (f[2], dim(3), dim(4), dim(5));
        if !shapes.contains(&shape) {
            shapes.push(shape);
        }
    }
    shapes.sort_by_key(|&(_, m, k, n)| std::cmp::Reverse(m * k * n));
    shapes
}

/// Each recorded product on every supported backend, checked bit-identical
/// to naive first, then timed against the naive loop.
fn bench_small(reps: usize, rng: &mut StdRng) -> Vec<SmallRow> {
    let mut rows = Vec::new();
    for (name, m, k, n) in recorded_products() {
        let (ta, tb) = match name {
            "A*B" => (false, false),
            "At*B" => (true, false),
            "A*Bt" => (false, true),
            other => panic!("unknown GEMM variant {other} in the traffic file"),
        };
        // About 200k multiply-adds per timed rep, at least 20 calls.
        let iters = (200_000 / (m * k * n)).max(20);
        let (am, ak) = if ta { (k, m) } else { (m, k) };
        let (bm, bk) = if tb { (n, k) } else { (k, n) };
        let a = random_matrix(am, ak, rng);
        let b = random_matrix(bm, bk, rng);
        let mut reference = Matrix::zeros(m, n);
        naive(ta, tb, &a, &b, &mut reference, k);
        let mut out = Matrix::zeros(m, n);
        let naive_ns = time_ns(reps, iters, || {
            naive(ta, tb, &a, &b, &mut out, k);
            std::hint::black_box(&mut out);
        });
        for backend in supported_backends() {
            assert!(set_backend(backend));
            gemm_into(ta, tb, &a, &b, &mut out, false);
            for (idx, (g, w)) in out.as_slice().iter().zip(reference.as_slice()).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{name} {m}x{k}x{n} on {}: element {idx} drifted",
                    backend.name()
                );
            }
            let gemm_ns = time_ns(reps, iters, || {
                gemm_into(ta, tb, &a, &b, &mut out, false);
                std::hint::black_box(&mut out);
            });
            rows.push(SmallRow {
                variant: name,
                m,
                k,
                n,
                backend,
                naive_ns,
                gemm_ns,
            });
        }
    }
    assert!(set_backend(simd::detect()));
    eprintln!("[tensor_gemm] recorded products done");
    rows
}

/// Time every supported SIMD backend on one square GEMM; outputs must stay
/// bit-identical to the scalar backend (the 0-ULP contract).
fn bench_simd(size: usize, reps: usize, rng: &mut StdRng) -> Vec<SimdRow> {
    let a = random_matrix(size, size, rng);
    let b = random_matrix(size, size, rng);
    let flops = 2.0 * (size as f64).powi(3);

    assert!(set_backend(Backend::Scalar));
    let mut reference = Matrix::zeros(size, size);
    gemm_into(false, false, &a, &b, &mut reference, false);

    let mut timed: Vec<(Backend, f64)> = Vec::new();
    for backend in supported_backends() {
        assert!(set_backend(backend));
        let mut out = Matrix::zeros(size, size);
        gemm_into(false, false, &a, &b, &mut out, false);
        for (idx, (g, w)) in out.as_slice().iter().zip(reference.as_slice()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "backend {} drifted from scalar at element {idx}",
                backend.name()
            );
        }
        let sec = time_best(reps, || {
            let mut out = Matrix::zeros(size, size);
            gemm_into(false, false, &a, &b, &mut out, false);
        });
        timed.push((backend, sec));
        eprintln!("[tensor_gemm] simd {} done", backend.name());
    }
    assert!(set_backend(simd::detect()));
    let scalar_sec = timed
        .iter()
        .find(|(b, _)| *b == Backend::Scalar)
        .map(|&(_, s)| s)
        .expect("scalar backend is always supported");
    timed
        .into_iter()
        .map(|(backend, sec)| SimdRow {
            backend,
            sec,
            gflops: flops / sec / 1e9,
            speedup_vs_scalar: scalar_sec / sec,
        })
        .collect()
}

/// Time the int8 kernel against the f32 kernel on the same logical GEMM and
/// measure the accuracy cost on a small trained model.
fn bench_quant(size: usize, reps: usize, rng: &mut StdRng) -> QuantReport {
    let (m, k, n) = (size, size, size);
    let x = random_matrix(m, k, rng);
    let w = random_matrix(k, n, rng);
    let qw = QuantMatrix::quantize(&w);

    let f32_sec = time_best(reps, || {
        let mut out = Matrix::zeros(m, n);
        gemm_into(false, false, &x, &w, &mut out, false);
    });
    let mut qout = Matrix::zeros(m, n);
    let int8_sec = time_best(reps, || qgemm(&x, &qw, &mut qout));

    // Weight-panel traffic for the full product, ignoring cache reuse: every
    // output row streams the whole k x n weight panel — 4 bytes/element for
    // f32, 1 for int8. The int8 kernel does the same logical GEMM from a
    // quarter of the physical traffic, so its *effective* (f32-equivalent)
    // bytes served per second is 4x its physical rate: that is the capacity
    // metric for a weight-bandwidth-bound serving fleet.
    let panel = (m * k * n) as f64;
    let f32_bps = panel * 4.0 / f32_sec;
    let int8_bps = panel * 1.0 / int8_sec;
    let int8_effective_bps = panel * 4.0 / int8_sec;

    // Accuracy contract input: a tiny trained trunk, scored by both paths.
    let mut profile = profiles::mimic3_like(0.1);
    profile.n_patients = if fast() { 24 } else { 80 };
    profile.time_steps = 4;
    let mut ds = generate(&profile);
    let scaler = Standardizer::fit(&ds);
    scaler.apply(&mut ds);
    let mut cfg = CohortNetConfig::for_dataset(&ds, &scaler);
    cfg.epochs_pretrain = if fast() { 1 } else { 3 };
    cfg.epochs_exploit = 0;
    cfg.verbose = false;
    let prep = prepare(&ds);
    let trained = train_without_cohorts(&prep, &cfg);

    let f32_inf = Inferencer::compile(&trained.model, &trained.params, prep.time_steps);
    let table = QuantTable::build(&trained.model, &trained.params);
    let q_inf = QuantInferencer::compile(&trained.model, &trained.params, prep.time_steps, &table);
    let reqs: Vec<ScoreRequest> = prep
        .patients
        .iter()
        .map(|p| ScoreRequest {
            x: p.x.clone(),
            mask: p.mask.clone(),
        })
        .collect();
    let labels: Vec<u8> = prep.patients.iter().map(|p| p.labels_u8[0]).collect();
    let f = f32_inf.score_requests(&reqs);
    let q = q_inf.score_requests(&reqs);

    QuantReport {
        m,
        k,
        n,
        f32_sec,
        f32_gflops: 2.0 * panel / f32_sec / 1e9,
        f32_weight_gbytes_per_sec: f32_bps / 1e9,
        int8_sec,
        int8_gops: 2.0 * panel / int8_sec / 1e9,
        int8_weight_gbytes_per_sec: int8_bps / 1e9,
        int8_effective_gbytes_per_sec: int8_effective_bps / 1e9,
        weight_bandwidth_amplification: int8_effective_bps / f32_bps,
        auc_f32: roc_auc(f.probs.as_slice(), &labels),
        auc_int8: roc_auc(q.probs.as_slice(), &labels),
        pr_auc_f32: pr_auc(f.probs.as_slice(), &labels),
        pr_auc_int8: pr_auc(q.probs.as_slice(), &labels),
    }
}

fn main() {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps = if fast() { 3 } else { 5 };
    let simd_size = if fast() { 128 } else { 256 };

    let mut rng = StdRng::seed_from_u64(42);
    let rows = bench_gemm(reps, &mut rng);
    let small_rows = bench_small(reps, &mut rng);
    let simd_rows = bench_simd(simd_size, reps, &mut rng);
    let quant = bench_quant(simd_size, reps, &mut rng);
    let trans_rows = bench_transcendentals(reps, &mut rng);

    println!("== GEMM vs naive triple loop (bit-identical outputs) ==\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.to_string(),
                format!("{}x{}x{}", r.m, r.k, r.n),
                format!("{:.2}ms", r.naive_sec * 1e3),
                format!("{:.2}ms", r.gemm_sec * 1e3),
                format!("{:.2}", r.gflops),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["variant", "size", "naive", "gemm", "GFLOP/s", "speedup"],
            &table
        )
    );

    println!("\n== Recorded products per call, every backend (bit-identical outputs) ==\n");
    let table: Vec<Vec<String>> = small_rows
        .iter()
        .map(|r| {
            vec![
                r.variant.to_string(),
                format!("{}x{}x{}", r.m, r.k, r.n),
                r.backend.name().to_string(),
                format!("{:.0}ns", r.naive_ns),
                format!("{:.0}ns", r.gemm_ns),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["variant", "size", "backend", "naive", "gemm"], &table)
    );

    println!("\n== SIMD backends, {simd_size}^3 GEMM (bit-identical outputs) ==\n");
    let table: Vec<Vec<String>> = simd_rows
        .iter()
        .map(|r| {
            vec![
                r.backend.name().to_string(),
                format!("{:.2}ms", r.sec * 1e3),
                format!("{:.2}", r.gflops),
                format!("{:.2}x", r.speedup_vs_scalar),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["backend", "time", "GFLOP/s", "vs scalar"], &table)
    );

    println!("\n== int8 quantized kernel vs f32, {simd_size}^3 ==\n");
    println!(
        "{}",
        render_table(
            &["path", "time", "G(FL)OP/s", "weight GB/s", "AUC", "PR-AUC"],
            &[
                vec![
                    "f32".into(),
                    format!("{:.2}ms", quant.f32_sec * 1e3),
                    format!("{:.2}", quant.f32_gflops),
                    format!("{:.2}", quant.f32_weight_gbytes_per_sec),
                    format!("{:.4}", quant.auc_f32),
                    format!("{:.4}", quant.pr_auc_f32),
                ],
                vec![
                    "int8".into(),
                    format!("{:.2}ms", quant.int8_sec * 1e3),
                    format!("{:.2}", quant.int8_gops),
                    format!("{:.2}", quant.int8_weight_gbytes_per_sec),
                    format!("{:.4}", quant.auc_int8),
                    format!("{:.4}", quant.pr_auc_int8),
                ],
            ]
        )
    );
    println!(
        "int8 serves {:.2} f32-equivalent weight GB/s from {:.2} GB/s physical \
         ({:.2}x the f32 kernel's bytes-served rate); AUC drift {:+.4}, PR-AUC drift {:+.4}",
        quant.int8_effective_gbytes_per_sec,
        quant.int8_weight_gbytes_per_sec,
        quant.weight_bandwidth_amplification,
        quant.auc_int8 - quant.auc_f32,
        quant.pr_auc_int8 - quant.pr_auc_f32,
    );

    println!("\n== Slice transcendentals per element, vector vs libm (bit-equal outputs) ==\n");
    let table: Vec<Vec<String>> = trans_rows
        .iter()
        .map(|r| {
            vec![
                r.func.to_string(),
                r.backend.name().to_string(),
                r.len.to_string(),
                r.path.to_string(),
                format!("{:.2}ns", r.libm_ns),
                format!("{:.2}ns", r.vector_ns),
                format!("{:.2}x", r.libm_ns / r.vector_ns),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["func", "backend", "len", "path", "libm", "vector", "speedup"],
            &table
        )
    );

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!(
        "  \"detected_backend\": \"{}\",\n",
        simd::detect().name()
    ));
    out.push_str("  \"gemm\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"variant\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"naive_sec\": {:.6}, \"gemm_sec\": {:.6}, \"gflops\": {:.3}, \
             \"speedup\": {:.3}}}{}\n",
            r.variant,
            r.m,
            r.k,
            r.n,
            r.naive_sec,
            r.gemm_sec,
            r.gflops,
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"small_products\": [\n");
    for (i, r) in small_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"variant\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"backend\": \"{}\", \
             \"naive_ns\": {:.1}, \"gemm_ns\": {:.1}}}{}\n",
            r.variant,
            r.m,
            r.k,
            r.n,
            r.backend.name(),
            r.naive_ns,
            r.gemm_ns,
            if i + 1 < small_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"simd\": {{\n    \"size\": [{simd_size}, {simd_size}, {simd_size}],\n    \
         \"scalar_baseline_note\": \"sse2 and scalar run the same portable register-tiled \
kernel, auto-vectorized by LLVM to SSE2 width, not a naive loop\",\n    \"backends\": [\n"
    ));
    for (i, r) in simd_rows.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"backend\": \"{}\", \"sec\": {:.6}, \"gflops\": {:.3}, \
             \"speedup_vs_scalar\": {:.3}}}{}\n",
            r.backend.name(),
            r.sec,
            r.gflops,
            r.speedup_vs_scalar,
            if i + 1 < simd_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n  },\n");
    out.push_str(&format!(
        "  \"quant\": {{\n    \"size\": [{}, {}, {}],\n    \"scheme\": \"{}\",\n    \
         \"f32_sec\": {:.6}, \"f32_gflops\": {:.3}, \"f32_weight_gbytes_per_sec\": {:.3},\n    \
         \"int8_sec\": {:.6}, \"int8_gops\": {:.3}, \"int8_weight_gbytes_per_sec\": {:.3},\n    \
         \"int8_effective_gbytes_per_sec\": {:.3}, \"weight_bandwidth_amplification\": {:.3},\n    \
         \"auc_f32\": {:.6}, \"auc_int8\": {:.6}, \"auc_drift\": {:.6},\n    \
         \"pr_auc_f32\": {:.6}, \"pr_auc_int8\": {:.6}, \"pr_auc_drift\": {:.6}\n  }},\n",
        quant.m,
        quant.k,
        quant.n,
        cohortnet::quant::QUANT_SCHEME,
        quant.f32_sec,
        quant.f32_gflops,
        quant.f32_weight_gbytes_per_sec,
        quant.int8_sec,
        quant.int8_gops,
        quant.int8_weight_gbytes_per_sec,
        quant.int8_effective_gbytes_per_sec,
        quant.weight_bandwidth_amplification,
        quant.auc_f32,
        quant.auc_int8,
        quant.auc_int8 - quant.auc_f32,
        quant.pr_auc_f32,
        quant.pr_auc_int8,
        quant.pr_auc_int8 - quant.pr_auc_f32,
    ));
    out.push_str(&format!(
        "  \"transcendentals\": {{\n    \"reps\": {reps}, \"unit\": \"ns per element, best of reps\",\n    \
         \"inputs\": \"uniform in [-3, 3)\",\n    \"rows\": [\n"
    ));
    for (i, r) in trans_rows.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"func\": \"{}\", \"backend\": \"{}\", \"len\": {}, \"path\": \"{}\", \
             \"libm_ns\": {:.3}, \"vector_ns\": {:.3}, \"speedup\": {:.3}}}{}\n",
            r.func,
            r.backend.name(),
            r.len,
            r.path,
            r.libm_ns,
            r.vector_ns,
            r.libm_ns / r.vector_ns,
            if i + 1 < trans_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n  }\n}\n");
    match std::fs::write("BENCH_tensor.json", &out) {
        Ok(()) => eprintln!("[tensor_gemm] wrote BENCH_tensor.json"),
        Err(e) => eprintln!("[tensor_gemm] could not write BENCH_tensor.json: {e}"),
    }
}
