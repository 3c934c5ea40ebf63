//! What a run records about the host and the source it measured.

use std::path::Path;
use std::time::Instant;

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Rate of a fixed vectorisable multiply-add loop, millions per second,
/// over about 0.2 s. Context for reading a run on a shared host: it is
/// recorded before and after each measured phase and never used to
/// rescale a metric.
pub fn vec_ref_mops() -> f64 {
    const N: usize = 4096;
    let a: Vec<f32> = (0..N).map(|i| (i % 17) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..N).map(|i| (i % 13) as f32 * 0.5).collect();
    let start = Instant::now();
    let mut passes = 0u64;
    let mut acc = 0.0f32;
    while start.elapsed().as_secs_f64() < 0.2 {
        let a = std::hint::black_box(&a);
        acc += a.iter().zip(&b).map(|(x, y)| x * y).sum::<f32>();
        passes += 1;
    }
    std::hint::black_box(acc);
    (passes * N as u64) as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// The git revision of the checkout, when it is a git work tree.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unavailable".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// FNV-1a hash of every Rust source file under `crates/` and
/// `perfbench/src/`, in path order: identifies the measured code where no
/// git revision is available.
pub fn source_hash() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for &b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
