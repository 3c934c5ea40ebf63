//! End-to-end and per-layer benchmark of the CohortNet reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <score|ingest|fleet_quant> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A run record
//! (host, source revision, load shape, context) goes to standard error
//! and, with the spans of a traced run, to `.bench_out/`.

mod host;
mod loadgen;
mod model;
mod serving;
mod stats;
mod trace;

use std::fmt::Write as _;

use cohortnet_serve::json::{self, Json};
use serving::Surface;
use stats::Tally;

/// The benchmark's definition, read from the checkout root: the metric
/// names and units each kind of run reports, and why each workload exists.
struct Definition {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
    workloads: Vec<(String, String)>,
}

fn definition() -> Result<Definition, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let root = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let pairs = |list: &str, a: &str, b: &str| -> Result<Vec<(String, String)>, String> {
        root.get(list)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no {list}"))?
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or(format!("a {list} entry has no {k}"))
                };
                Ok((field(a)?, field(b)?))
            })
            .collect()
    };
    Ok(Definition {
        end_to_end: pairs("end_to_end", "name", "unit")?,
        per_layer: pairs("per_layer", "name", "unit")?,
        workloads: pairs("workloads", "name", "why")?,
    })
}

/// Everything a run reports.
pub struct Report {
    /// Operations attempted and failed.
    pub tally: Tally,
    metrics: Vec<(&'static str, f64)>,
    context: Vec<(String, String)>,
    problems: Vec<String>,
    /// The traced run's spans as JSON.
    pub spans: String,
}

impl Report {
    /// Sets a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Sets a percentile metric; a sample too small for the percentile
    /// fails the run, reporting the sample's maximum.
    pub fn percentile(&mut self, name: &'static str, values: &[f64], q: f64) {
        match stats::percentile(values, q) {
            Ok(v) => self.metric(name, v),
            Err(e) => {
                self.problem(format!("{name}: {e}"));
                self.metric(name, values.iter().copied().fold(0.0, f64::max));
            }
        }
    }

    /// Adds a numeric entry to the run record.
    pub fn context(&mut self, key: &str, value: f64) {
        self.context_raw(key, format!("{value}"));
    }

    /// Adds a JSON entry to the run record.
    pub fn context_raw(&mut self, key: &str, json: String) {
        self.context.push((key.to_string(), json));
    }

    /// Notes a failed output check.
    pub fn problem(&mut self, what: String) {
        eprintln!("[perfbench] check failed: {what}");
        self.problems.push(what);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let def = match definition() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some((_, why)) = def.workloads.iter().find(|(w, _)| *w == args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    // Request logging costs more than a request at these rates.
    std::env::set_var("COHORTNET_LOG", "warn");
    let mut report = Report {
        tally: Tally::default(),
        metrics: Vec::new(),
        context: Vec::new(),
        problems: Vec::new(),
        spans: String::new(),
    };
    let surface = match args.workload.as_str() {
        "score" => Surface::Score,
        "ingest" => Surface::Ingest,
        "fleet_quant" => Surface::FleetQuant,
        other => {
            eprintln!("perfbench: BENCHMARK.json names a workload this build lacks: {other}");
            std::process::exit(2);
        }
    };
    serving::run(surface, args.seed, args.seconds, args.trace, &mut report);

    if let Some(&(_, c)) = report.metrics.iter().find(|(n, _)| *n == "coverage_ratio") {
        if c < 0.9 {
            report.context_raw(
                "coverage_flag",
                format!("\"layer parts cover {c:.3} of the whole, below 0.9\""),
            );
        }
    }
    let wanted = if args.trace {
        &def.per_layer
    } else {
        &def.end_to_end
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = report
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("{} did not measure {name}", args.workload));
        assert!(value.is_finite(), "{name} is not finite: {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = report.problems.is_empty() && report.tally.failed == 0;

    let mut record = format!(
        "{{\"workload\": \"{}\", \"why\": \"{why}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cpus\": {}, \"git_rev\": \"{}\", \"source_fnv\": \"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        host::cpus(),
        host::git_rev(),
        host::source_hash()
    );
    for (k, v) in &report.context {
        let _ = write!(record, ", \"{k}\": {v}");
    }
    let _ = write!(record, ", \"metrics\": {{{metrics}}}}}");
    eprintln!("[perfbench] record {record}");
    let stem = format!(
        ".bench_out/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(format!("{stem}.json"), &record))
        .and_then(|()| {
            if args.trace {
                std::fs::write(format!("{stem}-spans.json"), &report.spans)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("[perfbench] could not write {stem}: {e}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.tally.attempted, report.tally.failed
    );
}
