//! Contract tests for the optional `quant` snapshot section and the int8
//! serving path.
//!
//! - A v1 snapshot *without* a quant section loads with `quant: None` and
//!   serves the f32 path unchanged (backwards compatibility).
//! - `save_snapshot_quant → load → save_snapshot_quant` is byte-identical:
//!   quantization is a pure function of the f32 weights.
//! - A quant section with an unknown scheme is a *fallback*, not an error:
//!   the load succeeds with `quant: None` and f32 serving is untouched.
//!   Structural corruption is still a typed hard failure.
//! - Accuracy contract: the int8 trunk's AUC / PR-AUC drift against the f32
//!   path stays under tolerance, and a fixed snapshot scores bit-identically
//!   on every SIMD backend.

mod common;

use cohortnet::infer::ScoreRequest;
use cohortnet::snapshot::{load_snapshot, save_snapshot, save_snapshot_quant, SnapshotError};
use cohortnet_metrics::{pr_auc, roc_auc};
use cohortnet_models::data::Prepared;
use cohortnet_tensor::simd::{set_backend, supported_backends};

/// FNV-1a 64 (the snapshot checksum function), local copy for re-tagging
/// tampered sections.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Applies `edit` to the named section's payload and rewrites that section's
/// header (line count + checksum) so the loader sees consistent framing.
fn tamper(text: &str, section: &str, edit: impl Fn(&str) -> String) -> String {
    let mut out = String::new();
    let mut lines = text.lines().peekable();
    out.push_str(lines.next().expect("snapshot header"));
    out.push('\n');
    while let Some(line) = lines.next() {
        let parts: Vec<&str> = line.split(' ').collect();
        assert_eq!(parts[0], "#section", "expected a section header: {line}");
        let name = parts[1];
        let n: usize = parts[2].parse().expect("line count");
        let mut payload = String::new();
        for _ in 0..n {
            payload.push_str(lines.next().expect("payload line"));
            payload.push('\n');
        }
        let payload = if name == section {
            edit(&payload)
        } else {
            payload
        };
        let count = payload.lines().count();
        let sum = fnv64(payload.as_bytes());
        out.push_str(&format!("#section {name} {count} {sum:016x}\n"));
        out.push_str(&payload);
    }
    out
}

fn requests(prep: &Prepared) -> (Vec<ScoreRequest>, Vec<u8>) {
    let reqs = prep
        .patients
        .iter()
        .map(|p| ScoreRequest {
            x: p.x.clone(),
            mask: p.mask.clone(),
        })
        .collect();
    let labels = prep.patients.iter().map(|p| p.labels_u8[0]).collect();
    (reqs, labels)
}

#[test]
fn snapshot_without_quant_section_loads_and_serves_unchanged() {
    let (trained, prep, scaler, time_steps) = common::tiny_trained();
    let plain = save_snapshot(&trained.model, &trained.params, &scaler, time_steps);
    let loaded = load_snapshot(&plain).expect("pre-quant snapshot loads");
    assert!(loaded.quant.is_none(), "no quant section, no stored table");

    // The f32 scorer from a pre-quant snapshot matches the in-memory model
    // bit for bit.
    let (reqs, _) = requests(&prep);
    let in_memory = cohortnet::Inferencer::compile(&trained.model, &trained.params, time_steps);
    let scorer = loaded.scorer(false);
    assert!(!scorer.quantized());
    let a = in_memory.score_requests(&reqs);
    let b = scorer.score_requests(&reqs);
    for (x, y) in a.probs.as_slice().iter().zip(b.probs.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "pre-quant snapshot drifted");
    }
}

#[test]
fn quant_snapshot_round_trip_is_byte_identical() {
    let (trained, _, scaler, time_steps) = common::tiny_trained();
    let plain = save_snapshot(&trained.model, &trained.params, &scaler, time_steps);
    let text = save_snapshot_quant(&trained.model, &trained.params, &scaler, time_steps);
    assert!(
        text.starts_with(&plain),
        "quant section must be a pure suffix of the f32 snapshot"
    );

    let loaded = load_snapshot(&text).expect("quant snapshot loads");
    let table = loaded.quant.as_ref().expect("stored quant table");
    assert!(!table.is_empty());
    let again = save_snapshot_quant(
        &loaded.model,
        &loaded.params,
        &loaded.scaler,
        loaded.time_steps,
    );
    assert_eq!(text, again, "save -> load -> save drifted");
}

#[test]
fn unsupported_scheme_falls_back_to_f32_load() {
    let (trained, prep, scaler, time_steps) = common::tiny_trained();
    let text = save_snapshot_quant(&trained.model, &trained.params, &scaler, time_steps);
    let future = tamper(&text, "quant", |payload| {
        payload.replacen("scheme\tint8-perchan-v1", "scheme\tint4-blockwise-v7", 1)
    });
    let loaded = load_snapshot(&future).expect("unknown scheme must not fail the load");
    assert!(
        loaded.quant.is_none(),
        "unknown scheme falls back to the f32 weights"
    );

    // Serving is the plain f32 path, bit-identical to a pre-quant snapshot.
    let plain = load_snapshot(&save_snapshot(
        &trained.model,
        &trained.params,
        &scaler,
        time_steps,
    ))
    .expect("plain snapshot loads");
    let (reqs, _) = requests(&prep);
    let a = loaded.scorer(false).score_requests(&reqs);
    let b = plain.scorer(false).score_requests(&reqs);
    for (x, y) in a.probs.as_slice().iter().zip(b.probs.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn malformed_quant_section_is_a_typed_error() {
    let (trained, _, scaler, time_steps) = common::tiny_trained();
    let text = save_snapshot_quant(&trained.model, &trained.params, &scaler, time_steps);

    // Structurally broken (scales line dropped), checksum re-tagged so the
    // parser itself must catch it.
    let broken = tamper(&text, "quant", |payload| {
        payload
            .lines()
            .filter(|l| !l.starts_with("scales"))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n"
    });
    match load_snapshot(&broken).err() {
        Some(SnapshotError::Quant(why)) => {
            assert!(why.contains("malformed"), "undescriptive error: {why}")
        }
        other => panic!("expected a quant error, got {other:?}"),
    }

    // A flipped byte without re-tagging still fails the integrity check.
    let needle = "scheme\tint8";
    let idx = text.find(needle).expect("quant payload present");
    let mut bytes = text.clone().into_bytes();
    bytes[idx + 2] ^= 0x01;
    let corrupt = String::from_utf8(bytes).expect("still utf-8");
    match load_snapshot(&corrupt).err() {
        Some(SnapshotError::Checksum { section, .. }) => assert_eq!(section, "quant"),
        other => panic!("expected a checksum error, got {other:?}"),
    }
}

#[test]
fn quant_auc_drift_is_within_tolerance() {
    let (trained, prep, scaler, time_steps) = common::tiny_trained();
    let text = save_snapshot_quant(&trained.model, &trained.params, &scaler, time_steps);
    let loaded = load_snapshot(&text).expect("quant snapshot loads");
    let (reqs, labels) = requests(&prep);

    let f32_out = loaded.scorer(false).score_requests(&reqs);
    let q_out = loaded.scorer(true).score_requests(&reqs);

    let f32_probs = f32_out.probs.as_slice();
    let q_probs = q_out.probs.as_slice();
    let mean_abs: f32 = f32_probs
        .iter()
        .zip(q_probs)
        .map(|(a, b)| (a - b).abs())
        .sum::<f32>()
        / f32_probs.len() as f32;
    assert!(mean_abs < 0.05, "mean |Δprob| too large: {mean_abs}");

    let auc_drift = (roc_auc(f32_probs, &labels) - roc_auc(q_probs, &labels)).abs();
    let pr_drift = (pr_auc(f32_probs, &labels) - pr_auc(q_probs, &labels)).abs();
    assert!(auc_drift <= 0.02, "AUC drift {auc_drift} above tolerance");
    assert!(pr_drift <= 0.03, "PR-AUC drift {pr_drift} above tolerance");
}

#[test]
fn quant_scores_are_bit_identical_across_simd_backends() {
    let (trained, prep, scaler, time_steps) = common::tiny_trained();
    let text = save_snapshot_quant(&trained.model, &trained.params, &scaler, time_steps);
    let loaded = load_snapshot(&text).expect("quant snapshot loads");
    let scorer = loaded.scorer(true);
    assert!(scorer.quantized());
    let (reqs, _) = requests(&prep);

    let mut reference: Option<Vec<u32>> = None;
    for backend in supported_backends() {
        assert!(set_backend(backend));
        let out = scorer.score_requests_parallel(&reqs, 2);
        let bits: Vec<u32> = out.probs.as_slice().iter().map(|v| v.to_bits()).collect();
        match &reference {
            None => reference = Some(bits),
            Some(want) => assert_eq!(
                &bits,
                want,
                "quant scores drifted on backend {}",
                backend.name()
            ),
        }
    }
}
