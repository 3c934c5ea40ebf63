//! Failure-injection tests: the workspace's error surfaces must fail loudly
//! and precisely, not corrupt state or mis-train silently. Snapshot
//! corruption — byte flips and the `snapshot.corrupt` chaos site — must
//! surface as typed [`SnapshotError`]s, never as a panic or abort.

use cohortnet::snapshot::{load_snapshot, save_snapshot, SnapshotError};
use cohortnet_chaos::{ChaosPlan, When};
use cohortnet_clustering::{kmeans_fit, KMeansConfig};
use cohortnet_ehr::io::{dataset_from_csv, CsvError};
use cohortnet_ehr::record::{EhrDataset, PatientRecord, Task};
use cohortnet_metrics::{macro_report, pr_auc, roc_auc};
use cohortnet_tensor::matrix::Matrix;
use cohortnet_tensor::Exec;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------- tensor

#[test]
#[should_panic(expected = "matmul shape mismatch")]
fn matmul_shape_mismatch_panics() {
    let a = Matrix::zeros(2, 3);
    let b = Matrix::zeros(2, 3);
    let _ = a.matmul(&b);
}

#[test]
#[should_panic(expected = "zip shape mismatch")]
fn elementwise_shape_mismatch_panics() {
    let a = Matrix::zeros(2, 3);
    let b = Matrix::zeros(3, 2);
    let _ = a.add(&b);
}

#[test]
#[should_panic(expected = "bias must be a row vector")]
fn tape_bias_shape_checked() {
    let mut t = cohortnet_tensor::Tape::new();
    let a = t.constant(Matrix::zeros(2, 3));
    let b = t.constant(Matrix::zeros(2, 3));
    let _ = t.add_row_broadcast(a, b);
}

// ------------------------------------------------------------- clustering

#[test]
#[should_panic(expected = "empty")]
fn kmeans_empty_input_panics() {
    let mut rng = StdRng::seed_from_u64(0);
    let _ = kmeans_fit(&[], 3, KMeansConfig::default(), &mut rng);
}

#[test]
#[should_panic(expected = "not divisible")]
fn kmeans_ragged_input_panics() {
    let mut rng = StdRng::seed_from_u64(0);
    let _ = kmeans_fit(&[1.0, 2.0, 3.0], 2, KMeansConfig::default(), &mut rng);
}

// ---------------------------------------------------------------- metrics

#[test]
#[should_panic(expected = "length mismatch")]
fn metric_length_mismatch_panics() {
    let _ = roc_auc(&[0.1, 0.2], &[1]);
}

#[test]
fn metrics_tolerate_nan_free_degenerate_inputs() {
    // Degenerate but valid inputs return well-defined fallbacks.
    assert_eq!(roc_auc(&[], &[]), 0.5);
    assert_eq!(pr_auc(&[], &[]), 0.0);
    let r = macro_report(&[0.5, 0.5], &[0, 0], 2);
    assert_eq!(r.auc_roc, 0.5);
}

// -------------------------------------------------------------------- ehr

#[test]
fn dataset_validation_rejects_label_width_drift() {
    let ds = EhrDataset {
        name: "bad".into(),
        feature_indices: vec![0],
        time_steps: 2,
        task: Task::Diagnosis { n_labels: 3 },
        patients: vec![PatientRecord {
            id: 0,
            values: vec![vec![1.0, 2.0]],
            present: vec![true],
            labels: vec![1], // should be 3 wide
            archetypes: vec![],
            severity: 0.0,
        }],
    };
    let err = ds.validate().unwrap_err();
    assert!(err.contains("labels"), "unexpected error: {err}");
}

#[test]
fn csv_error_messages_carry_context() {
    let err = dataset_from_csv(
        "1,abc,RR,5\n",
        "1,0\n",
        &["RR"],
        4,
        4.0,
        Task::Mortality,
        "x",
    )
    .unwrap_err();
    assert_eq!(err, CsvError::BadLine(1, "bad timestamp".into()));
    assert!(err.to_string().contains("line 1"));
}

// ------------------------------------------------------------------- core

#[test]
#[should_panic(expected = "config has no feature bounds")]
fn mflm_requires_bounds() {
    let cfg = cohortnet::config::CohortNetConfig::default_dims(); // empty bounds
    let mut ps = cohortnet_tensor::ParamStore::new();
    let mut rng = StdRng::seed_from_u64(0);
    let _ = cohortnet::mflm::Mflm::new(&mut ps, &mut rng, &cfg);
}

// --------------------------------------------------------------- snapshot

/// The chaos plan is process-global and `snapshot.corrupt` keys on call
/// order, so the snapshot tests serialise on this lock.
fn snapshot_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A quick untrained snapshot (no discovery pass), enough to exercise the
/// load-time integrity checks.
fn untrained_snapshot() -> String {
    let mut c = cohortnet_ehr::profiles::mimic3_like(0.05);
    c.n_patients = 10;
    c.time_steps = 3;
    let mut ds = cohortnet_ehr::synth::generate(&c);
    let scaler = cohortnet_ehr::standardize::Standardizer::fit(&ds);
    scaler.apply(&mut ds);
    let cfg = cohortnet::config::CohortNetConfig::for_dataset(&ds, &scaler);
    let mut ps = cohortnet_tensor::ParamStore::new();
    let mut rng = StdRng::seed_from_u64(11);
    let model = cohortnet::model::CohortNetModel::new(&mut ps, &mut rng, &cfg);
    save_snapshot(&model, &ps, &scaler, 3)
}

#[test]
fn corrupted_snapshot_load_returns_typed_error_not_abort() {
    let _s = snapshot_serial();
    let text = untrained_snapshot();
    // Flip single bytes at positions spread across the artifact (past the
    // version header, which has its own rejection path): every corruption
    // must come back as a typed SnapshotError, never a panic.
    let body_start = text.find('\n').expect("header line") + 1;
    let len = text.len();
    for frac in [0usize, 1, 2, 5, 9] {
        let idx = body_start + (len - body_start - 1) * frac / 9;
        let mut bytes = text.clone().into_bytes();
        bytes[idx] = (bytes[idx] ^ 0x01) | 0x20;
        let corrupt = String::from_utf8_lossy(&bytes).into_owned();
        if corrupt == text {
            continue;
        }
        let Err(err) = load_snapshot(&corrupt) else {
            panic!("corruption at byte {idx} must be rejected");
        };
        // The error is typed and printable — this is what the CLI reports
        // as `snapshot rejected: ...` instead of aborting.
        assert!(!err.to_string().is_empty());
    }
}

#[test]
fn chaos_snapshot_corruption_site_degrades_to_typed_error() {
    let _s = snapshot_serial();
    let text = untrained_snapshot();
    let guard = cohortnet_chaos::install(ChaosPlan::new(3).site(
        "snapshot.corrupt",
        When::At(vec![1]),
        257,
    ));
    // First load hits the injected corruption: a typed checksum failure.
    match load_snapshot(&text) {
        Err(SnapshotError::Checksum { .. }) => {}
        Err(other) => panic!("expected a checksum error, got {other}"),
        Ok(_) => panic!("injected corruption must be rejected"),
    }
    // The site fires only on call 1: the next load of the same text is
    // clean, proving the fault was injected, not latent.
    assert!(load_snapshot(&text).is_ok());
    drop(guard);
    assert!(load_snapshot(&text).is_ok());
}

#[test]
#[should_panic(expected = "run discovery before interpretation")]
fn interpretation_requires_discovery() {
    let mut cfg = cohortnet::config::CohortNetConfig::default_dims();
    cfg.bounds = vec![(0.0, 1.0); 2];
    let mut ps = cohortnet_tensor::ParamStore::new();
    let mut rng = StdRng::seed_from_u64(0);
    let model = cohortnet::model::CohortNetModel::new(&mut ps, &mut rng, &cfg);
    let prep = cohortnet_models::data::Prepared {
        n_features: 2,
        time_steps: 2,
        n_labels: 1,
        patients: vec![],
    };
    let _ = cohortnet::interpret::compute_states(&model, &ps, &prep);
}
