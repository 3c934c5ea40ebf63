//! Property-based tests (proptest) on the core invariants of the workspace:
//! autograd correctness, clustering invariants, metric properties, resample
//! semantics and pattern-key injectivity.

use cohortnet::cdm::{decode_key, pattern_key};
use cohortnet_clustering::{inertia_of, kmeans_fit, KMeansConfig};
use cohortnet_ehr::resample::resample;
use cohortnet_metrics::{pr_auc, roc_auc};
use cohortnet_tensor::gradcheck::max_grad_error;
use cohortnet_tensor::matrix::Matrix;
use cohortnet_tensor::nn::{Activation, Mlp};
use cohortnet_tensor::{Exec, ParamStore};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reverse-mode gradients agree with central differences for random
    /// MLPs on random inputs.
    #[test]
    fn autograd_matches_finite_differences(
        seed in 0u64..1000,
        rows in 1usize..4,
        hidden in 1usize..6,
    ) {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&mut ps, &mut rng, "m", &[3, hidden, 1], Activation::Tanh, Activation::Sigmoid);
        let data: Vec<f32> = (0..rows * 3).map(|i| ((i * 37 + seed as usize) % 19) as f32 * 0.05 - 0.4).collect();
        let target: Vec<f32> = (0..rows).map(|i| ((i + seed as usize) % 2) as f32).collect();
        let err = max_grad_error(&mut ps, 1e-2, |t, ps| {
            let x = t.constant(Matrix::from_vec(rows, 3, data.clone()));
            let y = mlp.forward(t, ps, x);
            t.mse(y, Matrix::from_vec(rows, 1, target.clone()))
        });
        prop_assert!(err < 3e-2, "gradient error {err}");
    }

    /// Reverse-mode gradients agree with central differences through a
    /// two-step GRU chain — the recurrent backbone every model shares.
    #[test]
    fn autograd_matches_finite_differences_gru(seed in 0u64..300) {
        use cohortnet_tensor::nn::GruCell;
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let cell = GruCell::new(&mut ps, &mut rng, "g", 2, 3);
        let x1: Vec<f32> = (0..4).map(|i| ((i * 13 + seed as usize) % 11) as f32 * 0.08 - 0.4).collect();
        let x2: Vec<f32> = (0..4).map(|i| ((i * 29 + seed as usize) % 7) as f32 * 0.1 - 0.3).collect();
        let err = max_grad_error(&mut ps, 1e-2, |t, ps| {
            let h0 = cell.init_state(t, 2);
            let a = t.constant(Matrix::from_vec(2, 2, x1.clone()));
            let b = t.constant(Matrix::from_vec(2, 2, x2.clone()));
            let h1 = cell.step(t, ps, a, h0);
            let h2 = cell.step(t, ps, b, h1);
            t.mean_all(h2)
        });
        prop_assert!(err < 3e-2, "gradient error {err}");
    }

    /// Softmax rows always land on the probability simplex.
    #[test]
    fn softmax_rows_simplex(vals in proptest::collection::vec(-50.0f32..50.0, 3..30)) {
        let cols = 3;
        let rows = vals.len() / cols;
        prop_assume!(rows >= 1);
        let m = Matrix::from_vec(rows, cols, vals[..rows * cols].to_vec());
        let s = m.softmax_rows();
        for r in 0..rows {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    /// Every K-Means point ends at its nearest centroid, and reported
    /// inertia matches a recomputation.
    #[test]
    fn kmeans_invariants(
        seed in 0u64..500,
        n in 4usize..40,
        k in 1usize..6,
    ) {
        let dim = 2;
        let data: Vec<f32> = (0..n * dim)
            .map(|i| (((i as u64 * 2654435761 + seed) % 1000) as f32) / 100.0)
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let km = kmeans_fit(&data, dim, KMeansConfig { k, max_iter: 40, tol: 1e-6 }, &mut rng);
        // Assignment optimality.
        for i in 0..n {
            let p = &data[i * dim..(i + 1) * dim];
            let d_assigned: f32 = p.iter().zip(km.centroid(km.assignments[i])).map(|(a, b)| (a - b).powi(2)).sum();
            for c in 0..km.k {
                let d: f32 = p.iter().zip(km.centroid(c)).map(|(a, b)| (a - b).powi(2)).sum();
                prop_assert!(d_assigned <= d + 1e-3);
            }
        }
        // Inertia consistency.
        let recomputed = inertia_of(&data, dim, &km.centroids, &km.assignments);
        prop_assert!((recomputed - km.inertia).abs() < 1e-3 * (1.0 + km.inertia));
    }

    /// AUCs are invariant under strictly monotone score transforms.
    #[test]
    fn auc_monotone_invariance(
        scores in proptest::collection::vec(0.001f32..0.999, 4..40),
        seed in 0u64..100,
    ) {
        let labels: Vec<u8> = scores.iter().enumerate().map(|(i, _)| (i as u64 + seed).is_multiple_of(3) as u8).collect();
        prop_assume!(labels.contains(&1) && labels.contains(&0));
        let transformed: Vec<f32> = scores.iter().map(|&s| (3.0 * s).exp() + 1.0).collect();
        prop_assert!((roc_auc(&scores, &labels) - roc_auc(&transformed, &labels)).abs() < 1e-9);
        prop_assert!((pr_auc(&scores, &labels) - pr_auc(&transformed, &labels)).abs() < 1e-9);
    }

    /// AUC-ROC of scores vs inverted scores sum to 1 (no ties).
    #[test]
    fn auc_inversion_symmetry(n in 4usize..30, seed in 0u64..100) {
        let scores: Vec<f32> = (0..n).map(|i| ((i as u64 * 7919 + seed * 13) % 10007) as f32 / 10007.0).collect();
        let labels: Vec<u8> = (0..n).map(|i| (i as u64 * 31 + seed).is_multiple_of(4) as u8).collect();
        prop_assume!(labels.contains(&1) && labels.contains(&0));
        let inverted: Vec<f32> = scores.iter().map(|&s| -s).collect();
        let sum = roc_auc(&scores, &labels) + roc_auc(&inverted, &labels);
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    /// Resampling conserves the value range and never invents values
    /// outside the observed events.
    #[test]
    fn resample_bounded_by_events(
        events in proptest::collection::vec((0.0f32..48.0, -5.0f32..5.0), 1..30),
        bins in 1usize..24,
    ) {
        let out = resample(&events, bins, 48.0).expect("non-empty");
        let lo = events.iter().map(|&(_, v)| v).fold(f32::INFINITY, f32::min);
        let hi = events.iter().map(|&(_, v)| v).fold(f32::NEG_INFINITY, f32::max);
        for &v in &out {
            prop_assert!(v >= lo - 1e-4 && v <= hi + 1e-4);
        }
    }

    /// Both AUCs are invariant under any joint permutation of the
    /// (score, label) pairs — ranking metrics must not care about sample
    /// order.
    #[test]
    fn auc_permutation_invariance(
        scores in proptest::collection::vec(0.0f32..1.0, 4..40),
        seed in 0u64..1000,
    ) {
        let labels: Vec<u8> = scores.iter().enumerate().map(|(i, _)| (i as u64 * 17 + seed).is_multiple_of(3) as u8).collect();
        prop_assume!(labels.contains(&1) && labels.contains(&0));
        let mut perm: Vec<usize> = (0..scores.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        perm.shuffle(&mut rng);
        let p_scores: Vec<f32> = perm.iter().map(|&i| scores[i]).collect();
        let p_labels: Vec<u8> = perm.iter().map(|&i| labels[i]).collect();
        prop_assert!((roc_auc(&scores, &labels) - roc_auc(&p_scores, &p_labels)).abs() < 1e-12);
        prop_assert!((pr_auc(&scores, &labels) - pr_auc(&p_scores, &p_labels)).abs() < 1e-12);
    }

    /// Both AUCs always land in [0, 1], including degenerate inputs with
    /// heavy ties or single-class slices.
    #[test]
    fn auc_bounded_unit_interval(
        raw in proptest::collection::vec((0u32..8, 0u8..2), 1..50),
    ) {
        // Coarse score grid => plenty of ties.
        let scores: Vec<f32> = raw.iter().map(|&(s, _)| s as f32 / 7.0).collect();
        let labels: Vec<u8> = raw.iter().map(|&(_, l)| l).collect();
        let pr = pr_auc(&scores, &labels);
        prop_assert!((0.0..=1.0).contains(&pr), "pr_auc {pr}");
        if labels.contains(&1) && labels.contains(&0) {
            let roc = roc_auc(&scores, &labels);
            prop_assert!((0.0..=1.0).contains(&roc), "roc_auc {roc}");
        }
    }

    /// Pattern keys round-trip for any states under the 4-bit budget.
    #[test]
    fn pattern_key_round_trip(
        states in proptest::collection::vec(0u8..16, 8),
        m0 in 0usize..8, m1 in 0usize..8, m2 in 0usize..8,
    ) {
        let mut mask = vec![m0, m1, m2];
        mask.sort_unstable();
        mask.dedup();
        let key = pattern_key(&states, &mask);
        let decoded = decode_key(key, &mask);
        for (pos, &f) in mask.iter().enumerate() {
            prop_assert_eq!(decoded[pos], (f, states[f]));
        }
    }
}

/// Parallel discovery is bit-identical to sequential discovery: same masks,
/// same cohorts in the same order, same representations, for a fixed seed.
#[test]
fn parallel_discovery_matches_sequential() {
    use cohortnet::config::CohortNetConfig;
    use cohortnet::discover::discover;
    use cohortnet::mflm::Mflm;
    use cohortnet_ehr::{profiles, standardize::Standardizer, synth::generate};
    use cohortnet_models::data::prepare;

    let mut c = profiles::mimic3_like(0.05);
    c.n_patients = 48;
    c.time_steps = 5;
    let mut ds = generate(&c);
    let scaler = Standardizer::fit(&ds);
    scaler.apply(&mut ds);
    let mut cfg = CohortNetConfig::for_dataset(&ds, &scaler);
    cfg.k_states = 4;
    cfg.min_frequency = 3;
    cfg.min_patients = 2;
    cfg.state_fit_samples = 1500;
    let prep = prepare(&ds);

    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(21);
    let mflm = Mflm::new(&mut ps, &mut rng, &cfg);

    cfg.n_threads = 1;
    let serial = discover(&mflm, &ps, &prep, &cfg, &mut StdRng::seed_from_u64(5));
    cfg.n_threads = 4;
    let parallel = discover(&mflm, &ps, &prep, &cfg, &mut StdRng::seed_from_u64(5));

    assert_eq!(serial.pool.masks, parallel.pool.masks);
    assert_eq!(serial.pool.total_cohorts(), parallel.pool.total_cohorts());
    for (a, b) in serial
        .pool
        .per_feature
        .iter()
        .zip(&parallel.pool.per_feature)
    {
        assert_eq!(a.len(), b.len());
        for (ca, cb) in a.iter().zip(b) {
            assert_eq!(ca.pattern, cb.pattern);
            assert_eq!(ca.frequency, cb.frequency);
            assert_eq!(ca.n_patients, cb.n_patients);
            assert_eq!(
                ca.repr, cb.repr,
                "cohort representations must match bit-for-bit"
            );
        }
    }
}

/// Non-proptest sanity: BCE-with-logits gradient matches sigmoid residual.
#[test]
fn bce_gradient_is_sigmoid_residual() {
    use cohortnet_tensor::Tape;
    let mut t = Tape::new();
    let z = t.constant(Matrix::from_vec(1, 3, vec![0.5, -1.0, 2.0]));
    let y = Matrix::from_vec(1, 3, vec![1.0, 0.0, 1.0]);
    let loss = t.bce_with_logits(z, y.clone());
    t.backward(loss);
    let g = t.grad(z).unwrap();
    for i in 0..3 {
        let zi = t.value(z)[(0, i)];
        let p = 1.0 / (1.0 + (-zi).exp());
        let expected = (p - y[(0, i)]) / 3.0;
        assert!((g[(0, i)] - expected).abs() < 1e-6);
    }
}
