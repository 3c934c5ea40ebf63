//! Ablation — iterative cohort updates (the paper's §Discussions: "we could
//! consider implementing advanced cohort filters and iterative cohort update
//! strategies to shorten cohort learning time").
//!
//! Scenario: cohorts were learned on the first half of the training set and
//! a second half arrives. Compare (a) rebuilding the pool from scratch on
//! the full set with (b) incrementally folding the new batch into the
//! existing pool, on wall-clock time and pool agreement.
//!
//! Expected shape: the incremental path is substantially cheaper (it skips
//! re-clustering and re-scanning old patients) while reaching a pool of
//! near-identical patterns; representations drift slightly (streaming means
//! vs exact means), which is the accuracy/cost trade the paper sketches.
//!
//! Run: `cargo run --release -p cohortnet-bench --bin ablation_incremental`

use cohortnet::cdm::mine_patterns;
use cohortnet::discover::{batch_states, discover};
use cohortnet::train::train_without_cohorts;
use cohortnet_bench::datasets::mimic3;
use cohortnet_bench::registry::{cohortnet_config, RunOptions};
use cohortnet_bench::report::{render_table, secs};
use cohortnet_bench::{fast, scale, time_steps};
use cohortnet_models::data::{make_batch, Prepared};
use cohortnet_tensor::{Eager, Exec, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn subset(prep: &Prepared, range: std::ops::Range<usize>) -> Prepared {
    Prepared {
        n_features: prep.n_features,
        time_steps: prep.time_steps,
        n_labels: prep.n_labels,
        patients: prep.patients[range].to_vec(),
    }
}

fn main() {
    let bundle = mimic3(scale(), time_steps());
    let opts = RunOptions {
        epochs: if fast() { 1 } else { 5 },
        ..Default::default()
    };
    let cfg = cohortnet_config(&bundle, &opts);
    let trained = train_without_cohorts(&bundle.train, &cfg);
    let mflm = &trained.model.mflm;
    let ps = &trained.params;
    let mut rng = StdRng::seed_from_u64(3);

    let n = bundle.train.patients.len();
    let half = n / 2;
    let first = subset(&bundle.train, 0..half);
    let second = subset(&bundle.train, half..n);

    // Baseline: pool learned on the first half.
    let d_half = discover(mflm, ps, &first, &cfg, &mut rng);

    // Shared helper: states + channel representations under the half's
    // fitted state models (so all strategies share one pattern keyspace).
    let states_and_h = |pp: &Prepared| -> (Vec<u8>, Matrix) {
        let nf = pp.n_features;
        let t_steps = pp.time_steps;
        let np = pp.patients.len();
        let mut states = vec![0u8; np * t_steps * nf];
        let mut hh = Matrix::zeros(np, nf * cfg.d_hidden);
        let mut e = Eager::new(ps);
        for chunk in (0..np).collect::<Vec<_>>().chunks(cfg.batch_size) {
            let batch = make_batch(pp, chunk);
            let trace = mflm.forward(&mut e, ps, &batch, false);
            let bs = batch_states(&e, &trace, &batch, &d_half.states);
            for (r, &p) in chunk.iter().enumerate() {
                states[p * t_steps * nf..(p + 1) * t_steps * nf]
                    .copy_from_slice(&bs[r * t_steps * nf..(r + 1) * t_steps * nf]);
                for f in 0..nf {
                    hh.row_mut(p)[f * cfg.d_hidden..(f + 1) * cfg.d_hidden]
                        .copy_from_slice(e.block_row(&trace.h_final, f, r));
                }
            }
        }
        (states, hh)
    };

    let nf = bundle.train.n_features;
    let t_steps = bundle.train.time_steps;

    // (a) Full rebuild: re-scan ALL patients (states fixed) and rebuild the
    // pool from scratch — what you do without the update strategy.
    let t0 = Instant::now();
    let (states_all, h_all) = states_and_h(&bundle.train);
    let mined_all = mine_patterns(&states_all, n, t_steps, nf, &d_half.pool.masks);
    let labels_all: Vec<Vec<u8>> = bundle
        .train
        .patients
        .iter()
        .map(|p| p.labels_u8.clone())
        .collect();
    let rebuild = cohortnet::crlm::CohortPool::build(
        mined_all,
        d_half.pool.masks.clone(),
        &h_all,
        &labels_all,
        &cfg,
    );
    let rebuild_sec = t0.elapsed().as_secs_f64();

    // (b) Incremental: scan only the new batch and fold it in.
    let t0 = Instant::now();
    let mut pool = d_half.pool.clone();
    let (states2, h2) = states_and_h(&second);
    let mined2 = mine_patterns(&states2, second.patients.len(), t_steps, nf, &pool.masks);
    let labels2: Vec<Vec<u8>> = second
        .patients
        .iter()
        .map(|p| p.labels_u8.clone())
        .collect();
    let admitted = pool.update_with(mined2, &h2, &labels2, &cfg);
    let incr_sec = t0.elapsed().as_secs_f64();

    // Pattern agreement on well-supported cohorts (3x the filters): the
    // borderline straddlers are the accepted accuracy/cost trade.
    let mut shared = 0usize;
    let mut total = 0usize;
    for f in 0..nf {
        for c in &rebuild.per_feature[f] {
            if c.frequency < 3 * cfg.min_frequency || c.n_patients < 3 * cfg.min_patients {
                continue;
            }
            total += 1;
            if pool.lookup(f, c.key).is_some() {
                shared += 1;
            }
        }
    }

    println!("== Ablation: iterative cohort updates (mimic3-like, {n} train patients) ==\n");
    let rows = vec![
        vec![
            "full rebuild (re-scan all)".into(),
            secs(rebuild_sec),
            rebuild.total_cohorts().to_string(),
        ],
        vec![
            "incremental (scan new half only)".into(),
            secs(incr_sec),
            format!("{} (+{admitted} new)", pool.total_cohorts()),
        ],
    ];
    println!("{}", render_table(&["strategy", "time", "cohorts"], &rows));
    println!(
        "pattern agreement: incremental pool covers {shared}/{total} \
         ({:.0}%) of the rebuild's well-supported cohorts; speedup {:.1}x",
        100.0 * shared as f64 / total.max(1) as f64,
        rebuild_sec / incr_sec.max(1e-9)
    );
}
