//! Multi-channel Feature Learning Module (§3.3).
//!
//! One channel per medical feature. Each channel embeds the feature's raw
//! value with Bi-directional Embedding Learning (Eq. 1), models explicit
//! pairwise feature interactions with attention (FIL, Eq. 2), tracks the
//! feature's temporal trend with a local GRU (FTL, Eq. 3), fuses the three
//! views (FeaFus, Eq. 4), and summarises the fused sequence with a global
//! GRU (Eq. 5). FeaAgg (Eq. 6) compresses and concatenates the channels into
//! the patient-level representation `h̃`.
//!
//! FIL is reconstructed from its interface (the ELDA paper's internals are
//! not reproduced in the CohortNet text): bilinear scaled-dot attention
//! `α_ij = softmax_j((W_q e_i)·(W_k e_j))`, `u_i = Σ_j α_ij (W_v e_j)` —
//! see DESIGN.md §1.
//!
//! The forward is written once against [`Exec`]: training and
//! interpretation record it on a [`cohortnet_tensor::Tape`], serving and
//! discovery run it on the value-only [`cohortnet_tensor::Eager`] executor.
//! Each time step's per-feature work is a handful of grouped ops over all
//! `F` channels (see [`cohortnet_tensor::exec`]): the tape records them as
//! the per-feature loops, the eager executor runs each as one fused kernel.

use crate::config::CohortNetConfig;
use cohortnet_models::data::Batch;
use cohortnet_tensor::exec::Act;
use cohortnet_tensor::nn::{Biel, GruCell, Linear};
use cohortnet_tensor::{Exec, Matrix, ParamStore, Var};
use rand::rngs::StdRng;

/// The Multi-channel Feature Learning Module.
#[derive(Debug, Clone)]
pub struct Mflm {
    biel: Vec<Biel>,
    wq: Linear,
    wk: Linear,
    wv: Linear,
    lgru: Vec<GruCell>,
    feafus: Linear,
    ggru: Vec<GruCell>,
    agg: Linear,
    head: Linear,
    /// Embedding width.
    pub d_embed: usize,
    /// Fused width `d_o`.
    pub d_fused: usize,
    /// Channel width `d_h`.
    pub d_hidden: usize,
    /// FeaAgg per-channel width.
    pub d_agg: usize,
    /// Trend width `d_t`.
    pub d_trend: usize,
    use_interactions: bool,
    use_trends: bool,
}

/// Everything a forward pass exposes to the rest of the pipeline. `V` is the
/// executor's value type and `G` its group of per-feature values ([`Var`]
/// and `Vec<Var>` on a tape; see [`Exec::G`]).
pub struct MflmTrace<V = Var, G = Vec<V>> {
    /// Prediction logits from `h̃` alone (`w^p · h̃ + b^p` of Eq. 14).
    pub logits: V,
    /// Patient-level representation `h̃` (`batch x F*d_agg`).
    pub tilde_h: V,
    /// Fused feature representations, one group per time step: block `f`
    /// of `o[t]` is `o[t][f]` (`batch x d_o`) — the vectors the Cohort
    /// Discovery Module clusters into states.
    pub o: Vec<G>,
    /// Final channel representations: block `i` is `h_i^T` (`batch x d_h`)
    /// — used by cohort representation learning (Eq. 9) and CEM queries
    /// (Eq. 11).
    pub h_final: G,
    /// Attention mass `Σ α_i[j]` accumulated over the batch and all time
    /// steps (`F x F`, row = query feature). Divide by `attn_count` for the
    /// mean — CDM's pattern mask (Eq. 8) ranks features by this.
    pub attn_sum: Matrix,
    /// Number of (sample, time-step) contributions in `attn_sum`.
    pub attn_count: usize,
    /// Per-time-step attention matrices, recorded only when requested
    /// (single-patient interpretation, Fig. 9e).
    pub attn_per_step: Option<Vec<Matrix>>,
}

impl Mflm {
    /// Builds the module, registering all channel parameters.
    pub fn new(ps: &mut ParamStore, rng: &mut StdRng, cfg: &CohortNetConfig) -> Self {
        let nf = cfg.n_features();
        assert!(
            nf > 0,
            "config has no feature bounds — use CohortNetConfig::for_dataset"
        );
        let biel = (0..nf)
            .map(|f| {
                Biel::new(
                    ps,
                    rng,
                    &format!("mflm.biel{f}"),
                    cfg.d_embed,
                    cfg.bounds[f],
                )
            })
            .collect();
        let lgru = (0..nf)
            .map(|f| GruCell::new(ps, rng, &format!("mflm.lgru{f}"), cfg.d_embed, cfg.d_trend))
            .collect();
        let ggru = (0..nf)
            .map(|f| GruCell::new(ps, rng, &format!("mflm.ggru{f}"), cfg.d_fused, cfg.d_hidden))
            .collect();
        Mflm {
            biel,
            wq: Linear::new(ps, rng, "mflm.fil.wq", cfg.d_embed, cfg.d_embed),
            wk: Linear::new(ps, rng, "mflm.fil.wk", cfg.d_embed, cfg.d_embed),
            wv: Linear::new(ps, rng, "mflm.fil.wv", cfg.d_embed, cfg.d_embed),
            feafus: Linear::new(
                ps,
                rng,
                "mflm.feafus",
                2 * cfg.d_embed + cfg.d_trend,
                cfg.d_fused,
            ),
            agg: Linear::new(ps, rng, "mflm.agg", cfg.d_hidden, cfg.d_agg),
            head: Linear::new(ps, rng, "mflm.head", nf * cfg.d_agg, cfg.n_labels),
            lgru,
            ggru,
            d_embed: cfg.d_embed,
            d_fused: cfg.d_fused,
            d_hidden: cfg.d_hidden,
            d_agg: cfg.d_agg,
            d_trend: cfg.d_trend,
            use_interactions: cfg.use_interactions,
            use_trends: cfg.use_trends,
        }
    }

    /// Number of channels.
    pub fn n_features(&self) -> usize {
        self.biel.len()
    }

    /// The prediction-head weight (`w^p`) — used by Eq. 14's combination.
    pub fn head(&self) -> &Linear {
        &self.head
    }

    /// The FIL `(W_Q, W_K, W_V)` projections of Eq. 2.
    pub fn fil_projections(&self) -> (&Linear, &Linear, &Linear) {
        (&self.wq, &self.wk, &self.wv)
    }

    /// Feature `f`'s trend GRU (Eq. 3).
    pub fn lgru(&self, f: usize) -> &GruCell {
        &self.lgru[f]
    }

    /// Feature `f`'s global channel GRU (Eq. 5).
    pub fn ggru(&self, f: usize) -> &GruCell {
        &self.ggru[f]
    }

    /// The FeaFus fusion layer (Eq. 4).
    pub fn feafus(&self) -> &Linear {
        &self.feafus
    }

    /// The FeaAgg compression layer (Eq. 6).
    pub fn agg(&self) -> &Linear {
        &self.agg
    }

    /// FIL at one time step over the embeddings `es`: returns the
    /// interaction vectors `u_i` and the attention rows `α_i` (`batch x F`)
    /// as groups (block `i` = feature `i`).
    fn interact_step<E: Exec>(&self, t: &mut E, ps: &ParamStore, es: &E::G) -> (E::G, E::G) {
        let scale = 1.0 / (self.d_embed as f32).sqrt();
        let qs = t.linear_blocks(ps, &self.wq, es, Act::Identity);
        let ks = t.linear_blocks(ps, &self.wk, es, Act::Identity);
        let vs = t.linear_blocks(ps, &self.wv, es, Act::Identity);
        let alphas = t.pair_attention(&qs, &ks, scale);
        let us = t.attention_sum(&alphas, &vs);
        (us, alphas)
    }

    /// Full forward pass over a batch.
    ///
    /// `record_attention_steps` additionally stores each step's full
    /// attention matrix (use for single-patient interpretation only — it is
    /// `T` matrices of `F x F`).
    pub fn forward<E: Exec>(
        &self,
        t: &mut E,
        ps: &ParamStore,
        batch: &Batch,
        record_attention_steps: bool,
    ) -> MflmTrace<E::V, E::G> {
        let nf = self.n_features();
        let steps = batch.steps.len();
        let states = |t: &mut E, cells: &[GruCell]| {
            let zeros = cells.iter().map(|c| c.init_state(t, batch.size)).collect();
            t.group(zeros)
        };
        let mut lstate = states(t, &self.lgru);
        let mut gstate = states(t, &self.ggru);
        let mut o_all: Vec<E::G> = Vec::with_capacity(steps);
        let mut attn_sum = Matrix::zeros(nf, nf);
        let mut attn_count = 0usize;
        let mut attn_per_step = if record_attention_steps {
            Some(Vec::with_capacity(steps))
        } else {
            None
        };

        for step_idx in 0..steps {
            let es = t.biel_blocks(ps, &self.biel, &batch.steps[step_idx], &batch.mask);
            let (us, alphas) = if self.use_interactions {
                self.interact_step(t, ps, &es)
            } else {
                // Ablation: zero interaction vectors, uniform attention.
                let zero = t.constant(Matrix::zeros(batch.size, self.d_embed));
                let uniform = t.constant(Matrix::full(batch.size, nf, 1.0 / nf as f32));
                (t.group(vec![zero; nf]), t.group(vec![uniform; nf]))
            };
            // Accumulate attention mass for CDM's pattern mask.
            let mut step_attn = Matrix::zeros(nf, nf);
            for i in 0..nf {
                for r in 0..batch.size {
                    let alpha = t.block_row(&alphas, i, r);
                    for j in 0..nf {
                        step_attn[(i, j)] += alpha[j];
                    }
                }
            }
            attn_count += batch.size;
            attn_sum.add_assign(&step_attn);
            if let Some(rec) = attn_per_step.as_mut() {
                rec.push(step_attn.scale(1.0 / batch.size as f32));
            }
            // Trend, fusion, global channel update.
            let zero_trend;
            let trend = if self.use_trends {
                lstate = t.gru_blocks(ps, &self.lgru, &es, &lstate);
                &lstate
            } else {
                let zero = t.constant(Matrix::zeros(batch.size, self.d_trend));
                zero_trend = t.group(vec![zero; nf]);
                &zero_trend
            };
            let joined = t.concat_blocks(&[&es, &us, trend]);
            let o = t.linear_blocks(ps, &self.feafus, &joined, Act::Tanh);
            gstate = t.gru_blocks(ps, &self.ggru, &o, &gstate);
            o_all.push(o);
        }

        // FeaAgg: compress each final channel state and concatenate.
        let compressed = t.linear_blocks(ps, &self.agg, &gstate, Act::Tanh);
        let compressed = t.ungroup(&compressed);
        let tilde_h = t.concat_cols(&compressed.iter().collect::<Vec<_>>());
        let logits = self.head.forward(t, ps, &tilde_h);

        MflmTrace {
            logits,
            tilde_h,
            o: o_all,
            h_final: gstate,
            attn_sum,
            attn_count,
            attn_per_step,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohortnet_ehr::{profiles, standardize::Standardizer, synth::generate};
    use cohortnet_models::data::{make_batch, prepare};
    use cohortnet_tensor::Tape;
    use rand::SeedableRng;

    fn setup() -> (CohortNetConfig, cohortnet_models::data::Prepared) {
        let mut c = profiles::mimic3_like(0.05);
        c.n_patients = 40;
        c.time_steps = 4;
        let mut ds = generate(&c);
        let scaler = Standardizer::fit(&ds);
        scaler.apply(&mut ds);
        let cfg = CohortNetConfig::for_dataset(&ds, &scaler);
        (cfg, prepare(&ds))
    }

    #[test]
    fn trace_shapes() {
        let (cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mflm = Mflm::new(&mut ps, &mut rng, &cfg);
        let batch = make_batch(&prep, &[0, 1, 2]);
        let mut tape = Tape::new();
        let trace = mflm.forward(&mut tape, &ps, &batch, false);
        assert_eq!(tape.value(trace.logits).shape(), (3, 1));
        assert_eq!(tape.value(trace.tilde_h).shape(), (3, 20 * cfg.d_agg));
        assert_eq!(trace.o.len(), 4);
        assert_eq!(trace.o[0].len(), 20);
        assert_eq!(tape.value(trace.o[0][0]).shape(), (3, cfg.d_fused));
        assert_eq!(trace.h_final.len(), 20);
        assert_eq!(tape.value(trace.h_final[0]).shape(), (3, cfg.d_hidden));
        assert_eq!(trace.attn_sum.shape(), (20, 20));
        assert_eq!(trace.attn_count, 3 * 4);
        assert!(trace.attn_per_step.is_none());
    }

    #[test]
    fn attention_rows_sum_to_count() {
        let (cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mflm = Mflm::new(&mut ps, &mut rng, &cfg);
        let batch = make_batch(&prep, &[0, 1]);
        let mut tape = Tape::new();
        let trace = mflm.forward(&mut tape, &ps, &batch, true);
        // Each row of attn_sum accumulated batch*T softmax rows (each sums 1).
        for i in 0..20 {
            let row_sum: f32 = trace.attn_sum.row(i).iter().sum();
            assert!(
                (row_sum - trace.attn_count as f32).abs() < 1e-2,
                "row {i}: {row_sum}"
            );
        }
        assert_eq!(trace.attn_per_step.unwrap().len(), 4);
    }

    #[test]
    fn fused_representations_are_bounded() {
        let (cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mflm = Mflm::new(&mut ps, &mut rng, &cfg);
        let batch = make_batch(&prep, &[0, 1, 2, 3]);
        let mut tape = Tape::new();
        let trace = mflm.forward(&mut tape, &ps, &batch, false);
        for o_step in &trace.o {
            for &o in o_step {
                assert!(tape.value(o).as_slice().iter().all(|&v| v.abs() <= 1.0));
            }
        }
    }

    #[test]
    fn ablation_flags_disable_mechanisms() {
        let (mut cfg, prep) = setup();
        cfg.use_interactions = false;
        cfg.use_trends = false;
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mflm = Mflm::new(&mut ps, &mut rng, &cfg);
        let batch = make_batch(&prep, &[0, 1]);
        let mut tape = Tape::new();
        let trace = mflm.forward(&mut tape, &ps, &batch, false);
        // Attention is uniform when FIL is off.
        let nf = 20.0f32;
        for i in 0..20 {
            for j in 0..20 {
                let a = trace.attn_sum[(i, j)] / trace.attn_count as f32;
                assert!((a - 1.0 / nf).abs() < 1e-6, "attention not uniform: {a}");
            }
        }
        // Still trainable end-to-end.
        let loss = tape.bce_with_logits(trace.logits, batch.labels.clone());
        tape.backward(loss);
        tape.flush_grads(&mut ps);
        assert!(ps.grad_norm() > 0.0);
        // No gradient reaches the (unused) lGRU or FIL parameters.
        let unused: f32 = ps
            .entries()
            .filter(|e| e.name.starts_with("mflm.lgru") || e.name.starts_with("mflm.fil"))
            .map(|e| e.grad.norm())
            .sum();
        assert_eq!(unused, 0.0, "gradient leaked into disabled mechanisms");
    }

    #[test]
    fn gradients_reach_biel_params() {
        let (cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mflm = Mflm::new(&mut ps, &mut rng, &cfg);
        let batch = make_batch(&prep, &[0, 1]);
        let mut tape = Tape::new();
        let trace = mflm.forward(&mut tape, &ps, &batch, false);
        let loss = tape.bce_with_logits(trace.logits, batch.labels.clone());
        tape.backward(loss);
        tape.flush_grads(&mut ps);
        // Some BiEL parameter received gradient signal.
        let total: f32 = ps.entries().map(|e| e.grad.norm()).sum();
        assert!(total > 0.0);
        let biel_grad: f32 = ps
            .entries()
            .filter(|e| e.name.starts_with("mflm.biel"))
            .map(|e| e.grad.norm())
            .sum();
        assert!(biel_grad > 0.0, "no gradient reached BiEL embeddings");
    }
}
