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
//! The forward is written once against [`Exec`]: training, discovery and
//! interpretation record it on a [`cohortnet_tensor::Tape`], serving runs
//! it on the value-only [`cohortnet_tensor::Eager`] executor.

use crate::config::CohortNetConfig;
use cohortnet_models::data::Batch;
use cohortnet_tensor::nn::{GruCell, Linear};
use cohortnet_tensor::{Exec, Matrix, ParamId, ParamStore, Var};
use rand::rngs::StdRng;

/// Per-feature BiEL embedding parameters.
#[derive(Debug, Clone)]
struct BielChannel {
    v_a: ParamId,
    v_b: ParamId,
    v_m: ParamId,
    bound_lo: f32,
    bound_hi: f32,
}

/// The Multi-channel Feature Learning Module.
#[derive(Debug, Clone)]
pub struct Mflm {
    biel: Vec<BielChannel>,
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
/// executor's value type ([`Var`] on a tape).
pub struct MflmTrace<V = Var> {
    /// Prediction logits from `h̃` alone (`w^p · h̃ + b^p` of Eq. 14).
    pub logits: V,
    /// Patient-level representation `h̃` (`batch x F*d_agg`).
    pub tilde_h: V,
    /// Fused feature representations `o[t][f]` (`batch x d_o` each) — the
    /// vectors the Cohort Discovery Module clusters into states.
    pub o: Vec<Vec<V>>,
    /// Final channel representations `h_i^T` (`batch x d_h` each) — used by
    /// cohort representation learning (Eq. 9) and CEM queries (Eq. 11).
    pub h_final: Vec<V>,
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
                let (a, b) = cfg.bounds[f];
                BielChannel {
                    v_a: ps.register(
                        format!("mflm.biel{f}.a"),
                        cohortnet_tensor::init::uniform(rng, 1, cfg.d_embed, 0.3),
                    ),
                    v_b: ps.register(
                        format!("mflm.biel{f}.b"),
                        cohortnet_tensor::init::uniform(rng, 1, cfg.d_embed, 0.3),
                    ),
                    v_m: ps.register(
                        format!("mflm.biel{f}.m"),
                        cohortnet_tensor::init::uniform(rng, 1, cfg.d_embed, 0.3),
                    ),
                    bound_lo: a,
                    bound_hi: b,
                }
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

    /// BiEL embeddings for all features at one time step.
    fn embed_step<E: Exec>(
        &self,
        t: &mut E,
        ps: &ParamStore,
        step: &Matrix,
        mask: &Matrix,
    ) -> Vec<E::V> {
        let batch = step.rows();
        (0..self.biel.len())
            .map(|f| {
                let ch = &self.biel[f];
                let range = (ch.bound_hi - ch.bound_lo).max(1e-4);
                // Interpolation weights are pure data — no gradient flows
                // through the raw values, matching Eq. 1.
                let mut w_a = Matrix::zeros(batch, 1);
                let mut w_b = Matrix::zeros(batch, 1);
                let mut m_on = Matrix::zeros(batch, 1);
                let mut m_off = Matrix::zeros(batch, 1);
                for r in 0..batch {
                    let x = step[(r, f)].clamp(ch.bound_lo, ch.bound_hi);
                    w_a[(r, 0)] = (x - ch.bound_lo) / range;
                    w_b[(r, 0)] = (ch.bound_hi - x) / range;
                    let present = mask[(r, f)] > 0.5;
                    m_on[(r, 0)] = f32::from(present);
                    m_off[(r, 0)] = f32::from(!present);
                }
                let wa = t.constant(w_a);
                let wb = t.constant(w_b);
                let mon = t.constant(m_on);
                let moff = t.constant(m_off);
                let va = t.param(ps, ch.v_a);
                let vb = t.param(ps, ch.v_b);
                let vm = t.param(ps, ch.v_m);
                let ea = t.matmul(&wa, &va);
                let eb = t.matmul(&wb, &vb);
                let e_present = t.add(&ea, &eb);
                let e_masked = t.mul_col_broadcast(&e_present, &mon);
                let em = t.matmul(&moff, &vm);
                t.add(&e_masked, &em)
            })
            .collect()
    }

    /// FIL at one time step: returns `(u_i, α_i)` per feature, where `α_i`
    /// is the `(batch x F)` attention row of feature `i`.
    fn interact_step<E: Exec>(
        &self,
        t: &mut E,
        ps: &ParamStore,
        es: &[E::V],
    ) -> (Vec<E::V>, Vec<E::V>) {
        let nf = es.len();
        let scale = 1.0 / (self.d_embed as f32).sqrt();
        let qs: Vec<E::V> = es.iter().map(|e| self.wq.forward(t, ps, e)).collect();
        let ks: Vec<E::V> = es.iter().map(|e| self.wk.forward(t, ps, e)).collect();
        let vs: Vec<E::V> = es.iter().map(|e| self.wv.forward(t, ps, e)).collect();
        let mut us = Vec::with_capacity(nf);
        let mut alphas = Vec::with_capacity(nf);
        for i in 0..nf {
            let mut scores = Vec::with_capacity(nf);
            for j in 0..nf {
                let qk = t.mul(&qs[i], &ks[j]);
                let s = t.sum_cols(&qk);
                scores.push(t.scale(&s, scale));
            }
            let mat = t.concat_cols(&scores.iter().collect::<Vec<_>>());
            let alpha = t.softmax_rows(&mat);
            let mut u: Option<E::V> = None;
            for (j, v) in vs.iter().enumerate() {
                let a_j = t.slice_cols(&alpha, j, j + 1);
                let w = t.mul_col_broadcast(v, &a_j);
                u = Some(match u {
                    Some(acc) => t.add(&acc, &w),
                    None => w,
                });
            }
            us.push(u.unwrap());
            alphas.push(alpha);
        }
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
    ) -> MflmTrace<E::V> {
        let nf = self.n_features();
        let steps = batch.steps.len();
        let mut lstate: Vec<E::V> = self
            .lgru
            .iter()
            .map(|c| c.init_state(t, batch.size))
            .collect();
        let mut gstate: Vec<E::V> = self
            .ggru
            .iter()
            .map(|c| c.init_state(t, batch.size))
            .collect();
        let mut o_all: Vec<Vec<E::V>> = Vec::with_capacity(steps);
        let mut attn_sum = Matrix::zeros(nf, nf);
        let mut attn_count = 0usize;
        let mut attn_per_step = if record_attention_steps {
            Some(Vec::with_capacity(steps))
        } else {
            None
        };

        for step_idx in 0..steps {
            let es = self.embed_step(t, ps, &batch.steps[step_idx], &batch.mask);
            let (us, alphas) = if self.use_interactions {
                self.interact_step(t, ps, &es)
            } else {
                // Ablation: zero interaction vectors, uniform attention.
                let zero = t.constant(Matrix::zeros(batch.size, self.d_embed));
                let uniform = t.constant(Matrix::full(batch.size, nf, 1.0 / nf as f32));
                (vec![zero; nf], vec![uniform; nf])
            };
            // Accumulate attention mass for CDM's pattern mask.
            let mut step_attn = Matrix::zeros(nf, nf);
            for (i, a) in alphas.iter().enumerate() {
                let av = t.value(a);
                for r in 0..av.rows() {
                    for j in 0..nf {
                        step_attn[(i, j)] += av[(r, j)];
                    }
                }
            }
            attn_count += batch.size;
            attn_sum.add_assign(&step_attn);
            if let Some(rec) = attn_per_step.as_mut() {
                rec.push(step_attn.scale(1.0 / batch.size as f32));
            }
            // Trend, fusion, global channel update.
            let mut o_step = Vec::with_capacity(nf);
            let zero_trend = if self.use_trends {
                None
            } else {
                Some(t.constant(Matrix::zeros(batch.size, self.d_trend)))
            };
            for f in 0..nf {
                let trend = match &zero_trend {
                    Some(z) => z,
                    None => {
                        lstate[f] = self.lgru[f].step(t, ps, &es[f], &lstate[f]);
                        &lstate[f]
                    }
                };
                let joined = t.concat_cols(&[&es[f], &us[f], trend]);
                let fused_pre = self.feafus.forward(t, ps, joined);
                let o = t.tanh(&fused_pre);
                gstate[f] = self.ggru[f].step(t, ps, &o, &gstate[f]);
                o_step.push(o);
            }
            o_all.push(o_step);
        }

        // FeaAgg: compress each final channel state and concatenate.
        let compressed: Vec<E::V> = gstate
            .iter()
            .map(|g| {
                let c_pre = self.agg.forward(t, ps, g);
                t.tanh(&c_pre)
            })
            .collect();
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
