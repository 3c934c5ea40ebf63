//! Cohort Exploitation Module (§3.6).
//!
//! For each feature `i` of a new patient, CEM indexes the patient's relevant
//! cohorts through the bitmap `b_i` (Eq. 10) and attends over them with
//! trainable query/key/value projections (Eq. 11–13), producing the
//! feature's cohort representation `h'_i`. The concatenation `ĥ` calibrates
//! the individual prediction (Eq. 14); the calibration score `z = w^c · ĥ`
//! decomposes into feature- and cohort-level scores (Eq. 15–17), which is
//! what the interpretation module reads off.
//!
//! Like the MFLM, the module is written once against [`Exec`]. Its two
//! inputs that depend on the caller are explicit: the cohort keysᵀ/values
//! ([`Cem::project_cohorts`] — per batch on a tape, once per model when
//! serving) and the Eq. 10 bitmaps as [`CohortMask`] matrices (from
//! [`CohortPool::bitmap`] on the tape, from the packed
//! [`crate::index::CohortIndex`] when serving).

use crate::config::CohortNetConfig;
use crate::crlm::CohortPool;
use cohortnet_tensor::nn::Linear;
use cohortnet_tensor::{Exec, Matrix, ParamStore, Var};
use rand::rngs::StdRng;

/// The Cohort Exploitation Module.
#[derive(Debug, Clone)]
pub struct Cem {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    head: Linear,
    /// Value width `d_v` of each feature's cohort context.
    pub d_value: usize,
}

/// Intermediate values of a CEM forward pass, kept for interpretation. `V`
/// is the executor's value type ([`Var`] on a tape).
pub struct CemTrace<V = Var> {
    /// Cohort-calibration logits `w^c · ĥ` (`batch x n_labels`).
    pub logits: V,
    /// Patient-level cohort representation `ĥ` (`batch x F*d_v`).
    pub h_hat: V,
    /// Per-feature cohort attention `β_i` (`batch x |C_i|`), `None` for
    /// features without cohorts.
    pub attention: Vec<Option<V>>,
    /// Per-feature cohort context `h'_i` (`batch x d_v`).
    pub contexts: Vec<V>,
}

/// One feature's cohort keysᵀ (`d_att x |C_i|`) and values (`|C_i| x d_v`)
/// — the projections `W_K · C_i` and `W_V · C_i` of Eq. 11/13. `None` for a
/// feature without cohorts.
pub type CohortKv<V> = Option<(V, V)>;

/// One feature's Eq. 10 relevance bits over a batch, as the two constants
/// the masked softmax of Eq. 12 consumes.
#[derive(Debug, Clone)]
pub struct CohortMask {
    /// `batch x |C_i|`: `0` for a relevant cohort, `-1e9` otherwise.
    pub offset: Matrix,
    /// `batch x 1`: `1` when the row has any relevant cohort, else `0` (the
    /// row's context is zeroed).
    pub any: Matrix,
}

impl CohortMask {
    /// Builds the mask of a `batch x n_cohorts` bitmap given by `bit(r, q)`.
    pub fn from_fn(batch: usize, n_cohorts: usize, bit: impl Fn(usize, usize) -> bool) -> Self {
        let mut offset = Matrix::zeros(batch, n_cohorts);
        let mut any = Matrix::zeros(batch, 1);
        for r in 0..batch {
            let mut has = false;
            for q in 0..n_cohorts {
                if bit(r, q) {
                    has = true;
                } else {
                    offset[(r, q)] = -1e9;
                }
            }
            any[(r, 0)] = f32::from(has);
        }
        CohortMask { offset, any }
    }
}

impl Cem {
    /// Builds the module, registering parameters in `ps`.
    pub fn new(ps: &mut ParamStore, rng: &mut StdRng, cfg: &CohortNetConfig) -> Self {
        let repr_dim = cfg.cohort_repr_dim();
        let wq = Linear::new(ps, rng, "cem.wq", cfg.d_hidden, cfg.d_att);
        let wk = Linear::new(ps, rng, "cem.wk", repr_dim, cfg.d_att);
        let wv = Linear::new(ps, rng, "cem.wv", repr_dim, cfg.d_value);
        // Eq. 14 has no bias on the cohort term: the intercept is `b^p` on
        // the individual path alone. A bias here would absorb part of the
        // class-prior logit during joint training, shifting every patient's
        // calibration by a constant — including patients with no relevant
        // cohort at all — and breaking the Eq. 16 decomposition, which sums
        // weight-times-context only.
        let head = Linear::new_no_bias(
            ps,
            rng,
            "cem.head",
            cfg.n_features().max(1) * cfg.d_value,
            cfg.n_labels,
        );
        // Zero-init the calibration head (residual-branch style): the CEM
        // receives no gradient during Step-1 pre-training, so a random head
        // would enter joint training with an arbitrary constant offset on
        // every logit that a few exploitation epochs never fully unlearn.
        // Zeroed, the full model starts Step 4 exactly equal to the
        // pre-trained MFLM, and calibration grows only where gradients push
        // it — the head trains first, then W_Q/W_K/W_V follow.
        let w = ps.value_mut(head.weight());
        *w = Matrix::zeros(w.rows(), w.cols());
        Cem {
            wq,
            wk,
            wv,
            head,
            d_value: cfg.d_value,
        }
    }

    /// The calibration head (`w^c`) — its weight slices give the
    /// feature-level calibration decomposition of Eq. 16.
    pub fn head(&self) -> &Linear {
        &self.head
    }

    /// The `(W_Q, W_K, W_V)` projections of Eq. 11/13, exposed so the
    /// interpretation module can decompose calibration scores per cohort
    /// (Eq. 17) outside the tape.
    pub fn projections(&self) -> (&Linear, &Linear, &Linear) {
        (&self.wq, &self.wk, &self.wv)
    }

    /// Projects every feature's constant cohort representations `C_i`
    /// (Eq. 9) to keysᵀ and values (see [`CohortKv`]). On a tape the
    /// projections are recorded per batch, so gradients reach `W_K`/`W_V`;
    /// serving runs this once per compiled model.
    pub fn project_cohorts<E: Exec>(
        &self,
        t: &mut E,
        ps: &ParamStore,
        pool: &CohortPool,
    ) -> Vec<CohortKv<E::V>> {
        (0..pool.per_feature.len())
            .map(|i| {
                if pool.per_feature[i].is_empty() {
                    return None;
                }
                let c_i = t.constant(pool.cohort_matrix(i));
                let keys = self.wk.forward(t, ps, &c_i); // |C_i| x d_att
                let values = self.wv.forward(t, ps, &c_i); // |C_i| x d_v
                Some((t.transpose(&keys), values))
            })
            .collect()
    }

    /// Runs cohort exploitation for a batch.
    ///
    /// * `kv[i]` — feature `i`'s cohort keysᵀ/values from
    ///   [`Cem::project_cohorts`];
    /// * `h_final[i]` — the MFLM channel representation `h_i^T`
    ///   (`batch x d_h`);
    /// * `masks[i]` — feature `i`'s Eq. 10 relevance bits (`Some` exactly
    ///   where `kv[i]` is).
    pub fn forward<E: Exec>(
        &self,
        t: &mut E,
        ps: &ParamStore,
        kv: &[CohortKv<E::V>],
        h_final: &[E::V],
        masks: Vec<Option<CohortMask>>,
        batch: usize,
    ) -> CemTrace<E::V> {
        let nf = h_final.len();
        let mut contexts = Vec::with_capacity(nf);
        let mut attention = Vec::with_capacity(nf);
        for ((kv_i, mask), h_i) in kv.iter().zip(masks).zip(h_final) {
            let (Some((keys_t, values)), Some(mask)) = (kv_i, mask) else {
                contexts.push(t.constant(Matrix::zeros(batch, self.d_value)));
                attention.push(None);
                continue;
            };
            let q = self.wq.forward(t, ps, h_i); // batch x d_att
            let scores = t.matmul(&q, keys_t); // batch x |C_i|

            // Mask out irrelevant cohorts (b = 0) with a large negative
            // offset; rows with no relevant cohort at all are zeroed after.
            let mask_c = t.constant(mask.offset);
            let any_c = t.constant(mask.any);
            let masked = t.add(&scores, &mask_c);
            let beta = t.softmax_rows(&masked); // Eq. 12
            let ctx_raw = t.matmul(&beta, values); // Eq. 13
            let ctx = t.mul_col_broadcast(&ctx_raw, &any_c);
            contexts.push(ctx);
            attention.push(Some(beta));
        }
        let h_hat = t.concat_cols(&contexts.iter().collect::<Vec<_>>());
        let logits = self.head.forward(t, ps, &h_hat);
        CemTrace {
            logits,
            h_hat,
            attention,
            contexts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdm::mine_patterns;
    use cohortnet_tensor::Tape;
    use rand::SeedableRng;

    /// Runs the CEM on a tape with row-major `batch x |C_i|` bitmaps.
    fn forward_bits(
        cem: &Cem,
        tape: &mut Tape,
        ps: &ParamStore,
        pool: &CohortPool,
        h_final: &[Var],
        bits: &[Vec<bool>],
        batch: usize,
    ) -> CemTrace {
        let kv = cem.project_cohorts(tape, ps, pool);
        let masks = bits
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let nc = pool.per_feature[i].len();
                (nc > 0).then(|| CohortMask::from_fn(batch, nc, |r, q| b[r * nc + q]))
            })
            .collect();
        cem.forward(tape, ps, &kv, h_final, masks, batch)
    }

    fn tiny_pool(cfg: &CohortNetConfig) -> CohortPool {
        let masks = vec![vec![0, 1], vec![0, 1]];
        let states = vec![1u8, 1, 1, 1, 1, 1, 2, 2];
        let mined = mine_patterns(&states, 2, 2, 2, &masks);
        let h = Matrix::from_fn(2, 2 * cfg.d_hidden, |r, c| (r * 10 + c) as f32 * 0.01);
        let labels = vec![vec![1u8], vec![0u8]];
        CohortPool::build(mined, masks, &h, &labels, cfg)
    }

    fn tiny_cfg() -> CohortNetConfig {
        let mut cfg = CohortNetConfig::default_dims();
        cfg.d_hidden = 4;
        cfg.d_att = 4;
        cfg.d_value = 3;
        cfg.min_frequency = 1;
        cfg.min_patients = 1;
        cfg.bounds = vec![(0.0, 1.0); 2];
        cfg
    }

    #[test]
    fn forward_shapes_and_masking() {
        let cfg = tiny_cfg();
        let pool = tiny_pool(&cfg);
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let cem = Cem::new(&mut ps, &mut rng, &cfg);
        let mut tape = Tape::new();
        let h0 = tape.constant(Matrix::full(3, 4, 0.5));
        let h1 = tape.constant(Matrix::full(3, 4, -0.2));
        let nc = pool.per_feature[0].len();
        // Patient 0 matches cohort 0 only; patient 1 matches both; patient 2
        // matches none.
        let mut bits0 = vec![false; 3 * nc];
        bits0[0] = true;
        for q in 0..nc {
            bits0[nc + q] = true;
        }
        let bits1 = bits0.clone();
        let trace = forward_bits(&cem, &mut tape, &ps, &pool, &[h0, h1], &[bits0, bits1], 3);
        assert_eq!(tape.value(trace.logits).shape(), (3, 1));
        assert_eq!(tape.value(trace.h_hat).shape(), (3, 2 * cfg.d_value));
        // Patient 0's attention concentrates fully on cohort 0.
        let beta = tape.value(trace.attention[0].unwrap());
        assert!((beta[(0, 0)] - 1.0).abs() < 1e-4);
        // Patient 2 (no cohorts) has a zero context.
        let ctx = tape.value(trace.contexts[0]);
        assert!(ctx.row(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn calibration_is_zero_at_init() {
        // Residual-branch design: before any joint training the CEM must not
        // perturb the MFLM prediction (the head is zero-initialised).
        let cfg = tiny_cfg();
        let pool = tiny_pool(&cfg);
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let cem = Cem::new(&mut ps, &mut rng, &cfg);
        let mut tape = Tape::new();
        let h0 = tape.constant(Matrix::full(2, 4, 0.9));
        let h1 = tape.constant(Matrix::full(2, 4, -0.4));
        let nc = pool.per_feature[0].len();
        let bits = vec![true; 2 * nc];
        let trace = forward_bits(
            &cem,
            &mut tape,
            &ps,
            &pool,
            &[h0, h1],
            &[bits.clone(), bits],
            2,
        );
        assert!(tape
            .value(trace.logits)
            .as_slice()
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn gradients_flow_into_projections() {
        let cfg = tiny_cfg();
        let pool = tiny_pool(&cfg);
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cem = Cem::new(&mut ps, &mut rng, &cfg);
        // The head starts at zero (no gradient reaches the projections until
        // it moves); give it a nonzero value to exercise the full backward
        // path in one step.
        let w = ps.value_mut(cem.head().weight());
        *w = Matrix::full(w.rows(), w.cols(), 0.05);
        let mut tape = Tape::new();
        let h0 = tape.constant(Matrix::full(2, 4, 0.3));
        let h1 = tape.constant(Matrix::full(2, 4, 0.1));
        let nc = pool.per_feature[0].len();
        let bits = vec![true; 2 * nc];
        let trace = forward_bits(
            &cem,
            &mut tape,
            &ps,
            &pool,
            &[h0, h1],
            &[bits.clone(), bits],
            2,
        );
        let loss = tape.bce_with_logits(trace.logits, Matrix::from_vec(2, 1, vec![1.0, 0.0]));
        tape.backward(loss);
        tape.flush_grads(&mut ps);
        for name in ["cem.wq.w", "cem.wk.w", "cem.wv.w", "cem.head.w"] {
            let g: f32 = ps
                .entries()
                .filter(|e| e.name == name)
                .map(|e| e.grad.norm())
                .sum();
            assert!(g > 0.0, "no gradient in {name}");
        }
    }

    #[test]
    fn empty_pool_feature_yields_zero_context() {
        let cfg = tiny_cfg();
        let mut pool = tiny_pool(&cfg);
        pool.per_feature[1].clear();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let cem = Cem::new(&mut ps, &mut rng, &cfg);
        let mut tape = Tape::new();
        let h0 = tape.constant(Matrix::full(1, 4, 0.5));
        let h1 = tape.constant(Matrix::full(1, 4, 0.5));
        let nc = pool.per_feature[0].len();
        let trace = forward_bits(
            &cem,
            &mut tape,
            &ps,
            &pool,
            &[h0, h1],
            &[vec![true; nc], vec![]],
            1,
        );
        assert!(trace.attention[1].is_none());
        assert!(tape
            .value(trace.contexts[1])
            .as_slice()
            .iter()
            .all(|&v| v == 0.0));
    }
}
