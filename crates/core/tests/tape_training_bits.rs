//! Training on the fused tape equals training on the reference tape, bit
//! for bit.
//!
//! The tape records each grouped op (`biel_blocks`, `linear_blocks`,
//! `gru_blocks`, `pair_attention`, `attention_sum`) as one stacked node
//! whose backward replays the rules of the op's primitive reference. The
//! `exec` unit tests check each op alone; this test checks the whole
//! training loop. It trains a small CohortNet twice from one seed — a few
//! Adam steps of MFLM pre-training, cohort discovery, then a few steps with
//! cohorts — once on a plain `Tape` and once on `ReferenceTape`, a tape that
//! records every grouped op as its reference composition. Every trained
//! parameter must come out bit-equal.

use cohortnet::config::CohortNetConfig;
use cohortnet::model::CohortNetModel;
use cohortnet_ehr::{profiles, standardize::Standardizer, synth::generate};
use cohortnet_models::data::{make_batch, prepare, Prepared};
use cohortnet_tensor::optim::Adam;
use cohortnet_tensor::{Exec, Matrix, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Borrow;

/// A tape whose grouped ops are the trait's default bodies — the primitive
/// reference compositions, recorded node by node.
struct ReferenceTape(Tape);

impl Exec for ReferenceTape {
    type V = Var;
    type G = Vec<Var>;

    fn value<'s>(&'s self, v: &'s Var) -> &'s Matrix {
        self.0.value(*v)
    }
    fn constant(&mut self, value: Matrix) -> Var {
        self.0.constant(value)
    }
    fn param(&mut self, ps: &ParamStore, id: ParamId) -> Var {
        self.0.param(ps, id)
    }
    fn matmul(&mut self, a: impl Borrow<Var>, b: impl Borrow<Var>) -> Var {
        self.0.matmul(a, b)
    }
    fn add(&mut self, a: impl Borrow<Var>, b: impl Borrow<Var>) -> Var {
        self.0.add(a, b)
    }
    fn add_row_broadcast(&mut self, a: impl Borrow<Var>, bias: impl Borrow<Var>) -> Var {
        self.0.add_row_broadcast(a, bias)
    }
    fn sub(&mut self, a: impl Borrow<Var>, b: impl Borrow<Var>) -> Var {
        self.0.sub(a, b)
    }
    fn mul(&mut self, a: impl Borrow<Var>, b: impl Borrow<Var>) -> Var {
        self.0.mul(a, b)
    }
    fn mul_col_broadcast(&mut self, a: impl Borrow<Var>, w: impl Borrow<Var>) -> Var {
        self.0.mul_col_broadcast(a, w)
    }
    fn scale(&mut self, a: impl Borrow<Var>, s: f32) -> Var {
        self.0.scale(a, s)
    }
    fn transpose(&mut self, a: impl Borrow<Var>) -> Var {
        self.0.transpose(a)
    }
    fn sigmoid(&mut self, a: impl Borrow<Var>) -> Var {
        self.0.sigmoid(a)
    }
    fn tanh(&mut self, a: impl Borrow<Var>) -> Var {
        self.0.tanh(a)
    }
    fn gate_sigmoid(
        &mut self,
        a: impl Borrow<Var>,
        b: impl Borrow<Var>,
        bias: impl Borrow<Var>,
    ) -> Var {
        self.0.gate_sigmoid(a, b, bias)
    }
    fn gate_tanh(
        &mut self,
        a: impl Borrow<Var>,
        b: impl Borrow<Var>,
        bias: impl Borrow<Var>,
    ) -> Var {
        self.0.gate_tanh(a, b, bias)
    }
    fn gru_blend(
        &mut self,
        z: impl Borrow<Var>,
        h: impl Borrow<Var>,
        cand: impl Borrow<Var>,
    ) -> Var {
        self.0.gru_blend(z, h, cand)
    }
    fn softmax_rows(&mut self, a: impl Borrow<Var>) -> Var {
        self.0.softmax_rows(a)
    }
    fn sum_cols(&mut self, a: impl Borrow<Var>) -> Var {
        self.0.sum_cols(a)
    }
    fn concat_cols(&mut self, parts: &[impl Borrow<Var>]) -> Var {
        self.0.concat_cols(parts)
    }
    fn slice_cols(&mut self, a: impl Borrow<Var>, start: usize, end: usize) -> Var {
        self.0.slice_cols(a, start, end)
    }
    fn group(&mut self, parts: Vec<Var>) -> Vec<Var> {
        parts
    }
    fn ungroup(&mut self, g: &Vec<Var>) -> Vec<Var> {
        g.clone()
    }
    fn block_row<'s>(&'s self, g: &'s Vec<Var>, f: usize, r: usize) -> &'s [f32] {
        self.0.value(g[f]).row(r)
    }
}

fn data() -> (Prepared, CohortNetConfig) {
    let mut c = profiles::mimic3_like(0.05);
    c.n_patients = 40;
    c.time_steps = 4;
    let mut ds = generate(&c);
    let scaler = Standardizer::fit(&ds);
    scaler.apply(&mut ds);
    let mut cfg = CohortNetConfig::for_dataset(&ds, &scaler);
    cfg.k_states = 4;
    cfg.min_frequency = 3;
    cfg.min_patients = 2;
    cfg.state_fit_samples = 800;
    cfg.verbose = false;
    (prepare(&ds), cfg)
}

/// Trains a fixed-seed model with `exec` (whose tape `tape` reaches):
/// Adam steps over batches of several sizes, discovery, then more steps
/// with cohorts active. Returns the parameters and the discovered cohort
/// count.
fn train<E: Exec<V = Var>>(mut exec: E, tape: fn(&mut E) -> &mut Tape) -> (ParamStore, usize) {
    let (prep, cfg) = data();
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = CohortNetModel::new(&mut ps, &mut rng, &cfg);
    let mut opt = Adam::new(0.01);
    let mut step = |model: &CohortNetModel, ps: &mut ParamStore, rows: &[usize]| {
        tape(&mut exec).reset();
        let batch = make_batch(&prep, rows);
        let logits = model.forward_trace(&mut exec, ps, &batch, false).logits;
        let t = tape(&mut exec);
        let loss = t.bce_with_logits(logits, batch.labels.clone());
        t.backward(loss);
        t.flush_grads(ps);
        opt.step(ps);
    };
    let batches: [Vec<usize>; 3] = [(0..16).collect(), vec![21], (24..31).collect()];
    for rows in &batches {
        step(&model, &mut ps, rows);
    }
    let cohorts = model
        .run_discovery(&ps, &prep, &mut rng)
        .pool
        .total_cohorts();
    for rows in &batches {
        step(&model, &mut ps, rows);
    }
    (ps, cohorts)
}

#[test]
fn fused_tape_trains_bit_identically_to_the_reference_tape() {
    let (fused, cohorts) = train(Tape::new(), |t| t);
    let (reference, ref_cohorts) = train(ReferenceTape(Tape::new()), |t| &mut t.0);
    assert!(
        cohorts > 0,
        "discovery found no cohorts: the test would not reach the CEM"
    );
    assert_eq!(cohorts, ref_cohorts);
    assert_eq!(fused.len(), reference.len());
    for (got, want) in fused.entries().zip(reference.entries()) {
        assert_eq!(got.value.shape(), want.value.shape(), "{}", got.name);
        for (i, (g, w)) in got
            .value
            .as_slice()
            .iter()
            .zip(want.value.as_slice())
            .enumerate()
        {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{} element {i}: {g} vs {w}",
                got.name
            );
        }
    }
}
