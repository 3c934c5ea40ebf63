//! Serving: the model's one forward definition on the eager executor.
//!
//! [`Inferencer::compile`] takes its own copy of a trained
//! [`CohortNetModel`] and its [`ParamStore`] and precomputes what is constant
//! per model: the CEM cohort keysᵀ/values (the generic
//! [`crate::cem::Cem::project_cohorts`], run once instead of per batch) and
//! the packed [`CohortIndex`] for Eq. 10 matching. [`Inferencer::score`]
//! then runs [`CohortNetModel::forward_with`] — the same definition training
//! records on a tape — on [`Eager`], which computes values without a graph
//! and borrows weights from the store. The int8 trunk is not a separate
//! forward or a separate type: the same `Inferencer` compiled with a
//! [`QuantWeights`] lookup ([`crate::snapshot::LoadedModel::scorer`],
//! [`crate::quant::QuantInferencer`]) has the executor swap `x · W` to the
//! int8 kernel for every trunk weight found there.
//!
//! Two contracts, both test-enforced:
//!
//! * **bit-identity** — f32 `score` logits equal
//!   [`CohortNetModel::forward_trace`] logits to the bit: both executors
//!   compute every op with the same kernel, and the bitmaps from the packed
//!   index are exactly the pool's;
//! * **row independence** — every op maps batch row `r` to output row `r`
//!   without reading other rows, so a patient's scores do not depend on which
//!   other patients share the minibatch (or on how many worker threads the
//!   GEMM uses). This is what lets the serving engine coalesce concurrent
//!   requests into one batch without changing any response.

use crate::cem::{CohortKv, CohortMask};
use crate::index::{CohortIndex, IndexCache};
use crate::model::CohortNetModel;
use crate::quant::QuantTable;
use cohortnet_models::data::Batch;
use cohortnet_parallel::par_map;
use cohortnet_tensor::quant::QuantWeights;
use cohortnet_tensor::{Eager, Exec, Matrix, ParamStore, Val};

/// One scored minibatch.
#[derive(Debug, Clone)]
pub struct ScoreOutput {
    /// Combined logits of Eq. 14 (`batch x n_labels`).
    pub logits: Matrix,
    /// Individual-path logits `w^p·h̃ + b^p` alone.
    pub base_logits: Matrix,
    /// Cohort-calibration logits `w^c·ĥ`, `None` without discovery.
    pub cem_logits: Option<Matrix>,
    /// `σ(logits)` — the predicted probabilities.
    pub probs: Matrix,
}

/// One patient scored with its intermediate cohort artefacts exposed: the
/// state grid and the matched-cohort bitmaps that [`Inferencer::score`]
/// computes internally. The streaming session layer scores through this so
/// it can carry the artefacts across re-scores (incremental index probing)
/// and so the differential tests can compare them against the batch path.
#[derive(Debug, Clone)]
pub struct DetailedScore {
    /// The scores, bit-identical to `score_requests(&[req])`.
    pub output: ScoreOutput,
    /// The `(T x F)` feature-state grid (`None` without discovery).
    pub state_grid: Option<Vec<u8>>,
    /// Packed Eq. 10 bitmaps, one per anchor feature (`None` without
    /// discovery).
    pub bitmaps: Option<Vec<Vec<u64>>>,
}

/// A dense time-series scoring request: one patient's raw (standardized)
/// grid plus the presence mask, in the same layout as
/// [`cohortnet_models::data::PreparedPatient`].
#[derive(Debug, Clone)]
pub struct ScoreRequest {
    /// Row-major `(T x F)` standardized feature values.
    pub x: Vec<f32>,
    /// Per-feature presence flags (`F` entries, `1.0` = observed).
    pub mask: Vec<f32>,
}

/// A minibatch of scoring inputs, without labels.
fn unlabelled(steps: Vec<Matrix>, mask: Matrix) -> Batch {
    Batch {
        size: mask.rows(),
        labels: Matrix::zeros(mask.rows(), 0),
        labels_u8: Vec::new(),
        steps,
        mask,
    }
}

/// A compiled, tape-free CohortNet ready for online scoring.
#[derive(Debug, Clone)]
pub struct Inferencer {
    model: CohortNetModel,
    ps: ParamStore,
    time_steps: usize,
    /// Per-feature cohort keysᵀ/values, projected once at compile.
    kv: Vec<CohortKv<Val>>,
    /// The packed Eq. 10 index (`None` without discovery).
    index: Option<CohortIndex>,
    /// Int8 stand-ins for the trunk weights (`None` on the f32 path).
    quant: Option<QuantWeights>,
}

impl Inferencer {
    /// Copies `model` and its weights and precomputes the serving-time
    /// constants (cohort keys/values, packed cohort index).
    ///
    /// `time_steps` is the grid length the model was trained on — scoring
    /// requests must carry exactly `time_steps * n_features` values (the
    /// config does not record it; the data pipeline does).
    pub fn compile(model: &CohortNetModel, ps: &ParamStore, time_steps: usize) -> Self {
        Self::compile_inner(model, ps, time_steps, None)
    }

    /// [`Inferencer::compile`] with the MFLM trunk weights replaced by their
    /// int8 quantizations from `table` (built by [`crate::quant`] with the
    /// same stable tensor names). The BiEL embedding, all biases, and the
    /// cohort-exploitation path stay f32.
    pub(crate) fn compile_with_table(
        model: &CohortNetModel,
        ps: &ParamStore,
        time_steps: usize,
        table: &QuantTable,
    ) -> Self {
        Self::compile_inner(model, ps, time_steps, Some(table.weights_for(model)))
    }

    fn compile_inner(
        model: &CohortNetModel,
        ps: &ParamStore,
        time_steps: usize,
        quant: Option<QuantWeights>,
    ) -> Self {
        let (kv, index) = match &model.discovery {
            Some(d) => (
                model.cem.project_cohorts(&mut Eager::new(ps), ps, &d.pool),
                Some(CohortIndex::compile(&d.pool)),
            ),
            None => (Vec::new(), None),
        };
        Inferencer {
            model: model.clone(),
            ps: ps.clone(),
            time_steps,
            kv,
            index,
            quant,
        }
    }

    /// Whether the MFLM trunk runs the int8 quantized kernels (`true` only
    /// for inferencers compiled with a quant table, as
    /// [`crate::snapshot::LoadedModel::scorer`] does for `quant = true`).
    pub fn quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// Number of medical features the model was trained on.
    pub fn n_features(&self) -> usize {
        self.model.mflm.n_features()
    }

    /// Number of time steps per patient grid.
    pub fn time_steps(&self) -> usize {
        self.time_steps
    }

    /// Number of prediction labels.
    pub fn n_labels(&self) -> usize {
        self.model.cfg.n_labels
    }

    /// Whether the cohort-calibration path is active.
    pub fn has_cohorts(&self) -> bool {
        self.index.is_some()
    }

    /// Scores one minibatch: `steps` is one `(batch x F)` matrix per time
    /// step, `mask` the `(batch x F)` presence mask.
    ///
    /// Bit-identical to the tape forward over the same rows, regardless of
    /// batch composition or GEMM thread count.
    pub fn score(&self, steps: &[Matrix], mask: &Matrix) -> ScoreOutput {
        let nf = self.n_features();
        assert_eq!(mask.cols(), nf, "mask width != n_features");
        for step in steps {
            assert_eq!(step.cols(), nf, "step width != n_features");
            assert_eq!(step.rows(), mask.rows(), "step batch size mismatch");
        }
        self.run(&unlabelled(steps.to_vec(), mask.clone()), None)
            .output
    }

    /// Runs the model's forward over `batch` on the eager executor. Eq. 10
    /// bitmaps come from the packed index, or — for a single-row batch with
    /// a `cache` — from the cache's incremental probe.
    fn run(&self, batch: &Batch, cache: Option<&mut IndexCache>) -> DetailedScore {
        let mut e = match &self.quant {
            Some(q) => Eager::quantized(&self.ps, q),
            None => Eager::new(&self.ps),
        };
        let (t_steps, nf) = (batch.steps.len(), self.n_features());
        let cached = cache.is_some();
        let mut probed = None;
        let masks = |grid: &[u8]| {
            let index = self.index.as_ref().expect("index compiled with discovery");
            // `rows[r][i]`: feature `i`'s packed bitmap for batch row `r`.
            let rows: Vec<Vec<Vec<u64>>> = match cache {
                Some(cache) => {
                    debug_assert_eq!(batch.size, 1, "cached bitmaps are per-patient");
                    vec![cache.probe(index, grid, t_steps, nf).to_vec()]
                }
                None => grid
                    .chunks(t_steps * nf)
                    .map(|row| {
                        (0..nf)
                            .map(|i| match index.n_cohorts(i) {
                                0 => Vec::new(),
                                _ => index.bitmap_words(i, row, t_steps, nf),
                            })
                            .collect()
                    })
                    .collect(),
            };
            let masks = (0..nf)
                .map(|i| {
                    let nc = index.n_cohorts(i);
                    (nc > 0).then(|| {
                        CohortMask::from_fn(batch.size, nc, |r, q| {
                            rows[r][i][q >> 6] >> (q & 63) & 1 == 1
                        })
                    })
                })
                .collect();
            if cached {
                probed = rows.into_iter().next();
            }
            masks
        };
        let trace = self
            .model
            .forward_with(&mut e, &self.ps, batch, false, &self.kv, masks);
        let probs = e.sigmoid(&trace.logits);
        DetailedScore {
            output: ScoreOutput {
                logits: e.into_matrix(trace.logits),
                base_logits: e.into_matrix(trace.mflm.logits),
                cem_logits: trace.cem.map(|c| e.into_matrix(c.logits)),
                probs: e.into_matrix(probs),
            },
            state_grid: trace.states,
            bitmaps: probed,
        }
    }

    /// Assembles the minibatch of `reqs`: output row `r` is request `r`.
    fn batch_of(&self, reqs: &[ScoreRequest]) -> Batch {
        let (t_steps, nf) = (self.time_steps, self.n_features());
        for (r, req) in reqs.iter().enumerate() {
            assert_eq!(
                req.x.len(),
                t_steps * nf,
                "request {r}: grid must be T*F = {} values",
                t_steps * nf
            );
            assert_eq!(
                req.mask.len(),
                nf,
                "request {r}: mask must have F = {} values",
                nf
            );
        }
        let steps = (0..t_steps)
            .map(|t| {
                let mut m = Matrix::zeros(reqs.len(), nf);
                for (r, req) in reqs.iter().enumerate() {
                    m.row_mut(r).copy_from_slice(&req.x[t * nf..(t + 1) * nf]);
                }
                m
            })
            .collect();
        let mut mask = Matrix::zeros(reqs.len(), nf);
        for (r, req) in reqs.iter().enumerate() {
            mask.row_mut(r).copy_from_slice(&req.mask);
        }
        unlabelled(steps, mask)
    }

    /// Scores a slice of per-patient requests, assembling the minibatch
    /// internally. Request order is preserved: output row `r` is request `r`.
    pub fn score_requests(&self, reqs: &[ScoreRequest]) -> ScoreOutput {
        // Chaos injection sites (inert single atomic load unless a plan is
        // installed): `infer.worker` simulates a worker-thread panic
        // mid-batch — via `score_requests_parallel` this runs *inside* a
        // `par_map` worker — and `infer.latency` stalls the forward pass
        // without touching any computed value.
        cohortnet_chaos::panic_if_fires("infer.worker");
        cohortnet_chaos::delay_ms_if_fires("infer.latency");
        self.run(&self.batch_of(reqs), None).output
    }

    /// Scores one patient, returning the intermediate cohort artefacts and
    /// routing the Eq. 10 index probes through `cache` — the streaming
    /// re-score path. Anchors whose mask columns kept their state
    /// assignments since the previous probe on the same cache reuse the
    /// stored bitmap words instead of re-walking the grid; debug builds
    /// recompute every reused bitmap with the full scan and assert equality.
    ///
    /// The scores are bit-identical to `score_requests(&[req])`: the forward
    /// is the same code path, and cached bitmaps are exact integers.
    pub fn score_one_with_cache(
        &self,
        req: &ScoreRequest,
        cache: &mut IndexCache,
    ) -> DetailedScore {
        // Same chaos sites as `score_requests`: the streaming session layer
        // scores directly on its worker thread, and fault plans targeting
        // the forward pass should reach both entry points.
        cohortnet_chaos::panic_if_fires("infer.worker");
        cohortnet_chaos::delay_ms_if_fires("infer.latency");
        self.run(&self.batch_of(std::slice::from_ref(req)), Some(cache))
    }

    /// [`Inferencer::score_requests`] sharded over `n_threads` workers via
    /// [`cohortnet_parallel`]. Row independence makes the result bit-equal
    /// to the single-threaded call; shards are reassembled in request order.
    pub fn score_requests_parallel(&self, reqs: &[ScoreRequest], n_threads: usize) -> ScoreOutput {
        if reqs.len() <= 1 || n_threads == 1 {
            return self.score_requests(reqs);
        }
        let shard = reqs.len().div_ceil(n_threads.max(1));
        let chunks: Vec<&[ScoreRequest]> = reqs.chunks(shard).collect();
        let outs = par_map(n_threads, &chunks, |_, chunk| self.score_requests(chunk));
        let logits: Vec<&Matrix> = outs.iter().map(|o| &o.logits).collect();
        let base: Vec<&Matrix> = outs.iter().map(|o| &o.base_logits).collect();
        let probs: Vec<&Matrix> = outs.iter().map(|o| &o.probs).collect();
        let cem = if outs.iter().all(|o| o.cem_logits.is_some()) {
            let parts: Vec<&Matrix> = outs
                .iter()
                .map(|o| o.cem_logits.as_ref().expect("checked above"))
                .collect();
            Some(Matrix::concat_rows(&parts))
        } else {
            None
        };
        ScoreOutput {
            logits: Matrix::concat_rows(&logits),
            base_logits: Matrix::concat_rows(&base),
            cem_logits: cem,
            probs: Matrix::concat_rows(&probs),
        }
    }
}
