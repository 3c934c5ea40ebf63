//! Datasets and models the workloads run on, training step by step, and
//! in-process timings of single layers.

use std::time::Instant;

use cohortnet::config::CohortNetConfig;
use cohortnet::discover::DiscoveryTiming;
use cohortnet::index::{CohortIndex, IndexCache};
use cohortnet::infer::{Inferencer, ScoreOutput, ScoreRequest};
use cohortnet::model::CohortNetModel;
use cohortnet::quant::QuantInferencer;
use cohortnet::stream::{StreamConfig, StreamEvent, StreamSession, DEFAULT_HORIZON_HOURS};
use cohortnet::train::TrainedCohortNet;
pub use cohortnet_bench::openloop::score_body;
use cohortnet_ehr::events::{generate_event_streams, AdmissionStream, EventStreamConfig};
use cohortnet_ehr::standardize::Standardizer;
use cohortnet_ehr::synth::generate;
use cohortnet_ehr::{profiles, split::stratified_split};
use cohortnet_models::data::{prepare, Prepared};
use cohortnet_models::trainer::{train, TrainConfig};
use cohortnet_serve::engine::RowScore;
use cohortnet_serve::json;
use cohortnet_serve::server::score_rows_response;
use cohortnet_tensor::{Matrix, ParamStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::{self_time_by_name, SpanId, Tracer};
use crate::Report;

/// Seed of the one serving model the three serving workloads share.
const SERVING_SEED: u64 = 1003;

/// Gradient clip `train_cohortnet` applies to both training steps.
const CLIP: f32 = 5.0;

/// Each in-process layer timing runs this long.
const PROBE_SECS: f64 = 0.4;

/// A standardised, prepared dataset and the model config for it.
pub struct Data {
    /// Training split.
    pub train: Prepared,
    /// Test split.
    pub test: Prepared,
    /// Standardiser fitted on the training split.
    pub scaler: Standardizer,
    /// Model configuration for this dataset.
    pub cfg: CohortNetConfig,
}

/// The serving model's data: mimic3-like, 300 patients, 20 features,
/// T = 12, a fixed seed, 60% (stratified) for training and 40% for test,
/// standardised with the training split. Its config caps cohorts at a few
/// hundred and trains one epoch per step, at a learning rate and batch
/// size that leave its test AUROC clearly above chance (about 0.61), so a
/// set-up stays near two seconds.
pub fn serving_data() -> Data {
    let mut synth = profiles::mimic3_like(1.0);
    synth.n_patients = 300;
    synth.time_steps = 12;
    synth.seed = SERVING_SEED;
    let ds = generate(&synth);
    let split = stratified_split(&ds, 0.6, 0.0, 7);
    let mut train_ds = ds.subset(&split.train);
    let mut test_ds = ds.subset(&split.test);
    let scaler = Standardizer::fit(&train_ds);
    scaler.apply(&mut train_ds);
    scaler.apply(&mut test_ds);
    let mut cfg = CohortNetConfig::for_dataset(&train_ds, &scaler);
    cfg.max_cohorts_per_feature = 24;
    cfg.min_frequency = 12;
    cfg.min_patients = 4;
    cfg.state_fit_samples = 4000;
    cfg.epochs_pretrain = 1;
    cfg.epochs_exploit = 1;
    cfg.batch_size = 32;
    cfg.lr = 0.005;
    Data {
        train: prepare(&train_ds),
        test: prepare(&test_ds),
        scaler,
        cfg,
    }
}

/// Scoring requests for every patient of `prep`.
pub fn requests(prep: &Prepared) -> Vec<ScoreRequest> {
    prep.patients
        .iter()
        .map(|p| ScoreRequest {
            x: p.x.clone(),
            mask: p.mask.clone(),
        })
        .collect()
}

/// First-label outcome of every patient of `prep`.
fn labels(prep: &Prepared) -> Vec<u8> {
    prep.patients.iter().map(|p| p.labels_u8[0]).collect()
}

/// The bits of every test-split probability `inf` gives: two set-ups of
/// the fixed-seed model must agree on all of them.
pub fn test_score_bits(inf: &Inferencer, test: &Prepared) -> Vec<u32> {
    let out = inf.score_requests(&requests(test));
    (0..out.probs.rows())
        .flat_map(|r| {
            out.probs
                .row(r)
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Test-split AUROC of `inf`.
pub fn test_auroc(inf: &Inferencer, test: &Prepared, threads: usize) -> f64 {
    let out = inf.score_requests_parallel(&requests(test), threads);
    let scores: Vec<f32> = (0..out.probs.rows()).map(|r| out.probs[(r, 0)]).collect();
    cohortnet_metrics::binary::roc_auc(&scores, &labels(test))
}

/// The exact `/score` response body for row `r` of a scored output.
pub fn rendered(out: &cohortnet::infer::ScoreOutput, r: usize) -> String {
    score_rows_response(&[Ok(RowScore::from_output(out, r))]).1
}

/// The one-row prediction object inside a rendered `/score` body.
pub fn prediction_json(score_body: &str) -> &str {
    score_body
        .strip_prefix("{\"predictions\":[")
        .and_then(|s| s.strip_suffix("]}"))
        .expect("a one-row /score body")
}

/// A model trained step by step, with what each step did.
struct Steps {
    /// The trained model.
    pub model: CohortNetModel,
    /// Its parameters.
    pub params: ParamStore,
    /// Step 1 mini-batches run.
    pub pretrain_batches: usize,
    /// Step 4 mini-batches run.
    pub exploit_batches: usize,
    /// The program's own timing of steps 2 and 3.
    pub discovery: DiscoveryTiming,
}

/// Trains exactly as `train_cohortnet` does, one public call per step,
/// with a span under `parent` around each call.
fn train_by_steps(
    prep: &Prepared,
    cfg: &CohortNetConfig,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Steps {
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = CohortNetModel::new(&mut ps, &mut rng, cfg);
    let tc1 = TrainConfig {
        epochs: cfg.epochs_pretrain,
        batch_size: cfg.batch_size,
        lr: cfg.lr,
        clip: CLIP,
        seed: cfg.seed,
        verbose: false,
        n_threads: cfg.n_threads,
    };
    let batches_per_epoch = prep.patients.len().div_ceil(cfg.batch_size);

    let sp = tracer.begin("mflm.pretrain", Some(parent), 0);
    let step1 = train(&mut model, &mut ps, prep, &tc1);
    tracer.end(sp);

    let sp = tracer.begin("cdm.discover", Some(parent), 0);
    let discovery = model.run_discovery(&ps, prep, &mut rng).timing.clone();
    tracer.end(sp);

    let tc4 = TrainConfig {
        epochs: cfg.epochs_exploit,
        seed: cfg.seed + 1,
        ..tc1
    };
    let sp = tracer.begin("cem.exploit", Some(parent), 0);
    let step4 = train(&mut model, &mut ps, prep, &tc4);
    tracer.end(sp);

    Steps {
        model,
        params: ps,
        pretrain_batches: step1.epoch_losses.len() * batches_per_epoch,
        exploit_batches: step4.epoch_losses.len() * batches_per_epoch,
        discovery,
    }
}

/// Whether row `ar` of `a` and row `br` of `b` hold the same probability
/// bits.
fn same_bits(a: &ScoreOutput, ar: usize, b: &ScoreOutput, br: usize) -> bool {
    a.probs
        .row(ar)
        .iter()
        .zip(b.probs.row(br))
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Trains `data`'s model again step by step with spans, checks it against
/// the untraced `trained` (same cohort count, bit-identical test scores),
/// and reports the training layers.
pub fn training_layers(
    data: &Data,
    trained: &TrainedCohortNet,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let root = tracer.begin("train", None, 0);
    let steps = train_by_steps(&data.train, &data.cfg, tracer, root);
    tracer.end(root);

    let t_steps = data.train.time_steps;
    let test = requests(&data.test);
    let a = Inferencer::compile(&trained.model, &trained.params, t_steps).score_requests(&test);
    let b = Inferencer::compile(&steps.model, &steps.params, t_steps).score_requests(&test);
    let same_scores = (0..test.len()).all(|r| same_bits(&a, r, &b, r));
    let (ca, cb) = (cohorts(&trained.model), cohorts(&steps.model));
    report.tally.note(same_scores && ca == cb);
    if !same_scores || ca != cb {
        report.problem(format!(
            "step-by-step training differs from train_cohortnet: cohorts {cb} vs {ca}, scores equal: {same_scores}"
        ));
    }
    for (name, batches) in [
        ("mflm.pretrain_batches", steps.pretrain_batches),
        ("cem.exploit_batches", steps.exploit_batches),
    ] {
        report.tally.note(batches > 0);
        if batches == 0 {
            report.problem(format!("{name} is 0: the step was not measured"));
        }
        report.metric(name, batches as f64);
    }

    let by_name = self_time_by_name(tracer.spans());
    let mean_s = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |&(ns, n)| ns as f64 / n.max(1) as f64 / 1e9)
    };
    let t = &steps.discovery;
    report.metric("ehr.prepare_s", mean_s("ehr.prepare"));
    report.metric("mflm.pretrain_s", mean_s("mflm.pretrain"));
    report.metric("cdm.discover_s", mean_s("cdm.discover"));
    report.metric("cdm.collect_s", t.collect_sec);
    report.metric("cdm.fit_s", t.fit_sec);
    report.metric("cdm.assign_s", t.assign_sec);
    report.metric("cdm.mine_s", t.mine_sec);
    report.metric("crlm.represent_s", t.represent_sec);
    report.metric("crlm.cohorts", cb as f64);
    report.metric("cem.exploit_s", mean_s("cem.exploit"));
}

/// Total cohorts of a trained model.
pub fn cohorts(model: &CohortNetModel) -> usize {
    model
        .discovery
        .as_ref()
        .map_or(0, |d| d.pool.total_cohorts())
}

/// Calls `f` for [`PROBE_SECS`] (at least three times), one span per
/// call; returns the mean self time per call in seconds.
fn probe(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let (mut calls, mut busy) = (0u32, 0.0f64);
    while calls < 3 || start.elapsed().as_secs_f64() < PROBE_SECS {
        let sp = tracer.begin(name, None, 0);
        let t0 = Instant::now();
        f();
        busy += t0.elapsed().as_secs_f64();
        tracer.end(sp);
        calls += 1;
    }
    busy / f64::from(calls)
}

/// Event feeds for `n` admissions: 20 features over 72 hours, so the
/// 48-hour window slides and late events go stale, with disorder and
/// duplicates.
pub fn event_feeds(n_features: usize, n: usize, seed: u64) -> Vec<AdmissionStream> {
    generate_event_streams(&EventStreamConfig {
        n_admissions: n,
        n_features,
        horizon_hours: 72.0,
        events_per_feature: 6,
        missing_rate: 0.15,
        disorder_rate: 0.2,
        duplicate_rate: 0.05,
        seed,
    })
}

/// The stream config every served session uses.
pub fn stream_config(inf: &Inferencer) -> StreamConfig {
    StreamConfig::for_inferencer(inf, DEFAULT_HORIZON_HOURS)
}

/// Converts a generated event to the wire event.
pub fn stream_event(e: &cohortnet_ehr::events::RawEvent) -> StreamEvent {
    StreamEvent {
        feature: e.feature,
        ts: e.ts,
        value: e.value,
    }
}

/// Events per `/ingest` request.
pub const EVENTS_PER_REQ: usize = 3;

/// Every `SCORE_EVERY`th request of a session asks for an inline score.
/// One in four put so few scored requests in a run that p99 needed a rate
/// near a quarter of capacity, where it spread by 0.4 between seeds.
pub const SCORE_EVERY: usize = 2;

/// In-process timings of the layers under one model, each around calls
/// to the layer's public functions. Returns `(metric, value)` pairs.
pub fn layer_probes(
    inf: &Inferencer,
    quant: &QuantInferencer,
    model: &CohortNetModel,
    scaler: &Standardizer,
    reqs: &[ScoreRequest],
    seed: u64,
    tracer: &mut Tracer,
) -> Vec<(&'static str, f64)> {
    let threads = crate::host::cpus();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut next = || {
        i = (i + 1) % reqs.len();
        &reqs[i]
    };

    let b64: Vec<&[ScoreRequest]> = reqs.chunks(64).filter(|c| c.len() == 64).collect();
    assert!(!b64.is_empty(), "the probe needs 64 patients");
    let mut k = 0usize;
    let per_batch = probe(tracer, "infer.score_b64", || {
        k = (k + 1) % b64.len();
        std::hint::black_box(inf.score_requests_parallel(b64[k], threads));
    });
    out.push(("infer.b64_us_per_patient", per_batch * 1e6 / 64.0));
    out.push((
        "infer.b1_ms",
        probe(tracer, "infer.score_b1", || {
            std::hint::black_box(inf.score_requests(std::slice::from_ref(next())));
        }) * 1e3,
    ));
    out.push((
        "quant.b1_ms",
        probe(tracer, "quant.score_b1", || {
            std::hint::black_box(quant.score_requests(std::slice::from_ref(next())));
        }) * 1e3,
    ));

    for (name, metric, rows) in [
        ("tensor.matmul_b1", "tensor.matmul_b1_gflops", 1usize),
        ("tensor.matmul_b64", "tensor.matmul_b64_gflops", 64),
    ] {
        const K: usize = 256;
        let a = Matrix::from_fn(rows, K, |r, c| ((r * 7 + c * 3) % 13) as f32 * 0.1);
        let b = Matrix::from_fn(K, K, |r, c| ((r * 5 + c) % 11) as f32 * 0.1);
        let secs = probe(tracer, name, || {
            std::hint::black_box(std::hint::black_box(&a).matmul(&b));
        });
        out.push((metric, 2.0 * (rows * K * K) as f64 / secs / 1e9));
    }

    if let Some(d) = &model.discovery {
        let index = CohortIndex::compile(&d.pool);
        let (t, nf) = (inf.time_steps(), inf.n_features());
        let grids: Vec<Vec<u8>> = reqs
            .iter()
            .take(64)
            .map(|r| {
                inf.score_one_with_cache(r, &mut IndexCache::new())
                    .state_grid
                    .expect("a model with cohorts records its state grid")
            })
            .collect();
        let mut g = 0usize;
        let secs = probe(tracer, "index.probe", || {
            g = (g + 1) % grids.len();
            let mut cache = IndexCache::new();
            std::hint::black_box(cache.probe(&index, &grids[g], t, nf));
        });
        out.push(("index.probe_us", secs * 1e6));
    }

    let bodies: Vec<String> = reqs.iter().take(64).map(score_body).collect();
    let mut b = 0usize;
    out.push((
        "json.parse_us",
        probe(tracer, "json.parse", || {
            b = (b + 1) % bodies.len();
            std::hint::black_box(json::parse(&bodies[b]).expect("a valid body"));
        }) * 1e6,
    ));
    let scored = inf.score_requests(&reqs[..reqs.len().min(64)]);
    let mut r = 0usize;
    out.push((
        "json.render_us",
        probe(tracer, "json.render", || {
            r = (r + 1) % scored.probs.rows();
            std::hint::black_box(rendered(&scored, r));
        }) * 1e6,
    ));

    out.extend(stream_probe(inf, scaler, seed, tracer));
    out
}

/// Replays event feeds through in-process sessions: time per event
/// ingested and per re-score, index-probe reuse and stale-event shares.
fn stream_probe(
    inf: &Inferencer,
    scaler: &Standardizer,
    seed: u64,
    tracer: &mut Tracer,
) -> Vec<(&'static str, f64)> {
    let cfg = stream_config(inf);
    let feeds = event_feeds(inf.n_features(), 6, seed);
    let (mut events, mut stale, mut full, mut reused) = (0u64, 0u64, 0u64, 0u64);
    let (mut ingest_s, mut ingests, mut score_s, mut scores) = (0.0f64, 0u64, 0.0f64, 0u64);
    for feed in &feeds {
        let mut session = StreamSession::new(cfg, scaler.clone());
        for (n, chunk) in feed.events.chunks(EVENTS_PER_REQ).enumerate() {
            for e in chunk {
                let sp = tracer.begin("stream.ingest", None, 0);
                let t0 = Instant::now();
                session
                    .ingest(stream_event(e))
                    .expect("generated events are valid");
                ingest_s += t0.elapsed().as_secs_f64();
                tracer.end(sp);
                ingests += 1;
            }
            if n % SCORE_EVERY == SCORE_EVERY - 1 {
                let sp = tracer.begin("stream.score", None, 0);
                let t0 = Instant::now();
                std::hint::black_box(session.score(inf));
                score_s += t0.elapsed().as_secs_f64();
                tracer.end(sp);
                scores += 1;
            }
        }
        events += session.events_total();
        stale += session.stale_total();
        let (f, r) = session.probe_stats();
        full += f;
        reused += r;
    }
    vec![
        ("stream.ingest_us", ingest_s * 1e6 / ingests.max(1) as f64),
        ("stream.score_ms", score_s * 1e3 / scores.max(1) as f64),
        (
            "stream.probe_reuse_ratio",
            reused as f64 / (full + reused).max(1) as f64,
        ),
        (
            "stream.stale_ratio",
            stale as f64 / (events + stale).max(1) as f64,
        ),
    ]
}
