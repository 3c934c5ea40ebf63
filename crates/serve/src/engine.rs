//! The micro-batching request engine.
//!
//! Requests enter a bounded queue; a single batcher thread takes whatever
//! is queued (up to `max_batch` requests) the moment it is free and scores
//! it as one minibatch. The batcher is self-clocking and work-conserving,
//! as in Clipper's adaptive batching (Crankshaw et al., NSDI'17): a lone
//! request is dispatched at once, and batches form only from requests that
//! arrive while an earlier batch is computing. An explicit `max_delay_us`
//! opts into holding a partial batch for company, up to that long after its
//! oldest request was queued. Batches are scored through
//! [`Inferencer::score_requests_parallel`], whose GEMM contract makes every
//! output row a function of its own input only — so a request's result is
//! bit-identical whether it is scored alone or coalesced into any batch,
//! at any worker count.
//!
//! ## Degradation contract
//!
//! The engine must degrade, never hang:
//!
//! * **Deadlines** — a request that has already waited longer than
//!   `deadline_ms` in the queue is answered with
//!   [`EngineError::DeadlineExceeded`] instead of being scored, so
//!   backpressure turns into fast 429s rather than ever-growing latency.
//! * **Panic isolation** — a panic while scoring a batch (e.g. an injected
//!   `infer.worker` chaos fault in a worker thread) is caught; the engine
//!   restarts scoring in degraded mode, re-scoring each request of the
//!   poisoned batch individually. Row independence makes the rescued rows
//!   bit-identical to an unpoisoned run; only a request whose own rescue
//!   panics again gets [`EngineError::Internal`]. Every capture increments
//!   the `engine_restarts` counter.
//! * **Batcher self-heal** — if the batcher loop itself panics outside
//!   batch scoring, the thread restarts it (bounded by
//!   [`MAX_BATCHER_RESTARTS`]); when the bound is exhausted the queue is
//!   drained with errors so callers unblock instead of waiting forever.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cohortnet::infer::{Inferencer, ScoreRequest};
use cohortnet_obs::ctx::TraceCtx;
use cohortnet_obs::{obs_error, obs_warn, stage};

use crate::metrics::Metrics;

/// Log target for engine degradation events.
const LOG: &str = "cohortnet.serve.engine";

/// How many times the batcher loop restarts after an escaped panic before
/// giving up and draining the queue with errors.
pub const MAX_BATCHER_RESTARTS: u64 = 100;

/// Batching knobs for the request engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Maximum requests coalesced into one scored minibatch.
    pub max_batch: usize,
    /// How long a partial batch is held for company after its oldest
    /// request was queued, in microseconds. The default 0 holds nothing:
    /// the batcher dispatches as soon as it is free, and only requests that
    /// queued while it was busy share a batch.
    pub max_delay_us: u64,
    /// Worker threads used to score a minibatch (0 = all available cores).
    pub threads: usize,
    /// Queue capacity; requests beyond it are rejected with
    /// [`EngineError::Overloaded`].
    pub queue_cap: usize,
    /// Per-request queue deadline in milliseconds (0 = none): a request
    /// still queued after this long is answered with
    /// [`EngineError::DeadlineExceeded`] instead of being scored.
    pub deadline_ms: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_batch: 16,
            max_delay_us: 0,
            threads: 0,
            queue_cap: 1024,
            deadline_ms: 0,
        }
    }
}

/// The score of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct RowScore {
    /// Calibrated per-label probability (Eq. 14).
    pub prob: Vec<f32>,
    /// Combined logit (individual + cohort paths).
    pub logit: Vec<f32>,
    /// Logit of the individual (MFLM) path alone.
    pub base_logit: Vec<f32>,
    /// Logit contribution of the cohort (CEM) path, when the model has
    /// discovery artefacts.
    pub cem_logit: Option<Vec<f32>>,
}

/// Why a request was not scored.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The request payload has the wrong shape.
    BadRequest(String),
    /// The queue is full; retry later.
    Overloaded,
    /// The request sat in the queue past its deadline; retry later.
    DeadlineExceeded,
    /// Scoring this request panicked even in isolation.
    Internal(String),
    /// The engine is draining for shutdown.
    ShuttingDown,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BadRequest(why) => write!(f, "bad request: {why}"),
            EngineError::Overloaded => write!(f, "queue full, retry later"),
            EngineError::DeadlineExceeded => {
                write!(f, "request deadline exceeded in queue, retry later")
            }
            EngineError::Internal(why) => write!(f, "internal scoring failure: {why}"),
            EngineError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for EngineError {}

type Reply = Result<RowScore, EngineError>;

/// What the batcher sends back per request: the reply plus the stage
/// numbers measured on the batcher thread. The *caller's* thread stamps
/// them into its own stage scratch ([`stage::note_engine`]), so
/// attribution never needs a lock on the batcher side.
struct Delivery {
    reply: Reply,
    /// Enqueue → batch compute started, µs.
    queued_us: u32,
    /// Forward-pass duration of the batch this request scored in, µs.
    compute_us: u32,
    /// Size of that batch (0 when the request never joined one).
    batch_size: u32,
    /// When the batcher finished with this request (the end of its batch's
    /// compute): the caller's hand-off stage runs from here to its wake-up.
    done: Instant,
}

struct Pending {
    req: ScoreRequest,
    tx: mpsc::Sender<Delivery>,
    enqueued: Instant,
    /// Trace context of the enqueuing request, so the batcher's span can
    /// link back across the thread boundary.
    ctx: Option<TraceCtx>,
}

/// Duration as µs, saturating into a `u32` (~71 minutes).
fn us32(d: Duration) -> u32 {
    d.as_micros().min(u32::MAX as u128) as u32
}

struct Shared {
    inf: Arc<Inferencer>,
    queue: Mutex<VecDeque<Pending>>,
    cv: Condvar,
    /// Written only under the `queue` lock, so the idle batcher, which
    /// checks it under that lock before it waits, cannot miss the wake-up.
    shutdown: AtomicBool,
    cfg: EngineConfig,
    metrics: Arc<Metrics>,
}

impl Shared {
    /// Sets the shutdown flag under the queue lock and returns the lock.
    fn set_shutdown(&self) -> MutexGuard<'_, VecDeque<Pending>> {
        let q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        self.shutdown.store(true, Ordering::SeqCst);
        q
    }
}

/// The micro-batching scoring engine. Cheap to share behind an [`Arc`];
/// every handler thread calls [`Engine::score`] and blocks until the
/// batcher replies.
pub struct Engine {
    shared: Arc<Shared>,
    batcher: Mutex<Option<JoinHandle<()>>>,
}

impl Engine {
    /// Starts the engine (spawns the batcher thread) over a compiled
    /// inferencer, f32 or int8 trunk alike. Pass an owned [`Inferencer`],
    /// or a shared `Arc`: the fleet router runs N replica engines around
    /// one compiled model (and builds a fresh engine around the same `Arc`
    /// during a hot-swap flip), so the weights are never duplicated per
    /// replica.
    pub fn start(
        inf: impl Into<Arc<Inferencer>>,
        cfg: EngineConfig,
        metrics: Arc<Metrics>,
    ) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.queue_cap >= 1, "queue_cap must be at least 1");
        let shared = Arc::new(Shared {
            inf: inf.into(),
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cfg,
            metrics,
        });
        let worker = Arc::clone(&shared);
        let batcher = std::thread::Builder::new()
            .name("cohortnet-batcher".into())
            .spawn(move || batcher_thread(&worker))
            .expect("spawn batcher thread");
        Engine {
            shared,
            batcher: Mutex::new(Some(batcher)),
        }
    }

    /// The engine's metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.shared.metrics
    }

    /// The batching configuration the engine runs with.
    pub fn config(&self) -> EngineConfig {
        self.shared.cfg
    }

    fn shape_error(&self, req: &ScoreRequest) -> Option<EngineError> {
        let inf = &self.shared.inf;
        let want_x = inf.time_steps() * inf.n_features();
        if req.x.len() != want_x {
            return Some(EngineError::BadRequest(format!(
                "x has {} values, expected time_steps * n_features = {} * {} = {}",
                req.x.len(),
                inf.time_steps(),
                inf.n_features(),
                want_x
            )));
        }
        if req.mask.len() != inf.n_features() {
            return Some(EngineError::BadRequest(format!(
                "mask has {} values, expected n_features = {}",
                req.mask.len(),
                inf.n_features()
            )));
        }
        None
    }

    /// Scores one request, blocking until the batcher replies. The result
    /// is bit-identical no matter which batch the request lands in.
    ///
    /// # Errors
    /// [`EngineError::BadRequest`] on shape mismatch, `Overloaded` when the
    /// queue is full, `DeadlineExceeded` when the request aged out in the
    /// queue, `Internal` when scoring it panicked even in isolation,
    /// `ShuttingDown` once shutdown has begun.
    pub fn score(&self, req: ScoreRequest) -> Result<RowScore, EngineError> {
        let mut rows = self.score_many(vec![req])?;
        rows.pop().unwrap_or(Err(EngineError::ShuttingDown))
    }

    /// Scores several requests, enqueueing them all before waiting so they
    /// can coalesce into the same minibatch. Results come back in input
    /// order, **one per request**: a request that fails (bad shape,
    /// deadline, isolated panic) carries its own error while the rest of
    /// the batch still scores — and scores bit-identically to a run where
    /// the failing request was never sent.
    ///
    /// # Errors
    /// Whole-call failures only: `Overloaded` when the queue cannot take
    /// the batch, `ShuttingDown` once shutdown has begun.
    pub fn score_many(&self, reqs: Vec<ScoreRequest>) -> Result<Vec<Reply>, EngineError> {
        let s = &self.shared;
        if s.shutdown.load(Ordering::SeqCst) {
            s.metrics.responses_err.inc();
            return Err(EngineError::ShuttingDown);
        }
        // Chaos site `engine.enqueue.reject`: simulates queue saturation so
        // the 503/Retry-After path can be driven without real overload.
        if cohortnet_chaos::fires("engine.enqueue.reject") {
            s.metrics.responses_err.inc();
            return Err(EngineError::Overloaded);
        }
        // Per-request shape validation: a malformed instance fails alone
        // instead of aborting its neighbours.
        let checked: Vec<Result<ScoreRequest, EngineError>> = reqs
            .into_iter()
            .map(|req| match self.shape_error(&req) {
                None => Ok(req),
                Some(e) => Err(e),
            })
            .collect();
        let n_valid = checked.iter().filter(|r| r.is_ok()).count();
        let mut slots: Vec<Result<mpsc::Receiver<Delivery>, EngineError>> =
            Vec::with_capacity(checked.len());
        let ctx = cohortnet_obs::ctx::current();
        {
            let mut q = s.queue.lock().expect("engine queue poisoned");
            // Shutdown is set under this lock, so a request enqueued here is
            // one the batcher will still see before it exits.
            if s.shutdown.load(Ordering::SeqCst) {
                drop(q);
                s.metrics.responses_err.inc();
                return Err(EngineError::ShuttingDown);
            }
            if q.len() + n_valid > s.cfg.queue_cap {
                drop(q);
                s.metrics.responses_err.inc();
                return Err(EngineError::Overloaded);
            }
            let now = Instant::now();
            for item in checked {
                match item {
                    Ok(req) => {
                        let (tx, rx) = mpsc::channel();
                        q.push_back(Pending {
                            req,
                            tx,
                            enqueued: now,
                            ctx,
                        });
                        slots.push(Ok(rx));
                    }
                    Err(e) => slots.push(Err(e)),
                }
            }
            s.metrics.queue_depth.set(q.len() as i64);
        }
        s.metrics.requests_total.add(n_valid as u64);
        s.cv.notify_all();
        // Collect replies and fold the batcher-measured stage numbers into
        // this thread's scratch. Several requests may land in different
        // batches; the worst (max) wait/compute describes the call, and the
        // hand-off runs from the last batch's end to this thread's wake-up.
        let mut stage_max: Option<(u32, u32, u32, Instant)> = None;
        let rows: Vec<Reply> = slots
            .into_iter()
            .map(|slot| match slot {
                Ok(rx) => match rx.recv() {
                    Ok(d) => {
                        stage_max = Some(match stage_max {
                            None => (d.queued_us, d.compute_us, d.batch_size, d.done),
                            Some((q_us, c_us, bsz, done)) => (
                                q_us.max(d.queued_us),
                                c_us.max(d.compute_us),
                                bsz.max(d.batch_size),
                                done.max(d.done),
                            ),
                        });
                        d.reply
                    }
                    Err(_) => Err(EngineError::ShuttingDown),
                },
                Err(e) => Err(e),
            })
            .collect();
        if let Some((q_us, c_us, bsz, done)) = stage_max {
            let handoff_us = us32(done.elapsed());
            stage::note_engine(q_us, c_us, bsz);
            stage::note_handoff(handoff_us);
            s.metrics.stage_handoff_us.observe(u64::from(handoff_us));
        }
        for row in &rows {
            match row {
                Ok(_) => s.metrics.responses_ok.inc(),
                Err(_) => s.metrics.responses_err.inc(),
            }
        }
        Ok(rows)
    }

    /// Stops accepting requests, drains the queue, and joins the batcher.
    /// Idempotent.
    pub fn shutdown(&self) {
        drop(self.shared.set_shutdown());
        self.shared.cv.notify_all();
        if let Some(handle) = self
            .batcher
            .lock()
            .expect("engine batcher handle poisoned")
            .take()
        {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Collects the next minibatch: sleeps while the queue is empty, then takes
/// what is queued, up to `max_batch` requests. With the default
/// `max_delay_us` of 0 that happens at once; a non-zero `max_delay_us` holds
/// a partial batch until `max_batch` requests have accumulated or the
/// oldest has been queued that long. Returns `None` when shut down with an
/// empty queue.
fn next_batch(s: &Shared) -> Option<Vec<Pending>> {
    let delay = Duration::from_micros(s.cfg.max_delay_us);
    let mut q = s.queue.lock().expect("engine queue poisoned");
    loop {
        if q.is_empty() {
            if s.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            // Idle: sleep until a request or shutdown arrives. Both are
            // published under this lock, so the notify cannot slip in
            // between the check above and the wait.
            q = s.cv.wait(q).expect("engine queue poisoned");
            continue;
        }
        if q.len() >= s.cfg.max_batch || s.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let oldest = q.front().expect("non-empty queue").enqueued;
        let now = Instant::now();
        let deadline = oldest + delay;
        if now >= deadline {
            break;
        }
        q =
            s.cv.wait_timeout(q, deadline - now)
                .expect("engine queue poisoned")
                .0;
    }
    let take = q.len().min(s.cfg.max_batch);
    let batch: Vec<Pending> = q.drain(..take).collect();
    s.metrics.queue_depth.set(q.len() as i64);
    Some(batch)
}

/// Builds a [`RowScore`] from row `r` of a scored output.
fn row_score(out: &cohortnet::infer::ScoreOutput, r: usize) -> RowScore {
    RowScore::from_output(out, r)
}

impl RowScore {
    /// Extracts row `r` of a scored output. Public so the fleet router's
    /// canary check can score through the same path the engines use and
    /// compare rendered responses byte for byte.
    pub fn from_output(out: &cohortnet::infer::ScoreOutput, r: usize) -> RowScore {
        RowScore {
            prob: out.probs.row(r).to_vec(),
            logit: out.logits.row(r).to_vec(),
            base_logit: out.base_logits.row(r).to_vec(),
            cem_logit: out.cem_logits.as_ref().map(|m| m.row(r).to_vec()),
        }
    }
}

/// Scores one batch with panic capture. The happy path is one parallel
/// forward over the whole batch; a captured panic downgrades to per-request
/// rescue scoring so one poisoned request cannot take its neighbours down.
fn score_batch(s: &Shared, batch: &[Pending]) -> Vec<Reply> {
    let reqs: Vec<ScoreRequest> = batch.iter().map(|p| p.req.clone()).collect();
    let scored = std::panic::catch_unwind(AssertUnwindSafe(|| {
        s.inf.score_requests_parallel(&reqs, s.cfg.threads)
    }));
    match scored {
        Ok(out) => (0..batch.len()).map(|r| Ok(row_score(&out, r))).collect(),
        Err(_) => {
            s.metrics.engine_restarts.inc();
            s.metrics.batch_rescues.inc();
            obs_warn!(
                target: LOG,
                "batch scoring panicked; rescuing requests individually",
                batch = batch.len(),
            );
            batch
                .iter()
                .map(|p| {
                    let one = std::slice::from_ref(&p.req);
                    match std::panic::catch_unwind(AssertUnwindSafe(|| s.inf.score_requests(one))) {
                        Ok(out) => Ok(row_score(&out, 0)),
                        Err(_) => {
                            s.metrics.rows_failed.inc();
                            Err(EngineError::Internal(
                                "scoring this request panicked even in isolation".into(),
                            ))
                        }
                    }
                })
                .collect()
        }
    }
}

fn batcher_loop(s: &Shared) {
    while let Some(batch) = next_batch(s) {
        let mut batch_span = cohortnet_obs::span::span("serve.batch");
        batch_span.arg("size", batch.len());
        // Queue wait ends when the batch starts scoring.
        let batch_start = Instant::now();
        // Enforce per-request deadlines before spending compute: expired
        // requests are answered immediately and do not join the minibatch.
        let (batch, expired): (Vec<Pending>, Vec<Pending>) = if s.cfg.deadline_ms > 0 {
            let deadline = Duration::from_millis(s.cfg.deadline_ms);
            batch
                .into_iter()
                .partition(|p| batch_start.saturating_duration_since(p.enqueued) <= deadline)
        } else {
            (batch, Vec::new())
        };
        for pending in expired {
            s.metrics.requests_rejected_deadline.inc();
            let waited = batch_start.saturating_duration_since(pending.enqueued);
            let _ = pending.tx.send(Delivery {
                reply: Err(EngineError::DeadlineExceeded),
                queued_us: us32(waited),
                compute_us: 0,
                batch_size: 0,
                done: batch_start,
            });
        }
        if batch.is_empty() {
            continue;
        }
        // Cross-thread trace link: the batch span follows the ctx of the
        // first request that carried one, so one fleet `/score` renders as
        // a single connected flame across worker and batcher threads.
        if let Some(ctx) = batch.iter().find_map(|p| p.ctx) {
            batch_span.follows(&ctx);
        }
        for pending in &batch {
            let waited = batch_start.saturating_duration_since(pending.enqueued);
            s.metrics.queue_wait_us.observe(waited.as_micros() as u64);
        }
        let rows = score_batch(s, &batch);
        let done = Instant::now();
        let compute_us = us32(done - batch_start);
        s.metrics.batch_compute_us.observe(compute_us as u64);
        s.metrics.batches_total.inc();
        s.metrics.batch_size.observe(batch.len() as u64);
        let batch_size = batch.len() as u32;
        for (pending, row) in batch.iter().zip(rows) {
            let queued = batch_start.saturating_duration_since(pending.enqueued);
            // A dropped receiver just means the caller gave up; keep going.
            let _ = pending.tx.send(Delivery {
                reply: row,
                queued_us: us32(queued),
                compute_us,
                batch_size,
                done,
            });
            let waited = done.saturating_duration_since(pending.enqueued);
            s.metrics.latency_us.observe(waited.as_micros() as u64);
        }
    }
}

/// The batcher thread body: runs [`batcher_loop`], restarting it if it ever
/// panics outside the per-batch capture, so the engine degrades instead of
/// silently hanging every caller. After [`MAX_BATCHER_RESTARTS`] escapes the
/// queue is drained with errors and the thread exits; pending and future
/// callers get [`EngineError::ShuttingDown`]-style replies, never a hang.
fn batcher_thread(s: &Shared) {
    let mut restarts = 0u64;
    loop {
        match std::panic::catch_unwind(AssertUnwindSafe(|| batcher_loop(s))) {
            Ok(()) => return,
            Err(_) => {
                restarts += 1;
                s.metrics.engine_restarts.inc();
                obs_warn!(
                    target: LOG,
                    "batcher loop panicked; restarting",
                    restarts = restarts,
                );
                if restarts >= MAX_BATCHER_RESTARTS {
                    obs_error!(
                        target: LOG,
                        "batcher restart budget exhausted; draining queue with errors",
                        restarts = restarts,
                    );
                    // Under the queue lock: no caller can enqueue after the
                    // drain, so none waits on a batcher that has exited.
                    let mut q = s.set_shutdown();
                    let done = Instant::now();
                    for pending in q.drain(..) {
                        let _ = pending.tx.send(Delivery {
                            reply: Err(EngineError::Internal(
                                "scoring engine restart budget exhausted".into(),
                            )),
                            queued_us: 0,
                            compute_us: 0,
                            batch_size: 0,
                            done,
                        });
                    }
                    return;
                }
            }
        }
    }
}
