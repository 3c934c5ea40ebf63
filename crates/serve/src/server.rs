//! The HTTP serving transport and the single-model scoring app.
//!
//! Endpoints of the single-model server ([`serve`]):
//!
//! * `POST /score` — body `{"instances": [{"x": [...], "mask": [...]}]}`;
//!   every instance is a standardized `T x F` grid (row-major) plus an `F`
//!   presence mask. Returns `{"predictions": [...]}` in input order. This
//!   is the one route [`ScoreApp`] (private) answers itself.
//! * The shared ops routes, answered once for every app by
//!   [`crate::ops`]: `POST /explain` (the paper's Fig. 9 decomposition,
//!   `409` when the snapshot has no discovery artefacts), `GET /cohorts`
//!   (Table 2 data), `GET /healthz`, `GET /metrics` (Prometheus text),
//!   `GET /debug/{requests,config,trace}` and `POST /shutdown` (graceful
//!   drain: stop accepting, finish queued work).
//!
//! The transport is a single-threaded readiness event loop
//! ([`crate::eventloop`]) over the dependency-free [`crate::reactor`]
//! (epoll on Linux, poll elsewhere): nonblocking accept, per-connection
//! state machines, HTTP/1.1 keep-alive with an idle timeout, and an exact
//! `max_connections` bound whose over-limit `503`s can never block the
//! accept path. Complete requests are handed to a small worker pool that
//! runs the ops router over the blocking application ([`App`]) and posts
//! rendered responses back to the loop.
//!
//! The transport and the application are split along the [`App`] trait:
//! [`serve`] wires the single-model scoring app into [`serve_app`], the
//! streaming server ([`crate::stream`]) and the `cohortnet-fleet` router
//! wire theirs into the very same transport — same event loop, same
//! keep-alive/drain semantics, same ops routes; only the domain routes and
//! the model behind them differ.

use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use cohortnet::infer::{Inferencer, ScoreRequest};
use cohortnet::snapshot::LoadedModel;
use cohortnet_obs::flight::{FlightRecorder, FLIGHT_SLOTS};

use crate::engine::{Engine, EngineConfig, EngineError, RowScore};
use crate::eventloop::{self, ConnLimiter, Done, JobQueue};
use crate::http::Request;
use crate::json::{self, num_arr, obj, Json};
use crate::metrics::Metrics;
use crate::ops::on;
use crate::reactor::{waker_pair, Interest, Poller, Waker};

/// Log target for request-lifecycle events.
pub(crate) const LOG: &str = "cohortnet.serve";

/// The JSON content type every structured endpoint answers with.
pub const JSON_CT: &str = "application/json";

/// A process-unique request id: hex boot-time millis, then a sequence
/// number. Echoed to clients as `X-Request-Id` and attached to the
/// request log line, so a response can be joined to its server-side trace.
pub(crate) fn next_request_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    static BOOT_MS: OnceLock<u64> = OnceLock::new();
    let boot = BOOT_MS.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    });
    format!("{boot:x}-{:x}", SEQ.fetch_add(1, Ordering::Relaxed))
}

/// Default idle-connection timeout when [`TransportConfig::idle_timeout_ms`]
/// is 0: how long a keep-alive connection may sit between requests before
/// the server closes it silently.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Default worker-pool size when [`TransportConfig::workers`] is 0. Workers
/// block in the engine while their batch scores, so the pool is sized well
/// past the core count — it bounds concurrent *requests being routed*, not
/// CPU use (the engine's own `threads` knob governs that).
pub const DEFAULT_WORKERS: usize = 16;

/// Transport-level configuration: everything the event loop needs, nothing
/// the application does. [`ServerConfig`] embeds one implicitly; the fleet
/// router passes one to [`serve_app`] directly.
#[derive(Debug, Clone, Copy)]
pub struct TransportConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral, for tests).
    pub port: u16,
    /// Per-connection read timeout in milliseconds (0 = the
    /// [`crate::http::DEFAULT_READ_TIMEOUT`] default). A client that stalls
    /// mid-request past this gets `408 Request Timeout`.
    pub read_timeout_ms: u64,
    /// Idle keep-alive timeout in milliseconds (0 = the
    /// [`DEFAULT_IDLE_TIMEOUT`] default). A connection with no request in
    /// progress for this long is closed without a response.
    pub idle_timeout_ms: u64,
    /// Maximum simultaneously open connections (0 = unlimited), enforced
    /// exactly at the event loop. Connections beyond the limit are answered
    /// with `503` + `Retry-After` on their own nonblocking state machine.
    pub max_connections: usize,
    /// Request worker threads between the event loop and the application
    /// (0 = [`DEFAULT_WORKERS`]). Bounds concurrently routed requests; the
    /// dispatch queue holds `8 x workers` more before answering `503`.
    pub workers: usize,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            port: 8080,
            read_timeout_ms: 0,
            idle_timeout_ms: 0,
            max_connections: 256,
            workers: 0,
        }
    }
}

impl TransportConfig {
    /// The read timeout with the built-in default applied.
    pub(crate) fn effective_read_timeout(&self) -> Duration {
        if self.read_timeout_ms == 0 {
            crate::http::DEFAULT_READ_TIMEOUT
        } else {
            Duration::from_millis(self.read_timeout_ms)
        }
    }

    /// The idle timeout with the built-in default applied.
    pub(crate) fn effective_idle_timeout(&self) -> Duration {
        if self.idle_timeout_ms == 0 {
            DEFAULT_IDLE_TIMEOUT
        } else {
            Duration::from_millis(self.idle_timeout_ms)
        }
    }

    /// The worker-pool size with the built-in default applied.
    pub(crate) fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            DEFAULT_WORKERS
        } else {
            self.workers
        }
    }
}

/// Server configuration for the single-model scoring server ([`serve`]).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral, for tests).
    pub port: u16,
    /// See [`TransportConfig::read_timeout_ms`].
    pub read_timeout_ms: u64,
    /// See [`TransportConfig::idle_timeout_ms`].
    pub idle_timeout_ms: u64,
    /// See [`TransportConfig::max_connections`].
    pub max_connections: usize,
    /// See [`TransportConfig::workers`].
    pub workers: usize,
    /// Batching knobs for the scoring engine.
    pub engine: EngineConfig,
    /// Score through the int8 quantized trunk ([`cohortnet::quant`])
    /// instead of the bit-identical-to-training f32 path.
    pub quant: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 8080,
            read_timeout_ms: 0,
            idle_timeout_ms: 0,
            max_connections: 256,
            workers: 0,
            engine: EngineConfig::default(),
            quant: false,
        }
    }
}

impl ServerConfig {
    /// The transport slice of this configuration.
    pub fn transport(&self) -> TransportConfig {
        TransportConfig {
            port: self.port,
            read_timeout_ms: self.read_timeout_ms,
            idle_timeout_ms: self.idle_timeout_ms,
            max_connections: self.max_connections,
            workers: self.workers,
        }
    }
}

/// A rendered application response, before HTTP framing.
#[derive(Debug, Clone)]
pub struct AppResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Server-initiated close: the connection is closed after this
    /// response even if the client asked for keep-alive (ORed with the
    /// client's own `Connection: close`).
    pub close: bool,
}

impl AppResponse {
    /// A JSON response that keeps the connection open.
    pub fn json(status: u16, body: String) -> Self {
        AppResponse {
            status,
            content_type: JSON_CT,
            body,
            close: false,
        }
    }

    /// Marks the response as connection-closing.
    pub fn closing(mut self) -> Self {
        self.close = true;
        self
    }
}

/// Transport controls handed to the ops router and to
/// [`App::debug_config_body`]: ask the transport to stop (the
/// `POST /shutdown` path) and read its flight recorder (the `/debug/*`
/// paths).
pub struct ServerCtl<'a> {
    stop: &'a AtomicBool,
    waker: &'a Waker,
    flight: &'a FlightRecorder,
}

impl ServerCtl<'_> {
    pub(crate) fn new(state: &AppState) -> ServerCtl<'_> {
        ServerCtl {
            stop: &state.stop,
            waker: &state.waker,
            flight: &state.flight,
        }
    }

    /// Requests a graceful stop: the event loop stops accepting, finishes
    /// in-flight work, and drains — same semantics as [`Server::shutdown`].
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// The transport's flight recorder: the last [`FLIGHT_SLOTS`] completed
    /// requests with per-stage timings, written by the event loop.
    pub fn flight(&self) -> &FlightRecorder {
        self.flight
    }
}

/// The model an app serves: the loaded snapshot (discovery artefacts,
/// scaler, fingerprint) and the inferencer compiled from it, shared with
/// the scoring engines.
pub struct ServedModel {
    /// The loaded snapshot.
    pub loaded: LoadedModel,
    /// The compiled inferencer (int8 trunk when serving `--quant`).
    pub inferencer: Arc<Inferencer>,
}

/// What the transport asks of an application. The shared ops routes
/// (`/healthz`, `/metrics`, `/debug/*`, `/explain`, `/cohorts`,
/// `/shutdown`) are answered by [`crate::ops`] for every app; an app routes
/// only its own domain paths and supplies the few bodies that differ.
/// Implemented by this crate's single-model and streaming apps and by the
/// `cohortnet-fleet` multi-replica router — all run behind the identical
/// event-loop transport through [`serve_app`].
///
/// Every method runs on a worker thread and may block (the scoring engine
/// does); the event loop itself never calls them.
pub trait App: Send + Sync + 'static {
    /// Answers the app's own domain routes (wrong methods included, via
    /// [`crate::ops::on`]); `None` hands the request to the ops routes.
    fn route(&self, req: &Request) -> Option<AppResponse>;

    /// The model `/explain` and `/cohorts` read.
    fn model(&self) -> Arc<ServedModel>;

    /// The `GET /healthz` body.
    fn healthz_body(&self) -> String;

    /// The `GET /debug/config` body: every resolved knob, the snapshot
    /// fingerprint, kernel path and observability state.
    fn debug_config_body(&self, ctl: &ServerCtl<'_>) -> String;

    /// The `GET /metrics` text, Prometheus format.
    fn metrics_text(&self) -> String;

    /// Called exactly once after the event loop and the worker pool have
    /// drained and joined (from [`Server::shutdown`]/[`Server::join`]):
    /// shut down engines and other blocking resources here.
    fn on_drained(&self) {}
}

pub(crate) struct AppState {
    pub(crate) app: Arc<dyn App>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) stop: AtomicBool,
    pub(crate) read_timeout: Option<Duration>,
    pub(crate) idle_timeout: Duration,
    pub(crate) limiter: ConnLimiter,
    pub(crate) jobs: JobQueue,
    pub(crate) completions: Mutex<Vec<Done>>,
    pub(crate) waker: Waker,
    /// Always-on ring of the last completed requests (see
    /// [`cohortnet_obs::flight`]); written by the event loop when a
    /// response's last byte flushes, read by `/debug/requests`.
    pub(crate) flight: Arc<FlightRecorder>,
    /// Set by the event loop on exit (all paths); `Server::finish` waits on
    /// it so `join`/`shutdown` share one stop routine.
    pub(crate) done: (Mutex<bool>, Condvar),
    pub(crate) worker_count: usize,
}

impl AppState {
    pub(crate) fn effective_read_timeout(&self) -> Duration {
        self.read_timeout
            .unwrap_or(crate::http::DEFAULT_READ_TIMEOUT)
    }
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops the
/// event loop, drains in-flight requests, and joins every thread.
pub struct Server {
    addr: SocketAddr,
    state: Arc<AppState>,
    eventloop: Mutex<Option<JoinHandle<()>>>,
}

/// Binds the listener and runs an arbitrary [`App`] behind the event-loop
/// transport. `metrics` receives the transport-level families (connection
/// and dispatch counters); the app renders `/metrics` itself, so pass the
/// same instance there when the two should share one registry.
///
/// # Errors
/// Propagates listener bind and reactor setup failures.
pub fn serve_app(
    app: Arc<dyn App>,
    cfg: TransportConfig,
    metrics: Arc<Metrics>,
) -> std::io::Result<Server> {
    cohortnet_obs::init_from_env();
    cohortnet_chaos::init_from_env();
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let workers = cfg.effective_workers();
    let (waker, wake_rx) = waker_pair()?;
    let mut poller = Poller::new()?;
    poller.register(
        listener.as_raw_fd(),
        eventloop::TOKEN_LISTENER,
        Interest::READ,
    )?;
    poller.register(wake_rx.fd(), eventloop::TOKEN_WAKER, Interest::READ)?;

    let state = Arc::new(AppState {
        app,
        metrics,
        stop: AtomicBool::new(false),
        read_timeout: if cfg.read_timeout_ms == 0 {
            None
        } else {
            Some(Duration::from_millis(cfg.read_timeout_ms))
        },
        idle_timeout: cfg.effective_idle_timeout(),
        limiter: ConnLimiter::new(cfg.max_connections),
        jobs: JobQueue::new(workers * 8),
        completions: Mutex::new(Vec::new()),
        waker,
        flight: Arc::new(FlightRecorder::new()),
        done: (Mutex::new(false), Condvar::new()),
        worker_count: workers,
    });

    let loop_state = Arc::clone(&state);
    let handle = std::thread::Builder::new()
        .name("cohortnet-eventloop".into())
        .spawn(move || eventloop::run(listener, poller, wake_rx, loop_state))
        .expect("spawn event loop thread");

    Ok(Server {
        addr,
        state,
        eventloop: Mutex::new(Some(handle)),
    })
}

/// Binds the listener, starts the engine, the worker pool and the event
/// loop, and returns the running single-model scoring server.
///
/// # Errors
/// Propagates listener bind and reactor setup failures.
pub fn serve(loaded: LoadedModel, cfg: ServerConfig) -> std::io::Result<Server> {
    let (app, metrics) = ScoreApp::build(loaded, &cfg);
    serve_app(Arc::new(app), cfg.transport(), metrics)
}

impl Server {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The one stop routine both [`Server::shutdown`] and [`Server::join`]
    /// funnel through: wait for the event loop to finish draining (it sets
    /// the done flag on every exit path), join its thread, then let the
    /// application shut its engines down. Idempotent and safe to race from
    /// several threads.
    fn finish(&self) {
        let (lock, cv) = &self.state.done;
        let mut done = lock.lock().expect("done flag poisoned");
        while !*done {
            done = cv.wait(done).expect("done flag poisoned");
        }
        drop(done);
        if let Some(handle) = self
            .eventloop
            .lock()
            .expect("event loop handle poisoned")
            .take()
        {
            let _ = handle.join();
        }
        self.state.app.on_drained();
    }

    /// Requests a graceful stop and blocks until the event loop, the worker
    /// pool, and the engine have finished. Idempotent.
    pub fn shutdown(&self) {
        self.state.stop.store(true, Ordering::SeqCst);
        self.state.waker.wake();
        self.finish();
    }

    /// Blocks until the server stops (via `POST /shutdown` or
    /// [`Server::shutdown`] from another thread), then completes the same
    /// drain ordering as [`Server::shutdown`].
    pub fn join(&self) {
        self.finish();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Renders the standard `{"error": message}` body.
pub fn error_body(message: &str) -> String {
    json::render(&obj(vec![("error", Json::Str(message.to_string()))]))
}

/// The single-model scoring application behind [`serve`]. Also the
/// delegation target of the streaming app ([`crate::stream`]), which
/// answers its own `/ingest` + `/sessions` routes and hands everything
/// else here — so both servers expose the identical batch surface.
pub(crate) struct ScoreApp {
    pub(crate) engine: Engine,
    pub(crate) model: Arc<ServedModel>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) read_timeout: Duration,
    pub(crate) idle_timeout: Duration,
    pub(crate) workers: usize,
}

impl ScoreApp {
    /// Starts the engine and assembles the app plus its metrics registry —
    /// the shared plumbing of [`serve`] and [`crate::stream::serve_stream`].
    pub(crate) fn build(loaded: LoadedModel, cfg: &ServerConfig) -> (ScoreApp, Arc<Metrics>) {
        let metrics = Arc::new(Metrics::new());
        let inferencer = Arc::new(loaded.scorer(cfg.quant));
        let engine = Engine::start(Arc::clone(&inferencer), cfg.engine, Arc::clone(&metrics));
        metrics.set_build_info(cohortnet_tensor::simd::active().name(), cfg.quant);
        let transport = cfg.transport();
        let app = ScoreApp {
            engine,
            model: Arc::new(ServedModel { loaded, inferencer }),
            metrics: Arc::clone(&metrics),
            read_timeout: transport.effective_read_timeout(),
            idle_timeout: transport.effective_idle_timeout(),
            workers: transport.effective_workers(),
        };
        (app, metrics)
    }

    fn handle_score(&self, req: &Request) -> AppResponse {
        let reqs = match parse_score_body(&req.body) {
            Ok((_, reqs)) => reqs,
            Err(why) => return AppResponse::json(400, error_body(&why)),
        };
        let (status, body) = match self.engine.score_many(reqs) {
            Ok(rows) => score_rows_response(&rows),
            Err(e) => (503, error_body(&e.to_string())),
        };
        AppResponse::json(status, body)
    }
}

impl App for ScoreApp {
    fn route(&self, req: &Request) -> Option<AppResponse> {
        match req.path.as_str() {
            "/score" => Some(on(req, "POST", || self.handle_score(req))),
            _ => None,
        }
    }

    fn model(&self) -> Arc<ServedModel> {
        Arc::clone(&self.model)
    }

    fn healthz_body(&self) -> String {
        let inf = &self.model.inferencer;
        let cfg = self.engine.config();
        json::render(&obj(vec![
            ("status", Json::Str("ok".into())),
            (
                "snapshot_version",
                Json::Str(cohortnet::snapshot::SNAPSHOT_VERSION.into()),
            ),
            (
                "snapshot_fingerprint",
                Json::Str(self.model.loaded.fingerprint_hex()),
            ),
            ("n_features", Json::Num(inf.n_features() as f64)),
            ("time_steps", Json::Num(inf.time_steps() as f64)),
            ("n_labels", Json::Num(inf.n_labels() as f64)),
            ("has_cohorts", Json::Bool(inf.has_cohorts())),
            (
                "simd_backend",
                Json::Str(cohortnet_tensor::simd::active().name().into()),
            ),
            ("quant", Json::Bool(inf.quantized())),
            ("max_batch", Json::Num(cfg.max_batch as f64)),
            ("max_delay_us", Json::Num(cfg.max_delay_us as f64)),
            ("deadline_ms", Json::Num(cfg.deadline_ms as f64)),
            (
                "read_timeout_ms",
                Json::Num(self.read_timeout.as_millis() as f64),
            ),
            (
                "idle_timeout_ms",
                Json::Num(self.idle_timeout.as_millis() as f64),
            ),
            ("workers", Json::Num(self.workers as f64)),
        ]))
    }

    fn debug_config_body(&self, ctl: &ServerCtl<'_>) -> String {
        let cfg = self.engine.config();
        json::render(&obj(vec![
            (
                "snapshot_fingerprint",
                Json::Str(self.model.loaded.fingerprint_hex()),
            ),
            (
                "simd_backend",
                Json::Str(cohortnet_tensor::simd::active().name().into()),
            ),
            ("transcendentals", crate::ops::transcendentals()),
            ("quant", Json::Bool(self.model.inferencer.quantized())),
            ("max_batch", Json::Num(cfg.max_batch as f64)),
            ("max_delay_us", Json::Num(cfg.max_delay_us as f64)),
            ("deadline_ms", Json::Num(cfg.deadline_ms as f64)),
            ("queue_cap", Json::Num(cfg.queue_cap as f64)),
            ("engine_threads", Json::Num(cfg.threads as f64)),
            (
                "read_timeout_ms",
                Json::Num(self.read_timeout.as_millis() as f64),
            ),
            (
                "idle_timeout_ms",
                Json::Num(self.idle_timeout.as_millis() as f64),
            ),
            ("workers", Json::Num(self.workers as f64)),
            ("trace_enabled", Json::Bool(cohortnet_obs::trace::enabled())),
            ("flight_slots", Json::Num(FLIGHT_SLOTS as f64)),
            ("flight_total", Json::Num(ctl.flight().total() as f64)),
            ("flight_dropped", Json::Num(ctl.flight().dropped() as f64)),
        ]))
    }

    fn metrics_text(&self) -> String {
        self.metrics.render_prometheus()
    }

    fn on_drained(&self) {
        self.engine.shutdown();
    }
}

/// Decodes one `{"x": [...], "mask": [...]}` instance.
pub(crate) fn parse_instance(value: &Json) -> Result<ScoreRequest, String> {
    let x = value
        .get("x")
        .and_then(Json::as_f32_vec)
        .ok_or("instance needs a numeric array field \"x\"")?;
    let mask = value
        .get("mask")
        .and_then(Json::as_f32_vec)
        .ok_or("instance needs a numeric array field \"mask\"")?;
    Ok(ScoreRequest { x, mask })
}

/// Decodes a `/score` body into the parsed document and its instances.
///
/// # Errors
/// A human-readable message for the `400` response.
pub fn parse_score_body(body: &str) -> Result<(Json, Vec<ScoreRequest>), String> {
    let parsed = json::parse(body).map_err(|e| format!("invalid json: {e}"))?;
    let Some(instances) = parsed.get("instances").and_then(Json::as_arr) else {
        return Err("body needs an array field \"instances\"".into());
    };
    if instances.is_empty() {
        return Err("\"instances\" is empty".into());
    }
    let mut reqs = Vec::with_capacity(instances.len());
    for (i, inst) in instances.iter().enumerate() {
        match parse_instance(inst) {
            Ok(r) => reqs.push(r),
            Err(why) => return Err(format!("instance {i}: {why}")),
        }
    }
    Ok((parsed, reqs))
}

pub(crate) fn row_to_json(row: &RowScore) -> Json {
    let mut pairs = vec![
        ("prob", num_arr(&row.prob)),
        ("logit", num_arr(&row.logit)),
        ("base_logit", num_arr(&row.base_logit)),
    ];
    if let Some(cem) = &row.cem_logit {
        pairs.push(("cem_logit", num_arr(cem)));
    }
    obj(pairs)
}

/// Renders the `/score` response for a scored batch: per-request isolation
/// means each prediction slot carries either a score or that request's own
/// error, in input order; the batch status reflects the worst case only
/// when nothing succeeded. Shared verbatim by the single-model server and
/// the fleet router, which is what makes their response bytes comparable
/// bit for bit.
pub fn score_rows_response(rows: &[Result<RowScore, EngineError>]) -> (u16, String) {
    let any_ok = rows.iter().any(Result::is_ok);
    let all_bad_request = rows
        .iter()
        .all(|r| matches!(r, Err(EngineError::BadRequest(_))));
    let all_deadline = rows
        .iter()
        .all(|r| matches!(r, Err(EngineError::DeadlineExceeded)));
    let status = if any_ok {
        200
    } else if all_bad_request {
        400
    } else if all_deadline {
        429
    } else {
        500
    };
    let predictions = Json::Arr(
        rows.iter()
            .map(|row| match row {
                Ok(score) => row_to_json(score),
                Err(e) => obj(vec![("error", Json::Str(e.to_string()))]),
            })
            .collect(),
    );
    (
        status,
        json::render(&obj(vec![("predictions", predictions)])),
    )
}
