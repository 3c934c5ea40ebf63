//! The HTTP scoring server.
//!
//! Endpoints:
//!
//! * `POST /score` — body `{"instances": [{"x": [...], "mask": [...]}]}`;
//!   every instance is a standardized `T x F` grid (row-major) plus an `F`
//!   presence mask. Returns `{"predictions": [...]}` in input order.
//! * `POST /explain` — body is one instance; returns the paper's Fig. 9
//!   decomposition via [`cohortnet::interpret::explain_patient`]. `409`
//!   when the snapshot has no discovery artefacts.
//! * `GET /cohorts` — the discovered cohort pool (Table 2 data).
//! * `GET /healthz` — liveness, model shape and the snapshot fingerprint.
//! * `GET /metrics` — Prometheus text format.
//! * `POST /shutdown` — graceful drain: stop accepting, finish queued work.
//!
//! The transport is a single-threaded readiness event loop
//! ([`crate::eventloop`]) over the dependency-free [`crate::reactor`]
//! (epoll on Linux, poll elsewhere): nonblocking accept, per-connection
//! state machines, HTTP/1.1 keep-alive with an idle timeout, and an exact
//! `max_connections` bound whose over-limit `503`s can never block the
//! accept path. Complete requests are handed to a small worker pool that
//! runs the blocking application ([`App`]) and posts rendered responses
//! back to the loop.
//!
//! The transport and the application are split along the [`App`] trait:
//! [`serve`] wires the single-model scoring app ([`ScoreApp`], private)
//! into [`serve_app`], and the `cohortnet-fleet` crate wires a
//! multi-replica router into the very same transport — same event loop,
//! same keep-alive/drain semantics, different routing.

use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use cohortnet::infer::{Inferencer, ScoreRequest};
use cohortnet::interpret::explain_patient;
use cohortnet::snapshot::LoadedModel;
use cohortnet_models::data::{Prepared, PreparedPatient};
use cohortnet_obs::flight::{FlightRecord, FlightRecorder, FLIGHT_SLOTS};

use crate::engine::{Engine, EngineConfig, EngineError, RowScore};
use crate::eventloop::{self, ConnLimiter, Done, JobQueue};
use crate::http::{query_param, Request};
use crate::json::{self, num_arr, obj, Json};
use crate::metrics::Metrics;
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

/// Transport controls handed to [`App::handle`]: an application may ask
/// the transport to stop (the `POST /shutdown` path) and may read its
/// flight recorder (the `/debug/requests` path).
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

/// What the transport asks of an application: route one parsed request to
/// a response. Implemented by this crate's single-model scoring app (via
/// [`serve`]) and by the `cohortnet-fleet` multi-replica router — both run
/// behind the identical event-loop transport through [`serve_app`].
///
/// `handle` runs on a worker thread and may block (the scoring engine
/// does); the event loop itself never calls it.
pub trait App: Send + Sync + 'static {
    /// Routes one request. `ctl` lets a shutdown endpoint stop the
    /// transport.
    fn handle(&self, req: &Request, ctl: &ServerCtl<'_>) -> AppResponse;

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
    pub(crate) loaded: LoadedModel,
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
        let engine =
            Engine::start_scorer(loaded.scorer(cfg.quant), cfg.engine, Arc::clone(&metrics));
        metrics.set_build_info(cohortnet_tensor::simd::active().name(), cfg.quant);
        let transport = cfg.transport();
        let app = ScoreApp {
            engine,
            loaded,
            metrics: Arc::clone(&metrics),
            read_timeout: transport.effective_read_timeout(),
            idle_timeout: transport.effective_idle_timeout(),
            workers: transport.effective_workers(),
        };
        (app, metrics)
    }
}

impl App for ScoreApp {
    fn handle(&self, req: &Request, ctl: &ServerCtl<'_>) -> AppResponse {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/score") => {
                let (status, body) = self.handle_score(req);
                AppResponse::json(status, body)
            }
            ("POST", "/explain") => {
                let (status, body) =
                    explain_response(&self.loaded, self.engine.inferencer(), &req.body);
                AppResponse::json(status, body)
            }
            ("GET", "/cohorts") => AppResponse::json(200, cohorts_json(&self.loaded)),
            ("GET", "/healthz") => AppResponse::json(200, self.healthz_body()),
            ("GET", "/debug/requests") => {
                AppResponse::json(200, debug_requests_body(ctl.flight(), &req.query))
            }
            ("GET", "/debug/config") => AppResponse::json(200, self.debug_config_body(ctl)),
            ("GET", "/debug/trace") => AppResponse::json(200, debug_trace_body(&req.query)),
            ("GET", "/metrics") => AppResponse {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                body: self.metrics.render_prometheus(),
                close: false,
            },
            ("POST", "/shutdown") => {
                // `/shutdown` always closes: the loop is about to drain
                // anyway, and promising keep-alive on a dying connection
                // helps nobody.
                ctl.request_stop();
                AppResponse::json(200, shutdown_body()).closing()
            }
            (_, "/score" | "/explain" | "/shutdown") => {
                AppResponse::json(405, error_body("use POST for this endpoint"))
            }
            (
                _,
                "/cohorts" | "/healthz" | "/metrics" | "/debug/requests" | "/debug/config"
                | "/debug/trace",
            ) => AppResponse::json(405, error_body("use GET for this endpoint")),
            _ => AppResponse::json(404, error_body("unknown endpoint")),
        }
    }

    fn on_drained(&self) {
        self.engine.shutdown();
    }
}

/// The `{"status": "shutting down"}` body `POST /shutdown` answers with.
pub fn shutdown_body() -> String {
    json::render(&obj(vec![("status", Json::Str("shutting down".into()))]))
}

/// Decodes one `{"x": [...], "mask": [...]}` instance.
fn parse_instance(value: &Json) -> Result<ScoreRequest, String> {
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

impl ScoreApp {
    fn handle_score(&self, req: &Request) -> (u16, String) {
        let reqs = match parse_score_body(&req.body) {
            Ok((_, reqs)) => reqs,
            Err(why) => return (400, error_body(&why)),
        };
        match self.engine.score_many(reqs) {
            Ok(rows) => score_rows_response(&rows),
            Err(e) => (503, error_body(&e.to_string())),
        }
    }

    fn healthz_body(&self) -> String {
        let inf = self.engine.inferencer();
        let cfg = self.engine.config();
        json::render(&obj(vec![
            ("status", Json::Str("ok".into())),
            (
                "snapshot_version",
                Json::Str(cohortnet::snapshot::SNAPSHOT_VERSION.into()),
            ),
            (
                "snapshot_fingerprint",
                Json::Str(self.loaded.fingerprint_hex()),
            ),
            ("n_features", Json::Num(inf.n_features() as f64)),
            ("time_steps", Json::Num(inf.time_steps() as f64)),
            ("n_labels", Json::Num(inf.n_labels() as f64)),
            ("has_cohorts", Json::Bool(inf.has_cohorts())),
            (
                "simd_backend",
                Json::Str(cohortnet_tensor::simd::active().name().into()),
            ),
            ("quant", Json::Bool(self.engine.quantized())),
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

    /// The `GET /debug/config` body: every resolved knob the server is
    /// actually running with, plus the snapshot fingerprint, kernel path
    /// and observability state — one curl for "what is this process?".
    fn debug_config_body(&self, ctl: &ServerCtl<'_>) -> String {
        let cfg = self.engine.config();
        json::render(&obj(vec![
            (
                "snapshot_fingerprint",
                Json::Str(self.loaded.fingerprint_hex()),
            ),
            (
                "simd_backend",
                Json::Str(cohortnet_tensor::simd::active().name().into()),
            ),
            ("quant", Json::Bool(self.engine.quantized())),
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
}

/// One flight-recorder entry as a JSON object (the `/debug/requests`
/// row shape).
fn flight_record_json(r: &FlightRecord) -> Json {
    obj(vec![
        ("seq", Json::Num(r.seq as f64)),
        ("rid", Json::Str(r.rid.as_str().to_string())),
        ("trace", Json::Str(r.trace_hex())),
        ("route", Json::Str(r.route.as_str().to_string())),
        ("status", Json::Num(f64::from(r.status))),
        ("total_us", Json::Num(f64::from(r.total_us))),
        ("accept_us", Json::Num(f64::from(r.stage.accept_us))),
        ("queue_us", Json::Num(f64::from(r.stage.queue_us))),
        ("batch_wait_us", Json::Num(f64::from(r.stage.batch_wait_us))),
        ("compute_us", Json::Num(f64::from(r.stage.compute_us))),
        ("handoff_us", Json::Num(f64::from(r.stage.handoff_us))),
        ("render_us", Json::Num(f64::from(r.stage.render_us))),
        ("write_us", Json::Num(f64::from(r.stage.write_us))),
        ("batch_size", Json::Num(f64::from(r.stage.batch_size))),
        ("replica", Json::Num(f64::from(r.stage.replica))),
    ])
}

/// Renders the `GET /debug/requests` body from a flight recorder. The
/// query string selects the view: `view=recent` (default, newest first),
/// `view=slowest` (by total latency), `view=errors` (status ≥ 400, newest
/// first); `n=<count>` caps the rows (default 32). Shared by the
/// single-model server and the fleet router so both triage surfaces read
/// identically.
pub fn debug_requests_body(flight: &FlightRecorder, query: &str) -> String {
    let view = query_param(query, "view").unwrap_or("recent");
    let n = query_param(query, "n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(32)
        .min(FLIGHT_SLOTS);
    let mut records = flight.snapshot();
    match view {
        "slowest" => records.sort_by_key(|r| std::cmp::Reverse(r.total_us)),
        "errors" => records.retain(|r| r.status >= 400),
        _ => {}
    }
    records.truncate(n);
    json::render(&obj(vec![
        ("view", Json::Str(view.to_string())),
        ("total", Json::Num(flight.total() as f64)),
        ("dropped", Json::Num(flight.dropped() as f64)),
        (
            "requests",
            Json::Arr(records.iter().map(flight_record_json).collect()),
        ),
    ]))
}

/// Handles `GET /debug/trace`: `?on` enables the process-wide trace
/// collector, `?off` disables it, no argument just reports. Shared by the
/// single-model server and the fleet router.
pub fn debug_trace_body(query: &str) -> String {
    if query_param(query, "on").is_some() {
        cohortnet_obs::trace::enable();
    } else if query_param(query, "off").is_some() {
        cohortnet_obs::trace::disable();
    }
    json::render(&obj(vec![(
        "tracing",
        Json::Bool(cohortnet_obs::trace::enabled()),
    )]))
}

/// Renders the `/explain` response for one instance body against a loaded
/// model, using `inf` only for its shape. Shared by the single-model
/// server and the fleet router.
pub fn explain_response(loaded: &LoadedModel, inf: &Inferencer, body: &str) -> (u16, String) {
    if loaded.model.discovery.is_none() {
        return (
            409,
            error_body("snapshot has no discovery artefacts; /explain needs a trained pool"),
        );
    }
    let parsed = match json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, error_body(&format!("invalid json: {e}"))),
    };
    let score_req = match parse_instance(&parsed) {
        Ok(r) => r,
        Err(why) => return (400, error_body(why.as_str())),
    };
    let (nf, t_steps, nl) = (inf.n_features(), inf.time_steps(), inf.n_labels());
    if score_req.x.len() != t_steps * nf || score_req.mask.len() != nf {
        return (
            400,
            error_body(&format!(
                "instance shapes must be x: {} (= {t_steps} x {nf}), mask: {nf}",
                t_steps * nf
            )),
        );
    }
    // explain_patient works on a prepared dataset; wrap the single instance
    // as a one-patient dataset with dummy labels (labels are unused by the
    // explanation itself).
    let prep = Prepared {
        n_features: nf,
        time_steps: t_steps,
        n_labels: nl,
        patients: vec![PreparedPatient {
            x: score_req.x,
            mask: score_req.mask,
            labels: vec![0.0; nl],
            labels_u8: vec![0; nl],
        }],
    };
    let exp = explain_patient(&loaded.model, &loaded.params, &prep, 0);
    let cohorts = Json::Arr(
        exp.cohorts
            .iter()
            .map(|c| {
                obj(vec![
                    ("feature", Json::Num(c.feature as f64)),
                    ("cohort", Json::Num(c.cohort as f64)),
                    ("beta", Json::Num(f64::from(c.beta))),
                    ("score", Json::Num(f64::from(c.score))),
                    (
                        "matched_steps",
                        Json::Arr(
                            c.matched_steps
                                .iter()
                                .map(|&t| Json::Num(t as f64))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    let attention = Json::Arr(
        exp.attention
            .iter()
            .map(|m| Json::Arr((0..m.rows()).map(|r| num_arr(m.row(r))).collect()))
            .collect(),
    );
    let body = obj(vec![
        ("base_prob", num_arr(&exp.base_prob)),
        ("full_prob", num_arr(&exp.full_prob)),
        ("feature_scores", num_arr(&exp.feature_scores)),
        ("cohorts", cohorts),
        ("attention", attention),
    ]);
    (200, json::render(&body))
}

/// Renders the `GET /cohorts` body for a loaded model. Shared by the
/// single-model server and the fleet router.
pub fn cohorts_json(loaded: &LoadedModel) -> String {
    let Some(d) = loaded.model.discovery.as_ref() else {
        return json::render(&obj(vec![
            ("has_cohorts", Json::Bool(false)),
            ("features", Json::Arr(Vec::new())),
        ]));
    };
    let pool = &d.pool;
    let features = Json::Arr(
        pool.per_feature
            .iter()
            .enumerate()
            .map(|(i, cohorts)| {
                let mask = Json::Arr(pool.masks[i].iter().map(|&f| Json::Num(f as f64)).collect());
                let rows = Json::Arr(
                    cohorts
                        .iter()
                        .enumerate()
                        .map(|(q, c)| {
                            let pattern = Json::Arr(
                                c.pattern
                                    .iter()
                                    .map(|&(f, s)| {
                                        Json::Arr(vec![
                                            Json::Num(f as f64),
                                            Json::Num(f64::from(s)),
                                        ])
                                    })
                                    .collect(),
                            );
                            obj(vec![
                                ("cohort", Json::Num(q as f64)),
                                ("pattern", pattern),
                                ("frequency", Json::Num(c.frequency as f64)),
                                ("n_patients", Json::Num(c.n_patients as f64)),
                                ("pos_rate", num_arr(&c.pos_rate)),
                            ])
                        })
                        .collect(),
                );
                obj(vec![
                    ("feature", Json::Num(i as f64)),
                    ("mask", mask),
                    ("cohorts", rows),
                ])
            })
            .collect(),
    );
    json::render(&obj(vec![
        ("has_cohorts", Json::Bool(true)),
        ("features", features),
    ]))
}
