//! Event-stream ingestion and online scoring — the `/ingest` surface.
//!
//! [`serve_stream`] runs a [`StreamApp`] behind the same event-loop
//! transport as [`crate::serve`]: `/score` and the bodies the shared ops
//! routes render (`/healthz`, `/metrics`, `/debug/config`, the served
//! model behind `/explain` and `/cohorts`) are delegated verbatim to the
//! inner scoring app, and three streaming routes are layered on top:
//!
//! * `POST /ingest` — body `{"session": id, "events": [{"f": feature,
//!   "t": hours, "v": value}, ...], "score": bool}` (score defaults to
//!   true). Events are applied in order to the named session's
//!   [`StreamSession`]; the first invalid event fails the request with
//!   `400` (earlier events in the batch stay applied — ingestion is
//!   per-event, exactly like the wire would deliver them). With
//!   `"score": true` the response embeds the re-scored prediction in the
//!   `/score` row shape.
//! * `GET /sessions` — every live session's counters;
//!   `POST /sessions/<id>/score` — scores the session's current window and
//!   renders **byte-identical** `/score` output for one instance (this is
//!   the endpoint the identity harness diffs against the batch server);
//!   `DELETE /sessions/<id>` — explicit eviction.
//!
//! Sessions are ephemeral by design: they live in server memory, never in
//! the snapshot (see `DESIGN.md` §14 and the mid-stream snapshot tests).
//! An idle sweep plus an LRU cap bound the store; streaming scores run
//! directly on the worker thread through
//! [`cohortnet::infer::Inferencer::score_one_with_cache`] — they never
//! enter the batching engine, so a poisoned session can degrade to a typed
//! `500` without touching the batch path. Chaos sites: `stream.ingest.drop`
//! (503 before any state change), `stream.session.evict` (410 + eviction),
//! `stream.score` (panic inside the score, caught and converted to session
//! poisoning).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cohortnet::snapshot::LoadedModel;
use cohortnet::stream::{StreamConfig, StreamEvent, StreamSession, DEFAULT_HORIZON_HOURS};
use cohortnet_obs::span::span;

use crate::engine::RowScore;
use crate::http::Request;
use crate::json::{self, obj, Json};
use crate::metrics::Metrics;
use crate::ops::on;
use crate::server::{
    error_body, row_to_json, score_rows_response, serve_app, App, AppResponse, ScoreApp,
    ServedModel, Server, ServerConfig, ServerCtl,
};

/// Knobs specific to the streaming server, over and above [`ServerConfig`].
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Hours of wall clock the model's `T` bins cover (0.0 = the 48-hour
    /// [`DEFAULT_HORIZON_HOURS`] every synthetic profile uses).
    pub horizon_hours: f32,
    /// Idle eviction: a session untouched for this long is dropped on the
    /// next sweep (0 = [`DEFAULT_SESSION_IDLE`]).
    pub session_idle_ms: u64,
    /// Maximum live sessions; beyond it the least-recently-active session
    /// is evicted (0 = [`DEFAULT_MAX_SESSIONS`]).
    pub max_sessions: usize,
}

/// Default idle eviction window: five minutes.
pub const DEFAULT_SESSION_IDLE: Duration = Duration::from_secs(300);

/// Default live-session cap.
pub const DEFAULT_MAX_SESSIONS: usize = 1024;

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            horizon_hours: 0.0,
            session_idle_ms: 0,
            max_sessions: 0,
        }
    }
}

impl StreamOptions {
    fn effective_horizon(&self) -> f32 {
        if self.horizon_hours > 0.0 {
            self.horizon_hours
        } else {
            DEFAULT_HORIZON_HOURS
        }
    }

    fn effective_idle(&self) -> Duration {
        if self.session_idle_ms == 0 {
            DEFAULT_SESSION_IDLE
        } else {
            Duration::from_millis(self.session_idle_ms)
        }
    }

    fn effective_max_sessions(&self) -> usize {
        if self.max_sessions == 0 {
            DEFAULT_MAX_SESSIONS
        } else {
            self.max_sessions
        }
    }
}

/// Mutable per-session state behind the slot lock.
struct SessionState {
    session: StreamSession,
    /// A scoring panic (chaos or real) poisons only this session; every
    /// later request on it gets a typed `500` and the slot is evicted.
    /// Eviction itself always happens *after* the entry lock is dropped:
    /// the map lock is ordered before entry locks (`handle_sessions_list`
    /// takes map → entry), so taking the map lock while holding an entry
    /// lock would invert the order and deadlock.
    poisoned: bool,
    /// Ingest instants not yet covered by a score — drained into the
    /// staleness histogram when the next score lands. Bounded at
    /// [`MAX_PENDING_STALENESS`]: past the cap the oldest (worst-staleness)
    /// instants are kept and new ones dropped, so a session that only ever
    /// ingests with `"score": false` cannot grow this without bound.
    pending: Vec<Instant>,
}

/// Cap on un-scored ingest instants kept per session for the staleness
/// histogram.
const MAX_PENDING_STALENESS: usize = 4096;

/// One session slot: the state mutex plus an activity stamp the sweep can
/// read without taking the state lock.
struct Slot {
    entry: Mutex<SessionState>,
    /// Microseconds since the app's epoch at last touch.
    last_active_us: AtomicU64,
}

/// The streaming application: an inner [`ScoreApp`] for the whole batch
/// surface plus the session store for `/ingest` and `/sessions`.
pub(crate) struct StreamApp {
    score: ScoreApp,
    cfg: StreamConfig,
    idle: Duration,
    max_sessions: usize,
    sessions: Mutex<HashMap<String, Arc<Slot>>>,
    epoch: Instant,
    metrics: Arc<Metrics>,
}

/// Binds the listener and runs the streaming server: the single-model
/// scoring surface plus `/ingest` + `/sessions` session management.
///
/// # Errors
/// Propagates listener bind and reactor setup failures.
pub fn serve_stream(
    loaded: LoadedModel,
    cfg: ServerConfig,
    opts: StreamOptions,
) -> std::io::Result<Server> {
    let (app, metrics) = StreamApp::build(loaded, &cfg, &opts);
    serve_app(Arc::new(app), cfg.transport(), metrics)
}

/// Decoded `POST /ingest` body.
struct IngestBody {
    session: String,
    events: Vec<StreamEvent>,
    score: bool,
}

/// Decodes `{"session": id, "events": [{"f","t","v"}...], "score": bool}`.
fn parse_ingest(body: &str) -> Result<IngestBody, String> {
    let parsed = json::parse(body).map_err(|e| format!("invalid json: {e}"))?;
    let session = parsed
        .get("session")
        .and_then(Json::as_str)
        .ok_or("body needs a string field \"session\"")?;
    if session.is_empty() || session.len() > 128 {
        return Err("\"session\" must be 1..=128 characters".into());
    }
    let events_json = parsed
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("body needs an array field \"events\"")?;
    let mut events = Vec::with_capacity(events_json.len());
    for (i, ev) in events_json.iter().enumerate() {
        let f = ev
            .get("f")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: needs a numeric field \"f\""))?;
        let t = ev
            .get("t")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: needs a numeric field \"t\""))?;
        let v = ev
            .get("v")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: needs a numeric field \"v\""))?;
        if f < 0.0 || f.fract() != 0.0 || f > usize::MAX as f64 {
            return Err(format!("event {i}: \"f\" must be a non-negative integer"));
        }
        events.push(StreamEvent {
            feature: f as usize,
            ts: t as f32,
            value: v as f32,
        });
    }
    let score = parsed.get("score").and_then(Json::as_bool).unwrap_or(true);
    Ok(IngestBody {
        session: session.to_string(),
        events,
        score,
    })
}

impl StreamApp {
    fn build(
        loaded: LoadedModel,
        cfg: &ServerConfig,
        opts: &StreamOptions,
    ) -> (Self, Arc<Metrics>) {
        let (score, metrics) = ScoreApp::build(loaded, cfg);
        let stream_cfg =
            StreamConfig::for_inferencer(&score.model.inferencer, opts.effective_horizon());
        let app = StreamApp {
            score,
            cfg: stream_cfg,
            idle: opts.effective_idle(),
            max_sessions: opts.effective_max_sessions(),
            sessions: Mutex::new(HashMap::new()),
            epoch: Instant::now(),
            metrics: Arc::clone(&metrics),
        };
        (app, metrics)
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Idle + LRU eviction, run with the map lock held. Updates the active
    /// gauge and the evicted counter.
    fn sweep(&self, map: &mut HashMap<String, Arc<Slot>>) {
        let now = self.now_us();
        let idle_us = self.idle.as_micros() as u64;
        let before = map.len();
        map.retain(|_, slot| {
            now.saturating_sub(slot.last_active_us.load(Ordering::Relaxed)) <= idle_us
        });
        let mut evicted = (before - map.len()) as u64;
        while map.len() > self.max_sessions {
            let lru = map
                .iter()
                .min_by_key(|(_, s)| s.last_active_us.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            match lru {
                Some(k) => {
                    map.remove(&k);
                    evicted += 1;
                }
                None => break,
            }
        }
        if evicted > 0 {
            self.metrics.stream_sessions_evicted.add(evicted);
        }
        self.metrics.stream_sessions_active.set(map.len() as i64);
    }

    /// Fetches or creates the named session, touching its activity stamp
    /// and sweeping the store either way.
    fn get_or_create(&self, id: &str) -> Arc<Slot> {
        let mut map = self.sessions.lock().expect("session map poisoned");
        self.sweep(&mut map);
        if let Some(slot) = map.get(id) {
            slot.last_active_us.store(self.now_us(), Ordering::Relaxed);
            return Arc::clone(slot);
        }
        let slot = Arc::new(Slot {
            entry: Mutex::new(SessionState {
                session: StreamSession::new(self.cfg, self.score.model.loaded.scaler.clone()),
                poisoned: false,
                pending: Vec::new(),
            }),
            last_active_us: AtomicU64::new(self.now_us()),
        });
        map.insert(id.to_string(), Arc::clone(&slot));
        self.sweep(&mut map);
        slot
    }

    fn lookup(&self, id: &str) -> Option<Arc<Slot>> {
        let map = self.sessions.lock().expect("session map poisoned");
        map.get(id).map(|slot| {
            slot.last_active_us.store(self.now_us(), Ordering::Relaxed);
            Arc::clone(slot)
        })
    }

    /// Removes the session outright. Returns whether it existed.
    fn evict(&self, id: &str) -> bool {
        let mut map = self.sessions.lock().expect("session map poisoned");
        let existed = map.remove(id).is_some();
        if existed {
            self.metrics.stream_sessions_evicted.inc();
        }
        self.metrics.stream_sessions_active.set(map.len() as i64);
        existed
    }

    /// Scores one session's current window on this worker thread (never
    /// through the batching engine), with the `stream.score` chaos site and
    /// panic containment: a panic poisons only this session and returns the
    /// typed `500`. The *caller* must then drop the entry guard and call
    /// [`StreamApp::evict`] — evicting here would take the map lock while
    /// the entry lock is held, inverting the map → entry lock order used by
    /// `handle_sessions_list` and deadlocking against it.
    fn score_session(
        &self,
        state: &mut SessionState,
    ) -> Result<cohortnet::infer::DetailedScore, AppResponse> {
        let _sp = span("stream.score");
        let (full_before, reused_before) = state.session.probe_stats();
        let inf = &self.score.model.inferencer;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            cohortnet_chaos::panic_if_fires("stream.score");
            state.session.score(inf)
        }));
        match outcome {
            Ok(detail) => {
                let now = Instant::now();
                for t in state.pending.drain(..) {
                    self.metrics
                        .stream_staleness_us
                        .observe(now.duration_since(t).as_micros() as u64);
                }
                let (full_after, reused_after) = state.session.probe_stats();
                self.metrics
                    .stream_probes_full
                    .add(full_after - full_before);
                self.metrics
                    .stream_probes_reused
                    .add(reused_after - reused_before);
                self.metrics.stream_scores.inc();
                Ok(detail)
            }
            Err(_) => {
                state.poisoned = true;
                Err(AppResponse::json(
                    500,
                    error_body("session scoring panicked; session evicted"),
                ))
            }
        }
    }

    fn handle_ingest(&self, body: &str) -> AppResponse {
        let _sp = span("stream.ingest");
        if cohortnet_chaos::fires("stream.ingest.drop") {
            self.metrics.stream_ingest_dropped.inc();
            return AppResponse::json(503, error_body("chaos: ingest dropped"));
        }
        let ingest = match parse_ingest(body) {
            Ok(v) => v,
            Err(why) => return AppResponse::json(400, error_body(&why)),
        };
        if cohortnet_chaos::fires("stream.session.evict") {
            self.evict(&ingest.session);
            return AppResponse::json(
                410,
                error_body("chaos: session evicted; re-ingest to rebuild"),
            );
        }
        let slot = self.get_or_create(&ingest.session);
        let mut state = slot.entry.lock().expect("session lock poisoned");
        if state.poisoned {
            drop(state);
            self.evict(&ingest.session);
            return AppResponse::json(500, error_body("session poisoned; session evicted"));
        }
        let (mut ingested, mut stale) = (0u64, 0u64);
        {
            let _sp = span("stream.apply");
            for (i, ev) in ingest.events.iter().enumerate() {
                match state.session.ingest(*ev) {
                    Ok(out) => {
                        if out.accepted {
                            ingested += 1;
                            if state.pending.len() < MAX_PENDING_STALENESS {
                                state.pending.push(Instant::now());
                            }
                        } else {
                            stale += 1;
                        }
                    }
                    Err(e) => {
                        self.metrics.stream_events.add(ingested);
                        self.metrics.stream_events_stale.add(stale);
                        return AppResponse::json(400, error_body(&format!("event {i}: {e}")));
                    }
                }
            }
        }
        self.metrics.stream_events.add(ingested);
        self.metrics.stream_events_stale.add(stale);
        let prediction = if ingest.score {
            match self.score_session(&mut state) {
                Ok(detail) => Some(row_to_json(&RowScore::from_output(&detail.output, 0))),
                Err(resp) => {
                    // Evict only after releasing the entry lock (map lock is
                    // ordered before entry locks — see score_session docs).
                    drop(state);
                    self.evict(&ingest.session);
                    return resp;
                }
            }
        } else {
            None
        };
        let mut pairs = vec![
            ("session", Json::Str(ingest.session.clone())),
            ("ingested", Json::Num(ingested as f64)),
            ("stale", Json::Num(stale as f64)),
            (
                "window_start",
                Json::Num(f64::from(state.session.window_start())),
            ),
            (
                "events_total",
                Json::Num(state.session.events_total() as f64),
            ),
            ("stale_total", Json::Num(state.session.stale_total() as f64)),
            (
                "scores_total",
                Json::Num(state.session.scores_total() as f64),
            ),
        ];
        if let Some(p) = prediction {
            pairs.push(("prediction", p));
        }
        slot.last_active_us.store(self.now_us(), Ordering::Relaxed);
        AppResponse::json(200, json::render(&obj(pairs)))
    }

    /// `POST /sessions/<id>/score`: the current window rendered through the
    /// exact `/score` response path for one instance — the bytes the
    /// identity harness diffs against the batch server.
    fn handle_session_score(&self, id: &str) -> AppResponse {
        let Some(slot) = self.lookup(id) else {
            return AppResponse::json(404, error_body("unknown session"));
        };
        let mut state = slot.entry.lock().expect("session lock poisoned");
        if state.poisoned {
            drop(state);
            self.evict(id);
            return AppResponse::json(500, error_body("session poisoned; session evicted"));
        }
        match self.score_session(&mut state) {
            Ok(detail) => {
                let row = RowScore::from_output(&detail.output, 0);
                let (status, body) = score_rows_response(&[Ok(row)]);
                AppResponse::json(status, body)
            }
            Err(resp) => {
                drop(state);
                self.evict(id);
                resp
            }
        }
    }

    fn handle_sessions_list(&self) -> AppResponse {
        // Snapshot the slots and release the map lock before taking any
        // session lock: a session busy scoring must not hold every other
        // session's `/ingest` behind the map lock.
        let mut slots: Vec<(String, Arc<Slot>)> = {
            let map = self.sessions.lock().expect("session map poisoned");
            map.iter()
                .map(|(id, slot)| (id.clone(), Arc::clone(slot)))
                .collect()
        };
        slots.sort_by(|a, b| a.0.cmp(&b.0));
        let sessions = Json::Arr(
            slots
                .iter()
                .map(|(id, slot)| {
                    let state = slot.entry.lock().expect("session lock poisoned");
                    obj(vec![
                        ("session", Json::Str(id.clone())),
                        (
                            "window_start",
                            Json::Num(f64::from(state.session.window_start())),
                        ),
                        (
                            "events_total",
                            Json::Num(state.session.events_total() as f64),
                        ),
                        ("stale_total", Json::Num(state.session.stale_total() as f64)),
                        (
                            "scores_total",
                            Json::Num(state.session.scores_total() as f64),
                        ),
                        ("poisoned", Json::Bool(state.poisoned)),
                    ])
                })
                .collect(),
        );
        AppResponse::json(
            200,
            json::render(&obj(vec![
                ("active", Json::Num(slots.len() as f64)),
                ("sessions", sessions),
            ])),
        )
    }

    fn handle_session_delete(&self, id: &str) -> AppResponse {
        if self.evict(id) {
            AppResponse::json(200, json::render(&obj(vec![("evicted", Json::Bool(true))])))
        } else {
            AppResponse::json(404, error_body("unknown session"))
        }
    }
}

impl App for StreamApp {
    fn route(&self, req: &Request) -> Option<AppResponse> {
        let path = req.path.as_str();
        Some(match path {
            "/ingest" => on(req, "POST", || self.handle_ingest(&req.body)),
            "/sessions" => on(req, "GET", || self.handle_sessions_list()),
            _ => match path.strip_prefix("/sessions/") {
                Some(rest) => match rest.strip_suffix("/score") {
                    Some(id) => on(req, "POST", || self.handle_session_score(id)),
                    None => on(req, "DELETE", || self.handle_session_delete(rest)),
                },
                None => return self.score.route(req),
            },
        })
    }

    fn model(&self) -> Arc<ServedModel> {
        self.score.model()
    }

    fn healthz_body(&self) -> String {
        self.score.healthz_body()
    }

    fn debug_config_body(&self, ctl: &ServerCtl<'_>) -> String {
        self.score.debug_config_body(ctl)
    }

    fn metrics_text(&self) -> String {
        self.score.metrics_text()
    }

    fn on_drained(&self) {
        self.score.on_drained();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::demo_bundle;
    use cohortnet::snapshot::load_snapshot;
    use std::sync::mpsc;
    use std::thread;

    /// A `GET /sessions` waiting on one busy session does not stall
    /// `/ingest` into another: thread 1 (the test) holds session `a`'s
    /// lock, thread 2 lists the sessions and waits on `a`, thread 3 ingests
    /// into `b` and must finish while `a` is still held.
    #[test]
    fn session_list_waiting_on_a_busy_session_does_not_stall_ingest() {
        let loaded = load_snapshot(&demo_bundle().snapshot).expect("demo snapshot loads");
        let (app, _metrics) =
            StreamApp::build(loaded, &ServerConfig::default(), &StreamOptions::default());
        let app = Arc::new(app);
        let a = app.get_or_create("a");
        app.get_or_create("b");

        let held = a.entry.lock().expect("session lock");
        let lister = thread::spawn({
            let app = Arc::clone(&app);
            move || app.handle_sessions_list()
        });
        // Let the list reach session `a`'s lock.
        thread::sleep(Duration::from_millis(200));
        let (done, finished) = mpsc::channel();
        let ingester = thread::spawn({
            let app = Arc::clone(&app);
            move || {
                let body = r#"{"session":"b","events":[{"f":0,"t":1,"v":0.5}],"score":false}"#;
                let _ = done.send(app.handle_ingest(body).status);
            }
        });
        let ingested = finished.recv_timeout(Duration::from_secs(20));
        drop(held);
        let listed = lister.join().expect("list thread");
        ingester.join().expect("ingest thread");
        assert_eq!(
            ingested.expect("ingest into b stalled behind a list waiting on a"),
            200
        );
        assert_eq!(listed.status, 200);
        assert!(listed.body.contains("\"active\":2"), "{}", listed.body);
    }
}
