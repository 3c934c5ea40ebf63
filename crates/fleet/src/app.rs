//! The fleet router as a [`cohortnet_serve::App`], plus [`serve_fleet`].
//!
//! The router runs behind the identical event-loop transport and ops
//! router as the single-model server ([`cohortnet_serve::serve_app`],
//! [`cohortnet_serve::ops`]), which answer `/explain`, `/cohorts`, the
//! debug routes and `/shutdown` for it. The router's own routes are
//! `/score`, which dispatches to one of N replica engines, and
//! `POST /admin/reload`, which hot-swaps the serving snapshot
//! ([`crate::swap`]). What it supplies to the shared routes: a `/healthz`
//! and `/debug/config` that report the whole fleet, a `/metrics` that
//! renders the router's transport registry plus every replica's registry
//! labeled `replica="<id>"`, and the served model, swapped on reload.
//!
//! ## Zero-drop dispatch
//!
//! `/score` responses are produced by [`score_rows_response`] — the same
//! renderer the single-model server uses — so a fleet answer is byte-equal
//! to a single server's answer for the same snapshot. Dispatch retries
//! a whole-call [`EngineError::ShuttingDown`] on the next pick: a replica
//! mid-swap or mid-kill rejects only the requests that raced its drain,
//! and those re-dispatch (to the freshly swapped engine or a sibling)
//! instead of surfacing an error. Requests already *queued* in a draining
//! engine complete — [`cohortnet_serve::Engine::shutdown`] drains before
//! joining — which together is the zero-dropped-requests property the
//! fleet smoke proves under chaos.

use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex, RwLock};

use cohortnet::infer::ScoreRequest;
use cohortnet::snapshot::{fnv64, load_snapshot, SNAPSHOT_VERSION};
use cohortnet_obs::obs_info;
use cohortnet_serve::http::Request;
use cohortnet_serve::json::{self, obj, Json};
use cohortnet_serve::metrics::Metrics;
use cohortnet_serve::ops::on;
use cohortnet_serve::server::{error_body, parse_score_body, score_rows_response};
use cohortnet_serve::{
    serve_app, App, AppResponse, Engine, EngineConfig, EngineError, ServedModel, Server, ServerCtl,
    TransportConfig,
};

use crate::health::{HealthPolicy, HealthState};
use crate::pool::{DispatchPolicy, Replica, ReplicaPool};

/// Log target for fleet lifecycle events.
pub(crate) const LOG: &str = "cohortnet.fleet";

/// Chaos site: kill one replica mid-traffic. The site argument selects
/// the victim (`arg % n_replicas`); the replica is marked dead and its
/// engine shut down on a background thread. The last live replica is
/// never killed — the site models replica loss, not total outage.
pub const CHAOS_KILL_SITE: &str = "fleet.replica.kill";

/// Canary requests retained from live traffic for reload verification.
const CANARY_CAP: usize = 8;

/// Everything [`serve_fleet`] needs beyond the snapshot itself.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Replica engines to run (minimum 1).
    pub replicas: usize,
    /// How `/score` requests pick a replica.
    pub policy: DispatchPolicy,
    /// Batching knobs, applied to every replica engine.
    pub engine: EngineConfig,
    /// Serve the int8 quantized trunk instead of f32.
    pub quant: bool,
    /// Event-loop transport knobs (port, timeouts, limits).
    pub transport: TransportConfig,
    /// Health state-machine thresholds.
    pub health: HealthPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas: 3,
            policy: DispatchPolicy::LeastLoaded,
            engine: EngineConfig::default(),
            quant: false,
            transport: TransportConfig::default(),
            health: HealthPolicy::default(),
        }
    }
}

/// The fleet router.
pub struct FleetApp {
    pub(crate) pool: ReplicaPool,
    /// The serving model, swapped wholesale on reload; every replica
    /// engine shares its inferencer.
    pub(crate) model: RwLock<Arc<ServedModel>>,
    pub(crate) engine_cfg: EngineConfig,
    pub(crate) router_metrics: Arc<Metrics>,
    /// First [`CANARY_CAP`] score requests seen, for reload verification.
    pub(crate) canaries: Mutex<Vec<ScoreRequest>>,
    /// Serializes reloads; `try_lock` failure answers `409`.
    pub(crate) reload_lock: Mutex<()>,
    /// Total reloads applied, reported on `/healthz`.
    pub(crate) reloads: AtomicUsize,
}

impl FleetApp {
    fn capture_canaries(&self, reqs: &[ScoreRequest]) {
        let mut c = self.canaries.lock().expect("fleet canaries poisoned");
        for r in reqs {
            if c.len() >= CANARY_CAP {
                break;
            }
            c.push(r.clone());
        }
    }

    /// Chaos site [`CHAOS_KILL_SITE`]: checked once per `/score` dispatch.
    fn maybe_chaos_kill(&self) {
        let Some(arg) = cohortnet_chaos::arg_if_fires(CHAOS_KILL_SITE) else {
            return;
        };
        let replicas = self.pool.replicas();
        let alive = replicas
            .iter()
            .filter(|r| r.health_state() != HealthState::Dead)
            .count();
        if alive <= 1 {
            return;
        }
        let victim = &replicas[(arg as usize) % replicas.len()];
        if victim.health_state() == HealthState::Dead {
            return;
        }
        // Mark dead *before* the engine drain so no new dispatch picks the
        // victim; requests already queued in it still complete.
        victim.kill();
        obs_info!(target: LOG, "chaos replica kill", replica = victim.id);
        let engine = victim.engine();
        std::thread::Builder::new()
            .name(format!("fleet-kill-{}", victim.id))
            .spawn(move || engine.shutdown())
            .expect("spawn kill thread");
    }

    fn handle_score(&self, req: &Request) -> AppResponse {
        let (doc, reqs) = match parse_score_body(&req.body) {
            Ok(parsed) => parsed,
            Err(why) => return AppResponse::json(400, error_body(&why)),
        };
        self.capture_canaries(&reqs);
        self.maybe_chaos_kill();
        let key = patient_key(&doc);
        let n = self.pool.replicas().len();
        let mut tried: Vec<usize> = Vec::new();
        let mut last_err: Option<EngineError> = None;
        // Up to one attempt per replica plus slack for ShuttingDown
        // re-picks of the same replica (its engine is new after a swap).
        for _ in 0..n + 2 {
            let Some(replica) = self.pool.pick(key, &tried) else {
                break;
            };
            replica.begin_dispatch();
            let engine = replica.engine();
            let result = engine.score_many(reqs.clone());
            replica.end_dispatch();
            match result {
                Ok(rows) if rows.iter().all(row_shutting_down) => {
                    // The engine's batcher died under us mid-drain; the
                    // rows never scored, so this retries like a
                    // whole-call ShuttingDown.
                    last_err = Some(EngineError::ShuttingDown);
                }
                Ok(rows) => {
                    replica.note_result(true);
                    replica.note_served();
                    // Stage attribution: which replica actually served (a
                    // retried dispatch overwrites the failed attempt's id).
                    cohortnet_obs::stage::note_replica(replica.id as i32);
                    let (status, body) = score_rows_response(&rows);
                    return AppResponse::json(status, body);
                }
                Err(EngineError::ShuttingDown) => {
                    // Swap/kill drain artifact, not a health fault: the
                    // replica is *not* excluded, because after a swap the
                    // very same replica holds the fresh engine.
                    last_err = Some(EngineError::ShuttingDown);
                }
                Err(EngineError::Overloaded) => {
                    tried.push(replica.id);
                    last_err = Some(EngineError::Overloaded);
                }
                Err(e) => {
                    replica.note_result(false);
                    tried.push(replica.id);
                    last_err = Some(e);
                }
            }
        }
        let msg = last_err
            .map(|e| e.to_string())
            .unwrap_or_else(|| "no replica available".to_string());
        AppResponse::json(503, error_body(&msg))
    }
}

fn row_shutting_down(row: &Result<cohortnet_serve::RowScore, EngineError>) -> bool {
    matches!(row, Err(EngineError::ShuttingDown))
}

/// The consistent-hash key: FNV over the body's top-level `patient_id`
/// (string or number), `None` when absent.
fn patient_key(doc: &Json) -> Option<u64> {
    let pid = doc.get("patient_id")?;
    if let Some(s) = pid.as_str() {
        Some(fnv64(s.as_bytes()))
    } else {
        pid.as_f64().map(|v| fnv64(v.to_string().as_bytes()))
    }
}

impl App for FleetApp {
    fn route(&self, req: &Request) -> Option<AppResponse> {
        match req.path.as_str() {
            "/score" => Some(on(req, "POST", || self.handle_score(req))),
            "/admin/reload" => Some(on(req, "POST", || {
                let (status, body) = self.handle_reload(&req.body);
                AppResponse::json(status, body)
            })),
            _ => None,
        }
    }

    /// The current serving model (an `Arc` clone).
    fn model(&self) -> Arc<ServedModel> {
        Arc::clone(&self.model.read().expect("fleet model poisoned"))
    }

    fn healthz_body(&self) -> String {
        let model = self.model();
        let replicas = Json::Arr(
            self.pool
                .replicas()
                .iter()
                .map(|r| {
                    obj(vec![
                        ("id", Json::Num(r.id as f64)),
                        ("state", Json::Str(r.health_name().to_string())),
                        ("fingerprint", Json::Str(r.fingerprint_hex())),
                        ("load", Json::Num(r.load() as f64)),
                        ("served", Json::Num(r.served() as f64)),
                    ])
                })
                .collect(),
        );
        json::render(&obj(vec![
            ("status", Json::Str("ok".into())),
            ("role", Json::Str("fleet".into())),
            ("policy", Json::Str(self.pool.policy().name().into())),
            ("snapshot_version", Json::Str(SNAPSHOT_VERSION.into())),
            (
                "snapshot_fingerprint",
                Json::Str(model.loaded.fingerprint_hex()),
            ),
            ("quant", Json::Bool(model.inferencer.quantized())),
            (
                "reloads",
                Json::Num(self.reloads.load(std::sync::atomic::Ordering::Relaxed) as f64),
            ),
            ("n_replicas", Json::Num(self.pool.replicas().len() as f64)),
            ("replicas", replicas),
        ]))
    }

    fn debug_config_body(&self, ctl: &ServerCtl<'_>) -> String {
        let model = self.model();
        json::render(&obj(vec![
            ("role", Json::Str("fleet".into())),
            ("policy", Json::Str(self.pool.policy().name().into())),
            ("n_replicas", Json::Num(self.pool.replicas().len() as f64)),
            (
                "snapshot_fingerprint",
                Json::Str(model.loaded.fingerprint_hex()),
            ),
            (
                "simd_backend",
                Json::Str(cohortnet_tensor::simd::active().name().into()),
            ),
            ("transcendentals", cohortnet_serve::ops::transcendentals()),
            ("quant", Json::Bool(model.inferencer.quantized())),
            ("max_batch", Json::Num(self.engine_cfg.max_batch as f64)),
            (
                "max_delay_us",
                Json::Num(self.engine_cfg.max_delay_us as f64),
            ),
            ("deadline_ms", Json::Num(self.engine_cfg.deadline_ms as f64)),
            ("queue_cap", Json::Num(self.engine_cfg.queue_cap as f64)),
            ("engine_threads", Json::Num(self.engine_cfg.threads as f64)),
            (
                "reloads",
                Json::Num(self.reloads.load(std::sync::atomic::Ordering::Relaxed) as f64),
            ),
            ("trace_enabled", Json::Bool(cohortnet_obs::trace::enabled())),
            (
                "flight_slots",
                Json::Num(cohortnet_obs::flight::FLIGHT_SLOTS as f64),
            ),
            ("flight_total", Json::Num(ctl.flight().total() as f64)),
            ("flight_dropped", Json::Num(ctl.flight().dropped() as f64)),
        ]))
    }

    /// The router's transport registry + the process-global registry, then
    /// every replica's registry labeled `replica="<id>"`. Family HELP/TYPE
    /// headers repeat per replica — fine for this repo's test consumers,
    /// though a strict exposition parser would want them merged.
    fn metrics_text(&self) -> String {
        let mut out = self.router_metrics.render_prometheus();
        for r in self.pool.replicas() {
            out.push_str(&r.metrics.render_labeled("replica", &r.id.to_string()));
        }
        out
    }

    fn on_drained(&self) {
        for r in self.pool.replicas() {
            r.engine().shutdown();
        }
    }
}

/// Parses the snapshot, compiles one shared inferencer and `cfg.replicas`
/// engines around it, and starts the router on the event-loop transport.
///
/// # Errors
/// An [`std::io::ErrorKind::InvalidData`] error for a rejected snapshot;
/// listener/reactor failures propagate from [`serve_app`].
pub fn serve_fleet(snapshot_text: &str, cfg: FleetConfig) -> std::io::Result<Server> {
    let loaded = load_snapshot(snapshot_text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let inferencer = Arc::new(loaded.scorer(cfg.quant));
    let fingerprint = loaded.fingerprint;
    let n = cfg.replicas.max(1);
    let replicas: Vec<Arc<Replica>> = (0..n)
        .map(|id| {
            let metrics = Arc::new(Metrics::new());
            metrics.set_build_info(cohortnet_tensor::simd::active().name(), cfg.quant);
            let engine = Arc::new(Engine::start(
                Arc::clone(&inferencer),
                cfg.engine,
                Arc::clone(&metrics),
            ));
            Arc::new(Replica::new(id, engine, metrics, cfg.health, fingerprint))
        })
        .collect();
    let router_metrics = Arc::new(Metrics::new());
    router_metrics.set_build_info(cohortnet_tensor::simd::active().name(), cfg.quant);
    let app = Arc::new(FleetApp {
        pool: ReplicaPool::new(replicas, cfg.policy),
        model: RwLock::new(Arc::new(ServedModel { loaded, inferencer })),
        engine_cfg: cfg.engine,
        router_metrics: Arc::clone(&router_metrics),
        canaries: Mutex::new(Vec::new()),
        reload_lock: Mutex::new(()),
        reloads: AtomicUsize::new(0),
    });
    obs_info!(target: LOG, "fleet starting", replicas = n, policy = cfg.policy.name());
    serve_app(app, cfg.transport, router_metrics)
}
