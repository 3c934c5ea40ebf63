//! The ops router: the routes every serving app shares, answered once.
//!
//! The transport hands each request to `handle`. The app's own domain
//! routes go first ([`App::route`]: `/score` for the single-model server,
//! `/score` + `/admin/reload` for the fleet router, `/ingest` +
//! `/sessions…` for the streaming server). Whatever the app does not claim
//! lands on the shared table below:
//!
//! * `GET /healthz`, `GET /debug/config` and `GET /metrics` render the
//!   app's own bodies ([`App::healthz_body`], [`App::debug_config_body`],
//!   [`App::metrics_text`]);
//! * `GET /debug/requests` and `GET /debug/trace` read the transport's
//!   flight recorder and the process-wide trace switch;
//! * `POST /explain` and `GET /cohorts` read the app's served model
//!   ([`App::model`]) — the paper's Fig. 9 decomposition and the Table 2
//!   cohort pool;
//! * `POST /shutdown` asks the transport to drain.
//!
//! A wrong method on any route answers the `405` naming the right one
//! ([`on`], which the apps' domain routes use too); an unknown path
//! answers `404`.

use cohortnet::infer::Inferencer;
use cohortnet::interpret::explain_patient;
use cohortnet::snapshot::LoadedModel;
use cohortnet_models::data::{Prepared, PreparedPatient};
use cohortnet_obs::flight::{FlightRecord, FlightRecorder, FLIGHT_SLOTS};

use crate::http::{query_param, Request};
use crate::json::{self, num_arr, obj, Json};
use crate::server::{error_body, parse_instance, App, AppResponse, ServerCtl};

/// The content type `GET /metrics` answers with.
const PROMETHEUS_CT: &str = "text/plain; version=0.0.4";

/// Routes one request: the app's domain routes first, then the shared ops
/// routes, then `404`.
pub(crate) fn handle(app: &dyn App, req: &Request, ctl: &ServerCtl<'_>) -> AppResponse {
    if let Some(resp) = app.route(req) {
        return resp;
    }
    let ok = |body: String| AppResponse::json(200, body);
    match req.path.as_str() {
        "/healthz" => on(req, "GET", || ok(app.healthz_body())),
        "/metrics" => on(req, "GET", || AppResponse {
            status: 200,
            content_type: PROMETHEUS_CT,
            body: app.metrics_text(),
            close: false,
        }),
        "/debug/requests" => on(req, "GET", || {
            ok(debug_requests_body(ctl.flight(), &req.query))
        }),
        "/debug/config" => on(req, "GET", || ok(app.debug_config_body(ctl))),
        "/debug/trace" => on(req, "GET", || ok(debug_trace_body(&req.query))),
        "/explain" => on(req, "POST", || {
            let model = app.model();
            let (status, body) = explain_response(&model.loaded, &model.inferencer, &req.body);
            AppResponse::json(status, body)
        }),
        "/cohorts" => on(req, "GET", || ok(cohorts_json(&app.model().loaded))),
        // `/shutdown` always closes: the loop is about to drain anyway, and
        // promising keep-alive on a dying connection helps nobody.
        "/shutdown" => on(req, "POST", || {
            ctl.request_stop();
            ok(shutdown_body()).closing()
        }),
        _ => AppResponse::json(404, error_body("unknown endpoint")),
    }
}

/// Answers `req` through `handler` when it uses `method`, and with the
/// `405` naming `method` otherwise.
pub fn on(req: &Request, method: &str, handler: impl FnOnce() -> AppResponse) -> AppResponse {
    if req.method == method {
        handler()
    } else {
        AppResponse::json(405, error_body(&format!("use {method} for this endpoint")))
    }
}

/// The `/debug/config` `transcendentals` object: `"vector"` or `"libm"`
/// for each of `exp` and `tanh` on the active SIMD backend, so a replica
/// whose start-up self-check fell back to libm shows.
pub fn transcendentals() -> Json {
    Json::Obj(
        cohortnet_tensor::math::Func::ALL
            .iter()
            .map(|f| (f.name().to_string(), Json::Str(f.path().into())))
            .collect(),
    )
}

/// The `{"status": "shutting down"}` body `POST /shutdown` answers with.
fn shutdown_body() -> String {
    json::render(&obj(vec![("status", Json::Str("shutting down".into()))]))
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
        ("app_us", Json::Num(f64::from(r.stage.app_us))),
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
/// first); `n=<count>` caps the rows (default 32).
fn debug_requests_body(flight: &FlightRecorder, query: &str) -> String {
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
/// collector, `?off` disables it, no argument just reports.
fn debug_trace_body(query: &str) -> String {
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
/// model, using `inf` only for its shape.
fn explain_response(loaded: &LoadedModel, inf: &Inferencer, body: &str) -> (u16, String) {
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

/// Renders the `GET /cohorts` body for a loaded model.
fn cohorts_json(loaded: &LoadedModel) -> String {
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
