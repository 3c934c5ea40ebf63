//! The shared ops surface, pinned for all three serving apps.
//!
//! `serve`, `serve_stream` and `serve_fleet` answer the same operational
//! routes (`/healthz`, `/metrics`, `/debug/{requests,config,trace}`,
//! `/explain`, `/cohorts`, `/shutdown`). This walks every one of them with
//! `GET`, `POST` and `DELETE`, plus an unknown path, on the demo snapshot,
//! and records status and body. The right method answers 200, a wrong one
//! the 405 naming the right one, the unknown path 404. `/explain` and
//! `/cohorts` bodies are byte-equal across the three apps, and each app's
//! `/debug/config` body is pinned key by key (objects render with sorted
//! keys). The bodies of `/metrics`, `/debug/requests` and `/healthz` vary
//! run to run and are not compared.
//! `/shutdown` goes last: its `POST` stops the server.

use std::net::SocketAddr;
use std::sync::OnceLock;

use cohortnet::snapshot::load_snapshot;
use cohortnet_fleet::{serve_fleet, FleetConfig};
use cohortnet_serve::client::request;
use cohortnet_serve::demo::{demo_bundle, DemoBundle};
use cohortnet_serve::{
    serve, serve_stream, EngineConfig, Server, ServerConfig, StreamOptions, TransportConfig,
};

/// One demo training run shared by every test in this binary.
fn bundle() -> &'static DemoBundle {
    static BUNDLE: OnceLock<DemoBundle> = OnceLock::new();
    BUNDLE.get_or_init(demo_bundle)
}

/// The shared routes with the one method each accepts, in walk order.
const ROUTES: [(&str, &str); 7] = [
    ("/healthz", "GET"),
    ("/metrics", "GET"),
    ("/debug/requests", "GET"),
    ("/debug/config", "GET"),
    ("/debug/trace", "GET"),
    ("/explain", "POST"),
    ("/cohorts", "GET"),
];

/// Routes whose 200 body changes from run to run.
const VOLATILE: [&str; 3] = ["/metrics", "/debug/requests", "/healthz"];

const METHODS: [&str; 3] = ["GET", "POST", "DELETE"];

/// One recorded exchange.
#[derive(Debug)]
struct Exchange {
    method: &'static str,
    path: &'static str,
    status: u16,
    body: String,
}

/// A one-instance `/explain` body for the first demo example; also sent to
/// every other `POST`.
fn instance_body() -> String {
    let join = |v: &[f32]| {
        v.iter()
            .map(|x| format!("{x}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let e = &bundle().examples[0];
    format!("{{\"x\":[{}],\"mask\":[{}]}}", join(&e.x), join(&e.mask))
}

/// Walks the whole surface in a fixed order, `POST /shutdown` last, and
/// waits for the server to drain.
fn walk(server: Server) -> Vec<Exchange> {
    let addr: SocketAddr = server.addr();
    let body = instance_body();
    let mut out = Vec::new();
    let mut send = |method: &'static str, path: &'static str| {
        let sent = if method == "POST" { body.as_str() } else { "" };
        let resp =
            request(addr, method, path, sent).unwrap_or_else(|e| panic!("{method} {path}: {e}"));
        out.push(Exchange {
            method,
            path,
            status: resp.status,
            body: resp.body,
        });
    };
    for (path, _) in ROUTES {
        for method in METHODS {
            send(method, path);
        }
    }
    for method in METHODS {
        send(method, "/no/such/route");
    }
    for method in ["GET", "DELETE", "POST"] {
        send(method, "/shutdown");
    }
    server.join();
    out
}

/// The status and, where it is stable, the body every app must answer.
fn expected(method: &str, path: &str) -> (u16, Option<String>) {
    if path == "/shutdown" {
        return match method {
            "POST" => (200, Some("{\"status\":\"shutting down\"}".into())),
            _ => (405, Some(wrong_method("POST"))),
        };
    }
    let Some(&(_, allowed)) = ROUTES.iter().find(|(p, _)| *p == path) else {
        return (404, Some("{\"error\":\"unknown endpoint\"}".into()));
    };
    if method != allowed {
        return (405, Some(wrong_method(allowed)));
    }
    if path == "/debug/trace" {
        let on = cohortnet_obs::trace::enabled();
        return (200, Some(format!("{{\"tracing\":{on}}}")));
    }
    (200, None)
}

fn wrong_method(allowed: &str) -> String {
    format!("{{\"error\":\"use {allowed} for this endpoint\"}}")
}

/// Checks one app's walk against the shared table; returns its
/// `/debug/config`, `/explain` and `/cohorts` bodies for the cross-app
/// checks.
fn check(app: &str, walk: &[Exchange]) -> (String, String, String) {
    let mut config = None;
    let mut explain = None;
    let mut cohorts = None;
    for ex in walk {
        let (status, body) = expected(ex.method, ex.path);
        assert_eq!(
            ex.status, status,
            "{app}: {} {} answered {}: {}",
            ex.method, ex.path, ex.status, ex.body
        );
        if let Some(body) = body {
            assert_eq!(ex.body, body, "{app}: {} {} body", ex.method, ex.path);
        }
        if status != 200 || VOLATILE.contains(&ex.path) {
            continue;
        }
        match ex.path {
            "/debug/config" => config = Some(ex.body.clone()),
            "/explain" => explain = Some(ex.body.clone()),
            "/cohorts" => cohorts = Some(ex.body.clone()),
            _ => {}
        }
    }
    (
        config.expect("a /debug/config body"),
        explain.expect("an /explain body"),
        cohorts.expect("a /cohorts body"),
    )
}

/// Requests the server completed before the walk reaches `/debug/config`:
/// three methods on each of the routes ahead of it.
const FLIGHT_BEFORE_CONFIG: usize = 9;

fn engine() -> EngineConfig {
    EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        port: 0,
        engine: engine(),
        ..ServerConfig::default()
    }
}

#[test]
fn every_app_answers_the_shared_routes_identically() {
    let text = &bundle().snapshot;
    let loaded = || load_snapshot(text).expect("demo snapshot loads");
    let fingerprint = loaded().fingerprint_hex();
    let simd = cohortnet_tensor::simd::active().name();
    let (exp, tanh) = {
        use cohortnet_tensor::math::Func;
        (Func::Exp.path(), Func::Tanh.path())
    };
    let transcendentals = format!("{{\"exp\":\"{exp}\",\"tanh\":\"{tanh}\"}}");

    let single = walk(serve(loaded(), server_config()).expect("serve starts"));
    let stream = walk(
        serve_stream(loaded(), server_config(), StreamOptions::default())
            .expect("serve_stream starts"),
    );
    let fleet = walk(
        serve_fleet(
            text,
            FleetConfig {
                replicas: 2,
                engine: engine(),
                transport: TransportConfig {
                    port: 0,
                    ..TransportConfig::default()
                },
                ..FleetConfig::default()
            },
        )
        .expect("serve_fleet starts"),
    );

    let trace = cohortnet_obs::trace::enabled();
    let n = FLIGHT_BEFORE_CONFIG;
    let single_config = format!(
        "{{\"deadline_ms\":0,\"engine_threads\":1,\"flight_dropped\":0,\
         \"flight_slots\":1024,\"flight_total\":{n},\"idle_timeout_ms\":30000,\
         \"max_batch\":16,\"max_delay_us\":0,\"quant\":false,\"queue_cap\":1024,\
         \"read_timeout_ms\":10000,\"simd_backend\":\"{simd}\",\
         \"snapshot_fingerprint\":\"{fingerprint}\",\"trace_enabled\":{trace},\
         \"transcendentals\":{transcendentals},\"workers\":16}}"
    );
    let fleet_config = format!(
        "{{\"deadline_ms\":0,\"engine_threads\":1,\"flight_dropped\":0,\
         \"flight_slots\":1024,\"flight_total\":{n},\"max_batch\":16,\
         \"max_delay_us\":0,\"n_replicas\":2,\"policy\":\"least-loaded\",\
         \"quant\":false,\"queue_cap\":1024,\"reloads\":0,\"role\":\"fleet\",\
         \"simd_backend\":\"{simd}\",\"snapshot_fingerprint\":\"{fingerprint}\",\
         \"trace_enabled\":{trace},\"transcendentals\":{transcendentals}}}"
    );

    let (config, explain, cohorts) = check("serve", &single);
    assert_eq!(config, single_config, "serve /debug/config");
    assert!(explain.starts_with("{\"attention\":["), "{explain}");
    assert!(explain.contains("\"base_prob\":["), "{explain}");
    assert!(cohorts.ends_with(",\"has_cohorts\":true}"), "{cohorts}");
    for (app, walk, want_config) in [
        ("serve_stream", &stream, &single_config),
        ("serve_fleet", &fleet, &fleet_config),
    ] {
        let (c, e, h) = check(app, walk);
        assert_eq!(&c, want_config, "{app} /debug/config");
        assert_eq!(e, explain, "{app} /explain differs from serve");
        assert_eq!(h, cohorts, "{app} /cohorts differs from serve");
    }
}
