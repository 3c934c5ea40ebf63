//! The three serving workloads: `score`, `ingest` and `fleet_quant`.
//!
//! Each sets up the fixed-seed serving model behind its server, offers
//! open-loop load at a fixed reference rate (latency) and then up a fixed
//! ladder of rates (`max_rps`), and checks every response against the
//! program's from-scratch oracles.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use cohortnet::infer::{Inferencer, ScoreRequest};
use cohortnet::quant::QuantInferencer;
use cohortnet::snapshot::{load_snapshot, save_snapshot_quant, LoadedModel};
use cohortnet::stream::{batch_reference, StreamEvent};
use cohortnet::train::{train_cohortnet, TrainedCohortNet};
use cohortnet_fleet::{serve_fleet, FleetConfig};
use cohortnet_serve::client::Connection;
use cohortnet_serve::json::{self, Json};
use cohortnet_serve::server::TransportConfig;
use cohortnet_serve::{serve, serve_stream, Server, ServerConfig, StreamOptions};
use rand::seq::SliceRandom;
use rand::{SeedableRng, StdRng};

use crate::loadgen::{traced_arrival, LoadGen, Outcome, Phase, PhaseResult, Req, NO_KEY};
use crate::model::{self, Data, EVENTS_PER_REQ, SCORE_EVERY};
use crate::stats::{self, Rung, Tally};
use crate::trace::Tracer;
use crate::Report;

/// Which server a serving workload drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Surface {
    /// `POST /score` on one in-process `serve`.
    Score,
    /// `POST /ingest` on `serve_stream`.
    Ingest,
    /// `POST /score` through a 2-replica `serve_fleet` on the int8 trunk.
    FleetQuant,
}

/// The fixed load shape of a surface.
pub struct Shape {
    /// Rate of the latency phase, requests per second.
    pub reference_rps: f64,
    /// Share of `--seconds` spent at the reference rate; the ladder gets
    /// the rest.
    pub reference_share: f64,
    /// Lowest rate of the `max_rps` ladder.
    pub ladder_start: f64,
    /// Ratio between neighbouring ladder rates.
    pub ladder_step: f64,
    /// Rungs in the ladder.
    pub rungs: usize,
    /// p99 latency limit a ladder rung must meet, ms.
    pub limit_ms: f64,
}

impl Shape {
    /// The ladder's offered rates, ascending, whole requests per second.
    pub fn ladder(&self) -> Vec<f64> {
        (0..self.rungs)
            .map(|i| (self.ladder_start * self.ladder_step.powi(i as i32)).round())
            .collect()
    }
}

impl Surface {
    /// The load shape, fixed so every commit is offered the same load. The
    /// reference phase sends at least 1000 counted requests (for `ingest`
    /// only the inline-scored half counts) at under a fifth of capacity.
    /// The ladder spans the capacity measured on a shared 2-vCPU host with
    /// two connections, which swings about 1.6x between the host's fast
    /// and slow periods.
    pub fn shape(self) -> Shape {
        match self {
            Surface::Score | Surface::FleetQuant => Shape {
                reference_rps: 60.0,
                reference_share: 0.7,
                ladder_start: 160.0,
                ladder_step: 1.11,
                rungs: 9,
                limit_ms: 50.0,
            },
            Surface::Ingest => Shape {
                reference_rps: 140.0,
                reference_share: 0.7,
                ladder_start: 450.0,
                ladder_step: 1.13,
                rungs: 9,
                limit_ms: 50.0,
            },
        }
    }

    fn route(self) -> &'static str {
        match self {
            Surface::Ingest => "/ingest",
            _ => "/score",
        }
    }
}

/// Set-ups before the measured phase (the last one serves it) and after
/// it; `setup_s` is the median of all of them. Set-ups on both sides of
/// the measured phase sample the host at different moments: on a shared
/// host, back-to-back set-ups share one fast or slow period.
const SETUPS_BEFORE: usize = 2;
const SETUPS_AFTER: usize = 2;

/// Length of one ladder rung. The ladder climbs until three rungs in a row
/// fail or its share of `--seconds` is spent.
const RUNG_SECS: f64 = 0.9;

/// A ladder stops after this many failing rungs in a row; one stalled
/// rung on a shared host does not end it.
const FAILS_TO_STOP: usize = 3;

/// Requests sent closed-loop to warm a fresh server before it is timed.
const WARMUP_REQUESTS: usize = 64;

/// `/score` requests a traced `ingest` run sends to time the engine stages.
const ENGINE_PROBE_REQUESTS: usize = 128;

/// One set-up: the model, its oracles and the running server.
struct Stack {
    data: Data,
    trained: TrainedCohortNet,
    loaded: LoadedModel,
    server: Server,
    oracle: Inferencer,
    quant_oracle: QuantInferencer,
    snapshot: String,
}

fn boot(surface: Surface, snapshot: &str) -> Server {
    let transport = TransportConfig {
        port: 0,
        ..TransportConfig::default()
    };
    let cfg = ServerConfig {
        port: 0,
        ..ServerConfig::default()
    };
    match surface {
        Surface::Score => serve(load_snapshot(snapshot).expect("snapshot loads"), cfg),
        Surface::Ingest => serve_stream(
            load_snapshot(snapshot).expect("snapshot loads"),
            cfg,
            StreamOptions::default(),
        ),
        Surface::FleetQuant => serve_fleet(
            snapshot,
            FleetConfig {
                replicas: 2,
                quant: true,
                transport,
                ..FleetConfig::default()
            },
        ),
    }
    .expect("server starts")
}

/// A blocking keep-alive connection for warm-up and checks; no Nagle
/// delay, since the client writes head and body separately.
fn connect(addr: SocketAddr) -> Connection {
    let mut conn = Connection::connect(addr).expect("connect to the server");
    conn.stream().set_nodelay(true).expect("set TCP_NODELAY");
    conn
}

/// Trains the serving model, compiles it, boots the server and warms it.
fn set_up(surface: Surface, tracer: &mut Tracer) -> Stack {
    let sp = tracer.begin("ehr.prepare", None, 0);
    let data = model::serving_data();
    tracer.end(sp);
    let trained = train_cohortnet(&data.train, &data.cfg);
    let snapshot = save_snapshot_quant(
        &trained.model,
        &trained.params,
        &data.scaler,
        data.train.time_steps,
    );
    let loaded = load_snapshot(&snapshot).expect("snapshot loads");
    let oracle = loaded.inferencer();
    let quant_oracle = loaded.quant_inferencer();
    let server = boot(surface, &snapshot);
    let mut conn = connect(server.addr());
    for r in model::requests(&data.test)
        .iter()
        .cycle()
        .take(WARMUP_REQUESTS)
    {
        let resp = conn
            .request("POST", "/score", &model::score_body(r))
            .expect("warm-up request");
        assert_eq!(resp.status, 200, "warm-up /score failed: {}", resp.body);
    }
    Stack {
        data,
        trained,
        loaded,
        server,
        oracle,
        quant_oracle,
        snapshot,
    }
}

/// The traffic of one phase and what its responses must equal.
struct Traffic {
    reqs: Vec<Req>,
    /// Ingest only: the events of each request, by request index.
    events: Vec<Vec<StreamEvent>>,
}

/// `/score` traffic: the serving patients in a seeded order.
fn score_traffic(patients: &[ScoreRequest], seed: u64) -> (Traffic, Vec<usize>) {
    let mut order: Vec<usize> = (0..patients.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let reqs = order
        .iter()
        .map(|&p| Req {
            path: "/score".into(),
            body: model::score_body(&patients[p]),
            key: NO_KEY,
        })
        .collect();
    (
        Traffic {
            reqs,
            events: Vec::new(),
        },
        order,
    )
}

/// Requests per replayed session: 96 events, which reach past the 48-hour
/// window (so it slides) in almost every generated feed.
const REQS_PER_SESSION: usize = 32;

/// `/ingest` traffic for `rate` over `secs`: sessions numbered from
/// `first`, each the first [`REQS_PER_SESSION`] requests of one generated
/// feed with at least that many, [`EVENTS_PER_REQ`] events a request,
/// interleaved round robin so a session's requests stay a full round
/// apart. Every [`SCORE_EVERY`]th request of a session is scored inline,
/// staggered across sessions so each round carries the same share of
/// scores.
fn ingest_traffic(nf: usize, first: usize, rate: f64, secs: f64, seed: u64) -> Traffic {
    let sessions = (rate * secs / REQS_PER_SESSION as f64).ceil() as usize + 1;
    let mut feeds = Vec::with_capacity(sessions);
    let mut batch = 0u64;
    while feeds.len() < sessions {
        let drawn = model::event_feeds(nf, sessions, seed ^ ((first as u64) << 20) ^ batch);
        feeds.extend(
            drawn
                .into_iter()
                .filter(|f| f.events.len() >= REQS_PER_SESSION * EVENTS_PER_REQ),
        );
        batch += 1;
    }
    feeds.truncate(sessions);
    let (mut reqs, mut events) = (Vec::new(), Vec::new());
    for round in 0..REQS_PER_SESSION {
        for (s, feed) in feeds.iter().enumerate() {
            let chunk = &feed.events[round * EVENTS_PER_REQ..(round + 1) * EVENTS_PER_REQ];
            let evs: Vec<StreamEvent> = chunk.iter().map(model::stream_event).collect();
            let body_events: Vec<String> = evs
                .iter()
                .map(|e| format!("{{\"f\":{},\"t\":{},\"v\":{}}}", e.feature, e.ts, e.value))
                .collect();
            reqs.push(Req {
                path: "/ingest".into(),
                body: format!(
                    "{{\"session\":\"s{}\",\"events\":[{}],\"score\":{}}}",
                    first + s,
                    body_events.join(","),
                    (round + s) % SCORE_EVERY == SCORE_EVERY - 1
                ),
                key: first + s,
            });
            events.push(evs);
        }
    }
    Traffic { reqs, events }
}

/// One phase's traffic with the phase result it produced.
struct Ran {
    traffic: Traffic,
    result: PhaseResult,
}

/// Responses checked against the oracles; feeds `ok_ratio`.
fn check(
    surface: Surface,
    stack: &Stack,
    runs: &[Ran],
    patients: &[ScoreRequest],
    order: &[usize],
    tally: &mut Tally,
) -> Vec<String> {
    let mut problems = Vec::new();
    // Reference-phase arrivals the generator never sent are failed
    // operations. Ladder rungs overload the server on purpose and may
    // leave arrivals unsent.
    let unsent = runs[0]
        .result
        .outcomes
        .iter()
        .filter(|o| o.sent.is_none())
        .count();
    tally.note_unsent(unsent);
    if unsent > 0 {
        problems.push(format!("{unsent} reference-phase arrivals were never sent"));
    }
    match surface {
        Surface::Score | Surface::FleetQuant => {
            let out = match surface {
                Surface::Score => stack
                    .oracle
                    .score_requests_parallel(patients, crate::host::cpus()),
                _ => stack
                    .quant_oracle
                    .score_requests_parallel(patients, crate::host::cpus()),
            };
            let expected: Vec<String> = (0..patients.len())
                .map(|r| model::rendered(&out, r))
                .collect();
            for ran in runs {
                for o in ran.result.outcomes.iter().filter(|o| o.sent.is_some()) {
                    let want = &expected[order[o.req]];
                    let ok = o.ok() && o.body == *want;
                    if !ok && problems.len() < 5 {
                        problems.push(format!(
                            "/score status {} body differs from the oracle",
                            o.status
                        ));
                    }
                    tally.note(ok);
                }
            }
            if surface == Surface::FleetQuant {
                // The fleet must answer exactly as one int8 server does.
                let single = serve(
                    load_snapshot(&stack.snapshot).expect("snapshot loads"),
                    ServerConfig {
                        port: 0,
                        quant: true,
                        ..ServerConfig::default()
                    },
                )
                .expect("single int8 server starts");
                let mut conn = connect(single.addr());
                for (p, want) in patients.iter().zip(&expected).take(128) {
                    let resp = conn
                        .request("POST", "/score", &model::score_body(p))
                        .expect("single-server request");
                    let ok = resp.status == 200 && resp.body == *want;
                    if !ok && problems.len() < 5 {
                        problems.push("single int8 server differs from the fleet's oracle".into());
                    }
                    tally.note(ok);
                }
                single.shutdown();
            }
        }
        Surface::Ingest => check_ingest(stack, runs, tally, &mut problems),
    }
    problems
}

/// Every `/ingest` response, inline scores against the batch oracle over
/// the session's prefix, and at the end every session's score against
/// `/score` of `batch_reference` over all the events it was sent.
fn check_ingest(stack: &Stack, runs: &[Ran], tally: &mut Tally, problems: &mut Vec<String>) {
    let cfg = model::stream_config(&stack.oracle);
    let scaler = &stack.data.scaler;
    let mut sent: BTreeMap<usize, Vec<StreamEvent>> = BTreeMap::new();
    let mut inline: Vec<(ScoreRequest, String)> = Vec::new();
    for ran in runs {
        // Send order per session is the order of `sent` instants.
        let mut outs: Vec<&Outcome> = ran
            .result
            .outcomes
            .iter()
            .filter(|o| o.sent.is_some())
            .collect();
        outs.sort_by_key(|o| o.sent);
        for o in outs {
            let req = &ran.traffic.reqs[o.req];
            if !o.ok() {
                if problems.len() < 5 {
                    problems.push(format!("/ingest status {}: {}", o.status, o.body));
                }
                tally.note(false);
                continue;
            }
            let evs = sent.entry(req.key).or_default();
            evs.extend_from_slice(&ran.traffic.events[o.req]);
            if req.body.ends_with("\"score\":true}") {
                inline.push((batch_reference(evs, &cfg, scaler), o.body.clone()));
            } else {
                tally.note(true);
            }
        }
    }
    let oracle_reqs: Vec<ScoreRequest> = inline.iter().map(|(r, _)| r.clone()).collect();
    if !oracle_reqs.is_empty() {
        let out = stack
            .oracle
            .score_requests_parallel(&oracle_reqs, crate::host::cpus());
        for (r, (_, body)) in inline.iter().enumerate() {
            let want = model::rendered(&out, r);
            let ok = body.contains(&format!("\"prediction\":{}", model::prediction_json(&want)));
            if !ok && problems.len() < 5 {
                problems.push("inline /ingest score differs from the batch oracle".into());
            }
            tally.note(ok);
        }
    }
    // `/score` of the oracle request renders exactly the in-process score,
    // which the `score` workload checks on every response.
    let finals: Vec<ScoreRequest> = sent
        .values()
        .map(|evs| batch_reference(evs, &cfg, scaler))
        .collect();
    let out = stack
        .oracle
        .score_requests_parallel(&finals, crate::host::cpus());
    let mut conn = connect(stack.server.addr());
    for (r, session) in sent.keys().enumerate() {
        let got = conn
            .request("POST", &format!("/sessions/s{session}/score"), "")
            .expect("session score");
        let ok = got.status == 200 && got.body == model::rendered(&out, r);
        if !ok && problems.len() < 5 {
            problems.push(format!("session s{session} differs from batch_reference"));
        }
        tally.note(ok);
    }
}

/// One flight-recorder row of `/debug/requests`.
struct FlightRow {
    rid: String,
    route: String,
    status: f64,
    total: f64,
    accept: f64,
    queue: f64,
    batch_wait: f64,
    compute: f64,
    render: f64,
    write: f64,
    batch_size: f64,
    replica: f64,
}

/// The server's flight records, newest first.
fn flight(addr: SocketAddr) -> Vec<FlightRow> {
    let mut conn = connect(addr);
    let resp = conn
        .request("GET", "/debug/requests?n=1024", "")
        .expect("/debug/requests");
    let parsed = json::parse(&resp.body).expect("/debug/requests is json");
    let num = |r: &Json, k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    parsed
        .get("requests")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|r| FlightRow {
            rid: r
                .get("rid")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            route: r
                .get("route")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            status: num(r, "status"),
            total: num(r, "total_us"),
            accept: num(r, "accept_us"),
            queue: num(r, "queue_us"),
            batch_wait: num(r, "batch_wait_us"),
            compute: num(r, "compute_us"),
            render: num(r, "render_us"),
            write: num(r, "write_us"),
            batch_size: num(r, "batch_size"),
            replica: num(r, "replica"),
        })
        .collect()
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    sum / n.max(1) as f64
}

fn stage_sum(r: &FlightRow) -> f64 {
    r.accept + r.queue + r.batch_wait + r.compute + r.render + r.write
}

/// Transport, engine, fleet and load-generator metrics of a served phase,
/// from the program's own flight records (`after_phase`, fetched right
/// after it) and the generator's outcomes. Engine stages come from
/// `after_checks` when the phase's route never reaches the engine.
fn surface_layers(
    route: &str,
    outcomes: &[Outcome],
    after_phase: &[FlightRow],
    after_checks: &[FlightRow],
) -> Vec<(&'static str, f64)> {
    let primary: Vec<&FlightRow> = after_phase
        .iter()
        .filter(|r| r.route == route && r.status == 200.0)
        .collect();
    let mut engine: Vec<&FlightRow> = after_phase.iter().filter(|r| r.batch_size > 0.0).collect();
    if engine.is_empty() {
        engine = after_checks.iter().filter(|r| r.batch_size > 0.0).collect();
    }
    let mut per_replica: HashMap<i64, usize> = HashMap::new();
    for r in &primary {
        *per_replica.entry(r.replica as i64).or_default() += 1;
    }
    let skew = {
        let counts: Vec<f64> = per_replica.values().map(|&c| c as f64).collect();
        let max = counts.iter().copied().fold(0.0, f64::max);
        max / mean(counts.iter().copied()).max(1.0)
    };
    let by_rid: HashMap<&str, &FlightRow> = primary.iter().map(|r| (r.rid.as_str(), *r)).collect();
    let (mut parts, mut client) = (0.0f64, 0.0f64);
    for o in outcomes {
        if let (Some(row), Some(sent), Some(done)) = (by_rid.get(o.rid.as_str()), o.sent, o.done) {
            parts += stage_sum(row);
            client += done.duration_since(sent).as_secs_f64() * 1e6;
        }
    }
    let coverage = parts / client.max(1.0);
    let late: Vec<f64> = outcomes.iter().map(Outcome::late_ms).collect();
    vec![
        ("serve.accept_us", mean(primary.iter().map(|r| r.accept))),
        ("serve.queue_us", mean(primary.iter().map(|r| r.queue))),
        (
            "serve.batch_wait_us",
            mean(engine.iter().map(|r| r.batch_wait)),
        ),
        ("serve.compute_us", mean(engine.iter().map(|r| r.compute))),
        ("serve.render_us", mean(primary.iter().map(|r| r.render))),
        ("serve.write_us", mean(primary.iter().map(|r| r.write))),
        (
            "serve.unattributed_us",
            mean(primary.iter().map(|r| r.total - stage_sum(r))),
        ),
        (
            "engine.batch_rows_mean",
            mean(engine.iter().map(|r| r.batch_size)),
        ),
        ("fleet.replica_skew", skew),
        (
            "loadgen.late_p99_ms",
            stats::percentile(&late, 0.99)
                .unwrap_or_else(|_| late.iter().copied().fold(0.0, f64::max)),
        ),
        ("coverage_ratio", coverage),
    ]
}

/// Whether an outcome counts toward the workload's p50/p99: for
/// `ingest`, only inline-scored requests do.
fn counted(o: &Outcome, reqs: &[Req], scored_only: bool) -> bool {
    !scored_only || reqs[o.req].body.ends_with("\"score\":true}")
}

/// Latency from the scheduled send, ms; a failed request never arrives.
fn latency(o: &Outcome) -> f64 {
    if o.ok() {
        o.latency_ms().unwrap_or(f64::INFINITY)
    } else {
        f64::INFINITY
    }
}

/// Latencies of the outcomes that count toward the workload's p50/p99.
fn latencies(outcomes: &[Outcome], reqs: &[Req], scored_only: bool) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| counted(o, reqs, scored_only))
        .map(latency)
        .collect()
}

/// One set-up, timed, checked against the first set-up's test scores:
/// the fixed-seed model must come out bit-identical every time.
fn timed_set_up(
    surface: Surface,
    tracer: &mut Tracer,
    first_bits: &mut Option<Vec<u32>>,
    setup_s: &mut Vec<f64>,
    report: &mut Report,
) -> Stack {
    let t0 = Instant::now();
    let stack = set_up(surface, tracer);
    setup_s.push(t0.elapsed().as_secs_f64());
    let bits = model::test_score_bits(&stack.oracle, &stack.data.test);
    let same = first_bits.get_or_insert_with(|| bits.clone()) == &bits;
    report.tally.note(same);
    if !same {
        report.problem(format!(
            "set-up {} trained a model whose test scores differ from set-up 1's",
            setup_s.len()
        ));
    }
    stack
}

/// Runs one serving workload.
pub fn run(surface: Surface, seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let mut tracer = Tracer::new(trace);
    let shape = surface.shape();
    let conns = crate::host::cpus();

    // Set-up, several times; the last one before the measured phase
    // serves it.
    let mut setup_s = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut first_bits = None;
    let mut stack = None;
    for _ in 0..SETUPS_BEFORE {
        drop(stack.take());
        stack = Some(timed_set_up(
            surface,
            &mut tracer,
            &mut first_bits,
            &mut setup_s,
            report,
        ));
    }
    let stack = stack.expect("at least one set-up");
    // Both training steps must have run batches, or step 1 or 4 went
    // unmeasured.
    for (step, stats) in [
        ("pre-training", &stack.trained.timing.step1),
        ("exploitation", &stack.trained.timing.step4),
    ] {
        let ran = !stats.epoch_losses.is_empty();
        report.tally.note(ran);
        if !ran {
            report.problem(format!("serving-model {step} ran no batches"));
        }
    }
    let addr = stack.server.addr();
    let patients: Vec<ScoreRequest> = model::requests(&stack.data.train)
        .into_iter()
        .chain(model::requests(&stack.data.test))
        .collect();
    let nf = stack.oracle.n_features();

    report.context("vec_ref_mops_before", crate::host::vec_ref_mops());
    let mut gen = LoadGen::connect(addr, conns).expect("connect the load generator");
    let ladder = shape.ladder();
    let ref_secs = seconds * shape.reference_share;
    let ladder_secs = seconds * (1.0 - shape.reference_share);
    let (score_traffic, order) = score_traffic(&patients, seed);
    let mut next_session = 0usize;
    let mut traffic_for = |rate: f64, secs: f64| -> Traffic {
        match surface {
            Surface::Ingest => {
                let t = ingest_traffic(nf, next_session, rate, secs, seed);
                next_session += t.reqs.len() / REQS_PER_SESSION;
                t
            }
            _ => Traffic {
                reqs: score_traffic.reqs.clone(),
                events: Vec::new(),
            },
        }
    };

    let traffic = traffic_for(shape.reference_rps, ref_secs);
    let result = gen.run(
        &Phase {
            rate: shape.reference_rps,
            duration: Duration::from_secs_f64(ref_secs),
            reqs: &traffic.reqs,
        },
        &mut tracer,
    );
    let flight_after_phase = if trace { flight(addr) } else { Vec::new() };
    let reference = Ran { traffic, result };

    let mut runs = Vec::new();
    let mut rungs = Vec::new();
    let mut fails = 0usize;
    for &rate in ladder
        .iter()
        .take((ladder_secs / RUNG_SECS).floor() as usize)
    {
        let traffic = traffic_for(rate, RUNG_SECS);
        let result = gen.run(
            &Phase {
                rate,
                duration: Duration::from_secs_f64(RUNG_SECS),
                reqs: &traffic.reqs,
            },
            &mut tracer,
        );
        let rung = Rung {
            rate,
            scheduled: result.outcomes.len(),
            ok_latencies_ms: result
                .outcomes
                .iter()
                .filter(|o| o.ok())
                .filter_map(Outcome::latency_ms)
                .collect(),
            backlog: result.backlog.clone(),
        };
        let passed = rung.passes(shape.limit_ms);
        rungs.push(rung);
        runs.push(Ran { traffic, result });
        fails = if passed { 0 } else { fails + 1 };
        if fails == FAILS_TO_STOP {
            break;
        }
    }
    drop(gen);
    report.context("vec_ref_mops_after", crate::host::vec_ref_mops());

    // Output checks.
    let mut all = vec![reference];
    all.extend(runs);
    let problems = check(surface, &stack, &all, &patients, &order, &mut report.tally);
    if trace && surface == Surface::Ingest {
        // `/ingest` never reaches the engine; its batch surface does. Give
        // the engine stages something to report.
        let mut conn = connect(addr);
        for p in patients.iter().take(ENGINE_PROBE_REQUESTS) {
            let resp = conn
                .request("POST", "/score", &model::score_body(p))
                .expect("engine probe request");
            report.tally.note(resp.status == 200);
        }
    }
    let flight_after_checks = if trace { flight(addr) } else { Vec::new() };
    let reference = &all[0];

    let lat = latencies(
        &reference.result.outcomes,
        &reference.traffic.reqs,
        surface == Surface::Ingest,
    );
    if trace {
        record_traced(
            surface,
            &stack,
            reference,
            &flight_after_phase,
            &flight_after_checks,
            seed,
            &mut tracer,
            report,
        );
    } else {
        report.percentile("p50_ms", &lat, 0.5);
        // The tail is recorded, not gated: on a shared 2-vCPU host whose
        // compute slows about 1.6x for seconds at a time, p99 spread by
        // 0.20 to 0.43 and p90 by 0.26 to 0.44 (IQR over median) across
        // ten seeds, past any bound the benchmark may set.
        for (key, q) in [("p90_ms", 0.9), ("p99_ms", 0.99)] {
            match stats::percentile(&lat, q) {
                Ok(v) => report.context(key, v),
                Err(e) => report.problem(format!("{key}: {e}")),
            }
        }
        report.metric(
            "test_auroc",
            model::test_auroc(&stack.oracle, &stack.data.test, conns),
        );
        // Recorded, not gated: in the host's slow periods the rung where
        // the limit breaks moves, and max_rps spread by 0.37 across ten
        // seeds (0.09 to 0.13 in calm periods).
        report.context(
            "max_rps",
            stats::max_rps(&rungs, shape.limit_ms).unwrap_or_else(|| lowest_rung_rate(&rungs)),
        );
    }
    if surface == Surface::Ingest {
        let writes: Vec<f64> = reference
            .result
            .outcomes
            .iter()
            .filter(|o| {
                !reference.traffic.reqs[o.req]
                    .body
                    .ends_with("\"score\":true}")
            })
            .filter_map(Outcome::latency_ms)
            .collect();
        report.context("write_p50_ms", stats::median(&writes));
        report.context("write_samples", writes.len() as f64);
    }
    report.context("latency_samples", lat.len() as f64);
    report.context("reference_rps", shape.reference_rps);
    report.context("limit_ms", shape.limit_ms);
    report.context_raw(
        "ladder",
        format!(
            "[{}]",
            rungs
                .iter()
                .map(|r| format!(
                    "{{\"rate\":{},\"scheduled\":{},\"ok\":{},\"backlog\":{:?},\"passed\":{}}}",
                    r.rate,
                    r.scheduled,
                    r.ok_latencies_ms.len(),
                    r.backlog,
                    r.passes(shape.limit_ms)
                ))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    let late: Vec<f64> = reference
        .result
        .outcomes
        .iter()
        .map(Outcome::late_ms)
        .collect();
    report.context("late_p50_ms", stats::median(&late));
    report.context("late_max_ms", late.iter().copied().fold(0.0, f64::max));
    for p in problems {
        report.problem(p);
    }
    stack.server.shutdown();

    // The set-ups after the measured phase; a traced run reports no
    // `setup_s` and skips them.
    if !trace {
        for _ in 0..SETUPS_AFTER {
            timed_set_up(surface, &mut tracer, &mut first_bits, &mut setup_s, report)
                .server
                .shutdown();
        }
        report.metric("setup_s", stats::median(&setup_s));
        report.metric("ok_ratio", report.tally.ok_ratio());
    }
    report.context_raw("setup_each_s", format!("{setup_s:?}"));
    report.spans = tracer.to_json();
}

/// When no rung meets the limit, the rate at which the lowest rung's
/// requests were answered successfully: at most that rung's rate, so never
/// above a passing result. Counting only in-time answers made one stalled
/// rung read near zero.
fn lowest_rung_rate(rungs: &[Rung]) -> f64 {
    let r = &rungs[0];
    r.rate * r.ok_latencies_ms.len() as f64 / r.scheduled.max(1) as f64
}

/// Per-layer metrics of a traced serving run.
#[allow(clippy::too_many_arguments)]
fn record_traced(
    surface: Surface,
    stack: &Stack,
    reference: &Ran,
    after_phase: &[FlightRow],
    after_checks: &[FlightRow],
    seed: u64,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let outcomes = &reference.result.outcomes;
    for (k, v) in surface_layers(surface.route(), outcomes, after_phase, after_checks) {
        report.metric(k, v);
    }
    // Tracing overhead: p50_ms over the seconds of the phase whose
    // requests carried spans, against p50_ms over the seconds whose
    // requests did not.
    let rate = surface.shape().reference_rps;
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for (a, o) in outcomes.iter().enumerate() {
        if counted(o, &reference.traffic.reqs, surface == Surface::Ingest) {
            if traced_arrival(a, rate) {
                traced.push(latency(o));
            } else {
                plain.push(latency(o));
            }
        }
    }
    report.metric(
        "trace.overhead_ratio",
        stats::median(&traced) / stats::median(&plain) - 1.0,
    );
    model::training_layers(&stack.data, &stack.trained, tracer, report);
    let patients = model::requests(&stack.data.test);
    let probes = model::layer_probes(
        &stack.oracle,
        &stack.quant_oracle,
        &stack.loaded.model,
        &stack.data.scaler,
        &patients,
        seed,
        tracer,
    );
    for (k, v) in probes {
        report.metric(k, v);
    }
}
