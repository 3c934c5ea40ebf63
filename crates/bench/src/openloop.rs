//! Reusable open-loop HTTP load harness.
//!
//! Drives an already-running server with Poisson arrivals at a fixed
//! target rate and records what the server actually sustained. Arrival
//! times are scheduled up front from a seeded exponential inter-arrival
//! process, and every latency is measured from the *scheduled* arrival,
//! not from the moment the socket write happened — a server that falls
//! behind shows up as queueing delay in p99 instead of being laundered
//! out of the numbers (the coordinated-omission trap).
//!
//! Client sockets are driven nonblocking off the same
//! [`cohortnet_serve::reactor::Poller`] the server uses, so thousands of
//! idle connections cost one fd each, not one thread each.
//!
//! Extracted from the `serve_load` binary so the fleet smoke harness can
//! offer the same load shape to a [`cohortnet-fleet`] router (and fire a
//! mid-run [`Hook`] such as a hot-swap `POST /admin/reload`) without
//! duplicating the event loop.
//!
//! [`cohortnet-fleet`]: https://crates.io/crates/cohortnet-fleet

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use cohortnet::infer::ScoreRequest;
use cohortnet_serve::client::{self, try_parse_response};
use cohortnet_serve::json::{self, Json};
use cohortnet_serve::reactor::{Event, Interest, Poller};
use rand::{Rng, SeedableRng, StdRng};

/// Hard wall-clock ceiling past the scheduled end before a run aborts.
const DRAIN_CEILING: Duration = Duration::from_secs(30);

/// Connection recycling discipline for a profile.
#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// HTTP/1.1 keep-alive: one socket serves many requests.
    KeepAlive,
    /// `Connection: close` plus a fresh connect per request.
    ClosePerRequest,
}

impl Mode {
    /// Short name used in tables and BENCH json.
    pub fn name(self) -> &'static str {
        match self {
            Mode::KeepAlive => "keepalive",
            Mode::ClosePerRequest => "close",
        }
    }
}

/// One open-loop load shape.
pub struct Profile {
    /// Name used in tables and BENCH json.
    pub name: &'static str,
    /// Connection recycling discipline.
    pub mode: Mode,
    /// Number of client connection slots.
    pub conns: usize,
    /// Offered request rate (Poisson arrivals).
    pub target_rps: f64,
    /// Length of the arrival schedule.
    pub duration: Duration,
    /// HTTP method of every request.
    pub method: &'static str,
    /// Request path of every request.
    pub path: &'static str,
    /// Request bodies cycled round-robin (empty slice = empty body).
    pub bodies: Vec<String>,
    /// Serving topology tag recorded with the results — `"single"` for
    /// one process-wide engine, `"fleet:N"` behind an N-replica router.
    pub topology: &'static str,
    /// Snapshot scheme tag recorded with the results (`"plain"` f32 or
    /// `"quant"` int8).
    pub scheme: &'static str,
}

/// What one profile run achieved.
pub struct RunResult {
    /// Profile name.
    pub name: &'static str,
    /// Connection mode name (`"keepalive"` / `"close"`).
    pub mode: &'static str,
    /// Connection slots the run used.
    pub conns: usize,
    /// Offered rate.
    pub target_rps: f64,
    /// Completed responses per wall-clock second.
    pub achieved_rps: f64,
    /// Responses received, any status.
    pub completed: usize,
    /// 2xx responses.
    pub ok: usize,
    /// Retryable backpressure (429/503).
    pub rejected: usize,
    /// Any other status.
    pub errors: usize,
    /// Requests lost to a dead connection or an aborted drain.
    pub dropped: usize,
    /// Median latency from scheduled arrival, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency from scheduled arrival, microseconds.
    pub p99_us: u64,
    /// Serving topology tag from the profile.
    pub topology: &'static str,
    /// Snapshot scheme tag from the profile.
    pub scheme: &'static str,
}

/// An action fired once, inline, the first time the run clock passes
/// `after`. Long-running actions (e.g. a hot-swap `POST /admin/reload`)
/// should spawn their own thread so the harness event loop keeps
/// dispatching while they complete.
pub struct Hook {
    /// Offset from the start of the run.
    pub after: Duration,
    /// The action itself.
    pub action: Box<dyn FnOnce() + Send>,
}

/// Nearest-rank percentile of an ascending-sorted latency list.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Renders a one-instance `/score` body for a demo example.
pub fn score_body(e: &ScoreRequest) -> String {
    client::score_body(std::slice::from_ref(e))
}

/// Renders the standard BENCH json object for one run, including the
/// topology/scheme tags that keep fleet numbers from overwriting the
/// single-process trajectory.
pub fn run_json(r: &RunResult) -> Json {
    let num = |v: f64| Json::Num(v);
    json::obj(vec![
        ("profile", Json::Str(r.name.to_string())),
        ("topology", Json::Str(r.topology.to_string())),
        ("scheme", Json::Str(r.scheme.to_string())),
        ("mode", Json::Str(r.mode.to_string())),
        ("conns", num(r.conns as f64)),
        ("target_rps", num(r.target_rps)),
        (
            "achieved_rps",
            num((r.achieved_rps * 1000.0).round() / 1000.0),
        ),
        ("completed", num(r.completed as f64)),
        ("ok", num(r.ok as f64)),
        ("rejected", num(r.rejected as f64)),
        ("errors", num(r.errors as f64)),
        ("dropped", num(r.dropped as f64)),
        ("p50_us", num(r.p50_us as f64)),
        ("p99_us", num(r.p99_us as f64)),
    ])
}

/// Adds/replaces one top-level section of a BENCH json file, keeping
/// whatever other sections are already there (the bench binaries share
/// `BENCH_serve.json` between open-loop, fleet and stream runs).
pub fn merge_section(path: &str, key: &str, section: Json) {
    let mut root = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text).unwrap_or(Json::Obj(Default::default())),
        Err(_) => Json::Obj(Default::default()),
    };
    if let Json::Obj(map) = &mut root {
        map.insert(key.to_string(), section);
    } else {
        root = json::obj(vec![(key, section)]);
    }
    match std::fs::write(path, json::render(&root) + "\n") {
        Ok(()) => eprintln!("[openloop] merged \"{key}\" into {path}"),
        Err(e) => eprintln!("[openloop] could not write {path}: {e}"),
    }
}

/// One client connection slot.
struct Conn {
    stream: TcpStream,
    token: u64,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    /// Scheduled arrival of the request in flight, `None` when idle.
    sched: Option<Instant>,
    interest: Interest,
}

#[derive(Default)]
struct Tally {
    completed: usize,
    ok: usize,
    rejected: usize,
    errors: usize,
    /// Requests lost to a connection dying mid-flight, plus anything
    /// still unanswered if the drain ceiling aborts the run.
    dropped: usize,
    latencies_us: Vec<u64>,
}

enum ReadStep {
    /// A full response arrived; its status code.
    Done(u16),
    NeedMore,
    Broken,
}

/// All mutable state of one profile run. Connections live in fixed
/// slots; each reconnect bumps the slot's generation so the poller token
/// (`gen * conns + slot`) of a dead socket can never alias a live one.
struct Harness<'p> {
    profile: &'p Profile,
    addr: SocketAddr,
    poller: Poller,
    conns: Vec<Option<Conn>>,
    gens: Vec<u64>,
    idle: VecDeque<usize>,
    tally: Tally,
    in_flight: usize,
    body_cursor: usize,
}

impl<'p> Harness<'p> {
    fn new(profile: &'p Profile, addr: SocketAddr) -> Harness<'p> {
        let mut h = Harness {
            profile,
            addr,
            poller: Poller::new().expect("poller"),
            conns: (0..profile.conns).map(|_| None).collect(),
            gens: vec![0; profile.conns],
            idle: VecDeque::new(),
            tally: Tally::default(),
            in_flight: 0,
            body_cursor: 0,
        };
        for slot in 0..profile.conns {
            h.reconnect(slot);
            h.idle.push_back(slot);
        }
        h
    }

    /// Opens a fresh socket in `slot` under a new token. On failure the
    /// slot is left empty and skipped at dispatch time.
    fn reconnect(&mut self, slot: usize) {
        if let Some(old) = self.conns[slot].take() {
            let _ = self.poller.deregister(old.stream.as_raw_fd());
        }
        self.gens[slot] += 1;
        let token = self.gens[slot] * self.profile.conns as u64 + slot as u64;
        // Loopback connects complete in microseconds; the cost still lands
        // inside the measured window for close-per-request mode, which is
        // exactly the overhead that mode exists to expose.
        let stream = match TcpStream::connect(self.addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("[openloop] reconnect failed on slot {slot}: {e}");
                return;
            }
        };
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::NONE)
            .is_err()
        {
            return;
        }
        self.conns[slot] = Some(Conn {
            stream,
            token,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            sched: None,
            interest: Interest::NONE,
        });
    }

    fn set_interest(&mut self, slot: usize, interest: Interest) {
        let conn = self.conns[slot].as_mut().expect("conn present");
        if conn.interest != interest {
            self.poller
                .modify(conn.stream.as_raw_fd(), conn.token, interest)
                .expect("modify interest");
            conn.interest = interest;
        }
    }

    /// Writes as much pending output as the socket accepts; returns
    /// `false` if the connection broke.
    fn pump_write(&mut self, slot: usize) -> bool {
        let conn = self.conns[slot].as_mut().expect("conn present");
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    fn pump_read(&mut self, slot: usize) -> ReadStep {
        let conn = self.conns[slot].as_mut().expect("conn present");
        let mut chunk = [0u8; 16 << 10];
        let mut saw_eof = false;
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return ReadStep::Broken,
            }
        }
        match try_parse_response(&conn.inbuf) {
            Ok(Some((resp, consumed))) => {
                conn.inbuf.drain(..consumed);
                ReadStep::Done(resp.status)
            }
            Ok(None) if saw_eof => ReadStep::Broken,
            Ok(None) => ReadStep::NeedMore,
            Err(_) => ReadStep::Broken,
        }
    }

    /// Starts the request scheduled at `sched` on the idle conn `slot`.
    fn start_request(&mut self, slot: usize, sched: Instant) {
        let body = if self.profile.bodies.is_empty() {
            ""
        } else {
            self.body_cursor = (self.body_cursor + 1) % self.profile.bodies.len();
            &self.profile.bodies[self.body_cursor]
        };
        let close = match self.profile.mode {
            Mode::KeepAlive => "",
            Mode::ClosePerRequest => "Connection: close\r\n",
        };
        let out = format!(
            "{} {} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n{}\r\n{}",
            self.profile.method,
            self.profile.path,
            body.len(),
            close,
            body
        )
        .into_bytes();
        {
            let conn = self.conns[slot].as_mut().expect("conn present");
            conn.out = out;
            conn.out_pos = 0;
            conn.sched = Some(sched);
        }
        self.in_flight += 1;
        if self.pump_write(slot) {
            let conn = self.conns[slot].as_ref().expect("conn present");
            let want = if conn.out_pos < conn.out.len() {
                Interest::WRITE
            } else {
                Interest::READ
            };
            self.set_interest(slot, want);
        } else {
            self.fail_request(slot);
        }
    }

    /// Drops a broken in-flight request and readies a replacement socket.
    fn fail_request(&mut self, slot: usize) {
        self.tally.dropped += 1;
        self.in_flight -= 1;
        self.reconnect(slot);
        self.idle.push_back(slot);
    }

    /// Records a completed response and recycles the connection per mode.
    fn finish_request(&mut self, slot: usize, status: u16) {
        let conn = self.conns[slot].as_mut().expect("conn present");
        let sched = conn.sched.take().expect("request in flight");
        let lat = Instant::now().saturating_duration_since(sched);
        self.tally.latencies_us.push(lat.as_micros() as u64);
        self.tally.completed += 1;
        self.in_flight -= 1;
        match status {
            200..=299 => self.tally.ok += 1,
            429 | 503 => self.tally.rejected += 1,
            _ => self.tally.errors += 1,
        }
        match self.profile.mode {
            Mode::KeepAlive => self.set_interest(slot, Interest::NONE),
            Mode::ClosePerRequest => self.reconnect(slot),
        }
        self.idle.push_back(slot);
    }

    fn handle_event(&mut self, ev: &Event) {
        let slot = (ev.token % self.profile.conns as u64) as usize;
        let Some(conn) = self.conns[slot].as_ref() else {
            return;
        };
        if conn.token != ev.token {
            return; // stale event for a socket this slot already replaced
        }
        if conn.sched.is_none() {
            // An idle keep-alive conn the server hung up on (e.g. its idle
            // timeout); replace it so the slot stays usable and the
            // level-triggered HUP stops firing.
            if ev.closed {
                self.reconnect(slot);
            }
            return;
        }
        if ev.writable && conn.out_pos < conn.out.len() {
            if !self.pump_write(slot) {
                self.fail_request(slot);
                return;
            }
            let conn = self.conns[slot].as_ref().expect("conn present");
            if conn.out_pos >= conn.out.len() {
                self.set_interest(slot, Interest::READ);
            }
        }
        if ev.readable || ev.closed {
            match self.pump_read(slot) {
                ReadStep::Done(status) => self.finish_request(slot, status),
                ReadStep::NeedMore => {}
                ReadStep::Broken => self.fail_request(slot),
            }
        }
    }
}

/// Runs one open-loop profile against the server at `addr`.
pub fn run(profile: &Profile, addr: SocketAddr, seed: u64) -> RunResult {
    run_with_hook(profile, addr, seed, None)
}

/// Runs one open-loop profile against the server at `addr`, firing the
/// optional [`Hook`] once its offset elapses.
pub fn run_with_hook(
    profile: &Profile,
    addr: SocketAddr,
    seed: u64,
    mut hook: Option<Hook>,
) -> RunResult {
    // Precompute the Poisson arrival schedule: exponential inter-arrival
    // gaps at the target rate, fixed seed, so every run offers the same
    // load pattern.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut offsets = Vec::new();
    let mut t = 0.0f64;
    while t < profile.duration.as_secs_f64() {
        let u: f64 = rng.next_f64();
        t += -(1.0 - u).ln() / profile.target_rps;
        offsets.push(t);
    }

    let mut h = Harness::new(profile, addr);
    h.tally.latencies_us.reserve(offsets.len());
    let mut waiting: VecDeque<Instant> = VecDeque::new();
    let mut events: Vec<Event> = Vec::new();
    let mut next = 0usize;

    let t0 = Instant::now();
    let schedule: Vec<Instant> = offsets
        .iter()
        .map(|s| t0 + Duration::from_secs_f64(*s))
        .collect();
    let abort_at = t0 + profile.duration + DRAIN_CEILING;

    loop {
        let now = Instant::now();
        if hook.as_ref().is_some_and(|k| now >= t0 + k.after) {
            let k = hook.take().expect("hook present");
            (k.action)();
        }
        while next < schedule.len() && schedule[next] <= now {
            waiting.push_back(schedule[next]);
            next += 1;
        }
        // Hand due arrivals to idle connections. When none are idle the
        // arrival waits here with its original timestamp — that queueing
        // time is part of its measured latency.
        while !waiting.is_empty() {
            let Some(slot) = h.idle.pop_front() else {
                break;
            };
            if h.conns[slot].is_none() {
                continue; // reconnect failed earlier; slot leaves rotation
            }
            let sched = waiting.pop_front().expect("nonempty");
            h.start_request(slot, sched);
        }

        if next == schedule.len() && h.in_flight == 0 && waiting.is_empty() {
            break;
        }
        if now > abort_at {
            eprintln!(
                "[openloop] {}: aborting drain with {} in flight, {} unsent",
                profile.name,
                h.in_flight,
                waiting.len() + (schedule.len() - next)
            );
            h.tally.dropped += h.in_flight + waiting.len() + (schedule.len() - next);
            break;
        }

        let timeout = if next < schedule.len() {
            schedule[next]
                .saturating_duration_since(now)
                .min(Duration::from_millis(10))
        } else {
            Duration::from_millis(5)
        };
        h.poller.wait(&mut events, Some(timeout)).expect("poll");
        let batch: Vec<Event> = std::mem::take(&mut events);
        for ev in &batch {
            h.handle_event(ev);
        }
    }
    let wall = t0.elapsed().as_secs_f64();

    h.tally.latencies_us.sort_unstable();
    let tally = h.tally;
    RunResult {
        name: profile.name,
        mode: profile.mode.name(),
        conns: profile.conns,
        target_rps: profile.target_rps,
        achieved_rps: tally.completed as f64 / wall,
        completed: tally.completed,
        ok: tally.ok,
        rejected: tally.rejected,
        errors: tally.errors,
        dropped: tally.dropped,
        p50_us: percentile(&tally.latencies_us, 0.50),
        p99_us: percentile(&tally.latencies_us, 0.99),
        topology: profile.topology,
        scheme: profile.scheme,
    }
}
