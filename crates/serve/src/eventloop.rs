//! The server's readiness event loop: nonblocking accept, per-connection
//! state machines, and a worker pool gluing complete requests to the
//! blocking scoring engine.
//!
//! One thread owns every socket and drives them through a small state
//! machine per connection:
//!
//! ```text
//!            bytes arrive            complete request
//!   Reading ──────────────▶ Reading ─────────────────▶ Busy
//!      ▲                                                 │ worker renders
//!      │ keep-alive, next request                        ▼
//!      └──────────────────────────────────── Writing ◀───┘
//!                                               │ parse/limit error
//!                                               ▼
//!                                           Draining ──▶ closed
//! ```
//!
//! * **Reading** — accumulate bytes; [`crate::http::try_parse_request`]
//!   decides complete / partial / hopeless. An empty buffer means the
//!   connection is idle between requests (idle timeout applies); a partial
//!   buffer means mid-request (read timeout → `408`).
//! * **Busy** — the request sits in the worker queue or the engine; read
//!   interest is dropped so a pipelining client is backpressured by TCP
//!   itself (one request in flight per connection, responses in order).
//! * **Writing** — flush the rendered response; on completion either loop
//!   back to Reading (keep-alive), close, or switch to Draining.
//! * **Draining** — error responses (`400`/`408`/`413`/`503`) may race a
//!   client still sending its request; an immediate `close(2)` would reset
//!   the connection and eat the response. Instead the write side is shut
//!   down (FIN after the response bytes) and the read side is discarded for
//!   a bounded byte/time budget so the client reliably observes the status.
//!
//! The accept path never blocks on any client: over-limit `503`s are
//! queued on the rejected connection's own state machine like every other
//! response. [`ConnLimiter`] enforces `max_connections` with a CAS loop,
//! so the active gauge can never pass the cap, even transiently.
//!
//! Workers call the engine's blocking [`crate::engine::Engine::score_many`]
//! and hand finished response bytes back through a completion list plus a
//! [`Waker`] nudge; the loop never computes, workers never touch sockets.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cohortnet_obs::flight::{FixedStr, FlightRecord};
use cohortnet_obs::{ctx, obs_info, stage};

use crate::http::{render_response, try_parse_request, HttpError, Request};
use crate::ops;
use crate::reactor::{Interest, Poller, WakeReceiver};
use crate::server::{error_body, next_request_id, AppState, ServerCtl, LOG};

/// Listener registration token.
pub(crate) const TOKEN_LISTENER: u64 = 0;
/// Waker registration token.
pub(crate) const TOKEN_WAKER: u64 = 1;
/// First connection token; tokens are never reused within a server.
const TOKEN_FIRST_CONN: u64 = 2;

/// Poll timeout, which doubles as the timeout-sweep cadence.
const TICK: Duration = Duration::from_millis(25);
/// Per-connection read chunk.
const READ_CHUNK: usize = 16 << 10;
/// Bytes of late client data discarded after an error response before the
/// connection is cut anyway.
const DRAIN_BYTE_BUDGET: usize = 256 << 10;
/// Wall-clock budget for the same drain.
const DRAIN_TIME_BUDGET: Duration = Duration::from_millis(500);
/// How long a stopping server waits for in-flight work before cutting the
/// remaining connections.
const STOP_DRAIN_BUDGET: Duration = Duration::from_secs(5);

/// Exact connection-count gate. `try_acquire` only increments when the
/// result stays within the cap (compare-exchange loop), so — unlike a
/// `fetch_add`-then-check — the gauge never overshoots `cap`, even while
/// many accepts race.
pub(crate) struct ConnLimiter {
    active: AtomicUsize,
    cap: usize,
}

impl ConnLimiter {
    /// A limiter admitting at most `cap` holders (0 = unlimited).
    pub(crate) fn new(cap: usize) -> Self {
        ConnLimiter {
            active: AtomicUsize::new(0),
            cap,
        }
    }

    /// Takes a slot if one is free. Never lets `active` pass the cap.
    pub(crate) fn try_acquire(&self) -> bool {
        if self.cap == 0 {
            self.active.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        let mut current = self.active.load(Ordering::SeqCst);
        loop {
            if current >= self.cap {
                return false;
            }
            match self.active.compare_exchange_weak(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(now) => current = now,
            }
        }
    }

    /// Returns a slot taken by a successful `try_acquire`.
    pub(crate) fn release(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }

    /// Currently held slots.
    pub(crate) fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }
}

/// A complete request handed from the event loop to a worker.
pub(crate) struct Job {
    /// Token of the connection awaiting the response.
    pub(crate) conn: u64,
    pub(crate) req: Request,
    pub(crate) rid: String,
    /// When the request was fully parsed (request log latency origin).
    pub(crate) t0: Instant,
    /// When the request's first byte arrived (total-latency origin).
    pub(crate) t_first: Instant,
    /// First byte → fully parsed, µs (the accept stage).
    pub(crate) accept_us: u32,
}

/// A flight-recorder entry waiting on its final stage. Built by whoever
/// rendered the response (worker or loop-level error path); the event
/// loop stamps `write_us`/`total_us` when the last byte flushes, then
/// commits the record to the ring.
pub(crate) struct FlightPending {
    pub(crate) record: FlightRecord,
    /// First byte of the request (total-latency origin).
    pub(crate) start: Instant,
    /// Response handed to the event loop (write-stage origin).
    pub(crate) ready: Instant,
}

impl FlightPending {
    /// An entry for a loop-level error response (no worker involved): the
    /// whole wait so far is attributed to the accept stage.
    fn error(rid: &str, route: &str, status: u16, first_byte: Option<Instant>) -> FlightPending {
        let now = Instant::now();
        let start = first_byte.unwrap_or(now);
        let mut record = FlightRecord {
            rid: FixedStr::new(rid),
            route: FixedStr::new(route),
            status,
            ..FlightRecord::default()
        };
        record.stage.accept_us = us32(now.saturating_duration_since(start));
        FlightPending {
            record,
            start,
            ready: now,
        }
    }
}

/// Rendered response bytes handed back from a worker to the event loop.
pub(crate) struct Done {
    pub(crate) conn: u64,
    pub(crate) bytes: Vec<u8>,
    pub(crate) close: bool,
    pub(crate) flight: Option<FlightPending>,
}

/// Duration as µs, saturating into a `u32` (~71 minutes).
fn us32(d: Duration) -> u32 {
    d.as_micros().min(u32::MAX as u128) as u32
}

struct JobQueueInner {
    jobs: std::collections::VecDeque<Job>,
    closed: bool,
}

/// Bounded dispatch queue between the event loop and the workers. The loop
/// side is strictly nonblocking ([`JobQueue::try_push`] refuses instead of
/// waiting, which becomes an immediate `503`); the worker side blocks on
/// [`JobQueue::pop`]. After [`JobQueue::close`], queued jobs still drain
/// (graceful shutdown finishes accepted work) and `pop` then returns
/// `None`.
pub(crate) struct JobQueue {
    inner: Mutex<JobQueueInner>,
    ready: Condvar,
    cap: usize,
}

impl JobQueue {
    pub(crate) fn new(cap: usize) -> Self {
        JobQueue {
            inner: Mutex::new(JobQueueInner {
                jobs: std::collections::VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues without blocking; gives the job back when the queue is full
    /// or closed (the caller answers `503`).
    // The fat Err variant is the point: a refused job returns whole so the
    // caller still owns its request and connection.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        if inner.closed || inner.jobs.len() >= self.cap {
            return Err(job);
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed and empty.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("job queue poisoned");
        }
    }

    /// Stops accepting new jobs and lets workers drain the backlog.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("job queue poisoned").closed = true;
        self.ready.notify_all();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Reading,
    Busy,
    Writing,
    Draining,
}

struct Conn {
    stream: TcpStream,
    token: u64,
    state: ConnState,
    interest: Interest,
    buf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    last_activity: Instant,
    close_after_write: bool,
    drain_after_write: bool,
    drain_deadline: Instant,
    drain_budget: usize,
    peer_eof: bool,
    has_permit: bool,
    /// Requests fully served on this connection (keep-alive depth).
    served: u64,
    /// When the current request's first byte arrived (None between
    /// requests); consumed at parse completion into the accept stage.
    req_first_byte: Option<Instant>,
    /// Flight-recorder entry for the response being written, committed to
    /// the ring when the last byte flushes.
    flight: Option<FlightPending>,
}

impl Conn {
    fn new(stream: TcpStream, token: u64, has_permit: bool) -> Self {
        Conn {
            stream,
            token,
            state: ConnState::Reading,
            interest: Interest::READ,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            last_activity: Instant::now(),
            close_after_write: false,
            drain_after_write: false,
            drain_deadline: Instant::now(),
            drain_budget: 0,
            peer_eof: false,
            has_permit: false,
            served: 0,
            req_first_byte: None,
            flight: None,
        }
        .with_permit(has_permit)
    }

    fn with_permit(mut self, has_permit: bool) -> Self {
        self.has_permit = has_permit;
        self
    }

    /// Loads a response and switches to Writing. `drain` marks error
    /// responses that may race a still-sending client (see module docs).
    fn queue_response(&mut self, bytes: Vec<u8>, close: bool, drain: bool) {
        self.out = bytes;
        self.out_pos = 0;
        self.close_after_write = close;
        self.drain_after_write = drain;
        self.state = ConnState::Writing;
        self.last_activity = Instant::now();
    }
}

enum Flush {
    Done,
    Pending,
    Broken,
}

fn flush_out(conn: &mut Conn) -> Flush {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Flush::Broken,
            Ok(n) => {
                conn.out_pos += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Flush::Pending,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Flush::Broken,
        }
    }
    Flush::Done
}

/// Applies the wanted interest set, skipping the syscall when unchanged.
/// `false` means the registration is broken and the conn must close.
fn set_interest(conn: &mut Conn, poller: &mut Poller, want: Interest) -> bool {
    if conn.interest == want {
        return true;
    }
    match poller.modify(conn.stream.as_raw_fd(), conn.token, want) {
        Ok(()) => {
            conn.interest = want;
            true
        }
        Err(_) => false,
    }
}

/// Renders a loop-level (not worker-routed) response with its own request
/// id, mirroring what `handle_connection` used to attach to early errors.
/// Returns the rendered bytes plus the request id, so the caller can file
/// a matching flight-recorder entry.
fn render_error(status: u16, message: &str, retry_after: bool) -> (Vec<u8>, String) {
    let rid = next_request_id();
    let body = error_body(message);
    let retry_headers: [(&str, &str); 2] = [("X-Request-Id", rid.as_str()), ("Retry-After", "1")];
    let plain_headers: [(&str, &str); 1] = [("X-Request-Id", rid.as_str())];
    let headers: &[(&str, &str)] = if retry_after {
        &retry_headers
    } else {
        &plain_headers
    };
    let bytes = render_response(status, "application/json", &body, headers, true);
    (bytes, rid)
}

/// Drives a connection as far as it can go without blocking, from any
/// entry point (fresh bytes, write readiness, worker completion, timeout
/// verdict). Returns `false` when the connection must be closed.
fn pump(
    conn: &mut Conn,
    poller: &mut Poller,
    state: &Arc<AppState>,
    stopping: bool,
    inflight: &mut usize,
) -> bool {
    loop {
        match conn.state {
            ConnState::Writing => match flush_out(conn) {
                Flush::Pending => return set_interest(conn, poller, Interest::WRITE),
                Flush::Broken => return false,
                Flush::Done => {
                    conn.out.clear();
                    conn.out_pos = 0;
                    conn.served += 1;
                    if let Some(mut pending) = conn.flight.take() {
                        let now = Instant::now();
                        let write_us = us32(now.saturating_duration_since(pending.ready));
                        pending.record.stage.write_us = write_us;
                        pending.record.total_us =
                            us32(now.saturating_duration_since(pending.start));
                        state.metrics.stage_write_us.observe(write_us as u64);
                        state.flight.record(&pending.record);
                    }
                    if conn.drain_after_write {
                        // FIN after the response bytes, then discard late
                        // request data so the client reliably reads the
                        // status before seeing the close.
                        let _ = conn.stream.shutdown(Shutdown::Write);
                        conn.state = ConnState::Draining;
                        conn.drain_deadline = Instant::now() + DRAIN_TIME_BUDGET;
                        conn.drain_budget = DRAIN_BYTE_BUDGET.saturating_sub(conn.buf.len());
                        conn.buf.clear();
                        if conn.peer_eof || conn.drain_budget == 0 {
                            return false;
                        }
                        continue;
                    }
                    if conn.close_after_write {
                        return false;
                    }
                    if stopping && conn.buf.is_empty() {
                        return false;
                    }
                    conn.state = ConnState::Reading;
                    conn.last_activity = Instant::now();
                    continue;
                }
            },
            ConnState::Reading => match try_parse_request(&conn.buf) {
                Ok(Some(parsed)) => {
                    conn.buf.drain(..parsed.consumed);
                    let t_first = conn.req_first_byte.take().unwrap_or_else(Instant::now);
                    let accept_us = us32(t_first.elapsed());
                    state.metrics.stage_accept_us.observe(accept_us as u64);
                    if stopping {
                        let (bytes, rid) = render_error(503, "server is shutting down", true);
                        conn.flight = Some(FlightPending::error(
                            &rid,
                            &parsed.req.path,
                            503,
                            Some(t_first),
                        ));
                        conn.queue_response(bytes, true, false);
                        continue;
                    }
                    if conn.served > 0 {
                        state.metrics.keepalive_requests.inc();
                    }
                    let job = Job {
                        conn: conn.token,
                        req: parsed.req,
                        rid: next_request_id(),
                        t0: Instant::now(),
                        t_first,
                        accept_us,
                    };
                    match state.jobs.try_push(job) {
                        Ok(()) => {
                            *inflight += 1;
                            conn.state = ConnState::Busy;
                            return set_interest(conn, poller, Interest::NONE);
                        }
                        Err(job) => {
                            state.metrics.dispatch_rejected.inc();
                            let (bytes, rid) =
                                render_error(503, "server overloaded, retry later", true);
                            conn.flight = Some(FlightPending::error(
                                &rid,
                                &job.req.path,
                                503,
                                Some(job.t_first),
                            ));
                            conn.queue_response(bytes, job.req.close, false);
                            continue;
                        }
                    }
                }
                Ok(None) => {
                    if conn.peer_eof {
                        if conn.buf.is_empty() {
                            return false;
                        }
                        let why = if conn.buf.windows(4).any(|w| w == b"\r\n\r\n") {
                            "connection closed mid-body"
                        } else {
                            "connection closed mid-head"
                        };
                        let msg = HttpError::Malformed(why.into()).to_string();
                        let (bytes, rid) = render_error(400, &msg, false);
                        conn.flight = Some(FlightPending::error(
                            &rid,
                            "",
                            400,
                            conn.req_first_byte.take(),
                        ));
                        conn.queue_response(bytes, true, true);
                        continue;
                    }
                    return set_interest(conn, poller, Interest::READ);
                }
                Err(e) => {
                    let (status, msg) = match &e {
                        HttpError::TooLarge => (413, "request too large".to_string()),
                        other => (400, other.to_string()),
                    };
                    let (bytes, rid) = render_error(status, &msg, false);
                    conn.flight = Some(FlightPending::error(
                        &rid,
                        "",
                        status,
                        conn.req_first_byte.take(),
                    ));
                    conn.queue_response(bytes, true, true);
                    continue;
                }
            },
            ConnState::Busy => return set_interest(conn, poller, Interest::NONE),
            ConnState::Draining => {
                let mut scratch = [0u8; READ_CHUNK];
                loop {
                    if Instant::now() >= conn.drain_deadline {
                        return false;
                    }
                    match conn.stream.read(&mut scratch) {
                        Ok(0) => return false,
                        Ok(n) => {
                            if n >= conn.drain_budget {
                                return false;
                            }
                            conn.drain_budget -= n;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            return set_interest(conn, poller, Interest::READ);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => return false,
                    }
                }
            }
        }
    }
}

/// Pulls whatever bytes are ready into the connection buffer, then pumps.
fn on_readable(
    conn: &mut Conn,
    poller: &mut Poller,
    state: &Arc<AppState>,
    stopping: bool,
    inflight: &mut usize,
) -> bool {
    if conn.state == ConnState::Reading && !conn.peer_eof {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    if conn.req_first_byte.is_none() {
                        conn.req_first_byte = Some(Instant::now());
                    }
                    conn.buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    // Yield to the parser once a request could plausibly be
                    // complete; level-triggered polling re-delivers the rest.
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }
    pump(conn, poller, state, stopping, inflight)
}

/// Spawns the worker pool: each worker pulls complete requests, runs the
/// (blocking) router/engine, renders the response bytes, and posts them to
/// the completion list with a waker nudge.
pub(crate) fn spawn_workers(state: &Arc<AppState>, n: usize) -> Vec<JoinHandle<()>> {
    (0..n)
        .map(|i| {
            let state = Arc::clone(state);
            std::thread::Builder::new()
                .name(format!("cohortnet-worker-{i}"))
                .spawn(move || worker_loop(&state))
                .expect("spawn worker thread")
        })
        .collect()
}

fn worker_loop(state: &Arc<AppState>) {
    while let Some(job) = state.jobs.pop() {
        let queue_us = us32(job.t0.elapsed());
        state
            .metrics
            .stage_dispatch_wait_us
            .observe(queue_us as u64);
        stage::begin(job.accept_us, queue_us);
        // Continue the client's trace if it sent a valid `traceparent`;
        // otherwise start a fresh root. The request span `follows` this
        // ctx, and stages running on other threads (the batcher) link back
        // through the ctx published in the thread-local scope below.
        let ctx0 = job
            .req
            .traceparent
            .as_deref()
            .and_then(ctx::TraceCtx::parse)
            .unwrap_or_else(ctx::TraceCtx::root);
        let mut span = cohortnet_obs::span::span("serve.request");
        span.follows(&ctx0);
        span.arg("request_id", &job.rid);
        span.arg("method", &job.req.method)
            .arg("path", &job.req.path);
        let app_t0 = Instant::now();
        let resp = {
            let _ctx = ctx::scope(ctx0.child(span.id()));
            ops::handle(&*state.app, &job.req, &ServerCtl::new(state))
        };
        let app_us = stage::note_app(us32(app_t0.elapsed()));
        state.metrics.stage_app_us.observe(u64::from(app_us));
        let status = resp.status;
        let close = job.req.close || resp.close;
        let timing;
        let mut headers: Vec<(&str, &str)> = vec![("X-Request-Id", job.rid.as_str())];
        if status == 429 || status == 503 {
            headers.push(("Retry-After", "1"));
        }
        if job.req.debug_timing {
            timing = stage::peek().server_timing_value();
            headers.push(("Server-Timing", timing.as_str()));
        }
        let render_t0 = Instant::now();
        let bytes = render_response(status, resp.content_type, &resp.body, &headers, close);
        let render_us = us32(render_t0.elapsed());
        state.metrics.render_us.observe(render_us as u64);
        stage::note_render(render_us);
        let timings = stage::take();
        span.arg("status", status);
        span.arg("queue_us", timings.queue_us)
            .arg("compute_us", timings.compute_us);
        if timings.batch_size > 0 {
            span.arg("batch", timings.batch_size);
        }
        obs_info!(
            target: LOG,
            "request",
            request_id = job.rid,
            method = job.req.method,
            path = job.req.path,
            status = status,
            dur_us = job.t0.elapsed().as_micros(),
        );
        let mut record = FlightRecord {
            rid: FixedStr::new(&job.rid),
            route: FixedStr::new(&job.req.path),
            status,
            stage: timings,
            ..FlightRecord::default()
        };
        record.set_trace(&ctx0);
        state
            .completions
            .lock()
            .expect("completions poisoned")
            .push(Done {
                conn: job.conn,
                bytes,
                close,
                flight: Some(FlightPending {
                    record,
                    start: job.t_first,
                    ready: Instant::now(),
                }),
            });
        state.waker.wake();
    }
}

/// Sets the server's done flag on every exit path (including a panic), so
/// `Server::join`/`shutdown` can never hang on a dead loop.
struct DoneGuard<'a>(&'a AppState);

impl Drop for DoneGuard<'_> {
    fn drop(&mut self) {
        let (lock, cv) = &self.0.done;
        *lock.lock().expect("done flag poisoned") = true;
        cv.notify_all();
    }
}

/// The event loop body. Owns the listener, the poller, every connection,
/// and the worker pool; returns only after stop + drain, with workers
/// joined (the engine is shut down afterwards by `Server::finish`).
pub(crate) fn run(
    listener: TcpListener,
    mut poller: Poller,
    wake_rx: WakeReceiver,
    state: Arc<AppState>,
) {
    let _done = DoneGuard(&state);
    let workers = spawn_workers(&state, state.worker_count);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut inflight = 0usize;
    let mut stopping = false;
    let mut stop_deadline = Instant::now();
    let mut events = Vec::new();
    let read_timeout = state.effective_read_timeout();

    macro_rules! close_conn {
        ($conn:expr) => {{
            let conn: Conn = $conn;
            let _ = poller.deregister(conn.stream.as_raw_fd());
            if conn.has_permit {
                state.limiter.release();
            }
            drop(conn);
            state
                .metrics
                .conns_active
                .set(state.limiter.active() as i64);
        }};
    }

    loop {
        if !stopping && state.stop.load(Ordering::SeqCst) {
            stopping = true;
            stop_deadline = Instant::now() + STOP_DRAIN_BUDGET;
            let _ = poller.deregister(listener.as_raw_fd());
            // Idle keep-alive connections have nothing in flight: cut them
            // now so only mid-request work gates the drain.
            let idle: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| c.state == ConnState::Reading && c.buf.is_empty())
                .map(|(&t, _)| t)
                .collect();
            for token in idle {
                if let Some(conn) = conns.remove(&token) {
                    close_conn!(conn);
                }
            }
        }
        if stopping && ((inflight == 0 && conns.is_empty()) || Instant::now() >= stop_deadline) {
            break;
        }

        if poller.wait(&mut events, Some(TICK)).is_err() {
            break;
        }

        let mut accept_ready = false;
        let taken = std::mem::take(&mut events);
        for ev in &taken {
            match ev.token {
                TOKEN_LISTENER => accept_ready = true,
                TOKEN_WAKER => wake_rx.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let keep = if ev.closed && conn.state == ConnState::Busy {
                        // Peer is gone; the in-flight response has no
                        // reader. The completion harvest tolerates the
                        // missing token.
                        false
                    } else if ev.readable {
                        on_readable(conn, &mut poller, &state, stopping, &mut inflight)
                    } else if ev.writable && conn.state == ConnState::Writing {
                        pump(conn, &mut poller, &state, stopping, &mut inflight)
                    } else {
                        !ev.closed
                    };
                    if !keep {
                        if let Some(conn) = conns.remove(&token) {
                            close_conn!(conn);
                        }
                    }
                }
            }
        }
        events = taken;

        // Worker completions: attach rendered responses and flush.
        let dones: Vec<Done> = {
            let mut pending = state.completions.lock().expect("completions poisoned");
            std::mem::take(&mut *pending)
        };
        for done in dones {
            inflight = inflight.saturating_sub(1);
            let Some(conn) = conns.get_mut(&done.conn) else {
                continue;
            };
            if conn.state != ConnState::Busy {
                continue;
            }
            conn.flight = done.flight;
            conn.queue_response(done.bytes, done.close, false);
            if !pump(conn, &mut poller, &state, stopping, &mut inflight) {
                if let Some(conn) = conns.remove(&done.conn) {
                    close_conn!(conn);
                }
            }
        }

        if accept_ready && !stopping {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        let token = next_token;
                        next_token += 1;
                        let admitted = state.limiter.try_acquire();
                        let mut conn = Conn::new(stream, token, admitted);
                        if !admitted {
                            state.metrics.conns_rejected.inc();
                            let (bytes, rid) =
                                render_error(503, "connection limit reached, retry later", true);
                            conn.flight = Some(FlightPending::error(&rid, "", 503, None));
                            conn.queue_response(bytes, true, true);
                        }
                        let want = if admitted {
                            Interest::READ
                        } else {
                            Interest::WRITE
                        };
                        conn.interest = want;
                        if poller
                            .register(conn.stream.as_raw_fd(), token, want)
                            .is_err()
                        {
                            if conn.has_permit {
                                state.limiter.release();
                            }
                            continue;
                        }
                        state
                            .metrics
                            .conns_active
                            .set(state.limiter.active() as i64);
                        if !pump(&mut conn, &mut poller, &state, stopping, &mut inflight) {
                            close_conn!(conn);
                        } else {
                            conns.insert(token, conn);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        // Timeout sweep (bounded by the TICK-sized poll timeout above).
        let now = Instant::now();
        let mut expired: Vec<(u64, bool)> = Vec::new();
        for (&token, conn) in &conns {
            match conn.state {
                ConnState::Reading if conn.buf.is_empty() => {
                    if now.duration_since(conn.last_activity) >= state.idle_timeout {
                        expired.push((token, false));
                    }
                }
                ConnState::Reading => {
                    if now.duration_since(conn.last_activity) >= read_timeout {
                        expired.push((token, true));
                    }
                }
                ConnState::Writing => {
                    if now.duration_since(conn.last_activity) >= state.idle_timeout {
                        expired.push((token, false));
                    }
                }
                ConnState::Draining => {
                    if now >= conn.drain_deadline {
                        expired.push((token, false));
                    }
                }
                ConnState::Busy => {}
            }
        }
        for (token, respond_408) in expired {
            if respond_408 {
                let Some(conn) = conns.get_mut(&token) else {
                    continue;
                };
                let msg = HttpError::Timeout.to_string();
                let (bytes, rid) = render_error(408, &msg, false);
                conn.flight = Some(FlightPending::error(
                    &rid,
                    "",
                    408,
                    conn.req_first_byte.take(),
                ));
                conn.queue_response(bytes, true, true);
                if !pump(conn, &mut poller, &state, stopping, &mut inflight) {
                    if let Some(conn) = conns.remove(&token) {
                        close_conn!(conn);
                    }
                }
            } else {
                if let Some(conn) = conns.remove(&token) {
                    if conn.state == ConnState::Reading {
                        state.metrics.conns_idle_closed.inc();
                    }
                    close_conn!(conn);
                }
            }
        }
    }

    // Teardown: cut every remaining connection, let workers drain queued
    // jobs, and join them. `Server::finish` shuts the engine down after.
    for (_, conn) in conns.drain() {
        close_conn!(conn);
    }
    state.jobs.close();
    for handle in workers {
        let _ = handle.join();
    }
    obs_info!(target: LOG, "event loop stopped", backend = poller.backend());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression: hammer the gate from many threads and record
    /// the highest concurrently-held count — it must never pass the cap.
    #[test]
    fn limiter_never_overshoots_under_contention() {
        const CAP: usize = 7;
        const THREADS: usize = 8;
        const ITERS: usize = 20_000;
        let limiter = Arc::new(ConnLimiter::new(CAP));
        let peak = Arc::new(AtomicUsize::new(0));
        let acquired = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let limiter = Arc::clone(&limiter);
                let peak = Arc::clone(&peak);
                let acquired = Arc::clone(&acquired);
                std::thread::spawn(move || {
                    for _ in 0..ITERS {
                        if limiter.try_acquire() {
                            acquired.fetch_add(1, Ordering::SeqCst);
                            peak.fetch_max(limiter.active(), Ordering::SeqCst);
                            limiter.release();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("hammer thread");
        }
        assert!(
            peak.load(Ordering::SeqCst) <= CAP,
            "gauge peaked at {} with cap {CAP}",
            peak.load(Ordering::SeqCst)
        );
        assert!(acquired.load(Ordering::SeqCst) > 0, "gate admitted nothing");
        assert_eq!(limiter.active(), 0, "permits leaked");
    }

    #[test]
    fn limiter_exact_at_saturation() {
        let limiter = ConnLimiter::new(2);
        assert!(limiter.try_acquire());
        assert!(limiter.try_acquire());
        assert!(!limiter.try_acquire(), "third acquire must fail at cap 2");
        assert_eq!(limiter.active(), 2);
        limiter.release();
        assert!(limiter.try_acquire(), "released slot must be reusable");
        limiter.release();
        limiter.release();
        assert_eq!(limiter.active(), 0);
    }

    #[test]
    fn unlimited_limiter_admits_everything() {
        let limiter = ConnLimiter::new(0);
        for _ in 0..100 {
            assert!(limiter.try_acquire());
        }
        assert_eq!(limiter.active(), 100);
    }

    #[test]
    fn job_queue_refuses_when_full_and_drains_after_close() {
        let q = JobQueue::new(2);
        let job = |i: u64| Job {
            conn: i,
            req: Request {
                method: "GET".into(),
                path: "/healthz".into(),
                close: true,
                ..Request::default()
            },
            rid: format!("r{i}"),
            t0: Instant::now(),
            t_first: Instant::now(),
            accept_us: 0,
        };
        assert!(q.try_push(job(1)).is_ok());
        assert!(q.try_push(job(2)).is_ok());
        let back = q.try_push(job(3)).expect_err("full queue must refuse");
        assert_eq!(back.conn, 3);
        q.close();
        assert!(q.try_push(job(4)).is_err(), "closed queue must refuse");
        assert_eq!(q.pop().expect("first queued job").conn, 1);
        assert_eq!(q.pop().expect("second queued job").conn, 2);
        assert!(q.pop().is_none(), "closed + empty → None");
    }
}
