//! Open-loop load generator: one thread, a few keep-alive connections.
//!
//! Arrivals are evenly paced at the phase's rate and do not slow when the
//! server does. An arrival that finds no free connection waits in the
//! generator with its scheduled time, so every latency is measured from
//! when the request was due. Requests that share a key (one stream
//! session) are sent one at a time, in order, as a real event feed would.
//! Responses are kept whole so the caller can check every one.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use cohortnet_serve::client::try_parse_response;
use cohortnet_serve::reactor::{Event, Interest, Poller};

use crate::trace::{SpanId, Tracer};

/// Requests without a key are never held back for ordering.
pub const NO_KEY: usize = usize::MAX;

/// How long past the end of its schedule a phase keeps sending arrivals
/// that are still waiting; the rest are reported unsent.
const SEND_GRACE: Duration = Duration::from_millis(500);

/// How long past the end of its schedule a phase waits for answers.
const ANSWER_CEILING: Duration = Duration::from_secs(20);

/// One request to send.
#[derive(Debug, Clone)]
pub struct Req {
    /// Request path; every request is a `POST`.
    pub path: String,
    /// JSON body.
    pub body: String,
    /// Ordering key ([`NO_KEY`] for none).
    pub key: usize,
}

/// What happened to one scheduled arrival.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index of the request sent, into the phase's request list.
    pub req: usize,
    /// When the arrival was due.
    pub sched: Instant,
    /// When the generator saw it due (lateness = `seen - sched`).
    pub seen: Instant,
    /// When its first byte was written (`None` = never sent).
    pub sent: Option<Instant>,
    /// When its response was complete (`None` = no response).
    pub done: Option<Instant>,
    /// HTTP status (0 = no response).
    pub status: u16,
    /// The server's `X-Request-Id`.
    pub rid: String,
    /// Response body.
    pub body: String,
}

impl Outcome {
    /// Latency from the scheduled send to the complete response, ms.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.saturating_duration_since(self.sched).as_secs_f64() * 1e3)
    }

    /// Generator lateness, ms.
    pub fn late_ms(&self) -> f64 {
        self.seen
            .saturating_duration_since(self.sched)
            .as_secs_f64()
            * 1e3
    }

    /// Whether the request was answered with a 2xx status.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// One phase of offered load.
pub struct Phase<'a> {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Length of the arrival schedule.
    pub duration: Duration,
    /// Requests, sent in order; arrival `i` sends `reqs[i % reqs.len()]`.
    pub reqs: &'a [Req],
}

/// Everything one phase produced.
pub struct PhaseResult {
    /// One entry per scheduled arrival, in schedule order.
    pub outcomes: Vec<Outcome>,
    /// Arrivals due but unanswered, sampled at each tenth of the schedule.
    pub backlog: Vec<usize>,
}

struct Conn {
    stream: TcpStream,
    token: u64,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    /// Arrival in flight on this connection.
    busy: Option<usize>,
    /// Its open `client.request` span, when it is traced.
    span: Option<SpanId>,
}

/// The arrival offsets of a phase, seconds: evenly paced at `rate`. With
/// a few connections, random (Poisson) bursts made p99 a measure of where
/// the bursts fell rather than of the server.
pub fn arrival_offsets(rate: f64, duration: Duration) -> Vec<f64> {
    let n = (rate * duration.as_secs_f64()).floor() as usize;
    (0..n).map(|i| i as f64 / rate).collect()
}

/// Whether a traced phase records arrival `a` as a span: the arrivals
/// due in odd-numbered seconds of the schedule. Traced and untraced
/// arrivals alternate second by second, so both see the same host and
/// server state and their latencies can be compared.
pub fn traced_arrival(a: usize, rate: f64) -> bool {
    (a as f64 / rate) as u64 % 2 == 1
}

/// The load generator: `conns` keep-alive connections to one server.
pub struct LoadGen {
    addr: SocketAddr,
    poller: Poller,
    conns: Vec<Conn>,
    next_token: u64,
}

impl LoadGen {
    /// Opens `conns` keep-alive connections to `addr`.
    pub fn connect(addr: SocketAddr, conns: usize) -> std::io::Result<LoadGen> {
        let mut g = LoadGen {
            addr,
            poller: Poller::new()?,
            conns: Vec::with_capacity(conns),
            next_token: 0,
        };
        for _ in 0..conns {
            let c = g.open()?;
            g.conns.push(c);
        }
        Ok(g)
    }

    fn open(&mut self) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        self.next_token += 1;
        self.poller
            .register(stream.as_raw_fd(), self.next_token, Interest::READ)?;
        Ok(Conn {
            stream,
            token: self.next_token,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            busy: None,
            span: None,
        })
    }

    fn reopen(&mut self, slot: usize) -> std::io::Result<()> {
        let _ = self.poller.deregister(self.conns[slot].stream.as_raw_fd());
        self.conns[slot] = self.open()?;
        Ok(())
    }

    /// Writes pending output; `false` when the connection broke.
    fn pump_write(&mut self, slot: usize) -> bool {
        let c = &mut self.conns[slot];
        while c.out_pos < c.out.len() {
            match c.stream.write(&c.out[c.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => c.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        let want = if c.out_pos < c.out.len() {
            Interest::WRITE
        } else {
            Interest::READ
        };
        self.poller
            .modify(c.stream.as_raw_fd(), c.token, want)
            .is_ok()
    }

    /// Reads what is available; `Ok(Some(..))` once a response is whole.
    fn pump_read(&mut self, slot: usize) -> Result<Option<(u16, String, String)>, ()> {
        let c = &mut self.conns[slot];
        let mut chunk = [0u8; 16 << 10];
        let mut eof = false;
        loop {
            match c.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => c.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        match try_parse_response(&c.inbuf) {
            Ok(Some((resp, used))) => {
                c.inbuf.drain(..used);
                let rid = resp.header("x-request-id").unwrap_or("").to_string();
                Ok(Some((resp.status, rid, resp.body)))
            }
            Ok(None) if eof => Err(()),
            Ok(None) => Ok(None),
            Err(_) => Err(()),
        }
    }

    /// Runs one phase to completion and returns every arrival's outcome.
    /// The phase is a `loadgen.phase` span. Under it, each arrival for
    /// which [`traced_arrival`] holds is a `client.request` span, opened
    /// before its request is written and closed before its completion is
    /// stamped, so the span's cost is inside that request's latency and a
    /// traced run can compare traced and untraced latency.
    pub fn run(&mut self, phase: &Phase<'_>, tracer: &mut Tracer) -> PhaseResult {
        assert!(!phase.reqs.is_empty(), "a phase needs requests");
        let offsets = arrival_offsets(phase.rate, phase.duration);
        let max_key = phase
            .reqs
            .iter()
            .map(|r| r.key)
            .filter(|&k| k != NO_KEY)
            .max()
            .map_or(0, |k| k + 1);
        let mut key_busy = vec![false; max_key];
        let phase_span = tracer.begin("loadgen.phase", None, 0);
        let t0 = Instant::now();
        let sched: Vec<Instant> = offsets
            .iter()
            .map(|&s| t0 + Duration::from_secs_f64(s))
            .collect();
        let mut outcomes: Vec<Outcome> = Vec::with_capacity(sched.len());
        let mut waiting: VecDeque<usize> = VecDeque::new();
        let mut next = 0usize;
        let mut answered = 0usize;
        let mut in_flight = 0usize;
        let end = t0 + phase.duration;
        let mut backlog = Vec::with_capacity(10);
        let mut events: Vec<Event> = Vec::new();
        loop {
            let now = Instant::now();
            while next < sched.len() && sched[next] <= now {
                outcomes.push(Outcome {
                    req: next % phase.reqs.len(),
                    sched: sched[next],
                    seen: now,
                    sent: None,
                    done: None,
                    status: 0,
                    rid: String::new(),
                    body: String::new(),
                });
                waiting.push_back(next);
                next += 1;
            }
            while backlog.len() < 10 && now >= t0 + phase.duration * (backlog.len() as u32 + 1) / 10
            {
                backlog.push(next - answered);
            }
            let sending = now < end + SEND_GRACE;
            if !sending {
                waiting.clear();
            }
            // Hand due arrivals to free connections, skipping arrivals
            // whose key already has a request in flight.
            for slot in 0..self.conns.len() {
                if self.conns[slot].busy.is_some() || waiting.is_empty() {
                    continue;
                }
                let pick = waiting.iter().position(|&a| {
                    let k = phase.reqs[outcomes[a].req].key;
                    k == NO_KEY || !key_busy[k]
                });
                let Some(pos) = pick else { break };
                let a = waiting.remove(pos).expect("position is in range");
                let req = &phase.reqs[outcomes[a].req];
                if req.key != NO_KEY {
                    key_busy[req.key] = true;
                }
                let span = (tracer.on() && traced_arrival(a, phase.rate))
                    .then(|| tracer.begin("client.request", Some(phase_span), 0));
                let c = &mut self.conns[slot];
                c.span = span;
                c.out = format!(
                    "POST {} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\n\r\n{}",
                    req.path,
                    req.body.len(),
                    req.body
                )
                .into_bytes();
                c.out_pos = 0;
                c.busy = Some(a);
                outcomes[a].sent = Some(Instant::now());
                in_flight += 1;
                if !self.pump_write(slot) {
                    self.fail(slot, &mut outcomes, phase, &mut key_busy, tracer);
                    in_flight -= 1;
                    answered += 1;
                }
            }
            let schedule_done = next == sched.len() && waiting.is_empty();
            if schedule_done && in_flight == 0 && now >= end {
                break;
            }
            if now > end + ANSWER_CEILING {
                for slot in 0..self.conns.len() {
                    if self.conns[slot].busy.is_some() {
                        self.fail(slot, &mut outcomes, phase, &mut key_busy, tracer);
                    }
                }
                break;
            }
            let timeout = if next < sched.len() {
                sched[next]
                    .saturating_duration_since(now)
                    .min(Duration::from_millis(5))
            } else {
                Duration::from_millis(2)
            };
            self.poller
                .wait(&mut events, Some(timeout))
                .expect("poll the client sockets");
            for ev in std::mem::take(&mut events) {
                let Some(slot) = self.conns.iter().position(|c| c.token == ev.token) else {
                    continue;
                };
                let Some(a) = self.conns[slot].busy else {
                    if ev.closed {
                        let _ = self.reopen(slot);
                    }
                    continue;
                };
                if ev.writable && !self.pump_write(slot) {
                    self.fail(slot, &mut outcomes, phase, &mut key_busy, tracer);
                    in_flight -= 1;
                    answered += 1;
                    continue;
                }
                if ev.readable || ev.closed {
                    match self.pump_read(slot) {
                        Ok(None) => {}
                        Ok(Some((status, rid, body))) => {
                            if let Some(sp) = self.conns[slot].span.take() {
                                tracer.set_rid(sp, rid_seq(&rid));
                                tracer.end(sp);
                            }
                            let o = &mut outcomes[a];
                            o.done = Some(Instant::now());
                            o.status = status;
                            o.rid = rid;
                            o.body = body;
                            let key = phase.reqs[o.req].key;
                            if key != NO_KEY {
                                key_busy[key] = false;
                            }
                            self.conns[slot].busy = None;
                            in_flight -= 1;
                            answered += 1;
                        }
                        Err(()) => {
                            self.fail(slot, &mut outcomes, phase, &mut key_busy, tracer);
                            in_flight -= 1;
                            answered += 1;
                        }
                    }
                }
            }
        }
        tracer.end(phase_span);
        PhaseResult { outcomes, backlog }
    }

    /// Abandons the request in flight on `slot` and reconnects.
    fn fail(
        &mut self,
        slot: usize,
        outcomes: &mut [Outcome],
        phase: &Phase<'_>,
        key_busy: &mut [bool],
        tracer: &mut Tracer,
    ) {
        if let Some(sp) = self.conns[slot].span.take() {
            tracer.end(sp);
        }
        if let Some(a) = self.conns[slot].busy.take() {
            let key = phase.reqs[outcomes[a].req].key;
            if key != NO_KEY {
                key_busy[key] = false;
            }
        }
        self.reopen(slot).expect("reconnect to the server");
    }
}

/// The sequence part of a server request id (`<boot hex>-<seq hex>`).
pub fn rid_seq(rid: &str) -> u64 {
    rid.rsplit('-')
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_evenly_paced() {
        let a = arrival_offsets(200.0, Duration::from_secs(10));
        assert_eq!(a.len(), 2000);
        assert_eq!(a[0], 0.0);
        assert!((a[1999] - 9.995).abs() < 1e-9);
    }

    #[test]
    fn traced_arrivals_alternate_by_second() {
        // At 4 per second, arrivals 0-3 are due in second 0, 4-7 in second 1.
        let traced: Vec<bool> = (0..10).map(|a| traced_arrival(a, 4.0)).collect();
        assert_eq!(
            traced,
            [false, false, false, false, true, true, true, true, false, false]
        );
    }

    #[test]
    fn request_ids_parse_to_their_sequence() {
        assert_eq!(rid_seq("18f2a9c0b11-1f"), 31);
        assert_eq!(rid_seq(""), 0);
    }
}
