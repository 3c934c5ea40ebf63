//! A minimal blocking HTTP/1.1 client for the server's endpoints, plus a
//! seeded retrying wrapper.
//!
//! The smoke binary, the throughput bench, the chaos harness and the
//! integration tests all need the same three things: fire one request over
//! a real socket, read the whole response, and — when the server answers
//! with backpressure (`429`/`503`) or the connection drops — retry after a
//! wait. A `Retry-After: <seconds>` header on the retryable response is
//! honored (capped at the policy's `max_ms`); otherwise the jittered
//! exponential backoff schedule from [`cohortnet_chaos::backoff_ms`]
//! applies, so a retry trace is reproducible from its seed.
//!
//! Two framings coexist here. [`request`]/[`read_response`] speak
//! `Connection: close` and read to EOF — one request per socket.
//! [`Connection`] holds a keep-alive socket open across requests, framing
//! each response by its `Content-Length` via the incremental
//! [`try_parse_response`] (which the open-loop load harness also drives
//! directly over nonblocking sockets).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use cohortnet::infer::ScoreRequest;

/// A fully read HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Raw response head (status line + headers).
    pub head: String,
    /// Response body.
    pub body: String,
}

impl Response {
    /// Looks up a response header value by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().find_map(|line| {
            let (n, v) = line.split_once(':')?;
            n.trim().eq_ignore_ascii_case(name).then_some(v.trim())
        })
    }
}

/// Renders one instance as the `{"x": [...], "mask": [...]}` object
/// `/explain` takes and `/score` lists, every value in Rust's shortest
/// round-trip float formatting.
pub fn instance_body(req: &ScoreRequest) -> String {
    let join = |v: &[f32]| v.iter().map(f32::to_string).collect::<Vec<_>>().join(",");
    format!(
        "{{\"x\":[{}],\"mask\":[{}]}}",
        join(&req.x),
        join(&req.mask)
    )
}

/// Renders a `/score` body, `{"instances": [...]}`, for `reqs` in order.
pub fn score_body(reqs: &[ScoreRequest]) -> String {
    let instances: Vec<String> = reqs.iter().map(instance_body).collect();
    format!("{{\"instances\":[{}]}}", instances.join(","))
}

/// Fires one request and reads the full response (the server speaks
/// `Connection: close`, so EOF delimits the body).
///
/// # Errors
/// Propagates socket failures; a response without a parsable status line is
/// reported as [`std::io::ErrorKind::InvalidData`].
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    read_response(&mut stream)
}

/// Reads and splits one full response from an already written stream.
///
/// # Errors
/// Propagates socket failures; a response without a parsable status line is
/// reported as [`std::io::ErrorKind::InvalidData`].
pub fn read_response(stream: &mut TcpStream) -> std::io::Result<Response> {
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("no status line in response: {raw:?}"),
            )
        })?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or((raw.clone(), String::new()));
    Ok(Response { status, head, body })
}

/// Attempts to parse one complete `Content-Length`-framed response from
/// the start of `buf`, returning it plus the bytes it consumed (bytes past
/// that belong to the next pipelined response). `Ok(None)` means the
/// buffer holds only a prefix — read more and retry.
///
/// # Errors
/// [`std::io::ErrorKind::InvalidData`] for a head that is not UTF-8, has
/// no parsable status line, or lacks `Content-Length` (an EOF-framed
/// response cannot be keep-alive framed).
pub fn try_parse_response(buf: &[u8]) -> std::io::Result<Option<(Response, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let invalid = |why: String| std::io::Error::new(std::io::ErrorKind::InvalidData, why);
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| invalid("non-utf8 response head".into()))?
        .to_string();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("no status line in response: {head:?}")))?;
    let content_length: usize = head
        .lines()
        .find_map(|line| {
            let (n, v) = line.split_once(':')?;
            n.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or_else(|| invalid(format!("response lacks content-length: {head:?}")))?;
    let consumed = head_end + 4 + content_length;
    if buf.len() < consumed {
        return Ok(None);
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..consumed]).into_owned();
    Ok(Some((Response { status, head, body }, consumed)))
}

/// A blocking keep-alive connection: many requests over one socket, each
/// response framed by `Content-Length`.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Connection {
    /// Opens a keep-alive connection to the server.
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Ok(Connection {
            stream: TcpStream::connect(addr)?,
            buf: Vec::new(),
        })
    }

    /// Writes one request without reading the reply (no `Connection:`
    /// header — HTTP/1.1 defaults to keep-alive).
    ///
    /// # Errors
    /// Propagates socket failures.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<()> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()
    }

    /// Reads the next framed response, leaving any pipelined surplus
    /// buffered for the following call.
    ///
    /// # Errors
    /// [`std::io::ErrorKind::UnexpectedEof`] when the server closes before
    /// a full response; [`std::io::ErrorKind::InvalidData`] on an
    /// unparsable response.
    pub fn read_reply(&mut self) -> std::io::Result<Response> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((resp, consumed)) = try_parse_response(&self.buf)? {
                self.buf.drain(..consumed);
                return Ok(resp);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// One request-response round trip on the held connection.
    ///
    /// # Errors
    /// Propagates [`Connection::send`] / [`Connection::read_reply`]
    /// failures.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        self.send(method, path, body)?;
        self.read_reply()
    }

    /// The underlying socket, for tests that poke at timeouts or
    /// half-closes.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

/// Retry schedule for [`request_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub attempts: u32,
    /// Base backoff before the second attempt, milliseconds.
    pub base_ms: u64,
    /// Backoff cap, milliseconds.
    pub max_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_ms: 25,
            max_ms: 1_000,
            seed: 0x5eed,
        }
    }
}

/// Whether a status is worth retrying: the server's backpressure answers.
pub fn is_retryable_status(status: u16) -> bool {
    matches!(status, 408 | 429 | 503)
}

/// The server-advised wait from a `Retry-After` header, in milliseconds,
/// capped at `max_ms`. Only the delta-seconds form is understood (the
/// HTTP-date form is ignored — the seeded backoff then applies).
fn retry_after_ms(resp: &Response, max_ms: u64) -> Option<u64> {
    let secs: u64 = resp.header("retry-after")?.parse().ok()?;
    Some(secs.saturating_mul(1_000).min(max_ms.max(1)))
}

/// Fires a request, retrying on connection errors and retryable statuses
/// (`408`/`429`/`503`). When the retryable response carries a
/// `Retry-After: <seconds>` header the server's advice wins (capped at
/// `max_ms`); otherwise the sleep falls back to capped exponential
/// backoff with deterministic jitter from the policy seed. Returns the
/// last response (even if still retryable) once the attempt budget runs
/// out.
///
/// # Errors
/// The last connection error, when every attempt failed at the socket level.
pub fn request_with_retry(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    policy: RetryPolicy,
) -> std::io::Result<Response> {
    let attempts = policy.attempts.max(1);
    let mut last_err: Option<std::io::Error> = None;
    let mut advised_ms: Option<u64> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            let ms = advised_ms.take().unwrap_or_else(|| {
                cohortnet_chaos::backoff_ms(policy.seed, attempt - 1, policy.base_ms, policy.max_ms)
            });
            std::thread::sleep(Duration::from_millis(ms));
        }
        match request(addr, method, path, body) {
            Ok(resp) if is_retryable_status(resp.status) && attempt + 1 < attempts => {
                advised_ms = retry_after_ms(&resp, policy.max_ms);
                last_err = None;
                continue;
            }
            Ok(resp) => return Ok(resp),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err
        .unwrap_or_else(|| std::io::Error::other("retry budget exhausted with a retryable status")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-shot server thread answering each accepted connection with a
    /// fixed raw response.
    fn canned_server(responses: Vec<&'static str>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            for raw in responses {
                let (mut conn, _) = listener.accept().expect("accept");
                // Drain the request head so the client's write succeeds.
                let mut buf = [0u8; 4096];
                let _ = conn.read(&mut buf);
                conn.write_all(raw.as_bytes()).expect("write response");
            }
        });
        (addr, handle)
    }

    #[test]
    fn parses_status_head_and_body() {
        let (addr, server) = canned_server(vec![
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nX-Request-Id: r-1\r\n\r\nhello",
        ]);
        let resp = request(addr, "GET", "/healthz", "").expect("request");
        server.join().expect("server thread");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "hello");
        assert_eq!(resp.header("x-request-id"), Some("r-1"));
    }

    #[test]
    fn incremental_response_parser_frames_by_content_length() {
        let first = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok";
        let second = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        let mut raw = first.to_vec();
        raw.extend_from_slice(second);
        for cut in 0..first.len() {
            let partial = try_parse_response(&raw[..cut]).expect("prefix parses");
            assert!(partial.is_none(), "complete at premature cut {cut}");
        }
        let (resp, consumed) = try_parse_response(&raw)
            .expect("parses")
            .expect("complete response");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "ok");
        assert_eq!(consumed, first.len(), "must stop at the frame boundary");
        let (resp, consumed) = try_parse_response(&raw[first.len()..])
            .expect("parses")
            .expect("second response");
        assert_eq!(resp.status, 404);
        assert_eq!(consumed, second.len());
    }

    #[test]
    fn retries_past_backpressure_to_success() {
        let (addr, server) = canned_server(vec![
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n\r\n",
            "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\r\n",
            "HTTP/1.1 200 OK\r\n\r\nok",
        ]);
        let policy = RetryPolicy {
            attempts: 4,
            base_ms: 1,
            max_ms: 4,
            seed: 7,
        };
        let resp = request_with_retry(addr, "GET", "/", "", policy).expect("eventually succeeds");
        server.join().expect("server thread");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "ok");
    }

    #[test]
    fn honors_retry_after_header_over_seeded_backoff() {
        let (addr, server) = canned_server(vec![
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 0\r\n\r\n",
            "HTTP/1.1 200 OK\r\n\r\nok",
        ]);
        // The seeded backoff would sleep >= base_ms/2 = 30s; honoring the
        // server's Retry-After: 0 is the only way this finishes promptly.
        let policy = RetryPolicy {
            attempts: 2,
            base_ms: 60_000,
            max_ms: 60_000,
            seed: 7,
        };
        let t0 = std::time::Instant::now();
        let resp = request_with_retry(addr, "GET", "/", "", policy).expect("succeeds");
        server.join().expect("server thread");
        assert_eq!(resp.status, 200);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "Retry-After: 0 must preempt the {}ms seeded backoff (took {:?})",
            policy.base_ms,
            t0.elapsed()
        );
    }

    #[test]
    fn falls_back_to_seeded_backoff_without_retry_after() {
        let (addr, server) = canned_server(vec![
            "HTTP/1.1 503 Service Unavailable\r\n\r\n",
            "HTTP/1.1 200 OK\r\n\r\nok",
        ]);
        let policy = RetryPolicy {
            attempts: 2,
            base_ms: 200,
            max_ms: 200,
            seed: 7,
        };
        let t0 = std::time::Instant::now();
        let resp = request_with_retry(addr, "GET", "/", "", policy).expect("succeeds");
        server.join().expect("server thread");
        assert_eq!(resp.status, 200);
        // backoff_ms jitter is in [0.5, 1.0] x base, so the fallback sleep
        // is at least base_ms/2.
        assert!(
            t0.elapsed() >= Duration::from_millis(100),
            "no Retry-After -> seeded backoff must apply (took {:?})",
            t0.elapsed()
        );
    }

    #[test]
    fn returns_last_retryable_response_when_budget_runs_out() {
        let (addr, server) = canned_server(vec![
            "HTTP/1.1 503 Service Unavailable\r\n\r\n",
            "HTTP/1.1 503 Service Unavailable\r\n\r\n",
        ]);
        let policy = RetryPolicy {
            attempts: 2,
            base_ms: 1,
            max_ms: 2,
            seed: 7,
        };
        let resp = request_with_retry(addr, "GET", "/", "", policy).expect("last response");
        server.join().expect("server thread");
        assert_eq!(resp.status, 503);
    }
}
