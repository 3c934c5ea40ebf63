//! A deliberately small HTTP/1.1 layer: enough to parse the request line,
//! headers and body of the server's endpoints and to write well-formed
//! responses.
//!
//! The core is the *incremental* parser [`try_parse_request`]: it looks at
//! whatever bytes have arrived so far and answers "complete request
//! (+ how many bytes it consumed)", "need more bytes", or a typed error.
//! That shape serves two callers:
//!
//! * the event-loop server feeds it per-connection receive buffers as
//!   readiness events deliver bytes, which is what makes HTTP/1.1
//!   keep-alive possible (leftover bytes after `consumed` are simply the
//!   start of the next request);
//! * the blocking [`read_request`] wraps it in a read loop over a
//!   [`TcpStream`] for tests, tools and the client side of the fuzz
//!   harness.
//!
//! Keep-alive is negotiated per request: HTTP/1.1 defaults to keep-alive,
//! HTTP/1.0 (or anything else) to close, and an explicit `Connection:`
//! header wins either way. The parsed verdict rides on [`Request::close`].

use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

/// Hard cap on request body size (16 MiB) — scoring payloads are small.
pub const MAX_BODY_BYTES: usize = 16 << 20;

/// Hard cap on request head (request line + headers) size.
pub const MAX_HEAD_BYTES: usize = 64 << 10;

/// A parsed HTTP request.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// Request method, upper-case (`GET`, `POST`, ...).
    pub method: String,
    /// Request path without query string.
    pub path: String,
    /// Raw query string (text after `?`, without it; empty when absent).
    pub query: String,
    /// Decoded request body.
    pub body: String,
    /// Whether the connection must close after the response: `true` for
    /// `Connection: close`, for HTTP/1.0 without `Connection: keep-alive`,
    /// and for unrecognized protocol versions.
    pub close: bool,
    /// Whether the client sent `X-Debug-Timing: 1`, asking for a
    /// `Server-Timing` header with per-stage latency attribution.
    pub debug_timing: bool,
    /// The raw `traceparent` header value, when the client sent one —
    /// joins the server's spans to the caller's trace.
    pub traceparent: Option<String>,
}

/// A complete request plus the number of buffer bytes it occupied; bytes
/// past `consumed` belong to the next pipelined request.
#[derive(Debug)]
pub struct ParsedRequest {
    /// The parsed request.
    pub req: Request,
    /// Bytes of the buffer this request consumed (head + body).
    pub consumed: usize,
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The request violates the supported HTTP subset.
    Malformed(String),
    /// Head or body exceeded the size caps.
    TooLarge,
    /// The client stalled past the read timeout mid-request.
    Timeout,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "io error: {e}"),
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::TooLarge => write!(f, "request too large"),
            HttpError::Timeout => write!(f, "read timed out waiting for the request"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        // A read timeout surfaces as WouldBlock or TimedOut depending on
        // the platform; both mean "the client stalled", mapped to a typed
        // error so the server can answer 408 instead of a generic 400.
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            return HttpError::Timeout;
        }
        HttpError::Io(e)
    }
}

/// Default read timeout when the caller passes `timeout = None` to
/// [`read_request`] (the historical hard-coded value).
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Attempts to parse one complete request from the start of `buf`.
///
/// Returns `Ok(Some(_))` with the request and its consumed length,
/// `Ok(None)` when the buffer holds only a prefix of a request (read more
/// and retry), or a typed error once the bytes can never become a valid
/// request (oversized head/body, bad syntax).
///
/// # Errors
/// [`HttpError::TooLarge`] on cap violations, [`HttpError::Malformed`] on
/// syntax errors; never [`HttpError::Io`] / [`HttpError::Timeout`] (those
/// belong to the transport driving the buffer).
pub fn try_parse_request(buf: &[u8]) -> Result<Option<ParsedRequest>, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge);
        }
        return Ok(None);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("non-utf8 head".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty head".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?
        .to_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing path".into()))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 and unknown versions to
    // close. An explicit Connection header below overrides.
    let version = parts.next().unwrap_or("").trim();
    let mut close = !version.eq_ignore_ascii_case("HTTP/1.1");

    let mut content_length = 0usize;
    let mut debug_timing = false;
    let mut traceparent = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Malformed("bad content-length".into()))?;
            } else if name.eq_ignore_ascii_case("connection") {
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        close = true;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        close = false;
                    }
                }
            } else if name.eq_ignore_ascii_case("x-debug-timing") {
                debug_timing = value.trim() == "1";
            } else if name.eq_ignore_ascii_case("traceparent") {
                traceparent = Some(value.trim().to_string());
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }

    let body_start = head_end + 4;
    let consumed = body_start + content_length;
    if buf.len() < consumed {
        return Ok(None);
    }
    let body = std::str::from_utf8(&buf[body_start..consumed])
        .map_err(|_| HttpError::Malformed("non-utf8 body".into()))?
        .to_string();

    Ok(Some(ParsedRequest {
        req: Request {
            method,
            path,
            query,
            body,
            close,
            debug_timing,
            traceparent,
        },
        consumed,
    }))
}

/// Looks up `key` in a raw query string (`a=1&b=2` form, no percent
/// decoding). A bare token (`?on`) matches as a key with an empty value.
pub fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = match pair.split_once('=') {
            Some((k, v)) => (k, v),
            None => (pair, ""),
        };
        (k == key).then_some(v)
    })
}

/// Reads and parses one request from the stream. Applies the given read
/// timeout (default [`DEFAULT_READ_TIMEOUT`]) so a stalled client cannot
/// pin the caller forever; a stall surfaces as [`HttpError::Timeout`].
pub fn read_request(
    stream: &mut TcpStream,
    timeout: Option<Duration>,
) -> Result<Request, HttpError> {
    stream.set_read_timeout(Some(timeout.unwrap_or(DEFAULT_READ_TIMEOUT)))?;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(parsed) = try_parse_request(&buf)? {
            return Ok(parsed.req);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Malformed(
                if find_head_end(&buf).is_none() {
                    "connection closed mid-head"
                } else {
                    "connection closed mid-body"
                }
                .into(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Renders a complete response as bytes. `extra_headers` are emitted
/// verbatim after the standard head (used for `X-Request-Id`); `close`
/// selects the `Connection:` verdict, which must match what the server
/// actually does with the socket afterwards.
pub fn render_response(
    status: u16,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
    close: bool,
) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let connection = if close { "close" } else { "keep-alive" };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    fn round_trip(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            c.write_all(&raw).expect("write");
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let req = read_request(&mut conn, None);
        writer.join().expect("writer thread");
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = round_trip(
            b"POST /score?verbose=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"",
        )
        .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/score");
        assert_eq!(req.query, "verbose=1");
        assert_eq!(req.body, "{\"a\"");
        assert!(!req.close, "bare HTTP/1.1 defaults to keep-alive");
        assert!(!req.debug_timing);
        assert_eq!(req.traceparent, None);
    }

    #[test]
    fn captures_debug_timing_and_traceparent_headers() {
        let parsed = try_parse_request(
            b"POST /score HTTP/1.1\r\nX-Debug-Timing: 1\r\n\
              traceparent: 00-0123456789abcdef0011223344556677-deadbeefcafef00d-01\r\n\
              Content-Length: 0\r\n\r\n",
        )
        .expect("parses")
        .expect("complete");
        assert!(parsed.req.debug_timing);
        assert_eq!(
            parsed.req.traceparent.as_deref(),
            Some("00-0123456789abcdef0011223344556677-deadbeefcafef00d-01")
        );
        // Any value other than "1" leaves the flag off.
        let parsed = try_parse_request(b"GET / HTTP/1.1\r\nX-Debug-Timing: yes\r\n\r\n")
            .expect("parses")
            .expect("complete");
        assert!(!parsed.req.debug_timing);
    }

    #[test]
    fn query_param_lookup() {
        assert_eq!(query_param("view=slowest&n=5", "view"), Some("slowest"));
        assert_eq!(query_param("view=slowest&n=5", "n"), Some("5"));
        assert_eq!(query_param("on", "on"), Some(""));
        assert_eq!(query_param("", "view"), None);
        assert_eq!(query_param("viewx=1", "view"), None);
    }

    #[test]
    fn parses_get_without_body() {
        let req = round_trip(b"GET /healthz HTTP/1.1\r\n\r\n").expect("parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.body, "");
    }

    #[test]
    fn incremental_parse_waits_for_every_byte() {
        let raw = b"POST /score HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..raw.len() {
            let status = try_parse_request(&raw[..cut]).expect("prefix is never an error");
            assert!(status.is_none(), "complete at premature cut {cut}");
        }
        let parsed = try_parse_request(raw)
            .expect("parses")
            .expect("complete request");
        assert_eq!(parsed.consumed, raw.len());
        assert_eq!(parsed.req.body, "hello");
    }

    #[test]
    fn incremental_parse_reports_pipelined_leftover() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let first = try_parse_request(raw)
            .expect("parses")
            .expect("complete request");
        assert_eq!(first.req.path, "/healthz");
        let rest = &raw[first.consumed..];
        let second = try_parse_request(rest)
            .expect("parses")
            .expect("complete request");
        assert_eq!(second.req.path, "/metrics");
        assert_eq!(first.consumed + second.consumed, raw.len());
    }

    #[test]
    fn connection_negotiation_follows_version_and_header() {
        let cases: [(&[u8], bool); 5] = [
            (b"GET / HTTP/1.1\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\n\r\n", true),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", true),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", false),
            (
                b"GET / HTTP/1.1\r\nConnection: Keep-Alive, TE\r\n\r\n",
                false,
            ),
        ];
        for (raw, want_close) in cases {
            let parsed = try_parse_request(raw)
                .expect("parses")
                .expect("complete request");
            assert_eq!(
                parsed.req.close,
                want_close,
                "close verdict for {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn response_includes_extra_headers() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let reader = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            let mut out = String::new();
            c.read_to_string(&mut out).expect("read");
            out
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let raw = render_response(200, "text/plain", "hi", &[("X-Request-Id", "abc-1")], true);
        conn.write_all(&raw).expect("write");
        drop(conn);
        let raw = reader.join().expect("reader thread");
        assert!(raw.contains("X-Request-Id: abc-1\r\n"), "{raw}");
        assert!(raw.contains("Connection: close\r\n"), "{raw}");
        assert!(raw.ends_with("hi"), "{raw}");
    }

    #[test]
    fn rendered_keepalive_response_says_so() {
        let raw = render_response(200, "application/json", "{}", &[], false);
        let text = String::from_utf8(raw).expect("ascii response");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
    }

    #[test]
    fn stalled_client_yields_timeout_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // Connect but never send a byte: the read must give up with the
        // typed Timeout error instead of blocking the handler forever.
        let client = TcpStream::connect(addr).expect("connect");
        let (mut conn, _) = listener.accept().expect("accept");
        let err = read_request(&mut conn, Some(Duration::from_millis(50))).expect_err("must fail");
        assert!(matches!(err, HttpError::Timeout), "{err}");
        drop(client);
    }

    #[test]
    fn rejects_truncated_body() {
        let err = round_trip(b"POST /score HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
            .expect_err("must fail");
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
    }
}
