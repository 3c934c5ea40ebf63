//! The structured, leveled logger.
//!
//! Every line has a **target** (a dotted module path like
//! `cohortnet.serve`), a [`Level`], a message, and zero or more `key=value`
//! fields. Emission is controlled by a filter of the `COHORTNET_LOG` form:
//!
//! ```text
//! COHORTNET_LOG=warn                          # only warnings and errors
//! COHORTNET_LOG=debug                         # everything up to debug
//! COHORTNET_LOG=info,cohortnet.serve=debug    # per-target overrides
//! ```
//!
//! The default filter (no env var) is `info`. Lines go to stderr as
//! human-readable text, or as JSON lines with `COHORTNET_LOG_FORMAT=json`;
//! a test/smoke harness can additionally mirror them into an in-memory
//! buffer with [`capture_start`].
//!
//! The hot-path gate is [`enabled`]: one relaxed atomic load against the
//! maximum level any target admits. The [`crate::obs_info!`]-family macros
//! only format their message and fields after that gate passes.
//!
//! Warn lines are additionally rate-limited per call site (token bucket,
//! [`WARN_BURST`] burst / [`WARN_REFILL_PER_SEC`] refill) so a poisoned
//! hot loop cannot flood stderr; swallowed lines are counted in the
//! `cohortnet_log_suppressed_total` metric and summarized on the site's
//! next emitted line as a `suppressed=N` field. Errors are never limited.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The operation failed.
    Error = 1,
    /// Something surprising that the run survived.
    Warn = 2,
    /// Progress and stage summaries (the default filter).
    Info = 3,
    /// Per-epoch / per-batch chatter.
    Debug = 4,
    /// Very fine-grained events.
    Trace = 5,
}

impl Level {
    /// The lower-case name used in rendered lines and filters.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn parse(text: &str) -> Option<Level> {
        match text.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            "off" | "none" => None,
            _ => None,
        }
    }
}

/// Output encoding for emitted lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `[  12.345s INFO  target] message | key=value`
    Text,
    /// One JSON object per line.
    Json,
}

/// A parsed `COHORTNET_LOG` filter: a default level plus per-target-prefix
/// overrides (longest prefix wins).
#[derive(Debug, Clone)]
struct Filter {
    default: u8,
    targets: Vec<(String, u8)>,
}

impl Filter {
    fn parse(spec: &str) -> Filter {
        let mut default = Level::Info as u8;
        let mut targets: Vec<(String, u8)> = Vec::new();
        for item in spec.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            match item.split_once('=') {
                Some((target, level)) => {
                    let lvl = Level::parse(level).map_or(0, |l| l as u8);
                    targets.push((target.trim().to_string(), lvl));
                }
                None => default = Level::parse(item).map_or(0, |l| l as u8),
            }
        }
        // Longest prefix first so the first match is the most specific.
        targets.sort_by_key(|(t, _)| std::cmp::Reverse(t.len()));
        Filter { default, targets }
    }

    fn level_for(&self, target: &str) -> u8 {
        for (prefix, lvl) in &self.targets {
            if target.starts_with(prefix.as_str()) {
                return *lvl;
            }
        }
        self.default
    }

    fn max_level(&self) -> u8 {
        self.targets
            .iter()
            .map(|&(_, l)| l)
            .fold(self.default, u8::max)
    }
}

/// Warn-site token bucket: burst capacity per call site. A site that has
/// warned this many times without pause is suppressed until it refills.
pub const WARN_BURST: f64 = 8.0;

/// Warn-site token bucket: refill rate in tokens per second.
pub const WARN_REFILL_PER_SEC: f64 = 2.0;

/// Per-call-site token bucket state for warn rate limiting.
struct SiteBucket {
    tokens: f64,
    last_refill: Instant,
    suppressed: u64,
}

struct LogState {
    filter: Filter,
    format: Format,
    capture: Option<Arc<Mutex<String>>>,
    /// Warn-site buckets, keyed by `file:line` of the macro call site.
    sites: std::collections::HashMap<&'static str, SiteBucket>,
}

/// Fast gate: the highest level any target admits. 3 == the `info` default.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

fn state() -> &'static Mutex<LogState> {
    static STATE: OnceLock<Mutex<LogState>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(LogState {
            filter: Filter::parse("info"),
            format: Format::Text,
            capture: None,
            sites: std::collections::HashMap::new(),
        })
    })
}

fn start_instant() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Applies `COHORTNET_LOG` / `COHORTNET_LOG_FORMAT`. Called by
/// [`crate::init_from_env`].
pub(crate) fn configure_from_env() {
    if let Ok(spec) = std::env::var("COHORTNET_LOG") {
        set_filter(&spec);
    }
    if let Ok(fmt) = std::env::var("COHORTNET_LOG_FORMAT") {
        if fmt.eq_ignore_ascii_case("json") {
            set_format(Format::Json);
        }
    }
    let _ = start_instant();
}

/// Replaces the active filter with a parsed `COHORTNET_LOG`-style spec.
pub fn set_filter(spec: &str) {
    let filter = Filter::parse(spec);
    MAX_LEVEL.store(filter.max_level(), Ordering::Relaxed);
    state().lock().expect("log state poisoned").filter = filter;
}

/// Switches the output encoding.
pub fn set_format(format: Format) {
    state().lock().expect("log state poisoned").format = format;
}

/// Whether *any* target admits `level` — one relaxed atomic load. The
/// per-target filter is applied inside [`write`]; this gate exists so
/// disabled call sites pay nothing for message/field formatting.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Mirrors every emitted line into an in-memory buffer (in addition to
/// stderr) until the returned handle is dropped. Used by smoke tests to
/// assert on log contents — e.g. that a served request id shows up.
pub fn capture_start() -> CaptureHandle {
    let buf = Arc::new(Mutex::new(String::new()));
    state().lock().expect("log state poisoned").capture = Some(Arc::clone(&buf));
    CaptureHandle { buf }
}

/// Live view of captured log lines; dropping it stops the capture.
pub struct CaptureHandle {
    buf: Arc<Mutex<String>>,
}

impl CaptureHandle {
    /// Everything captured so far.
    pub fn contents(&self) -> String {
        self.buf.lock().expect("capture buffer poisoned").clone()
    }
}

impl Drop for CaptureHandle {
    fn drop(&mut self) {
        state().lock().expect("log state poisoned").capture = None;
    }
}

fn json_escape(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Total warn lines swallowed by the per-site rate limiter, also exported
/// via the global registry as `cohortnet_log_suppressed_total`.
pub fn suppressed_total() -> u64 {
    suppressed_counter().get()
}

fn suppressed_counter() -> &'static Arc<crate::metrics::Counter> {
    static COUNTER: OnceLock<Arc<crate::metrics::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| {
        crate::metrics::global().counter(
            "cohortnet_log_suppressed_total",
            "Warn lines swallowed by the per-call-site rate limiter.",
        )
    })
}

/// Formats and emits one record. Call through the [`crate::obs_info!`]-family
/// macros, which apply the [`enabled`] gate first.
pub fn write(level: Level, target: &str, msg: &str, fields: &[(&str, String)]) {
    write_at(level, target, "", msg, fields);
}

/// Like [`write`], with the macro call site (`file:line`) attached. Warn
/// records are token-bucket rate-limited per site ([`WARN_BURST`] burst,
/// [`WARN_REFILL_PER_SEC`] refill) so one hot warn site — say, a
/// chaos-poisoned engine rejecting every batch — cannot flood stderr.
/// Suppressed lines are counted in `cohortnet_log_suppressed_total`, and
/// the next line the site does emit carries a `suppressed=N` field.
pub fn write_at(
    level: Level,
    target: &str,
    site: &'static str,
    msg: &str,
    fields: &[(&str, String)],
) {
    let line = {
        let mut state = state().lock().expect("log state poisoned");
        if level as u8 > state.filter.level_for(target) {
            return;
        }
        let mut summary: Option<(&str, String)> = None;
        if level == Level::Warn && !site.is_empty() {
            let now = Instant::now();
            let bucket = state.sites.entry(site).or_insert(SiteBucket {
                tokens: WARN_BURST,
                last_refill: now,
                suppressed: 0,
            });
            let elapsed = now.duration_since(bucket.last_refill).as_secs_f64();
            bucket.tokens = (bucket.tokens + elapsed * WARN_REFILL_PER_SEC).min(WARN_BURST);
            bucket.last_refill = now;
            if bucket.tokens < 1.0 {
                bucket.suppressed += 1;
                drop(state);
                suppressed_counter().inc();
                return;
            }
            bucket.tokens -= 1.0;
            if bucket.suppressed > 0 {
                summary = Some(("suppressed", bucket.suppressed.to_string()));
                bucket.suppressed = 0;
            }
        }
        let state = &*state;
        let mut line = String::with_capacity(64 + msg.len());
        match state.format {
            Format::Text => {
                let elapsed = start_instant().elapsed().as_secs_f64();
                line.push_str(&format!(
                    "[{elapsed:9.3}s {:5} {target}] {msg}",
                    level.as_str().to_ascii_uppercase()
                ));
                if !fields.is_empty() || summary.is_some() {
                    line.push_str(" |");
                    for (k, v) in fields.iter().chain(summary.iter()) {
                        line.push_str(&format!(" {k}={v}"));
                    }
                }
            }
            Format::Json => {
                let ts_ms = SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map_or(0, |d| d.as_millis());
                line.push_str(&format!(
                    "{{\"ts_ms\":{ts_ms},\"level\":\"{}\",\"target\":\"",
                    level.as_str()
                ));
                json_escape(target, &mut line);
                line.push_str("\",\"msg\":\"");
                json_escape(msg, &mut line);
                line.push('"');
                for (k, v) in fields.iter().chain(summary.iter()) {
                    line.push_str(",\"");
                    json_escape(k, &mut line);
                    line.push_str("\":\"");
                    json_escape(v, &mut line);
                    line.push('"');
                }
                line.push('}');
            }
        }
        if let Some(capture) = &state.capture {
            let mut buf = capture.lock().expect("capture buffer poisoned");
            buf.push_str(&line);
            buf.push('\n');
        }
        line
    };
    eprintln!("{line}");
}

/// Emits one record at an explicit [`Level`]; prefer the level-named macros.
#[macro_export]
macro_rules! obs_log {
    ($lvl:expr, target: $target:expr, $msg:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        if $crate::log::enabled($lvl) {
            $crate::log::write_at(
                $lvl,
                $target,
                ::std::concat!(::std::file!(), ":", ::std::line!()),
                ::std::convert::AsRef::<str>::as_ref(&$msg),
                &[$((stringify!($k), ::std::format!("{}", $v))),*],
            );
        }
    }};
}

/// Logs at [`Level::Error`]: `obs_error!(target: "cohortnet.x", "msg", key = value)`.
#[macro_export]
macro_rules! obs_error {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::obs_log!($crate::log::Level::Error, target: $target, $($rest)*)
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! obs_warn {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::obs_log!($crate::log::Level::Warn, target: $target, $($rest)*)
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! obs_info {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::obs_log!($crate::log::Level::Info, target: $target, $($rest)*)
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! obs_debug {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::obs_log!($crate::log::Level::Debug, target: $target, $($rest)*)
    };
}

/// Logs at [`Level::Trace`].
#[macro_export]
macro_rules! obs_trace {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::obs_log!($crate::log::Level::Trace, target: $target, $($rest)*)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_parsing_and_target_overrides() {
        let f = Filter::parse("warn,cohortnet.serve=debug,cohortnet.serve.http=trace");
        assert_eq!(f.default, Level::Warn as u8);
        assert_eq!(f.level_for("cohortnet.train"), Level::Warn as u8);
        assert_eq!(f.level_for("cohortnet.serve"), Level::Debug as u8);
        // Longest prefix wins.
        assert_eq!(f.level_for("cohortnet.serve.http"), Level::Trace as u8);
        assert_eq!(f.max_level(), Level::Trace as u8);
    }

    #[test]
    fn off_silences_a_target() {
        let f = Filter::parse("info,noisy=off");
        assert_eq!(f.level_for("noisy.sub"), 0);
        assert_eq!(f.level_for("quiet"), Level::Info as u8);
    }

    #[test]
    fn json_escaping() {
        let mut out = String::new();
        json_escape("a\"b\\c\nd", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd");
    }

    /// Serializes tests that use the process-global capture slot.
    static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

    /// One fixed call site for the rate-limit test — the bucket is keyed
    /// by `file:line` of the macro expansion, so every call must share it.
    fn warn_from_one_site(i: u64) {
        obs_warn!(target: "unit.ratelimit", "same warn again", attempt = i);
    }

    #[test]
    fn warn_sites_are_rate_limited_with_summary() {
        let _serial = CAPTURE_LOCK.lock().unwrap();
        let cap = capture_start();
        let before = suppressed_total();
        for i in 0..30 {
            // One call site, hammered: the bucket admits the burst and
            // swallows the rest.
            warn_from_one_site(i);
        }
        let emitted = cap
            .contents()
            .lines()
            .filter(|l| l.contains("unit.ratelimit"))
            .count();
        assert!(emitted >= 1, "burst must emit something");
        assert!(emitted < 30, "flood must be clipped, got {emitted} lines");
        let swallowed = suppressed_total() - before;
        assert_eq!(swallowed as usize + emitted, 30);

        // After a refill the site speaks again and reports what was lost.
        std::thread::sleep(std::time::Duration::from_millis(600));
        warn_from_one_site(99);
        let text = cap.contents();
        drop(cap);
        let last = text
            .lines()
            .rfind(|l| l.contains("unit.ratelimit"))
            .unwrap();
        assert!(last.contains("suppressed="), "{last}");
    }

    #[test]
    fn distinct_warn_sites_do_not_share_buckets() {
        let _serial = CAPTURE_LOCK.lock().unwrap();
        let cap = capture_start();
        for _ in 0..3 {
            obs_warn!(target: "unit.ratelimit.a", "site a");
            obs_warn!(target: "unit.ratelimit.b", "site b");
        }
        let text = cap.contents();
        drop(cap);
        assert_eq!(text.matches("site a").count(), 3, "{text}");
        assert_eq!(text.matches("site b").count(), 3, "{text}");
    }

    #[test]
    fn errors_are_never_rate_limited() {
        let _serial = CAPTURE_LOCK.lock().unwrap();
        let cap = capture_start();
        for _ in 0..40 {
            obs_error!(target: "unit.ratelimit.err", "must all land");
        }
        let text = cap.contents();
        drop(cap);
        assert_eq!(text.matches("must all land").count(), 40);
    }
}
