//! Plumbing the smoke binaries share: one blocking request helper over
//! [`cohortnet_serve::client`] and the narration sink whose log file CI
//! uploads.

use std::net::SocketAddr;

use cohortnet_serve::client;

/// Fires one `Connection: close` request through
/// [`client::request`] and returns `(status, body)`. A socket failure
/// panics: to a smoke run it is a failed run.
pub fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let resp = client::request(addr, method, path, body)
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
    (resp.status, resp.body)
}

/// Narration sink: every line echoes to stderr as `[tag] line` and
/// accumulates for the log file [`SmokeLog::flush`] writes.
pub struct SmokeLog {
    tag: &'static str,
    path: &'static str,
    text: String,
}

impl SmokeLog {
    /// A sink tagging stderr lines with `tag` and flushing to `path`.
    pub fn new(tag: &'static str, path: &'static str) -> Self {
        SmokeLog {
            tag,
            path,
            text: String::new(),
        }
    }

    /// Echoes one line and keeps it for the log file.
    pub fn say(&mut self, line: impl AsRef<str>) {
        let line = line.as_ref();
        eprintln!("[{}] {line}", self.tag);
        self.text.push_str(line);
        self.text.push('\n');
    }

    /// Writes everything said so far to the log path (creating its
    /// directory); a write failure is reported, not fatal.
    pub fn flush(&self) {
        let (tag, path) = (self.tag, self.path);
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, &self.text) {
            eprintln!("[{tag}] could not write {path}: {e}");
        } else {
            eprintln!("[{tag}] wrote {path}");
        }
    }
}
