//! Command-line parsing shared by the `cohortnet-serve` and
//! `cohortnet-fleet` binaries: the flags both accept (transport, batching
//! and precision), their usage lines, and the error paths — a missing or
//! non-numeric value or an unknown flag prints the reason and the usage
//! and exits with status 2.

use std::str::FromStr;

use crate::server::ServerConfig;

/// Usage lines of the shared flags, in the order both CLIs print them.
pub const SHARED_USAGE: &str = "         \
    [--port N (default 8080)] [--max-batch N (default 16)]
         [--max-delay-us N (default 0: dispatch as soon as the batcher is free)]
         [--threads N (default 0 = all cores)]
         [--deadline-ms N (default 0 = no queue deadline)]
         [--read-timeout-ms N (default 0 = built-in 10s)]
         [--idle-timeout-ms N (default 0 = built-in 30s keep-alive idle close)]
         [--max-connections N (default 256, 0 = unlimited)]
         [--workers N (default 0 = built-in 16 request workers)]
         [--quant (serve the int8 quantized trunk; default f32)]";

/// A flag cursor over the process arguments, holding the usage text its
/// error paths print.
pub struct Cli {
    args: std::iter::Skip<std::env::Args>,
    usage: String,
}

impl Cli {
    /// Reads the process arguments (program name skipped).
    pub fn new(usage: String) -> Self {
        Cli {
            args: std::env::args().skip(1),
            usage,
        }
    }

    /// Prints the usage and exits with status 2.
    pub fn usage(&self) -> ! {
        eprintln!("{}", self.usage);
        std::process::exit(2)
    }

    /// The next flag, `None` at the end of the line.
    pub fn next_flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        self.args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            self.usage()
        })
    }

    /// The value following `flag`, parsed as a number.
    pub fn num<T: FromStr>(&mut self, flag: &str) -> T {
        let text = self.value(flag);
        text.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: not a number: {text}");
            self.usage()
        })
    }

    /// Applies `flag` when it is a shared one (`--help` included) and
    /// reports whether it was. The fleet CLI reads the transport slice back
    /// with [`ServerConfig::transport`].
    pub fn shared_flag(&mut self, flag: &str, out: &mut ServerConfig) -> bool {
        match flag {
            "--port" => out.port = self.num(flag),
            "--max-batch" => out.engine.max_batch = self.num(flag),
            "--max-delay-us" => out.engine.max_delay_us = self.num(flag),
            "--threads" => out.engine.threads = self.num(flag),
            "--deadline-ms" => out.engine.deadline_ms = self.num(flag),
            "--read-timeout-ms" => out.read_timeout_ms = self.num(flag),
            "--idle-timeout-ms" => out.idle_timeout_ms = self.num(flag),
            "--max-connections" => out.max_connections = self.num(flag),
            "--workers" => out.workers = self.num(flag),
            "--quant" => out.quant = true,
            "--help" | "-h" => self.usage(),
            _ => return false,
        }
        true
    }

    /// Rejects an unknown flag.
    pub fn unknown(&self, flag: &str) -> ! {
        eprintln!("unknown flag {flag}");
        self.usage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_usage_lines_keep_their_indent() {
        for line in SHARED_USAGE.lines() {
            assert!(line.starts_with("         ["), "{line:?}");
        }
        assert_eq!(SHARED_USAGE.lines().count(), 9);
    }
}
