//! `cohortnet-serve` — serve a trained CohortNet snapshot over HTTP.
//!
//! ```text
//! cohortnet-serve --snapshot model.cns --port 8080
//! cohortnet-serve --demo                       # train a tiny demo model first
//! cohortnet-serve --demo-snapshot model.cns    # write a demo snapshot and exit
//! ```

use cohortnet::snapshot::load_snapshot;
use cohortnet_obs::obs_info;
use cohortnet_serve::{demo, serve, serve_stream, EngineConfig, ServerConfig, StreamOptions};

/// Log target for server-lifecycle events.
const LOG: &str = "cohortnet.serve.bin";

struct Args {
    snapshot: Option<String>,
    demo: bool,
    demo_snapshot: Option<String>,
    server: ServerConfig,
    stream: bool,
    stream_opts: StreamOptions,
}

fn usage() -> ! {
    eprintln!(
        "usage: cohortnet-serve (--snapshot PATH | --demo | --demo-snapshot PATH)\n\
         \x20        [--port N (default 8080)] [--max-batch N (default 16)]\n\
         \x20        [--max-delay-us N (default 0: dispatch as soon as the batcher is free)]\n\
         \x20        [--threads N (default 0 = all cores)]\n\
         \x20        [--deadline-ms N (default 0 = no queue deadline)]\n\
         \x20        [--read-timeout-ms N (default 0 = built-in 10s)]\n\
         \x20        [--idle-timeout-ms N (default 0 = built-in 30s keep-alive idle close)]\n\
         \x20        [--max-connections N (default 256, 0 = unlimited)]\n\
         \x20        [--workers N (default 0 = built-in 16 request workers)]\n\
         \x20        [--quant (serve the int8 quantized trunk; default f32)]\n\
         \x20        [--stream (enable POST /ingest event-stream sessions)]\n\
         \x20        [--horizon-hours N (default 48, stream window span)]\n\
         \x20        [--session-idle-ms N (default 0 = built-in 300s idle eviction)]\n\
         \x20        [--max-sessions N (default 0 = built-in 1024 LRU cap)]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        snapshot: None,
        demo: false,
        demo_snapshot: None,
        server: ServerConfig {
            port: 8080,
            engine: EngineConfig::default(),
            ..ServerConfig::default()
        },
        stream: false,
        stream_opts: StreamOptions::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--snapshot" => args.snapshot = Some(value("--snapshot")),
            "--demo" => args.demo = true,
            "--demo-snapshot" => args.demo_snapshot = Some(value("--demo-snapshot")),
            "--port" => args.server.port = parse_num(&value("--port"), "--port"),
            "--max-batch" => {
                args.server.engine.max_batch = parse_num(&value("--max-batch"), "--max-batch")
            }
            "--max-delay-us" => {
                args.server.engine.max_delay_us =
                    parse_num(&value("--max-delay-us"), "--max-delay-us")
            }
            "--threads" => args.server.engine.threads = parse_num(&value("--threads"), "--threads"),
            "--deadline-ms" => {
                args.server.engine.deadline_ms = parse_num(&value("--deadline-ms"), "--deadline-ms")
            }
            "--read-timeout-ms" => {
                args.server.read_timeout_ms =
                    parse_num(&value("--read-timeout-ms"), "--read-timeout-ms")
            }
            "--idle-timeout-ms" => {
                args.server.idle_timeout_ms =
                    parse_num(&value("--idle-timeout-ms"), "--idle-timeout-ms")
            }
            "--max-connections" => {
                args.server.max_connections =
                    parse_num(&value("--max-connections"), "--max-connections")
            }
            "--workers" => args.server.workers = parse_num(&value("--workers"), "--workers"),
            "--quant" => args.server.quant = true,
            "--stream" => args.stream = true,
            "--horizon-hours" => {
                args.stream_opts.horizon_hours =
                    parse_num(&value("--horizon-hours"), "--horizon-hours")
            }
            "--session-idle-ms" => {
                args.stream_opts.session_idle_ms =
                    parse_num(&value("--session-idle-ms"), "--session-idle-ms")
            }
            "--max-sessions" => {
                args.stream_opts.max_sessions =
                    parse_num(&value("--max-sessions"), "--max-sessions")
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn parse_num<T: std::str::FromStr>(text: &str, name: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{name}: not a number: {text}");
        usage()
    })
}

fn main() {
    cohortnet_obs::init_from_env();
    let args = parse_args();

    if let Some(path) = &args.demo_snapshot {
        obs_info!(target: LOG, "training demo model");
        let bundle = demo::demo_bundle();
        std::fs::write(path, &bundle.snapshot).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1)
        });
        obs_info!(target: LOG, "wrote demo snapshot", path = path);
        return;
    }

    let text = if args.demo {
        obs_info!(target: LOG, "training demo model");
        demo::demo_bundle().snapshot
    } else if let Some(path) = &args.snapshot {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1)
        })
    } else {
        usage()
    };

    let loaded = load_snapshot(&text).unwrap_or_else(|e| {
        eprintln!("snapshot rejected: {e}");
        std::process::exit(1)
    });
    obs_info!(
        target: LOG,
        "loaded snapshot",
        features = loaded.model.cfg.n_features(),
        time_steps = loaded.time_steps,
        labels = loaded.model.cfg.n_labels,
        cohorts = loaded.model.discovery.is_some(),
    );

    let server = if args.stream {
        serve_stream(loaded, args.server, args.stream_opts)
    } else {
        serve(loaded, args.server)
    }
    .unwrap_or_else(|e| {
        eprintln!("cannot bind port {}: {e}", args.server.port);
        std::process::exit(1)
    });
    // Unconditional, parse-friendly startup line (the obs log may be
    // disabled); tests and scripts read the bound address from here.
    eprintln!("listening on http://{}", server.addr());
    obs_info!(target: LOG, "serving", url = format!("http://{}", server.addr()));
    server.join();
    cohortnet_obs::trace::flush();
    obs_info!(target: LOG, "shut down");
}
