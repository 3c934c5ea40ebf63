//! `cohortnet-serve` — serve a trained CohortNet snapshot over HTTP.
//!
//! ```text
//! cohortnet-serve --snapshot model.cns --port 8080
//! cohortnet-serve --demo                       # train a tiny demo model first
//! cohortnet-serve --demo-snapshot model.cns    # write a demo snapshot and exit
//! ```

use cohortnet::snapshot::load_snapshot;
use cohortnet_obs::obs_info;
use cohortnet_serve::cli::{Cli, SHARED_USAGE};
use cohortnet_serve::{demo, serve, serve_stream, ServerConfig, StreamOptions};

/// Log target for server-lifecycle events.
const LOG: &str = "cohortnet.serve.bin";

struct Args {
    /// The snapshot to serve; `None` trains the demo model.
    snapshot: Option<String>,
    demo_snapshot: Option<String>,
    server: ServerConfig,
    stream: bool,
    stream_opts: StreamOptions,
}

fn parse_args() -> Args {
    let mut cli = Cli::new(format!(
        "usage: cohortnet-serve (--snapshot PATH | --demo | --demo-snapshot PATH)\n\
         {SHARED_USAGE}\n\
         \x20        [--stream (enable POST /ingest event-stream sessions)]\n\
         \x20        [--horizon-hours N (default 48, stream window span)]\n\
         \x20        [--session-idle-ms N (default 0 = built-in 300s idle eviction)]\n\
         \x20        [--max-sessions N (default 0 = built-in 1024 LRU cap)]"
    ));
    let mut server = ServerConfig::default();
    let (mut snapshot, mut demo, mut demo_snapshot, mut stream) = (None, false, None, false);
    let mut stream_opts = StreamOptions::default();
    while let Some(flag) = cli.next_flag() {
        if cli.shared_flag(&flag, &mut server) {
            continue;
        }
        match flag.as_str() {
            "--snapshot" => snapshot = Some(cli.value(&flag)),
            "--demo" => demo = true,
            "--demo-snapshot" => demo_snapshot = Some(cli.value(&flag)),
            "--stream" => stream = true,
            "--horizon-hours" => stream_opts.horizon_hours = cli.num(&flag),
            "--session-idle-ms" => stream_opts.session_idle_ms = cli.num(&flag),
            "--max-sessions" => stream_opts.max_sessions = cli.num(&flag),
            other => cli.unknown(other),
        }
    }
    if demo {
        snapshot = None;
    } else if snapshot.is_none() && demo_snapshot.is_none() {
        cli.usage()
    }
    Args {
        snapshot,
        demo_snapshot,
        server,
        stream,
        stream_opts,
    }
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

    let text = match &args.snapshot {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1)
        }),
        None => {
            obs_info!(target: LOG, "training demo model");
            demo::demo_bundle().snapshot
        }
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
