//! `cohortnet-fleet` — serve a snapshot across N in-process replicas with
//! health-aware routing and zero-downtime hot-swap.
//!
//! ```text
//! cohortnet-fleet --snapshot model.cns --replicas 3 --port 8080
//! cohortnet-fleet --demo --replicas 3 --policy hash
//! curl -XPOST localhost:8080/admin/reload -d '{"path":"new.cns"}'
//! ```

use cohortnet_fleet::{serve_fleet, DispatchPolicy, FleetConfig};
use cohortnet_obs::obs_info;
use cohortnet_serve::demo;

/// Log target for fleet-lifecycle events.
const LOG: &str = "cohortnet.fleet.bin";

struct Args {
    snapshot: Option<String>,
    demo: bool,
    fleet: FleetConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: cohortnet-fleet (--snapshot PATH | --demo)\n\
         \x20        [--replicas N (default 3)] [--policy least-loaded|hash (default least-loaded)]\n\
         \x20        [--port N (default 8080)] [--max-batch N (default 16)]\n\
         \x20        [--max-delay-us N (default 0: dispatch as soon as the batcher is free)]\n\
         \x20        [--threads N (default 0 = all cores)]\n\
         \x20        [--deadline-ms N (default 0 = no queue deadline)]\n\
         \x20        [--read-timeout-ms N (default 0 = built-in 10s)]\n\
         \x20        [--idle-timeout-ms N (default 0 = built-in 30s keep-alive idle close)]\n\
         \x20        [--max-connections N (default 256, 0 = unlimited)]\n\
         \x20        [--workers N (default 0 = built-in 16 request workers)]\n\
         \x20        [--quant (serve the int8 quantized trunk; default f32)]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        snapshot: None,
        demo: false,
        fleet: FleetConfig::default(),
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
            "--replicas" => args.fleet.replicas = parse_num(&value("--replicas"), "--replicas"),
            "--policy" => {
                let spelled = value("--policy");
                args.fleet.policy = DispatchPolicy::parse(&spelled).unwrap_or_else(|| {
                    eprintln!("--policy: unknown policy {spelled} (least-loaded or hash)");
                    usage()
                })
            }
            "--port" => args.fleet.transport.port = parse_num(&value("--port"), "--port"),
            "--max-batch" => {
                args.fleet.engine.max_batch = parse_num(&value("--max-batch"), "--max-batch")
            }
            "--max-delay-us" => {
                args.fleet.engine.max_delay_us =
                    parse_num(&value("--max-delay-us"), "--max-delay-us")
            }
            "--threads" => args.fleet.engine.threads = parse_num(&value("--threads"), "--threads"),
            "--deadline-ms" => {
                args.fleet.engine.deadline_ms = parse_num(&value("--deadline-ms"), "--deadline-ms")
            }
            "--read-timeout-ms" => {
                args.fleet.transport.read_timeout_ms =
                    parse_num(&value("--read-timeout-ms"), "--read-timeout-ms")
            }
            "--idle-timeout-ms" => {
                args.fleet.transport.idle_timeout_ms =
                    parse_num(&value("--idle-timeout-ms"), "--idle-timeout-ms")
            }
            "--max-connections" => {
                args.fleet.transport.max_connections =
                    parse_num(&value("--max-connections"), "--max-connections")
            }
            "--workers" => {
                args.fleet.transport.workers = parse_num(&value("--workers"), "--workers")
            }
            "--quant" => args.fleet.quant = true,
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

    let server = serve_fleet(&text, args.fleet).unwrap_or_else(|e| {
        eprintln!("cannot start fleet: {e}");
        std::process::exit(1)
    });
    // Unconditional, parse-friendly startup line (the obs log may be
    // disabled); tests and scripts read the bound address from here.
    eprintln!("listening on http://{}", server.addr());
    obs_info!(
        target: LOG,
        "fleet serving",
        url = format!("http://{}", server.addr()),
        replicas = args.fleet.replicas,
        policy = args.fleet.policy.name(),
    );
    server.join();
    cohortnet_obs::trace::flush();
    obs_info!(target: LOG, "shut down");
}
