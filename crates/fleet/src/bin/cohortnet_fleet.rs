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
use cohortnet_serve::cli::{Cli, SHARED_USAGE};
use cohortnet_serve::{demo, ServerConfig};

/// Log target for fleet-lifecycle events.
const LOG: &str = "cohortnet.fleet.bin";

struct Args {
    /// The snapshot to serve; `None` trains the demo model.
    snapshot: Option<String>,
    fleet: FleetConfig,
}

fn parse_args() -> Args {
    let mut cli = Cli::new(format!(
        "usage: cohortnet-fleet (--snapshot PATH | --demo)\n\
         \x20        [--replicas N (default 3)] [--policy least-loaded|hash (default least-loaded)]\n\
         {SHARED_USAGE}"
    ));
    let mut fleet = FleetConfig::default();
    let mut shared = ServerConfig::default();
    let (mut snapshot, mut demo) = (None, false);
    while let Some(flag) = cli.next_flag() {
        if cli.shared_flag(&flag, &mut shared) {
            continue;
        }
        match flag.as_str() {
            "--snapshot" => snapshot = Some(cli.value(&flag)),
            "--demo" => demo = true,
            "--replicas" => fleet.replicas = cli.num(&flag),
            "--policy" => {
                let spelled = cli.value(&flag);
                fleet.policy = DispatchPolicy::parse(&spelled).unwrap_or_else(|| {
                    eprintln!("--policy: unknown policy {spelled} (least-loaded or hash)");
                    cli.usage()
                })
            }
            other => cli.unknown(other),
        }
    }
    if demo {
        snapshot = None;
    } else if snapshot.is_none() {
        cli.usage()
    }
    fleet.transport = shared.transport();
    fleet.engine = shared.engine;
    fleet.quant = shared.quant;
    Args { snapshot, fleet }
}

fn main() {
    cohortnet_obs::init_from_env();
    let args = parse_args();

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
