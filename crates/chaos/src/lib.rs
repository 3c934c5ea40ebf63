//! # cohortnet-chaos
//!
//! Deterministic, seeded fault injection for the CohortNet workspace.
//!
//! Production code is sprinkled with named *injection sites* — e.g.
//! `infer.worker` at the top of the inference forward pass,
//! `engine.enqueue.reject` in the request queue, or the fleet router's
//! `fleet.replica.kill` (argument selects the replica to take down) and
//! `fleet.reload.corrupt` (flips a byte of the snapshot read during
//! `/admin/reload`). A site is one call to
//! [`fires`] (or a convenience wrapper such as [`panic_if_fires`] /
//! [`delay_ms_if_fires`]). With no plan installed the whole crate is inert
//! and every site costs **one relaxed atomic load** — the same overhead
//! contract as the `cohortnet-obs` gates, so shipping the sites in release
//! binaries is free.
//!
//! ## Determinism contract
//!
//! A [`ChaosPlan`] is fully described by a seed plus per-site triggers, and
//! every injection decision is a pure function of
//! `(plan seed, site name, per-site call index)`:
//!
//! * [`When::At`] fires on exactly the listed 1-based call indices of that
//!   site;
//! * [`When::Prob`] fires when a [splitmix64][splitmix64]-derived uniform
//!   draw for `(seed, site, index)` falls below the probability.
//!
//! Per-site call counters are reset by [`install`], so the same plan driven
//! by the same call sequence injects the same faults — a chaos test is as
//! reproducible as any other seeded test. Interleaving across *different*
//! sites never matters; only a site's own call order does, which the chaos
//! harnesses keep deterministic by driving the server sequentially.
//!
//! Timing faults (delays) shift wall-clock only and may never influence
//! computed values; panic faults alter which downstream site calls happen
//! (a rescued batch re-scores rows individually), which is itself
//! deterministic for a sequential driver.
//!
//! ## Observability
//!
//! Every injected fault increments the process-global
//! `cohortnet_chaos_injected_total` counter plus a per-site counter
//! (`cohortnet_chaos_injected_<site>_total`, dots mapped to underscores) in
//! [`cohortnet_obs::metrics::global`], so `/metrics` shows degradation in
//! flight, and logs a `warn`-level line under the `cohortnet.chaos` target.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cohortnet_obs::metrics::Counter;
use cohortnet_obs::obs_warn;

/// Log target for injection events.
const LOG: &str = "cohortnet.chaos";

/// When a site triggers.
#[derive(Debug, Clone, PartialEq)]
pub enum When {
    /// Fire on exactly these 1-based call indices of the site.
    At(Vec<u64>),
    /// Fire when the seeded uniform draw for the call index is below `p`.
    Prob(f64),
}

/// One site's trigger plus an optional argument (e.g. a delay in ms or a
/// byte offset to corrupt).
#[derive(Debug, Clone, PartialEq)]
pub struct SitePlan {
    /// When the site fires.
    pub when: When,
    /// Site-specific argument; delay sites read it as milliseconds,
    /// corruption sites as a byte offset.
    pub arg: u64,
}

/// A complete fault schedule: a seed plus per-site triggers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    /// Seed for probabilistic triggers and for harness-side schedules.
    pub seed: u64,
    sites: Vec<(String, SitePlan)>,
}

impl ChaosPlan {
    /// An empty plan with the given seed (no site fires until added).
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            sites: Vec::new(),
        }
    }

    /// Adds (or replaces) a site trigger. Builder-style.
    #[must_use]
    pub fn site(mut self, name: &str, when: When, arg: u64) -> Self {
        self.sites.retain(|(n, _)| n != name);
        self.sites.push((name.to_string(), SitePlan { when, arg }));
        self
    }

    /// Parses a `COHORTNET_CHAOS`-style spec, e.g.
    /// `seed=42,infer.worker=@3+7,infer.latency=0.25:20`.
    ///
    /// Each comma-separated item is `seed=N` or `<site>=<trigger>[:arg]`
    /// where `<trigger>` is either `@i+j+k` (1-based call indices) or a
    /// probability in `[0, 1]`.
    ///
    /// # Errors
    /// Returns a description of the first malformed item.
    pub fn parse(spec: &str) -> Result<ChaosPlan, String> {
        let mut plan = ChaosPlan::new(0);
        for item in spec.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("chaos item {item:?} is not key=value"))?;
            if key == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|_| format!("chaos seed {value:?} is not a number"))?;
                continue;
            }
            let (trigger, arg) = match value.split_once(':') {
                Some((t, a)) => (
                    t,
                    a.parse::<u64>()
                        .map_err(|_| format!("chaos arg {a:?} for {key} is not a number"))?,
                ),
                None => (value, 0),
            };
            let when = if let Some(list) = trigger.strip_prefix('@') {
                let indices = list
                    .split('+')
                    .map(|i| {
                        i.parse::<u64>()
                            .map_err(|_| format!("chaos index {i:?} for {key} is not a number"))
                    })
                    .collect::<Result<Vec<u64>, String>>()?;
                When::At(indices)
            } else {
                let p: f64 = trigger.parse().map_err(|_| {
                    format!("chaos trigger {trigger:?} for {key} is not @list or probability")
                })?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("chaos probability {p} for {key} is outside [0, 1]"));
                }
                When::Prob(p)
            };
            plan = plan.site(key, when, arg);
        }
        Ok(plan)
    }
}

struct ActiveSite {
    plan: SitePlan,
    calls: u64,
    counter: Arc<Counter>,
}

struct ActivePlan {
    seed: u64,
    sites: Vec<(String, ActiveSite)>,
    total: Arc<Counter>,
}

/// Fast gate: true while a plan is installed. Injection sites check this
/// first and pay nothing else when it is false.
static ENABLED: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<Option<ActivePlan>> {
    static STATE: OnceLock<Mutex<Option<ActivePlan>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

/// Whether any chaos plan is installed — one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Prometheus-safe per-site counter name.
fn counter_name(site: &str) -> String {
    let safe: String = site
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("cohortnet_chaos_injected_{safe}_total")
}

/// Installs a plan: resets every per-site call counter and enables the
/// gates. The returned guard uninstalls (and disables) on drop. Installing
/// over an existing plan replaces it; tests that install plans must not run
/// concurrently with each other.
pub fn install(plan: ChaosPlan) -> ChaosGuard {
    let registry = cohortnet_obs::metrics::global();
    let total = registry.counter(
        "cohortnet_chaos_injected_total",
        "Faults injected by cohortnet-chaos across all sites.",
    );
    let sites = plan
        .sites
        .iter()
        .map(|(name, site_plan)| {
            let counter = registry.counter(
                &counter_name(name),
                "Faults injected by cohortnet-chaos at one site.",
            );
            (
                name.clone(),
                ActiveSite {
                    plan: site_plan.clone(),
                    calls: 0,
                    counter,
                },
            )
        })
        .collect();
    *state().lock().expect("chaos state poisoned") = Some(ActivePlan {
        seed: plan.seed,
        sites,
        total,
    });
    ENABLED.store(true, Ordering::Relaxed);
    ChaosGuard { _priv: () }
}

/// Installs the plan described by the `COHORTNET_CHAOS` env var, if set and
/// well-formed; the guard is leaked so the plan lives for the process. Used
/// by server binaries; library code never calls this.
pub fn init_from_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        if let Ok(spec) = std::env::var("COHORTNET_CHAOS") {
            match ChaosPlan::parse(&spec) {
                Ok(plan) => {
                    obs_warn!(target: LOG, "chaos plan installed from env", spec = spec);
                    std::mem::forget(install(plan));
                }
                Err(why) => {
                    obs_warn!(target: LOG, "ignoring malformed COHORTNET_CHAOS", why = why);
                }
            }
        }
    });
}

/// Keeps a plan installed; dropping it disables every site again.
pub struct ChaosGuard {
    _priv: (),
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Relaxed);
        *state().lock().expect("chaos state poisoned") = None;
    }
}

/// splitmix64: the standard 64-bit mix, good enough to decorrelate
/// `(seed, site, call index)` triples.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv1a64(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A uniform draw in `[0, 1)` for `(seed, site, n)` — pure and
/// deterministic. Public so harnesses can derive client-side fault
/// schedules (which request to truncate, which to stall) from the same
/// seed algebra the injection sites use.
pub fn uniform(seed: u64, site: &str, n: u64) -> f64 {
    let mixed = splitmix64(seed ^ fnv1a64(site).rotate_left(17) ^ n.wrapping_mul(0x9e37_79b9));
    (mixed >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Checks whether `site` fires on this call; returns the site's argument if
/// so. Increments the per-site call counter either way (when a plan names
/// the site), and the injection counters when it fires.
pub fn arg_if_fires(site: &str) -> Option<u64> {
    if !enabled() {
        return None;
    }
    let mut guard = state().lock().expect("chaos state poisoned");
    let active = guard.as_mut()?;
    let seed = active.seed;
    let entry = active.sites.iter_mut().find(|(name, _)| name == site)?;
    let s = &mut entry.1;
    s.calls += 1;
    let n = s.calls;
    let hit = match &s.plan.when {
        When::At(indices) => indices.contains(&n),
        When::Prob(p) => uniform(seed, site, n) < *p,
    };
    if !hit {
        return None;
    }
    s.counter.inc();
    let arg = s.plan.arg;
    active.total.inc();
    drop(guard);
    obs_warn!(target: LOG, "fault injected", site = site, call = n, arg = arg);
    Some(arg)
}

/// Whether `site` fires on this call.
pub fn fires(site: &str) -> bool {
    arg_if_fires(site).is_some()
}

/// Sleeps for the site's argument (milliseconds) when the site fires.
/// Delays shift wall-clock only; they must never change computed values.
pub fn delay_ms_if_fires(site: &str) {
    if let Some(ms) = arg_if_fires(site) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// Panics with a recognisable message when the site fires. The panic is
/// expected to be caught by the hardened layer under test (e.g. the serve
/// engine's batch rescue), never to take the process down.
pub fn panic_if_fires(site: &str) {
    if fires(site) {
        panic!("chaos: injected panic at {site}");
    }
}

/// Flips one byte of `text` (at the site argument modulo the length,
/// skipping the first line so headers stay parseable) when the site fires.
/// Used to corrupt snapshot payloads at load time.
pub fn corrupt_if_fires(site: &str, text: &str) -> Option<String> {
    let arg = arg_if_fires(site)?;
    if text.is_empty() {
        return Some(String::new());
    }
    let first_line = text.find('\n').map_or(0, |i| i + 1);
    let body_len = text.len() - first_line;
    if body_len == 0 {
        return Some(text.to_string());
    }
    let idx = first_line + (arg as usize % body_len);
    let mut bytes = text.as_bytes().to_vec();
    // XOR into another printable ASCII byte so the text stays valid UTF-8.
    bytes[idx] = (bytes[idx] ^ 0x01) | 0x20;
    Some(String::from_utf8_lossy(&bytes).into_owned())
}

/// Client-side request mutations a chaos harness can apply, derived from
/// the same seed algebra as the injection sites via [`request_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestFault {
    /// Send the request unmodified.
    None,
    /// Declare the full `Content-Length` but send only half the body.
    TruncateBody,
    /// Declare a `Content-Length` beyond the server's body cap.
    OversizeBody,
    /// Replace the body with non-JSON bytes.
    MalformedJson,
    /// Write half the request head, then stall without closing.
    StallMidRequest,
}

/// Deterministically picks a [`RequestFault`] for request `index`: a fault
/// with probability `p_fault`, the kind drawn uniformly. Pure in
/// `(seed, index, p_fault)`.
pub fn request_fault(seed: u64, index: u64, p_fault: f64) -> RequestFault {
    if uniform(seed, "client.fault", index) >= p_fault {
        return RequestFault::None;
    }
    const KINDS: [RequestFault; 4] = [
        RequestFault::TruncateBody,
        RequestFault::OversizeBody,
        RequestFault::MalformedJson,
        RequestFault::StallMidRequest,
    ];
    let draw = uniform(seed, "client.fault.kind", index);
    KINDS[((draw * KINDS.len() as f64) as usize).min(KINDS.len() - 1)]
}

/// Capped exponential backoff with seeded jitter: delay for `attempt`
/// (0-based) is `base * 2^attempt`, capped at `max`, scaled by a uniform
/// jitter in `[0.5, 1.0]` drawn from `(seed, attempt)`. Deterministic, so
/// retry traffic in chaos tests replays identically.
pub fn backoff_ms(seed: u64, attempt: u32, base_ms: u64, max_ms: u64) -> u64 {
    let raw = base_ms.saturating_mul(1u64 << attempt.min(16)).min(max_ms);
    let jitter = 0.5 + 0.5 * uniform(seed, "client.backoff", u64::from(attempt));
    ((raw as f64) * jitter) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plans are installed process-globally; tests serialise on this.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_sites_never_fire() {
        let _s = serial();
        assert!(!enabled());
        assert!(!fires("unit.any"));
        assert_eq!(arg_if_fires("unit.any"), None);
    }

    #[test]
    fn at_schedule_fires_on_exact_call_indices() {
        let _s = serial();
        let _g = install(ChaosPlan::new(7).site("unit.at", When::At(vec![2, 4]), 9));
        let pattern: Vec<bool> = (0..5).map(|_| fires("unit.at")).collect();
        assert_eq!(pattern, vec![false, true, false, true, false]);
        // Unplanned sites stay silent even while a plan is active.
        assert!(!fires("unit.other"));
    }

    #[test]
    fn reinstall_resets_call_counters() {
        let _s = serial();
        {
            let _g = install(ChaosPlan::new(7).site("unit.reset", When::At(vec![1]), 0));
            assert!(fires("unit.reset"));
            assert!(!fires("unit.reset"));
        }
        assert!(!enabled(), "guard drop must disable the gate");
        let _g = install(ChaosPlan::new(7).site("unit.reset", When::At(vec![1]), 0));
        assert!(fires("unit.reset"), "counters must reset on install");
    }

    #[test]
    fn probability_schedule_is_seed_deterministic() {
        let _s = serial();
        let run = |seed: u64| -> Vec<bool> {
            let _g = install(ChaosPlan::new(seed).site("unit.prob", When::Prob(0.5), 0));
            (0..64).map(|_| fires("unit.prob")).collect()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds should differ");
        let hits = run(11).iter().filter(|&&b| b).count();
        assert!((10..=54).contains(&hits), "p=0.5 over 64 calls hit {hits}");
    }

    #[test]
    fn corruption_changes_text_but_not_header_line() {
        let _s = serial();
        let _g = install(ChaosPlan::new(1).site("unit.corrupt", When::At(vec![1]), 13));
        let text = "#header v1\npayload line one\npayload line two\n";
        let out = corrupt_if_fires("unit.corrupt", text).expect("fires");
        assert_ne!(out, text);
        assert_eq!(out.lines().next(), text.lines().next());
        assert!(corrupt_if_fires("unit.corrupt", text).is_none());
    }

    #[test]
    fn spec_parsing_round_trips() {
        let plan =
            ChaosPlan::parse("seed=42,infer.worker=@3+7,infer.latency=0.25:20").expect("parses");
        assert_eq!(
            plan,
            ChaosPlan::new(42)
                .site("infer.worker", When::At(vec![3, 7]), 0)
                .site("infer.latency", When::Prob(0.25), 20)
        );
        assert!(ChaosPlan::parse("seed=x").is_err());
        assert!(ChaosPlan::parse("a.b=1.5").is_err());
        assert!(ChaosPlan::parse("a.b").is_err());
    }

    #[test]
    fn request_faults_and_backoff_are_pure() {
        let a: Vec<RequestFault> = (0..32).map(|i| request_fault(9, i, 0.4)).collect();
        let b: Vec<RequestFault> = (0..32).map(|i| request_fault(9, i, 0.4)).collect();
        assert_eq!(a, b);
        assert!(a.contains(&RequestFault::None));
        assert!(a.iter().any(|f| *f != RequestFault::None));
        assert_eq!(backoff_ms(5, 2, 10, 1000), backoff_ms(5, 2, 10, 1000));
        assert!(backoff_ms(5, 0, 10, 1000) <= 10);
        assert!(backoff_ms(5, 30, 10, 1000) <= 1000);
    }
}
