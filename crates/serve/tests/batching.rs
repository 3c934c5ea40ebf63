//! How the engine forms batches.
//!
//! * **Self-clocking.** With the default config the batcher dispatches as
//!   soon as it is free: requests that queue while a batch computes go out
//!   together as the next batch, and none is held for company.
//! * **An explicit hold still holds.** A non-zero `max_delay_us` keeps a
//!   partial batch open for later arrivals.
//!
//! The chaos plan is process-global, so these tests run in their own
//! binary and take one lock.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use cohortnet::snapshot::load_snapshot;
use cohortnet_chaos::{install, ChaosPlan, When};
use cohortnet_obs::stage::StageTimings;
use cohortnet_serve::demo::{demo_bundle, DemoBundle};
use cohortnet_serve::metrics::Metrics;
use cohortnet_serve::{Engine, EngineConfig};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One demo training run shared by every test in this binary.
fn bundle() -> &'static DemoBundle {
    static BUNDLE: OnceLock<DemoBundle> = OnceLock::new();
    BUNDLE.get_or_init(demo_bundle)
}

fn engine(cfg: EngineConfig) -> Arc<Engine> {
    let loaded = load_snapshot(&bundle().snapshot).expect("snapshot loads");
    Arc::new(Engine::start(
        loaded.inferencer(),
        cfg,
        Arc::new(Metrics::new()),
    ))
}

/// Scores example `i` on a new thread; the thread returns its request's
/// stage timings.
fn score_on_thread(engine: &Arc<Engine>, i: usize) -> std::thread::JoinHandle<StageTimings> {
    let engine = Arc::clone(engine);
    std::thread::spawn(move || {
        let req = bundle().examples[i % bundle().examples.len()].clone();
        engine.score(req).expect("request scores");
        cohortnet_obs::stage::take()
    })
}

#[test]
fn default_engine_batches_only_what_queued_while_it_computed() {
    let _s = serial();
    let engine = engine(EngineConfig::default());
    assert_eq!(engine.config().max_delay_us, 0, "the default holds nothing");
    // The first forward pass stalls for 300 ms: the first request's batch
    // is computing while the next five arrive.
    let guard = install(ChaosPlan::new(3).site("infer.latency", When::At(vec![1]), 300));
    let first = score_on_thread(&engine, 0);
    std::thread::sleep(Duration::from_millis(100));
    let rest: Vec<_> = (1..=5).map(|i| score_on_thread(&engine, i)).collect();
    let first = first.join().expect("first request");
    assert_eq!(first.batch_size, 1);
    // A lone request on an idle engine goes out at once: its wait stays
    // well under a 2000 µs hold.
    assert!(
        first.batch_wait_us < 1000,
        "lone request waited {} µs for company",
        first.batch_wait_us
    );
    let sizes: Vec<u32> = rest
        .into_iter()
        .map(|h| h.join().expect("queued request").batch_size)
        .collect();
    drop(guard);
    assert_eq!(sizes, vec![5; 5], "the five queued requests form one batch");
    assert_eq!(engine.metrics().batches_total.get(), 2);
    engine.shutdown();
}

#[test]
fn explicit_max_delay_holds_a_partial_batch() {
    let _s = serial();
    let engine = engine(EngineConfig {
        max_batch: 2,
        max_delay_us: 60_000_000,
        ..EngineConfig::default()
    });
    let first = score_on_thread(&engine, 0);
    std::thread::sleep(Duration::from_millis(50));
    let second = score_on_thread(&engine, 1);
    assert_eq!(first.join().expect("first request").batch_size, 2);
    assert_eq!(second.join().expect("second request").batch_size, 2);
    assert_eq!(engine.metrics().batches_total.get(), 1);
    engine.shutdown();
}
