//! Allocation budget of one batch-1 eager forward.
//!
//! The serving forward runs the MFLM's per-feature work as a few grouped
//! kernels per time step, each writing one stacked output, instead of one
//! small op (and one fresh allocation) per feature, pair and gate. This
//! test counts the heap allocations of one `Inferencer::score_requests`
//! call on a single patient of an untrained F = 20, T = 12 model, with and
//! without cohorts, so a change that slips back into per-op allocation
//! fails here instead of only showing up as latency.
//!
//! Measured the same way, the per-op forward this replaced allocated
//! 40,512 (cohorts) and 40,302 (no cohorts) times per call, the grouped
//! one 481 and 250; the budget is a tenth of the smaller old count.

use cohortnet::config::CohortNetConfig;
use cohortnet::infer::{Inferencer, ScoreRequest};
use cohortnet::model::CohortNetModel;
use cohortnet_ehr::{profiles, standardize::Standardizer, synth::generate};
use cohortnet_models::data::{prepare, Prepared};
use cohortnet_tensor::ParamStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocation budget of one batch-1 `score_requests` call.
const BUDGET: u64 = 4_030;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations.
struct Counting;

fn count() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn data() -> (Prepared, CohortNetConfig) {
    let mut c = profiles::mimic3_like(0.05);
    c.n_patients = 60;
    c.time_steps = 12;
    let mut ds = generate(&c);
    let scaler = Standardizer::fit(&ds);
    scaler.apply(&mut ds);
    let mut cfg = CohortNetConfig::for_dataset(&ds, &scaler);
    cfg.k_states = 4;
    cfg.min_frequency = 3;
    cfg.min_patients = 2;
    cfg.state_fit_samples = 1000;
    cfg.verbose = false;
    (prepare(&ds), cfg)
}

/// Allocations of one single-patient `score_requests` call, after a
/// warm-up call.
fn score_allocs(inf: &Inferencer, req: &ScoreRequest) -> u64 {
    std::hint::black_box(inf.score_requests(std::slice::from_ref(req)));
    let before = allocs();
    std::hint::black_box(inf.score_requests(std::slice::from_ref(req)));
    allocs() - before
}

#[test]
fn batch1_forward_stays_within_allocation_budget() {
    let (prep, cfg) = data();
    assert_eq!(prep.n_features, 20);
    assert_eq!(prep.time_steps, 12);
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(0);
    let plain = CohortNetModel::new(&mut ps, &mut rng, &cfg);
    let mut cohorts = plain.clone();
    cohorts.run_discovery(&ps, &prep, &mut rng);
    let req = ScoreRequest {
        x: prep.patients[0].x.clone(),
        mask: prep.patients[0].mask.clone(),
    };
    for (what, model) in [("cohorts", &cohorts), ("no cohorts", &plain)] {
        let inf = Inferencer::compile(model, &ps, prep.time_steps);
        assert_eq!(inf.has_cohorts(), what == "cohorts");
        let n = score_allocs(&inf, &req);
        eprintln!("{what}: {n} allocations per batch-1 score");
        assert!(
            n <= BUDGET,
            "{what}: a batch-1 score made {n} allocations, over the budget of {BUDGET}"
        );
    }
}
