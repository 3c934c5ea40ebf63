//! Deterministic scoped-thread parallelism for the discovery pipeline.
//!
//! Every primitive here guarantees **bit-identical output for any thread
//! count**, which is what lets `discover()` expose an `n_threads` knob
//! without forfeiting reproducibility:
//!
//! * results are always returned **ordered by input index**, regardless of
//!   which worker executed which task and in what order;
//! * work is decomposed by *input structure* (per item / fixed chunk size),
//!   never by thread count, so floating-point reduction order is a property
//!   of the data layout alone;
//! * randomized tasks draw from **per-task seed-split [`StdRng`] streams**
//!   ([`split_seeds`]): the parent RNG is consumed identically whether the
//!   tasks then run on 1 thread or 64.
//!
//! Built on [`std::thread::scope`] — no external dependencies, no
//! thread-pool state to manage; workers borrow the task inputs directly.
//!
//! The scheduler is instrumented with `cohortnet-obs` spans: every
//! [`par_map`]/[`par_map_mut`] call opens a `par.map` span on the calling
//! thread and a `par.task` span per task on whichever worker runs it, so a
//! Chrome trace of a run shows the task-level schedule. Disabled spans cost
//! one relaxed atomic load per task and never influence scheduling or
//! results.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of threads to use when the caller asks for "auto" (`n_threads ==
/// 0`): the machine's available parallelism, 1 if unknown.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Resolves an `n_threads` knob: `0` means auto, anything else is taken as a
/// request — capped at `tasks` (spawning more workers than tasks is waste)
/// and at the machine's available parallelism (oversubscribing a core adds
/// context switches and cache pressure without adding compute; on a 1-core
/// host an 8-thread request would otherwise run *slower* than sequential).
///
/// Results never depend on the resolved count — every primitive here is
/// bit-identical for any thread count — so the cap is purely a performance
/// guard.
pub fn resolve_threads(n_threads: usize, tasks: usize) -> usize {
    let n = if n_threads == 0 {
        available_threads()
    } else {
        n_threads.min(available_threads())
    };
    n.clamp(1, tasks.max(1))
}

/// Draws `n` independent stream seeds from a parent RNG.
///
/// The parent is advanced exactly `n` times no matter how the derived
/// streams are later scheduled, making seed consumption independent of the
/// thread count.
pub fn split_seeds(rng: &mut StdRng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64()).collect()
}

/// A fresh [`StdRng`] for one task, from its split seed.
pub fn task_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Maps `f` over `items` on up to `n_threads` scoped threads; the result
/// vector is ordered by input index (`out[i] = f(i, &items[i])`).
///
/// `f` must be deterministic in `(index, item)` for the bit-identical
/// guarantee to hold — give randomized tasks their own [`split_seeds`]
/// stream instead of sharing one RNG.
pub fn par_map<T, R, F>(n_threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = resolve_threads(n_threads, n);
    let mut map_span = cohortnet_obs::span::span("par.map");
    map_span.arg("tasks", n).arg("threads", threads);
    if threads <= 1 || n <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut s = cohortnet_obs::span::span("par.task");
                s.arg("index", i);
                cohortnet_chaos::delay_ms_if_fires("par.task.delay");
                f(i, t)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(|| {
                // Dynamic self-scheduling: workers pull the next index, so
                // uneven task costs balance out; output position is fixed by
                // the index, so the schedule never affects the result.
                let mut produced: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let mut s = cohortnet_obs::span::span("par.task");
                    s.arg("index", i);
                    // Chaos site: artificial per-task latency (wall-clock
                    // only; the index-ordered merge keeps results
                    // bit-identical whatever the schedule).
                    cohortnet_chaos::delay_ms_if_fires("par.task.delay");
                    produced.push((i, f(i, &items[i])));
                }
                produced
            }));
        }
        for h in handles {
            for (i, r) in h.join().expect("parallel worker panicked") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every task produced a result"))
        .collect()
}

/// Maps `f` over fixed-size chunks of `items` on up to `n_threads` threads;
/// results are ordered by chunk index.
///
/// The chunk decomposition depends only on `chunk_size`, never on the thread
/// count, so a caller that merges the returned partials **in order** gets
/// the same floating-point reduction order at every thread count.
pub fn par_chunks<T, R, F>(n_threads: usize, items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    par_map(n_threads, &chunks, |i, chunk| f(i, chunk))
}

/// Runs `f` over every index in `0..n` on up to `n_threads` threads;
/// results ordered by index. Convenience for task sets that aren't slices.
pub fn par_indices<R, F>(n_threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let idx: Vec<usize> = (0..n).collect();
    par_map(n_threads, &idx, |_, &i| f(i))
}

/// Shared view of a mutable task array where every index is visited exactly
/// once. Soundness rests on the dynamic scheduler in [`par_map_mut`]: the
/// atomic counter hands each index to exactly one worker, so no two threads
/// ever hold a reference to the same slot.
struct SlotPtr<T>(*mut T);
unsafe impl<T: Send> Sync for SlotPtr<T> {}

/// Like [`par_map`] but gives each task **exclusive mutable access** to its
/// slot: `out[i] = f(i, &mut items[i])`. This is what lets workers carry
/// reusable per-slot state (tape arenas, gradient buffers) across calls
/// without locks; determinism follows from the same index-ordered contract
/// as [`par_map`].
pub fn par_map_mut<T, R, F>(n_threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    let threads = resolve_threads(n_threads, n);
    let mut map_span = cohortnet_obs::span::span("par.map");
    map_span.arg("tasks", n).arg("threads", threads);
    if threads <= 1 || n <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, t)| {
                let mut s = cohortnet_obs::span::span("par.task");
                s.arg("index", i);
                f(i, t)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let base = SlotPtr(items.as_mut_ptr());
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        let base = &base;
        for _ in 0..threads {
            handles.push(scope.spawn(|| {
                let mut produced: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // SAFETY: `i` comes from a fetch_add, so each index is
                    // claimed by exactly one worker; `items` outlives the
                    // scope and `i < n` is checked above.
                    let slot = unsafe { &mut *base.0.add(i) };
                    let mut s = cohortnet_obs::span::span("par.task");
                    s.arg("index", i);
                    produced.push((i, f(i, slot)));
                }
                produced
            }));
        }
        for h in handles {
            for (i, r) in h.join().expect("parallel worker panicked") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every task produced a result"))
        .collect()
}

/// Folds `items` with a **fixed-order binary tree** reduction: pairs
/// `(0,1), (2,3), …` merge first, then pairs of pairs, and so on. The merge
/// order is a function of `items.len()` alone — never of thread count or
/// schedule — so floating-point reductions through this function are
/// bit-identical however the inputs were produced. An odd tail is carried
/// to the next round unmerged.
pub fn tree_fold<T>(mut items: Vec<T>, mut merge: impl FnMut(&mut T, T)) -> Option<T> {
    while items.len() > 1 {
        let mut round = Vec::with_capacity(items.len().div_ceil(2));
        let mut it = items.into_iter();
        while let Some(mut left) = it.next() {
            if let Some(right) = it.next() {
                merge(&mut left, right);
            }
            round.push(left);
        }
        items = round;
    }
    items.pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3 + 1
            });
            assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        let items: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let reference = par_chunks(1, &items, 64, |_, c| c.iter().sum::<f64>());
        for threads in [2, 4, 7, 16] {
            let got = par_chunks(threads, &items, 64, |_, c| c.iter().sum::<f64>());
            assert_eq!(reference, got, "partials differ at {threads} threads");
        }
        // Ordered merge of ordered partials => identical total.
        let total_1: f64 = reference.iter().sum();
        let total_n: f64 = par_chunks(16, &items, 64, |_, c| c.iter().sum::<f64>())
            .iter()
            .sum();
        assert!(total_1.to_bits() == total_n.to_bits());
    }

    #[test]
    fn split_seeds_are_schedule_independent() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        let seeds_a = split_seeds(&mut a, 16);
        let seeds_b = split_seeds(&mut b, 16);
        assert_eq!(seeds_a, seeds_b);
        // Parent streams stay in lockstep after the split.
        assert_eq!(a.next_u64(), b.next_u64());
        // Derived task streams are deterministic and independent of threads.
        let draw = |seeds: &[u64], threads: usize| {
            par_map(threads, seeds, |_, &s| {
                let mut rng = task_rng(s);
                (0..8)
                    .map(|_| rng.gen_range(0usize..1000))
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(draw(&seeds_a, 1), draw(&seeds_a, 8));
    }

    #[test]
    fn par_indices_covers_every_index_once() {
        let out = par_indices(4, 100, |i| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn resolve_threads_semantics() {
        assert_eq!(resolve_threads(1, 100), 1);
        assert_eq!(
            resolve_threads(8, 3),
            3.min(available_threads()),
            "capped at task count and hardware"
        );
        assert_eq!(resolve_threads(5, 0), 1, "at least one thread");
        assert!(resolve_threads(0, 100) >= 1, "auto resolves to >= 1");
        assert!(
            resolve_threads(1_000_000, 1_000_000) <= available_threads(),
            "requests beyond the hardware are capped, not oversubscribed"
        );
    }

    #[test]
    fn par_map_mut_gives_exclusive_slots() {
        let mut slots: Vec<Vec<u64>> = (0..97).map(|i| vec![i]).collect();
        for threads in [1, 2, 4, 8] {
            let out = par_map_mut(threads, &mut slots, |i, s| {
                s.push(i as u64 * 2);
                s.iter().sum::<u64>()
            });
            assert_eq!(out.len(), 97);
            for (i, &v) in out.iter().enumerate() {
                assert!(v >= i as u64 * 3, "slot {i} mutated by its own task");
            }
        }
        // Each of the 4 calls above appended once: 1 original + 4 pushes.
        assert!(slots.iter().all(|s| s.len() == 5));
    }

    #[test]
    fn tree_fold_is_fixed_order() {
        // ((a+b)+(c+d))+e for 5 items — verify against the explicit tree.
        let items: Vec<f32> = vec![1e-8, 1.0, -1.0, 1e-8, 3.0];
        let got = tree_fold(items.clone(), |a, b| *a += b).unwrap();
        let expected = (((items[0] + items[1]) + (items[2] + items[3])) + items[4]) as f32;
        assert_eq!(got.to_bits(), expected.to_bits());
        assert_eq!(tree_fold(Vec::<u8>::new(), |_, _| {}), None);
        assert_eq!(tree_fold(vec![42], |_, _| {}), Some(42));
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn worker_panics_propagate() {
        // Whether the hardware resolves to the sequential path (1 core) or
        // real workers, a panicking task must abort the whole call.
        for threads in [1, 4] {
            let result = std::panic::catch_unwind(|| {
                let items: Vec<usize> = (0..64).collect();
                par_map(threads, &items, |_, &x| {
                    if x == 33 {
                        panic!("boom");
                    }
                    x
                })
            });
            assert!(result.is_err(), "panic swallowed at {threads} threads");
        }
    }
}
