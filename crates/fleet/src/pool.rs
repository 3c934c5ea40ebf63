//! The replica set and health-aware dispatch.
//!
//! Each [`Replica`] owns a micro-batching [`Engine`] behind an `RwLock` —
//! the lock is only written during a hot-swap flip, so the dispatch path
//! pays one uncontended read-lock clone per request. All replicas share
//! one immutable [`cohortnet::infer::Inferencer`] `Arc`, so N replicas cost
//! one model's memory; what each replica duplicates is the *serving*
//! machinery (queue, batcher thread, metrics registry), which is exactly
//! the part that fails independently and is worth isolating.
//!
//! Dispatch policies:
//!
//! * **Least-loaded** — route to the eligible replica with the fewest
//!   in-flight plus queued requests; ties break to the lowest id.
//! * **Consistent-hash** — route by the request's `patient_id` over an
//!   FNV-1a vnode ring ([`HashRing`], 64 vnodes per replica), walking
//!   forward past ineligible or already-tried replicas. Keeps a patient's
//!   requests on one replica (warm batches, reproducible traces) while a
//!   replica loss only remaps that replica's arc of the ring. Requests
//!   without a `patient_id` fall back to least-loaded.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use cohortnet::snapshot::fnv64;
use cohortnet_serve::metrics::Metrics;
use cohortnet_serve::Engine;

use crate::health::{HealthMachine, HealthPolicy, HealthState};

/// How the router chooses a replica for a scoring request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Fewest in-flight + queued requests wins; ties to the lowest id.
    LeastLoaded,
    /// Consistent hashing by `patient_id` over the vnode ring; requests
    /// without a patient id use least-loaded.
    ConsistentHash,
}

impl DispatchPolicy {
    /// The wire name reported on `/healthz`.
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::LeastLoaded => "least-loaded",
            DispatchPolicy::ConsistentHash => "hash",
        }
    }

    /// Parses a CLI spelling (`least-loaded` or `hash`).
    pub fn parse(s: &str) -> Option<DispatchPolicy> {
        match s {
            "least-loaded" => Some(DispatchPolicy::LeastLoaded),
            "hash" => Some(DispatchPolicy::ConsistentHash),
            _ => None,
        }
    }
}

/// One in-process serving replica: an engine, its private metrics
/// registry, and its health record.
pub struct Replica {
    /// Stable replica index, `0..n`.
    pub id: usize,
    engine: RwLock<Arc<Engine>>,
    /// This replica's private metric families (rendered with a
    /// `replica="<id>"` label on the fleet `/metrics` endpoint).
    pub metrics: Arc<Metrics>,
    inflight: AtomicUsize,
    served: AtomicU64,
    health: Mutex<HealthMachine>,
    /// Last sampled fault-counter total (restarts + rescues + failed rows);
    /// a delta between dispatches is a fault even when the call succeeded.
    fault_mark: AtomicU64,
    /// FNV-1a-64 of the snapshot this replica's engine currently serves.
    /// Replicas briefly diverge mid-swap; `/healthz` shows which side of
    /// the flip each one is on.
    fingerprint: AtomicU64,
}

impl Replica {
    /// Wraps a started engine as replica `id` serving the snapshot with
    /// the given fingerprint.
    pub fn new(
        id: usize,
        engine: Arc<Engine>,
        metrics: Arc<Metrics>,
        policy: HealthPolicy,
        fingerprint: u64,
    ) -> Replica {
        Replica {
            id,
            engine: RwLock::new(engine),
            metrics,
            inflight: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            health: Mutex::new(HealthMachine::new(policy)),
            fault_mark: AtomicU64::new(0),
            fingerprint: AtomicU64::new(fingerprint),
        }
    }

    /// Records the snapshot fingerprint after a hot-swap flip.
    pub fn set_fingerprint(&self, fp: u64) {
        self.fingerprint.store(fp, Ordering::Relaxed);
    }

    /// The serving snapshot's fingerprint as `/healthz` hex.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint.load(Ordering::Relaxed))
    }

    /// The current engine (an `Arc` clone; the read lock is held only for
    /// the clone, never across scoring).
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.engine.read().expect("replica engine poisoned"))
    }

    /// Installs a new engine and returns the old one (hot-swap flip). The
    /// caller drains the returned engine.
    pub fn swap_engine(&self, new: Arc<Engine>) -> Arc<Engine> {
        std::mem::replace(
            &mut *self.engine.write().expect("replica engine poisoned"),
            new,
        )
    }

    /// In-flight plus queued requests — the least-loaded score.
    pub fn load(&self) -> usize {
        let queued = self.metrics.queue_depth.get().max(0) as usize;
        self.inflight.load(Ordering::Relaxed) + queued
    }

    /// Requests answered by this replica.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    pub(crate) fn begin_dispatch(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn end_dispatch(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn note_served(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    fn fault_counters(&self) -> u64 {
        self.metrics.engine_restarts.get()
            + self.metrics.batch_rescues.get()
            + self.metrics.rows_failed.get()
    }

    /// Feeds one dispatch outcome into the health machine. `call_ok` is
    /// whether the engine call itself counts as clean; independently, any
    /// movement of the replica's fault counters since the last sample
    /// (captured panics, rescues, failed rows) registers as a fault even
    /// on a `200`.
    pub fn note_result(&self, call_ok: bool) {
        let total = self.fault_counters();
        let prev = self.fault_mark.swap(total, Ordering::Relaxed);
        let mut health = self.health.lock().expect("replica health poisoned");
        if call_ok && total == prev {
            health.note_ok();
        } else {
            health.note_fault();
        }
    }

    /// Whether dispatch may route here right now.
    pub fn eligible(&self) -> bool {
        self.health
            .lock()
            .expect("replica health poisoned")
            .eligible()
    }

    /// The current health state.
    pub fn health_state(&self) -> HealthState {
        self.health.lock().expect("replica health poisoned").state()
    }

    /// The health state's wire name.
    pub fn health_name(&self) -> &'static str {
        self.health.lock().expect("replica health poisoned").name()
    }

    pub(crate) fn note_skip(&self) {
        self.health
            .lock()
            .expect("replica health poisoned")
            .note_skip();
    }

    /// Marks the replica dead (terminal).
    pub fn kill(&self) {
        self.health.lock().expect("replica health poisoned").kill();
    }

    fn dead(&self) -> bool {
        self.health_state() == HealthState::Dead
    }
}

/// A 64-bit avalanche finalizer (the MurmurHash3 constants). FNV-1a alone
/// leaves the high bits of short, similar keys (`replica-0-vnode-1`,
/// `patient-42`) poorly mixed, and ring placement is ordered by exactly
/// those high bits — without this step a 4-replica ring came out 9:1
/// imbalanced.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// A consistent-hash ring: `vnodes` mixed-FNV points per replica, sorted.
#[derive(Debug)]
pub(crate) struct HashRing {
    points: Vec<(u64, usize)>,
}

impl HashRing {
    pub(crate) fn new(n_replicas: usize, vnodes: usize) -> HashRing {
        let mut points: Vec<(u64, usize)> = (0..n_replicas)
            .flat_map(|id| {
                (0..vnodes).map(move |v| {
                    (
                        mix64(fnv64(format!("replica-{id}-vnode-{v}").as_bytes())),
                        id,
                    )
                })
            })
            .collect();
        points.sort_unstable();
        HashRing { points }
    }

    /// Replica ids in ring order starting at `key`'s successor, each id
    /// yielded once (so the walk visits every replica exactly once).
    pub(crate) fn owner_order(&self, key: u64) -> Vec<usize> {
        let key = mix64(key);
        let start = self.points.partition_point(|&(h, _)| h < key);
        let mut seen = Vec::new();
        for i in 0..self.points.len() {
            let (_, id) = self.points[(start + i) % self.points.len()];
            if !seen.contains(&id) {
                seen.push(id);
            }
        }
        seen
    }
}

/// The replica set plus the dispatch policy.
pub struct ReplicaPool {
    replicas: Vec<Arc<Replica>>,
    policy: DispatchPolicy,
    ring: HashRing,
}

/// Vnodes per replica on the consistent-hash ring. 64 keeps the largest
/// arc within a few percent of fair for small fleets while the ring stays
/// a few hundred points.
const VNODES_PER_REPLICA: usize = 64;

impl ReplicaPool {
    /// Builds the pool (and its hash ring) over started replicas.
    pub fn new(replicas: Vec<Arc<Replica>>, policy: DispatchPolicy) -> ReplicaPool {
        let ring = HashRing::new(replicas.len(), VNODES_PER_REPLICA);
        ReplicaPool {
            replicas,
            policy,
            ring,
        }
    }

    /// All replicas, by id.
    pub fn replicas(&self) -> &[Arc<Replica>] {
        &self.replicas
    }

    /// The configured policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Picks a replica for a request: the policy's choice among eligible
    /// replicas not yet in `tried`, falling back to least-loaded when the
    /// hash walk finds nobody, then to ejected (but never dead) replicas
    /// when nothing eligible remains — serving degraded beats a `503`.
    /// Every pick also advances the probe clock of ejected replicas that
    /// were routed past, which is what eventually earns them probation.
    pub fn pick(&self, key: Option<u64>, tried: &[usize]) -> Option<Arc<Replica>> {
        let picked = match (self.policy, key) {
            (DispatchPolicy::ConsistentHash, Some(h)) => self.pick_ring(h, tried),
            _ => None,
        }
        .or_else(|| self.pick_least_loaded(tried, false))
        .or_else(|| self.pick_least_loaded(tried, true));
        if let Some(p) = &picked {
            for r in &self.replicas {
                if r.id != p.id && matches!(r.health_state(), HealthState::Ejected { .. }) {
                    r.note_skip();
                }
            }
        }
        picked
    }

    fn pick_ring(&self, key: u64, tried: &[usize]) -> Option<Arc<Replica>> {
        self.ring
            .owner_order(key)
            .into_iter()
            .map(|id| &self.replicas[id])
            .find(|r| r.eligible() && !tried.contains(&r.id))
            .map(Arc::clone)
    }

    fn pick_least_loaded(&self, tried: &[usize], allow_ejected: bool) -> Option<Arc<Replica>> {
        self.replicas
            .iter()
            .filter(|r| !tried.contains(&r.id))
            .filter(|r| {
                if allow_ejected {
                    !r.dead()
                } else {
                    r.eligible()
                }
            })
            .min_by_key(|r| (r.load(), r.id))
            .map(Arc::clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_covers_every_replica() {
        let a = HashRing::new(3, 64);
        let b = HashRing::new(3, 64);
        assert_eq!(a.points, b.points);
        assert_eq!(a.points.len(), 3 * 64);
        for key in [0u64, 1, u64::MAX, fnv64(b"patient-7")] {
            let order = a.owner_order(key);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "walk must visit all: {order:?}");
        }
    }

    #[test]
    fn ring_assignment_is_roughly_balanced() {
        let ring = HashRing::new(4, 64);
        let mut counts = [0usize; 4];
        for i in 0..4_000u64 {
            let key = fnv64(format!("patient-{i}").as_bytes());
            counts[ring.owner_order(key)[0]] += 1;
        }
        for (id, &c) in counts.iter().enumerate() {
            assert!(
                (500..=1_800).contains(&c),
                "replica {id} owns {c}/4000 keys: {counts:?}"
            );
        }
    }

    #[test]
    fn same_key_maps_to_same_first_owner() {
        let ring = HashRing::new(3, 64);
        let key = fnv64(b"patient-42");
        assert_eq!(ring.owner_order(key)[0], ring.owner_order(key)[0]);
        // Removing the first owner (skipping it) keeps the rest of the
        // order stable — the consistent-hash property dispatch relies on.
        let order = ring.owner_order(key);
        assert_eq!(order.len(), 3);
    }
}
