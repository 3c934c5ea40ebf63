//! # cohortnet-fleet
//!
//! Multi-replica serving on top of `cohortnet-serve`: one front router
//! owns the listening socket (the same event-loop transport the
//! single-model server runs on, via [`cohortnet_serve::serve_app`]) and
//! dispatches scoring requests to N in-process replica engines — each its
//! own micro-batching [`cohortnet_serve::Engine`] with its own metrics
//! registry, all sharing one immutable compiled
//! [`cohortnet::infer::Inferencer`] so the fleet costs one model's memory,
//! not N.
//!
//! * [`health`] — the per-replica health state machine. Faults are derived
//!   from the replica's own serving counters (engine restarts, batch
//!   rescues, failed rows — the families chaos injection drives), so
//!   health needs no side channel: `healthy → ejected → probation →
//!   healthy`, plus a terminal `dead` for killed replicas.
//! * [`pool`] — the replica set and the two dispatch policies:
//!   least-loaded (in-flight + queued depth) and consistent hashing by
//!   patient id over an FNV vnode ring, both health-aware. Dispatch
//!   retries a draining replica's `ShuttingDown` on the next eligible
//!   replica, which is what makes hot-swap and replica kill invisible to
//!   clients: zero dropped requests.
//! * [`swap`] — `POST /admin/reload`: load a `#cohortnet-snapshot v1`
//!   artifact (plain or quant) in the background, verify its checksums,
//!   score a canary set captured from live traffic (optionally requiring
//!   bit-identity against the serving model), then flip each replica to
//!   the new inferencer one at a time, draining the old engine.
//! * [`app`] — the [`cohortnet_serve::App`] implementation wiring the
//!   above behind `/score` and `/admin/reload`, and supplying the fleet's
//!   `/healthz`, `/debug/config`, `/metrics` and served model to the
//!   shared ops routes ([`cohortnet_serve::ops`]), plus [`serve_fleet`]
//!   and the `cohortnet-fleet` CLI.
//!
//! Chaos sites (see `cohortnet-chaos`): `fleet.replica.kill` (argument
//! selects the victim replica; it is marked dead and its engine shut down
//! mid-traffic) and `fleet.reload.corrupt` (flips a byte in the artifact
//! between read and parse; the reload must fail cleanly and keep serving
//! the old model).

#![warn(missing_docs)]

pub mod app;
pub mod health;
pub mod pool;
pub mod swap;

pub use app::{serve_fleet, FleetApp, FleetConfig};
pub use health::{HealthMachine, HealthPolicy, HealthState};
pub use pool::{DispatchPolicy, Replica, ReplicaPool};
