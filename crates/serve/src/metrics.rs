//! Serving metrics, backed by [`cohortnet_obs::metrics`].
//!
//! This module is a thin shim: the counter/gauge/histogram primitives and
//! the Prometheus renderer live in `cohortnet-obs` (the workspace telemetry
//! crate — not `cohortnet-metrics`, which holds *evaluation* metrics such as
//! AUC-ROC and F1). Each server builds its own [`Registry`] so tests and
//! benches that run several servers in one process never share histograms;
//! [`Metrics::render_prometheus`] appends the process-wide
//! [`cohortnet_obs::metrics::global`] registry, so the `/metrics` endpoint
//! exposes discovery and training telemetry alongside the serving families —
//! one unified registry from the operator's point of view.

use std::sync::{Arc, OnceLock};

pub use cohortnet_obs::metrics::{Counter, Gauge, Histogram, Registry};

/// Bucket bounds for batch sizes (requests per scored minibatch).
pub const BATCH_SIZE_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Bucket bounds for request latency in microseconds.
pub const LATENCY_US_BOUNDS: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

/// All serving metrics, shared between the engine and the HTTP handlers.
/// Handles are pre-registered `Arc`s into the per-server registry, so the
/// observation path stays lock-free.
#[derive(Debug)]
pub struct Metrics {
    registry: Arc<Registry>,
    /// Requests accepted into the queue.
    pub requests_total: Arc<Counter>,
    /// Requests answered successfully.
    pub responses_ok: Arc<Counter>,
    /// Requests answered with an error (bad input, overload, shutdown).
    pub responses_err: Arc<Counter>,
    /// Minibatches scored by the engine.
    pub batches_total: Arc<Counter>,
    /// Requests rejected because they aged past the queue deadline.
    pub requests_rejected_deadline: Arc<Counter>,
    /// Times the engine captured a scoring panic and restarted (degraded
    /// rescue scoring or batcher-loop restart).
    pub engine_restarts: Arc<Counter>,
    /// Minibatches that fell back to per-request rescue scoring after a
    /// captured panic.
    pub batch_rescues: Arc<Counter>,
    /// Requests whose scoring panicked even in isolation.
    pub rows_failed: Arc<Counter>,
    /// Connections rejected at accept because the connection limit was
    /// reached.
    pub conns_rejected: Arc<Counter>,
    /// Keep-alive idle connections closed by the idle timeout.
    pub conns_idle_closed: Arc<Counter>,
    /// Requests served beyond the first on a keep-alive connection.
    pub keepalive_requests: Arc<Counter>,
    /// Requests answered `503` because the dispatch queue between the
    /// event loop and the workers was full.
    pub dispatch_rejected: Arc<Counter>,
    /// Connections currently open (holding a `max_connections` slot).
    pub conns_active: Arc<Gauge>,
    /// Requests currently waiting in the engine queue.
    pub queue_depth: Arc<Gauge>,
    /// Requests coalesced per scored minibatch.
    pub batch_size: Arc<Histogram>,
    /// Queue-to-response latency per request, microseconds.
    pub latency_us: Arc<Histogram>,
    /// Time a request spent queued before its batch started scoring,
    /// microseconds.
    pub queue_wait_us: Arc<Histogram>,
    /// Forward-pass time per scored minibatch, microseconds.
    pub batch_compute_us: Arc<Histogram>,
    /// Response render + write time per request, microseconds.
    pub render_us: Arc<Histogram>,
    /// First request byte on the socket → request fully parsed, µs.
    pub stage_accept_us: Arc<Histogram>,
    /// Parsed job queued for dispatch → picked up by a worker, µs.
    pub stage_dispatch_wait_us: Arc<Histogram>,
    /// The app's own work on the worker (routing, body parse, response
    /// encode), its engine stages excluded, µs.
    pub stage_app_us: Arc<Histogram>,
    /// Response handed to the event loop → last byte flushed, µs.
    pub stage_write_us: Arc<Histogram>,
    /// End of a batch's compute → the waiting worker woke with the reply,
    /// µs.
    pub stage_handoff_us: Arc<Histogram>,
    /// Stream events accepted into a session window (`POST /ingest`).
    pub stream_events: Arc<Counter>,
    /// Stream events ignored for arriving behind their session's window.
    pub stream_events_stale: Arc<Counter>,
    /// `POST /ingest` requests dropped before touching any session
    /// (chaos/backpressure injection at the `stream.ingest.drop` site).
    pub stream_ingest_dropped: Arc<Counter>,
    /// Online scores computed by the streaming path.
    pub stream_scores: Arc<Counter>,
    /// Streaming sessions evicted (idle timeout, capacity, chaos or
    /// poisoning — sessions are ephemeral by design).
    pub stream_sessions_evicted: Arc<Counter>,
    /// Streaming sessions currently resident.
    pub stream_sessions_active: Arc<Gauge>,
    /// Event ingest → covering score completed, microseconds (score
    /// staleness: how old an event got before a score reflected it).
    pub stream_staleness_us: Arc<Histogram>,
    /// Cohort-index anchors probed with the full grid walk.
    pub stream_probes_full: Arc<Counter>,
    /// Cohort-index anchors answered from the incremental probe cache.
    pub stream_probes_reused: Arc<Counter>,
    /// Active kernel path, set once at server start: the SIMD backend name
    /// and whether the int8 quantized trunk is serving. Rendered as a
    /// `cohortnet_build_info` gauge with labels so fleet health checks can
    /// spot a replica silently running the fallback path.
    build_info: OnceLock<(&'static str, bool)>,
}

impl Metrics {
    /// Fresh zeroed metrics in a private registry.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new());
        Metrics {
            requests_total: registry.counter(
                "cohortnet_requests_total",
                "Scoring requests accepted into the queue.",
            ),
            responses_ok: registry.counter(
                "cohortnet_responses_ok_total",
                "Scoring requests answered successfully.",
            ),
            responses_err: registry.counter(
                "cohortnet_responses_err_total",
                "Scoring requests answered with an error.",
            ),
            batches_total: registry.counter(
                "cohortnet_batches_total",
                "Minibatches scored by the engine.",
            ),
            requests_rejected_deadline: registry.counter(
                "cohortnet_requests_rejected_deadline_total",
                "Requests rejected because they aged past the queue deadline.",
            ),
            engine_restarts: registry.counter(
                "cohortnet_engine_restarts_total",
                "Captured scoring panics that triggered an engine restart.",
            ),
            batch_rescues: registry.counter(
                "cohortnet_batch_rescues_total",
                "Minibatches rescued request-by-request after a captured panic.",
            ),
            rows_failed: registry.counter(
                "cohortnet_rows_failed_total",
                "Requests whose scoring panicked even in isolation.",
            ),
            conns_rejected: registry.counter(
                "cohortnet_conns_rejected_total",
                "Connections rejected at the connection limit.",
            ),
            conns_idle_closed: registry.counter(
                "cohortnet_conns_idle_closed_total",
                "Keep-alive connections closed by the idle timeout.",
            ),
            keepalive_requests: registry.counter(
                "cohortnet_keepalive_requests_total",
                "Requests served beyond the first on a keep-alive connection.",
            ),
            dispatch_rejected: registry.counter(
                "cohortnet_dispatch_rejected_total",
                "Requests answered 503 because the dispatch queue was full.",
            ),
            conns_active: registry.gauge("cohortnet_conns_active", "Connections currently open."),
            queue_depth: registry.gauge(
                "cohortnet_queue_depth",
                "Requests currently waiting in the engine queue.",
            ),
            batch_size: registry.histogram(
                "cohortnet_batch_size",
                "Requests coalesced per scored minibatch.",
                BATCH_SIZE_BOUNDS,
            ),
            latency_us: registry.histogram(
                "cohortnet_request_latency_us",
                "Queue-to-response latency per request, microseconds.",
                LATENCY_US_BOUNDS,
            ),
            queue_wait_us: registry.histogram(
                "cohortnet_queue_wait_us",
                "Time queued before the batch started scoring, microseconds.",
                LATENCY_US_BOUNDS,
            ),
            batch_compute_us: registry.histogram(
                "cohortnet_batch_compute_us",
                "Forward-pass time per scored minibatch, microseconds.",
                LATENCY_US_BOUNDS,
            ),
            render_us: registry.histogram(
                "cohortnet_render_us",
                "Response render + write time per request, microseconds.",
                LATENCY_US_BOUNDS,
            ),
            stage_accept_us: registry.histogram(
                "cohortnet_stage_accept_us",
                "First request byte to fully parsed, microseconds.",
                LATENCY_US_BOUNDS,
            ),
            stage_dispatch_wait_us: registry.histogram(
                "cohortnet_stage_dispatch_wait_us",
                "Dispatch-queue wait before a worker picked the job up, microseconds.",
                LATENCY_US_BOUNDS,
            ),
            stage_app_us: registry.histogram(
                "cohortnet_stage_app_us",
                "App work on the worker less its engine stages, microseconds.",
                LATENCY_US_BOUNDS,
            ),
            stage_write_us: registry.histogram(
                "cohortnet_stage_write_us",
                "Response handed off until the last byte flushed, microseconds.",
                LATENCY_US_BOUNDS,
            ),
            stage_handoff_us: registry.histogram(
                "cohortnet_stage_handoff_us",
                "Batch compute finished until the waiting worker woke, microseconds.",
                LATENCY_US_BOUNDS,
            ),
            stream_events: registry.counter(
                "cohortnet_stream_events_total",
                "Stream events accepted into a session window.",
            ),
            stream_events_stale: registry.counter(
                "cohortnet_stream_events_stale_total",
                "Stream events ignored for arriving behind the window.",
            ),
            stream_ingest_dropped: registry.counter(
                "cohortnet_stream_ingest_dropped_total",
                "Ingest requests dropped before touching any session.",
            ),
            stream_scores: registry.counter(
                "cohortnet_stream_scores_total",
                "Online scores computed by the streaming path.",
            ),
            stream_sessions_evicted: registry.counter(
                "cohortnet_stream_sessions_evicted_total",
                "Streaming sessions evicted (idle, capacity, chaos, poison).",
            ),
            stream_sessions_active: registry.gauge(
                "cohortnet_stream_sessions_active",
                "Streaming sessions currently resident.",
            ),
            stream_staleness_us: registry.histogram(
                "cohortnet_stream_staleness_us",
                "Event ingest to covering score completion, microseconds.",
                LATENCY_US_BOUNDS,
            ),
            stream_probes_full: registry.counter(
                "cohortnet_stream_probes_full_total",
                "Cohort-index anchors probed with the full grid walk.",
            ),
            stream_probes_reused: registry.counter(
                "cohortnet_stream_probes_reused_total",
                "Cohort-index anchors answered from the incremental cache.",
            ),
            build_info: OnceLock::new(),
            registry,
        }
    }

    /// Records the kernel path this server scores with (first call wins).
    pub fn set_build_info(&self, simd_backend: &'static str, quant: bool) {
        let _ = self.build_info.set((simd_backend, quant));
    }

    /// Renders only this registry's families, each sample tagged with a
    /// `key="value"` label. The fleet router uses this to expose one
    /// registry per replica engine under a single `/metrics` endpoint
    /// (the global registry is appended once by the router, not per
    /// replica).
    pub fn render_labeled(&self, key: &str, value: &str) -> String {
        self.registry.render_labeled(key, value)
    }

    /// Renders the per-server registry followed by the process-wide
    /// [`cohortnet_obs::metrics::global`] registry (discovery + training
    /// families) in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        if let Some((simd, quant)) = self.build_info.get() {
            out.push_str("# HELP cohortnet_build_info Active kernel path (constant 1).\n");
            out.push_str("# TYPE cohortnet_build_info gauge\n");
            out.push_str(&format!(
                "cohortnet_build_info{{simd=\"{simd}\",quant=\"{}\"}} 1\n",
                if *quant { "on" } else { "off" }
            ));
        }
        out.push_str(&self.registry.render());
        out.push_str(&cohortnet_obs::metrics::global().render());
        out
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(&[1, 4, 16]);
        for v in [1, 1, 3, 5, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.quantile(0.5), Some(4)); // 3rd of 5 lands in le=4
                                              // Overflow bucket clamps to the observed max, not u64::MAX.
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn prometheus_rendering_is_cumulative() {
        let m = Metrics::new();
        m.requests_total.add(3);
        m.batch_size.observe(1);
        m.batch_size.observe(2);
        let text = m.render_prometheus();
        assert!(text.contains("cohortnet_requests_total 3"));
        assert!(text.contains("cohortnet_batch_size_bucket{le=\"1\"} 1"));
        assert!(text.contains("cohortnet_batch_size_bucket{le=\"2\"} 2"));
        assert!(text.contains("cohortnet_batch_size_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("cohortnet_batch_size_count 2"));
    }

    #[test]
    fn per_server_metrics_are_isolated() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.requests_total.add(5);
        assert_eq!(b.requests_total.get(), 0);
    }

    #[test]
    fn render_includes_global_registry() {
        let tag = "cohortnet_test_shim_global_total";
        cohortnet_obs::metrics::global()
            .counter(tag, "Shim render test marker.")
            .inc();
        let text = Metrics::new().render_prometheus();
        assert!(text.contains(tag), "{text}");
    }
}
