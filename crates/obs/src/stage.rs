//! Per-request stage attribution.
//!
//! A [`StageTimings`] splits one request's wall time into the pipeline
//! stages it actually crossed: socket read+parse, dispatch-queue wait, the
//! app's own work (routing, body parse, response encode), engine batch
//! assembly, batch compute, the hand-off from the batcher back to the
//! waiting worker, response render, and socket write — plus the batch size
//! and (in a fleet) the serving replica.
//!
//! Assembly is a per-thread scratch slot: the worker thread owning the
//! request calls [`begin`] when it picks the job up, stages called
//! synchronously underneath (the engine's `score_many`, the fleet router)
//! stamp their numbers via the `note_*` helpers, and the worker collects
//! the finished struct with [`take`]. Stages that run on *other* threads
//! (the batcher) report their numbers back over the existing reply
//! channel; the caller's thread does the stamping. Timing is observed,
//! never branched on, so scores stay bit-identical with attribution on.

use std::cell::Cell;

/// Where one request's time went, in microseconds per stage.
///
/// `accept_us + queue_us + app_us + batch_wait_us + compute_us +
/// handoff_us + render_us + write_us` accounts for (nearly all of) the
/// request's total server-side latency; the remainder is the worker's own
/// bookkeeping between stages (span and log records, flight recording).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageTimings {
    /// First byte of the request on the socket → request fully parsed.
    pub accept_us: u32,
    /// Parsed job pushed on the dispatch queue → picked up by a worker.
    pub queue_us: u32,
    /// The app's own work on the worker: its handler's wall time less the
    /// engine stages inside it (routing, body parse, response encode).
    pub app_us: u32,
    /// Engine enqueue → micro-batch assembled and compute started.
    pub batch_wait_us: u32,
    /// Batch compute (scorer) duration for this request's batch.
    pub compute_us: u32,
    /// End of the batch's compute → the waiting worker thread woke with
    /// the reply (the batcher-to-worker hand-off).
    pub handoff_us: u32,
    /// Response rendering (HTTP framing + body assembly).
    pub render_us: u32,
    /// Response queued for write → last byte flushed to the socket.
    pub write_us: u32,
    /// Size of the micro-batch this request was scored in (0 = no engine).
    pub batch_size: u32,
    /// Fleet replica that served the request (-1 = single server / none).
    pub replica: i32,
}

impl Default for StageTimings {
    fn default() -> Self {
        StageTimings {
            accept_us: 0,
            queue_us: 0,
            app_us: 0,
            batch_wait_us: 0,
            compute_us: 0,
            handoff_us: 0,
            render_us: 0,
            write_us: 0,
            batch_size: 0,
            replica: -1,
        }
    }
}

impl StageTimings {
    /// Sum of all attributed stage durations, µs.
    pub fn stage_sum_us(&self) -> u64 {
        self.accept_us as u64
            + self.queue_us as u64
            + self.app_us as u64
            + self.batch_wait_us as u64
            + self.compute_us as u64
            + self.handoff_us as u64
            + self.render_us as u64
            + self.write_us as u64
    }

    /// Renders the stages known *before* the response is written as a
    /// `Server-Timing`-style header value (`dur` in milliseconds).
    /// `render`/`write` happen after the header bytes are fixed, so they
    /// are visible in `/debug/requests` and the stage histograms instead.
    pub fn server_timing_value(&self) -> String {
        let ms = |us: u32| us as f64 / 1000.0;
        let mut out = format!(
            "accept;dur={:.3}, queue;dur={:.3}, batch_wait;dur={:.3}, compute;dur={:.3}",
            ms(self.accept_us),
            ms(self.queue_us),
            ms(self.batch_wait_us),
            ms(self.compute_us)
        );
        if self.batch_size > 0 {
            out.push_str(&format!(", batch;desc=\"{}\"", self.batch_size));
        }
        if self.replica >= 0 {
            out.push_str(&format!(", replica;desc=\"{}\"", self.replica));
        }
        out
    }
}

thread_local! {
    /// Scratch slot for the request currently being handled on this thread.
    static SCRATCH: Cell<StageTimings> = const {
        Cell::new(StageTimings {
            accept_us: 0,
            queue_us: 0,
            app_us: 0,
            batch_wait_us: 0,
            compute_us: 0,
            handoff_us: 0,
            render_us: 0,
            write_us: 0,
            batch_size: 0,
            replica: -1,
        })
    };
}

/// Resets this thread's scratch and stamps the front-of-pipeline stages
/// (read+parse, dispatch-queue wait). Called by the worker at job pickup.
pub fn begin(accept_us: u32, queue_us: u32) {
    SCRATCH.with(|s| {
        s.set(StageTimings {
            accept_us,
            queue_us,
            ..StageTimings::default()
        })
    });
}

/// Stamps the engine stages. Called by `score_many` on the *caller's*
/// thread after the batcher reports back; a retry overwrites the failed
/// attempt so the numbers describe the dispatch that actually served.
pub fn note_engine(batch_wait_us: u32, compute_us: u32, batch_size: u32) {
    SCRATCH.with(|s| {
        let mut t = s.get();
        t.batch_wait_us = batch_wait_us;
        t.compute_us = compute_us;
        t.batch_size = batch_size;
        s.set(t);
    });
}

/// Stamps the batcher-to-worker hand-off: from the end of the batch's
/// compute to the caller's wake-up. Called by `score_many` next to
/// [`note_engine`], so it too describes the dispatch that served.
pub fn note_handoff(handoff_us: u32) {
    SCRATCH.with(|s| {
        let mut t = s.get();
        t.handoff_us = handoff_us;
        s.set(t);
    });
}

/// Stamps the app stage from the handler's wall time `handle_us`: what is
/// left after the engine stages stamped inside the handler (batch wait,
/// compute, hand-off), saturating at 0. Returns the stamped value.
pub fn note_app(handle_us: u32) -> u32 {
    SCRATCH.with(|s| {
        let mut t = s.get();
        let engine = t
            .batch_wait_us
            .saturating_add(t.compute_us)
            .saturating_add(t.handoff_us);
        t.app_us = handle_us.saturating_sub(engine);
        s.set(t);
        t.app_us
    })
}

/// Stamps the serving replica (fleet router only).
pub fn note_replica(replica: i32) {
    SCRATCH.with(|s| {
        let mut t = s.get();
        t.replica = replica;
        s.set(t);
    });
}

/// Stamps the response-render duration.
pub fn note_render(render_us: u32) {
    SCRATCH.with(|s| {
        let mut t = s.get();
        t.render_us = render_us;
        s.set(t);
    });
}

/// Reads this thread's scratch without resetting it. The worker uses
/// this to build the `Server-Timing` response header before the render
/// stage is stamped and [`take`] collects the final struct.
pub fn peek() -> StageTimings {
    SCRATCH.with(|s| s.get())
}

/// Returns this thread's assembled timings and resets the scratch.
/// `write_us` is still 0 here — the event loop fills it when the last
/// byte is flushed, after the worker has already moved on.
pub fn take() -> StageTimings {
    SCRATCH.with(|s| s.replace(StageTimings::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_assembles_and_resets() {
        begin(10, 20);
        note_engine(30, 40, 8);
        note_replica(2);
        note_render(5);
        let peeked = peek();
        let t = take();
        assert_eq!(peeked, t, "peek reads without resetting");
        assert_eq!(
            t,
            StageTimings {
                accept_us: 10,
                queue_us: 20,
                app_us: 0,
                batch_wait_us: 30,
                compute_us: 40,
                handoff_us: 0,
                render_us: 5,
                write_us: 0,
                batch_size: 8,
                replica: 2,
            }
        );
        assert_eq!(t.stage_sum_us(), 105);
        assert_eq!(take(), StageTimings::default());
    }

    #[test]
    fn handoff_is_summed_and_reset_by_take() {
        begin(10, 20);
        note_engine(30, 40, 1);
        note_handoff(25);
        note_render(5);
        let t = take();
        assert_eq!(t.handoff_us, 25);
        assert_eq!(t.stage_sum_us(), 130, "hand-off counts in the stage sum");
        assert_eq!(take().handoff_us, 0, "take resets the hand-off");
        assert!(
            !t.server_timing_value().contains("handoff"),
            "the Server-Timing format is unchanged"
        );
    }

    #[test]
    fn app_is_the_handler_less_its_engine_stages_summed_and_reset_by_take() {
        begin(10, 20);
        note_engine(30, 40, 1);
        note_handoff(25);
        assert_eq!(
            note_app(150),
            55,
            "handler time less wait, compute, hand-off"
        );
        note_render(5);
        let t = take();
        assert_eq!(t.app_us, 55);
        assert_eq!(
            t.stage_sum_us(),
            185,
            "the app stage counts in the stage sum"
        );
        assert_eq!(take().app_us, 0, "take resets the app stage");
        assert!(
            !t.server_timing_value().contains("app"),
            "the Server-Timing format is unchanged"
        );
        begin(0, 0);
        note_engine(100, 0, 0);
        assert_eq!(
            note_app(60),
            0,
            "saturates when the engine outlasts the clock"
        );
        take();
    }

    #[test]
    fn engine_retry_overwrites() {
        begin(0, 0);
        note_engine(100, 0, 0); // failed attempt
        note_engine(7, 9, 4); // the dispatch that served
        let t = take();
        assert_eq!((t.batch_wait_us, t.compute_us, t.batch_size), (7, 9, 4));
    }

    #[test]
    fn server_timing_value_renders_known_stages() {
        begin(1500, 250);
        note_engine(1000, 2000, 16);
        note_replica(1);
        let t = take();
        let v = t.server_timing_value();
        assert_eq!(
            v,
            "accept;dur=1.500, queue;dur=0.250, batch_wait;dur=1.000, \
             compute;dur=2.000, batch;desc=\"16\", replica;desc=\"1\""
        );
        let bare = StageTimings::default().server_timing_value();
        assert!(!bare.contains("batch;"));
        assert!(!bare.contains("replica;"));
    }
}
