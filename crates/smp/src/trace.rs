//! The execution layer's one observation vocabulary.
//!
//! Instrumented code reports timestamped events through one trait,
//! [`TimelineSink`]: spans (pool job, per-stage compute, barrier wait,
//! tuner candidate, batch transform, served request, pool execute) and
//! instants (barrier release, watchdog fire, candidate rejection, SLO
//! breach). A recorder stores them as [`Event`]s, and everything else —
//! the per-stage `RunProfile`, the Chrome-trace/Perfetto export, the
//! flight recorder, the timeline checker in `spiral-verify` — reads that
//! one type.
//!
//! The trait and the event types live here, below every consumer, so
//! the pool can accept a sink without depending on the recorder crate
//! (`spiral-trace`), which provides the implementations. They are inert
//! declarations: nothing in this crate records unless the `trace`
//! feature compiles in `Pool::try_run_observed`, and the
//! executors above gate their call sites the same way, so an untraced
//! build carries no instrumentation at all.

use std::time::Instant;

/// Declare a fieldless `u8` enum together with `ALL`, every variant in
/// declaration order — so `ALL[k as usize] == k` holds and a new variant
/// can never be left out of the list.
macro_rules! kind_enum {
    ($(#[$meta:meta])* pub enum $name:ident { $($(#[$vmeta:meta])* $variant:ident,)* }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $name {
            /// Every kind, in declaration (discriminant) order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)*];
        }
    };
}

kind_enum! {
    /// What a timeline span covers.
    pub enum SpanKind {
        /// A thread's whole pool job (stage 0; spans every stage).
        PoolJob,
        /// One thread's statically scheduled portion of one stage.
        StageCompute,
        /// Blocked at the stage barrier, arrival through release.
        BarrierWait,
        /// The tuner evaluating one candidate (stage = candidate index).
        TunerCandidate,
        /// One whole transform executed as part of a batch (stage =
        /// transform index within the batch).
        BatchTransform,
        /// One served network request, admission through response write
        /// (stage = request sequence number on that server worker).
        RequestServe,
        /// One coalesced batch pushed through the plan executor / thread
        /// pool by a serving dispatcher (stage = dispatch sequence
        /// number). This is the pool-execute phase of a served request:
        /// the slice of its life actually spent computing, as opposed to
        /// queued or being parsed.
        PoolExecute,
    }
}

kind_enum! {
    /// What a timeline instant marks.
    pub enum MarkKind {
        /// The stage barrier released this thread (one per thread per
        /// stage on a clean run, so a stage's marks must count exactly
        /// `p`).
        BarrierRelease,
        /// A barrier/pool watchdog expired on this thread.
        WatchdogFire,
        /// The tuner quarantined the candidate (stage = candidate index).
        TunerReject,
        /// A serving SLO breach: the request identified by `stage` (its
        /// sequence number on the recording worker) blew its latency
        /// budget or was shed. Recorded next to the request's
        /// `RequestServe` span so a flight-recorder export marks the
        /// triggering request.
        SloBreach,
    }
}

/// What one recorded event is: a span (with a duration) or an instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span, `start_ns ≤ end_ns`.
    Span(SpanKind),
    /// An instant, `start_ns == end_ns`.
    Mark(MarkKind),
}

impl From<SpanKind> for EventKind {
    fn from(k: SpanKind) -> EventKind {
        EventKind::Span(k)
    }
}

impl From<MarkKind> for EventKind {
    fn from(k: MarkKind) -> EventKind {
        EventKind::Mark(k)
    }
}

/// One recorded event, timestamps in nanoseconds from the recorder's
/// epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Logical thread that recorded the event.
    pub tid: usize,
    /// Span or instant, and of what.
    pub kind: EventKind,
    /// Stage index for executor events, candidate index for tuner
    /// events, transform index for batch events, sequence number for
    /// serving events, 0 for pool jobs.
    pub stage: u32,
    /// Start offset from the epoch (the instant's position for marks).
    pub start_ns: u64,
    /// End offset; equals `start_ns` for instants.
    pub end_ns: u64,
}

impl Event {
    /// Span duration in nanoseconds (0 for instants).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// True when this is a span of `kind`.
    pub fn is_span(&self, kind: SpanKind) -> bool {
        self.kind == EventKind::Span(kind)
    }

    /// True when this is an instant of `kind`.
    pub fn is_mark(&self, kind: MarkKind) -> bool {
        self.kind == EventKind::Mark(kind)
    }
}

/// Receiver for timestamped execution events.
///
/// Implementations are written to concurrently from all pool threads;
/// every event for thread `tid` is reported *by* thread `tid`, so a sink
/// can keep per-thread ring buffers free of write sharing (see
/// `spiral-trace`'s `Timeline`). Timestamps are the caller's
/// [`Instant`]s, taken at the event boundary itself; the sink anchors
/// them to its own epoch.
pub trait TimelineSink: Sync {
    /// Thread `tid` spent `[start, end]` in a `kind` span of `stage`
    /// (stage index for executor spans, candidate index for tuner spans,
    /// 0 for pool jobs).
    fn span(&self, tid: usize, kind: SpanKind, stage: u32, start: Instant, end: Instant);

    /// Thread `tid` hit a `kind` instant for `stage` at `at`.
    fn mark(&self, tid: usize, kind: MarkKind, stage: u32, at: Instant);
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;
    use crate::pool::Pool;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[derive(Default)]
    struct CountingSink {
        jobs: AtomicU64,
        total_ns: AtomicU64,
    }

    impl TimelineSink for CountingSink {
        fn span(&self, _tid: usize, kind: SpanKind, _: u32, start: Instant, end: Instant) {
            assert_eq!(kind, SpanKind::PoolJob);
            self.jobs.fetch_add(1, Ordering::Relaxed);
            self.total_ns.fetch_add(
                u64::try_from((end - start).as_nanos()).unwrap(),
                Ordering::Relaxed,
            );
        }
        fn mark(&self, _: usize, _: MarkKind, _: u32, _: Instant) {}
    }

    #[test]
    fn pool_reports_one_job_span_per_thread() {
        let sink = CountingSink::default();
        let pool = Pool::new(3);
        pool.try_run_observed(&|_tid| std::thread::sleep(Duration::from_millis(2)), &sink)
            .unwrap();
        assert_eq!(sink.jobs.load(Ordering::Relaxed), 3);
        // Every span covers at least the sleep.
        assert!(sink.total_ns.load(Ordering::Relaxed) >= 3 * 2_000_000);
    }

    #[test]
    fn traced_run_preserves_panic_isolation() {
        let sink = CountingSink::default();
        let pool = Pool::new(2);
        let err = pool
            .try_run_observed(
                &|tid| {
                    if tid == 1 {
                        panic!("traced boom");
                    }
                },
                &sink,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::SpiralError::WorkerPanic { thread: 1, .. }
        ));
        // The surviving thread still reported its span.
        assert!(sink.jobs.load(Ordering::Relaxed) >= 1);
        assert!(pool.healthy());
    }
}
