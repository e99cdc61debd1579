//! Event-timeline recording and Chrome-trace/Perfetto export.
//!
//! A [`Timeline`] records timestamped spans and instants — the
//! [`Event`]s of `spiral_smp::trace` — into one bounded lock-free ring
//! buffer per thread, fed through the [`TimelineSink`] hook. It is the
//! executors' only recorder: a [`crate::RunProfile`] is a fold over the
//! events one run wrote ([`Timeline::cursor`] /
//! [`Timeline::events_since`]), and scheduling gaps, barrier convoys
//! (every thread arriving staggered behind one straggler) and tuner
//! candidate churn are visible in the same events.
//!
//! Design constraints, in order:
//!
//! 1. **No shared writes.** Every event for thread `tid` is recorded *by*
//!    thread `tid` into its own ring; rings are separate allocations, so
//!    recording never bounces a cache line between threads.
//! 2. **Bounded.** Each ring holds a fixed number of slots and wraps,
//!    keeping the most recent events; [`Timeline::dropped`] reports how
//!    many were overwritten. Recording never allocates.
//! 3. **Safe.** Slots are plain relaxed atomics (single writer, readers
//!    only after the run's completion synchronization), so the recorder
//!    is data-race-free by construction — no `unsafe`.
//!
//! The exporter ([`Timeline::chrome_trace`]) emits the Chrome
//! trace-event JSON format (`B`/`E` duration events plus `i` instants),
//! which loads directly in `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev).

use serde::Value;
use spiral_smp::trace::{Event, EventKind, MarkKind, SpanKind, TimelineSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default per-thread ring capacity: a traced transform emits ~2 spans +
/// 1 mark per stage per thread, so 4096 slots cover plans hundreds of
/// stages deep with room for repeated runs.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// One slot of a thread ring: `meta` packs the kind code (low 32 bits,
/// see [`encode`]) and `stage` (high 32 bits). Plain atomics so
/// concurrent (misuse) access can tear an event logically but never
/// races.
#[derive(Default)]
struct Slot {
    meta: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
}

/// One thread's bounded event ring: a separate allocation per thread so
/// writer threads never share lines, with the write counter padded away
/// from the slots.
#[repr(align(64))]
struct ThreadRing {
    /// Total events ever recorded by the owner (wraps modulo capacity
    /// into `slots`; monotone, so `written - capacity` events were
    /// dropped once it exceeds the capacity).
    written: AtomicU64,
    slots: Box<[Slot]>,
}

impl ThreadRing {
    fn new(capacity: usize) -> ThreadRing {
        ThreadRing {
            written: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::default()).collect(),
        }
    }

    /// Record one event. Only the owning thread calls this on the hot
    /// path; relaxed stores are enough because readers are ordered after
    /// the run by the pool's completion synchronization.
    fn push(&self, kind: EventKind, stage: u32, start_ns: u64, end_ns: u64) {
        let i = self.written.load(Ordering::Relaxed);
        let slot = &self.slots
            [usize::try_from(i % self.slots.len() as u64).expect("index below capacity")];
        slot.meta
            .store(encode(kind) | (u64::from(stage) << 32), Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.end_ns.store(end_ns, Ordering::Relaxed);
        self.written.store(i + 1, Ordering::Release);
    }

    /// Events written at or after position `from` that are still held,
    /// oldest first; returns how many of them the ring already
    /// overwrote.
    fn events_since(&self, tid: usize, from: u64, out: &mut Vec<Event>) -> u64 {
        let written = self.written.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        // Oldest surviving event is at position `written - cap`.
        let first = from.max(written.saturating_sub(cap)).min(written);
        for pos in first..written {
            let i = usize::try_from(pos % cap).expect("index below capacity");
            let meta = self.slots[i].meta.load(Ordering::Relaxed);
            out.push(Event {
                tid,
                kind: decode(meta & 0xffff_ffff),
                stage: (meta >> 32) as u32,
                start_ns: self.slots[i].start_ns.load(Ordering::Relaxed),
                end_ns: self.slots[i].end_ns.load(Ordering::Relaxed),
            });
        }
        first.saturating_sub(from)
    }
}

/// Ring code of an event kind: the span or mark discriminant, with bit 8
/// set for marks.
fn encode(kind: EventKind) -> u64 {
    match kind {
        EventKind::Span(k) => k as u64,
        EventKind::Mark(k) => MARK_BIT | k as u64,
    }
}

/// Inverse of [`encode`]. Slots only ever hold encoded kinds, so the
/// `ALL` lookups cannot miss.
fn decode(code: u64) -> EventKind {
    let index = usize::try_from(code & 0xff).expect("one byte");
    if code & MARK_BIT == 0 {
        EventKind::Span(SpanKind::ALL[index])
    } else {
        EventKind::Mark(MarkKind::ALL[index])
    }
}

const MARK_BIT: u64 = 1 << 8;

/// Per-thread write positions of a [`Timeline`] at one moment: taken
/// before a run, it delimits the events that run writes.
#[derive(Clone, Debug)]
pub struct Cursor(Box<[u64]>);

/// Bounded, lock-free event-timeline recorder: one ring per thread,
/// timestamps relative to the construction epoch. Implements
/// [`TimelineSink`]; plug it into
/// `ParallelExecutor::try_execute_observed`, `Pool::try_run_observed`,
/// or the tuner's observed search (all feature `trace`).
pub struct Timeline {
    epoch: Instant,
    rings: Box<[ThreadRing]>,
}

impl Timeline {
    /// Timeline for `threads` threads with the default ring capacity.
    pub fn new(threads: usize) -> Timeline {
        Timeline::with_capacity(threads, DEFAULT_RING_CAPACITY)
    }

    /// Timeline with an explicit per-thread ring capacity (≥ 1).
    pub fn with_capacity(threads: usize, capacity: usize) -> Timeline {
        let threads = threads.max(1);
        let capacity = capacity.max(1);
        Timeline {
            epoch: Instant::now(),
            rings: (0..threads).map(|_| ThreadRing::new(capacity)).collect(),
        }
    }

    /// Number of thread rings.
    pub fn threads(&self) -> usize {
        self.rings.len()
    }

    /// Per-thread ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.rings[0].slots.len()
    }

    /// Events dropped (overwritten after ring wrap) on thread `tid`.
    pub fn dropped(&self, tid: usize) -> u64 {
        self.rings.get(tid).map_or(0, |r| {
            r.written
                .load(Ordering::Acquire)
                .saturating_sub(r.slots.len() as u64)
        })
    }

    /// Total events dropped across all threads.
    pub fn total_dropped(&self) -> u64 {
        (0..self.rings.len()).map(|t| self.dropped(t)).sum()
    }

    /// Forget all recorded events (reuse across runs; the epoch is
    /// unchanged, so timestamps stay comparable across the reuse). A
    /// reset invalidates every outstanding [`Cursor`]: events written
    /// after it are not reported since a cursor taken before it.
    pub fn reset(&self) {
        for r in self.rings.iter() {
            r.written.store(0, Ordering::Release);
        }
    }

    /// Offset of `t` from the epoch in nanoseconds (0 if `t` predates
    /// the epoch, which cannot happen for events recorded through the
    /// sink after construction).
    fn offset_ns(&self, t: Instant) -> u64 {
        crate::ns_u64(t.saturating_duration_since(self.epoch))
    }

    /// All held events, ordered by thread then in recording order.
    pub fn events(&self) -> Vec<Event> {
        self.events_since(&Cursor(Box::new([]))).0
    }

    /// The current write position of every ring.
    pub fn cursor(&self) -> Cursor {
        Cursor(
            self.rings
                .iter()
                .map(|r| r.written.load(Ordering::Acquire))
                .collect(),
        )
    }

    /// The events written since `from` (a [`cursor`](Self::cursor) of
    /// this timeline) that the rings still hold, ordered by thread then
    /// in recording order, plus how many events written since `from`
    /// the rings already overwrote.
    pub fn events_since(&self, from: &Cursor) -> (Vec<Event>, u64) {
        let mut out = Vec::new();
        let mut lost = 0;
        for (tid, ring) in self.rings.iter().enumerate() {
            // A cursor without an entry for this ring starts at its
            // beginning.
            let start = from.0.get(tid).copied().unwrap_or(0);
            lost += ring.events_since(tid, start, &mut out);
        }
        (out, lost)
    }

    /// Summed duration of all held events of `kind`, nanoseconds (0 for
    /// marks, which are instants).
    pub fn total_ns(&self, kind: impl Into<EventKind>) -> u64 {
        let kind = kind.into();
        self.events()
            .iter()
            .filter(|e| e.kind == kind)
            .map(Event::duration_ns)
            .sum()
    }

    /// Number of held `kind` events recorded for `stage`.
    pub fn count(&self, kind: impl Into<EventKind>, stage: u32) -> usize {
        let kind = kind.into();
        self.events()
            .iter()
            .filter(|e| e.kind == kind && e.stage == stage)
            .count()
    }

    /// Export as Chrome trace-event JSON (loads in `chrome://tracing`
    /// and Perfetto). Spans become `B`/`E` duration-event pairs on
    /// `pid 0`, one Chrome "thread" per pool thread; instants become
    /// thread-scoped `i` events. `labels[stage]`, when provided, names
    /// executor stage events after the plan's stage IR labels.
    pub fn chrome_trace(&self, labels: &[String]) -> String {
        let mut events: Vec<Value> = Vec::new();
        // Process/thread metadata so Perfetto shows meaningful lanes.
        events.push(meta_event("process_name", 0, "spiral-fft run"));
        for tid in 0..self.rings.len() {
            events.push(meta_event_tid(
                "thread_name",
                tid,
                &format!("pool thread {tid}"),
            ));
        }
        let mut per_thread = self.events();
        // Chrome requires B/E properly ordered per thread; our rings are
        // already chronological per thread, but instants recorded at a
        // span boundary must not precede the span's E. Sort stably by
        // (tid, start) keeping recording order for ties.
        per_thread.sort_by_key(|e| (e.tid, e.start_ns));
        for e in &per_thread {
            let name = event_name(e, labels);
            let cat = category(e.kind);
            if matches!(e.kind, EventKind::Mark(_)) {
                events.push(obj(vec![
                    ("name", Value::Str(name)),
                    ("cat", Value::Str(cat.to_string())),
                    ("ph", Value::Str("i".to_string())),
                    ("s", Value::Str("t".to_string())),
                    ("ts", Value::Num(e.start_ns as f64 / 1e3)),
                    ("pid", Value::Num(0.0)),
                    ("tid", Value::Num(e.tid as f64)),
                ]));
            } else {
                let common = |ph: &str, ts_ns: u64| {
                    obj(vec![
                        ("name", Value::Str(name.clone())),
                        ("cat", Value::Str(cat.to_string())),
                        ("ph", Value::Str(ph.to_string())),
                        ("ts", Value::Num(ts_ns as f64 / 1e3)),
                        ("pid", Value::Num(0.0)),
                        ("tid", Value::Num(e.tid as f64)),
                    ])
                };
                events.push(common("B", e.start_ns));
                events.push(common("E", e.end_ns));
            }
        }
        // B/E pairs of zero-length spans must still appear B-before-E;
        // the per-event emission above guarantees it. Nested spans
        // (compute inside pool job) are fine: Chrome nests by timestamps.
        let doc = obj(vec![
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::Str("ns".to_string())),
            (
                "otherData",
                obj(vec![
                    ("producer", Value::Str("spiral-trace".to_string())),
                    ("dropped_events", Value::Num(self.total_dropped() as f64)),
                ]),
            ),
        ]);
        serde_json::to_string_pretty(&doc).expect("chrome trace serializes")
    }
}

impl TimelineSink for Timeline {
    fn span(&self, tid: usize, kind: SpanKind, stage: u32, start: Instant, end: Instant) {
        if let Some(ring) = self.rings.get(tid) {
            let s = self.offset_ns(start);
            ring.push(kind.into(), stage, s, self.offset_ns(end).max(s));
        }
    }

    fn mark(&self, tid: usize, kind: MarkKind, stage: u32, at: Instant) {
        if let Some(ring) = self.rings.get(tid) {
            let t = self.offset_ns(at);
            ring.push(kind.into(), stage, t, t);
        }
    }
}

/// Chrome trace-event category of an event kind.
fn category(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Span(SpanKind::PoolJob) => "pool",
        EventKind::Span(SpanKind::StageCompute | SpanKind::BatchTransform) => "compute",
        EventKind::Span(SpanKind::BarrierWait) | EventKind::Mark(MarkKind::BarrierRelease) => {
            "barrier"
        }
        EventKind::Span(SpanKind::TunerCandidate) | EventKind::Mark(MarkKind::TunerReject) => {
            "tuner"
        }
        EventKind::Mark(MarkKind::WatchdogFire) => "fault",
        EventKind::Span(SpanKind::RequestServe | SpanKind::PoolExecute) => "serve",
        EventKind::Mark(MarkKind::SloBreach) => "slo",
    }
}

/// Human-readable event name for the exported trace.
fn event_name(e: &Event, labels: &[String]) -> String {
    let stage_label = || {
        labels
            .get(e.stage as usize)
            .cloned()
            .unwrap_or_else(|| format!("stage {}", e.stage))
    };
    match e.kind {
        EventKind::Span(SpanKind::PoolJob) => "pool job".to_string(),
        EventKind::Span(SpanKind::StageCompute) => stage_label(),
        EventKind::Span(SpanKind::BarrierWait) => format!("barrier after {}", stage_label()),
        EventKind::Mark(MarkKind::BarrierRelease) => format!("release {}", stage_label()),
        EventKind::Mark(MarkKind::WatchdogFire) => format!("WATCHDOG {}", stage_label()),
        EventKind::Span(SpanKind::TunerCandidate) => format!("candidate {}", e.stage),
        EventKind::Mark(MarkKind::TunerReject) => format!("reject candidate {}", e.stage),
        EventKind::Span(SpanKind::BatchTransform) => format!("batch transform {}", e.stage),
        EventKind::Span(SpanKind::RequestServe) => format!("request {}", e.stage),
        EventKind::Span(SpanKind::PoolExecute) => format!("pool execute {}", e.stage),
        EventKind::Mark(MarkKind::SloBreach) => format!("SLO BREACH request {}", e.stage),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn meta_event(name: &str, pid: usize, value: &str) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::Num(pid as f64)),
        ("args", obj(vec![("name", Value::Str(value.to_string()))])),
    ])
}

fn meta_event_tid(name: &str, tid: usize, value: &str) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::Num(0.0)),
        ("tid", Value::Num(tid as f64)),
        ("args", obj(vec![("name", Value::Str(value.to_string()))])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn t(epoch: Instant, ns: u64) -> Instant {
        epoch + Duration::from_nanos(ns)
    }

    /// A deterministic 2-thread, 2-stage timeline.
    fn sample() -> Timeline {
        let tl = Timeline::with_capacity(2, 64);
        let e = tl.epoch;
        for tid in 0..2usize {
            let skew = (tid as u64) * 10;
            tl.span(tid, SpanKind::StageCompute, 0, t(e, 100 + skew), t(e, 200));
            tl.span(tid, SpanKind::BarrierWait, 0, t(e, 200), t(e, 230));
            tl.mark(tid, MarkKind::BarrierRelease, 0, t(e, 230));
            tl.span(tid, SpanKind::StageCompute, 1, t(e, 230), t(e, 300));
            tl.span(tid, SpanKind::BarrierWait, 1, t(e, 300), t(e, 310));
            tl.mark(tid, MarkKind::BarrierRelease, 1, t(e, 310));
            tl.span(tid, SpanKind::PoolJob, 0, t(e, 90 + skew), t(e, 315));
        }
        tl
    }

    #[test]
    fn records_and_reads_back_in_order() {
        let tl = sample();
        let ev = tl.events();
        assert_eq!(ev.len(), 14);
        // Per-thread chronological recording order is preserved.
        for tid in 0..2 {
            let mine: Vec<_> = ev.iter().filter(|e| e.tid == tid).collect();
            assert_eq!(mine.len(), 7);
            assert!(mine[0].is_span(SpanKind::StageCompute));
            assert!(mine.last().unwrap().is_span(SpanKind::PoolJob));
        }
        assert_eq!(tl.total_dropped(), 0);
        assert_eq!(tl.count(MarkKind::BarrierRelease, 0), 2);
        assert_eq!(tl.count(MarkKind::BarrierRelease, 1), 2);
    }

    #[test]
    fn totals_sum_span_durations() {
        let tl = sample();
        // Thread 0 compute: 100 + 70; thread 1: 90 + 70.
        assert_eq!(tl.total_ns(SpanKind::StageCompute), 330);
        assert_eq!(tl.total_ns(SpanKind::BarrierWait), 2 * (30 + 10));
        // Instants have zero duration.
        assert_eq!(tl.total_ns(MarkKind::BarrierRelease), 0);
    }

    #[test]
    fn ring_wraps_keeping_most_recent() {
        let tl = Timeline::with_capacity(1, 4);
        let e = tl.epoch;
        for i in 0..10u32 {
            tl.mark(0, MarkKind::BarrierRelease, i, t(e, u64::from(i) * 100));
        }
        assert_eq!(tl.dropped(0), 6);
        let ev = tl.events();
        assert_eq!(ev.len(), 4);
        // Oldest-first among the survivors: stages 6, 7, 8, 9.
        let stages: Vec<u32> = ev.iter().map(|x| x.stage).collect();
        assert_eq!(stages, vec![6, 7, 8, 9]);
    }

    #[test]
    fn reset_clears_events() {
        let tl = sample();
        assert!(!tl.events().is_empty());
        tl.reset();
        assert!(tl.events().is_empty());
        assert_eq!(tl.total_dropped(), 0);
    }

    #[test]
    fn events_since_a_cursor_are_one_runs_events_and_losses() {
        let tl = Timeline::with_capacity(2, 4);
        let e = tl.epoch;
        // Two events of an earlier phase on thread 0.
        tl.mark(0, MarkKind::TunerReject, 0, t(e, 1));
        tl.mark(0, MarkKind::TunerReject, 1, t(e, 2));
        let from = tl.cursor();
        tl.span(1, SpanKind::PoolJob, 0, t(e, 3), t(e, 4));
        let (ev, lost) = tl.events_since(&from);
        assert_eq!(lost, 0);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].is_span(SpanKind::PoolJob) && ev[0].tid == 1);
        // Thread 0 writes 6 more into its 4 slots: the 2 earlier events
        // and 2 of the new ones are overwritten, and only the new ones
        // count as lost.
        for i in 0..6u32 {
            tl.mark(0, MarkKind::BarrierRelease, i, t(e, 10 + u64::from(i)));
        }
        let (ev, lost) = tl.events_since(&from);
        assert_eq!(lost, 2);
        assert_eq!(tl.total_dropped(), 4);
        let stages: Vec<u32> = ev.iter().filter(|x| x.tid == 0).map(|x| x.stage).collect();
        assert_eq!(stages, vec![2, 3, 4, 5]);
    }

    #[test]
    fn every_kind_round_trips_through_ring_and_chrome_export() {
        let spans = SpanKind::ALL.iter().map(|&k| EventKind::from(k));
        let kinds: Vec<EventKind> = spans
            .chain(MarkKind::ALL.iter().map(|&k| k.into()))
            .collect();
        let tl = Timeline::with_capacity(1, kinds.len());
        let e = tl.epoch;
        for (i, &kind) in kinds.iter().enumerate() {
            let at = 100 * i as u64;
            let stage = u32::try_from(i).unwrap();
            match kind {
                EventKind::Span(k) => tl.span(0, k, stage, t(e, at), t(e, at + 50)),
                EventKind::Mark(k) => tl.mark(0, k, stage, t(e, at)),
            }
        }
        let ev = tl.events();
        assert_eq!(ev.iter().map(|x| x.kind).collect::<Vec<_>>(), kinds);
        for (i, x) in ev.iter().enumerate() {
            assert_eq!(x.stage as usize, i);
            let span = matches!(x.kind, EventKind::Span(_));
            assert_eq!(x.duration_ns(), if span { 50 } else { 0 });
        }
        // The export names and categorizes each kind on its own row.
        let json = tl.chrome_trace(&[]);
        let doc: Value = serde_json::from_str(&json).expect("chrome trace parses");
        let Some(Value::Arr(rows)) = doc.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        let str_of = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let recorded: Vec<(String, String)> = rows
            .iter()
            .filter(|r| matches!(str_of(r, "ph").as_str(), "B" | "i"))
            .map(|r| (str_of(r, "name"), str_of(r, "cat")))
            .collect();
        let want: Vec<(String, String)> = ev
            .iter()
            .map(|x| (event_name(x, &[]), category(x.kind).to_string()))
            .collect();
        assert_eq!(recorded, want);
        // Every kind exports a distinct name.
        let names: std::collections::HashSet<&String> = recorded.iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn out_of_range_tid_is_ignored() {
        let tl = Timeline::with_capacity(2, 8);
        let e = tl.epoch;
        tl.span(9, SpanKind::PoolJob, 0, t(e, 0), t(e, 10));
        tl.mark(9, MarkKind::WatchdogFire, 0, t(e, 5));
        assert!(tl.events().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_balanced_phases() {
        let tl = sample();
        let s = tl.chrome_trace(&["par[2x8]".to_string(), "exchange".to_string()]);
        let v: Value = serde_json::from_str(&s).expect("chrome trace parses");
        let events = match v.get("traceEvents") {
            Some(Value::Arr(a)) => a,
            other => panic!("traceEvents missing: {other:?}"),
        };
        let mut begins = 0usize;
        let mut ends = 0usize;
        for ev in events {
            match ev.get("ph") {
                Some(Value::Str(p)) if p == "B" => begins += 1,
                Some(Value::Str(p)) if p == "E" => ends += 1,
                Some(Value::Str(p)) => assert!(p == "i" || p == "M", "unexpected ph {p}"),
                other => panic!("event without ph: {other:?}"),
            }
        }
        assert_eq!(begins, ends);
        assert_eq!(begins, 10); // 5 spans per thread.
        assert!(s.contains("par[2x8]"));
        assert!(s.contains("pool thread 1"));
    }

    #[test]
    fn instant_span_collapses_rather_than_inverting() {
        let tl = Timeline::with_capacity(1, 8);
        let e = tl.epoch;
        // end < start (clock weirdness) must clamp, not underflow.
        tl.span(0, SpanKind::StageCompute, 0, t(e, 100), t(e, 50));
        let ev = tl.events();
        assert_eq!(ev[0].start_ns, 100);
        assert_eq!(ev[0].end_ns, 100);
    }
}
