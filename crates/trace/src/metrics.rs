//! Live telemetry primitives: lock-free log-linear histograms, monotonic
//! counters, gauges, and a static-layout [`MetricsRegistry`].
//!
//! A [`crate::Timeline`] observes *one run* and is read after it
//! completes. A serving process needs the complement:
//! metrics that accumulate across millions of requests and can be
//! snapshotted *while the hot path keeps writing*. Three primitives:
//!
//! * [`Histogram`] / [`ShardedHistogram`] — HDR-style log-linear latency
//!   histograms: [`MAGNITUDES`] base-2 magnitude groups ×
//!   [`SUB_BUCKETS`] linear sub-buckets. Recording is one array index
//!   computation (a `leading_zeros` and a shift) plus relaxed atomic
//!   adds — no locks, no allocation, wait-free. The sharded form gives
//!   each writer thread its own cache-line-padded bucket array, so the
//!   hot path never bounces a line between threads; snapshots merge the
//!   shards.
//! * [`Counter`] / [`Gauge`] — cache-line-padded monotonic counter and
//!   settable gauge.
//! * [`MetricsRegistry`] — a *static-layout* registry: the full metric
//!   set is declared up front as a `&'static [MetricSpec]` slice and
//!   validated once at construction (unique names, Prometheus suffix
//!   conventions); after that, lookups hand out plain references and the
//!   hot path holds them with zero further synchronization.
//!
//! Snapshots ([`MetricsSnapshot`]) are schema-versioned serializable
//! values ([`METRICS_SCHEMA_VERSION`]) with two renderings: JSON (the
//! `SS01` stats frame payload, layout frozen by the golden under
//! `results/serve_metrics_schema.json`) and Prometheus text exposition
//! ([`MetricsSnapshot::to_prometheus`], checked by
//! [`lint_prometheus`]).
//!
//! ## Accuracy contract
//!
//! A value `v ≥ 8` lands in the bucket `[lo, lo + lo/8)` whose width is
//! 1/8 of its lower bound; quantiles report the bucket midpoint clamped
//! to the recorded `[min, max]`. The relative quantile error is
//! therefore bounded by the relative bucket width
//! [`MAX_RELATIVE_QUANTILE_ERROR`] (= 1/[`SUB_BUCKETS`]); values below 8
//! are exact. The property tests pin this bound, plus merge
//! associativity/commutativity and quantile monotonicity, across
//! adversarial value sets.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Version stamp of the serialized [`MetricsSnapshot`] layout; bumped on
/// any field change so downstream readers (the `serve stats` CLI, the
/// golden snapshot under `results/`) can detect drift.
///
/// * v1 — initial layout (counters, gauges, sparse histograms).
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// Base-2 magnitude groups: one per possible `u64` bit position (the top
/// two groups are unreachable for `u64` inputs and always empty, keeping
/// the layout a full 64 × 8 grid).
pub const MAGNITUDES: usize = 64;

/// Linear sub-buckets per magnitude group; the relative bucket width —
/// and so the quantile error bound — is `1 / SUB_BUCKETS`.
pub const SUB_BUCKETS: usize = 8;

/// Total bucket count of one histogram (64 × 8).
pub const BUCKET_COUNT: usize = MAGNITUDES * SUB_BUCKETS;

/// Upper bound on the relative error of [`HistogramSnapshot::quantile`]:
/// the relative width of one log-linear bucket, `1 / SUB_BUCKETS`.
pub const MAX_RELATIVE_QUANTILE_ERROR: f64 = 1.0 / SUB_BUCKETS as f64;

/// Bucket index of `value`: values below [`SUB_BUCKETS`] map linearly
/// (exact); larger values map to magnitude group `⌊log2 v⌋ - 2` and the
/// 3 bits below the leading bit. Total for every `u64`; never panics.
pub fn bucket_index(value: u64) -> usize {
    let sub_buckets = u64::try_from(SUB_BUCKETS).expect("SUB_BUCKETS fits u64");
    if value < sub_buckets {
        return usize::try_from(value).expect("value below SUB_BUCKETS");
    }
    // value ≥ 8 ⟹ the leading bit position m is in 3..=63.
    let m = 63 - usize::try_from(value.leading_zeros()).expect("leading_zeros fits usize");
    let sub = usize::try_from((value >> (m - 3)) & 0x7).expect("3 bits fit usize");
    (m - 2) * SUB_BUCKETS + sub
}

/// Half-open value range `[lo, hi)` covered by bucket `index`.
/// Unreachable top-of-range buckets report a collapsed
/// `(u64::MAX, u64::MAX)`. Panics if `index ≥ BUCKET_COUNT`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKET_COUNT, "bucket index {index} out of range");
    let group = index / SUB_BUCKETS;
    let sub = u64::try_from(index % SUB_BUCKETS).expect("sub-bucket fits u64");
    if group == 0 {
        return (sub, sub + 1);
    }
    let m = group + 2; // leading-bit position of the group's values
    if m >= 64 {
        return (u64::MAX, u64::MAX);
    }
    let width = 1u64 << (m - 3);
    let lo = (1u64 << m) + sub * width;
    (lo, lo.saturating_add(width))
}

/// Representative value reported for bucket `index`: the midpoint of its
/// range (exact for the linear group 0).
pub fn bucket_midpoint(index: usize) -> u64 {
    let (lo, hi) = bucket_bounds(index);
    lo + (hi - lo) / 2
}

/// One lock-free log-linear histogram: [`BUCKET_COUNT`] relaxed atomic
/// buckets plus count/sum/min/max. Recording is wait-free and safe from
/// any number of threads; prefer [`ShardedHistogram`] on hot paths so
/// each writer owns its lines.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` while empty (normalized to 0 in snapshots).
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value (for latencies: nanoseconds).
    pub fn record(&self, value: u64) {
        // Relaxed everywhere: buckets are independent counters; snapshot
        // readers tolerate a momentarily inconsistent (count, buckets)
        // pair and the serving tier reads snapshots at quiescent points
        // (drain) when exactness matters.
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration as saturating nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(crate::ns_u64(d));
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current contents into a serializable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push(BucketCount {
                    index: u64::try_from(i).expect("bucket index fits u64"),
                    count: c,
                });
            }
        }
        let count = self.count.load(Ordering::Relaxed);
        let raw_min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            // Normalize the empty sentinel: u64::MAX is not exactly
            // representable in the JSON number model.
            min: if count == 0 { 0 } else { raw_min },
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Zero every bucket and the summary fields (reuse between runs; not
    /// atomic with respect to concurrent writers).
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// One shard of a [`ShardedHistogram`], aligned to a cache line so the
/// hot summary fields of adjacent shards never share one.
#[repr(align(64))]
struct Shard(Histogram);

/// A histogram sharded one-writer-per-thread: writer `w` only ever
/// touches shard `w % writers`, each shard is cache-line-aligned with a
/// separately allocated bucket array, so concurrent recording shares no
/// cache lines at all. [`snapshot`](ShardedHistogram::snapshot) merges
/// the shards (merging is associative and commutative, so the result is
/// shard-order independent).
pub struct ShardedHistogram {
    shards: Box<[Shard]>,
}

impl ShardedHistogram {
    /// A histogram with one shard per expected writer thread (≥ 1).
    pub fn new(writers: usize) -> ShardedHistogram {
        ShardedHistogram {
            shards: (0..writers.max(1))
                .map(|_| Shard(Histogram::new()))
                .collect(),
        }
    }

    /// Number of writer shards.
    pub fn writers(&self) -> usize {
        self.shards.len()
    }

    /// Record `value` on writer `writer`'s shard (indices wrap, so any
    /// stable per-thread id works).
    pub fn record(&self, writer: usize, value: u64) {
        self.shards[writer % self.shards.len()].0.record(value);
    }

    /// Record a duration as saturating nanoseconds.
    pub fn record_duration(&self, writer: usize, d: Duration) {
        self.record(writer, crate::ns_u64(d));
    }

    /// Total values recorded across shards.
    pub fn count(&self) -> u64 {
        self.shards.iter().map(|s| s.0.count()).sum()
    }

    /// Merge all shards into one snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for s in self.shards.iter() {
            out = out
                .try_merge(&s.0.snapshot())
                .expect("shards of one histogram always merge");
        }
        out
    }

    /// Zero every shard.
    pub fn reset(&self) {
        for s in self.shards.iter() {
            s.0.reset();
        }
    }
}

/// One nonzero histogram bucket in a snapshot (sparse form).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Bucket index (`< BUCKET_COUNT`).
    pub index: u64,
    /// Recorded values in the bucket.
    pub count: u64,
}

/// Point-in-time copy of a histogram: sparse nonzero buckets (ascending
/// index) plus exact count/sum/min/max.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Nonzero buckets, ascending by index.
    pub buckets: Vec<BucketCount>,
    /// Total values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The empty snapshot (identity element of [`try_merge`](Self::try_merge)).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot::default()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Structural validity: bucket indices strictly ascending and in
    /// range, bucket counts nonzero and summing to `count`. `Err`
    /// describes the first violation — this is the guard that catches a
    /// mis-sized or corrupted bucket index before it is merged or
    /// quantiled (the property tests' negative control).
    pub fn validate(&self) -> Result<(), String> {
        let mut total = 0u64;
        let mut prev: Option<u64> = None;
        for b in &self.buckets {
            if b.index >= u64::try_from(BUCKET_COUNT).expect("BUCKET_COUNT fits u64") {
                return Err(format!(
                    "bucket index {} out of range (layout is {} buckets)",
                    b.index, BUCKET_COUNT
                ));
            }
            if let Some(p) = prev {
                if b.index <= p {
                    return Err(format!("bucket indices not ascending at {}", b.index));
                }
            }
            if b.count == 0 {
                return Err(format!("zero-count bucket {} in sparse form", b.index));
            }
            prev = Some(b.index);
            total = total.saturating_add(b.count);
        }
        if total != self.count {
            return Err(format!(
                "bucket counts sum to {total} but count is {}",
                self.count
            ));
        }
        Ok(())
    }

    /// Merge two snapshots by summing bucket counts. Associative and
    /// commutative (property-tested); `Err` if either side fails
    /// [`validate`](Self::validate).
    pub fn try_merge(&self, other: &HistogramSnapshot) -> Result<HistogramSnapshot, String> {
        self.validate()?;
        other.validate()?;
        let mut buckets = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.buckets.len() || j < other.buckets.len() {
            let a = self.buckets.get(i);
            let b = other.buckets.get(j);
            match (a, b) {
                (Some(x), Some(y)) if x.index == y.index => {
                    buckets.push(BucketCount {
                        index: x.index,
                        count: x.count + y.count,
                    });
                    i += 1;
                    j += 1;
                }
                (Some(x), Some(y)) if x.index < y.index => {
                    buckets.push(*x);
                    i += 1;
                }
                (Some(_), Some(y)) => {
                    buckets.push(*y);
                    j += 1;
                }
                (Some(x), None) => {
                    buckets.push(*x);
                    i += 1;
                }
                (None, Some(y)) => {
                    buckets.push(*y);
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        let count = self.count + other.count;
        let min = match (self.is_empty(), other.is_empty()) {
            (true, true) => 0,
            (true, false) => other.min,
            (false, true) => self.min,
            (false, false) => self.min.min(other.min),
        };
        Ok(HistogramSnapshot {
            buckets,
            count,
            // Wrapping, to match `Histogram::record`'s relaxed
            // `fetch_add`: merging snapshots equals recording the union.
            sum: self.sum.wrapping_add(other.sum),
            min,
            max: self.max.max(other.max),
        })
    }

    /// Quantile estimate by cumulative rank walk: the midpoint of the
    /// bucket holding the `⌈q·count⌉`-th smallest value, clamped to the
    /// recorded `[min, max]`. Monotone in `q`; relative error bounded by
    /// [`MAX_RELATIVE_QUANTILE_ERROR`]; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0);
        let mut cum = 0u64;
        for b in &self.buckets {
            cum += b.count;
            if cum as f64 >= rank {
                let idx = usize::try_from(b.index)
                    .unwrap_or(BUCKET_COUNT - 1)
                    .min(BUCKET_COUNT - 1);
                return bucket_midpoint(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean recorded value (exact: `sum / count`); 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }
}

/// Cache-line-padded monotonic counter.
#[repr(align(64))]
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Cache-line-padded gauge (settable point-in-time value).
#[repr(align(64))]
#[derive(Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`, saturating at 0.
    pub fn sub(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

const _: () = assert!(std::mem::align_of::<Counter>() == 64);
const _: () = assert!(std::mem::align_of::<Gauge>() == 64);

/// Metric kind in a [`MetricSpec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter; name must end `_total`.
    Counter,
    /// Point-in-time gauge; name must not carry a counter/histogram suffix.
    Gauge,
    /// Log-linear histogram; name must end `_seconds` (latency, recorded
    /// as nanoseconds and exposed as seconds) or `_size` (dimensionless).
    Histogram,
}

/// One declared metric in a registry's static layout.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Prometheus-style snake_case name, unique within the registry.
    pub name: &'static str,
    /// One-line human description (the `# HELP` text).
    pub help: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
}

/// Suffix conventions enforced at registry construction and by
/// [`lint_prometheus`]: counters end `_total`, histograms end `_seconds`
/// (nanosecond-recorded latencies, exposed in seconds) or `_size`
/// (dimensionless), gauges carry neither reserved suffix.
fn check_name(name: &str, kind: MetricKind) -> Result<(), String> {
    let is_counterish = name.ends_with("_total");
    let is_histish = name.ends_with("_seconds") || name.ends_with("_size");
    match kind {
        MetricKind::Counter if !is_counterish => {
            Err(format!("counter `{name}` must end with `_total`"))
        }
        MetricKind::Histogram if !is_histish => Err(format!(
            "histogram `{name}` must end with `_seconds` or `_size`"
        )),
        MetricKind::Gauge if is_counterish || is_histish => Err(format!(
            "gauge `{name}` must not use a counter/histogram suffix"
        )),
        _ => Ok(()),
    }
}

/// A static-layout metrics registry: the complete metric set is declared
/// as one `&'static` spec slice, validated once, and allocated once.
/// There is no runtime registration — a name lookup failure is a
/// programming error and panics, so hot paths resolve their handles at
/// startup and then touch only padded atomics.
pub struct MetricsRegistry {
    specs: &'static [MetricSpec],
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    histograms: Vec<ShardedHistogram>,
}

impl MetricsRegistry {
    /// Build a registry for `specs`, with `writers` histogram shards per
    /// histogram. `Err` on duplicate names or suffix-convention
    /// violations (the layout is part of the crate's contract; a bad
    /// spec slice must fail loudly at startup, not at exposition time).
    pub fn new(specs: &'static [MetricSpec], writers: usize) -> Result<MetricsRegistry, String> {
        for (i, s) in specs.iter().enumerate() {
            check_name(s.name, s.kind)?;
            if specs[..i].iter().any(|t| t.name == s.name) {
                return Err(format!("duplicate metric name `{}`", s.name));
            }
        }
        Ok(MetricsRegistry {
            specs,
            counters: specs
                .iter()
                .filter(|s| s.kind == MetricKind::Counter)
                .map(|_| Counter::new())
                .collect(),
            gauges: specs
                .iter()
                .filter(|s| s.kind == MetricKind::Gauge)
                .map(|_| Gauge::new())
                .collect(),
            histograms: specs
                .iter()
                .filter(|s| s.kind == MetricKind::Histogram)
                .map(|_| ShardedHistogram::new(writers))
                .collect(),
        })
    }

    /// The declared layout.
    pub fn specs(&self) -> &'static [MetricSpec] {
        self.specs
    }

    fn slot(&self, name: &str, kind: MetricKind) -> usize {
        let mut slot = 0usize;
        for s in self.specs {
            if s.kind == kind {
                if s.name == name {
                    return slot;
                }
                slot += 1;
            }
        }
        panic!("metric `{name}` with kind {kind:?} is not in the registry layout");
    }

    /// The declared counter `name` (panics if absent — static layout).
    pub fn counter(&self, name: &str) -> &Counter {
        &self.counters[self.slot(name, MetricKind::Counter)]
    }

    /// The declared gauge `name` (panics if absent — static layout).
    pub fn gauge(&self, name: &str) -> &Gauge {
        &self.gauges[self.slot(name, MetricKind::Gauge)]
    }

    /// The declared histogram `name` (panics if absent — static layout).
    pub fn histogram(&self, name: &str) -> &ShardedHistogram {
        &self.histograms[self.slot(name, MetricKind::Histogram)]
    }

    /// Snapshot every metric, in declaration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        let (mut ci, mut gi, mut hi) = (0usize, 0usize, 0usize);
        for s in self.specs {
            match s.kind {
                MetricKind::Counter => {
                    snap.counters.push(CounterSample {
                        name: s.name.to_string(),
                        help: s.help.to_string(),
                        value: self.counters[ci].get(),
                    });
                    ci += 1;
                }
                MetricKind::Gauge => {
                    snap.gauges.push(GaugeSample {
                        name: s.name.to_string(),
                        help: s.help.to_string(),
                        value: self.gauges[gi].get(),
                    });
                    gi += 1;
                }
                MetricKind::Histogram => {
                    snap.histograms.push(HistogramSample {
                        name: s.name.to_string(),
                        help: s.help.to_string(),
                        histogram: self.histograms[hi].snapshot(),
                    });
                    hi += 1;
                }
            }
        }
        snap
    }
}

/// One exported counter value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name (`*_total`).
    pub name: String,
    /// Help text.
    pub help: String,
    /// Counter value.
    pub value: u64,
}

/// One exported gauge value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Gauge value.
    pub value: u64,
}

/// One exported histogram.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name (`*_seconds` latencies record nanoseconds and are
    /// exposed in seconds; `*_size` histograms are dimensionless).
    pub name: String,
    /// Help text.
    pub help: String,
    /// The sparse histogram contents.
    pub histogram: HistogramSnapshot,
}

/// A schema-versioned, serializable copy of a full metric set — the
/// payload of the `SS01` stats frame and the `serve stats` CLI.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Serialization layout version ([`METRICS_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Counters, in declaration order.
    pub counters: Vec<CounterSample>,
    /// Gauges, in declaration order.
    pub gauges: Vec<GaugeSample>,
    /// Histograms, in declaration order.
    pub histograms: Vec<HistogramSample>,
}

impl Default for MetricsSnapshot {
    fn default() -> MetricsSnapshot {
        MetricsSnapshot::new()
    }
}

impl MetricsSnapshot {
    /// An empty snapshot at the current schema version.
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot {
            schema: METRICS_SCHEMA_VERSION,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.histogram)
    }

    /// Serialize to pretty JSON (layout frozen by the golden under
    /// `results/serve_metrics_schema.json`).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("MetricsSnapshot serializes")
    }

    /// Parse a snapshot back from [`to_json`](Self::to_json) output.
    pub fn from_json(s: &str) -> Result<MetricsSnapshot, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Render as Prometheus text exposition: `# HELP`/`# TYPE` headers,
    /// plain samples for counters and gauges, cumulative
    /// `_bucket{le=...}`/`_sum`/`_count` series for histograms.
    /// `*_seconds` histograms record nanoseconds and are exposed in
    /// seconds (bucket bounds and sum divided by 1e9); `*_size`
    /// histograms expose raw bucket bounds. Output passes
    /// [`lint_prometheus`] by construction.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            header(&mut out, &c.name, &c.help, "counter");
            out.push_str(&format!("{} {}\n", c.name, c.value));
        }
        for g in &self.gauges {
            header(&mut out, &g.name, &g.help, "gauge");
            out.push_str(&format!("{} {}\n", g.name, g.value));
        }
        for h in &self.histograms {
            let seconds = h.name.ends_with("_seconds");
            header(&mut out, &h.name, &h.help, "histogram");
            let mut cum = 0u64;
            for b in &h.histogram.buckets {
                cum += b.count;
                let idx = usize::try_from(b.index)
                    .unwrap_or(BUCKET_COUNT - 1)
                    .min(BUCKET_COUNT - 1);
                let (_, hi) = bucket_bounds(idx);
                let le = if seconds {
                    format!("{}", hi as f64 / 1e9)
                } else {
                    format!("{}", hi)
                };
                out.push_str(&format!("{}_bucket{{le=\"{le}\"}} {cum}\n", h.name));
            }
            out.push_str(&format!(
                "{}_bucket{{le=\"+Inf\"}} {}\n",
                h.name, h.histogram.count
            ));
            let sum = if seconds {
                format!("{}", h.histogram.sum as f64 / 1e9)
            } else {
                format!("{}", h.histogram.sum)
            };
            out.push_str(&format!("{}_sum {sum}\n", h.name));
            out.push_str(&format!("{}_count {}\n", h.name, h.histogram.count));
        }
        out
    }
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let help = help.replace('\\', "\\\\").replace('\n', "\\n");
    out.push_str(&format!("# HELP {name} {help}\n"));
    out.push_str(&format!("# TYPE {name} {kind}\n"));
}

/// Lint a Prometheus text exposition: every sample must belong to a
/// declared `# TYPE`; no metric may be declared twice; counters must end
/// `_total`; histograms must end `_seconds` or `_size`; gauges must not
/// use a reserved suffix; histogram `_bucket` series must be cumulative
/// (nondecreasing) and close with an `le="+Inf"` bucket equal to
/// `_count`. `Err` describes the first violation.
pub fn lint_prometheus(text: &str) -> Result<(), String> {
    struct Decl {
        kind: String,
        last_bucket: Option<u64>,
        inf_bucket: Option<u64>,
        count: Option<u64>,
        samples: u64,
    }
    let mut decls: Vec<(String, Decl)> = Vec::new();
    let find = |decls: &mut Vec<(String, Decl)>, name: &str| -> Option<usize> {
        decls.iter().position(|(n, _)| n == name)
    };
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with("# HELP") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it
                .next()
                .ok_or(format!("line {lineno}: TYPE without name"))?;
            let kind = it
                .next()
                .ok_or(format!("line {lineno}: TYPE without kind"))?;
            if find(&mut decls, name).is_some() {
                return Err(format!("duplicate metric name `{name}`"));
            }
            match kind {
                "counter" if !name.ends_with("_total") => {
                    return Err(format!("counter `{name}` must end with `_total`"));
                }
                "histogram" if !(name.ends_with("_seconds") || name.ends_with("_size")) => {
                    return Err(format!(
                        "histogram `{name}` must end with `_seconds` or `_size`"
                    ));
                }
                "gauge"
                    if name.ends_with("_total")
                        || name.ends_with("_seconds")
                        || name.ends_with("_size") =>
                {
                    return Err(format!("gauge `{name}` uses a reserved suffix"));
                }
                "counter" | "gauge" | "histogram" => {}
                other => return Err(format!("line {lineno}: unknown TYPE `{other}`")),
            }
            decls.push((
                name.to_string(),
                Decl {
                    kind: kind.to_string(),
                    last_bucket: None,
                    inf_bucket: None,
                    count: None,
                    samples: 0,
                },
            ));
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample line: `name{labels} value` or `name value`.
        let name_end = line
            .find(['{', ' '])
            .ok_or(format!("line {lineno}: malformed sample `{line}`"))?;
        let sample_name = &line[..name_end];
        let value_str = line
            .rsplit(' ')
            .next()
            .ok_or(format!("line {lineno}: sample without value"))?;
        let value: f64 = value_str
            .parse()
            .map_err(|_| format!("line {lineno}: non-numeric value `{value_str}`"))?;
        if !value.is_finite() {
            return Err(format!("line {lineno}: non-finite value `{value_str}`"));
        }
        // Count-valued series (bucket/count) must be exact integers.
        let int_value: Option<u64> = value_str.parse().ok();
        // Attribute the sample to its declaration.
        let (base, series) = if let Some(b) = sample_name.strip_suffix("_bucket") {
            (b, "bucket")
        } else if let Some(b) = sample_name.strip_suffix("_sum") {
            (b, "sum")
        } else if let Some(b) = sample_name.strip_suffix("_count") {
            (b, "count")
        } else {
            (sample_name, "plain")
        };
        // Prefer the histogram interpretation when the base name is a
        // declared histogram; otherwise the full name must be declared.
        let slot = match find(&mut decls, base) {
            Some(i) if decls[i].1.kind == "histogram" && series != "plain" => i,
            _ => find(&mut decls, sample_name)
                .ok_or(format!("sample `{sample_name}` has no TYPE declaration"))?,
        };
        let d = &mut decls[slot].1;
        d.samples += 1;
        if d.kind == "histogram" && series == "bucket" {
            let count = int_value.ok_or(format!("line {lineno}: non-integral bucket count"))?;
            if let Some(prev) = d.last_bucket {
                if count < prev {
                    return Err(format!(
                        "histogram `{base}` bucket series not cumulative at line {lineno}"
                    ));
                }
            }
            d.last_bucket = Some(count);
            if line.contains("le=\"+Inf\"") {
                d.inf_bucket = Some(count);
            }
        }
        if d.kind == "histogram" && series == "count" {
            d.count = Some(int_value.ok_or(format!("line {lineno}: non-integral count"))?);
        }
        if d.kind != "histogram" && series != "plain" {
            return Err(format!(
                "`{sample_name}` looks like a histogram series but `{base}` is a {}",
                d.kind
            ));
        }
    }
    for (name, d) in &decls {
        if d.samples == 0 {
            return Err(format!("metric `{name}` declared but never sampled"));
        }
        if d.kind == "histogram" {
            let inf = d
                .inf_bucket
                .ok_or(format!("histogram `{name}` has no le=\"+Inf\" bucket"))?;
            let count = d
                .count
                .ok_or(format!("histogram `{name}` has no _count sample"))?;
            if inf != count {
                return Err(format!(
                    "histogram `{name}`: +Inf bucket {inf} != count {count}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_total_and_monotone() {
        // Exact for the linear group.
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), usize::try_from(v).unwrap());
            assert_eq!(bucket_midpoint(bucket_index(v)), v);
        }
        // Monotone (non-decreasing) across magnitudes, and every value
        // falls inside its bucket's bounds.
        let probes = [
            8u64,
            9,
            15,
            16,
            100,
            1_000,
            4_095,
            4_096,
            1 << 20,
            (1 << 20) + 17,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut prev = 0usize;
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i >= prev, "index not monotone at {v}");
            assert!(i < BUCKET_COUNT);
            let (lo, hi) = bucket_bounds(i);
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "{v} outside [{lo},{hi})"
            );
            prev = i;
        }
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for i in 0..BUCKET_COUNT {
            let (lo, hi) = bucket_bounds(i);
            if lo < 8 || hi == u64::MAX {
                continue; // exact linear group / saturated top
            }
            let width = hi - lo;
            assert!(
                width as f64 / lo as f64 <= MAX_RELATIVE_QUANTILE_ERROR + 1e-12,
                "bucket {i}: width {width} over lo {lo}"
            );
        }
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        s.validate().unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 500_500);
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        assert!((p50 as f64 - 500.0).abs() / 500.0 <= MAX_RELATIVE_QUANTILE_ERROR);
        assert!((p99 as f64 - 990.0).abs() / 990.0 <= MAX_RELATIVE_QUANTILE_ERROR);
        assert!(s.quantile(0.0) >= 1);
        let p100 = s.quantile(1.0);
        assert!((p100 as f64 - 1000.0).abs() / 1000.0 <= MAX_RELATIVE_QUANTILE_ERROR);
    }

    #[test]
    fn empty_histogram_is_identity() {
        let s = HistogramSnapshot::empty();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        let h = Histogram::new();
        h.record(42);
        let t = h.snapshot();
        assert_eq!(s.try_merge(&t).unwrap(), t);
        assert_eq!(t.try_merge(&s).unwrap(), t);
    }

    #[test]
    fn sharded_recording_is_contention_free_and_merges() {
        let sh = ShardedHistogram::new(4);
        std::thread::scope(|scope| {
            for w in 0..4usize {
                let sh = &sh;
                scope.spawn(move || {
                    for v in 0..1000u64 {
                        sh.record(w, v * 7 + u64::try_from(w).unwrap());
                    }
                });
            }
        });
        let s = sh.snapshot();
        s.validate().unwrap();
        assert_eq!(s.count, 4000);
        assert_eq!(sh.count(), 4000);
    }

    #[test]
    fn merge_rejects_out_of_range_bucket_index() {
        let bogus = HistogramSnapshot {
            buckets: vec![BucketCount {
                index: u64::try_from(BUCKET_COUNT).unwrap(),
                count: 1,
            }],
            count: 1,
            sum: 1,
            min: 1,
            max: 1,
        };
        assert!(bogus.validate().is_err());
        assert!(HistogramSnapshot::empty().try_merge(&bogus).is_err());
        assert!(bogus.try_merge(&HistogramSnapshot::empty()).is_err());
    }

    const SPECS: &[MetricSpec] = &[
        MetricSpec {
            name: "test_requests_total",
            help: "requests",
            kind: MetricKind::Counter,
        },
        MetricSpec {
            name: "test_queue_depth",
            help: "queue depth",
            kind: MetricKind::Gauge,
        },
        MetricSpec {
            name: "test_latency_seconds",
            help: "latency",
            kind: MetricKind::Histogram,
        },
        MetricSpec {
            name: "test_batch_size",
            help: "batch size",
            kind: MetricKind::Histogram,
        },
    ];

    #[test]
    fn registry_static_layout_round_trips() {
        let reg = MetricsRegistry::new(SPECS, 2).unwrap();
        reg.counter("test_requests_total").add(3);
        reg.gauge("test_queue_depth").set(5);
        reg.histogram("test_latency_seconds").record(0, 1_000_000);
        reg.histogram("test_latency_seconds").record(1, 2_000_000);
        reg.histogram("test_batch_size").record(0, 8);
        let snap = reg.snapshot();
        assert_eq!(snap.schema, METRICS_SCHEMA_VERSION);
        assert_eq!(snap.counter("test_requests_total"), Some(3));
        assert_eq!(snap.gauge("test_queue_depth"), Some(5));
        assert_eq!(snap.histogram("test_latency_seconds").unwrap().count, 2);
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        lint_prometheus(&snap.to_prometheus()).unwrap();
    }

    #[test]
    fn registry_rejects_bad_layouts() {
        const DUP: &[MetricSpec] = &[
            MetricSpec {
                name: "x_total",
                help: "",
                kind: MetricKind::Counter,
            },
            MetricSpec {
                name: "x_total",
                help: "",
                kind: MetricKind::Counter,
            },
        ];
        assert!(MetricsRegistry::new(DUP, 1).is_err());
        const BAD_COUNTER: &[MetricSpec] = &[MetricSpec {
            name: "x_count",
            help: "",
            kind: MetricKind::Counter,
        }];
        assert!(MetricsRegistry::new(BAD_COUNTER, 1).is_err());
        const BAD_HIST: &[MetricSpec] = &[MetricSpec {
            name: "x_latency",
            help: "",
            kind: MetricKind::Histogram,
        }];
        assert!(MetricsRegistry::new(BAD_HIST, 1).is_err());
        const BAD_GAUGE: &[MetricSpec] = &[MetricSpec {
            name: "x_total",
            help: "",
            kind: MetricKind::Gauge,
        }];
        assert!(MetricsRegistry::new(BAD_GAUGE, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "not in the registry layout")]
    fn registry_lookup_of_undeclared_metric_panics() {
        let reg = MetricsRegistry::new(SPECS, 1).unwrap();
        let _ = reg.counter("test_absent_total");
    }

    #[test]
    fn prometheus_lint_catches_violations() {
        // Duplicate declaration.
        assert!(lint_prometheus(
            "# TYPE a_total counter\na_total 1\n# TYPE a_total counter\na_total 2\n"
        )
        .is_err());
        // Counter without _total.
        assert!(lint_prometheus("# TYPE a counter\na 1\n").is_err());
        // Histogram without a unit suffix.
        assert!(lint_prometheus("# TYPE a histogram\na_count 0\n").is_err());
        // Undeclared sample.
        assert!(lint_prometheus("stray_metric 1\n").is_err());
        // Non-cumulative buckets.
        assert!(lint_prometheus(
            "# TYPE h_seconds histogram\n\
             h_seconds_bucket{le=\"1\"} 5\nh_seconds_bucket{le=\"2\"} 3\n\
             h_seconds_bucket{le=\"+Inf\"} 5\nh_seconds_sum 1\nh_seconds_count 5\n"
        )
        .is_err());
        // +Inf mismatching _count.
        assert!(lint_prometheus(
            "# TYPE h_seconds histogram\n\
             h_seconds_bucket{le=\"+Inf\"} 4\nh_seconds_sum 1\nh_seconds_count 5\n"
        )
        .is_err());
        // A well-formed document passes.
        lint_prometheus(
            "# HELP a_total things\n# TYPE a_total counter\na_total 7\n\
             # TYPE g gauge\ng 2\n\
             # TYPE h_seconds histogram\n\
             h_seconds_bucket{le=\"0.001\"} 3\nh_seconds_bucket{le=\"+Inf\"} 5\n\
             h_seconds_sum 0.004\nh_seconds_count 5\n",
        )
        .unwrap();
    }

    #[test]
    fn seconds_histograms_expose_second_valued_bounds() {
        let reg = MetricsRegistry::new(SPECS, 1).unwrap();
        // 1ms recorded as nanoseconds.
        reg.histogram("test_latency_seconds").record(0, 1_000_000);
        let text = reg.snapshot().to_prometheus();
        // The le bound must be on the order of 1e-3, not 1e6.
        let le_line = text
            .lines()
            .find(|l| l.starts_with("test_latency_seconds_bucket{le=\"0.001"))
            .unwrap_or_else(|| panic!("no second-valued le bound in:\n{text}"));
        assert!(le_line.ends_with(" 1"));
        lint_prometheus(&text).unwrap();
    }
}
