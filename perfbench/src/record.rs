//! Layer spans, the closed time budget, metric lists and the run record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Spans kept for the trace file; totals keep counting past the cap.
const SPAN_CAP: usize = 20_000;

/// One timed call into a layer (a workspace crate), nested under the
/// benchmark phase that made it.
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start: Duration,
    pub dur: Duration,
    pub phase: usize,
}

/// Times every call the benchmark makes into a layer. Totals per layer
/// are always kept (the metrics need the durations); individual spans
/// are kept only when tracing is on.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    pub phases: Vec<(&'static str, Duration)>,
    current: Option<(&'static str, Instant)>,
    pub layers: BTreeMap<&'static str, Duration>,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            phases: Vec::new(),
            current: None,
            layers: BTreeMap::new(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn begin(&mut self, phase: &'static str) {
        self.end();
        self.current = Some((phase, Instant::now()));
    }

    pub fn end(&mut self) {
        if let Some((name, start)) = self.current.take() {
            self.phases.push((name, start.elapsed()));
        }
    }

    /// Run `f` as one call into `layer`; returns its result and duration.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.add(layer, name, start, dur);
        (out, dur)
    }

    /// Record a call timed by the caller.
    pub fn add(&mut self, layer: &'static str, name: &'static str, start: Instant, dur: Duration) {
        *self.layers.entry(layer).or_default() += dur;
        if !self.on {
            return;
        }
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                layer,
                name,
                start: start.saturating_duration_since(self.epoch),
                dur,
                phase: self.phases.len(),
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Fold a worker thread's tracer in: its phases count as wall time of
    /// their own, its calls as layer time.
    pub fn merge(&mut self, mut other: Tracer) {
        other.end();
        self.phases.extend(other.phases);
        for (layer, d) in other.layers {
            *self.layers.entry(layer).or_default() += d;
        }
        self.dropped += other.dropped + other.spans.len() as u64;
    }

    pub fn layer_s(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, Duration::as_secs_f64)
    }

    /// Wall time of every phase, and the part no layer call covers.
    pub fn budget(&self) -> (f64, f64) {
        let wall: f64 = self.phases.iter().map(|(_, d)| d.as_secs_f64()).sum();
        let layers: f64 = self.layers.values().map(Duration::as_secs_f64).sum();
        (wall, wall - layers)
    }

    /// Chrome-trace JSON of the kept spans (one track per phase).
    pub fn chrome_trace(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                sp.layer,
                sp.name,
                sp.layer,
                sp.phase,
                sp.start.as_secs_f64() * 1e6,
                sp.dur.as_secs_f64() * 1e6
            );
        }
        let _ = write!(s, "],\"droppedSpans\":{}}}", self.dropped);
        s
    }
}

/// An ordered list of named metrics with units.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }

    pub fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        s.push('}');
        s
    }
}

/// A JSON number; non-finite values (never expected) become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run is not correct (empty = correct).
    pub errors: Vec<String>,
    /// Non-fatal remarks (printed, recorded).
    pub warnings: Vec<String>,
    /// `key: value` lines that must repeat exactly between runs of one
    /// build: tuner choices and exact counts.
    pub repeat: Vec<String>,
    /// Extra run-record fields, as raw JSON values.
    pub record: Vec<(String, String)>,
}

impl Outcome {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn record(&mut self, key: &str, json: String) {
        self.record.push((key.to_string(), json));
    }
}

/// Identity of the running binary: a rebuilt binary may choose other
/// plans, so repeat records are only compared within one build.
fn build_identity() -> String {
    let meta = std::env::current_exe().and_then(std::fs::metadata);
    match meta {
        Ok(m) => {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("build {} bytes, mtime {mtime}", m.len())
        }
        Err(_) => "build unknown".to_string(),
    }
}

/// Compare this run's exact values with the first run of the same build
/// and workload; the first run stores them. Returns the differing lines.
pub fn check_repeat(dir: &Path, tag: &str, lines: &[String]) -> Vec<String> {
    let path = dir.join(format!("repeat-{tag}.txt"));
    let mut body = build_identity();
    body.push('\n');
    for l in lines {
        body.push_str(l);
        body.push('\n');
    }
    match std::fs::read_to_string(&path) {
        Ok(old) if old.lines().next() == body.lines().next() => old
            .lines()
            .zip(body.lines())
            .skip(1)
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("was `{a}`, now `{b}`"))
            .chain(
                (old.lines().count() != body.lines().count())
                    .then(|| "line count differs".to_string()),
            )
            .collect(),
        _ => {
            let _ = std::fs::write(&path, body);
            Vec::new()
        }
    }
}

/// Host fingerprint as JSON.
pub fn host_json() -> String {
    let h = spiral_fft::smp::topology::HostFingerprint::current();
    format!(
        "{{\"nproc\": {}, \"mu\": {}, \"nu\": {}, \"cache_line_bytes\": {}, \"simd_width\": {}, \"process_budget\": {}, \"features\": [{}]}}",
        h.cores,
        h.mu,
        spiral_fft::codegen::detected_simd_width(),
        h.cache_line_bytes,
        h.simd_width,
        h.process_budget,
        h.features.iter().map(|f| quote(f)).collect::<Vec<_>>().join(", ")
    )
}

/// Write the run record next to the build output.
pub fn write_record(dir: &Path, name: &str, fields: &[(String, String)]) -> Option<PathBuf> {
    let mut s = String::from("{\n");
    for (i, (k, v)) in fields.iter().enumerate() {
        let _ = write!(s, "  {}: {}", quote(k), v);
        s.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
    }
    s.push_str("}\n");
    let path = dir.join(name);
    std::fs::write(&path, s).ok().map(|()| path)
}
