//! Longitudinal benchmark history: record → store → compare.
//!
//! A single benchmark run answers "how fast is it now"; the paper's
//! engineering claims need "is it *still* that fast" — a perf trajectory
//! that survives across commits. This module maintains a
//! schema-versioned `BENCH_<host>.json` file of repeated runs: each run
//! measures a (size × threads) grid of tuned transforms with a
//! median-of-k + MAD protocol and stores throughput in pseudo-GFLOP/s
//! (`5·n·log₂n / t`, the FFT benchmarking convention), plus the host it
//! ran on. Comparison is *noise-aware*: a current entry regresses only
//! if it falls below its baseline by more than a MAD-scaled threshold,
//! so a noisy container doesn't cry wolf while a real 2× slowdown is
//! always flagged.
//!
//! Timing artifacts from different machines are incomparable, so every
//! run carries its [`BenchHost`] and comparison only pairs runs whose
//! host names match — recording on a new machine starts a fresh
//! trajectory inside the same file rather than comparing apples to
//! pears.

use serde::{Deserialize, Serialize};
use spiral_smp::topology::HostFingerprint;
use std::time::Instant;

/// Version stamp of the serialized [`BenchHistory`] layout; guarded by
/// the golden snapshot under `results/bench_history_schema.json`.
///
/// * v1 — initial layout (PR 4).
/// * v2 — host identity moved into the shared
///   [`spiral_smp::topology::HostFingerprint`] block (adds `features`),
///   and entries gained the `batch` grid dimension.
/// * v3 — entries gained the `connections` grid dimension, so the
///   served-throughput-under-concurrency points from `figures
///   serve-load` live in the same trajectory file as the in-process
///   grid (`connections = 1` for everything measured in-process).
/// * v4 — entries gained the `backend` grid dimension (`"scalar"` |
///   `"vector"`), so short-vector measurements never compare against
///   scalar baselines. v3 files migrate on load: every pre-existing
///   point was measured by the scalar interpreter and is stamped
///   `"scalar"`.
/// * v5 — entries gained the tail percentiles `p99_us`/`p999_us`
///   (per-transform, like `median_us`), so the serving tier's latency
///   tails are trended longitudinally alongside throughput. v4 files
///   migrate on load with `0.0` (= tails not measured for that point).
/// * v6 — entries gained the `processes` grid dimension for the
///   multi-process tier's fleet measurements.
/// * v7 — the `processes` dimension left with that tier. A file loads
///   only at this exact version: no history file of an older version is
///   kept anywhere, so there is nothing to migrate.
pub const BENCH_SCHEMA_VERSION: u64 = 7;

/// The `backend` value for points executed by the scalar interpreter.
pub const BACKEND_SCALAR: &str = "scalar";
/// The `backend` value for points executed by the short-vector backend.
pub const BACKEND_VECTOR: &str = "vector";

/// The backend label for a plan executing with short-vector width
/// `vec_width` (1 = scalar).
pub fn backend_label(vec_width: usize) -> &'static str {
    if vec_width > 1 {
        BACKEND_VECTOR
    } else {
        BACKEND_SCALAR
    }
}

/// The backend label implied by a tuner choice string: vec-tagged
/// winners carry a `"+ vec(ν)"` suffix.
pub fn backend_from_choice(choice: &str) -> &'static str {
    if choice.contains("+ vec(") {
        BACKEND_VECTOR
    } else {
        BACKEND_SCALAR
    }
}

/// The machine a benchmark run executed on: a human-facing name plus
/// the workspace-wide hardware [`HostFingerprint`] (the same identity
/// block `spiral-trace` profiles and `spiral-serve` wisdom carry).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchHost {
    /// Host name (kernel hostname; `"unknown-host"` when unavailable).
    pub name: String,
    /// Hardware identity (cores, µ, line size, compiled features).
    pub fingerprint: HostFingerprint,
}

impl BenchHost {
    /// The current host.
    pub fn current() -> BenchHost {
        BenchHost {
            name: hostname(),
            fingerprint: HostFingerprint::current(),
        }
    }

    /// Filesystem-safe slug of the host name (for `BENCH_<slug>.json`).
    pub fn slug(&self) -> String {
        let s: String = self
            .name
            .to_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let trimmed = s.trim_matches('-');
        if trimmed.is_empty() {
            "unknown-host".to_string()
        } else {
            trimmed.to_string()
        }
    }
}

fn hostname() -> String {
    #[cfg(target_os = "linux")]
    if let Ok(s) = std::fs::read_to_string("/proc/sys/kernel/hostname") {
        let s = s.trim();
        if !s.is_empty() {
            return s.to_string();
        }
    }
    std::env::var("HOSTNAME").unwrap_or_else(|_| "unknown-host".to_string())
}

/// One measured grid point: the tuned transform of size `2^log2n` at
/// `threads` threads.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Transform size as log2 n.
    pub log2n: u64,
    /// Thread count.
    pub threads: u64,
    /// Independent transforms dispatched per request: `1` is the classic
    /// per-transform path; `>1` is a `BatchExecutor` grid point. Timing
    /// fields are always *per transform*, so batched and unbatched
    /// entries report comparable throughput.
    pub batch: u64,
    /// Concurrent client connections the measurement was taken under:
    /// `1` for every in-process grid point; `>1` only for network
    /// serve-load points, where `median_us` is the per-request
    /// round-trip over the wire rather than a bare execute.
    pub connections: u64,
    /// Execution backend of the measured plan: [`BACKEND_SCALAR`] or
    /// [`BACKEND_VECTOR`]. A comparison key — a vector point only ever
    /// compares against earlier vector points, never a scalar baseline
    /// (and vice versa).
    pub backend: String,
    /// What the tuner picked (e.g. `"multicore split 64x64"`); carried
    /// for interpretation, not used as a comparison key — the tuner may
    /// legitimately flip between equivalent splits across runs.
    pub plan_kind: String,
    /// Repetitions measured.
    pub reps: u64,
    /// Median wall-clock µs per transform over the reps.
    pub median_us: f64,
    /// Median absolute deviation of the per-rep µs.
    pub mad_us: f64,
    /// 99th-percentile µs per transform (`0.0` = not measured; tails
    /// need more samples than the in-process grid's default reps).
    pub p99_us: f64,
    /// 99.9th-percentile µs per transform (`0.0` = not measured).
    pub p999_us: f64,
    /// Median pseudo-GFLOP/s over the reps (`5·n·log₂n / t`).
    pub gflops: f64,
    /// MAD of the per-rep pseudo-GFLOP/s.
    pub gflops_mad: f64,
}

/// One recorded benchmark run: a grid of entries plus provenance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchRun {
    /// Run sequence number within the file (1-based, strictly
    /// increasing).
    pub seq: u64,
    /// Unix timestamp of the run in milliseconds.
    pub unix_ms: u64,
    /// Host the run executed on.
    pub host: BenchHost,
    /// Measured grid points.
    pub entries: Vec<BenchEntry>,
}

/// The whole stored history: schema version + runs, oldest first.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchHistory {
    /// Serialization layout version ([`BENCH_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Recorded runs, oldest first.
    pub runs: Vec<BenchRun>,
}

impl Default for BenchHistory {
    fn default() -> BenchHistory {
        BenchHistory {
            schema: BENCH_SCHEMA_VERSION,
            runs: Vec::new(),
        }
    }
}

impl BenchHistory {
    /// Parse a history file's contents; any schema other than
    /// [`BENCH_SCHEMA_VERSION`] is an error.
    pub fn from_json(s: &str) -> Result<BenchHistory, String> {
        let h: BenchHistory = serde_json::from_str(s).map_err(|e| e.to_string())?;
        h.validate()?;
        Ok(h)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("BenchHistory serializes")
    }

    /// Load from `path`; a missing file is an empty history.
    pub fn load(path: &std::path::Path) -> Result<BenchHistory, String> {
        match std::fs::read_to_string(path) {
            Ok(s) => BenchHistory::from_json(&s),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(BenchHistory::default()),
            Err(e) => Err(format!("reading {}: {e}", path.display())),
        }
    }

    /// Write to `path` as pretty JSON.
    pub fn save(&self, path: &std::path::Path) -> Result<(), String> {
        std::fs::write(path, self.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))
    }

    /// Structural validity: known schema, strictly increasing run
    /// sequence numbers, finite non-negative measurements.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unsupported bench history schema {} (this build reads {})",
                self.schema, BENCH_SCHEMA_VERSION
            ));
        }
        let mut prev_seq = 0u64;
        for run in &self.runs {
            if run.seq <= prev_seq {
                return Err(format!(
                    "run sequence numbers must strictly increase: {} after {prev_seq}",
                    run.seq
                ));
            }
            prev_seq = run.seq;
            for e in &run.entries {
                let finite = [e.median_us, e.mad_us, e.gflops, e.gflops_mad]
                    .iter()
                    .all(|v| v.is_finite());
                if !finite || e.median_us <= 0.0 || e.gflops <= 0.0 || e.reps == 0 {
                    return Err(format!(
                        "run {}: entry (n=2^{}, p={}) has degenerate measurements: {e:?}",
                        run.seq, e.log2n, e.threads
                    ));
                }
                if e.backend != BACKEND_SCALAR && e.backend != BACKEND_VECTOR {
                    return Err(format!(
                        "run {}: entry (n=2^{}, p={}) has unknown backend {:?} \
                         (expected {BACKEND_SCALAR:?} or {BACKEND_VECTOR:?})",
                        run.seq, e.log2n, e.threads, e.backend
                    ));
                }
            }
        }
        Ok(())
    }

    /// Append `run`, assigning the next sequence number.
    pub fn append(&mut self, mut run: BenchRun) {
        run.seq = self.runs.last().map_or(0, |r| r.seq) + 1;
        self.runs.push(run);
    }

    /// The gflops trajectory of one grid point across all runs on
    /// `host_name`, oldest first (for sparklines). Runs missing the
    /// point are skipped.
    pub fn trajectory(
        &self,
        log2n: u64,
        threads: u64,
        batch: u64,
        connections: u64,
        backend: &str,
        host_name: &str,
    ) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.host.name == host_name)
            .filter_map(|r| {
                r.entries
                    .iter()
                    .find(|e| {
                        e.log2n == log2n
                            && e.threads == threads
                            && e.batch == batch
                            && e.connections == connections
                            && e.backend == backend
                    })
                    .map(|e| e.gflops)
            })
            .collect()
    }
}

/// `5·n·log₂n / t` in GFLOP/s, for a size-`n` transform taking `us`
/// microseconds.
pub fn pseudo_gflops(n: usize, us: f64) -> f64 {
    if us <= 0.0 {
        return 0.0;
    }
    5.0 * n as f64 * (n as f64).log2() / (us * 1e3)
}

/// Median of a sample (empty → 0).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Median absolute deviation from the median — the robust spread
/// estimate the regression threshold is scaled by.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Nearest-rank percentile of a sample, `p` in `[0, 100]` (empty → 0).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (p.clamp(0.0, 100.0) / 100.0 * v.len() as f64).ceil();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = (rank as usize).saturating_sub(1).min(v.len() - 1);
    v[idx]
}

/// Measure the (sizes × threads) grid on this host: tune each point
/// with the analytic model, run `reps` repetitions through the
/// fault-tolerant parallel path (or the plain sequential executor at
/// p=1), and summarize with median + MAD. Points the tuner cannot
/// produce (e.g. `(pµ)² ∤ n`) are skipped.
///
/// Each grid point is measured under *both* execution backends when the
/// host supports short vectors: the tuner's winner provides one of the
/// two, and the counterpart plan is derived from the same formula (the
/// `vec(ν)` tag stripped for the scalar point, or added at the detected
/// width for the vector point). Points where the counterpart fails to
/// vectorize (or the host is scalar-only) record the scalar entry alone.
pub fn measure_grid(sizes_log2: &[u32], threads: &[usize], reps: usize) -> BenchRun {
    use spiral_codegen::plan::Plan;
    use spiral_codegen::ParallelExecutor;
    use spiral_search::{CostModel, Tuner};
    use spiral_spl::cplx::Cplx;
    use spiral_spl::Spl;

    let reps = reps.max(2);
    let mu = spiral_smp::topology::mu();
    let host_nu = spiral_codegen::detected_simd_width();
    let mut entries = Vec::new();
    for &p in threads {
        let exec = (p > 1).then(|| ParallelExecutor::with_auto_barrier(p));
        for &k in sizes_log2 {
            let n = 1usize << k;
            let Ok(Some(tuned)) = Tuner::new(p.max(1), mu, CostModel::Analytic).tune_parallel(n)
            else {
                continue;
            };
            // The winner plus its counterpart on the other backend,
            // compiled from the same formula modulo the vec(ν) tag.
            let mut variants: Vec<(Plan, String)> =
                vec![(tuned.plan.clone(), tuned.choice.clone())];
            if tuned.plan.vec_width > 1 {
                if let Spl::Vec { a, .. } = &tuned.formula {
                    if let Ok(plan) = Plan::from_formula(a, tuned.plan.threads, mu) {
                        let plan = if plan.threads > 1 {
                            plan.fuse_exchanges()
                        } else {
                            plan
                        };
                        let base_choice = tuned
                            .choice
                            .split(" + vec(")
                            .next()
                            .unwrap_or(&tuned.choice)
                            .to_string();
                        variants.push((plan, base_choice));
                    }
                }
            } else if host_nu > 1 {
                let tagged = spiral_spl::builder::vec_tag(host_nu, tuned.formula.clone());
                if let Ok(plan) = Plan::from_formula(&tagged, tuned.plan.threads, mu) {
                    let plan = if plan.threads > 1 {
                        plan.fuse_exchanges()
                    } else {
                        plan
                    };
                    if plan.vec_width > 1 {
                        let choice = format!("{} + vec({})", tuned.choice, plan.vec_width);
                        variants.push((plan, choice));
                    }
                }
            }
            let x: Vec<Cplx> = (0..n)
                .map(|i| Cplx::new(i as f64 / n as f64, -(i as f64) / n as f64))
                .collect();
            for (plan, choice) in variants {
                let mut times_us = Vec::with_capacity(reps);
                // One warm-up rep (cold caches, lazy pool spin-up), then
                // the measured ones.
                for rep in 0..=reps {
                    let t0 = Instant::now();
                    let out = match &exec {
                        Some(e) => e
                            .try_execute(&plan, &x)
                            .expect("healthy tuned plan must execute"),
                        None => plan.execute(&x),
                    };
                    let dt = t0.elapsed().as_secs_f64() * 1e6;
                    std::hint::black_box(out);
                    if rep > 0 {
                        times_us.push(dt);
                    }
                }
                let per_rep_gflops: Vec<f64> =
                    times_us.iter().map(|&us| pseudo_gflops(n, us)).collect();
                entries.push(BenchEntry {
                    log2n: k as u64,
                    threads: p as u64,
                    batch: 1,
                    connections: 1,
                    backend: backend_label(plan.vec_width).to_string(),
                    plan_kind: choice,
                    reps: reps as u64,
                    median_us: median(&times_us),
                    mad_us: mad(&times_us),
                    p99_us: percentile(&times_us, 99.0),
                    p999_us: percentile(&times_us, 99.9),
                    gflops: median(&per_rep_gflops),
                    gflops_mad: mad(&per_rep_gflops),
                });
            }
        }
    }
    BenchRun {
        seq: 0, // assigned by BenchHistory::append
        unix_ms: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
        host: BenchHost::current(),
        entries,
    }
}

/// Regression-detection knobs.
#[derive(Clone, Copy, Debug)]
pub struct CompareOpts {
    /// The relative threshold is at least `mad_factor · MAD / baseline`
    /// — how many robust standard-deviation-equivalents of noise a drop
    /// must exceed.
    pub mad_factor: f64,
    /// Floor on the relative threshold, so near-zero-MAD baselines don't
    /// flag sub-percent jitter.
    pub min_rel_drop: f64,
}

impl Default for CompareOpts {
    fn default() -> CompareOpts {
        CompareOpts {
            mad_factor: 4.0,
            min_rel_drop: 0.05,
        }
    }
}

/// One grid point's comparison verdict.
#[derive(Clone, Debug)]
pub struct CompareLine {
    /// Transform size as log2 n.
    pub log2n: u64,
    /// Thread count.
    pub threads: u64,
    /// Transforms per dispatched request (1 = unbatched).
    pub batch: u64,
    /// Concurrent connections (1 = in-process measurement).
    pub connections: u64,
    /// Execution backend (`"scalar"` | `"vector"`), a comparison key.
    pub backend: String,
    /// Current run's tuner choice.
    pub plan_kind: String,
    /// Baseline pseudo-GFLOP/s (most recent earlier run, same host).
    pub base_gflops: f64,
    /// Current pseudo-GFLOP/s.
    pub cur_gflops: f64,
    /// `(cur - base) / base`: negative = slower.
    pub rel_delta: f64,
    /// The noise-aware relative drop that would have been tolerated.
    pub threshold: f64,
    /// Whether the drop exceeds the threshold.
    pub regressed: bool,
    /// Gflops trajectory across all same-host runs (for sparklines).
    pub trajectory: Vec<f64>,
}

/// Comparison of the latest run against its per-host baseline.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Per-point verdicts, grid order.
    pub lines: Vec<CompareLine>,
    /// Grid points in the latest run with no comparable baseline
    /// (first run on this host, or new grid point).
    pub unmatched: usize,
}

impl CompareReport {
    /// Points that regressed.
    pub fn regressions(&self) -> usize {
        self.lines.iter().filter(|l| l.regressed).count()
    }
}

/// Compare the latest run against the most recent earlier run on the
/// same host. `None` when the history holds no runs at all.
pub fn compare_latest(history: &BenchHistory, opts: &CompareOpts) -> Option<CompareReport> {
    let latest = history.runs.last()?;
    let mut report = CompareReport::default();
    for cur in &latest.entries {
        let base = history.runs[..history.runs.len() - 1]
            .iter()
            .rev()
            .filter(|r| r.host.name == latest.host.name)
            .find_map(|r| {
                r.entries.iter().find(|e| {
                    e.log2n == cur.log2n
                        && e.threads == cur.threads
                        && e.batch == cur.batch
                        && e.connections == cur.connections
                        && e.backend == cur.backend
                })
            });
        let Some(base) = base else {
            report.unmatched += 1;
            continue;
        };
        let rel_delta = (cur.gflops - base.gflops) / base.gflops;
        // Noise floor: the larger of the two runs' MADs, scaled.
        let noise = opts.mad_factor * base.gflops_mad.max(cur.gflops_mad) / base.gflops;
        let threshold = noise.max(opts.min_rel_drop);
        report.lines.push(CompareLine {
            log2n: cur.log2n,
            threads: cur.threads,
            batch: cur.batch,
            connections: cur.connections,
            backend: cur.backend.clone(),
            plan_kind: cur.plan_kind.clone(),
            base_gflops: base.gflops,
            cur_gflops: cur.gflops,
            rel_delta,
            threshold,
            regressed: rel_delta < -threshold,
            trajectory: history.trajectory(
                cur.log2n,
                cur.threads,
                cur.batch,
                cur.connections,
                &cur.backend,
                &latest.host.name,
            ),
        });
    }
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(log2n: u64, threads: u64, gflops: f64, gflops_mad: f64) -> BenchEntry {
        BenchEntry {
            log2n,
            threads,
            batch: 1,
            connections: 1,
            backend: BACKEND_SCALAR.to_string(),
            plan_kind: "test".to_string(),
            reps: 5,
            median_us: 100.0,
            mad_us: 1.0,
            p99_us: 0.0,
            p999_us: 0.0,
            gflops,
            gflops_mad,
        }
    }

    fn vec_entry(log2n: u64, threads: u64, gflops: f64, gflops_mad: f64) -> BenchEntry {
        BenchEntry {
            backend: BACKEND_VECTOR.to_string(),
            plan_kind: "test + vec(4)".to_string(),
            ..entry(log2n, threads, gflops, gflops_mad)
        }
    }

    fn run_with(entries: Vec<BenchEntry>) -> BenchRun {
        BenchRun {
            seq: 0,
            unix_ms: 1_700_000_000_000,
            host: BenchHost {
                name: "test-host".to_string(),
                fingerprint: HostFingerprint {
                    cores: 2,
                    mu: 4,
                    cache_line_bytes: 64,
                    simd_width: 4,
                    process_budget: 2,
                    features: vec!["simd4".to_string()],
                },
            },
            entries,
        }
    }

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // MAD of {1,2,3,4,100}: median 3, deviations {2,1,0,1,97} → 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    }

    #[test]
    fn pseudo_gflops_formula() {
        // 2^10 points in 51.2 µs: 5·1024·10 / 51 200 ns = 1 GFLOP/s.
        assert!((pseudo_gflops(1024, 51.2) - 1.0).abs() < 1e-12);
        assert_eq!(pseudo_gflops(1024, 0.0), 0.0);
    }

    #[test]
    fn append_assigns_increasing_seq_and_validates() {
        let mut h = BenchHistory::default();
        h.append(run_with(vec![entry(10, 2, 1.0, 0.01)]));
        h.append(run_with(vec![entry(10, 2, 1.1, 0.01)]));
        assert_eq!(h.runs[0].seq, 1);
        assert_eq!(h.runs[1].seq, 2);
        h.validate().unwrap();
        let round = BenchHistory::from_json(&h.to_json()).unwrap();
        assert_eq!(round, h);
    }

    #[test]
    fn validate_rejects_bad_histories() {
        let h = BenchHistory {
            schema: 99,
            ..Default::default()
        };
        assert!(h.validate().is_err());

        let mut h = BenchHistory::default();
        h.append(run_with(vec![entry(10, 2, 1.0, 0.01)]));
        h.runs[0].seq = 0; // not strictly positive/increasing
        assert!(h.validate().is_err());

        let mut h = BenchHistory::default();
        h.append(run_with(vec![entry(10, 2, f64::NAN, 0.01)]));
        assert!(h.validate().is_err());
    }

    #[test]
    fn identical_runs_do_not_regress() {
        let mut h = BenchHistory::default();
        h.append(run_with(vec![
            entry(10, 2, 1.0, 0.02),
            entry(12, 2, 2.0, 0.02),
        ]));
        h.append(run_with(vec![
            entry(10, 2, 1.0, 0.02),
            entry(12, 2, 2.0, 0.02),
        ]));
        let r = compare_latest(&h, &CompareOpts::default()).unwrap();
        assert_eq!(r.lines.len(), 2);
        assert_eq!(r.regressions(), 0);
        assert_eq!(r.unmatched, 0);
    }

    #[test]
    fn synthetic_2x_slowdown_is_flagged() {
        let mut h = BenchHistory::default();
        h.append(run_with(vec![entry(14, 2, 2.0, 0.05)]));
        h.append(run_with(vec![entry(14, 2, 1.0, 0.05)])); // 2× slower
        let r = compare_latest(&h, &CompareOpts::default()).unwrap();
        assert_eq!(r.regressions(), 1);
        let l = &r.lines[0];
        assert!(l.regressed);
        assert!((l.rel_delta + 0.5).abs() < 1e-12);
        assert_eq!(l.trajectory, vec![2.0, 1.0]);
    }

    #[test]
    fn noisy_baseline_widens_the_threshold() {
        let mut h = BenchHistory::default();
        // 10% MAD → threshold 4·0.1 = 40%; a 20% drop is within noise.
        h.append(run_with(vec![entry(10, 2, 1.0, 0.1)]));
        h.append(run_with(vec![entry(10, 2, 0.8, 0.1)]));
        let r = compare_latest(&h, &CompareOpts::default()).unwrap();
        assert_eq!(r.regressions(), 0);
        assert!(r.lines[0].threshold >= 0.4);
    }

    #[test]
    fn foreign_host_runs_are_not_compared() {
        let mut h = BenchHistory::default();
        let mut other = run_with(vec![entry(10, 2, 9.0, 0.01)]);
        other.host.name = "other-host".to_string();
        h.append(other);
        h.append(run_with(vec![entry(10, 2, 1.0, 0.01)]));
        let r = compare_latest(&h, &CompareOpts::default()).unwrap();
        assert_eq!(r.lines.len(), 0);
        assert_eq!(r.unmatched, 1);
    }

    #[test]
    fn first_run_has_no_baseline() {
        let mut h = BenchHistory::default();
        h.append(run_with(vec![entry(10, 2, 1.0, 0.01)]));
        let r = compare_latest(&h, &CompareOpts::default()).unwrap();
        assert_eq!(r.lines.len(), 0);
        assert_eq!(r.unmatched, 1);
        assert!(compare_latest(&BenchHistory::default(), &CompareOpts::default()).is_none());
    }

    /// The point of the backend dimension: a vector measurement must
    /// never be judged against a scalar baseline (or vice versa), even
    /// when every other key coordinate matches.
    #[test]
    fn backends_never_compare_against_each_other() {
        let mut h = BenchHistory::default();
        // Baseline run: fast scalar point only.
        h.append(run_with(vec![entry(10, 2, 9.0, 0.01)]));
        // Latest run: a slower *vector* point at the same coordinates.
        h.append(run_with(vec![vec_entry(10, 2, 1.0, 0.01)]));
        let r = compare_latest(&h, &CompareOpts::default()).unwrap();
        assert_eq!(r.lines.len(), 0, "cross-backend pairing is forbidden");
        assert_eq!(r.unmatched, 1);

        // With a genuine vector baseline the vector point compares —
        // against the vector trajectory only.
        let mut h = BenchHistory::default();
        h.append(run_with(vec![
            entry(10, 2, 9.0, 0.01),
            vec_entry(10, 2, 2.0, 0.01),
        ]));
        h.append(run_with(vec![
            entry(10, 2, 9.0, 0.01),
            vec_entry(10, 2, 1.0, 0.01),
        ]));
        let r = compare_latest(&h, &CompareOpts::default()).unwrap();
        assert_eq!(r.lines.len(), 2);
        let vec_line = r
            .lines
            .iter()
            .find(|l| l.backend == BACKEND_VECTOR)
            .unwrap();
        assert!(vec_line.regressed, "2→1 GF/s on the vector trajectory");
        assert_eq!(vec_line.base_gflops, 2.0);
        assert_eq!(vec_line.trajectory, vec![2.0, 1.0]);
        let scalar_line = r
            .lines
            .iter()
            .find(|l| l.backend == BACKEND_SCALAR)
            .unwrap();
        assert!(!scalar_line.regressed);
    }

    /// Unknown backend labels fail, and so does any schema but the
    /// current one, older or newer.
    #[test]
    fn unknown_backend_or_schema_is_rejected() {
        let mut h = BenchHistory::default();
        let mut e = entry(10, 2, 1.0, 0.01);
        e.backend = "quantum".to_string();
        h.append(run_with(vec![e]));
        let err = h.validate().unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");

        for schema in [BENCH_SCHEMA_VERSION - 1, BENCH_SCHEMA_VERSION + 1] {
            let err = BenchHistory::from_json(&format!(r#"{{"schema": {schema}, "runs": []}}"#))
                .unwrap_err();
            assert!(err.contains("unsupported bench history schema"), "{err}");
        }
    }

    #[test]
    fn backend_labels_derive_from_width_and_choice() {
        assert_eq!(backend_label(1), BACKEND_SCALAR);
        assert_eq!(backend_label(4), BACKEND_VECTOR);
        assert_eq!(
            backend_from_choice("sequential tree (8 x 8)"),
            BACKEND_SCALAR
        );
        assert_eq!(
            backend_from_choice("multicore split 16x64 + vec(4)"),
            BACKEND_VECTOR
        );
    }

    #[test]
    fn host_slug_is_filesystem_safe() {
        let mut host = BenchHost::current();
        host.name = "CI runner.42!".to_string();
        assert_eq!(host.slug(), "ci-runner-42");
        host.name = "---".to_string();
        assert_eq!(host.slug(), "unknown-host");
    }

    #[test]
    fn measure_grid_records_real_entries() {
        // Small grid so the test stays fast; p=2 needs n ≥ (pµ)² = 64.
        let run = measure_grid(&[8], &[1, 2], 2);
        assert!(!run.entries.is_empty());
        assert_eq!(run.host, BenchHost::current());
        for e in &run.entries {
            assert!(e.median_us > 0.0 && e.median_us.is_finite(), "{e:?}");
            assert!(e.gflops > 0.0, "{e:?}");
            assert!(!e.plan_kind.is_empty());
        }
        // Both thread counts measured at 2^8.
        assert!(run.entries.iter().any(|e| e.threads == 1));
        assert!(run.entries.iter().any(|e| e.threads == 2));
        // On a SIMD-capable host every grid point carries both backend
        // variants, and the labels agree with the choice strings.
        if spiral_codegen::detected_simd_width() > 1 {
            for p in [1u64, 2] {
                assert!(
                    run.entries
                        .iter()
                        .any(|e| e.threads == p && e.backend == BACKEND_SCALAR),
                    "missing scalar point at p={p}"
                );
                assert!(
                    run.entries
                        .iter()
                        .any(|e| e.threads == p && e.backend == BACKEND_VECTOR),
                    "missing vector point at p={p}"
                );
            }
        }
        for e in &run.entries {
            assert_eq!(e.backend, backend_from_choice(&e.plan_kind), "{e:?}");
        }
        let mut h = BenchHistory::default();
        h.append(run);
        h.validate().unwrap();
    }
}
