//! End-to-end timeline checks on real observed executions: the
//! `RunProfile` that `try_execute_observed` folds from the run's events
//! must account for exactly those events, and the events must satisfy
//! the static timeline checker, count one barrier release per thread per
//! synchronized stage, and export as well-formed Chrome trace JSON.

// Stage/thread ids in these runs are tiny; the JSON data model stores
// numbers as f64, so reading them back is a narrowing cast by design.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use serde_json::Value;
use spiral_codegen::plan::Plan;
use spiral_codegen::ParallelExecutor;
use spiral_rewrite::multicore_dft_expanded;
use spiral_smp::trace::{MarkKind, SpanKind, TimelineSink};
use spiral_spl::cplx::Cplx;
use spiral_trace::{RunProfile, Timeline};
use spiral_verify::timeline::verify_timeline;
use std::time::{Duration, Instant};

fn ramp(n: usize) -> Vec<Cplx> {
    (0..n)
        .map(|j| Cplx::new(0.5 + j as f64, -(j as f64) * 0.25))
        .collect()
}

fn balanced_plan(n: usize, p: usize) -> Plan {
    let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
    Plan::from_formula(&f, p, 4).unwrap().fuse_exchanges()
}

fn observed_run(n: usize, p: usize) -> (Timeline, RunProfile, Plan) {
    let plan = balanced_plan(n, p);
    let exec = ParallelExecutor::with_auto_barrier(p);
    let timeline = Timeline::new(p);
    let (out, profile) = exec
        .try_execute_observed(&plan, &ramp(n), &timeline)
        .expect("healthy plan must execute");
    assert_eq!(out.len(), n);
    // Observed runs exist only with `spiral-smp/trace`, which stamps the
    // host flag.
    assert!(profile.host.features.iter().any(|f| f == "trace"));
    (timeline, profile, plan)
}

/// Compute, barrier-wait and pool-job nanoseconds summed over a
/// timeline's spans …
fn span_totals(tl: &Timeline) -> (u64, u64, u64) {
    let total = |k| tl.total_ns(k);
    (
        total(SpanKind::StageCompute),
        total(SpanKind::BarrierWait),
        total(SpanKind::PoolJob),
    )
}

/// … and as a profile reports them.
fn profile_totals(pr: &RunProfile) -> (u64, u64, u64) {
    let pool = pr.pool_job_ns.iter().sum();
    (pr.total_compute_ns(), pr.total_barrier_wait_ns(), pool)
}

#[test]
fn barrier_release_marks_count_threads_per_synchronized_stage() {
    for p in [2usize, 4] {
        let (timeline, profile, _) = observed_run(1 << 10, p);
        let mut synchronized = 0;
        for s in 0..profile.stages.len() {
            let releases = timeline.count(MarkKind::BarrierRelease, s as u32);
            assert!(
                releases == 0 || releases == p,
                "p={p} stage {s}: {releases} release marks (want 0 or {p})"
            );
            if releases == p {
                synchronized += 1;
            }
        }
        assert!(
            synchronized > 0,
            "p={p}: a parallel run must cross at least one barrier"
        );
        assert_eq!(timeline.total_dropped(), 0);
    }
}

#[test]
fn timeline_totals_agree_with_profile_aggregates() {
    // The profile is a fold over exactly the events its run wrote, so
    // the sums agree to the nanosecond — also when the timeline already
    // holds tuner events and an earlier run before the profiled one.
    let (n, p) = (1 << 12, 2);
    let plan = balanced_plan(n, p);
    let exec = ParallelExecutor::with_auto_barrier(p);
    let timeline = Timeline::new(p);
    let t0 = Instant::now();
    let us = |c: u32| t0 + Duration::from_micros(u64::from(c));
    for c in 0..3 {
        timeline.span(0, SpanKind::TunerCandidate, c, us(c), us(c + 1));
    }
    timeline.mark(0, MarkKind::TunerReject, 2, t0);
    let (_, first) = exec
        .try_execute_observed(&plan, &ramp(n), &timeline)
        .expect("healthy plan must execute");
    assert_eq!(span_totals(&timeline), profile_totals(&first));
    let (_, second) = exec
        .try_execute_observed(&plan, &ramp(n), &timeline)
        .expect("healthy plan must execute");
    let both = first.try_merge(&second).expect("same plan, same shape");
    assert_eq!(span_totals(&timeline), profile_totals(&both));
    // Per (stage, thread): the second profile's compute is exactly the
    // second run's spans, the ones after the first run's in each ring.
    for (si, stage) in second.stages.iter().enumerate() {
        for (tid, t) in stage.threads.iter().enumerate() {
            let spans: Vec<u64> = timeline
                .events()
                .iter()
                .filter(|e| e.tid == tid && e.stage as usize == si)
                .filter(|e| e.is_span(SpanKind::StageCompute))
                .map(|e| e.duration_ns())
                .collect();
            assert_eq!(spans.len(), 2, "stage {si} tid {tid}: one span per run");
            assert_eq!(t.compute_ns, spans[1], "stage {si} tid {tid}");
        }
    }
    assert_eq!(timeline.count(SpanKind::TunerCandidate, 1), 1);
    assert_eq!(second.timeline_dropped, 0);
}

#[test]
fn observed_run_needs_a_ring_per_executor_thread() {
    let plan = balanced_plan(1 << 10, 2);
    let exec = ParallelExecutor::with_auto_barrier(2);
    let err = exec
        .try_execute_observed(&plan, &ramp(1 << 10), &Timeline::new(1))
        .expect_err("a one-ring timeline cannot record a two-thread run");
    assert!(err.to_string().contains("timeline"), "{err}");
}

#[test]
fn concurrent_observed_runs_sharing_a_timeline_fold_only_their_own_events() {
    // Concurrent callers on one executor run one after another, and each
    // profile folds only its own events: together the profiles account
    // for every span in the timeline exactly once.
    let (n, p) = (1 << 10, 2);
    let plan = balanced_plan(n, p);
    let exec = ParallelExecutor::with_auto_barrier(p);
    let timeline = Timeline::new(p);
    let x = ramp(n);
    let run = || exec.try_execute_observed(&plan, &x, &timeline).unwrap();
    let caller = || (0..8).map(|_| run().1).collect::<Vec<_>>();
    let profiles: Vec<RunProfile> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..3).map(|_| s.spawn(caller)).collect();
        callers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let merge = |acc: RunProfile, pr: &RunProfile| acc.try_merge(pr).unwrap();
    let all = profiles[1..].iter().fold(profiles[0].clone(), merge);
    assert_eq!(all.runs, 24);
    assert_eq!(timeline.total_dropped(), 0);
    assert_eq!(span_totals(&timeline), profile_totals(&all));
}

#[test]
fn static_timeline_checker_passes_a_real_run() {
    let (timeline, profile, _) = observed_run(1 << 11, 2);
    let diags = verify_timeline(&timeline.events(), 2, profile.stages.len());
    assert!(
        diags.is_empty(),
        "real observed run must satisfy the timeline checker: {:?}",
        diags.iter().map(|d| d.detail.as_str()).collect::<Vec<_>>()
    );
}

#[test]
fn chrome_export_of_real_run_is_well_formed() {
    let (timeline, _, plan) = observed_run(1 << 10, 2);
    let labels: Vec<String> = plan.steps.iter().map(|s| s.label()).collect();
    let json = timeline.chrome_trace(&labels);
    let doc: Value = serde_json::from_str(&json).expect("export must parse");
    let Some(Value::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    let ph = |e: &Value| match e.get("ph") {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("ph must be a string, got {other:?}"),
    };
    let b = events.iter().filter(|e| ph(e) == "B").count();
    let e_count = events.iter().filter(|e| ph(e) == "E").count();
    assert_eq!(b, e_count, "B/E phases must be balanced");
    assert!(b > 0, "a real run must record spans");
    for ev in events.iter().filter(|e| ph(e) == "i") {
        assert_eq!(
            ev.get("s").and_then(|v| match v {
                Value::Str(s) => Some(s.as_str()),
                _ => None,
            }),
            Some("t"),
            "instants must be thread-scoped"
        );
    }
    // Per-thread timestamps of B events are monotone (ring order).
    let mut last = std::collections::HashMap::new();
    for ev in events.iter().filter(|e| ph(e) == "B") {
        let tid = ev.get("tid").and_then(Value::as_f64).unwrap() as usize;
        let ts = ev.get("ts").and_then(Value::as_f64).unwrap();
        let prev = last.insert(tid, ts).unwrap_or(-1.0);
        assert!(ts >= prev, "tid {tid}: B at {ts} after {prev}");
    }
}

#[test]
fn overflowed_tiny_ring_reports_nonzero_drop_count_in_profile() {
    // A real observed run into a deliberately tiny ring: the run emits
    // far more events per thread than 2 slots, so the ring must wrap —
    // and the profile folded from that timeline must SAY so instead of
    // silently truncating history.
    let n = 1 << 10;
    let p = 2;
    let plan = balanced_plan(n, p);
    let exec = ParallelExecutor::with_auto_barrier(p);
    let timeline = Timeline::with_capacity(p, 2);
    let (_, profile) = exec
        .try_execute_observed(&plan, &ramp(n), &timeline)
        .expect("healthy plan must execute");
    assert!(
        timeline.total_dropped() > 0,
        "a 2-slot ring must wrap on a real run"
    );
    assert_eq!(profile.timeline_dropped, timeline.total_dropped());
    // The drop count survives the JSON interchange round-trip.
    let back = RunProfile::from_json(&profile.to_json()).unwrap();
    assert_eq!(back.timeline_dropped, profile.timeline_dropped);
    // And the exported trace carries the same wrap counter.
    let trace = timeline.chrome_trace(&[]);
    assert!(trace.contains(&format!("\"dropped_events\": {}", timeline.total_dropped())));

    // Control: an ample ring on the same workload drops nothing.
    let (roomy, ample_profile, _) = observed_run(n, p);
    assert_eq!(roomy.total_dropped(), 0);
    assert_eq!(ample_profile.timeline_dropped, 0);
}
