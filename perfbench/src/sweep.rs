//! `seq-sweep` and `par2-sweep`: `SpiralFft::forward` over a size sweep,
//! with the hand-written iterative radix-2 FFT timed interleaved in the
//! same loop.

use crate::record::{Outcome, Tracer};
use crate::stats::{self, Rng};
use crate::Args;
use spiral_fft::baselines::IterativeFft;
use spiral_fft::codegen::plan::{Plan, PlanWorkspace};
use spiral_fft::codegen::ParallelExecutor;
use spiral_fft::search::{dp_search, CostModel, Tuner};
use spiral_fft::spl::{Cplx, Spl};
use spiral_fft::SpiralFft;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Processor count of the parallel sweep.
const P: usize = 2;
/// Largest codelet leaf (the tuner's default).
const MAX_LEAF: usize = 8;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Target duration of one block of calls to one implementation.
const BLOCK: Duration = Duration::from_millis(2);
/// Latency metrics cover sizes up to 2^10, where every epoch leaves more
/// than ten samples beyond the 99th percentile.
const LATENCY_MAX_K: u32 = 10;
/// A sweep call meets its SLO when it takes at most this many times the
/// median call of its size in its epoch.
const SLO_FACTOR: f64 = 2.0;
/// The measurement is split into this many equal epochs. Each metric is
/// computed per epoch and the run reports the median over epochs, so a
/// few seconds of interference from other tenants of the host move it
/// little.
const EPOCHS: usize = 10;

/// What one timed call runs.
#[derive(Clone, Copy, PartialEq)]
enum Impl {
    /// `SpiralFft::forward`, recorded as a span when tracing.
    Gen,
    /// `SpiralFft::forward`, timed without a span (tracing overhead base).
    GenPlain,
    /// `IterativeFft::run`.
    Iter,
    /// `IterativeFft::run` on both cores at once, timed on the slower one
    /// (the baseline of the parallel sweep; see [`Pair`]).
    IterPair,
    /// `Plan::execute_into` of the sequential plan (no allocation).
    ExecInto,
    /// `SpiralFft::forward` of the sequential plan (parallel sweep).
    SeqPlan,
    /// `ParallelExecutor::try_execute` of the parallel plan.
    ParDirect,
    /// `ParallelExecutor::try_execute_traced` (barrier-wait profile).
    #[cfg(feature = "trace")]
    ParObserved,
}

struct Case {
    k: u32,
    n: usize,
    x: Vec<Cplx>,
    reference: Vec<Cplx>,
    iter: IterativeFft,
    seq: Option<SpiralFft>,
    out: Vec<Cplx>,
    ws: PlanWorkspace,
    samples: Vec<Vec<f64>>,
    epoch: Vec<Vec<u16>>,
    barrier_share: Vec<f64>,
}

fn pseudo_flops(n: usize) -> f64 {
    5.0 * n as f64 * (n as f64).log2()
}

fn build(n: usize, parallel: bool, mu: usize) -> Result<SpiralFft, String> {
    if parallel {
        SpiralFft::parallel(n, P, mu).map_err(|e| e.to_string())
    } else {
        Ok(SpiralFft::sequential(n))
    }
}

pub fn run(args: &Args, parallel: bool, tracer: &mut Tracer) -> Outcome {
    let mut o = Outcome::default();
    let mu = spiral_fft::smp::topology::mu();
    let ks: Vec<u32> = if parallel {
        (8..=16).collect()
    } else {
        (6..=18).collect()
    };
    let traced = tracer.on;

    // Inputs and references, made before any timing.
    let mut rng = Rng::new(args.seed);
    let mut cases: Vec<Case> = Vec::new();
    for &k in &ks {
        let n = 1usize << k;
        let x = rng.signal(n);
        let reference = match stats::reference(n, &x) {
            Ok(r) => r,
            Err(e) => {
                o.errors.push(e);
                return o;
            }
        };
        cases.push(Case {
            k,
            n,
            x,
            reference,
            iter: IterativeFft::new(n),
            seq: None,
            out: vec![Cplx::ZERO; n],
            ws: PlanWorkspace::default(),
            samples: Vec::new(),
            epoch: Vec::new(),
            barrier_share: Vec::new(),
        });
    }

    // Set-up: plan generation through the public constructor, repeated;
    // the tuner's choices must not change between repetitions.
    let reps = if traced { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    let mut ffts: Vec<SpiralFft> = Vec::new();
    let mut formulas: Vec<String> = Vec::new();
    for rep in 0..reps {
        ffts.clear();
        tracer.begin("setup");
        let t0 = Instant::now();
        for c in &cases {
            match tracer.time("facade", "plan", || build(c.n, parallel, mu)).0 {
                Ok(f) => ffts.push(f),
                Err(e) => {
                    o.errors.push(format!("set-up of n=2^{}: {e}", c.k));
                    return o;
                }
            }
        }
        setup.push(t0.elapsed().as_secs_f64());
        tracer.end();
        let now: Vec<String> = ffts.iter().map(|f| f.formula().to_string()).collect();
        if rep > 0 && now != formulas {
            o.errors
                .push(format!("set-up repetition {rep} chose different plans"));
        }
        formulas = now;
    }
    for (c, f) in cases.iter().zip(&formulas) {
        o.repeat.push(format!("formula n=2^{}: {f}", c.k));
    }
    o.e2e.set("setup_s", stats::median(&setup), "s");

    let mut exec = None;
    if traced {
        tracer.begin("setup-layers");
        setup_layers(&cases, &ffts, parallel, mu, tracer, &mut o);
        if parallel {
            for c in &mut cases {
                c.seq = Some(
                    tracer
                        .time("facade", "plan", || SpiralFft::sequential(c.n))
                        .0,
                );
            }
            exec = Some(ParallelExecutor::with_auto_barrier(P));
        }
        tracer.end();
    }

    let impls: Vec<Impl> = match (traced, parallel) {
        (false, false) => vec![Impl::Gen, Impl::Iter],
        (false, true) => vec![Impl::Gen, Impl::IterPair],
        (true, false) => vec![Impl::Gen, Impl::GenPlain, Impl::Iter, Impl::ExecInto],
        #[cfg(feature = "trace")]
        (true, true) => vec![
            Impl::Gen,
            Impl::GenPlain,
            Impl::IterPair,
            Impl::Iter,
            Impl::SeqPlan,
            Impl::ExecInto,
            Impl::ParDirect,
            Impl::ParObserved,
        ],
        #[cfg(not(feature = "trace"))]
        (true, true) => vec![
            Impl::Gen,
            Impl::GenPlain,
            Impl::IterPair,
            Impl::Iter,
            Impl::SeqPlan,
            Impl::ExecInto,
            Impl::ParDirect,
        ],
    };

    let pair = Pair::new(if parallel { &ks } else { &[] }, args.seed);

    // One timed call of `which` on case `c`, checked against the reference.
    let call = |which: Impl,
                c: &mut Case,
                fft: &SpiralFft,
                tracer: &mut Tracer,
                o: &mut Outcome|
     -> Duration {
        let (ok, dur) = match which {
            Impl::Gen => {
                let (y, d) = tracer.time("facade", "forward", || fft.forward(&c.x));
                (stats::output_ok(&y, &c.reference, c.n), d)
            }
            Impl::GenPlain => {
                let t = Instant::now();
                let y = fft.forward(&c.x);
                let d = t.elapsed();
                *tracer.layers.entry("facade").or_default() += d;
                (stats::output_ok(&y, &c.reference, c.n), d)
            }
            Impl::Iter => {
                let (y, d) = tracer.time("baselines", "iterative", || c.iter.run(&c.x));
                (stats::output_ok(&y, &c.reference, c.n), d)
            }
            Impl::IterPair => {
                let go = pair.go();
                let (y, d) = tracer.time("baselines", "iterative_pair", || c.iter.run(&c.x));
                (
                    stats::output_ok(&y, &c.reference, c.n),
                    d.max(pair.wait(go)),
                )
            }
            Impl::ExecInto => {
                let plan: &Plan = c.seq.as_ref().map_or(fft.plan(), SpiralFft::plan);
                let (x, out, ws) = (&c.x, &mut c.out, &mut c.ws);
                let ((), d) =
                    tracer.time("codegen", "execute_into", || plan.execute_into(x, out, ws));
                (stats::output_ok(&c.out, &c.reference, c.n), d)
            }
            Impl::SeqPlan => {
                let seq = c
                    .seq
                    .as_ref()
                    .expect("sequential plan built in traced set-up");
                let (y, d) = tracer.time("facade", "forward_seq", || seq.forward(&c.x));
                (stats::output_ok(&y, &c.reference, c.n), d)
            }
            Impl::ParDirect => {
                let e: &ParallelExecutor = exec.as_ref().expect("executor built in traced set-up");
                let (y, d) = tracer.time("smp", "try_execute", || e.try_execute(fft.plan(), &c.x));
                (y.is_ok_and(|y| stats::output_ok(&y, &c.reference, c.n)), d)
            }
            #[cfg(feature = "trace")]
            Impl::ParObserved => {
                let e: &ParallelExecutor = exec.as_ref().expect("executor built in traced set-up");
                let (y, d) = tracer.time("smp", "try_execute_traced", || {
                    e.try_execute_traced(fft.plan(), &c.x)
                });
                match y {
                    Ok((y, prof)) => {
                        let busy = prof.total_compute_ns() + prof.total_barrier_wait_ns();
                        if busy > 0 {
                            c.barrier_share
                                .push(prof.total_barrier_wait_ns() as f64 / busy as f64);
                        }
                        (stats::output_ok(&y, &c.reference, c.n), d)
                    }
                    Err(_) => (false, d),
                }
            }
        };
        o.check(ok);
        dur
    };

    // Warm-up and block sizing: `reps[i]` calls of one implementation
    // take about BLOCK.
    tracer.begin("warmup");
    let mut block_reps = Vec::new();
    for (ci, (c, fft)) in cases.iter_mut().zip(&ffts).enumerate() {
        c.samples = vec![Vec::new(); impls.len()];
        c.epoch = vec![Vec::new(); impls.len()];
        for &w in &impls {
            pair.start_if(w == Impl::IterPair, ci);
            for _ in 0..3 {
                call(w, c, fft, tracer, &mut o);
            }
            pair.stop();
        }
        let one = call(Impl::Gen, c, fft, tracer, &mut o).as_secs_f64();
        block_reps.push(((BLOCK.as_secs_f64() / one.max(1e-9)) as usize).clamp(1, 100_000));
    }
    // Warm-up calls are checked but not counted as measured operations.
    o.attempted = 0;
    let warm_failed = std::mem::take(&mut o.failed);
    if warm_failed > 0 {
        o.errors
            .push(format!("{warm_failed} warm-up outputs failed the check"));
    }

    // Measurement: round-robin over sizes, blocks of each implementation
    // back to back, order reversed every other round.
    tracer.begin("measure");
    let start = Instant::now();
    let epoch_len = args.seconds / EPOCHS as f64;
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds {
        for i in 0..cases.len() {
            let ci = (i + round) % cases.len();
            let c = &mut cases[ci];
            let fft = &ffts[ci];
            let e = ((start.elapsed().as_secs_f64() / epoch_len) as usize).min(EPOCHS - 1) as u16;
            for j in 0..impls.len() {
                let wi = if round.is_multiple_of(2) {
                    j
                } else {
                    impls.len() - 1 - j
                };
                pair.start_if(impls[wi] == Impl::IterPair, ci);
                for _ in 0..block_reps[ci] {
                    let d = call(impls[wi], c, fft, tracer, &mut o);
                    c.samples[wi].push(d.as_secs_f64());
                    c.epoch[wi].push(e);
                }
                pair.stop();
            }
        }
        round += 1;
    }
    tracer.end();
    drop(pair);

    // Negative control: a corrupted output must fail the same check.
    let bad = stats::corrupted(&cases[0].reference);
    if stats::output_ok(&bad, &cases[0].reference, cases[0].n) {
        o.errors
            .push("negative control: a corrupted output passed the check".to_string());
    }

    let at = |w: Impl| impls.iter().position(|&x| x == w);
    let gen = at(Impl::Gen).expect("Gen always runs");
    let iter = at(Impl::Iter)
        .filter(|_| !parallel)
        .or_else(|| at(Impl::IterPair))
        .expect("a baseline always runs");
    let (mut gf, mut ratio, mut p50, mut p99, mut met, mut rps) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut counts = Vec::new();
    for c in &cases {
        let g = &c.samples[gen];
        // Per-epoch statistics, then the median over epochs.
        let ge = by_epoch(g, &c.epoch[gen]);
        let ie = by_epoch(&c.samples[iter], &c.epoch[iter]);
        let mut med = vec![];
        let mut rat = vec![];
        let mut eps = vec![];
        let (mut calls, mut within) = (0usize, 0usize);
        let (mut e50, mut e99, mut fewest) = (vec![], vec![], usize::MAX);
        for (gs, is) in ge.iter().zip(&ie) {
            if gs.is_empty() {
                continue;
            }
            let m = stats::median(gs);
            med.push(m);
            if !is.is_empty() {
                rat.push(stats::median(is) / m);
            }
            // A call meets the SLO when it takes at most twice the median
            // call of its size and epoch.
            calls += gs.len();
            within += gs.iter().filter(|&&t| t <= SLO_FACTOR * m).count();
            eps.push(gs.len() as f64 / gs.iter().sum::<f64>());
            if c.k <= LATENCY_MAX_K {
                let s = stats::sorted(gs);
                e50.push(stats::quantile_sorted(&s, 0.5) * 1e6);
                e99.push(stats::quantile_sorted(&s, 0.99) * 1e6);
                fewest = fewest.min(stats::beyond(s.len(), 0.99));
            }
        }
        met.push(within as f64 / calls.max(1) as f64);
        gf.push(pseudo_flops(c.n) / stats::median(&med) / 1e9);
        ratio.push(stats::median(&rat));
        rps.push(stats::median(&eps));
        if c.k <= LATENCY_MAX_K {
            p50.push(stats::median(&e50));
            p99.push(stats::median(&e99));
            if fewest < 10 {
                o.warnings.push(format!(
                    "n=2^{}: an epoch has only {fewest} samples beyond p99",
                    c.k
                ));
            }
        }
        counts.push(format!(
            "{{\"k\": {}, \"samples\": {}, \"epochs\": {}, \"fewest_beyond_p99_per_epoch\": {}}}",
            c.k,
            g.len(),
            med.len(),
            if c.k <= LATENCY_MAX_K {
                fewest.to_string()
            } else {
                "null".to_string()
            }
        ));
    }
    o.e2e.set("fwd_gflops", stats::geomean(&gf), "GF/s");
    o.e2e
        .set("fwd_vs_iterative", stats::geomean(&ratio), "ratio");
    o.e2e.set("rt_p50_us", stats::geomean(&p50), "us");
    o.e2e.set("rt_p99_us", stats::geomean(&p99), "us");
    o.e2e.set("slo_met_share", stats::mean(&met), "ratio");
    o.e2e.set("sustained_rps", stats::geomean(&rps), "1/s");
    o.record("samples_per_size", format!("[{}]", counts.join(", ")));
    o.record("rounds", round.to_string());
    o.record(
        "per_size",
        format!(
            "[{}]",
            cases
                .iter()
                .zip(gf.iter().zip(&ratio))
                .map(|(c, (g, r))| format!(
                    "{{\"k\": {}, \"gflops\": {g:.4}, \"vs_iterative\": {r:.4}}}",
                    c.k
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );

    if traced {
        per_size_layers(&cases, at, &mut o);
        // Tracing overhead: spanned vs plain forward, same loop.
        let plain = at(Impl::GenPlain).expect("GenPlain runs when traced");
        let over: Vec<f64> = cases
            .iter()
            .map(|c| stats::median(&c.samples[gen]) / stats::median(&c.samples[plain]))
            .collect();
        o.layers
            .set("trace.overhead_share", stats::geomean(&over) - 1.0, "ratio");
        // The facade's share of a forward call: the per-call allocation
        // (and for parallel plans the executor hand-off) around the plan.
        let inner = if parallel {
            at(Impl::ParDirect)
        } else {
            at(Impl::ExecInto)
        }
        .expect("inner call runs when traced");
        let share: Vec<f64> = cases
            .iter()
            .map(|c| {
                let f = stats::median(&c.samples[gen]);
                (f - stats::median(&c.samples[inner])) / f
            })
            .collect();
        o.layers.set(
            "facade.forward_overhead_share",
            stats::mean(&share),
            "ratio",
        );
        plan_counts(&ffts, &mut o);
    }
    o
}

/// The parallel sweep's baseline. While a block of `IterPair` calls
/// runs, a second thread runs the same iterative transform at the same
/// moment as each timed call, and the call counts the slower of the two.
/// This times the hand-written FFT on the slower of the two cores, the
/// core that also sets the pace of the two-thread plan, so a host whose
/// cores run at different speeds moves both sides of the ratio alike.
struct Pair {
    st: Arc<PairState>,
    thread: Option<std::thread::JoinHandle<()>>,
}

#[derive(Default)]
struct PairState {
    /// Case index to run, or `usize::MAX` while parked.
    job: AtomicUsize,
    park: Mutex<()>,
    cv: Condvar,
    /// The helper is in its spin loop (only during an `IterPair` block).
    active: AtomicBool,
    go: AtomicU64,
    done: AtomicU64,
    dur_ns: AtomicU64,
    quit: AtomicBool,
}

impl Pair {
    fn new(ks: &[u32], seed: u64) -> Pair {
        let st = Arc::new(PairState::default());
        st.job.store(usize::MAX, SeqCst);
        if ks.is_empty() {
            return Pair { st, thread: None };
        }
        let mut rng = Rng::new(seed ^ 0x9a17);
        let work: Vec<(IterativeFft, Vec<Cplx>)> = ks
            .iter()
            .map(|&k| (IterativeFft::new(1 << k), rng.signal(1 << k)))
            .collect();
        let s = Arc::clone(&st);
        let thread = std::thread::spawn(move || loop {
            let job = {
                let mut g = s.park.lock().expect("pair mutex poisoned");
                while s.job.load(SeqCst) == usize::MAX && !s.quit.load(SeqCst) {
                    g = s.cv.wait(g).expect("pair mutex poisoned");
                }
                s.job.load(SeqCst)
            };
            if s.quit.load(SeqCst) {
                return;
            }
            let mut seen = s.go.load(SeqCst);
            s.active.store(true, SeqCst);
            while s.job.load(SeqCst) == job {
                let g = s.go.load(SeqCst);
                if g == seen {
                    std::hint::spin_loop();
                    continue;
                }
                seen = g;
                let t = Instant::now();
                std::hint::black_box(work[job].0.run(&work[job].1));
                s.dur_ns.store(t.elapsed().as_nanos() as u64, SeqCst);
                s.done.store(g, SeqCst);
            }
            s.active.store(false, SeqCst);
        });
        Pair {
            st,
            thread: Some(thread),
        }
    }

    /// Wake the helper for case `ci` when `on`; returns once it spins.
    fn start_if(&self, on: bool, ci: usize) {
        if !on || self.thread.is_none() {
            return;
        }
        {
            let _g = self.st.park.lock().expect("pair mutex poisoned");
            self.st.job.store(ci, SeqCst);
            self.st.cv.notify_one();
        }
        while !self.st.active.load(SeqCst) {
            std::hint::spin_loop();
        }
    }

    /// Park the helper; returns once it is idle.
    fn stop(&self) {
        self.st.job.store(usize::MAX, SeqCst);
        while self.st.active.load(SeqCst) {
            std::hint::spin_loop();
        }
    }

    /// Signal the helper to run one transform now.
    fn go(&self) -> u64 {
        self.st.go.fetch_add(1, SeqCst) + 1
    }

    /// The helper's duration for signal `g`, once it has finished.
    fn wait(&self, g: u64) -> Duration {
        while self.st.done.load(SeqCst) != g {
            std::hint::spin_loop();
        }
        Duration::from_nanos(self.st.dur_ns.load(SeqCst))
    }
}

impl Drop for Pair {
    fn drop(&mut self) {
        self.stop();
        {
            let _g = self.st.park.lock().unwrap_or_else(PoisonError::into_inner);
            self.st.quit.store(true, SeqCst);
            self.st.cv.notify_one();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Samples grouped by the epoch they were taken in.
fn by_epoch(samples: &[f64], epochs: &[u16]) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); EPOCHS];
    for (&t, &e) in samples.iter().zip(epochs) {
        out[usize::from(e)].push(t);
    }
    out
}

/// Per-size layer times of the traced loop.
fn per_size_layers(cases: &[Case], at: impl Fn(Impl) -> Option<usize>, o: &mut Outcome) {
    for c in cases {
        let med = |w: Impl| at(w).map(|i| stats::median(&c.samples[i]));
        if let Some(t) = med(Impl::ExecInto) {
            o.layers
                .set(format!("codegen.execute_into_us.n{}", c.k), t * 1e6, "us");
        }
        if let Some(t) = med(Impl::Iter) {
            o.layers
                .set(format!("baselines.iterative_us.n{}", c.k), t * 1e6, "us");
        }
        if let Some(t) = med(Impl::ParDirect) {
            o.layers
                .set(format!("smp.par_execute_us.n{}", c.k), t * 1e6, "us");
        }
        if let (Some(s), Some(g)) = (med(Impl::SeqPlan), med(Impl::Gen)) {
            o.layers
                .set(format!("smp.speedup_vs_seq.n{}", c.k), s / g, "ratio");
        }
        if !c.barrier_share.is_empty() {
            o.layers.set(
                format!("smp.barrier_wait_share.n{}", c.k),
                stats::median(&c.barrier_share),
                "ratio",
            );
        }
    }
}

/// Exact counts of the chosen plans, summed over the sweep.
fn plan_counts(ffts: &[SpiralFft], o: &mut Outcome) {
    let flops: u64 = ffts.iter().map(|f| f.plan().flops()).sum();
    let vec_flops: u64 = ffts.iter().map(|f| f.plan().vec_flops()).sum();
    let steps: usize = ffts.iter().map(|f| f.plan().steps.len()).sum();
    let barriers: usize = ffts.iter().map(|f| f.plan().barriers()).sum();
    let share = vec_flops as f64 / flops.max(1) as f64;
    o.layers.set("codegen.flops", flops as f64, "count");
    o.layers.set("codegen.vec_flop_share", share, "ratio");
    o.layers.set("codegen.steps", steps as f64, "count");
    o.layers.set("smp.barriers", barriers as f64, "count");
    o.repeat.push(format!(
        "counts: flops {flops}, vec_flops {vec_flops}, steps {steps}, barriers {barriers}"
    ));
}

/// Set-up split by layer: the tuner as one call, then its pipeline
/// replayed through each crate's public functions.
fn setup_layers(
    cases: &[Case],
    ffts: &[SpiralFft],
    parallel: bool,
    mu: usize,
    tracer: &mut Tracer,
    o: &mut Outcome,
) {
    let model = CostModel::Analytic;
    let (mut tune, mut candidates, mut quarantined) = (Duration::ZERO, 0usize, 0usize);
    for (c, fft) in cases.iter().zip(ffts) {
        if parallel {
            let tuner = Tuner::new(P, mu, CostModel::Analytic);
            let (r, d) = tracer.time("search", "tune_parallel", || {
                tuner.tune_parallel_report(c.n)
            });
            tune += d;
            match r {
                Ok(r) => {
                    candidates += r.report.evaluated;
                    quarantined += r.report.quarantined.len();
                    let same = r
                        .best
                        .is_some_and(|b| b.formula.to_string() == fft.formula().to_string());
                    if !same {
                        o.errors
                            .push(format!("tuner report for n=2^{} chose another plan", c.k));
                    }
                }
                Err(e) => o.errors.push(format!("tuner n=2^{}: {e}", c.k)),
            }
        } else {
            let tuner = Tuner::new(1, mu, CostModel::Analytic);
            let (r, d) = tracer.time("search", "tune_sequential", || tuner.tune_sequential(c.n));
            tune += d;
            if let Err(e) = r {
                o.errors.push(format!("tuner n=2^{}: {e}", c.k));
            }
        }
    }
    let before = |t: &Tracer, l: &str| t.layer_s(l);
    let (dp0, rw0, lo0, ve0) = (
        before(tracer, "search.dp"),
        before(tracer, "rewrite"),
        before(tracer, "codegen.lower"),
        before(tracer, "verify"),
    );
    for c in cases {
        if parallel {
            candidates_par(c.n, mu, &model, tracer);
        } else {
            candidates += candidates_seq(c.n, mu, &model, tracer);
        }
    }
    o.layers.set("search.tune_s", tune.as_secs_f64(), "s");
    o.layers
        .set("search.dp_s", tracer.layer_s("search.dp") - dp0, "s");
    o.layers
        .set("rewrite.derive_s", tracer.layer_s("rewrite") - rw0, "s");
    o.layers.set(
        "codegen.lower_s",
        tracer.layer_s("codegen.lower") - lo0,
        "s",
    );
    o.layers
        .set("verify.check_s", tracer.layer_s("verify") - ve0, "s");
    o.layers
        .set("search.candidates", candidates as f64, "count");
    o.layers
        .set("search.quarantined", quarantined as f64, "count");
    o.repeat.push(format!(
        "search: candidates {candidates}, quarantined {quarantined}"
    ));
}

fn vec_widths() -> Vec<usize> {
    let host = spiral_fft::codegen::detected_simd_width();
    let mut w = vec![1];
    w.extend(
        spiral_fft::codegen::simd::CANDIDATE_WIDTHS
            .iter()
            .copied()
            .filter(|&nu| nu <= host),
    );
    w
}

/// The sequential tuner's pipeline: DP over rule trees, expansion, then
/// lowering and costing of the scalar and vec(ν) variants. Returns the
/// number of candidates costed.
fn candidates_seq(n: usize, mu: usize, model: &CostModel, tracer: &mut Tracer) -> usize {
    let r = tracer
        .time("search.dp", "dp_search", || {
            dp_search(n, MAX_LEAF, mu, model)
        })
        .0;
    let base = tracer
        .time("rewrite", "expand", || r.tree.expand().normalized())
        .0;
    let mut costed = 0;
    for nu in vec_widths() {
        let f = if nu == 1 {
            base.clone()
        } else {
            spiral_fft::spl::builder::vec_tag(nu, base.clone())
        };
        let Ok(plan) = tracer
            .time("codegen.lower", "from_formula", || {
                Plan::from_formula(&f, 1, mu)
            })
            .0
        else {
            continue;
        };
        if nu > 1 && plan.vec_width == 1 {
            continue;
        }
        let _ = tracer.time("search", "cost", || model.try_cost(&plan));
        costed += 1;
    }
    costed
}

/// The parallel tuner's pipeline over every split candidate: derivation
/// (14), DP-tree expansion of the sub-DFTs, lowering with exchange
/// fusion, static verification and dataflow certification, costing.
fn candidates_par(n: usize, mu: usize, model: &CostModel, tracer: &mut Tracer) {
    let pmu = P * mu;
    let splits: Vec<usize> = spiral_fft::spl::num::divisors(n)
        .into_iter()
        .filter(|&m| m > 1 && m < n && m.is_multiple_of(pmu) && (n / m).is_multiple_of(pmu))
        .collect();
    let trees: RefCell<HashMap<usize, spiral_fft::rewrite::RuleTree>> = RefCell::default();
    for m in splits {
        let Ok(derived) = tracer
            .time("rewrite", "multicore_dft", || {
                spiral_fft::rewrite::multicore_dft(n, P, mu, Some(m))
            })
            .0
        else {
            continue;
        };
        let dp = Cell::new(Duration::ZERO);
        let t0 = Instant::now();
        let expanded: Spl = spiral_fft::rewrite::expand_dfts(&derived.formula, &|k| {
            trees
                .borrow_mut()
                .entry(k)
                .or_insert_with(|| {
                    let t = Instant::now();
                    let tree = dp_search(k, MAX_LEAF, mu, model).tree;
                    dp.set(dp.get() + t.elapsed());
                    tree
                })
                .clone()
        })
        .normalized();
        let total = t0.elapsed();
        tracer.add("search.dp", "dp_search", t0, dp.get());
        tracer.add("rewrite", "expand_dfts", t0, total.saturating_sub(dp.get()));
        for nu in vec_widths() {
            let f = if nu == 1 {
                expanded.clone()
            } else {
                spiral_fft::spl::builder::vec_tag(nu, expanded.clone())
            };
            let Ok(plan) = tracer
                .time("codegen.lower", "from_formula", || {
                    Plan::from_formula(&f, P, mu).map(Plan::fuse_exchanges)
                })
                .0
            else {
                continue;
            };
            if nu > 1 && plan.vec_width == 1 {
                continue;
            }
            let (clean, _) = tracer.time("verify", "verify_and_certify", || {
                !spiral_verify::verify_plan(&plan, &spiral_verify::VerifyOptions::default())
                    .has_errors()
                    && spiral_verify::certify::dataflow::certify_dataflow(&plan).is_empty()
            });
            if clean {
                let _ = tracer.time("search", "cost", || model.try_cost(&plan));
            }
        }
    }
}
