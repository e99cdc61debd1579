//! Multithreaded plan execution on the `spiral-smp` substrate.
//!
//! Mirrors the generated pthreads code the paper describes: a persistent
//! worker pool, one statically scheduled portion per thread per step, one
//! barrier per step, cache-line aligned shared buffers, and per-thread
//! private scratch.
//!
//! ## Workspace
//!
//! The executor owns every buffer a run needs: the aligned ping-pong pair
//! and one chunk temporary per thread. They are grow-only, sized by the
//! first run that needs them and reused after that, so a warm run
//! allocates only the `Vec` it returns. Step 0 reads the caller's input
//! in place. The workspace sits behind a lock that a run holds from start
//! to finish, which also serializes concurrent callers of one executor.
//!
//! ## Failure model
//!
//! [`ParallelExecutor::try_execute`] is the fallible entry point:
//!
//! * a panic on any logical thread (including the caller) is caught by
//!   the pool and surfaces as [`SpiralError::WorkerPanic`];
//! * a dead peer is bounded by the stage-barrier watchdog
//!   ([`ParallelExecutor::set_watchdog`]): survivors observe
//!   [`SpiralError::BarrierTimeout`] within the deadline, mark the run
//!   failed, and drain, so the caller gets an `Err` instead of a
//!   deadlock;
//! * results are scanned before they leave the executor — non-finite
//!   output yields [`SpiralError::NonFinite`], never a silently
//!   corrupted `Ok`;
//! * after any failed run the stage barrier is reset, so the same
//!   executor (and pool) runs subsequent healthy plans;
//! * [`ParallelExecutor::execute_resilient`] additionally degrades to
//!   the verified sequential interpreter (`Plan::execute`) when the pool
//!   is unhealthy or the parallel run hits a runtime fault.
//!
//! With the `faults` feature, deterministic faults (panics, delays, NaN
//! corruption) can be injected at any `(stage, thread)` point via
//! `spiral_smp::faults` to exercise all of the above.

use crate::plan::{run_chunk, share, PerThread, Plan, Step};
use spiral_smp::align::AlignedVec;
use spiral_smp::barrier::{Barrier, BarrierKind};
use spiral_smp::error::{lock_recover, SpiralError};
use spiral_smp::pool::Pool;
use spiral_spl::cplx::{first_non_finite, to_vec_if_finite, Cplx};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Default stage-barrier watchdog. Generous: a healthy stage never takes
/// seconds, so tripping it means a peer is dead or wedged.
pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);

/// Result of [`ParallelExecutor::execute_resilient`].
pub struct ExecOutcome {
    /// The transform output.
    pub output: Vec<Cplx>,
    /// `None` when the parallel path succeeded; `Some(cause)` when the
    /// executor degraded to the sequential interpreter because of this
    /// runtime fault.
    pub degraded: Option<SpiralError>,
}

/// Reusable parallel executor: owns the pool, barrier, and buffers.
pub struct ParallelExecutor {
    pool: Pool,
    barrier: Box<dyn Barrier>,
    threads: usize,
    watchdog: Duration,
    /// Held for a whole run (the run lock).
    ws: Mutex<StageWorkspace>,
}

/// The buffers a run reuses: the cache-line aligned ping-pong pair and
/// one chunk temporary per thread, each grown only when a plan needs
/// more than it holds.
struct StageWorkspace {
    a: AlignedVec<Cplx>,
    b: AlignedVec<Cplx>,
    tmp: PerThread<AlignedVec<Cplx>>,
}

impl StageWorkspace {
    fn new(threads: usize) -> StageWorkspace {
        StageWorkspace {
            a: AlignedVec::new(0),
            b: AlignedVec::new(0),
            tmp: PerThread::new(threads, || AlignedVec::new(0)),
        }
    }

    /// Grow the ping-pong buffers a `steps`-step run of size `n` writes:
    /// step 0 writes B, step 1 and later alternate A and B.
    fn prepare(&mut self, n: usize, steps: usize) -> Result<(), SpiralError> {
        for (buf, first_step) in [(&mut self.b, 0), (&mut self.a, 1)] {
            if steps > first_step && buf.len() < n {
                *buf = AlignedVec::try_with_alignment(n, spiral_smp::CACHE_LINE_BYTES)?;
            }
        }
        Ok(())
    }
}

/// The step sources and destinations shared by the workers: the
/// caller's input and the workspace ping-pong pair.
///
/// # Safety
///
/// `Sync` is sound only for plans satisfying the invariant the
/// `spiral-verify` analyzer checks statically over the stage IR: in every
/// step, per-thread write index sets are pairwise disjoint and in bounds,
/// and reads target only the step's source — the input `x` at step 0,
/// after that the opposite ping-pong buffer, whose contents were fixed
/// before the barrier that opened the step. `x` is a shared borrow that
/// no step writes. Under that invariant no two threads ever form a data
/// race on `a`/`b` — writes are unaliased, and every read-after-write
/// pair is ordered by a barrier. No other run touches `a`/`b` meanwhile:
/// they belong to the executor's workspace, whose lock the run holds.
/// All plans produced by `Plan::from_formula` satisfy it; debug builds
/// additionally re-verify each plan through the [`crate::validate`]
/// registry when an analyzer is installed
/// (`spiral_verify::install_executor_guard`).
struct SharedBufs<'x> {
    x: &'x [Cplx],
    a: *mut Cplx,
    b: *mut Cplx,
}
unsafe impl Sync for SharedBufs<'_> {}

impl SharedBufs<'_> {
    /// Source and destination of step `si`: step 0 reads `x` and writes
    /// B, then odd steps read B and write A, even steps read A and
    /// write B.
    ///
    /// # Safety
    ///
    /// The caller reads the source only after the barrier that closed
    /// step `si - 1`, and writes only its own portion of the destination
    /// (see the type's safety argument).
    unsafe fn step(&self, si: usize) -> (&[Cplx], *mut Cplx) {
        let n = self.x.len();
        // SAFETY: `StageWorkspace::prepare` sized B for any step and A for
        // step 1 on to at least `n` elements; the aliasing conditions are
        // the caller's (above).
        match si {
            0 => (self.x, self.b),
            _ if si % 2 == 1 => (unsafe { std::slice::from_raw_parts(self.b, n) }, self.a),
            _ => (unsafe { std::slice::from_raw_parts(self.a, n) }, self.b),
        }
    }
}

/// The pool must outwait the stage barrier: when a run fails, survivors
/// each burn at most one barrier deadline before draining, and a delayed
/// straggler can burn one more.
fn pool_watchdog(stage_watchdog: Duration) -> Duration {
    stage_watchdog * 2 + Duration::from_millis(250)
}

/// Optional tracing context threaded through [`ParallelExecutor`]'s
/// internal run path. Without the `trace` feature this is a zero-sized
/// struct and every use compiles out — `try_execute` is byte-for-byte
/// the untraced executor.
#[derive(Clone, Copy, Default)]
struct ExecTrace<'a> {
    /// Where timestamped spans/instants go, when observing this run.
    #[cfg(feature = "trace")]
    timeline: Option<&'a spiral_trace::Timeline>,
    _marker: std::marker::PhantomData<&'a ()>,
}

impl ParallelExecutor {
    /// Build an executor with `threads` workers and the given barrier.
    pub fn new(threads: usize, kind: BarrierKind) -> ParallelExecutor {
        ParallelExecutor::with_watchdog(threads, kind, DEFAULT_WATCHDOG)
    }

    /// Build an executor with an explicit stage-barrier watchdog.
    pub fn with_watchdog(
        threads: usize,
        kind: BarrierKind,
        watchdog: Duration,
    ) -> ParallelExecutor {
        let threads = threads.max(1);
        ParallelExecutor {
            pool: Pool::with_watchdog(threads, pool_watchdog(watchdog)),
            barrier: kind.build(threads),
            threads,
            watchdog,
            ws: Mutex::new(StageWorkspace::new(threads)),
        }
    }

    /// Auto-select the barrier for this host (spin if cores ≥ threads).
    pub fn with_auto_barrier(threads: usize) -> ParallelExecutor {
        ParallelExecutor::new(threads, BarrierKind::auto(threads))
    }

    /// Number of worker threads (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured stage-barrier watchdog.
    pub fn watchdog(&self) -> Duration {
        self.watchdog
    }

    /// Change the stage-barrier watchdog (the pool-level watchdog is
    /// derived from it).
    pub fn set_watchdog(&mut self, watchdog: Duration) {
        self.watchdog = watchdog;
        self.pool.set_watchdog(pool_watchdog(watchdog));
    }

    /// True when the worker pool is in a runnable state.
    pub fn healthy(&self) -> bool {
        self.pool.healthy()
    }

    /// Execute `plan` on `x`. The plan's `threads` must not exceed the
    /// executor's. Returns the transform output. Panics on any execution
    /// failure; see [`try_execute`](Self::try_execute) for the fallible
    /// variant.
    pub fn execute(&self, plan: &Plan, x: &[Cplx]) -> Vec<Cplx> {
        match self.try_execute(plan, x) {
            Ok(y) => y,
            Err(e) => panic!("{e}"),
        }
    }

    /// Execute `plan` on `x`, propagating failures instead of panicking
    /// or deadlocking: worker panics, barrier watchdog expiries, failed
    /// allocations, and non-finite output all return `Err` in bounded
    /// time, and the executor remains usable afterwards. Concurrent
    /// callers run one after another.
    pub fn try_execute(&self, plan: &Plan, x: &[Cplx]) -> Result<Vec<Cplx>, SpiralError> {
        self.exec_impl(plan, x, ExecTrace::default())
    }

    /// Execute `plan` on `x` while recording per-(stage, thread) compute
    /// and barrier-wait spans into a private timeline sized for the
    /// plan, returning the output together with the
    /// [`spiral_trace::RunProfile`] folded from them. Failure behavior
    /// is identical to [`try_execute`](Self::try_execute).
    ///
    /// Only available with the `trace` feature; without it the executor
    /// carries no instrumentation at all.
    #[cfg(feature = "trace")]
    pub fn try_execute_traced(
        &self,
        plan: &Plan,
        x: &[Cplx],
    ) -> Result<(Vec<Cplx>, spiral_trace::RunProfile), SpiralError> {
        // A thread records a compute span, a barrier-wait span and a
        // release (or watchdog) mark per step, plus its pool-job span.
        let timeline =
            spiral_trace::Timeline::with_capacity(self.threads, 3 * plan.steps.len() + 1);
        self.try_execute_observed(plan, x, &timeline)
    }

    /// Execute `plan` on `x` while streaming timestamped spans and
    /// instants (pool job, per-stage compute, barrier arrive→release,
    /// watchdog fires) into `timeline`, the event source for
    /// Chrome-trace/Perfetto export. The returned
    /// [`spiral_trace::RunProfile`] is the fold of exactly the events
    /// this run wrote: events already in `timeline` are not counted, and
    /// `timeline_dropped` counts this run's events lost to ring wrap.
    /// `timeline` needs a ring per executor thread. Concurrent observed
    /// runs on this executor may share one `timeline`: they run one
    /// after another, and each folds only its own events.
    ///
    /// Only available with the `trace` feature.
    #[cfg(feature = "trace")]
    pub fn try_execute_observed(
        &self,
        plan: &Plan,
        x: &[Cplx],
        timeline: &spiral_trace::Timeline,
    ) -> Result<(Vec<Cplx>, spiral_trace::RunProfile), SpiralError> {
        if timeline.threads() < self.threads {
            return Err(SpiralError::Plan(format!(
                "timeline records {} threads, executor runs {}",
                timeline.threads(),
                self.threads
            )));
        }
        self.check_runnable(plan, x)?;
        // Hold the run lock from the cursor to the read-back, so a
        // concurrent observed run on this executor cannot write into the
        // window between them.
        let mut ws = lock_recover(&self.ws);
        let from = timeline.cursor();
        let wall_t0 = std::time::Instant::now();
        let out = self.run_locked(
            &mut ws,
            plan,
            x,
            ExecTrace {
                timeline: Some(timeline),
                _marker: std::marker::PhantomData,
            },
        )?;
        let wall = wall_t0.elapsed();
        let (events, dropped) = timeline.events_since(&from);
        drop(ws);
        let labels: Vec<String> = plan.steps.iter().map(|s| s.label()).collect();
        let (n, mu, threads) = (plan.n, plan.mu.max(1), self.threads);
        let portion = |si: usize, tid: usize| portion_stats(&plan.steps[si], n, mu, tid, threads);
        let profile =
            spiral_trace::RunProfile::fold(n, threads, &labels, portion, wall, &events, dropped);
        Ok((out, profile))
    }

    fn exec_impl(
        &self,
        plan: &Plan,
        x: &[Cplx],
        tr: ExecTrace<'_>,
    ) -> Result<Vec<Cplx>, SpiralError> {
        self.check_runnable(plan, x)?;
        let mut ws = lock_recover(&self.ws);
        self.run_locked(&mut ws, plan, x, tr)
    }

    /// Reject a size mismatch, a plan wider than the executor, and (in
    /// debug builds) a plan that fails static verification.
    fn check_runnable(&self, plan: &Plan, x: &[Cplx]) -> Result<(), SpiralError> {
        if x.len() != plan.n {
            return Err(SpiralError::Plan(format!(
                "input length {} does not match plan size {}",
                x.len(),
                plan.n
            )));
        }
        if plan.threads > self.threads {
            return Err(SpiralError::Plan(format!(
                "plan wants {} threads, executor has {}",
                plan.threads, self.threads
            )));
        }
        // The soundness of the `unsafe` buffer sharing below is a static
        // property of the plan (see `SharedBufs`); debug builds re-check
        // it with the installed analyzer before running anything.
        #[cfg(debug_assertions)]
        if let Some(validate) = crate::plan::validator() {
            if let Err(e) = validate(plan) {
                return Err(SpiralError::Plan(format!(
                    "plan failed static verification: {e}"
                )));
            }
        }
        Ok(())
    }

    /// One run on the workspace `ws` of the held run lock.
    fn run_locked(
        &self,
        ws: &mut StageWorkspace,
        plan: &Plan,
        x: &[Cplx],
        tr: ExecTrace<'_>,
    ) -> Result<Vec<Cplx>, SpiralError> {
        let _ = &tr;
        let n = plan.n;
        ws.prepare(n, plan.steps.len())?;
        let shared = SharedBufs {
            x,
            a: ws.a.as_ptr(),
            b: ws.b.as_ptr(),
        };
        let tmps = &ws.tmp;
        // Borrow the whole struct so the closure captures one `&SharedBufs`
        // (edition-2021 disjoint capture would otherwise grab `&*mut Cplx`,
        // which is not Sync).
        let shared = &shared;
        let barrier = &*self.barrier;
        let threads = self.threads;
        let watchdog = self.watchdog;
        let tmp_dim = plan.max_local_dim().max(1);

        #[cfg(feature = "faults")]
        spiral_smp::faults::begin_run();

        // First stage-level failure (barrier timeout) observed by any
        // thread; `failed` lets the other threads drain at the next
        // stage boundary instead of waiting out their own deadline.
        let stage_err: Mutex<Option<SpiralError>> = Mutex::new(None);
        let failed = AtomicBool::new(false);

        let job = |tid: usize| {
            let mut tmp = tmps.slot(tid);
            if tmp.len() < tmp_dim {
                *tmp = AlignedVec::new(tmp_dim);
            }
            for (si, step) in plan.steps.iter().enumerate() {
                if failed.load(Ordering::Acquire) {
                    break;
                }
                // Safety: see SharedBufs — disjoint writes, barrier-ordered
                // reads.
                let (src, dst) = unsafe { shared.step(si) };
                #[cfg(feature = "faults")]
                let corrupt = match spiral_smp::faults::at(si, tid) {
                    Some(spiral_smp::faults::Fault::Panic) => {
                        panic!("injected fault: panic at stage {si}, thread {tid}")
                    }
                    Some(spiral_smp::faults::Fault::Delay(d)) => {
                        std::thread::sleep(d);
                        false
                    }
                    Some(spiral_smp::faults::Fault::CorruptNan) => true,
                    None => false,
                };
                #[cfg(feature = "trace")]
                let compute_t0 = tr.timeline.map(|_| std::time::Instant::now());
                run_step_portion(step, n, plan.mu.max(1), tid, threads, src, dst, &mut tmp);
                #[cfg(feature = "trace")]
                let compute_t1 = tr.timeline.map(|_| std::time::Instant::now());
                #[cfg(feature = "faults")]
                if corrupt {
                    inject_nan(step, n, plan.mu.max(1), tid, threads, dst);
                }
                #[cfg(feature = "trace")]
                let barrier_t0 = tr.timeline.map(|_| std::time::Instant::now());
                let waited = barrier.wait_deadline(watchdog);
                #[cfg(feature = "trace")]
                if let (Some(tl), Some(t0), Some(t1), Some(b0)) =
                    (tr.timeline, compute_t0, compute_t1, barrier_t0)
                {
                    use spiral_smp::trace::{MarkKind, SpanKind, TimelineSink};
                    // Arrival → release span: on a clean stage this is the
                    // time spent blocked waiting for slower peers.
                    let b1 = std::time::Instant::now();
                    let si = crate::u32_idx(si);
                    tl.span(tid, SpanKind::StageCompute, si, t0, t1);
                    tl.span(tid, SpanKind::BarrierWait, si, b0, b1);
                    let mark = match &waited {
                        Ok(_) => MarkKind::BarrierRelease,
                        Err(_) => MarkKind::WatchdogFire,
                    };
                    tl.mark(tid, mark, si, b1);
                }
                if let Err(e) = waited {
                    failed.store(true, Ordering::Release);
                    let mut slot = lock_recover(&stage_err);
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                    break;
                }
            }
        };
        #[cfg(feature = "trace")]
        let run_result = match tr.timeline {
            Some(tl) => self.pool.try_run_observed(&job, tl),
            None => self.pool.try_run(&job),
        };
        #[cfg(not(feature = "trace"))]
        let run_result = self.pool.try_run(&job);

        // A failed run can leave the stage barrier mid-phase (retracted
        // arrivals, stale count); restore it before anyone reuses us.
        if run_result.is_err() || failed.load(Ordering::Acquire) {
            self.barrier.reset();
        }
        run_result?;
        if let Some(e) = lock_recover(&stage_err).take() {
            return Err(e);
        }

        let result = match plan.steps.len() {
            0 => x,
            k if k % 2 == 1 => &ws.b[..n],
            _ => &ws.a[..n],
        };
        // Corruption guard: non-finite values never leave the executor.
        to_vec_if_finite(result).map_err(|index| SpiralError::NonFinite {
            index,
            context: format!("parallel execution of a {n}-point plan"),
        })
    }

    /// Execute `plan` with graceful degradation: when the pool is
    /// unhealthy, or the parallel run fails with a runtime fault (panic,
    /// watchdog expiry, corrupted output), fall back to the verified
    /// sequential interpreter and report the cause in
    /// [`ExecOutcome::degraded`]. Deterministic misuse (size mismatch,
    /// failed static verification) is returned as `Err` — retrying
    /// cannot fix it.
    pub fn execute_resilient(&self, plan: &Plan, x: &[Cplx]) -> Result<ExecOutcome, SpiralError> {
        if self.pool.healthy() {
            match self.try_execute(plan, x) {
                Ok(output) => {
                    return Ok(ExecOutcome {
                        output,
                        degraded: None,
                    })
                }
                Err(e) if e.is_runtime_fault() => return self.sequential_rescue(plan, x, e),
                Err(e) => return Err(e),
            }
        }
        self.sequential_rescue(plan, x, SpiralError::PoolUnhealthy)
    }

    fn sequential_rescue(
        &self,
        plan: &Plan,
        x: &[Cplx],
        cause: SpiralError,
    ) -> Result<ExecOutcome, SpiralError> {
        let output = catch_unwind(AssertUnwindSafe(|| plan.execute(x))).map_err(|p| {
            SpiralError::WorkerPanic {
                thread: 0,
                payload: spiral_smp::panic_payload(p),
            }
        })?;
        if let Some(index) = first_non_finite(&output) {
            return Err(SpiralError::NonFinite {
                index,
                context: format!("sequential fallback of a {}-point plan", plan.n),
            });
        }
        Ok(ExecOutcome {
            output,
            degraded: Some(cause),
        })
    }
}

/// Write one NaN into an element of `dst` that thread `tid` owns in this
/// step (fault injection: models silent corruption of the thread's
/// output portion). No-op when the thread writes nothing this step.
#[cfg(feature = "faults")]
fn inject_nan(step: &Step, n: usize, plan_mu: usize, tid: usize, threads: usize, dst: *mut Cplx) {
    let idx = match step {
        Step::Seq(_) => (tid == 0 && n > 0).then_some(0),
        Step::Par {
            chunk, programs, ..
        } => {
            // Chunk `c` runs on thread `c % threads`, so the first chunk
            // owned by `tid` is chunk `tid` itself.
            (tid < programs.len() && *chunk > 0).then(|| tid * *chunk)
        }
        Step::Exchange { mu, .. } => {
            let (lo, hi) = share(n / mu, threads, tid);
            (hi > lo).then(|| lo * mu)
        }
        Step::ScaleAll(_) => {
            let blocks = n / plan_mu;
            let (b_lo, b_hi) = share(blocks, threads, tid);
            let lo = b_lo * plan_mu;
            let hi = if tid == threads - 1 {
                n
            } else {
                b_hi * plan_mu
            };
            (hi > lo).then_some(lo)
        }
    };
    if let Some(i) = idx {
        // Safety: `i` is within thread `tid`'s disjoint write portion of
        // this step (same ownership argument as `run_step_portion`).
        unsafe { *dst.add(i) = Cplx::new(f64::NAN, f64::NAN) };
    }
}

/// Execute thread `tid`'s statically scheduled portion of one step.
#[allow(clippy::too_many_arguments)]
fn run_step_portion(
    step: &Step,
    n: usize,
    plan_mu: usize,
    tid: usize,
    threads: usize,
    src: &[Cplx],
    dst: *mut Cplx,
    tmp: &mut [Cplx],
) {
    match step {
        Step::Seq(prog) => {
            if tid == 0 {
                // Safety: only thread 0 writes during a Seq step.
                let dst = unsafe { std::slice::from_raw_parts_mut(dst, n) };
                prog.run(src, dst, tmp);
            }
        }
        Step::Par {
            chunk,
            programs,
            gather,
        } => {
            for c in (tid..programs.len()).step_by(threads) {
                // Safety: chunk ranges are disjoint across c, and each c
                // is handled by exactly one thread. Gathered reads touch
                // the whole (read-only this step) src buffer.
                let dst_chunk =
                    unsafe { std::slice::from_raw_parts_mut(dst.add(c * chunk), *chunk) };
                run_chunk(*chunk, programs, gather, c, src, dst_chunk, tmp);
            }
        }
        Step::Exchange { table, mu } => {
            let blocks = n / mu;
            let (lo, hi) = share(blocks, threads, tid);
            // Safety: [lo·µ, hi·µ) ranges are disjoint across threads.
            let out = unsafe { std::slice::from_raw_parts_mut(dst.add(lo * mu), (hi - lo) * mu) };
            for (k, o) in out.iter_mut().enumerate() {
                *o = src[table[lo * mu + k] as usize];
            }
        }
        Step::ScaleAll(w) => {
            // Split by whole cache lines, matching `Plan::run_traced` —
            // an element-granular split would let two threads write-share
            // a line. The last thread also takes the sub-line tail, if
            // n is not a multiple of µ.
            let blocks = n / plan_mu;
            let (b_lo, b_hi) = share(blocks, threads, tid);
            let lo = b_lo * plan_mu;
            let hi = if tid == threads - 1 {
                n
            } else {
                b_hi * plan_mu
            };
            if hi > lo {
                // Safety: [lo, hi) ranges are disjoint across threads.
                let out = unsafe { std::slice::from_raw_parts_mut(dst.add(lo), hi - lo) };
                for (k, o) in out.iter_mut().enumerate() {
                    *o = src[lo + k] * w[lo + k];
                }
            }
        }
    }
}

/// `(jobs, elements)` of thread `tid`'s statically scheduled portion of
/// one step — the same schedule `run_step_portion` executes. Jobs are
/// schedulable units (chunks, block ranges); elements are output
/// elements written. Deterministic, so trace profiles can cross-check
/// `spiral-verify`'s static load-balance verdicts without relying on
/// timing.
#[cfg(feature = "trace")]
fn portion_stats(step: &Step, n: usize, plan_mu: usize, tid: usize, threads: usize) -> (u64, u64) {
    match step {
        Step::Seq(_) => {
            if tid == 0 {
                (1, n as u64)
            } else {
                (0, 0)
            }
        }
        Step::Par {
            chunk, programs, ..
        } => {
            let count = (0..programs.len()).filter(|c| c % threads == tid).count() as u64;
            (count, count * *chunk as u64)
        }
        Step::Exchange { mu, .. } => {
            let (lo, hi) = share(n / mu, threads, tid);
            ((hi - lo) as u64, ((hi - lo) * mu) as u64)
        }
        Step::ScaleAll(_) => {
            let blocks = n / plan_mu;
            let (b_lo, b_hi) = share(blocks, threads, tid);
            let lo = b_lo * plan_mu;
            let hi = if tid == threads - 1 {
                n
            } else {
                b_hi * plan_mu
            };
            (u64::from(hi > lo), (hi.saturating_sub(lo)) as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use spiral_rewrite::{multicore_dft_expanded, sequential_dft};
    use spiral_spl::builder::dft;
    use spiral_spl::cplx::assert_slices_close;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|j| Cplx::new(j as f64 * 0.5, 3.0 - j as f64))
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_execution() {
        for (n, p) in [(64usize, 2usize), (256, 2), (256, 4), (1024, 4)] {
            let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
            let plan = Plan::from_formula(&f, p, 4).unwrap();
            let exec = ParallelExecutor::new(p, BarrierKind::Park);
            let x = ramp(n);
            let got = exec.execute(&plan, &x);
            assert_slices_close(&got, &plan.execute(&x), 1e-12);
            assert_slices_close(&got, &dft(n).eval(&x), 1e-8 * n as f64);
        }
    }

    #[test]
    fn spin_barrier_also_correct() {
        let (n, p) = (256usize, 2usize);
        let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&f, p, 4).unwrap();
        let exec = ParallelExecutor::new(p, BarrierKind::Spin);
        let x = ramp(n);
        assert_slices_close(&exec.execute(&plan, &x), &dft(n).eval(&x), 1e-6);
    }

    #[test]
    fn sequential_plan_on_parallel_executor() {
        // A sequential plan (Seq steps) must still run correctly with
        // multiple threads (others idle at barriers).
        let n = 64;
        let f = sequential_dft(n, 8);
        let plan = Plan::from_formula(&f, 1, 4).unwrap();
        let exec = ParallelExecutor::new(2, BarrierKind::Park);
        let x = ramp(n);
        assert_slices_close(&exec.execute(&plan, &x), &dft(n).eval(&x), 1e-7);
    }

    #[test]
    fn executor_is_reusable() {
        let exec = ParallelExecutor::new(2, BarrierKind::Park);
        for n in [64usize, 256] {
            let f = multicore_dft_expanded(n, 2, 4, None, 8).unwrap();
            let plan = Plan::from_formula(&f, 2, 4).unwrap();
            let x = ramp(n);
            for _ in 0..3 {
                assert_slices_close(&exec.execute(&plan, &x), &dft(n).eval(&x), 1e-6);
            }
        }
    }

    #[test]
    fn odd_step_count_lands_in_right_buffer() {
        // An identity plan with a single Exchange step (odd count).
        use spiral_spl::builder::*;
        let f = stride(16, 4);
        let plan = Plan::from_formula(&f, 1, 1).unwrap();
        assert_eq!(plan.steps.len() % 2, 1);
        let exec = ParallelExecutor::new(2, BarrierKind::Park);
        let x = ramp(16);
        assert_slices_close(&exec.execute(&plan, &x), &f.eval(&x), 0.0);
    }

    #[test]
    #[should_panic(expected = "plan wants")]
    fn rejects_undersized_executor() {
        let f = multicore_dft_expanded(64, 4, 2, None, 8).unwrap();
        let plan = Plan::from_formula(&f, 4, 2).unwrap();
        let exec = ParallelExecutor::new(2, BarrierKind::Park);
        exec.execute(&plan, &ramp(64));
    }

    #[test]
    fn try_execute_rejects_bad_input_as_err() {
        let f = multicore_dft_expanded(64, 2, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&f, 2, 4).unwrap();
        let exec = ParallelExecutor::new(2, BarrierKind::Park);
        // Wrong input length.
        let err = exec.try_execute(&plan, &ramp(63)).unwrap_err();
        assert!(matches!(err, SpiralError::Plan(_)));
        // Undersized executor.
        let big =
            Plan::from_formula(&multicore_dft_expanded(64, 4, 2, None, 8).unwrap(), 4, 2).unwrap();
        let err = exec.try_execute(&big, &ramp(64)).unwrap_err();
        assert!(matches!(err, SpiralError::Plan(_)));
        // Neither is a runtime fault: the resilient path must not retry.
        assert!(!err.is_runtime_fault());
    }

    fn bits(v: &[Cplx]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// The reused workspace never leaks one run into the next: sizes
    /// shrink and grow again, and every prefix of a plan (zero, odd and
    /// even step counts) lands bitwise on `Plan::execute_into`.
    #[test]
    fn reused_workspace_matches_execute_into_bitwise() {
        for p in [2usize, 4] {
            let exec = ParallelExecutor::new(p, BarrierKind::Park);
            for k in [12u32, 6, 12] {
                let n = 1usize << k;
                let mu = if p == 4 { 2 } else { 4 };
                let plan =
                    Plan::from_formula(&multicore_dft_expanded(n, p, mu, None, 8).unwrap(), p, mu)
                        .unwrap();
                let x = ramp(n);
                for plan in [plan.clone(), plan.fuse_exchanges()] {
                    for len in (0..=plan.steps.len()).rev() {
                        let prefix = Plan {
                            steps: plan.steps[..len].to_vec(),
                            ..plan.clone()
                        };
                        let mut want = vec![Cplx::ZERO; n];
                        prefix.execute_into(&x, &mut want, &mut Default::default());
                        let got = exec.try_execute(&prefix, &x).unwrap();
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "p={p} n={n} steps={len}: differs from execute_into"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn resilient_path_matches_plain_execution_when_healthy() {
        let f = multicore_dft_expanded(256, 2, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&f, 2, 4).unwrap();
        let exec = ParallelExecutor::new(2, BarrierKind::Park);
        let x = ramp(256);
        let outcome = exec.execute_resilient(&plan, &x).unwrap();
        assert!(outcome.degraded.is_none());
        assert_slices_close(&outcome.output, &plan.execute(&x), 1e-12);
    }
}
