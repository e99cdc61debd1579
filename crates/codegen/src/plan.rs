//! Executable plans: the compiled form of a formula.
//!
//! A [`Plan`] is a sequence of [`Step`]s over ping-pong buffers. The
//! top-level parallel structure of a fully-optimized formula maps 1:1:
//!
//! * `I_p ⊗∥ A`  → [`Step::Par`] with `p` identical chunk programs,
//! * `⊕∥ A_i`    → [`Step::Par`] with per-chunk programs,
//! * `P ⊗̄ I_µ`   → [`Step::Exchange`] (cache-line-granular data exchange),
//! * diagonals    → [`Step::ScaleAll`],
//! * anything sequential → [`Step::Seq`].
//!
//! Between steps the executor synchronizes (one barrier per step) — the
//! only synchronization the generated programs need.

use crate::fuse::fuse;
use crate::hook::{MemHook, Region};
use crate::lower::{lower_seq, LowerError};
use crate::stage::{LocalProgram, LocalStage, SrcView};
use spiral_smp::error::lock_recover;
use spiral_spl::ast::Spl;
use spiral_spl::cplx::Cplx;
use spiral_spl::perm::Perm;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// One synchronization-delimited step of a plan.
#[derive(Clone, Debug)]
pub enum Step {
    /// Sequential program over the whole vector (runs on thread 0).
    Seq(LocalProgram),
    /// `programs.len()` independent contiguous chunks of size `chunk`;
    /// chunk `c` runs `programs[c]` (thread `c mod threads`). If
    /// `gather` is set, chunk `c`'s logical input `i` is read directly
    /// from the *global* source buffer at `gather[c·chunk + i]` — a
    /// `P ⊗̄ I_µ` exchange merged into this compute step
    /// ([`Plan::fuse_exchanges`]).
    Par {
        /// Size of each contiguous chunk.
        chunk: usize,
        /// Per-chunk programs (`len` = chunk count).
        programs: Vec<LocalProgram>,
        /// Optional fused global-gather table (size `n`).
        gather: Option<Arc<Vec<u32>>>,
    },
    /// Global permutation `dst[i] = src[table[i]]` that moves whole
    /// `mu`-element blocks (a `P ⊗̄ I_µ` — no false sharing by
    /// construction). Split across threads by blocks.
    Exchange {
        /// Gather table: `dst[i] = src[table[i]]`.
        table: Arc<Vec<u32>>,
        /// Block granularity (whole `mu`-element lines move together).
        mu: usize,
    },
    /// Global pointwise scaling (unfused diagonal).
    ScaleAll(Arc<Vec<Cplx>>),
}

impl Step {
    /// Real flops of this step for a size-`n` plan.
    pub fn flops(&self, n: usize) -> u64 {
        match self {
            Step::Seq(p) => p.flops(),
            Step::Par { programs, .. } => programs.iter().map(|p| p.flops()).sum(),
            Step::Exchange { .. } => 0,
            Step::ScaleAll(_) => 6 * n as u64,
        }
    }

    /// Short stage-IR label of this step, used by the observability
    /// layer (`spiral-trace`) to annotate per-stage profiles.
    pub fn label(&self) -> String {
        fn vec_mark(programs: &[&LocalProgram]) -> &'static str {
            let vectored = programs.iter().any(|p| {
                p.stages
                    .iter()
                    .any(|s| matches!(s, LocalStage::Kernel(k) if k.vec_width > 1))
            });
            if vectored {
                "+vec"
            } else {
                ""
            }
        }
        match self {
            Step::Seq(p) => format!("seq{}", vec_mark(&[p])),
            Step::Par {
                chunk,
                programs,
                gather,
            } => {
                let refs: Vec<&LocalProgram> = programs.iter().collect();
                let base = format!("par[{}x{}]{}", programs.len(), chunk, vec_mark(&refs));
                if gather.is_some() {
                    format!("{base}+gather")
                } else {
                    base
                }
            }
            Step::Exchange { mu, .. } => format!("exchange(mu={mu})"),
            Step::ScaleAll(_) => "scale".to_string(),
        }
    }
}

/// A compiled transform.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Transform size.
    pub n: usize,
    /// Thread count the parallel schedule targets (1 = sequential).
    pub threads: usize,
    /// Cache-line length in elements (µ) the plan was generated for.
    pub mu: usize,
    /// Lane width ν of the short-vector backend the plan's kernel stages
    /// were marked for (1 = scalar; set from the formula's `vec(ν)` tag
    /// when at least one stage passed the alignment preconditions).
    pub vec_width: usize,
    /// The synchronization-delimited steps, in execution order.
    pub steps: Vec<Step>,
}

impl Plan {
    /// Compile a formula. The formula must be fully expanded (codelet-size
    /// `DFT` leaves only). `threads` is the worker count the parallel
    /// schedule assumes; pass 1 for sequential formulas.
    pub fn from_formula(f: &Spl, threads: usize, mu: usize) -> Result<Plan, LowerError> {
        let f = f.normalized();
        let n = f.dim();
        let mut steps = Vec::new();
        if has_parallel_construct(&f) {
            push_steps(&f, &mut steps)?;
        } else {
            // Purely sequential formula: lower the whole thing into one
            // fused program so every permutation and diagonal merges into
            // a compute loop (no standalone data passes).
            let prog = fuse(lower_seq(&f)?);
            if !prog.stages.is_empty() {
                steps.push(Step::Seq(prog));
            }
        }
        let steps = merge_par_steps(steps);
        let mut plan = Plan {
            n,
            threads: threads.max(1),
            mu: mu.max(1),
            vec_width: 1,
            steps,
        };
        // Honor the widest vec(ν) tag after fusion settled the final loop
        // nests: qualifying stages switch to the ν-lane path, the rest
        // stay scalar (partial vectorization is the normal case).
        let nu = f.vec_width();
        if nu > 1 {
            let _ = crate::vectorize::vectorize_plan(&mut plan, nu);
        }
        Ok(plan)
    }

    /// Total real flops of one execution.
    pub fn flops(&self) -> u64 {
        self.steps.iter().map(|s| s.flops(self.n)).sum()
    }

    /// Flops executed inside vector-marked kernel stages (a subset of
    /// [`flops`](Self::flops)). Cost models use this to credit ν-lane
    /// throughput to exactly the stages the vectorize pass proved
    /// aligned, rather than to the whole plan.
    pub fn vec_flops(&self) -> u64 {
        fn prog(p: &LocalProgram) -> u64 {
            p.stages
                .iter()
                .filter_map(|s| match s {
                    LocalStage::Kernel(k) if k.vec_width > 1 => Some(k.flops()),
                    _ => None,
                })
                .sum()
        }
        self.steps
            .iter()
            .map(|s| match s {
                Step::Seq(p) => prog(p),
                Step::Par { programs, .. } => programs.iter().map(prog).sum(),
                Step::Exchange { .. } | Step::ScaleAll(_) => 0,
            })
            .sum()
    }

    /// Merge every `Exchange` step into the immediately following `Par`
    /// step as a direct global gather — the cross-boundary half of the
    /// paper's loop merging: `P ⊗̄ I_µ` permutations are "not performed
    /// explicitly, but folded with adjacent computation" (§3.1). Removes
    /// one barrier and one full data pass per fused exchange.
    pub fn fuse_exchanges(mut self) -> Plan {
        let mut out: Vec<Step> = Vec::with_capacity(self.steps.len());
        let mut pending: Option<Arc<Vec<u32>>> = None;
        for step in self.steps.drain(..) {
            match (pending.take(), step) {
                (None, Step::Exchange { table, mu: _ }) => pending = Some(table),
                (
                    Some(table),
                    Step::Par {
                        chunk,
                        programs,
                        gather: None,
                    },
                ) => out.push(Step::Par {
                    chunk,
                    programs,
                    gather: Some(table),
                }),
                (Some(prev), Step::Exchange { table, mu }) => {
                    // Two exchanges in a row: compose, keep pending.
                    let composed: Vec<u32> = table.iter().map(|&i| prev[i as usize]).collect();
                    pending = Some(Arc::new(composed));
                    let _ = mu;
                }
                (Some(table), other) => {
                    // Cannot fuse into this step: emit the exchange as is.
                    out.push(Step::Exchange { table, mu: self.mu });
                    out.push(other);
                }
                (None, other) => out.push(other),
            }
        }
        if let Some(table) = pending {
            out.push(Step::Exchange { table, mu: self.mu });
        }
        Plan { steps: out, ..self }
    }

    /// Number of synchronization points (barriers) per execution.
    pub fn barriers(&self) -> usize {
        self.steps.len()
    }

    /// Largest chunk dimension any thread needs as private scratch.
    pub fn max_local_dim(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Seq(p) => p.dim,
                Step::Par { chunk, .. } => *chunk,
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Reference sequential execution (single thread, same schedule).
    pub fn execute(&self, x: &[Cplx]) -> Vec<Cplx> {
        let mut out = vec![Cplx::ZERO; self.n];
        self.execute_into(x, &mut out, &mut PlanWorkspace::default());
        out
    }

    /// Reference sequential execution into a caller-owned output slice,
    /// reusing `ws` across calls. Step 0 reads `x` and the last step
    /// writes `out` directly; only the values between steps pass through
    /// the workspace, so a one-step plan touches just the chunk
    /// temporary. Re-running the same plan touches no allocator at all,
    /// which makes this the per-thread inner loop of the batch executor.
    /// Identical arithmetic to `execute` (both run this code), so outputs
    /// are bitwise equal.
    pub fn execute_into(&self, x: &[Cplx], out: &mut [Cplx], ws: &mut PlanWorkspace) {
        assert_eq!(x.len(), self.n, "input length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        let Some((first, rest)) = self.steps.split_first() else {
            out.copy_from_slice(x);
            return;
        };
        ws.prepare(self, rest.len().min(2));
        if rest.is_empty() {
            self.run_step(first, x, out, &mut ws.tmp);
        } else {
            self.run_step(first, x, &mut ws.a[..self.n], &mut ws.tmp);
            self.finish(rest, out, ws);
        }
    }

    /// Run `steps` on the value in `ws.a`, ping-ponging through `ws.b`,
    /// with the last step writing `out`.
    fn finish(&self, steps: &[Step], out: &mut [Cplx], ws: &mut PlanWorkspace) {
        let PlanWorkspace { a, b, tmp } = ws;
        let mut cur: &mut [Cplx] = &mut a[..self.n];
        let Some((last, init)) = steps.split_last() else {
            out.copy_from_slice(cur);
            return;
        };
        let mut spare: &mut [Cplx] = if init.is_empty() {
            &mut []
        } else {
            &mut b[..self.n]
        };
        for step in init {
            self.run_step(step, cur, spare, tmp);
            std::mem::swap(&mut cur, &mut spare);
        }
        self.run_step(last, cur, out, tmp);
    }

    /// Execute one step sequentially: `dst = step(src)`.
    fn run_step(&self, step: &Step, src: &[Cplx], dst: &mut [Cplx], tmp: &mut [Cplx]) {
        match step {
            Step::Seq(p) => p.run(src, dst, tmp),
            Step::Par {
                chunk,
                programs,
                gather,
            } => {
                for (c, dst) in dst.chunks_exact_mut(*chunk).enumerate() {
                    run_chunk(*chunk, programs, gather, c, src, dst, tmp);
                }
            }
            Step::Exchange { table, .. } => {
                for (d, &s) in dst.iter_mut().zip(table.iter()) {
                    *d = src[s as usize];
                }
            }
            Step::ScaleAll(w) => {
                for ((d, s), w) in dst.iter_mut().zip(src).zip(w.iter()) {
                    *d = *s * *w;
                }
            }
        }
    }

    /// Replay the parallel execution schedule into a [`MemHook`]: which
    /// thread touches which element of which buffer, in step order, with
    /// a barrier after every step. No values are computed — all access
    /// patterns are static.
    pub fn run_traced(&self, hook: &mut dyn MemHook) {
        let (mut src, mut dst) = (Region::BufA, Region::BufB);
        for step in &self.steps {
            match step {
                Step::Seq(p) => trace_local(p, 0, src, 0, dst, 0, None, hook),
                Step::Par {
                    chunk,
                    programs,
                    gather,
                } => {
                    for (c, prog) in programs.iter().enumerate() {
                        let tid = c % self.threads;
                        trace_local(
                            prog,
                            tid,
                            src,
                            c * chunk,
                            dst,
                            c * chunk,
                            gather.as_ref().map(|g| g.as_slice()),
                            hook,
                        );
                    }
                }
                Step::Exchange { table, mu } => {
                    let blocks = self.n / mu;
                    for tid in 0..self.threads {
                        let (lo, hi) = share(blocks, self.threads, tid);
                        for blk in lo..hi {
                            for e in blk * mu..(blk + 1) * mu {
                                hook.read(tid, src, table[e] as usize);
                                hook.write(tid, dst, e);
                            }
                        }
                    }
                }
                Step::ScaleAll(_) => {
                    let blocks = self.n / self.mu;
                    for tid in 0..self.threads {
                        let (lo, hi) = share(blocks, self.threads, tid);
                        for e in lo * self.mu..hi * self.mu {
                            hook.read(tid, src, e);
                            hook.write(tid, dst, e);
                        }
                        hook.flops(tid, 6 * ((hi - lo) * self.mu) as u64);
                    }
                }
            }
            hook.barrier();
            std::mem::swap(&mut src, &mut dst);
        }
    }
}

/// Reusable buffers for repeated sequential executions
/// ([`Plan::execute_into`]): the ping-pong pair that carries values
/// between steps, and the per-chunk temporary. Each grows lazily to the
/// largest plan seen and only when a plan needs it, so one workspace
/// serves any mix of plans.
#[derive(Default)]
pub struct PlanWorkspace {
    a: Vec<Cplx>,
    b: Vec<Cplx>,
    tmp: Vec<Cplx>,
}

impl PlanWorkspace {
    /// Grow the first `bufs` ping-pong buffers and the chunk temporary to
    /// fit `plan` (never shrinks).
    fn prepare(&mut self, plan: &Plan, bufs: usize) {
        for buf in [&mut self.a, &mut self.b].into_iter().take(bufs) {
            if buf.len() < plan.n {
                buf.resize(plan.n, Cplx::ZERO);
            }
        }
        let local = plan.max_local_dim();
        if self.tmp.len() < local {
            self.tmp.resize(local, Cplx::ZERO);
        }
    }
}

/// One value per logical pool thread, kept by an executor across runs
/// (the batch executor's [`PlanWorkspace`]s, the stage executor's chunk
/// temporaries). Job `tid` locks only slot `tid`, so the locks are never
/// contended; they let a shared `Fn(tid)` job borrow its own slot
/// mutably without `unsafe`.
pub(crate) struct PerThread<T>(Box<[Mutex<T>]>);

impl<T> PerThread<T> {
    pub(crate) fn new(threads: usize, init: impl FnMut() -> T) -> PerThread<T> {
        PerThread(
            std::iter::repeat_with(init)
                .map(Mutex::new)
                .take(threads)
                .collect(),
        )
    }

    /// Thread `tid`'s slot. A poisoned slot (a job panicked while
    /// holding it) is recovered: every user overwrites what it reads.
    pub(crate) fn slot(&self, tid: usize) -> MutexGuard<'_, T> {
        lock_recover(&self.0[tid])
    }
}

/// Run chunk `c` of a `Par` step into `dst` (the chunk's slice of the
/// step's output): its program reads the chunk of `src`, or the whole of
/// `src` through the fused gather table.
pub(crate) fn run_chunk(
    chunk: usize,
    programs: &[LocalProgram],
    gather: &Option<Arc<Vec<u32>>>,
    c: usize,
    src: &[Cplx],
    dst: &mut [Cplx],
    tmp: &mut [Cplx],
) {
    let s = c * chunk;
    let view = match gather {
        Some(gather) => SrcView::Gathered {
            buf: src,
            gather,
            off: s,
        },
        None => SrcView::Local(&src[s..s + chunk]),
    };
    programs[c].run_view(view, dst, &mut tmp[..chunk]);
}

/// A plan validator: `Err(description)` when `plan` violates the
/// executor's soundness contract (races, out-of-bounds accesses, or a
/// dataflow-certification failure).
pub type PlanValidator = fn(&Plan) -> Result<(), String>;

static VALIDATOR: OnceLock<PlanValidator> = OnceLock::new();

/// Install the process-wide plan validator. The parallel executor's
/// `unsafe` shared-buffer access is sound only for plans whose steps
/// write thread-disjoint, in-bounds index sets. That property is checked
/// statically by the `spiral-verify` crate, which sits *above* this one
/// in the dependency graph — so the check is wired in through this
/// registry instead of a direct call: a downstream crate installs a
/// validator once (e.g. `spiral_verify::install_executor_guard()`), and
/// debug builds of [`crate::ParallelExecutor`] then run it on every plan
/// before touching the shared buffers. The first installation wins;
/// later calls are ignored (the registry is write-once).
pub fn install_validator(v: PlanValidator) {
    let _ = VALIDATOR.set(v);
}

/// The installed validator, if any.
pub fn validator() -> Option<PlanValidator> {
    VALIDATOR.get().copied()
}

/// Contiguous share `[lo, hi)` of `total` items for thread `tid` of `p`.
pub(crate) fn share(total: usize, p: usize, tid: usize) -> (usize, usize) {
    let base = total / p;
    let rem = total % p;
    let lo = tid * base + tid.min(rem);
    let hi = lo + base + usize::from(tid < rem);
    (lo, hi)
}

#[allow(clippy::too_many_arguments)]
fn trace_local(
    prog: &LocalProgram,
    tid: usize,
    src: Region,
    src_off: usize,
    dst: Region,
    dst_off: usize,
    gather: Option<&[u32]>,
    hook: &mut dyn MemHook,
) {
    // With a fused gather, the first stage reads the *global* source
    // buffer at gather[src_off + local_idx]; without, it reads its own
    // chunk at src_off + local_idx.
    let src_read = |idx: usize| -> usize {
        match gather {
            Some(g) => g[src_off + idx] as usize,
            None => src_off + idx,
        }
    };
    let l = prog.stages.len();
    if l == 0 {
        for i in 0..prog.dim {
            hook.read(tid, src, src_read(i));
            hook.write(tid, dst, dst_off + i);
        }
        return;
    }
    let tmp = Region::Tmp(tid);
    for (k, stage) in prog.stages.iter().enumerate() {
        let to_dst = (l - 1 - k).is_multiple_of(2);
        let first = k == 0;
        let (in_r, in_off) = if first {
            (src, 0) // offset applied via src_read
        } else if to_dst {
            (tmp, 0)
        } else {
            (dst, dst_off)
        };
        let (out_r, out_off) = if to_dst { (dst, dst_off) } else { (tmp, 0) };
        stage.trace(prog.dim, |is_write, idx| {
            if is_write {
                hook.write(tid, out_r, out_off + idx);
            } else if first {
                hook.read(tid, in_r, src_read(idx));
            } else {
                hook.read(tid, in_r, in_off + idx);
            }
        });
        hook.flops(tid, stage.flops(prog.dim));
    }
}

/// Merge adjacent `Par` steps with identical chunking: their chunk
/// programs concatenate and re-fuse, removing a barrier and (after
/// fusion) whole data passes. This is the step-level face of the paper's
/// loop merging — e.g. in formula (14) the local stride permutation
/// `I_p ⊗∥ L` and the twiddle `⊕∥ D_i` merge into the adjacent compute
/// stages.
fn merge_par_steps(steps: Vec<Step>) -> Vec<Step> {
    let mut out: Vec<Step> = Vec::new();
    for s in steps {
        let merged = match (out.last_mut(), &s) {
            (
                Some(Step::Par {
                    chunk: c1,
                    programs: p1,
                    gather: _,
                }),
                Step::Par {
                    chunk: c2,
                    programs: p2,
                    gather: None,
                },
            ) if *c1 == *c2 && p1.len() == p2.len() => {
                for (a, b) in p1.iter_mut().zip(p2) {
                    let mut combined = a.clone();
                    combined.stages.extend(b.stages.iter().cloned());
                    *a = fuse(combined);
                }
                true
            }
            _ => false,
        };
        if !merged {
            out.push(s);
        }
    }
    out
}

fn has_parallel_construct(f: &Spl) -> bool {
    matches!(
        f,
        Spl::TensorPar { .. } | Spl::DirectSumPar(_) | Spl::PermBar { .. }
    ) || f.children().iter().any(|c| has_parallel_construct(c))
}

fn push_steps(f: &Spl, steps: &mut Vec<Step>) -> Result<(), LowerError> {
    match f {
        Spl::Compose(fs) => {
            for factor in fs.iter().rev() {
                push_steps(factor, steps)?;
            }
            Ok(())
        }
        Spl::I(_) => Ok(()),
        Spl::TensorPar { p, a } => {
            let prog = fuse(lower_seq(a)?);
            steps.push(Step::Par {
                chunk: a.dim(),
                programs: vec![prog; *p],
                gather: None,
            });
            Ok(())
        }
        Spl::DirectSumPar(blocks) => {
            let d0 = blocks[0].dim();
            if blocks.iter().any(|b| b.dim() != d0) {
                return Err(LowerError(
                    "parallel direct sum with unequal blocks".to_string(),
                ));
            }
            let programs: Result<Vec<_>, _> =
                blocks.iter().map(|b| lower_seq(b).map(fuse)).collect();
            steps.push(Step::Par {
                chunk: d0,
                programs: programs?,
                gather: None,
            });
            Ok(())
        }
        Spl::PermBar { perm, mu } => {
            let full = Perm::TensorId(Box::new(perm.clone()), *mu);
            let table: Vec<u32> = full.table().iter().map(|&v| crate::u32_idx(v)).collect();
            steps.push(Step::Exchange {
                table: Arc::new(table),
                mu: *mu,
            });
            Ok(())
        }
        Spl::Perm(p) => {
            let table: Vec<u32> = p.table().iter().map(|&v| crate::u32_idx(v)).collect();
            steps.push(Step::Exchange {
                table: Arc::new(table),
                mu: 1,
            });
            Ok(())
        }
        Spl::Diag(d) => {
            steps.push(Step::ScaleAll(Arc::new(d.entries())));
            Ok(())
        }
        Spl::Vec { a, .. } => push_steps(a, steps),
        other => {
            let prog = fuse(lower_seq(other)?);
            if !prog.stages.is_empty() {
                steps.push(Step::Seq(prog));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::CountingHook;
    use spiral_rewrite::{multicore_dft_expanded, sequential_dft};
    use spiral_spl::builder::dft;
    use spiral_spl::cplx::assert_slices_close;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|j| Cplx::new(1.0 + j as f64, -0.5 * j as f64))
            .collect()
    }

    #[test]
    fn sequential_plan_computes_dft() {
        for n in [8usize, 16, 32, 64, 128, 24, 48] {
            let f = sequential_dft(n, 8);
            let plan = Plan::from_formula(&f, 1, 4).unwrap();
            let x = ramp(n);
            assert_slices_close(&plan.execute(&x), &dft(n).eval(&x), 1e-8 * n as f64);
        }
    }

    #[test]
    fn parallel_plan_computes_dft() {
        for (n, p) in [(64usize, 2usize), (1024, 4), (256, 2), (256, 4), (1024, 2)] {
            let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
            let plan = Plan::from_formula(&f, p, 4).unwrap();
            let x = ramp(n);
            assert_slices_close(&plan.execute(&x), &dft(n).eval(&x), 1e-8 * n as f64);
        }
    }

    #[test]
    fn parallel_plan_structure_matches_formula_14() {
        // 7 factors of (14): 3 `P ⊗̄ I_µ` exchanges stay explicit; the
        // 4 parallel factors (2 compute, twiddle, local stride perm)
        // merge into 2 fused parallel compute steps.
        let f = multicore_dft_expanded(64, 2, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&f, 2, 4).unwrap();
        let pars = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Par { .. }))
            .count();
        let exch = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Exchange { .. }))
            .count();
        assert_eq!(exch, 3, "three P ⊗̄ I_µ exchanges");
        assert_eq!(pars, 2, "parallel factors merged into two compute steps");
        assert_eq!(plan.steps.len(), 5);
        assert!(
            plan.steps.iter().all(|s| !matches!(s, Step::Seq(_))),
            "no sequential step in a fully optimized plan"
        );
    }

    #[test]
    fn exchanges_are_line_granular() {
        let mu = 4;
        let f = multicore_dft_expanded(256, 2, mu, None, 8).unwrap();
        let plan = Plan::from_formula(&f, 2, mu).unwrap();
        for step in &plan.steps {
            if let Step::Exchange { table, mu: m } = step {
                assert_eq!(*m, mu);
                // Whole lines move together.
                for blk in 0..table.len() / mu {
                    let base = table[blk * mu];
                    assert_eq!(base as usize % mu, 0);
                    for t in 1..mu {
                        assert_eq!(table[blk * mu + t], base + crate::u32_idx(t));
                    }
                }
            }
        }
    }

    #[test]
    fn flops_match_formula_accounting() {
        let f = sequential_dft(64, 8);
        let plan = Plan::from_formula(&f, 1, 4).unwrap();
        assert!(plan.flops() > 0);
        // 5 n log n is the nominal FFT cost; generated code with fused
        // twiddles stays within a small factor.
        let nominal = 5.0 * 64.0 * 6.0;
        let actual = plan.flops() as f64;
        assert!(
            actual < 4.0 * nominal,
            "flops {actual} vs nominal {nominal}"
        );
    }

    #[test]
    fn traced_execution_covers_all_data_and_barriers() {
        let p = 2;
        let n = 64;
        let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&f, p, 4).unwrap();
        let mut hook = CountingHook::default();
        plan.run_traced(&mut hook);
        assert_eq!(usize::try_from(hook.barriers).unwrap(), plan.steps.len());
        assert!(hook.reads >= n as u64 * plan.steps.len() as u64 / 2);
        assert_eq!(hook.flops, plan.flops());
        // Work split evenly between both threads.
        let w0 = hook.per_tid_flops.get(&0).copied().unwrap_or(0);
        let w1 = hook.per_tid_flops.get(&1).copied().unwrap_or(0);
        assert_eq!(w0, w1, "unbalanced trace: {w0} vs {w1}");
    }

    #[test]
    fn fuse_exchanges_preserves_semantics() {
        for (n, p) in [(64usize, 2usize), (256, 2), (256, 4), (1024, 2)] {
            let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
            let plan = Plan::from_formula(&f, p, 4).unwrap();
            let fused = plan.clone().fuse_exchanges();
            let x = ramp(n);
            assert_slices_close(&fused.execute(&x), &plan.execute(&x), 1e-12);
        }
    }

    #[test]
    fn fuse_exchanges_removes_barriers() {
        // Formula (14): [Exch, Par, Exch, Par, Exch] → [Par+g, Par+g, Exch]
        let f = multicore_dft_expanded(256, 2, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&f, 2, 4).unwrap();
        assert_eq!(plan.steps.len(), 5);
        let fused = plan.fuse_exchanges();
        assert_eq!(
            fused.steps.len(),
            3,
            "expected 2 fused Par + trailing Exchange"
        );
        let gathered = fused
            .steps
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Step::Par {
                        gather: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(gathered, 2);
        assert!(matches!(fused.steps.last(), Some(Step::Exchange { .. })));
    }

    #[test]
    fn fused_trace_covers_everything() {
        let f = multicore_dft_expanded(256, 2, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&f, 2, 4).unwrap().fuse_exchanges();
        let mut hook = CountingHook::default();
        plan.run_traced(&mut hook);
        assert_eq!(usize::try_from(hook.barriers).unwrap(), plan.steps.len());
        assert_eq!(hook.flops, plan.flops());
        let w0 = hook.per_tid_flops.get(&0).copied().unwrap_or(0);
        let w1 = hook.per_tid_flops.get(&1).copied().unwrap_or(0);
        assert_eq!(w0, w1);
    }

    #[test]
    fn share_splits_exactly() {
        for total in [0usize, 1, 7, 64, 100] {
            for p in [1usize, 2, 3, 4] {
                let mut covered = 0;
                let mut prev_hi = 0;
                for tid in 0..p {
                    let (lo, hi) = share(total, p, tid);
                    assert_eq!(lo, prev_hi);
                    prev_hi = hi;
                    covered += hi - lo;
                }
                assert_eq!(covered, total);
                assert_eq!(prev_hi, total);
            }
        }
    }

    #[test]
    fn empty_and_identity_formulas() {
        let plan = Plan::from_formula(&spiral_spl::builder::i(8), 1, 4).unwrap();
        let x = ramp(8);
        assert_slices_close(&plan.execute(&x), &x, 0.0);
        assert_eq!(plan.barriers(), 0);
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn execute_checks_input_length() {
        let f = sequential_dft(16, 4);
        let plan = Plan::from_formula(&f, 1, 4).unwrap();
        plan.execute(&ramp(8));
    }
}
