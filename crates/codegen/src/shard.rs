//! Shard geometry for the `dist(q)` multi-process backend.
//!
//! A fused plan for the paper's formula (14) looks like
//! `[Par+gather, Par+gather, Exchange]`: the first compute step works on
//! independent contiguous chunks whose only cross-chunk data motion is
//! the fused gather table. That makes a *prefix* of the plan shardable
//! across `q` worker processes: worker `s` owns the contiguous partition
//! `[s·n/q, (s+1)·n/q)` of the ping-pong buffers, the manager applies
//! the step-0 gather while scattering the input into the workers' slabs
//! (so each worker reads purely locally), and after the prefix the
//! manager gathers the partitions back and finishes the remaining steps
//! in process ([`Plan::execute_tail_into`]).
//!
//! Because workers run the *same* chunk programs over the *same* values
//! in the same order as [`Plan::execute_into`] would, the distributed
//! result is bitwise equal to the single-process result by construction
//! — the property the dist proptests assert.

use crate::plan::{Plan, Step};
use crate::stage::SrcView;
use spiral_spl::cplx::Cplx;

/// One worker's contiguous partition of the sharded prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardRegion {
    /// Element offset of the partition in the global buffers.
    pub offset: usize,
    /// Partition length in elements (`n / q`).
    pub len: usize,
}

/// The geometry of a `dist(q)` execution of a plan: which prefix of the
/// steps runs on workers, and which partition each worker owns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Worker process count.
    pub q: usize,
    /// Number of leading steps executed on workers (`steps[..shard_steps]`).
    /// The manager runs `steps[shard_steps..]`.
    pub shard_steps: usize,
    /// Per-worker partitions, in worker order; `q` entries covering
    /// `[0, n)` contiguously.
    pub regions: Vec<ShardRegion>,
}

impl ShardSpec {
    /// Flops executed inside the sharded prefix of `plan` (the work the
    /// manager offloads; the cost model splits this across `q`).
    pub fn prefix_flops(&self, plan: &Plan) -> u64 {
        plan.steps[..self.shard_steps]
            .iter()
            .map(|s| s.flops(plan.n))
            .sum()
    }
}

/// Why a plan cannot be sharded across `q` processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// `q` must be a power of two ≥ 2 dividing the transform size.
    BadProcs {
        /// The requested process count.
        q: usize,
        /// The transform size.
        n: usize,
    },
    /// The plan has no steps (identity plan).
    Empty,
    /// The first step is not a `Par` step, so there is no chunk grid to
    /// partition (unfused plans start with an `Exchange`).
    LeadingStepNotPar(String),
    /// A prefix `Par` step's chunk count is not divisible by `q`, so the
    /// equal partition would split a chunk across two processes.
    ChunksNotDivisible {
        /// Chunk count of the offending step.
        chunks: usize,
        /// The requested process count.
        q: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::BadProcs { q, n } => {
                write!(f, "dist({q}) needs a power-of-two q ≥ 2 dividing n={n}")
            }
            ShardError::Empty => write!(f, "empty plan has nothing to shard"),
            ShardError::LeadingStepNotPar(s) => {
                write!(f, "leading step `{s}` is not a parallel chunk step")
            }
            ShardError::ChunksNotDivisible { chunks, q } => {
                write!(f, "{chunks} chunks do not split across {q} processes")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Compute the `dist(q)` shard geometry of a (fused) plan.
///
/// The shardable prefix is the maximal run of leading [`Step::Par`]
/// steps in which every step's chunk count is divisible by `q` and only
/// step 0 carries a fused gather: a step-0 gather is applied by the
/// manager at scatter time, but a later gather reads the *global*
/// intermediate buffer, which mid-prefix lives split across process
/// boundaries — so it ends the prefix instead.
pub fn shard_plan(plan: &Plan, q: usize) -> Result<ShardSpec, ShardError> {
    if q < 2 || !q.is_power_of_two() || !plan.n.is_multiple_of(q) {
        return Err(ShardError::BadProcs { q, n: plan.n });
    }
    let Some(first) = plan.steps.first() else {
        return Err(ShardError::Empty);
    };
    let Step::Par { programs, .. } = first else {
        return Err(ShardError::LeadingStepNotPar(first.label()));
    };
    if !programs.len().is_multiple_of(q) {
        return Err(ShardError::ChunksNotDivisible {
            chunks: programs.len(),
            q,
        });
    }
    let mut shard_steps = 1;
    for step in &plan.steps[1..] {
        match step {
            Step::Par {
                programs,
                gather: None,
                ..
            } if programs.len().is_multiple_of(q) => shard_steps += 1,
            _ => break,
        }
    }
    let len = plan.n / q;
    let regions = (0..q)
        .map(|s| ShardRegion {
            offset: s * len,
            len,
        })
        .collect();
    Ok(ShardSpec {
        q,
        shard_steps,
        regions,
    })
}

/// Fill worker `s`'s input slab from the global input, applying step 0's
/// fused gather (if any) so the worker's prefix reads purely locally.
/// `slab.len()` must equal the shard's region length.
pub fn scatter_shard(plan: &Plan, spec: &ShardSpec, s: usize, x: &[Cplx], slab: &mut [Cplx]) {
    let r = &spec.regions[s];
    assert_eq!(x.len(), plan.n, "scatter input length mismatch");
    assert_eq!(slab.len(), r.len, "scatter slab length mismatch");
    let Some(Step::Par { gather, .. }) = plan.steps.first() else {
        panic!("scatter_shard on a plan with no leading Par step");
    };
    match gather {
        Some(g) => {
            for (i, slot) in slab.iter_mut().enumerate() {
                *slot = x[g[r.offset + i] as usize];
            }
        }
        None => slab.copy_from_slice(&x[r.offset..r.offset + r.len]),
    }
}

/// Reusable ping-pong buffers for [`execute_shard_into`], sized lazily
/// to the largest shard seen (the per-process analogue of
/// [`crate::plan::PlanWorkspace`]).
#[derive(Default)]
pub struct ShardWorkspace {
    a: Vec<Cplx>,
    b: Vec<Cplx>,
    tmp: Vec<Cplx>,
}

impl ShardWorkspace {
    fn prepare(&mut self, plan: &Plan, len: usize) {
        if self.a.len() < len {
            self.a.resize(len, Cplx::ZERO);
            self.b.resize(len, Cplx::ZERO);
        }
        let local = plan.max_local_dim().max(1);
        if self.tmp.len() < local {
            self.tmp.resize(local, Cplx::ZERO);
        }
    }
}

/// Run the sharded prefix for shard `s`: `input` is the scattered local
/// slab ([`scatter_shard`] — gather already applied), `output` receives
/// the shard's partition of the prefix result. This is exactly the
/// chunk-program arithmetic of [`Plan::execute_into`] restricted to one
/// partition, so dist results are bitwise equal to single-process
/// results by construction. Shared by the worker binary and the
/// manager's single-process rescue path — a rescued batch reruns the
/// *same* code a healthy worker would have.
pub fn execute_shard_into(
    plan: &Plan,
    spec: &ShardSpec,
    s: usize,
    input: &[Cplx],
    output: &mut [Cplx],
    ws: &mut ShardWorkspace,
) {
    let r = &spec.regions[s];
    assert_eq!(input.len(), r.len, "shard input length mismatch");
    assert_eq!(output.len(), r.len, "shard output length mismatch");
    ws.prepare(plan, r.len);
    let mut a: &mut [Cplx] = &mut ws.a[..r.len];
    let mut b: &mut [Cplx] = &mut ws.b[..r.len];
    let tmp = &mut ws.tmp;
    a.copy_from_slice(input);
    for step in &plan.steps[..spec.shard_steps] {
        let Step::Par {
            chunk, programs, ..
        } = step
        else {
            unreachable!("shard prefix contains only Par steps");
        };
        // The shard's chunk range at this step's chunk grid. Region
        // bounds are chunk-aligned because the chunk count divides by q.
        let (lo, hi) = (r.offset / chunk, (r.offset + r.len) / chunk);
        for (k, prog) in programs[lo..hi].iter().enumerate() {
            let local = (lo + k) * chunk - r.offset;
            let view = SrcView::Local(&a[local..local + chunk]);
            prog.run_view(view, &mut b[local..local + chunk], &mut tmp[..*chunk]);
        }
        std::mem::swap(&mut a, &mut b);
    }
    output.copy_from_slice(a);
}

/// Single-process emulation of the full dist schedule — scatter, shard
/// prefix per worker, gather, manager tail — used as the equality-test
/// reference and to sanity-check shard geometry without spawning
/// processes. Allocates per call; the process fleet is the fast path.
pub fn execute_dist_reference(plan: &Plan, spec: &ShardSpec, x: &[Cplx]) -> Vec<Cplx> {
    let mut ws = crate::plan::PlanWorkspace::default();
    let mut sws = ShardWorkspace::default();
    let stage = ws.stage_buffer(plan);
    for (s, r) in spec.regions.iter().enumerate() {
        let mut slab = vec![Cplx::ZERO; r.len];
        scatter_shard(plan, spec, s, x, &mut slab);
        let mut out = vec![Cplx::ZERO; r.len];
        execute_shard_into(plan, spec, s, &slab, &mut out, &mut sws);
        stage[r.offset..r.offset + r.len].copy_from_slice(&out);
    }
    let mut out = vec![Cplx::ZERO; plan.n];
    plan.execute_tail_into(spec.shard_steps, &mut out, &mut ws);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_rewrite::multicore_dft_expanded;
    use spiral_spl::builder::dft;
    use spiral_spl::cplx::assert_slices_close;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|j| Cplx::new(1.0 + j as f64, -0.5 * j as f64))
            .collect()
    }

    fn fused_plan(n: usize, p: usize) -> Plan {
        let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
        Plan::from_formula(&f, p, 4).unwrap().fuse_exchanges()
    }

    #[test]
    fn fused_formula_14_shards_one_step() {
        // [Par+g, Par+g, Exch]: the second Par carries a gather, so only
        // the first step shards.
        let plan = fused_plan(256, 4);
        let spec = shard_plan(&plan, 2).unwrap();
        assert_eq!(spec.shard_steps, 1);
        assert_eq!(spec.regions.len(), 2);
        assert_eq!(
            spec.regions[0],
            ShardRegion {
                offset: 0,
                len: 128
            }
        );
        assert_eq!(
            spec.regions[1],
            ShardRegion {
                offset: 128,
                len: 128
            }
        );
        assert!(spec.prefix_flops(&plan) > 0);
    }

    #[test]
    fn unfused_plan_is_not_shardable() {
        let f = multicore_dft_expanded(256, 4, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&f, 4, 4).unwrap();
        assert!(matches!(
            shard_plan(&plan, 2),
            Err(ShardError::LeadingStepNotPar(_))
        ));
    }

    #[test]
    fn rejects_bad_process_counts() {
        let plan = fused_plan(256, 4);
        for q in [0usize, 1, 3, 512] {
            assert!(matches!(
                shard_plan(&plan, q),
                Err(ShardError::BadProcs { .. } | ShardError::ChunksNotDivisible { .. })
            ));
        }
        // q = 8 > 4 chunks: cannot split 4 chunks 8 ways.
        assert_eq!(
            shard_plan(&plan, 8),
            Err(ShardError::ChunksNotDivisible { chunks: 4, q: 8 })
        );
    }

    #[test]
    fn dist_reference_is_bitwise_equal_to_single_process() {
        for (n, p, q) in [
            (64usize, 2usize, 2usize),
            (256, 4, 2),
            (256, 4, 4),
            (1024, 4, 4),
        ] {
            let plan = fused_plan(n, p);
            let spec = shard_plan(&plan, q).unwrap();
            let x = ramp(n);
            let single = plan.execute(&x);
            let dist = execute_dist_reference(&plan, &spec, &x);
            assert_eq!(
                single.len(),
                dist.len(),
                "length mismatch n={n} p={p} q={q}"
            );
            for (i, (a, b)) in single.iter().zip(&dist).enumerate() {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "bitwise mismatch at {i}: {a:?} vs {b:?} (n={n} p={p} q={q})"
                );
            }
        }
    }

    #[test]
    fn dist_reference_computes_dft() {
        let n = 256;
        let plan = fused_plan(n, 4);
        let spec = shard_plan(&plan, 4).unwrap();
        let x = ramp(n);
        let y = execute_dist_reference(&plan, &spec, &x);
        assert_slices_close(&y, &dft(n).eval(&x), 1e-8 * n as f64);
    }
}
