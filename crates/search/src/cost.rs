//! Cost models for the search engine (the paper's evaluation level:
//! "the actual runtime is measured", plus cheaper surrogates).

use spiral_codegen::plan::Plan;
use spiral_codegen::{ParallelExecutor, SpiralError};
use spiral_rewrite::RuleTree;
use spiral_sim::{simulate_plan, MachineSpec};
use spiral_smp::panic_payload;
use spiral_spl::cplx::{first_non_finite, Cplx};
use spiral_spl::Spl;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// How candidate implementations are costed.
pub enum CostModel {
    /// Structural estimate: flops + weighted memory traffic of the
    /// compiled plan. Deterministic and fast — good for tests and as a
    /// DP pre-filter.
    Analytic,
    /// Cycle estimate from the machine simulator (deterministic).
    Sim {
        /// The machine model to simulate on.
        machine: MachineSpec,
        /// Measure a warmed-up run (true) or a cold one.
        warm: bool,
    },
    /// Wall-clock measurement on this host (minimum of `reps` runs).
    Host {
        /// Repetitions; the minimum time is kept.
        reps: usize,
        /// Executor for parallel plans (None = in-thread execution).
        executor: Option<ParallelExecutor>,
    },
}

impl CostModel {
    /// Cost of executing `plan` once (lower is better; units depend on
    /// the model — they are only compared within one model). Failed
    /// measurements (panics, watchdog expiries, non-finite results) cost
    /// `+∞`, so comparisons against healthy candidates stay valid; use
    /// [`try_cost`](Self::try_cost) when the failure reason matters.
    pub fn cost(&self, plan: &Plan) -> f64 {
        self.try_cost(plan).unwrap_or(f64::INFINITY)
    }

    /// Cost of executing `plan` once, propagating measurement failures.
    /// A candidate whose measurement panics, trips the executor
    /// watchdog, or yields a non-finite time/result returns `Err`
    /// instead of poisoning the search with a bogus number.
    pub fn try_cost(&self, plan: &Plan) -> Result<f64, SpiralError> {
        let c = match self {
            CostModel::Analytic => analytic_cost(plan),
            CostModel::Sim { machine, warm } => catch_unwind(AssertUnwindSafe(|| {
                simulate_plan(plan, machine, *warm).cycles
            }))
            .map_err(|p| SpiralError::WorkerPanic {
                thread: 0,
                payload: panic_payload(p),
            })?,
            CostModel::Host { reps, executor } => try_host_time(plan, *reps, executor.as_ref())?,
        };
        if !c.is_finite() {
            return Err(SpiralError::Search(format!(
                "cost model produced a non-finite value for a {}-point plan",
                plan.n
            )));
        }
        Ok(c)
    }

    /// Compile a sequential formula and cost it.
    pub fn cost_formula(&self, f: &Spl, threads: usize, mu: usize) -> Option<f64> {
        let plan = Plan::from_formula(f, threads, mu).ok()?;
        self.try_cost(&plan).ok()
    }

    /// Cost a sequential rule tree.
    pub fn cost_tree(&self, tree: &RuleTree, mu: usize) -> Option<f64> {
        self.cost_formula(&tree.expand().normalized(), 1, mu)
    }
}

/// Flops plus weighted memory operations; a barrier penalty discourages
/// pass-heavy plans. Flops inside vector-marked stages are credited with
/// ν-lane throughput (one vector op retires ν scalar lanes), so the
/// search sees the vec(ν) dimension even under the structural model.
fn analytic_cost(plan: &Plan) -> f64 {
    // Each step reads and writes the whole vector once.
    let mem_ops = plan.steps.len() as f64 * 2.0 * plan.n as f64;
    let nu = plan.vec_width.max(1) as f64;
    let flops = plan.flops() as f64 - plan.vec_flops() as f64 * (1.0 - 1.0 / nu);
    flops + 1.5 * mem_ops + 200.0 * plan.barriers() as f64
}

fn try_host_time(
    plan: &Plan,
    reps: usize,
    executor: Option<&ParallelExecutor>,
) -> Result<f64, SpiralError> {
    let reps = reps.max(1);
    let x: Vec<Cplx> = (0..plan.n)
        .map(|k| Cplx::new(k as f64, -(k as f64)))
        .collect();
    let mut best = f64::INFINITY;
    // Warm-up run: a candidate that panics, times out, or corrupts its
    // output fails here, before any timing is recorded.
    let _ = try_run_once(plan, &x, executor)?;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = try_run_once(plan, &x, executor)?;
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(&out);
        best = best.min(dt);
    }
    Ok(best)
}

fn try_run_once(
    plan: &Plan,
    x: &[Cplx],
    executor: Option<&ParallelExecutor>,
) -> Result<Vec<Cplx>, SpiralError> {
    match executor {
        // The executor's fallible path already isolates panics, bounds
        // barrier waits, and scans the output for non-finite values.
        Some(e) if plan.threads > 1 => e.try_execute(plan, x),
        _ => {
            let out = catch_unwind(AssertUnwindSafe(|| plan.execute(x))).map_err(|p| {
                SpiralError::WorkerPanic {
                    thread: 0,
                    payload: panic_payload(p),
                }
            })?;
            if let Some(index) = first_non_finite(&out) {
                return Err(SpiralError::NonFinite {
                    index,
                    context: format!("sequential measurement of a {}-point plan", plan.n),
                });
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_rewrite::sequential_dft;

    #[test]
    fn analytic_cost_orders_obvious_cases() {
        // A radix-2 depth-first tree has more passes than a balanced
        // large-codelet tree; the analytic model must notice the
        // difference in barriers/memory passes.
        let shallow = Plan::from_formula(&sequential_dft(64, 8), 1, 4).unwrap();
        let deep = Plan::from_formula(&sequential_dft(64, 2), 1, 4).unwrap();
        let cm = CostModel::Analytic;
        assert!(cm.cost(&shallow) < cm.cost(&deep));
    }

    #[test]
    fn sim_cost_is_deterministic() {
        let plan = Plan::from_formula(&sequential_dft(128, 8), 1, 4).unwrap();
        let cm = CostModel::Sim {
            machine: spiral_sim::core_duo(),
            warm: true,
        };
        let a = cm.cost(&plan);
        let b = cm.cost(&plan);
        assert_eq!(a, b);
        assert!(a > 0.0);
    }

    #[test]
    fn host_cost_runs() {
        let plan = Plan::from_formula(&sequential_dft(64, 8), 1, 4).unwrap();
        let cm = CostModel::Host {
            reps: 2,
            executor: None,
        };
        let c = cm.cost(&plan);
        assert!(c > 0.0 && c.is_finite());
    }

    #[test]
    fn cost_tree_compiles_and_costs() {
        let cm = CostModel::Analytic;
        let t = RuleTree::balanced(64, 8);
        assert!(cm.cost_tree(&t, 4).unwrap() > 0.0);
    }
}
