//! CERT — the static certification sweep and its report artifact.
//!
//! Runs both `spiral-verify` certification passes (exact cyclotomic
//! equivalence against `DFT_n`, and dataflow abstract interpretation)
//! over every tuner-reachable plan shape in a size range, and packages
//! the verdicts as a schema-versioned JSON artifact
//! (`results/certify_report.json`). Unlike every other figure, nothing
//! here is measured: the sweep is a set of *proofs*, so the artifact is
//! deterministic and diff-able across commits.

use serde::{Deserialize, Serialize};
use spiral_codegen::plan::Plan;
use spiral_rewrite::{multicore_dft_expanded, sequential_dft};
use spiral_spl::builder::vec_tag;
use spiral_verify::certify::{certify_plan, CertOptions};

/// Schema version of [`CertifyReportFile`]. Bump on any shape change
/// and regenerate the golden snapshot.
///
/// * v1 — sequential/multicore/vec shapes.
/// * v2 — added the `dist(q)` sharded shapes of the multi-process tier.
/// * v3 — that tier is gone, and so are its shapes: the sweep is v1's
///   shape set again.
pub const CERTIFY_SCHEMA_VERSION: u32 = 3;

/// Verdict for one plan shape in the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CertifyRow {
    /// Transform size.
    pub n: usize,
    /// Thread count the plan targets.
    pub threads: usize,
    /// Cache-line parameter µ.
    pub mu: usize,
    /// Human-readable plan shape (split strategy, leaf size, fusion).
    pub shape: String,
    /// Whether the dataflow pass accepted the plan.
    pub dataflow_certified: bool,
    /// Whether the exact symbolic pass accepted the plan (`None` when
    /// it did not run: `n` above the limit or dataflow already failed).
    pub symbolic_certified: Option<bool>,
    /// Rendered findings, empty when certified.
    pub findings: Vec<String>,
}

/// The `certify_report.json` artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CertifyReportFile {
    /// Schema version ([`CERTIFY_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Largest `n` the symbolic pass ran at.
    pub symbolic_limit: usize,
    /// Plan shapes swept.
    pub total: usize,
    /// Shapes on which every pass that ran accepted.
    pub certified: usize,
    /// Per-shape verdicts.
    pub rows: Vec<CertifyRow>,
}

fn push(rows: &mut Vec<CertifyRow>, plan: &Plan, shape: String, opts: &CertOptions) {
    let rep = certify_plan(plan, opts);
    rows.push(CertifyRow {
        n: rep.n,
        threads: rep.threads,
        mu: rep.mu,
        shape,
        dataflow_certified: rep.dataflow_certified,
        symbolic_certified: rep.symbolic_certified,
        findings: rep.findings.iter().map(|f| f.to_string()).collect(),
    });
}

/// Certify every tuner-reachable plan shape for `n = 2^min_log2 ..
/// 2^max_log2`: sequential trees at each codelet leaf size, and — for
/// `p ∈ {2, 4}` up to `max_threads` — the formula (14) lowering at
/// `µ ∈ {1, 2}`, both with explicit exchanges and with the exchanges
/// fused into the compute steps. Every shape is additionally swept
/// under the `vec(ν)` tag at ν ∈ {2, 4}: the vector lowering must
/// prove out under the *same* exact passes as the scalar one, so a
/// vector-marked stage that drifted from `DFT_n` is a certification
/// failure, not a benchmark surprise. Tags that do not take (no stage
/// aligns at ν) are skipped — the marking is deterministic from the
/// formula, so the artifact stays diff-able across hosts.
pub fn certification_sweep(min_log2: u32, max_log2: u32, max_threads: usize) -> CertifyReportFile {
    let opts = CertOptions::default();
    let mut rows = Vec::new();
    for k in min_log2..=max_log2 {
        let n = 1usize << k;
        for leaf in [2usize, 4, 8] {
            if leaf > n {
                continue;
            }
            let f = sequential_dft(n, leaf);
            if let Ok(plan) = Plan::from_formula(&f, 1, 1) {
                push(&mut rows, &plan, format!("sequential leaf {leaf}"), &opts);
            }
            for nu in [2usize, 4] {
                let tagged = vec_tag(nu, f.clone());
                if let Ok(plan) = Plan::from_formula(&tagged, 1, 1) {
                    if plan.vec_width > 1 {
                        push(
                            &mut rows,
                            &plan,
                            format!("sequential leaf {leaf} + vec({nu})"),
                            &opts,
                        );
                    }
                }
            }
        }
        for p in [2usize, 4] {
            if p > max_threads {
                continue;
            }
            for mu in [1usize, 2] {
                let Ok(f) = multicore_dft_expanded(n, p, mu, None, 8) else {
                    continue;
                };
                let Ok(plan) = Plan::from_formula(&f, p, mu) else {
                    continue;
                };
                push(
                    &mut rows,
                    &plan,
                    "multicore default split".to_string(),
                    &opts,
                );
                push(
                    &mut rows,
                    &plan.clone().fuse_exchanges(),
                    "multicore default split, fused exchanges".to_string(),
                    &opts,
                );
                for nu in [2usize, 4] {
                    let tagged = vec_tag(nu, f.clone());
                    let Ok(plan) = Plan::from_formula(&tagged, p, mu) else {
                        continue;
                    };
                    if plan.vec_width <= 1 {
                        continue;
                    }
                    push(
                        &mut rows,
                        &plan,
                        format!("multicore default split + vec({nu})"),
                        &opts,
                    );
                    push(
                        &mut rows,
                        &plan.clone().fuse_exchanges(),
                        format!("multicore default split + vec({nu}), fused exchanges"),
                        &opts,
                    );
                }
            }
        }
    }
    let certified = rows.iter().filter(|r| r.findings.is_empty()).count();
    CertifyReportFile {
        schema: CERTIFY_SCHEMA_VERSION,
        symbolic_limit: opts.symbolic_limit,
        total: rows.len(),
        certified,
        rows,
    }
}
