//! Structural verification of the paper's Definition 1.
//!
//! A formula is *load-balanced* / *avoids false sharing* if it is built
//! from the tagged parallel operators (4) — `I_p ⊗∥ A`, `⊕∥ A_i` with
//! equal-size blocks of dimension divisible by µ, `P ⊗̄ I_µ` — closed
//! under products and `I_m ⊗ ·` (5). A formula is *fully optimized* if it
//! is both. This module implements that definition as a checker, plus a
//! quantitative per-processor work accounting used by the load-balance
//! tests and the search engine's cost model.

use spiral_spl::ast::Spl;
use spiral_spl::num::is_pow2;

/// Why a formula fails Definition 1.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// An `smp(p,µ)` tag remains — rewriting did not finish.
    TagRemains(String),
    /// A subformula does computation outside any parallel construct.
    NotParallel(String),
    /// A parallel construct is for the wrong number of processors.
    WrongWidth {
        /// The width found in the formula.
        found: usize,
        /// The expected width (p or µ).
        want: usize,
        /// The offending subformula.
        at: String,
    },
    /// A parallel block's dimension is not a multiple of µ, so a cache
    /// line could span two processors' data (false sharing).
    Misaligned {
        /// The block dimension.
        dim: usize,
        /// The cache-line length it must divide into.
        mu: usize,
        /// The offending subformula.
        at: String,
    },
    /// A parallel direct sum has blocks of unequal size (unequal work).
    UnequalBlocks(String),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::TagRemains(s) => write!(f, "smp tag remains at {s}"),
            Violation::NotParallel(s) => write!(f, "sequential computation at {s}"),
            Violation::WrongWidth { found, want, at } => {
                write!(f, "parallel width {found}, expected {want}, at {at}")
            }
            Violation::Misaligned { dim, mu, at } => {
                write!(f, "block dim {dim} not a multiple of µ={mu} at {at}")
            }
            Violation::UnequalBlocks(s) => write!(f, "unequal parallel blocks at {s}"),
        }
    }
}

/// Check that `f` is *fully optimized* for `p` processors and cache-line
/// length `µ` in the sense of Definition 1.
pub fn check_fully_optimized(f: &Spl, p: usize, mu: usize) -> Result<(), Violation> {
    match f {
        Spl::Smp { .. } => Err(Violation::TagRemains(f.to_string())),
        // vec(ν) is a backend hint, not an unfinished-rewriting tag: it is
        // transparent to the shared-memory structure underneath.
        Spl::Vec { a, .. } => check_fully_optimized(a, p, mu),
        Spl::Compose(fs) => fs.iter().try_for_each(|x| check_fully_optimized(x, p, mu)),
        // Definition 1 (5): I_m ⊗ A with A fully optimized.
        Spl::Tensor(l, r) if matches!(**l, Spl::I(_)) => check_fully_optimized(r, p, mu),
        Spl::TensorPar { p: pp, a } => {
            if *pp != p {
                return Err(Violation::WrongWidth {
                    found: *pp,
                    want: p,
                    at: f.to_string(),
                });
            }
            if a.dim() % mu != 0 {
                return Err(Violation::Misaligned {
                    dim: a.dim(),
                    mu,
                    at: f.to_string(),
                });
            }
            Ok(())
        }
        Spl::DirectSumPar(blocks) => {
            if blocks.len() != p {
                return Err(Violation::WrongWidth {
                    found: blocks.len(),
                    want: p,
                    at: f.to_string(),
                });
            }
            let d0 = blocks[0].dim();
            if blocks.iter().any(|b| b.dim() != d0) {
                return Err(Violation::UnequalBlocks(f.to_string()));
            }
            if d0 % mu != 0 {
                return Err(Violation::Misaligned {
                    dim: d0,
                    mu,
                    at: f.to_string(),
                });
            }
            Ok(())
        }
        Spl::PermBar { mu: m, .. } => {
            if *m == mu {
                Ok(())
            } else {
                Err(Violation::WrongWidth {
                    found: *m,
                    want: mu,
                    at: f.to_string(),
                })
            }
        }
        // Identities do no computation and touch no memory exclusively.
        Spl::I(_) => Ok(()),
        other => Err(Violation::NotParallel(other.to_string())),
    }
}

/// Estimated floating-point operations to apply `f` (real flops; a complex
/// add is 2, a complex multiply 6). Codelet leaves (`DFT_n`) are costed at
/// `5 n log2 n` when `n` is a power of two (the FFT cost the pseudo-Mflop/s
/// metric normalizes by), and `8 n²` otherwise (naive fallback).
pub fn flops(f: &Spl) -> f64 {
    match f {
        Spl::I(_) | Spl::Perm(_) | Spl::PermBar { .. } => 0.0,
        Spl::F2 => 4.0,
        Spl::Dft(n) => {
            let n = *n;
            if n == 1 {
                0.0
            } else if is_pow2(n) {
                5.0 * n as f64 * (n as f64).log2()
            } else {
                8.0 * (n * n) as f64
            }
        }
        Spl::Diag(d) => 6.0 * d.len() as f64,
        Spl::Compose(fs) => fs.iter().map(flops).sum(),
        Spl::Tensor(a, b) => a.dim() as f64 * flops(b) + b.dim() as f64 * flops(a),
        Spl::DirectSum(fs) | Spl::DirectSumPar(fs) => fs.iter().map(flops).sum(),
        Spl::TensorPar { p, a } => *p as f64 * flops(a),
        Spl::Smp { a, .. } | Spl::Vec { a, .. } => flops(a),
    }
}

/// Per-processor work assignment implied by the parallel structure.
/// Sequential computation is charged to processor 0 (worst case), which
/// makes imbalance visible.
pub fn per_processor_flops(f: &Spl, p: usize) -> Vec<f64> {
    let mut acc = vec![0.0; p];
    accumulate(f, p, 1.0, &mut acc);
    acc
}

fn accumulate(f: &Spl, p: usize, mult: f64, acc: &mut [f64]) {
    match f {
        Spl::Compose(fs) => {
            for x in fs {
                accumulate(x, p, mult, acc);
            }
        }
        Spl::TensorPar { p: pp, a } => {
            let w = mult * flops(a);
            for (i, slot) in acc.iter_mut().enumerate().take(*pp) {
                if i < p {
                    *slot += w;
                }
            }
        }
        Spl::DirectSumPar(blocks) => {
            for (i, b) in blocks.iter().enumerate() {
                if i < p {
                    acc[i] += mult * flops(b);
                }
            }
        }
        Spl::Tensor(l, r) if matches!(**l, Spl::I(_)) => {
            let m = l.dim() as f64;
            accumulate(r, p, mult * m, acc);
        }
        Spl::I(_) | Spl::Perm(_) | Spl::PermBar { .. } => {}
        Spl::Smp { a, .. } | Spl::Vec { a, .. } => {
            accumulate(a, p, mult, acc);
        }
        other => acc[0] += mult * flops(other),
    }
}

/// Load-balance ratio `max / mean` of the per-processor work (1.0 is
/// perfect). Returns `f64::INFINITY` if some processor does all the work
/// while others idle entirely with nonzero total.
pub fn load_balance_ratio(f: &Spl, p: usize) -> f64 {
    let w = per_processor_flops(f, p);
    let total: f64 = w.iter().sum();
    if total == 0.0 {
        return 1.0;
    }
    let mean = total / p as f64;
    w.iter().cloned().fold(0.0, f64::max) / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_spl::builder::*;
    use spiral_spl::perm::Perm;

    #[test]
    fn accepts_parallel_forms() {
        let p = 2;
        let mu = 4;
        assert!(check_fully_optimized(&tensor_par(2, dft(8)), p, mu).is_ok());
        assert!(check_fully_optimized(&dsum_par(vec![dft(8), dft(8)]), p, mu).is_ok());
        assert!(check_fully_optimized(&perm_bar(Perm::stride(4, 2), 4), p, mu).is_ok());
        // Products and I_m ⊗ (…) of those.
        let f = compose(vec![
            tensor(i(4), tensor_par(2, dft(8))),
            perm_bar(Perm::stride(16, 2), 4),
        ]);
        assert!(check_fully_optimized(&f, p, mu).is_ok());
    }

    #[test]
    fn rejects_sequential_compute() {
        assert!(matches!(
            check_fully_optimized(&dft(8), 2, 4),
            Err(Violation::NotParallel(_))
        ));
        assert!(matches!(
            check_fully_optimized(&tensor(dft(2), i(4)), 2, 4),
            Err(Violation::NotParallel(_))
        ));
    }

    #[test]
    fn rejects_wrong_width_and_misalignment() {
        assert!(matches!(
            check_fully_optimized(&tensor_par(4, dft(8)), 2, 4),
            Err(Violation::WrongWidth {
                found: 4,
                want: 2,
                ..
            })
        ));
        // Block of dim 6 with µ=4: cache line would straddle processors.
        assert!(matches!(
            check_fully_optimized(&tensor_par(2, dft(6)), 2, 4),
            Err(Violation::Misaligned { dim: 6, mu: 4, .. })
        ));
        assert!(matches!(
            check_fully_optimized(&perm_bar(Perm::stride(4, 2), 2), 2, 4),
            Err(Violation::WrongWidth { .. })
        ));
    }

    #[test]
    fn rejects_unequal_blocks_and_tags() {
        assert!(matches!(
            check_fully_optimized(&dsum_par(vec![dft(4), dft(8)]), 2, 4),
            Err(Violation::UnequalBlocks(_))
        ));
        assert!(matches!(
            check_fully_optimized(&smp(2, 4, dft(8)), 2, 4),
            Err(Violation::TagRemains(_))
        ));
    }

    #[test]
    fn flop_model_basics() {
        assert_eq!(flops(&f2()), 4.0);
        assert_eq!(flops(&i(64)), 0.0);
        assert_eq!(flops(&stride(8, 2)), 0.0);
        // DFT_8 codelet: 5·8·3 = 120
        assert_eq!(flops(&dft(8)), 120.0);
        // I_4 ⊗ DFT_8: 4 copies
        assert_eq!(flops(&tensor(i(4), dft(8))), 480.0);
        // tensor symmetric
        assert_eq!(flops(&tensor(dft(8), i(4))), 480.0);
        assert_eq!(flops(&twiddle(2, 4)), 48.0);
    }

    #[test]
    fn parallel_constructs_balance_perfectly() {
        let f = compose(vec![
            tensor_par(2, tensor(dft(4), i(8))),
            dsum_par(vec![twiddle(2, 4), twiddle(2, 4)]),
        ]);
        let w = per_processor_flops(&f, 2);
        assert_eq!(w[0], w[1]);
        assert!((load_balance_ratio(&f, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_compute_shows_imbalance() {
        let f = dft(16); // all work on processor 0
        let w = per_processor_flops(&f, 4);
        assert!(w[0] > 0.0);
        assert_eq!(w[1], 0.0);
        assert_eq!(load_balance_ratio(&f, 4), 4.0);
    }

    #[test]
    fn im_tensor_multiplies_inner_work() {
        let f = tensor(i(4), tensor_par(2, dft(8)));
        let w = per_processor_flops(&f, 2);
        assert_eq!(w[0], 4.0 * 120.0);
        assert_eq!(w[0], w[1]);
    }
}
