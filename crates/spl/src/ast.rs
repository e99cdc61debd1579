//! The SPL formula language (paper §2.2–2.3).
//!
//! A formula denotes a square complex matrix; FFT algorithms are recursive
//! factorizations of `DFT_n` into products of structured sparse matrices.
//! The shared-memory extension (§3.1) adds *tags* `smp(p, µ)` and *tagged
//! parallel operators* `I_p ⊗∥ A`, `⊕∥`, and `P ⊗̄ I_µ` which declare a
//! subformula fully optimized for a `p`-way machine with cache-line length
//! `µ` (in complex elements).

use crate::diag::DiagSpec;
use crate::perm::Perm;

/// An SPL formula (always a square matrix in this framework).
#[derive(Clone, Debug, PartialEq)]
pub enum Spl {
    /// Identity matrix `I_n`.
    I(usize),
    /// The 2-point DFT butterfly `F_2 = [[1, 1], [1, -1]]` — the base case
    /// of the Cooley–Tukey recursion.
    F2,
    /// Unexpanded transform `DFT_n` (a *non-terminal* for the rewriting
    /// system; semantics are the defining matrix-vector product).
    Dft(usize),
    /// A diagonal matrix (twiddle factors or explicit).
    Diag(DiagSpec),
    /// A permutation matrix (stride permutations and combinations).
    Perm(Perm),
    /// Matrix product `A_0 · A_1 · … · A_{k-1}` (applied right to left).
    Compose(Vec<Spl>),
    /// Kronecker (tensor) product `A ⊗ B`.
    Tensor(Box<Spl>, Box<Spl>),
    /// Direct sum `A_0 ⊕ … ⊕ A_{k-1}` (block-diagonal).
    DirectSum(Vec<Spl>),
    /// Tagged parallel tensor `I_p ⊗∥ A`: one block per processor
    /// (paper eq. (4)). Semantically equal to `I_p ⊗ A`.
    TensorPar {
        /// Processor count.
        p: usize,
        /// The per-processor block.
        a: Box<Spl>,
    },
    /// Tagged parallel direct sum `⊕∥ A_i` with one summand per processor.
    /// Semantically equal to `DirectSum`.
    DirectSumPar(Vec<Spl>),
    /// Tagged cache-line permutation `P ⊗̄ I_µ`: reorders whole cache lines
    /// only, hence incurs no false sharing. Semantically `P ⊗ I_µ`.
    PermBar {
        /// The block permutation `P` (acting on lines).
        perm: Perm,
        /// Cache-line length in complex elements.
        mu: usize,
    },
    /// Rewriting tag `smp(p, µ)` wrapping a subformula that still has to be
    /// parallelized (paper §3.1). Semantically transparent.
    Smp {
        /// Processor count.
        p: usize,
        /// Cache-line length in complex elements.
        mu: usize,
        /// The subformula to parallelize.
        a: Box<Spl>,
    },
    /// Short-vector tag `vec(ν)` requesting the wrapped subformula be
    /// lowered to ν-wide SIMD leaf kernels (paper §3.2: the shared-memory
    /// formula composes with the short-vector FFT). Semantically
    /// transparent, like `smp`.
    Vec {
        /// Vector length in complex elements (lanes per kernel call).
        nu: usize,
        /// The subformula to vectorize.
        a: Box<Spl>,
    },
}

/// Errors from structural validation.
#[derive(Clone, Debug, PartialEq)]
pub enum SplError {
    /// A composition multiplies matrices of different dimensions.
    ComposeDim {
        /// Dimension of the left factor.
        left: usize,
        /// Dimension of the right factor.
        right: usize,
    },
    /// An n-ary operator has no operands.
    Empty(&'static str),
    /// Dimension constraint violated (message, offending sizes).
    Constraint(&'static str, usize, usize),
}

impl std::fmt::Display for SplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplError::ComposeDim { left, right } => {
                write!(f, "composition dimension mismatch: {left} vs {right}")
            }
            SplError::Empty(op) => write!(f, "empty {op}"),
            SplError::Constraint(msg, a, b) => write!(f, "{msg}: {a}, {b}"),
        }
    }
}

impl std::error::Error for SplError {}

impl Spl {
    /// Matrix dimension (formulas here are always square).
    pub fn dim(&self) -> usize {
        match self {
            Spl::I(n) => *n,
            Spl::F2 => 2,
            Spl::Dft(n) => *n,
            Spl::Diag(d) => d.len(),
            Spl::Perm(p) => p.dim(),
            Spl::Compose(fs) => fs.first().map_or(0, |f| f.dim()),
            Spl::Tensor(a, b) => a.dim() * b.dim(),
            Spl::DirectSum(fs) | Spl::DirectSumPar(fs) => fs.iter().map(|f| f.dim()).sum(),
            Spl::TensorPar { p, a } => p * a.dim(),
            Spl::PermBar { perm, mu } => perm.dim() * mu,
            Spl::Smp { a, .. } | Spl::Vec { a, .. } => a.dim(),
        }
    }

    /// Structural validation: dimensions line up, no empty n-ary nodes,
    /// size constraints on primitives hold. Returns the dimension.
    pub fn validate(&self) -> Result<usize, SplError> {
        match self {
            Spl::I(n) | Spl::Dft(n) => {
                if *n == 0 {
                    Err(SplError::Constraint("zero-size matrix", 0, 0))
                } else {
                    Ok(*n)
                }
            }
            Spl::F2 => Ok(2),
            Spl::Diag(d) => {
                if let DiagSpec::Twiddle { m, n, off, len } = d {
                    if off + len > m * n {
                        return Err(SplError::Constraint(
                            "twiddle segment out of range",
                            off + len,
                            m * n,
                        ));
                    }
                }
                Ok(d.len())
            }
            Spl::Perm(p) => Ok(p.dim()),
            Spl::Compose(fs) => {
                if fs.is_empty() {
                    return Err(SplError::Empty("composition"));
                }
                let dims: Result<Vec<usize>, _> = fs.iter().map(|f| f.validate()).collect();
                let dims = dims?;
                for w in dims.windows(2) {
                    if w[0] != w[1] {
                        return Err(SplError::ComposeDim {
                            left: w[0],
                            right: w[1],
                        });
                    }
                }
                Ok(dims[0])
            }
            Spl::Tensor(a, b) => Ok(a.validate()? * b.validate()?),
            Spl::DirectSum(fs) | Spl::DirectSumPar(fs) => {
                if fs.is_empty() {
                    return Err(SplError::Empty("direct sum"));
                }
                let mut total = 0;
                for f in fs {
                    total += f.validate()?;
                }
                Ok(total)
            }
            Spl::TensorPar { p, a } => {
                if *p == 0 {
                    return Err(SplError::Empty("parallel tensor"));
                }
                Ok(p * a.validate()?)
            }
            Spl::PermBar { perm, mu } => {
                if *mu == 0 {
                    return Err(SplError::Constraint("µ must be positive", 0, 0));
                }
                Ok(perm.dim() * mu)
            }
            Spl::Smp { p, mu, a } => {
                if *p == 0 || *mu == 0 {
                    return Err(SplError::Constraint("smp(p,µ) needs p,µ ≥ 1", *p, *mu));
                }
                a.validate()
            }
            Spl::Vec { nu, a } => {
                if *nu == 0 || !nu.is_power_of_two() {
                    return Err(SplError::Constraint(
                        "vec(ν) needs a power-of-two ν",
                        *nu,
                        0,
                    ));
                }
                a.validate()
            }
        }
    }

    /// Immediate children, for generic traversals.
    pub fn children(&self) -> Vec<&Spl> {
        match self {
            Spl::Compose(fs) | Spl::DirectSum(fs) | Spl::DirectSumPar(fs) => fs.iter().collect(),
            Spl::Tensor(a, b) => vec![a, b],
            Spl::TensorPar { a, .. } | Spl::Smp { a, .. } | Spl::Vec { a, .. } => vec![a],
            _ => vec![],
        }
    }

    /// Rebuild this node with transformed children (bottom-up map helper).
    pub fn map_children(&self, f: &mut impl FnMut(&Spl) -> Spl) -> Spl {
        match self {
            Spl::Compose(fs) => Spl::Compose(fs.iter().map(&mut *f).collect()),
            Spl::DirectSum(fs) => Spl::DirectSum(fs.iter().map(&mut *f).collect()),
            Spl::DirectSumPar(fs) => Spl::DirectSumPar(fs.iter().map(&mut *f).collect()),
            Spl::Tensor(a, b) => Spl::Tensor(Box::new(f(a)), Box::new(f(b))),
            Spl::TensorPar { p, a } => Spl::TensorPar {
                p: *p,
                a: Box::new(f(a)),
            },
            Spl::Smp { p, mu, a } => Spl::Smp {
                p: *p,
                mu: *mu,
                a: Box::new(f(a)),
            },
            Spl::Vec { nu, a } => Spl::Vec {
                nu: *nu,
                a: Box::new(f(a)),
            },
            leaf => leaf.clone(),
        }
    }

    /// Number of nodes in the formula tree (Perm/Diag specs count as one).
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// True if the formula contains an unexpanded `DFT_n` non-terminal.
    pub fn has_nonterminal(&self) -> bool {
        matches!(self, Spl::Dft(_)) || self.children().iter().any(|c| c.has_nonterminal())
    }

    /// True if the formula contains an `smp(p,µ)` tag (i.e. rewriting for
    /// shared memory is not finished).
    pub fn has_smp_tag(&self) -> bool {
        matches!(self, Spl::Smp { .. }) || self.children().iter().any(|c| c.has_smp_tag())
    }

    /// True if the formula contains a `vec(ν)` short-vector tag.
    pub fn has_vec_tag(&self) -> bool {
        matches!(self, Spl::Vec { .. }) || self.children().iter().any(|c| c.has_vec_tag())
    }

    /// The widest `vec(ν)` tag in the formula (1 if untagged) — the lane
    /// width the lowered plan will require of the executing host.
    pub fn vec_width(&self) -> usize {
        let own = match self {
            Spl::Vec { nu, .. } => *nu,
            _ => 1,
        };
        self.children()
            .iter()
            .map(|c| c.vec_width())
            .fold(own, usize::max)
    }

    /// If the formula denotes a permutation matrix built from the
    /// permutation primitives (possibly tensored with identities and
    /// composed), extract it as a `Perm` index function.
    pub fn as_perm(&self) -> Option<Perm> {
        match self {
            Spl::I(n) => Some(Perm::Id(*n)),
            Spl::Perm(p) => Some(p.clone()),
            Spl::Tensor(a, b) => match (a.as_perm(), b.as_perm()) {
                (Some(pa), Some(Perm::Id(r))) => Some(Perm::TensorId(Box::new(pa), r)),
                (Some(Perm::Id(l)), Some(pb)) => Some(Perm::IdTensor(l, Box::new(pb))),
                // General perm ⊗ perm: (P ⊗ Q) = (P ⊗ I)(I ⊗ Q)
                (Some(pa), Some(pb)) => {
                    let r = pb.dim();
                    let l = pa.dim();
                    Some(Perm::Compose(vec![
                        Perm::TensorId(Box::new(pa), r),
                        Perm::IdTensor(l, Box::new(pb)),
                    ]))
                }
                _ => None,
            },
            Spl::PermBar { perm, mu } => Some(Perm::TensorId(Box::new(perm.clone()), *mu)),
            Spl::Compose(fs) => {
                let ps: Option<Vec<Perm>> = fs.iter().map(|f| f.as_perm()).collect();
                ps.map(Perm::Compose)
            }
            Spl::Smp { a, .. } | Spl::Vec { a, .. } => a.as_perm(),
            _ => None,
        }
    }

    /// True if the formula is semantically a permutation-with-identity
    /// structure (cheap structural check via `as_perm`).
    pub fn is_permutation(&self) -> bool {
        self.as_perm().is_some()
    }

    /// Flatten nested compositions and drop size-preserving identities
    /// inside products; purely cosmetic normalization used by the rewriter
    /// so rule patterns don't have to anticipate nesting.
    pub fn normalized(&self) -> Spl {
        let node = self.map_children(&mut |c| c.normalized());
        match node {
            Spl::Compose(fs) => {
                let mut flat = Vec::new();
                for f in fs {
                    match f {
                        Spl::Compose(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                // Drop identities unless that would empty the product.
                let kept: Vec<Spl> = flat
                    .iter()
                    .filter(|f| !matches!(f, Spl::I(_)))
                    .cloned()
                    .collect();
                let mut fs = if kept.is_empty() { flat } else { kept };
                if fs.len() == 1 {
                    fs.pop().unwrap()
                } else {
                    Spl::Compose(fs)
                }
            }
            Spl::Tensor(a, b) => match (*a, *b) {
                (Spl::I(1), x) | (x, Spl::I(1)) => x,
                (Spl::I(m), Spl::I(n)) => Spl::I(m * n),
                (a, b) => Spl::Tensor(Box::new(a), Box::new(b)),
            },
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn dims_of_primitives() {
        assert_eq!(Spl::I(5).dim(), 5);
        assert_eq!(Spl::F2.dim(), 2);
        assert_eq!(Spl::Dft(16).dim(), 16);
        assert_eq!(twiddle(2, 4).dim(), 8);
        assert_eq!(stride(8, 2).dim(), 8);
    }

    #[test]
    fn dims_of_operators() {
        let t = tensor(dft(2), i(4));
        assert_eq!(t.dim(), 8);
        let c = compose(vec![t.clone(), twiddle(2, 4)]);
        assert_eq!(c.dim(), 8);
        let ds = dsum(vec![dft(2), dft(3)]);
        assert_eq!(ds.dim(), 5);
        let tp = tensor_par(2, dft(4));
        assert_eq!(tp.dim(), 8);
        let pb = perm_bar(crate::perm::Perm::stride(4, 2), 4);
        assert_eq!(pb.dim(), 16);
        assert_eq!(smp(2, 4, dft(8)).dim(), 8);
    }

    #[test]
    fn validate_accepts_cooley_tukey_shape() {
        let f = compose(vec![
            tensor(dft(2), i(4)),
            twiddle(2, 4),
            tensor(i(2), dft(4)),
            stride(8, 2),
        ]);
        assert_eq!(f.validate().unwrap(), 8);
    }

    #[test]
    fn validate_rejects_dim_mismatch() {
        let bad = compose(vec![dft(4), dft(8)]);
        assert!(matches!(
            bad.validate(),
            Err(SplError::ComposeDim { left: 4, right: 8 })
        ));
    }

    #[test]
    fn validate_rejects_empty_and_zero() {
        assert!(Spl::Compose(vec![]).validate().is_err());
        assert!(Spl::DirectSum(vec![]).validate().is_err());
        assert!(Spl::I(0).validate().is_err());
        assert!(Spl::Smp {
            p: 0,
            mu: 4,
            a: Box::new(dft(4))
        }
        .validate()
        .is_err());
    }

    #[test]
    fn nonterminal_and_tag_detection() {
        let f = compose(vec![tensor(dft(2), i(4)), stride(8, 2)]);
        assert!(f.has_nonterminal());
        assert!(!f.has_smp_tag());
        let g = smp(2, 4, f.clone());
        assert!(g.has_smp_tag());
        assert!(!tensor(Spl::F2, i(2)).has_nonterminal());
    }

    #[test]
    fn as_perm_extracts_structures() {
        // L^8_2 ⊗ I_4 is a permutation
        let f = tensor(stride(8, 2), i(4));
        let p = f.as_perm().expect("should be a permutation");
        assert_eq!(p.dim(), 32);
        // I_2 ⊗ L^4_2 also
        assert!(tensor(i(2), stride(4, 2)).as_perm().is_some());
        // A DFT is not
        assert!(dft(4).as_perm().is_none());
        // Composition of permutations is
        assert!(compose(vec![stride(8, 2), stride(8, 4)])
            .as_perm()
            .is_some());
        // But a product containing a diag is not
        assert!(compose(vec![stride(8, 2), twiddle(2, 4)])
            .as_perm()
            .is_none());
    }

    #[test]
    fn as_perm_matches_matrix_semantics() {
        use crate::cplx::Cplx;
        let f = tensor(stride(6, 2), i(2));
        let p = f.as_perm().unwrap();
        let x: Vec<Cplx> = (0..12).map(|k| Cplx::real(k as f64)).collect();
        let via_perm: Vec<Cplx> = (0..12).map(|r| x[p.src(r)]).collect();
        let via_eval = f.eval(&x);
        crate::cplx::assert_slices_close(&via_perm, &via_eval, 1e-12);
    }

    #[test]
    fn normalization_flattens() {
        let f = compose(vec![
            compose(vec![dft(4), i(4)]),
            compose(vec![stride(4, 2)]),
        ]);
        let n = f.normalized();
        match n {
            Spl::Compose(fs) => {
                assert_eq!(fs.len(), 2);
                assert!(matches!(fs[0], Spl::Dft(4)));
            }
            other => panic!("expected flattened compose, got {other:?}"),
        }
        // I_1 ⊗ A = A, I_m ⊗ I_n = I_{mn}
        assert_eq!(tensor(i(1), dft(4)).normalized(), dft(4));
        assert_eq!(tensor(i(2), i(3)).normalized(), Spl::I(6));
    }

    #[test]
    fn node_count_counts() {
        let f = compose(vec![tensor(dft(2), i(4)), stride(8, 2)]);
        assert_eq!(f.node_count(), 5);
    }
}
