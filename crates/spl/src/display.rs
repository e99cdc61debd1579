//! Printing of SPL formulas.
//!
//! `Display` produces a parseable ASCII syntax (see `parse`); `pretty`
//! produces a Unicode rendering close to the paper's notation.

use crate::ast::Spl;
use crate::diag::DiagSpec;
use std::fmt;

impl fmt::Display for Spl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Spl::I(n) => write!(f, "I_{n}"),
            Spl::F2 => write!(f, "F_2"),
            Spl::Dft(n) => write!(f, "DFT_{n}"),
            Spl::Diag(DiagSpec::Twiddle { m, n, off, len }) => {
                if *off == 0 && *len == m * n {
                    write!(f, "T^{}_{}", m * n, n)
                } else {
                    write!(f, "T^{}_{}[{}..{}]", m * n, n, off, off + len)
                }
            }
            Spl::Diag(DiagSpec::Explicit(v)) => {
                write!(f, "diag(")?;
                for (k, z) in v.iter().enumerate() {
                    if k > 0 {
                        write!(f, ";")?;
                    }
                    write!(f, "{},{}", z.re, z.im)?;
                }
                write!(f, ")")
            }
            Spl::Perm(p) => write!(f, "{p}"),
            Spl::Compose(fs) => {
                write!(f, "(")?;
                for (k, x) in fs.iter().enumerate() {
                    if k > 0 {
                        write!(f, " * ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Spl::Tensor(a, b) => write!(f, "({a} @ {b})"),
            Spl::DirectSum(fs) => {
                write!(f, "dsum(")?;
                for (k, x) in fs.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Spl::DirectSumPar(fs) => {
                write!(f, "dsum||(")?;
                for (k, x) in fs.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Spl::TensorPar { p, a } => write!(f, "(I_{p} @|| {a})"),
            Spl::PermBar { perm, mu } => write!(f, "({perm} @bar I_{mu})"),
            Spl::Smp { p, mu, a } => write!(f, "smp({p},{mu})[{a}]"),
            Spl::Vec { nu, a } => write!(f, "vec({nu})[{a}]"),
        }
    }
}

impl Spl {
    /// Unicode rendering close to the paper's notation (not parseable).
    pub fn pretty(&self) -> String {
        match self {
            Spl::I(n) => format!("I{}", sub(*n)),
            Spl::F2 => "F₂".to_string(),
            Spl::Dft(n) => format!("DFT{}", sub(*n)),
            Spl::Diag(DiagSpec::Twiddle { m, n, off, len }) => {
                if *off == 0 && *len == m * n {
                    format!("T^{}{}", m * n, sub(*n))
                } else {
                    format!("T^{}{}[{}..{})", m * n, sub(*n), off, off + len)
                }
            }
            Spl::Diag(DiagSpec::Explicit(v)) => format!("diag(·{}·)", v.len()),
            Spl::Perm(p) => p.to_string(),
            Spl::Compose(fs) => fs
                .iter()
                .map(|x| x.pretty())
                .collect::<Vec<_>>()
                .join(" · "),
            Spl::Tensor(a, b) => format!("({} ⊗ {})", a.pretty(), b.pretty()),
            Spl::DirectSum(fs) => format!(
                "({})",
                fs.iter()
                    .map(|x| x.pretty())
                    .collect::<Vec<_>>()
                    .join(" ⊕ ")
            ),
            Spl::DirectSumPar(fs) => format!(
                "({})",
                fs.iter()
                    .map(|x| x.pretty())
                    .collect::<Vec<_>>()
                    .join(" ⊕∥ ")
            ),
            Spl::TensorPar { p, a } => format!("(I{} ⊗∥ {})", sub(*p), a.pretty()),
            Spl::PermBar { perm, mu } => format!("({perm} ⊗̄ I{})", sub(*mu)),
            Spl::Smp { p, mu, a } => format!("⟨{}⟩smp({p},{mu})", a.pretty()),
            Spl::Vec { nu, a } => format!("⟨{}⟩vec(ν={nu})", a.pretty()),
        }
    }
}

fn sub(n: usize) -> String {
    const DIGITS: [char; 10] = ['₀', '₁', '₂', '₃', '₄', '₅', '₆', '₇', '₈', '₉'];
    n.to_string()
        .chars()
        .map(|c| DIGITS[c.to_digit(10).unwrap() as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::builder::*;

    #[test]
    fn display_primitives() {
        assert_eq!(i(4).to_string(), "I_4");
        assert_eq!(f2().to_string(), "F_2");
        assert_eq!(dft(8).to_string(), "DFT_8");
        assert_eq!(twiddle(2, 4).to_string(), "T^8_4");
        assert_eq!(stride(8, 2).to_string(), "L^8_2");
    }

    #[test]
    fn display_cooley_tukey_reads_like_paper() {
        let f = cooley_tukey(2, 4);
        assert_eq!(
            f.to_string(),
            "((DFT_2 @ I_4) * T^8_4 * (I_2 @ DFT_4) * L^8_2)"
        );
    }

    #[test]
    fn display_parallel_constructs() {
        assert_eq!(tensor_par(2, dft(4)).to_string(), "(I_2 @|| DFT_4)");
        assert_eq!(smp(2, 4, dft(8)).to_string(), "smp(2,4)[DFT_8]");
        assert_eq!(
            dsum_par(vec![dft(2), dft(2)]).to_string(),
            "dsum||(DFT_2, DFT_2)"
        );
        let pb = perm_bar(crate::perm::Perm::stride(4, 2), 4);
        assert_eq!(pb.to_string(), "(L^4_2 @bar I_4)");
    }

    #[test]
    fn display_twiddle_segment() {
        use crate::ast::Spl;
        use crate::diag::DiagSpec;
        let seg = Spl::Diag(DiagSpec::Twiddle {
            m: 2,
            n: 4,
            off: 4,
            len: 4,
        });
        assert_eq!(seg.to_string(), "T^8_4[4..8]");
    }

    #[test]
    fn pretty_uses_unicode() {
        let f = cooley_tukey(2, 4);
        let p = f.pretty();
        assert!(p.contains('⊗'), "{p}");
        assert!(p.contains("DFT₂"), "{p}");
    }
}
