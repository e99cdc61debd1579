//! Reference semantics: apply a formula to a vector.
//!
//! This interpreter is the *testing oracle* of the whole system — every
//! rewrite rule and every compiled plan is checked against it. It favors
//! obviousness over speed (the fast path is the compiled plan in
//! `spiral-codegen`).

use crate::ast::Spl;
use crate::cplx::Cplx;
use crate::num::omega_pow2;

impl Spl {
    /// Compute `y = A x` where `A` is this formula. Allocates; see
    /// `apply` for the in-buffer version.
    pub fn eval(&self, x: &[Cplx]) -> Vec<Cplx> {
        let mut y = vec![Cplx::ZERO; self.dim()];
        self.apply(x, &mut y);
        y
    }

    /// Compute `y = A x` out of place. `x` and `y` must both have length
    /// `self.dim()`.
    pub fn apply(&self, x: &[Cplx], y: &mut [Cplx]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "apply: input length {} != dim {}", x.len(), n);
        assert_eq!(y.len(), n, "apply: output length {} != dim {}", y.len(), n);
        match self {
            Spl::I(_) => y.copy_from_slice(x),
            Spl::F2 => {
                let (a, b) = (x[0], x[1]);
                y[0] = a + b;
                y[1] = a - b;
            }
            Spl::Dft(n) => naive_dft(*n, x, y),
            Spl::Diag(d) => {
                for k in 0..n {
                    y[k] = x[k] * d.entry(k);
                }
            }
            Spl::Perm(p) => {
                for r in 0..n {
                    y[r] = x[p.src(r)];
                }
            }
            Spl::Compose(fs) => {
                // Right-to-left through ping-pong temporaries.
                let mut cur = x.to_vec();
                let mut tmp = vec![Cplx::ZERO; n];
                for f in fs.iter().rev() {
                    f.apply(&cur, &mut tmp);
                    std::mem::swap(&mut cur, &mut tmp);
                }
                y.copy_from_slice(&cur);
            }
            Spl::Tensor(a, b) => apply_tensor(a, b, x, y),
            Spl::DirectSum(fs) | Spl::DirectSumPar(fs) => {
                let mut off = 0;
                for f in fs {
                    let d = f.dim();
                    f.apply(&x[off..off + d], &mut y[off..off + d]);
                    off += d;
                }
            }
            Spl::TensorPar { p, a } => {
                let d = a.dim();
                for blk in 0..*p {
                    a.apply(&x[blk * d..(blk + 1) * d], &mut y[blk * d..(blk + 1) * d]);
                }
            }
            Spl::PermBar { perm, mu } => {
                // (P ⊗ I_µ): move whole µ-blocks.
                let blocks = perm.dim();
                for r in 0..blocks {
                    let s = perm.src(r);
                    y[r * mu..(r + 1) * mu].copy_from_slice(&x[s * mu..(s + 1) * mu]);
                }
            }
            Spl::Smp { a, .. } | Spl::Vec { a, .. } => a.apply(x, y),
        }
    }
}

/// Defining matrix-vector product `y_k = Σ_l ω_n^{kl} x_l` with
/// `ω_n = e^{-2πi/n}` — O(n²), the ground truth everything reduces to.
pub fn naive_dft(n: usize, x: &[Cplx], y: &mut [Cplx]) {
    assert_eq!(x.len(), n);
    assert_eq!(y.len(), n);
    for (k, yk) in y.iter_mut().enumerate() {
        let mut acc = Cplx::ZERO;
        for (l, &xl) in x.iter().enumerate() {
            acc = xl.mul_add(omega_pow2(n, k, l), acc);
        }
        *yk = acc;
    }
}

fn apply_tensor(a: &Spl, b: &Spl, x: &[Cplx], y: &mut [Cplx]) {
    let (ma, nb) = (a.dim(), b.dim());
    match (matches!(a, Spl::I(_)), matches!(b, Spl::I(_))) {
        // I_m ⊗ B: contiguous blocks (paper §2.2: working set n, base += n).
        (true, _) => {
            for blk in 0..ma {
                b.apply(
                    &x[blk * nb..(blk + 1) * nb],
                    &mut y[blk * nb..(blk + 1) * nb],
                );
            }
        }
        // A ⊗ I_n: interleaved working sets at stride n.
        (_, true) => {
            let mut gx = vec![Cplx::ZERO; ma];
            let mut gy = vec![Cplx::ZERO; ma];
            for j in 0..nb {
                for r in 0..ma {
                    gx[r] = x[r * nb + j];
                }
                a.apply(&gx, &mut gy);
                for r in 0..ma {
                    y[r * nb + j] = gy[r];
                }
            }
        }
        // General A ⊗ B = (A ⊗ I_nb) · (I_ma ⊗ B).
        _ => {
            let mid: Vec<Cplx> = {
                let mut t = vec![Cplx::ZERO; ma * nb];
                for blk in 0..ma {
                    b.apply(
                        &x[blk * nb..(blk + 1) * nb],
                        &mut t[blk * nb..(blk + 1) * nb],
                    );
                }
                t
            };
            let mut gx = vec![Cplx::ZERO; ma];
            let mut gy = vec![Cplx::ZERO; ma];
            for j in 0..nb {
                for r in 0..ma {
                    gx[r] = mid[r * nb + j];
                }
                a.apply(&gx, &mut gy);
                for r in 0..ma {
                    y[r * nb + j] = gy[r];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::cplx::assert_slices_close;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|k| Cplx::new(k as f64 + 1.0, -(k as f64) * 0.5))
            .collect()
    }

    #[test]
    fn dft2_equals_f2() {
        let x = ramp(2);
        assert_slices_close(&dft(2).eval(&x), &f2().eval(&x), 1e-12);
    }

    #[test]
    fn dft1_is_identity() {
        let x = ramp(1);
        assert_slices_close(&dft(1).eval(&x), &x, 1e-15);
    }

    #[test]
    fn dft4_known_values() {
        // DFT of [1,1,1,1] is [4,0,0,0]; of the unit impulse is all-ones.
        let ones = vec![Cplx::ONE; 4];
        let y = dft(4).eval(&ones);
        assert!(y[0].approx_eq(Cplx::real(4.0), 1e-12));
        for yk in &y[1..] {
            assert!(yk.approx_eq(Cplx::ZERO, 1e-12));
        }
        let mut imp = vec![Cplx::ZERO; 4];
        imp[0] = Cplx::ONE;
        let y = dft(4).eval(&imp);
        for yk in &y {
            assert!(yk.approx_eq(Cplx::ONE, 1e-12));
        }
    }

    #[test]
    fn dft_forward_sign_convention() {
        // With ω = e^{-2πi/n}, DFT_4 of e_1 = (1, -i, -1, i).
        let mut e1 = vec![Cplx::ZERO; 4];
        e1[1] = Cplx::ONE;
        let y = dft(4).eval(&e1);
        let want = [Cplx::ONE, Cplx::new(0.0, -1.0), Cplx::real(-1.0), Cplx::I];
        assert_slices_close(&y, &want, 1e-12);
    }

    #[test]
    fn cooley_tukey_rule_1_matches_dft() {
        for (m, n) in [
            (2usize, 2usize),
            (2, 4),
            (4, 2),
            (2, 3),
            (3, 2),
            (4, 4),
            (3, 5),
        ] {
            let x = ramp(m * n);
            let lhs = dft(m * n).eval(&x);
            let rhs = cooley_tukey(m, n).eval(&x);
            assert_slices_close(&lhs, &rhs, 1e-9);
        }
    }

    #[test]
    fn six_step_rule_3_matches_dft() {
        for (m, n) in [(2usize, 2usize), (4, 4), (2, 8), (8, 2), (3, 3)] {
            let x = ramp(m * n);
            assert_slices_close(&dft(m * n).eval(&x), &six_step(m, n).eval(&x), 1e-9);
        }
    }

    #[test]
    fn recursive_dft8_formula_2() {
        // Paper eq. (2): DFT_8 via two applications of rule (1).
        let inner = compose(vec![
            tensor(dft(2), i(2)),
            twiddle(2, 2),
            tensor(i(2), dft(2)),
            stride(4, 2),
        ]);
        let f = compose(vec![
            tensor(dft(2), i(4)),
            twiddle(2, 4),
            tensor(i(2), inner),
            stride(8, 2),
        ]);
        let x = ramp(8);
        assert_slices_close(&dft(8).eval(&x), &f.eval(&x), 1e-9);
    }

    #[test]
    fn tensor_of_two_dfts_is_2d_dft() {
        // DFT_m ⊗ DFT_n equals the 2-D row-column transform.
        let (m, n) = (3usize, 4usize);
        let x = ramp(m * n);
        let via_tensor = tensor(dft(m), dft(n)).eval(&x);
        let via_stages = compose(vec![tensor(dft(m), i(n)), tensor(i(m), dft(n))]).eval(&x);
        assert_slices_close(&via_tensor, &via_stages, 1e-9);
    }

    #[test]
    fn parallel_ops_match_untagged_counterparts() {
        let x = ramp(8);
        assert_slices_close(
            &tensor_par(2, dft(4)).eval(&x),
            &tensor(i(2), dft(4)).eval(&x),
            1e-12,
        );
        assert_slices_close(
            &dsum_par(vec![dft(4), dft(4)]).eval(&x),
            &dsum(vec![dft(4), dft(4)]).eval(&x),
            1e-12,
        );
        let p = crate::perm::Perm::stride(4, 2);
        assert_slices_close(
            &perm_bar(p.clone(), 2).eval(&x),
            &tensor(perm(p), i(2)).eval(&x),
            1e-12,
        );
        assert_slices_close(&smp(2, 4, dft(8)).eval(&x), &dft(8).eval(&x), 1e-12);
    }

    #[test]
    fn stride_perm_node_matches_permutation() {
        let x = ramp(6);
        let y = stride(6, 2).eval(&x);
        // L^6_2: y[i*3+j] = x[j*2+i] for i<2, j<3
        for i in 0..2 {
            for j in 0..3 {
                assert!(y[i * 3 + j].approx_eq(x[j * 2 + i], 0.0));
            }
        }
    }

    #[test]
    fn direct_sum_blocks() {
        let x = ramp(5);
        let y = dsum(vec![dft(2), dft(3)]).eval(&x);
        let y0 = dft(2).eval(&x[..2]);
        let y1 = dft(3).eval(&x[2..]);
        assert_slices_close(&y[..2], &y0, 1e-12);
        assert_slices_close(&y[2..], &y1, 1e-12);
    }

    #[test]
    fn linearity_of_eval() {
        let f = cooley_tukey(2, 4);
        let x1 = ramp(8);
        let x2: Vec<Cplx> = ramp(8).iter().map(|z| z.mul_i()).collect();
        let sum: Vec<Cplx> = x1.iter().zip(&x2).map(|(a, b)| *a + *b).collect();
        let lhs = f.eval(&sum);
        let rhs: Vec<Cplx> = f
            .eval(&x1)
            .iter()
            .zip(&f.eval(&x2))
            .map(|(a, b)| *a + *b)
            .collect();
        assert_slices_close(&lhs, &rhs, 1e-9);
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn apply_checks_lengths() {
        let mut y = vec![Cplx::ZERO; 4];
        dft(4).apply(&ramp(3), &mut y);
    }
}
