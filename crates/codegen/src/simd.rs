//! Portable short-vector lane arithmetic for the `vec(ν)` backend.
//!
//! `std::simd` is nightly-only, so the lane types here are fixed-size
//! `Cplx` arrays with `#[inline(always)]` elementwise operations: under
//! the x86_64 SSE2 baseline (and AVX when the host has it) LLVM lowers
//! these loops to packed vector instructions, which is exactly the
//! interleaved-complex short-vector code the paper's §3.2 composition
//! with the short-vector FFT calls for. ν complex lanes occupy 2ν
//! doubles; a lane group is ν *consecutive* complex elements, matching
//! the contiguous innermost lane loop that `· ⊗ I_ν` lowering produces.
//!
//! The backend degrades gracefully: hosts without a useful vector unit
//! (or builds with the `force-scalar` feature) report width 1 and every
//! `vec(ν)`-tagged stage runs the stage loop at ν = 1, bit-identical to
//! an untagged plan.

use spiral_spl::cplx::Cplx;

/// Widest lane count any codelet kernel supports (f64x4-style: four
/// complex lanes = 8 doubles = one AVX-512 register pair / two AVX
/// registers per component).
pub const MAX_LANES: usize = 4;

/// Lane widths worth offering as tuner candidates, narrowest first.
pub const CANDIDATE_WIDTHS: [usize; 2] = [2, 4];

/// The SIMD lane width (in complex elements) the running host supports,
/// detected at runtime. Returns 1 when the `force-scalar` feature is on
/// or the host has no vector unit the backend targets — every caller
/// must treat 1 as "scalar only". The raw hardware fact comes from
/// [`spiral_smp::topology::simd_width`] (the same detector every host
/// fingerprint records), capped at [`MAX_LANES`], the widest kernel this
/// backend implements.
pub fn detected_simd_width() -> usize {
    if cfg!(feature = "force-scalar") {
        return 1;
    }
    spiral_smp::topology::simd_width().min(MAX_LANES)
}

/// ν complex lanes processed as one unit — the "vector register" of the
/// portable backend.
#[derive(Copy, Clone, Debug)]
#[repr(C)]
pub struct Lanes<const NU: usize>(pub [Cplx; NU]);

impl<const NU: usize> Lanes<NU> {
    /// All-zero lanes.
    pub const ZERO: Lanes<NU> = Lanes([Cplx::ZERO; NU]);

    /// Load ν consecutive complex elements.
    #[inline(always)]
    pub fn load(src: &[Cplx]) -> Lanes<NU> {
        let mut v = [Cplx::ZERO; NU];
        v.copy_from_slice(&src[..NU]);
        Lanes(v)
    }

    /// Store the lanes to ν consecutive complex elements.
    #[inline(always)]
    pub fn store(self, dst: &mut [Cplx]) {
        dst[..NU].copy_from_slice(&self.0);
    }

    /// Every lane multiplied by the same complex constant (the twiddle of
    /// a straight-line kernel is uniform across lanes).
    #[inline(always)]
    pub fn mul_const(self, c: Cplx) -> Lanes<NU> {
        let mut v = self.0;
        for x in &mut v {
            *x *= c;
        }
        Lanes(v)
    }

    /// Lane-wise complex multiplication (per-lane twiddle application).
    #[inline(always)]
    pub fn mul_lanes(self, rhs: Lanes<NU>) -> Lanes<NU> {
        let mut v = self.0;
        for (x, y) in v.iter_mut().zip(rhs.0) {
            *x *= y;
        }
        Lanes(v)
    }

    /// Lane-wise rotation by `i`.
    #[inline(always)]
    pub fn mul_i(self) -> Lanes<NU> {
        let mut v = self.0;
        for x in &mut v {
            *x = x.mul_i();
        }
        Lanes(v)
    }

    /// Lane-wise rotation by `-i`.
    #[inline(always)]
    pub fn mul_neg_i(self) -> Lanes<NU> {
        let mut v = self.0;
        for x in &mut v {
            *x = x.mul_neg_i();
        }
        Lanes(v)
    }
}

/// Lane-wise addition.
impl<const NU: usize> std::ops::Add for Lanes<NU> {
    type Output = Lanes<NU>;
    #[inline(always)]
    fn add(self, rhs: Lanes<NU>) -> Lanes<NU> {
        let mut v = self.0;
        for (x, y) in v.iter_mut().zip(rhs.0) {
            *x += y;
        }
        Lanes(v)
    }
}

/// Lane-wise subtraction.
impl<const NU: usize> std::ops::Sub for Lanes<NU> {
    type Output = Lanes<NU>;
    #[inline(always)]
    fn sub(self, rhs: Lanes<NU>) -> Lanes<NU> {
        let mut v = self.0;
        for (x, y) in v.iter_mut().zip(rhs.0) {
            *x -= y;
        }
        Lanes(v)
    }
}

/// Lane-wise negation.
impl<const NU: usize> std::ops::Neg for Lanes<NU> {
    type Output = Lanes<NU>;
    #[inline(always)]
    fn neg(self) -> Lanes<NU> {
        let mut v = self.0;
        for x in &mut v {
            *x = -*x;
        }
        Lanes(v)
    }
}

/// Re-key a scalar per-slot twiddle table (`[flat·c + t]`) into the
/// lane-grouped layout the vector path reads contiguously:
/// `out[g·c·ν + t·ν + l] = w[(g·ν + l)·c + t]` — the lane shuffle that
/// turns ν strided scalar lookups into one contiguous vector load.
/// `w.len()` must be a multiple of `c·ν`.
pub fn lane_shuffle_twiddle(w: &[Cplx], c: usize, nu: usize) -> Vec<Cplx> {
    debug_assert!(w.len().is_multiple_of(c * nu));
    let groups = w.len() / (c * nu);
    let mut out = Vec::with_capacity(w.len());
    for g in 0..groups {
        for t in 0..c {
            for l in 0..nu {
                out.push(w[(g * nu + l) * c + t]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detected_width_is_sane() {
        let w = detected_simd_width();
        assert!(w == 1 || w == 2 || w == 4, "width {w}");
        assert!(w <= MAX_LANES);
        if cfg!(feature = "force-scalar") {
            assert_eq!(w, 1, "force-scalar must report scalar width");
        }
    }

    #[test]
    fn lane_ops_match_scalar() {
        let a = Lanes::<4>([
            Cplx::new(1.0, 2.0),
            Cplx::new(-0.5, 0.25),
            Cplx::new(3.0, -1.0),
            Cplx::new(0.0, 1.0),
        ]);
        let b = Lanes::<4>([
            Cplx::new(2.0, -1.0),
            Cplx::new(1.5, 1.5),
            Cplx::new(-1.0, -1.0),
            Cplx::new(4.0, 0.5),
        ]);
        for l in 0..4 {
            assert!((a + b).0[l].approx_eq(a.0[l] + b.0[l], 0.0));
            assert!((a - b).0[l].approx_eq(a.0[l] - b.0[l], 0.0));
            assert!((-a).0[l].approx_eq(-a.0[l], 0.0));
            assert!(a.mul_lanes(b).0[l].approx_eq(a.0[l] * b.0[l], 0.0));
            assert!(a.mul_i().0[l].approx_eq(a.0[l].mul_i(), 0.0));
            assert!(a.mul_neg_i().0[l].approx_eq(a.0[l].mul_neg_i(), 0.0));
            let c = Cplx::new(0.7, -0.3);
            assert!(a.mul_const(c).0[l].approx_eq(a.0[l] * c, 0.0));
        }
    }

    #[test]
    fn lane_shuffle_roundtrips() {
        let c = 3;
        let nu = 2;
        let w: Vec<Cplx> = (0..c * nu * 4).map(|k| Cplx::real(k as f64)).collect();
        let s = lane_shuffle_twiddle(&w, c, nu);
        assert_eq!(s.len(), w.len());
        for g in 0..4 {
            for t in 0..c {
                for l in 0..nu {
                    assert!(s[g * c * nu + t * nu + l].approx_eq(w[(g * nu + l) * c + t], 0.0));
                }
            }
        }
    }
}
