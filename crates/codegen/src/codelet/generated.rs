//! Generated straight-line DFT kernels — do not edit; see
//! [`super::generated_source`] for how to regenerate.

use crate::simd::Lanes;
use crate::stage::{run_stage, Kernel, StageFn};
use spiral_spl::cplx::Cplx;

/// The stage runner of the generated `DFT_c` kernel at ν lanes.
pub(crate) fn runner<const NU: usize>(c: usize) -> Option<StageFn> {
    let f: StageFn = match c {
        2 => |k, s, d| run_stage::<2, NU, _>(k, s, d, Dft2),
        3 => |k, s, d| run_stage::<3, NU, _>(k, s, d, Dft3),
        4 => |k, s, d| run_stage::<4, NU, _>(k, s, d, Dft4),
        5 => |k, s, d| run_stage::<5, NU, _>(k, s, d, Dft5),
        6 => |k, s, d| run_stage::<6, NU, _>(k, s, d, Dft6),
        7 => |k, s, d| run_stage::<7, NU, _>(k, s, d, Dft7),
        8 => |k, s, d| run_stage::<8, NU, _>(k, s, d, Dft8),
        _ => return None,
    };
    Some(f)
}

/// `DFT_2` on ν lanes, in place (4 flops per lane).
pub(crate) struct Dft2;

impl Kernel<2> for Dft2 {
    #[inline(always)]
    fn run<const NU: usize>(&mut self, v: &mut [Lanes<NU>; 2]) {
        let [x0, x1] = *v;
        let t2 = x0 + x1;
        let t3 = x0 - x1;
        *v = [t2, t3];
    }
}

/// `DFT_3` on ν lanes, in place (36 flops per lane).
pub(crate) struct Dft3;

impl Kernel<3> for Dft3 {
    #[inline(always)]
    fn run<const NU: usize>(&mut self, v: &mut [Lanes<NU>; 3]) {
        let [x0, x1, x2] = *v;
        let t3 = x0 + x1;
        let t4 = t3 + x2;
        let t5 = x1.mul_const(Cplx::new(f64::from_bits(0xbfdffffffffffffc), f64::from_bits(0xbfebb67ae8584cab))); // -0.4999999999999998, -0.8660254037844387
        let t6 = x0 + t5;
        let t7 = x2.mul_const(Cplx::new(f64::from_bits(0xbfe0000000000004), f64::from_bits(0x3febb67ae8584ca8))); // -0.5000000000000004, 0.8660254037844384
        let t8 = t6 + t7;
        let t9 = x1.mul_const(Cplx::new(f64::from_bits(0xbfe0000000000004), f64::from_bits(0x3febb67ae8584ca8))); // -0.5000000000000004, 0.8660254037844384
        let t10 = x0 + t9;
        let t11 = x2.mul_const(Cplx::new(f64::from_bits(0xbfdffffffffffffc), f64::from_bits(0xbfebb67ae8584cab))); // -0.4999999999999998, -0.8660254037844387
        let t12 = t10 + t11;
        *v = [t4, t8, t12];
    }
}

/// `DFT_4` on ν lanes, in place (18 flops per lane).
pub(crate) struct Dft4;

impl Kernel<4> for Dft4 {
    #[inline(always)]
    fn run<const NU: usize>(&mut self, v: &mut [Lanes<NU>; 4]) {
        let [x0, x1, x2, x3] = *v;
        let t4 = x0 + x2;
        let t5 = x0 - x2;
        let t6 = x1 + x3;
        let t7 = x1 - x3;
        let t8 = t7.mul_neg_i();
        let t9 = t4 + t6;
        let t10 = t4 - t6;
        let t11 = t5 + t8;
        let t12 = t5 - t8;
        *v = [t9, t11, t10, t12];
    }
}

/// `DFT_5` on ν lanes, in place (136 flops per lane).
pub(crate) struct Dft5;

impl Kernel<5> for Dft5 {
    #[inline(always)]
    fn run<const NU: usize>(&mut self, v: &mut [Lanes<NU>; 5]) {
        let [x0, x1, x2, x3, x4] = *v;
        let t5 = x0 + x1;
        let t6 = t5 + x2;
        let t7 = t6 + x3;
        let t8 = t7 + x4;
        let t9 = x1.mul_const(Cplx::new(f64::from_bits(0x3fd3c6ef372fe950), f64::from_bits(0xbfee6f0e134454ff))); // 0.30901699437494745, -0.9510565162951535
        let t10 = x0 + t9;
        let t11 = x2.mul_const(Cplx::new(f64::from_bits(0xbfe9e3779b97f4a7), f64::from_bits(0xbfe2cf2304755a5f))); // -0.8090169943749473, -0.5877852522924732
        let t12 = t10 + t11;
        let t13 = x3.mul_const(Cplx::new(f64::from_bits(0xbfe9e3779b97f4a9), f64::from_bits(0x3fe2cf2304755a5d))); // -0.8090169943749476, 0.587785252292473
        let t14 = t12 + t13;
        let t15 = x4.mul_const(Cplx::new(f64::from_bits(0x3fd3c6ef372fe94c), f64::from_bits(0x3fee6f0e13445500))); // 0.30901699437494723, 0.9510565162951536
        let t16 = t14 + t15;
        let t17 = x1.mul_const(Cplx::new(f64::from_bits(0xbfe9e3779b97f4a7), f64::from_bits(0xbfe2cf2304755a5f))); // -0.8090169943749473, -0.5877852522924732
        let t18 = x0 + t17;
        let t19 = x2.mul_const(Cplx::new(f64::from_bits(0x3fd3c6ef372fe94c), f64::from_bits(0x3fee6f0e13445500))); // 0.30901699437494723, 0.9510565162951536
        let t20 = t18 + t19;
        let t21 = x3.mul_const(Cplx::new(f64::from_bits(0x3fd3c6ef372fe950), f64::from_bits(0xbfee6f0e134454ff))); // 0.30901699437494745, -0.9510565162951535
        let t22 = t20 + t21;
        let t23 = x4.mul_const(Cplx::new(f64::from_bits(0xbfe9e3779b97f4a9), f64::from_bits(0x3fe2cf2304755a5d))); // -0.8090169943749476, 0.587785252292473
        let t24 = t22 + t23;
        let t25 = x1.mul_const(Cplx::new(f64::from_bits(0xbfe9e3779b97f4a9), f64::from_bits(0x3fe2cf2304755a5d))); // -0.8090169943749476, 0.587785252292473
        let t26 = x0 + t25;
        let t27 = x2.mul_const(Cplx::new(f64::from_bits(0x3fd3c6ef372fe950), f64::from_bits(0xbfee6f0e134454ff))); // 0.30901699437494745, -0.9510565162951535
        let t28 = t26 + t27;
        let t29 = x3.mul_const(Cplx::new(f64::from_bits(0x3fd3c6ef372fe94c), f64::from_bits(0x3fee6f0e13445500))); // 0.30901699437494723, 0.9510565162951536
        let t30 = t28 + t29;
        let t31 = x4.mul_const(Cplx::new(f64::from_bits(0xbfe9e3779b97f4a7), f64::from_bits(0xbfe2cf2304755a5f))); // -0.8090169943749473, -0.5877852522924732
        let t32 = t30 + t31;
        let t33 = x1.mul_const(Cplx::new(f64::from_bits(0x3fd3c6ef372fe94c), f64::from_bits(0x3fee6f0e13445500))); // 0.30901699437494723, 0.9510565162951536
        let t34 = x0 + t33;
        let t35 = x2.mul_const(Cplx::new(f64::from_bits(0xbfe9e3779b97f4a9), f64::from_bits(0x3fe2cf2304755a5d))); // -0.8090169943749476, 0.587785252292473
        let t36 = t34 + t35;
        let t37 = x3.mul_const(Cplx::new(f64::from_bits(0xbfe9e3779b97f4a7), f64::from_bits(0xbfe2cf2304755a5f))); // -0.8090169943749473, -0.5877852522924732
        let t38 = t36 + t37;
        let t39 = x4.mul_const(Cplx::new(f64::from_bits(0x3fd3c6ef372fe950), f64::from_bits(0xbfee6f0e134454ff))); // 0.30901699437494745, -0.9510565162951535
        let t40 = t38 + t39;
        *v = [t8, t16, t24, t32, t40];
    }
}

/// `DFT_6` on ν lanes, in place (96 flops per lane).
pub(crate) struct Dft6;

impl Kernel<6> for Dft6 {
    #[inline(always)]
    fn run<const NU: usize>(&mut self, v: &mut [Lanes<NU>; 6]) {
        let [x0, x1, x2, x3, x4, x5] = *v;
        let t6 = x0 + x2;
        let t7 = t6 + x4;
        let t8 = x2.mul_const(Cplx::new(f64::from_bits(0xbfdffffffffffffc), f64::from_bits(0xbfebb67ae8584cab))); // -0.4999999999999998, -0.8660254037844387
        let t9 = x0 + t8;
        let t10 = x4.mul_const(Cplx::new(f64::from_bits(0xbfe0000000000004), f64::from_bits(0x3febb67ae8584ca8))); // -0.5000000000000004, 0.8660254037844384
        let t11 = t9 + t10;
        let t12 = x2.mul_const(Cplx::new(f64::from_bits(0xbfe0000000000004), f64::from_bits(0x3febb67ae8584ca8))); // -0.5000000000000004, 0.8660254037844384
        let t13 = x0 + t12;
        let t14 = x4.mul_const(Cplx::new(f64::from_bits(0xbfdffffffffffffc), f64::from_bits(0xbfebb67ae8584cab))); // -0.4999999999999998, -0.8660254037844387
        let t15 = t13 + t14;
        let t16 = x1 + x3;
        let t17 = t16 + x5;
        let t18 = x3.mul_const(Cplx::new(f64::from_bits(0xbfdffffffffffffc), f64::from_bits(0xbfebb67ae8584cab))); // -0.4999999999999998, -0.8660254037844387
        let t19 = x1 + t18;
        let t20 = x5.mul_const(Cplx::new(f64::from_bits(0xbfe0000000000004), f64::from_bits(0x3febb67ae8584ca8))); // -0.5000000000000004, 0.8660254037844384
        let t21 = t19 + t20;
        let t22 = x3.mul_const(Cplx::new(f64::from_bits(0xbfe0000000000004), f64::from_bits(0x3febb67ae8584ca8))); // -0.5000000000000004, 0.8660254037844384
        let t23 = x1 + t22;
        let t24 = x5.mul_const(Cplx::new(f64::from_bits(0xbfdffffffffffffc), f64::from_bits(0xbfebb67ae8584cab))); // -0.4999999999999998, -0.8660254037844387
        let t25 = t23 + t24;
        let t26 = t21.mul_const(Cplx::new(f64::from_bits(0x3fe0000000000001), f64::from_bits(0xbfebb67ae8584caa))); // 0.5000000000000001, -0.8660254037844386
        let t27 = t25.mul_const(Cplx::new(f64::from_bits(0xbfdffffffffffffc), f64::from_bits(0xbfebb67ae8584cab))); // -0.4999999999999998, -0.8660254037844387
        let t28 = t7 + t17;
        let t29 = t7 - t17;
        let t30 = t11 + t26;
        let t31 = t11 - t26;
        let t32 = t15 + t27;
        let t33 = t15 - t27;
        *v = [t28, t30, t32, t29, t31, t33];
    }
}

/// `DFT_7` on ν lanes, in place (300 flops per lane).
pub(crate) struct Dft7;

impl Kernel<7> for Dft7 {
    #[inline(always)]
    fn run<const NU: usize>(&mut self, v: &mut [Lanes<NU>; 7]) {
        let [x0, x1, x2, x3, x4, x5, x6] = *v;
        let t7 = x0 + x1;
        let t8 = t7 + x2;
        let t9 = t8 + x3;
        let t10 = t9 + x4;
        let t11 = t10 + x5;
        let t12 = t11 + x6;
        let t13 = x1.mul_const(Cplx::new(f64::from_bits(0x3fe3f3a0e28bedd2), f64::from_bits(0xbfe904c37505de4b))); // 0.6234898018587336, -0.7818314824680298
        let t14 = x0 + t13;
        let t15 = x2.mul_const(Cplx::new(f64::from_bits(0xbfcc7b90e3024580), f64::from_bits(0xbfef329c0558e969))); // -0.22252093395631434, -0.9749279121818236
        let t16 = t14 + t15;
        let t17 = x3.mul_const(Cplx::new(f64::from_bits(0xbfecd4bca9cb5c70), f64::from_bits(0xbfdbc4c04d71abc3))); // -0.900968867902419, -0.43388373911755823
        let t18 = t16 + t17;
        let t19 = x4.mul_const(Cplx::new(f64::from_bits(0xbfecd4bca9cb5c71), f64::from_bits(0x3fdbc4c04d71abbf))); // -0.9009688679024191, 0.433883739117558
        let t20 = t18 + t19;
        let t21 = x5.mul_const(Cplx::new(f64::from_bits(0xbfcc7b90e3024589), f64::from_bits(0x3fef329c0558e969))); // -0.2225209339563146, 0.9749279121818236
        let t22 = t20 + t21;
        let t23 = x6.mul_const(Cplx::new(f64::from_bits(0x3fe3f3a0e28bedd0), f64::from_bits(0x3fe904c37505de4c))); // 0.6234898018587334, 0.7818314824680299
        let t24 = t22 + t23;
        let t25 = x1.mul_const(Cplx::new(f64::from_bits(0xbfcc7b90e3024580), f64::from_bits(0xbfef329c0558e969))); // -0.22252093395631434, -0.9749279121818236
        let t26 = x0 + t25;
        let t27 = x2.mul_const(Cplx::new(f64::from_bits(0xbfecd4bca9cb5c71), f64::from_bits(0x3fdbc4c04d71abbf))); // -0.9009688679024191, 0.433883739117558
        let t28 = t26 + t27;
        let t29 = x3.mul_const(Cplx::new(f64::from_bits(0x3fe3f3a0e28bedd0), f64::from_bits(0x3fe904c37505de4c))); // 0.6234898018587334, 0.7818314824680299
        let t30 = t28 + t29;
        let t31 = x4.mul_const(Cplx::new(f64::from_bits(0x3fe3f3a0e28bedd2), f64::from_bits(0xbfe904c37505de4b))); // 0.6234898018587336, -0.7818314824680298
        let t32 = t30 + t31;
        let t33 = x5.mul_const(Cplx::new(f64::from_bits(0xbfecd4bca9cb5c70), f64::from_bits(0xbfdbc4c04d71abc3))); // -0.900968867902419, -0.43388373911755823
        let t34 = t32 + t33;
        let t35 = x6.mul_const(Cplx::new(f64::from_bits(0xbfcc7b90e3024589), f64::from_bits(0x3fef329c0558e969))); // -0.2225209339563146, 0.9749279121818236
        let t36 = t34 + t35;
        let t37 = x1.mul_const(Cplx::new(f64::from_bits(0xbfecd4bca9cb5c70), f64::from_bits(0xbfdbc4c04d71abc3))); // -0.900968867902419, -0.43388373911755823
        let t38 = x0 + t37;
        let t39 = x2.mul_const(Cplx::new(f64::from_bits(0x3fe3f3a0e28bedd0), f64::from_bits(0x3fe904c37505de4c))); // 0.6234898018587334, 0.7818314824680299
        let t40 = t38 + t39;
        let t41 = x3.mul_const(Cplx::new(f64::from_bits(0xbfcc7b90e3024580), f64::from_bits(0xbfef329c0558e969))); // -0.22252093395631434, -0.9749279121818236
        let t42 = t40 + t41;
        let t43 = x4.mul_const(Cplx::new(f64::from_bits(0xbfcc7b90e3024589), f64::from_bits(0x3fef329c0558e969))); // -0.2225209339563146, 0.9749279121818236
        let t44 = t42 + t43;
        let t45 = x5.mul_const(Cplx::new(f64::from_bits(0x3fe3f3a0e28bedd2), f64::from_bits(0xbfe904c37505de4b))); // 0.6234898018587336, -0.7818314824680298
        let t46 = t44 + t45;
        let t47 = x6.mul_const(Cplx::new(f64::from_bits(0xbfecd4bca9cb5c71), f64::from_bits(0x3fdbc4c04d71abbf))); // -0.9009688679024191, 0.433883739117558
        let t48 = t46 + t47;
        let t49 = x1.mul_const(Cplx::new(f64::from_bits(0xbfecd4bca9cb5c71), f64::from_bits(0x3fdbc4c04d71abbf))); // -0.9009688679024191, 0.433883739117558
        let t50 = x0 + t49;
        let t51 = x2.mul_const(Cplx::new(f64::from_bits(0x3fe3f3a0e28bedd2), f64::from_bits(0xbfe904c37505de4b))); // 0.6234898018587336, -0.7818314824680298
        let t52 = t50 + t51;
        let t53 = x3.mul_const(Cplx::new(f64::from_bits(0xbfcc7b90e3024589), f64::from_bits(0x3fef329c0558e969))); // -0.2225209339563146, 0.9749279121818236
        let t54 = t52 + t53;
        let t55 = x4.mul_const(Cplx::new(f64::from_bits(0xbfcc7b90e3024580), f64::from_bits(0xbfef329c0558e969))); // -0.22252093395631434, -0.9749279121818236
        let t56 = t54 + t55;
        let t57 = x5.mul_const(Cplx::new(f64::from_bits(0x3fe3f3a0e28bedd0), f64::from_bits(0x3fe904c37505de4c))); // 0.6234898018587334, 0.7818314824680299
        let t58 = t56 + t57;
        let t59 = x6.mul_const(Cplx::new(f64::from_bits(0xbfecd4bca9cb5c70), f64::from_bits(0xbfdbc4c04d71abc3))); // -0.900968867902419, -0.43388373911755823
        let t60 = t58 + t59;
        let t61 = x1.mul_const(Cplx::new(f64::from_bits(0xbfcc7b90e3024589), f64::from_bits(0x3fef329c0558e969))); // -0.2225209339563146, 0.9749279121818236
        let t62 = x0 + t61;
        let t63 = x2.mul_const(Cplx::new(f64::from_bits(0xbfecd4bca9cb5c70), f64::from_bits(0xbfdbc4c04d71abc3))); // -0.900968867902419, -0.43388373911755823
        let t64 = t62 + t63;
        let t65 = x3.mul_const(Cplx::new(f64::from_bits(0x3fe3f3a0e28bedd2), f64::from_bits(0xbfe904c37505de4b))); // 0.6234898018587336, -0.7818314824680298
        let t66 = t64 + t65;
        let t67 = x4.mul_const(Cplx::new(f64::from_bits(0x3fe3f3a0e28bedd0), f64::from_bits(0x3fe904c37505de4c))); // 0.6234898018587334, 0.7818314824680299
        let t68 = t66 + t67;
        let t69 = x5.mul_const(Cplx::new(f64::from_bits(0xbfecd4bca9cb5c71), f64::from_bits(0x3fdbc4c04d71abbf))); // -0.9009688679024191, 0.433883739117558
        let t70 = t68 + t69;
        let t71 = x6.mul_const(Cplx::new(f64::from_bits(0xbfcc7b90e3024580), f64::from_bits(0xbfef329c0558e969))); // -0.22252093395631434, -0.9749279121818236
        let t72 = t70 + t71;
        let t73 = x1.mul_const(Cplx::new(f64::from_bits(0x3fe3f3a0e28bedd0), f64::from_bits(0x3fe904c37505de4c))); // 0.6234898018587334, 0.7818314824680299
        let t74 = x0 + t73;
        let t75 = x2.mul_const(Cplx::new(f64::from_bits(0xbfcc7b90e3024589), f64::from_bits(0x3fef329c0558e969))); // -0.2225209339563146, 0.9749279121818236
        let t76 = t74 + t75;
        let t77 = x3.mul_const(Cplx::new(f64::from_bits(0xbfecd4bca9cb5c71), f64::from_bits(0x3fdbc4c04d71abbf))); // -0.9009688679024191, 0.433883739117558
        let t78 = t76 + t77;
        let t79 = x4.mul_const(Cplx::new(f64::from_bits(0xbfecd4bca9cb5c70), f64::from_bits(0xbfdbc4c04d71abc3))); // -0.900968867902419, -0.43388373911755823
        let t80 = t78 + t79;
        let t81 = x5.mul_const(Cplx::new(f64::from_bits(0xbfcc7b90e3024580), f64::from_bits(0xbfef329c0558e969))); // -0.22252093395631434, -0.9749279121818236
        let t82 = t80 + t81;
        let t83 = x6.mul_const(Cplx::new(f64::from_bits(0x3fe3f3a0e28bedd2), f64::from_bits(0xbfe904c37505de4b))); // 0.6234898018587336, -0.7818314824680298
        let t84 = t82 + t83;
        *v = [t12, t24, t36, t48, t60, t72, t84];
    }
}

/// `DFT_8` on ν lanes, in place (66 flops per lane).
pub(crate) struct Dft8;

impl Kernel<8> for Dft8 {
    #[inline(always)]
    fn run<const NU: usize>(&mut self, v: &mut [Lanes<NU>; 8]) {
        let [x0, x1, x2, x3, x4, x5, x6, x7] = *v;
        let t8 = x0 + x4;
        let t9 = x0 - x4;
        let t10 = x2 + x6;
        let t11 = x2 - x6;
        let t12 = t11.mul_neg_i();
        let t13 = t8 + t10;
        let t14 = t8 - t10;
        let t15 = t9 + t12;
        let t16 = t9 - t12;
        let t17 = x1 + x5;
        let t18 = x1 - x5;
        let t19 = x3 + x7;
        let t20 = x3 - x7;
        let t21 = t20.mul_neg_i();
        let t22 = t17 + t19;
        let t23 = t17 - t19;
        let t24 = t18 + t21;
        let t25 = t18 - t21;
        let t26 = t24.mul_const(Cplx::new(f64::from_bits(0x3fe6a09e667f3bcd), f64::from_bits(0xbfe6a09e667f3bcc))); // 0.7071067811865476, -0.7071067811865475
        let t27 = t23.mul_neg_i();
        let t28 = t25.mul_const(Cplx::new(f64::from_bits(0xbfe6a09e667f3bcc), f64::from_bits(0xbfe6a09e667f3bcd))); // -0.7071067811865475, -0.7071067811865476
        let t29 = t13 + t22;
        let t30 = t13 - t22;
        let t31 = t15 + t26;
        let t32 = t15 - t26;
        let t33 = t14 + t27;
        let t34 = t14 - t27;
        let t35 = t16 + t28;
        let t36 = t16 - t28;
        *v = [t29, t31, t33, t35, t30, t32, t34, t36];
    }
}
