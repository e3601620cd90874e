//! Complex scalar types.
//!
//! The simulator needs both single precision (the paper reports
//! single-precision sustained performance) and double precision (for
//! verification against the state-vector reference). Both are thin
//! `#[repr(C)]` structs so slices of them can be reinterpreted as interleaved
//! real/imaginary arrays by the GEMM micro-kernels.

use crate::kernels::{Layout, MatRef, SimdLevel, SimdSupport};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Trait abstracting over the real component types (`f32` / `f64`).
///
/// The split-real packed GEMM kernels operate on planes of this type rather
/// than on interleaved complex values, so the arithmetic they need is
/// captured here once instead of being duplicated per precision.
pub trait RealScalar:
    Copy
    + Send
    + Sync
    + PartialEq
    + PartialOrd
    + fmt::Debug
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + Into<f64>
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
}

impl RealScalar for f32 {
    const ZERO: Self = 0.0;
}

impl RealScalar for f64 {
    const ZERO: Self = 0.0;
}

/// Trait abstracting over the two complex precisions used by the simulator.
///
/// It intentionally exposes only what the kernels need: ring arithmetic,
/// conjugation, norms, conversions — plus the hooks the [`crate::kernels`]
/// dispatcher uses to reach the per-precision SIMD GEMM paths.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + PartialEq
    + fmt::Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Neg<Output = Self>
    + Sum
    + 'static
{
    /// The underlying real type (`f32` or `f64`).
    type Real: RealScalar;

    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Build from real and imaginary parts given as `f64`.
    fn new(re: f64, im: f64) -> Self;
    /// Real part as `f64`.
    fn re(&self) -> f64;
    /// Imaginary part as `f64`.
    fn im(&self) -> f64;
    /// Complex conjugate.
    fn conj(&self) -> Self;
    /// Squared modulus `|z|^2` as `f64`.
    fn norm_sqr(&self) -> f64 {
        self.re() * self.re() + self.im() * self.im()
    }
    /// Modulus `|z|` as `f64`.
    fn abs(&self) -> f64 {
        self.norm_sqr().sqrt()
    }
    /// Fused multiply-add: `self + a * b`.
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self + a * b
    }

    /// Real part in the native precision (no widening to `f64`).
    fn re_native(&self) -> Self::Real;
    /// Imaginary part in the native precision (no widening to `f64`).
    fn im_native(&self) -> Self::Real;
    /// Build from native-precision real and imaginary parts.
    fn from_parts(re: Self::Real, im: Self::Real) -> Self;

    /// Which GEMM dispatch classes this type accelerates at `level`.
    ///
    /// The default claims nothing, so exotic scalar implementations fall back
    /// to the scalar kernels everywhere. [`crate::kernels::KernelPlan`]
    /// consults this once per dispatch decision, which keeps the executed
    /// path a pure function of `(shape, level, type)` — deterministic per
    /// process.
    #[inline]
    fn simd_support(level: SimdLevel) -> SimdSupport {
        let _ = level;
        SimdSupport::default()
    }

    /// Micro-kernel on the type's SIMD path. Called only for micro shapes
    /// and only when [`Scalar::simd_support`] reports `micro`; the default
    /// falls back to the unrolled scalar micro-kernel.
    #[inline]
    fn gemm_micro_simd<L: Layout>(
        level: SimdLevel,
        a: MatRef<'_, Self, L>,
        b: MatRef<'_, Self, L>,
        c: &mut [Self],
    ) {
        let _ = level;
        crate::kernels::micro::run_scalar(a, b, c);
    }

    /// Narrow-shape kernel on the type's SIMD path. Called only when
    /// [`Scalar::simd_support`] reports `narrow`; the default falls back to
    /// the scalar streaming kernel. With `overwrite` the prior contents of
    /// `c` are ignored (`C = A·B`) instead of accumulated into.
    #[inline]
    fn gemm_narrow_simd<L: Layout>(
        level: SimdLevel,
        a: MatRef<'_, Self, L>,
        b: MatRef<'_, Self, L>,
        c: &mut [Self],
        overwrite: bool,
    ) {
        let _ = level;
        if overwrite {
            c.fill(Self::zero());
        }
        crate::gemm::gemm_narrow(a, b, c);
    }

    /// Packed/blocked kernel on the type's SIMD path. Called only when
    /// [`Scalar::simd_support`] reports `blocked`; the default falls back to
    /// the scalar cache-blocked kernel.
    #[inline]
    fn gemm_blocked_simd<L: Layout>(
        level: SimdLevel,
        a: MatRef<'_, Self, L>,
        b: MatRef<'_, Self, L>,
        c: &mut [Self],
    ) {
        let _ = level;
        crate::gemm::gemm(a, b, c);
    }
}

macro_rules! impl_complex {
    ($name:ident, $real:ty, $ctor:ident, $simd:ident) => {
        /// A complex number stored as interleaved real/imaginary parts.
        #[derive(Clone, Copy, PartialEq, Default)]
        #[repr(C)]
        pub struct $name {
            /// Real component.
            pub re: $real,
            /// Imaginary component.
            pub im: $real,
        }

        /// Shorthand constructor.
        #[inline(always)]
        pub const fn $ctor(re: $real, im: $real) -> $name {
            $name { re, im }
        }

        impl $name {
            /// Zero.
            pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
            /// One.
            pub const ONE: Self = Self { re: 1.0, im: 0.0 };
            /// The imaginary unit.
            pub const I: Self = Self { re: 0.0, im: 1.0 };

            /// Create a new complex number.
            #[inline(always)]
            pub const fn new(re: $real, im: $real) -> Self {
                Self { re, im }
            }

            /// Complex conjugate.
            #[inline(always)]
            pub fn conj(self) -> Self {
                Self { re: self.re, im: -self.im }
            }

            /// Squared modulus.
            #[inline(always)]
            pub fn norm_sqr(self) -> $real {
                self.re * self.re + self.im * self.im
            }

            /// Modulus.
            #[inline(always)]
            pub fn abs(self) -> $real {
                self.norm_sqr().sqrt()
            }

            /// Scale by a real factor.
            #[inline(always)]
            pub fn scale(self, s: $real) -> Self {
                Self { re: self.re * s, im: self.im * s }
            }

            /// `e^{i theta}` on the unit circle.
            #[inline]
            pub fn from_polar(r: $real, theta: $real) -> Self {
                Self { re: r * theta.cos(), im: r * theta.sin() }
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline(always)]
            fn add(self, rhs: Self) -> Self {
                Self { re: self.re + rhs.re, im: self.im + rhs.im }
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline(always)]
            fn sub(self, rhs: Self) -> Self {
                Self { re: self.re - rhs.re, im: self.im - rhs.im }
            }
        }

        impl Mul for $name {
            type Output = Self;
            #[inline(always)]
            fn mul(self, rhs: Self) -> Self {
                Self {
                    re: self.re * rhs.re - self.im * rhs.im,
                    im: self.re * rhs.im + self.im * rhs.re,
                }
            }
        }

        impl Div for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: Self) -> Self {
                let d = rhs.norm_sqr();
                Self {
                    re: (self.re * rhs.re + self.im * rhs.im) / d,
                    im: (self.im * rhs.re - self.re * rhs.im) / d,
                }
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline(always)]
            fn neg(self) -> Self {
                Self { re: -self.re, im: -self.im }
            }
        }

        impl AddAssign for $name {
            #[inline(always)]
            fn add_assign(&mut self, rhs: Self) {
                self.re += rhs.re;
                self.im += rhs.im;
            }
        }

        impl SubAssign for $name {
            #[inline(always)]
            fn sub_assign(&mut self, rhs: Self) {
                self.re -= rhs.re;
                self.im -= rhs.im;
            }
        }

        impl MulAssign for $name {
            #[inline(always)]
            fn mul_assign(&mut self, rhs: Self) {
                *self = *self * rhs;
            }
        }

        impl Mul<$real> for $name {
            type Output = Self;
            #[inline(always)]
            fn mul(self, rhs: $real) -> Self {
                self.scale(rhs)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |a, b| a + b)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "({}{:+}i)", self.re, self.im)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{:+}i", self.re, self.im)
            }
        }

        impl Scalar for $name {
            type Real = $real;

            #[inline(always)]
            fn zero() -> Self {
                Self::ZERO
            }
            #[inline(always)]
            fn one() -> Self {
                Self::ONE
            }
            #[inline(always)]
            fn new(re: f64, im: f64) -> Self {
                Self { re: re as $real, im: im as $real }
            }
            #[inline(always)]
            fn re(&self) -> f64 {
                self.re as f64
            }
            #[inline(always)]
            fn im(&self) -> f64 {
                self.im as f64
            }
            #[inline(always)]
            fn conj(&self) -> Self {
                $name::conj(*self)
            }
            #[inline(always)]
            fn re_native(&self) -> $real {
                self.re
            }
            #[inline(always)]
            fn im_native(&self) -> $real {
                self.im
            }
            #[inline(always)]
            fn from_parts(re: $real, im: $real) -> Self {
                Self { re, im }
            }
            #[inline(always)]
            fn simd_support(level: SimdLevel) -> SimdSupport {
                crate::kernels::simd::$simd::support(level)
            }
            #[inline(always)]
            fn gemm_micro_simd<L: Layout>(
                level: SimdLevel,
                a: MatRef<'_, Self, L>,
                b: MatRef<'_, Self, L>,
                c: &mut [Self],
            ) {
                crate::kernels::simd::$simd::micro(level, a, b, c)
            }
            #[inline(always)]
            fn gemm_narrow_simd<L: Layout>(
                level: SimdLevel,
                a: MatRef<'_, Self, L>,
                b: MatRef<'_, Self, L>,
                c: &mut [Self],
                overwrite: bool,
            ) {
                crate::kernels::simd::$simd::narrow(level, a, b, c, overwrite)
            }
            #[inline(always)]
            fn gemm_blocked_simd<L: Layout>(
                level: SimdLevel,
                a: MatRef<'_, Self, L>,
                b: MatRef<'_, Self, L>,
                c: &mut [Self],
            ) {
                crate::kernels::simd::$simd::blocked(level, a, b, c)
            }
        }
    };
}

impl_complex!(Complex64, f64, c64, c64_simd);
impl_complex!(Complex32, f32, c32, c32_simd);

impl From<Complex32> for Complex64 {
    fn from(z: Complex32) -> Self {
        Complex64::new(z.re as f64, z.im as f64)
    }
}

impl From<Complex64> for Complex32 {
    fn from(z: Complex64) -> Self {
        Complex32::new(z.re as f32, z.im as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let a = c64(1.5, -2.0);
        let b = c64(-0.25, 3.0);
        assert!(close(a + b - b, a));
        assert!(close(a * Complex64::ONE, a));
        assert!(close(a * Complex64::ZERO, Complex64::ZERO));
        assert!(close(a * b / b, a));
        assert!(close(-(-a), a));
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = c64(2.0, 3.0);
        let b = c64(4.0, -5.0);
        // (2+3i)(4-5i) = 8 -10i +12i +15 = 23 + 2i
        assert!(close(a * b, c64(23.0, 2.0)));
    }

    #[test]
    fn conjugation_and_norm() {
        let a = c64(3.0, 4.0);
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        assert!(close(a * a.conj(), c64(25.0, 0.0)));
    }

    #[test]
    fn polar_construction() {
        let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
        assert!((z.re).abs() < 1e-12);
        assert!((z.im - 2.0).abs() < 1e-12);
    }

    #[test]
    fn assign_ops() {
        let mut a = c64(1.0, 1.0);
        a += c64(2.0, -1.0);
        assert!(close(a, c64(3.0, 0.0)));
        a -= c64(1.0, 0.0);
        assert!(close(a, c64(2.0, 0.0)));
        a *= c64(0.0, 1.0);
        assert!(close(a, c64(0.0, 2.0)));
    }

    #[test]
    fn sum_iterator() {
        let total: Complex64 = (0..10).map(|i| c64(i as f64, -(i as f64))).sum();
        assert!(close(total, c64(45.0, -45.0)));
    }

    #[test]
    fn single_precision_roundtrip() {
        let z64 = c64(0.5, -0.75);
        let z32: Complex32 = z64.into();
        let back: Complex64 = z32.into();
        assert!(close(back, z64));
    }

    #[test]
    fn scalar_trait_generic_sum() {
        fn kahan_like<T: Scalar>(xs: &[T]) -> T {
            let mut acc = T::zero();
            for &x in xs {
                acc += x;
            }
            acc
        }
        let xs = [c32(1.0, 0.0), c32(2.0, 1.0), c32(-1.0, -1.0)];
        let s = kahan_like(&xs);
        assert_eq!(s, c32(2.0, 0.0));
    }

    #[test]
    fn imaginary_unit_squares_to_minus_one() {
        assert!(close(Complex64::I * Complex64::I, c64(-1.0, 0.0)));
    }
}
