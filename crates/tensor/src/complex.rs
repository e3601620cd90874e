//! The complex scalar type.
//!
//! Every amplitude, tensor and GEMM operand in the simulator is a
//! [`Complex64`]: a `#[repr(C)]` pair of `f64`s, so slices of it can be
//! read as interleaved real/imaginary arrays by the SIMD kernels and split
//! into real and imaginary planes by the packed GEMM driver.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// What the generic tensor code needs of an element type: ring
/// arithmetic, a zero and a squared modulus. [`DenseTensor`], permutation
/// and the scalar GEMM bodies are written against it; [`Complex64`] is the
/// one implementation.
///
/// [`DenseTensor`]: crate::DenseTensor
pub trait Scalar:
    Copy
    + Send
    + Sync
    + PartialEq
    + fmt::Debug
    + Add<Output = Self>
    + Mul<Output = Self>
    + AddAssign
    + MulAssign
    + 'static
{
    /// Additive identity.
    fn zero() -> Self;
    /// Squared modulus `|z|^2` as `f64`.
    fn norm_sqr(&self) -> f64;
}

/// A complex number stored as interleaved real/imaginary parts.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real component.
    pub re: f64,
    /// Imaginary component.
    pub im: f64,
}

/// Shorthand constructor.
#[inline(always)]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// Zero.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Self = Self { re: 0.0, im: 1.0 };

    /// Create a new complex number.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Self { re: self.re, im: -self.im }
    }

    /// Squared modulus.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus.
    #[inline(always)]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scale by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        Self { re: self.re * s, im: self.im * s }
    }

    /// `r e^{i theta}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self { re: r * theta.cos(), im: r * theta.sin() }
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

impl Div for Complex64 {
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

impl Neg for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self { re: -self.re, im: -self.im }
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}{:+}i)", self.re, self.im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

impl Scalar for Complex64 {
    #[inline(always)]
    fn zero() -> Self {
        Self::ZERO
    }
    #[inline(always)]
    fn norm_sqr(&self) -> f64 {
        Complex64::norm_sqr(*self)
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
    fn scalar_trait_generic_sum() {
        fn kahan_like<T: Scalar>(xs: &[T]) -> T {
            let mut acc = T::zero();
            for &x in xs {
                acc += x;
            }
            acc
        }
        let xs = [c64(1.0, 0.0), c64(2.0, 1.0), c64(-1.0, -1.0)];
        let s = kahan_like(&xs);
        assert_eq!(s, c64(2.0, 0.0));
    }

    #[test]
    fn imaginary_unit_squares_to_minus_one() {
        assert!(close(Complex64::I * Complex64::I, c64(-1.0, 0.0)));
    }
}
