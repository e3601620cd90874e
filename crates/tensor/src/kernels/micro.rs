//! Fully unrolled rank-k micro-kernels for the bond-dimension-2 hot shapes.
//!
//! With every bond dimension equal to 2, the GEMM shapes near the leaves of
//! a contraction tree are tiny powers of two; the 27 shapes with
//! `m`/`n` ∈ {1, 2, 4} and `k` ∈ {2, 4, 8} dominate the dispatch histogram
//! of real plans. Each gets a const-generic kernel whose three loops have
//! compile-time trip counts, so the optimizer fully unrolls them and keeps
//! the whole accumulator set in registers — no loop control. Operands are
//! read through [`MatRef`] views: for dense slices the offsets fold to
//! constants, for a contraction's offset tables each is one small-table
//! load, and in neither case is an operand copied first.
//!
//! The scalar instantiation iterates `i, j, p` exactly like
//! [`crate::gemm::gemm_reference`], making it **bit-identical** to the
//! reference kernel. The AVX2+FMA twin (x86_64) compiles the same bodies
//! under `#[target_feature]`, which licenses fused multiply-adds — same
//! summation order, last-bit rounding may differ (bounded by the
//! conformance suite's ulp budget).

use super::view::{Layout, MatRef};
use crate::complex::Scalar;

/// True if `(m, n, k)` has a dedicated fully unrolled kernel.
#[inline(always)]
pub(crate) fn is_micro_shape(m: usize, n: usize, k: usize) -> bool {
    matches!(m, 1 | 2 | 4) && matches!(n, 1 | 2 | 4) && matches!(k, 2 | 4 | 8)
}

/// Copy an `R x C` operand out of its view: a row at a time where rows are
/// contiguous in memory, element by element (unrolled) where they are not.
#[inline(always)]
fn fetch<T: Scalar, L: Layout, const R: usize, const C: usize>(m: MatRef<'_, T, L>) -> [[T; C]; R] {
    let mut local = [[T::zero(); C]; R];
    let whole_rows = m.layout().col_run() >= C;
    for (r, row) in local.iter_mut().enumerate() {
        if whole_rows {
            m.for_each_run(r, 0, C, |_, run| row.copy_from_slice(run));
        } else {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = m.at(r, c);
            }
        }
    }
    local
}

/// One unrolled kernel: `C += A * B` with compile-time shape. Summation
/// order (`p` innermost, ascending) matches `gemm_reference`.
#[inline(always)]
fn kernel<T: Scalar, L: Layout, const M: usize, const N: usize, const K: usize>(
    a: MatRef<'_, T, L>,
    b: MatRef<'_, T, L>,
    c: &mut [T],
) {
    // Fetch each operand once, a contiguous stretch at a time; the unrolled
    // triple loop below then runs on locals.
    let (a, b) = (fetch::<T, L, M, K>(a), fetch::<T, L, K, N>(b));
    let c = &mut c[..M * N];
    for i in 0..M {
        for j in 0..N {
            let mut acc = T::zero();
            for p in 0..K {
                acc += a[i][p] * b[p][j];
            }
            c[i * N + j] += acc;
        }
    }
}

macro_rules! for_each_micro_shape {
    ($mac:ident) => {
        $mac!(1, 1, 2);
        $mac!(1, 1, 4);
        $mac!(1, 1, 8);
        $mac!(1, 2, 2);
        $mac!(1, 2, 4);
        $mac!(1, 2, 8);
        $mac!(1, 4, 2);
        $mac!(1, 4, 4);
        $mac!(1, 4, 8);
        $mac!(2, 1, 2);
        $mac!(2, 1, 4);
        $mac!(2, 1, 8);
        $mac!(2, 2, 2);
        $mac!(2, 2, 4);
        $mac!(2, 2, 8);
        $mac!(2, 4, 2);
        $mac!(2, 4, 4);
        $mac!(2, 4, 8);
        $mac!(4, 1, 2);
        $mac!(4, 1, 4);
        $mac!(4, 1, 8);
        $mac!(4, 2, 2);
        $mac!(4, 2, 4);
        $mac!(4, 2, 8);
        $mac!(4, 4, 2);
        $mac!(4, 4, 4);
        $mac!(4, 4, 8);
    };
}

/// Dispatch to the unrolled kernel for a micro shape.
///
/// `#[inline(always)]` so the `#[target_feature]` twin in
/// [`super::simd`] inlines the whole table (and all 27 kernels) into its
/// AVX2+FMA compilation context.
///
/// # Panics
/// If `(m, n, k)` is not a micro shape.
#[inline(always)]
pub(crate) fn run_scalar<T: Scalar, L: Layout>(
    a: MatRef<'_, T, L>,
    b: MatRef<'_, T, L>,
    c: &mut [T],
) {
    let (m, n, k) = crate::gemm::shape_of(&a, &b, c);
    macro_rules! arm {
        ($m:literal, $n:literal, $k:literal) => {
            if m == $m && n == $n && k == $k {
                return kernel::<T, L, $m, $n, $k>(a, b, c);
            }
        };
    }
    for_each_micro_shape!(arm);
    panic!("({m}, {n}, {k}) is not a micro shape");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, Complex64};
    use crate::gemm::gemm_reference;

    #[test]
    fn micro_shape_predicate() {
        assert!(is_micro_shape(1, 1, 2));
        assert!(is_micro_shape(4, 4, 8));
        assert!(is_micro_shape(2, 4, 4));
        assert!(!is_micro_shape(8, 4, 4)); // m = 8 not covered
        assert!(!is_micro_shape(4, 4, 16)); // k = 16 not covered
        assert!(!is_micro_shape(3, 2, 2)); // non-power-of-two
        assert!(!is_micro_shape(0, 1, 2)); // degenerate
        assert!(!is_micro_shape(2, 2, 1)); // k = 1 not covered
    }

    #[test]
    fn scalar_micro_is_bit_identical_to_reference() {
        for m in [1usize, 2, 4] {
            for n in [1usize, 2, 4] {
                for k in [2usize, 4, 8] {
                    let a: Vec<Complex64> =
                        (0..m * k).map(|t| c64(0.37 * t as f64 - 1.0, 0.11 * t as f64)).collect();
                    let b: Vec<Complex64> =
                        (0..k * n).map(|t| c64(-0.23 * t as f64, 0.71 - 0.05 * t as f64)).collect();
                    let dirty = c64(3.25, -1.5);
                    let mut c_ref = vec![dirty; m * n];
                    let mut c_micro = vec![dirty; m * n];
                    gemm_reference(&a, &b, &mut c_ref, m, n, k);
                    run_scalar(MatRef::dense(&a, m, k), MatRef::dense(&b, k, n), &mut c_micro);
                    assert_eq!(c_micro, c_ref, "micro {m}x{n}x{k} must match reference bitwise");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a micro shape")]
    fn non_micro_shape_panics() {
        let a = vec![Complex64::ZERO; 3 * 2];
        let b = vec![Complex64::ZERO; 2 * 3];
        let mut c = vec![Complex64::ZERO; 9];
        run_scalar(MatRef::dense(&a, 3, 2), MatRef::dense(&b, 2, 3), &mut c);
    }
}
