//! Complex matrix multiplication kernels — the scalar reference set.
//!
//! A contraction is one GEMM (`C += A * B`) whose operands are read **in
//! place** through [`MatRef`] views (see [`crate::kernels::view`]): dense
//! row-major slices and the regrouped-axes tables of a compiled contraction
//! are the same code path. This module holds the portable scalar kernels,
//! mirroring the discussion in §5.1 of the paper:
//!
//! * [`gemm_narrow`] — a plain streaming loop for the *narrow* shapes (two
//!   of `m`, `n`, `k` ≤ 16) that dominate quantum-circuit contractions.
//!   The paper calls these bandwidth-bound, and on its machine they are;
//!   measured on an AVX2 host they are not — the streaming loop reaches
//!   3.5–7 Gflop/s where the register-blocked AVX2 tile of
//!   [`crate::kernels`] reaches 2–4x that on the same operands, so this
//!   body is the *reference*, not the production path, wherever a SIMD
//!   level is available;
//! * [`gemv_row`] / [`gemv_col`] — the degenerate `m == 1` / `n == 1`
//!   products;
//! * [`gemm_reference`] — the naive triple loop on dense slices every other
//!   path is conformance-tested against
//!   (`crates/tensor/tests/gemm_conformance.rs`).
//!
//! [`crate::KernelPlan::select`] is the [`crate::kernels`] dispatcher: it
//! picks a shape class (including the fully unrolled
//! micro-kernels) and a SIMD level via the one-time hardware probe. The
//! scalar kernels here are both the reference oracle and the forced path
//! under `QTNSIM_FORCE_SCALAR` / [`crate::kernels::set_simd_override`];
//! they contain no intrinsics and are generic over the view, so they also
//! serve every target without a hand-written tile. Square-ish shapes have
//! no kernel here: the blocked class's scalar path is the portable
//! split-real packed driver in `kernels/packed.rs`, the same body NEON
//! runs, and on AVX2+FMA they run the narrow class's register tile.
//!
//! # Accumulation contract
//!
//! **Every** kernel — scalar, micro, SIMD — accumulates into `C` (computes
//! `C += A * B`) and never reads `C` beyond that. Callers zero `C` when a
//! plain product is wanted; accumulation is exactly what slice subtask
//! reduction needs. The conformance suite runs each path against a dirty
//! `C` to pin this contract. For a fixed output element every kernel adds
//! its `k` terms in ascending `p`, whatever the view, so a result never
//! depends on how the operands happen to be laid out.

use crate::complex::Scalar;
use crate::kernels::{Layout, MatRef};

/// Threshold below which a dimension counts as "narrow" (paper: two of
/// m, n, k less than 16 make GEMM bandwidth bound).
const NARROW_DIM: usize = 16;

/// Count of real floating point operations for a complex GEMM of the given
/// shape: each complex multiply-add is 8 real flops (4 mul + 4 add).
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    8 * (m as u64) * (n as u64) * (k as u64)
}

/// Returns true if this shape should use the narrow-matrix path.
pub(crate) fn is_narrow(m: usize, n: usize, k: usize) -> bool {
    let mut small = 0;
    for d in [m, n, k] {
        if d <= NARROW_DIM {
            small += 1;
        }
    }
    small >= 2
}

/// The GEMM shape `(m, n, k)` two views and an output imply.
///
/// # Panics
/// If `A`'s columns differ from `B`'s rows or `C` is not `m * n` long.
#[inline(always)]
pub(crate) fn shape_of<T: Copy, L: Layout>(
    a: &MatRef<'_, T, L>,
    b: &MatRef<'_, T, L>,
    c: &[T],
) -> (usize, usize, usize) {
    let (m, n, k) = (a.rows(), b.cols(), a.cols());
    assert_eq!(b.rows(), k, "A's columns differ from B's rows");
    assert_eq!(c.len(), m * n, "C has wrong length");
    (m, n, k)
}

/// `C += a · B` for a row vector `a` of length `k`, `B` of shape `k x n`:
/// the `m == 1` GEMM. One streaming axpy per row of `B` — no tile
/// bookkeeping.
pub fn gemv_row<T: Scalar, L: Layout>(a: MatRef<'_, T, L>, b: MatRef<'_, T, L>, c: &mut [T]) {
    let (m, n, k) = shape_of(&a, &b, c);
    assert_eq!(m, 1, "gemv_row needs m == 1");
    for p in 0..k {
        let a_p = a.at(0, p);
        b.for_each_run(p, 0, n, |j, b_run| {
            for (c_j, &b_pj) in c[j..].iter_mut().zip(b_run) {
                *c_j += a_p * b_pj;
            }
        });
    }
}

/// `C += A · b` for `A` of shape `m x k` and a column vector `b` of length
/// `k`: the `n == 1` GEMM. One register-accumulated dot product per row of
/// `A` — `C[i]` is loaded and stored once instead of once per `k` term.
pub fn gemv_col<T: Scalar, L: Layout>(a: MatRef<'_, T, L>, b: MatRef<'_, T, L>, c: &mut [T]) {
    let (_, n, k) = shape_of(&a, &b, c);
    assert_eq!(n, 1, "gemv_col needs n == 1");
    for (i, c_i) in c.iter_mut().enumerate() {
        let mut acc = T::zero();
        for p in 0..k {
            acc += a.at(i, p) * b.at(p, 0);
        }
        *c_i += acc;
    }
}

fn check_shapes<T>(a: &[T], b: &[T], c: &[T], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * k, "A has wrong length");
    assert_eq!(b.len(), k * n, "B has wrong length");
    assert_eq!(c.len(), m * n, "C has wrong length");
}

/// Streaming kernel for narrow shapes: plain triple loop ordered for
/// sequential access of `C`.
pub fn gemm_narrow<T: Scalar, L: Layout>(a: MatRef<'_, T, L>, b: MatRef<'_, T, L>, c: &mut [T]) {
    let (m, n, k) = shape_of(&a, &b, c);
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let a_ip = a.at(i, p);
            b.for_each_run(p, 0, n, |j, b_run| {
                for (c_ij, &b_pj) in c_row[j..].iter_mut().zip(b_run) {
                    *c_ij += a_ip * b_pj;
                }
            });
        }
    }
}

/// Reference kernel (naive triple loop) used by tests and kept public so the
/// benchmark harness can measure the speedup of the optimised paths.
pub fn gemm_reference<T: Scalar>(a: &[T], b: &[T], c: &mut [T], m: usize, n: usize, k: usize) {
    check_shapes(a, b, c, m, n, k);
    for i in 0..m {
        for j in 0..n {
            let mut acc = T::zero();
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] += acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, Complex64};
    use crate::kernels::{DispatchClass, KernelPlan, SimdLevel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, len: usize) -> Vec<Complex64> {
        (0..len).map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    fn assert_close(a: &[Complex64], b: &[Complex64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((*x - *y).abs() < 1e-9, "mismatch: {x:?} vs {y:?}");
        }
    }

    fn check_against_reference(m: usize, n: usize, k: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m * k);
        let b = random_matrix(&mut rng, k * n);
        let mut c_ref = vec![Complex64::ZERO; m * n];
        let mut c_blk = vec![Complex64::ZERO; m * n];
        let mut c_nar = vec![Complex64::ZERO; m * n];
        let mut c_auto = vec![Complex64::ZERO; m * n];
        gemm_reference(&a, &b, &mut c_ref, m, n, k);
        let (va, vb) = (MatRef::dense(&a, m, k), MatRef::dense(&b, k, n));
        let blocked = KernelPlan::forced(DispatchClass::Blocked, SimdLevel::Scalar);
        blocked.apply(&a, &b, &mut c_blk, m, n, k);
        gemm_narrow(va, vb, &mut c_nar);
        KernelPlan::select(m, n, k).apply(&a, &b, &mut c_auto, m, n, k);
        assert_close(&c_blk, &c_ref);
        assert_close(&c_nar, &c_ref);
        assert_close(&c_auto, &c_ref);
        if m == 1 {
            let mut c_row = vec![Complex64::ZERO; n];
            gemv_row(va, vb, &mut c_row);
            assert_close(&c_row, &c_ref);
        }
        if n == 1 {
            let mut c_col = vec![Complex64::ZERO; m];
            gemv_col(va, vb, &mut c_col);
            assert_close(&c_col, &c_ref);
        }
    }

    #[test]
    fn small_square() {
        check_against_reference(8, 8, 8, 1);
    }

    #[test]
    fn non_multiple_of_tile() {
        check_against_reference(7, 5, 9, 2);
        check_against_reference(13, 17, 3, 3);
    }

    #[test]
    fn larger_than_block() {
        check_against_reference(96, 80, 72, 4);
    }

    #[test]
    fn narrow_shapes() {
        check_against_reference(128, 4, 2, 5);
        check_against_reference(2, 256, 4, 6);
        check_against_reference(1, 1, 1024, 7);
    }

    #[test]
    fn gemv_shapes() {
        // m == 1: row-vector times matrix, across small and large n/k.
        check_against_reference(1, 4, 8, 10);
        check_against_reference(1, 256, 64, 11);
        check_against_reference(1, 64, 1, 12);
        // n == 1: matrix times column vector.
        check_against_reference(4, 1, 8, 13);
        check_against_reference(256, 1, 64, 14);
        check_against_reference(64, 1, 1, 15);
        // Degenerate dot product takes the row path.
        check_against_reference(1, 1, 512, 16);
    }

    #[test]
    fn gemv_accumulates_into_c() {
        let a = vec![Complex64::ONE; 3];
        let b = vec![c64(2.0, 0.0); 3];
        let mut c = vec![c64(1.0, 0.0)];
        gemv_row(MatRef::dense(&a, 1, 3), MatRef::dense(&b, 3, 1), &mut c);
        assert_eq!(c[0], c64(7.0, 0.0)); // 1 + 3·2
        let mut c = vec![c64(1.0, 0.0)];
        gemv_col(MatRef::dense(&a, 1, 3), MatRef::dense(&b, 3, 1), &mut c);
        assert_eq!(c[0], c64(7.0, 0.0));
    }

    #[test]
    fn degenerate_dims() {
        check_against_reference(1, 1, 1, 8);
        check_against_reference(1, 64, 64, 9);
    }

    #[test]
    fn accumulation_semantics() {
        let a = vec![Complex64::ONE; 4]; // 2x2 ones
        let b = vec![Complex64::ONE; 4];
        let mut c = vec![c64(1.0, 0.0); 4];
        KernelPlan::select(2, 2, 2).apply(&a, &b, &mut c, 2, 2, 2);
        // C was 1 everywhere, A*B = 2 everywhere -> 3.
        for &v in &c {
            assert_eq!(v, c64(3.0, 0.0));
        }
    }

    #[test]
    fn narrow_detection() {
        assert!(is_narrow(1024, 4, 2));
        assert!(is_narrow(8, 8, 1024));
        assert!(!is_narrow(64, 64, 64));
        assert!(!is_narrow(1024, 17, 1024));
    }

    #[test]
    fn flop_count() {
        assert_eq!(gemm_flops(2, 3, 4), 8 * 24);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }
}
