//! Tensor permutation.
//!
//! Contraction via TTGT (Transpose-Transpose-GEMM-Transpose) requires
//! reordering tensor axes so that contracted indices become contiguous. The
//! paper (§5.3.1) identifies permutation as a hot spot of the fused design
//! and proposes a *recursion-formula reduced map*: when a run of axes at the
//! beginning or end of the tensor keeps its relative order, only the
//! permutation of the remaining axes has to be tabulated; offsets for the
//! unchanged run follow from `map[i + k] = map[i] + k * offset`.
//!
//! The host contraction path does not permute at all — it reads operands
//! in place through the separable offset tables of
//! [`crate::kernels::view`], which take the same idea to its end (`m + k`
//! entries instead of a `2^rank` map). What remains here is the direct
//! out-of-place permutation: [`permute`] computes every target offset in
//! situ (no auxiliary table), and [`permute_to_order`] uses it to align
//! results for accumulation and as the TTGT oracle of the kernel tests.

use crate::complex::Scalar;
use crate::dense::DenseTensor;
use crate::index::{IndexId, IndexSet};

/// Validate that `perm` is a permutation of `0..rank` and return the rank.
fn check_perm(perm: &[usize], rank: usize) -> usize {
    assert_eq!(perm.len(), rank, "permutation length mismatch");
    let mut seen = vec![false; rank];
    for &p in perm {
        assert!(p < rank, "axis {p} out of range for rank {rank}");
        assert!(!seen[p], "axis {p} repeated in permutation");
        seen[p] = true;
    }
    rank
}

/// Compute, for a linear source offset, the corresponding destination offset
/// under the axis permutation `perm` (`perm[new_axis] = old_axis`).
#[inline]
fn permuted_offset(src: usize, perm: &[usize], rank: usize) -> usize {
    let mut dst = 0usize;
    for (new_axis, &old_axis) in perm.iter().enumerate() {
        let bit = (src >> (rank - 1 - old_axis)) & 1;
        dst |= bit << (rank - 1 - new_axis);
    }
    dst
}

/// Out-of-place permutation computing target offsets in situ.
///
/// `perm[new_axis] = old_axis`: the element at old multi-index `i` moves to
/// the new multi-index obtained by reading axes in the order given by `perm`.
pub fn permute<T: Scalar>(tensor: &DenseTensor<T>, perm: &[usize]) -> DenseTensor<T> {
    let rank = check_perm(perm, tensor.rank());
    let new_axes: Vec<IndexId> = perm.iter().map(|&p| tensor.indices().axes()[p]).collect();
    let mut out = DenseTensor::zeros(IndexSet::new(new_axes));
    let dst = out.data_mut();
    for (i, &v) in tensor.data().iter().enumerate() {
        dst[permuted_offset(i, perm, rank)] = v;
    }
    out
}

/// The axis permutation taking `from`'s order to `to`
/// (`perm[new_axis] = old_axis`). Both sets must hold the same indices.
///
/// # Panics
/// Panics if the ranks differ or an index of `to` is missing from `from`.
fn permutation_to_order(from: &IndexSet, to: &IndexSet) -> Vec<usize> {
    assert_eq!(from.rank(), to.rank(), "target order rank mismatch");
    to.iter()
        .map(|id| from.position(id).unwrap_or_else(|| panic!("index {id} missing from operand")))
        .collect()
}

/// Reorder a tensor so its axes appear in the order given by `target`.
///
/// Convenience wrapper used by the contraction code: computes the axis
/// permutation from the current order to `target` and applies it.
pub fn permute_to_order<T: Scalar>(tensor: &DenseTensor<T>, target: &IndexSet) -> DenseTensor<T> {
    permute(tensor, &permutation_to_order(tensor.indices(), target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, Complex64};

    fn iota(axes: Vec<IndexId>) -> DenseTensor<Complex64> {
        let idx = IndexSet::new(axes);
        let data = (0..idx.len()).map(|i| c64(i as f64, 0.0)).collect();
        DenseTensor::from_data(idx, data)
    }

    #[test]
    fn identity_permutation_is_noop() {
        let t = iota(vec![0, 1, 2]);
        let p = permute(&t, &[0, 1, 2]);
        assert_eq!(p, t);
    }

    #[test]
    fn transpose_rank2() {
        let t = iota(vec![0, 1]);
        let p = permute(&t, &[1, 0]);
        assert_eq!(p.indices().axes(), &[1, 0]);
        // [[0,1],[2,3]] transposed -> [[0,2],[1,3]]
        assert_eq!(p.data(), &[c64(0.0, 0.0), c64(2.0, 0.0), c64(1.0, 0.0), c64(3.0, 0.0)]);
    }

    #[test]
    fn rank3_cycle() {
        let t = iota(vec![0, 1, 2]);
        let p = permute(&t, &[2, 0, 1]); // new axes = (old2, old0, old1)
        for a in 0..2u8 {
            for b in 0..2u8 {
                for c in 0..2u8 {
                    assert_eq!(p.get(&[c, a, b]), t.get(&[a, b, c]));
                }
            }
        }
    }

    #[test]
    fn permute_to_order_matches_permute() {
        let t = iota(vec![3, 5, 9]);
        let target = IndexSet::new(vec![9, 3, 5]);
        let p = permute_to_order(&t, &target);
        assert_eq!(p.indices(), &target);
        for a in 0..2u8 {
            for b in 0..2u8 {
                for c in 0..2u8 {
                    assert_eq!(p.get(&[c, a, b]), t.get(&[a, b, c]));
                }
            }
        }
    }

    #[test]
    fn double_permutation_roundtrip() {
        let t = iota(vec![0, 1, 2, 3, 4]);
        let perm = [4, 2, 0, 3, 1];
        let mut inverse = vec![0usize; 5];
        for (new, &old) in perm.iter().enumerate() {
            inverse[old] = new;
        }
        let there = permute(&t, &perm);
        let back = permute(&there, &inverse);
        assert_eq!(back, t);
    }

    #[test]
    #[should_panic(expected = "repeated in permutation")]
    fn invalid_permutation_panics() {
        let t = iota(vec![0, 1]);
        permute(&t, &[0, 0]);
    }
}
