//! Tensor permutation kernels.
//!
//! Contraction via TTGT (Transpose-Transpose-GEMM-Transpose) requires
//! reordering tensor axes so that contracted indices become contiguous. The
//! paper (§5.3.1) identifies permutation as a hot spot of the fused design
//! and proposes a *recursion-formula reduced map*: when a run of axes at the
//! beginning or end of the tensor keeps its relative order, only the
//! permutation of the remaining axes has to be tabulated; offsets for the
//! unchanged run follow from `map[i + k] = map[i] + k * offset`.
//!
//! The host contraction path no longer permutes at all — it reads operands
//! in place through the separable offset tables of
//! [`crate::kernels::view`], which take the same idea to its end (`m + k`
//! entries instead of a `2^rank` map). What remains here aligns results
//! for accumulation ([`permute_to_order`]) and backs `qtn-fused`'s model
//! of the Sunway kernel's permutation maps.
//!
//! Three strategies are provided:
//! * [`permute`] — direct in-situ computation of target offsets (no
//!   auxiliary table, `O(N log N)` work);
//! * [`PermutePlan::full`] — a precomputed map (`O(N)` reuse cost, `O(N)`
//!   memory);
//! * [`PermutePlan::reduced`] — the paper's reduced map, shrinking the table
//!   by `2^m` where `m` is the number of trailing axes that stay contiguous.

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
pub fn permutation_to_order(from: &IndexSet, to: &IndexSet) -> Vec<usize> {
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

/// How a [`PermutePlan`] stores its offset table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapKind {
    /// One destination offset per source element (`2^rank` entries).
    Full,
    /// Reduced map exploiting `m` trailing axes whose relative order is
    /// unchanged: only `2^(rank-m)` entries are stored, the rest follows
    /// from the recursion formula `map[i + k] = map[i] + k * offset`.
    Reduced {
        /// Number of trailing source axes kept contiguous.
        trailing: usize,
    },
    /// Reduced map exploiting `m` leading axes that do not participate in
    /// the permutation (the paper's example for operand `A`, where "the
    /// first 3 dimensions will not participate in the permutation, so only
    /// a 1/8 map is enough"): only `2^(rank-m)` entries are stored and the
    /// leading-block offset is added back with the recursion formula.
    ReducedLeading {
        /// Number of leading source axes left in place.
        leading: usize,
    },
}

/// A reusable permutation plan (precomputed or reduced map).
///
/// Build once per (rank, permutation) pair and apply to many tensors; the
/// fused executor reuses plans across all subtasks of a slice assignment.
#[derive(Debug, Clone)]
pub struct PermutePlan {
    rank: usize,
    perm: Vec<usize>,
    map: Vec<u32>,
    kind: MapKind,
}

impl PermutePlan {
    /// Build a plan with a full precomputed map.
    pub fn full(rank: usize, perm: &[usize]) -> Self {
        check_perm(perm, rank);
        let map = (0..1usize << rank).map(|i| permuted_offset(i, perm, rank) as u32).collect();
        Self { rank, perm: perm.to_vec(), map, kind: MapKind::Full }
    }

    /// Build a plan with the recursion-formula reduced map (§5.3.1).
    ///
    /// Two reductions are considered and the better one chosen:
    /// * *trailing*: the longest run of trailing source axes that stay a
    ///   trailing run in the destination — within such a `2^m` block source
    ///   and destination offsets agree up to the block base, so only
    ///   `2^(rank-m)` block bases are stored (the paper's operand `B`);
    /// * *leading*: the longest run of leading axes left untouched by the
    ///   permutation — the map of the low `rank-m` bits repeats for every
    ///   leading block with a constant offset, `map[i + k·2^(rank-m)] =
    ///   map[i] + k·2^(rank-m)` (the paper's operand `A`, "only a 1/8 map").
    pub fn reduced(rank: usize, perm: &[usize]) -> Self {
        check_perm(perm, rank);
        let trailing = Self::trailing_invariant_axes(rank, perm);
        let leading = Self::leading_invariant_axes(rank, perm);
        if trailing == 0 && leading == 0 {
            return Self::full(rank, perm);
        }
        if trailing >= leading {
            let blocks = 1usize << (rank - trailing);
            let block_len = 1usize << trailing;
            let map =
                (0..blocks).map(|b| permuted_offset(b * block_len, perm, rank) as u32).collect();
            Self { rank, perm: perm.to_vec(), map, kind: MapKind::Reduced { trailing } }
        } else {
            let low = rank - leading;
            let map = (0..1usize << low).map(|i| permuted_offset(i, perm, rank) as u32).collect();
            Self { rank, perm: perm.to_vec(), map, kind: MapKind::ReducedLeading { leading } }
        }
    }

    /// Number of trailing source axes that keep their position at the end of
    /// the destination axis order.
    fn trailing_invariant_axes(rank: usize, perm: &[usize]) -> usize {
        let mut m = 0;
        while m < rank && perm[rank - 1 - m] == rank - 1 - m {
            m += 1;
        }
        m
    }

    /// Number of leading source axes left in place by the permutation.
    fn leading_invariant_axes(rank: usize, perm: &[usize]) -> usize {
        let mut m = 0;
        while m < rank && perm[m] == m {
            m += 1;
        }
        m
    }

    /// The permutation this plan applies (`perm[new_axis] = old_axis`).
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Rank of tensors this plan applies to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of table entries actually stored.
    pub fn map_len(&self) -> usize {
        self.map.len()
    }

    /// Which kind of map is stored.
    pub fn kind(&self) -> &MapKind {
        &self.kind
    }

    /// Memory used by the offset table, in bytes. This is the quantity the
    /// paper's §5.3.1 optimisation reduces by `2^m`.
    pub fn map_bytes(&self) -> usize {
        self.map.len() * std::mem::size_of::<u32>()
    }

    /// Apply the plan out of place.
    pub fn apply<T: Scalar>(&self, tensor: &DenseTensor<T>) -> DenseTensor<T> {
        assert_eq!(tensor.rank(), self.rank, "plan rank mismatch");
        let new_axes: Vec<IndexId> =
            self.perm.iter().map(|&p| tensor.indices().axes()[p]).collect();
        let mut out = DenseTensor::zeros(IndexSet::new(new_axes));
        let (src, dst) = (tensor.data(), out.data_mut());
        match self.kind {
            MapKind::Full => {
                for (i, &v) in src.iter().enumerate() {
                    dst[self.map[i] as usize] = v;
                }
            }
            MapKind::Reduced { trailing } => {
                let block_len = 1usize << trailing;
                for (b, &base) in self.map.iter().enumerate() {
                    let s = b * block_len;
                    let d = base as usize;
                    dst[d..d + block_len].copy_from_slice(&src[s..s + block_len]);
                }
            }
            MapKind::ReducedLeading { leading } => {
                let low_len = self.map.len();
                let blocks = 1usize << leading;
                for b in 0..blocks {
                    let block_base = b * low_len;
                    for (i, &off) in self.map.iter().enumerate() {
                        dst[block_base + off as usize] = src[block_base + i];
                    }
                }
            }
        }
        out
    }
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
    fn plan_full_matches_direct() {
        let t = iota(vec![0, 1, 2, 3]);
        let perm = [3, 1, 0, 2];
        let direct = permute(&t, &perm);
        let plan = PermutePlan::full(4, &perm);
        assert_eq!(plan.apply(&t), direct);
        assert_eq!(plan.map_len(), 16);
    }

    #[test]
    fn plan_reduced_matches_full() {
        // Trailing two axes (2,3) unchanged -> reduced map has 4 entries.
        let perm = [1, 0, 2, 3];
        let t = iota(vec![0, 1, 2, 3]);
        let full = PermutePlan::full(4, &perm);
        let red = PermutePlan::reduced(4, &perm);
        assert_eq!(red.kind(), &MapKind::Reduced { trailing: 2 });
        assert_eq!(red.map_len(), 4);
        assert_eq!(red.apply(&t), full.apply(&t));
    }

    #[test]
    fn plan_reduced_falls_back_when_no_trailing_run() {
        let perm = [1, 2, 0];
        let red = PermutePlan::reduced(3, &perm);
        assert_eq!(red.kind(), &MapKind::Full);
        assert_eq!(red.map_len(), 8);
    }

    #[test]
    fn reduced_map_memory_savings() {
        // Paper example: rank-9 tensor, last 4 axes contiguous -> map / 16.
        let mut perm: Vec<usize> = vec![4, 3, 2, 1, 0];
        perm.extend(5..9);
        let full = PermutePlan::full(9, &perm);
        let red = PermutePlan::reduced(9, &perm);
        assert_eq!(full.map_len(), 512);
        assert_eq!(red.map_len(), 32);
        assert_eq!(full.map_bytes() / red.map_bytes(), 16);
        let t = iota((0..9).collect::<Vec<u32>>());
        assert_eq!(red.apply(&t), full.apply(&t));
    }

    #[test]
    fn plan_reduced_leading_matches_full() {
        // First three axes untouched, the rest reversed: the leading
        // reduction stores a 1/8 map and must agree with the full map.
        let perm = [0usize, 1, 2, 6, 5, 4, 3];
        let full = PermutePlan::full(7, &perm);
        let red = PermutePlan::reduced(7, &perm);
        assert_eq!(red.kind(), &MapKind::ReducedLeading { leading: 3 });
        assert_eq!(red.map_len(), 16);
        let t = iota((0..7).collect::<Vec<u32>>());
        assert_eq!(red.apply(&t), full.apply(&t));
    }

    #[test]
    fn reduced_picks_the_better_of_leading_and_trailing() {
        // Two leading axes fixed, three trailing axes fixed: trailing wins.
        let perm = [0usize, 1, 3, 2, 4, 5, 6];
        let red = PermutePlan::reduced(7, &perm);
        assert_eq!(red.kind(), &MapKind::Reduced { trailing: 3 });
        // Three leading fixed, two trailing fixed: leading wins.
        let perm = [0usize, 1, 2, 4, 3, 5, 6];
        let red = PermutePlan::reduced(7, &perm);
        assert_eq!(red.kind(), &MapKind::ReducedLeading { leading: 3 });
        let t = iota((0..7).collect::<Vec<u32>>());
        assert_eq!(red.apply(&t), PermutePlan::full(7, &perm).apply(&t));
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
