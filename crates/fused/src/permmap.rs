//! Permutation-map reduction for fused kernels (§5.3.1).
//!
//! Every contraction inside a fused group permutes its operands before the
//! GEMM. An in-situ map costs `O(N log N)` every time; a fully precomputed
//! map costs `O(N)` per use but `O(N)` LDM — too much to keep one per fused
//! step. The paper's middle ground exploits the runs of axes whose relative
//! order the TTGT permutation preserves: only the changed part of the map is
//! tabulated, and offsets within an unchanged run follow from
//! `map[i + k] = map[i] + k · offset`. [`qtn_tensor::PermutePlan::reduced`]
//! implements the mechanism; this module derives the permutations a
//! contraction needs and reports how much LDM the reduction saves.

use qtn_tensor::permute::{MapKind, PermutePlan};
use qtn_tensor::{ContractionSpec, IndexSet};

/// LDM footprint statistics of the permutation maps of one contraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PermutationStats {
    /// Bytes a full precomputed map for the left operand would need.
    pub left_full_bytes: usize,
    /// Bytes the reduced map for the left operand needs.
    pub left_reduced_bytes: usize,
    /// Bytes a full precomputed map for the right operand would need.
    pub right_full_bytes: usize,
    /// Bytes the reduced map for the right operand needs.
    pub right_reduced_bytes: usize,
}

impl PermutationStats {
    /// Combined reduction factor (full / reduced) across both operands.
    pub fn reduction_factor(&self) -> f64 {
        (self.left_full_bytes + self.right_full_bytes) as f64
            / (self.left_reduced_bytes + self.right_reduced_bytes).max(1) as f64
    }
}

/// Build the operand permutation plans for a contraction.
///
/// The left operand is permuted to `[left_free..., contracted...]` and the
/// right operand to `[contracted..., right_free...]` — the TTGT lowering
/// of the modeled Sunway kernel (the host's `qtn_tensor::contract` groups
/// the same axes but reads them in place). Returns the two reduced-map plans and
/// their footprint statistics.
pub fn operand_permutations(
    left: &IndexSet,
    right: &IndexSet,
) -> (PermutePlan, PermutePlan, PermutationStats) {
    let spec = ContractionSpec::new(left, right);
    let left_target: IndexSet =
        spec.left_free.iter().chain(spec.contracted.iter()).copied().collect();
    let right_target: IndexSet =
        spec.contracted.iter().chain(spec.right_free.iter()).copied().collect();

    let perm_for = |from: &IndexSet, to: &IndexSet| -> Vec<usize> {
        to.iter().map(|id| from.position(id).expect("index missing")).collect()
    };
    let left_perm = perm_for(left, &left_target);
    let right_perm = perm_for(right, &right_target);

    let left_plan = PermutePlan::reduced(left.rank(), &left_perm);
    let right_plan = PermutePlan::reduced(right.rank(), &right_perm);
    let full_bytes = |rank: usize| (1usize << rank) * std::mem::size_of::<u32>();
    let stats = PermutationStats {
        left_full_bytes: full_bytes(left.rank()),
        left_reduced_bytes: left_plan.map_bytes(),
        right_full_bytes: full_bytes(right.rank()),
        right_reduced_bytes: right_plan.map_bytes(),
    };
    (left_plan, right_plan, stats)
}

/// True if the reduced plan actually stores less than a full map.
pub fn is_reduced(plan: &PermutePlan) -> bool {
    matches!(plan.kind(), MapKind::Reduced { .. } | MapKind::ReducedLeading { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtn_tensor::{c64, DenseTensor};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(rng: &mut StdRng, idx: IndexSet) -> DenseTensor<qtn_tensor::Complex64> {
        let data = (0..idx.len())
            .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        DenseTensor::from_data(idx, data)
    }

    #[test]
    fn reduced_maps_save_memory_when_trailing_axes_stay() {
        // Left tensor [0..9), contracting the last two axes: the free prefix
        // keeps its order, so the left permutation is the identity and fully
        // reducible.
        let left = IndexSet::new((0..9).collect());
        let right = IndexSet::new(vec![7, 8, 100, 101]);
        let (_, _, stats) = operand_permutations(&left, &right);
        assert!(stats.reduction_factor() > 1.0, "factor {}", stats.reduction_factor());
        assert!(stats.left_reduced_bytes <= stats.left_full_bytes);
        assert!(stats.right_reduced_bytes <= stats.right_full_bytes);
    }

    #[test]
    fn plans_produce_correct_contraction_inputs() {
        // Applying the plans then a plain GEMM must equal contract_pair.
        let mut rng = StdRng::seed_from_u64(77);
        let left = IndexSet::new(vec![0, 1, 2, 3, 4]);
        let right = IndexSet::new(vec![3, 4, 5, 6]);
        let a = random_tensor(&mut rng, left.clone());
        let b = random_tensor(&mut rng, right.clone());
        let (lp, rp, _) = operand_permutations(&left, &right);
        let la = lp.apply(&a);
        let rb = rp.apply(&b);
        let spec = ContractionSpec::new(&left, &right);
        let (m, n, k) = spec.gemm_shape();
        let mut c = vec![qtn_tensor::Complex64::ZERO; m * n];
        qtn_tensor::KernelPlan::select(m, n, k).apply(la.data(), rb.data(), &mut c, m, n, k);
        let direct = qtn_tensor::contract_pair(&a, &b);
        for (x, y) in c.iter().zip(direct.data().iter()) {
            assert!((*x - *y).abs() < 1e-9);
        }
    }

    #[test]
    fn paper_example_rank9_reduction() {
        // §5.3.1's example: a rank-9 operand permuted to
        // 0,1,2,4,5,7,8,3,6 — the first three axes do not participate, so a
        // 1/8 map suffices for the left operand, and the right operand's
        // permutation is the identity.
        let left = IndexSet::new((0..9).collect());
        let right = IndexSet::new(vec![3, 6, 20, 21, 22, 23]);
        let (lp, rp, stats) = operand_permutations(&left, &right);
        assert!(is_reduced(&lp));
        assert!(is_reduced(&rp));
        // Left map shrinks by 8 (512 -> 64 entries).
        assert_eq!(lp.map_len(), 64);
        assert!(stats.reduction_factor() >= 2.0, "factor {}", stats.reduction_factor());
    }

    #[test]
    fn identity_contraction_is_fully_reduced() {
        // If the contracted indices are already trailing on the left and
        // leading on the right, both permutations are identities.
        let left = IndexSet::new(vec![0, 1, 2, 9]);
        let right = IndexSet::new(vec![9, 20, 21]);
        let (lp, rp, stats) = operand_permutations(&left, &right);
        assert_eq!(lp.map_len(), 1);
        assert_eq!(rp.map_len(), 1);
        assert!(stats.reduction_factor() >= 8.0);
    }
}
