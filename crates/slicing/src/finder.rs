//! Algorithm 1: the lifetime-based slice finder.
//!
//! The finder walks the stem inward from its two ends. At every step it takes
//! the end tensor with the smaller (current) dimension, slices away its
//! longest-lived indices until that tensor fits the target rank, drops every
//! stem tensor that already fits, recomputes lifetimes over the remaining
//! positions, and repeats until nothing is left. Choosing the longest-lived
//! indices maximises the number of *other* tensors each slice also shrinks,
//! which is what produces slicing sets that are as small as possible
//! (Theorem 1 then links small sets to low overhead).

use crate::marks::SliceMarks;
use crate::overhead::SlicingPlan;
use qtn_tensor::IndexId;
use qtn_tensornet::Stem;

/// Run the lifetime-based slice finder (Algorithm 1) on a stem.
///
/// `target_rank` is the maximum tensor rank allowed after slicing (the `t`
/// of the paper, i.e. log2 of the memory budget in elements).
pub fn lifetime_slice_finder(stem: &Stem, target_rank: usize) -> SlicingPlan {
    // Stem tensor index sets by position.
    let mut tensors: Vec<Vec<IndexId>> = vec![stem.start_indices.clone()];
    for step in &stem.steps {
        tensors.push(step.result.clone());
    }

    let mut sliced = SliceMarks::default();
    // Remaining stem positions, kept in stem order.
    let mut remaining: Vec<usize> = (0..tensors.len()).collect();

    let dim_of = |pos: usize, sliced: &SliceMarks| sliced.count_unsliced(&tensors[pos]);
    // Lifetime length restricted to the remaining positions (stem index
    // lists are sorted).
    let lifetime_len = |edge: IndexId, remaining: &[usize]| {
        remaining.iter().filter(|&&p| tensors[p].binary_search(&edge).is_ok()).count()
    };

    // Drop positions that already satisfy the target.
    remaining.retain(|&p| dim_of(p, &sliced) > target_rank);

    let mut chosen_edges = Vec::new();
    while !remaining.is_empty() {
        let first = remaining[0];
        let last = *remaining.last().unwrap();
        let (df, dl) = (dim_of(first, &sliced), dim_of(last, &sliced));
        let chosen = if df < dl { first } else { last };
        let dim = dim_of(chosen, &sliced);

        if dim > target_rank {
            // Candidate indices of the chosen tensor, not yet sliced, ranked
            // by lifetime length over the remaining stem.
            let mut candidates: Vec<(usize, IndexId)> = tensors[chosen]
                .iter()
                .filter(|&&e| !sliced.contains(e))
                .map(|&e| (lifetime_len(e, &remaining), e))
                .collect();
            candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            for (_, e) in candidates.into_iter().take(dim - target_rank) {
                sliced.insert(e);
                chosen_edges.push(e);
            }
        }

        // Remove every tensor that now fits the target (the chosen tensor is
        // always removed because it was just sliced down to the target).
        remaining.retain(|&p| dim_of(p, &sliced) > target_rank);
    }

    SlicingPlan::new(chosen_edges, target_rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overhead::{is_feasible, sliced_max_rank, slicing_overhead};
    use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};
    use qtn_tensornet::{
        extract_stem, greedy_path, simplify_network, ContractionTree, PathConfig, TensorNetwork,
    };

    fn rqc_stem(rows: usize, cols: usize, cycles: usize, seed: u64) -> Stem {
        let cfg = RqcConfig::small(rows, cols, cycles, seed);
        let c = cfg.build();
        let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0; c.num_qubits()]));
        let g = TensorNetwork::from_build(&b);
        let mut work = g.clone();
        let mut pairs = simplify_network(&mut work);
        pairs.extend(greedy_path(&mut work, &PathConfig::default()));
        extract_stem(&ContractionTree::from_pairs(&g, &pairs))
    }

    #[test]
    fn finder_meets_the_memory_target() {
        let stem = rqc_stem(3, 4, 10, 11);
        let full_rank = sliced_max_rank(&stem, &[]);
        for target in (4..full_rank).rev() {
            let plan = lifetime_slice_finder(&stem, target);
            assert!(
                is_feasible(&stem, &plan),
                "target {target}: max rank {} with {} slices",
                sliced_max_rank(&stem, &plan.sliced),
                plan.len()
            );
        }
    }

    #[test]
    fn no_slicing_needed_when_target_is_loose() {
        let stem = rqc_stem(3, 3, 8, 12);
        let full_rank = sliced_max_rank(&stem, &[]);
        let plan = lifetime_slice_finder(&stem, full_rank);
        assert!(plan.is_empty());
        assert!((slicing_overhead(&stem, &plan.sliced) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tighter_targets_need_more_slices() {
        let stem = rqc_stem(3, 4, 12, 13);
        let full_rank = sliced_max_rank(&stem, &[]);
        let mut prev = 0;
        for target in (5..=full_rank).rev() {
            let plan = lifetime_slice_finder(&stem, target);
            assert!(plan.len() >= prev, "slices should not decrease as the target tightens");
            prev = plan.len();
        }
    }

    #[test]
    fn slice_count_at_least_information_lower_bound() {
        // Any feasible slicing must remove at least (max_rank - target)
        // edges from the biggest tensor.
        let stem = rqc_stem(4, 4, 10, 14);
        let full_rank = sliced_max_rank(&stem, &[]);
        let target = full_rank.saturating_sub(3).max(4);
        let plan = lifetime_slice_finder(&stem, target);
        assert!(plan.len() >= full_rank - target);
    }

    #[test]
    fn overhead_stays_bounded_on_moderate_targets() {
        let stem = rqc_stem(4, 4, 12, 15);
        let full_rank = sliced_max_rank(&stem, &[]);
        let target = full_rank.saturating_sub(2);
        let plan = lifetime_slice_finder(&stem, target);
        let o = slicing_overhead(&stem, &plan.sliced);
        // Slicing two ranks away with lifetime guidance should cost far less
        // than the naive 4x blowup.
        assert!(o < 4.0, "overhead {o} too high for a 2-rank reduction");
    }

    #[test]
    fn deterministic() {
        let stem = rqc_stem(3, 4, 10, 16);
        let full_rank = sliced_max_rank(&stem, &[]);
        let a = lifetime_slice_finder(&stem, full_rank.saturating_sub(3));
        let b = lifetime_slice_finder(&stem, full_rank.saturating_sub(3));
        assert_eq!(a, b);
    }
}
