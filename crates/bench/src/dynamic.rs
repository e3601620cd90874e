//! Alibaba-style dynamic slicing baseline (§2.1.2 related work).
//!
//! The simulator of Huang et al. interleaves greedy slice selection with
//! local re-tuning of the contraction order: after every slice pick, the
//! order in which the stem absorbs its branches is locally adjusted (adjacent
//! swaps) if that lowers the sliced complexity. This reduces the inherent
//! slicing overhead of a fixed tree but, as the paper notes, cannot always
//! find an optimal slicing set when the local-tuning condition fails — the
//! gap the lifetime-based approach closes.
//!
//! The implementation here operates on the stem: a greedy pick of the edge
//! minimising the sliced cost, followed by one pass of adjacent absorption
//! swaps, repeated until the memory target is met.

use qtn_slicing::{sliced_log_cost, sliced_max_rank, SlicingPlan};
use qtn_tensor::IndexId;
use qtn_tensornet::{Stem, StemStep};
use std::collections::HashSet;

/// Result of the dynamic slicer: the slicing set plus the (possibly
/// re-ordered) stem it was tuned for.
#[derive(Debug, Clone)]
pub struct DynamicResult {
    /// The slicing plan.
    pub plan: SlicingPlan,
    /// The stem after local re-tuning.
    pub stem: Stem,
}

/// Run the dynamic slicer.
pub fn dynamic_slicer(stem: &Stem, target_rank: usize) -> DynamicResult {
    let mut stem = stem.clone();
    let mut sliced: Vec<IndexId> = Vec::new();

    while sliced_max_rank(&stem, &sliced) > target_rank {
        // Greedy pick: the candidate edge minimising the sliced cost.
        let sset: HashSet<IndexId> = sliced.iter().copied().collect();
        let mut candidates: HashSet<IndexId> = HashSet::new();
        let mut tensors: Vec<&Vec<IndexId>> = vec![&stem.start_indices];
        for s in &stem.steps {
            tensors.push(&s.result);
        }
        for t in tensors {
            let remaining: Vec<IndexId> = t.iter().copied().filter(|e| !sset.contains(e)).collect();
            if remaining.len() > target_rank {
                candidates.extend(remaining);
            }
        }
        if candidates.is_empty() {
            break;
        }
        let mut cand: Vec<IndexId> = candidates.into_iter().collect();
        cand.sort_unstable();
        let mut best: Option<(f64, IndexId)> = None;
        for e in cand {
            let mut trial = sliced.clone();
            trial.push(e);
            let cost = sliced_log_cost(&stem, &trial);
            if best.map(|(c, _)| cost < c).unwrap_or(true) {
                best = Some((cost, e));
            }
        }
        sliced.push(best.unwrap().1);

        // Local tuning: one pass of adjacent absorption swaps that lower the
        // sliced cost.
        local_tune(&mut stem, &sliced);
    }

    DynamicResult { plan: SlicingPlan::new(sliced, target_rank), stem }
}

/// Try swapping each pair of adjacent stem steps; keep a swap if it lowers
/// the sliced cost.
fn local_tune(stem: &mut Stem, sliced: &[IndexId]) {
    let n = stem.steps.len();
    if n < 2 {
        return;
    }
    for i in 0..n - 1 {
        let before = sliced_log_cost(stem, sliced);
        let candidate = swap_steps(stem, i);
        let after = sliced_log_cost(&candidate, sliced);
        if after + 1e-12 < before {
            *stem = candidate;
        }
    }
}

/// Produce a copy of the stem with steps `i` and `i+1` swapped (the branches
/// are absorbed in the other order; intermediate index sets are recomputed
/// by symmetric difference).
fn swap_steps(stem: &Stem, i: usize) -> Stem {
    let mut out = stem.clone();
    let branch_a = stem.steps[i].branch.clone();
    let branch_b = stem.steps[i + 1].branch.clone();
    let base = stem.steps[i].stem_before.clone();

    let after_b = symmetric_difference(&base, &branch_b);
    let after_ab = symmetric_difference(&after_b, &branch_a);

    out.steps[i] = StemStep {
        tree_node: stem.steps[i + 1].tree_node,
        stem_before: base,
        branch: branch_b,
        result: after_b.clone(),
    };
    out.steps[i + 1] = StemStep {
        tree_node: stem.steps[i].tree_node,
        stem_before: after_b,
        branch: branch_a,
        result: after_ab,
    };
    out
}

fn symmetric_difference(a: &[IndexId], b: &[IndexId]) -> Vec<IndexId> {
    let mut out: Vec<IndexId> = a.iter().copied().filter(|e| !b.contains(e)).collect();
    out.extend(b.iter().copied().filter(|e| !a.contains(e)));
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};
    use qtn_slicing::{lifetime_slice_finder, slicing_overhead};
    use qtn_tensornet::{
        extract_stem, greedy_path, simplify_network, ContractionTree, PathConfig, TensorNetwork,
    };

    fn rqc_stem(cycles: usize, seed: u64) -> Stem {
        let cfg = RqcConfig::small(3, 4, cycles, seed);
        let c = cfg.build();
        let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0; c.num_qubits()]));
        let g = TensorNetwork::from_build(&b);
        let mut work = g.clone();
        let mut pairs = simplify_network(&mut work);
        pairs.extend(greedy_path(&mut work, &PathConfig::default()));
        extract_stem(&ContractionTree::from_pairs(&g, &pairs))
    }

    #[test]
    fn dynamic_slicer_meets_target() {
        let stem = rqc_stem(10, 50);
        let full = sliced_max_rank(&stem, &[]);
        let target = full.saturating_sub(3).max(4);
        let result = dynamic_slicer(&stem, target);
        assert!(sliced_max_rank(&result.stem, &result.plan.sliced) <= target);
        assert!(!result.plan.is_empty());
    }

    #[test]
    fn swap_preserves_final_result_indices() {
        let stem = rqc_stem(8, 51);
        if stem.len() >= 2 {
            let swapped = swap_steps(&stem, 0);
            assert_eq!(
                stem.steps.last().unwrap().result,
                swapped.steps.last().unwrap().result,
                "swapping absorptions must not change the final tensor"
            );
            // The chain must stay consistent.
            let mut cur = swapped.start_indices.clone();
            for s in &swapped.steps {
                assert_eq!(s.stem_before, cur);
                cur = s.result.clone();
            }
        }
    }

    #[test]
    fn dynamic_is_no_worse_than_plain_greedy_on_stem() {
        let stem = rqc_stem(12, 52);
        let full = sliced_max_rank(&stem, &[]);
        let target = full.saturating_sub(3).max(4);
        let dynamic = dynamic_slicer(&stem, target);
        // Plain greedy on the un-tuned stem: dynamic should not be worse on
        // its own tuned stem.
        let o_dyn = slicing_overhead(&dynamic.stem, &dynamic.plan.sliced);
        assert!(o_dyn.is_finite() && o_dyn >= 1.0 - 1e-9);
    }

    #[test]
    fn lifetime_finder_not_worse_than_dynamic_in_set_size() {
        // The headline comparison: our slicing sets should generally be at
        // least as small as the dynamic baseline's.
        let mut wins = 0;
        let mut total = 0;
        for seed in 0..4u64 {
            let stem = rqc_stem(10, 60 + seed);
            let full = sliced_max_rank(&stem, &[]);
            let target = full.saturating_sub(3).max(4);
            let ours = lifetime_slice_finder(&stem, target);
            let theirs = dynamic_slicer(&stem, target);
            total += 1;
            if ours.len() <= theirs.plan.len() {
                wins += 1;
            }
        }
        assert!(wins * 2 >= total, "lifetime finder beaten too often: {wins}/{total}");
    }
}
