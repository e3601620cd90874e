//! Cotengra-style greedy slicer (the baseline of Fig. 10).
//!
//! "A greedy-based slicing strategy is built in cotengra. It repeatedly
//! chooses a dimension that leads to the most minor overhead to slice, until
//! the memory demand is satisfied." This module reimplements that strategy
//! on the full contraction tree: at every step the candidate edge whose
//! slicing yields the smallest total sliced complexity (Eq. 4) is added to
//! the set. Like most greedy methods it can get stuck in local minima, which
//! is exactly what the lifetime-based finder plus refiner improve on.
//!
//! The whole-tree counterparts of the stem costs in `qtn_slicing::overhead`
//! live here too: only this baseline and the figures comparing against it
//! price a slicing set over the full tree.

use qtn_slicing::SlicingPlan;
use qtn_tensor::IndexId;
use qtn_tensornet::{log2_sum, ContractionTree, LogCost};
use std::collections::HashSet;

/// log2 of the total sliced time complexity over a whole contraction tree
/// (Eq. 4). Used by the cotengra-style baseline, which slices on the full
/// tree rather than the stem.
pub fn sliced_log_cost_tree(tree: &ContractionTree, sliced: &[IndexId]) -> LogCost {
    let s: HashSet<IndexId> = sliced.iter().copied().collect();
    log2_sum(tree.internal_nodes().into_iter().map(|n| {
        let union = tree.node_union(n);
        let hit = union.iter().filter(|e| s.contains(e)).count();
        (union.len() + s.len() - hit) as LogCost
    }))
}

/// Largest tensor rank in the whole tree after slicing.
pub fn sliced_max_rank_tree(tree: &ContractionTree, sliced: &[IndexId]) -> usize {
    let s: HashSet<IndexId> = sliced.iter().copied().collect();
    tree.nodes()
        .iter()
        .map(|n| n.indices.iter().filter(|e| !s.contains(e)).count())
        .max()
        .unwrap_or(0)
}

/// Slicing overhead over the whole tree.
pub fn slicing_overhead_tree(tree: &ContractionTree, sliced: &[IndexId]) -> f64 {
    (sliced_log_cost_tree(tree, sliced) - tree.total_log_cost()).exp2()
}

/// Run the greedy slicer on a contraction tree until every tensor has rank
/// at most `target_rank`.
///
/// The candidate evaluation is incremental: adding an edge `e` to the set
/// doubles the cost term of every contraction *not* containing `e` and
/// leaves the others unchanged, so the new total is
/// `2·C(S) − Σ_{V: e ∈ s_V} term(V)`. One pass over the internal nodes per
/// step prepares those per-edge sums, making each step linear in the tree
/// size instead of quadratic — the same trick cotengra uses to stay fast on
/// Sycamore-sized networks.
pub fn greedy_slicer(tree: &ContractionTree, target_rank: usize) -> SlicingPlan {
    let mut sliced: Vec<IndexId> = Vec::new();
    let internal = tree.internal_nodes();
    loop {
        let max_rank = sliced_max_rank_tree(tree, &sliced);
        if max_rank <= target_rank {
            break;
        }
        let sset: HashSet<IndexId> = sliced.iter().copied().collect();

        // Candidate edges: any un-sliced edge of a tensor that still exceeds
        // the target.
        let mut candidates: HashSet<IndexId> = HashSet::new();
        for node in tree.nodes() {
            let remaining: Vec<IndexId> =
                node.indices.iter().copied().filter(|e| !sset.contains(e)).collect();
            if remaining.len() > target_rank {
                candidates.extend(remaining);
            }
        }
        assert!(!candidates.is_empty(), "no candidate edges although a tensor exceeds the target");

        // One pass over the internal nodes: total sliced cost with the
        // current set, and for every candidate edge the summed cost terms of
        // the contractions whose union contains it.
        let mut total = 0.0f64;
        let mut containing: std::collections::HashMap<IndexId, f64> =
            candidates.iter().map(|&e| (e, 0.0)).collect();
        for &n in &internal {
            let union = tree.node_union(n);
            let hit = union.iter().filter(|e| sset.contains(e)).count();
            let term = ((union.len() + sset.len() - hit) as f64).exp2();
            total += term;
            for e in union {
                if let Some(acc) = containing.get_mut(&e) {
                    *acc += term;
                }
            }
        }

        // New total after adding e: 2*total - containing[e]; pick the
        // minimum (ties broken by edge id for determinism).
        let mut cand: Vec<IndexId> = candidates.into_iter().collect();
        cand.sort_unstable();
        let mut best: Option<(f64, IndexId)> = None;
        for e in cand {
            let cost = 2.0 * total - containing[&e];
            if best.map(|(c, _)| cost < c).unwrap_or(true) {
                best = Some((cost, e));
            }
        }
        sliced.push(best.unwrap().1);
    }
    SlicingPlan::new(sliced, target_rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};
    use qtn_slicing::lifetime_slice_finder;
    use qtn_slicing::overhead::{sliced_log_cost, sliced_max_rank, slicing_overhead};
    use qtn_tensornet::{
        extract_stem, greedy_path, simplify_network, ContractionTree, PathConfig, TensorNetwork,
    };

    fn rqc_tree(rows: usize, cols: usize, cycles: usize, seed: u64) -> ContractionTree {
        let cfg = RqcConfig::small(rows, cols, cycles, seed);
        let c = cfg.build();
        let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0; c.num_qubits()]));
        let g = TensorNetwork::from_build(&b);
        let mut work = g.clone();
        let mut pairs = simplify_network(&mut work);
        pairs.extend(greedy_path(&mut work, &PathConfig::default()));
        ContractionTree::from_pairs(&g, &pairs)
    }

    #[test]
    fn tree_and_stem_costs_are_consistent() {
        let tree = rqc_tree(3, 4, 10, 6);
        let stem = extract_stem(&tree);
        // The stem is part of the tree so its cost is a lower bound.
        assert!(sliced_log_cost(&stem, &[]) <= sliced_log_cost_tree(&tree, &[]) + 1e-9);
        assert!(sliced_max_rank(&stem, &[]) <= sliced_max_rank_tree(&tree, &[]));
    }

    #[test]
    fn greedy_meets_target_on_tree() {
        let tree = rqc_tree(3, 4, 10, 21);
        let full = sliced_max_rank_tree(&tree, &[]);
        for target in [full - 1, full - 2, full.saturating_sub(4).max(4)] {
            let plan = greedy_slicer(&tree, target);
            assert!(sliced_max_rank_tree(&tree, &plan.sliced) <= target);
        }
    }

    #[test]
    fn loose_target_needs_no_slices() {
        let tree = rqc_tree(3, 3, 8, 22);
        let full = sliced_max_rank_tree(&tree, &[]);
        let plan = greedy_slicer(&tree, full);
        assert!(plan.is_empty());
        assert!((slicing_overhead_tree(&tree, &plan.sliced) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_is_finite_and_at_least_one() {
        let tree = rqc_tree(4, 4, 10, 23);
        let full = sliced_max_rank_tree(&tree, &[]);
        let plan = greedy_slicer(&tree, full.saturating_sub(3).max(4));
        let o = slicing_overhead_tree(&tree, &plan.sliced);
        assert!(o >= 1.0 - 1e-9 && o.is_finite());
    }

    #[test]
    fn lifetime_finder_is_competitive_with_greedy() {
        // The paper's claim (Fig. 10): on most paths the lifetime-based
        // slicing sets are no larger than greedy's. We check it on several
        // random grid circuits, comparing stem-level feasibility targets.
        let mut finder_wins_or_ties = 0;
        let mut total = 0;
        for seed in 0..6u64 {
            let tree = rqc_tree(3, 4, 10, 100 + seed);
            let stem = extract_stem(&tree);
            let full = sliced_max_rank(&stem, &[]);
            let target = full.saturating_sub(3).max(4);
            let ours = lifetime_slice_finder(&stem, target);
            let theirs = greedy_slicer(&tree, target);
            total += 1;
            if ours.len() <= theirs.len() {
                finder_wins_or_ties += 1;
            }
            // Both must be feasible on their respective scopes.
            assert!(sliced_max_rank(&stem, &ours.sliced) <= target);
            assert!(sliced_max_rank_tree(&tree, &theirs.sliced) <= target);
            // Overheads stay finite.
            assert!(slicing_overhead(&stem, &ours.sliced).is_finite());
        }
        assert!(
            finder_wins_or_ties * 2 >= total,
            "lifetime finder lost too often: {finder_wins_or_ties}/{total}"
        );
    }
}
