//! Sliced complexity and slicing overhead (Eqs. 2 and 4 of the paper).
//!
//! For a contraction tree `B` and a slicing set `S` the total time complexity
//! after slicing is
//!
//! ```text
//! C(B, S) = Σ_V 2^(|s_V| + |S| - |S ∩ s_V|)          (Eq. 4)
//! ```
//!
//! where `s_V` is the set of edges involved in contraction `V`. The slicing
//! overhead is the ratio of this to the original complexity,
//! `O(B, S) = C_slice(B) · 2^|S| / C_original(B)` (Eq. 2). A contraction all
//! of whose edges are sliced contributes no overhead; a contraction touched
//! by none of the sliced edges is recomputed in every one of the `2^|S|`
//! subtasks.

use crate::lifetime::stem_tensors;
use crate::marks::SliceMarks;
use qtn_tensor::IndexId;
use qtn_tensornet::{log2_sum, LogCost, Stem, StemStep};

/// A slicing decision: the set of sliced edges and the memory target it was
/// computed for (tensors are required to have rank ≤ `target_rank` after
/// slicing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlicingPlan {
    /// Sliced edges (the set `S`).
    pub sliced: Vec<IndexId>,
    /// Maximum allowed tensor rank after slicing.
    pub target_rank: usize,
}

impl SlicingPlan {
    /// Create a plan, deduplicating and sorting the edge list.
    pub fn new(mut sliced: Vec<IndexId>, target_rank: usize) -> Self {
        sliced.sort_unstable();
        sliced.dedup();
        Self { sliced, target_rank }
    }

    /// Number of sliced edges.
    pub fn len(&self) -> usize {
        self.sliced.len()
    }

    /// True if no edges are sliced.
    pub fn is_empty(&self) -> bool {
        self.sliced.is_empty()
    }

    /// Number of independent subtasks (`2^|S|`), saturating at `usize::MAX`.
    pub fn num_subtasks(&self) -> usize {
        1usize.checked_shl(self.sliced.len() as u32).unwrap_or(usize::MAX)
    }
}

/// log2 of the total sliced time complexity over the stem (Eq. 4, restricted
/// to the stem's contractions).
pub fn sliced_log_cost(stem: &Stem, sliced: &[IndexId]) -> LogCost {
    let sliced = SliceMarks::new(sliced);
    log2_sum(stem.steps.iter().map(|step| step_exponent(step, &sliced) as LogCost))
}

/// [`sliced_exponent`] of a stem step, read off lengths and counts: the
/// step's result is its operands' symmetric difference, so its union holds
/// `(|before| + |branch| + |result|) / 2` edges, and the same identity on
/// the three sets' sliced edges counts `|u ∩ S|`.
pub(crate) fn step_exponent(step: &StemStep, sliced: &SliceMarks) -> usize {
    let [before, branch, result] = [&step.stem_before, &step.branch, &step.result];
    let union = (before.len() + branch.len() + result.len()) / 2;
    let hit = (sliced.count_in(before) + sliced.count_in(branch) + sliced.count_in(result)) / 2;
    let exponent = union + sliced.len() - hit;
    debug_assert_eq!(exponent, sliced_exponent(&step.union(), sliced), "result = before Δ branch");
    exponent
}

/// Slicing overhead of `sliced` on the stem (Eq. 2), as a linear ratio ≥ 1
/// for any non-trivial slicing (1.0 means no redundant work at all).
pub fn slicing_overhead(stem: &Stem, sliced: &[IndexId]) -> f64 {
    if stem.is_empty() {
        return 1.0;
    }
    (sliced_log_cost(stem, sliced) - stem.total_log_cost()).exp2()
}

/// Largest *stem-tensor* rank after slicing.
///
/// Only the running stem tensors (the start tensor and every step result)
/// are considered: as §4.2 notes, branches are pre-contracted and "have
/// nothing to do with the memory constraints", so the memory bound the
/// slicing machinery enforces is the size of the stem tensor that lives in
/// distributed main memory.
pub fn sliced_max_rank(stem: &Stem, sliced: &[IndexId]) -> usize {
    max_rank(stem, &SliceMarks::new(sliced))
}

/// Whether the slicing plan meets its memory target on the stem.
#[cfg(test)]
pub(crate) fn is_feasible(stem: &Stem, plan: &SlicingPlan) -> bool {
    sliced_max_rank(stem, &plan.sliced) <= plan.target_rank
}

/// Eq. 4's exponent for one stem step with union `u`: `|u| + |S| − |u ∩ S|`.
pub(crate) fn sliced_exponent(union: &[IndexId], sliced: &SliceMarks) -> usize {
    union.len() + sliced.len() - sliced.count_in(union)
}

/// [`sliced_max_rank`] against a prepared slicing table.
pub(crate) fn max_rank(stem: &Stem, sliced: &SliceMarks) -> usize {
    stem_tensors(stem).map(|t| sliced.count_unsliced(t)).max().unwrap_or(0)
}

/// "Critical tensors" of §4.3: stem positions whose rank after slicing is
/// exactly the target. These are the tensors that pin the memory bound; a
/// sliced edge whose lifetime contains none of them contributes nothing to
/// memory reduction.
#[cfg(test)]
pub(crate) fn critical(stem: &Stem, sliced: &SliceMarks, target_rank: usize) -> Vec<usize> {
    stem_tensors(stem)
        .enumerate()
        .filter(|(_, t)| sliced.count_unsliced(t) == target_rank)
        .map(|(p, _)| p)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_stems::{lifetime_positions, longest_lived};
    use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};
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
    fn empty_slicing_has_unit_overhead() {
        let stem = rqc_stem(8, 1);
        assert!((slicing_overhead(&stem, &[]) - 1.0).abs() < 1e-9);
        assert_eq!(sliced_log_cost(&stem, &[]), stem.total_log_cost());
    }

    #[test]
    fn slicing_reduces_max_rank() {
        let stem = rqc_stem(10, 2);
        let before = sliced_max_rank(&stem, &[]);
        let top = longest_lived(&stem, 3);
        let after = sliced_max_rank(&stem, &top);
        assert!(after < before, "slicing must reduce the maximum rank ({before} -> {after})");
    }

    #[test]
    fn overhead_at_least_one_and_grows_with_set_size() {
        let stem = rqc_stem(10, 3);
        let top = longest_lived(&stem, 5);
        let mut prev = 1.0;
        for k in 0..=top.len() {
            let o = slicing_overhead(&stem, &top[..k]);
            assert!(o >= 1.0 - 1e-9, "overhead {o} below 1");
            // Slicing the longest-lived edges first keeps the growth gentle,
            // but overhead can only accumulate as more edges are added when
            // lifetimes do not span everything.
            assert!(o + 1e-9 >= prev, "overhead decreased from {prev} to {o}");
            prev = o;
        }
    }

    #[test]
    fn fully_covering_edge_adds_no_overhead() {
        // Construct a stem where one edge spans every position: slicing it
        // must give exactly 1.0 overhead.
        use qtn_tensor::IndexSet;
        // T0[0,9] - T1[0,1,9?]: craft a line where edge 9 is on every tensor
        // except it must terminate somewhere; instead make it an open index
        // carried to the root.
        let g = TensorNetwork::new(&[
            IndexSet::new(vec![0, 9]),
            IndexSet::new(vec![0, 1]),
            IndexSet::new(vec![1, 2]),
            IndexSet::new(vec![2, 9]),
        ]);
        let tree = ContractionTree::from_pairs(&g, &[(0, 1), (4, 2), (5, 3)]);
        let stem = extract_stem(&tree);
        // Edge 9 appears in the start tensor and survives until the last
        // contraction.
        let positions = lifetime_positions(&stem);
        let all: Vec<usize> = (0..=stem.len()).collect();
        if positions.iter().any(|(e, p)| *e == 9 && *p == all) {
            let o = slicing_overhead(&stem, &[9]);
            assert!((o - 1.0).abs() < 1e-9, "overhead of a spanning edge is {o}");
        }
        // Edge 1 has a shorter lifetime; slicing it costs more.
        let o1 = slicing_overhead(&stem, &[1]);
        assert!(o1 > 1.0);
    }

    #[test]
    fn feasibility_check() {
        let stem = rqc_stem(10, 5);
        let max0 = sliced_max_rank(&stem, &[]);
        let plan_empty = SlicingPlan::new(vec![], max0);
        assert!(is_feasible(&stem, &plan_empty));
        let plan_tight = SlicingPlan::new(vec![], max0 - 1);
        assert!(!is_feasible(&stem, &plan_tight));
        let top = longest_lived(&stem, 2);
        let plan_sliced = SlicingPlan::new(top, max0 - 1);
        // Slicing the two longest-lived edges reduces the max rank by at
        // least one on this workload.
        assert!(is_feasible(&stem, &plan_sliced));
    }

    #[test]
    fn critical_positions_have_target_rank() {
        let stem = rqc_stem(10, 7);
        let target = sliced_max_rank(&stem, &[]) - 1;
        let s = longest_lived(&stem, 3);
        let crit = critical(&stem, &SliceMarks::new(&s), target);
        let set: std::collections::HashSet<IndexId> = s.iter().copied().collect();
        let tensors: Vec<&[IndexId]> = stem_tensors(&stem).collect();
        for p in crit {
            let r = tensors[p].iter().filter(|e| !set.contains(e)).count();
            assert_eq!(r, target);
        }
    }

    #[test]
    fn plan_helpers() {
        let plan = SlicingPlan::new(vec![5, 3, 5, 1], 20);
        assert_eq!(plan.sliced, vec![1, 3, 5]);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.num_subtasks(), 8);
        assert!(!plan.is_empty());
    }
}
