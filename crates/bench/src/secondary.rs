//! Secondary-slicing planner (§5.2).
//!
//! Given a stem segment and the LDM capacity (rank 13 for an SW26010pro
//! CPE), the planner partitions the segment into *fused groups*. Within one
//! group the secondary sliced indices are the indices of the running stem
//! tensor with the longest remaining lifetime — precisely the indices that
//! will *not* be contracted during the group — so every CPE can work on its
//! own sub-slice independently, and the group extends until the lifetime of
//! one of the sliced indices ends (the index is about to be contracted) or
//! the LDM bound would be violated.

use qtn_tensor::{IndexId, IndexSet};

/// One fused group of consecutive stem steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedGroup {
    /// First step index of the group (inclusive).
    pub first_step: usize,
    /// One past the last step of the group.
    pub last_step: usize,
    /// Secondary sliced indices: distributed across CPEs / iterated in the
    /// outer loop; never contracted within the group.
    pub sliced: Vec<IndexId>,
}

impl FusedGroup {
    /// Number of contraction steps fused into this group.
    pub fn len(&self) -> usize {
        self.last_step - self.first_step
    }
}

/// A secondary-slicing plan for a whole segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecondaryPlan {
    /// The fused groups in execution order; they tile the segment.
    pub groups: Vec<FusedGroup>,
}

impl SecondaryPlan {
    /// Total steps covered by the plan.
    fn total_steps(&self) -> usize {
        self.groups.iter().map(|g| g.len()).sum()
    }

    /// Average number of fused steps per group (the paper reports ~10).
    pub fn mean_fused_steps(&self) -> f64 {
        if self.groups.is_empty() {
            0.0
        } else {
            self.total_steps() as f64 / self.groups.len() as f64
        }
    }
}

/// Plan secondary slicing for a segment described by the index sets of the
/// running stem tensor (`stem_sets[i]` before step `i`, length `steps + 1`)
/// and the branch index sets (`branch_sets[i]` absorbed at step `i`).
///
/// `ldm_rank` is the largest tensor rank a CPE can hold (13 on Sunway).
pub fn plan_secondary_slicing(
    stem_sets: &[IndexSet],
    branch_sets: &[IndexSet],
    ldm_rank: usize,
) -> SecondaryPlan {
    assert_eq!(stem_sets.len(), branch_sets.len() + 1, "stem/branch length mismatch");
    let steps = branch_sets.len();
    let mut groups = Vec::new();
    let mut pos = 0usize;

    while pos < steps {
        // Remaining lifetime (within the segment) of each index of the
        // current stem tensor: number of upcoming stem tensors containing it.
        let current = &stem_sets[pos];
        let lifetime_len =
            |e: IndexId| stem_sets[pos..].iter().take_while(|s| s.contains(e)).count();
        // Indices sorted by decreasing remaining lifetime.
        let mut by_lifetime: Vec<(usize, IndexId)> =
            current.iter().map(|e| (lifetime_len(e), e)).collect();
        by_lifetime.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        // Slice the minimum number of indices needed to fit the LDM, taking
        // the longest-lived first.
        let need = current.rank().saturating_sub(ldm_rank);
        let sliced: Vec<IndexId> = by_lifetime.iter().take(need).map(|&(_, e)| e).collect();
        let sliced_lifetime =
            by_lifetime.iter().take(need).map(|&(l, _)| l).min().unwrap_or(usize::MAX);

        // Extend the group while (a) no sliced index is contracted, i.e. the
        // group length stays below the shortest sliced lifetime, and (b) the
        // kept rank of every stem tensor and the involved branches fit the
        // LDM.
        let mut end = pos;
        while end < steps {
            // Lifetime bound: stem tensor at position end+1 must still
            // contain every sliced index (otherwise one was just contracted).
            if (end + 1 - pos) >= sliced_lifetime {
                break;
            }
            let kept_next = stem_sets[end + 1].iter().filter(|e| !sliced.contains(e)).count();
            let branch_rank = branch_sets[end].rank();
            if kept_next > ldm_rank || branch_rank > ldm_rank {
                break;
            }
            end += 1;
        }
        // Always make progress: a group of at least one step (the paper's
        // fallback is the step-by-step treatment of that single step).
        if end == pos {
            end = pos + 1;
        }
        groups.push(FusedGroup { first_step: pos, last_step: end, sliced });
        pos = end;
    }

    SecondaryPlan { groups }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::random_segment;

    fn plan_for_segment(
        seed: u64,
        start_rank: usize,
        steps: usize,
        ldm_rank: usize,
    ) -> (SecondaryPlan, Vec<IndexSet>) {
        let seg = random_segment(seed, start_rank, steps, 2, 2);
        let stem_sets = seg.stem_index_sets();
        let branch_sets: Vec<IndexSet> = seg.branches.iter().map(|b| b.indices().clone()).collect();
        (plan_secondary_slicing(&stem_sets, &branch_sets, ldm_rank), stem_sets)
    }

    #[test]
    fn groups_tile_the_segment() {
        let (plan, _) = plan_for_segment(1, 16, 12, 13);
        assert_eq!(plan.total_steps(), 12);
        let mut expected_start = 0;
        for g in &plan.groups {
            assert_eq!(g.first_step, expected_start);
            assert!(g.first_step < g.last_step);
            expected_start = g.last_step;
        }
        assert_eq!(expected_start, 12);
    }

    #[test]
    fn kept_rank_fits_ldm() {
        let (plan, stem_sets) = plan_for_segment(2, 18, 10, 13);
        for g in &plan.groups {
            // The LDM-resident working tensor: the running stem tensor minus
            // the group's sliced indices, at every step of the group.
            let kept_rank = stem_sets[g.first_step..=g.last_step]
                .iter()
                .map(|s| s.iter().filter(|e| !g.sliced.contains(e)).count())
                .max()
                .expect("a group spans at least one step");
            assert!(kept_rank <= 13, "group {g:?} keeps rank {kept_rank} in the LDM");
        }
    }

    #[test]
    fn sliced_indices_survive_their_group() {
        let (plan, stem_sets) = plan_for_segment(3, 16, 12, 13);
        for g in &plan.groups {
            for stem_set in &stem_sets[g.first_step..=g.last_step] {
                for e in &g.sliced {
                    assert!(stem_set.contains(*e), "sliced index {e} contracted inside its group");
                }
            }
        }
    }

    #[test]
    fn fused_groups_save_roundtrips() {
        let (plan, _) = plan_for_segment(4, 16, 12, 13);
        assert!(plan.groups.len() < 12, "no fusion happened at all");
        assert!(plan.mean_fused_steps() > 1.0);
    }

    #[test]
    fn small_tensors_fuse_into_one_group() {
        // Everything fits the LDM: no secondary slicing, a single group.
        let (plan, _) = plan_for_segment(5, 10, 8, 13);
        assert_eq!(plan.groups.len(), 1);
        assert!(plan.groups[0].sliced.is_empty());
    }

    #[test]
    fn oversized_tensors_get_sliced() {
        let (plan, _) = plan_for_segment(6, 20, 8, 13);
        assert!(plan.groups.iter().any(|g| !g.sliced.is_empty()));
        for g in &plan.groups {
            assert_eq!(
                g.sliced.len(),
                g.sliced.iter().collect::<std::collections::HashSet<_>>().len()
            );
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let (a, _) = plan_for_segment(7, 16, 10, 13);
        let (b, _) = plan_for_segment(7, 16, 10, 13);
        assert_eq!(a, b);
    }
}
