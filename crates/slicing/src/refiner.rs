//! Algorithm 2: the simulated-annealing slice refiner.
//!
//! The finder produces a slicing set that is as small as possible but not
//! necessarily the one with the lowest overhead for that size. The refiner
//! keeps the size fixed and searches the space of *edge replacements*: a
//! sliced edge `a` may be swapped for an unsliced edge `b` whenever the
//! lifetime of `b` covers every *critical tensor* (stem tensor whose rank
//! after slicing equals the target) in the lifetime of `a`, which preserves
//! memory feasibility. Replacements that lower the sliced complexity are
//! always accepted; worse ones are accepted with the Boltzmann probability
//! `exp((C_ori − C_new)/C_ori/T)` so the search can escape local minima,
//! with the temperature decaying geometrically until it reaches the final
//! temperature.

use crate::lifetime::{compute_lifetimes, Lifetime, LifetimeTable};
use crate::marks::SliceMarks;
use crate::overhead::{critical, max_rank, SlicingPlan, StepUnions};
use qtn_tensor::IndexId;
use qtn_tensornet::Stem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the simulated-annealing refiner.
#[derive(Debug, Clone)]
pub struct RefinerConfig {
    /// Initial temperature.
    pub initial_temperature: f64,
    /// Final temperature: the loop stops when the temperature drops below it.
    pub final_temperature: f64,
    /// Geometric cooling factor per outer iteration (the paper's `α`).
    pub alpha: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RefinerConfig {
    fn default() -> Self {
        Self { initial_temperature: 1.0, final_temperature: 1e-3, alpha: 0.95, seed: 0 }
    }
}

/// Refine a slicing plan with simulated annealing (Algorithm 2), returning a
/// plan of the same size whose overhead is no worse than the input's.
///
/// The stem does not change while the refiner runs, so its step unions are
/// built once and the current set lives in an edge-indexed table: a trial
/// swaps one edge out and one in, is priced in one pass over the unions,
/// and is swapped back if rejected.
pub fn refine_slicing(stem: &Stem, plan: &SlicingPlan, config: &RefinerConfig) -> SlicingPlan {
    if plan.is_empty() || stem.is_empty() {
        return plan.clone();
    }
    let table = compute_lifetimes(stem);
    // Every stem edge's lifetime in edge order, read by each iteration's
    // candidate scan without a hash lookup or a sort.
    let mut lifetimes: Vec<&Lifetime> = table.edges().filter_map(|e| table.get(e)).collect();
    lifetimes.sort_unstable_by_key(|l| l.edge);
    let unions = StepUnions::new(stem);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let target = plan.target_rank;

    // Drop sliced edges whose lifetime contains no critical tensor: they do
    // not contribute to memory reduction (§4.3) and removing them keeps the
    // plan feasible while strictly lowering the overhead.
    let (mut current, mut marks) = drop_useless_edges(stem, &table, plan.sliced.clone(), target);

    let mut current_cost = unions.sliced_log_cost(&marks);
    let mut best = current.clone();
    let mut best_cost = current_cost;

    let mut temperature = config.initial_temperature;
    while temperature >= config.final_temperature && !current.is_empty() {
        // Randomly choose a sliced index to try to replace.
        let pick = rng.gen_range(0..current.len());
        let index = current[pick];

        // Critical tensors within the lifetime of the picked index.
        let crit = critical_in_lifetime(stem, &table, &marks, index, target);
        let candidates = find_candidate_indices(&lifetimes, &marks, &crit);

        for can in candidates {
            // The trial set: `current` with `index` replaced by `can`.
            marks.remove(index);
            marks.insert(can);
            let accept = max_rank(stem, &marks) <= target && {
                let new_cost = unions.sliced_log_cost(&marks);
                let accept = if new_cost < current_cost {
                    true
                } else {
                    // Boltzmann acceptance on the relative cost increase.
                    let c_ori = current_cost.exp2();
                    let c_new = new_cost.exp2();
                    let p = ((c_ori - c_new) / c_ori / temperature).exp();
                    rng.gen_bool(p.clamp(0.0, 1.0))
                };
                if accept {
                    current_cost = new_cost;
                }
                accept
            };
            if accept {
                current[pick] = can;
                if current_cost < best_cost {
                    best = current.clone();
                    best_cost = current_cost;
                }
                break;
            }
            marks.remove(can);
            marks.insert(index);
        }
        temperature *= config.alpha;
    }

    SlicingPlan::new(best, target)
}

/// Remove sliced edges whose lifetime contains no critical tensor, repeating
/// until a fixed point (removals can create new critical tensors, so the
/// criticality is recomputed each pass). Returns the kept edges and their
/// table.
fn drop_useless_edges(
    stem: &Stem,
    table: &LifetimeTable,
    mut sliced: Vec<IndexId>,
    target: usize,
) -> (Vec<IndexId>, SliceMarks) {
    let mut marks = SliceMarks::new(&sliced);
    loop {
        let crit = critical(stem, &marks, target);
        let mut removed = false;
        let mut i = 0;
        while i < sliced.len() {
            let e = sliced[i];
            let covers_some =
                table.get(e).map(|l| crit.iter().any(|&p| l.contains(p))).unwrap_or(false);
            if !covers_some {
                // Removing must stay feasible; verify before committing.
                marks.remove(e);
                if max_rank(stem, &marks) <= target {
                    sliced.remove(i);
                    removed = true;
                    continue;
                }
                marks.insert(e);
            }
            i += 1;
        }
        if !removed {
            return (sliced, marks);
        }
    }
}

/// Critical tensors (positions) lying within the lifetime of `index`.
fn critical_in_lifetime(
    stem: &Stem,
    table: &LifetimeTable,
    sliced: &SliceMarks,
    index: IndexId,
    target: usize,
) -> Vec<usize> {
    match table.get(index) {
        Some(l) => critical(stem, sliced, target).into_iter().filter(|&p| l.contains(p)).collect(),
        None => Vec::new(),
    }
}

/// Unsliced indices whose lifetime contains every given critical position,
/// in increasing order (`lifetimes` is in edge order).
fn find_candidate_indices(
    lifetimes: &[&Lifetime],
    sliced: &SliceMarks,
    critical: &[usize],
) -> Vec<IndexId> {
    lifetimes
        .iter()
        .filter(|l| !sliced.contains(l.edge) && critical.iter().all(|&p| l.contains(p)))
        .map(|l| l.edge)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finder::lifetime_slice_finder;
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
    fn refinement_never_hurts() {
        for seed in 0..4u64 {
            let stem = rqc_stem(3, 4, 10, 30 + seed);
            let full = sliced_max_rank(&stem, &[]);
            let target = full.saturating_sub(3).max(4);
            let plan = lifetime_slice_finder(&stem, target);
            let refined = refine_slicing(&stem, &plan, &RefinerConfig::default());
            assert!(is_feasible(&stem, &refined));
            assert!(refined.len() <= plan.len());
            let before = slicing_overhead(&stem, &plan.sliced);
            let after = slicing_overhead(&stem, &refined.sliced);
            assert!(
                after <= before + 1e-9,
                "refiner made things worse: {before} -> {after} (seed {seed})"
            );
        }
    }

    #[test]
    fn empty_plan_passes_through() {
        let stem = rqc_stem(3, 3, 8, 40);
        let plan = SlicingPlan::new(vec![], 64);
        let refined = refine_slicing(&stem, &plan, &RefinerConfig::default());
        assert!(refined.is_empty());
    }

    #[test]
    fn refiner_is_deterministic_for_a_seed() {
        let stem = rqc_stem(3, 4, 12, 41);
        let full = sliced_max_rank(&stem, &[]);
        let plan = lifetime_slice_finder(&stem, full.saturating_sub(4).max(4));
        let cfg = RefinerConfig { seed: 7, ..Default::default() };
        let a = refine_slicing(&stem, &plan, &cfg);
        let b = refine_slicing(&stem, &plan, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn refined_plan_respects_target() {
        let stem = rqc_stem(4, 4, 12, 42);
        let full = sliced_max_rank(&stem, &[]);
        for delta in 1..=4usize {
            let target = full.saturating_sub(delta).max(4);
            let plan = lifetime_slice_finder(&stem, target);
            let refined = refine_slicing(
                &stem,
                &plan,
                &RefinerConfig { seed: delta as u64, ..Default::default() },
            );
            assert!(is_feasible(&stem, &refined), "target {target} violated after refinement");
        }
    }

    #[test]
    fn useless_edges_are_dropped() {
        let stem = rqc_stem(3, 4, 10, 43);
        let full = sliced_max_rank(&stem, &[]);
        // No slicing needed at all; hand the refiner a plan that slices one
        // random edge anyway.
        let target = full;
        let table = compute_lifetimes(&stem);
        let some_edge = table.edges().next().unwrap();
        let plan = SlicingPlan::new(vec![some_edge], target);
        let refined = refine_slicing(&stem, &plan, &RefinerConfig::default());
        assert!(refined.is_empty(), "pointless slice was not removed");
    }
}
