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
//!
//! A stem edge's lifetime is one interval of stem positions, read from the
//! lifetime table the finder reads too, so the refiner keeps two integer
//! arrays instead of rescanning the stem: every position's rank after
//! slicing and every step's Eq. 4 exponent `|u| + |S| − |u ∩ S|`. A swap
//! moves each entry by at most one, over the intervals of the two edges it
//! exchanges. A trial reads both arrays with those two intervals applied
//! and writes nothing; only an accepted swap updates them. The candidates of a pick are the
//! unsliced edges whose interval contains the pick's critical positions.
//! The trial's cost folds the same integers in the same step order as
//! [`crate::sliced_log_cost`], resuming from the stored fold of the steps
//! before the first one the swap touches, and the random draws are the
//! same, so the refined plan is the one a full rescan per trial finds.

use crate::lifetime::{stem_tensors, Lifetimes, Span};
use crate::marks::SliceMarks;
use crate::overhead::{step_exponent, SlicingPlan};
use qtn_tensor::IndexId;
use qtn_tensornet::cost::LOG_ZERO;
use qtn_tensornet::{log2_add, LogCost, Stem};
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
pub fn refine_slicing(stem: &Stem, plan: &SlicingPlan, config: &RefinerConfig) -> SlicingPlan {
    if plan.is_empty() || stem.is_empty() {
        return plan.clone();
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let target = plan.target_rank;
    let mut state = SliceState::new(stem, &plan.sliced);

    // Drop sliced edges whose lifetime contains no critical tensor: they do
    // not contribute to memory reduction (§4.3) and removing them keeps the
    // plan feasible while strictly lowering the overhead.
    let mut current = state.drop_useless_edges(plan.sliced.clone(), target);

    let mut current_cost = state.log_cost(None, None);
    let mut best = current.clone();
    let mut best_cost = current_cost;

    let mut temperature = config.initial_temperature;
    while temperature >= config.final_temperature && !current.is_empty() {
        // Randomly choose a sliced index to try to replace.
        let pick = rng.gen_range(0..current.len());
        let index = current[pick];
        let out = state.lifetimes.span(index);

        // The candidates are the unsliced edges whose lifetime contains
        // every critical tensor within the picked index's lifetime; as
        // lifetimes are intervals, the first and the last of them.
        let critical = out.and_then(|span| state.critical_bounds(span, target));
        let accepted = state.lifetimes.edges().iter().find(|&&(can, span)| {
            let covers = critical.is_none_or(|(lo, hi)| span.start <= lo && hi <= span.end);
            // The trial set: `current` with `index` replaced by `can`.
            if state.marks.contains(can) || !covers || state.max_rank(out, Some(span)) > target {
                return false;
            }
            let new_cost = state.log_cost(out, Some(span));
            // Boltzmann acceptance on the relative cost increase.
            let accept = new_cost < current_cost || {
                let (c_ori, c_new) = (current_cost.exp2(), new_cost.exp2());
                rng.gen_bool(((c_ori - c_new) / c_ori / temperature).exp().clamp(0.0, 1.0))
            };
            if accept {
                current_cost = new_cost;
            }
            accept
        });
        if let Some(&(can, _)) = accepted {
            state.swap(index, can);
            current[pick] = can;
            if current_cost < best_cost {
                best = current.clone();
                best_cost = current_cost;
            }
        }
        temperature *= config.alpha;
    }

    SlicingPlan::new(best, target)
}

/// `1` if `at` lies in the optional interval, else `0`.
fn hit(span: Option<Span>, at: usize) -> usize {
    usize::from(span.is_some_and(|s| s.start <= at && at <= s.end))
}

/// The slicing set and what it does to the stem, kept as integers.
struct SliceState {
    /// The lifetime of every stem edge; its edge order is the order
    /// candidates are tried in.
    lifetimes: Lifetimes,
    /// Per stem position: the rank of its tensor after slicing.
    ranks: Vec<usize>,
    /// Per stem step: the Eq. 4 exponent `|u| + |S| − |u ∩ S|`.
    exponents: Vec<usize>,
    /// `folds[i]`: the exponents of steps `..i` summed in the log2 domain
    /// in step order, so `folds[steps]` is the set's Eq. 4 cost. A trial
    /// that leaves steps `..i` alone continues from `folds[i]`.
    folds: Vec<LogCost>,
    /// The slicing set `S`.
    marks: SliceMarks,
}

impl SliceState {
    fn new(stem: &Stem, sliced: &[IndexId]) -> Self {
        let lifetimes = Lifetimes::new(stem);
        let marks = SliceMarks::new(sliced);
        debug_assert_eq!(marks.len(), sliced.len(), "a slicing plan holds distinct edges");
        let ranks = stem_tensors(stem).map(|t| marks.count_unsliced(t)).collect();
        let exponents = stem.steps.iter().map(|step| step_exponent(step, &marks)).collect();
        let mut state = Self { lifetimes, ranks, exponents, folds: Vec::new(), marks };
        state.refold(0);
        state
    }

    /// Recompute the folds from step `from` on.
    fn refold(&mut self, from: usize) {
        self.folds.resize(self.exponents.len() + 1, LOG_ZERO);
        for i in from..self.exponents.len() {
            self.folds[i + 1] = log2_add(self.folds[i], self.exponents[i] as LogCost);
        }
    }

    /// The first and the last critical position (rank after slicing equal
    /// to the target) within `span`, if it holds any.
    fn critical_bounds(&self, span: Span, target: usize) -> Option<(usize, usize)> {
        let mut critical = span.positions().filter(|&p| self.ranks[p] == target);
        let first = critical.next()?;
        Some((first, critical.next_back().unwrap_or(first)))
    }

    /// The largest rank after slicing with the edge of lifetime `out`
    /// unsliced and the edge of lifetime `into` sliced.
    fn max_rank(&self, out: Option<Span>, into: Option<Span>) -> usize {
        (0..self.ranks.len()).map(|p| self.ranks[p] + hit(out, p) - hit(into, p)).max().unwrap_or(0)
    }

    /// Eq. 4 over the stem with the edge of lifetime `out` unsliced and the
    /// edge of lifetime `into` sliced (`|S|` unchanged), summed in the log2
    /// domain in step order: the steps before the first one either edge
    /// touches read their fold, the rest are folded on from it.
    fn log_cost(&self, out: Option<Span>, into: Option<Span>) -> LogCost {
        let steps = self.exponents.len();
        let (out, into) = (out.map(|s| s.steps(steps)), into.map(|s| s.steps(steps)));
        let from = out.iter().chain(&into).map(|s| s.start).min().unwrap_or(steps);
        (from..steps).fold(self.folds[from], |acc, i| {
            log2_add(acc, (self.exponents[i] + hit(out, i) - hit(into, i)) as LogCost)
        })
    }

    /// Replace the sliced edge `out` by the unsliced stem edge `into`.
    fn swap(&mut self, out: IndexId, into: IndexId) {
        let steps = self.exponents.len();
        let mut from = steps;
        if let Some(span) = self.lifetimes.span(out) {
            span.positions().for_each(|p| self.ranks[p] += 1);
            let on = span.steps(steps);
            on.positions().for_each(|i| self.exponents[i] += 1);
            from = on.start;
        }
        let span = self.lifetimes.span(into).expect("a candidate lies on the stem");
        span.positions().for_each(|p| self.ranks[p] -= 1);
        let on = span.steps(steps);
        on.positions().for_each(|i| self.exponents[i] -= 1);
        self.refold(from.min(on.start));
        self.marks.remove(out);
        self.marks.insert(into);
    }

    /// Unslice `edge`: its tensors gain a rank, and every step loses the
    /// `|S|` term except those whose union holds the edge.
    fn remove(&mut self, edge: IndexId) {
        let steps = self.exponents.len();
        let span = self.lifetimes.span(edge);
        let on = span.map(|s| s.steps(steps));
        for i in 0..steps {
            self.exponents[i] = self.exponents[i] + hit(on, i) - 1;
        }
        self.refold(0);
        if let Some(span) = span {
            span.positions().for_each(|p| self.ranks[p] += 1);
        }
        self.marks.remove(edge);
    }

    /// Remove sliced edges whose lifetime contains no critical tensor,
    /// repeating until a fixed point (removals can create new critical
    /// tensors, so the criticality is recomputed each pass). Returns the
    /// kept edges.
    fn drop_useless_edges(&mut self, mut sliced: Vec<IndexId>, target: usize) -> Vec<IndexId> {
        loop {
            let critical: Vec<bool> = self.ranks.iter().map(|&r| r == target).collect();
            let mut removed = false;
            let mut i = 0;
            while i < sliced.len() {
                let e = sliced[i];
                let span = self.lifetimes.span(e);
                let covers_some = span.is_some_and(|s| s.positions().any(|p| critical[p]));
                // Removing must stay feasible.
                if !covers_some && self.max_rank(span, None) <= target {
                    self.remove(e);
                    sliced.remove(i);
                    removed = true;
                    continue;
                }
                i += 1;
            }
            if !removed {
                return sliced;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finder::lifetime_slice_finder;
    use crate::overhead::{
        critical, is_feasible, max_rank, sliced_exponent, sliced_max_rank, slicing_overhead,
    };
    use crate::test_stems::lifetime_positions;
    use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};
    use qtn_tensornet::log2_sum;
    use qtn_tensornet::{
        extract_stem, greedy_path, simplify_network, ContractionTree, PathConfig, TensorNetwork,
    };

    /// `refine_slicing` as it was before the interval arrays: every
    /// iteration rescans the stem for critical tensors and every lifetime
    /// for candidates, and every trial edits the slicing set and rescans
    /// the stem for its rank and its Eq. 4 cost. Its lifetimes come from a
    /// direct position scan, not from the crate's lifetime table. The
    /// exactness oracle for the refiner.
    fn full_rescan_refine_slicing(
        stem: &Stem,
        plan: &SlicingPlan,
        config: &RefinerConfig,
    ) -> SlicingPlan {
        if plan.is_empty() || stem.is_empty() {
            return plan.clone();
        }
        // Every stem edge with its positions, in increasing edge order.
        let lifetimes = lifetime_positions(stem);
        let positions =
            |e: IndexId| lifetimes.binary_search_by_key(&e, |l| l.0).ok().map(|i| &lifetimes[i].1);
        let unions: Vec<Vec<IndexId>> = stem.steps.iter().map(|step| step.union()).collect();
        let price = |marks: &SliceMarks| {
            log2_sum(unions.iter().map(|union| sliced_exponent(union, marks) as LogCost))
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        let target = plan.target_rank;

        // Drop sliced edges whose lifetime contains no critical tensor.
        let mut current = plan.sliced.clone();
        let mut marks = SliceMarks::new(&current);
        loop {
            let crit = critical(stem, &marks, target);
            let mut removed = false;
            let mut i = 0;
            while i < current.len() {
                let e = current[i];
                let covers_some = positions(e).is_some_and(|l| crit.iter().any(|p| l.contains(p)));
                if !covers_some {
                    marks.remove(e);
                    if max_rank(stem, &marks) <= target {
                        current.remove(i);
                        removed = true;
                        continue;
                    }
                    marks.insert(e);
                }
                i += 1;
            }
            if !removed {
                break;
            }
        }

        let mut current_cost = price(&marks);
        let mut best = current.clone();
        let mut best_cost = current_cost;
        let mut temperature = config.initial_temperature;
        while temperature >= config.final_temperature && !current.is_empty() {
            let pick = rng.gen_range(0..current.len());
            let index = current[pick];
            let crit: Vec<usize> = match positions(index) {
                Some(l) => {
                    critical(stem, &marks, target).into_iter().filter(|p| l.contains(p)).collect()
                }
                None => Vec::new(),
            };
            let candidates: Vec<IndexId> = lifetimes
                .iter()
                .filter(|(e, l)| !marks.contains(*e) && crit.iter().all(|p| l.contains(p)))
                .map(|(e, _)| *e)
                .collect();
            for can in candidates {
                marks.remove(index);
                marks.insert(can);
                let accept = max_rank(stem, &marks) <= target && {
                    let new_cost = price(&marks);
                    let accept = if new_cost < current_cost {
                        true
                    } else {
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

    /// The interval refiner returns the full-rescan refiner's plan on every
    /// test stem, at the planner's target and at tighter ones, from the
    /// finder's plan and from a plan padded with an edge to drop, at the
    /// default schedule and at a hot, slow-cooling one.
    #[test]
    fn interval_refiner_matches_full_rescan() {
        let stems =
            crate::test_stems::sycamore_seed_set().iter().chain(crate::test_stems::random_rqcs());
        let configs = [
            RefinerConfig::default(),
            RefinerConfig { seed: 7, ..Default::default() },
            RefinerConfig { initial_temperature: 10.0, alpha: 0.97, seed: 3, ..Default::default() },
        ];
        let (mut moved, mut dropped) = (0, 0);
        for (name, stem) in stems {
            let full = sliced_max_rank(stem, &[]);
            let targets: Vec<usize> = if full > 30 {
                vec![30, 28]
            } else {
                vec![full.saturating_sub(3).max(4), full.saturating_sub(5).max(4)]
            };
            for target in targets {
                let found = lifetime_slice_finder(stem, target);
                // An edge off every critical tensor: the refiner drops it.
                let lifetimes = lifetime_positions(stem);
                let mut padded = found.sliced.clone();
                padded.extend(
                    lifetimes.iter().filter(|(_, l)| l.len() == 1).map(|(e, _)| *e).take(1),
                );
                let padded = SlicingPlan::new(padded, target);
                for plan in [&found, &padded] {
                    for config in &configs {
                        let got = refine_slicing(stem, plan, config);
                        let want = full_rescan_refine_slicing(stem, plan, config);
                        assert_eq!(got, want, "{name}, target {target}, {plan:?}, {config:?}");
                        moved += usize::from(got.sliced != plan.sliced);
                        dropped += usize::from(got.len() < plan.len());
                    }
                }
            }
        }
        assert!(moved > 0 && dropped > 0, "no case swapped or dropped an edge");
    }

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
        let some_edge = lifetime_positions(&stem)[0].0;
        let plan = SlicingPlan::new(vec![some_edge], target);
        let refined = refine_slicing(&stem, &plan, &RefinerConfig::default());
        assert!(refined.is_empty(), "pointless slice was not removed");
    }
}
