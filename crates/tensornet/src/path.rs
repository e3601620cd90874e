//! Contraction-path search.
//!
//! The paper uses cotengra to find contraction paths and concentrates its own
//! contribution on slicing; this module provides the path-search substrate:
//!
//! * [`greedy_path`] — cotengra-style greedy search over adjacent pairs with
//!   a tunable cost temperature (0 = deterministic);
//! * [`random_greedy_paths`] — repeated randomised greedy runs returning all
//!   candidate trees (the "400 contraction paths" of Fig. 10 are generated
//!   this way).

use crate::graph::TensorNetwork;
use crate::tree::ContractionTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;

/// Options controlling greedy path search.
#[derive(Debug, Clone)]
pub struct PathConfig {
    /// Boltzmann temperature for randomised greedy choice; 0 picks the best
    /// candidate deterministically.
    pub temperature: f64,
    /// RNG seed for the randomised variants.
    pub seed: u64,
}

impl Default for PathConfig {
    fn default() -> Self {
        Self { temperature: 0.0, seed: 0 }
    }
}

#[derive(PartialEq)]
struct Candidate {
    score: f64,
    a: usize,
    b: usize,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on score: reverse the comparison, tie-break on ids for
        // determinism.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.a.cmp(&self.a))
            .then_with(|| other.b.cmp(&self.b))
    }
}

/// Greedy score of contracting a rank-`ra` and a rank-`rb` tensor sharing
/// `shared` edges: size of the result minus the sizes of the inputs
/// (cotengra's default `memory-removed` heuristic), computed in the linear
/// domain but saturated to avoid overflow. `pow2[r]` is `2^r` for
/// `r ≤ 60`, sizes are capped at `2^60` to stay finite.
fn greedy_score(pow2: &[f64; 61], ra: usize, rb: usize, shared: usize) -> f64 {
    let cap = |r: usize| pow2[r.min(60)];
    cap(ra + rb - 2 * shared) - cap(ra) - cap(rb)
}

/// Find a contraction path by greedy adjacent-pair selection, mutating
/// `network` as it goes and returning the SSA contraction pairs.
///
/// Disconnected components are joined by outer products once no adjacent
/// pairs remain.
pub fn greedy_path(network: &mut TensorNetwork, config: &PathConfig) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pow2: [f64; 61] = std::array::from_fn(|r| (r as f64).exp2());
    let mut pairs = Vec::new();
    // Candidates compare greatest-first by priority (lowest score, then
    // lowest ids); every candidate pair is pushed once, so no two compare
    // equal and any heap pops them in the same order. `pool` holds the
    // `width` best valid candidates, best first, across steps; the heap
    // holds the rest, plus candidates gone stale when one of their
    // vertices was contracted, dropped as they surface.
    let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
    let mut pool: Vec<Candidate> = Vec::new();
    let width = if config.temperature <= 0.0 { 1 } else { 8 };
    // Scratch reused across steps: one vertex's neighbours with their
    // shared-edge counts, and the Boltzmann weights.
    let mut adjacent = Vec::new();
    let mut weights: Vec<f64> = Vec::new();

    for v in network.active_vertices() {
        network.neighbor_overlaps(v, &mut adjacent);
        let rv = network.rank(v);
        for &(u, shared) in adjacent.iter().filter(|&&(u, _)| u > v) {
            let score = greedy_score(&pow2, rv, network.rank(u), shared);
            heap.push(Candidate { score, a: v, b: u });
        }
    }

    while network.num_active() > 1 {
        let valid = |c: &Candidate| network.is_active(c.a) && network.is_active(c.b);
        let mut chosen: Option<(usize, usize)> = None;
        // Refill the pool with the best valid candidates: pop while the
        // pool has room or the heap's best beats the pool's worst.
        pool.retain(valid);
        while let Some(top) = heap.peek() {
            if pool.len() >= width && top < &pool[pool.len() - 1] {
                break;
            }
            let c = heap.pop().expect("peeked");
            if valid(&c) {
                let at = pool.partition_point(|p| *p > c);
                pool.insert(at, c);
                if pool.len() > width {
                    heap.push(pool.pop().expect("over width"));
                }
            }
        }
        if !pool.is_empty() {
            // Optionally perturb the choice: at a positive temperature the
            // pick is a Boltzmann sample over the pool.
            let pick = if config.temperature <= 0.0 || pool.len() == 1 {
                0
            } else {
                // Boltzmann sample over relative scores.
                let base = pool[0].score;
                weights.clear();
                weights.extend(
                    pool.iter().map(|c| (-(c.score - base) / config.temperature.max(1e-9)).exp()),
                );
                let total: f64 = weights.iter().sum();
                let mut r = rng.gen_range(0.0..total);
                let mut idx = 0;
                for (i, w) in weights.iter().enumerate() {
                    if r < *w {
                        idx = i;
                        break;
                    }
                    r -= w;
                }
                idx
            };
            let c = pool.remove(pick);
            chosen = Some((c.a, c.b));
        } else {
            // No adjacent pairs left: outer-product the first two actives.
            let actives = network.active_vertices();
            if actives.len() >= 2 {
                chosen = Some((actives[0], actives[1]));
            }
        }

        let (a, b) = chosen.expect("no contraction candidate found");
        let new_v = network.contract(a, b);
        pairs.push((a, b));
        network.neighbor_overlaps(new_v, &mut adjacent);
        let rv = network.rank(new_v);
        for &(u, shared) in &adjacent {
            let score = greedy_score(&pow2, rv, network.rank(u), shared);
            heap.push(Candidate { score, a: new_v, b: u });
        }
    }
    pairs
}

/// Run `count` randomised greedy searches (different seeds/temperatures) on
/// copies of `network` and return each resulting contraction tree along with
/// its pair list, sorted by ascending total cost.
pub fn random_greedy_paths(
    network: &TensorNetwork,
    count: usize,
    base_seed: u64,
) -> Vec<(ContractionTree, Vec<(usize, usize)>)> {
    let mut results = Vec::with_capacity(count);
    for i in 0..count {
        let mut g = network.clone();
        let config = PathConfig {
            temperature: if i == 0 { 0.0 } else { 0.3 + 0.2 * ((i % 5) as f64) },
            seed: base_seed.wrapping_add(i as u64),
        };
        let pairs = greedy_path(&mut g, &config);
        let tree = ContractionTree::from_pairs(network, &pairs);
        results.push((tree.total_log_cost(), (tree, pairs)));
    }
    // Stable, so equal costs keep their search order.
    results.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    results.into_iter().map(|(_, candidate)| candidate).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify::simplify_network;
    use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};
    use qtn_tensor::IndexSet;

    fn small_rqc_network(rows: usize, cols: usize, cycles: usize) -> TensorNetwork {
        let cfg = RqcConfig::small(rows, cols, cycles, 3);
        let c = cfg.build();
        let n = c.num_qubits();
        let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0; n]));
        TensorNetwork::from_build(&b)
    }

    #[test]
    fn greedy_contracts_to_scalar() {
        let mut g = small_rqc_network(3, 3, 6);
        let original = g.clone();
        let pairs = greedy_path(&mut g, &PathConfig::default());
        assert_eq!(g.num_active(), 1);
        let tree = ContractionTree::from_pairs(&original, &pairs);
        assert_eq!(tree.node(tree.root()).rank(), 0);
        assert!(tree.total_log_cost() > 0.0);
    }

    #[test]
    fn greedy_on_simplified_network() {
        let mut g = small_rqc_network(3, 3, 8);
        let original = g.clone();
        let mut pairs = simplify_network(&mut g);
        pairs.extend(greedy_path(&mut g, &PathConfig::default()));
        let tree = ContractionTree::from_pairs(&original, &pairs);
        assert_eq!(tree.node(tree.root()).rank(), 0);
    }

    #[test]
    fn greedy_is_deterministic_at_zero_temperature() {
        let g = small_rqc_network(3, 3, 6);
        let mut g1 = g.clone();
        let mut g2 = g.clone();
        let p1 = greedy_path(&mut g1, &PathConfig::default());
        let p2 = greedy_path(&mut g2, &PathConfig::default());
        assert_eq!(p1, p2);
    }

    #[test]
    fn random_greedy_returns_sorted_candidates() {
        let mut g = small_rqc_network(3, 4, 8);
        simplify_network(&mut g);
        let candidates = random_greedy_paths(&g, 6, 42);
        assert_eq!(candidates.len(), 6);
        for w in candidates.windows(2) {
            assert!(w[0].0.total_log_cost() <= w[1].0.total_log_cost() + 1e-9);
        }
    }

    #[test]
    fn handles_disconnected_networks() {
        // Two disjoint pairs: needs an outer product at the end.
        let mut g = TensorNetwork::new(&[
            IndexSet::new(vec![0]),
            IndexSet::new(vec![0]),
            IndexSet::new(vec![1]),
            IndexSet::new(vec![1]),
        ]);
        let pairs = greedy_path(&mut g, &PathConfig::default());
        assert_eq!(pairs.len(), 3);
        assert_eq!(g.num_active(), 1);
    }

    #[test]
    fn greedy_beats_worst_case_ordering_on_grid() {
        // For a grid circuit the greedy tree should be far below the
        // worst-case (sequential in construction order) cost.
        let g = small_rqc_network(3, 4, 10);
        let mut simplified = g.clone();
        let mut pairs = simplify_network(&mut simplified);
        let pre = pairs.len();
        pairs.extend(greedy_path(&mut simplified, &PathConfig::default()));
        let greedy_tree = ContractionTree::from_pairs(&g, &pairs);

        // Sequential ordering: contract vertices in index order.
        let mut seq = g.clone();
        let mut seq_pairs = Vec::new();
        loop {
            let actives = seq.active_vertices();
            if actives.len() < 2 {
                break;
            }
            let v = seq.contract(actives[0], actives[1]);
            let _ = v;
            seq_pairs.push((actives[0], actives[1]));
        }
        let seq_tree = ContractionTree::from_pairs(&g, &seq_pairs);
        assert!(
            greedy_tree.total_log_cost() <= seq_tree.total_log_cost(),
            "greedy {} vs sequential {} (pre-simplified {pre} pairs)",
            greedy_tree.total_log_cost(),
            seq_tree.total_log_cost()
        );
    }
}
