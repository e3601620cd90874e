//! Contraction-path search.
//!
//! The paper uses cotengra to find contraction paths and concentrates its own
//! contribution on slicing; this module provides the path-search substrate:
//!
//! * [`greedy_path`] — cotengra-style greedy search over adjacent pairs with
//!   a tunable cost temperature (0 = deterministic);
//! * [`random_greedy_paths`] — repeated randomised greedy runs returning all
//!   candidate paths with their costs (the "400 contraction paths" of
//!   Fig. 10 are generated this way).

use crate::cost::{log2_add, LogCost, LOG_ZERO};
use crate::graph::TensorNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
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

/// A greedy candidate — contract `a` with `b` at `score` — as one integer
/// whose ascending order is the search's preference: lowest score, then
/// lowest `a`, then lowest `b`. The high 64 bits are the score's
/// order-preserving bits (the sign bit flipped for a non-negative score,
/// every bit for a negative one, −0.0 read as +0.0), then `a` and `b` as
/// `u32`s. Scores are finite, so this is the order of `f64::total_cmp`
/// with the zeros merged: the same strict order as comparing the score
/// with `partial_cmp` and breaking ties on the ids.
fn candidate_key(score: f64, a: usize, b: usize) -> u128 {
    let bits = if score == 0.0 { 0 } else { score.to_bits() };
    let ordered = if bits >> 63 == 1 { !bits } else { bits | (1 << 63) };
    (u128::from(ordered) << 64) | ((a as u128) << 32) | b as u128
}

/// The score a [`candidate_key`] was built from.
fn key_score(key: u128) -> f64 {
    let ordered = (key >> 64) as u64;
    f64::from_bits(if ordered >> 63 == 1 { ordered ^ (1 << 63) } else { !ordered })
}

/// The pair `(a, b)` a [`candidate_key`] was built from.
fn key_pair(key: u128) -> (usize, usize) {
    ((key >> 32) as u32 as usize, key as u32 as usize)
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
    greedy_path_cost(network, config).0
}

/// [`greedy_path`] with the path's total cost: log2 of Eq. (1), the
/// `2^{|a ∪ b|}` of every contraction `(a, b)` added up in path order as it
/// contracts. That is the fold [`crate::ContractionTree::total_log_cost`]
/// makes over the internal nodes of the path's tree, so the two are equal
/// bit for bit.
fn greedy_path_cost(
    network: &mut TensorNetwork,
    config: &PathConfig,
) -> (Vec<(usize, usize)>, LogCost) {
    let heap = initial_candidates(network);
    greedy_from(network, heap, config)
}

/// `2^r` for `r ≤ 60`, the sizes [`greedy_score`] reads.
fn powers_of_two() -> [f64; 61] {
    std::array::from_fn(|r| (r as f64).exp2())
}

/// The candidate heap greedy starts from: a [`candidate_key`] for every
/// pair of adjacent vertices. It depends on the network alone, so every
/// run on the same network starts from a clone of one heap.
fn initial_candidates(network: &TensorNetwork) -> BinaryHeap<Reverse<u128>> {
    // Every vertex id, intermediates included, fits the key's 32-bit fields.
    assert!(network.num_slots() + network.num_active() <= u32::MAX as usize, "network too large");
    let pow2 = powers_of_two();
    let mut keys = Vec::new();
    let mut adjacent = Vec::new();
    for v in network.active_vertices() {
        network.neighbor_overlaps(v, &mut adjacent);
        let rv = network.rank(v);
        for &(u, shared) in adjacent.iter().filter(|&&(u, _)| u > v) {
            let score = greedy_score(&pow2, rv, network.rank(u), shared);
            keys.push(Reverse(candidate_key(score, v, u)));
        }
    }
    BinaryHeap::from(keys)
}

/// [`greedy_path_cost`] from the network's [`initial_candidates`].
fn greedy_from(
    network: &mut TensorNetwork,
    mut heap: BinaryHeap<Reverse<u128>>,
    config: &PathConfig,
) -> (Vec<(usize, usize)>, LogCost) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pow2 = powers_of_two();
    let mut pairs = Vec::new();
    // Candidates are `candidate_key`s, best first in ascending order; every
    // candidate pair is pushed once, so no two keys are equal and any heap
    // pops them in the same order. `pool` holds the `width` best valid
    // candidates, ascending, across steps; the heap holds the rest, plus
    // candidates gone stale when one of their vertices was contracted,
    // dropped as they surface.
    let mut pool: Vec<u128> = Vec::new();
    let width = if config.temperature <= 0.0 { 1 } else { 8 };
    // Scratch reused across steps: one vertex's neighbours with their
    // shared-edge counts, and the Boltzmann weights.
    let mut adjacent = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    let mut cost = LOG_ZERO;

    while network.num_active() > 1 {
        let valid = |key: u128| {
            let (a, b) = key_pair(key);
            network.is_active(a) && network.is_active(b)
        };
        let mut chosen: Option<(usize, usize)> = None;
        // Refill the pool with the best valid candidates: pop while the
        // pool has room or the heap's best beats the pool's worst.
        pool.retain(|&key| valid(key));
        while let Some(&Reverse(top)) = heap.peek() {
            if pool.len() >= width && top > pool[pool.len() - 1] {
                break;
            }
            heap.pop();
            if valid(top) {
                let at = pool.partition_point(|&key| key < top);
                pool.insert(at, top);
                if pool.len() > width {
                    heap.push(Reverse(pool.pop().expect("over width")));
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
                let base = key_score(pool[0]);
                let temperature = config.temperature.max(1e-9);
                weights.clear();
                weights
                    .extend(pool.iter().map(|&key| (-(key_score(key) - base) / temperature).exp()));
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
            chosen = Some(key_pair(pool.remove(pick)));
        } else {
            // No adjacent pairs left: outer-product the first two actives.
            let actives = network.active_vertices();
            if actives.len() >= 2 {
                chosen = Some((actives[0], actives[1]));
            }
        }

        let (a, b) = chosen.expect("no contraction candidate found");
        let operand_ranks = network.rank(a) + network.rank(b);
        let new_v = network.contract(a, b);
        pairs.push((a, b));
        let rv = network.rank(new_v);
        // |a ∪ b| = (|a| + |b| + |a Δ b|) / 2, and the new vertex holds a Δ b.
        cost = log2_add(cost, ((operand_ranks + rv) / 2) as LogCost);
        network.neighbor_overlaps(new_v, &mut adjacent);
        for &(u, shared) in &adjacent {
            let score = greedy_score(&pow2, rv, network.rank(u), shared);
            heap.push(Reverse(candidate_key(score, new_v, u)));
        }
    }
    (pairs, cost)
}

/// Run `count` randomised greedy searches (different seeds/temperatures) on
/// copies of `network` and return each resulting pair list with its total
/// cost (log2 of Eq. 1, equal bit for bit to the `total_log_cost` of the
/// pairs' [`crate::ContractionTree`] on `network`), sorted by ascending
/// cost.
pub fn random_greedy_paths(
    network: &TensorNetwork,
    count: usize,
    base_seed: u64,
) -> Vec<(LogCost, Vec<(usize, usize)>)> {
    let heap = initial_candidates(network);
    let mut results: Vec<(LogCost, Vec<(usize, usize)>)> = (0..count)
        .map(|i| {
            let config = PathConfig {
                temperature: if i == 0 { 0.0 } else { 0.3 + 0.2 * ((i % 5) as f64) },
                seed: base_seed.wrapping_add(i as u64),
            };
            let (pairs, cost) = greedy_from(&mut network.clone(), heap.clone(), &config);
            (cost, pairs)
        })
        .collect();
    // Stable, so equal costs keep their search order.
    results.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify::simplify_network;
    use crate::tree::ContractionTree;
    use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};
    use qtn_tensor::IndexSet;

    fn small_rqc_network(rows: usize, cols: usize, cycles: usize) -> TensorNetwork {
        let cfg = RqcConfig::small(rows, cols, cycles, 3);
        let c = cfg.build();
        let n = c.num_qubits();
        let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0; n]));
        TensorNetwork::from_build(&b)
    }

    /// The greedy candidate as it was ordered before [`candidate_key`]:
    /// greatest is best (lowest score through `partial_cmp`, then lowest
    /// ids).
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
            other
                .score
                .partial_cmp(&self.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| other.a.cmp(&self.a))
                .then_with(|| other.b.cmp(&self.b))
        }
    }

    #[test]
    fn candidate_keys_order_as_candidates_did() {
        let pow2: [f64; 61] = std::array::from_fn(|r| (r as f64).exp2());
        let mut rng = StdRng::seed_from_u64(7);
        // Few distinct values of each field, so ties are common: both
        // zeros, small scores of either sign, real greedy scores from ranks
        // 0..=80 (2^60-saturated above 60), and the ids 0..6.
        let score = |rng: &mut StdRng| match rng.gen_range(0..6usize) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.gen_range(0..=6usize) as f64 - 3.0,
            3 => -pow2[60] - pow2[60],
            _ => {
                let (ra, rb) = (rng.gen_range(0..=80), rng.gen_range(0..=80));
                greedy_score(&pow2, ra, rb, rng.gen_range(0..=ra.min(rb)))
            }
        };
        let mut ties = 0;
        for _ in 0..20_000 {
            let x = Candidate {
                score: score(&mut rng),
                a: rng.gen_range(0..6),
                b: rng.gen_range(0..6),
            };
            let y = Candidate {
                score: score(&mut rng),
                a: rng.gen_range(0..6),
                b: rng.gen_range(0..6),
            };
            let (kx, ky) = (candidate_key(x.score, x.a, x.b), candidate_key(y.score, y.a, y.b));
            // Greater candidate = better = smaller key.
            assert_eq!(
                x.cmp(&y),
                ky.cmp(&kx),
                "{}/{}/{} vs {}/{}/{}",
                x.score,
                x.a,
                x.b,
                y.score,
                y.a,
                y.b
            );
            ties += usize::from(x == y || kx == ky);
            assert_eq!(key_pair(kx), (x.a, x.b));
            assert_eq!(key_score(kx), x.score);
            assert_eq!(
                key_score(kx).to_bits(),
                (x.score + 0.0).to_bits(),
                "-0.0 reads back as +0.0"
            );
        }
        assert!(ties > 0, "no tie was drawn");
        // Ids use all 32 bits of their fields.
        let max = u32::MAX as usize;
        assert!(candidate_key(1.0, max, 0) > candidate_key(1.0, max - 1, max));
        assert!(candidate_key(-1.0, max, max) < candidate_key(1.0, 0, 0));
        assert_eq!(key_pair(candidate_key(-2.5, max, 3)), (max, 3));
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
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn greedy_cost_is_the_tree_cost_bit_for_bit() {
        let mut circuits = Vec::new();
        for (rows, cols) in [(3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6)] {
            for seed in 1..=3 {
                circuits.push(RqcConfig::small(rows, cols, 6 + 2 * seed as usize, seed).build());
            }
        }
        for cycles in [12, 16, 20] {
            circuits.push(RqcConfig::sycamore(cycles, 5).build());
        }
        assert!(circuits.len() >= 20);
        for c in &circuits {
            let n = c.num_qubits();
            let b = circuit_to_network(c, &OutputSpec::Amplitude(vec![0; n]));
            let mut work = TensorNetwork::from_build(&b);
            simplify_network(&mut work);
            let candidates = random_greedy_paths(&work, 8, 11);
            assert_eq!(candidates.len(), 8);
            for (k, (cost, pairs)) in candidates.iter().enumerate() {
                let tree = ContractionTree::from_pairs(&work, pairs);
                assert_eq!(
                    cost.to_bits(),
                    tree.total_log_cost().to_bits(),
                    "{n} qubits, candidate {k}: {cost} vs {}",
                    tree.total_log_cost()
                );
            }
        }

        // Two components: the last contraction is the outer product.
        let g = TensorNetwork::new(&[
            IndexSet::new(vec![0, 1]),
            IndexSet::new(vec![1, 2]),
            IndexSet::new(vec![3, 4]),
            IndexSet::new(vec![4, 5]),
            IndexSet::new(vec![5, 6]),
        ]);
        for (cost, pairs) in random_greedy_paths(&g, 8, 3) {
            let tree = ContractionTree::from_pairs(&g, &pairs);
            let (l, r) = tree.node(tree.root()).children.expect("an internal root");
            assert_eq!(
                tree.node_union(tree.root()).len(),
                tree.node(l).rank() + tree.node(r).rank()
            );
            assert_eq!(cost.to_bits(), tree.total_log_cost().to_bits());
        }
    }

    /// The candidates of one shared initial heap are the paths each run
    /// finds from a heap of its own built by pushing every key, at
    /// temperature 0 and above.
    #[test]
    fn shared_initial_heap_changes_no_path() {
        for (rows, cols, cycles, seed) in [(3, 4, 8, 1u64), (4, 5, 12, 2), (5, 6, 10, 3)] {
            let mut g = small_rqc_network(rows, cols, cycles);
            simplify_network(&mut g);
            let mut want: Vec<(LogCost, Vec<(usize, usize)>)> = (0..6)
                .map(|i| {
                    let config = PathConfig {
                        temperature: if i == 0 { 0.0 } else { 0.3 + 0.2 * ((i % 5) as f64) },
                        seed: seed.wrapping_add(i as u64),
                    };
                    let mut heap = BinaryHeap::new();
                    for key in initial_candidates(&g).into_vec() {
                        heap.push(key);
                    }
                    let (pairs, cost) = greedy_from(&mut g.clone(), heap, &config);
                    (cost, pairs)
                })
                .collect();
            want.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let got = random_greedy_paths(&g, 6, seed);
            assert_eq!(got.len(), want.len());
            for (k, ((gc, gp), (wc, wp))) in got.iter().zip(&want).enumerate() {
                assert_eq!((gc.to_bits(), gp), (wc.to_bits(), wp), "{rows}x{cols}: candidate {k}");
            }
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
