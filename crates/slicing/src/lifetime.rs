//! Lifetime of tensor-network edges (Definition 1 of the paper).
//!
//! Given a contraction tree (here: its stem), the lifetime of an edge `k` is
//! the set of tensors whose index set contains `k`. On the stem the tensors
//! are numbered `0..=len`: position `p < len` is the running stem tensor
//! *before* step `p`, and position `len` is the final result. Because every
//! edge of a (simple) qubit tensor network touches exactly two original
//! tensors, its appearance on the stem is a contiguous interval: it enters
//! when the first endpoint is merged into the stem and leaves when the
//! contraction with the second endpoint sums it away.
//!
//! The *length* of a lifetime — how many stem tensors carry the edge — is
//! the quantity Algorithm 1 ranks candidate slices by: slicing a long-lived
//! edge shrinks many tensors and leaves few contractions untouched, which is
//! exactly what keeps the overhead low.

use qtn_tensor::IndexId;
use qtn_tensornet::Stem;
use std::collections::HashMap;

/// The lifetime of one edge over the stem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lifetime {
    /// The edge this lifetime describes.
    pub edge: IndexId,
    /// Stem tensor positions (0 = stem start tensor, `stem.len()` = final
    /// result) whose index set contains the edge, in increasing order.
    pub positions: Vec<usize>,
}

impl Lifetime {
    /// Number of stem tensors that carry this edge.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if the edge never appears on the stem (it lives on a branch).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// First stem position carrying the edge.
    pub fn start(&self) -> Option<usize> {
        self.positions.first().copied()
    }

    /// Last stem position carrying the edge.
    pub fn end(&self) -> Option<usize> {
        self.positions.last().copied()
    }

    /// Whether the lifetime contains a given stem tensor position.
    pub fn contains(&self, pos: usize) -> bool {
        self.positions.binary_search(&pos).is_ok()
    }

    /// Whether this lifetime contains every position of `other`
    /// (the containment relation §4.2 uses in place of raw length).
    pub fn covers(&self, other: &Lifetime) -> bool {
        other.positions.iter().all(|p| self.contains(*p))
    }

    /// Whether the lifetime spans every stem tensor of a stem with
    /// `num_positions` tensors — the only case in which slicing the edge
    /// incurs no overhead at all (§3.2).
    pub fn spans_all(&self, num_positions: usize) -> bool {
        self.len() == num_positions
    }
}

/// Lifetimes of all edges appearing on a stem.
#[derive(Debug, Clone)]
pub struct LifetimeTable {
    lifetimes: HashMap<IndexId, Lifetime>,
    /// Number of stem tensor positions (stem steps + 1).
    num_positions: usize,
}

impl LifetimeTable {
    /// Lifetime of an edge, if it appears on the stem.
    pub fn get(&self, edge: IndexId) -> Option<&Lifetime> {
        self.lifetimes.get(&edge)
    }

    /// Length of an edge's lifetime (0 if it does not appear on the stem).
    pub fn length(&self, edge: IndexId) -> usize {
        self.lifetimes.get(&edge).map(|l| l.len()).unwrap_or(0)
    }

    /// All edges with a non-empty lifetime.
    pub fn edges(&self) -> impl Iterator<Item = IndexId> + '_ {
        self.lifetimes.keys().copied()
    }

    /// Number of stem tensor positions covered by the table.
    pub fn num_positions(&self) -> usize {
        self.num_positions
    }

    /// The `count` edges with the longest lifetimes among `candidates`,
    /// longest first (ties broken by edge id for determinism).
    pub fn longest_lived(&self, candidates: &[IndexId], count: usize) -> Vec<IndexId> {
        let mut scored: Vec<(usize, IndexId)> =
            candidates.iter().map(|&e| (self.length(e), e)).collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().take(count).map(|(_, e)| e).collect()
    }
}

/// Compute the lifetime of every edge on the stem.
pub fn compute_lifetimes(stem: &Stem) -> LifetimeTable {
    let num_positions = stem.len() + 1;
    let mut lifetimes: HashMap<IndexId, Lifetime> = HashMap::new();
    let mut record = |edge: IndexId, pos: usize| {
        lifetimes
            .entry(edge)
            .or_insert_with(|| Lifetime { edge, positions: Vec::new() })
            .positions
            .push(pos);
    };
    for &e in &stem.start_indices {
        record(e, 0);
    }
    for (i, step) in stem.steps.iter().enumerate() {
        for &e in &step.result {
            record(e, i + 1);
        }
    }
    // Positions were pushed in increasing order already; dedup defensively.
    // Every lifetime is one interval (see the module doc): the slice
    // refiner prices its trials from the two ends alone.
    for l in lifetimes.values_mut() {
        l.positions.dedup();
        debug_assert!(
            l.positions.windows(2).all(|w| w[1] == w[0] + 1),
            "the lifetime of edge {} is not an interval: {:?}",
            l.edge,
            l.positions
        );
    }
    LifetimeTable { lifetimes, num_positions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};
    use qtn_tensor::IndexSet;
    use qtn_tensornet::{
        extract_stem, greedy_path, simplify_network, ContractionTree, PathConfig, TensorNetwork,
    };

    fn small_stem() -> Stem {
        // Chain: T0[0] - T1[0,1] - T2[1,2] - T3[2,3] - T4[3]
        let g = TensorNetwork::new(&[
            IndexSet::new(vec![0]),
            IndexSet::new(vec![0, 1]),
            IndexSet::new(vec![1, 2]),
            IndexSet::new(vec![2, 3]),
            IndexSet::new(vec![3]),
        ]);
        let tree = ContractionTree::from_pairs(&g, &[(0, 1), (5, 2), (6, 3), (7, 4)]);
        extract_stem(&tree)
    }

    fn rqc_stem() -> Stem {
        let cfg = RqcConfig::small(3, 4, 8, 9);
        let c = cfg.build();
        let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0; c.num_qubits()]));
        let g = TensorNetwork::from_build(&b);
        let mut work = g.clone();
        let mut pairs = simplify_network(&mut work);
        pairs.extend(greedy_path(&mut work, &PathConfig::default()));
        extract_stem(&ContractionTree::from_pairs(&g, &pairs))
    }

    #[test]
    fn chain_lifetimes_are_contiguous_intervals() {
        let stem = small_stem();
        let table = compute_lifetimes(&stem);
        // Edge 1 enters after T1 is absorbed and leaves when T2 is absorbed.
        for e in table.edges().collect::<Vec<_>>() {
            let l = table.get(e).unwrap();
            let (s, t) = (l.start().unwrap(), l.end().unwrap());
            assert_eq!(l.len(), t - s + 1, "lifetime of {e} not contiguous: {:?}", l.positions);
        }
    }

    /// Every stem edge lives on one interval of stem positions, on the
    /// planner's Sycamore stems and on random circuits.
    #[test]
    fn stem_lifetimes_are_intervals() {
        let stems =
            crate::test_stems::sycamore_seed_set().iter().chain(crate::test_stems::random_rqcs());
        let mut checked = 0;
        for (name, stem) in stems {
            let table = compute_lifetimes(stem);
            for e in table.edges() {
                let positions = &table.get(e).unwrap().positions;
                let (first, last) = (positions[0], positions[positions.len() - 1]);
                assert_eq!(positions, &(first..=last).collect::<Vec<_>>(), "{name}: edge {e}");
                checked += 1;
            }
        }
        assert!(checked > 1000, "only {checked} lifetimes checked");
    }

    #[test]
    fn lifetime_positions_match_stem_tensors() {
        let stem = rqc_stem();
        let table = compute_lifetimes(&stem);
        // Cross-check: position p carries exactly the indices of the stem
        // tensor at p.
        let mut tensors: Vec<Vec<IndexId>> = vec![stem.start_indices.clone()];
        for s in &stem.steps {
            tensors.push(s.result.clone());
        }
        for (p, t) in tensors.iter().enumerate() {
            let mut expected = t.clone();
            expected.sort_unstable();
            let mut carried: Vec<IndexId> =
                table.edges().filter(|&e| table.get(e).unwrap().contains(p)).collect();
            carried.sort_unstable();
            assert_eq!(carried, expected, "mismatch at position {p}");
        }
    }

    #[test]
    fn longest_lived_selects_by_length() {
        let stem = rqc_stem();
        let table = compute_lifetimes(&stem);
        let candidates: Vec<IndexId> = table.edges().collect();
        let top3 = table.longest_lived(&candidates, 3);
        assert_eq!(top3.len(), 3.min(candidates.len()));
        let max_len = candidates.iter().map(|&e| table.length(e)).max().unwrap();
        assert_eq!(table.length(top3[0]), max_len);
        // Monotone non-increasing.
        for w in top3.windows(2) {
            assert!(table.length(w[0]) >= table.length(w[1]));
        }
    }

    #[test]
    fn covers_relation() {
        let a = Lifetime { edge: 0, positions: vec![2, 3, 4, 5] };
        let b = Lifetime { edge: 1, positions: vec![3, 4] };
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
        assert!(a.covers(&a));
    }

    #[test]
    fn spans_all_detection() {
        let stem = small_stem();
        let table = compute_lifetimes(&stem);
        // In the chain, no edge spans all positions (each edge is contracted
        // away midway).
        for e in table.edges().collect::<Vec<_>>() {
            assert!(!table.get(e).unwrap().spans_all(table.num_positions()));
        }
    }

    #[test]
    fn absent_edge_has_zero_length() {
        let stem = small_stem();
        let table = compute_lifetimes(&stem);
        assert_eq!(table.length(9999), 0);
        assert!(table.get(9999).is_none());
    }

    #[test]
    fn num_positions_is_steps_plus_one() {
        let stem = rqc_stem();
        let table = compute_lifetimes(&stem);
        assert_eq!(table.num_positions(), stem.len() + 1);
    }
}
