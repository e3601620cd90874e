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
//! exactly what keeps the overhead low. Algorithm 2 reads the same intervals
//! to price a swap. Both read one [`Lifetimes`] table.

use qtn_tensor::IndexId;
use qtn_tensornet::Stem;
use std::ops::RangeInclusive;

/// An interval `start..=end` of stem positions (an edge's lifetime) or of
/// stem steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: usize,
    pub(crate) end: usize,
}

impl Span {
    pub(crate) fn positions(self) -> RangeInclusive<usize> {
        self.start..=self.end
    }

    /// The steps whose union `s_v1 ∪ s_v2 ∪ s_v3` holds the edge living on
    /// these positions. Step `i` joins the stem tensors at positions `i`
    /// and `i + 1`, and its branch is their symmetric difference, so the
    /// union holds an edge exactly when one of those two positions does.
    pub(crate) fn steps(self, num_steps: usize) -> Span {
        Span { start: self.start.saturating_sub(1), end: self.end.min(num_steps - 1) }
    }
}

/// The running stem tensors by position: the start tensor (position 0),
/// then the result of every step (step `p − 1` gives position `p`).
pub(crate) fn stem_tensors(stem: &Stem) -> impl Iterator<Item = &[IndexId]> {
    std::iter::once(stem.start_indices.as_slice())
        .chain(stem.steps.iter().map(|step| step.result.as_slice()))
}

/// The lifetime of every stem edge as one [`Span`] of positions.
pub(crate) struct Lifetimes {
    /// Indexed by edge id; `None` for an edge no stem tensor carries.
    spans: Vec<Option<Span>>,
    /// Every stem edge with its lifetime, in increasing edge order.
    edges: Vec<(IndexId, Span)>,
}

impl Lifetimes {
    /// The table of `stem`, built in one pass over its tensors.
    pub(crate) fn new(stem: &Stem) -> Self {
        let num_edges = stem_tensors(stem).flatten().max().map_or(0, |&e| e as usize + 1);
        let mut spans: Vec<Option<Span>> = vec![None; num_edges];
        for (p, tensor) in stem_tensors(stem).enumerate() {
            for &e in tensor {
                let span = spans[e as usize].get_or_insert(Span { start: p, end: p });
                debug_assert!(
                    span.end + 1 >= p,
                    "edge {e} leaves at {} and returns at {p}",
                    span.end
                );
                span.end = p;
            }
        }
        let edges = (0..num_edges).filter_map(|e| Some((e as IndexId, spans[e]?))).collect();
        Self { spans, edges }
    }

    /// The lifetime of `edge`, if it lies on the stem.
    pub(crate) fn span(&self, edge: IndexId) -> Option<Span> {
        self.spans.get(edge as usize).copied().flatten()
    }

    /// Every stem edge with its lifetime, in increasing edge order: the
    /// order the refiner tries candidates in.
    pub(crate) fn edges(&self) -> &[(IndexId, Span)] {
        &self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_stems::{lifetime_positions, longest_lived};
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

    /// The table's span of every edge against the positions a direct scan
    /// of the stem finds for it.
    fn assert_table_matches_scan(name: &str, stem: &Stem) -> usize {
        let table = Lifetimes::new(stem);
        let scan = lifetime_positions(stem);
        let edges: Vec<IndexId> = table.edges().iter().map(|&(e, _)| e).collect();
        let scanned: Vec<IndexId> = scan.iter().map(|(e, _)| *e).collect();
        assert_eq!(edges, scanned, "{name}: the table's edges");
        for (&(e, span), (_, positions)) in table.edges().iter().zip(&scan) {
            assert_eq!(table.span(e), Some(span), "{name}: edge {e}");
            assert_eq!(positions, &span.positions().collect::<Vec<_>>(), "{name}: edge {e}");
        }
        scan.len()
    }

    #[test]
    fn chain_lifetimes_are_contiguous_intervals() {
        let stem = small_stem();
        assert_table_matches_scan("chain", &stem);
        // Edge 1 enters after T1 is absorbed and leaves when T2 is absorbed.
        let table = Lifetimes::new(&stem);
        assert_eq!(table.span(1).map(|s| s.end), Some(1));
        assert_eq!(table.edges().len(), 4);
    }

    /// Every stem edge lives on one interval of stem positions, on the
    /// planner's Sycamore stems and on random circuits, and the table holds
    /// that interval.
    #[test]
    fn stem_lifetimes_are_intervals() {
        let stems =
            crate::test_stems::sycamore_seed_set().iter().chain(crate::test_stems::random_rqcs());
        let checked: usize = stems.map(|(name, stem)| assert_table_matches_scan(name, stem)).sum();
        assert!(checked > 1000, "only {checked} lifetimes checked");
    }

    #[test]
    fn lifetime_positions_match_stem_tensors() {
        let stem = rqc_stem(3, 4, 8, 9);
        let table = Lifetimes::new(&stem);
        // Cross-check: position p carries exactly the indices of the stem
        // tensor at p.
        for (p, t) in stem_tensors(&stem).enumerate() {
            let mut expected = t.to_vec();
            expected.sort_unstable();
            let carried: Vec<IndexId> = table
                .edges()
                .iter()
                .filter(|(_, span)| span.positions().contains(&p))
                .map(|&(e, _)| e)
                .collect();
            assert_eq!(carried, expected, "mismatch at position {p}");
        }
    }

    /// The sum of lifetime lengths equals the sum of stem tensor ranks:
    /// every (tensor, index) incidence is counted exactly once.
    #[test]
    fn lifetimes_partition_stem_tensor_ranks() {
        for seed in 0..40 {
            let stem = rqc_stem(3, 3, 8, seed);
            let table = Lifetimes::new(&stem);
            let lifetime_sum: usize =
                table.edges().iter().map(|(_, s)| s.positions().count()).sum();
            let rank_sum: usize =
                stem.start_indices.len() + stem.steps.iter().map(|s| s.result.len()).sum::<usize>();
            assert_eq!(lifetime_sum, rank_sum, "seed {seed}");
        }
    }

    /// The overhead tests' edge picker orders by lifetime length, longest
    /// first.
    #[test]
    fn longest_lived_selects_by_length() {
        let stem = rqc_stem(3, 4, 8, 9);
        let scan = lifetime_positions(&stem);
        let length = |e: IndexId| scan.iter().find(|(f, _)| *f == e).map_or(0, |(_, p)| p.len());
        let top3 = longest_lived(&stem, 3);
        assert_eq!(top3.len(), 3.min(scan.len()));
        let max_len = scan.iter().map(|(_, p)| p.len()).max().unwrap();
        assert_eq!(length(top3[0]), max_len);
        // Monotone non-increasing, ties by increasing edge id.
        for w in top3.windows(2) {
            assert!((length(w[1]), w[0]) < (length(w[0]), w[1]), "{top3:?}");
        }
    }

    #[test]
    fn absent_edge_has_zero_length() {
        let table = Lifetimes::new(&small_stem());
        assert!(table.span(9999).is_none());
    }

    #[test]
    fn num_positions_is_steps_plus_one() {
        let stem = rqc_stem(3, 4, 8, 9);
        assert_eq!(stem_tensors(&stem).count(), stem.len() + 1);
    }
}
