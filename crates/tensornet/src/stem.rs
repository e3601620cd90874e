//! Stem extraction.
//!
//! Following §4.2 of the paper, the *stem* is the most computationally
//! intensive root-to-leaf path of the contraction tree: within it a big
//! tensor sequentially absorbs smaller (pre-contracted) branch tensors, and
//! about 99% of the computation happens there. Slicing optimisation operates
//! on the stem only; branches are pre-contracted.
//!
//! The walk down from the root compares the two children's subtree costs
//! at every spine node. It first compares bounds that one pass over the
//! tree sets for every node, and folds a subtree's cost only where the
//! bounds cannot tell the two apart; see [`extract_stem`].

use crate::cost::{log2_sum, LogCost, LOG_ZERO};
use crate::sets;
use crate::tree::{union_log_cost, ContractionTree};
use qtn_tensor::IndexId;

/// One step of the stem: the running stem tensor absorbs one branch tensor.
#[derive(Debug, Clone)]
pub struct StemStep {
    /// Tree node id of the contraction this step corresponds to.
    pub tree_node: usize,
    /// Indices of the running stem tensor *before* this step.
    pub stem_before: Vec<IndexId>,
    /// Indices of the absorbed branch tensor.
    pub branch: Vec<IndexId>,
    /// Indices of the running stem tensor *after* this step.
    pub result: Vec<IndexId>,
}

impl StemStep {
    /// All indices involved in this contraction (`s_v1 ∪ s_v2 ∪ s_v3`).
    pub fn union(&self) -> Vec<IndexId> {
        sets::union3(&self.stem_before, &self.branch, &self.result).collect()
    }

    /// log2 of the time cost of this step: `|s_v1 ∪ s_v2|`, read off the
    /// three lengths as a tree node's is, since the result is the operands'
    /// symmetric difference.
    pub fn log_cost(&self) -> LogCost {
        union_log_cost(&self.stem_before, &self.branch, &self.result)
    }

    /// Rank of the result tensor.
    pub fn result_rank(&self) -> usize {
        self.result.len()
    }
}

/// The stem of a contraction tree.
#[derive(Debug, Clone)]
pub struct Stem {
    /// Tree node id of the leaf (or low node) where the stem starts.
    pub start_node: usize,
    /// Indices of the starting stem tensor.
    pub start_indices: Vec<IndexId>,
    /// The steps from the start up to (and including) the root contraction.
    pub steps: Vec<StemStep>,
}

impl Stem {
    /// Number of absorption steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the stem has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// log2 of the total time cost of all stem steps.
    pub fn total_log_cost(&self) -> LogCost {
        log2_sum(self.steps.iter().map(|s| s.log_cost()))
    }

    /// Largest tensor rank appearing on the stem (stem tensors and branches).
    pub fn max_rank(&self) -> usize {
        let mut m = self.start_indices.len();
        for s in &self.steps {
            m = m.max(s.result_rank()).max(s.branch.len()).max(s.stem_before.len());
        }
        m
    }
}

/// How far apart two subtree bounds must be before the walk decides
/// without folding. A fold's lower bound is exact: `log2_add` returns at
/// least its larger operand. Its upper bound holds up to rounding: each
/// `log2_add` rounds a result below `2^7` (any node cost under `2^128`) by
/// less than `2^-45`, and passes earlier errors on undamped, so a fold of
/// `k` nodes lands within `k · 2^-45` of the exact sum, under `3e-8` for a
/// million nodes. A margin above that keeps every decision the fold's.
const FOLD_MARGIN: LogCost = 1e-6;

/// Extract the stem of a contraction tree: starting from the root, follow at
/// every internal node the child whose subtree is the most expensive, until a
/// leaf is reached. The steps are returned bottom-up (execution order).
///
/// A subtree's log2 cost lies in `[m, m + log2(k)]`, where `m` is its
/// costliest node and `k` its internal-node count: the fold can only add to
/// its largest term, and `k` terms at most `2^m` sum to at most `k · 2^m`.
/// One pass sets both for every node; the walk folds the two subtrees (in
/// the fold's own node order) only where their bounds lie within
/// `FOLD_MARGIN` of overlapping, so every step is the fold's choice.
pub fn extract_stem(tree: &ContractionTree) -> Stem {
    let nodes = tree.nodes();
    // Per node: its subtree's costliest node and internal-node count.
    // Children precede parents in every tree.
    let mut costliest: Vec<LogCost> = Vec::with_capacity(nodes.len());
    let mut count: Vec<u32> = Vec::with_capacity(nodes.len());
    for (n, node) in nodes.iter().enumerate() {
        let (m, k) = match node.children {
            None => (LOG_ZERO, 0),
            Some((l, r)) => {
                let m = tree.node_log_cost(n).max(costliest[l]).max(costliest[r]);
                (m, count[l] + count[r] + 1)
            }
        };
        costliest.push(m);
        count.push(k);
    }
    let bounds = |n: usize| (costliest[n], costliest[n] + f64::from(count[n]).log2());
    let subtree_cost = |n: usize| tree.fold_subtree_cost(n, |m| tree.node_log_cost(m));
    let mut spine = Vec::new(); // internal nodes from root downward
    let mut current = tree.root();
    while let Some((l, r)) = nodes[current].children {
        spine.push(current);
        let ((l_low, l_high), (r_low, r_high)) = (bounds(l), bounds(r));
        current = if l_low > r_high + FOLD_MARGIN {
            l
        } else if r_low > l_high + FOLD_MARGIN {
            r
        } else if subtree_cost(l) >= subtree_cost(r) {
            l
        } else {
            r
        };
    }
    stem_along(tree, &spine, current)
}

/// The stem that runs up `spine` (internal nodes, root first) from
/// `start_node`.
fn stem_along(tree: &ContractionTree, spine: &[usize], start_node: usize) -> Stem {
    let start_indices = tree.node(start_node).indices.clone();

    // Build the steps bottom-up: reverse the spine.
    let mut steps = Vec::with_capacity(spine.len());
    let mut stem_indices = start_indices.clone();
    let mut stem_child = start_node;
    for &n in spine.iter().rev() {
        let (l, r) = tree.node(n).children.unwrap();
        let branch_node = if l == stem_child { r } else { l };
        let branch = tree.node(branch_node).indices.clone();
        let result = tree.node(n).indices.clone();
        steps.push(StemStep {
            tree_node: n,
            stem_before: stem_indices.clone(),
            branch,
            result: result.clone(),
        });
        stem_indices = result;
        stem_child = n;
    }
    Stem { start_node, start_indices, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TensorNetwork;
    use crate::path::{greedy_path, PathConfig};
    use crate::simplify::simplify_network;
    use crate::test_trees;
    use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};
    use qtn_tensor::IndexSet;

    fn rqc_tree(rows: usize, cols: usize, cycles: usize) -> ContractionTree {
        let cfg = RqcConfig::small(rows, cols, cycles, 5);
        let c = cfg.build();
        let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0; c.num_qubits()]));
        let g = TensorNetwork::from_build(&b);
        let mut work = g.clone();
        let mut pairs = simplify_network(&mut work);
        pairs.extend(greedy_path(&mut work, &PathConfig::default()));
        ContractionTree::from_pairs(&g, &pairs)
    }

    /// `extract_stem` before the bounded walk: every spine node folds both
    /// children's subtree costs. The exactness oracle for the walk.
    fn fold_everything_extract_stem(tree: &ContractionTree) -> Stem {
        let node_cost: Vec<LogCost> = (0..tree.nodes().len())
            .map(|n| if tree.node(n).is_leaf() { LOG_ZERO } else { tree.node_log_cost(n) })
            .collect();
        let subtree_cost = |n: usize| tree.fold_subtree_cost(n, |m| node_cost[m]);
        let mut spine = Vec::new();
        let mut current = tree.root();
        while let Some((l, r)) = tree.node(current).children {
            spine.push(current);
            current = if subtree_cost(l) >= subtree_cost(r) { l } else { r };
        }
        stem_along(tree, &spine, current)
    }

    /// Two subtrees under one root whose bounds overlap by less than
    /// half a unit, in both child orders. One is a single node of cost 12;
    /// the other is five nodes of cost 10, bounds `[10, 10 + log2 5]`,
    /// whose fold `10 + log2 5 ≈ 12.32` is the larger: only the fold can
    /// pick it.
    fn near_tie_trees() -> Vec<(String, ContractionTree)> {
        let set = |ids: std::ops::Range<IndexId>| IndexSet::new(ids.collect());
        // A, B share 0..10; E, F share 10..20; G, H share 20..30; P, Q
        // share 30..42.
        let g = TensorNetwork::new(&[
            set(0..10),
            set(0..10),
            set(10..20),
            set(10..20),
            set(20..30),
            set(20..30),
            set(30..42),
            set(30..42),
        ]);
        // Each of (A B) E F G H joins a rank-10 set with one it empties
        // or with nothing: five contractions of cost 10. (P Q) costs 12.
        let five = [(0, 1), (8, 2), (9, 3), (10, 4), (11, 5), (6, 7)];
        [(13, 12), (12, 13)]
            .into_iter()
            .map(|root| {
                let pairs: Vec<(usize, usize)> = five.iter().copied().chain([root]).collect();
                let tree = ContractionTree::from_pairs(&g, &pairs);
                let (l, r) = tree.node(tree.root()).children.unwrap();
                let costs = [l, r].map(|n| tree.fold_subtree_cost(n, |m| tree.node_log_cost(m)));
                assert!((costs[0] - costs[1]).abs() < 0.5, "{costs:?}");
                assert_eq!(extract_stem(&tree).steps.len(), 6, "the walk takes the five-node side");
                (format!("near tie, root {root:?}"), tree)
            })
            .collect()
    }

    /// The bounded walk returns the fold-everything walk's stem, step for
    /// step, on the planner's Sycamore trees after refinement and after the
    /// deferral, on random circuits' greedy, refined and deferred trees,
    /// and on the near-tie trees.
    #[test]
    fn bounded_walk_matches_the_fold_everything_walk() {
        let mut trees: Vec<(String, ContractionTree)> = test_trees::sycamore_seed_set().to_vec();
        for (name, _, tree, overridable) in test_trees::oracle_trees() {
            let objective = crate::RefineObjective::SunwayAdaptive { ldm_rank: 13 };
            let (refined, _, _) = crate::refine_tree(tree.clone(), objective, 4);
            let target = extract_stem(&refined).max_rank().saturating_sub(3);
            let sliced = test_trees::slice_to(&extract_stem(&refined), target);
            let (deferred, _, _) =
                crate::defer_projector_joins_tree(refined.clone(), &sliced, &overridable, 4);
            trees.push((format!("{name} greedy"), tree));
            trees.push((format!("{name} refined"), refined));
            trees.push((format!("{name} deferred"), deferred));
        }
        assert!(trees.len() >= 34 + 3 * 24);
        trees.extend(near_tie_trees());
        for (name, tree) in &trees {
            let (got, want) = (extract_stem(tree), fold_everything_extract_stem(tree));
            assert_eq!(got.start_node, want.start_node, "{name}");
            assert_eq!(got.start_indices, want.start_indices, "{name}");
            assert_eq!(got.steps.len(), want.steps.len(), "{name}");
            for (g, w) in got.steps.iter().zip(&want.steps) {
                assert_eq!(
                    (g.tree_node, &g.stem_before, &g.branch, &g.result),
                    (w.tree_node, &w.stem_before, &w.branch, &w.result),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn stem_of_linear_chain_is_whole_tree() {
        let g = TensorNetwork::new(&[
            IndexSet::new(vec![0]),
            IndexSet::new(vec![0, 1]),
            IndexSet::new(vec![1, 2]),
            IndexSet::new(vec![2]),
        ]);
        let tree = ContractionTree::from_pairs(&g, &[(0, 1), (4, 2), (5, 3)]);
        let stem = extract_stem(&tree);
        assert_eq!(stem.len(), 3);
        // The final result is a scalar.
        assert_eq!(stem.steps.last().unwrap().result_rank(), 0);
    }

    #[test]
    fn stem_steps_chain_consistently() {
        let tree = rqc_tree(3, 4, 8);
        let stem = extract_stem(&tree);
        assert!(!stem.is_empty());
        let mut current = stem.start_indices.clone();
        for step in &stem.steps {
            assert_eq!(step.stem_before, current, "stem steps must chain");
            current = step.result.clone();
        }
        // Root of the tree is rank 0 for a closed amplitude network.
        assert!(current.is_empty());
    }

    #[test]
    fn stem_cost_dominates_tree_cost() {
        let tree = rqc_tree(3, 4, 10);
        let stem = extract_stem(&tree);
        // The stem should capture the bulk of the computation (paper: ~99%;
        // we only require a clear majority for small test circuits).
        let frac = (stem.total_log_cost() - tree.total_log_cost()).exp2();
        assert!(frac > 0.5, "stem captures only {:.2} of the cost", frac);
    }

    #[test]
    fn stem_max_rank_matches_tree() {
        let tree = rqc_tree(3, 4, 10);
        let stem = extract_stem(&tree);
        assert!(stem.max_rank() <= tree.max_rank());
        // The biggest tensor lives on the computationally dominant path.
        assert!(stem.max_rank() + 2 >= tree.max_rank());
    }

    #[test]
    fn union_contains_both_operands() {
        let tree = rqc_tree(3, 3, 6);
        let stem = extract_stem(&tree);
        for step in &stem.steps {
            let u = step.union();
            for e in step.stem_before.iter().chain(step.branch.iter()) {
                assert!(u.contains(e));
            }
        }
    }
}
