//! Stem extraction.
//!
//! Following §4.2 of the paper, the *stem* is the most computationally
//! intensive root-to-leaf path of the contraction tree: within it a big
//! tensor sequentially absorbs smaller (pre-contracted) branch tensors, and
//! about 99% of the computation happens there. Slicing optimisation operates
//! on the stem only; branches are pre-contracted.

use crate::cost::{log2_sum, LogCost};
use crate::sets;
use crate::tree::ContractionTree;
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

    /// log2 of the time cost of this step.
    pub fn log_cost(&self) -> LogCost {
        sets::union3(&self.stem_before, &self.branch, &self.result).count() as LogCost
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

/// Extract the stem of a contraction tree: starting from the root, follow at
/// every internal node the child whose subtree is the most expensive, until a
/// leaf is reached. The steps are returned bottom-up (execution order).
pub fn extract_stem(tree: &ContractionTree) -> Stem {
    // Walk down from the root picking the costlier child.
    let mut spine = Vec::new(); // internal nodes from root downward
    let mut current = tree.root();
    loop {
        let node = tree.node(current);
        match node.children {
            None => break,
            Some((l, r)) => {
                spine.push(current);
                let cl = tree.subtree_log_cost(l);
                let cr = tree.subtree_log_cost(r);
                current = if cl >= cr { l } else { r };
            }
        }
    }
    let start_node = current;
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
