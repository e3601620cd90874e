//! Contraction trees.
//!
//! A contraction path (a sequence of pairwise contractions) is represented as
//! a rooted binary tree whose leaves are the original network tensors and
//! whose internal nodes are contractions (§2.1.1 of the paper). The tree is
//! the object on which complexity is evaluated:
//!
//! * time complexity, Eq. (1): `C(B) = Σ_nodes Π_{e ∈ s_v1 ∪ s_v2 ∪ s_v3} w(e)`
//!   which for weight-2 edges is `Σ 2^{|union of involved indices|}`;
//! * space cost: the largest intermediate tensor, `max_v 2^{rank(v)}`.

use crate::cost::{log2_add, log2_sum, LogCost, LOG_ZERO};
use crate::graph::TensorNetwork;
use crate::sets;
use qtn_tensor::IndexId;

/// One node of a contraction tree.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// Children (tree node ids) for internal nodes; `None` for leaves.
    pub children: Option<(usize, usize)>,
    /// The original network vertex id, for leaves.
    pub leaf_vertex: Option<usize>,
    /// Sorted indices of the tensor this node produces.
    pub indices: Vec<IndexId>,
    /// Parent tree node id (`None` for the root).
    pub parent: Option<usize>,
}

impl TreeNode {
    /// Rank of the tensor at this node.
    pub fn rank(&self) -> usize {
        self.indices.len()
    }

    /// Whether this node is a leaf (an input tensor).
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }
}

/// A rooted binary contraction tree.
#[derive(Debug, Clone)]
pub struct ContractionTree {
    nodes: Vec<TreeNode>,
    root: usize,
}

impl ContractionTree {
    /// Build a tree from a pairwise contraction path over the network.
    /// `pairs` uses the network's SSA vertex ids: each contraction
    /// of vertices `(a, b)` creates a new vertex whose id is the next slot,
    /// exactly as [`TensorNetwork::contract`] does, and whose indices are
    /// the symmetric difference of its operands'.
    ///
    /// # Panics
    /// Panics if the path does not reduce the network to a single tensor or
    /// references inactive vertices.
    pub fn from_pairs(network: &TensorNetwork, pairs: &[(usize, usize)]) -> Self {
        let mut nodes: Vec<TreeNode> = Vec::with_capacity(network.num_active() + pairs.len());
        // Map from network vertex id (SSA) to tree node id; a vertex's entry
        // is taken when a pair contracts it away.
        let mut vertex_to_node: Vec<Option<usize>> = vec![None; network.num_slots() + pairs.len()];

        // Leaves for every active vertex.
        for v in network.active_vertices() {
            let id = nodes.len();
            nodes.push(TreeNode {
                children: None,
                leaf_vertex: Some(v),
                indices: network.indices(v).to_vec(),
                parent: None,
            });
            vertex_to_node[v] = Some(id);
        }

        let mut active = nodes.len();
        for (k, &(a, b)) in pairs.iter().enumerate() {
            assert_ne!(a, b, "cannot contract a vertex with itself");
            let mut take = |v: usize| {
                vertex_to_node
                    .get_mut(v)
                    .and_then(Option::take)
                    .expect("pair references unknown vertex")
            };
            let (left, right) = (take(a), take(b));
            let id = nodes.len();
            nodes.push(TreeNode {
                children: Some((left, right)),
                leaf_vertex: None,
                indices: sets::sym_diff(&nodes[left].indices, &nodes[right].indices),
                parent: None,
            });
            nodes[left].parent = Some(id);
            nodes[right].parent = Some(id);
            vertex_to_node[network.num_slots() + k] = Some(id);
            active -= 1;
        }

        assert_eq!(active, 1, "contraction path leaves {active} tensors, expected 1");
        Self::from_nodes(nodes)
    }

    /// A tree from its nodes, laid out as [`Self::from_pairs`] lays them
    /// out: leaves first, then internal nodes children-before-parents, the
    /// root last, each internal node holding its children's symmetric
    /// difference.
    pub(crate) fn from_nodes(nodes: Vec<TreeNode>) -> Self {
        let root = nodes.len() - 1;
        Self { nodes, root }
    }

    /// The nodes, handed over.
    pub(crate) fn into_nodes(self) -> Vec<TreeNode> {
        self.nodes
    }

    /// All nodes, leaves first in network order, then internal nodes in
    /// execution order.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// The tree node id of the root (final contraction result).
    pub fn root(&self) -> usize {
        self.root
    }

    /// Node by id.
    pub fn node(&self, id: usize) -> &TreeNode {
        &self.nodes[id]
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Ids of internal nodes in execution (post) order.
    pub fn internal_nodes(&self) -> Vec<usize> {
        self.internal_ids().collect()
    }

    fn internal_ids(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|&i| !self.nodes[i].is_leaf())
    }

    /// The union of indices involved in the contraction at an internal node:
    /// `s_v1 ∪ s_v2 ∪ s_v3` in the paper's notation (the result's indices are
    /// always a subset of the children's union, so this is the children's
    /// union).
    pub fn node_union(&self, id: usize) -> Vec<IndexId> {
        let (l, r) = self.nodes[id].children.expect("node_union on a leaf");
        sets::union(&self.nodes[l].indices, &self.nodes[r].indices)
    }

    /// log2 of the time cost of the contraction at an internal node.
    pub fn node_log_cost(&self, id: usize) -> LogCost {
        let (l, r) = self.nodes[id].children.expect("node_log_cost on a leaf");
        union_log_cost(&self.nodes[l].indices, &self.nodes[r].indices, &self.nodes[id].indices)
    }

    /// log2 of the total time complexity, Eq. (1).
    pub fn total_log_cost(&self) -> LogCost {
        log2_sum(self.internal_ids().map(|i| self.node_log_cost(i)))
    }

    /// log2 of the space cost: the rank of the largest tensor appearing
    /// anywhere in the tree.
    pub fn max_rank(&self) -> usize {
        self.nodes.iter().map(|n| n.rank()).max().unwrap_or(0)
    }

    /// log2 of the total cost of the subtree rooted at `id` (its internal
    /// descendants including itself), with each internal node's log2 cost
    /// read from `node_cost`. Folded in depth-first pop order (right subtree
    /// first): `extract_stem` compares these sums, so the order is part of
    /// every plan.
    pub(crate) fn fold_subtree_cost(
        &self,
        id: usize,
        node_cost: impl Fn(usize) -> LogCost,
    ) -> LogCost {
        let mut total = LOG_ZERO;
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if let Some((l, r)) = self.nodes[n].children {
                total = log2_add(total, node_cost(n));
                stack.push(l);
                stack.push(r);
            }
        }
        total
    }

    /// Execution schedule: `(left, right, result)` tree-node triples in an
    /// order where children always precede parents.
    pub fn schedule(&self) -> Vec<(usize, usize, usize)> {
        self.internal_nodes()
            .into_iter()
            .map(|i| {
                let (l, r) = self.nodes[i].children.unwrap();
                (l, r, i)
            })
            .collect()
    }
}

/// log2 of the cost of contracting `l` with `r` into `out = l Δ r`:
/// `|l ∪ r|`, which is `(|l| + |r| + |l Δ r|) / 2` — read off the three
/// lengths instead of merging the lists.
pub(crate) fn union_log_cost(l: &[IndexId], r: &[IndexId], out: &[IndexId]) -> LogCost {
    debug_assert_eq!(out, sets::sym_diff(l, r), "a node holds its children's symmetric difference");
    ((l.len() + r.len() + out.len()) / 2) as LogCost
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtn_tensor::IndexSet;

    fn chain4() -> TensorNetwork {
        TensorNetwork::new(&[
            IndexSet::new(vec![0]),
            IndexSet::new(vec![0, 1]),
            IndexSet::new(vec![1, 2]),
            IndexSet::new(vec![2]),
        ])
    }

    #[test]
    fn build_from_linear_path() {
        let g = chain4();
        // (0,1)->4, (4,2)->5, (5,3)->6
        let tree = ContractionTree::from_pairs(&g, &[(0, 1), (4, 2), (5, 3)]);
        assert_eq!(tree.num_leaves(), 4);
        assert_eq!(tree.nodes().len(), 7);
        assert_eq!(tree.node(tree.root()).rank(), 0);
        assert_eq!(tree.internal_nodes().len(), 3);
    }

    #[test]
    fn node_union_and_costs() {
        let g = chain4();
        let tree = ContractionTree::from_pairs(&g, &[(0, 1), (4, 2), (5, 3)]);
        // First contraction involves indices {0,1}: cost 2^2.
        // Second: {1} from node, {1,2} -> union {1,2}: cost 2^2.
        // Third: {2} and {2} -> union {2}: cost 2^1.
        let internals = tree.internal_nodes();
        assert_eq!(tree.node_log_cost(internals[0]), 2.0);
        assert_eq!(tree.node_log_cost(internals[1]), 2.0);
        assert_eq!(tree.node_log_cost(internals[2]), 1.0);
        // Total = 4 + 4 + 2 = 10 -> log2(10)
        assert!((tree.total_log_cost().exp2() - 10.0).abs() < 1e-9);
        assert_eq!(tree.max_rank(), 2);
    }

    #[test]
    fn parents_are_linked() {
        let g = chain4();
        let tree = ContractionTree::from_pairs(&g, &[(0, 1), (4, 2), (5, 3)]);
        let root = tree.root();
        assert!(tree.node(root).parent.is_none());
        let (l, r) = tree.node(root).children.unwrap();
        assert_eq!(tree.node(l).parent, Some(root));
        assert_eq!(tree.node(r).parent, Some(root));
    }

    #[test]
    fn schedule_children_before_parents() {
        let g = chain4();
        let tree = ContractionTree::from_pairs(&g, &[(2, 3), (0, 1), (4, 5)]);
        let sched = tree.schedule();
        let mut done = vec![false; tree.nodes().len()];
        for (n, is_done) in done.iter_mut().enumerate() {
            if tree.node(n).is_leaf() {
                *is_done = true;
            }
        }
        for (l, r, out) in sched {
            assert!(done[l] && done[r], "child executed after parent");
            done[out] = true;
        }
        assert!(done[tree.root()]);
    }

    #[test]
    fn subtree_cost_less_than_total() {
        let g = chain4();
        let tree = ContractionTree::from_pairs(&g, &[(0, 1), (4, 2), (5, 3)]);
        let root = tree.root();
        let (l, _r) = tree.node(root).children.unwrap();
        let subtree_cost = |n: usize| tree.fold_subtree_cost(n, |m| tree.node_log_cost(m));
        assert!(subtree_cost(l) <= tree.total_log_cost());
        assert_eq!(subtree_cost(root), tree.total_log_cost());
    }

    #[test]
    #[should_panic(expected = "expected 1")]
    fn incomplete_path_panics() {
        let g = chain4();
        ContractionTree::from_pairs(&g, &[(0, 1)]);
    }

    #[test]
    fn from_pairs_matches_a_network_replay() {
        use crate::path::{greedy_path, PathConfig};
        use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};
        let c = RqcConfig::small(3, 4, 8, 6).build();
        let g = TensorNetwork::from_build(&circuit_to_network(
            &c,
            &OutputSpec::Open { fixed: vec![0; c.num_qubits()], open: vec![1, 4] },
        ));
        let mut replay = g.clone();
        let pairs = greedy_path(&mut replay.clone(), &PathConfig { temperature: 0.5, seed: 3 });
        let tree = ContractionTree::from_pairs(&g, &pairs);
        // Every internal node carries exactly the indices the network's own
        // contraction produces for its pair.
        let internal = tree.internal_nodes();
        for (&(a, b), &node) in pairs.iter().zip(&internal) {
            let v = replay.contract(a, b);
            assert_eq!(tree.node(node).indices, replay.indices(v));
            assert_eq!(tree.node_union(node).len() as LogCost, tree.node_log_cost(node));
        }
        assert_eq!(tree.node(tree.root()).indices, g.open_indices());
    }

    #[test]
    fn balanced_vs_linear_tree_costs_differ() {
        // A 4-clique-ish network where tree shape matters.
        let g = TensorNetwork::new(&[
            IndexSet::new(vec![0, 1, 2]),
            IndexSet::new(vec![0, 3, 4]),
            IndexSet::new(vec![1, 3, 5]),
            IndexSet::new(vec![2, 4, 5]),
        ]);
        let linear = ContractionTree::from_pairs(&g, &[(0, 1), (4, 2), (5, 3)]);
        let balanced = ContractionTree::from_pairs(&g, &[(0, 1), (2, 3), (4, 5)]);
        assert!(linear.total_log_cost() > 0.0);
        assert!(balanced.total_log_cost() > 0.0);
        // Both contract fully.
        assert_eq!(linear.node(linear.root()).rank(), 0);
        assert_eq!(balanced.node(balanced.root()).rank(), 0);
    }
}
