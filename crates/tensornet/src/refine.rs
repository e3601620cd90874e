//! Adaptive contraction-path refinement.
//!
//! The third contribution listed in the paper's abstract is "an adaptive
//! tensor network contraction path refiner customized for Sunway
//! architecture": after a path is found, its contraction tree is locally
//! re-arranged so that (a) the total time complexity does not increase and
//! (b) the structure suits the fused thread-level execution — a long stem of
//! narrow absorptions whose working set fits the LDM hierarchy, rather than
//! balanced sub-trees that force large intermediate operands through main
//! memory at every step.
//!
//! The refiner applies *subtree rotations*: for an internal node `p` with
//! children `(c, z)` where `c = (x, y)` is itself internal, the contraction
//! `((x, y), z)` can be re-associated to `((x, z), y)` or `((y, z), x)`
//! without changing the result. Each proposed rotation is scored either by
//! pure time complexity ([`RefineObjective::Cost`]) or by an
//! architecture-aware mix that also rewards stem-friendliness
//! ([`RefineObjective::SunwayAdaptive`]), and accepted greedily until a full
//! sweep makes no further progress or the sweep cap is reached. After the
//! first sweep, a sweep evaluates only the nodes a rotation made stale;
//! every other node would reject again.
//!
//! A trial is priced from lengths and writes nothing. Every price reads
//! only sizes: a node holds `l Δ r`, so its cost `|l ∪ r|` is
//! `(|l| + |r| + |l Δ r|) / 2`, and a trial's re-paired node `a Δ o` has
//! `|a| + |o| − 2|a ∩ o|` indices. One merge that counts `|a ∩ o|` (and,
//! for the deferral, how many of those are unsliced) prices a trial; only
//! `MutableTree::rotate` builds an index set, for the trial it applies.

use crate::classify::NodeClass;
use crate::cost::{log2_add, LogCost};
use crate::sets::{self, Marks};
use crate::tree::{ContractionTree, TreeNode};
use qtn_tensor::IndexId;

/// What the refiner optimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineObjective {
    /// Minimise the total time complexity (Eq. 1) only.
    Cost,
    /// Minimise time complexity, breaking ties in favour of configurations
    /// whose absorbed operand is small enough for the LDM (rank ≤ the given
    /// bound) — the shape the fused kernels want.
    SunwayAdaptive {
        /// LDM rank bound (13 on the SW26010pro).
        ldm_rank: usize,
    },
}

/// Statistics of one rotation pass ([`refine_tree`] or
/// [`defer_projector_joins_tree`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RefineReport {
    /// Number of rotations applied.
    pub rotations: usize,
    /// Number of sweeps performed (at most the sweep cap).
    pub sweeps: usize,
}

/// The lengths of an internal node's children's index sets and of its own,
/// `[|l|, |r|, |l Δ r|]`: all a trial's price reads of a node. The same
/// triple with the sliced edges left out gives its post-slicing ranks.
type Lens = [usize; 3];

/// log2 of the cost `|l ∪ r| = (|l| + |r| + |l Δ r|) / 2` of a node with
/// these lengths.
fn lens_cost([l, r, n]: Lens) -> LogCost {
    ((l + r + n) / 2) as LogCost
}

/// The lengths of the two nodes a trial re-pairs, `internal := (a, other)`
/// under `p := (internal, b)`, from `[|a|, |other|, |b|, |p|]` and
/// `|a ∩ other|`: the internal node holds `a Δ other`; `p` keeps its set.
fn trial_lens([a, other, b, p]: [usize; 4], shared: usize) -> [Lens; 2] {
    let internal = a + other - 2 * shared;
    [[internal, b, p], [a, other, internal]]
}

/// A contraction tree that supports local re-association: its own nodes,
/// edited in place, handed back renumbered in the order the pair list
/// emits them.
///
/// A sweep evaluates only *stale* nodes. Evaluating `n` reads the children
/// of `n` and of `n`'s children, and the index sets (and classes) of
/// `n`'s children and grandchildren, so a node whose last evaluation
/// rejected every rotation would reject them again until one of those
/// changes. Only [`MutableTree::rotate`] changes them, and it marks every
/// node that reads what it changed.
struct MutableTree {
    /// The tree's nodes, taken over: a rotation rewrites the children and
    /// the index set of the nodes it re-pairs, and keeps every `parent`
    /// current.
    nodes: Vec<TreeNode>,
    /// Per-node: must the next sweep evaluate it? Every internal node
    /// starts stale.
    stale: Vec<bool>,
    root: usize,
}

impl MutableTree {
    /// Take the tree over, nodes and all.
    fn from_tree(tree: ContractionTree) -> Self {
        let root = tree.root();
        let nodes = tree.into_nodes();
        Self { stale: nodes.iter().map(|n| !n.is_leaf()).collect(), nodes, root }
    }

    /// Apply a rotation at `p`: its child `i` becomes `i_children` and `p`
    /// becomes `p_children`. Only the children of `p` and `i` change, and,
    /// since `p` keeps its leaf set and a node's index set and class depend
    /// only on its leaf set, only `i`'s index set and class. The nodes whose
    /// evaluation reads those are `p`, `i` and `p`'s parent: they become
    /// stale.
    fn rotate(
        &mut self,
        p: usize,
        i: usize,
        i_children: (usize, usize),
        p_children: (usize, usize),
    ) {
        self.nodes[i].children = Some(i_children);
        self.nodes[p].children = Some(p_children);
        self.recompute(i);
        for (node, (l, r)) in [(i, i_children), (p, p_children)] {
            self.nodes[l].parent = Some(node);
            self.nodes[r].parent = Some(node);
        }
        self.stale[p] = true;
        self.stale[i] = true;
        if let Some(grandparent) = self.nodes[p].parent {
            self.stale[grandparent] = true;
        }
    }

    /// Sweep the stale nodes in node order until a sweep applies no
    /// rotation or `max_sweeps` sweeps ran; `visit(tree, p)` evaluates `p`
    /// and returns whether it rotated there. A skipped node is one a full
    /// sweep would have evaluated to the same rejection, so every decision
    /// is the full sweep's. Returns `(rotations, sweeps)`.
    fn sweep(
        &mut self,
        max_sweeps: usize,
        mut visit: impl FnMut(&mut Self, usize) -> bool,
    ) -> (usize, usize) {
        let mut rotations = 0;
        let mut sweeps = 0;
        for _ in 0..max_sweeps {
            sweeps += 1;
            let mut progressed = false;
            for p in 0..self.nodes.len() {
                // Cleared before the visit: a rotation at `p` marks it again.
                if std::mem::take(&mut self.stale[p]) && visit(self, p) {
                    rotations += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        (rotations, sweeps)
    }

    fn is_leaf(&self, n: usize) -> bool {
        self.nodes[n].children.is_none()
    }

    /// Recompute the index set of an internal node from its children
    /// (symmetric difference, matching `TensorNetwork::contract`).
    ///
    /// A rotation at `p` re-pairs `p`'s internal child but keeps `p`'s leaf
    /// set, and a node's index set is the symmetric difference of its
    /// leaves' sets — so only that child ever needs this; `p` and every
    /// ancestor keep their indices.
    fn recompute(&mut self, n: usize) {
        if let Some((l, r)) = self.nodes[n].children {
            let mut out = std::mem::take(&mut self.nodes[n].indices);
            sets::sym_diff_into(&self.nodes[l].indices, &self.nodes[r].indices, &mut out);
            self.nodes[n].indices = out;
        }
    }

    /// The index-set lengths an internal node's price reads.
    fn lens(&self, n: usize) -> Lens {
        let (l, r) = self.nodes[n].children.expect("an internal node");
        [self.nodes[l].indices.len(), self.nodes[r].indices.len(), self.nodes[n].indices.len()]
    }

    /// The pair list and the tree [`ContractionTree::from_pairs`] builds
    /// from it on the original network, node for node: the leaves keep
    /// their ids (they come first in every tree this one is made from), the
    /// `k`-th emitted internal node becomes node `leaves + k`, and each
    /// node's index set moves over instead of being merged again.
    fn into_tree(self) -> (ContractionTree, Vec<(usize, usize)>) {
        let MutableTree { mut nodes, root, .. } = self;
        let num_nodes = nodes.len();
        let num_leaves = num_nodes.div_ceil(2);
        debug_assert!(nodes[..num_leaves].iter().all(TreeNode::is_leaf));
        // One post-order walk from the root, each node's second subtree
        // before its first, emits the internal nodes and numbers them. An
        // emitted node's new id is also its vertex in the pair list's SSA
        // numbering.
        let mut new_id: Vec<usize> = (0..num_nodes).collect();
        let mut pairs = Vec::with_capacity(num_nodes - num_leaves);
        let mut stack = vec![(root, false)];
        while let Some((n, expanded)) = stack.pop() {
            let Some((l, r)) = nodes[n].children else { continue };
            if !expanded {
                stack.extend([(n, true), (l, false), (r, false)]);
                continue;
            }
            let vertex = |c: usize| match nodes[c].leaf_vertex {
                Some(vertex) => vertex,
                None => new_id[c],
            };
            pairs.push((vertex(l), vertex(r)));
            new_id[n] = num_leaves + pairs.len() - 1;
        }
        // Renumber the children, move every internal node to its new id in
        // place (each swap settles one node), and link the parents anew.
        for node in &mut nodes[num_leaves..] {
            let (l, r) = node.children.expect("an internal node");
            node.children = Some((new_id[l], new_id[r]));
        }
        for at in num_leaves..num_nodes {
            while new_id[at] != at {
                let to = new_id[at];
                nodes.swap(at, to);
                new_id.swap(at, to);
            }
        }
        nodes[num_nodes - 1].parent = None;
        for id in num_leaves..num_nodes {
            let (l, r) = nodes[id].children.expect("an internal node");
            nodes[l].parent = Some(id);
            nodes[r].parent = Some(id);
        }
        (ContractionTree::from_nodes(nodes), pairs)
    }
}

/// Refine a contraction tree by greedy subtree rotations.
///
/// Returns the refined pair list (usable with
/// [`ContractionTree::from_pairs`] on the same network) and a report. The
/// refined tree's total cost is never worse than the input's.
pub fn refine_path(
    tree: &ContractionTree,
    objective: RefineObjective,
    max_sweeps: usize,
) -> (Vec<(usize, usize)>, RefineReport) {
    let (_, pairs, report) = refine_tree(tree.clone(), objective, max_sweeps);
    (pairs, report)
}

/// [`refine_path`] on a tree handed over, returning the refined tree too:
/// the one [`ContractionTree::from_pairs`] builds from the returned pairs
/// on the tree's network, node for node, without building it again.
pub fn refine_tree(
    tree: ContractionTree,
    objective: RefineObjective,
    max_sweeps: usize,
) -> (ContractionTree, Vec<(usize, usize)>, RefineReport) {
    let mut t = MutableTree::from_tree(tree);
    let no_marks = Marks::new([]);
    // Penalty used by the Sunway-adaptive objective: of the two affected
    // contractions, count those whose smaller operand — the one the fused
    // kernel streams — exceeds the LDM bound (they force main-memory round
    // trips in the fused design).
    let penalty = |nodes: [Lens; 2]| match objective {
        RefineObjective::Cost => 0,
        RefineObjective::SunwayAdaptive { ldm_rank } => {
            nodes.iter().filter(|[l, r, _]| *l.min(r) > ldm_rank).count()
        }
    };

    let (rotations, sweeps) = t.sweep(max_sweeps, |t, p| {
        let Some((c, z)) = t.nodes[p].children else { return false };
        // Only the first internal child is re-associated: when `c` is
        // internal, `z` never plays that role, even if `c` has no improving
        // rotation. The pinned plans depend on this choice.
        let (internal, other) = match (t.is_leaf(c), t.is_leaf(z)) {
            (false, _) => (c, z),
            (true, false) => (z, c),
            (true, true) => return false,
        };
        let (x, y) = t.nodes[internal].children.unwrap();
        let before = [t.lens(p), t.lens(internal)];
        let before_local = log2_add(lens_cost(before[0]), lens_cost(before[1]));
        let before_penalty = penalty(before);
        // Candidate re-associations: ((x,other),y) and ((y,other),x).
        // (local cost, internal children, parent children)
        type Candidate = (f64, (usize, usize), (usize, usize));
        let mut best: Option<Candidate> = None;
        for (a, b) in [(x, y), (y, x)] {
            // internal := (a, other); p := (internal, b)
            let (shared, _) =
                sets::shared_lens(&t.nodes[a].indices, &t.nodes[other].indices, &no_marks);
            let len = |n: usize| t.nodes[n].indices.len();
            let trial = trial_lens([len(a), len(other), len(b), len(p)], shared);
            let local = log2_add(lens_cost(trial[0]), lens_cost(trial[1]));
            let penalty = penalty(trial);
            let improves = local < before_local - 1e-12
                || (local < before_local + 1e-12 && penalty < before_penalty);
            if improves && best.map(|(bl, _, _)| local < bl).unwrap_or(true) {
                best = Some((local, (a, other), (internal, b)));
            }
        }
        let Some((_, int_children, p_children)) = best else { return false };
        t.rotate(p, internal, int_children, p_children);
        true
    });

    let (tree, pairs) = t.into_tree();
    (tree, pairs, RefineReport { rotations, sweeps })
}

/// Refine a contraction tree for **batched multi-amplitude execution**:
/// greedy subtree rotations that defer projector-dependent joins toward the
/// root of the sliced spine, shrinking the StemMixed suffix a batched
/// execution replays per bitstring (see [`crate::classify`]).
///
/// The batched executor contracts each subtask's StemPure prefix once for
/// the whole batch; everything root-ward of the first projector join is
/// StemMixed and must replay per bitstring. Cost-wise many RQC contraction
/// orders are degenerate (every bond has weight 2), so there is real
/// freedom in *where* the projector-dependent subtrees merge into the
/// spine. This pass exploits it: a rotation is accepted only when it
/// strictly shrinks the local StemMixed contraction cost while
///
/// * (a) not increasing the local contraction cost,
/// * (b) not raising any affected node's post-slicing rank above the
///   tree's pre-existing maximum, so the slicing set chosen before the
///   deferral stays exactly as feasible, and
/// * (c) not raising the **execution bill** of the two affected
///   contractions: what one execution pays for a node, in log2 — a
///   slice-dependent node (its subtree touches a sliced edge) runs in all
///   `2^|S|` subtasks on its sliced operands, `|u \ S| + |S|` (the Eq. 4
///   term); a projector-only (Frontier) node runs once, `|u|`; a node with
///   neither dependency (Branch) is contracted once per plan and is free.
///
/// Without (c) a rotation can move the spine onto contractions the slicing
/// set does not cover, multiplying the slicing overhead while leaving the
/// unsliced cost untouched. With it, the pass never increases the total
/// unsliced cost, any post-slicing rank, or the per-execution bill.
///
/// `sliced` and `overridable_leaves` have the same meaning as in
/// [`crate::classify::classify_nodes`]. Returns the refined pair list and a
/// report; with no sliced edges or no overridable leaves nothing is mixed
/// and the pass is a no-op.
pub fn defer_projector_joins(
    tree: &ContractionTree,
    sliced: &[IndexId],
    overridable_leaves: &[usize],
    max_sweeps: usize,
) -> (Vec<(usize, usize)>, RefineReport) {
    let (_, pairs, report) =
        defer_projector_joins_tree(tree.clone(), sliced, overridable_leaves, max_sweeps);
    (pairs, report)
}

/// [`defer_projector_joins`] on a tree handed over, returning the deferred
/// tree too: the one [`ContractionTree::from_pairs`] builds from the
/// returned pairs on the tree's network, node for node, without building
/// it again.
pub fn defer_projector_joins_tree(
    tree: ContractionTree,
    sliced: &[IndexId],
    overridable_leaves: &[usize],
    max_sweeps: usize,
) -> (ContractionTree, Vec<(usize, usize)>, RefineReport) {
    let mut t = MutableTree::from_tree(tree);
    let num_nodes = t.nodes.len();
    let on_slice = sets::edge_marks(sliced);
    let on_projector = Marks::new(overridable_leaves.iter().copied());
    // Every node's class, as `classify_nodes` assigns it. Children precede
    // parents in a freshly built tree, so one forward pass sets them all.
    let mut classes = vec![NodeClass::Branch; num_nodes];
    for id in 0..num_nodes {
        classes[id] = match t.nodes[id].children {
            Some((l, r)) => classes[l].join(classes[r]),
            None => {
                let vertex = t.nodes[id].leaf_vertex.expect("a leaf has a network vertex");
                NodeClass::of(on_slice.any(&t.nodes[id].indices), on_projector.contains(vertex))
            }
        };
    }
    // Every node's post-slicing rank `|s_n \ S|`, refreshed whenever its
    // index set is.
    let eff_rank = |t: &MutableTree, n: usize| on_slice.count_unmarked(&t.nodes[n].indices);
    let mut ranks: Vec<usize> = (0..num_nodes).map(|n| eff_rank(&t, n)).collect();

    let subtasks_log2 = sliced.len() as LogCost;
    // What a rotation test reads of the internal nodes `p` and `c`, summed
    // in log2: (contraction cost, StemMixed cost, execution bill). A node
    // is its class, its lengths and its post-slicing ranks. A node's bill
    // is its Eq. 4 term `|u \ S| + |S|` for a stem class, its cost `|u|`
    // for Frontier, and nothing for Branch; `|u \ S|` reads off the ranks
    // as `|u|` reads off the lengths.
    let price = |nodes: [(NodeClass, Lens, Lens); 2]| {
        let [(p_cost, p_mixed, p_bill), (c_cost, c_mixed, c_bill)] =
            nodes.map(|(class, lens, ranks)| {
                let cost = lens_cost(lens);
                let mixed = if class == NodeClass::StemMixed { cost } else { f64::NEG_INFINITY };
                let bill = match class {
                    NodeClass::StemPure | NodeClass::StemMixed => lens_cost(ranks) + subtasks_log2,
                    NodeClass::Frontier => cost,
                    NodeClass::Branch => f64::NEG_INFINITY,
                };
                (cost, mixed, bill)
            });
        (log2_add(p_cost, c_cost), log2_add(p_mixed, c_mixed), log2_add(p_bill, c_bill))
    };

    // The feasibility envelope: no rotation may push any affected node's
    // post-slicing rank above what the tree already contains.
    let rank_bound =
        (0..t.nodes.len()).filter(|&n| !t.is_leaf(n)).map(|n| ranks[n]).max().unwrap_or(0);

    let (rotations, sweeps) = t.sweep(max_sweeps, |t, p| {
        let Some((c, z)) = t.nodes[p].children else { return false };
        // A rotation must strictly shrink the StemMixed cost of `p` and its
        // internal child. Mixedness only grows toward the root, so when `p`
        // is not mixed neither is its child, that cost is already zero, and
        // no candidate can pass: skip the trials.
        if classes[p] != NodeClass::StemMixed {
            return false;
        }
        let node = |n: usize| {
            let (l, r) = t.nodes[n].children.expect("an internal node");
            (classes[n], t.lens(n), [ranks[l], ranks[r], ranks[n]])
        };
        // (mixed, cost, internal node, its post-slicing rank, internal
        // children, p children)
        type Candidate = (f64, f64, usize, usize, (usize, usize), (usize, usize));
        let mut best: Option<Candidate> = None;
        // Both children may play the internal (re-associated) role — the
        // spine child of an absorption is as often the second as the first.
        for (internal, other) in [(c, z), (z, c)] {
            if t.is_leaf(internal) {
                continue;
            }
            let (x, y) = t.nodes[internal].children.unwrap();
            let (before_local, before_mixed, before_bill) = price([node(p), node(internal)]);
            for (a, b) in [(x, y), (y, x)] {
                // internal := (a, other); p := (internal, b). Only
                // `internal`'s subtree changes; p keeps its leaf set, so p's
                // index set and classes are untouched.
                let (shared, shared_unsliced) =
                    sets::shared_lens(&t.nodes[a].indices, &t.nodes[other].indices, &on_slice);
                let len = |n: usize| t.nodes[n].indices.len();
                let [p_lens, int_lens] = trial_lens([len(a), len(other), len(b), len(p)], shared);
                let [p_ranks, int_ranks] =
                    trial_lens([ranks[a], ranks[other], ranks[b], ranks[p]], shared_unsliced);
                let rank = int_ranks[2];
                let (local, mixed, bill) = price([
                    (classes[p], p_lens, p_ranks),
                    (classes[a].join(classes[other]), int_lens, int_ranks),
                ]);
                let feasible = local <= before_local + 1e-12
                    && rank <= rank_bound
                    && mixed < before_mixed - 1e-12
                    && bill <= before_bill + 1e-12;
                let better = best
                    .map(|(bm, bl, ..)| mixed < bm - 1e-12 || (mixed < bm + 1e-12 && local < bl))
                    .unwrap_or(true);
                if feasible && better {
                    best = Some((mixed, local, internal, rank, (a, other), (internal, b)));
                }
            }
        }
        let Some((_, _, int_node, rank, (l, r), p_children)) = best else { return false };
        t.rotate(p, int_node, (l, r), p_children);
        classes[int_node] = classes[l].join(classes[r]);
        ranks[int_node] = rank;
        debug_assert_eq!(rank, eff_rank(t, int_node), "a trial's rank is the rotated node's");
        true
    });

    let (tree, pairs) = t.into_tree();
    (tree, pairs, RefineReport { rotations, sweeps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify_nodes, NodeClass};
    use crate::cost::log2_sum;
    use crate::graph::TensorNetwork;
    use crate::path::{greedy_path, PathConfig};
    use crate::simplify::simplify_network;
    use crate::tree::union_log_cost;
    use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};

    /// The pricing the full-sweep oracles use: a trial builds its index
    /// set, and each cost and penalty is read off the built sets. They emit
    /// their pair lists by a post-order of their own.
    impl MutableTree {
        /// The internal nodes in the order the pair list emits them: post-order
        /// from the root, each node's second subtree before its first.
        fn post_order(&self) -> Vec<usize> {
            let mut order = Vec::with_capacity(self.nodes.len());
            let mut stack = vec![(self.root, false)];
            while let Some((n, expanded)) = stack.pop() {
                if let Some((l, r)) = self.nodes[n].children {
                    if expanded {
                        order.push(n);
                    } else {
                        stack.push((n, true));
                        stack.push((l, false));
                        stack.push((r, false));
                    }
                }
            }
            order
        }

        /// The contraction pair list in the SSA numbering of the original
        /// network: leaves map to their vertex, the `k`-th emitted internal
        /// node to vertex `leaves + k`.
        fn to_pairs(&self, order: &[usize]) -> Vec<(usize, usize)> {
            let mut vertex_of: Vec<Option<usize>> =
                self.nodes.iter().map(|n| n.leaf_vertex).collect();
            let num_leaves = vertex_of.iter().filter(|v| v.is_some()).count();
            order
                .iter()
                .enumerate()
                .map(|(k, &n)| {
                    let (l, r) = self.nodes[n].children.expect("an internal node");
                    let vertex = |c: usize| vertex_of[c].expect("child emitted before parent");
                    let pair = (vertex(l), vertex(r));
                    vertex_of[n] = Some(num_leaves + k);
                    pair
                })
                .collect()
        }

        fn node_log_cost(&self, n: usize) -> LogCost {
            self.nodes[n].children.map_or(f64::NEG_INFINITY, |(l, r)| {
                union_log_cost(
                    &self.nodes[l].indices,
                    &self.nodes[r].indices,
                    &self.nodes[n].indices,
                )
            })
        }

        /// log2 cost of the two nodes a rotation affects (`p` and its
        /// internal child `c`).
        fn local_cost(&self, p: usize, c: usize) -> LogCost {
            log2_add(self.node_log_cost(p), self.node_log_cost(c))
        }

        /// The Sunway-adaptive penalty: of `p` and `c`, the contractions
        /// whose smaller operand exceeds the LDM bound.
        fn ldm_penalty(&self, p: usize, c: usize, ldm_rank: usize) -> usize {
            [p, c]
                .into_iter()
                .filter_map(|n| self.nodes[n].children)
                .filter(|&(l, r)| {
                    self.nodes[l].indices.len().min(self.nodes[r].indices.len()) > ldm_rank
                })
                .count()
        }
    }

    /// Dependency bits of every node: does the subtree touch a sliced edge
    /// / an overridable projector leaf? A node is StemMixed iff both. The
    /// full-sweep deferral keeps these booleans instead of [`NodeClass`], so
    /// the oracle does not share the class rule with the pass it checks.
    struct DepBits {
        slice: Vec<bool>,
        proj: Vec<bool>,
    }

    impl DepBits {
        fn recompute(&mut self, t: &MutableTree, n: usize) {
            if let Some((l, r)) = t.nodes[n].children {
                self.slice[n] = self.slice[l] || self.slice[r];
                self.proj[n] = self.proj[l] || self.proj[r];
            }
        }

        fn mixed(&self, n: usize) -> bool {
            self.slice[n] && self.proj[n]
        }
    }

    /// `refine_path` as it was before stale-node skipping: every sweep
    /// evaluates every node. The exactness oracle for the incremental one.
    fn full_sweep_refine_path(
        tree: &ContractionTree,
        objective: RefineObjective,
        max_sweeps: usize,
    ) -> (Vec<(usize, usize)>, RefineReport) {
        let mut t = MutableTree::from_tree(tree.clone());
        let mut rotations = 0;
        let mut sweeps = 0;

        for _ in 0..max_sweeps {
            sweeps += 1;
            let mut progressed = false;
            for p in 0..t.nodes.len() {
                let Some((c, z)) = t.nodes[p].children else { continue };
                // Only the first internal child is tried: see the `break` below.
                for (internal, other) in [(c, z), (z, c)] {
                    if t.is_leaf(internal) {
                        continue;
                    }
                    let (x, y) = t.nodes[internal].children.unwrap();
                    let before_local = t.local_cost(p, internal);
                    let before_penalty = match objective {
                        RefineObjective::Cost => 0,
                        RefineObjective::SunwayAdaptive { ldm_rank } => {
                            t.ldm_penalty(p, internal, ldm_rank)
                        }
                    };
                    // Candidate re-associations: ((x,other),y) and ((y,other),x).
                    // (delta, penalty, internal children, parent children)
                    type Candidate = (f64, usize, (usize, usize), (usize, usize));
                    let mut best: Option<Candidate> = None;
                    for (a, b) in [(x, y), (y, x)] {
                        // internal := (a, other); p := (internal, b)
                        t.nodes[internal].children = Some((a, other));
                        t.nodes[p].children = Some((internal, b));
                        t.recompute(internal);
                        let local = t.local_cost(p, internal);
                        let penalty = match objective {
                            RefineObjective::Cost => 0,
                            RefineObjective::SunwayAdaptive { ldm_rank } => {
                                t.ldm_penalty(p, internal, ldm_rank)
                            }
                        };
                        let improves = local < before_local - 1e-12
                            || (local < before_local + 1e-12 && penalty < before_penalty);
                        if improves && best.map(|(bl, _, _, _)| local < bl).unwrap_or(true) {
                            best = Some((local, internal, (a, other), (internal, b)));
                        }
                    }
                    match best {
                        Some((_, int_node, int_children, p_children)) => {
                            t.nodes[int_node].children = Some(int_children);
                            t.nodes[p].children = Some(p_children);
                            t.recompute(int_node);
                            rotations += 1;
                            progressed = true;
                        }
                        None => {
                            // Restore the original configuration — including
                            // p's child order: when `internal` is p's *second*
                            // child, `(internal, other)` is the reversed pair,
                            // and a rejected rotation must not flip operands.
                            t.nodes[internal].children = Some((x, y));
                            t.nodes[p].children = Some((c, z));
                            t.recompute(internal);
                        }
                    }
                    break; // only consider the first internal child arrangement per node per sweep
                }
            }
            if !progressed {
                break;
            }
        }

        let pairs = t.to_pairs(&t.post_order());
        (pairs, RefineReport { rotations, sweeps })
    }

    /// `defer_projector_joins` before stale-node skipping: every sweep
    /// evaluates every node.
    fn full_sweep_defer_projector_joins(
        tree: &ContractionTree,
        sliced: &[IndexId],
        overridable_leaves: &[usize],
        max_sweeps: usize,
    ) -> (Vec<(usize, usize)>, RefineReport) {
        let mut t = MutableTree::from_tree(tree.clone());
        let nodes = tree.nodes();
        let on_slice = sets::edge_marks(sliced);
        let on_projector = Marks::new(overridable_leaves.iter().copied());
        let mut deps = DepBits { slice: vec![false; nodes.len()], proj: vec![false; nodes.len()] };
        // Children precede parents in a freshly built tree, so one forward
        // pass sets every node's bits.
        for (id, node) in nodes.iter().enumerate() {
            match node.leaf_vertex {
                Some(vertex) => {
                    deps.slice[id] = on_slice.any(&node.indices);
                    deps.proj[id] = on_projector.contains(vertex);
                }
                None => deps.recompute(&t, id),
            }
        }

        let subtasks_log2 = sliced.len() as LogCost;
        let bill = |t: &MutableTree, deps: &DepBits, n: usize| -> LogCost {
            match (deps.slice[n], deps.proj[n], t.nodes[n].children) {
                (true, _, Some((l, r))) => {
                    let unsliced = sets::union_lens_unmarked(
                        &t.nodes[l].indices,
                        &t.nodes[r].indices,
                        &on_slice,
                    )
                    .1;
                    unsliced as LogCost + subtasks_log2
                }
                (false, true, _) => t.node_log_cost(n),
                _ => f64::NEG_INFINITY,
            }
        };
        let local_bill = |t: &MutableTree, deps: &DepBits, p: usize, c: usize| {
            log2_add(bill(t, deps, p), bill(t, deps, c))
        };

        let eff_rank = |t: &MutableTree, n: usize| on_slice.count_unmarked(&t.nodes[n].indices);
        // The feasibility envelope: no rotation may push any affected node's
        // post-slicing rank above what the tree already contains.
        let rank_bound = (0..t.nodes.len())
            .filter(|&n| !t.is_leaf(n))
            .map(|n| eff_rank(&t, n))
            .max()
            .unwrap_or(0);
        let local_mixed = |t: &MutableTree, deps: &DepBits, p: usize, c: usize| {
            [p, c]
                .into_iter()
                .filter(|&n| deps.mixed(n))
                .fold(f64::NEG_INFINITY, |acc, n| log2_add(acc, t.node_log_cost(n)))
        };

        let mut rotations = 0;
        let mut sweeps = 0;

        for _ in 0..max_sweeps {
            sweeps += 1;
            let mut progressed = false;
            for p in 0..t.nodes.len() {
                let Some((c, z)) = t.nodes[p].children else { continue };
                // A rotation must strictly shrink the StemMixed cost of `p` and
                // its internal child. Mixedness only grows toward the root, so
                // when `p` is not mixed neither is its child, that cost is
                // already zero, and no candidate can pass: skip the trials.
                if !deps.mixed(p) {
                    continue;
                }
                // (mixed, cost, internal node, internal children, p children)
                type Candidate = (f64, f64, usize, (usize, usize), (usize, usize));
                let mut best: Option<Candidate> = None;
                // Both children may play the internal (re-associated) role —
                // the spine child of an absorption is as often the second as
                // the first.
                for (internal, other) in [(c, z), (z, c)] {
                    if t.is_leaf(internal) {
                        continue;
                    }
                    let (x, y) = t.nodes[internal].children.unwrap();
                    let before_local = t.local_cost(p, internal);
                    let before_mixed = local_mixed(&t, &deps, p, internal);
                    let before_bill = local_bill(&t, &deps, p, internal);
                    for (a, b) in [(x, y), (y, x)] {
                        // internal := (a, other); p := (internal, b). Only
                        // `internal`'s subtree changes; p keeps its leaf set,
                        // so p's index set and classes are untouched.
                        t.nodes[internal].children = Some((a, other));
                        t.nodes[p].children = Some((internal, b));
                        t.recompute(internal);
                        deps.recompute(&t, internal);
                        let local = t.local_cost(p, internal);
                        let mixed = local_mixed(&t, &deps, p, internal);
                        let feasible = local <= before_local + 1e-12
                            && eff_rank(&t, internal) <= rank_bound
                            && mixed < before_mixed - 1e-12
                            && local_bill(&t, &deps, p, internal) <= before_bill + 1e-12;
                        let better = best
                            .map(|(bm, bl, ..)| {
                                mixed < bm - 1e-12 || (mixed < bm + 1e-12 && local < bl)
                            })
                            .unwrap_or(true);
                        if feasible && better {
                            best = Some((mixed, local, internal, (a, other), (internal, b)));
                        }
                    }
                    // Restore the original configuration — including p's child
                    // *order* (for the second role `(internal, other)` is the
                    // reversed pair) — before trying the other role or applying
                    // the best candidate. A rejected sweep must be a true no-op.
                    t.nodes[internal].children = Some((x, y));
                    t.nodes[p].children = Some((c, z));
                    t.recompute(internal);
                    deps.recompute(&t, internal);
                }
                if let Some((_, _, int_node, int_children, p_children)) = best {
                    t.nodes[int_node].children = Some(int_children);
                    t.nodes[p].children = Some(p_children);
                    t.recompute(int_node);
                    deps.recompute(&t, int_node);
                    rotations += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }

        let pairs = t.to_pairs(&t.post_order());
        (pairs, RefineReport { rotations, sweeps })
    }

    fn planned(
        rows: usize,
        cols: usize,
        cycles: usize,
        seed: u64,
    ) -> (TensorNetwork, ContractionTree) {
        let cfg = RqcConfig::small(rows, cols, cycles, seed);
        let c = cfg.build();
        let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0; c.num_qubits()]));
        let g = TensorNetwork::from_build(&b);
        let mut work = g.clone();
        let mut pairs = simplify_network(&mut work);
        pairs.extend(greedy_path(&mut work, &PathConfig { temperature: 0.5, seed }));
        let tree = ContractionTree::from_pairs(&g, &pairs);
        (g, tree)
    }

    /// Three slicing sets per tree: two edges of the root contraction's
    /// left operand, three edges of the widest intermediate, and every
    /// fifth edge of the network.
    fn oracle_slicings(tree: &ContractionTree) -> [Vec<IndexId>; 3] {
        let (root_left, _) = tree.node(tree.root()).children.unwrap();
        let widest = tree.internal_nodes().into_iter().max_by_key(|&n| tree.node(n).rank());
        let mut edges: Vec<IndexId> =
            tree.nodes().iter().flat_map(|n| n.indices.iter().copied()).collect();
        edges.sort_unstable();
        edges.dedup();
        [
            tree.node(root_left).indices.iter().copied().take(2).collect(),
            tree.node(widest.unwrap()).indices.iter().copied().take(3).collect(),
            edges.iter().copied().step_by(5).collect(),
        ]
    }

    /// `got` is the tree `from_pairs` builds: same root, and node for node
    /// the same children, leaf vertex, index set and parent.
    fn assert_same_tree(got: &ContractionTree, want: &ContractionTree, what: &str) {
        assert_eq!(got.root(), want.root(), "{what}");
        assert_eq!(got.nodes().len(), want.nodes().len(), "{what}");
        for (id, (g, w)) in got.nodes().iter().zip(want.nodes()).enumerate() {
            assert_eq!(
                (g.children, g.leaf_vertex, &g.indices, g.parent),
                (w.children, w.leaf_vertex, &w.indices, w.parent),
                "{what}: node {id}"
            );
        }
    }

    /// Skipping the nodes no rotation touched changes no decision: both
    /// passes return the full-sweep pair list and report exactly, on every
    /// oracle tree, both objectives, three sweep caps and three slicings.
    /// The variants that take the tree over return the same pairs and
    /// report, and the tree `from_pairs` builds from those pairs.
    #[test]
    fn stale_node_sweeps_match_full_sweeps() {
        let trees = crate::test_trees::oracle_trees();
        assert!(trees.len() >= 24);
        let objectives = [RefineObjective::Cost, RefineObjective::SunwayAdaptive { ldm_rank: 13 }];
        // Rotations applied after the first sweep: where skipping happens.
        let (mut late_refines, mut late_deferrals) = (0, 0);
        for (name, network, tree, overridable) in &trees {
            for objective in objectives {
                for max_sweeps in [1, 4, 12] {
                    let got = refine_path(tree, objective, max_sweeps);
                    let want = full_sweep_refine_path(tree, objective, max_sweeps);
                    let what = format!("{name}, {objective:?}, {max_sweeps} sweeps");
                    assert_eq!(got, want, "{what}");
                    late_refines += usize::from(got.1.sweeps > 2);
                    let (handed, pairs, report) = refine_tree(tree.clone(), objective, max_sweeps);
                    assert_eq!((pairs, report), got, "{what}");
                    assert_same_tree(&handed, &ContractionTree::from_pairs(network, &got.0), &what);
                }
            }
            // The deferral runs on a refined tree, as in the planner.
            let objective = RefineObjective::SunwayAdaptive { ldm_rank: 13 };
            let (pairs, _) = refine_path(tree, objective, 12);
            let refined = ContractionTree::from_pairs(network, &pairs);
            for sliced in oracle_slicings(&refined) {
                for max_sweeps in [1, 4, 12] {
                    let got = defer_projector_joins(&refined, &sliced, overridable, max_sweeps);
                    let want = full_sweep_defer_projector_joins(
                        &refined,
                        &sliced,
                        overridable,
                        max_sweeps,
                    );
                    let what = format!("{name}, sliced {sliced:?}, {max_sweeps} sweeps");
                    assert_eq!(got, want, "{what}");
                    late_deferrals += usize::from(got.1.sweeps > 2);
                    let (handed, pairs, report) = defer_projector_joins_tree(
                        refined.clone(),
                        &sliced,
                        overridable,
                        max_sweeps,
                    );
                    assert_eq!((pairs, report), got, "{what}");
                    assert_same_tree(&handed, &ContractionTree::from_pairs(network, &got.0), &what);
                }
            }
        }
        assert!(late_refines > 0 && late_deferrals > 0, "no case rotated after its first sweep");
    }

    #[test]
    fn refinement_never_increases_cost() {
        for seed in 0..4u64 {
            let (network, tree) = planned(3, 4, 10, seed);
            let (pairs, _) = refine_path(&tree, RefineObjective::Cost, 10);
            // The refined pair list must still be a valid full contraction.
            let refined = ContractionTree::from_pairs(&network, &pairs);
            assert_eq!(refined.node(refined.root()).rank(), tree.node(tree.root()).rank());
            assert!(refined.total_log_cost() <= tree.total_log_cost() + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn refined_pairs_preserve_leaf_count() {
        let (network, tree) = planned(3, 3, 8, 9);
        let (pairs, _) = refine_path(&tree, RefineObjective::Cost, 5);
        assert_eq!(pairs.len(), network.num_active() - 1);
    }

    #[test]
    fn adaptive_objective_is_also_monotone_in_cost() {
        let (network, tree) = planned(3, 4, 10, 11);
        let (pairs, _) = refine_path(&tree, RefineObjective::SunwayAdaptive { ldm_rank: 13 }, 10);
        let refined = ContractionTree::from_pairs(&network, &pairs);
        assert!(refined.total_log_cost() <= tree.total_log_cost() + 1e-9);
        assert_eq!(refined.node(refined.root()).rank(), 0);
    }

    #[test]
    fn bad_trees_get_improved() {
        // A deliberately poor path (high temperature) should leave room for
        // the refiner to find at least one rotation on most instances.
        let mut improved = 0;
        for seed in 20..26u64 {
            let (network, tree) = planned(3, 4, 10, seed);
            let (pairs, _) = refine_path(&tree, RefineObjective::Cost, 10);
            let refined = ContractionTree::from_pairs(&network, &pairs);
            if refined.total_log_cost() < tree.total_log_cost() - 1e-9 {
                improved += 1;
            }
        }
        assert!(improved >= 2, "refiner improved only {improved}/6 poor trees");
    }

    /// log2 of the StemMixed contraction cost of `tree`: the work a batched
    /// execution replays per bitstring.
    fn replayed_cost(tree: &ContractionTree, sliced: &[IndexId], overridable: &[usize]) -> LogCost {
        let classes = classify_nodes(tree, sliced, overridable, &[]);
        log2_sum(
            tree.internal_nodes()
                .into_iter()
                .filter(|&n| classes.class(n) == NodeClass::StemMixed)
                .map(|n| tree.node_log_cost(n)),
        )
    }

    /// What one execution of `tree` pays, in log2: slice-dependent nodes
    /// at the Eq. 4 term `|u \ S| + |S|`, Frontier nodes at `|u|`, Branch
    /// nodes nothing.
    fn execution_bill(
        tree: &ContractionTree,
        sliced: &[IndexId],
        overridable: &[usize],
    ) -> LogCost {
        let classes = classify_nodes(tree, sliced, overridable, &[]);
        log2_sum(tree.internal_nodes().into_iter().map(|n| {
            let union = tree.node_union(n);
            match classes.class(n) {
                NodeClass::StemPure | NodeClass::StemMixed => {
                    let unsliced = union.iter().filter(|e| !sliced.contains(e)).count();
                    (unsliced + sliced.len()) as LogCost
                }
                NodeClass::Frontier => union.len() as LogCost,
                NodeClass::Branch => f64::NEG_INFINITY,
            }
        }))
    }

    #[test]
    fn projector_deferral_is_cost_and_feasibility_neutral() {
        let mut rotated = 0;
        let cases = [(3, 10, 5u64, 0.0), (4, 10, 11, 0.5), (3, 12, 20, 0.0), (3, 12, 21, 0.5)];
        for (rows, cycles, seed, temperature) in cases {
            let c = RqcConfig::small(rows, 4, cycles, seed).build();
            let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0; c.num_qubits()]));
            let g = TensorNetwork::from_build(&b);
            let mut work = g.clone();
            let mut pairs = simplify_network(&mut work);
            pairs.extend(greedy_path(&mut work, &PathConfig { temperature, seed: 1 }));
            let tree = ContractionTree::from_pairs(&g, &pairs);
            let overridable: Vec<usize> =
                b.projector_leaves.iter().map(|&(_, node)| node).collect();
            for sliced in oracle_slicings(&tree) {
                let case = format!("seed {seed}, sliced {sliced:?}");
                let (pairs2, report) = defer_projector_joins(&tree, &sliced, &overridable, 8);
                rotated += report.rotations;
                // The refined pair list is still a valid full contraction of
                // the same network with the same root rank.
                let refined = ContractionTree::from_pairs(&g, &pairs2);
                assert_eq!(refined.node(refined.root()).rank(), tree.node(tree.root()).rank());
                assert!(
                    refined.total_log_cost() <= tree.total_log_cost() + 1e-9,
                    "cost rose: {case}"
                );
                let before = replayed_cost(&tree, &sliced, &overridable);
                let after = replayed_cost(&refined, &sliced, &overridable);
                assert!(
                    after <= before + 1e-9,
                    "the StemMixed cost rose {before} -> {after}: {case}"
                );
                // Feasibility envelope: the maximum post-slicing rank is
                // unchanged or smaller.
                let max_eff = |t: &ContractionTree| {
                    t.internal_nodes()
                        .into_iter()
                        .map(|n| t.node(n).indices.iter().filter(|e| !sliced.contains(e)).count())
                        .max()
                        .unwrap()
                };
                assert!(max_eff(&refined) <= max_eff(&tree), "{case}");
                // What one execution pays does not rise.
                let before = execution_bill(&tree, &sliced, &overridable);
                let after = execution_bill(&refined, &sliced, &overridable);
                assert!(after <= before + 1e-9, "bill rose {before} -> {after}: {case}");
            }
        }
        assert!(rotated > 0, "no case exercised a rotation");
    }

    #[test]
    fn projector_deferral_without_slicing_or_projectors_is_a_no_op() {
        let (network, tree) = planned(3, 3, 8, 4);
        let (identity, _) = defer_projector_joins(&tree, &[], &[], 0);
        for (sliced, overridable) in [(vec![], vec![0usize]), (vec![0u32, 1], vec![])] {
            let (pairs, report) = defer_projector_joins(&tree, &sliced, &overridable, 8);
            assert_eq!(report.rotations, 0, "nothing is StemMixed, nothing to defer");
            // A zero-rotation sweep must be a *true* no-op: the emitted pair
            // list — operand order included — matches an untouched tree's.
            assert_eq!(pairs, identity, "rejected sweeps must not perturb the tree");
            let rebuilt = ContractionTree::from_pairs(&network, &pairs);
            assert!((rebuilt.total_log_cost() - tree.total_log_cost()).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_sweeps_is_identity() {
        let (network, tree) = planned(3, 3, 8, 30);
        let (pairs, report) = refine_path(&tree, RefineObjective::Cost, 0);
        assert_eq!(report.rotations, 0);
        let rebuilt = ContractionTree::from_pairs(&network, &pairs);
        assert!((rebuilt.total_log_cost() - tree.total_log_cost()).abs() < 1e-9);
    }
}
