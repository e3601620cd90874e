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
//! sweep makes no further progress.

use crate::cost::{log2_add, LogCost};
use crate::sets::{self, Marks};
use crate::tree::ContractionTree;
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

/// Statistics of one refinement run.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineReport {
    /// log2 of the total cost before refinement.
    pub cost_before: LogCost,
    /// log2 of the total cost after refinement.
    pub cost_after: LogCost,
    /// Number of rotations applied.
    pub rotations: usize,
    /// Number of full sweeps performed.
    pub sweeps: usize,
}

/// A mutable, pair-list representation of a contraction tree that supports
/// local re-association. Internally the tree is stored as, for every
/// internal node, the pair of child ids; leaves keep their original index
/// sets.
struct MutableTree {
    /// Per-node indices (leaves fixed, internal recomputed on demand).
    indices: Vec<Vec<IndexId>>,
    /// Per-node children (None for leaves).
    children: Vec<Option<(usize, usize)>>,
    root: usize,
}

impl MutableTree {
    fn from_tree(tree: &ContractionTree) -> Self {
        let nodes = tree.nodes();
        Self {
            indices: nodes.iter().map(|n| n.indices.clone()).collect(),
            children: nodes.iter().map(|n| n.children).collect(),
            root: tree.root(),
        }
    }

    fn is_leaf(&self, n: usize) -> bool {
        self.children[n].is_none()
    }

    /// Recompute the index set of an internal node from its children
    /// (symmetric difference, matching `TensorNetwork::contract`).
    ///
    /// A rotation at `p` re-pairs `p`'s internal child but keeps `p`'s leaf
    /// set, and a node's index set is the symmetric difference of its
    /// leaves' sets — so only that child ever needs this; `p` and every
    /// ancestor keep their indices.
    fn recompute(&mut self, n: usize) {
        if let Some((l, r)) = self.children[n] {
            let mut out = std::mem::take(&mut self.indices[n]);
            sets::sym_diff_into(&self.indices[l], &self.indices[r], &mut out);
            self.indices[n] = out;
        }
    }

    fn node_log_cost(&self, n: usize) -> LogCost {
        self.children[n].map_or(f64::NEG_INFINITY, |(l, r)| {
            sets::union_len(&self.indices[l], &self.indices[r]) as LogCost
        })
    }

    fn total_log_cost(&self) -> LogCost {
        (0..self.children.len())
            .filter(|&n| !self.is_leaf(n))
            .fold(f64::NEG_INFINITY, |acc, n| log2_add(acc, self.node_log_cost(n)))
    }

    /// log2 cost of the two nodes a rotation affects (`p` and its internal
    /// child `c`).
    fn local_cost(&self, p: usize, c: usize) -> LogCost {
        log2_add(self.node_log_cost(p), self.node_log_cost(c))
    }

    /// Penalty used by the Sunway-adaptive objective: for the two affected
    /// contractions, count operands whose rank exceeds the LDM bound (those
    /// force main-memory round trips in the fused design).
    fn ldm_penalty(&self, p: usize, c: usize, ldm_rank: usize) -> usize {
        let mut penalty = 0;
        for n in [p, c] {
            if let Some((l, r)) = self.children[n] {
                // The smaller operand is the one the fused kernel streams;
                // penalise when even the smaller one exceeds the LDM.
                let small = self.indices[l].len().min(self.indices[r].len());
                if small > ldm_rank {
                    penalty += 1;
                }
            }
        }
        penalty
    }

    /// Extract the contraction pair list (in the SSA numbering of the
    /// original network) by emitting internal nodes children-before-parents.
    fn to_pairs(&self, original_leaf_vertex: &[Option<usize>]) -> Vec<(usize, usize)> {
        // Map tree node -> SSA vertex id. Leaves map to their original
        // vertex; internal nodes are assigned new ids in emission order.
        let mut vertex_of: Vec<Option<usize>> = original_leaf_vertex.to_vec();
        let num_leaves = vertex_of.iter().filter(|v| v.is_some()).count();
        let mut next_vertex = num_leaves;
        let mut pairs = Vec::new();
        // Post-order traversal from the root.
        let mut stack = vec![(self.root, false)];
        while let Some((n, expanded)) = stack.pop() {
            match self.children[n] {
                None => {}
                Some((l, r)) => {
                    if expanded {
                        let lv = vertex_of[l].expect("child emitted before parent");
                        let rv = vertex_of[r].expect("child emitted before parent");
                        pairs.push((lv, rv));
                        vertex_of[n] = Some(next_vertex);
                        next_vertex += 1;
                    } else {
                        stack.push((n, true));
                        stack.push((l, false));
                        stack.push((r, false));
                    }
                }
            }
        }
        pairs
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
    let mut t = MutableTree::from_tree(tree);
    let cost_before = t.total_log_cost();
    let mut rotations = 0;
    let mut sweeps = 0;

    for _ in 0..max_sweeps {
        sweeps += 1;
        let mut progressed = false;
        for p in 0..t.children.len() {
            let Some((c, z)) = t.children[p] else { continue };
            // Try rotations with either child playing the internal role.
            for (internal, other) in [(c, z), (z, c)] {
                if t.is_leaf(internal) {
                    continue;
                }
                let (x, y) = t.children[internal].unwrap();
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
                    t.children[internal] = Some((a, other));
                    t.children[p] = Some((internal, b));
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
                        t.children[int_node] = Some(int_children);
                        t.children[p] = Some(p_children);
                        t.recompute(int_node);
                        rotations += 1;
                        progressed = true;
                    }
                    None => {
                        // Restore the original configuration — including
                        // p's child order: when `internal` is p's *second*
                        // child, `(internal, other)` is the reversed pair,
                        // and a rejected rotation must not flip operands.
                        t.children[internal] = Some((x, y));
                        t.children[p] = Some((c, z));
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

    let cost_after = t.total_log_cost();
    let leaf_vertices: Vec<Option<usize>> = tree.nodes().iter().map(|n| n.leaf_vertex).collect();
    let pairs = t.to_pairs(&leaf_vertices);
    (pairs, RefineReport { cost_before, cost_after, rotations, sweeps })
}

/// Statistics of one projector-deferral run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRefineReport {
    /// log2 of the total cost before/after (never increases).
    pub cost_before: LogCost,
    /// log2 of the total cost after the deferral.
    pub cost_after: LogCost,
    /// log2 of the StemMixed contraction cost before deferral — the work a
    /// batched execution must replay per bitstring.
    pub mixed_cost_before: LogCost,
    /// log2 of the StemMixed contraction cost after deferral.
    pub mixed_cost_after: LogCost,
    /// Rotations applied.
    pub rotations: usize,
    /// Sweeps performed.
    pub sweeps: usize,
}

/// Dependency bits of every node: does the subtree touch a sliced edge /
/// an overridable projector leaf? A node is StemMixed-class iff both.
struct DepBits {
    slice: Vec<bool>,
    proj: Vec<bool>,
}

impl DepBits {
    fn recompute(&mut self, t: &MutableTree, n: usize) {
        if let Some((l, r)) = t.children[n] {
            self.slice[n] = self.slice[l] || self.slice[r];
            self.proj[n] = self.proj[l] || self.proj[r];
        }
    }

    fn mixed(&self, n: usize) -> bool {
        self.slice[n] && self.proj[n]
    }
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
) -> (Vec<(usize, usize)>, BatchRefineReport) {
    let mut t = MutableTree::from_tree(tree);
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
        match (deps.slice[n], deps.proj[n], t.children[n]) {
            (true, _, Some((l, r))) => {
                let unsliced = sets::union_len_unmarked(&t.indices[l], &t.indices[r], &on_slice);
                unsliced as LogCost + subtasks_log2
            }
            (false, true, _) => t.node_log_cost(n),
            _ => f64::NEG_INFINITY,
        }
    };
    let local_bill = |t: &MutableTree, deps: &DepBits, p: usize, c: usize| {
        log2_add(bill(t, deps, p), bill(t, deps, c))
    };

    let eff_rank = |t: &MutableTree, n: usize| on_slice.count_unmarked(&t.indices[n]);
    // The feasibility envelope: no rotation may push any affected node's
    // post-slicing rank above what the tree already contains.
    let rank_bound = (0..t.children.len())
        .filter(|&n| !t.is_leaf(n))
        .map(|n| eff_rank(&t, n))
        .max()
        .unwrap_or(0);
    let mixed_total = |t: &MutableTree, deps: &DepBits| {
        (0..t.children.len())
            .filter(|&n| !t.is_leaf(n) && deps.mixed(n))
            .fold(f64::NEG_INFINITY, |acc, n| log2_add(acc, t.node_log_cost(n)))
    };
    let local_mixed = |t: &MutableTree, deps: &DepBits, p: usize, c: usize| {
        [p, c]
            .into_iter()
            .filter(|&n| deps.mixed(n))
            .fold(f64::NEG_INFINITY, |acc, n| log2_add(acc, t.node_log_cost(n)))
    };

    let cost_before = t.total_log_cost();
    let mixed_cost_before = mixed_total(&t, &deps);
    let mut rotations = 0;
    let mut sweeps = 0;

    for _ in 0..max_sweeps {
        sweeps += 1;
        let mut progressed = false;
        for p in 0..t.children.len() {
            let Some((c, z)) = t.children[p] else { continue };
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
                let (x, y) = t.children[internal].unwrap();
                let before_local = t.local_cost(p, internal);
                let before_mixed = local_mixed(&t, &deps, p, internal);
                let before_bill = local_bill(&t, &deps, p, internal);
                for (a, b) in [(x, y), (y, x)] {
                    // internal := (a, other); p := (internal, b). Only
                    // `internal`'s subtree changes; p keeps its leaf set,
                    // so p's index set and classes are untouched.
                    t.children[internal] = Some((a, other));
                    t.children[p] = Some((internal, b));
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
                t.children[internal] = Some((x, y));
                t.children[p] = Some((c, z));
                t.recompute(internal);
                deps.recompute(&t, internal);
            }
            if let Some((_, _, int_node, int_children, p_children)) = best {
                t.children[int_node] = Some(int_children);
                t.children[p] = Some(p_children);
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

    let cost_after = t.total_log_cost();
    let mixed_cost_after = mixed_total(&t, &deps);
    let leaf_vertices: Vec<Option<usize>> = nodes.iter().map(|n| n.leaf_vertex).collect();
    let pairs = t.to_pairs(&leaf_vertices);
    (
        pairs,
        BatchRefineReport {
            cost_before,
            cost_after,
            mixed_cost_before,
            mixed_cost_after,
            rotations,
            sweeps,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify_nodes, NodeClass};
    use crate::cost::log2_sum;
    use crate::graph::TensorNetwork;
    use crate::path::{greedy_path, PathConfig};
    use crate::simplify::simplify_network;
    use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};

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

    #[test]
    fn refinement_never_increases_cost() {
        for seed in 0..4u64 {
            let (network, tree) = planned(3, 4, 10, seed);
            let (pairs, report) = refine_path(&tree, RefineObjective::Cost, 10);
            assert!(report.cost_after <= report.cost_before + 1e-9, "seed {seed}");
            // The refined pair list must still be a valid full contraction.
            let refined = ContractionTree::from_pairs(&network, &pairs);
            assert_eq!(refined.node(refined.root()).rank(), tree.node(tree.root()).rank());
            assert!((refined.total_log_cost() - report.cost_after).abs() < 1e-9);
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
        let (pairs, report) =
            refine_path(&tree, RefineObjective::SunwayAdaptive { ldm_rank: 13 }, 10);
        assert!(report.cost_after <= report.cost_before + 1e-9);
        let refined = ContractionTree::from_pairs(&network, &pairs);
        assert_eq!(refined.node(refined.root()).rank(), 0);
    }

    #[test]
    fn bad_trees_get_improved() {
        // A deliberately poor path (high temperature) should leave room for
        // the refiner to find at least one rotation on most instances.
        let mut improved = 0;
        for seed in 20..26u64 {
            let (_, tree) = planned(3, 4, 10, seed);
            let (_, report) = refine_path(&tree, RefineObjective::Cost, 10);
            if report.cost_after < report.cost_before - 1e-9 {
                improved += 1;
            }
        }
        assert!(improved >= 2, "refiner improved only {improved}/6 poor trees");
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
            // Hand-picked slicing sets: two edges of the root contraction's
            // operands (a real stem exists), three edges of the widest
            // intermediate, and every fifth edge of the network.
            let (root_left, _) = tree.node(tree.root()).children.unwrap();
            let widest = tree.internal_nodes().into_iter().max_by_key(|&n| tree.node(n).rank());
            let mut edges: Vec<IndexId> =
                tree.nodes().iter().flat_map(|n| n.indices.iter().copied()).collect();
            edges.sort_unstable();
            edges.dedup();
            let slicings: [Vec<IndexId>; 3] = [
                tree.node(root_left).indices.iter().copied().take(2).collect(),
                tree.node(widest.unwrap()).indices.iter().copied().take(3).collect(),
                edges.iter().copied().step_by(5).collect(),
            ];
            for sliced in slicings {
                let case = format!("seed {seed}, sliced {sliced:?}");
                let (pairs2, report) = defer_projector_joins(&tree, &sliced, &overridable, 8);
                rotated += report.rotations;
                assert!(report.cost_after <= report.cost_before + 1e-9, "cost rose: {case}");
                assert!(
                    report.mixed_cost_after <= report.mixed_cost_before + 1e-9,
                    "deferral must never grow the StemMixed cost: {case}"
                );
                // The refined pair list is still a valid full contraction of
                // the same network with the same root rank, and the
                // incrementally maintained index sets price it exactly.
                let refined = ContractionTree::from_pairs(&g, &pairs2);
                assert_eq!(refined.node(refined.root()).rank(), tree.node(tree.root()).rank());
                assert!((report.cost_before - tree.total_log_cost()).abs() < 1e-9, "{case}");
                assert!((report.cost_after - refined.total_log_cost()).abs() < 1e-9, "{case}");
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
