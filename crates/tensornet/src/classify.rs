//! Slice/projector-dependency classification of contraction-tree nodes.
//!
//! The paper's lifetime-based slicing (§4.2) pays off because only the
//! *stem* — the dominant contraction spine — varies across the `2^|S|`
//! slice assignments; everything hanging off it can be pre-contracted once.
//! This module makes that observation precise for an arbitrary contraction
//! tree: every node is classified by what its subtree depends on, along the
//! two independent axes that matter for reuse — the *sliced edges* (which
//! vary per subtask) and the *overridable output projectors* (which vary
//! per bitstring under rebinding). The two booleans span a four-point
//! product lattice:
//!
//! ```text
//!                 StemMixed   (slice + projector)
//!                 /        \
//!         StemPure          Frontier
//!     (slice only)          (projector only)
//!                 \        /
//!                  Branch    (neither)
//! ```
//!
//! * [`NodeClass::Branch`] — the subtree touches **no sliced edge and no
//!   overridable leaf**. Its tensor is identical for every slice assignment
//!   *and* every output rebinding, so it can be contracted once per plan and
//!   cached for the plan's lifetime.
//! * [`NodeClass::Frontier`] — the subtree touches an overridable leaf (an
//!   output projector that rebinding replaces) but no sliced edge. Its
//!   tensor is identical across all slice assignments of one execution, so
//!   it is contracted once per execution (once per *bitstring* in a batched
//!   execution).
//! * [`NodeClass::StemPure`] — the subtree touches a sliced edge but no
//!   overridable leaf. Its tensor varies per slice assignment but **not**
//!   per bitstring, so a batched execution contracts it once per subtask
//!   and shares it across the whole batch.
//! * [`NodeClass::StemMixed`] — the subtree touches both a sliced edge and
//!   an overridable leaf. Only these nodes must be re-contracted for every
//!   `(subtask, bitstring)` pair.
//!
//! A node's class is the lattice [`NodeClass::join`] of its children's
//! classes (a subtree depends on everything its descendants depend on), so
//! classes are monotone along root-ward paths and each class forms a union
//! of maximal subtrees. [`classify_nodes`] precomputes, besides the
//! per-node classes, the per-class contraction schedules and the *keep
//! sets*: the roots of maximal same-class subtrees whose tensors must
//! outlive their contraction phase because a later phase consumes them.

use crate::sets::{self, Marks};
use crate::tree::ContractionTree;
use qtn_tensor::IndexId;

/// What a contraction-tree node's subtree depends on.
///
/// The derived total order (`Branch < Frontier < StemPure < StemMixed`)
/// sorts classes by lifetime — how often the phase re-runs — and extends
/// the dependency lattice (a parent's class is always `>=` each child's),
/// but it is **not** the lattice join: `Frontier` and `StemPure` are
/// incomparable dependencies whose join is `StemMixed`. Use
/// [`NodeClass::join`] to combine children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeClass {
    /// Independent of sliced edges and overridable leaves: contract once per
    /// plan and cache for the plan's lifetime.
    Branch,
    /// Depends on overridable (output-projector) leaves but on no sliced
    /// edge: contract once per execution (per bitstring when batched).
    Frontier,
    /// Depends on sliced edges but on no overridable leaf: contract once
    /// per slice assignment, shared by every bitstring of a batch.
    StemPure,
    /// Depends on both sliced edges and overridable leaves: re-contract for
    /// every slice assignment of every bitstring.
    StemMixed,
}

impl NodeClass {
    /// Whether this class depends on a sliced edge (re-contracted per
    /// subtask).
    pub fn depends_on_slice(self) -> bool {
        matches!(self, NodeClass::StemPure | NodeClass::StemMixed)
    }

    /// Whether this class depends on an overridable output projector
    /// (re-contracted when the output bitstring changes).
    pub fn depends_on_projector(self) -> bool {
        matches!(self, NodeClass::Frontier | NodeClass::StemMixed)
    }

    /// Shorthand for [`Self::depends_on_slice`]: the classes the per-subtask
    /// stem replay owns.
    pub fn is_stem(self) -> bool {
        self.depends_on_slice()
    }

    /// Least upper bound in the dependency lattice: the class of a node
    /// whose subtree contains subtrees of classes `self` and `other`.
    pub fn join(self, other: NodeClass) -> NodeClass {
        match (self.depends_on_slice() || other.depends_on_slice(), {
            self.depends_on_projector() || other.depends_on_projector()
        }) {
            (false, false) => NodeClass::Branch,
            (false, true) => NodeClass::Frontier,
            (true, false) => NodeClass::StemPure,
            (true, true) => NodeClass::StemMixed,
        }
    }
}

/// Per-node leaf-dependency masks: which leaves of a designated set each
/// node's subtree contains, as a bitset over the *ordinals* of the leaf
/// slice handed to [`classify_nodes`] (bit `i` set ⇔ the subtree contains
/// the leaf at ordinal `i`).
///
/// Two instances are computed per classification, one per rebindable axis:
/// the *projector* masks (over `overridable_leaves` — which output bits a
/// node's tensor depends on, used by batched execution to dedup Frontier
/// and StemMixed intermediates per distinct masked-bit key) and the
/// *parameter* masks (over `param_leaves` — which rebindable gate tensors a
/// node's subtree contains, used to compute the minimal cache-invalidation
/// cone of a parameter rebind: a cached entry whose mask misses every
/// rebound leaf is still valid). Masks propagate by union up the tree
/// (`mask(out) = mask(l) | mask(r)`), so they form a laminar family: along
/// any root-ward path masks only grow.
#[derive(Debug, Clone, Default)]
pub struct DependencyMasks {
    words_per_node: usize,
    num_leaves: usize,
    bits: Vec<u64>,
}

impl DependencyMasks {
    /// Number of designated leaves the masks range over (the bit width).
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// `u64` words per node mask.
    pub fn words_per_node(&self) -> usize {
        self.words_per_node
    }

    /// The mask of one node, as little-endian `u64` words (bit `i` of the
    /// flattened words is leaf ordinal `i`). Empty when the designated leaf
    /// set is empty.
    pub fn mask(&self, node: usize) -> &[u64] {
        let start = node * self.words_per_node;
        &self.bits[start..start + self.words_per_node]
    }

    /// How many designated-leaf ordinals the node's subtree depends on.
    pub fn popcount(&self, node: usize) -> usize {
        self.mask(node).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The leaf ordinals set in a node's mask, ascending.
    pub fn ordinals(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.mask(node).iter().enumerate().flat_map(|(w, &word)| {
            (0..64).filter(move |b| word >> b & 1 == 1).map(move |b| w * 64 + b)
        })
    }

    /// Whether the node's mask shares any set bit with `words`, a bitset
    /// over the same leaf ordinals (shorter is fine — missing words read as
    /// zero). This is the cone test: with `words` naming the rebound
    /// leaves, a node intersecting them is inside the invalidation cone.
    pub fn intersects(&self, node: usize, words: &[u64]) -> bool {
        self.mask(node).iter().zip(words).any(|(a, b)| a & b != 0)
    }
}

/// Build the ordinal bitset over `masks.num_leaves()` leaves that names the
/// given ordinals — the `words` operand of [`DependencyMasks::intersects`].
pub fn ordinal_words(num_leaves: usize, ordinals: &[usize]) -> Vec<u64> {
    let mut words = vec![0u64; num_leaves.div_ceil(64)];
    for &ordinal in ordinals {
        assert!(ordinal < num_leaves, "leaf ordinal {ordinal} out of range ({num_leaves} leaves)");
        words[ordinal / 64] |= 1u64 << (ordinal % 64);
    }
    words
}

/// The classification of every node of a contraction tree, with the derived
/// per-class schedules and keep sets the executor needs.
#[derive(Debug, Clone)]
pub struct NodeClassification {
    classes: Vec<NodeClass>,
    branch_schedule: Vec<(usize, usize, usize)>,
    frontier_schedule: Vec<(usize, usize, usize)>,
    stem_schedule: Vec<(usize, usize, usize)>,
    stem_pure_schedule: Vec<(usize, usize, usize)>,
    stem_mixed_schedule: Vec<(usize, usize, usize)>,
    branch_keep: Vec<usize>,
    frontier_keep: Vec<usize>,
    stem_pure_keep: Vec<usize>,
    stem_seeds: Vec<usize>,
    projector_masks: DependencyMasks,
    param_masks: DependencyMasks,
}

impl NodeClassification {
    /// Class of a tree node.
    pub fn class(&self, node: usize) -> NodeClass {
        self.classes[node]
    }

    /// Per-node classes, indexed by tree-node id.
    pub fn classes(&self) -> &[NodeClass] {
        &self.classes
    }

    /// `(left, right, result)` contraction triples of the Branch-class
    /// internal nodes, in execution order. Contracted once per plan.
    pub fn branch_schedule(&self) -> &[(usize, usize, usize)] {
        &self.branch_schedule
    }

    /// Contraction triples of the Frontier-class internal nodes, in
    /// execution order. Contracted once per execution (per bitstring when
    /// batched).
    pub fn frontier_schedule(&self) -> &[(usize, usize, usize)] {
        &self.frontier_schedule
    }

    /// Contraction triples of **all** slice-dependent internal nodes
    /// (`StemPure` and `StemMixed` merged, in execution order). This is the
    /// per-subtask replay of a single execution; the batched executor
    /// splits it into [`Self::stem_pure_schedule`] (once per subtask) and
    /// [`Self::stem_mixed_schedule`] (per subtask per bitstring).
    pub fn stem_schedule(&self) -> &[(usize, usize, usize)] {
        &self.stem_schedule
    }

    /// Contraction triples of the StemPure-class internal nodes, in
    /// execution order. A batched execution contracts these once per slice
    /// assignment and shares the results across every bitstring.
    pub fn stem_pure_schedule(&self) -> &[(usize, usize, usize)] {
        &self.stem_pure_schedule
    }

    /// Contraction triples of the StemMixed-class internal nodes, in
    /// execution order. Re-contracted for every `(subtask, bitstring)`.
    pub fn stem_mixed_schedule(&self) -> &[(usize, usize, usize)] {
        &self.stem_mixed_schedule
    }

    /// Branch-class nodes whose tensor a later phase consumes: the roots of
    /// maximal Branch subtrees (their parent is of another class, or they
    /// are the tree root). These are the tensors worth caching per plan.
    pub fn branch_keep(&self) -> &[usize] {
        &self.branch_keep
    }

    /// Frontier-class nodes whose tensor the per-subtask replay consumes:
    /// the roots of maximal Frontier subtrees (their parent is a stem
    /// class, or they are the tree root). Rebuilt once per execution.
    pub fn frontier_keep(&self) -> &[usize] {
        &self.frontier_keep
    }

    /// StemPure-class nodes whose tensor the StemMixed replay consumes: the
    /// roots of maximal StemPure subtrees (their parent is StemMixed-class,
    /// or they are the tree root). The batched executor materialises these
    /// once per subtask and holds them alive across the whole bitstring
    /// batch.
    pub fn stem_pure_keep(&self) -> &[usize] {
        &self.stem_pure_keep
    }

    /// Every cached (non-stem) node the per-subtask stem replay reads: the
    /// union of [`Self::branch_keep`] entries with a stem-class parent and
    /// all of [`Self::frontier_keep`]. When the root itself is not
    /// stem-class the root is included — the whole result is
    /// slice-invariant.
    pub fn stem_seeds(&self) -> &[usize] {
        &self.stem_seeds
    }

    /// Per-node projector-dependency masks over overridable-leaf ordinals
    /// (see [`DependencyMasks`]). The mask of a Branch or StemPure node is
    /// empty; a Frontier or StemMixed node's mask names exactly the output
    /// bits its tensor depends on.
    pub fn projector_masks(&self) -> &DependencyMasks {
        &self.projector_masks
    }

    /// Per-node parameter-dependency masks over rebindable-gate-leaf
    /// ordinals (see [`DependencyMasks`]). A node whose mask misses every
    /// leaf of a rebind set is outside the rebind's invalidation cone: any
    /// cached tensor at that node stays valid across the rebind.
    pub fn param_masks(&self) -> &DependencyMasks {
        &self.param_masks
    }

    /// Number of internal (contraction) nodes of each class, as
    /// `(branch, frontier, stem_pure, stem_mixed)`.
    pub fn contraction_counts(&self) -> (usize, usize, usize, usize) {
        (
            self.branch_schedule.len(),
            self.frontier_schedule.len(),
            self.stem_pure_schedule.len(),
            self.stem_mixed_schedule.len(),
        )
    }
}

/// Per-node dependency masks over the ordinals of `leaves` (network vertex
/// ids): a designated leaf seeds its own ordinal bit, internal nodes union
/// their children in a child-before-parent pass over the tree schedule.
pub fn dependency_masks(tree: &ContractionTree, leaves: &[usize]) -> DependencyMasks {
    let nodes = tree.nodes();
    let words_per_node = leaves.len().div_ceil(64);
    let mut bits = vec![0u64; nodes.len() * words_per_node];
    let mut node_of_vertex = vec![None; nodes.len()];
    for (id, node) in nodes.iter().enumerate() {
        if let Some(vertex) = node.leaf_vertex {
            if vertex >= node_of_vertex.len() {
                node_of_vertex.resize(vertex + 1, None);
            }
            node_of_vertex[vertex] = Some(id);
        }
    }
    for (ordinal, &vertex) in leaves.iter().enumerate() {
        if let Some(&Some(id)) = node_of_vertex.get(vertex) {
            bits[id * words_per_node + ordinal / 64] |= 1u64 << (ordinal % 64);
        }
    }
    for &(l, r, out) in &tree.schedule() {
        for w in 0..words_per_node {
            bits[out * words_per_node + w] =
                bits[l * words_per_node + w] | bits[r * words_per_node + w];
        }
    }
    DependencyMasks { words_per_node, num_leaves: leaves.len(), bits }
}

/// Classify every node of `tree` against a slicing set, a set of
/// overridable leaves and a set of rebindable parameter leaves.
///
/// `sliced` lists the sliced edge indices; `overridable_leaves` lists the
/// *network vertex ids* of leaves whose data an execution may replace (the
/// output projectors under rebinding); `param_leaves` lists the vertex ids
/// of gate tensors that parameter rebinds regenerate (they only feed the
/// [`NodeClassification::param_masks`] used for cache invalidation — a
/// parameter leaf's *class* is unaffected, since rebinds happen between
/// executions, not within one). A leaf's class is determined by the two
/// dependency booleans directly (carries a sliced edge / is overridable);
/// internal nodes take the lattice join of their children.
pub fn classify_nodes(
    tree: &ContractionTree,
    sliced: &[IndexId],
    overridable_leaves: &[usize],
    param_leaves: &[usize],
) -> NodeClassification {
    let nodes = tree.nodes();
    let mut classes = vec![NodeClass::Branch; nodes.len()];

    // Leaves first: the only place dependencies originate.
    let sliced_marks = sets::edge_marks(sliced);
    let overridable_marks = Marks::new(overridable_leaves.iter().copied());
    for (id, node) in nodes.iter().enumerate() {
        if let Some(vertex) = node.leaf_vertex {
            let on_slice = sliced_marks.any(&node.indices);
            let on_projector = overridable_marks.contains(vertex);
            classes[id] = match (on_slice, on_projector) {
                (false, false) => NodeClass::Branch,
                (false, true) => NodeClass::Frontier,
                (true, false) => NodeClass::StemPure,
                (true, true) => NodeClass::StemMixed,
            };
        }
    }

    let projector_masks = dependency_masks(tree, overridable_leaves);
    let param_masks = dependency_masks(tree, param_leaves);

    // Internal nodes in execution order (children precede parents), so a
    // single pass propagates the lattice join upward.
    let schedule = tree.schedule();
    for &(l, r, out) in &schedule {
        classes[out] = classes[l].join(classes[r]);
    }

    let mut branch_schedule = Vec::new();
    let mut frontier_schedule = Vec::new();
    let mut stem_schedule = Vec::new();
    let mut stem_pure_schedule = Vec::new();
    let mut stem_mixed_schedule = Vec::new();
    for &(l, r, out) in &schedule {
        match classes[out] {
            NodeClass::Branch => branch_schedule.push((l, r, out)),
            NodeClass::Frontier => frontier_schedule.push((l, r, out)),
            NodeClass::StemPure => {
                stem_pure_schedule.push((l, r, out));
                stem_schedule.push((l, r, out));
            }
            NodeClass::StemMixed => {
                stem_mixed_schedule.push((l, r, out));
                stem_schedule.push((l, r, out));
            }
        }
    }

    // Keep sets: roots of maximal same-class subtrees that a later phase
    // (or the final result) consumes.
    let parent_class = |id: usize| nodes[id].parent.map(|p| classes[p]);
    let mut branch_keep = Vec::new();
    let mut frontier_keep = Vec::new();
    let mut stem_pure_keep = Vec::new();
    let mut stem_seeds = Vec::new();
    for (id, &class) in classes.iter().enumerate() {
        let parent = parent_class(id);
        match class {
            NodeClass::Branch => {
                if parent != Some(NodeClass::Branch) {
                    branch_keep.push(id);
                    // Seeds are what the per-subtask replay reads directly:
                    // branch roots feeding a stem contraction, or the tree
                    // root itself when nothing is sliced.
                    if parent.is_none_or(NodeClass::is_stem) {
                        stem_seeds.push(id);
                    }
                }
            }
            NodeClass::Frontier => {
                // A Frontier node's parent joins in its projector
                // dependency, so it is Frontier or StemMixed — never
                // StemPure.
                if parent.is_none_or(NodeClass::is_stem) {
                    frontier_keep.push(id);
                    stem_seeds.push(id);
                }
            }
            NodeClass::StemPure => {
                // A StemPure node's parent is StemPure or StemMixed.
                if parent != Some(NodeClass::StemPure) {
                    stem_pure_keep.push(id);
                }
            }
            NodeClass::StemMixed => {}
        }
    }

    NodeClassification {
        classes,
        branch_schedule,
        frontier_schedule,
        stem_schedule,
        stem_pure_schedule,
        stem_mixed_schedule,
        branch_keep,
        frontier_keep,
        stem_pure_keep,
        stem_seeds,
        projector_masks,
        param_masks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TensorNetwork;
    use qtn_tensor::IndexSet;

    /// A 4-tensor chain `[0] - [0,1] - [1,2] - [2]` contracted linearly:
    /// leaves 0..4, internals 4 (=0+1), 5 (=4+2), 6 (=5+3, root).
    fn chain4_tree() -> (TensorNetwork, ContractionTree) {
        let g = TensorNetwork::new(&[
            IndexSet::new(vec![0]),
            IndexSet::new(vec![0, 1]),
            IndexSet::new(vec![1, 2]),
            IndexSet::new(vec![2]),
        ]);
        let tree = ContractionTree::from_pairs(&g, &[(0, 1), (4, 2), (5, 3)]);
        (g, tree)
    }

    #[test]
    fn join_is_the_product_lattice() {
        use NodeClass::*;
        assert_eq!(Branch.join(Branch), Branch);
        assert_eq!(Branch.join(Frontier), Frontier);
        assert_eq!(Branch.join(StemPure), StemPure);
        assert_eq!(Frontier.join(StemPure), StemMixed, "incomparable classes join at the top");
        assert_eq!(StemPure.join(Frontier), StemMixed);
        assert_eq!(Frontier.join(Frontier), Frontier);
        assert_eq!(StemMixed.join(Branch), StemMixed);
        for a in [Branch, Frontier, StemPure, StemMixed] {
            for b in [Branch, Frontier, StemPure, StemMixed] {
                let j = a.join(b);
                assert!(j >= a && j >= b, "total order must extend the lattice");
                assert_eq!(j.depends_on_slice(), a.depends_on_slice() || b.depends_on_slice());
                assert_eq!(
                    j.depends_on_projector(),
                    a.depends_on_projector() || b.depends_on_projector()
                );
            }
        }
    }

    #[test]
    fn no_slicing_no_overrides_is_all_branch() {
        let (_, tree) = chain4_tree();
        let c = classify_nodes(&tree, &[], &[], &[]);
        assert!(c.classes().iter().all(|&k| k == NodeClass::Branch));
        assert_eq!(c.contraction_counts(), (3, 0, 0, 0));
        assert_eq!(c.stem_schedule().len(), 0);
        // The root is the single kept branch tensor and the only stem seed.
        assert_eq!(c.branch_keep(), &[tree.root()]);
        assert_eq!(c.stem_seeds(), &[tree.root()]);
    }

    #[test]
    fn sliced_edge_stems_the_spine_only() {
        let (_, tree) = chain4_tree();
        // Slice edge 0: leaves 0 and 1 carry it, so nodes 0, 1 and every
        // ancestor (4, 5, 6) are StemPure (no projector anywhere); leaves 2
        // and 3 stay Branch.
        let c = classify_nodes(&tree, &[0], &[], &[]);
        assert_eq!(c.class(0), NodeClass::StemPure);
        assert_eq!(c.class(1), NodeClass::StemPure);
        assert_eq!(c.class(2), NodeClass::Branch);
        assert_eq!(c.class(3), NodeClass::Branch);
        assert_eq!(c.class(tree.root()), NodeClass::StemPure);
        assert_eq!(c.contraction_counts(), (0, 0, 3, 0));
        assert_eq!(c.stem_schedule(), c.stem_pure_schedule());
        // Leaves 2 and 3 feed Stem contractions directly.
        assert_eq!(c.branch_keep(), &[2, 3]);
        assert_eq!(c.stem_seeds(), &[2, 3]);
        // The StemPure spine's root is kept (it is the tree root).
        assert_eq!(c.stem_pure_keep(), &[tree.root()]);
    }

    #[test]
    fn overridable_leaf_makes_a_frontier() {
        let (_, tree) = chain4_tree();
        // Leaf 3 (vertex 3) is an output projector; no slicing.
        let c = classify_nodes(&tree, &[], &[3], &[]);
        assert_eq!(c.class(3), NodeClass::Frontier);
        assert_eq!(c.class(0), NodeClass::Branch);
        // Only the final contraction (5+3 -> 6) consumes the projector.
        assert_eq!(c.contraction_counts(), (2, 1, 0, 0));
        assert_eq!(c.class(tree.root()), NodeClass::Frontier);
        // Node 5 is a maximal Branch subtree feeding the Frontier phase.
        assert_eq!(c.branch_keep(), &[5]);
        assert_eq!(c.frontier_keep(), &[tree.root()]);
        assert_eq!(c.stem_seeds(), &[tree.root()]);
    }

    #[test]
    fn four_classes_coexist() {
        let (_, tree) = chain4_tree();
        // Slice edge 2 (leaves 2, 3), override leaf 0: leaf 1 is plain.
        let c = classify_nodes(&tree, &[2], &[0], &[]);
        assert_eq!(c.class(0), NodeClass::Frontier);
        assert_eq!(c.class(1), NodeClass::Branch);
        assert_eq!(c.class(2), NodeClass::StemPure);
        assert_eq!(c.class(3), NodeClass::StemPure);
        // 4 = leaf0 + leaf1 -> Frontier; 5 = 4 + leaf2 joins the projector
        // dependency with the sliced edge -> StemMixed; 6 -> StemMixed.
        assert_eq!(c.class(4), NodeClass::Frontier);
        assert_eq!(c.class(5), NodeClass::StemMixed);
        assert_eq!(c.class(6), NodeClass::StemMixed);
        assert_eq!(c.contraction_counts(), (0, 1, 0, 2));
        assert_eq!(c.branch_keep(), &[1]);
        assert_eq!(c.frontier_keep(), &[4]);
        assert_eq!(c.stem_seeds(), &[4]);
        // Sliced leaves feeding StemMixed contractions are StemPure keeps:
        // the batched executor slices them once per subtask for the batch.
        assert_eq!(c.stem_pure_keep(), &[2, 3]);
    }

    #[test]
    fn pure_prefix_feeds_mixed_suffix() {
        let (_, tree) = chain4_tree();
        // Slice edge 0 (leaves 0, 1), override leaf 3: the spine is sliced
        // from the far end, the projector joins at the root.
        let c = classify_nodes(&tree, &[0], &[3], &[]);
        assert_eq!(c.class(0), NodeClass::StemPure);
        assert_eq!(c.class(1), NodeClass::StemPure);
        assert_eq!(c.class(2), NodeClass::Branch);
        assert_eq!(c.class(3), NodeClass::Frontier);
        assert_eq!(c.class(4), NodeClass::StemPure); // 0+1
        assert_eq!(c.class(5), NodeClass::StemPure); // 4+2 (branch operand)
        assert_eq!(c.class(6), NodeClass::StemMixed); // 5+3 (projector joins)
        assert_eq!(c.contraction_counts(), (0, 0, 2, 1));
        // The combined stem schedule interleaves pure and mixed in
        // execution order.
        assert_eq!(c.stem_schedule().len(), 3);
        assert_eq!(c.stem_pure_keep(), &[5], "node 5 is what the batch shares per subtask");
        assert_eq!(c.frontier_keep(), &[3]);
        assert_eq!(c.branch_keep(), &[2]);
        // Seeds: branch leaf 2 (stem parent) and frontier leaf 3.
        assert_eq!(c.stem_seeds(), &[2, 3]);
    }

    #[test]
    fn overridden_and_sliced_leaf_is_stem_mixed() {
        let (_, tree) = chain4_tree();
        let c = classify_nodes(&tree, &[0], &[0], &[]);
        // Both dependencies: the leaf must be re-sliced per subtask *and*
        // re-read per bitstring (the replay applies the override before
        // slicing).
        assert_eq!(c.class(0), NodeClass::StemMixed);
    }

    #[test]
    fn classes_are_monotone_toward_the_root() {
        let (_, tree) = chain4_tree();
        for (sliced, overridable) in [(vec![1], vec![3]), (vec![0], vec![0, 3]), (vec![2], vec![0])]
        {
            let c = classify_nodes(&tree, &sliced, &overridable, &[]);
            for (id, node) in tree.nodes().iter().enumerate() {
                if let Some(p) = node.parent {
                    assert!(c.class(p) >= c.class(id), "class must not decrease toward the root");
                    assert_eq!(c.class(p), c.class(p).join(c.class(id)), "parent absorbs child");
                }
            }
        }
    }

    #[test]
    fn projector_masks_union_up_the_tree() {
        let (_, tree) = chain4_tree();
        // Override leaves 0 and 3 (ordinals 0 and 1), slice edge 1.
        let c = classify_nodes(&tree, &[1], &[0, 3], &[]);
        let m = c.projector_masks();
        assert_eq!(m.num_leaves(), 2);
        assert_eq!(m.words_per_node(), 1);
        // Leaves seed their own ordinal; non-overridable leaves are empty.
        assert_eq!(m.mask(0), &[0b01]);
        assert_eq!(m.mask(1), &[0]);
        assert_eq!(m.mask(2), &[0]);
        assert_eq!(m.mask(3), &[0b10]);
        // Internals union their children: 4 = 0+1, 5 = 4+2, 6 = 5+3.
        assert_eq!(m.mask(4), &[0b01]);
        assert_eq!(m.mask(5), &[0b01]);
        assert_eq!(m.mask(6), &[0b11]);
        assert_eq!(m.popcount(6), 2);
        assert_eq!(m.ordinals(6).collect::<Vec<_>>(), vec![0, 1]);
        // Masks are laminar: parent masks contain child masks.
        for (id, node) in tree.nodes().iter().enumerate() {
            if let Some(p) = node.parent {
                for w in 0..m.words_per_node() {
                    assert_eq!(
                        m.mask(p)[w] & m.mask(id)[w],
                        m.mask(id)[w],
                        "parent mask must contain child mask"
                    );
                }
            }
        }
        // Mask non-emptiness coincides with projector dependency.
        for id in 0..tree.nodes().len() {
            assert_eq!(c.class(id).depends_on_projector(), m.popcount(id) > 0);
        }
    }

    #[test]
    fn projector_masks_span_multiple_words() {
        // A star of 70 overridable rank-1 leaves sharing one hub: every
        // ordinal past 63 must land in the second mask word.
        let n = 70;
        let mut sets: Vec<IndexSet> = (0..n).map(|i| IndexSet::new(vec![i as u32])).collect();
        sets.push(IndexSet::new((0..n as u32).collect()));
        let g = TensorNetwork::new(&sets);
        // Fold leaves into the hub one by one: (hub, 0) -> n+1, ...
        let mut pairs = Vec::new();
        let mut acc = n; // the hub vertex/node id
        for leaf in 0..n {
            pairs.push((acc, leaf));
            acc = n + 1 + leaf;
        }
        let tree = ContractionTree::from_pairs(&g, &pairs);
        let overridable: Vec<usize> = (0..n).collect();
        let c = classify_nodes(&tree, &[], &overridable, &[]);
        let m = c.projector_masks();
        assert_eq!(m.num_leaves(), 70);
        assert_eq!(m.words_per_node(), 2);
        assert_eq!(m.mask(69), &[0, 1 << 5], "ordinal 69 lives in word 1 bit 5");
        let root = tree.root();
        assert_eq!(m.popcount(root), 70);
        assert_eq!(m.mask(root), &[u64::MAX, (1 << 6) - 1]);
        assert_eq!(m.ordinals(root).count(), 70);
    }

    #[test]
    fn param_masks_name_the_invalidation_cone() {
        let (_, tree) = chain4_tree();
        // Leaves 1 and 2 are rebindable gate tensors; leaf 3 is a projector.
        let c = classify_nodes(&tree, &[], &[3], &[1, 2]);
        let m = c.param_masks();
        assert_eq!(m.num_leaves(), 2);
        assert_eq!(m.mask(0), &[0]);
        assert_eq!(m.mask(1), &[0b01]);
        assert_eq!(m.mask(2), &[0b10]);
        assert_eq!(m.mask(3), &[0]);
        // Internals union their children: 4 = 0+1, 5 = 4+2, 6 = 5+3.
        assert_eq!(m.mask(4), &[0b01]);
        assert_eq!(m.mask(5), &[0b11]);
        assert_eq!(m.mask(6), &[0b11]);
        // Cone test: rebinding ordinal 0 (vertex 1) invalidates exactly the
        // nodes whose subtree contains that leaf.
        let words = ordinal_words(2, &[0]);
        let cone: Vec<usize> = (0..7).filter(|&n| m.intersects(n, &words)).collect();
        assert_eq!(cone, [1, 4, 5, 6]);
        // Parameter leaves do not perturb classes: rebinds happen between
        // executions, so a gate leaf stays Branch.
        assert_eq!(c.class(1), NodeClass::Branch);
        assert_eq!(c.class(2), NodeClass::Branch);
        // The standalone builder produces the same masks.
        let standalone = dependency_masks(&tree, &[1, 2]);
        for n in 0..7 {
            assert_eq!(standalone.mask(n), m.mask(n));
        }
        // The empty rebind set has an empty cone.
        let none = ordinal_words(2, &[]);
        assert!((0..7).all(|n| !m.intersects(n, &none)));
    }

    #[test]
    fn schedules_partition_the_tree_schedule() {
        let (_, tree) = chain4_tree();
        let c = classify_nodes(&tree, &[1], &[0, 3], &[]);
        let total = c.branch_schedule().len()
            + c.frontier_schedule().len()
            + c.stem_pure_schedule().len()
            + c.stem_mixed_schedule().len();
        assert_eq!(total, tree.schedule().len());
        assert_eq!(
            c.stem_schedule().len(),
            c.stem_pure_schedule().len() + c.stem_mixed_schedule().len(),
            "the combined stem schedule is exactly the two stem classes"
        );
        // Relative order within each class matches execution order.
        for sched in [
            c.branch_schedule(),
            c.frontier_schedule(),
            c.stem_schedule(),
            c.stem_pure_schedule(),
            c.stem_mixed_schedule(),
        ] {
            let mut last = 0;
            for &(_, _, out) in sched {
                assert!(out >= last, "per-class schedules must stay in execution order");
                last = out;
            }
        }
    }
}
