//! The memory plan: what each of the executor's three homes holds at its
//! peak, priced at plan time.
//!
//! Every intermediate of a contraction tree has a statically known first
//! use (the contraction that produces it) and last use (the single
//! contraction that consumes it — each node feeds exactly one parent), so
//! the buffers the executor holds can be counted before it runs. This is
//! buffer liveness; the paper's edge lifetime (Definition 1), which drives
//! slicing, lives in `qtn-slicing`.
//!
//! [`analyze_memory`] prices the three homes the executor writes to, one
//! per run of the classification's schedule (see [`crate::classify`]):
//!
//! * **Branch** — the plan-lifetime store. The Branch run reads its leaves
//!   in place, adds each output and drops each consumed internal operand;
//!   [`MemoryPlan::branch_bytes`] is the high-water mark of that walk, with
//!   the kept roots live to the end.
//! * **Frontier** — one per-execution arena that holds every Frontier
//!   output until the execution ends; [`MemoryPlan::frontier_bytes`] is the
//!   sum of those outputs (a batch holds each once per distinct key).
//! * **Stem** — the worker's pooled slots, the only home with slots to
//!   plan. The analysis walks the interpreter's acquire/release sequence
//!   step for step: the sliced leaves up front, then per contraction the
//!   output acquired and the consumed stem operands released (a
//!   contraction reads both operands in place, so the output is the only
//!   buffer a step adds). All bond dimensions are 2, so a buffer's size
//!   class is its rank, and the walk counts live buffers per class. A
//!   size-classed pool reuses a free slot of the class and opens a new one
//!   only when every open slot of the class is live, so per class the slot
//!   count is the largest number of buffers live at once, and a slot opens
//!   each time a class reaches a new maximum. A pooled execution's
//!   `peak_bytes_in_flight` equals the walk's high-water mark of live
//!   bytes, and the pool allocates exactly `num_slots` buffers per worker
//!   before reaching its zero-allocation steady state.
//!
//! A batched multi-amplitude execution's stem gets its own walk
//! ([`MemoryPlan::batched_stem`]): per subtask the StemPure prefix is
//! contracted once and its keep-set tensors stay checked out of the pool
//! across the whole bitstring batch, while the *keyed* StemMixed suffix is
//! replayed on top of them. The executor holds **one buffer per StemMixed
//! node** (leaves and step outputs alike) across the entire bitstring loop
//! and overwrites a node's buffer in place only when its dependent-bits
//! key changes — so the live set of the suffix is constant and the
//! bitstring loop acquires nothing. The walk runs exactly that sequence
//! (pure leaves, pure steps, then every mixed buffer acquired up front),
//! which is why a batched pooled execution's `peak_bytes_in_flight` equals
//! `batched_stem.peak_bytes()` exactly, regardless of batch size or which
//! keys the batch happens to contain.
//!
//! Byte counts saturate at `u64::MAX`: a plan with a tensor no address
//! space holds is priced, not wrapped, and `Engine::compile` refuses it on
//! its rank.

use crate::classify::{NodeClass, NodeClassification};
use crate::sets;
use crate::tree::ContractionTree;
use qtn_tensor::{Complex64, IndexId};

/// Bytes of one amplitude: a double-precision complex number.
pub const BYTES_PER_AMPLITUDE: u64 = std::mem::size_of::<Complex64>() as u64;

/// Bytes of a buffer holding a tensor of the given rank (`16 · 2^rank`),
/// saturating at `u64::MAX` from rank 60 on.
pub fn bytes_of_rank(rank: usize) -> u64 {
    let amplitudes = u32::try_from(rank).ok().and_then(|rank| 1u64.checked_shl(rank));
    amplitudes.and_then(|n| n.checked_mul(BYTES_PER_AMPLITUDE)).unwrap_or(u64::MAX)
}

/// The slot plan of one stem phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseMemoryPlan {
    slot_ranks: Vec<usize>,
    peak_bytes: u64,
}

impl PhaseMemoryPlan {
    /// Size class (rank) of every slot, in the order the pool opens them.
    pub fn slot_ranks(&self) -> &[usize] {
        &self.slot_ranks
    }

    /// Number of slots: exactly how many buffers a pooled executor allocates
    /// for this phase before reaching the zero-allocation steady state.
    pub fn num_slots(&self) -> usize {
        self.slot_ranks.len()
    }

    /// Predicted high-water mark of live buffer bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }
}

/// The memory plan of a contraction tree: what each of the executor's
/// three homes holds at its peak.
#[derive(Debug, Clone)]
pub struct MemoryPlan {
    /// High-water mark of the plan-lifetime branch store while the Branch
    /// run builds it: each output added, each consumed internal operand
    /// dropped, leaves read in place, kept roots live to the end.
    pub branch_bytes: u64,
    /// Bytes of every Frontier output: the frontier arena of a
    /// single-bitstring execution (a batch holds each output once per
    /// distinct key).
    pub frontier_bytes: u64,
    /// Largest effective rank (sliced edges removed) of any tree node.
    pub max_rank: usize,
    /// Per-subtask slots of a **single** execution: the whole stem run,
    /// replayed `2^|S|` times — the pooled hot loop.
    pub stem: PhaseMemoryPlan,
    /// Per-subtask slots of a **batched** execution: the StemPure prefix
    /// contracted once with its keep set held live, then the keyed
    /// StemMixed suffix — one buffer per mixed node acquired up front and
    /// held across the whole bitstring loop (recomputes overwrite in
    /// place), so peak and slot count are fixed for any batch.
    pub batched_stem: PhaseMemoryPlan,
}

impl MemoryPlan {
    /// The worst home of a single (non-batched) execution: the largest of
    /// the branch store's build peak, the frontier arena and one worker's
    /// stem peak. This is the number a memory budget is checked against.
    /// A batched execution's per-worker stem peak is
    /// [`batched_stem`](Self::batched_stem)`.peak_bytes()` instead, which
    /// additionally holds the StemPure keep set across the bitstring loop.
    pub fn peak_bytes(&self) -> u64 {
        self.branch_bytes.max(self.frontier_bytes).max(self.stem.peak_bytes)
    }
}

/// Effective rank of every node's subtask tensor: the node's indices minus
/// the sliced edges it carries (Branch/Frontier nodes carry none by
/// definition).
fn effective_ranks(tree: &ContractionTree, sliced: &[IndexId]) -> Vec<usize> {
    let sliced = sets::edge_marks(sliced);
    tree.nodes().iter().map(|node| sliced.count_unmarked(&node.indices)).collect()
}

/// One walk over a home's acquire/release sequence, counting live buffers
/// per size class (`live` and `slots` are indexed by rank). A class opens a
/// slot each time its live count passes the slots it has.
struct Walk<'a> {
    tree: &'a ContractionTree,
    classification: &'a NodeClassification,
    ranks: &'a [usize],
    /// Whether the walk holds each node's buffer, by node id.
    held: Vec<bool>,
    live: Vec<usize>,
    slots: Vec<usize>,
    live_bytes: u64,
    plan: PhaseMemoryPlan,
}

impl<'a> Walk<'a> {
    fn new(
        tree: &'a ContractionTree,
        classification: &'a NodeClassification,
        ranks: &'a [usize],
    ) -> Self {
        let classes = ranks.iter().max().map_or(0, |&rank| rank + 1);
        Walk {
            tree,
            classification,
            ranks,
            held: vec![false; ranks.len()],
            live: vec![0; classes],
            slots: vec![0; classes],
            live_bytes: 0,
            plan: PhaseMemoryPlan::default(),
        }
    }

    fn acquire(&mut self, node: usize) {
        let rank = self.ranks[node];
        self.held[node] = true;
        self.live[rank] += 1;
        if self.live[rank] > self.slots[rank] {
            self.slots[rank] += 1;
            self.plan.slot_ranks.push(rank);
        }
        self.live_bytes = self.live_bytes.saturating_add(bytes_of_rank(rank));
        self.plan.peak_bytes = self.plan.peak_bytes.max(self.live_bytes);
    }

    /// Acquire every leaf of the classes `owned` accepts, in node-id order.
    fn acquire_leaves(&mut self, owned: impl Fn(NodeClass) -> bool) {
        let tree = self.tree;
        for (id, node) in tree.nodes().iter().enumerate() {
            if node.is_leaf() && owned(self.classification.class(id)) {
                self.acquire(id);
            }
        }
    }

    /// Replay steps in the interpreter's order: acquire the output, then
    /// release the operands this walk holds (leaves it never acquired and
    /// operands of other homes are only read).
    fn replay<'s>(&mut self, steps: impl IntoIterator<Item = &'s (usize, usize, usize)>) {
        for &(l, r, out) in steps {
            self.acquire(out);
            for operand in [l, r] {
                if std::mem::take(&mut self.held[operand]) {
                    let rank = self.ranks[operand];
                    self.live[rank] -= 1;
                    self.live_bytes = self.live_bytes.saturating_sub(bytes_of_rank(rank));
                }
            }
        }
    }
}

/// Walk one batched-execution subtask: the StemPure prefix runs first
/// (its keep set — every pure buffer no pure contraction consumes — stays
/// checked out), then the keyed StemMixed suffix. The executor acquires
/// one buffer per mixed node (leaves and step outputs, node-id order) at
/// suffix start and holds them across the whole bitstring loop — a node
/// whose dependent-bits key changes is recomputed *in place* (the
/// contraction kernel overwrites its output buffer, reading its operands
/// where they lie), so no buffer is acquired or released inside the loop.
/// The live set is therefore constant, and the up-front acquisitions fix
/// the exact peak and slot count for any batch content.
fn analyze_batched_stem(
    tree: &ContractionTree,
    cls: &NodeClassification,
    ranks: &[usize],
) -> PhaseMemoryPlan {
    let mut walk = Walk::new(tree, cls, ranks);
    let stem = cls.run(NodeClass::StemPure);
    let of = |class: NodeClass| stem.iter().filter(move |&&(_, _, out)| cls.class(out) == class);
    walk.acquire_leaves(|c| c == NodeClass::StemPure);
    walk.replay(of(NodeClass::StemPure));
    // Keyed suffix: every mixed buffer up front (leaves in node-id order,
    // then step outputs — output ids ascend, so this is node-id order over
    // all mixed nodes), held to the end of the subtask.
    walk.acquire_leaves(|c| c == NodeClass::StemMixed);
    for &(_, _, out) in of(NodeClass::StemMixed) {
        walk.acquire(out);
    }
    walk.plan
}

/// Compute the memory plan of a classified contraction tree.
///
/// `sliced` is the plan's slicing set: it shrinks the effective rank of
/// every Stem-class tensor (sliced edges are fixed per subtask) and so
/// determines the stem's size classes. The runs come from the
/// [`NodeClassification`], keeping this analysis — like the rest of
/// planning — purely structural: no tensor data is touched.
pub fn analyze_memory(
    tree: &ContractionTree,
    classification: &NodeClassification,
    sliced: &[IndexId],
) -> MemoryPlan {
    let ranks = &effective_ranks(tree, sliced);
    let frontier = classification.run(NodeClass::Frontier);
    // The branch store is the same walk over the Branch run, with its
    // leaves read in place and so never held.
    let mut branch = Walk::new(tree, classification, ranks);
    branch.replay(classification.run(NodeClass::Branch));
    let mut stem = Walk::new(tree, classification, ranks);
    stem.acquire_leaves(NodeClass::is_stem);
    stem.replay(classification.run(NodeClass::StemPure));
    MemoryPlan {
        branch_bytes: branch.plan.peak_bytes,
        frontier_bytes: (frontier.iter())
            .fold(0, |sum, &(_, _, out)| sum.saturating_add(bytes_of_rank(ranks[out]))),
        max_rank: ranks.iter().copied().max().unwrap_or(0),
        stem: stem.plan,
        batched_stem: analyze_batched_stem(tree, classification, ranks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_nodes;
    use crate::graph::TensorNetwork;
    use crate::stem::extract_stem;
    use crate::test_trees::{oracle_trees, slice_to, sycamore_seed_set};
    use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};
    use qtn_tensor::IndexSet;

    /// The interval simulation the counting walk replaced, kept as its
    /// oracle: a greedy slot allocator with size-classed free lists, like
    /// the executor's `BufferPool`, and a log of every buffer's liveness
    /// interval. The Branch store is priced by its own loop. Byte sums
    /// saturate as the walk's do, so unsliced trees too wide for a u64 of
    /// bytes compare as well.
    mod reference {
        use super::super::{bytes_of_rank, effective_ranks};
        use crate::classify::{NodeClass, NodeClassification};
        use crate::tree::ContractionTree;
        use qtn_tensor::IndexId;
        use std::collections::BTreeMap;

        /// The liveness interval of one stem buffer, in phase time: step 0
        /// materialises the phase's sliced leaves, step `i + 1` is the
        /// phase's `i`-th contraction.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub(super) struct BufferInterval {
            /// Tree node whose tensor lives in this buffer.
            pub(super) node: usize,
            /// Effective rank of the buffer: its size class.
            pub(super) rank: usize,
            /// Step that produces the buffer (0 for leaves).
            pub(super) produced: usize,
            /// Step that consumes it, or `None` if it outlives the phase.
            pub(super) consumed: Option<usize>,
            /// Slot the greedy assignment maps this interval to.
            pub(super) slot: usize,
        }

        /// One phase: its intervals, slots and live-set maxima.
        #[derive(Debug, Clone, Default)]
        pub(super) struct Phase {
            pub(super) intervals: Vec<BufferInterval>,
            pub(super) slot_ranks: Vec<usize>,
            pub(super) peak_bytes: u64,
            pub(super) peak_live_by_rank: BTreeMap<usize, usize>,
        }

        impl Phase {
            /// Slots opened per size class.
            pub(super) fn slot_count_by_rank(&self) -> BTreeMap<usize, usize> {
                let mut counts = BTreeMap::new();
                for &r in &self.slot_ranks {
                    *counts.entry(r).or_insert(0usize) += 1;
                }
                counts
            }

            /// Total bytes of all slots.
            pub(super) fn arena_bytes(&self) -> u64 {
                self.slot_ranks.iter().map(|&r| bytes_of_rank(r)).sum()
            }

            /// Bytes of the tensors that outlive the phase (keep sets and
            /// root).
            pub(super) fn kept_bytes(&self) -> u64 {
                let kept = self.intervals.iter().filter(|iv| iv.consumed.is_none());
                kept.map(|iv| bytes_of_rank(iv.rank)).sum()
            }

            /// The interval of `node`'s buffer.
            pub(super) fn interval(&self, node: usize) -> &BufferInterval {
                self.intervals.iter().find(|iv| iv.node == node).expect("interval missing")
            }
        }

        /// Every field the memory plan has, from the reference simulation.
        pub(super) struct Plan {
            pub(super) branch_bytes: u64,
            pub(super) frontier_bytes: u64,
            pub(super) max_rank: usize,
            pub(super) stem: Phase,
            pub(super) batched_stem: Phase,
        }

        #[derive(Default)]
        struct PoolSim {
            free: Vec<Vec<usize>>,
            slot_ranks: Vec<usize>,
            live_bytes: u64,
            peak_bytes: u64,
            live_by_rank: Vec<usize>,
            peak_live_by_rank: Vec<usize>,
        }

        impl PoolSim {
            fn acquire(&mut self, rank: usize) -> usize {
                if rank >= self.free.len() {
                    self.free.resize_with(rank + 1, Vec::new);
                    self.live_by_rank.resize(rank + 1, 0);
                    self.peak_live_by_rank.resize(rank + 1, 0);
                }
                let slot = match self.free[rank].pop() {
                    Some(slot) => slot,
                    None => {
                        self.slot_ranks.push(rank);
                        self.slot_ranks.len() - 1
                    }
                };
                self.live_bytes = self.live_bytes.saturating_add(bytes_of_rank(rank));
                self.peak_bytes = self.peak_bytes.max(self.live_bytes);
                self.live_by_rank[rank] += 1;
                self.peak_live_by_rank[rank] =
                    self.peak_live_by_rank[rank].max(self.live_by_rank[rank]);
                slot
            }

            fn release(&mut self, slot: usize) {
                let rank = self.slot_ranks[slot];
                self.live_bytes = self.live_bytes.saturating_sub(bytes_of_rank(rank));
                self.live_by_rank[rank] -= 1;
                self.free[rank].push(slot);
            }
        }

        struct PhaseSim<'a> {
            tree: &'a ContractionTree,
            classification: &'a NodeClassification,
            ranks: &'a [usize],
            sim: PoolSim,
            intervals: Vec<BufferInterval>,
            interval_of: Vec<Option<usize>>,
            step: usize,
        }

        impl<'a> PhaseSim<'a> {
            fn new(
                tree: &'a ContractionTree,
                classification: &'a NodeClassification,
                ranks: &'a [usize],
            ) -> Self {
                PhaseSim {
                    tree,
                    classification,
                    ranks,
                    sim: PoolSim::default(),
                    intervals: Vec::new(),
                    interval_of: vec![None; ranks.len()],
                    step: 0,
                }
            }

            fn acquire(&mut self, node: usize) {
                let rank = self.ranks[node];
                let slot = self.sim.acquire(rank);
                self.interval_of[node] = Some(self.intervals.len());
                self.intervals.push(BufferInterval {
                    node,
                    rank,
                    produced: self.step,
                    consumed: None,
                    slot,
                });
            }

            fn materialize_leaves(&mut self, owned: impl Fn(NodeClass) -> bool) {
                let tree = self.tree;
                for (id, node) in tree.nodes().iter().enumerate() {
                    if node.is_leaf() && owned(self.classification.class(id)) {
                        self.acquire(id);
                    }
                }
            }

            fn replay<'s>(&mut self, steps: impl Iterator<Item = &'s (usize, usize, usize)>) {
                for &(l, r, out) in steps {
                    self.step += 1;
                    self.acquire(out);
                    for operand in [l, r] {
                        if let Some(idx) = self.interval_of[operand].take() {
                            self.intervals[idx].consumed = Some(self.step);
                            self.sim.release(self.intervals[idx].slot);
                        }
                    }
                }
            }

            fn finish(self) -> Phase {
                Phase {
                    intervals: self.intervals,
                    slot_ranks: self.sim.slot_ranks,
                    peak_bytes: self.sim.peak_bytes,
                    peak_live_by_rank: (self.sim.peak_live_by_rank.into_iter().enumerate())
                        .filter(|&(_, peak)| peak > 0)
                        .collect(),
                }
            }
        }

        fn branch_bytes(
            tree: &ContractionTree,
            classification: &NodeClassification,
            ranks: &[usize],
        ) -> u64 {
            let (mut live, mut peak) = (0u64, 0u64);
            for &(l, r, out) in classification.run(NodeClass::Branch) {
                live = live.saturating_add(bytes_of_rank(ranks[out]));
                peak = peak.max(live);
                for operand in [l, r] {
                    if !tree.node(operand).is_leaf() {
                        live = live.saturating_sub(bytes_of_rank(ranks[operand]));
                    }
                }
            }
            peak
        }

        fn batched_stem(
            tree: &ContractionTree,
            cls: &NodeClassification,
            ranks: &[usize],
        ) -> Phase {
            let mut sim = PhaseSim::new(tree, cls, ranks);
            let stem = cls.run(NodeClass::StemPure);
            let of =
                |class: NodeClass| stem.iter().filter(move |&&(_, _, out)| cls.class(out) == class);
            sim.materialize_leaves(|c| c == NodeClass::StemPure);
            sim.replay(of(NodeClass::StemPure));
            sim.step += 1;
            sim.materialize_leaves(|c| c == NodeClass::StemMixed);
            for &(_, _, out) in of(NodeClass::StemMixed) {
                sim.acquire(out);
            }
            sim.finish()
        }

        pub(super) fn analyze(
            tree: &ContractionTree,
            classification: &NodeClassification,
            sliced: &[IndexId],
        ) -> Plan {
            let ranks = &effective_ranks(tree, sliced);
            let frontier = classification.run(NodeClass::Frontier);
            let mut stem = PhaseSim::new(tree, classification, ranks);
            stem.materialize_leaves(NodeClass::is_stem);
            stem.replay(classification.run(NodeClass::StemPure).iter());
            Plan {
                branch_bytes: branch_bytes(tree, classification, ranks),
                frontier_bytes: (frontier.iter())
                    .fold(0, |sum, &(_, _, out)| sum.saturating_add(bytes_of_rank(ranks[out]))),
                max_rank: ranks.iter().copied().max().unwrap_or(0),
                stem: stem.finish(),
                batched_stem: batched_stem(tree, classification, ranks),
            }
        }
    }

    /// The counting walk's plan and the reference simulation's, which must
    /// agree on every field, slot order included.
    fn plan_and_reference(
        tree: &ContractionTree,
        cls: &NodeClassification,
        sliced: &[IndexId],
        case: &str,
    ) -> (MemoryPlan, reference::Plan) {
        let plan = analyze_memory(tree, cls, sliced);
        let oracle = reference::analyze(tree, cls, sliced);
        let homes = |p: &MemoryPlan| (p.branch_bytes, p.frontier_bytes, p.max_rank);
        let expected = (oracle.branch_bytes, oracle.frontier_bytes, oracle.max_rank);
        assert_eq!(homes(&plan), expected, "{case}: branch, frontier, max rank");
        let phases = [
            ("stem", &plan.stem, &oracle.stem),
            ("batched", &plan.batched_stem, &oracle.batched_stem),
        ];
        for (name, phase, expected) in phases {
            assert_eq!(phase.slot_ranks(), expected.slot_ranks, "{case}: {name} slot ranks");
            assert_eq!(phase.peak_bytes(), expected.peak_bytes, "{case}: {name} peak");
        }
        (plan, oracle)
    }

    /// A 4-tensor chain `[0] - [0,1] - [1,2] - [2]` contracted linearly:
    /// leaves 0..4, internals 4 (=0+1), 5 (=4+2), 6 (=5+3, root).
    fn chain4_tree() -> ContractionTree {
        let g = TensorNetwork::new(&[
            IndexSet::new(vec![0]),
            IndexSet::new(vec![0, 1]),
            IndexSet::new(vec![1, 2]),
            IndexSet::new(vec![2]),
        ]);
        ContractionTree::from_pairs(&g, &[(0, 1), (4, 2), (5, 3)])
    }

    /// The chain sliced on edges 0 and 2: every node is StemPure. Sliced
    /// ranks: leaf0 r0, leaf1 r1, leaf2 r1, leaf3 r0; node4 r1, node5 r0,
    /// root r0.
    fn all_stem_plan(tree: &ContractionTree) -> (MemoryPlan, reference::Plan) {
        let cls = classify_nodes(tree, &[0, 2], &[], &[]);
        assert!(cls.classes().iter().all(|&c| c == NodeClass::StemPure));
        plan_and_reference(tree, &cls, &[0, 2], "chain")
    }

    #[test]
    fn all_stem_chain_peak_is_exact() {
        let tree = chain4_tree();
        let (plan, oracle) = all_stem_plan(&tree);

        // Hand simulation (in amplitudes):
        //   t0: leaves r0+r1+r1+r0 = 6 live.
        //   step1 (0,1→4): +out r1 → 8 amps = 128 B peak; operands go → 5.
        //   step2 (4,2→5): +out r0 → 6 amps; operands go → 2.
        //   step3 (5,3→6): +out r0 → 3 amps; operands go → 1.
        assert_eq!(plan.stem.peak_bytes(), 128);
        assert_eq!((plan.branch_bytes, plan.frontier_bytes), (0, 0));
        assert_eq!(plan.peak_bytes(), 128);
        // Only the root survives the phase.
        assert_eq!(oracle.stem.kept_bytes(), 16);
        // Slots: rank 1 peaks at 3 concurrent (leaves 1, 2 and node 4),
        // rank 0 at 3 (leaf 3, node 5 and the root at step 3).
        let slots = oracle.stem.slot_count_by_rank();
        assert_eq!(slots.get(&1), Some(&3));
        assert_eq!(slots.get(&0), Some(&3));
        assert_eq!(plan.stem.num_slots(), 6);
        assert_eq!(oracle.stem.arena_bytes(), 3 * 32 + 3 * 16);
        assert!(oracle.stem.arena_bytes() >= plan.stem.peak_bytes());
        assert_eq!(plan.max_rank, 1);
    }

    #[test]
    fn unsliced_chain_peak_is_exact() {
        let tree = chain4_tree();
        let cls = classify_nodes(&tree, &[], &[], &[]);
        let (plan, _) = plan_and_reference(&tree, &cls, &[], "chain");

        // Everything is Branch class, leaves are read in place:
        //   step1 (0,1→4): +out r1 → 32 B.
        //   step2 (4,2→5): +out r1 → 64 B peak; node4 goes → 32.
        //   step3 (5,3→6): +out r0 → 48 B; node5 goes → 16 (the root).
        assert_eq!(plan.branch_bytes, 64);
        assert_eq!(plan.frontier_bytes, 0);
        assert_eq!(plan.stem.peak_bytes(), 0);
        assert_eq!(plan.stem.num_slots(), 0);
        assert_eq!(plan.peak_bytes(), 64);
        assert_eq!(plan.max_rank, 2);
    }

    #[test]
    fn sliced_chain_splits_phases() {
        let tree = chain4_tree();
        // Slice edge 0: leaves 0, 1 and all internals are Stem; leaves 2, 3
        // stay Branch (kept leaves, no branch contractions).
        let cls = classify_nodes(&tree, &[0], &[], &[]);
        let (plan, oracle) = plan_and_reference(&tree, &cls, &[0], "chain");

        // The kept leaves are read in place: the store holds nothing.
        assert_eq!((plan.branch_bytes, plan.frontier_bytes), (0, 0));

        // Stem phase (sliced ranks): leaf0 r0, leaf1 r1; node4 r1, node5 r1,
        // root r0. Peak is at step1: both leaves live (3 amps) + out r1
        // = 5 amps = 80 B; the cached branch operands of steps 2 and 3 are
        // read in place and cost the phase nothing.
        assert_eq!(plan.stem.peak_bytes(), 80);
        assert_eq!(plan.peak_bytes(), 80);
        assert_eq!(oracle.stem.kept_bytes(), 16); // root r0
        let root_interval = oracle.stem.interval(tree.root());
        assert_eq!(root_interval.consumed, None);
        assert_eq!(root_interval.rank, 0);
        assert_eq!(plan.max_rank, 2, "the unsliced branch leaf 2 keeps rank 2");
    }

    #[test]
    fn intervals_cover_first_and_last_use() {
        let tree = chain4_tree();
        let (_, oracle) = all_stem_plan(&tree);
        let iv = |node: usize| oracle.stem.interval(node);
        // Leaves are produced at t0; leaf 0 dies in step 1, leaf 3 in step 3.
        assert_eq!((iv(0).produced, iv(0).consumed), (0, Some(1)));
        assert_eq!((iv(3).produced, iv(3).consumed), (0, Some(3)));
        // node 4 is produced by step 1 and consumed by step 2.
        assert_eq!((iv(4).produced, iv(4).consumed), (1, Some(2)));
        // Intervals never overlap in a slot: sort by slot and check.
        for a in &oracle.stem.intervals {
            for b in &oracle.stem.intervals {
                if a.node != b.node && a.slot == b.slot {
                    let a_end = a.consumed.unwrap_or(usize::MAX);
                    let b_end = b.consumed.unwrap_or(usize::MAX);
                    assert!(
                        a_end <= b.produced || b_end <= a.produced,
                        "slot {} double-booked by nodes {} and {}",
                        a.slot,
                        a.node,
                        b.node
                    );
                }
            }
        }
    }

    #[test]
    fn slot_count_equals_live_set_maximum_per_class() {
        let tree = chain4_tree();
        for sliced in [vec![], vec![0], vec![1], vec![2], vec![0, 2]] {
            let cls = classify_nodes(&tree, &sliced, &[3], &[]);
            let (plan, oracle) = plan_and_reference(&tree, &cls, &sliced, "chain");
            for (phase, expected) in
                [(&plan.stem, &oracle.stem), (&plan.batched_stem, &oracle.batched_stem)]
            {
                let slots = expected.slot_count_by_rank();
                for (rank, peak) in &expected.peak_live_by_rank {
                    assert_eq!(
                        slots.get(rank),
                        Some(peak),
                        "greedy must open exactly peak-live slots per class (sliced {sliced:?})"
                    );
                }
                assert_eq!(slots.values().sum::<usize>(), phase.num_slots());
                assert!(expected.arena_bytes() >= phase.peak_bytes());
            }
        }
    }

    #[test]
    fn frontier_phase_accounts_override_dependent_work() {
        let tree = chain4_tree();
        // Leaf 3 overridable, no slicing: contractions 1,2 are Branch, the
        // root contraction is Frontier.
        let cls = classify_nodes(&tree, &[], &[3], &[]);
        let (plan, oracle) = plan_and_reference(&tree, &cls, &[], "chain");
        assert_eq!(oracle.stem.intervals.len(), 0);
        // Branch: node4 (32) then node5 (32) with node4 still live → 64 B;
        // node5 is the kept root.
        assert_eq!(plan.branch_bytes, 64);
        // Frontier: the root, r0 (leaf 3 is read in place).
        assert_eq!(plan.frontier_bytes, 16);
        // Two overridable leaves: nodes 5 (r1) and 6 (r0) are Frontier.
        let cls = classify_nodes(&tree, &[], &[2, 3], &[]);
        let (plan, _) = plan_and_reference(&tree, &cls, &[], "chain");
        assert_eq!((plan.branch_bytes, plan.frontier_bytes), (32, 32 + 16));
    }

    #[test]
    fn batched_stem_holds_pure_keeps_across_the_mixed_pass() {
        let tree = chain4_tree();
        // Slice edge 0 (leaves 0, 1), override leaf 3: classes are
        // 0,1,4,5 = StemPure; 2 = Branch; 3 = Frontier; 6 (root) = StemMixed.
        let cls = classify_nodes(&tree, &[0], &[3], &[]);
        let (plan, oracle) = plan_and_reference(&tree, &cls, &[0], "chain");

        // Hand simulation of one batched subtask (in bytes, rank r = 16·2^r;
        // sliced ranks: leaf0 r0, leaf1 r1, node4 r1, node5 r1, root r0):
        //   t0: pure leaves 0 (16) + 1 (32)                          = 48
        //   step1 (0,1→4): +out 32 → 80 ← peak; drop to 32
        //   step2 (4,2→5): +out 32 → 64 (branch operand 2 is read in
        //     place); drop to 32 (node5 kept)
        //   keyed suffix: root buffer (16) acquired up front → 48 held;
        //   the pass (5,3→6) overwrites it in place.
        assert_eq!(plan.batched_stem.peak_bytes(), 80);
        // Outliving the pass: the held pure keep (node5) and the root.
        assert_eq!(oracle.batched_stem.kept_bytes(), 32 + 16);
        let node5 = oracle.batched_stem.interval(5);
        assert_eq!(node5.consumed, None, "pure keeps are borrowed, never consumed, by mixed steps");
        // Slots: rank 0 peaks at 1 (the root reuses leaf0's slot), rank 1
        // at 2 (operand + output in flight); nothing of rank 2 is ever
        // acquired.
        let slots = oracle.batched_stem.slot_count_by_rank();
        assert_eq!(slots.get(&0), Some(&1));
        assert_eq!(slots.get(&1), Some(&2));
        assert_eq!(slots.get(&2), None);
        assert_eq!(plan.batched_stem.num_slots(), 3);
    }

    #[test]
    fn keyed_suffix_holds_every_mixed_buffer_across_the_bitstring_loop() {
        let tree = chain4_tree();
        // Slice edge 0, override leaves 2 and 3: classes are 0,1,4 =
        // StemPure; 2,3 = Frontier; 5,6 = StemMixed — a two-step mixed
        // suffix whose intermediate (node5) a per-bitstring replay would
        // consume, but the keyed suffix holds for in-place recomputes.
        let cls = classify_nodes(&tree, &[0], &[2, 3], &[]);
        let (plan, oracle) = plan_and_reference(&tree, &cls, &[0], "chain");

        // Hand simulation (bytes; sliced ranks: leaf0 r0, leaf1 r1,
        // node4 r1, node5 r1, root r0):
        //   pure: t0 leaves 0+1 = 48; step1 (0,1→4): +32 out → 80 ← peak;
        //     drop to 32 (node4 kept).
        //   suffix up-front: node5 (32) + root (16) held → 80 again, and
        //     the passes (4,2→5), (5,3→6) acquire nothing.
        assert_eq!(plan.batched_stem.peak_bytes(), 80);
        // Everything held: node4 (pure keep) + node5 + root outlive the
        // suffix — mixed buffers are never consumed inside the loop.
        assert_eq!(oracle.batched_stem.kept_bytes(), 32 + 32 + 16);
        for node in [5, 6] {
            let iv = oracle.batched_stem.interval(node);
            assert_eq!(iv.consumed, None, "mixed buffers are held, never consumed");
        }
    }

    #[test]
    fn batched_stem_equals_stem_when_no_mixed_nodes_exist() {
        let tree = chain4_tree();
        // Slicing without overridable leaves: the whole stem is StemPure and
        // the batched subtask is exactly one single-execution subtask.
        let cls = classify_nodes(&tree, &[0], &[], &[]);
        let plan = analyze_memory(&tree, &cls, &[0]);
        assert_eq!(cls.contraction_counts().3, 0);
        assert_eq!(plan.batched_stem.peak_bytes(), plan.stem.peak_bytes());
        assert_eq!(plan.batched_stem.num_slots(), plan.stem.num_slots());
    }

    /// The counting walk against the interval simulation on the oracle
    /// trees and the Sycamore 17-seed set: each tree's stem sliced to six
    /// targets below its largest tensor, with and without the projector
    /// leaves overridable. Every field must agree, slot order included.
    #[test]
    fn counting_walk_matches_the_interval_simulation() {
        let c = RqcConfig::sycamore(20, 5).build();
        let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0; c.num_qubits()]));
        let sycamore_projectors: Vec<usize> =
            b.projector_leaves.iter().map(|&(_, node)| node).collect();
        let trees =
            oracle_trees().into_iter().map(|(name, _, tree, projectors)| (name, tree, projectors));
        let trees = trees.chain(
            (sycamore_seed_set().iter())
                .map(|(name, tree)| (name.clone(), tree.clone(), sycamore_projectors.clone())),
        );
        let (mut cases, mut priced) = (0, 0);
        for (name, tree, projectors) in trees {
            let stem = extract_stem(&tree);
            let top = std::iter::once(stem.start_indices.len())
                .chain(stem.steps.iter().map(|step| step.result.len()))
                .max()
                .unwrap_or(0);
            for below in [0, 1, 2, 4, 6, 9] {
                let sliced = slice_to(&stem, top.saturating_sub(below).max(1));
                for overridable in [&[][..], &projectors[..]] {
                    let cls = classify_nodes(&tree, &sliced, overridable, &[]);
                    let case = format!(
                        "{name}, {} sliced, {} overridable",
                        sliced.len(),
                        overridable.len()
                    );
                    let (plan, _) = plan_and_reference(&tree, &cls, &sliced, &case);
                    cases += 1;
                    // Unsliced Sycamore trees saturate their byte sums.
                    let slots = plan.batched_stem.num_slots() > 0;
                    priced += usize::from(slots && plan.peak_bytes() < u64::MAX);
                }
            }
        }
        assert!(
            cases == 720 && priced > cases / 2,
            "{cases} cases, {priced} with slots, unsaturated"
        );
    }

    #[test]
    fn bytes_of_rank_is_sixteen_per_amplitude() {
        assert_eq!(bytes_of_rank(0), 16);
        assert_eq!(bytes_of_rank(3), 128);
        assert_eq!(BYTES_PER_AMPLITUDE, 16);
        // Past the address space the count saturates instead of wrapping.
        assert_eq!(bytes_of_rank(59), 16 << 59);
        for rank in [60, 63, 64, 65, usize::MAX] {
            assert_eq!(bytes_of_rank(rank), u64::MAX, "rank {rank}");
        }
    }
}
