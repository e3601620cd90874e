//! Plan-time lifetime analysis and memory planning.
//!
//! The paper's central idea is *lifetime-based* memory optimization: in a
//! contraction tree every intermediate tensor has a statically known first
//! use (the contraction that produces it) and last use (the single
//! contraction that consumes it — each node feeds exactly one parent). At
//! plan time those intervals are therefore exact, and buffers can be
//! assigned to a small set of reusable *slots* instead of being allocated
//! per contraction.
//!
//! [`analyze_memory`] walks the tree once per reuse phase (Branch /
//! Frontier / the combined slice-dependent Stem, see [`crate::classify`])
//! and produces, for each phase:
//!
//! * the liveness [`BufferInterval`] of every phase-owned buffer (the
//!   phase's leaves, materialised up front, and the intermediates its
//!   schedule produces);
//! * a greedy interval-to-slot assignment **by size class** (all bond
//!   dimensions are 2, so a buffer's size class is simply its rank): a
//!   freed slot of the right class is reused, a new slot is opened only
//!   when none is free — so per class the slot count equals the maximum
//!   number of simultaneously live buffers of that class;
//! * the predicted `peak_bytes`: the exact high-water mark of live buffer
//!   bytes. A contraction reads both operands in place, so the only buffer
//!   a step adds is its output.
//!
//! The simulation mirrors the executor's pooled stem replay step for step —
//! leaves acquired in node-id order, then per contraction: output
//! acquired; consumed phase-owned operands released; kept tensors (the
//! classification's keep sets and the phase root) held to the end. Because the executor performs the *same*
//! sequence against its runtime buffer pool, the predicted peak and slot
//! counts are not estimates but exact: a pooled execution's
//! `peak_bytes_in_flight` equals the stem phase's `peak_bytes`, and the
//! pool allocates exactly `num_slots` buffers per worker before reaching
//! its zero-allocation steady state. The unpooled builders (branch and
//! frontier caches) follow the same produce/consume order with plain
//! allocations, so their phase predictions bound those footprints too.
//!
//! Batched multi-amplitude execution gets its own phase plan
//! ([`MemoryPlan::batched_stem`]): per subtask the StemPure prefix is
//! contracted once and its keep-set tensors stay checked out of the pool
//! across the whole bitstring batch, while the *keyed* StemMixed suffix is
//! replayed on top of them. The executor holds **one buffer per StemMixed
//! node** (leaves and step outputs alike) across the entire bitstring loop
//! and overwrites a node's buffer in place only when its dependent-bits
//! key changes — so the live set of the suffix is constant and the
//! bitstring loop acquires nothing. The simulation runs exactly that
//! sequence (pure leaves, pure schedule, then every mixed buffer acquired
//! up front), which is why a batched pooled execution's
//! `peak_bytes_in_flight` equals `batched_stem.peak_bytes()` exactly,
//! regardless of batch size or which keys the batch happens to contain.

use crate::classify::{NodeClass, NodeClassification};
use crate::sets;
use crate::tree::ContractionTree;
use qtn_tensor::IndexId;
use std::collections::BTreeMap;

/// Bytes of one amplitude: a double-precision complex number.
pub const BYTES_PER_AMPLITUDE: u64 = 16;

/// Bytes of a buffer holding a tensor of the given rank (`16 · 2^rank`).
pub fn bytes_of_rank(rank: usize) -> u64 {
    BYTES_PER_AMPLITUDE << rank
}

/// The liveness interval of one phase-owned buffer, in phase time: step 0
/// materialises every leaf of the phase, step `i + 1` is the `i`-th
/// contraction of the phase schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferInterval {
    /// Tree node whose tensor lives in this buffer.
    pub node: usize,
    /// Effective rank of the buffer (sliced edges removed): its size class.
    pub rank: usize,
    /// Step that produces the buffer (0 for phase leaves).
    pub produced: usize,
    /// Step that consumes it, or `None` if it outlives the phase (keep-set
    /// tensors and the phase root).
    pub consumed: Option<usize>,
    /// Slot the greedy assignment maps this interval to.
    pub slot: usize,
}

/// The memory plan of one reuse phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseMemoryPlan {
    intervals: Vec<BufferInterval>,
    slot_ranks: Vec<usize>,
    peak_bytes: u64,
    kept_bytes: u64,
    max_live_buffers: usize,
    peak_live_by_rank: BTreeMap<usize, usize>,
}

impl PhaseMemoryPlan {
    /// Liveness intervals of the phase-owned buffers, in production order
    /// (leaves first in node-id order, then schedule outputs).
    pub fn intervals(&self) -> &[BufferInterval] {
        &self.intervals
    }

    /// Size class (rank) of every slot the greedy assignment opened.
    pub fn slot_ranks(&self) -> &[usize] {
        &self.slot_ranks
    }

    /// Number of slots: exactly how many buffers a pooled executor allocates
    /// for this phase before reaching the zero-allocation steady state.
    pub fn num_slots(&self) -> usize {
        self.slot_ranks.len()
    }

    /// Total bytes of all slots — the arena capacity a pool ends up holding.
    /// Always at least [`peak_bytes`](Self::peak_bytes) (slots of different
    /// size classes cannot share storage).
    pub fn arena_bytes(&self) -> u64 {
        self.slot_ranks.iter().map(|&r| bytes_of_rank(r)).sum()
    }

    /// Predicted high-water mark of live buffer bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Bytes of the tensors that outlive the phase (keep sets and root).
    pub fn kept_bytes(&self) -> u64 {
        self.kept_bytes
    }

    /// Maximum number of simultaneously live buffers of any size.
    pub fn max_live_buffers(&self) -> usize {
        self.max_live_buffers
    }

    /// Slots opened per size class.
    pub fn slot_count_by_rank(&self) -> BTreeMap<usize, usize> {
        let mut counts = BTreeMap::new();
        for &r in &self.slot_ranks {
            *counts.entry(r).or_insert(0usize) += 1;
        }
        counts
    }

    /// Maximum simultaneously live buffers per size class. The greedy
    /// assignment opens exactly this many slots of each class.
    pub fn peak_live_by_rank(&self) -> &BTreeMap<usize, usize> {
        &self.peak_live_by_rank
    }
}

/// The complete lifetime-based memory plan of a contraction tree: one
/// [`PhaseMemoryPlan`] per reuse phase.
#[derive(Debug, Clone)]
pub struct MemoryPlan {
    /// Plan-lifetime phase: contracted once per plan into the branch cache.
    pub branch: PhaseMemoryPlan,
    /// Per-execution phase: rebuilt once per execute (per bitstring in a
    /// batched execution) from the overrides.
    pub frontier: PhaseMemoryPlan,
    /// Per-subtask phase of a **single** execution: the combined StemPure +
    /// StemMixed replay, run `2^|S|` times — the pooled hot loop.
    pub stem: PhaseMemoryPlan,
    /// Per-subtask phase of a **batched** execution: the StemPure prefix
    /// contracted once with its keep set held live, then the keyed
    /// StemMixed suffix — one buffer per mixed node acquired up front and
    /// held across the whole bitstring loop (recomputes overwrite in
    /// place), so peak and slot count are fixed for any batch.
    pub batched_stem: PhaseMemoryPlan,
}

impl MemoryPlan {
    /// The worst per-phase peak of a single (non-batched) execution: the
    /// minimum buffer memory one worker needs to execute any single phase
    /// of the plan. This is the number a memory budget is checked against.
    /// A batched execution's per-worker stem peak is
    /// [`batched_stem`](Self::batched_stem)`.peak_bytes()` instead, which
    /// additionally holds the StemPure keep set across the bitstring loop.
    pub fn peak_bytes(&self) -> u64 {
        self.branch.peak_bytes.max(self.frontier.peak_bytes).max(self.stem.peak_bytes)
    }

    /// The single-execution phase plan that owns a node class (both stem
    /// classes belong to the combined per-subtask stem replay).
    pub fn phase(&self, class: NodeClass) -> &PhaseMemoryPlan {
        match class {
            NodeClass::Branch => &self.branch,
            NodeClass::Frontier => &self.frontier,
            NodeClass::StemPure | NodeClass::StemMixed => &self.stem,
        }
    }
}

/// Greedy slot allocator used by the simulation: size-classed free lists,
/// exactly like the executor's runtime `BufferPool`. Per-class tables are
/// indexed by rank.
#[derive(Default)]
struct PoolSim {
    free: Vec<Vec<usize>>,
    slot_ranks: Vec<usize>,
    live_bytes: u64,
    peak_bytes: u64,
    live_buffers: usize,
    max_live_buffers: usize,
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
        self.live_bytes += bytes_of_rank(rank);
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
        self.live_buffers += 1;
        self.max_live_buffers = self.max_live_buffers.max(self.live_buffers);
        self.live_by_rank[rank] += 1;
        self.peak_live_by_rank[rank] = self.peak_live_by_rank[rank].max(self.live_by_rank[rank]);
        slot
    }

    fn release(&mut self, slot: usize) {
        let rank = self.slot_ranks[slot];
        self.live_bytes -= bytes_of_rank(rank);
        self.live_buffers -= 1;
        self.live_by_rank[rank] -= 1;
        self.free[rank].push(slot);
    }
}

/// Effective rank of every node's subtask tensor: the node's indices minus
/// the sliced edges it carries (Branch/Frontier nodes carry none by
/// definition).
fn effective_ranks(tree: &ContractionTree, sliced: &[IndexId]) -> Vec<usize> {
    let sliced = sets::edge_marks(sliced);
    tree.nodes().iter().map(|node| sliced.count_unmarked(&node.indices)).collect()
}

/// Running state of one phase simulation: the greedy pool, the liveness
/// intervals produced so far and the phase clock. Split out of
/// [`analyze_phase`] so the batched-stem analysis can chain two passes
/// (pure, then mixed with the pure keep set still live) over one pool.
#[derive(Default)]
struct PhaseSim {
    sim: PoolSim,
    intervals: Vec<BufferInterval>,
    /// Interval index of every node's live buffer, by node id.
    interval_of: Vec<Option<usize>>,
    step: usize,
}

impl PhaseSim {
    /// Note that `node`'s buffer is the next interval pushed.
    fn record(&mut self, node: usize) {
        if node >= self.interval_of.len() {
            self.interval_of.resize(node + 1, None);
        }
        self.interval_of[node] = Some(self.intervals.len());
    }

    /// Materialise every leaf the membership predicate owns, in node-id
    /// order, at the current step.
    fn materialize_leaves(
        &mut self,
        tree: &ContractionTree,
        classification: &NodeClassification,
        ranks: &[usize],
        owned: impl Fn(NodeClass) -> bool,
    ) {
        for (id, node) in tree.nodes().iter().enumerate() {
            if node.is_leaf() && owned(classification.class(id)) {
                let rank = ranks[id];
                let slot = self.sim.acquire(rank);
                self.record(id);
                self.intervals.push(BufferInterval {
                    node: id,
                    rank,
                    produced: self.step,
                    consumed: None,
                    slot,
                });
            }
        }
    }

    /// Replay a schedule, mirroring the executor's acquire/release order
    /// exactly (acquire the output, release consumed operands — but only
    /// operands the `consumable` predicate owns: borrowed cache tensors
    /// are never released here).
    fn replay(
        &mut self,
        classification: &NodeClassification,
        ranks: &[usize],
        schedule: &[(usize, usize, usize)],
        consumable: impl Fn(NodeClass) -> bool,
    ) {
        for &(l, r, out) in schedule {
            self.step += 1;
            let rank = ranks[out];
            let slot = self.sim.acquire(rank);
            for operand in [l, r] {
                if consumable(classification.class(operand)) {
                    let idx = self.interval_of[operand].expect("operand was produced");
                    self.intervals[idx].consumed = Some(self.step);
                    self.sim.release(self.intervals[idx].slot);
                }
            }
            self.record(out);
            self.intervals.push(BufferInterval {
                node: out,
                rank,
                produced: self.step,
                consumed: None,
                slot,
            });
        }
    }

    fn finish(self) -> PhaseMemoryPlan {
        let kept_bytes = self
            .intervals
            .iter()
            .filter(|iv| iv.consumed.is_none())
            .map(|iv| bytes_of_rank(iv.rank))
            .sum();
        PhaseMemoryPlan {
            intervals: self.intervals,
            slot_ranks: self.sim.slot_ranks,
            peak_bytes: self.sim.peak_bytes,
            kept_bytes,
            max_live_buffers: self.sim.max_live_buffers,
            peak_live_by_rank: (self.sim.peak_live_by_rank.into_iter().enumerate())
                .filter(|&(_, peak)| peak > 0)
                .collect(),
        }
    }
}

/// Simulate one phase: leaves up front, then the phase schedule. `owned`
/// decides which node classes the phase materialises and may consume.
fn analyze_phase(
    tree: &ContractionTree,
    classification: &NodeClassification,
    ranks: &[usize],
    owned: impl Fn(NodeClass) -> bool + Copy,
    schedule: &[(usize, usize, usize)],
) -> PhaseMemoryPlan {
    let mut sim = PhaseSim::default();
    sim.materialize_leaves(tree, classification, ranks, owned);
    sim.replay(classification, ranks, schedule, owned);
    sim.finish()
}

/// Simulate one batched-execution subtask: the StemPure prefix runs first
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
    classification: &NodeClassification,
    ranks: &[usize],
) -> PhaseMemoryPlan {
    let mut sim = PhaseSim::default();
    let pure = |c: NodeClass| c == NodeClass::StemPure;
    let mixed = |c: NodeClass| c == NodeClass::StemMixed;
    sim.materialize_leaves(tree, classification, ranks, pure);
    sim.replay(classification, ranks, classification.stem_pure_schedule(), pure);
    // Keyed suffix: every mixed buffer up front (leaves in node-id order,
    // then step outputs — output ids ascend, so this is node-id order over
    // all mixed nodes), held to the end of the subtask.
    sim.step += 1;
    sim.materialize_leaves(tree, classification, ranks, mixed);
    for &(_, _, out) in classification.stem_mixed_schedule() {
        let rank = ranks[out];
        let slot = sim.sim.acquire(rank);
        sim.record(out);
        sim.intervals.push(BufferInterval {
            node: out,
            rank,
            produced: sim.step,
            consumed: None,
            slot,
        });
    }
    sim.finish()
}

/// Compute the lifetime-based memory plan of a classified contraction tree.
///
/// `sliced` is the plan's slicing set: it shrinks the effective rank of
/// every Stem-class tensor (sliced edges are fixed per subtask) and so
/// determines the stem phase's size classes. The per-phase schedules come
/// from the [`NodeClassification`], keeping this analysis — like the rest
/// of planning — purely structural: no tensor data is touched.
pub fn analyze_memory(
    tree: &ContractionTree,
    classification: &NodeClassification,
    sliced: &[IndexId],
) -> MemoryPlan {
    let ranks = &effective_ranks(tree, sliced);
    MemoryPlan {
        branch: analyze_phase(
            tree,
            classification,
            ranks,
            |c| c == NodeClass::Branch,
            classification.branch_schedule(),
        ),
        frontier: analyze_phase(
            tree,
            classification,
            ranks,
            |c| c == NodeClass::Frontier,
            classification.frontier_schedule(),
        ),
        stem: analyze_phase(
            tree,
            classification,
            ranks,
            NodeClass::is_stem,
            classification.stem_schedule(),
        ),
        batched_stem: analyze_batched_stem(tree, classification, ranks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_nodes;
    use crate::graph::TensorNetwork;
    use qtn_tensor::IndexSet;

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

    #[test]
    fn unsliced_chain_peak_is_exact() {
        let tree = chain4_tree();
        let cls = classify_nodes(&tree, &[], &[], &[]);
        let plan = analyze_memory(&tree, &cls, &[]);

        // Everything is Branch class; hand simulation (in amplitudes):
        //   t0: leaves r1+r2+r2+r1 = 12 live.
        //   step1 (0,1→4): +out r1 → 14 amps = 224 B peak; operands go → 8.
        //   step2 (4,2→5): +out r1 → 10 amps; operands go → 4.
        //   step3 (5,3→6): +out r0 → 5 amps.
        assert_eq!(plan.branch.peak_bytes(), 224);
        assert_eq!(plan.frontier.peak_bytes(), 0);
        assert_eq!(plan.stem.peak_bytes(), 0);
        assert_eq!(plan.peak_bytes(), 224);
        // Only the root survives the phase.
        assert_eq!(plan.branch.kept_bytes(), 16);
        // Slots: rank 1 peaks at 3 concurrent (leaf 0, leaf 3, node 4),
        // rank 2 at 2 (the two middle leaves), rank 0 at 1.
        let slots = plan.branch.slot_count_by_rank();
        assert_eq!(slots.get(&1), Some(&3));
        assert_eq!(slots.get(&2), Some(&2));
        assert_eq!(slots.get(&0), Some(&1));
        assert_eq!(plan.branch.num_slots(), 6);
        assert_eq!(plan.branch.arena_bytes(), 3 * 32 + 2 * 64 + 16);
        assert!(plan.branch.arena_bytes() >= plan.branch.peak_bytes());
    }

    #[test]
    fn sliced_chain_splits_phases() {
        let tree = chain4_tree();
        // Slice edge 0: leaves 0, 1 and all internals are Stem; leaves 2, 3
        // stay Branch (kept as stem seeds, no branch contractions).
        let cls = classify_nodes(&tree, &[0], &[], &[]);
        let plan = analyze_memory(&tree, &cls, &[0]);

        // Branch phase: the two kept leaves, live from t0 to phase end.
        assert_eq!(plan.branch.peak_bytes(), 64 + 32);
        assert_eq!(plan.branch.kept_bytes(), 96);
        assert!(plan.branch.intervals().iter().all(|iv| iv.consumed.is_none()));

        // Stem phase (sliced ranks): leaf0 r0, leaf1 r1; node4 r1, node5 r1,
        // root r0. Peak is at step1: both leaves live (3 amps) + out r1
        // = 5 amps = 80 B; the cached branch operands of steps 2 and 3 are
        // read in place and cost the phase nothing.
        assert_eq!(plan.stem.peak_bytes(), 80);
        assert_eq!(plan.stem.kept_bytes(), 16); // root r0
        let root_interval = plan.stem.intervals().iter().find(|iv| iv.node == tree.root()).unwrap();
        assert_eq!(root_interval.consumed, None);
        assert_eq!(root_interval.rank, 0);
    }

    #[test]
    fn intervals_cover_first_and_last_use() {
        let tree = chain4_tree();
        let cls = classify_nodes(&tree, &[], &[], &[]);
        let plan = analyze_memory(&tree, &cls, &[]);
        let iv = |node: usize| {
            plan.branch.intervals().iter().find(|iv| iv.node == node).expect("interval missing")
        };
        // Leaves are produced at t0; leaf 0 dies in step 1, leaf 3 in step 3.
        assert_eq!((iv(0).produced, iv(0).consumed), (0, Some(1)));
        assert_eq!((iv(3).produced, iv(3).consumed), (0, Some(3)));
        // node 4 is produced by step 1 and consumed by step 2.
        assert_eq!((iv(4).produced, iv(4).consumed), (1, Some(2)));
        // Intervals never overlap in a slot: sort by slot and check.
        for a in plan.branch.intervals() {
            for b in plan.branch.intervals() {
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
            let plan = analyze_memory(&tree, &cls, &sliced);
            for phase in [&plan.branch, &plan.frontier, &plan.stem] {
                let slots = phase.slot_count_by_rank();
                for (rank, peak) in phase.peak_live_by_rank() {
                    assert_eq!(
                        slots.get(rank),
                        Some(peak),
                        "greedy must open exactly peak-live slots per class (sliced {sliced:?})"
                    );
                }
                assert_eq!(slots.values().sum::<usize>(), phase.num_slots());
                assert!(phase.num_slots() >= phase.max_live_buffers());
                assert!(phase.arena_bytes() >= phase.peak_bytes());
            }
        }
    }

    #[test]
    fn frontier_phase_accounts_override_dependent_work() {
        let tree = chain4_tree();
        // Leaf 3 overridable, no slicing: contractions 1,2 are Branch, the
        // root contraction is Frontier.
        let cls = classify_nodes(&tree, &[], &[3], &[]);
        let plan = analyze_memory(&tree, &cls, &[]);
        assert_eq!(plan.branch.intervals().len(), 5); // leaves 0,1,2 + nodes 4,5
        assert_eq!(plan.frontier.intervals().len(), 2); // leaf 3 + root
        assert_eq!(plan.stem.intervals().len(), 0);
        // Frontier: leaf3 r1 at t0 (2 amps); root step: + out r0 → 3 amps
        // = 48 B (node5 is a borrowed cache tensor).
        assert_eq!(plan.frontier.peak_bytes(), 48);
        assert_eq!(plan.frontier.kept_bytes(), 16);
    }

    #[test]
    fn batched_stem_holds_pure_keeps_across_the_mixed_pass() {
        let tree = chain4_tree();
        // Slice edge 0 (leaves 0, 1), override leaf 3: classes are
        // 0,1,4,5 = StemPure; 2 = Branch; 3 = Frontier; 6 (root) = StemMixed.
        let cls = classify_nodes(&tree, &[0], &[3], &[]);
        let plan = analyze_memory(&tree, &cls, &[0]);

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
        assert_eq!(plan.batched_stem.kept_bytes(), 32 + 16);
        let node5 =
            plan.batched_stem.intervals().iter().find(|iv| iv.node == 5).expect("node5 interval");
        assert_eq!(node5.consumed, None, "pure keeps are borrowed, never consumed, by mixed steps");
        // Slots: rank 0 peaks at 1 (the root reuses leaf0's slot), rank 1
        // at 2 (operand + output in flight); nothing of rank 2 is ever
        // acquired.
        let slots = plan.batched_stem.slot_count_by_rank();
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
        let plan = analyze_memory(&tree, &cls, &[0]);

        // Hand simulation (bytes; sliced ranks: leaf0 r0, leaf1 r1,
        // node4 r1, node5 r1, root r0):
        //   pure: t0 leaves 0+1 = 48; step1 (0,1→4): +32 out → 80 ← peak;
        //     drop to 32 (node4 kept).
        //   suffix up-front: node5 (32) + root (16) held → 80 again, and
        //     the passes (4,2→5), (5,3→6) acquire nothing.
        assert_eq!(plan.batched_stem.peak_bytes(), 80);
        // Everything held: node4 (pure keep) + node5 + root outlive the
        // suffix — mixed buffers are never consumed inside the loop.
        assert_eq!(plan.batched_stem.kept_bytes(), 32 + 32 + 16);
        for node in [5, 6] {
            let iv = plan
                .batched_stem
                .intervals()
                .iter()
                .find(|iv| iv.node == node)
                .expect("mixed interval");
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
        assert_eq!(cls.stem_mixed_schedule().len(), 0);
        assert_eq!(plan.batched_stem.peak_bytes(), plan.stem.peak_bytes());
        assert_eq!(plan.batched_stem.num_slots(), plan.stem.num_slots());
    }

    #[test]
    fn bytes_of_rank_is_sixteen_per_amplitude() {
        assert_eq!(bytes_of_rank(0), 16);
        assert_eq!(bytes_of_rank(3), 128);
        assert_eq!(BYTES_PER_AMPLITUDE, 16);
    }
}
