//! The compiled stem program and its one interpreter.
//!
//! A [`StemExec`] is the per-subtask stem replay compiled once per plan:
//! one slicing recipe per stem leaf ([`DenseTensor::slice_into`] gathers),
//! one [`ContractionKernel`] per stem contraction, each operand's source
//! ([`Operand`]: slot, frontier seed or branch-cache entry) and the fixed
//! tally a consume-and-release pass bills. The interpreter runs
//! it over a [`BufferSource`] — the worker's persistent [`BufferPool`], or
//! plain heap allocations when [`super::ExecutorConfig::pool`] is off — so
//! pooling is an allocator swap under the same steps, never a second
//! algorithm.
//!
//! There are two step loops:
//!
//! * **consume-and-release** ([`StemExec::consume`]) over a step filter:
//!   every buffer returns to the source the moment the step that consumes
//!   it has run. All steps for a single amplitude; the StemPure steps for
//!   the shared prefix of a batch.
//! * **keyed hold-in-place** ([`StemExec::refresh_keyed`]) for a batch's
//!   StemMixed suffix: one buffer per mixed node is held across the whole
//!   bitstring loop and recomputed in place only when the bitstring's
//!   dependent-bits key differs from the one the buffer holds.
//!
//! [`StemExec::interpret`] picks between them from the batch size it
//! observes, and each sequence of acquires and releases mirrors a
//! [`qtn_tensornet::lifetime`] phase simulation step for step
//! (`MemoryPlan::stem` for a batch of one, `MemoryPlan::batched_stem`
//! otherwise), which is why the predicted peak and slot counts are exact.

use super::batch::{BatchKeys, FrontierExec, FrontierSeeds};
use super::branch::BranchCache;
use super::stats::GemmTally;
use super::{Bitstrings, LeafSource, ReuseState};
use crate::error::Error;
use crate::fault::{self, FaultPoint};
use crate::planner::SimulationPlan;
use crate::pool::{BufferPool, PoolCounters};
use qtn_tensor::{Complex64, ContractionKernel, DenseTensor, IndexId, IndexSet};
use qtn_tensornet::NodeClass;

/// One stem leaf's slicing recipe: which axes of the source tensor are
/// fixed by which sliced-edge bit. Applying it is a single
/// [`DenseTensor::slice_into`] gather — no clone, no per-edge re-slicing —
/// or, for an output projector, one element of its [`LeafSource`] row.
#[derive(Debug)]
struct StemLeafExec {
    /// Tree node this leaf occupies.
    node: usize,
    /// Where the data comes from.
    source: LeafSource,
    /// `(axis position in the source tensor, bit position in the slicing
    /// set)` for every sliced edge the leaf carries.
    fixes: Vec<(usize, usize)>,
    /// Elements of the sliced leaf tensor.
    len: usize,
    /// Whether the leaf is StemMixed-class (an output projector whose wire
    /// is a sliced edge): re-sliced per bitstring in a batched execution.
    /// StemPure leaves are sliced once per subtask.
    mixed: bool,
}

/// Where a stem step reads an operand, resolved when the stem is compiled
/// so the step loop never searches for it.
#[derive(Debug, Clone, Copy)]
pub(super) enum Operand {
    /// A buffer in the worker's slot table (a Stem-class node).
    Slot(usize),
    /// This execution's frontier tensor at the node.
    Seed(usize),
    /// The plan-lifetime branch-cache entry at the node.
    Branch(usize),
}

/// One stem contraction, fully compiled: operand sources, output tree node
/// and the reusable [`ContractionKernel`] (spec + operand offset tables).
/// Shapes and axis orders are identical across all `2^|S|` subtasks.
#[derive(Debug)]
struct StemStepExec {
    left: Operand,
    right: Operand,
    out: usize,
    kernel: ContractionKernel,
    /// Whether the contraction is StemMixed-class (projector-dependent):
    /// replayed per distinct key in a batched execution, while StemPure
    /// steps (`mixed == false`) run once per subtask for the whole batch.
    mixed: bool,
}

/// The compiled form of the per-subtask stem replay. It only depends on
/// index sets — a projector leaf is resolved to its qubit and read per
/// bitstring — so it is compiled once in the plan's lifetime and memoized
/// on the [`SimulationPlan`] like the branch cache; shared read-only by all
/// workers.
#[derive(Debug)]
pub(crate) struct StemExec {
    leaves: Vec<StemLeafExec>,
    steps: Vec<StemStepExec>,
    /// The tree root.
    root: usize,
    /// The root tensor's compiled index set.
    root_indices: IndexSet,
    /// Where the result lives when the root is not Stem-class (an unsliced
    /// plan): there is nothing to interpret, every subtask result is this
    /// cached tensor. `None` when there is a stem.
    cached_root: Option<Operand>,
    /// Whether the root is StemMixed: a batch then needs the keyed suffix.
    root_is_mixed: bool,
    /// What one consume-and-release pass over every step bills.
    all_steps: SweepTally,
    /// What one pass over the StemPure prefix bills.
    pure_steps: SweepTally,
}

/// Compile the stem replay: resolve every stem leaf's slicing recipe and
/// every step operand's source, and build one [`ContractionKernel`] per
/// stem contraction. Pure shape work — no amplitude is touched.
pub(super) fn build_stem_exec(
    plan: &SimulationPlan,
    cache: &BranchCache,
    frontier: &FrontierExec,
) -> Result<StemExec, Error> {
    let cls = &plan.classification;
    let sliced = &plan.slicing.sliced;
    let root = plan.tree.root();

    // Index set of each Stem-class node's tensor, by tree-node id.
    let mut node_indices: Vec<Option<IndexSet>> = vec![None; plan.tree.nodes().len()];
    let mut leaves = Vec::new();
    for (node_id, node) in plan.tree.nodes().iter().enumerate() {
        let Some(vertex) = node.leaf_vertex else { continue };
        if !cls.class(node_id).is_stem() {
            continue;
        }
        let src = plan.build.nodes[vertex].data.indices();
        let mut fixes = Vec::new();
        for (bit_pos, &edge) in sliced.iter().enumerate() {
            if let Some(axis) = src.position(edge) {
                fixes.push((axis, bit_pos));
            }
        }
        let source = LeafSource::of(plan, vertex);
        // A projector on a stem leaf is sliced down to one element.
        if matches!(source, LeafSource::Projector(_)) && (src.rank(), fixes.len()) != (1, 1) {
            return Err(Error::Internal(format!("projector leaf {vertex} is not a sliced wire")));
        }
        let kept: Vec<IndexId> = src.iter().filter(|a| !sliced.contains(a)).collect();
        let indices = IndexSet::new(kept);
        leaves.push(StemLeafExec {
            node: node_id,
            source,
            fixes,
            len: indices.len(),
            mixed: cls.class(node_id) == NodeClass::StemMixed,
        });
        node_indices[node_id] = Some(indices);
    }

    // A node's source and the axis order of the tensor read there.
    let source = |node_indices: &[Option<IndexSet>], id: usize| {
        let (operand, indices) = match cls.class(id) {
            NodeClass::StemPure | NodeClass::StemMixed => {
                (Operand::Slot(id), node_indices[id].clone())
            }
            NodeClass::Frontier => (Operand::Seed(id), frontier.indices(id).cloned()),
            NodeClass::Branch => {
                (Operand::Branch(id), cache.tensor(id).map(|t| t.indices().clone()))
            }
        };
        indices
            .map(|indices| (operand, indices))
            .ok_or_else(|| Error::Internal(format!("operand {id} missing in stem compile")))
    };
    let mut steps = Vec::with_capacity(cls.stem_schedule().len());
    for &(l, r, out) in cls.stem_schedule() {
        let ((left, left_indices), (right, right_indices)) =
            (source(&node_indices, l)?, source(&node_indices, r)?);
        let kernel = ContractionKernel::new(&left_indices, &right_indices);
        node_indices[out] = Some(kernel.output().clone());
        let mixed = cls.class(out) == NodeClass::StemMixed;
        steps.push(StemStepExec { left, right, out, kernel, mixed });
    }
    let (root_operand, root_indices) = source(&node_indices, root)?;
    let bill = |pure_only: bool| {
        let mut tally = SweepTally::default();
        steps.iter().filter(|s| !(pure_only && s.mixed)).for_each(|s| tally.record(s));
        tally
    };
    Ok(StemExec {
        all_steps: bill(false),
        pure_steps: bill(true),
        leaves,
        steps,
        root,
        root_indices,
        cached_root: (!matches!(root_operand, Operand::Slot(_))).then_some(root_operand),
        root_is_mixed: cls.class(root) == NodeClass::StemMixed,
    })
}

/// Where the interpreter's buffers come from.
pub(super) enum BufferSource {
    /// The worker's persistent size-classed pool: every buffer is recycled
    /// and the [`PoolCounters`] track the traffic.
    Pool(BufferPool),
    /// Plain allocations: acquire is a fresh `Vec`, release drops it, and
    /// the pool counters stay untouched.
    Heap,
}

impl BufferSource {
    fn acquire(&mut self, len: usize, counters: &mut PoolCounters) -> Vec<Complex64> {
        match self {
            BufferSource::Pool(pool) => pool.acquire(len, counters),
            BufferSource::Heap => vec![Complex64::ZERO; len],
        }
    }

    fn release(&mut self, buf: Vec<Complex64>, counters: &mut PoolCounters) {
        if let BufferSource::Pool(pool) = self {
            pool.release(buf, counters);
        }
    }
}

/// Per-worker state that survives the whole sweep: the buffer source and
/// its per-execution counters, the slot table, the keyed loop's
/// most-recent-key table, the reusable fix buffer (cleared, never
/// reallocated, between subtasks), and the root index set recycled from the
/// previous subtask's result tensor.
pub(super) struct StemWorkspace {
    source: BufferSource,
    counters: PoolCounters,
    slots: Vec<Option<Vec<Complex64>>>,
    held_keys: Vec<Option<u32>>,
    fix_buf: Vec<(usize, u8)>,
    root_indices: Option<IndexSet>,
}

impl StemWorkspace {
    pub(super) fn new(num_nodes: usize, source: BufferSource) -> Self {
        Self {
            source,
            counters: PoolCounters::default(),
            slots: vec![None; num_nodes],
            held_keys: vec![None; num_nodes],
            fix_buf: Vec::new(),
            root_indices: None,
        }
    }

    /// Return every buffer still in the slot table to the source.
    fn release_held(&mut self) {
        for slot in self.slots.iter_mut() {
            if let Some(buf) = slot.take() {
                self.source.release(buf, &mut self.counters);
            }
        }
    }

    /// End of the sweep, success or failure: buffers a failed replay left
    /// in the slot table are drained back first, so even an error leaves a
    /// pool's free lists warm. Yields the execution's counters and the
    /// source for check-in.
    pub(super) fn retire(mut self) -> (PoolCounters, BufferSource) {
        self.release_held();
        (self.counters, self.source)
    }
}

/// What one worker's stem sweep executed. In a batched execution
/// `mixed_*` + `skipped_*` always equals `mixed schedule length ×
/// bitstrings × subtasks run` — the exact mixed bill a loop of single
/// executions pays.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct SweepTally {
    pub(super) flops: u64,
    pub(super) pure_flops: u64,
    pub(super) mixed_flops: u64,
    pub(super) mixed_contractions: u64,
    /// Mixed work the keyed loop skipped because the held buffer already
    /// carried the bitstring's key.
    pub(super) skipped_flops: u64,
    pub(super) skipped_contractions: u64,
    pub(super) gemm: GemmTally,
}

impl SweepTally {
    pub(super) fn merge(&mut self, other: &SweepTally) {
        self.flops += other.flops;
        self.pure_flops += other.pure_flops;
        self.mixed_flops += other.mixed_flops;
        self.mixed_contractions += other.mixed_contractions;
        self.skipped_flops += other.skipped_flops;
        self.skipped_contractions += other.skipped_contractions;
        self.gemm.add(&other.gemm);
    }

    /// Bill one executed contraction.
    fn record(&mut self, step: &StemStepExec) {
        let flops = step.kernel.flops();
        self.flops += flops;
        self.gemm.record_kernel(&step.kernel);
        if step.mixed {
            self.mixed_flops += flops;
            self.mixed_contractions += 1;
        } else {
            self.pure_flops += flops;
        }
    }
}

/// Chaos hook: the [`FaultPoint::WorkerPanic`] injection point, checked
/// once per executed stem contraction — in every configuration, since every
/// configuration runs [`contract_step`] — so a fault plan can panic a
/// worker at exactly the Nth contraction. One relaxed atomic load when no
/// plan is installed.
#[inline]
fn fault_contraction_tick() {
    if fault::fire(FaultPoint::WorkerPanic) {
        panic!("injected fault: worker panic at contraction step");
    }
}

/// Data of bitstring `b`'s stem operand: a buffer from the slot table, a
/// frontier seed or a branch-cache entry.
fn operand_data<'a>(
    operand: Operand,
    slots: &'a [Option<Vec<Complex64>>],
    io: &'a StemInputs<'_>,
    b: usize,
) -> Result<&'a [Complex64], Error> {
    match operand {
        Operand::Slot(node) => slots[node].as_deref(),
        Operand::Seed(node) => Some(io.seeds.get(io.keys, node, b)),
        Operand::Branch(node) => io.cache.tensor(node).map(DenseTensor::data),
    }
    .ok_or_else(|| Error::Internal(format!("stem operand {operand:?} missing")))
}

/// Apply one step's kernel. The operands are read in place, so the only
/// buffer a step needs is its output: `held_out` when the keyed loop
/// recomputes in place, else freshly acquired.
fn contract_step(
    step: &StemStepExec,
    left: &[Complex64],
    right: &[Complex64],
    held_out: Option<Vec<Complex64>>,
    source: &mut BufferSource,
    counters: &mut PoolCounters,
) -> Vec<Complex64> {
    fault_contraction_tick();
    let mut out = held_out.unwrap_or_else(|| source.acquire(step.kernel.output().len(), counters));
    step.kernel.contract(left, right, &mut out);
    out
}

/// The read-only inputs of one worker's stem sweep.
pub(super) struct StemInputs<'a> {
    plan: &'a SimulationPlan,
    cache: &'a BranchCache,
    seeds: &'a FrontierSeeds,
    keys: &'a BatchKeys,
    bits: &'a Bitstrings,
}

impl<'a> StemInputs<'a> {
    /// The inputs of one worker's sweep over a reusing execution's batch.
    pub(super) fn new(
        plan: &'a SimulationPlan,
        cache: &'a BranchCache,
        state: &'a ReuseState,
    ) -> Self {
        Self { plan, cache, seeds: &state.seeds, keys: &state.keys, bits: &state.bits }
    }
}

impl StemExec {
    /// Whether there is a stem to interpret (the tree root is Stem-class).
    pub(super) fn has_stem(&self) -> bool {
        self.cached_root.is_none()
    }

    /// An unsliced plan's result for bitstring `b`: its cached root tensor.
    pub(super) fn cached_root(
        &self,
        io: &StemInputs<'_>,
        b: usize,
    ) -> Result<DenseTensor<Complex64>, Error> {
        let root = self
            .cached_root
            .ok_or_else(|| Error::Internal("a sliced plan's root is not cached".into()))?;
        let data = operand_data(root, &[], io, b)?;
        Ok(DenseTensor::from_data(self.root_indices.clone(), data.to_vec()))
    }

    /// Run one slice assignment for the whole batch, handing each
    /// bitstring's subtask root tensor to `emit`.
    ///
    /// A batch of one is a plain consume-and-release pass over every step.
    /// A larger batch contracts the StemPure prefix once — what remains in
    /// the slot table is exactly the classification's StemPure keep set
    /// (plus the root when the whole stem is pure), held for every
    /// bitstring to read — then runs the keyed StemMixed suffix per
    /// bitstring in the batch's dedup order.
    pub(super) fn interpret(
        &self,
        io: &StemInputs<'_>,
        ws: &mut StemWorkspace,
        assignment: usize,
        tally: &mut SweepTally,
        mut emit: impl FnMut(usize, &DenseTensor<Complex64>),
    ) -> Result<(), Error> {
        if io.bits.count == 1 {
            self.consume(io, ws, assignment, false, tally)?;
            let root = self.take_root(ws)?;
            emit(0, &root);
            self.put_root(ws, root, false);
            return Ok(());
        }
        // StemPure nodes depend on no projector, so any bitstring's inputs
        // resolve them identically.
        self.consume(io, ws, assignment, true, tally)?;
        if self.root_is_mixed {
            self.hold_mixed(ws);
            for &b in &io.keys.order {
                self.refresh_keyed(io, ws, b, assignment, tally)?;
                // Borrow the held root buffer as a tensor, then put it
                // back for the next bitstring to overwrite.
                let root = self.take_root(ws)?;
                emit(b, &root);
                self.put_root(ws, root, true);
            }
        } else {
            // The whole stem is StemPure: the prefix root *is* every
            // bitstring's subtask result.
            let root = self.take_root(ws)?;
            (0..io.bits.count).for_each(|b| emit(b, &root));
            self.put_root(ws, root, false);
        }
        // The batch is done with this subtask: the held keep set and mixed
        // buffers go back to the source.
        ws.release_held();
        Ok(())
    }

    /// Gather bitstring `b`'s leaf for one slice assignment into `dst`.
    fn gather(
        leaf: &StemLeafExec,
        io: &StemInputs<'_>,
        b: usize,
        assignment: usize,
        fix_buf: &mut Vec<(usize, u8)>,
        dst: &mut [Complex64],
    ) {
        let bit = |bit_pos: usize| ((assignment >> bit_pos) & 1) as u8;
        match leaf.source {
            LeafSource::Plan(vertex) => {
                fix_buf.clear();
                fix_buf.extend(leaf.fixes.iter().map(|&(axis, bit_pos)| (axis, bit(bit_pos))));
                io.plan.build.nodes[vertex].data.slice_into(fix_buf, dst);
            }
            // The projector's one axis is the sliced wire (checked at
            // compile time): the slice is one element of its row.
            LeafSource::Projector(_) => {
                let row = leaf.source.data(io.plan, io.bits.get(b));
                dst[0] = row[usize::from(bit(leaf.fixes[0].1))];
            }
        }
    }

    /// The consume-and-release loop: materialise the leaves, replay the
    /// steps, and release every buffer the moment the step consuming it has
    /// run (each node feeds exactly one parent), reading bitstring 0's
    /// inputs. With `pure_only` the StemMixed leaves and steps are left out
    /// — a pure node consumed by a *mixed* step then never shows up as an
    /// operand and stays held. The pass bills its precomputed tally once.
    fn consume(
        &self,
        io: &StemInputs<'_>,
        ws: &mut StemWorkspace,
        assignment: usize,
        pure_only: bool,
        tally: &mut SweepTally,
    ) -> Result<(), Error> {
        let StemWorkspace { source, counters, slots, fix_buf, .. } = ws;
        for leaf in &self.leaves {
            if pure_only && leaf.mixed {
                continue;
            }
            let mut buf = source.acquire(leaf.len, counters);
            Self::gather(leaf, io, 0, assignment, fix_buf, &mut buf);
            slots[leaf.node] = Some(buf);
        }
        for step in self.steps.iter().filter(|s| !(pure_only && s.mixed)) {
            let left = operand_data(step.left, slots, io, 0)?;
            let right = operand_data(step.right, slots, io, 0)?;
            let out = contract_step(step, left, right, None, source, counters);
            for operand in [step.left, step.right] {
                if let Operand::Slot(node) = operand {
                    if let Some(buf) = slots[node].take() {
                        source.release(buf, counters);
                    }
                }
            }
            slots[step.out] = Some(out);
        }
        tally.merge(if pure_only { &self.pure_steps } else { &self.all_steps });
        Ok(())
    }

    /// Acquire every StemMixed node's buffer up front (leaves, then step
    /// outputs — the lifetime simulation's exact sequence) to hold across
    /// the whole bitstring loop: keyed recomputes overwrite in place, so the
    /// live set is constant and the first bitstring deterministically hits
    /// the predicted peak whatever keys the batch contains. The key table is
    /// invalidated, so every subtask recomputes its first bitstring in full.
    fn hold_mixed(&self, ws: &mut StemWorkspace) {
        let StemWorkspace { source, counters, slots, held_keys, .. } = ws;
        for leaf in self.leaves.iter().filter(|l| l.mixed) {
            slots[leaf.node] = Some(source.acquire(leaf.len, counters));
        }
        for step in self.steps.iter().filter(|s| s.mixed) {
            slots[step.out] = Some(source.acquire(step.kernel.output().len(), counters));
        }
        held_keys.fill(None);
    }

    /// The keyed hold-in-place loop for bitstring `b`: a mixed node whose
    /// held key matches this bitstring's is skipped outright; a changed key
    /// recomputes the buffer **in place** (the kernel overwrites its
    /// output, leaves re-gather), so held buffers never cycle through the
    /// source and the suffix acquires nothing at all. Because a
    /// node's dependency mask contains its children's masks, a matching
    /// output key guarantees both operands hold exactly the values a
    /// per-bitstring replay would produce — skipping is bit-exact reuse,
    /// never approximation.
    fn refresh_keyed(
        &self,
        io: &StemInputs<'_>,
        ws: &mut StemWorkspace,
        b: usize,
        assignment: usize,
        tally: &mut SweepTally,
    ) -> Result<(), Error> {
        let StemWorkspace { source, counters, slots, held_keys, fix_buf, .. } = ws;
        for leaf in &self.leaves {
            let key = Some(io.keys.id(leaf.node, b));
            if !leaf.mixed || held_keys[leaf.node] == key {
                continue;
            }
            let buf = slots[leaf.node].as_mut().ok_or_else(|| {
                Error::Internal(format!("mixed leaf buffer {} not held", leaf.node))
            })?;
            Self::gather(leaf, io, b, assignment, fix_buf, buf);
            held_keys[leaf.node] = key;
        }
        for step in self.steps.iter().filter(|s| s.mixed) {
            let key = Some(io.keys.id(step.out, b));
            if held_keys[step.out] == key {
                tally.skipped_flops += step.kernel.flops();
                tally.skipped_contractions += 1;
                continue;
            }
            let held = slots[step.out].take().ok_or_else(|| {
                Error::Internal(format!("mixed output buffer {} not held", step.out))
            })?;
            // Mixed children were refreshed earlier in this pass (children
            // precede parents); StemPure keeps sit in the slot table too.
            let left = operand_data(step.left, slots, io, b)?;
            let right = operand_data(step.right, slots, io, b)?;
            let out = contract_step(step, left, right, Some(held), source, counters);
            tally.record(step);
            slots[step.out] = Some(out);
            held_keys[step.out] = key;
        }
        Ok(())
    }

    /// Wrap the root buffer as a tensor, recycling the previous subtask's
    /// root index set instead of cloning the compiled one: the steady-state
    /// loop allocates nothing at all.
    fn take_root(&self, ws: &mut StemWorkspace) -> Result<DenseTensor<Complex64>, Error> {
        let buf = ws.slots[self.root]
            .take()
            .ok_or_else(|| Error::Internal("root tensor missing after stem replay".into()))?;
        let indices = ws.root_indices.take().unwrap_or_else(|| self.root_indices.clone());
        Ok(DenseTensor::from_data(indices, buf))
    }

    /// Take a root tensor apart again: its index set is kept for the next
    /// [`take_root`](Self::take_root), its buffer goes back into the slot
    /// table (`hold`) or to the source.
    fn put_root(&self, ws: &mut StemWorkspace, root: DenseTensor<Complex64>, hold: bool) {
        let (indices, buf) = root.into_parts();
        ws.root_indices = Some(indices);
        if hold {
            ws.slots[self.root] = Some(buf);
        } else {
            ws.source.release(buf, &mut ws.counters);
        }
    }
}
