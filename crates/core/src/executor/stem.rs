//! The stem interpreter: the program's stem run, swept per subtask.
//!
//! The interpreter runs the stem steps of a [`Program`] over a
//! [`BufferSource`] — the worker's persistent [`BufferPool`], or plain heap
//! allocations when [`super::ExecutorConfig::pool`] is off — so pooling is
//! an allocator swap under the same steps, never a second algorithm.
//!
//! There are two step loops:
//!
//! * **consume-and-release** ([`Program::consume`]) over a step filter:
//!   every buffer returns to the source the moment the step that consumes
//!   it has run. All steps for a single amplitude; the StemPure steps for
//!   the shared prefix of a batch.
//! * **keyed hold-in-place** ([`Program::refresh_keyed`]) for a batch's
//!   StemMixed suffix: one buffer per mixed node is held across the whole
//!   bitstring loop and recomputed in place only when the bitstring's
//!   dependent-bits key differs from the one the buffer holds.
//!
//! [`Program::interpret`] picks between them from the batch size it
//! observes, and each sequence of acquires and releases mirrors a walk of
//! [`qtn_tensornet::analyze_memory`] step for step (`MemoryPlan::stem` for
//! a batch of one, `MemoryPlan::batched_stem` otherwise), which is why the
//! predicted peak and slot counts are exact.

use super::program::{Homes, LeafSource, Operand, Program, StemLeaf, Step};
use super::stats::{Bills, SKIPPED};
use crate::error::Error;
use crate::fault::{self, FaultPoint};
use crate::pool::{BufferPool, PoolCounters};
use qtn_tensor::{Complex64, DenseTensor, IndexSet};
use qtn_tensornet::NodeClass;

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

/// Apply one step's kernel. The operands are read in place, so the only
/// buffer a step needs is its output: `held_out` when the keyed loop
/// recomputes in place, else freshly acquired.
///
/// This is also the chaos hook: the [`FaultPoint::WorkerPanic`] injection
/// point, checked once per executed stem contraction — pooled or not,
/// single or batched — so a fault plan can panic a worker at exactly the
/// Nth contraction. One relaxed atomic load when no plan is installed.
fn contract_step(
    step: &Step,
    left: &[Complex64],
    right: &[Complex64],
    held_out: Option<Vec<Complex64>>,
    source: &mut BufferSource,
    counters: &mut PoolCounters,
) -> Vec<Complex64> {
    if fault::fire(FaultPoint::WorkerPanic) {
        panic!("injected fault: worker panic at contraction step");
    }
    let mut out = held_out.unwrap_or_else(|| source.acquire(step.kernel.output().len(), counters));
    step.kernel.contract(left, right, &mut out);
    out
}

impl Program {
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
        io: &Homes<'_>,
        ws: &mut StemWorkspace,
        assignment: usize,
        bills: &mut Bills,
        mut emit: impl FnMut(usize, &DenseTensor<Complex64>),
    ) -> Result<(), Error> {
        // StemPure nodes depend on no projector, so any bitstring's inputs
        // resolve them identically.
        let batched = io.bits.count > 1;
        self.consume(io, ws, assignment, batched, bills)?;
        if batched && self.root_class == NodeClass::StemMixed {
            self.hold_mixed(ws);
            for &b in &io.keys.order {
                self.refresh_keyed(io, ws, b, assignment, bills)?;
                // Borrow the held root buffer as a tensor, then put it
                // back for the next bitstring to overwrite.
                let root = self.take_root(ws)?;
                emit(b, &root);
                self.put_root(ws, root, true);
            }
        } else {
            // A single bitstring's root, or a StemPure root that *is*
            // every bitstring's subtask result.
            let root = self.take_root(ws)?;
            (0..io.bits.count).for_each(|b| emit(b, &root));
            self.put_root(ws, root, false);
        }
        // A batch is done with this subtask: the held keep set and mixed
        // buffers go back to the source.
        if batched {
            ws.release_held();
        }
        Ok(())
    }

    /// Gather bitstring `b`'s leaf for one slice assignment into `dst`.
    fn gather(
        leaf: &StemLeaf,
        io: &Homes<'_>,
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
    /// operand and stays held. The pass bills the program's static bills.
    fn consume(
        &self,
        io: &Homes<'_>,
        ws: &mut StemWorkspace,
        assignment: usize,
        pure_only: bool,
        bills: &mut Bills,
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
        let steps = self.run(NodeClass::StemPure).iter();
        for step in steps.filter(|s| !(pure_only && s.class == NodeClass::StemMixed)) {
            let left = io.read(step.left, slots, 0)?;
            let right = io.read(step.right, slots, 0)?;
            let out = contract_step(step, left, right, None, source, counters);
            // Only stem tensors sit in the slot table.
            for operand in [step.left, step.right] {
                if let Operand::Node(node) = operand {
                    if let Some(buf) = slots[node].take() {
                        source.release(buf, counters);
                    }
                }
            }
            slots[step.out] = Some(out);
        }
        for class in [NodeClass::StemPure, NodeClass::StemMixed] {
            if !(pure_only && class == NodeClass::StemMixed) {
                bills[class as usize].add(&self.bills[class as usize]);
            }
        }
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
        for step in self.mixed_steps() {
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
        io: &Homes<'_>,
        ws: &mut StemWorkspace,
        b: usize,
        assignment: usize,
        bills: &mut Bills,
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
        for step in self.mixed_steps() {
            let key = Some(io.keys.id(step.out, b));
            if held_keys[step.out] == key {
                bills[SKIPPED].flops += step.kernel.flops();
                bills[SKIPPED].contractions += 1;
                continue;
            }
            let held = slots[step.out].take().ok_or_else(|| {
                Error::Internal(format!("mixed output buffer {} not held", step.out))
            })?;
            // Mixed children were refreshed earlier in this pass (children
            // precede parents); StemPure keeps sit in the slot table too.
            let left = io.read(step.left, slots, b)?;
            let right = io.read(step.right, slots, b)?;
            let out = contract_step(step, left, right, Some(held), source, counters);
            bills[NodeClass::StemMixed as usize].record(&step.kernel);
            slots[step.out] = Some(out);
            held_keys[step.out] = key;
        }
        Ok(())
    }

    /// The StemMixed steps, in schedule order.
    fn mixed_steps(&self) -> impl Iterator<Item = &Step> {
        self.run(NodeClass::StemMixed).iter().filter(|s| s.class == NodeClass::StemMixed)
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
