//! The one compiled program of a plan, and the homes its steps write to.
//!
//! A [`Program`] is the whole tree schedule compiled once per plan, from
//! index sets alone: one [`Step`] per contraction, with its class, its two
//! operands, its output node and a [`ContractionKernel`]. The steps form
//! one list in three runs — Branch, then Frontier, then the stem (StemPure
//! and StemMixed interleaved in schedule order) — and each run writes to its
//! lifetime's home:
//!
//! * Branch steps run once per plan into the plan-lifetime
//!   [`BranchStore`] ([`Program::build_branch`]);
//! * Frontier steps run once per distinct dependent-bits key into one
//!   per-execution arena ([`Program::run_frontier`]);
//! * stem steps run per subtask into the worker's pooled slots (`stem.rs`).
//!
//! An operand is either an unsliced leaf, read in place from the plan or
//! from [`PROJECTOR_DATA`] at the bitstring's bit, or the tensor at a tree
//! node, read from its class's home ([`Homes::read`]). Sliced leaves are
//! gathered per subtask through their [`StemLeaf`] recipes.

use super::batch::{BatchKeys, KeySchedule};
use super::stats::Bill;
use super::Bitstrings;
use crate::error::Error;
use crate::planner::SimulationPlan;
use qtn_circuit::PROJECTOR_DATA;
use qtn_tensor::{Complex64, ContractionKernel, IndexSet};
use qtn_tensornet::NodeClass;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Where a leaf's data comes from, resolved at compile time: the plan's
/// tensor at a network vertex, or the output projector of a qubit —
/// [`PROJECTOR_DATA`] at the bitstring's bit.
#[derive(Debug, Clone, Copy)]
pub(super) enum LeafSource {
    Plan(usize),
    Projector(usize),
}

impl LeafSource {
    /// The source of the leaf at network `vertex`.
    fn of(plan: &SimulationPlan, vertex: usize) -> Self {
        match plan.build.projector_leaves.iter().find(|&&(_, node)| node == vertex) {
            Some(&(qubit, _)) => LeafSource::Projector(qubit),
            None => LeafSource::Plan(vertex),
        }
    }

    /// The leaf's data under `bits`, read in place.
    pub(super) fn data<'a>(self, plan: &'a SimulationPlan, bits: &[u8]) -> &'a [Complex64] {
        match self {
            LeafSource::Plan(vertex) => plan.build.nodes[vertex].data.data(),
            LeafSource::Projector(qubit) => {
                let rows: &'static [[Complex64; 2]; 2] = &PROJECTOR_DATA;
                &rows[usize::from(bits[qubit] & 1)]
            }
        }
    }
}

/// Where a step reads an operand.
#[derive(Debug, Clone, Copy)]
pub(super) enum Operand {
    /// An unsliced leaf, read in place.
    Leaf(LeafSource),
    /// The tensor at a tree node, read from its class's home.
    Node(usize),
}

/// One contraction of the program. Shapes and axis orders are fixed for
/// the plan's lifetime: every subtask, bitstring and rebind reuses them.
#[derive(Debug)]
pub(super) struct Step {
    pub(super) class: NodeClass,
    pub(super) left: Operand,
    pub(super) right: Operand,
    pub(super) out: usize,
    pub(super) kernel: ContractionKernel,
    /// The kept Branch root whose subtree holds this step (`out` itself
    /// for every other class): a rebind carries or drops a Branch step
    /// with its owner's entry.
    owner: usize,
}

/// One sliced leaf's gather recipe: which axes of the source tensor the
/// sliced-edge bits fix. Applying it is one [`qtn_tensor::DenseTensor::slice_into`]
/// gather or, for an output projector, one element of its row.
#[derive(Debug)]
pub(super) struct StemLeaf {
    pub(super) node: usize,
    pub(super) source: LeafSource,
    /// `(axis position in the source tensor, bit position in the slicing
    /// set)` for every sliced edge the leaf carries.
    pub(super) fixes: Vec<(usize, usize)>,
    /// Elements of the sliced leaf tensor.
    pub(super) len: usize,
    /// Whether the leaf is StemMixed (a projector on a sliced wire):
    /// re-gathered per bitstring in a batch.
    pub(super) mixed: bool,
}

/// The compiled program of a plan. It depends only on index sets, so it is
/// compiled once, memoized on the [`SimulationPlan`] and shared by every
/// execution, clone and parameter rebind of it.
#[derive(Debug)]
pub(crate) struct Program {
    /// One step per entry of the classification's schedule: Branch, then
    /// Frontier, then stem steps, each run in tree order.
    steps: Vec<Step>,
    /// Where the Frontier and the stem runs start in `steps`.
    frontier_at: usize,
    stem_at: usize,
    /// The sliced leaves, in tree-node order.
    pub(super) leaves: Vec<StemLeaf>,
    /// The tree root, its class, where its tensor is read, and its index
    /// set.
    pub(super) root: usize,
    pub(super) root_class: NodeClass,
    pub(super) root_operand: Operand,
    pub(super) root_indices: IndexSet,
    /// What one pass over each class's steps costs, indexed by
    /// `class as usize`.
    pub(super) bills: [Bill; 4],
    /// What a batch's key tables need from the plan.
    pub(super) keys: KeySchedule,
}

impl Program {
    /// Compile the tree schedule: propagate every node's index set from the
    /// leaves (a sliced leaf loses its sliced edges), build one kernel per
    /// contraction and resolve every operand. Pure shape work.
    pub(super) fn compile(plan: &SimulationPlan) -> Result<Program, Error> {
        let (cls, sliced, nodes) = (&plan.classification, &plan.slicing.sliced, plan.tree.nodes());
        let mut indices: Vec<Option<IndexSet>> = vec![None; nodes.len()];
        let mut leaves = Vec::new();
        for (node, tree_node) in nodes.iter().enumerate() {
            let Some(vertex) = tree_node.leaf_vertex else { continue };
            let src = plan.build.nodes[vertex].data.indices();
            if !cls.class(node).is_stem() {
                indices[node] = Some(src.clone());
                continue;
            }
            let fixes: Vec<(usize, usize)> = (sliced.iter().enumerate())
                .filter_map(|(bit, &edge)| src.position(edge).map(|axis| (axis, bit)))
                .collect();
            let source = LeafSource::of(plan, vertex);
            // A projector on a stem leaf is sliced down to one element.
            if matches!(source, LeafSource::Projector(_)) && (src.rank(), fixes.len()) != (1, 1) {
                return Err(Error::Internal(format!(
                    "projector leaf {vertex} is not a sliced wire"
                )));
            }
            let kept = IndexSet::new(src.iter().filter(|a| !sliced.contains(a)).collect());
            let mixed = cls.class(node) == NodeClass::StemMixed;
            leaves.push(StemLeaf { node, source, fixes, len: kept.len(), mixed });
            indices[node] = Some(kept);
        }
        let operand = |id: usize| match nodes[id].leaf_vertex {
            Some(vertex) if !cls.class(id).is_stem() => Operand::Leaf(LeafSource::of(plan, vertex)),
            _ => Operand::Node(id),
        };
        let mut steps = Vec::new();
        let mut bills = [Bill::default(); 4];
        for &(l, r, out) in cls.schedule() {
            let at = |id: usize| {
                indices[id]
                    .as_ref()
                    .ok_or_else(|| Error::Internal(format!("operand {id} missing in compile")))
            };
            let kernel = ContractionKernel::new(at(l)?, at(r)?);
            indices[out] = Some(kernel.output().clone());
            let class = cls.class(out);
            bills[class as usize].record(&kernel);
            let mut owner = out;
            while let Some(parent) =
                nodes[owner].parent.filter(|&p| cls.class(p) == NodeClass::Branch)
            {
                owner = parent;
            }
            steps.push(Step { class, left: operand(l), right: operand(r), out, kernel, owner });
        }
        let root = plan.tree.root();
        let root_indices =
            indices[root].clone().ok_or_else(|| Error::Internal("no root".into()))?;
        let frontier_at = cls.run(NodeClass::Branch).len();
        Ok(Program {
            steps,
            frontier_at,
            stem_at: frontier_at + cls.run(NodeClass::Frontier).len(),
            leaves,
            root,
            root_class: cls.class(root),
            root_operand: operand(root),
            root_indices,
            bills,
            keys: KeySchedule::compile(plan),
        })
    }

    /// The run of steps of one lifetime: `Branch`, `Frontier`, or (for
    /// either stem class) the whole stem.
    pub(super) fn run(&self, class: NodeClass) -> &[Step] {
        match class {
            NodeClass::Branch => &self.steps[..self.frontier_at],
            NodeClass::Frontier => &self.steps[self.frontier_at..self.stem_at],
            NodeClass::StemPure | NodeClass::StemMixed => &self.steps[self.stem_at..],
        }
    }

    /// Run the Branch steps into a fresh plan-lifetime store. Steps owned
    /// by an entry a parameter rebind carried over are skipped and billed
    /// as survived; the entries are installed verbatim. Operands are read
    /// in place (leaves) or consumed (each node feeds exactly one parent).
    pub(super) fn build_branch(&self, plan: &SimulationPlan) -> Result<BranchStore, Error> {
        let carried = plan.carried.as_deref();
        let mut store = BranchStore {
            entries: carried
                .map_or_else(|| vec![None; plan.tree.nodes().len()], |c| c.entries.clone()),
            unreported: AtomicBool::new(true),
            ..carried.map(BranchStore::accounting).unwrap_or_default()
        };
        for step in self.run(NodeClass::Branch) {
            if carried.is_some_and(|c| c.entries[step.owner].is_some()) {
                store.survived_flops += step.kernel.flops();
                continue;
            }
            let mut out = vec![Complex64::ZERO; step.kernel.output().len()];
            let read = |operand| match operand {
                Operand::Leaf(source) => Ok(source.data(plan, &[])),
                Operand::Node(id) => (store.entries[id].as_deref().map(Vec::as_slice))
                    .ok_or_else(|| Error::Internal(format!("branch operand {id} missing"))),
            };
            step.kernel.contract(read(step.left)?, read(step.right)?, &mut out);
            for operand in [step.left, step.right] {
                if let Operand::Node(id) = operand {
                    store.entries[id] = None;
                }
            }
            store.entries[step.out] = Some(Arc::new(out));
            store.bill.record(&step.kernel);
        }
        // A kept leaf is read in place; its empty entry marks it valid.
        for &root in plan.classification.branch_keep() {
            let entry = &mut store.entries[root];
            if plan.tree.node(root).is_leaf() {
                *entry = Some(Arc::default());
            } else if entry.is_none() {
                return Err(Error::Internal(format!("branch root {root} was not produced")));
            }
        }
        Ok(store)
    }

    /// Run the Frontier steps for a batch: each step contracts once per
    /// distinct key of its output, into one per-execution arena laid out in
    /// program order (so every operand a step reads lies below its own
    /// output).
    pub(super) fn run_frontier(
        &self,
        plan: &SimulationPlan,
        store: &BranchStore,
        keys: &BatchKeys,
        bits: &Bitstrings,
    ) -> Result<FrontierRun, Error> {
        let steps = self.run(NodeClass::Frontier);
        let mut spans = vec![(0, 0); plan.tree.nodes().len()];
        let mut total = 0;
        for step in steps {
            let len = step.kernel.output().len();
            spans[step.out] = (total, len);
            total += len * keys.distinct(step.out);
        }
        let mut arena = vec![Complex64::ZERO; total];
        let mut bill = Bill::default();
        for step in steps {
            let (start, len) = spans[step.out];
            let (done, outputs) = arena.split_at_mut(start);
            let homes =
                Homes { plan, branch: &store.entries, frontier: done, spans: &spans, keys, bits };
            // Key ids are interned in submission order, so a bitstring
            // carries a new key exactly when its id is the next unused one.
            let mut next = 0;
            for b in 0..bits.count {
                if keys.id(step.out, b) as usize != next {
                    continue;
                }
                let out = &mut outputs[next * len..][..len];
                step.kernel.contract(
                    homes.read(step.left, &[], b)?,
                    homes.read(step.right, &[], b)?,
                    out,
                );
                bill.record(&step.kernel);
                next += 1;
            }
        }
        Ok((arena, spans, bill))
    }
}

/// One execution's frontier tensors: the arena, each node's `(start,
/// elements per key)` span in it, and what the frontier run executed.
type FrontierRun = (Vec<Complex64>, Vec<(usize, usize)>, Bill);

/// The plan-lifetime home of the Branch steps: the tensors of the kept
/// Branch roots, built once per plan by the first reusing execution and
/// shared by every execution and clone of the plan. After a parameter
/// rebind the plan carries the surviving entries in a store of the same
/// type, and the next build starts from it.
#[derive(Debug, Default)]
pub(crate) struct BranchStore {
    /// Per tree node, the tensor of each valid kept root. A kept leaf is
    /// read in place, so its entry is empty. Entries are shared, so a
    /// rebind carries one over without copying its tensor.
    pub(crate) entries: Vec<Option<Arc<Vec<Complex64>>>>,
    /// What the build executed.
    pub(super) bill: Bill,
    /// Flops of the carried entries' steps, which the build skipped.
    pub(super) survived_flops: u64,
    /// Kept entries the rebinds since the last build invalidated.
    pub(crate) entries_invalidated: u64,
    /// Parameter-slot updates applied since the last build.
    pub(crate) params_rebound: u64,
    /// Set by the build; the first successful execution swaps it off and
    /// reports the build, so a failed execution never loses the bill.
    pub(super) unreported: AtomicBool,
}

impl BranchStore {
    /// The rebind accounting of a carried store, without its entries.
    pub(crate) fn accounting(&self) -> BranchStore {
        BranchStore {
            entries_invalidated: self.entries_invalidated,
            params_rebound: self.params_rebound,
            ..Default::default()
        }
    }
}

/// Where each class's tensors live during one execution: Branch tensors
/// in the plan-lifetime store, Frontier tensors in the execution's arena
/// (one per node and key), stem tensors in the worker's slots.
#[derive(Clone, Copy)]
pub(super) struct Homes<'a> {
    pub(super) plan: &'a SimulationPlan,
    pub(super) branch: &'a [Option<Arc<Vec<Complex64>>>],
    pub(super) frontier: &'a [Complex64],
    pub(super) spans: &'a [(usize, usize)],
    pub(super) keys: &'a BatchKeys,
    pub(super) bits: &'a Bitstrings,
}

impl Homes<'_> {
    /// Bitstring `b`'s data of `operand`; stem tensors come from `slots`.
    pub(super) fn read<'s>(
        &'s self,
        operand: Operand,
        slots: &'s [Option<Vec<Complex64>>],
        b: usize,
    ) -> Result<&'s [Complex64], Error> {
        let data = match operand {
            Operand::Leaf(source) => Some(source.data(self.plan, self.bits.get(b))),
            Operand::Node(node) => match self.plan.classification.class(node) {
                NodeClass::Branch => self.branch[node].as_deref().map(Vec::as_slice),
                NodeClass::Frontier => {
                    let (start, len) = self.spans[node];
                    Some(&self.frontier[start + self.keys.id(node, b) as usize * len..][..len])
                }
                NodeClass::StemPure | NodeClass::StemMixed => slots[node].as_deref(),
            },
        };
        data.ok_or_else(|| Error::Internal(format!("operand {operand:?} missing")))
    }
}
