//! The plan-lifetime branch cache: slice- and projector-independent
//! subtrees, contracted once per plan (§4.2 of the paper: branches are
//! pre-contracted, only the stem is swept per slice assignment).

use super::stats::GemmTally;
use crate::error::Error;
use crate::planner::SimulationPlan;
use qtn_tensor::{Complex64, ContractionKernel, DenseTensor};
use qtn_tensornet::NodeClass;
use std::collections::HashMap;

/// The plan-lifetime cache of Branch-class tensors: the roots of the maximal
/// subtrees that depend on no sliced edge and no output projector.
///
/// Built lazily by the first reusing execution and memoized inside
/// [`SimulationPlan`], whose clones all *share* the cache: every execution
/// of the plan or any clone of it — including concurrent ones and compiles
/// served from the engine's plan cache — reuses one build.
#[derive(Debug, Clone)]
pub struct BranchCache {
    /// Kept tensors indexed by tree-node id (`Some` exactly on the
    /// classification's `branch_keep` set), so the stem loop reads an entry
    /// with one index, never a hash.
    tensors: Vec<Option<DenseTensor<Complex64>>>,
    /// Per kept root: the `(flops, contractions)` cost of producing its
    /// subtree. Every branch-schedule step is owned by exactly one kept
    /// root (each node feeds exactly one parent), so these partition the
    /// cold bill — the attribution a parameter rebind uses to price the
    /// entries it carries over versus the cone it drops.
    entry_costs: Vec<Option<(u64, u64)>>,
    /// Real floating point operations spent building the cache — only the
    /// contractions *this* build executed, excluding carried-over entries.
    pub flops: u64,
    /// Pairwise contractions performed by this build.
    pub contractions: u64,
    /// Kernel-dispatch tally of the contractions this build executed.
    pub gemm: GemmTally,
    /// The full cold bill: flops of every entry, whether executed by this
    /// build or carried over from a pre-rebind cache. On a cold build this
    /// equals [`flops`](Self::flops); after a partial (post-rebind) build,
    /// `cold_flops == flops + survived_flops` exactly.
    pub cold_flops: u64,
    /// Flops of the entries that survived parameter rebinds and were
    /// carried over instead of re-executed. Zero on cold builds.
    pub survived_flops: u64,
    /// Previously cached entries the rebinds invalidated (and this build
    /// therefore re-executed). Zero on cold builds.
    pub entries_invalidated: u64,
    /// Parameter-slot updates absorbed by this build. Zero on cold builds.
    pub params_rebound: u64,
}

impl BranchCache {
    /// The cached tensor of a tree node, if this node is a kept branch root.
    pub fn tensor(&self, node: usize) -> Option<&DenseTensor<Complex64>> {
        self.tensors.get(node)?.as_ref()
    }

    /// The `(flops, contractions)` attributed to producing a kept root's
    /// subtree, if this node is a kept branch root.
    pub fn entry_cost(&self, node: usize) -> Option<(u64, u64)> {
        *self.entry_costs.get(node)?
    }

    /// Number of cached tensors.
    pub fn len(&self) -> usize {
        self.tensors.iter().flatten().count()
    }

    /// True if the cache holds no tensors (fully sliced/overridden trees).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Branch-cache entries surviving a parameter rebind, staged on the plan
/// clone [`crate::CompiledCircuit::rebind_parameters`] produces and
/// consumed by that plan's next branch-cache build: the build
/// replays only the subtrees of the invalidated cone and installs the
/// surviving tensors verbatim, with their original cost attribution.
#[derive(Debug, Clone, Default)]
pub struct BranchSeed {
    /// Surviving kept entries: tree-node id → (tensor, flops, contractions).
    pub(crate) surviving: HashMap<usize, (DenseTensor<Complex64>, u64, u64)>,
    /// Previously cached entries the rebinds' cones dropped, accumulated
    /// across rebinds stacked before the next execution.
    pub(crate) entries_invalidated: u64,
    /// Parameter-slot updates applied since the last cache build.
    pub(crate) params_rebound: u64,
}

/// Map every Branch-class node to the kept root whose subtree owns it.
/// Each internal node feeds exactly one parent and the kept roots are the
/// maximal branch subtrees, so the ownership is a partition: walking down
/// from each kept root through the schedule's producer edges visits every
/// branch node exactly once.
fn branch_owners(cls: &qtn_tensornet::NodeClassification) -> HashMap<usize, usize> {
    let produced: HashMap<usize, (usize, usize)> =
        cls.branch_schedule().iter().map(|&(l, r, out)| (out, (l, r))).collect();
    let mut owner = HashMap::new();
    for &root in cls.branch_keep() {
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            owner.insert(node, root);
            if let Some(&(l, r)) = produced.get(&node) {
                stack.push(l);
                stack.push(r);
            }
        }
    }
    owner
}

/// Contract every Branch-class node bottom-up and keep the branch roots.
/// Runs once per plan; the tensors depend only on the circuit, so the same
/// worker-order-independent pairwise contractions make the cache — and with
/// it every later result — bit-identical to a full replay.
///
/// When the plan carries a [`BranchSeed`] (a parameter rebind staged
/// surviving entries on it), only the subtrees of the invalidated cone are
/// replayed: surviving kept tensors install verbatim, their leaves and
/// contractions are skipped, and the cache's accounting splits the cold
/// bill into executed and survived shares so the flop identity
/// `survived + executed == cold` is exact.
pub(super) fn build_branch_cache(plan: &SimulationPlan) -> Result<BranchCache, Error> {
    let cls = &plan.classification;
    let owner = branch_owners(cls);
    let seed = plan.branch_seed.as_deref();
    let survives = |root: usize| seed.is_some_and(|s| s.surviving.contains_key(&root));

    let mut slots: Vec<Option<DenseTensor<Complex64>>> = vec![None; plan.tree.nodes().len()];
    for (node_id, node) in plan.tree.nodes().iter().enumerate() {
        if let Some(vertex) = node.leaf_vertex {
            if cls.class(node_id) == NodeClass::Branch
                && owner.get(&node_id).is_some_and(|&root| !survives(root))
            {
                slots[node_id] = Some(plan.build.nodes[vertex].data.clone());
            }
        }
    }
    let mut flops = 0u64;
    let mut contractions = 0u64;
    let mut gemm = GemmTally::default();
    let mut step_costs: HashMap<usize, (u64, u64)> = HashMap::new();
    for &(l, r, out) in cls.branch_schedule() {
        let root = *owner
            .get(&out)
            .ok_or_else(|| Error::Internal(format!("branch step {out} has no kept root")))?;
        if survives(root) {
            continue;
        }
        // Each internal node feeds exactly one parent: operands are consumed.
        let mut take = |id: usize| {
            slots[id].take().ok_or_else(|| Error::Internal(format!("branch operand {id} missing")))
        };
        let (a, b) = (take(l)?, take(r)?);
        let kernel = ContractionKernel::new(a.indices(), b.indices());
        let mut data = vec![Complex64::ZERO; kernel.output().len()];
        kernel.contract(a.data(), b.data(), &mut data);
        flops += kernel.flops();
        contractions += 1;
        let entry = step_costs.entry(root).or_insert((0, 0));
        entry.0 += kernel.flops();
        entry.1 += 1;
        gemm.record_kernel(&kernel);
        slots[out] = Some(DenseTensor::from_data(kernel.output().clone(), data));
    }
    let mut tensors = vec![None; slots.len()];
    let mut entry_costs = vec![None; slots.len()];
    let mut survived_flops = 0u64;
    for &id in cls.branch_keep() {
        if let Some((t, entry_flops, entry_contractions)) = seed.and_then(|s| s.surviving.get(&id))
        {
            tensors[id] = Some(t.clone());
            entry_costs[id] = Some((*entry_flops, *entry_contractions));
            survived_flops += entry_flops;
            continue;
        }
        let t = slots[id]
            .take()
            .ok_or_else(|| Error::Internal(format!("branch root {id} was not produced")))?;
        tensors[id] = Some(t);
        entry_costs[id] = Some(step_costs.get(&id).copied().unwrap_or((0, 0)));
    }
    Ok(BranchCache {
        tensors,
        entry_costs,
        flops,
        contractions,
        gemm,
        cold_flops: flops + survived_flops,
        survived_flops,
        entries_invalidated: seed.map_or(0, |s| s.entries_invalidated),
        params_rebound: seed.map_or(0, |s| s.params_rebound),
    })
}

/// The plan's built branch cache (the sweep runs strictly after the reuse
/// preparation built it).
pub(super) fn cache_of(plan: &SimulationPlan) -> Result<&BranchCache, Error> {
    plan.branch_cache()
        .ok_or_else(|| Error::Internal("branch cache missing during stem replay".into()))
}
