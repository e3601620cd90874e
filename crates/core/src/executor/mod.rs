//! The parallel sliced executor: a stem-only sweep over slice subtasks.
//!
//! Each of the `2^|S|` assignments of the sliced edges is an independent
//! subtask, and the subtask results are combined — *summed* over sliced
//! edges that are interior to the network (the two halves of a contracted
//! dimension) and *stacked* over sliced edges that are open outputs (the
//! paper's slice-then-stack treatment of the big output tensor).
//!
//! ## One driver, one interpreter
//!
//! The paper's central observation (§4.2) is that only the *stem* — the
//! dominant contraction spine — varies across slice assignments. The node
//! classification computed at plan time (see
//! [`qtn_tensornet::classify_nodes`]) splits the tree schedule by lifetime:
//!
//! 1. **Branch** contractions depend on no sliced edge and no output
//!    projector. They run **once per plan**, on the first execution, into
//!    the plan-lifetime [`BranchCache`] shared by every execution (and
//!    every clone of the plan's `Arc`).
//! 2. **Frontier** contractions depend on rebindable output projectors but
//!    on no sliced edge. They run **once per execution** — once per
//!    *distinct dependent-bits key* when the call carries several
//!    bitstrings — as the plan's compiled frontier program, into one
//!    per-execution arena (`batch.rs`).
//! 3. **Stem** contractions depend on sliced edges. Only these are replayed
//!    per subtask, by the one interpreter in `stem.rs` running the
//!    plan's compiled stem program.
//!
//! Both programs are compiled once per plan — one
//! [`qtn_tensor::ContractionKernel`] per step, every step operand's source
//! (slot, frontier seed or branch-cache entry) resolved at compile time —
//! so a warm execution pays for its flops and a small fixed setup.
//!
//! Every entry point is the same call: [`execute_on_pool`] is a batch of
//! one, [`execute_amplitudes_on_pool`] a batch of however many bitstrings
//! it is handed. One routine prepares the caches (`prepare_reuse`), one
//! helper (`fan_out_and_reduce`) owns worker fan-out (a one-worker sweep
//! runs on the calling thread), panic containment, buffer-pool
//! check-out/check-in and the worker-order reduction, and the
//! interpreter picks its step loop from the batch size it observes:
//!
//! | batch | stem loop | predicted by |
//! |---|---|---|
//! | 1 | consume-and-release over every step | `MemoryPlan::stem` |
//! | ≥ 2 | consume-and-release over the StemPure prefix (once per subtask), then keyed hold-in-place over the StemMixed suffix (per bitstring) | `MemoryPlan::batched_stem` |
//!
//! Batched results are **bit-identical** to a loop of single executions —
//! per bitstring the same pairwise contractions produce every tensor and
//! the partials reduce in the same worker order; batching only changes how
//! often shared work is computed.
//!
//! ## What the two switches mean
//!
//! [`ExecutorConfig::pool`] chooses the interpreter's *buffer source*:
//! per-worker [`crate::BufferPool`]s that persist on the plan across
//! executions (after the first subtask warms the free lists the hot loop
//! performs **zero heap allocations**, and a compiled circuit's second
//! execution allocates no stem buffers at all), or plain heap allocations.
//! Same steps, same kernels, same order — an allocator swap.
//! [`ExecutionStats::buffers_allocated`] / `buffers_reused` report the pool
//! traffic, and a pooled [`ExecutionStats::peak_bytes_in_flight`] equals
//! the plan's [`ExecutionStats::predicted_peak_bytes`] exactly; with the
//! heap source the pool counters stay zero.
//!
//! [`ExecutorConfig::reuse`] `= false` bypasses all of the above for the
//! *independent oracle*: every subtask slices every leaf and replays the
//! whole tree through per-call [`qtn_tensor::contract_pair`], sharing no
//! code with the interpreter above the tensor layer. It exists so tests
//! and benchmarks have something to be bit-identical **to**; results agree
//! because every node's tensor is produced by the same pairwise
//! contractions in the same order on the same kernels (`contract_pair`
//! compiles the very [`qtn_tensor::ContractionKernel`] the stem program
//! holds) — reuse only changes how often they run. A batch takes the same
//! driver with reuse off: each subtask replays the tree once per bitstring,
//! and the worker-order reduction keeps every result bit-identical to a
//! single execution.
//!
//! ## Determinism
//!
//! Subtasks run on a persistent [`WorkerPool`] — threads are spawned once
//! and reused across executions, mirroring the paper's long-lived processes
//! sweeping millions of slice subtasks; a one-worker sweep skips the hop
//! and runs the same job on the calling thread. Work is distributed by *static
//! striding* (worker `w` takes subtasks `w, w + W, w + 2W, …`) and the
//! per-worker partial accumulators are reduced in worker order, so repeated
//! executions of the same plan produce **bit-identical** results — the
//! floating-point summation order never depends on thread scheduling.

mod batch;
mod branch;
mod stats;
mod stem;
#[cfg(test)]
mod tests;
mod worker_pool;

pub use branch::{BranchCache, BranchSeed};
pub use stats::{ExecutionStats, GemmTally};
pub(crate) use stem::StemExec;
pub use worker_pool::WorkerPool;

use crate::error::Error;
use crate::planner::SimulationPlan;
use crate::pool::PoolCounters;
pub(crate) use batch::FrontierExec;
use batch::{build_frontier_exec, BatchKeys, FrontierSeeds, PhaseBill};
use branch::{build_branch_cache, cache_of};
use qtn_tensor::{contract_pair, Complex64, ContractionSpec, DenseTensor, IndexId, IndexSet};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use stem::{build_stem_exec, BufferSource, StemWorkspace, SweepTally};
use worker_pool::contain_panic;

/// Replacement leaf data keyed by network vertex id (position in
/// `SimulationPlan::build.nodes`). Produced by
/// [`qtn_circuit::NetworkBuild::rebind_output`]: executing a plan with
/// overrides retargets the output projectors without touching the plan.
pub type LeafOverrides = HashMap<usize, DenseTensor<Complex64>>;

/// Executor options.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Number of worker threads ("processes" in the paper's terminology).
    pub workers: usize,
    /// Execute at most this many subtasks (0 = all). Benchmarks use this to
    /// measure per-subtask cost without running an entire sweep.
    pub max_subtasks: usize,
    /// Reuse slice-invariant partial contractions across subtasks (the
    /// stem-only sweep): branch tensors are contracted once per plan,
    /// frontier tensors once per execution, and only Stem-class nodes are
    /// replayed per subtask. Disable to run the independent full-replay
    /// oracle instead — the result is bit-identical, only slower.
    pub reuse: bool,
    /// Feed the stem interpreter from per-worker [`crate::BufferPool`]s:
    /// every sliced leaf and intermediate buffer is recycled (contraction
    /// reads its operands in place and needs nothing else), so after the
    /// first subtask warms the free lists the hot loop performs zero heap
    /// allocations (pools persist across executions of the same plan, like
    /// the branch cache). Disable to feed the same
    /// interpreter from the heap — identical steps and results, the pool
    /// counters stay zero. No effect on the [`reuse`](Self::reuse)`: false`
    /// oracle, which always allocates.
    pub pool: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            max_subtasks: 0,
            reuse: true,
            pool: true,
        }
    }
}

/// The cache phases of one reusing execution, whatever its batch size.
struct ReuseState {
    /// This execution's frontier tensors, per node and dependent-bits key.
    seeds: FrontierSeeds,
    /// The plan's compiled stem program.
    exec: Arc<StemExec>,
    /// The batch's dependent-bits key tables (trivial for a batch of one).
    keys: BatchKeys,
    /// Whether *this* call ran the plan-lifetime branch-cache build, and so
    /// is the one that reports its work and rebind accounting.
    built_cache: bool,
    /// Frontier work this call executed (deduplicated across the batch).
    frontier: PhaseBill,
}

/// A compiled program memoized on the plan, or — when `memoize` is false
/// because an override changed a leaf's axis order — a fresh, uncached
/// compile.
fn compiled<T>(
    cell: &OnceLock<Result<Arc<T>, Error>>,
    memoize: bool,
    compile: impl FnOnce() -> Result<T, Error>,
) -> Result<Arc<T>, Error> {
    if memoize {
        cell.get_or_init(|| compile().map(Arc::new)).clone()
    } else {
        compile().map(Arc::new)
    }
}

/// Build the branch cache (first execution only) and this execution's
/// frontier seeds, and fetch — or, once per plan, compile — the frontier
/// and stem programs. `bitstrings` drives cross-bitstring deduplication; a
/// batch of one needs (and the single-execution entry point has) none.
fn prepare_reuse(
    plan: &SimulationPlan,
    bitstrings: &[&[u8]],
    overrides: &[Arc<LeafOverrides>],
) -> Result<ReuseState, Error> {
    // `OnceLock::get_or_init` blocks concurrent initializers, so even racing
    // first executions run the (potentially dominant-cost) build exactly
    // once — the thread that runs the closure accounts for the branch work.
    let mut built_cache = false;
    let cache = plan
        .branch_cache
        .get_or_init(|| {
            built_cache = true;
            build_branch_cache(plan)
        })
        .as_ref()
        .map_err(Clone::clone)?;

    // Rebinding preserves every leaf's index set, so both programs are
    // plan-invariant and memoized on the plan.
    let shapes_preserved = overrides
        .iter()
        .flat_map(|o| o.iter())
        .all(|(vertex, tensor)| tensor.indices() == plan.build.nodes[*vertex].data.indices());
    let frontier_exec = compiled(&plan.frontier_exec, shapes_preserved, || {
        build_frontier_exec(plan, cache, &overrides[0])
    })?;
    let keys = BatchKeys::build(plan, bitstrings);
    let (seeds, frontier) = frontier_exec.run(plan, cache, &keys, overrides)?;
    let exec = compiled(&plan.stem_exec, shapes_preserved, || {
        build_stem_exec(plan, cache, &frontier_exec, &overrides[0])
    })?;
    Ok(ReuseState { seeds, exec, keys, built_cache, frontier })
}

/// Everything the workers of one execution share.
struct Sweep {
    plan: Arc<SimulationPlan>,
    /// Leaf overrides, one per bitstring of the batch.
    overrides: Vec<Arc<LeafOverrides>>,
    /// `None` runs the full-replay oracle.
    reuse: Option<ReuseState>,
    /// Whether stem buffers come from the plan's persistent pools.
    pooled: bool,
    /// The sliced edges that are open outputs (stacked, not summed).
    sliced_open: Vec<IndexId>,
    /// Canonical (sorted) axis order of the output accumulators.
    output_indices: IndexSet,
    run_subtasks: usize,
    workers: usize,
}

/// One worker's share of a sweep: a partial accumulator per bitstring and
/// what it executed.
type WorkerPartial = (Vec<DenseTensor<Complex64>>, SweepTally);

impl Sweep {
    /// The worker's interpreter workspace, if there is a stem to interpret.
    /// A pooled worker's buffer pool persists on the plan across
    /// executions, so only the very first execution of a plan pays any
    /// allocation at all.
    fn workspace(&self, worker: usize) -> Option<StemWorkspace> {
        let exec = &self.reuse.as_ref()?.exec;
        exec.has_stem().then(|| {
            let source = if self.pooled {
                BufferSource::Pool(self.plan.stem_pools.checkout(worker))
            } else {
                BufferSource::Heap
            };
            StemWorkspace::new(self.plan.tree.nodes().len(), source)
        })
    }

    /// Sweep this worker's statically strided subtasks `w, w+W, w+2W, …`.
    fn run_worker(
        &self,
        worker: usize,
        mut ws: Option<&mut StemWorkspace>,
    ) -> Result<WorkerPartial, Error> {
        let plan = &*self.plan;
        let sliced = &plan.slicing.sliced;
        let mut partials: Vec<DenseTensor<Complex64>> = self
            .overrides
            .iter()
            .map(|_| DenseTensor::zeros(self.output_indices.clone()))
            .collect();
        let mut tally = SweepTally::default();
        let stem = match &self.reuse {
            Some(state) => {
                let cache = cache_of(plan)?;
                let io = state.exec.inputs(plan, cache, &state.seeds, &state.keys, &self.overrides);
                Some((&state.exec, io))
            }
            None => None,
        };
        let mut assignment = worker;
        while assignment < self.run_subtasks {
            let mut merge = |b: usize, result: &DenseTensor<Complex64>| {
                merge_subtask(&mut partials[b], result, &self.sliced_open, sliced, assignment)
            };
            match (&stem, ws.as_deref_mut()) {
                (Some((exec, io)), Some(ws)) => {
                    exec.interpret(io, ws, assignment, &mut tally, merge)?
                }
                // No contraction depends on the slice assignment (empty
                // slicing set): every bitstring's cached root tensor *is*
                // its subtask result.
                (Some((exec, io)), None) => {
                    for b in 0..self.overrides.len() {
                        merge(b, &exec.cached_root(io, b)?);
                    }
                }
                (None, _) => {
                    for (b, overrides) in self.overrides.iter().enumerate() {
                        let (result, flops) =
                            run_subtask(plan, overrides, sliced, assignment, &mut tally.gemm)?;
                        tally.flops += flops;
                        merge(b, &result);
                    }
                }
            }
            assignment += self.workers;
        }
        Ok((partials, tally))
    }

    /// One worker's whole job: check its workspace out, sweep under the
    /// executor's panic boundary — a panicking subtask (injected or real)
    /// fails only this execution, never the process, and surfaces as a
    /// typed [`Error::ExecutionPanic`] — then, whatever the outcome, drain
    /// the workspace and check its buffer pool back in, so a failed
    /// execution never cools the pool.
    fn run_job(&self, worker: usize) -> Result<(WorkerPartial, PoolCounters), Error> {
        let mut ws = self.workspace(worker);
        let outcome =
            contain_panic(|| self.run_worker(worker, ws.as_mut())).and_then(|swept| swept);
        let mut counters = PoolCounters::default();
        if let Some(ws) = ws {
            let (used, source) = ws.retire();
            counters = used;
            if let BufferSource::Pool(buffers) = source {
                self.plan.stem_pools.checkin(worker, buffers);
            }
        }
        outcome.map(|partial| (partial, counters))
    }
}

/// Run a sweep and reduce it: one [`Sweep::run_job`] per worker. A
/// one-worker sweep runs on the calling thread; wider sweeps run one job
/// per pool thread. Partials are collected from every worker and reduced
/// in worker order, so the summation order is schedule-independent.
fn fan_out_and_reduce(
    pool: &WorkerPool,
    sweep: &Arc<Sweep>,
) -> Result<(WorkerPartial, PoolCounters), Error> {
    if sweep.workers == 1 {
        return sweep.run_job(0);
    }
    let (tx, rx) = mpsc::channel();
    for worker in 0..sweep.workers {
        let tx = tx.clone();
        let sweep = Arc::clone(sweep);
        pool.submit(Box::new(move || {
            let _ = tx.send((worker, sweep.run_job(worker)));
        }));
    }
    drop(tx);

    let mut outcomes: Vec<Option<(WorkerPartial, PoolCounters)>> =
        (0..sweep.workers).map(|_| None).collect();
    for _ in 0..sweep.workers {
        let (worker, outcome) = rx
            .recv()
            .map_err(|_| Error::ExecutionPanic("an execution job was dropped unfinished".into()))?;
        outcomes[worker] = Some(outcome?);
    }
    let mut outcomes = outcomes.into_iter().flatten();
    let ((mut results, mut tally), mut counters) =
        outcomes.next().ok_or_else(|| Error::Internal("missing worker partial".into()))?;
    for ((partials, worker_tally), worker_counters) in outcomes {
        for (acc, partial) in results.iter_mut().zip(partials.iter()) {
            acc.accumulate(partial);
        }
        tally.merge(&worker_tally);
        counters.merge(&worker_counters);
    }
    Ok(((results, tally), counters))
}

/// Execute a plan on an explicit [`WorkerPool`], substituting `overrides`
/// for the corresponding leaf tensors (the compile-once / execute-many path:
/// the overrides retarget output projectors without re-planning).
///
/// With [`ExecutorConfig::reuse`] enabled (the default), slice-invariant
/// contractions are not replayed per subtask: branch tensors come from the
/// plan-lifetime [`BranchCache`] and override-dependent frontier tensors are
/// contracted once per call, so each subtask replays only the stem. The
/// reuse path requires every override key to be one of the plan's
/// output-projector leaves (true for everything produced by
/// [`qtn_circuit::NetworkBuild::rebind_output`]); otherwise the executor
/// silently falls back to the full replay.
///
/// Deterministic: subtasks are statically strided over `config.workers`
/// logical workers and partials are reduced in worker order, so the result
/// is bit-identical across runs regardless of thread scheduling — and
/// bit-identical between the reuse and full-replay paths.
pub fn execute_on_pool(
    pool: &WorkerPool,
    plan: &Arc<SimulationPlan>,
    overrides: &Arc<LeafOverrides>,
    config: &ExecutorConfig,
) -> Result<(DenseTensor<Complex64>, ExecutionStats), Error> {
    let (mut results, stats) =
        execute_batch(pool, plan, &[], std::slice::from_ref(overrides), config)?;
    let result = results.pop().ok_or_else(|| Error::Internal("missing batch result".into()))?;
    Ok((result, stats))
}

/// Execute one plan for a whole batch of output bitstrings, amortizing the
/// slice-dependent StemPure prefix across the batch.
///
/// Each bitstring is rebound onto the plan's output projectors (see
/// [`qtn_circuit::NetworkBuild::rebind_output`]). With reuse enabled, every
/// slice assignment contracts its StemPure prefix **once** and replays only
/// the keyed StemMixed suffix per bitstring, and the per-bitstring
/// frontiers are built with cross-bitstring subtree deduplication — instead
/// of the full stem plus a fresh frontier once per bitstring. Results are
/// **bit-identical** to a loop of single [`execute_on_pool`] calls with the
/// same configuration. With reuse disabled every subtask replays the whole
/// tree once per bitstring, through the same driver.
///
/// The returned tensors are index-aligned with `bitstrings`; the
/// [`ExecutionStats`] cover the whole batch, with
/// [`ExecutionStats::stem_pure_flops`],
/// [`ExecutionStats::stem_pure_flops_reused`] and
/// [`ExecutionStats::amplitudes_in_batch`] quantifying the amortization.
pub fn execute_amplitudes_on_pool(
    pool: &WorkerPool,
    plan: &Arc<SimulationPlan>,
    bitstrings: &[&[u8]],
    config: &ExecutorConfig,
) -> Result<(Vec<DenseTensor<Complex64>>, ExecutionStats), Error> {
    if bitstrings.is_empty() {
        let stats = ExecutionStats { subtasks_total: plan.num_subtasks(), ..Default::default() };
        return Ok((Vec::new(), stats));
    }
    let mut overrides_batch = Vec::with_capacity(bitstrings.len());
    for bits in bitstrings {
        let overrides: LeafOverrides = plan.build.rebind_output(bits)?.into_iter().collect();
        overrides_batch.push(Arc::new(overrides));
    }
    execute_batch(pool, plan, bitstrings, &overrides_batch, config)
}

/// The one driver: prepare the caches, fan the subtasks out, assemble the
/// statistics. `overrides` holds one entry per bitstring of the batch;
/// `bitstrings` is index-aligned with it, or empty for a batch of one.
fn execute_batch(
    pool: &WorkerPool,
    plan: &Arc<SimulationPlan>,
    bitstrings: &[&[u8]],
    overrides: &[Arc<LeafOverrides>],
    config: &ExecutorConfig,
) -> Result<(Vec<DenseTensor<Complex64>>, ExecutionStats), Error> {
    let start = Instant::now();
    let batch = overrides.len() as u64;
    let sliced = &plan.slicing.sliced;
    // A subtask is addressed by a `usize` whose bit `i` is the value of the
    // i-th sliced edge; `2^|S|` must be representable before any worker
    // shifts by a bit position.
    if sliced.len() >= usize::BITS as usize {
        return Err(Error::TooManySlicedEdges { sliced: sliced.len() });
    }
    let total_subtasks = plan.num_subtasks();
    let run_subtasks = match config.max_subtasks {
        0 => total_subtasks,
        cap => cap.min(total_subtasks),
    };
    let workers = config.workers.max(1).min(run_subtasks.max(1));
    let open = plan.network.open_indices();

    // The classification assumed only output-projector leaves are
    // overridable; an override targeting any other leaf would make cached
    // branch tensors stale, so such calls take the full-replay path.
    let is_projector = |v: &usize| plan.build.projector_leaves.iter().any(|&(_, node)| node == *v);
    let reuse = config.reuse && overrides.iter().flat_map(|o| o.keys()).all(is_projector);
    let sweep = Arc::new(Sweep {
        plan: Arc::clone(plan),
        overrides: overrides.to_vec(),
        reuse: if reuse { Some(prepare_reuse(plan, bitstrings, overrides)?) } else { None },
        pooled: config.pool,
        sliced_open: sliced.iter().copied().filter(|e| open.contains(e)).collect(),
        // Sorted for a canonical axis order; callers permute to taste.
        output_indices: {
            let mut root = plan.tree.node(plan.tree.root()).indices.clone();
            root.sort_unstable();
            root.into_iter().collect()
        },
        run_subtasks,
        workers,
    });

    // Per-subtask timing starts after the serial cache phases so
    // `seconds_per_subtask` prices a subtask of the parallel sweep, not an
    // amortized share of the one-off builds.
    let sweep_start = Instant::now();
    let ((results, tally), pool_counters) = fan_out_and_reduce(pool, &sweep)?;
    let sweep_wall = sweep_start.elapsed().as_secs_f64();

    let runs = run_subtasks as u64;
    let stem_phase =
        if batch == 1 { &plan.memory_plan.stem } else { &plan.memory_plan.batched_stem };
    let mut stats = ExecutionStats {
        subtasks_run: run_subtasks,
        subtasks_total: total_subtasks,
        flops: tally.flops,
        stem_flops: tally.flops,
        amplitudes_in_batch: batch,
        simd_level: qtn_tensor::simd_level().as_str(),
        buffers_allocated: pool_counters.allocated,
        buffers_reused: pool_counters.reused,
        peak_bytes_in_flight: pool_counters.peak_in_flight_bytes,
        predicted_peak_bytes: stem_phase.peak_bytes(),
        wall_seconds: start.elapsed().as_secs_f64(),
        prepare_seconds: (sweep_start - start).as_secs_f64(),
        seconds_per_subtask: sweep_wall * workers as f64 / runs as f64,
        workers,
        ..ExecutionStats::default()
    };
    let mut gemm = tally.gemm;
    if let Some(state) = &sweep.reuse {
        let cache = cache_of(plan)?;
        let cls = &plan.classification;
        if state.built_cache {
            stats.branch_flops = cache.flops;
            stats.branch_contractions = cache.contractions;
            stats.params_rebound = cache.params_rebound;
            stats.branch_entries_invalidated = cache.entries_invalidated;
            stats.branch_flops_survived_rebind = cache.survived_flops;
            gemm.add(&cache.gemm);
        }
        gemm.add(&state.frontier.gemm);
        stats.frontier_flops = state.frontier.flops;
        stats.frontier_contractions = state.frontier.contractions;
        stats.flops += state.frontier.flops + stats.branch_flops;
        // A loop of single executions would replay the StemPure prefix once
        // per subtask *per bitstring*; the batch ran it once per subtask.
        stats.stem_pure_flops = tally.pure_flops;
        stats.stem_pure_flops_reused = tally.pure_flops.saturating_mul(batch - 1);
        stats.stem_pure_contractions = cls.stem_pure_schedule().len() as u64 * runs;
        stats.stem_mixed_flops = tally.mixed_flops;
        stats.stem_mixed_flops_reused = tally.skipped_flops;
        stats.stem_mixed_contractions = tally.mixed_contractions;
        stats.stem_mixed_contractions_deduped = tally.skipped_contractions;
        stats.stem_mixed_distinct_keys = state.keys.distinct_contraction_keys;
        // A full (reuse-off) replay would pay the whole branch bill (cold,
        // even after a rebind carried entries over) plus one
        // *undeduplicated* frontier build in every subtask of every
        // bitstring — not the (smaller) deduped total this call executed.
        stats.branch_flops_reused = cache
            .cold_flops
            .saturating_add(state.frontier.flops_per_bitstring)
            .saturating_mul(batch)
            .saturating_mul(runs)
            .saturating_sub(state.frontier.flops)
            .saturating_sub(stats.branch_flops);
    }
    stats.apply_gemm(&gemm);
    Ok((results, stats))
}

/// Materialise one leaf for one slice assignment the oracle's way:
/// substitute the execution's override for the leaf data, then slice away
/// every sliced edge the tensor carries, one edge at a time.
fn sliced_leaf_tensor(
    plan: &SimulationPlan,
    overrides: &LeafOverrides,
    sliced: &[IndexId],
    assignment: usize,
    vertex: usize,
) -> DenseTensor<Complex64> {
    let mut t = overrides.get(&vertex).unwrap_or(&plan.build.nodes[vertex].data).clone();
    for (pos, &e) in sliced.iter().enumerate() {
        if t.indices().contains(e) {
            let bit = ((assignment >> pos) & 1) as u8;
            t = t.slice_index(e, bit);
        }
    }
    t
}

/// The full-replay oracle (`reuse: false`): execute one slice assignment by
/// slicing every leaf and replaying the whole tree schedule through
/// per-call [`contract_pair`]. Deliberately shares nothing with the stem
/// interpreter but the tensor-layer kernels. Returns the subtask's root tensor and its flop count.
fn run_subtask(
    plan: &SimulationPlan,
    overrides: &LeafOverrides,
    sliced: &[IndexId],
    assignment: usize,
    gemm: &mut GemmTally,
) -> Result<(DenseTensor<Complex64>, u64), Error> {
    // Slots indexed by tree-node id.
    let num_nodes = plan.tree.nodes().len();
    let mut slots: Vec<Option<DenseTensor<Complex64>>> = vec![None; num_nodes];
    let mut flops = 0u64;

    // Leaves: apply output-rebinding overrides, slice away any sliced edges.
    for (node_id, node) in plan.tree.nodes().iter().enumerate() {
        if let Some(vertex) = node.leaf_vertex {
            slots[node_id] = Some(sliced_leaf_tensor(plan, overrides, sliced, assignment, vertex));
        }
    }

    // Replay the schedule.
    for (l, r, out) in plan.tree.schedule() {
        let a =
            slots[l].take().ok_or_else(|| Error::Internal(format!("left operand {l} missing")))?;
        let b =
            slots[r].take().ok_or_else(|| Error::Internal(format!("right operand {r} missing")))?;
        let spec = ContractionSpec::new(a.indices(), b.indices());
        flops += spec.flops();
        gemm.record_spec(&spec);
        slots[out] = Some(contract_pair(&a, &b));
    }
    slots[plan.tree.root()]
        .take()
        .ok_or_else(|| Error::Internal("root tensor missing".into()))
        .map(|root| (root, flops))
}

/// Merge a subtask result into the partial accumulator: stack over sliced
/// open indices (write into the slot the assignment selects), sum otherwise.
fn merge_subtask(
    partial: &mut DenseTensor<Complex64>,
    result: &DenseTensor<Complex64>,
    sliced_open: &[IndexId],
    sliced: &[IndexId],
    assignment: usize,
) {
    if sliced_open.is_empty() {
        // Pure summation; axis order of result may differ from partial.
        if result.rank() == 0 && partial.rank() == 0 {
            let v = partial.scalar_value() + result.scalar_value();
            partial.data_mut()[0] = v;
        } else {
            let aligned = qtn_tensor::permute::permute_to_order(result, partial.indices());
            partial.accumulate(&aligned);
        }
        return;
    }
    // Stack: expand the result with the sliced open indices fixed to the
    // assignment's bits, then accumulate (the summed contribution of the
    // closed sliced edges still adds across subtasks sharing the same open
    // bits).
    let mut expanded = result.clone();
    for &e in sliced_open {
        let pos = sliced.iter().position(|&x| x == e).unwrap();
        let bit = ((assignment >> pos) & 1) as u8;
        let mut axes: Vec<IndexId> = vec![e];
        axes.extend(expanded.indices().iter());
        let mut bigger = DenseTensor::<Complex64>::zeros(qtn_tensor::IndexSet::new(axes));
        expanded.stack_into(&mut bigger, e, bit);
        expanded = bigger;
    }
    let aligned = qtn_tensor::permute::permute_to_order(&expanded, partial.indices());
    partial.accumulate(&aligned);
}
