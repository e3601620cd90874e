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
//! The one entry point, `execute`, takes the output bitstrings
//! themselves: across bitstrings only the output projectors change, and
//! each compiled program resolves a projector leaf to its qubit and reads
//! [`PROJECTOR_DATA`] at the bitstring's bit. A single amplitude is a
//! batch of one. One routine prepares the caches (`prepare_reuse`), one
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
//! *independent oracle*: each bitstring's projector leaves come from
//! [`qtn_circuit::NetworkBuild::rebind_output`], every subtask slices every
//! leaf and replays the whole tree through per-call
//! [`qtn_tensor::contract_pair`], sharing no code with the interpreter
//! above the tensor layer. It exists so tests and benchmarks have something
//! to be bit-identical **to**; results agree because every node's tensor
//! is produced by the same pairwise contractions in the same order on the
//! same kernels (`contract_pair` compiles the very
//! [`qtn_tensor::ContractionKernel`] the stem program holds) — reuse only
//! changes how often they run. A batch takes the same driver with reuse
//! off: each subtask replays the tree once per bitstring, and the
//! worker-order reduction keeps every result bit-identical to a single
//! execution.
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
use qtn_circuit::PROJECTOR_DATA;
use qtn_tensor::{contract_pair, Complex64, ContractionSpec, DenseTensor, IndexId, IndexSet};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;
use stem::{build_stem_exec, BufferSource, StemInputs, StemWorkspace, SweepTally};
use worker_pool::contain_panic;

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

/// Where a compiled program reads a leaf's data, resolved at compile time:
/// the plan's tensor at a network vertex, or the output projector of a
/// qubit — [`PROJECTOR_DATA`] at the bitstring's bit.
#[derive(Debug, Clone, Copy)]
enum LeafSource {
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
    fn data<'a>(self, plan: &'a SimulationPlan, bits: &[u8]) -> &'a [Complex64] {
        match self {
            LeafSource::Plan(vertex) => plan.build.nodes[vertex].data.data(),
            LeafSource::Projector(qubit) => {
                let rows: &'static [[Complex64; 2]; 2] = &PROJECTOR_DATA;
                &rows[usize::from(bits[qubit] & 1)]
            }
        }
    }
}

/// A batch's bitstrings, copied back to back so every worker of a sweep
/// can read them.
struct Bitstrings {
    flat: Vec<u8>,
    count: usize,
}

impl Bitstrings {
    fn new(bitstrings: &[&[u8]]) -> Self {
        Self { flat: bitstrings.concat(), count: bitstrings.len() }
    }

    /// Bitstring `b`.
    fn get(&self, b: usize) -> &[u8] {
        let len = self.flat.len() / self.count;
        &self.flat[b * len..][..len]
    }
}

/// The cache phases of one reusing execution, whatever its batch size.
struct ReuseState {
    /// The batch's bitstrings.
    bits: Bitstrings,
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

/// Build the branch cache (first execution only) and this execution's
/// frontier seeds, and fetch — or, once per plan, compile — the frontier
/// and stem programs.
fn prepare_reuse(plan: &SimulationPlan, bitstrings: &[&[u8]]) -> Result<ReuseState, Error> {
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

    let frontier_exec = plan
        .frontier_exec
        .get_or_init(|| build_frontier_exec(plan, cache).map(Arc::new))
        .clone()?;
    let keys = BatchKeys::build(plan, bitstrings);
    let (seeds, frontier) = frontier_exec.run(plan, cache, &keys, bitstrings)?;
    let exec = plan
        .stem_exec
        .get_or_init(|| build_stem_exec(plan, cache, &frontier_exec).map(Arc::new))
        .clone()?;
    let bits = Bitstrings::new(bitstrings);
    Ok(ReuseState { bits, seeds, exec, keys, built_cache, frontier })
}

/// How a sweep's workers produce each subtask's root tensors.
enum Program {
    /// The compiled branch, frontier and stem programs.
    Reuse(ReuseState),
    /// The full-replay oracle, with each bitstring's projector leaves from
    /// [`qtn_circuit::NetworkBuild::rebind_output`].
    Replay(Vec<Vec<(usize, DenseTensor<Complex64>)>>),
}

/// Everything the workers of one execution share.
struct Sweep {
    plan: Arc<SimulationPlan>,
    program: Program,
    /// Bitstrings in the batch: one partial accumulator each.
    batch: usize,
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
        let Program::Reuse(state) = &self.program else { return None };
        state.exec.has_stem().then(|| {
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
        let mut partials: Vec<DenseTensor<Complex64>> =
            (0..self.batch).map(|_| DenseTensor::zeros(self.output_indices.clone())).collect();
        let mut tally = SweepTally::default();
        let assignments = (worker..self.run_subtasks).step_by(self.workers);
        match &self.program {
            Program::Reuse(state) => {
                let io = StemInputs::new(plan, cache_of(plan)?, state);
                for assignment in assignments {
                    let mut merge = |b: usize, result: &DenseTensor<Complex64>| {
                        self.merge(&mut partials[b], result, assignment)
                    };
                    match ws.as_deref_mut() {
                        Some(ws) => state.exec.interpret(&io, ws, assignment, &mut tally, merge)?,
                        // No contraction depends on the slice assignment
                        // (empty slicing set): every bitstring's cached
                        // root tensor *is* its subtask result.
                        None => {
                            for b in 0..self.batch {
                                merge(b, &state.exec.cached_root(&io, b)?);
                            }
                        }
                    }
                }
            }
            Program::Replay(projectors) => {
                for assignment in assignments {
                    for (b, projectors) in projectors.iter().enumerate() {
                        let (result, flops) =
                            run_subtask(plan, projectors, assignment, &mut tally.gemm)?;
                        tally.flops += flops;
                        self.merge(&mut partials[b], &result, assignment);
                    }
                }
            }
        }
        Ok((partials, tally))
    }

    /// Merge a subtask result into the partial accumulator: stack over sliced
    /// open indices (write into the slot the assignment selects), sum otherwise.
    fn merge(
        &self,
        partial: &mut DenseTensor<Complex64>,
        result: &DenseTensor<Complex64>,
        assignment: usize,
    ) {
        let (sliced_open, sliced) = (&self.sliced_open, &self.plan.slicing.sliced);
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

/// The one driver: execute `plan` for every bitstring of the batch,
/// amortizing the slice-dependent work across it, and return one result per
/// bitstring, index-aligned with `bitstrings`.
///
/// The bits must already be valid for the plan (one entry per qubit, 0 or
/// 1 at every projected qubit); [`crate::CompiledCircuit`] checks them at
/// the API boundary. With [`ExecutorConfig::reuse`] enabled (the default),
/// branch tensors come from the plan-lifetime [`BranchCache`], frontier
/// tensors are contracted once per distinct dependent-bits key, and each
/// subtask contracts the StemPure prefix once and replays only the keyed
/// StemMixed suffix per bitstring. Results are **bit-identical** to a loop
/// of single executions and to the full-replay oracle, and — subtasks are
/// statically strided over `config.workers` logical workers and partials
/// reduced in worker order — across runs regardless of thread scheduling.
///
/// The [`ExecutionStats`] cover the whole batch, with
/// [`ExecutionStats::stem_pure_flops`],
/// [`ExecutionStats::stem_pure_flops_reused`] and
/// [`ExecutionStats::amplitudes_in_batch`] quantifying the amortization.
pub(crate) fn execute(
    pool: &WorkerPool,
    plan: &Arc<SimulationPlan>,
    bitstrings: &[&[u8]],
    config: &ExecutorConfig,
) -> Result<(Vec<DenseTensor<Complex64>>, ExecutionStats), Error> {
    if bitstrings.is_empty() {
        let stats = ExecutionStats { subtasks_total: plan.num_subtasks(), ..Default::default() };
        return Ok((Vec::new(), stats));
    }
    let start = Instant::now();
    let batch = bitstrings.len() as u64;
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

    let program = if config.reuse {
        Program::Reuse(prepare_reuse(plan, bitstrings)?)
    } else {
        let rebound = bitstrings.iter().map(|bits| plan.build.rebind_output(bits));
        Program::Replay(rebound.collect::<Result<_, _>>()?)
    };
    let sweep = Arc::new(Sweep {
        plan: Arc::clone(plan),
        program,
        batch: bitstrings.len(),
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
    if let Program::Reuse(state) = &sweep.program {
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
/// substitute the bitstring's projector for the leaf data, then slice away
/// every sliced edge the tensor carries, one edge at a time.
fn sliced_leaf_tensor(
    plan: &SimulationPlan,
    projectors: &[(usize, DenseTensor<Complex64>)],
    assignment: usize,
    vertex: usize,
) -> DenseTensor<Complex64> {
    let projector = projectors.iter().find(|(node, _)| *node == vertex);
    let mut t = projector.map_or(&plan.build.nodes[vertex].data, |(_, data)| data).clone();
    for (pos, &e) in plan.slicing.sliced.iter().enumerate() {
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
    projectors: &[(usize, DenseTensor<Complex64>)],
    assignment: usize,
    gemm: &mut GemmTally,
) -> Result<(DenseTensor<Complex64>, u64), Error> {
    // Slots indexed by tree-node id.
    let num_nodes = plan.tree.nodes().len();
    let mut slots: Vec<Option<DenseTensor<Complex64>>> = vec![None; num_nodes];
    let mut flops = 0u64;

    // Leaves: substitute the bitstring's projectors, slice away any sliced
    // edges.
    for (node_id, node) in plan.tree.nodes().iter().enumerate() {
        if let Some(vertex) = node.leaf_vertex {
            slots[node_id] = Some(sliced_leaf_tensor(plan, projectors, assignment, vertex));
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
