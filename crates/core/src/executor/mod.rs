//! The parallel sliced executor: a stem-only sweep over slice subtasks.
//!
//! Each of the `2^|S|` assignments of the sliced edges is an independent
//! subtask, and the subtask results are combined — *summed* over sliced
//! edges that are interior to the network (the two halves of a contracted
//! dimension) and *stacked* over sliced edges that are open outputs (the
//! paper's slice-then-stack treatment of the big output tensor).
//!
//! ## One program, three lifetimes
//!
//! The paper's central observation (§4.2) is that only the *stem* — the
//! dominant contraction spine — varies across slice assignments. The node
//! classification computed at plan time (see
//! [`qtn_tensornet::classify_nodes`]) sorts every contraction by its
//! lifetime, and the plan's one compiled `Program` (`program.rs`) lists
//! them in three runs, each writing to its lifetime's home:
//!
//! 1. **Branch** steps depend on no sliced edge and no output projector.
//!    They run **once per plan**, on the first reusing execution, into the
//!    plan-lifetime `BranchStore` shared by every execution and clone of
//!    the plan. A parameter rebind carries the entries outside its cone
//!    over, and the next build skips every step those entries own.
//! 2. **Frontier** steps depend on rebindable output projectors but on no
//!    sliced edge. They run **once per execution** — once per *distinct
//!    dependent-bits key* when the call carries several bitstrings
//!    (`batch.rs`) — into one per-execution arena.
//! 3. **Stem** steps depend on sliced edges. Only these run per subtask,
//!    by the interpreter in `stem.rs`, into the worker's pooled slots.
//!
//! The program is compiled once per plan from index sets alone — one
//! [`qtn_tensor::ContractionKernel`] per step, every operand resolved to an
//! unsliced leaf read in place or a tree node read from its class's home —
//! so a warm execution pays for its flops and a small fixed setup. The sum
//! of its static per-class bills, weighted by how often each run executes,
//! is exactly what an execution reports as [`ExecutionStats::flops`].
//!
//! The one entry point, `execute`, takes the output bitstrings
//! themselves: across bitstrings only the output projectors change, and
//! the program resolves a projector leaf to its qubit and reads
//! [`qtn_circuit::PROJECTOR_DATA`] at the bitstring's bit. A single
//! amplitude is a batch of one. One helper (`fan_out_and_reduce`) owns
//! worker fan-out (a one-worker sweep runs on the calling thread), panic
//! containment, buffer-pool check-out/check-in and the worker-order
//! reduction, and the interpreter picks its stem loop from the batch size
//! it observes:
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
//! [`qtn_tensor::contract_pair`], sharing no code with the program above
//! the tensor layer. It exists so tests and benchmarks have something to
//! be bit-identical **to**; results agree because every node's tensor is
//! produced by the same pairwise contractions in the same order on the
//! same kernels (`contract_pair` compiles the very
//! [`qtn_tensor::ContractionKernel`] a program step holds) — reuse only
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
mod program;
mod stats;
mod stem;
#[cfg(test)]
mod tests;
mod worker_pool;

pub(crate) use program::{BranchStore, Program};
pub use stats::ExecutionStats;
pub use worker_pool::WorkerPool;

use crate::error::Error;
use crate::planner::SimulationPlan;
use crate::pool::PoolCounters;
use batch::BatchKeys;
use program::Homes;
use qtn_tensor::{contract_pair, Complex64, ContractionSpec, DenseTensor, IndexId, IndexSet};
use stats::{Bill, Bills, SKIPPED};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;
use stem::{BufferSource, StemWorkspace};
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

/// A batch's bitstrings, copied back to back so every worker of a sweep
/// can read them.
struct Bitstrings {
    flat: Vec<u8>,
    count: usize,
    /// Bits per bitstring.
    len: usize,
}

impl Bitstrings {
    fn new(bitstrings: &[&[u8]]) -> Self {
        let len = bitstrings.first().map_or(0, |bits| bits.len());
        Self { flat: bitstrings.concat(), count: bitstrings.len(), len }
    }

    /// Bitstring `b`.
    fn get(&self, b: usize) -> &[u8] {
        &self.flat[b * self.len..][..self.len]
    }
}

/// A reusing execution's program and branch store, its batch, key tables
/// and frontier tensors.
struct ReuseState {
    program: Arc<Program>,
    store: Arc<BranchStore>,
    bits: Bitstrings,
    keys: BatchKeys,
    /// The frontier arena and each node's `(start, elements per key)` span.
    arena: Vec<Complex64>,
    spans: Vec<(usize, usize)>,
    /// What the frontier run executed (deduplicated across the batch).
    frontier: Bill,
}

impl ReuseState {
    /// Where the steps of this execution read their operands.
    fn homes<'a>(&'a self, plan: &'a SimulationPlan) -> Homes<'a> {
        let (branch, frontier, spans) = (&self.store.entries[..], &self.arena[..], &self.spans[..]);
        Homes { plan, branch, frontier, spans, keys: &self.keys, bits: &self.bits }
    }
}

/// Compile the plan's program and build its branch store, each once per
/// plan, then run this execution's frontier. `OnceLock::get_or_init`
/// blocks concurrent initializers, so even racing first executions compile
/// and build exactly once.
fn prepare_reuse(plan: &SimulationPlan, bitstrings: &[&[u8]]) -> Result<ReuseState, Error> {
    let program = plan.program.get_or_init(|| Program::compile(plan).map(Arc::new)).clone()?;
    let store = plan.branch.get_or_init(|| program.build_branch(plan).map(Arc::new)).clone()?;
    let keys = BatchKeys::build(&program.keys, bitstrings);
    let bits = Bitstrings::new(bitstrings);
    let (arena, spans, frontier) = program.run_frontier(plan, &store, &keys, &bits)?;
    Ok(ReuseState { program, store, bits, keys, arena, spans, frontier })
}

/// How a sweep's workers produce each subtask's root tensors.
enum Mode {
    /// The plan's compiled program.
    Reuse(ReuseState),
    /// The full-replay oracle, with each bitstring's projector leaves from
    /// [`qtn_circuit::NetworkBuild::rebind_output`].
    Replay(Vec<Vec<(usize, DenseTensor<Complex64>)>>),
}

/// Everything the workers of one execution share.
struct Sweep {
    plan: Arc<SimulationPlan>,
    mode: Mode,
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
type WorkerPartial = (Vec<DenseTensor<Complex64>>, Bills);

impl Sweep {
    /// The worker's interpreter workspace, if there is a stem to interpret.
    /// A pooled worker's buffer pool persists on the plan across
    /// executions, so only the very first execution of a plan pays any
    /// allocation at all.
    fn workspace(&self, worker: usize) -> Option<StemWorkspace> {
        let Mode::Reuse(state) = &self.mode else { return None };
        state.program.root_class.is_stem().then(|| {
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
        let mut bills = Bills::default();
        let assignments = (worker..self.run_subtasks).step_by(self.workers);
        match &self.mode {
            Mode::Reuse(state) => {
                let (program, io) = (&state.program, state.homes(plan));
                for assignment in assignments {
                    let mut merge = |b: usize, result: &DenseTensor<Complex64>| {
                        self.merge(&mut partials[b], result, assignment)
                    };
                    match ws.as_deref_mut() {
                        Some(ws) => program.interpret(&io, ws, assignment, &mut bills, merge)?,
                        // No contraction depends on the slice assignment
                        // (empty slicing set): every bitstring's root
                        // tensor *is* its subtask result.
                        None => {
                            for b in 0..self.batch {
                                let root = io.read(program.root_operand, &[], b)?.to_vec();
                                merge(
                                    b,
                                    &DenseTensor::from_data(program.root_indices.clone(), root),
                                );
                            }
                        }
                    }
                }
            }
            Mode::Replay(projectors) => {
                for assignment in assignments {
                    for (b, projectors) in projectors.iter().enumerate() {
                        let result = run_subtask(plan, projectors, assignment, &mut bills)?;
                        self.merge(&mut partials[b], &result, assignment);
                    }
                }
            }
        }
        Ok((partials, bills))
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
    let ((mut results, mut bills), mut counters) =
        outcomes.next().ok_or_else(|| Error::Internal("missing worker partial".into()))?;
    for ((partials, worker_bills), worker_counters) in outcomes {
        for (acc, partial) in results.iter_mut().zip(partials.iter()) {
            acc.accumulate(partial);
        }
        bills.iter_mut().zip(&worker_bills).for_each(|(bill, worker)| bill.add(worker));
        counters.merge(&worker_counters);
    }
    Ok(((results, bills), counters))
}

/// The one driver: execute `plan` for every bitstring of the batch,
/// amortizing the slice-dependent work across it, and return one result per
/// bitstring, index-aligned with `bitstrings`.
///
/// The bits must already be valid for the plan (one entry per qubit, 0 or
/// 1 at every projected qubit); [`crate::CompiledCircuit`] checks them at
/// the API boundary. With [`ExecutorConfig::reuse`] enabled (the default),
/// branch tensors come from the plan-lifetime [`BranchStore`], frontier
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

    let mode = if config.reuse {
        Mode::Reuse(prepare_reuse(plan, bitstrings)?)
    } else {
        let rebound = bitstrings.iter().map(|bits| plan.build.rebind_output(bits));
        Mode::Replay(rebound.collect::<Result<_, _>>()?)
    };
    let sweep = Arc::new(Sweep {
        plan: Arc::clone(plan),
        mode,
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
    let ((results, bills), pool_counters) = fan_out_and_reduce(pool, &sweep)?;
    let sweep_wall = sweep_start.elapsed().as_secs_f64();

    let runs = run_subtasks as u64;
    let stem_phase =
        if batch == 1 { &plan.memory_plan.stem } else { &plan.memory_plan.batched_stem };
    // The stem sweep's bill, then (with reuse) the frontier's and the branch
    // build's on top.
    let mut total = Bill::default();
    bills[..SKIPPED].iter().for_each(|bill| total.add(bill));
    let mut stats = ExecutionStats {
        subtasks_run: run_subtasks,
        subtasks_total: total_subtasks,
        stem_flops: total.flops,
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
    if let Mode::Reuse(state) = &sweep.mode {
        let store = &state.store;
        // The first successful execution after a build reports it.
        if store.unreported.swap(false, Ordering::AcqRel) {
            stats.branch_flops = store.bill.flops;
            stats.branch_contractions = store.bill.contractions;
            stats.params_rebound = store.params_rebound;
            stats.branch_entries_invalidated = store.entries_invalidated;
            stats.branch_flops_survived_rebind = store.survived_flops;
            total.add(&store.bill);
        }
        total.add(&state.frontier);
        stats.frontier_flops = state.frontier.flops;
        stats.frontier_contractions = state.frontier.contractions;
        let [_, _, pure, mixed, skipped] = bills;
        // A loop of single executions would replay the StemPure prefix once
        // per subtask *per bitstring*; the batch ran it once per subtask.
        stats.stem_pure_flops = pure.flops;
        stats.stem_pure_flops_reused = pure.flops.saturating_mul(batch - 1);
        stats.stem_pure_contractions = pure.contractions;
        stats.stem_mixed_flops = mixed.flops;
        stats.stem_mixed_flops_reused = skipped.flops;
        stats.stem_mixed_contractions = mixed.contractions;
        stats.stem_mixed_contractions_deduped = skipped.contractions;
        stats.stem_mixed_distinct_keys = state.keys.distinct_contraction_keys;
        // A full (reuse-off) replay would pay the whole branch bill (cold,
        // even after a rebind carried entries over) plus one
        // *undeduplicated* frontier run in every subtask of every
        // bitstring — not the (smaller) deduped total this call executed.
        let [branch, frontier, ..] = state.program.bills;
        stats.branch_flops_reused = (branch.flops + frontier.flops)
            .saturating_mul(batch)
            .saturating_mul(runs)
            .saturating_sub(state.frontier.flops)
            .saturating_sub(stats.branch_flops);
    }
    stats.apply_bill(&total);
    Ok((results, stats))
}

/// The full-replay oracle (`reuse: false`): execute one slice assignment by
/// slicing every leaf and replaying the whole tree schedule through
/// per-call [`contract_pair`]. Deliberately shares nothing with the
/// compiled program but the tensor-layer kernels. Returns the subtask's
/// root tensor, and bills each contraction under its output's class.
fn run_subtask(
    plan: &SimulationPlan,
    projectors: &[(usize, DenseTensor<Complex64>)],
    assignment: usize,
    bills: &mut Bills,
) -> Result<DenseTensor<Complex64>, Error> {
    // Slots indexed by tree-node id.
    let num_nodes = plan.tree.nodes().len();
    let mut slots: Vec<Option<DenseTensor<Complex64>>> = vec![None; num_nodes];

    // Leaves: substitute the bitstring's projector for the leaf data, then
    // slice away every sliced edge the tensor carries, one edge at a time.
    for (node_id, node) in plan.tree.nodes().iter().enumerate() {
        let Some(vertex) = node.leaf_vertex else { continue };
        let projector = projectors.iter().find(|(node, _)| *node == vertex);
        let mut t = projector.map_or(&plan.build.nodes[vertex].data, |(_, data)| data).clone();
        for (pos, &e) in plan.slicing.sliced.iter().enumerate() {
            if t.indices().contains(e) {
                t = t.slice_index(e, ((assignment >> pos) & 1) as u8);
            }
        }
        slots[node_id] = Some(t);
    }

    // Replay the schedule.
    for (l, r, out) in plan.tree.schedule() {
        let a =
            slots[l].take().ok_or_else(|| Error::Internal(format!("left operand {l} missing")))?;
        let b =
            slots[r].take().ok_or_else(|| Error::Internal(format!("right operand {r} missing")))?;
        let spec = ContractionSpec::new(a.indices(), b.indices());
        bills[plan.classification.class(out) as usize].record_spec(&spec);
        slots[out] = Some(contract_pair(&a, &b));
    }
    slots[plan.tree.root()].take().ok_or_else(|| Error::Internal("root tensor missing".into()))
}
