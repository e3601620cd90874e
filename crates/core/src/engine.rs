//! The compile-once / execute-many engine.
//!
//! The paper's workload plans a contraction **once** and then sweeps millions
//! of slice subtasks and correlated samples over it. [`Engine`] matches that
//! cost model: [`Engine::compile`] runs the expensive planning pipeline (path
//! search + lifetime slicing + SA refinement) and returns a
//! [`CompiledCircuit`]; every execute on the compiled circuit only *rebinds*
//! the output-projector leaf tensors (see
//! [`qtn_circuit::NetworkBuild::rebind_output`]) and replays the plan on the
//! engine's persistent worker pool — no re-planning, no thread spawning.
//!
//! Plans are memoized in an LRU cache keyed by circuit fingerprint, planner
//! configuration and output *shape* (`Amplitude` vs the set of open qubits):
//! because only the projector leaves depend on the concrete bits, one cached
//! plan serves every bitstring of that shape.
//!
//! On top of plan reuse sits **partial-contraction reuse** (the paper's
//! stem-only sweep, §4.2): contractions that depend on neither a sliced
//! edge nor an output projector are performed once in the plan's lifetime
//! and memoized in its branch cache; contractions that depend only on the
//! projectors are redone once per execute (they absorb the rebound bits);
//! and only the stem — the slice-dependent spine — is replayed for each of
//! the `2^|S|` subtasks. Rebinding never invalidates the branch cache (the
//! cached tensors are projector-independent by construction), which is why
//! the first execute of a compiled circuit typically does measurably more
//! work than every later one. [`ExecutionReport::branch_cache_hit`] and
//! [`ExecutionStats::branch_flops_reused`] make the effect observable.
//!
//! ```
//! use qtnsim_core::{Engine, PlannerConfig};
//! use qtn_circuit::{Circuit, Gate, OutputSpec};
//!
//! let mut circuit = Circuit::new(2);
//! circuit.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
//! let engine = Engine::new();
//! let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0, 0])).unwrap();
//! let (a00, first) = compiled.execute_amplitude(&[0, 0]).unwrap();
//! let (a11, report) = compiled.execute_amplitude(&[1, 1]).unwrap();
//! assert!((a00 - a11).abs() < 1e-12);
//! assert!(report.stats.subtasks_run >= 1);
//! assert_eq!(engine.plans_built(), 1); // planned once, executed twice
//! assert!(!first.branch_cache_hit); // the first execute builds the branch cache…
//! assert!(report.branch_cache_hit); // …every later execute reuses it
//! assert_eq!(report.stats.branch_contractions, 0);
//! ```

use crate::error::Error;
use crate::executor::{
    execute_on_pool, BranchSeed, ExecutionStats, ExecutorConfig, LeafOverrides, WorkerPool,
};
use crate::planner::{plan_simulation, PlannerConfig, SimulationPlan};
use crate::sampling::sample_bitstrings;
use qtn_circuit::{Circuit, OutputSpec, ParamSlot};
use qtn_tensor::{Complex64, DenseTensor, IndexSet};
use qtn_tensornet::ordinal_words;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What one execution did, returned alongside every result. Replaces the old
/// `last_stats` mutable side-channel, so executes take `&self` and can run
/// concurrently.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Executor measurements (subtasks, per-phase flops, wall time, workers).
    pub stats: ExecutionStats,
    /// Whether the plan behind this execution came from the engine's cache.
    pub plan_cache_hit: bool,
    /// Whether the plan-lifetime branch cache already existed when this
    /// execution started. With reuse enabled (the default), it is `false`
    /// only until some execution builds the cache — typically just the
    /// first — and `true` afterwards. Note the cache belongs to the *plan*,
    /// which engines share through the plan cache and across
    /// [`Engine::with_executor`] reconfigurations: an execution with reuse
    /// disabled never builds the cache itself, but can still report `true`
    /// if another execution of the shared plan built it.
    pub branch_cache_hit: bool,
}

/// The output *shape* a circuit was compiled for: the part of the
/// [`OutputSpec`] that determines network structure. Concrete bit values are
/// rebound per execution and deliberately not part of the shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OutputShape {
    /// A single closed amplitude; any bitstring executes on the same plan.
    Amplitude,
    /// A batch over the given open qubits (sorted); any `fixed` projection
    /// of the remaining qubits executes on the same plan.
    Open(Vec<usize>),
}

impl OutputShape {
    fn of(spec: &OutputSpec) -> Self {
        match spec {
            OutputSpec::Amplitude(_) => OutputShape::Amplitude,
            OutputSpec::Open { open, .. } => {
                let mut open = open.clone();
                open.sort_unstable();
                OutputShape::Open(open)
            }
        }
    }

    fn name(&self) -> &'static str {
        match self {
            OutputShape::Amplitude => "amplitude",
            OutputShape::Open(_) => "open-batch",
        }
    }
}

#[derive(PartialEq, Eq, Hash, Clone)]
struct PlanKey {
    /// [`Circuit::fingerprint`] of the compiled circuit.
    fingerprint: u64,
    /// Hash of the [`PlannerConfig`] the plan was built under — two engines
    /// sharing one cache but configured differently never trade plans.
    planner: u64,
    shape: OutputShape,
}

/// A tiny LRU: most-recently-used entry at the front.
struct PlanCache {
    capacity: usize,
    entries: Vec<(PlanKey, Arc<SimulationPlan>)>,
}

impl PlanCache {
    fn get(&mut self, key: &PlanKey) -> Option<Arc<SimulationPlan>> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        let plan = Arc::clone(&entry.1);
        self.entries.insert(0, entry);
        Some(plan)
    }

    /// Insert (or refresh) an entry; returns how many entries capacity
    /// pressure evicted. Replacing an existing entry for the same key is a
    /// refresh, not an eviction.
    fn insert(&mut self, key: PlanKey, plan: Arc<SimulationPlan>) -> usize {
        self.entries.retain(|(k, _)| k != &key);
        self.entries.insert(0, (key, plan));
        let evicted = self.entries.len().saturating_sub(self.capacity);
        self.entries.truncate(self.capacity);
        evicted
    }
}

/// Plan-cache observability counters, as reported by
/// [`Engine::cache_stats`]. All counters are cumulative over the engine's
/// lifetime and shared across clones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Compiles served from the plan cache without replanning.
    pub hits: usize,
    /// Compiles that had to run the full planning pipeline.
    pub misses: usize,
    /// Plans dropped from the cache by capacity pressure (LRU eviction or a
    /// capacity shrink).
    pub evictions: usize,
}

impl CacheStats {
    /// Render the counters as a JSON object (see [`crate::json`]).
    pub fn to_json(&self) -> String {
        let mut obj = crate::json::JsonObject::new();
        obj.field_u64("plan_cache_hits", self.hits as u64)
            .field_u64("plan_cache_misses", self.misses as u64)
            .field_u64("plan_cache_evictions", self.evictions as u64);
        obj.finish()
    }
}

/// The cache/counter state of an engine, shared across clones and compiled
/// circuits. Kept separate from the worker pool so reconfiguring the pool
/// never discards cached plans or resets counters.
///
/// One exact LRU behind one mutex: `compile` holds the lock only for the
/// short `Vec` scan of a lookup or an insert and plans outside it, so
/// concurrent compiles of different circuits never wait on each other's
/// planning.
struct EngineState {
    cache: Mutex<PlanCache>,
    /// Compiles that missed the cache and ran the planner — the cache's
    /// miss count and [`Engine::plans_built`] at once.
    plans_built: AtomicUsize,
    cache_hits: AtomicUsize,
    cache_evictions: AtomicUsize,
}

/// A compile-once / execute-many simulation engine.
///
/// Owns a persistent [`WorkerPool`] and an LRU plan cache. Cloning an engine
/// is cheap and shares both. See the [module docs](self) for an example.
#[derive(Clone)]
pub struct Engine {
    planner: PlannerConfig,
    /// [`planner_fingerprint`] of `planner`, folded into every cache key.
    planner_fingerprint: u64,
    executor: ExecutorConfig,
    pool: Arc<WorkerPool>,
    state: Arc<EngineState>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("planner", &self.planner)
            .field("executor", &self.executor)
            .field("pool", &self.pool)
            .field("plans_built", &self.plans_built())
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

/// Default number of plans the engine keeps cached.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 16;

/// FNV-1a over a byte stream; used to fold configurations into cache keys.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for byte in bytes {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A hash of a planner configuration, folded into every plan-cache key so
/// plans built under one configuration are never served to another.
/// Computed once per configuration, not per compile.
fn planner_fingerprint(planner: &PlannerConfig) -> u64 {
    // PlannerConfig's Debug output covers every field (f64s print with
    // round-trip precision), making it a faithful value fingerprint.
    // The memory budget is deliberately excluded: it gates `compile`
    // *after* planning and never influences plan construction, so one
    // cached plan serves every budget (each compile re-checks it) —
    // probing budgets or raising one after a rejection never replans.
    let canonical = PlannerConfig { memory_budget_bytes: None, ..planner.clone() };
    fnv1a(format!("{canonical:?}").into_bytes())
}

/// The one bitstring rule of the API boundary: `bits` covers all
/// `num_qubits` qubits and every bit is 0 or 1. Entries at `open`
/// (non-projected) positions are documented as ignored, so they are exempt
/// from bit-value validation.
fn check_bits(bits: &[u8], num_qubits: usize, open: &[usize]) -> Result<(), Error> {
    if bits.len() != num_qubits {
        return Err(Error::BitstringLength { expected: num_qubits, got: bits.len() });
    }
    for (qubit, &value) in bits.iter().enumerate() {
        if value > 1 && !open.contains(&qubit) {
            return Err(Error::InvalidBit { qubit, value });
        }
    }
    Ok(())
}

impl Engine {
    /// Create an engine with default planner/executor configuration.
    pub fn new() -> Self {
        Self::with_configs(PlannerConfig::default(), ExecutorConfig::default())
    }

    /// Create an engine with explicit configurations.
    pub fn with_configs(planner: PlannerConfig, executor: ExecutorConfig) -> Self {
        let state = Arc::new(EngineState {
            cache: Mutex::new(PlanCache {
                capacity: DEFAULT_PLAN_CACHE_CAPACITY,
                entries: Vec::new(),
            }),
            plans_built: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            cache_evictions: AtomicUsize::new(0),
        });
        Self {
            planner_fingerprint: planner_fingerprint(&planner),
            planner,
            executor: executor.clone(),
            pool: Arc::new(WorkerPool::new(executor.workers)),
            state,
        }
    }

    /// Replace the planner configuration (builder style). Cached plans are
    /// keyed by configuration, so entries built under the old configuration
    /// remain in the cache (for clones still using it) but will never be
    /// served to this engine.
    pub fn with_planner(mut self, planner: PlannerConfig) -> Self {
        self.planner_fingerprint = planner_fingerprint(&planner);
        self.planner = planner;
        self
    }

    /// Replace the executor configuration (builder style). Rebuilds the
    /// worker pool if the thread count changed; the plan cache and the
    /// planning counters are untouched (plans are worker-count independent).
    /// Previously compiled circuits keep the pool they were compiled with.
    pub fn with_executor(mut self, executor: ExecutorConfig) -> Self {
        if executor.workers != self.executor.workers {
            self.pool = Arc::new(WorkerPool::new(executor.workers));
        }
        self.executor = executor;
        self
    }

    /// Set how many plans the LRU cache retains (builder style); shrinking
    /// below the current population evicts least-recently-used entries and
    /// counts them in [`cache_stats`](Self::cache_stats).
    #[cfg(test)]
    pub(crate) fn with_cache_capacity(self, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        {
            let mut cache = crate::sync::lock_unpoisoned(&self.state.cache);
            cache.capacity = capacity;
            let evicted = cache.entries.len().saturating_sub(capacity);
            cache.entries.truncate(capacity);
            self.state.cache_evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        self
    }

    /// The planner configuration.
    pub fn planner(&self) -> &PlannerConfig {
        &self.planner
    }

    /// The executor configuration.
    pub fn executor(&self) -> &ExecutorConfig {
        &self.executor
    }

    /// How many times the full planning pipeline has run. Plan-cache hits do
    /// not increment this — the counter the reuse tests assert on.
    pub fn plans_built(&self) -> usize {
        self.state.plans_built.load(Ordering::Relaxed)
    }

    /// Cumulative plan-cache observability counters
    /// (hits / misses / evictions), shared across engine clones — the
    /// numbers a serving layer exports as cache metrics.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.state.cache_hits.load(Ordering::Relaxed),
            misses: self.plans_built(),
            evictions: self.state.cache_evictions.load(Ordering::Relaxed),
        }
    }

    /// Validate an output spec against a circuit at the API boundary.
    fn validate(circuit: &Circuit, output: &OutputSpec) -> Result<(), Error> {
        let n = circuit.num_qubits();
        match output {
            OutputSpec::Amplitude(bits) => check_bits(bits, n, &[]),
            OutputSpec::Open { fixed, open } => {
                let mut seen = vec![false; n];
                for &q in open {
                    if q >= n {
                        return Err(Error::OpenQubitOutOfRange { qubit: q, num_qubits: n });
                    }
                    if seen[q] {
                        return Err(Error::DuplicateOpenQubit { qubit: q });
                    }
                    seen[q] = true;
                }
                check_bits(fixed, n, open)
            }
        }
    }

    /// Compile a circuit for an output shape: plan it (or fetch the plan
    /// from the cache) and bundle the plan with this engine's worker pool
    /// into a [`CompiledCircuit`].
    ///
    /// The concrete bits inside `output` only serve as the template the plan
    /// is built with; every execute method rebinds them.
    ///
    /// ```
    /// use qtnsim_core::Engine;
    /// use qtn_circuit::{Circuit, Gate, OutputSpec};
    ///
    /// let mut circuit = Circuit::new(2);
    /// circuit.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
    /// let engine = Engine::new();
    /// let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0, 0]))?;
    /// // Same circuit, same shape, different bits: served from the cache.
    /// let again = engine.compile(&circuit, &OutputSpec::Amplitude(vec![1, 1]))?;
    /// assert!(again.plan_cache_hit());
    /// assert_eq!(engine.plans_built(), 1);
    /// # Ok::<(), qtnsim_core::Error>(())
    /// ```
    pub fn compile(
        &self,
        circuit: &Circuit,
        output: &OutputSpec,
    ) -> Result<CompiledCircuit, Error> {
        Self::validate(circuit, output)?;
        let key = PlanKey {
            fingerprint: circuit.fingerprint(),
            planner: self.planner_fingerprint,
            shape: OutputShape::of(output),
        };

        // A poisoned cache recovers (`lock_unpoisoned`): the LRU map stays
        // consistent across an unwind, so a panic elsewhere must not wedge
        // every later compile.
        let cached = crate::sync::lock_unpoisoned(&self.state.cache).get(&key);
        let (plan, cache_hit) = match cached {
            Some(plan) => {
                self.state.cache_hits.fetch_add(1, Ordering::Relaxed);
                (plan, true)
            }
            None => {
                let plan = Arc::new(plan_simulation(circuit, output, &self.planner));
                self.state.plans_built.fetch_add(1, Ordering::Relaxed);
                let evicted = crate::sync::lock_unpoisoned(&self.state.cache)
                    .insert(key.clone(), Arc::clone(&plan));
                self.state.cache_evictions.fetch_add(evicted, Ordering::Relaxed);
                (plan, false)
            }
        };

        // Refuse plans the kernels cannot address at all, then (the lifetime
        // analysis gives the slicing's "memory budget" a real number to be
        // checked against) plans whose predicted per-worker peak exceeds
        // the configured byte budget — under a single execution or a
        // batched one, whichever holds more, since a compiled circuit may
        // run either. Rejected plans stay cached (neither check is part of
        // the cache key), so retrying with a raised budget is a cache hit,
        // not a replan.
        let memory = &plan.memory_plan;
        let rank = [&memory.branch, &memory.frontier, &memory.stem, &memory.batched_stem]
            .iter()
            .flat_map(|phase| phase.slot_ranks())
            .max()
            .copied()
            .unwrap_or(0);
        if rank > qtn_tensor::MAX_RANK {
            return Err(Error::TensorTooLarge { rank, max: qtn_tensor::MAX_RANK });
        }
        if let Some(budget_bytes) = self.planner.memory_budget_bytes {
            let predicted_bytes =
                plan.predicted_peak_bytes().max(plan.predicted_batched_peak_bytes());
            if predicted_bytes > budget_bytes {
                return Err(Error::MemoryBudgetExceeded { predicted_bytes, budget_bytes });
            }
        }

        Ok(CompiledCircuit {
            plan,
            pool: Arc::clone(&self.pool),
            executor: self.executor.clone(),
            shape: key.shape,
            num_qubits: circuit.num_qubits(),
            fingerprint: key.fingerprint,
            plan_cache_hit: cache_hit,
        })
    }

    /// Compile `circuit` for the open qubits (riding the plan cache) and
    /// draw `count` correlated samples with the remaining qubits projected
    /// onto `fixed` — the one-call sampling entry.
    ///
    /// All `2^|open|` amplitudes come from **one** batched execution of the
    /// compiled plan ([`CompiledCircuit::execute_batch`]): the stem sweep
    /// runs once for the whole distribution, never once per sampled
    /// bitstring. Sampling is deterministic in `seed`.
    pub fn sample_bitstrings(
        &self,
        circuit: &Circuit,
        fixed: &[u8],
        open: &[usize],
        count: usize,
        seed: u64,
    ) -> Result<(Vec<Vec<u8>>, ExecutionReport), Error> {
        let spec = OutputSpec::Open { fixed: fixed.to_vec(), open: open.to_vec() };
        let compiled = self.compile(circuit, &spec)?;
        compiled.sample(fixed, count, seed)
    }
}

/// A circuit compiled for one output shape: a [`SimulationPlan`] plus cheap
/// output rebinding and a handle to the engine's persistent worker pool.
///
/// All execute methods take `&self` and are safe to call concurrently; the
/// floating-point result of each method is bit-identical across repeated
/// calls (the executor reduces partials in a schedule-independent order).
#[derive(Clone)]
pub struct CompiledCircuit {
    plan: Arc<SimulationPlan>,
    pool: Arc<WorkerPool>,
    executor: ExecutorConfig,
    shape: OutputShape,
    num_qubits: usize,
    fingerprint: u64,
    plan_cache_hit: bool,
}

impl std::fmt::Debug for CompiledCircuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledCircuit")
            .field("shape", &self.shape)
            .field("num_qubits", &self.num_qubits)
            .field("subtasks", &self.plan.num_subtasks())
            .field("log_cost", &self.plan.log_cost)
            .field("plan_cache_hit", &self.plan_cache_hit)
            .finish()
    }
}

impl CompiledCircuit {
    /// The underlying simulation plan (complexity, slicing set, overhead).
    pub fn plan(&self) -> &SimulationPlan {
        &self.plan
    }

    /// The output shape this circuit was compiled for.
    pub fn shape(&self) -> &OutputShape {
        &self.shape
    }

    /// Number of qubits of the source circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The [`Circuit::fingerprint`] this circuit was compiled from — part of
    /// the engine's plan-cache key, and the key a serving layer
    /// coalesces concurrent requests under: two compiled circuits with equal
    /// fingerprints and shapes share one plan, so their amplitude requests
    /// can ride one batched execution.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether compilation was served from the engine's plan cache.
    pub fn plan_cache_hit(&self) -> bool {
        self.plan_cache_hit
    }

    /// The rebindable parameter slots of the compiled circuit — one per
    /// rotation-gate angle, in circuit order, with canonical names like
    /// `g3:rz[1].theta` (see [`qtn_circuit::NetworkBuild::param_slots`]).
    /// Slot *indices* are what [`rebind_parameters`](Self::rebind_parameters)
    /// takes.
    pub fn param_slots(&self) -> &[ParamSlot] {
        self.plan.build.param_slots()
    }

    /// Rebind gate parameters **without replanning** — the third
    /// compile-once axis, next to output bits and slices: a parameter sweep
    /// compiles the circuit once and calls this between executions, instead
    /// of paying the full planning pipeline per angle.
    ///
    /// Each `(slot, value)` update regenerates the slot's gate-leaf tensor
    /// in place (shape-preserving, so the memoized stem compile and the
    /// buffer pools survive untouched) and the plan-lifetime branch cache
    /// is invalidated **cone-scoped**: only the cached entries whose
    /// subtree contains a rebound leaf are dropped and rebuilt by the next
    /// execution; every entry outside the cone is carried over verbatim.
    /// Results are bit-identical to compiling fresh at the new angles, and
    /// [`ExecutionStats::params_rebound`],
    /// [`ExecutionStats::branch_entries_invalidated`] and
    /// [`ExecutionStats::branch_flops_survived_rebind`] on the next execute
    /// quantify the cone.
    ///
    /// The call is atomic: on any error (unknown slot, non-finite angle)
    /// the compiled circuit — leaf tensors and caches alike — is left
    /// exactly as it was. An empty update set is a no-op that keeps every
    /// cache. [`fingerprint`](Self::fingerprint) keeps reporting the
    /// compile-time circuit's fingerprint; a rebound circuit is a private
    /// descendant of that plan, not a plan-cache citizen.
    ///
    /// ```
    /// use qtnsim_core::Engine;
    /// use qtn_circuit::{Circuit, Gate, OutputSpec};
    ///
    /// let mut circuit = Circuit::new(2);
    /// circuit.push1(Gate::H, 0).push1(Gate::Rz(0.3), 1).push2(Gate::Cnot, 0, 1);
    /// let engine = Engine::new();
    /// let mut compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0, 0]))?;
    /// assert_eq!(compiled.param_slots().len(), 1); // the Rz angle
    /// compiled.rebind_parameters(&[(0, 1.2)])?;
    /// let (amp, _) = compiled.execute_amplitude(&[0, 0])?;
    /// assert_eq!(engine.plans_built(), 1); // swept, never replanned
    /// # let mut fresh = Circuit::new(2);
    /// # fresh.push1(Gate::H, 0).push1(Gate::Rz(1.2), 1).push2(Gate::Cnot, 0, 1);
    /// # let direct = Engine::new().compile(&fresh, &OutputSpec::Amplitude(vec![0, 0]))?;
    /// # assert_eq!(amp, direct.execute_amplitude(&[0, 0])?.0);
    /// # Ok::<(), qtnsim_core::Error>(())
    /// ```
    pub fn rebind_parameters(&mut self, updates: &[(usize, f64)]) -> Result<(), Error> {
        if updates.is_empty() {
            return Ok(());
        }
        // Work on a private clone: the engine's plan cache (and every other
        // CompiledCircuit) keeps the original plan with the original
        // angles, and an error below discards the clone untouched.
        let mut plan = (*self.plan).clone();
        let touched = plan.build.rebind_parameters(updates)?;

        // The invalidation cone: a kept branch entry dies exactly when its
        // parameter dependency mask intersects the rebound leaf set.
        let masks = plan.classification.param_masks();
        let words = ordinal_words(masks.num_leaves(), &touched);
        let in_cone = |root: usize| masks.intersects(root, &words);

        // Stage the survivors on the clone: from the built cache when one
        // exists, else from the seed an earlier (not yet executed) rebind
        // staged — stacked rebinds accumulate their accounting.
        let mut seed = BranchSeed::default();
        match self.plan.branch_cache.get() {
            Some(Ok(cache)) => {
                for &root in plan.classification.branch_keep() {
                    if in_cone(root) {
                        seed.entries_invalidated += 1;
                        continue;
                    }
                    let tensor = cache.tensor(root).ok_or_else(|| {
                        Error::Internal(format!("branch root {root} missing from cache"))
                    })?;
                    let (flops, contractions) = cache.entry_cost(root).unwrap_or((0, 0));
                    seed.surviving.insert(root, (tensor.clone(), flops, contractions));
                }
                seed.params_rebound = updates.len() as u64;
            }
            _ => {
                if let Some(prior) = &self.plan.branch_seed {
                    seed.entries_invalidated = prior.entries_invalidated;
                    seed.params_rebound = prior.params_rebound;
                    for (&root, entry) in &prior.surviving {
                        if in_cone(root) {
                            seed.entries_invalidated += 1;
                        } else {
                            seed.surviving.insert(root, entry.clone());
                        }
                    }
                }
                seed.params_rebound += updates.len() as u64;
            }
        }
        plan.branch_cache = Arc::new(OnceLock::new());
        plan.branch_seed = Some(Arc::new(seed));
        self.plan = Arc::new(plan);
        Ok(())
    }

    fn validate_bits(&self, bits: &[u8]) -> Result<(), Error> {
        let open: &[usize] = match &self.shape {
            OutputShape::Amplitude => &[],
            OutputShape::Open(open) => open,
        };
        check_bits(bits, self.num_qubits, open)
    }

    fn execute_rebound(
        &self,
        bits: &[u8],
    ) -> Result<(DenseTensor<Complex64>, ExecutionReport), Error> {
        self.validate_bits(bits)?;
        let overrides: LeafOverrides = self.plan.build.rebind_output(bits)?.into_iter().collect();
        let branch_cache_hit = self.plan.branch_cache_built();
        let (result, stats) =
            execute_on_pool(&self.pool, &self.plan, &Arc::new(overrides), &self.executor)?;
        Ok((
            result,
            ExecutionReport { stats, plan_cache_hit: self.plan_cache_hit, branch_cache_hit },
        ))
    }

    /// Compute the amplitude ⟨bits|C|0…0⟩. Requires an
    /// [`OutputShape::Amplitude`] compilation; any bitstring executes on the
    /// same plan — only the output projectors are rebound, and branch
    /// tensors cached by earlier executions are reused.
    ///
    /// ```
    /// use qtnsim_core::Engine;
    /// use qtn_circuit::{Circuit, Gate, OutputSpec};
    ///
    /// let mut circuit = Circuit::new(2);
    /// circuit.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
    /// let compiled = Engine::new().compile(&circuit, &OutputSpec::Amplitude(vec![0, 0]))?;
    /// let (amp, report) = compiled.execute_amplitude(&[1, 1])?;
    /// assert!((amp.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-12); // Bell state
    /// assert_eq!(report.stats.subtasks_run, report.stats.subtasks_total);
    /// # Ok::<(), qtnsim_core::Error>(())
    /// ```
    pub fn execute_amplitude(&self, bits: &[u8]) -> Result<(Complex64, ExecutionReport), Error> {
        if self.shape != OutputShape::Amplitude {
            return Err(Error::OutputShapeMismatch {
                compiled: self.shape.name(),
                requested: "amplitude",
            });
        }
        let (result, report) = self.execute_rebound(bits)?;
        Ok((result.scalar_value(), report))
    }

    /// Compute the amplitudes ⟨bits|C|0…0⟩ of a whole batch of bitstrings
    /// in **one** execution, amortizing the slice sweep across the batch.
    /// Requires an [`OutputShape::Amplitude`] compilation.
    ///
    /// A loop of [`execute_amplitude`](Self::execute_amplitude) calls
    /// replays the entire slice-dependent stem once per bitstring. This
    /// method contracts each subtask's projector-independent `StemPure`
    /// prefix **once per slice assignment** and replays only the
    /// `StemMixed` suffix (plus one frontier build) per bitstring — the
    /// XEB-style many-amplitudes workload of the paper. The returned
    /// amplitudes are **bit-identical** to that loop, in the input order;
    /// [`ExecutionStats::stem_pure_flops_reused`] and
    /// [`ExecutionStats::amplitudes_in_batch`] in the report quantify the
    /// amortization.
    ///
    /// ```
    /// use qtnsim_core::Engine;
    /// use qtn_circuit::{Circuit, Gate, OutputSpec};
    ///
    /// let mut circuit = Circuit::new(2);
    /// circuit.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
    /// let compiled = Engine::new().compile(&circuit, &OutputSpec::Amplitude(vec![0, 0]))?;
    /// let batch: Vec<&[u8]> = vec![&[0, 0], &[0, 1], &[1, 1]];
    /// let (amps, report) = compiled.execute_amplitudes(&batch)?;
    /// assert_eq!(amps.len(), 3);
    /// assert!(amps[1].abs() < 1e-12); // |01⟩ has no Bell-state amplitude
    /// assert_eq!(report.stats.amplitudes_in_batch, 3);
    /// # Ok::<(), qtnsim_core::Error>(())
    /// ```
    pub fn execute_amplitudes(
        &self,
        bitstrings: &[&[u8]],
    ) -> Result<(Vec<Complex64>, ExecutionReport), Error> {
        if self.shape != OutputShape::Amplitude {
            return Err(Error::OutputShapeMismatch {
                compiled: self.shape.name(),
                requested: "amplitude",
            });
        }
        for bits in bitstrings {
            self.validate_bits(bits)?;
        }
        let branch_cache_hit = self.plan.branch_cache_built();
        let (results, stats) = crate::executor::execute_amplitudes_on_pool(
            &self.pool,
            &self.plan,
            bitstrings,
            &self.executor,
        )?;
        let amplitudes = results.iter().map(DenseTensor::scalar_value).collect();
        Ok((
            amplitudes,
            ExecutionReport { stats, plan_cache_hit: self.plan_cache_hit, branch_cache_hit },
        ))
    }

    /// Compute the tensor of amplitudes over the compiled open qubits with
    /// the remaining qubits projected onto `fixed` (entries at open qubits
    /// are ignored). Requires an [`OutputShape::Open`] compilation. The
    /// returned tensor's axes are ordered by ascending qubit id.
    ///
    /// ```
    /// use qtnsim_core::Engine;
    /// use qtn_circuit::{Circuit, Gate, OutputSpec};
    ///
    /// let mut circuit = Circuit::new(2);
    /// circuit.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
    /// let spec = OutputSpec::Open { fixed: vec![0, 0], open: vec![0, 1] };
    /// let compiled = Engine::new().compile(&circuit, &spec)?;
    /// let (batch, _) = compiled.execute_batch(&[0, 0])?;
    /// assert_eq!(batch.rank(), 2); // all four Bell-state amplitudes at once
    /// assert!((batch.get(&[0, 1]).abs()) < 1e-12);
    /// # Ok::<(), qtnsim_core::Error>(())
    /// ```
    pub fn execute_batch(
        &self,
        fixed: &[u8],
    ) -> Result<(DenseTensor<Complex64>, ExecutionReport), Error> {
        if !matches!(self.shape, OutputShape::Open(_)) {
            return Err(Error::OutputShapeMismatch {
                compiled: self.shape.name(),
                requested: "open-batch",
            });
        }
        let (result, report) = self.execute_rebound(fixed)?;
        // Order axes by qubit id.
        let mut pairs = self.plan.build.open_indices.clone();
        pairs.sort_by_key(|&(q, _)| q);
        let order: IndexSet = pairs.iter().map(|&(_, id)| id).collect();
        Ok((qtn_tensor::permute::permute_to_order(&result, &order), report))
    }

    /// Draw `count` correlated samples of the compiled open qubits from the
    /// exact output distribution, with the remaining qubits projected onto
    /// `fixed`. Requires an [`OutputShape::Open`] compilation. Sampling is
    /// deterministic in `seed`.
    ///
    /// ```
    /// use qtnsim_core::Engine;
    /// use qtn_circuit::{Circuit, Gate, OutputSpec};
    ///
    /// let mut circuit = Circuit::new(2);
    /// circuit.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
    /// let spec = OutputSpec::Open { fixed: vec![0, 0], open: vec![0, 1] };
    /// let compiled = Engine::new().compile(&circuit, &spec)?;
    /// let (samples, _) = compiled.sample(&[0, 0], 64, 7)?;
    /// assert_eq!(samples.len(), 64);
    /// assert!(samples.iter().all(|s| s[0] == s[1])); // Bell correlations
    /// # Ok::<(), qtnsim_core::Error>(())
    /// ```
    pub fn sample(
        &self,
        fixed: &[u8],
        count: usize,
        seed: u64,
    ) -> Result<(Vec<Vec<u8>>, ExecutionReport), Error> {
        let (amplitudes, report) = self.execute_batch(fixed)?;
        Ok((sample_bitstrings(&amplitudes, count, seed)?, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtn_circuit::{Gate, RqcConfig};
    use qtn_statevector::StateVector;

    #[test]
    fn compile_validates_at_the_boundary() {
        let circuit = Circuit::new(3);
        let engine = Engine::new();
        assert_eq!(
            engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; 2])).unwrap_err(),
            Error::BitstringLength { expected: 3, got: 2 }
        );
        assert_eq!(
            engine.compile(&circuit, &OutputSpec::Amplitude(vec![0, 2, 0])).unwrap_err(),
            Error::InvalidBit { qubit: 1, value: 2 }
        );
        assert_eq!(
            engine
                .compile(&circuit, &OutputSpec::Open { fixed: vec![0; 3], open: vec![5] })
                .unwrap_err(),
            Error::OpenQubitOutOfRange { qubit: 5, num_qubits: 3 }
        );
        assert_eq!(
            engine
                .compile(&circuit, &OutputSpec::Open { fixed: vec![0; 3], open: vec![1, 1] })
                .unwrap_err(),
            Error::DuplicateOpenQubit { qubit: 1 }
        );
        // Nothing was planned for rejected inputs.
        assert_eq!(engine.plans_built(), 0);
    }

    #[test]
    fn shape_misuse_is_a_typed_error() {
        let mut circuit = Circuit::new(2);
        circuit.push1(Gate::H, 0);
        let engine = Engine::new();
        let amp = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0, 0])).unwrap();
        assert!(matches!(
            amp.execute_batch(&[0, 0]).unwrap_err(),
            Error::OutputShapeMismatch { .. }
        ));
        assert!(matches!(
            amp.sample(&[0, 0], 5, 1).unwrap_err(),
            Error::OutputShapeMismatch { .. }
        ));
        let open = engine
            .compile(&circuit, &OutputSpec::Open { fixed: vec![0, 0], open: vec![0] })
            .unwrap();
        assert!(matches!(
            open.execute_amplitude(&[0, 0]).unwrap_err(),
            Error::OutputShapeMismatch { .. }
        ));
    }

    #[test]
    fn one_plan_serves_every_bitstring() {
        let circuit = RqcConfig::small(2, 3, 6, 3).build();
        let n = circuit.num_qubits();
        let engine =
            Engine::new().with_planner(PlannerConfig { target_rank: 8, ..Default::default() });
        let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
        let sv = StateVector::simulate(&circuit);
        for k in 0..8usize {
            let bits: Vec<u8> = (0..n).map(|q| ((k >> (q % 3)) & 1) as u8).collect();
            let (amp, _) = compiled.execute_amplitude(&bits).unwrap();
            assert!((amp - sv.amplitude(&bits)).abs() < 1e-8, "amplitude mismatch for {bits:?}");
        }
        assert_eq!(engine.plans_built(), 1, "planning must run exactly once");
    }

    #[test]
    fn plan_cache_hits_across_compiles() {
        let circuit = RqcConfig::small(2, 3, 6, 4).build();
        let n = circuit.num_qubits();
        let engine =
            Engine::new().with_planner(PlannerConfig { target_rank: 10, ..Default::default() });
        let a = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
        assert!(!a.plan_cache_hit());
        let mut other = vec![0u8; n];
        other[0] = 1;
        let b = engine.compile(&circuit, &OutputSpec::Amplitude(other)).unwrap();
        assert!(b.plan_cache_hit(), "same shape must hit the plan cache");
        assert_eq!(engine.plans_built(), 1);
        assert_eq!(engine.cache_stats().hits, 1);
        // A different shape (open batch) misses.
        let c = engine
            .compile(&circuit, &OutputSpec::Open { fixed: vec![0; n], open: vec![0, 1] })
            .unwrap();
        assert!(!c.plan_cache_hit());
        assert_eq!(engine.plans_built(), 2);
        // Open-qubit order does not matter for the shape key.
        let d = engine
            .compile(&circuit, &OutputSpec::Open { fixed: vec![0; n], open: vec![1, 0] })
            .unwrap();
        assert!(d.plan_cache_hit());
        assert_eq!(engine.plans_built(), 2);
    }

    #[test]
    fn cache_never_serves_plans_across_planner_configs() {
        let circuit = RqcConfig::small(3, 3, 8, 7).build();
        let n = circuit.num_qubits();
        let spec = OutputSpec::Amplitude(vec![0; n]);
        // `loose` plans without slicing; `tight` is a clone sharing the same
        // cache but configured with a hard memory budget.
        let loose =
            Engine::new().with_planner(PlannerConfig { target_rank: 40, ..Default::default() });
        let tight =
            loose.clone().with_planner(PlannerConfig { target_rank: 7, ..Default::default() });
        let a = loose.compile(&circuit, &spec).unwrap();
        let b = tight.compile(&circuit, &spec).unwrap();
        assert!(!b.plan_cache_hit(), "tight engine must not reuse the loose plan");
        assert!(a.plan().sliced_max_rank() > 7);
        assert!(b.plan().sliced_max_rank() <= 7, "cached plan violates the memory budget");
        assert_eq!(loose.plans_built(), 2, "counters are shared across clones");
        // Each config still hits its own entry.
        assert!(loose.compile(&circuit, &spec).unwrap().plan_cache_hit());
        assert!(tight.compile(&circuit, &spec).unwrap().plan_cache_hit());
    }

    #[test]
    fn with_executor_keeps_cache_and_counters() {
        let circuit = RqcConfig::small(2, 2, 4, 3).build();
        let n = circuit.num_qubits();
        let spec = OutputSpec::Amplitude(vec![0; n]);
        let engine = Engine::new();
        engine.compile(&circuit, &spec).unwrap();
        assert_eq!(engine.plans_built(), 1);
        let engine = engine.with_executor(ExecutorConfig {
            workers: 2,
            max_subtasks: 0,
            ..Default::default()
        });
        // Reconfiguring the pool must not drop cached plans or counters.
        assert_eq!(engine.plans_built(), 1);
        let again = engine.compile(&circuit, &spec).unwrap();
        assert!(again.plan_cache_hit());
        assert_eq!(engine.plans_built(), 1);
        // And the recompiled circuit executes on the new pool.
        assert!(again.execute_amplitude(&vec![0; n]).is_ok());
    }

    #[test]
    fn open_positions_are_exempt_from_fixed_bit_validation() {
        let mut circuit = Circuit::new(2);
        circuit.push1(Gate::H, 0);
        let engine = Engine::new();
        // Sentinel value 2 at the open position is documented as ignored.
        let compiled = engine
            .compile(&circuit, &OutputSpec::Open { fixed: vec![2, 0], open: vec![0] })
            .unwrap();
        let (batch, _) = compiled.execute_batch(&[2, 0]).unwrap();
        assert_eq!(batch.rank(), 1);
        // A bad bit at a *projected* position is still rejected.
        assert_eq!(
            compiled.execute_batch(&[0, 5]).unwrap_err(),
            Error::InvalidBit { qubit: 1, value: 5 }
        );
    }

    #[test]
    fn memory_budget_rejects_oversized_plans() {
        let circuit = RqcConfig::small(3, 3, 8, 6).build();
        let n = circuit.num_qubits();
        let spec = OutputSpec::Amplitude(vec![0; n]);
        let planner = PlannerConfig { target_rank: 8, ..Default::default() };
        // Learn the plan's predicted peak, then budget just below it.
        let unbudgeted = Engine::new().with_planner(planner.clone());
        let compiled = unbudgeted.compile(&circuit, &spec).unwrap();
        let predicted = compiled.plan().predicted_peak_bytes();
        assert!(predicted > 0);

        let tight = unbudgeted.clone().with_planner(PlannerConfig {
            memory_budget_bytes: Some(predicted - 1),
            ..planner.clone()
        });
        assert_eq!(
            tight.compile(&circuit, &spec).unwrap_err(),
            Error::MemoryBudgetExceeded { predicted_bytes: predicted, budget_bytes: predicted - 1 }
        );
        // A budget that the prediction fits in compiles — and executes.
        let roomy = tight
            .clone()
            .with_planner(PlannerConfig { memory_budget_bytes: Some(predicted), ..planner });
        let compiled = roomy.compile(&circuit, &spec).unwrap();
        let (_, report) = compiled.execute_amplitude(&vec![0; n]).unwrap();
        assert!(report.stats.peak_bytes_in_flight <= predicted);
        // The budget is not part of the plan-cache key: all three engines
        // (unbudgeted, rejected, accepted) shared one cached plan.
        assert!(compiled.plan_cache_hit());
        assert_eq!(unbudgeted.plans_built(), 1, "budget probing must never replan");
    }

    #[test]
    fn plans_beyond_the_kernel_rank_limit_are_refused() {
        // All 34 output qubits open: the result alone is a rank-34 tensor,
        // which no slicing of internal edges can shrink. Compile must refuse
        // it with a typed error instead of handing out a plan whose
        // execution would panic or abort while allocating.
        let n = 34;
        let mut circuit = Circuit::new(n);
        for q in 0..n {
            circuit.push1(Gate::H, q);
        }
        for q in 0..n - 1 {
            circuit.push2(Gate::Cz, q, q + 1);
        }
        let spec = OutputSpec::Open { fixed: vec![0; n], open: (0..n).collect() };
        let engine =
            Engine::new().with_planner(PlannerConfig { target_rank: 40, ..Default::default() });
        match engine.compile(&circuit, &spec) {
            Err(Error::TensorTooLarge { rank, max }) => {
                assert_eq!(max, qtn_tensor::MAX_RANK);
                assert!(rank > max, "rank {rank} reported against limit {max}");
            }
            other => panic!("expected TensorTooLarge, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn lru_evicts_oldest_plan() {
        let engine = Engine::new().with_cache_capacity(2);
        let mk = |seed: u64| RqcConfig::small(2, 2, 4, seed).build();
        let (c1, c2, c3) = (mk(1), mk(2), mk(3));
        let spec = |c: &Circuit| OutputSpec::Amplitude(vec![0; c.num_qubits()]);
        engine.compile(&c1, &spec(&c1)).unwrap();
        engine.compile(&c2, &spec(&c2)).unwrap();
        engine.compile(&c3, &spec(&c3)).unwrap(); // evicts c1
        assert_eq!(engine.plans_built(), 3);
        engine.compile(&c3, &spec(&c3)).unwrap(); // hit
        engine.compile(&c1, &spec(&c1)).unwrap(); // miss: was evicted
        assert_eq!(engine.plans_built(), 4);
        assert_eq!(engine.cache_stats().hits, 1);
    }

    #[test]
    fn cache_stats_count_hits_misses_and_evictions() {
        let engine = Engine::new().with_cache_capacity(2);
        let mk = |seed: u64| RqcConfig::small(2, 2, 4, seed).build();
        let (c1, c2, c3) = (mk(1), mk(2), mk(3));
        let spec = |c: &Circuit| OutputSpec::Amplitude(vec![0; c.num_qubits()]);
        engine.compile(&c1, &spec(&c1)).unwrap(); // miss
        engine.compile(&c1, &spec(&c1)).unwrap(); // hit
        engine.compile(&c2, &spec(&c2)).unwrap(); // miss
        engine.compile(&c3, &spec(&c3)).unwrap(); // miss, evicts c1
        assert_eq!(engine.cache_stats(), CacheStats { hits: 1, misses: 3, evictions: 1 });
        assert_eq!(engine.plans_built(), engine.cache_stats().misses);
        let json = engine.cache_stats().to_json();
        assert!(json.contains("\"plan_cache_evictions\": 1"), "{json}");
    }

    #[test]
    fn concurrent_compiles_share_one_cache() {
        let mk = |seed: u64| RqcConfig::small(2, 2, 4, seed).build();
        let circuits: Vec<Circuit> = (1..=5).map(mk).collect();
        let spec = |c: &Circuit| OutputSpec::Amplitude(vec![0; c.num_qubits()]);
        let engine = Engine::new();
        for c in &circuits {
            engine.compile(c, &spec(c)).unwrap();
        }
        // Concurrent compiles of distinct circuits are all exact hits.
        let handles: Vec<_> = circuits
            .iter()
            .map(|c| {
                let engine = engine.clone();
                let c = c.clone();
                std::thread::spawn(move || {
                    engine.compile(&c, &OutputSpec::Amplitude(vec![0; c.num_qubits()])).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(engine.plans_built(), circuits.len(), "all concurrent compiles were hits");
        assert_eq!(engine.cache_stats().hits, circuits.len());
    }

    #[test]
    fn compiled_circuit_exposes_the_fingerprint() {
        let mk = |seed: u64| RqcConfig::small(2, 2, 4, seed).build();
        let (c1, c2) = (mk(1), mk(2));
        let engine = Engine::new();
        let spec = |c: &Circuit| OutputSpec::Amplitude(vec![0; c.num_qubits()]);
        let a = engine.compile(&c1, &spec(&c1)).unwrap();
        let b = engine.compile(&c2, &spec(&c2)).unwrap();
        assert_eq!(a.fingerprint(), c1.fingerprint());
        assert_eq!(b.fingerprint(), c2.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn execute_amplitudes_matches_singles_and_validates() {
        let circuit = RqcConfig::small(3, 3, 8, 13).build();
        let n = circuit.num_qubits();
        let engine =
            Engine::new().with_planner(PlannerConfig { target_rank: 7, ..Default::default() });
        let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
        let patterns: Vec<Vec<u8>> =
            (0..5usize).map(|k| (0..n).map(|q| ((k >> (q % 3)) & 1) as u8).collect()).collect();
        let batch: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
        let (amps, report) = compiled.execute_amplitudes(&batch).unwrap();
        assert_eq!(amps.len(), patterns.len());
        assert_eq!(report.stats.amplitudes_in_batch, patterns.len() as u64);
        let sv = StateVector::simulate(&circuit);
        for (bits, amp) in patterns.iter().zip(amps.iter()) {
            assert!((*amp - sv.amplitude(bits)).abs() < 1e-8, "mismatch for {bits:?}");
            let (single, _) = compiled.execute_amplitude(bits).unwrap();
            assert_eq!(single, *amp, "batched amplitude must be bit-identical");
        }
        // A bad bitstring anywhere in the batch rejects the whole call.
        let bad: Vec<&[u8]> = vec![&patterns[0], &[9; 1]];
        assert!(matches!(
            compiled.execute_amplitudes(&bad).unwrap_err(),
            Error::BitstringLength { .. }
        ));
        // Shape misuse is typed.
        let open = engine
            .compile(&circuit, &OutputSpec::Open { fixed: vec![0; n], open: vec![0] })
            .unwrap();
        assert!(matches!(
            open.execute_amplitudes(&batch).unwrap_err(),
            Error::OutputShapeMismatch { .. }
        ));
    }

    #[test]
    fn engine_sample_bitstrings_rides_the_plan_cache() {
        let mut circuit = Circuit::new(2);
        circuit.push1(Gate::H, 0);
        let engine = Engine::new();
        let (samples, report) = engine.sample_bitstrings(&circuit, &[0, 0], &[0], 500, 3).unwrap();
        assert_eq!(samples.len(), 500);
        assert!(!report.plan_cache_hit);
        let (again, report) = engine.sample_bitstrings(&circuit, &[0, 0], &[0], 500, 3).unwrap();
        assert_eq!(samples, again, "sampling is deterministic in the seed");
        assert!(report.plan_cache_hit, "repeated sampling must reuse the plan");
        assert_eq!(engine.plans_built(), 1);
    }

    #[test]
    fn batch_and_sample_through_the_engine() {
        let mut circuit = Circuit::new(2);
        circuit.push1(Gate::H, 0);
        let engine = Engine::new();
        let compiled = engine
            .compile(&circuit, &OutputSpec::Open { fixed: vec![0, 0], open: vec![0] })
            .unwrap();
        let (batch, _) = compiled.execute_batch(&[0, 0]).unwrap();
        assert_eq!(batch.rank(), 1);
        let h = 1.0 / 2f64.sqrt();
        assert!((batch.get(&[0]).abs() - h).abs() < 1e-10);
        let (samples, _) = compiled.sample(&[0, 0], 2000, 7).unwrap();
        assert_eq!(samples.len(), 2000);
        let ones = samples.iter().filter(|s| s[0] == 1).count();
        assert!(ones > 800 && ones < 1200, "biased sampling: {ones}/2000");
    }

    /// The same circuit with the k-th parameter slot set to `angles[k]` —
    /// the "fresh compile at the new angles" baseline parameter rebinding
    /// must match bit for bit.
    fn circuit_with_angles(circuit: &Circuit, slots: &[ParamSlot], angles: &[f64]) -> Circuit {
        let mut out = Circuit::new(circuit.num_qubits());
        for (op_index, op) in circuit.ops().iter().enumerate() {
            let mut gate = op.gate.clone();
            for (slot, value) in slots.iter().zip(angles) {
                if slot.op_index() == op_index {
                    gate = gate.with_param(slot.param_index(), *value).expect("slot maps a param");
                }
            }
            match op.qubits.as_slice() {
                [q] => {
                    out.push1(gate, *q);
                }
                [a, b] => {
                    out.push2(gate, *a, *b);
                }
                _ => unreachable!("gates are 1- or 2-qubit"),
            }
        }
        out
    }

    #[test]
    fn rebind_parameters_matches_a_fresh_compile_bit_for_bit() {
        let circuit = RqcConfig::small(2, 3, 6, 5).build();
        let n = circuit.num_qubits();
        let spec = OutputSpec::Amplitude(vec![0; n]);
        let engine =
            Engine::new().with_planner(PlannerConfig { target_rank: 8, ..Default::default() });
        let mut compiled = engine.compile(&circuit, &spec).unwrap();
        let slots: Vec<ParamSlot> = compiled.param_slots().to_vec();
        assert!(!slots.is_empty(), "RQC circuits carry FSim parameter slots");

        // Cold execution builds the branch cache; its branch bill is the
        // shape-only cold baseline every rebind's flop identity refers to.
        let bits = vec![0u8; n];
        let (_, cold) = compiled.execute_amplitude(&bits).unwrap();
        assert_eq!(cold.stats.params_rebound, 0);
        assert_eq!(cold.stats.branch_entries_invalidated, 0);
        assert_eq!(cold.stats.branch_flops_survived_rebind, 0);

        // Sweep one mid-circuit angle plus the last slot.
        let mut angles: Vec<f64> = slots.iter().map(ParamSlot::value).collect();
        let updates = vec![(slots.len() / 2, 1.25), (slots.len() - 1, -0.75)];
        for &(slot, value) in &updates {
            angles[slot] = value;
        }
        compiled.rebind_parameters(&updates).unwrap();
        let (amp, report) = compiled.execute_amplitude(&bits).unwrap();
        assert_eq!(engine.plans_built(), 1, "rebinding must never replan");

        // Counters: the rebind is visible exactly once, on the execution
        // that rebuilt the cone, and the flop identity is exact.
        assert_eq!(report.stats.params_rebound, updates.len() as u64);
        assert!(report.stats.branch_entries_invalidated > 0, "updates must hit branch entries");
        assert!(
            report.stats.branch_flops_survived_rebind > 0,
            "entries outside the cone must be carried over, not rebuilt"
        );
        assert_eq!(
            report.stats.branch_flops + report.stats.branch_flops_survived_rebind,
            cold.stats.branch_flops,
            "survived + rebuilt must equal the cold bill exactly"
        );
        let (_, again) = compiled.execute_amplitude(&bits).unwrap();
        assert_eq!(again.stats.params_rebound, 0, "counters report once, on the build");
        assert_eq!(again.stats.branch_flops, 0);

        // Bit-identical to a fresh compile at the new angles — pooled,
        // unpooled, and through the batched path.
        let fresh = circuit_with_angles(&circuit, &slots, &angles);
        let direct = Engine::new()
            .with_planner(PlannerConfig { target_rank: 8, ..Default::default() })
            .compile(&fresh, &spec)
            .unwrap();
        let (expected, _) = direct.execute_amplitude(&bits).unwrap();
        assert_eq!(amp, expected, "rebound amplitude must match a fresh compile bit for bit");

        let patterns: Vec<Vec<u8>> =
            (0..4usize).map(|k| (0..n).map(|q| ((k >> (q % 2)) & 1) as u8).collect()).collect();
        let batch: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
        let (amps, _) = compiled.execute_amplitudes(&batch).unwrap();
        let (amps_direct, _) = direct.execute_amplitudes(&batch).unwrap();
        assert_eq!(amps, amps_direct, "batched execution must match after a rebind");

        let unpooled = ExecutorConfig { pool: false, ..Default::default() };
        let engine_np = Engine::new()
            .with_planner(PlannerConfig { target_rank: 8, ..Default::default() })
            .with_executor(unpooled.clone());
        let mut compiled_np = engine_np.compile(&circuit, &spec).unwrap();
        compiled_np.rebind_parameters(&updates).unwrap();
        let (amp_np, _) = compiled_np.execute_amplitude(&bits).unwrap();
        let direct_np = Engine::new()
            .with_planner(PlannerConfig { target_rank: 8, ..Default::default() })
            .with_executor(unpooled)
            .compile(&fresh, &spec)
            .unwrap();
        assert_eq!(amp_np, direct_np.execute_amplitude(&bits).unwrap().0);
    }

    #[test]
    fn failed_rebinds_leave_the_compiled_circuit_untouched() {
        let circuit = RqcConfig::small(2, 3, 6, 5).build();
        let n = circuit.num_qubits();
        let spec = OutputSpec::Amplitude(vec![0; n]);
        let engine =
            Engine::new().with_planner(PlannerConfig { target_rank: 8, ..Default::default() });
        let mut compiled = engine.compile(&circuit, &spec).unwrap();
        let slots = compiled.param_slots().len();
        let bits = vec![0u8; n];
        let (amp, _) = compiled.execute_amplitude(&bits).unwrap();

        // A bad update anywhere rejects the whole set — even when valid
        // updates precede it.
        assert_eq!(
            compiled.rebind_parameters(&[(0, 0.5), (slots, 1.0)]).unwrap_err(),
            Error::UnknownParamSlot { slot: slots, slots }
        );
        assert_eq!(
            compiled.rebind_parameters(&[(0, 0.5), (0, f64::NAN)]).unwrap_err(),
            Error::NonFiniteParam { slot: 0 }
        );
        assert_eq!(
            compiled.rebind_parameters(&[(0, f64::INFINITY)]).unwrap_err(),
            Error::NonFiniteParam { slot: 0 }
        );

        // Build and caches are exactly as if the calls never happened: same
        // amplitude, branch cache still warm, no rebind accounting.
        let (again, report) = compiled.execute_amplitude(&bits).unwrap();
        assert_eq!(again, amp, "a failed rebind must not perturb results");
        assert!(report.branch_cache_hit, "a failed rebind must not drop the cache");
        assert_eq!(report.stats.branch_flops, 0);
        assert_eq!(report.stats.params_rebound, 0);
        assert_eq!(report.stats.branch_entries_invalidated, 0);
    }

    #[test]
    fn random_angle_subsets_rebind_with_minimal_cones() {
        let circuit = RqcConfig::small(2, 3, 6, 9).build();
        let n = circuit.num_qubits();
        let spec = OutputSpec::Amplitude(vec![0; n]);
        let planner = PlannerConfig { target_rank: 8, ..Default::default() };
        let engine = Engine::new().with_planner(planner.clone());
        let mut compiled = engine.compile(&circuit, &spec).unwrap();
        let slots: Vec<ParamSlot> = compiled.param_slots().to_vec();
        assert!(slots.len() >= 2, "need several slots to sweep subsets");
        let bits = vec![0u8; n];
        let (_, cold) = compiled.execute_amplitude(&bits).unwrap();
        let cold_branch_flops = cold.stats.branch_flops;

        // Deterministic LCG; the test sweeps the empty set, the full set
        // and random subsets in between.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut angles: Vec<f64> = slots.iter().map(ParamSlot::value).collect();
        for round in 0..6 {
            let chosen: Vec<usize> = match round {
                0 => Vec::new(),
                1 => (0..slots.len()).collect(),
                _ => (0..slots.len()).filter(|_| next() % 2 == 0).collect(),
            };
            let updates: Vec<(usize, f64)> = chosen
                .iter()
                .map(|&s| (s, (next() % 6283) as f64 / 1000.0 - std::f64::consts::PI))
                .collect();
            for &(slot, value) in &updates {
                angles[slot] = value;
            }

            // The minimal cone, computed independently from the masks: the
            // kept roots whose subtree contains a rebound leaf.
            let (expected_cone, sliced_subtasks) = {
                let plan = compiled.plan();
                let masks = plan.classification.param_masks();
                let mut leaves: Vec<usize> = chosen.iter().map(|&s| slots[s].leaf()).collect();
                leaves.sort_unstable();
                leaves.dedup();
                let words = ordinal_words(masks.num_leaves(), &leaves);
                let cone = plan
                    .classification
                    .branch_keep()
                    .iter()
                    .filter(|&&root| masks.intersects(root, &words))
                    .count() as u64;
                (cone, !plan.slicing.sliced.is_empty())
            };

            compiled.rebind_parameters(&updates).unwrap();
            let (amp, report) = compiled.execute_amplitude(&bits).unwrap();

            // Cone minimality, flop identity, and the memory invariant. An
            // empty update set is a no-op: the warm cache survives outright
            // and no build (hence no rebind accounting) happens at all.
            assert_eq!(report.stats.params_rebound, updates.len() as u64, "round {round}");
            assert_eq!(
                report.stats.branch_entries_invalidated, expected_cone,
                "round {round}: exactly the mask-intersecting entries must drop"
            );
            if updates.is_empty() {
                assert_eq!(report.stats.branch_flops, 0, "round {round}");
                assert_eq!(report.stats.branch_flops_survived_rebind, 0, "round {round}");
                assert!(report.branch_cache_hit, "round {round}: no-op must keep the cache");
            } else {
                assert_eq!(
                    report.stats.branch_flops + report.stats.branch_flops_survived_rebind,
                    cold_branch_flops,
                    "round {round}: survived + rebuilt must equal the cold bill"
                );
            }
            assert!(
                report.stats.peak_bytes_in_flight <= report.stats.predicted_peak_bytes,
                "round {round}"
            );
            if sliced_subtasks {
                assert_eq!(
                    report.stats.peak_bytes_in_flight, report.stats.predicted_peak_bytes,
                    "round {round}: pooled peak must stay exactly at the prediction"
                );
            }

            // Bit-identity against a fresh compile at the current angles.
            let fresh = circuit_with_angles(&circuit, &slots, &angles);
            let direct =
                Engine::new().with_planner(planner.clone()).compile(&fresh, &spec).unwrap();
            assert_eq!(amp, direct.execute_amplitude(&bits).unwrap().0, "round {round}");
        }
        assert_eq!(engine.plans_built(), 1, "six rebind rounds, zero replans");
    }

    #[test]
    fn zero_distribution_surfaces_as_typed_error() {
        // X|0> = |1>, so projecting the open qubit's complement onto |0>
        // still leaves mass; instead fix qubit 0 of a CNOT pair to the
        // impossible branch: qubit 1 of |00>+|11> with qubit 0 fixed to 1
        // has mass only on |1>, so sample over qubit 1 with qubit 0 fixed
        // works. To force an all-zero tensor, use a circuit with a
        // deterministic output and fix the projector to the orthogonal bit.
        let mut circuit = Circuit::new(2);
        circuit.push1(Gate::X, 0); // state is |1>⊗|0>
        let engine = Engine::new();
        let compiled = engine
            .compile(&circuit, &OutputSpec::Open { fixed: vec![0, 0], open: vec![1] })
            .unwrap();
        // Fixing qubit 0 to 0 projects onto an impossible branch: the batch
        // over qubit 1 is all zeros.
        assert_eq!(compiled.sample(&[0, 0], 10, 1).unwrap_err(), Error::ZeroAmplitudeDistribution);
    }
}
