//! The simulation planner.
//!
//! Planning happens entirely on the network structure (no tensor data is
//! touched): circuit → tensor network → simplification → contraction-path
//! search → stem extraction → lifetime-based slicing → simulated-annealing
//! refinement. The resulting [`SimulationPlan`] contains everything the
//! executor needs to run the sliced contraction, and everything the
//! benchmark harness needs to report complexities and overheads.

use crate::executor::{BranchCache, BranchSeed, StemExec};
use crate::pool::SharedWorkerPools;
use qtn_circuit::{circuit_to_network, Circuit, NetworkBuild, OutputSpec};
use qtn_slicing::overhead::{sliced_max_rank, slicing_overhead};
use qtn_slicing::{lifetime_slice_finder, refine_slicing, RefinerConfig, SlicingPlan};
use qtn_tensornet::{
    analyze_memory, classify_nodes, defer_projector_joins, extract_stem, greedy_path,
    random_greedy_paths, refine_path, simplify_network, ContractionTree, MemoryPlan,
    NodeClassification, PathConfig, RefineObjective, Stem, TensorNetwork,
};
use std::sync::{Arc, OnceLock};

/// Planner options.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Maximum tensor rank allowed after slicing (log2 of the per-process
    /// memory budget in amplitudes).
    pub target_rank: usize,
    /// Number of randomised greedy path candidates to try (the best by total
    /// cost is kept). 1 = deterministic greedy.
    pub path_candidates: usize,
    /// Whether to run the simulated-annealing refiner on the slicing set.
    pub refine: bool,
    /// Whether to run the adaptive contraction-path refiner (subtree
    /// rotations with the Sunway-aware objective) after the path search.
    pub refine_path: bool,
    /// Whether to run the batching-aware projector-deferral pass after
    /// slicing: subtree rotations that push projector-dependent joins
    /// toward the root of the sliced spine, shrinking the StemMixed suffix
    /// a batched multi-amplitude execution replays per bitstring. No
    /// rotation raises the unsliced contraction cost, any post-slicing
    /// rank, or the per-execution bill (sliced nodes at their Eq. 4 term,
    /// Frontier nodes once, Branch nodes free), so the slicing set chosen
    /// before it keeps its overhead; see
    /// [`qtn_tensornet::defer_projector_joins`].
    pub defer_projector_joins: bool,
    /// Refiner parameters.
    pub refiner: RefinerConfig,
    /// Seed for the randomised path search.
    pub seed: u64,
    /// Optional hard byte budget checked against the plan's *predicted*
    /// per-worker peak buffer memory: the larger of a single execution's
    /// ([`SimulationPlan::predicted_peak_bytes`]) and a batched one's
    /// ([`SimulationPlan::predicted_batched_peak_bytes`]), since a compiled
    /// circuit may run either. `target_rank` only bounds the largest single
    /// tensor; the lifetime analysis predicts the real per-worker working
    /// set, and [`crate::Engine::compile`] rejects plans exceeding this
    /// budget with [`crate::Error::MemoryBudgetExceeded`]. The budget is
    /// per worker: it is not multiplied by the worker count. `None`
    /// disables the check.
    pub memory_budget_bytes: Option<u64>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            target_rank: 26,
            path_candidates: 4,
            refine: true,
            refine_path: true,
            defer_projector_joins: true,
            refiner: RefinerConfig::default(),
            seed: 0,
            memory_budget_bytes: None,
        }
    }
}

/// Everything needed to execute a sliced contraction.
#[derive(Debug, Clone)]
pub struct SimulationPlan {
    /// The tensor network with data, as produced from the circuit.
    pub build: NetworkBuild,
    /// The structural graph of the network.
    pub network: TensorNetwork,
    /// Full contraction pair list in SSA vertex ids (simplification prefix +
    /// searched path).
    pub pairs: Vec<(usize, usize)>,
    /// The contraction tree of `pairs`.
    pub tree: ContractionTree,
    /// The stem of the tree.
    pub stem: Stem,
    /// The slicing decision.
    pub slicing: SlicingPlan,
    /// log2 of the un-sliced contraction cost.
    pub log_cost: f64,
    /// Slicing overhead (Eq. 2) of the chosen set on the stem.
    pub overhead: f64,
    /// Per-node slice/override dependency classes of the contraction tree,
    /// driving the executor's stem-only sweep (which contractions run once
    /// per plan, once per execution, or per subtask).
    pub classification: NodeClassification,
    /// Plan-time lifetime analysis of every reuse phase: buffer liveness
    /// intervals, greedy slot assignment by size class and the predicted
    /// peak bytes the pooled executor's buffer traffic is checked against.
    pub memory_plan: MemoryPlan,
    /// Per-worker stem buffer pools, persisted across executions of this
    /// plan (and all its clones) exactly like the branch cache: the second
    /// execution of a compiled circuit allocates no stem buffers at all.
    pub(crate) stem_pools: Arc<SharedWorkerPools>,
    /// Lazily built plan-lifetime cache of Branch-class tensors. Built
    /// exactly once (even under concurrent executions) by the first reusing
    /// execution; clones of the plan *share* the cache (and a build done
    /// through any clone), rather than deep-copying its tensors. Holds the
    /// build `Result` so a failed build is memoized rather than retried.
    pub(crate) branch_cache: Arc<OnceLock<Result<BranchCache, crate::error::Error>>>,
    /// Lazily compiled pooled stem replay (contraction kernels + leaf
    /// slicing recipes). Index-set-only, so it is plan-invariant under
    /// shape-preserving output rebinding and, like the branch cache, built
    /// once and shared by every execution and clone of the plan.
    pub(crate) stem_exec: Arc<OnceLock<Result<Arc<StemExec>, crate::error::Error>>>,
    /// Branch-cache entries surviving a parameter rebind, plus the rebind's
    /// accounting. `None` on freshly planned circuits; set (with a fresh,
    /// empty `branch_cache` cell) by `CompiledCircuit::rebind_parameters`,
    /// and consumed by the next branch-cache build, which then replays only
    /// the invalidated cone on top of the surviving entries.
    pub(crate) branch_seed: Option<Arc<BranchSeed>>,
}

impl SimulationPlan {
    /// Number of independent slice subtasks.
    pub fn num_subtasks(&self) -> usize {
        self.slicing.num_subtasks()
    }

    /// Largest tensor rank any subtask materialises.
    pub fn sliced_max_rank(&self) -> usize {
        sliced_max_rank(&self.stem, &self.slicing.sliced)
    }

    /// The plan-lifetime branch cache, if some execution has built it.
    pub fn branch_cache(&self) -> Option<&BranchCache> {
        self.branch_cache.get().and_then(|r| r.as_ref().ok())
    }

    /// Whether the plan-lifetime branch cache has been built.
    pub fn branch_cache_built(&self) -> bool {
        self.branch_cache().is_some()
    }

    /// The worst per-phase predicted peak buffer memory
    /// ([`MemoryPlan::peak_bytes`]): what a memory budget is checked
    /// against, and what one worker's pool traffic can reach.
    pub fn predicted_peak_bytes(&self) -> u64 {
        self.memory_plan.peak_bytes()
    }

    /// The predicted per-worker peak of a **batched** multi-amplitude
    /// execution's stem sweep ([`MemoryPlan::batched_stem`]): the StemPure
    /// keep set is held across the whole bitstring batch while the
    /// StemMixed suffix replays on top of it, so this can exceed
    /// [`Self::predicted_peak_bytes`]. Exact, like every other phase
    /// prediction.
    pub fn predicted_batched_peak_bytes(&self) -> u64 {
        self.memory_plan.batched_stem.peak_bytes()
    }

    /// Buffers currently retained by the plan's persistent per-worker stem
    /// pools (observability for tests and benchmarks).
    pub fn pooled_buffers_retained(&self) -> usize {
        self.stem_pools.retained_buffers()
    }

    /// Histogram of the GEMM shapes one full reusing execution of this plan
    /// performs, weighted by how often each contraction runs: branch and
    /// frontier contractions once, stem contractions once per slice
    /// subtask. Shapes are derived from the tree's index sets with the
    /// sliced edges stripped — exactly the operand sets the executor
    /// contracts (a sliced edge is fixed to one value everywhere, so it
    /// vanishes from every tensor; GEMM shape depends only on index-set
    /// membership, never axis order). Returns `((m, n, k), count)` pairs
    /// sorted by descending total flops.
    pub fn gemm_shape_histogram(&self) -> Vec<((usize, usize, usize), u64)> {
        use qtn_tensor::{ContractionSpec, IndexSet};
        use std::collections::HashMap;
        let sliced = &self.slicing.sliced;
        let effective: Vec<IndexSet> = self
            .tree
            .nodes()
            .iter()
            .map(|node| {
                IndexSet::new(
                    node.indices
                        .iter()
                        .copied()
                        .filter(|e| !sliced.contains(e))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let subtasks = self.num_subtasks() as u64;
        let mut hist: HashMap<(usize, usize, usize), u64> = HashMap::new();
        for &(l, r, out) in &self.tree.schedule() {
            let spec = ContractionSpec::new(&effective[l], &effective[r]);
            let weight = if self.classification.class(out).is_stem() { subtasks } else { 1 };
            *hist.entry(spec.gemm_shape()).or_insert(0) += weight;
        }
        let mut shapes: Vec<((usize, usize, usize), u64)> = hist.into_iter().collect();
        shapes.sort_by_key(|&((m, n, k), count)| {
            (
                std::cmp::Reverse(qtn_tensor::gemm::gemm_flops(m, n, k).saturating_mul(count)),
                m,
                n,
                k,
            )
        });
        shapes
    }
}

/// Plan the simulation of a circuit for the given output specification.
pub fn plan_simulation(
    circuit: &Circuit,
    output: &OutputSpec,
    config: &PlannerConfig,
) -> SimulationPlan {
    let build = circuit_to_network(circuit, output);
    let network = TensorNetwork::from_build(&build);

    // Simplification prefix.
    let mut work = network.clone();
    let mut pairs = simplify_network(&mut work);

    // Path search on the simplified network.
    if config.path_candidates <= 1 {
        pairs.extend(greedy_path(&mut work, &PathConfig { temperature: 0.0, seed: config.seed }));
    } else {
        let candidates = random_greedy_paths(&work, config.path_candidates, config.seed);
        let (_, best_pairs) = candidates.into_iter().next().expect("no path candidates");
        pairs.extend(best_pairs);
    }

    let mut tree = ContractionTree::from_pairs(&network, &pairs);
    if config.refine_path {
        // Adaptive path refinement (the paper's third contribution): subtree
        // rotations that never increase the cost and prefer LDM-friendly
        // absorptions.
        let (refined_pairs, _report) =
            refine_path(&tree, RefineObjective::SunwayAdaptive { ldm_rank: 13 }, 4);
        pairs = refined_pairs;
        tree = ContractionTree::from_pairs(&network, &pairs);
    }
    let mut stem = extract_stem(&tree);

    // Slice with the lifetime finder and optionally refine. Open (output)
    // indices may be sliced too: the executor *stacks* those subtask results
    // into the output tensor instead of summing them, exactly as the paper
    // stores its rank-53 output sliced on disk (§3.3).
    let mut slicing = lifetime_slice_finder(&stem, config.target_rank);
    if config.refine {
        slicing = refine_slicing(&stem, &slicing, &config.refiner);
    }

    let overridable: Vec<usize> = build.projector_leaves.iter().map(|&(_, node)| node).collect();

    // Batching-aware deferral: with the slicing set fixed, re-associate
    // cost-degenerate contractions so projector-dependent subtrees join the
    // sliced spine as late as possible. Strictly shrinks the StemMixed
    // suffix batched executions replay per bitstring; never increases the
    // total cost or the per-execution bill and never loosens slicing
    // feasibility.
    if config.defer_projector_joins && !slicing.sliced.is_empty() && !overridable.is_empty() {
        let (deferred_pairs, _report) =
            defer_projector_joins(&tree, &slicing.sliced, &overridable, 4);
        pairs = deferred_pairs;
        tree = ContractionTree::from_pairs(&network, &pairs);
        stem = extract_stem(&tree);
    }

    let log_cost = tree.total_log_cost();
    let overhead = slicing_overhead(&stem, &slicing.sliced);

    // Classify every tree node by what its subtree depends on: the sliced
    // edges (replayed per subtask), the rebindable output projectors
    // (contracted once per execution or per bitstring) or neither
    // (contracted once per plan). Structure-only, like the rest of planning.
    let classification =
        classify_nodes(&tree, &slicing.sliced, &overridable, &build.param_leaf_vertices());

    // Lifetime analysis: first/last use of every intermediate, slot
    // assignment and predicted peak bytes per reuse phase. Structure-only,
    // and exact — the pooled executor replays the same acquire/release
    // sequence at runtime.
    let memory_plan = analyze_memory(&tree, &classification, &slicing.sliced);

    SimulationPlan {
        build,
        network,
        pairs,
        tree,
        stem,
        slicing,
        log_cost,
        overhead,
        classification,
        memory_plan,
        branch_cache: Arc::new(OnceLock::new()),
        stem_exec: Arc::new(OnceLock::new()),
        stem_pools: Arc::new(SharedWorkerPools::default()),
        branch_seed: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtn_circuit::RqcConfig;

    fn small_circuit(cycles: usize, seed: u64) -> Circuit {
        RqcConfig::small(3, 3, cycles, seed).build()
    }

    #[test]
    fn plan_for_closed_amplitude() {
        let c = small_circuit(8, 1);
        let output = OutputSpec::Amplitude(vec![0; c.num_qubits()]);
        let cfg = PlannerConfig { target_rank: 10, ..Default::default() };
        let plan = plan_simulation(&c, &output, &cfg);
        assert!(plan.log_cost > 0.0);
        assert!(plan.overhead >= 1.0 - 1e-9);
        assert!(plan.sliced_max_rank() <= 10);
        assert!(plan.num_subtasks() >= 1);
        assert_eq!(plan.tree.node(plan.tree.root()).rank(), 0);
    }

    #[test]
    fn loose_target_means_no_slicing() {
        let c = small_circuit(6, 2);
        let output = OutputSpec::Amplitude(vec![0; c.num_qubits()]);
        let cfg = PlannerConfig { target_rank: 40, ..Default::default() };
        let plan = plan_simulation(&c, &output, &cfg);
        assert!(plan.slicing.is_empty());
        assert_eq!(plan.num_subtasks(), 1);
        assert!((plan.overhead - 1.0).abs() < 1e-9);
    }

    #[test]
    fn open_output_networks_can_be_planned() {
        let c = small_circuit(8, 3);
        let n = c.num_qubits();
        let output = OutputSpec::Open { fixed: vec![0; n], open: vec![0, 1, 2] };
        let cfg = PlannerConfig { target_rank: 8, ..Default::default() };
        let plan = plan_simulation(&c, &output, &cfg);
        let open: Vec<qtn_tensor::IndexId> = plan.network.open_indices();
        assert_eq!(open.len(), 3);
        // The root of the tree carries exactly the open indices.
        let mut root_idx = plan.tree.node(plan.tree.root()).indices.clone();
        root_idx.sort_unstable();
        let mut open_sorted = open.clone();
        open_sorted.sort_unstable();
        assert_eq!(root_idx, open_sorted);
        assert!(plan.sliced_max_rank() <= 8);
    }

    #[test]
    fn tighter_targets_slice_more() {
        let c = small_circuit(10, 4);
        let output = OutputSpec::Amplitude(vec![0; c.num_qubits()]);
        let loose =
            plan_simulation(&c, &output, &PlannerConfig { target_rank: 14, ..Default::default() });
        let tight =
            plan_simulation(&c, &output, &PlannerConfig { target_rank: 9, ..Default::default() });
        assert!(tight.slicing.len() >= loose.slicing.len());
    }

    #[test]
    fn refinement_does_not_violate_feasibility() {
        let c = small_circuit(10, 5);
        let output = OutputSpec::Amplitude(vec![0; c.num_qubits()]);
        for refine in [false, true] {
            let cfg = PlannerConfig { target_rank: 9, refine, ..Default::default() };
            let plan = plan_simulation(&c, &output, &cfg);
            assert!(plan.sliced_max_rank() <= 9, "refine={refine}");
        }
    }

    /// The paper's headline instance (53-qubit Sycamore, m = 20): projector
    /// deferral may not undo the slicing set the finder chose, so the
    /// shipped plan meets its rank target with a small slicing overhead.
    #[test]
    fn sycamore_plan_keeps_its_rank_target_and_slicing_overhead() {
        let c = RqcConfig::sycamore(20, 5).build();
        let output = OutputSpec::Amplitude(vec![0; c.num_qubits()]);
        let cfg = PlannerConfig { target_rank: 30, ..Default::default() };
        let plan = plan_simulation(&c, &output, &cfg);
        assert!(plan.sliced_max_rank() <= 30, "sliced max rank {}", plan.sliced_max_rank());
        assert!(plan.overhead < 16.0, "slicing overhead {}", plan.overhead);
        let log2_flops = plan.log_cost + plan.overhead.log2();
        assert!(log2_flops < 80.0, "log2 flops {log2_flops}");
    }

    /// FNV-1a over the words that decide a plan: the contraction pairs,
    /// the slicing set, the cost and overhead bits and both predicted
    /// peaks.
    fn plan_digest(plan: &SimulationPlan) -> u64 {
        let mut words = vec![plan.pairs.len() as u64];
        words.extend(plan.pairs.iter().flat_map(|&(a, b)| [a as u64, b as u64]));
        words.push(plan.slicing.sliced.len() as u64);
        words.extend(plan.slicing.sliced.iter().map(|&e| u64::from(e)));
        words.extend([
            plan.log_cost.to_bits(),
            plan.overhead.to_bits(),
            plan.predicted_peak_bytes(),
            plan.predicted_batched_peak_bytes(),
        ]);
        words.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &w| (h ^ w).wrapping_mul(0x100_0000_01b3))
    }

    /// Every plan the planner builds is pinned, bit for bit: a planner
    /// change that is meant to be a pure speedup must leave these digests
    /// alone. The Sycamore seeds are the path-search seeds whose plans
    /// differ most (slicing overheads from 8 to 5e5, so the deferral and
    /// the SA refiner take branches the headline plan never does); the
    /// lattices are the benchmark's three executed workloads.
    #[test]
    fn plans_are_pinned() {
        let sycamore = RqcConfig::sycamore(20, 5).build();
        let mut cases: Vec<(String, Circuit, PlannerConfig)> = [0u64, 2, 12, 2023]
            .into_iter()
            .map(|seed| {
                let cfg = PlannerConfig { target_rank: 30, seed, ..Default::default() };
                (format!("sycamore m=20 seed {seed}"), sycamore.clone(), cfg)
            })
            .collect();
        for (rows, cols, cycles, target_rank) in [(4, 5, 12, 14), (5, 6, 12, 18), (3, 4, 10, 8)] {
            let cfg = PlannerConfig { target_rank, ..Default::default() };
            let circuit = RqcConfig::small(rows, cols, cycles, 5).build();
            cases.push((format!("{rows}x{cols}x{cycles}/{target_rank}"), circuit, cfg));
        }
        let digests: Vec<String> = cases
            .iter()
            .map(|(name, c, cfg)| {
                let plan = plan_simulation(c, &OutputSpec::Amplitude(vec![0; c.num_qubits()]), cfg);
                format!("{name}: {:#018x}", plan_digest(&plan))
            })
            .collect();
        let expected = [
            "sycamore m=20 seed 0: 0xa0b157100d9920c9",
            "sycamore m=20 seed 2: 0xca7b6d20fdd128de",
            "sycamore m=20 seed 12: 0x8381811855929712",
            "sycamore m=20 seed 2023: 0x813609b4e43a4d9e",
            "4x5x12/14: 0xd007a23b8fae48f4",
            "5x6x12/18: 0x9baaeb1d389b3b43",
            "3x4x10/8: 0xc8a3382d10d2dddf",
        ];
        assert_eq!(digests, expected);
    }

    #[test]
    fn deterministic_planning() {
        let c = small_circuit(8, 6);
        let output = OutputSpec::Amplitude(vec![0; c.num_qubits()]);
        let cfg = PlannerConfig { target_rank: 10, ..Default::default() };
        let a = plan_simulation(&c, &output, &cfg);
        let b = plan_simulation(&c, &output, &cfg);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.slicing, b.slicing);
    }
}
