//! The simulation planner.
//!
//! Planning happens entirely on the network structure (no tensor data is
//! touched): circuit → tensor network → simplification → contraction-path
//! search → stem extraction → lifetime-based slicing → simulated-annealing
//! refinement. The resulting [`SimulationPlan`] contains everything the
//! executor needs to run the sliced contraction, and everything the
//! benchmark harness needs to report complexities and overheads.

use crate::error::Error;
use crate::executor::{BranchStore, Program};
use crate::pool::SharedWorkerPools;
use qtn_circuit::{circuit_to_network, Circuit, NetworkBuild, OutputSpec};
use qtn_slicing::overhead::{sliced_max_rank, slicing_overhead};
use qtn_slicing::{lifetime_slice_finder, refine_slicing, RefinerConfig, SlicingPlan};
use qtn_tensornet::{
    analyze_memory, classify_nodes, defer_projector_joins_tree, extract_stem, random_greedy_paths,
    refine_tree, simplify_network, ContractionTree, MemoryPlan, NodeClassification,
    RefineObjective, Stem, TensorNetwork,
};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Planner options.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Maximum tensor rank allowed after slicing (log2 of the per-process
    /// memory budget in amplitudes).
    pub target_rank: usize,
    /// Number of randomised greedy path candidates to try (the best by total
    /// cost is kept). 0 or 1 = deterministic greedy.
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
    /// tensor; the memory plan predicts the real per-worker working
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

/// One row of [`SimulationPlan::report`]: a planner stage as it ran.
#[derive(Debug, Clone)]
pub struct PlanStage {
    /// The stage's span name, e.g. `"slicing.finder"`.
    pub name: &'static str,
    /// Wall time from the end of the previous stage to the end of this one.
    pub seconds: f64,
    /// log2 of the un-sliced contraction cost of the current tree; `None`
    /// until a tree exists.
    pub log_cost: Option<f64>,
    /// Slicing overhead (Eq. 2) of the current slicing on the current stem;
    /// `None` until a slicing exists.
    pub overhead: Option<f64>,
    /// Largest tensor rank of the current stem under the current slicing;
    /// `None` until a slicing exists.
    pub sliced_max_rank: Option<usize>,
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
    /// One row per planner stage that ran, in order: what each stage cost
    /// and where it left the plan's cost, overhead and sliced rank.
    pub report: Vec<PlanStage>,
    /// Per-node slice/override dependency classes of the contraction tree,
    /// driving the executor's stem-only sweep (which contractions run once
    /// per plan, once per execution, or per subtask).
    pub classification: NodeClassification,
    /// Plan-time memory plan of the executor's homes: the branch store's
    /// build peak, the frontier arena, and for the pooled stem the slots
    /// per size class and the peak bytes its buffer traffic is checked
    /// against.
    pub memory_plan: MemoryPlan,
    /// Per-worker stem buffer pools, persisted across executions of this
    /// plan (and all its clones) like the branch store: the second
    /// execution of a compiled circuit allocates no stem buffers at all.
    pub(crate) stem_pools: Arc<SharedWorkerPools>,
    /// The compiled program: every contraction's kernel and operands, in
    /// one step list. Compiled by the first reusing execution from index
    /// sets alone, so every execution, clone and parameter rebind of the
    /// plan shares it. Holds the `Result` so a failure is memoized.
    pub(crate) program: Arc<OnceLock<Result<Arc<Program>, Error>>>,
    /// The plan-lifetime store of kept Branch tensors. Built exactly once
    /// (even under concurrent executions) by the first reusing execution
    /// and shared by clones; a parameter rebind gives its plan a fresh,
    /// empty cell.
    pub(crate) branch: Arc<OnceLock<Result<Arc<BranchStore>, Error>>>,
    /// The entries a parameter rebind carried over, with the rebind's
    /// accounting: the next branch build starts from them and runs only
    /// the invalidated cone. `None` on freshly planned circuits.
    pub(crate) carried: Option<Arc<BranchStore>>,
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

    /// Whether the plan-lifetime branch store has been built.
    pub(crate) fn branch_built(&self) -> bool {
        matches!(self.branch.get(), Some(Ok(_)))
    }

    /// The predicted peak of a single execution's worst home
    /// ([`MemoryPlan::peak_bytes`]): the branch store while it is built,
    /// the frontier arena, or one worker's stem pool. A memory budget is
    /// checked against it and [`Self::predicted_batched_peak_bytes`].
    pub fn predicted_peak_bytes(&self) -> u64 {
        self.memory_plan.peak_bytes()
    }

    /// The predicted per-worker peak of a **batched** multi-amplitude
    /// execution's stem sweep ([`MemoryPlan::batched_stem`]): the StemPure
    /// keep set is held across the whole bitstring batch while the
    /// StemMixed suffix replays on top of it, so this can exceed
    /// one worker's single-execution stem peak. Exact: a pooled batched
    /// execution's `peak_bytes_in_flight` equals it.
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
///
/// The stages run in one fixed order, and each appends its row to
/// [`SimulationPlan::report`] as it finishes. A cost column is computed
/// only by a stage that changed its input (the tree, the stem or the
/// slicing); every other row carries the previous row's value forward, so
/// the last row holds the plan's own `log_cost` and `overhead`.
///
/// The chain builds one tree and hands it on: the path search returns only
/// pairs (ranked by the cost greedy sums as it contracts), and each
/// rotation pass takes the tree and returns its next version, the tree
/// [`ContractionTree::from_pairs`] would build from the new pairs.
pub fn plan_simulation(
    circuit: &Circuit,
    output: &OutputSpec,
    config: &PlannerConfig,
) -> SimulationPlan {
    let mut report: Vec<PlanStage> = Vec::with_capacity(12);
    let mut clock = Instant::now();
    let mut record = |name, log_cost: Option<f64>, sliced: Option<(f64, usize)>| {
        let now = Instant::now();
        let last = report.last();
        let sliced = sliced.or(last.and_then(|row| row.overhead.zip(row.sliced_max_rank)));
        report.push(PlanStage {
            name,
            seconds: (now - clock).as_secs_f64(),
            log_cost: log_cost.or(last.and_then(|row| row.log_cost)),
            overhead: sliced.map(|(overhead, _)| overhead),
            sliced_max_rank: sliced.map(|(_, rank)| rank),
        });
        clock = now;
    };
    let sliced_costs = |stem: &Stem, slicing: &SlicingPlan| {
        Some((slicing_overhead(stem, &slicing.sliced), sliced_max_rank(stem, &slicing.sliced)))
    };

    let build = circuit_to_network(circuit, output);
    record("circuit.to_network", None, None);
    let network = TensorNetwork::from_build(&build);
    record("tensornet.from_build", None, None);

    // Simplification prefix.
    let mut work = network.clone();
    let mut pairs = simplify_network(&mut work);
    record("tensornet.simplify", None, None);

    // Path search on the simplified network. Candidate 0 is the
    // deterministic greedy path, so one candidate is plain greedy; the
    // search ranks candidates by their cost and the first is the cheapest.
    let candidates = random_greedy_paths(&work, config.path_candidates.max(1), config.seed);
    pairs.extend(candidates.into_iter().next().expect("no path candidates").1);
    record("tensornet.path_search", None, None);

    let mut tree = ContractionTree::from_pairs(&network, &pairs);
    record("tensornet.build_tree", Some(tree.total_log_cost()), None);
    if config.refine_path {
        // Adaptive path refinement (the paper's third contribution): subtree
        // rotations that never increase the cost and prefer LDM-friendly
        // absorptions.
        (tree, pairs, _) = refine_tree(tree, RefineObjective::SunwayAdaptive { ldm_rank: 13 }, 4);
        record("tensornet.refine_path", Some(tree.total_log_cost()), None);
    }
    let mut stem = extract_stem(&tree);
    record("tensornet.extract_stem", None, None);

    // Slice with the lifetime finder and optionally refine. Open (output)
    // indices may be sliced too: the executor *stacks* those subtask results
    // into the output tensor instead of summing them, exactly as the paper
    // stores its rank-53 output sliced on disk (§3.3).
    let mut slicing = lifetime_slice_finder(&stem, config.target_rank);
    record("slicing.finder", None, sliced_costs(&stem, &slicing));
    if config.refine {
        slicing = refine_slicing(&stem, &slicing, &config.refiner);
        record("slicing.refine", None, sliced_costs(&stem, &slicing));
    }

    let overridable: Vec<usize> = build.projector_leaves.iter().map(|&(_, node)| node).collect();

    // Batching-aware deferral: with the slicing set fixed, re-associate
    // cost-degenerate contractions so projector-dependent subtrees join the
    // sliced spine as late as possible. Strictly shrinks the StemMixed
    // suffix batched executions replay per bitstring; never increases the
    // total cost or the per-execution bill and never loosens slicing
    // feasibility.
    if config.defer_projector_joins && !slicing.sliced.is_empty() && !overridable.is_empty() {
        (tree, pairs, _) = defer_projector_joins_tree(tree, &slicing.sliced, &overridable, 4);
        stem = extract_stem(&tree);
        record("tensornet.defer_joins", Some(tree.total_log_cost()), sliced_costs(&stem, &slicing));
    }

    // Classify every tree node by what its subtree depends on: the sliced
    // edges (replayed per subtask), the rebindable output projectors
    // (contracted once per execution or per bitstring) or neither
    // (contracted once per plan). Structure-only, like the rest of planning.
    let classification =
        classify_nodes(&tree, &slicing.sliced, &overridable, &build.param_leaf_vertices());
    record("tensornet.classify", None, None);

    // Lifetime analysis: what each home holds at its peak, and for the
    // stem the first/last use of every buffer and its slot. Structure-only,
    // and exact — the executor replays the same sequences at runtime.
    let memory_plan = analyze_memory(&tree, &classification, &slicing.sliced);
    record("tensornet.analyze_memory", None, None);

    let last = report.last().expect("the stages above each recorded a row");
    let log_cost = last.log_cost.expect("the tree is built before the last stage");
    let overhead = last.overhead.expect("the slicing is chosen before the last stage");
    SimulationPlan {
        build,
        network,
        pairs,
        tree,
        stem,
        slicing,
        log_cost,
        overhead,
        report,
        classification,
        memory_plan,
        stem_pools: Arc::new(SharedWorkerPools::default()),
        program: Arc::new(OnceLock::new()),
        branch: Arc::new(OnceLock::new()),
        carried: None,
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

    /// FNV-1a over `words`.
    fn fnv1a(words: &[u64]) -> u64 {
        words.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &w| (h ^ w).wrapping_mul(0x100_0000_01b3))
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
        fnv1a(&words)
    }

    /// FNV-1a over every report row's name and every column but `seconds`.
    fn report_digest(plan: &SimulationPlan) -> u64 {
        let mut words = vec![plan.report.len() as u64];
        for row in &plan.report {
            words.extend(row.name.bytes().map(u64::from));
            for column in [row.log_cost, row.overhead, row.sliced_max_rank.map(|r| r as f64)] {
                words.extend([u64::from(column.is_some()), column.map_or(0, f64::to_bits)]);
            }
        }
        fnv1a(&words)
    }

    /// The pinned plans. The Sycamore seeds are the path-search seeds whose
    /// plans differ most (slicing overheads from 8 to 5e5, so the deferral
    /// and the SA refiner take branches the headline plan never does); the
    /// lattices are the benchmark's three executed workloads.
    fn pinned_plans() -> Vec<(String, SimulationPlan)> {
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
        cases
            .into_iter()
            .map(|(name, c, cfg)| {
                let plan =
                    plan_simulation(&c, &OutputSpec::Amplitude(vec![0; c.num_qubits()]), &cfg);
                (name, plan)
            })
            .collect()
    }

    /// Every plan the planner builds is pinned, bit for bit: a planner
    /// change that is meant to be a pure speedup must leave these digests
    /// alone.
    #[test]
    fn plans_are_pinned() {
        let digests: Vec<String> = pinned_plans()
            .iter()
            .map(|(name, plan)| format!("{name}: {:#018x}", plan_digest(plan)))
            .collect();
        let expected = [
            "sycamore m=20 seed 0: 0xa0b157100d9920c9",
            "sycamore m=20 seed 2: 0xca7b6d20fdd128de",
            "sycamore m=20 seed 12: 0x8381811855929712",
            "sycamore m=20 seed 2023: 0x813609b4e43a4d9e",
            "4x5x12/14: 0xd007a23b8fae48f4",
            "5x6x12/18: 0x9baaeb1d389b3b43",
            "3x4x10/8: 0xa427382c1823efdf",
        ];
        assert_eq!(digests, expected);
    }

    /// The Sycamore m=20 plan and report at every planner seed of the
    /// 17-seed set (0–15 and 2023) that path-choice work is judged on, so a
    /// change that moves any of them shows which seeds moved and how.
    #[test]
    fn sycamore_seed_set_plans_are_pinned() {
        let c = RqcConfig::sycamore(20, 5).build();
        let output = OutputSpec::Amplitude(vec![0; c.num_qubits()]);
        let digests: Vec<String> = (0..16u64)
            .chain([2023])
            .map(|seed| {
                let cfg = PlannerConfig { target_rank: 30, seed, ..Default::default() };
                let plan = plan_simulation(&c, &output, &cfg);
                format!("seed {seed}: {:#018x} {:#018x}", plan_digest(&plan), report_digest(&plan))
            })
            .collect();
        let expected = [
            "seed 0: 0xa0b157100d9920c9 0x588f0de9ee8c79db",
            "seed 1: 0xa0b157100d9920c9 0x588f0de9ee8c79db",
            "seed 2: 0xca7b6d20fdd128de 0x20ff9e22fa4d3f2e",
            "seed 3: 0xca7b6d20fdd128de 0x20ff9e22fa4d3f2e",
            "seed 4: 0x8cec3ded69c97827 0x6b27ee2bf100f389",
            "seed 5: 0x8cec3ded69c97827 0x6b27ee2bf100f389",
            "seed 6: 0x8cec3ded69c97827 0x6b27ee2bf100f389",
            "seed 7: 0x369b35927a8b693d 0x424be8cc30f111f6",
            "seed 8: 0x369b35927a8b693d 0x424be8cc30f111f6",
            "seed 9: 0x369b35927a8b693d 0x424be8cc30f111f6",
            "seed 10: 0xc4868f79791455d3 0xac707d10f3af3d08",
            "seed 11: 0x981e7eaf82b2e570 0x37f507a61d3ee7ce",
            "seed 12: 0x8381811855929712 0x54c7ae5c1b20a4df",
            "seed 13: 0xe4d16cbde506dfe5 0x4a926f2185027c0f",
            "seed 14: 0xe4d16cbde506dfe5 0x4a926f2185027c0f",
            "seed 15: 0x5ab557da63bfdb18 0xeacd36ba73c7d219",
            "seed 2023: 0x813609b4e43a4d9e 0x9bbbf04d9faa59f1",
        ];
        assert_eq!(digests, expected);
    }

    /// The report of every pinned plan is pinned too (all columns but the
    /// wall times), and its last row is the plan's own cost, overhead and
    /// sliced rank.
    #[test]
    fn plan_reports_are_pinned() {
        let plans = pinned_plans();
        for (name, plan) in &plans {
            let last = plan.report.last().expect("a report row");
            assert_eq!(last.name, "tensornet.analyze_memory", "{name}");
            assert_eq!(last.log_cost.map(f64::to_bits), Some(plan.log_cost.to_bits()), "{name}");
            assert_eq!(last.overhead.map(f64::to_bits), Some(plan.overhead.to_bits()), "{name}");
            assert_eq!(last.sliced_max_rank, Some(plan.sliced_max_rank()), "{name}");
        }
        let digests: Vec<String> = plans
            .iter()
            .map(|(name, plan)| format!("{name}: {:#018x}", report_digest(plan)))
            .collect();
        let expected = [
            "sycamore m=20 seed 0: 0x588f0de9ee8c79db",
            "sycamore m=20 seed 2: 0x20ff9e22fa4d3f2e",
            "sycamore m=20 seed 12: 0x54c7ae5c1b20a4df",
            "sycamore m=20 seed 2023: 0x9bbbf04d9faa59f1",
            "4x5x12/14: 0x34265c0986d6808c",
            "5x6x12/18: 0x15b0bc4e1c682768",
            "3x4x10/8: 0xe407e6ac05709833",
        ];
        assert_eq!(digests, expected);

        // A stage switched off leaves no row.
        let c = RqcConfig::small(4, 5, 12, 5).build();
        let output = OutputSpec::Amplitude(vec![0; c.num_qubits()]);
        let names = |cfg: PlannerConfig| -> Vec<&'static str> {
            plan_simulation(&c, &output, &cfg).report.iter().map(|row| row.name).collect()
        };
        let on = PlannerConfig { target_rank: 14, ..Default::default() };
        let all = names(on.clone());
        assert_eq!(
            all,
            [
                "circuit.to_network",
                "tensornet.from_build",
                "tensornet.simplify",
                "tensornet.path_search",
                "tensornet.build_tree",
                "tensornet.refine_path",
                "tensornet.extract_stem",
                "slicing.finder",
                "slicing.refine",
                "tensornet.defer_joins",
                "tensornet.classify",
                "tensornet.analyze_memory",
            ]
        );
        let without = |stage| all.iter().copied().filter(|&name| name != stage).collect::<Vec<_>>();
        assert_eq!(names(PlannerConfig { refine: false, ..on.clone() }), without("slicing.refine"));
        assert_eq!(
            names(PlannerConfig { refine_path: false, ..on.clone() }),
            without("tensornet.refine_path")
        );
        assert_eq!(
            names(PlannerConfig { defer_projector_joins: false, ..on }),
            without("tensornet.defer_joins")
        );
    }

    /// Zero or one path candidate is the deterministic greedy path.
    #[test]
    fn one_path_candidate_is_plain_greedy() {
        use qtn_tensornet::{greedy_path, PathConfig};
        for seed in [0u64, 7] {
            let c = small_circuit(8, 9);
            let output = OutputSpec::Amplitude(vec![0; c.num_qubits()]);
            let mut work = TensorNetwork::from_build(&circuit_to_network(&c, &output));
            let mut expected = simplify_network(&mut work);
            expected.extend(greedy_path(&mut work, &PathConfig { temperature: 0.0, seed }));
            for path_candidates in [0, 1] {
                let cfg = PlannerConfig {
                    target_rank: 10,
                    path_candidates,
                    refine_path: false,
                    defer_projector_joins: false,
                    seed,
                    ..Default::default()
                };
                let plan = plan_simulation(&c, &output, &cfg);
                assert_eq!(plan.pairs, expected, "path_candidates {path_candidates}, seed {seed}");
            }
        }
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
