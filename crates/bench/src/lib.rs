//! Regenerate every figure and table of the paper's evaluation as one
//! deterministic JSON document, checked in as `REPRO.json` at the repo root.
//!
//! ```sh
//! cargo run --release -p qtn-bench --bin repro > REPRO.json
//! ```
//!
//! The document has one key per figure, each holding the section's fixed
//! inputs, its summary and its tables:
//!
//! * `fig06` — per-step stem complexity before and after lifetime slicing
//!   (Sycamore m = 20, target rank 30);
//! * `fig07` — slicing overhead versus target rank for the lifetime finder
//!   and the cotengra-style greedy baseline, with the storage level of each
//!   target and the slicing-vs-stacking break-even overheads (§3.3);
//! * `fig10` — slicing-set size and overhead of finder + SA refiner versus
//!   the greedy baseline over 400 contraction paths (Sycamore m = 12);
//! * `fig11` — modeled strong (65,536 subtasks) and weak (16 per node)
//!   scaling of the headline plan's subtask;
//! * `fig12` — fused versus step-by-step time breakdown on the SW26010pro
//!   model; the two strategies' tensors must agree (the run panics if not);
//! * `fig13` — the roofline and both strategies' placement on it;
//! * `headline` — the §6.2 projection of the plan `Engine::compile` ships
//!   for Sycamore m = 20 at rank 30 to 1024 and 107,520 nodes;
//! * `ablation` — greedy, dynamic, lifetime finder and finder + refiner on
//!   eight Sycamore m = 12 instances.
//!
//! Nothing is timed on the host: every number is a plan property or a
//! machine-model value, so two runs print the same bytes. Every value is
//! rounded to the precision the figure's table prints (overheads to 3
//! decimals, log2 costs to 2), and every table prints one row per line, so
//! a diff against the checked-in file names the row that moved.
//!
//! [`repro`] is the crate's only public item: the `repro` binary prints it.
//! The machine model and the baselines are private modules, since nothing
//! else runs them, so the dead-code lint proves each of their items is
//! reached from [`repro`]:
//!
//! * the simulated SW26010pro machine (Figs. 7, 11–13, headline) — `arch`
//!   (capacities, bandwidths and the §3.3 slicing-vs-stacking
//!   discriminant), `roofline`, `timebreak` (the per-phase breakdown of
//!   Fig. 12) and `scaling` (strong/weak scaling and the full-system
//!   projection). Nothing needs Sunway hardware: the model supplies the
//!   timing the paper measured, from plan properties computed on any host;
//! * secondary slicing against the 256 KB LDM and the fused and
//!   step-by-step thread-level executors of §5 (Figs. 12, 13) — `segment`,
//!   `secondary` and `exec`;
//! * `greedy` — the cotengra-style greedy slicer of Fig. 10, with the
//!   whole-tree sliced costs it is priced by;
//! * `dynamic` — an Alibaba-style dynamic slicer that re-tunes the stem
//!   order between slice picks (the related work of §2.1.2).

mod arch;
mod dynamic;
mod exec;
mod greedy;
mod roofline;
mod scaling;
mod secondary;
mod segment;
mod timebreak;

use arch::SunwayArch;
use dynamic::dynamic_slicer;
use exec::{execute_fused, execute_step_by_step};
use greedy::{greedy_slicer, slicing_overhead_tree};
use qtn_circuit::{circuit_to_network, Circuit, OutputSpec, RqcConfig};
use qtn_slicing::{
    lifetime_slice_finder, refine_slicing, sliced_log_cost, sliced_max_rank, slicing_overhead,
    RefinerConfig,
};
use qtn_tensornet::{
    extract_stem, random_greedy_paths, simplify_network, ContractionTree, Stem, TensorNetwork,
};
use qtnsim_core::json::JsonObject;
use qtnsim_core::{plan_simulation, PlannerConfig};
use roofline::Roofline;
use scaling::{project_full_system, ScalingModel};
use segment::random_segment;
use std::collections::HashSet;

/// Node counts of the Fig. 11 scaling curves.
const NODE_COUNTS: [usize; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Bytes of the final allReduce: the batch of correlated amplitudes.
const REDUCE_BYTES: f64 = 8.0 * (1 << 20) as f64;

/// Fraction of the node peak the paper's fused kernels sustain: 308.6
/// Pflops over 107,520 nodes of ~13 Tflops is roughly 20%.
const SUSTAINED_FRACTION: f64 = 0.20;

/// The 2021 Gordon Bell Prize sustained performance the paper compares to.
const GORDON_BELL_2021_PFLOPS: f64 = 60.4;

/// The whole evaluation as one JSON document, the bytes of `REPRO.json`
/// without its trailing newline.
pub fn repro() -> String {
    let headline = Headline::plan();
    let mut doc = JsonObject::new();
    doc.field_raw("fig06", &fig06())
        .field_raw("fig07", &fig07())
        .field_raw("fig10", &fig10())
        .field_raw("fig11", &fig11(&headline))
        .field_raw("fig12", &fig12())
        .field_raw("fig13", &fig13())
        .field_raw("headline", &headline.section())
        .field_raw("ablation", &ablation());
    doc.finish()
}

/// `x` with `decimals` places, as a JSON number: rounding is what keeps a
/// last-ulp libm difference between hosts out of the golden. Non-finite
/// values (which JSON cannot represent) become `null`.
fn fixed(x: f64, decimals: usize) -> String {
    if x.is_finite() {
        format!("{x:.decimals$}")
    } else {
        "null".into()
    }
}

/// `x` in scientific notation with 3 decimals, e.g. `1.423e14`.
fn sci(x: f64) -> String {
    format!("{x:.3e}")
}

/// A JSON array with one row per line.
fn table(rows: Vec<String>) -> String {
    format!("[\n{}\n]", rows.join(",\n"))
}

/// A section: its fixed inputs, its summary, then its tables in order.
fn section(inputs: JsonObject, summary: String, tables: Vec<(&str, Vec<String>)>) -> String {
    let mut out = JsonObject::new();
    out.field_raw("inputs", &inputs.finish()).field_raw("summary", &summary);
    for (name, rows) in tables {
        out.field_raw(name, &table(rows));
    }
    out.finish()
}

/// Figure 6: per-step time complexity along the stem before and after
/// slicing, with the per-step redundancy multiple `2^(|S| - hits)`. A good
/// slicing set keeps the expensive middle of the stem at its original
/// complexity (its big tensors lie inside the lifetimes of many sliced
/// edges) while the cheap ends absorb the doubling.
fn fig06() -> String {
    let (cycles, target, seed, candidates) = (20, 30, 1, 4);
    let (_, stem) = &plan_sycamore(cycles, seed, candidates);
    let plan = lifetime_slice_finder(stem, target);
    let sliced: HashSet<_> = plan.sliced.iter().copied().collect();

    let rows = stem
        .steps
        .iter()
        .enumerate()
        .map(|(i, step)| {
            let union = step.union();
            let hits = union.iter().filter(|e| sliced.contains(e)).count();
            let mut row = JsonObject::new();
            row.field_usize("step", i)
                .field_usize("log2_original", union.len())
                .field_usize("log2_per_subtask", union.len() - hits)
                .field_usize("log2_multiple", plan.len() - hits);
            row.finish()
        })
        .collect();

    let mut inputs = JsonObject::new();
    inputs
        .field_usize("cycles", cycles)
        .field_usize("target_rank", target)
        .field_u64("seed", seed)
        .field_usize("path_candidates", candidates);
    let mut summary = JsonObject::new();
    summary
        .field_usize("stem_steps", stem.len())
        .field_usize("max_rank", stem.max_rank())
        .field_raw("log2_cost", &fixed(stem.total_log_cost(), 2))
        .field_usize("sliced_edges", plan.len())
        .field_raw("log2_sliced_cost", &fixed(sliced_log_cost(stem, &plan.sliced), 2))
        .field_raw("overhead", &fixed(slicing_overhead(stem, &plan.sliced), 3));
    section(inputs, summary.finish(), vec![("rows", rows)])
}

/// Figure 7: slicing overhead versus target rank for the lifetime finder
/// and the greedy baseline, with the storage level each target rank fits
/// and the equal-overhead lines: below its break-even overhead slicing
/// beats stacking (moving the data) across that level's fill channel.
fn fig07() -> String {
    let (cycles, seed, min_target, max_target) = (20, 1, 16, 36);
    // Bytes moved per flop of original work for a balanced contraction
    // kernel of the narrow kind the stem is made of (AI ~ 2).
    let bytes_per_flop = 0.5;
    let arch = SunwayArch::sw26010pro();
    let ldm_rank = arch.max_ldm_rank();
    let mem_rank = arch.max_main_memory_rank();

    let (tree, stem) = &plan_sycamore(cycles, seed, 4);
    let full_rank = stem.max_rank();
    let rows = (min_target..=max_target.min(full_rank))
        .rev()
        .map(|target| {
            let ours = lifetime_slice_finder(stem, target);
            let greedy = greedy_slicer(tree, target);
            let level = if target <= ldm_rank {
                "LDM"
            } else if target <= mem_rank {
                "main memory"
            } else {
                "disk"
            };
            let mut row = JsonObject::new();
            row.field_usize("target", target)
                .field_str("storage_level", level)
                .field_usize("sliced_ours", ours.len())
                .field_raw("overhead_ours", &fixed(slicing_overhead(stem, &ours.sliced), 3))
                .field_usize("sliced_greedy", greedy.len())
                .field_raw(
                    "overhead_greedy",
                    &fixed(slicing_overhead_tree(tree, &greedy.sliced), 3),
                );
            row.finish()
        })
        .collect();

    let mut inputs = JsonObject::new();
    inputs
        .field_usize("cycles", cycles)
        .field_u64("seed", seed)
        .field_usize("min_target", min_target)
        .field_usize("max_target", max_target)
        .field_f64("bytes_per_flop", bytes_per_flop);
    let mut summary = JsonObject::new();
    summary
        .field_usize("ldm_rank", ldm_rank)
        .field_usize("main_memory_rank", mem_rank)
        .field_usize("unsliced_max_rank", full_rank)
        .field_raw("log2_cost", &fixed(tree.total_log_cost(), 2))
        .field_raw(
            "breakeven_overhead_io",
            &fixed(arch.breakeven_overhead(arch.io_bandwidth, bytes_per_flop), 1),
        )
        .field_raw(
            "breakeven_overhead_dma",
            &fixed(arch.breakeven_overhead(arch.dma_bandwidth, bytes_per_flop), 1),
        );
    section(inputs, summary.finish(), vec![("rows", rows)])
}

/// Figure 10: the paper samples 400 contraction paths of the Sycamore
/// network, runs the lifetime finder + SA refiner and the greedy baseline
/// on every path at the same target (stem max rank − 4), and compares
/// slicing-set sizes and overheads.
fn fig10() -> String {
    let (paths, cycles, delta, seed) = (400, 12, 4, 7);
    // One network; the paths are independent randomised greedy searches
    // over it, as in the paper (cotengra's samples).
    let circuit = RqcConfig::sycamore(cycles, seed).build();
    let build = circuit_to_network(&circuit, &OutputSpec::Amplitude(vec![0; 53]));
    let network = TensorNetwork::from_build(&build);
    let mut simplified = network.clone();
    let prefix = simplify_network(&mut simplified);
    let candidates = random_greedy_paths(&simplified, paths, seed);
    let total = candidates.len();

    let (mut smaller_or_equal, mut lower_or_equal) = (0usize, 0usize);
    let mut best_overhead = f64::INFINITY;
    let rows = candidates
        .into_iter()
        .enumerate()
        .map(|(i, (_, path_pairs))| {
            let mut pairs = prefix.clone();
            pairs.extend(path_pairs);
            let tree = ContractionTree::from_pairs(&network, &pairs);
            let stem = extract_stem(&tree);
            let target = sliced_max_rank(&stem, &[]).saturating_sub(delta).max(8);

            let found = lifetime_slice_finder(&stem, target);
            let ours = refine_slicing(&stem, &found, &RefinerConfig { seed, ..Default::default() });
            let theirs = greedy_slicer(&tree, target);
            let ours_overhead = slicing_overhead(&stem, &ours.sliced);
            let theirs_overhead = slicing_overhead_tree(&tree, &theirs.sliced);
            smaller_or_equal += usize::from(ours.len() <= theirs.len());
            lower_or_equal += usize::from(ours_overhead <= theirs_overhead + 1e-9);
            best_overhead = best_overhead.min(ours_overhead);

            let mut row = JsonObject::new();
            row.field_usize("path", i)
                .field_raw("log2_cost", &fixed(tree.total_log_cost(), 2))
                .field_usize("sliced_ours", ours.len())
                .field_usize("sliced_greedy", theirs.len())
                .field_raw("extra_edges", &(theirs.len() as i64 - ours.len() as i64).to_string())
                .field_raw("overhead_ours", &fixed(ours_overhead, 3))
                .field_raw("overhead_greedy", &fixed(theirs_overhead, 3));
            row.finish()
        })
        .collect();

    let pct = |n: usize| fixed(100.0 * n as f64 / total as f64, 1);
    let mut inputs = JsonObject::new();
    inputs
        .field_usize("paths", paths)
        .field_usize("cycles", cycles)
        .field_usize("delta", delta)
        .field_u64("seed", seed);
    let mut summary = JsonObject::new();
    summary
        .field_usize("paths", total)
        .field_usize("smaller_or_equal_set", smaller_or_equal)
        .field_raw("smaller_or_equal_set_pct", &pct(smaller_or_equal))
        .field_usize("lower_or_equal_overhead", lower_or_equal)
        .field_raw("lower_or_equal_overhead_pct", &pct(lower_or_equal))
        .field_raw("best_overhead", &fixed(best_overhead, 3));
    section(inputs, summary.finish(), vec![("rows", rows)])
}

/// The headline instance (§6.2): the plan `Engine::compile` ships for
/// Sycamore m = 20 at rank 30 under the default planner configuration,
/// priced on the modeled machine. Its per-subtask time also drives Fig. 11.
struct Headline {
    cycles: usize,
    target: usize,
    log_cost: f64,
    sliced_edges: usize,
    overhead: f64,
    /// Real flops of one subtask: the sliced total (Eq. 4) shared by the
    /// `2^|S|` subtasks, 8 real flops per complex multiply-add.
    flops_per_subtask: f64,
    /// `2^|S|`, exact in an `f64` for any slicing set a plan can ship.
    subtasks: f64,
    /// One subtask on one node at the modeled sustained rate.
    seconds_per_subtask: f64,
}

impl Headline {
    fn plan() -> Self {
        let (cycles, target) = (20, 30);
        let plan = plan_simulation(
            &RqcConfig::sycamore(cycles, 2023).build(),
            &OutputSpec::Amplitude(vec![0; 53]),
            &PlannerConfig { target_rank: target, ..Default::default() },
        );
        let sliced = &plan.slicing.sliced;
        let log_flops = sliced_log_cost(&plan.stem, sliced) - sliced.len() as f64 + 3.0;
        let flops_per_subtask = log_flops.exp2();
        let node_flops = SunwayArch::sw26010pro().peak_flops_per_node() * SUSTAINED_FRACTION;
        Headline {
            cycles,
            target,
            log_cost: plan.log_cost,
            sliced_edges: sliced.len(),
            overhead: plan.overhead,
            flops_per_subtask,
            subtasks: (sliced.len() as f64).exp2(),
            seconds_per_subtask: flops_per_subtask / node_flops,
        }
    }

    /// Model the plan's sweep on 1024 nodes and project it to the full
    /// system, the way the paper goes from its measured 1024 nodes
    /// (10,098.5 s) to 107,520 (96.1 s, 308.6 Pflops).
    fn section(&self) -> String {
        let arch = SunwayArch::sw26010pro();
        let measured_nodes = 1024;
        let model = ScalingModel::new(self.seconds_per_subtask, REDUCE_BYTES);
        let time_measured = model.strong_time(self.subtasks, measured_nodes);
        let total_flops = self.flops_per_subtask * self.subtasks;
        let projection = project_full_system(&arch, time_measured, measured_nodes, total_flops);
        let pflops = projection.sustained_flops / 1e15;
        let rows = [
            ("flops_per_subtask", sci(self.flops_per_subtask)),
            ("subtasks", fixed(self.subtasks, 0)),
            ("total_flops", sci(total_flops)),
            ("time_1024_nodes_s", fixed(time_measured, 1)),
            ("time_full_system_s", fixed(projection.time, 1)),
            ("sustained_pflops", fixed(pflops, 1)),
            ("gordon_bell_2021_ratio", fixed(pflops / GORDON_BELL_2021_PFLOPS, 1)),
        ]
        .into_iter()
        .map(|(quantity, value)| {
            let mut row = JsonObject::new();
            row.field_str("quantity", quantity).field_raw("value", &value);
            row.finish()
        })
        .collect();

        let mut inputs = JsonObject::new();
        inputs
            .field_usize("cycles", self.cycles)
            .field_usize("target_rank", self.target)
            .field_f64("sustained_fraction", SUSTAINED_FRACTION)
            .field_usize("measured_nodes", measured_nodes)
            .field_usize("full_system_nodes", arch.projection_nodes)
            .field_f64("gordon_bell_2021_pflops", GORDON_BELL_2021_PFLOPS);
        let mut summary = JsonObject::new();
        summary
            .field_raw("log2_cost", &fixed(self.log_cost, 2))
            .field_usize("sliced_edges", self.sliced_edges)
            .field_raw("overhead", &fixed(self.overhead, 3));
        section(inputs, summary.finish(), vec![("rows", rows)])
    }
}

/// Figure 11: strong scaling over 65,536 subtasks and weak scaling at 16
/// subtasks per node of the headline plan's subtask, with embarrassingly
/// parallel subtasks and one final allReduce.
fn fig11(headline: &Headline) -> String {
    let (strong_subtasks, weak_per_node) = (65_536, 16);
    let model = ScalingModel::new(headline.seconds_per_subtask, REDUCE_BYTES);
    let strong = model
        .strong_scaling(strong_subtasks, &NODE_COUNTS)
        .into_iter()
        .map(|p| {
            let mut row = JsonObject::new();
            row.field_usize("nodes", p.nodes)
                .field_raw("time_s", &fixed(p.time, 4))
                .field_raw("speedup", &fixed(p.speedup, 1))
                .field_raw("efficiency_pct", &fixed(100.0 * p.efficiency, 1));
            row.finish()
        })
        .collect();
    let weak = model
        .weak_scaling(weak_per_node, &NODE_COUNTS)
        .into_iter()
        .map(|p| {
            let mut row = JsonObject::new();
            row.field_usize("nodes", p.nodes)
                .field_usize("subtasks", p.subtasks)
                .field_raw("time_s", &fixed(p.time, 4))
                .field_raw("efficiency_pct", &fixed(100.0 * p.efficiency, 1));
            row.finish()
        })
        .collect();

    let mut inputs = JsonObject::new();
    inputs
        .field_usize("strong_subtasks", strong_subtasks)
        .field_usize("weak_subtasks_per_node", weak_per_node)
        .field_f64("reduce_bytes", REDUCE_BYTES);
    let mut summary = JsonObject::new();
    summary.field_raw("seconds_per_subtask", &fixed(headline.seconds_per_subtask, 4));
    section(inputs, summary.finish(), vec![("strong", strong), ("weak", weak)])
}

/// Figure 12: memory access / permutation / GEMM time of the step-by-step
/// strategy versus the fused design (secondary slicing against the LDM) on
/// the SW26010pro model. Memory access collapses under fusion while
/// permutation and GEMM stay the same.
fn fig12() -> String {
    let (steps, seed) = (10, 5);
    let arch = SunwayArch::sw26010pro();
    let ldm_rank = arch.max_ldm_rank();

    let mut rows = Vec::new();
    let mut fused_steps = Vec::new();
    for start_rank in [12usize, 13, 14, 15, 16] {
        let segment = random_segment(seed + start_rank as u64, start_rank, steps, 2, 2);
        let (a, step) = execute_step_by_step(&segment, &arch);
        let (b, fused, plan) = execute_fused(&segment, &arch, ldm_rank);

        // The fused design reorganises the computation; it must not change it.
        let b = qtn_tensor::permute::permute_to_order(&b, a.indices());
        let max_diff = a
            .data()
            .iter()
            .zip(b.data().iter())
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff < 1e-9, "fused result diverged: {max_diff}");

        let mut row = JsonObject::new();
        row.field_usize("task_rank", start_rank)
            .field_str("strategy", "step-by-step")
            .field_raw("memory_s", &fixed(step.time.memory_access, 6))
            .field_raw("permute_s", &fixed(step.time.permutation, 6))
            .field_raw("gemm_s", &fixed(step.time.gemm, 6))
            .field_raw("total_s", &fixed(step.time.total(), 6))
            .field_raw("ai", &fixed(step.arithmetic_intensity, 2));
        rows.push(row.finish());
        let mut row = JsonObject::new();
        row.field_usize("task_rank", start_rank)
            .field_str("strategy", "fused")
            .field_usize("groups", plan.groups.len())
            .field_raw("mean_fused_steps", &fixed(plan.mean_fused_steps(), 2))
            .field_raw("memory_s", &fixed(fused.time.memory_access + fused.time.rma, 6))
            .field_raw("permute_s", &fixed(fused.time.permutation, 6))
            .field_raw("gemm_s", &fixed(fused.time.gemm, 6))
            .field_raw("total_s", &fixed(fused.time.total(), 6))
            .field_raw("ai", &fixed(fused.arithmetic_intensity, 2))
            .field_raw("speedup", &fixed(step.time.total() / fused.time.total(), 2));
        rows.push(row.finish());
        fused_steps.push(plan.mean_fused_steps());
    }

    let mut inputs = JsonObject::new();
    inputs.field_usize("steps", steps).field_u64("seed", seed).field_usize("ldm_rank", ldm_rank);
    // The paper reports about 10 fused steps per group.
    let mean = fused_steps.iter().sum::<f64>() / fused_steps.len() as f64;
    let mut summary = JsonObject::new();
    summary.field_raw("mean_fused_steps", &fixed(mean, 2));
    section(inputs, summary.finish(), vec![("rows", rows)])
}

/// Figure 13: the roofline of one core group against DMA, and where the
/// step-by-step and fused kernels sit on it. The paper's step-by-step
/// kernels sit far left of the 42.3 flop/byte ridge; fusion raises their
/// intensity 10–40x.
fn fig13() -> String {
    let (steps, seed) = (10, 1000);
    let arch = SunwayArch::sw26010pro();
    let roofline = Roofline::for_cg(&arch);
    let ldm_rank = arch.max_ldm_rank();

    let curve = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 42.3, 64.0, 128.0]
        .into_iter()
        .map(|ai| {
            let mut row = JsonObject::new();
            row.field_raw("ai", &fixed(ai, 1))
                .field_raw("attainable_gflops", &fixed(roofline.attainable(ai) / 1e9, 1));
            row.finish()
        })
        .collect();
    let mut rows = Vec::new();
    for start_rank in [12usize, 13, 14, 15, 16] {
        let segment = random_segment(seed + start_rank as u64, start_rank, steps, 2, 2);
        let (_, step) = execute_step_by_step(&segment, &arch);
        let (_, fused, _) = execute_fused(&segment, &arch, ldm_rank);
        for (name, report) in [("step-by-step", &step), ("fused", &fused)] {
            let ai = report.arithmetic_intensity;
            let achieved = report.flops as f64 / report.time.total();
            let bound = if roofline.is_compute_bound(ai) { "compute" } else { "memory" };
            let mut row = JsonObject::new();
            row.field_usize("task_rank", start_rank)
                .field_str("strategy", name)
                .field_raw("ai", &fixed(ai, 2))
                .field_raw("attainable_gflops", &fixed(roofline.attainable(ai) / 1e9, 1))
                .field_raw("achieved_gflops", &fixed(achieved / 1e9, 1))
                .field_str("bound", bound);
            rows.push(row.finish());
        }
    }

    let mut inputs = JsonObject::new();
    inputs.field_usize("steps", steps).field_u64("seed", seed);
    let mut summary = JsonObject::new();
    summary
        .field_raw("peak_gflops_per_cg", &fixed(roofline.peak_flops / 1e9, 1))
        .field_raw("dma_gbps", &fixed(roofline.bandwidth / 1e9, 1))
        .field_raw("ridge_point", &fixed(roofline.ridge_point(), 1));
    section(inputs, summary.finish(), vec![("roofline", curve), ("rows", rows)])
}

/// Ablation of the slicing pipeline's design choices: ranking slices by
/// lifetime (Alg. 1) versus greedily by marginal overhead, the SA refiner
/// (Alg. 2) on top of the finder, and searching the stem versus the whole
/// tree — as slicing-set size and overhead of the greedy whole-tree
/// baseline, the dynamic (Alibaba-style) baseline, the finder, and finder +
/// refiner.
fn ablation() -> String {
    const METHODS: [&str; 4] = [
        "greedy (whole tree)",
        "dynamic (stem, re-tuned)",
        "lifetime finder",
        "finder + SA refiner",
    ];
    let (cycles, instances, delta, first_seed) = (12, 8, 4, 1000);

    let mut rows = Vec::new();
    let mut sizes = [0usize; 4];
    let mut overheads = [0.0f64; 4];
    for i in 0..instances {
        let (tree, stem) = &plan_sycamore(cycles, first_seed + i as u64, 2);
        let target = sliced_max_rank(stem, &[]).saturating_sub(delta).max(8);

        let greedy = greedy_slicer(tree, target);
        let dynamic = dynamic_slicer(stem, target);
        let finder = lifetime_slice_finder(stem, target);
        let refined = refine_slicing(stem, &finder, &RefinerConfig::default());
        let results = [
            (greedy.len(), slicing_overhead_tree(tree, &greedy.sliced)),
            (dynamic.plan.len(), slicing_overhead(&dynamic.stem, &dynamic.plan.sliced)),
            (finder.len(), slicing_overhead(stem, &finder.sliced)),
            (refined.len(), slicing_overhead(stem, &refined.sliced)),
        ];
        for (k, (size, overhead)) in results.into_iter().enumerate() {
            let mut row = JsonObject::new();
            row.field_usize("instance", i)
                .field_str("method", METHODS[k])
                .field_usize("sliced", size)
                .field_raw("overhead", &fixed(overhead, 3));
            rows.push(row.finish());
            sizes[k] += size;
            overheads[k] += overhead;
        }
    }

    let means = METHODS
        .iter()
        .enumerate()
        .map(|(k, method)| {
            let mut row = JsonObject::new();
            row.field_str("method", method)
                .field_raw("mean_sliced", &fixed(sizes[k] as f64 / instances as f64, 2))
                .field_raw("mean_overhead", &fixed(overheads[k] / instances as f64, 3));
            row.finish()
        })
        .collect();
    let mut inputs = JsonObject::new();
    inputs
        .field_usize("cycles", cycles)
        .field_usize("instances", instances)
        .field_usize("delta", delta)
        .field_u64("first_seed", first_seed)
        .field_usize("path_candidates", 2);
    section(inputs, table(means), vec![("rows", rows)])
}

/// Build and plan a Sycamore-style network with `cycles` cycles on the full
/// 53-qubit layout: the contraction tree the path search selects, and its
/// stem. Planning is structural only, so this is fast even for m = 20.
fn plan_sycamore(cycles: usize, seed: u64, path_candidates: usize) -> (ContractionTree, Stem) {
    plan_circuit(&RqcConfig::sycamore(cycles, seed).build(), seed, path_candidates)
}

fn plan_circuit(circuit: &Circuit, seed: u64, path_candidates: usize) -> (ContractionTree, Stem) {
    let n = circuit.num_qubits();
    let build = circuit_to_network(circuit, &OutputSpec::Amplitude(vec![0; n]));
    let network = TensorNetwork::from_build(&build);
    let mut work = network.clone();
    let mut pairs = simplify_network(&mut work);
    let candidates = random_greedy_paths(&work, path_candidates.max(1), seed);
    let (_, best) = candidates.into_iter().next().expect("no contraction path found");
    pairs.extend(best);
    let tree = ContractionTree::from_pairs(&network, &pairs);
    let stem = extract_stem(&tree);
    (tree, stem)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_grid_produces_consistent_structures() {
        let (tree, stem) = plan_circuit(&RqcConfig::small(3, 3, 8, 1).build(), 1, 4);
        assert_eq!(tree.node(tree.root()).rank(), 0);
        assert!(!stem.is_empty());
        // At least one leaf tensor per qubit of the 3x3 circuit.
        assert!(tree.num_leaves() > 9);
    }

    #[test]
    fn plan_sycamore_is_structurally_sound() {
        let (tree, stem) = plan_sycamore(10, 3, 2);
        assert!(tree.num_leaves() > 53);
        assert!(tree.total_log_cost() > 15.0);
        assert!(stem.max_rank() >= 10);
    }
}
