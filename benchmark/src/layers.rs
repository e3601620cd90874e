//! The traced pass: every per-layer metric of one workload.
//!
//! Each layer is timed from outside, through the public functions the
//! program itself calls. The planner's stages are re-run one by one the way
//! `plan_simulation` chains them; the stem sweep's contractions, GEMMs and
//! slice gathers are replayed from the compiled plan's own index sets.
//! A metric of a layer the workload bypasses stays 0.

use crate::host;
use crate::manifest::LAYERS;
use crate::serve;
use crate::stats::{median, median_of, sorted, tail};
use crate::trace::Tracer;
use crate::workloads::{execute_op, zero_output, Budget, Cases, Kind, Outcome, Spec};
use crate::Metrics;
use qtn_circuit::{circuit_to_network, Circuit};
use qtn_slicing::overhead::{sliced_max_rank, slicing_overhead};
use qtn_slicing::{lifetime_slice_finder, refine_slicing};
use qtn_tensor::{Complex64, ContractionKernel, ContractionSpec, GemmPath, IndexSet};
use qtn_tensornet::{
    analyze_memory, classify_nodes, defer_projector_joins, extract_stem, greedy_path,
    random_greedy_paths, refine_path, simplify_network, ContractionTree, NodeClass, PathConfig,
    RefineObjective, TensorNetwork,
};
use qtnsim_core::{
    plan_simulation, BufferPool, CompiledCircuit, ExecutionStats, ExecutorConfig, PoolCounters,
    SimulationPlan,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Bytes of one complex amplitude.
const ELEMENT_BYTES: f64 = 16.0;

/// Timing samples by span name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Run `f` in a span and keep its seconds under the span's name.
    fn time<T>(&mut self, tr: &Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (value, seconds) = tr.time(name, f);
        self.0.entry(name).or_default().push(seconds);
        value
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |s| median_of(s.clone()))
    }

    /// Publish the median of every span `x` whose metric `x_s` is declared.
    fn publish(&self, m: &mut Metrics) {
        for layer in &LAYERS {
            if let Some(span) = layer.name.strip_suffix("_s") {
                if self.0.contains_key(span) {
                    m.insert(layer.name, self.median(span));
                }
            }
        }
    }
}

/// The traced pass of one workload.
pub fn run(spec: &Spec, seed: u64, budget: Budget) -> (Outcome, Metrics, Tracer) {
    let tr = Tracer::new(spec.name, true);
    let mut out = Outcome::default();
    let mut m: Metrics = LAYERS.iter().map(|layer| (layer.name, 0.0)).collect();
    let circuit = spec.circuit(seed);

    plan_stages(spec, seed, &circuit, budget, &tr, &mut out, &mut m);
    if spec.kind != Kind::Plan {
        let in_process_p50 = execute_layers(spec, seed, &circuit, budget, &tr, &mut out, &mut m);
        if spec.kind == Kind::Serve {
            serve::layers(spec, seed, budget, in_process_p50, &tr, &mut out, &mut m);
        }
    }
    m.insert("trace.spans", tr.span_count() as f64);
    (out, m, tr)
}

/// The spans `plan_simulation`'s work divides into.
const PLAN_STAGES: [&str; 13] = [
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
    "slicing.cost",
    "tensornet.classify",
    "tensornet.analyze_memory",
];

/// The planner's stages, one span each, chained exactly as
/// `plan_simulation` chains them, beside `plan_simulation` itself.
fn plan_stages(
    spec: &Spec,
    seed: u64,
    circuit: &Circuit,
    budget: Budget,
    tr: &Tracer,
    out: &mut Outcome,
    m: &mut Metrics,
) {
    let (output, config) = (zero_output(circuit), spec.planner());
    let mut samples = Samples::default();
    let mut whole: Option<SimulationPlan> = None;
    let mut facts = Vec::new();

    budget.repeat(0.1, 50, 2, || {
        samples.time(tr, "circuit.generate", || spec.circuit(seed));
        whole =
            Some(samples.time(tr, "planner.plan", || plan_simulation(circuit, &output, &config)));

        let build = samples.time(tr, "circuit.to_network", || circuit_to_network(circuit, &output));
        let network =
            samples.time(tr, "tensornet.from_build", || TensorNetwork::from_build(&build));
        let mut work = network.clone();
        let mut pairs = samples.time(tr, "tensornet.simplify", || simplify_network(&mut work));
        samples.time(tr, "tensornet.path_search", || {
            if config.path_candidates <= 1 {
                let greedy = PathConfig { temperature: 0.0, seed: config.seed };
                pairs.extend(greedy_path(&mut work, &greedy));
            } else {
                let best = random_greedy_paths(&work, config.path_candidates, config.seed);
                pairs.extend(best.into_iter().next().expect("a path candidate").1);
            }
        });
        let mut tree = samples
            .time(tr, "tensornet.build_tree", || ContractionTree::from_pairs(&network, &pairs));
        if config.refine_path {
            samples.time(tr, "tensornet.refine_path", || {
                pairs = refine_path(&tree, RefineObjective::SunwayAdaptive { ldm_rank: 13 }, 4).0;
                tree = ContractionTree::from_pairs(&network, &pairs);
            });
        }
        let mut stem = samples.time(tr, "tensornet.extract_stem", || extract_stem(&tree));
        let found =
            samples.time(tr, "slicing.finder", || lifetime_slice_finder(&stem, config.target_rank));
        let overhead_found = slicing_overhead(&stem, &found.sliced);
        let slicing = if config.refine {
            samples.time(tr, "slicing.refine", || refine_slicing(&stem, &found, &config.refiner))
        } else {
            found
        };
        let overhead_refined = slicing_overhead(&stem, &slicing.sliced);
        let overridable: Vec<usize> =
            build.projector_leaves.iter().map(|&(_, node)| node).collect();
        if config.defer_projector_joins && !slicing.sliced.is_empty() && !overridable.is_empty() {
            samples.time(tr, "tensornet.defer_joins", || {
                pairs = defer_projector_joins(&tree, &slicing.sliced, &overridable, 4).0;
                tree = ContractionTree::from_pairs(&network, &pairs);
                stem = extract_stem(&tree);
            });
        }
        let (log_cost, overhead) = samples.time(tr, "slicing.cost", || {
            (tree.total_log_cost(), slicing_overhead(&stem, &slicing.sliced))
        });
        let classification = samples.time(tr, "tensornet.classify", || {
            classify_nodes(&tree, &slicing.sliced, &overridable, &build.param_leaf_vertices())
        });
        let memory = samples.time(tr, "tensornet.analyze_memory", || {
            analyze_memory(&tree, &classification, &slicing.sliced)
        });

        // The stages must arrive at the plan `plan_simulation` built.
        let plan = whole.as_ref().expect("planned above");
        let same = plan.pairs == pairs
            && plan.slicing == slicing
            && plan.overhead == overhead
            && plan.log_cost == log_cost
            && plan.predicted_peak_bytes() == memory.peak_bytes();
        out.count((!same).then(|| "the staged pipeline left plan_simulation's plan".to_string()));

        let max_rank = sliced_max_rank(&stem, &slicing.sliced);
        let (branch, frontier, pure, mixed) = classification.contraction_counts();
        facts = vec![
            ("circuit.leaf_tensors", build.nodes.len() as f64),
            ("tensornet.log2_cost_unsliced", log_cost),
            ("tensornet.stem_len", stem.len() as f64),
            ("tensornet.nodes_branch", branch as f64),
            ("tensornet.nodes_frontier", frontier as f64),
            ("tensornet.nodes_stem_pure", pure as f64),
            ("tensornet.nodes_stem_mixed", mixed as f64),
            ("tensornet.stem_slots", memory.stem.num_slots() as f64),
            ("slicing.slice_count", slicing.len() as f64),
            ("slicing.overhead_found", overhead_found),
            ("slicing.overhead_refined", overhead_refined),
            ("slicing.sliced_max_rank", max_rank as f64),
            ("slicing.rank_excess", max_rank.saturating_sub(config.target_rank) as f64),
        ];
    });

    samples.publish(m);
    m.extend(facts);
    // How much of `plan_simulation` the stage spans explain.
    let stages: f64 = PLAN_STAGES.iter().map(|stage| samples.median(stage)).sum();
    m.insert("planner.stage_cover", stages / samples.median("planner.plan"));
}

/// Engine, executor, pool, tensor and host metrics of the workload's
/// circuit. Returns the warm in-process execution median.
fn execute_layers(
    spec: &Spec,
    seed: u64,
    circuit: &Circuit,
    budget: Budget,
    tr: &Tracer,
    out: &mut Outcome,
    m: &mut Metrics,
) -> f64 {
    let mut cases = Cases::new(spec, circuit, seed, budget);
    let mut samples = Samples::default();
    let output = zero_output(circuit);

    // Cold: a new engine's compile and the first execution, which builds
    // the branch cache and allocates the pools.
    let engine = spec.engine();
    let compiled = samples
        .time(tr, "engine.compile_cold", || engine.compile(circuit, &output))
        .expect("the circuit compiles");
    let Some((first_s, first)) = execute_op(spec, &compiled, true, &mut cases, tr, out) else {
        return 0.0;
    };
    budget.repeat(0.01, 200, 3, || {
        let hit = samples.time(tr, "engine.compile_hit", || engine.compile(circuit, &output));
        out.count((!hit.is_ok_and(|c| c.plan_cache_hit())).then(|| "plan cache miss".to_string()));
        let bits = cases.next().0;
        let rebound = samples
            .time(tr, "circuit.rebind_output", || compiled.plan().build.rebind_output(&bits));
        out.count(rebound.err().map(|e| format!("rebind_output failed: {e}")));
    });

    // Warm executions, with span recording switched on and off in turn so
    // that drift of the machine cancels out of the overhead ratio.
    let (mut traced, mut untraced, mut gaps) = (Vec::new(), Vec::new(), Vec::new());
    let mut warm = first.clone();
    budget.repeat(1.0 / 3.0, usize::MAX, 3, || {
        let record = traced.len() <= untraced.len();
        tr.set_recording(record);
        if let Some((seconds, stats)) = execute_op(spec, &compiled, true, &mut cases, tr, out) {
            if record { &mut traced } else { &mut untraced }.push(seconds);
            gaps.push((seconds - stats.wall_seconds) / seconds);
            warm = stats;
        }
    });
    tr.set_recording(true);
    let all = sorted(traced.iter().chain(&untraced).copied().collect());
    let warm_s = median(&all);
    let (warm_tail, warm_pct) = tail(&all);
    println!("# executor tail: p{warm_pct:.2} of {} warm executions", all.len());
    if !untraced.is_empty() {
        m.insert("trace.overhead_ratio", median_of(traced) / median_of(untraced));
    }

    // The same plan and caches under other executor configurations.
    let mut variant = |name: &'static str, config: ExecutorConfig, runs: usize| {
        let engine = engine.clone().with_executor(config.clone());
        let compiled = engine.compile(circuit, &output).expect("the circuit compiles");
        let mut last = 0.0;
        for _ in 0..runs {
            let pooled = config.reuse && config.pool;
            let (op, seconds) =
                tr.time(name, || execute_op(spec, &compiled, pooled, &mut cases, tr, out));
            last = if op.is_some() { seconds } else { 0.0 };
        }
        last
    };
    // Without reuse a batch is by definition a loop of single full replays,
    // which `amp-m20` times on the same circuit; 16 of them cost 13 s here.
    let replay_s = if spec.kind == Kind::Batch {
        0.0
    } else {
        variant("executor.replay_exec", ExecutorConfig { reuse: false, ..spec.executor() }, 1)
    };
    let unpooled_s =
        variant("pool.unpooled_exec", ExecutorConfig { pool: false, ..spec.executor() }, 1);
    // The second worker's pool is cold on the first run.
    let two_workers_s =
        variant("executor.two_workers", ExecutorConfig { workers: 2, ..spec.executor() }, 2);

    // One workload is enough for the write path, and this one is the cheapest
    // whose branch cache is worth invalidating.
    if spec.name == "amp-m20" {
        rebind_one_slot(&compiled, &mut cases, spec, tr, out, m);
    }

    let replay = replay_stem(compiled.plan(), &warm, seed, budget, tr, out);
    let host = host::probe(tr);
    let pool_ns = pool_round_trip(compiled.plan(), tr);

    let flops = warm.flops as f64;
    let reused = (warm.stem_pure_flops_reused
        + warm.stem_mixed_flops_reused
        + warm.branch_flops_reused) as f64;
    let kernel_s = replay.contract_s + replay.slice_s;
    let flop_per_byte = flops / replay.bytes_moved;
    let gflops = flops / warm_s / 1e9;
    // The paper's Fig. 13 arithmetic on this machine: the attainable rate is
    // the lower of the compute peak and bandwidth times flops per byte.
    let roofline = host.fma_gflops.min(host.stream_gbps * flop_per_byte);
    samples.publish(m);
    m.extend([
        ("executor.first_exec_s", first_s),
        ("executor.warm_exec_s", warm_s),
        ("executor.warm_exec_tail_s", warm_tail),
        ("executor.cold_extra_s", first_s - warm_s),
        ("executor.flops", flops),
        ("executor.stem_flops", warm.stem_flops as f64),
        ("executor.stem_pure_flops", warm.stem_pure_flops as f64),
        ("executor.stem_mixed_flops", warm.stem_mixed_flops as f64),
        ("executor.frontier_flops", warm.frontier_flops as f64),
        // Paid by the execution that builds the branch cache: the first.
        ("executor.branch_flops", first.branch_flops as f64),
        ("executor.flops_reused", reused),
        ("executor.reuse_ratio", reused / (reused + flops)),
        ("executor.mixed_distinct_keys", warm.stem_mixed_distinct_keys as f64),
        ("executor.subtasks_run", warm.subtasks_run as f64),
        ("executor.gflops", gflops),
        ("executor.roofline_frac", gflops / roofline),
        ("executor.non_kernel_s", warm_s - kernel_s),
        ("executor.non_kernel_share", (warm_s - kernel_s) / warm_s),
        ("executor.replay_exec_s", replay_s),
        ("executor.speedup_w2", warm_s / two_workers_s),
        ("executor.rel_err", out.rel_err),
        ("executor.stats_wall_gap", median_of(gaps)),
        ("pool.unpooled_exec_s", unpooled_s),
        ("pool.buffers_allocated", first.buffers_allocated as f64),
        ("pool.buffers_reused", warm.buffers_reused as f64),
        ("pool.peak_bytes", warm.peak_bytes_in_flight as f64),
        ("pool.predicted_peak_bytes", warm.predicted_peak_bytes as f64),
        ("pool.acquire_release_ns", pool_ns),
        ("tensor.contract_replay_s", replay.contract_s),
        ("tensor.gemm_replay_s", replay.gemm_s),
        ("tensor.permute_s", replay.contract_s - replay.gemm_s),
        ("tensor.slice_gather_s", replay.slice_s),
        ("tensor.gemm_flops", replay.gemm_flops),
        ("tensor.gemm_gflops", replay.gemm_flops / replay.gemm_s / 1e9),
        ("tensor.gemm_calls_micro", warm.gemm_micro as f64),
        ("tensor.gemm_calls_gemv", warm.gemm_gemv as f64),
        ("tensor.gemm_calls_narrow", warm.gemm_narrow as f64),
        ("tensor.gemm_calls_blocked", warm.gemm_blocked as f64),
        ("tensor.gemm_calls_simd", warm.gemm_simd as f64),
        ("tensor.gemm_s_micro", replay.gemm_class_s[0]),
        ("tensor.gemm_s_gemv", replay.gemm_class_s[1]),
        ("tensor.gemm_s_narrow", replay.gemm_class_s[2]),
        ("tensor.gemm_s_blocked", replay.gemm_class_s[3]),
        // Computed from operand sizes, not measured: cache misses are not in it.
        ("tensor.bytes_moved", replay.bytes_moved),
        ("tensor.flop_per_byte", flop_per_byte),
        ("tensor.achieved_gbps", replay.bytes_moved / warm_s / 1e9),
        ("host.stream_gbps", host.stream_gbps),
        ("host.fma_gflops", host.fma_gflops),
        ("host.llc_bytes", host.llc_bytes),
    ]);
    warm_s
}

/// The write beside the reads: rebind one FSim angle to its own value, which
/// invalidates that gate's cone of the branch cache yet leaves the amplitude
/// the oracle knows, then execute.
fn rebind_one_slot(
    compiled: &CompiledCircuit,
    cases: &mut Cases,
    spec: &Spec,
    tr: &Tracer,
    out: &mut Outcome,
    m: &mut Metrics,
) {
    let mut rebound = compiled.clone();
    let Some((slot, value)) = compiled
        .param_slots()
        .iter()
        .enumerate()
        .find(|(_, slot)| slot.name().contains("fsim"))
        .map(|(index, slot)| (index, slot.value()))
    else {
        out.count(Some("the circuit has no FSim parameter slot".to_string()));
        return;
    };
    let (result, rebind_s) =
        tr.time("engine.rebind_params", || rebound.rebind_parameters(&[(slot, value)]));
    out.count(result.err().map(|e| format!("rebind_parameters failed: {e}")));
    if let Some((seconds, stats)) = execute_op(spec, &rebound, true, cases, tr, out) {
        m.insert("engine.rebind_params_s", rebind_s);
        m.insert("engine.rebind_exec_s", seconds);
        m.insert("engine.branch_entries_invalidated", stats.branch_entries_invalidated as f64);
    }
}

/// One stem contraction as the executor compiles it.
struct Step {
    kernel: ContractionKernel,
    lens: (usize, usize, usize),
    mixed: bool,
    /// Dispatch class of its GEMM: micro, gemv, narrow, blocked.
    class: usize,
}

/// One sliced stem leaf: the source vertex, the sliced axes, the result length.
struct Leaf {
    vertex: usize,
    fixes: Vec<(usize, u8)>,
    len: usize,
    mixed: bool,
}

/// What the replay of one execution's stem work measured.
struct Replay {
    contract_s: f64,
    gemm_s: f64,
    /// GEMM seconds by class: micro, gemv, narrow, blocked.
    gemm_class_s: [f64; 4],
    slice_s: f64,
    gemm_flops: f64,
    bytes_moved: f64,
}

/// The stem of `plan` as the executor runs it per subtask: axis orders
/// follow from the leaves' orders, because every contraction writes
/// `left_free ++ right_free` and the schedule fixes left and right.
fn mirror_stem(plan: &SimulationPlan) -> (Vec<Leaf>, Vec<Step>) {
    let sliced = &plan.slicing.sliced;
    let classes = &plan.classification;
    let nodes = plan.tree.nodes();
    let mut orders: Vec<Option<IndexSet>> = vec![None; nodes.len()];
    let mut leaves = Vec::new();
    for (id, node) in nodes.iter().enumerate() {
        let Some(vertex) = node.leaf_vertex else { continue };
        let source = plan.build.nodes[vertex].data.indices();
        let kept: Vec<_> = source.iter().filter(|axis| !sliced.contains(axis)).collect();
        if classes.class(id).is_stem() {
            let fixes = sliced
                .iter()
                .enumerate()
                .filter_map(|(bit, &edge)| Some((source.position(edge)?, (bit % 2) as u8)))
                .collect();
            let mixed = classes.class(id) == NodeClass::StemMixed;
            leaves.push(Leaf { vertex, fixes, len: 1 << kept.len(), mixed });
        }
        orders[id] = Some(IndexSet::new(kept));
    }
    let mut steps = Vec::new();
    for (l, r, result) in plan.tree.schedule() {
        let (left, right) =
            (orders[l].as_ref().expect("child first"), orders[r].as_ref().expect("child first"));
        if classes.class(result).is_stem() {
            let kernel = ContractionKernel::new(left, right);
            let lens = (left.len(), right.len(), kernel.output().len());
            let mixed = classes.class(result) == NodeClass::StemMixed;
            orders[result] = Some(kernel.output().clone());
            let class = gemm_class(kernel.gemm_plan().taken::<Complex64>());
            steps.push(Step { kernel, lens, mixed, class });
        } else {
            orders[result] = Some(ContractionSpec::new(left, right).output);
        }
    }
    (leaves, steps)
}

fn gemm_class(path: GemmPath) -> usize {
    match path {
        GemmPath::MicroSimd | GemmPath::MicroScalar => 0,
        GemmPath::GemvRow | GemmPath::GemvCol => 1,
        GemmPath::NarrowSimd | GemmPath::NarrowScalar => 2,
        GemmPath::BlockedSimd | GemmPath::BlockedScalar => 3,
    }
}

/// Replay one sweep's contractions, GEMMs and slice gathers, then scale to
/// the execution `stats` describes: a StemPure step ran
/// `stem_pure_flops / pure flops per sweep` times, a StemMixed step likewise
/// (on a batch that is less than once per bitstring, thanks to dedup).
fn replay_stem(
    plan: &SimulationPlan,
    stats: &ExecutionStats,
    seed: u64,
    budget: Budget,
    tr: &Tracer,
    out: &mut Outcome,
) -> Replay {
    let (leaves, steps) = mirror_stem(plan);
    let sweep_flops = |mixed: bool| -> f64 {
        steps.iter().filter(|s| s.mixed == mixed).map(|s| s.kernel.flops() as f64).sum()
    };
    let times_run = |mixed: bool, executed: u64| match sweep_flops(mixed) {
        0.0 => 0.0,
        per_sweep => executed as f64 / per_sweep,
    };
    let runs = [times_run(false, stats.stem_pure_flops), times_run(true, stats.stem_mixed_flops)];
    // The mirror is right only if it bills what the executor billed.
    // A loop of single executions replays every step once per bitstring
    // and subtask; the executor reports that bill as executed plus reused.
    let sweeps = stats.amplitudes_in_batch.max(1) as f64 * stats.subtasks_run as f64;
    let mirrored = (sweep_flops(false) + sweep_flops(true)) * sweeps;
    let billed =
        (stats.stem_flops + stats.stem_pure_flops_reused + stats.stem_mixed_flops_reused) as f64;
    out.count(
        (mirrored != billed)
            .then(|| format!("the mirrored stem bills {mirrored} flops, the executor {billed}")),
    );

    let longest = steps.iter().map(|s| s.lens.0.max(s.lens.1).max(s.lens.2)).max().unwrap_or(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut random = || -> Vec<Complex64> {
        (0..longest)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    };
    let (left, right) = (random(), random());
    let (mut left_scratch, mut right_scratch) = (random(), random());
    let mut result = vec![Complex64::ZERO; longest];

    let mut samples = Samples::default();
    const CONTRACT: [&str; 2] = ["tensor.contract_replay.pure", "tensor.contract_replay.mixed"];
    const SLICE: [&str; 2] = ["tensor.slice_gather.pure", "tensor.slice_gather.mixed"];
    const GEMM: [[&str; 2]; 4] = [
        ["tensor.gemm_replay.micro.pure", "tensor.gemm_replay.micro.mixed"],
        ["tensor.gemm_replay.gemv.pure", "tensor.gemm_replay.gemv.mixed"],
        ["tensor.gemm_replay.narrow.pure", "tensor.gemm_replay.narrow.mixed"],
        ["tensor.gemm_replay.blocked.pure", "tensor.gemm_replay.blocked.mixed"],
    ];
    budget.repeat(0.03, 1000, 1, || {
        for mixed in [false, true] {
            let group = |s: &&Step| s.mixed == mixed;
            samples.time(tr, CONTRACT[mixed as usize], || {
                for step in steps.iter().filter(group) {
                    let (l, r, o) = step.lens;
                    step.kernel.contract_into(
                        &left[..l],
                        &right[..r],
                        &mut left_scratch[..l],
                        &mut right_scratch[..r],
                        &mut result[..o],
                    );
                }
            });
            for (class, names) in GEMM.iter().enumerate() {
                samples.time(tr, names[mixed as usize], || {
                    for step in steps.iter().filter(|s| s.mixed == mixed && s.class == class) {
                        let (rows, cols, inner) = step.kernel.spec().gemm_shape();
                        step.kernel.gemm_plan().apply(
                            &left[..rows * inner],
                            &right[..inner * cols],
                            &mut result[..rows * cols],
                            rows,
                            cols,
                            inner,
                        );
                    }
                });
            }
            samples.time(tr, SLICE[mixed as usize], || {
                for leaf in leaves.iter().filter(|leaf| leaf.mixed == mixed) {
                    plan.build.nodes[leaf.vertex]
                        .data
                        .slice_into(&leaf.fixes, &mut result[..leaf.len]);
                }
            });
            black_box(&result);
        }
    });

    let scaled = |names: &[&str; 2]| -> f64 {
        samples.median(names[0]) * runs[0] + samples.median(names[1]) * runs[1]
    };
    let gemm_class_s = [scaled(&GEMM[0]), scaled(&GEMM[1]), scaled(&GEMM[2]), scaled(&GEMM[3])];
    let bytes_moved = steps
        .iter()
        .map(|s| s.kernel.spec().elements_moved() as f64 * ELEMENT_BYTES * runs[s.mixed as usize])
        .sum();
    Replay {
        contract_s: scaled(&CONTRACT),
        gemm_s: gemm_class_s.iter().sum(),
        gemm_class_s,
        slice_s: scaled(&SLICE),
        gemm_flops: (stats.stem_pure_flops + stats.stem_mixed_flops) as f64,
        bytes_moved,
    }
}

/// Nanoseconds of one warm `BufferPool` acquire and release, over the size
/// classes the plan's stem sweep uses.
fn pool_round_trip(plan: &SimulationPlan, tr: &Tracer) -> f64 {
    let lens: Vec<usize> =
        plan.memory_plan.stem.slot_ranks().iter().map(|&rank| 1 << rank).collect();
    if lens.is_empty() {
        return 0.0;
    }
    let mut pool = BufferPool::new();
    let mut counters = PoolCounters::default();
    let mut round = |pool: &mut BufferPool| {
        for &len in &lens {
            let buffer = pool.acquire(len, &mut counters);
            pool.release(black_box(buffer), &mut counters);
        }
    };
    round(&mut pool);
    let rounds = 20_000 / lens.len() + 1;
    let ((), seconds) =
        tr.time("pool.acquire_release", || (0..rounds).for_each(|_| round(&mut pool)));
    seconds * 1e9 / (rounds * lens.len()) as f64
}
