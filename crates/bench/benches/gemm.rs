//! GEMM microbench over the stem steps of a plan large enough to mean
//! something.
//!
//! Rather than inventing matrix sizes, this bench plans the repo benchmark's
//! `amp-m20` workload — the 4x5x12 RQC, 20 qubits, `target_rank = 14`, 64
//! subtasks — and mirrors its per-subtask stem exactly as the executor
//! compiles it: one [`ContractionKernel`] per stem contraction, operands in
//! the axis orders the schedule actually produces. Steps are grouped by
//! GEMM shape and ranked by flops per sweep; for every timed shape four
//! paths run:
//!
//! * `reference` — the naive triple loop ([`gemm_reference`]) on dense
//!   operands;
//! * `scalar` — the shape-classified dispatch frozen at the scalar level on
//!   dense operands (what `QTNSIM_FORCE_SCALAR` executes);
//! * `dense` — the same dispatch at the probed SIMD level on dense
//!   operands (`KernelPlan::apply`);
//! * `in_place` — the compiled kernel of the shape's heaviest real step,
//!   operands left in their stem axis order and read through offset tables
//!   (`ContractionKernel::contract`: what production executes, output
//!   overwrite included).
//!
//! Before anything is timed, each shape's `dense` result is checked against
//! `reference` and its `in_place` result against `reference` on explicitly
//! permuted operands, within the conformance suite's bound — so the bench
//! doubles as a correctness smoke on the real shapes.
//!
//! Results go to `BENCH_gemm.json` at the workspace root. This bench sits
//! below the end-to-end numbers of the repo benchmark: it isolates the
//! kernel layer, so a dispatch regression is attributable before it smears
//! into `op_s`.
//!
//! **Quick mode** (`--quick` argument): the same shapes and the same
//! correctness checks, one short repetition each, no JSON refresh. CI runs
//! it in both the SIMD and the forced-scalar job; it has no timing
//! threshold.

use qtn_circuit::{OutputSpec, RqcConfig};
use qtn_tensor::gemm::{gemm_flops, gemm_reference};
use qtn_tensor::permute::permute_to_order;
use qtn_tensor::{
    c64, simd_level, Complex64, ContractionKernel, ContractionSpec, DenseTensor, IndexSet,
    KernelPlan, SimdLevel,
};
use qtnsim_core::json::{array, JsonObject};
use qtnsim_core::{plan_simulation, PlannerConfig, SimulationPlan};
use std::collections::HashMap;
use std::time::Instant;

/// Timed repetitions per measurement (the median is reported).
const REPS: usize = 5;
/// Real-flop target per timed repetition: inner iterations scale so tiny
/// micro shapes are measured over many calls, not one unmeasurable call.
const FLOPS_PER_REP: u64 = 1 << 26;
/// At most this many distinct shapes are timed (descending flops-per-sweep
/// order, so the dominant shapes always make the cut).
const MAX_SHAPES: usize = 16;

fn plan() -> SimulationPlan {
    let circuit = RqcConfig::small(4, 5, 12, 5).build();
    let output = OutputSpec::Amplitude(vec![0; circuit.num_qubits()]);
    plan_simulation(&circuit, &output, &PlannerConfig { target_rank: 14, ..Default::default() })
}

/// One stem contraction as the executor compiles it, with the operand axis
/// orders it was compiled for.
struct Step {
    left: IndexSet,
    right: IndexSet,
    kernel: ContractionKernel,
}

/// The stem of `plan` as the executor runs it per subtask: axis orders
/// follow from the sliced leaves' orders, because every contraction writes
/// `left_free ++ right_free` and the schedule fixes left and right.
fn stem_steps(plan: &SimulationPlan) -> Vec<Step> {
    let sliced = &plan.slicing.sliced;
    let mut orders: Vec<Option<IndexSet>> = vec![None; plan.tree.nodes().len()];
    for (id, node) in plan.tree.nodes().iter().enumerate() {
        if let Some(vertex) = node.leaf_vertex {
            let source = plan.build.nodes[vertex].data.indices();
            orders[id] = Some(source.iter().filter(|axis| !sliced.contains(axis)).collect());
        }
    }
    let mut steps = Vec::new();
    for (l, r, out) in plan.tree.schedule() {
        let left = orders[l].clone().expect("children precede parents");
        let right = orders[r].clone().expect("children precede parents");
        if plan.classification.class(out).is_stem() {
            let kernel = ContractionKernel::new(&left, &right);
            orders[out] = Some(kernel.output().clone());
            steps.push(Step { left, right, kernel });
        } else {
            orders[out] = Some(ContractionSpec::new(&left, &right).output);
        }
    }
    steps
}

fn deterministic_matrix(len: usize, salt: u64) -> Vec<Complex64> {
    // Golden-ratio low-discrepancy fill in [-1, 1): deterministic, cheap,
    // and free of the denormal/overflow hazards of accumulating for long.
    (0..len as u64)
        .map(|i| {
            let x = (i.wrapping_add(salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64
                / (1u64 << 53) as f64;
            let y = (i.wrapping_add(salt ^ 0xABCD).wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 11)
                as f64
                / (1u64 << 53) as f64;
            c64(2.0 * x - 1.0, 2.0 * y - 1.0)
        })
        .collect()
}

/// The conformance suite's absolute bound for entries in the unit square.
fn tolerance(k: usize) -> f64 {
    1e-13 + 16.0 * (k as f64) * (k as f64) * f64::EPSILON
}

fn assert_close(got: &[Complex64], want: &[Complex64], k: usize, what: &str) {
    let tol = tolerance(k);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (*g - *w).abs() <= tol,
            "{what}: entry {i} is {g:?}, reference {w:?} (tol {tol:e})"
        );
    }
}

/// Dispatched dense and in-place results both match the reference.
fn check_shape(step: &Step, auto_plan: KernelPlan, left: &[Complex64], right: &[Complex64]) {
    let spec = step.kernel.spec();
    let (m, n, k) = spec.gemm_shape();
    // Dense: the buffers read as row-major A and B.
    let mut want = vec![Complex64::ZERO; m * n];
    gemm_reference(left, right, &mut want, m, n, k);
    let mut got = vec![Complex64::ZERO; m * n];
    auto_plan.apply(left, right, &mut got, m, n, k);
    assert_close(&got, &want, k, &format!("gemm/{m}x{n}x{k} dense"));
    // In place: the same buffers read in the step's axis orders, against
    // the reference on explicitly permuted copies.
    let order =
        |head: &[u32], tail: &[u32]| -> IndexSet { head.iter().chain(tail).copied().collect() };
    let a = permute_to_order(
        &DenseTensor::from_data(step.left.clone(), left.to_vec()),
        &order(&spec.left_free, &spec.contracted),
    );
    let b = permute_to_order(
        &DenseTensor::from_data(step.right.clone(), right.to_vec()),
        &order(&spec.contracted, &spec.right_free),
    );
    want.fill(Complex64::ZERO);
    gemm_reference(a.data(), b.data(), &mut want, m, n, k);
    step.kernel.contract(left, right, &mut got);
    assert_close(&got, &want, k, &format!("gemm/{m}x{n}x{k} in place"));
}

fn median_seconds(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall time of one call, over `reps` repetitions of `iters` calls.
fn time_path<F: FnMut()>(reps: usize, iters: usize, mut call: F) -> f64 {
    // One untimed warmup rep primes caches and the lazy SIMD probe.
    for _ in 0..iters {
        call();
    }
    median_seconds(
        (0..reps)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    call();
                }
                start.elapsed().as_secs_f64() / iters as f64
            })
            .collect(),
    )
}

/// Check every timed shape, time it, and return one JSON record per shape.
fn run(reps: usize, flops_per_rep: u64) -> (Vec<String>, String) {
    let plan = plan();
    let steps = stem_steps(&plan);
    assert!(!steps.is_empty(), "the plan must have a stem");
    // Steps per shape, and the first (schedule order) step of each as its
    // in-place representative.
    let mut by_shape: HashMap<(usize, usize, usize), (u64, &Step)> = HashMap::new();
    for step in &steps {
        by_shape.entry(step.kernel.spec().gemm_shape()).or_insert((0, step)).0 += 1;
    }
    let mut shapes: Vec<_> = by_shape.into_iter().collect();
    shapes.sort_by_key(|&((m, n, k), (count, _))| {
        (std::cmp::Reverse(gemm_flops(m, n, k) * count), m, n, k)
    });
    let shapes_total = shapes.len();
    shapes.truncate(MAX_SHAPES);
    if shapes_total > shapes.len() {
        eprintln!("gemm: timing top {} of {shapes_total} stem shapes", shapes.len());
    }

    let level = simd_level();
    let mut records = Vec::new();
    for &((m, n, k), (count, step)) in &shapes {
        let left = deterministic_matrix(m * k, 1);
        let right = deterministic_matrix(k * n, 2);
        let mut out = vec![Complex64::ZERO; m * n];
        let auto_plan = KernelPlan::select_with_level(m, n, k, level);
        check_shape(step, auto_plan, &left, &right);

        let flops = gemm_flops(m, n, k).max(1);
        let iters = (flops_per_rep / flops).clamp(1, 4_000_000) as usize;
        let scalar_plan = KernelPlan::select_with_level(m, n, k, SimdLevel::Scalar);
        let reference = time_path(reps, iters, || gemm_reference(&left, &right, &mut out, m, n, k));
        let scalar = time_path(reps, iters, || scalar_plan.apply(&left, &right, &mut out, m, n, k));
        let dense = time_path(reps, iters, || auto_plan.apply(&left, &right, &mut out, m, n, k));
        let in_place = time_path(reps, iters, || step.kernel.contract(&left, &right, &mut out));

        let gflops = |seconds: f64| flops as f64 / seconds / 1e9;
        let path = format!("{:?}", auto_plan.taken::<Complex64>());
        eprintln!(
            "gemm/{m}x{n}x{k} (x{count} per sweep, {iters} iters) [{path}]: reference {:.2}, \
             scalar {:.2}, dense {:.2}, in place {:.2} Gflop/s",
            gflops(reference),
            gflops(scalar),
            gflops(dense),
            gflops(in_place),
        );
        let mut o = JsonObject::new();
        o.field_usize("m", m)
            .field_usize("n", n)
            .field_usize("k", k)
            .field_u64("count_per_sweep", count)
            .field_u64("flops_per_call", flops)
            .field_usize("iters", iters)
            .field_str("path", &path)
            .field_f64("reference_seconds_per_call", reference)
            .field_f64("scalar_seconds_per_call", scalar)
            .field_f64("dense_seconds_per_call", dense)
            .field_f64("in_place_seconds_per_call", in_place)
            .field_f64("reference_gflops", gflops(reference))
            .field_f64("scalar_gflops", gflops(scalar))
            .field_f64("dense_gflops", gflops(dense))
            .field_f64("in_place_gflops", gflops(in_place));
        records.push(o.finish());
    }

    let mut config = JsonObject::new();
    config
        .field_str("circuit", "rqc-4x5x12-seed5")
        .field_usize("target_rank", 14)
        .field_str("simd_level", level.as_str())
        .field_usize("stem_steps", steps.len())
        .field_usize("shapes_total", shapes_total)
        .field_usize("shapes_timed", shapes.len());
    (records, config.finish())
}

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        let (records, _) = run(1, 1 << 20);
        eprintln!("gemm --quick: {} stem shapes match the reference", records.len());
        return;
    }
    let (records, config) = run(REPS, FLOPS_PER_REP);
    let mut top = JsonObject::new();
    top.field_str("schema", "qtnsim-bench/gemm")
        .field_u64("version", 2)
        .field_raw("config", &config)
        .field_raw("results", &array(records));
    let json = format!("{}\n", top.finish());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    std::fs::write(path, json).expect("write BENCH_gemm.json");
}
