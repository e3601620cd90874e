//! GEMM microbench over the stem steps of plans large enough to mean
//! something.
//!
//! Rather than inventing matrix sizes, this bench plans two of the repo
//! benchmark's workloads — `amp-m20` (the 4x5x12 RQC, 20 qubits,
//! `target_rank = 14`, 64 subtasks) and `amp-l30` (the 5x6x12 RQC, 30
//! qubits, `target_rank = 18`, rank-19 tensors that leave L2) — and mirrors
//! each per-subtask stem exactly as the executor compiles it: one
//! [`ContractionKernel`] per stem contraction, operands in the axis orders
//! the schedule actually produces. Steps are grouped by GEMM shape and
//! ranked by flops per sweep; for every timed shape four paths run:
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
//! Before anything is timed, *every* stem shape of both plans — not only the
//! timed ones — has its `dense` result checked against `reference` and its
//! `in_place` result against `reference` on explicitly permuted operands,
//! within the conformance suite's bound; and the `in_place` result must
//! equal [`KernelPlan::apply`] on those permuted operands bit for bit, the
//! contract `apply_views` documents. At both x86 levels (AVX2+FMA and
//! AVX-512) every narrow and blocked shape's `dense` result must also equal
//! a scalar model of the x86 tile's FMA order bit for bit, which reaches the
//! multi-chunk, multi-group shapes a unit test cannot afford. So the bench
//! doubles as a correctness smoke on the real shapes of every class, the
//! small micro, GEMV and narrow ones included.
//!
//! The four paths are timed round-robin: each repetition runs every path's
//! calls in turn, so host clock drift hits them alike. A path runs at least
//! the calls its shape's flop target asks for, and keeps calling until the
//! repetition has lasted [`MIN_REP_SECONDS`], so a large shape is timed over
//! several calls, not one; shapes whose flop target is a single call also
//! get [`SINGLE_CALL_REPS`] repetitions instead of [`REPS`]. Each path
//! records the median, minimum and maximum seconds per call over the
//! repetitions. At the x86 levels a 12-chain FMA loop at 256 bits runs in
//! the same rounds, and at the AVX-512 level one at 512 bits beside it. Each shape records its
//! `in_place` rate as a fraction of the running level's loop
//! (`in_place_peak_frac`: the 512-bit one at AVX-512, where the blocked
//! class runs 512-bit tiles and every other class 256-bit ones; the config
//! carries `host_fma_gflops`, and `host_fma256_gflops` at AVX-512). Gflop/s
//! from runs in different host phases do not compare; fractions of a peak
//! measured in the same rounds do. The scalar and NEON levels run no FMA
//! chains, so they record no peak.
//!
//! Results go to `BENCH_gemm.json` at the workspace root. This bench sits
//! below the end-to-end numbers of the repo benchmark: it isolates the
//! kernel layer, so a dispatch regression is attributable before it smears
//! into `op_s`.
//!
//! **Quick mode** (`--quick` argument): the same correctness checks on
//! every shape, one short timed repetition each, no JSON refresh. CI runs
//! it in both the SIMD and the forced-scalar job; it has no timing
//! threshold.

use qtn_circuit::{OutputSpec, RqcConfig};
use qtn_tensor::gemm::{gemm_flops, gemm_reference};
use qtn_tensor::permute::permute_to_order;
use qtn_tensor::{
    c64, simd_level, Complex64, ContractionKernel, ContractionSpec, DenseTensor, DispatchClass,
    IndexSet, KernelPlan, SimdLevel,
};
use qtnsim_core::json::{array, JsonObject};
use qtnsim_core::{plan_simulation, PlannerConfig, SimulationPlan};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per measurement (median, min and max are reported).
const REPS: usize = 5;
/// Timed repetitions of a shape whose flop target is one call: its
/// repetitions each hold only a few calls, so it needs more of them.
const SINGLE_CALL_REPS: usize = 11;
/// Least wall time of one path's calls in one timed repetition.
const MIN_REP_SECONDS: f64 = 0.05;
/// The timed paths, in the order [`time_round_robin`] runs them.
const PATHS: [&str; 4] = ["reference", "scalar", "dense", "in_place"];
/// Real-flop target per timed repetition: inner iterations scale so tiny
/// micro shapes are measured over many calls, not one unmeasurable call.
const FLOPS_PER_REP: u64 = 1 << 26;
/// At most this many distinct shapes are timed per plan (descending
/// flops-per-sweep order, so the dominant shapes always make the cut);
/// every shape is checked.
const MAX_SHAPES: usize = 16;
/// Independent accumulators of the FMA peak loop: enough to cover the
/// multiply-add latency on two ports.
const FMA_CHAINS: usize = 12;

/// A mirrored workload: its name in the repo benchmark, the RQC grid, and
/// the planner's target rank (seed 5, 12 cycles for both).
struct Workload {
    name: &'static str,
    grid: (usize, usize),
    target_rank: usize,
}

const WORKLOADS: [Workload; 2] = [
    Workload { name: "amp-m20", grid: (4, 5), target_rank: 14 },
    Workload { name: "amp-l30", grid: (5, 6), target_rank: 18 },
];

fn plan(workload: &Workload) -> SimulationPlan {
    let (rows, cols) = workload.grid;
    let circuit = RqcConfig::small(rows, cols, 12, 5).build();
    let output = OutputSpec::Amplitude(vec![0; circuit.num_qubits()]);
    let config = PlannerConfig { target_rank: workload.target_rank, ..Default::default() };
    plan_simulation(&circuit, &output, &config)
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

fn same_bits(got: &[Complex64], want: &[Complex64]) -> bool {
    got.iter()
        .zip(want)
        .all(|(g, w)| g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits())
}

/// `C += A·B` in the AVX2 tile's documented per-element order, in scalar
/// FMAs: `p` ascending, the `ar` term before the `ai` term.
fn avx2_fma_model(
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
    (m, n, k): (usize, usize, usize),
) {
    for i in 0..m {
        for j in 0..n {
            let (mut re, mut im) = (c[i * n + j].re, c[i * n + j].im);
            for p in 0..k {
                let (x, y) = (a[i * k + p], b[p * n + j]);
                re = x.re.mul_add(y.re, re);
                im = x.re.mul_add(y.im, im);
                re = x.im.mul_add(-y.im, re);
                im = x.im.mul_add(y.re, im);
            }
            c[i * n + j] = c64(re, im);
        }
    }
}

/// Dispatched dense and in-place results both match the reference, and the
/// in-place result is the compiled plan applied to the permuted operands,
/// bit for bit.
fn check_shape(step: &Step, auto_plan: KernelPlan, left: &[Complex64], right: &[Complex64]) {
    let spec = step.kernel.spec();
    let (m, n, k) = spec.gemm_shape();
    // Dense: the buffers read as row-major A and B.
    let mut want = vec![Complex64::ZERO; m * n];
    gemm_reference(left, right, &mut want, m, n, k);
    let mut got = vec![Complex64::ZERO; m * n];
    auto_plan.apply(left, right, &mut got, m, n, k);
    assert_close(&got, &want, k, &format!("gemm/{m}x{n}x{k} dense"));
    if matches!(auto_plan.level(), SimdLevel::Avx2Fma | SimdLevel::Avx512)
        && matches!(auto_plan.class(), DispatchClass::Narrow | DispatchClass::Blocked)
    {
        let mut model = vec![Complex64::ZERO; m * n];
        avx2_fma_model(left, right, &mut model, (m, n, k));
        assert!(
            same_bits(&got, &model),
            "gemm/{m}x{n}x{k} [{:?} at {:?}]: dense result differs from the x86 tile's FMA order",
            auto_plan.taken::<Complex64>(),
            auto_plan.level()
        );
    }
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
    want.fill(Complex64::ZERO);
    step.kernel.gemm_plan().apply(a.data(), b.data(), &mut want, m, n, k);
    assert!(
        same_bits(&got, &want),
        "gemm/{m}x{n}x{k} [{:?}]: in place differs from the plan applied to permuted operands",
        step.kernel.gemm_plan().taken::<Complex64>()
    );
}

/// `rounds` rounds of one fused multiply-add on each of [`FMA_CHAINS`]
/// four-lane accumulators: `8 * FMA_CHAINS` flops a round.
///
/// # Safety
/// Requires AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_rounds_avx2(rounds: u64) {
    use std::arch::x86_64::{_mm256_fmadd_pd, _mm256_set1_pd};
    let (scale, shift) = (_mm256_set1_pd(black_box(0.999_999)), _mm256_set1_pd(black_box(1e-6)));
    let mut acc = [_mm256_set1_pd(1.0); FMA_CHAINS];
    for _ in 0..rounds {
        for x in &mut acc {
            *x = _mm256_fmadd_pd(*x, scale, shift);
        }
    }
    black_box(acc);
}

/// [`fma_rounds_avx2`] on eight-lane accumulators: `16 * FMA_CHAINS` flops
/// a round.
///
/// # Safety
/// Requires AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fma_rounds_avx512(rounds: u64) {
    use std::arch::x86_64::{_mm512_fmadd_pd, _mm512_set1_pd};
    let (scale, shift) = (_mm512_set1_pd(black_box(0.999_999)), _mm512_set1_pd(black_box(1e-6)));
    let mut acc = [_mm512_set1_pd(1.0); FMA_CHAINS];
    for _ in 0..rounds {
        for x in &mut acc {
            *x = _mm512_fmadd_pd(*x, scale, shift);
        }
    }
    black_box(acc);
}

/// A timed FMA peak loop.
type PeakCall = Box<dyn Fn(&mut [Complex64])>;

/// The FMA peak loops as calls doing about `flops` flops each: the
/// rooflines every shape's rate is read against, the running level's
/// first — the 512-bit loop, then the 256-bit one, at AVX-512; the 256-bit
/// loop alone at AVX2+FMA. None at the scalar and NEON levels, whose
/// kernels issue no FMA chains.
#[cfg(target_arch = "x86_64")]
fn fma_peak_calls(level: SimdLevel, flops: u64) -> Vec<PeakCall> {
    let rounds = |lanes: u64| flops.div_ceil(2 * lanes * FMA_CHAINS as u64);
    let (avx2, avx512) = (rounds(4), rounds(8));
    // SAFETY: the level is `Avx2Fma` or `Avx512` only after the runtime
    // probe found AVX2 and FMA, and `Avx512` only after it also found
    // AVX-512F.
    let ymm: PeakCall = Box::new(move |_| unsafe { fma_rounds_avx2(avx2) });
    match level {
        SimdLevel::Avx2Fma => vec![ymm],
        SimdLevel::Avx512 => vec![Box::new(move |_| unsafe { fma_rounds_avx512(avx512) }), ymm],
        SimdLevel::Scalar | SimdLevel::Neon => Vec::new(),
    }
}

/// No x86 level off x86_64, so no FMA peak loop.
#[cfg(not(target_arch = "x86_64"))]
fn fma_peak_calls(_: SimdLevel, _: u64) -> Vec<PeakCall> {
    Vec::new()
}

/// One timed path: a call that writes its result into the shared output.
type Path<'a> = &'a dyn Fn(&mut [Complex64]);

/// Seconds per call of one path over the timed repetitions.
struct Timing {
    median: f64,
    min: f64,
    max: f64,
}

/// Time `paths` round-robin: one untimed warmup pass (it primes caches and
/// the lazy SIMD probe), then `reps` repetitions, each running every path
/// in turn into `out`: `iters` calls, then more until `min_seconds` have
/// passed.
fn time_round_robin(
    reps: usize,
    iters: usize,
    min_seconds: f64,
    paths: &[Path<'_>],
    out: &mut [Complex64],
) -> Vec<Timing> {
    let mut samples = vec![Vec::with_capacity(reps); paths.len()];
    for rep in 0..=reps {
        for (path, seconds) in paths.iter().zip(&mut samples) {
            let start = Instant::now();
            let mut calls = 0;
            while calls < iters || start.elapsed().as_secs_f64() < min_seconds {
                path(out);
                calls += 1;
            }
            if rep > 0 {
                seconds.push(start.elapsed().as_secs_f64() / calls as f64);
            }
        }
    }
    samples
        .into_iter()
        .map(|mut seconds| {
            seconds.sort_by(f64::total_cmp);
            Timing {
                median: seconds[seconds.len() / 2],
                min: seconds[0],
                max: seconds[seconds.len() - 1],
            }
        })
        .collect()
}

/// Check every stem shape of `workload`, time the top [`MAX_SHAPES`], and
/// return one JSON record per timed shape, the FMA loops' Gflop/s per timed
/// shape (the running level's first), and the plan's config record.
fn run(workload: &Workload, timing: &TimingConfig) -> (Vec<String>, Vec<Vec<f64>>, String) {
    let plan = plan(workload);
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
    let level = simd_level();
    for &((m, n, k), (_, step)) in &shapes {
        let auto_plan = KernelPlan::select_with_level(m, n, k, level);
        check_shape(
            step,
            auto_plan,
            &deterministic_matrix(m * k, 1),
            &deterministic_matrix(k * n, 2),
        );
    }
    let shapes_total = shapes.len();
    shapes.truncate(MAX_SHAPES);
    eprintln!(
        "gemm/{}: checked all {shapes_total} stem shapes, timing the top {}",
        workload.name,
        shapes.len()
    );

    let (mut records, mut peaks) = (Vec::new(), Vec::new());
    for &((m, n, k), (count, step)) in &shapes {
        let left = deterministic_matrix(m * k, 1);
        let right = deterministic_matrix(k * n, 2);
        let mut out = vec![Complex64::ZERO; m * n];
        let auto_plan = KernelPlan::select_with_level(m, n, k, level);

        let flops = gemm_flops(m, n, k).max(1);
        let iters = (timing.flops_per_rep / flops).clamp(1, 4_000_000) as usize;
        let reps = if iters == 1 { timing.single_call_reps } else { timing.reps };
        let scalar_plan = KernelPlan::select_with_level(m, n, k, SimdLevel::Scalar);
        let kernels: [Path<'_>; 4] = [
            &|out| gemm_reference(&left, &right, out, m, n, k),
            &|out| scalar_plan.apply(&left, &right, out, m, n, k),
            &|out| auto_plan.apply(&left, &right, out, m, n, k),
            &|out| step.kernel.contract(&left, &right, out),
        ];
        let peak_calls = fma_peak_calls(level, flops);
        let peak_paths = peak_calls.iter().map(|call| call.as_ref() as Path<'_>);
        let paths: Vec<Path<'_>> = kernels.into_iter().chain(peak_paths).collect();
        let timings = time_round_robin(reps, iters, timing.min_rep_seconds, &paths, &mut out);

        let gflops = |seconds: f64| flops as f64 / seconds / 1e9;
        let path = format!("{:?}", auto_plan.taken::<Complex64>());
        let in_place = gflops(timings[3].median);
        let shape_peaks: Vec<f64> =
            timings[4..].iter().map(|timing| gflops(timing.median)).collect();
        let peak = shape_peaks.first().copied();
        eprintln!(
            "gemm/{}/{m}x{n}x{k} (x{count} per sweep, {iters} iters) [{path}]: reference {:.2}, \
             scalar {:.2}, dense {:.2}, in place {:.2} Gflop/s{}",
            workload.name,
            gflops(timings[0].median),
            gflops(timings[1].median),
            gflops(timings[2].median),
            in_place,
            peak.map_or(String::new(), |peak| {
                format!(" ({:.0}% of the {peak:.1} FMA peak)", 100.0 * in_place / peak)
            }),
        );
        peaks.push(shape_peaks.clone());
        let mut o = JsonObject::new();
        o.field_str("plan", workload.name)
            .field_usize("m", m)
            .field_usize("n", n)
            .field_usize("k", k)
            .field_u64("count_per_sweep", count)
            .field_u64("flops_per_call", flops)
            .field_usize("iters", iters)
            .field_usize("reps", reps)
            .field_str("path", &path);
        for (name, timing) in PATHS.iter().zip(&timings) {
            o.field_f64(&format!("{name}_seconds_per_call"), timing.median)
                .field_f64(&format!("{name}_min_seconds_per_call"), timing.min)
                .field_f64(&format!("{name}_max_seconds_per_call"), timing.max)
                .field_f64(&format!("{name}_gflops"), gflops(timing.median));
        }
        if let Some(peak) = peak {
            o.field_f64("fma_gflops", peak).field_f64("in_place_peak_frac", in_place / peak);
        }
        if let Some(&peak256) = shape_peaks.get(1) {
            o.field_f64("fma256_gflops", peak256);
        }
        records.push(o.finish());
    }

    let (rows, cols) = workload.grid;
    let mut config = JsonObject::new();
    config
        .field_str("plan", workload.name)
        .field_str("circuit", &format!("rqc-{rows}x{cols}x12-seed5"))
        .field_usize("target_rank", workload.target_rank)
        .field_usize("stem_steps", steps.len())
        .field_usize("shapes_total", shapes_total)
        .field_usize("shapes_timed", shapes.len());
    (records, peaks, config.finish())
}

/// How much each timed shape runs.
struct TimingConfig {
    reps: usize,
    single_call_reps: usize,
    flops_per_rep: u64,
    min_rep_seconds: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let timing = if quick {
        TimingConfig { reps: 1, single_call_reps: 1, flops_per_rep: 1 << 20, min_rep_seconds: 0.0 }
    } else {
        TimingConfig {
            reps: REPS,
            single_call_reps: SINGLE_CALL_REPS,
            flops_per_rep: FLOPS_PER_REP,
            min_rep_seconds: MIN_REP_SECONDS,
        }
    };
    let (mut records, mut peaks, mut plans) = (Vec::new(), Vec::new(), Vec::new());
    for workload in &WORKLOADS {
        let (shape_records, shape_peaks, config) = run(workload, &timing);
        records.extend(shape_records);
        peaks.extend(shape_peaks);
        plans.push(config);
    }
    if quick {
        eprintln!(
            "gemm --quick: every stem shape matches the reference and is bit-identical in place{}",
            if matches!(simd_level(), SimdLevel::Avx2Fma | SimdLevel::Avx512) {
                "; narrow and blocked shapes follow the x86 tile's FMA order"
            } else {
                ""
            }
        );
        return;
    }
    let mut config = JsonObject::new();
    config
        .field_str("simd_level", simd_level().as_str())
        .field_f64("min_rep_seconds", timing.min_rep_seconds);
    for (i, name) in ["host_fma_gflops", "host_fma256_gflops"].into_iter().enumerate() {
        let mut at: Vec<f64> = peaks.iter().filter_map(|shape| shape.get(i).copied()).collect();
        at.sort_by(f64::total_cmp);
        if let Some(&peak) = at.get(at.len() / 2) {
            config.field_f64(name, peak);
        }
    }
    config.field_raw("plans", &array(plans));
    let mut top = JsonObject::new();
    top.field_str("schema", "qtnsim-bench/gemm")
        .field_u64("version", 7)
        .field_raw("config", &config.finish())
        .field_raw("results", &array(records));
    let json = format!("{}\n", top.finish());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gemm.json");
    std::fs::write(path, json).expect("write BENCH_gemm.json");
}
