//! Kernel-conformance harness for the GEMM dispatch stack.
//!
//! Every dispatch path — the unrolled micro-kernels, the GEMV row/col
//! products, the narrow kernel, the packed/blocked kernel, and each of
//! their SIMD variants reachable on this machine — is checked against
//! [`qtn_tensor::gemm::gemm_reference`] on a seeded-random shape grid, with
//! exact equality on integer-valued inputs and a stated floating-point
//! bound on random inputs. The shapes of the real `amp-m20` / `amp-l30`
//! stems additionally run *in place* — operands left in a shuffled axis
//! order and read through offset tables — against the reference on
//! explicitly permuted copies. One test drives a grid that reaches every
//! path and executes each of its applies against the reference.
//!
//! Tests serialize on a file-scoped mutex: the SIMD override is
//! process-global.

use qtn_tensor::gemm::gemm_reference;
use qtn_tensor::permute::permute_to_order;
use qtn_tensor::{
    c64, set_simd_override, simd_level, Complex64, ContractionKernel, DenseTensor, DispatchClass,
    GemmPath, IndexId, IndexSet, KernelPlan, OffsetTable, SimdLevel,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};

/// The override is process-global; serialize every test in this binary so
/// levels are stable.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The SIMD levels it is safe to *execute* on this machine: the scalar
/// reference level always, plus the effective probed level when it is not
/// already scalar, plus AVX2+FMA below a probed AVX-512 (which implies it).
/// (Forcing a level the hardware lacks would execute unsupported
/// instructions, so the grid never does that; under `QTNSIM_FORCE_SCALAR`
/// this collapses to scalar-only and the suite tests exactly the forced
/// configuration.)
fn levels() -> Vec<SimdLevel> {
    match simd_level() {
        SimdLevel::Scalar => vec![SimdLevel::Scalar],
        SimdLevel::Avx512 => vec![SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512],
        eff => vec![SimdLevel::Scalar, eff],
    }
}

/// The executable x86 levels, whose narrow and blocked classes run the
/// interleaved tile.
fn x86_levels() -> Vec<SimdLevel> {
    let x86 = |level: &SimdLevel| matches!(level, SimdLevel::Avx2Fma | SimdLevel::Avx512);
    levels().into_iter().filter(x86).collect()
}

/// Clears the override even if an assert unwinds mid-test.
struct RestoreOverride;

impl Drop for RestoreOverride {
    fn drop(&mut self) {
        set_simd_override(None);
    }
}

/// Shape grid: degenerate dims, every micro shape, GEMV shapes, narrow
/// shapes, and blocked shapes straddling the packing block boundaries
/// (PBM = 32, PBN = 64, PBK = 64).
fn grid() -> Vec<(usize, usize, usize)> {
    let mut g = vec![
        // Degenerate: zero dims must touch nothing and panic nowhere.
        (0, 5, 7),
        (5, 0, 7),
        (5, 7, 0),
        (0, 0, 0),
        (1, 1, 1),
        // GEMV row/col, including the degenerate dot product.
        (1, 17, 33),
        (1, 64, 128),
        (23, 1, 40),
        (1, 1, 64),
        // Narrow (two dims <= 16), including the boundary (16, 16, 16).
        (8, 100, 16),
        (100, 3, 8),
        (16, 16, 16),
        // Blocked: one below / exactly at / one above the 32/64/64 packing
        // panels, plus non-power-of-two remainders in every dimension.
        (31, 63, 65),
        (32, 64, 64),
        (33, 65, 63),
        (17, 96, 33),
        (96, 65, 129),
    ];
    // Every rank-specialized micro shape.
    for m in [1usize, 2, 4] {
        for n in [1usize, 2, 4] {
            for k in [2usize, 4, 8] {
                g.push((m, n, k));
            }
        }
    }
    g
}

/// Absolute error bound for random inputs with entries in the unit square:
/// per-term magnitude <= 2, partial sums <= 2k, so naive-summation error is
/// below ~2k^2 * eps; the two computations being compared can each carry
/// that much, and reordered/FMA paths carry less. 8x margin.
fn tol_f64(k: usize) -> f64 {
    1e-13 + 16.0 * (k as f64) * (k as f64) * f64::EPSILON
}

fn random_c64(rng: &mut StdRng, len: usize) -> Vec<Complex64> {
    (0..len).map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
}

/// Integer-valued complex entries in `[-2, 2]`: products and sums stay
/// exact integers in every kernel (FMA included), so all paths must agree
/// exactly. (The vendored rand stub has no signed integer ranges, hence the
/// usize detour.)
fn int_c64(rng: &mut StdRng, len: usize) -> Vec<Complex64> {
    (0..len)
        .map(|_| c64(rng.gen_range(0usize..5) as f64 - 2.0, rng.gen_range(0usize..5) as f64 - 2.0))
        .collect()
}

fn apply_vs_reference_c64(plan: KernelPlan, m: usize, n: usize, k: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = random_c64(&mut rng, m * k);
    let b = random_c64(&mut rng, k * n);
    // Dirty C pins the accumulation contract: every path computes C += A*B.
    let dirty = random_c64(&mut rng, m * n);
    let mut c_ref = dirty.clone();
    gemm_reference(&a, &b, &mut c_ref, m, n, k);
    let mut c_got = dirty.clone();
    plan.apply(&a, &b, &mut c_got, m, n, k);
    let tol = tol_f64(k);
    for (i, (g, r)) in c_got.iter().zip(c_ref.iter()).enumerate() {
        assert!(
            (*g - *r).abs() <= tol,
            "c64 shape ({m},{n},{k}) path {:?} entry {i}: {g:?} vs {r:?} (tol {tol:e})",
            plan.taken::<Complex64>()
        );
    }
}

/// Every auto-selected path on the full grid matches the reference within
/// the stated bound at every executable level, starting from a dirty `C`.
#[test]
fn random_grid_matches_reference() {
    let _guard = lock();
    for (idx, &(m, n, k)) in grid().iter().enumerate() {
        for level in levels() {
            let plan = KernelPlan::select_with_level(m, n, k, level);
            apply_vs_reference_c64(plan, m, n, k, 0xC0DE + idx as u64);
        }
    }
}

/// The narrow steps of the real stems — `amp-m20`'s heavy ones, then the
/// three `amp-l30` ones whose long operand leaves L2 — and two shapes that
/// put the half-height and half-width tiles behind tables.
const PLAN_SHAPES: [(usize, usize, usize); 11] = [
    (16384, 4, 4),
    (4, 16384, 4),
    (8192, 4, 8),
    (8, 4, 4096),
    (2048, 8, 8),
    (1024, 16, 4),
    (65536, 8, 8),
    (8, 65536, 8),
    (4, 131072, 4),
    (2, 1024, 4),
    (1024, 2, 4),
];

fn shuffled(rng: &mut StdRng, mut axes: Vec<IndexId>) -> Vec<IndexId> {
    for i in (1..axes.len()).rev() {
        axes.swap(i, rng.gen_range(0usize..i + 1));
    }
    axes
}

fn interleaved(a: &[IndexId], b: &[IndexId]) -> Vec<IndexId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    for i in 0..a.len().max(b.len()) {
        out.extend(a.get(i));
        out.extend(b.get(i));
    }
    out
}

/// Every real plan shape, dense *and* in place from eight axis orders per
/// operand — contracted axes trailing, leading (so the unit-stride axis is
/// contracted in `B` and free in `A`, then the reverse), interleaved, and
/// five random shuffles — at the scalar and the probed level, against the
/// reference on explicitly permuted operands, starting from a dirty `C`.
/// Reading in place must also reproduce the dense result bit for bit.
#[test]
fn plan_shapes_in_place_match_reference_on_permuted_operands() {
    let _guard = lock();
    let mut rng = StdRng::seed_from_u64(0x57E4);
    for &(m, n, k) in &PLAN_SHAPES {
        let bits = |d: usize| d.trailing_zeros();
        let left_free: Vec<IndexId> = (0..bits(m)).collect();
        let contracted: Vec<IndexId> = (100..100 + bits(k)).collect();
        let right_free: Vec<IndexId> = (200..200 + bits(n)).collect();
        let join = |x: &[IndexId], y: &[IndexId]| [x, y].concat();
        let mut orders = vec![
            (join(&left_free, &contracted), join(&contracted, &right_free)),
            (join(&contracted, &left_free), join(&right_free, &contracted)),
            (interleaved(&left_free, &contracted), interleaved(&contracted, &right_free)),
        ];
        while orders.len() < 8 {
            orders.push((
                shuffled(&mut rng, join(&left_free, &contracted)),
                shuffled(&mut rng, join(&contracted, &right_free)),
            ));
        }
        let dirty = random_c64(&mut rng, m * n);
        let tol = tol_f64(k);
        for (left_axes, right_axes) in orders {
            let left = DenseTensor::from_data(
                IndexSet::new(left_axes.clone()),
                random_c64(&mut rng, m * k),
            );
            let right = DenseTensor::from_data(
                IndexSet::new(right_axes.clone()),
                random_c64(&mut rng, k * n),
            );
            // The TTGT copies the tables replace, made by the permute oracle.
            let a = permute_to_order(&left, &IndexSet::new(join(&left_free, &contracted)));
            let b = permute_to_order(&right, &IndexSet::new(join(&contracted, &right_free)));
            let mut c_ref = dirty.clone();
            gemm_reference(a.data(), b.data(), &mut c_ref, m, n, k);
            let left_table = OffsetTable::new(left.indices(), &left_free, &contracted);
            let right_table = OffsetTable::new(right.indices(), &contracted, &right_free);
            for level in levels() {
                let plan = KernelPlan::select_with_level(m, n, k, level);
                assert_eq!(plan.class(), DispatchClass::Narrow, "({m},{n},{k})");
                let mut c_dense = dirty.clone();
                plan.apply(a.data(), b.data(), &mut c_dense, m, n, k);
                let mut c_in_place = dirty.clone();
                plan.apply_views(
                    left_table.view(left.data()),
                    right_table.view(right.data()),
                    &mut c_in_place,
                );
                assert!(
                    c_in_place == c_dense,
                    "({m},{n},{k}) at {level:?}: {left_axes:?} x {right_axes:?} read in place \
                     differs from the dense result"
                );
                for (i, (g, r)) in c_in_place.iter().zip(c_ref.iter()).enumerate() {
                    assert!(
                        (*g - *r).abs() <= tol,
                        "({m},{n},{k}) at {level:?} path {:?} entry {i}: {g:?} vs {r:?}",
                        plan.taken::<Complex64>()
                    );
                }
            }
        }
    }
}

/// Single-chunk shapes (`k <= 16`, one `p` chunk) that reach every tile of
/// the AVX2 sweeps and their remainders: every `k` in `1..=16`, each against
/// small `m` and `n` (rows in blocks of 6, 4, 2, 1; columns in blocks of 4,
/// 2, 1), a tall `m = 4099` and a wide `n = 4099` (several 64-column
/// groups).
fn single_chunk_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = Vec::new();
    for k in 1..=16 {
        shapes.push((k % 13 + 1, 17 - k, k));
        shapes.push((4099, k % 17 + 1, k));
        shapes.push((k % 13 + 1, 4099, k));
    }
    shapes
}

/// Remainder tiles of the narrow SIMD kernel — odd `m`, odd `n`, `k` past
/// one `p` chunk, single rows and columns, `k == 1`, and the single-chunk
/// shapes — forced onto shapes selection would classify otherwise.
#[test]
fn narrow_remainder_tiles_conform() {
    let _guard = lock();
    let shapes =
        [(7usize, 5usize, 9usize), (3, 11, 300), (13, 3, 2), (1, 7, 5), (6, 1, 4), (5, 6, 1)];
    for (idx, &(m, n, k)) in shapes.iter().chain(&single_chunk_shapes()).enumerate() {
        for level in levels() {
            let plan = KernelPlan::forced(DispatchClass::Narrow, level);
            apply_vs_reference_c64(plan, m, n, k, 0xA11 + idx as u64);
        }
    }
}

/// The AVX2 tile's documented per-element order, in scalar FMAs: `p`
/// ascending, the `ar` term before the `ai` term, starting from `C` — or
/// from zero when overwriting, which never reads `C`.
fn avx2_fma_model(
    a: &[Complex64],
    b: &[Complex64],
    c: &mut [Complex64],
    (m, n, k): (usize, usize, usize),
    overwrite: bool,
) {
    for i in 0..m {
        for j in 0..n {
            let start = if overwrite { Complex64::ZERO } else { c[i * n + j] };
            let (mut re, mut im) = (start.re, start.im);
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

fn assert_same_bits(got: &[Complex64], want: &[Complex64], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: entry {i} is {g:?}, the FMA model gives {w:?}"
        );
    }
}

/// Every `(m, n, k)` with `m` in `1..=13` and `n` in `1..=17`, then a tall
/// `m = 4099` and a wide `n = 4099` against other dimensions that reach
/// every row and column remainder, each at every `k` in `1..=16`: each tile
/// of the sweeps, packed and built, long sweeps and several column groups
/// included.
fn single_chunk_grid() -> impl Iterator<Item = (usize, usize, usize)> {
    let small = (1..=13).flat_map(|m| (1..=17).map(move |n| (m, n)));
    let tall = [1, 2, 3, 4, 5, 6, 7, 16, 17].map(|n| (4099, n));
    let wide = [1, 2, 3, 4, 5, 8, 13].map(|m| (m, 4099));
    small.chain(tall).chain(wide).flat_map(|(m, n)| (1..=16).map(move |k| (m, n, k)))
}

/// Single-chunk narrow power-of-two shapes, read in place: tall and wide,
/// every `k` the tables can express.
fn single_chunk_tables() -> impl Iterator<Item = (usize, usize, usize)> {
    let shapes = [2, 4, 8, 16, 4096].into_iter().flat_map(|m| {
        [2, 4, 8, 16].into_iter().map(move |n| (m, n)).chain((m <= 16).then_some((m, 4096)))
    });
    shapes.flat_map(|(m, n)| [1, 2, 4, 8, 16].into_iter().map(move |k| (m, n, k))).filter(
        |&(m, n, k)| {
            KernelPlan::select_with_level(m, n, k, SimdLevel::Scalar).class()
                == DispatchClass::Narrow
        },
    )
}

/// Every AVX2 GEMM — narrow and blocked, auto-selected and forced — equals
/// the tile's scalar FMA model bit for bit: tall, wide, deep and blocked
/// shapes, odd remainders, every tile and remainder of the sweeps at every
/// `k <= 16`, `k` across several `p` chunks, several column
/// groups, dense operands and offset tables with each operand's unit-stride
/// axis free and contracted, accumulating into a dirty `C` and overwriting
/// a NaN-filled one.
///
/// Runs at every x86 level the host has, with the override set so the
/// compiled kernels freeze that level too: the 512-bit blocked tiles keep
/// the 256-bit tile's order, so one model covers both.
#[test]
fn avx2_gemm_follows_its_scalar_fma_model() {
    let _guard = lock();
    let _restore = RestoreOverride;
    for level in x86_levels() {
        set_simd_override(Some(level));
        assert_eq!(simd_level(), level);
        follows_fma_model_at(level);
    }
}

fn follows_fma_model_at(level: SimdLevel) {
    let mut rng = StdRng::seed_from_u64(0xF4A);
    // The auto-selected plan (when it picks one of the tile's classes) and
    // both classes forced.
    let plans = |m, n, k| {
        let auto = KernelPlan::select_with_level(m, n, k, level);
        let tile = matches!(auto.class(), DispatchClass::Narrow | DispatchClass::Blocked);
        let forced = [DispatchClass::Narrow, DispatchClass::Blocked];
        tile.then_some(auto).into_iter().chain(forced.map(|c| KernelPlan::forced(c, level)))
    };
    for &(m, n, k) in &[
        (37, 6, 5),
        (64, 4, 4),
        (13, 3, 2),
        (5, 41, 7),
        (3, 11, 300),
        (2, 64, 9),
        (6, 5, 300),
        (7, 5, 9),
        (8, 4, 260),
        (16, 37, 5),
        (9, 33, 130),
        (1, 7, 5),
        (5, 6, 1),
        // Blocked: several groups and chunks, odd remainders everywhere.
        (37, 40, 19),
        (96, 64, 64),
        (33, 65, 130),
        (128, 48, 300),
        (21, 150, 35),
        (8, 35, 41),
    ] {
        let a = random_c64(&mut rng, m * k);
        let b = random_c64(&mut rng, k * n);
        let mut want = random_c64(&mut rng, m * n);
        let dirty = want.clone();
        avx2_fma_model(&a, &b, &mut want, (m, n, k), false);
        for plan in plans(m, n, k) {
            let mut got = dirty.clone();
            plan.apply(&a, &b, &mut got, m, n, k);
            assert_same_bits(
                &got,
                &want,
                &format!("{level:?} dense ({m},{n},{k}) {:?}", plan.class()),
            );
        }
    }
    // The single-chunk grid runs one plan: both of the tile's classes call
    // the same entry, which picks packed or built tiles by shape.
    for (m, n, k) in single_chunk_grid() {
        let a = random_c64(&mut rng, m * k);
        let b = random_c64(&mut rng, k * n);
        let mut want = random_c64(&mut rng, m * n);
        let mut got = want.clone();
        avx2_fma_model(&a, &b, &mut want, (m, n, k), false);
        KernelPlan::forced(DispatchClass::Narrow, level).apply(&a, &b, &mut got, m, n, k);
        assert_same_bits(&got, &want, &format!("{level:?} dense ({m},{n},{k}) single chunk"));
    }
    let in_place = [
        (64, 4, 4),
        (4, 64, 4),
        (16, 64, 4),
        (8, 4, 512),
        (16, 2, 8),
        (2, 16, 8),
        (2, 8, 256),
        (32, 128, 256),
        (64, 32, 32),
    ];
    for (m, n, k) in in_place.into_iter().chain(single_chunk_tables()) {
        let bits = |d: usize| d.trailing_zeros();
        let left_free: Vec<IndexId> = (0..bits(m)).collect();
        let contracted: Vec<IndexId> = (100..100 + bits(k)).collect();
        let right_free: Vec<IndexId> = (200..200 + bits(n)).collect();
        let join = |x: &[IndexId], y: &[IndexId]| [x, y].concat();
        let path = match KernelPlan::select_with_level(m, n, k, level).class() {
            DispatchClass::Blocked => GemmPath::BlockedSimd,
            _ => GemmPath::NarrowSimd,
        };
        // Unit-stride axis contracted in `A` and free in `B`, then the
        // reverse.
        for (left_axes, right_axes) in [
            (join(&left_free, &contracted), join(&contracted, &right_free)),
            (join(&contracted, &left_free), join(&right_free, &contracted)),
        ] {
            let left =
                DenseTensor::from_data(IndexSet::new(left_axes), random_c64(&mut rng, m * k));
            let right =
                DenseTensor::from_data(IndexSet::new(right_axes), random_c64(&mut rng, k * n));
            let what =
                format!("{level:?} ({m},{n},{k}) {:?} x {:?}", left.indices(), right.indices());

            // Accumulate: the plans applied through the offset tables.
            let a = permute_to_order(&left, &IndexSet::new(join(&left_free, &contracted)));
            let b = permute_to_order(&right, &IndexSet::new(join(&contracted, &right_free)));
            let left_table = OffsetTable::new(left.indices(), &left_free, &contracted);
            let right_table = OffsetTable::new(right.indices(), &contracted, &right_free);
            let mut want = random_c64(&mut rng, m * n);
            let dirty = want.clone();
            avx2_fma_model(a.data(), b.data(), &mut want, (m, n, k), false);
            for plan in plans(m, n, k) {
                let mut got = dirty.clone();
                plan.apply_views(
                    left_table.view(left.data()),
                    right_table.view(right.data()),
                    &mut got,
                );
                assert_same_bits(&got, &want, &format!("{what} {:?} accumulating", plan.class()));
            }

            // Overwrite: the compiled kernel, whose output ignores `C`.
            let kernel = ContractionKernel::new(left.indices(), right.indices());
            assert_eq!(kernel.gemm_plan().taken::<Complex64>(), path, "{what}");
            let spec = kernel.spec();
            let a =
                permute_to_order(&left, &IndexSet::new(join(&spec.left_free, &spec.contracted)));
            let b =
                permute_to_order(&right, &IndexSet::new(join(&spec.contracted, &spec.right_free)));
            let mut want = vec![c64(f64::NAN, f64::NAN); m * n];
            let mut got = want.clone();
            avx2_fma_model(a.data(), b.data(), &mut want, (m, n, k), true);
            kernel.contract(left.data(), right.data(), &mut got);
            assert_same_bits(&got, &want, &format!("{what} overwriting"));
        }
    }
}

/// The blocked class's packed tiles at every x86 level, against the FMA
/// model bit for bit: at 512 bits a register holds two column pairs, so
/// this grid reaches each row-block remainder (`m` from 17 to 22 past the
/// 6-row blocks, and a 12-row shape under the narrow bound), `n` with 8-,
/// 4-, 2- and 1-column tails (a one-register tile, the 256-bit pair tile
/// and the single column) inside and past a 64-column group, and `k` at 1,
/// one `p` chunk (128), one past it and three chunks; dense operands
/// accumulate into a dirty `C`. Power-of-two shapes then run through offset
/// tables with the unit-stride axis free and contracted, accumulating and
/// overwriting a NaN-filled `C` through the compiled kernel.
#[test]
fn packed_blocked_tiles_follow_the_fma_model_at_every_width() {
    let _guard = lock();
    let _restore = RestoreOverride;
    let mut rng = StdRng::seed_from_u64(0x512);
    let (ms, ns) = ([12, 17, 18, 19, 20, 21, 22], (1..=16).chain([72, 76, 78, 79]));
    let dense: Vec<_> = ms
        .into_iter()
        .flat_map(|m| ns.clone().map(move |n| (m, n)))
        .flat_map(|(m, n)| [1, 128, 129, 384].map(|k| (m, n, k)))
        .collect();
    let tables: Vec<_> = [16, 32, 64]
        .into_iter()
        .flat_map(|m| [2, 4, 8, 16, 32, 128].map(|n| (m, n)))
        .flat_map(|(m, n)| [1, 128, 512].map(|k| (m, n, k)))
        .collect();
    for level in x86_levels() {
        set_simd_override(Some(level));
        let plan = KernelPlan::forced(DispatchClass::Blocked, level);
        for &(m, n, k) in &dense {
            let a = random_c64(&mut rng, m * k);
            let b = random_c64(&mut rng, k * n);
            let mut want = random_c64(&mut rng, m * n);
            let mut got = want.clone();
            avx2_fma_model(&a, &b, &mut want, (m, n, k), false);
            plan.apply(&a, &b, &mut got, m, n, k);
            assert_same_bits(&got, &want, &format!("{level:?} dense ({m},{n},{k})"));
        }
        for &(m, n, k) in &tables {
            let bits = |d: usize| d.trailing_zeros();
            let left_free: Vec<IndexId> = (0..bits(m)).collect();
            let contracted: Vec<IndexId> = (100..100 + bits(k)).collect();
            let right_free: Vec<IndexId> = (200..200 + bits(n)).collect();
            let join = |x: &[IndexId], y: &[IndexId]| [x, y].concat();
            for (left_axes, right_axes) in [
                (join(&left_free, &contracted), join(&contracted, &right_free)),
                (join(&contracted, &left_free), join(&right_free, &contracted)),
            ] {
                let left =
                    DenseTensor::from_data(IndexSet::new(left_axes), random_c64(&mut rng, m * k));
                let right =
                    DenseTensor::from_data(IndexSet::new(right_axes), random_c64(&mut rng, k * n));
                let what =
                    format!("{level:?} ({m},{n},{k}) {:?} x {:?}", left.indices(), right.indices());
                let a = permute_to_order(&left, &IndexSet::new(join(&left_free, &contracted)));
                let b = permute_to_order(&right, &IndexSet::new(join(&contracted, &right_free)));
                let left_table = OffsetTable::new(left.indices(), &left_free, &contracted);
                let right_table = OffsetTable::new(right.indices(), &contracted, &right_free);
                let mut want = random_c64(&mut rng, m * n);
                let mut got = want.clone();
                avx2_fma_model(a.data(), b.data(), &mut want, (m, n, k), false);
                plan.apply_views(
                    left_table.view(left.data()),
                    right_table.view(right.data()),
                    &mut got,
                );
                assert_same_bits(&got, &want, &format!("{what} accumulating"));

                let kernel = ContractionKernel::new(left.indices(), right.indices());
                if kernel.gemm_plan().class() != DispatchClass::Blocked {
                    continue;
                }
                assert_eq!(kernel.gemm_plan().level(), level, "{what}");
                let spec = kernel.spec();
                let a = permute_to_order(
                    &left,
                    &IndexSet::new(join(&spec.left_free, &spec.contracted)),
                );
                let b = permute_to_order(
                    &right,
                    &IndexSet::new(join(&spec.contracted, &spec.right_free)),
                );
                let mut want = vec![c64(f64::NAN, f64::NAN); m * n];
                let mut got = want.clone();
                avx2_fma_model(a.data(), b.data(), &mut want, (m, n, k), true);
                kernel.contract(left.data(), right.data(), &mut got);
                assert_same_bits(&got, &want, &format!("{what} overwriting"));
            }
        }
    }
}

/// Forced-class dispatch: the blocked kernel on shapes far below its packing
/// panels (pure remainder handling) and the narrow kernel on a square-ish
/// shape it would never be selected for. Both must still conform.
#[test]
fn forced_class_remainder_coverage() {
    let _guard = lock();
    let forced: &[(DispatchClass, usize, usize, usize)] = &[
        (DispatchClass::Blocked, 5, 7, 9),
        (DispatchClass::Blocked, 2, 2, 2),
        (DispatchClass::Blocked, 33, 5, 17),
        (DispatchClass::Narrow, 20, 24, 28),
        (DispatchClass::GemvRow, 1, 96, 65),
        (DispatchClass::GemvCol, 96, 1, 65),
    ];
    for (idx, &(class, m, n, k)) in forced.iter().enumerate() {
        for level in levels() {
            let plan = KernelPlan::forced(class, level);
            apply_vs_reference_c64(plan, m, n, k, 0xBEEF + idx as u64);
        }
    }
}

/// On integer-valued inputs every path is exact, so all levels and classes
/// must agree with the reference *exactly* — no tolerance.
#[test]
fn integer_inputs_are_exact_on_every_path() {
    let _guard = lock();
    for (idx, &(m, n, k)) in grid().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0x1234 + idx as u64);
        let a = int_c64(&mut rng, m * k);
        let b = int_c64(&mut rng, k * n);
        let mut c_ref = vec![Complex64::ZERO; m * n];
        gemm_reference(&a, &b, &mut c_ref, m, n, k);
        for level in levels() {
            let plan = KernelPlan::select_with_level(m, n, k, level);
            let mut c_got = vec![Complex64::ZERO; m * n];
            plan.apply(&a, &b, &mut c_got, m, n, k);
            assert_eq!(
                c_got,
                c_ref,
                "integer inputs diverged: shape ({m},{n},{k}) path {:?}",
                plan.taken::<Complex64>()
            );
        }
    }
}

/// The scalar micro-kernels fix the same summation order as the reference
/// loop, so they are bit-identical to it — not merely within tolerance.
#[test]
fn scalar_micro_kernels_bit_identical_to_reference() {
    let _guard = lock();
    for m in [1usize, 2, 4] {
        for n in [1usize, 2, 4] {
            for k in [2usize, 4, 8] {
                let seed = (m * 100 + n * 10 + k) as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let a = random_c64(&mut rng, m * k);
                let b = random_c64(&mut rng, k * n);
                let dirty = random_c64(&mut rng, m * n);
                let mut c_ref = dirty.clone();
                gemm_reference(&a, &b, &mut c_ref, m, n, k);
                let mut c_got = dirty;
                let class = DispatchClass::Micro { m: m as u8, n: n as u8, k: k as u8 };
                KernelPlan::forced(class, SimdLevel::Scalar).apply(&a, &b, &mut c_got, m, n, k);
                for (g, r) in c_got.iter().zip(c_ref.iter()) {
                    assert_eq!(g.re.to_bits(), r.re.to_bits(), "micro ({m},{n},{k}) re bits");
                    assert_eq!(g.im.to_bits(), r.im.to_bits(), "micro ({m},{n},{k}) im bits");
                }
            }
        }
    }
}

/// Zero dims leave `C` bit-for-bit untouched on every path (for `k == 0`
/// the kernels add an exact zero, which preserves every finite nonzero
/// value; `m == 0` / `n == 0` make `C` empty).
#[test]
fn degenerate_dims_leave_c_untouched() {
    let _guard = lock();
    for &(m, n, k) in &[(0usize, 5usize, 7usize), (5, 0, 7), (5, 7, 0), (0, 0, 0), (1, 9, 0)] {
        let mut rng = StdRng::seed_from_u64(77);
        let a = random_c64(&mut rng, m * k);
        let b = random_c64(&mut rng, k * n);
        let dirty = random_c64(&mut rng, m * n);
        for level in levels() {
            let plan = KernelPlan::select_with_level(m, n, k, level);
            let mut c = dirty.clone();
            plan.apply(&a, &b, &mut c, m, n, k);
            for (g, d) in c.iter().zip(dirty.iter()) {
                assert_eq!(g.re.to_bits(), d.re.to_bits(), "({m},{n},{k}) clobbered C");
                assert_eq!(g.im.to_bits(), d.im.to_bits(), "({m},{n},{k}) clobbered C");
            }
        }
    }
}

/// Repeated application of one frozen plan is bit-identical run to run —
/// the determinism contract the executor's replay correctness rests on.
#[test]
fn repeated_application_is_bit_identical() {
    let _guard = lock();
    for &(m, n, k) in &[(4usize, 4usize, 8usize), (16, 16, 16), (33, 65, 63)] {
        for level in levels() {
            let plan = KernelPlan::select_with_level(m, n, k, level);
            let mut rng = StdRng::seed_from_u64(4242);
            let a = random_c64(&mut rng, m * k);
            let b = random_c64(&mut rng, k * n);
            let mut first = vec![Complex64::ZERO; m * n];
            plan.apply(&a, &b, &mut first, m, n, k);
            for _ in 0..3 {
                let mut again = vec![Complex64::ZERO; m * n];
                plan.apply(&a, &b, &mut again, m, n, k);
                for (x, y) in again.iter().zip(first.iter()) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits());
                    assert_eq!(x.im.to_bits(), y.im.to_bits());
                }
            }
        }
    }
}

/// Drive a grid through `apply` that reaches every path at this machine's
/// levels — by `KernelPlan::taken`, the very value `apply` dispatches on —
/// and execute each apply against the reference.
#[test]
fn every_reachable_path_is_executed_and_counted() {
    let _guard = lock();
    // (plan, m, n, k) applies: the auto grid at every level, plus forced
    // classes so blocked/narrow run even where selection would not pick them.
    let mut applies: Vec<(KernelPlan, usize, usize, usize)> = Vec::new();
    for &(m, n, k) in &grid() {
        for level in levels() {
            applies.push((KernelPlan::select_with_level(m, n, k, level), m, n, k));
        }
    }
    for level in levels() {
        applies.push((KernelPlan::forced(DispatchClass::Blocked, level), 5, 7, 9));
        applies.push((KernelPlan::forced(DispatchClass::Narrow, level), 20, 24, 28));
    }
    let predicted: HashSet<GemmPath> =
        applies.iter().map(|(plan, ..)| plan.taken::<Complex64>()).collect();

    // The grid must reach every scalar-side path unconditionally, and every
    // SIMD path a class has at the effective level.
    for path in [
        GemmPath::MicroScalar,
        GemmPath::GemvRow,
        GemmPath::GemvCol,
        GemmPath::NarrowScalar,
        GemmPath::BlockedScalar,
    ] {
        assert!(predicted.contains(&path), "grid never reaches {path:?}");
    }
    let eff = simd_level();
    for class in
        [DispatchClass::Micro { m: 2, n: 2, k: 2 }, DispatchClass::Narrow, DispatchClass::Blocked]
    {
        let path = KernelPlan::forced(class, eff).taken::<Complex64>();
        assert!(predicted.contains(&path), "grid never reaches {path:?} at {eff:?}");
    }

    // Execute every apply; a mismatch names the path it took.
    for (seed, &(plan, m, n, k)) in applies.iter().enumerate() {
        apply_vs_reference_c64(plan, m, n, k, 0xD15 + seed as u64);
    }
}

/// The test override steers `KernelPlan::select` (via `simd_level`) and is
/// restored even if an assert fires mid-test.
#[test]
fn override_steers_selection() {
    let _guard = lock();
    let _restore = RestoreOverride;
    let base = simd_level();
    set_simd_override(Some(SimdLevel::Scalar));
    assert_eq!(simd_level(), SimdLevel::Scalar);
    let plan = KernelPlan::select(48, 48, 48);
    assert_eq!(plan.level(), SimdLevel::Scalar);
    assert_eq!(plan.taken::<Complex64>(), GemmPath::BlockedScalar);
    set_simd_override(None);
    assert_eq!(simd_level(), base, "clearing the override must restore the probed level");
}
