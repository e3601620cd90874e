//! End-to-end SIMD determinism: the kernel dispatch introduced in the
//! tensor crate must be invisible at the simulator level except for speed.
//!
//! Two contracts are pinned here:
//!
//! 1. **Cross-path agreement.** The same circuit compiled with SIMD enabled
//!    and with the scalar override forced produces amplitudes within a
//!    documented tolerance (`1e-10` absolute — generous against the
//!    ~`1e-13` reordering error of the shapes these plans produce).
//! 2. **Determinism.** Repeated executions of one compiled plan — run
//!    sequentially or concurrently from many threads — are bit-identical,
//!    because every kernel freezes its dispatch at plan compile time and
//!    fixes its summation order.
//! 3. **One x86 result.** A plan compiled at AVX2+FMA and at AVX-512 (where
//!    the host has it) computes the same bits through the same dispatch
//!    paths: the 512-bit blocked tiles keep the 256-bit tile's FMA order.
//!
//! Tests serialize on a file-scoped mutex: the SIMD override is
//! process-global, and a concurrently running test could otherwise observe
//! a half-configured level.

use qtnsim::circuit::{OutputSpec, RqcConfig};
use qtnsim::tensor::{set_simd_override, simd_level, SimdLevel};
use qtnsim::{Circuit, Engine, ExecutorConfig, PlannerConfig};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clears the override even if an assert unwinds mid-test.
struct RestoreOverride;

impl Drop for RestoreOverride {
    fn drop(&mut self) {
        set_simd_override(None);
    }
}

/// The 12-qubit sliced RQC the batching tests use: 4 sliced edges,
/// 16 subtasks, a stem worth replaying.
fn sliced_circuit() -> Circuit {
    RqcConfig::small(3, 4, 10, 5).build()
}

fn planner() -> PlannerConfig {
    PlannerConfig { target_rank: 8, ..Default::default() }
}

fn executor() -> ExecutorConfig {
    ExecutorConfig { workers: 4, max_subtasks: 0, reuse: true, pool: true }
}

fn bitstrings(n: usize) -> Vec<Vec<u8>> {
    // Deterministic spread of bitstrings without pulling in rand.
    (0..8u64).map(|s| (0..n).map(|q| (((s * 0x9E37_79B9) >> q) & 1) as u8).collect()).collect()
}

/// Documented SIMD-vs-scalar tolerance for these plans (see module docs).
const CROSS_PATH_TOL: f64 = 1e-10;

#[test]
fn simd_and_scalar_plans_agree_within_tolerance() {
    let _guard = lock();
    let _restore = RestoreOverride;
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let bits = bitstrings(n);

    // SIMD side: whatever the probe found (the override must be clear both
    // when the plan compiles and when it executes — kernels freeze their
    // level at compile time).
    set_simd_override(None);
    let simd_lv = simd_level();
    let engine = Engine::with_configs(planner(), executor());
    let compiled = engine.compile(&circuit, &spec).unwrap();
    let simd_amps: Vec<_> = bits.iter().map(|b| compiled.execute_amplitude(b).unwrap()).collect();
    for (_, report) in &simd_amps {
        assert_eq!(report.stats.simd_level, simd_lv.as_str());
        if simd_lv != SimdLevel::Scalar {
            assert!(
                report.stats.gemm_simd > 0,
                "a SIMD-levelled plan on this circuit must take SIMD paths"
            );
        }
    }

    // Scalar side: force the override *before* compiling a fresh plan, so
    // every kernel freezes at the scalar reference level.
    set_simd_override(Some(SimdLevel::Scalar));
    let engine_scalar = Engine::with_configs(planner(), executor());
    let compiled_scalar = engine_scalar.compile(&circuit, &spec).unwrap();
    for (b, (simd_amp, _)) in bits.iter().zip(simd_amps.iter()) {
        let (scalar_amp, report) = compiled_scalar.execute_amplitude(b).unwrap();
        assert_eq!(report.stats.gemm_simd, 0, "forced-scalar plans never take a SIMD path");
        assert_eq!(report.stats.simd_level, "scalar");
        assert!(
            (*simd_amp - scalar_amp).abs() <= CROSS_PATH_TOL,
            "SIMD vs scalar amplitude diverged for {b:?}: {simd_amp:?} vs {scalar_amp:?}"
        );
    }

    // The batched API agrees across paths too.
    let batch: Vec<&[u8]> = bits.iter().map(Vec::as_slice).collect();
    set_simd_override(None);
    let (batch_simd, _) = compiled.execute_amplitudes(&batch).unwrap();
    set_simd_override(Some(SimdLevel::Scalar));
    let (batch_scalar, _) = compiled_scalar.execute_amplitudes(&batch).unwrap();
    for (b, (s, sc)) in bits.iter().zip(batch_simd.iter().zip(batch_scalar.iter())) {
        assert!(
            (*s - *sc).abs() <= CROSS_PATH_TOL,
            "batched SIMD vs scalar diverged for {b:?}: {s:?} vs {sc:?}"
        );
    }
}

#[test]
fn repeated_simd_runs_are_bit_identical_sequentially() {
    let _guard = lock();
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(planner(), executor());
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    let bits = bitstrings(n);
    let batch: Vec<&[u8]> = bits.iter().map(Vec::as_slice).collect();

    let baseline: Vec<_> = bits.iter().map(|b| compiled.execute_amplitude(b).unwrap().0).collect();
    let (batch_baseline, base_report) = compiled.execute_amplitudes(&batch).unwrap();
    for _ in 0..3 {
        for (b, base) in bits.iter().zip(baseline.iter()) {
            let (amp, _) = compiled.execute_amplitude(b).unwrap();
            assert_eq!(amp.re.to_bits(), base.re.to_bits(), "re drifted for {b:?}");
            assert_eq!(amp.im.to_bits(), base.im.to_bits(), "im drifted for {b:?}");
        }
        let (amps, report) = compiled.execute_amplitudes(&batch).unwrap();
        for (amp, base) in amps.iter().zip(batch_baseline.iter()) {
            assert_eq!(amp.re.to_bits(), base.re.to_bits());
            assert_eq!(amp.im.to_bits(), base.im.to_bits());
        }
        // The dispatch tally is a pure function of the frozen plans, so it
        // repeats exactly as well.
        assert_eq!(report.stats.gemm_micro, base_report.stats.gemm_micro);
        assert_eq!(report.stats.gemm_gemv, base_report.stats.gemm_gemv);
        assert_eq!(report.stats.gemm_narrow, base_report.stats.gemm_narrow);
        assert_eq!(report.stats.gemm_blocked, base_report.stats.gemm_blocked);
        assert_eq!(report.stats.gemm_simd, base_report.stats.gemm_simd);
    }
}

#[test]
fn concurrent_simd_runs_are_bit_identical() {
    let _guard = lock();
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(planner(), executor());
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    let bits = bitstrings(n);

    // Warm the branch cache so every thread prices identical work.
    let baseline: Vec<_> = bits.iter().map(|b| compiled.execute_amplitude(b).unwrap().0).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let compiled = &compiled;
                let bits = &bits;
                scope.spawn(move || {
                    bits.iter()
                        .map(|b| compiled.execute_amplitude(b).unwrap().0)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            let amps = handle.join().unwrap();
            for (amp, base) in amps.iter().zip(baseline.iter()) {
                assert_eq!(amp.re.to_bits(), base.re.to_bits(), "concurrent re drifted");
                assert_eq!(amp.im.to_bits(), base.im.to_bits(), "concurrent im drifted");
            }
        }
    });
}

#[test]
fn avx2_and_avx512_plans_are_bit_identical() {
    let _guard = lock();
    let _restore = RestoreOverride;
    set_simd_override(None);
    if simd_level() != SimdLevel::Avx512 {
        // One x86 level at most on this host: nothing to compare.
        return;
    }
    // The `amp-m20` circuit and planner target: its stem runs blocked
    // GEMMs (`64x256x256`, `256x64x32`, ...), four of its 64 subtasks.
    let circuit = RqcConfig::small(4, 5, 12, 5).build();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let bits = bitstrings(n);
    let batch: Vec<&[u8]> = bits.iter().map(Vec::as_slice).collect();
    let run = |level| {
        set_simd_override(Some(level));
        let engine = Engine::with_configs(
            PlannerConfig { target_rank: 14, ..Default::default() },
            ExecutorConfig { workers: 2, max_subtasks: 4, reuse: true, pool: true },
        );
        let compiled = engine.compile(&circuit, &spec).unwrap();
        let (single, _) = compiled.execute_amplitude(&bits[0]).unwrap();
        let (amplitudes, report) = compiled.execute_amplitudes(&batch).unwrap();
        assert_eq!(report.stats.simd_level, level.as_str());
        (std::iter::once(single).chain(amplitudes).collect::<Vec<_>>(), report.stats)
    };
    let (avx2, avx2_stats) = run(SimdLevel::Avx2Fma);
    let (avx512, avx512_stats) = run(SimdLevel::Avx512);
    assert!(avx512_stats.gemm_blocked > 0, "the plan must run blocked GEMMs");
    for (a, b) in avx2.iter().zip(&avx512) {
        assert_eq!(a.re.to_bits(), b.re.to_bits(), "re differs: {a:?} vs {b:?}");
        assert_eq!(a.im.to_bits(), b.im.to_bits(), "im differs: {a:?} vs {b:?}");
    }
    let tally = |s: &qtnsim::ExecutionStats| {
        [s.gemm_micro, s.gemm_gemv, s.gemm_narrow, s.gemm_blocked, s.gemm_simd, s.flops]
    };
    assert_eq!(tally(&avx2_stats), tally(&avx512_stats), "dispatch counters differ");
}
