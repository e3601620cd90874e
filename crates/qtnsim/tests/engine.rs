//! Integration tests of the compile-once / execute-many engine API:
//! compiled-plan reuse is *bit-identical* to fresh planning, plan-cache hits
//! skip the planner (asserted via the planning counter), and the engine is
//! deterministic under concurrent executes.

use qtnsim::core::{Engine, ExecutorConfig, PlannerConfig};
use qtnsim::statevector::StateVector;
use qtnsim::{Complex64, Error, OutputSpec, RqcConfig};

fn planner() -> PlannerConfig {
    PlannerConfig { target_rank: 8, ..Default::default() }
}

fn test_engine() -> Engine {
    // A fixed worker count keeps the subtask striding identical across
    // engines regardless of the host's core count.
    Engine::with_configs(
        planner(),
        ExecutorConfig { workers: 4, max_subtasks: 0, ..Default::default() },
    )
}

/// 24 deterministic probe bitstrings covering varied patterns.
fn probe_bitstrings(n: usize) -> Vec<Vec<u8>> {
    (0..24usize).map(|k| (0..n).map(|q| (((k * 37 + 11) >> (q % 5)) & 1) as u8).collect()).collect()
}

#[test]
fn compiled_reuse_is_bit_identical_to_fresh_planning() {
    let circuit = RqcConfig::small(3, 3, 8, 17).build();
    let n = circuit.num_qubits();
    let sv = StateVector::simulate(&circuit);

    let engine = test_engine();
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();

    let bitstrings = probe_bitstrings(n);
    assert!(bitstrings.len() >= 20);
    for bits in &bitstrings {
        let (reused, _) = compiled.execute_amplitude(bits).unwrap();

        // A throwaway engine plans this bitstring from scratch.
        let fresh_engine = test_engine();
        let fresh = fresh_engine.compile(&circuit, &OutputSpec::Amplitude(bits.clone())).unwrap();
        let (replanned, _) = fresh.execute_amplitude(bits).unwrap();

        // Same plan, same deterministic executor: reuse must be exact to the
        // last bit, not merely within tolerance.
        assert_eq!(
            (reused.re.to_bits(), reused.im.to_bits()),
            (replanned.re.to_bits(), replanned.im.to_bits()),
            "reused plan diverged from fresh planning for {bits:?}"
        );
        // And both must be correct against the reference.
        assert!((reused - sv.amplitude(bits)).abs() < 1e-8, "amplitude wrong for {bits:?}");
    }
    // The sweep above never re-planned on the reuse engine.
    assert_eq!(engine.plans_built(), 1, "planner must run exactly once");
}

#[test]
fn plan_cache_hit_does_not_rerun_the_refiner() {
    let circuit = RqcConfig::small(3, 3, 8, 23).build();
    let n = circuit.num_qubits();
    let engine = test_engine();

    // First compile: planning pipeline (incl. SA refiner) runs once.
    let a = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    assert!(!a.plan_cache_hit());
    assert_eq!(engine.plans_built(), 1);

    // Same circuit, different bits, same output shape: cache hit, the
    // planning counter must not move.
    for k in 1..6u8 {
        let bits: Vec<u8> = (0..n).map(|q| ((k as usize >> (q % 3)) & 1) as u8).collect();
        let c = engine.compile(&circuit, &OutputSpec::Amplitude(bits)).unwrap();
        assert!(c.plan_cache_hit());
    }
    assert_eq!(engine.plans_built(), 1, "cache hits must not re-run the planner");
    assert_eq!(engine.cache_stats().hits, 5);

    // The cached plan is shared, not rebuilt: both compilations expose the
    // same slicing decision.
    let b = engine.compile(&circuit, &OutputSpec::Amplitude(vec![1; n])).unwrap();
    assert_eq!(a.plan().slicing, b.plan().slicing);
    assert_eq!(a.plan().pairs, b.plan().pairs);
}

#[test]
fn engine_is_deterministic_under_concurrent_executes() {
    let circuit = RqcConfig::small(3, 3, 8, 29).build();
    let n = circuit.num_qubits();
    let engine = test_engine();
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    let bitstrings = probe_bitstrings(n);

    // Serial baseline.
    let baseline: Vec<Complex64> =
        bitstrings.iter().map(|bits| compiled.execute_amplitude(bits).unwrap().0).collect();

    // Hammer the same compiled circuit from several threads at once; every
    // thread must reproduce the baseline bit-for-bit.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    bitstrings
                        .iter()
                        .map(|bits| compiled.execute_amplitude(bits).unwrap().0)
                        .collect::<Vec<Complex64>>()
                })
            })
            .collect();
        for handle in handles {
            let results = handle.join().unwrap();
            for (got, want) in results.iter().zip(baseline.iter()) {
                assert_eq!(
                    (got.re.to_bits(), got.im.to_bits()),
                    (want.re.to_bits(), want.im.to_bits()),
                    "concurrent execution diverged from serial baseline"
                );
            }
        }
    });
    assert_eq!(engine.plans_built(), 1);
}

#[test]
fn open_shape_reuse_rebinds_fixed_bits() {
    let circuit = RqcConfig::small(2, 3, 6, 31).build();
    let n = circuit.num_qubits();
    let sv = StateVector::simulate(&circuit);
    let engine = test_engine();
    let open = vec![1usize, 4];
    let compiled = engine
        .compile(&circuit, &OutputSpec::Open { fixed: vec![0; n], open: open.clone() })
        .unwrap();

    // Two different projections of the non-open qubits execute on one plan.
    for fixed_bit in [0u8, 1] {
        let fixed: Vec<u8> = (0..n).map(|_| fixed_bit).collect();
        let (batch, _) = compiled.execute_batch(&fixed).unwrap();
        for b0 in 0..2u8 {
            for b1 in 0..2u8 {
                let mut bits = fixed.clone();
                bits[open[0]] = b0;
                bits[open[1]] = b1;
                assert!(
                    (batch.get(&[b0, b1]) - sv.amplitude(&bits)).abs() < 1e-8,
                    "open batch wrong at {b0}{b1} with fixed={fixed_bit}"
                );
            }
        }
    }
    assert_eq!(engine.plans_built(), 1);
}

#[test]
fn validation_errors_do_not_reach_the_planner() {
    let circuit = RqcConfig::small(2, 2, 4, 1).build();
    let n = circuit.num_qubits();
    let engine = test_engine();
    assert!(matches!(
        engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n + 1])).unwrap_err(),
        Error::BitstringLength { .. }
    ));
    assert!(matches!(
        engine.compile(&circuit, &OutputSpec::Amplitude(vec![9; n])).unwrap_err(),
        Error::InvalidBit { .. }
    ));
    assert_eq!(engine.plans_built(), 0);

    // Execute-time validation: wrong length and wrong shape are typed.
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    assert!(matches!(
        compiled.execute_amplitude(&vec![0; n - 1]).unwrap_err(),
        Error::BitstringLength { .. }
    ));
    assert!(matches!(
        compiled.execute_batch(&vec![0; n]).unwrap_err(),
        Error::OutputShapeMismatch { .. }
    ));
}
