//! End-to-end integration tests spanning all crates: circuit generation →
//! planning → sliced parallel execution → validation against the
//! state-vector reference.

use qtnsim::core::{plan_simulation, PlannerConfig};
use qtnsim::statevector::StateVector;
use qtnsim::{Circuit, Engine, Gate, OutputSpec, RqcConfig};

fn amplitude_via_tn(circuit: &Circuit, bits: &[u8], target_rank: usize) -> qtnsim::Complex64 {
    let engine = Engine::new().with_planner(PlannerConfig { target_rank, ..Default::default() });
    let compiled = engine.compile(circuit, &OutputSpec::Amplitude(bits.to_vec())).unwrap();
    compiled.execute_amplitude(bits).unwrap().0
}

#[test]
fn random_circuits_match_statevector_across_slicing_targets() {
    for (seed, cycles) in [(1u64, 6usize), (2, 8), (3, 10)] {
        let circuit = RqcConfig::small(3, 3, cycles, seed).build();
        let n = circuit.num_qubits();
        let sv = StateVector::simulate(&circuit);
        let bits: Vec<u8> = (0..n).map(|q| ((q + seed as usize) % 2) as u8).collect();
        let expected = sv.amplitude(&bits);
        // The same amplitude must come out no matter how hard we slice.
        for target in [30usize, 10, 7, 5] {
            let got = amplitude_via_tn(&circuit, &bits, target);
            assert!(
                (got - expected).abs() < 1e-8,
                "seed {seed}, target {target}: {got:?} vs {expected:?}"
            );
        }
    }
}

#[test]
fn engine_compile_once_execute_many_round_trip() {
    // The acceptance test of the engine API: compile once, sweep many
    // bitstrings, match the state-vector reference to 1e-8, and never run
    // the planner more than once.
    let circuit = RqcConfig::small(2, 4, 8, 11).build();
    let n = circuit.num_qubits();
    let sv = StateVector::simulate(&circuit);
    let engine = Engine::new().with_planner(PlannerConfig { target_rank: 8, ..Default::default() });
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    for k in 0..32usize {
        let bits: Vec<u8> = (0..n).map(|q| ((k >> (q % 5)) & 1) as u8).collect();
        let (amp, report) = compiled.execute_amplitude(&bits).unwrap();
        assert!((amp - sv.amplitude(&bits)).abs() < 1e-8, "engine amplitude mismatch for {bits:?}");
        assert_eq!(report.stats.subtasks_run, compiled.plan().num_subtasks());
    }
    assert_eq!(engine.plans_built(), 1, "32 amplitudes must share one plan");
}

#[test]
fn closed_and_open_outputs_round_trip() {
    let circuit = RqcConfig::small(2, 4, 8, 11).build();
    let n = circuit.num_qubits();
    let sv = StateVector::simulate(&circuit);
    let engine = Engine::new().with_planner(PlannerConfig { target_rank: 8, ..Default::default() });
    // Closed amplitude.
    let bits = vec![0u8; n];
    let closed = engine.compile(&circuit, &OutputSpec::Amplitude(bits.clone())).unwrap();
    assert!((closed.execute_amplitude(&bits).unwrap().0 - sv.amplitude(&bits)).abs() < 1e-8);
    // Open batch over three qubits.
    let open = vec![2usize, 5, 7];
    let spec = OutputSpec::Open { fixed: bits.clone(), open: open.clone() };
    let (batch, _) = engine.compile(&circuit, &spec).unwrap().execute_batch(&bits).unwrap();
    assert_eq!(batch.rank(), 3);
    for k in 0..8usize {
        let open_bits: Vec<u8> = (0..3).map(|a| ((k >> (2 - a)) & 1) as u8).collect();
        let mut full = bits.clone();
        for (i, &q) in open.iter().enumerate() {
            full[q] = open_bits[i];
        }
        assert!((batch.get(&open_bits) - sv.amplitude(&full)).abs() < 1e-8);
    }
    // Total probability of the open marginal cannot exceed 1.
    assert!(batch.norm_sqr() <= 1.0 + 1e-9);
}

#[test]
fn ghz_circuit_with_every_gate_flavour() {
    // Exercise a variety of gates through the full pipeline.
    let mut circuit = Circuit::new(5);
    circuit
        .push1(Gate::H, 0)
        .push2(Gate::Cnot, 0, 1)
        .push1(Gate::T, 1)
        .push1(Gate::SqrtX, 2)
        .push1(Gate::SqrtY, 3)
        .push1(Gate::SqrtW, 4)
        .push2(Gate::Cz, 1, 2)
        .push2(Gate::ISwap, 2, 3)
        .push2(Gate::sycamore_fsim(), 3, 4)
        .push1(Gate::Rz(0.3), 0)
        .push1(Gate::Rx(1.1), 2)
        .push1(Gate::Ry(-0.7), 4);
    let sv = StateVector::simulate(&circuit);
    let compiled = Engine::new().compile(&circuit, &OutputSpec::Amplitude(vec![0; 5])).unwrap();
    for bits in [[0, 0, 0, 0, 0], [1, 0, 1, 0, 1], [1, 1, 1, 1, 1]] {
        let (amp, _) = compiled.execute_amplitude(&bits).unwrap();
        assert!((amp - sv.amplitude(&bits)).abs() < 1e-9);
    }
}

#[test]
fn planning_a_full_sycamore_network_is_tractable() {
    // Planning (not executing) the real 53-qubit geometry must work on a
    // laptop: this is the paper's process-level pipeline.
    let circuit = qtnsim::sycamore_rqc(10, 5);
    assert_eq!(circuit.num_qubits(), 53);
    let plan = plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; 53]),
        &PlannerConfig { target_rank: 30, path_candidates: 2, ..Default::default() },
    );
    // The un-sliced cost is astronomically large...
    assert!(plan.log_cost > 20.0);
    // ...but the sliced plan fits the per-node memory budget.
    assert!(plan.sliced_max_rank() <= 30);
    assert!(plan.overhead >= 1.0 - 1e-9);
    assert!(plan.overhead.is_finite());
}

#[test]
fn slicing_overhead_stays_moderate_on_structured_circuits() {
    // The paper's central claim: lifetime-guided slicing keeps the overhead
    // near 1 even when many edges must be sliced.
    let circuit = RqcConfig::small(4, 4, 12, 21).build();
    let plan = plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; 16]),
        &PlannerConfig { target_rank: 10, ..Default::default() },
    );
    assert!(plan.slicing.len() >= 2, "expected real slicing, got {}", plan.slicing.len());
    assert!(
        plan.overhead < 8.0,
        "slicing overhead {} too high for a structured circuit",
        plan.overhead
    );
}
