//! Cross-validation against the state-vector reference.

use crate::engine::Engine;
use crate::planner::PlannerConfig;
use qtn_circuit::{Circuit, OutputSpec};
use qtn_statevector::StateVector;

/// Result of a verification run.
#[derive(Debug, Clone)]
pub struct Verification {
    /// Number of amplitudes compared.
    pub compared: usize,
    /// Largest absolute deviation found.
    pub max_error: f64,
    /// Whether every deviation was below the tolerance.
    pub passed: bool,
}

/// Compare the sliced tensor-network simulator against the state-vector
/// simulator on `num_amplitudes` bitstrings of the given circuit (which must
/// be small enough for the state-vector method).
///
/// Returns the verification summary; `tolerance` is the maximum allowed
/// absolute amplitude error.
pub fn verify_against_statevector(
    circuit: &Circuit,
    planner: &PlannerConfig,
    num_amplitudes: usize,
    tolerance: f64,
) -> Verification {
    let n = circuit.num_qubits();
    assert!(n <= StateVector::MAX_QUBITS, "circuit too large for state-vector verification");
    let sv = StateVector::simulate(circuit);
    // One compile serves every probed bitstring: only the projectors rebind.
    let compiled = Engine::new()
        .with_planner(planner.clone())
        .compile(circuit, &OutputSpec::Amplitude(vec![0; n]))
        .expect("an all-zero bitstring of the circuit's width is a valid output spec");

    let mut max_error: f64 = 0.0;
    let mut compared = 0;
    for k in 0..num_amplitudes {
        // Spread the probed bitstrings deterministically over the space.
        let pattern = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - n.min(63));
        let bits: Vec<u8> = (0..n).map(|q| ((pattern >> (n - 1 - q)) & 1) as u8).collect();
        let (got, _) = compiled.execute_amplitude(&bits).expect("execution failed");
        let expected = sv.amplitude(&bits);
        max_error = max_error.max((got - expected).abs());
        compared += 1;
    }
    Verification { compared, max_error, passed: max_error <= tolerance }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtn_circuit::RqcConfig;

    #[test]
    fn random_circuit_verifies() {
        let circuit = RqcConfig::small(3, 3, 8, 77).build();
        let planner = PlannerConfig { target_rank: 8, ..Default::default() };
        let v = verify_against_statevector(&circuit, &planner, 6, 1e-8);
        assert!(v.passed, "max error {}", v.max_error);
        assert_eq!(v.compared, 6);
    }

    #[test]
    fn sycamore_style_gates_verify_without_slicing() {
        let circuit = RqcConfig::small(2, 4, 10, 78).build();
        let planner = PlannerConfig { target_rank: 30, ..Default::default() };
        let v = verify_against_statevector(&circuit, &planner, 4, 1e-8);
        assert!(v.passed, "max error {}", v.max_error);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_circuit_is_rejected() {
        let circuit = Circuit::new(30);
        verify_against_statevector(&circuit, &PlannerConfig::default(), 1, 1e-8);
    }
}
