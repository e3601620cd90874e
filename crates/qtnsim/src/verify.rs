//! Cross-validation against the state-vector reference.

use qtn_circuit::{Circuit, OutputSpec};
use qtn_statevector::StateVector;
use qtnsim_core::{Engine, Error, PlannerConfig};

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
/// simulator on `num_amplitudes` bitstrings of the given circuit.
///
/// Returns the verification summary; `tolerance` is the maximum allowed
/// absolute amplitude error. A circuit wider than
/// [`StateVector::MAX_QUBITS`] is rejected with [`Error::TooManyQubits`];
/// compile and execute failures propagate.
pub fn verify_against_statevector(
    circuit: &Circuit,
    planner: &PlannerConfig,
    num_amplitudes: usize,
    tolerance: f64,
) -> Result<Verification, Error> {
    let n = circuit.num_qubits();
    if n > StateVector::MAX_QUBITS {
        return Err(Error::TooManyQubits { qubits: n, max: StateVector::MAX_QUBITS });
    }
    let sv = StateVector::simulate(circuit);
    // One compile serves every probed bitstring: only the projectors rebind.
    let compiled = Engine::new()
        .with_planner(planner.clone())
        .compile(circuit, &OutputSpec::Amplitude(vec![0; n]))?;

    let mut max_error: f64 = 0.0;
    let mut compared = 0;
    for k in 0..num_amplitudes {
        // Spread the probed bitstrings deterministically over the space.
        let pattern = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - n.min(63));
        let bits: Vec<u8> = (0..n).map(|q| ((pattern >> (n - 1 - q)) & 1) as u8).collect();
        let (got, _) = compiled.execute_amplitude(&bits)?;
        let expected = sv.amplitude(&bits);
        max_error = max_error.max((got - expected).abs());
        compared += 1;
    }
    Ok(Verification { compared, max_error, passed: max_error <= tolerance })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtn_circuit::RqcConfig;

    #[test]
    fn random_circuit_verifies() {
        let circuit = RqcConfig::small(3, 3, 8, 77).build();
        let planner = PlannerConfig { target_rank: 8, ..Default::default() };
        let v = verify_against_statevector(&circuit, &planner, 6, 1e-8).unwrap();
        assert!(v.passed, "max error {}", v.max_error);
        assert_eq!(v.compared, 6);
    }

    #[test]
    fn sycamore_style_gates_verify_without_slicing() {
        let circuit = RqcConfig::small(2, 4, 10, 78).build();
        let planner = PlannerConfig { target_rank: 30, ..Default::default() };
        let v = verify_against_statevector(&circuit, &planner, 4, 1e-8).unwrap();
        assert!(v.passed, "max error {}", v.max_error);
    }

    #[test]
    fn oversized_circuit_is_rejected() {
        let circuit = Circuit::new(30);
        let err = verify_against_statevector(&circuit, &PlannerConfig::default(), 1, 1e-8);
        assert_eq!(
            err.unwrap_err(),
            Error::TooManyQubits { qubits: 30, max: StateVector::MAX_QUBITS }
        );
    }
}
