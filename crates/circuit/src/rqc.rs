//! Sycamore-style random quantum circuit generation.
//!
//! A random circuit over a [`GridLayout`] consists of `m` cycles. Each cycle
//! applies a random single-qubit gate from {√X, √Y, √W} to every qubit
//! (never repeating the previous choice on the same qubit, as on the real
//! device) followed by the fSim coupler on every pair in the cycle's
//! coupler set, with sets activated in the `ABCDCDAB` sequence.
//!
//! The generated circuits have the same connectivity structure and tensor
//! ranks as the published Sycamore supremacy circuits; they stand in for the
//! original circuit files, which are not in this repository.

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::layout::{CouplerSet, GridLayout};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a random-quantum-circuit instance.
#[derive(Debug, Clone)]
pub struct RqcConfig {
    /// Qubit layout.
    pub layout: GridLayout,
    /// Number of cycles `m` (the paper evaluates m = 12..20).
    pub cycles: usize,
    /// RNG seed so experiments are reproducible.
    pub seed: u64,
    /// Whether to append a final layer of single-qubit gates before
    /// measurement (as the hardware does).
    pub final_single_qubit_layer: bool,
}

impl RqcConfig {
    /// The Sycamore configuration with `m` cycles.
    pub fn sycamore(cycles: usize, seed: u64) -> Self {
        Self { layout: GridLayout::sycamore(), cycles, seed, final_single_qubit_layer: true }
    }

    /// A small grid configuration, useful for tests and examples that need to
    /// be cross-validated against the state-vector simulator.
    pub fn small(rows: usize, cols: usize, cycles: usize, seed: u64) -> Self {
        Self {
            layout: GridLayout::new(rows, cols, &[]),
            cycles,
            seed,
            final_single_qubit_layer: true,
        }
    }

    /// Generate the circuit.
    pub fn build(&self) -> Circuit {
        let n = self.layout.num_qubits();
        let mut circuit = Circuit::new(n);
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Track the previous single-qubit gate per qubit (device rule: never
        // repeat the same gate twice in a row).
        let mut prev: Vec<Option<usize>> = vec![None; n];
        let choices = [Gate::SqrtX, Gate::SqrtY, Gate::SqrtW];

        for cycle in 0..self.cycles {
            // Single-qubit layer.
            for (q, prev_q) in prev.iter_mut().enumerate() {
                let g = pick_gate(&mut rng, &choices, prev_q);
                circuit.push1(g, q);
            }
            // Two-qubit layer.
            let set = CouplerSet::for_cycle(cycle);
            for (a, b) in self.layout.couplers(set) {
                circuit.push2(Gate::sycamore_fsim(), a, b);
            }
        }
        if self.final_single_qubit_layer {
            for (q, prev_q) in prev.iter_mut().enumerate() {
                let g = pick_gate(&mut rng, &choices, prev_q);
                circuit.push1(g, q);
            }
        }
        circuit
    }
}

/// Sycamore RQC with `m` cycles, seeded.
pub fn sycamore_rqc(cycles: usize, seed: u64) -> Circuit {
    RqcConfig::sycamore(cycles, seed).build()
}

fn pick_gate(rng: &mut StdRng, choices: &[Gate; 3], prev: &mut Option<usize>) -> Gate {
    loop {
        let i = rng.gen_range(0..choices.len());
        if *prev != Some(i) {
            *prev = Some(i);
            return choices[i].clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sycamore_m12_has_expected_gate_counts() {
        let c = sycamore_rqc(12, 0);
        assert_eq!(c.num_qubits(), 53);
        // 12 single-qubit layers of 53 plus the final layer.
        let single = c.ops().iter().filter(|op| op.gate.arity() == 1).count();
        assert_eq!(single, 13 * 53);
        assert!(c.two_qubit_gate_count() > 0);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = sycamore_rqc(14, 7);
        let b = sycamore_rqc(14, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = sycamore_rqc(14, 7);
        let b = sycamore_rqc(14, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn no_repeated_single_qubit_gate_on_a_wire() {
        let c = RqcConfig::small(3, 3, 10, 3).build();
        let n = c.num_qubits();
        let mut last: Vec<Option<&Gate>> = vec![None; n];
        for op in c.ops() {
            if op.gate.arity() == 1 {
                let q = op.qubits[0];
                if let Some(prev) = last[q] {
                    assert_ne!(prev, &op.gate, "repeated single-qubit gate on wire {q}");
                }
                last[q] = Some(&op.gate);
            }
        }
    }

    #[test]
    fn two_qubit_gates_follow_coupler_sets() {
        let cfg = RqcConfig::small(4, 4, 8, 1);
        let c = cfg.build();
        let layout = &cfg.layout;
        // Every fSim must connect adjacent qubits in the layout.
        let all: std::collections::HashSet<(usize, usize)> =
            layout.all_couplers().into_iter().collect();
        for op in c.ops() {
            if op.gate.arity() == 2 {
                let pair = (op.qubits[0], op.qubits[1]);
                let rev = (op.qubits[1], op.qubits[0]);
                assert!(all.contains(&pair) || all.contains(&rev), "{pair:?} not a coupler");
            }
        }
    }

    #[test]
    fn depth_grows_with_cycles() {
        let short = RqcConfig::small(3, 3, 4, 2).build();
        let long = RqcConfig::small(3, 3, 12, 2).build();
        assert!(long.depth() > short.depth());
    }

    #[test]
    fn cycle_count_scales_two_qubit_gates() {
        let m10 = RqcConfig::sycamore(10, 5).build().two_qubit_gate_count();
        let m20 = RqcConfig::sycamore(20, 5).build().two_qubit_gate_count();
        // Not exactly 2x because different cycles activate different set
        // sizes, but close.
        assert!(m20 > m10 + m10 / 2);
    }
}
