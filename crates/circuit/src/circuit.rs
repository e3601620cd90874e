//! Circuit intermediate representation.

use crate::gate::Gate;

/// A gate applied to specific qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOp {
    /// The gate.
    pub gate: Gate,
    /// Target qubits (length 1 or 2 matching the gate arity). For two-qubit
    /// gates the first entry is the first tensor axis (control for CNOT).
    pub qubits: Vec<usize>,
}

/// A quantum circuit: a number of qubits and an ordered list of gate
/// applications. All qubits start in |0⟩.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Circuit {
    num_qubits: usize,
    ops: Vec<GateOp>,
}

impl Circuit {
    /// Create an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Self { num_qubits, ops: Vec::new() }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The gate operations in program order.
    pub fn ops(&self) -> &[GateOp] {
        &self.ops
    }

    /// Number of gate operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Append a single-qubit gate.
    ///
    /// # Panics
    /// Panics if the gate is not single-qubit or the qubit is out of range.
    pub fn push1(&mut self, gate: Gate, qubit: usize) -> &mut Self {
        assert_eq!(gate.arity(), 1, "push1 requires a single-qubit gate");
        assert!(qubit < self.num_qubits, "qubit {qubit} out of range");
        self.ops.push(GateOp { gate, qubits: vec![qubit] });
        self
    }

    /// Append a two-qubit gate.
    ///
    /// # Panics
    /// Panics if the gate is not two-qubit, a qubit is out of range, or the
    /// two qubits coincide.
    pub fn push2(&mut self, gate: Gate, q0: usize, q1: usize) -> &mut Self {
        assert_eq!(gate.arity(), 2, "push2 requires a two-qubit gate");
        assert!(q0 < self.num_qubits && q1 < self.num_qubits, "qubit out of range");
        assert_ne!(q0, q1, "two-qubit gate applied to a single qubit");
        self.ops.push(GateOp { gate, qubits: vec![q0, q1] });
        self
    }

    /// Append an already-constructed operation.
    pub fn push_op(&mut self, op: GateOp) -> &mut Self {
        assert_eq!(op.gate.arity(), op.qubits.len(), "gate arity mismatch");
        for &q in &op.qubits {
            assert!(q < self.num_qubits, "qubit {q} out of range");
        }
        self.ops.push(op);
        self
    }

    /// Number of two-qubit gates (the quantity that drives tensor-network
    /// treewidth and therefore simulation cost).
    pub fn two_qubit_gate_count(&self) -> usize {
        self.ops.iter().filter(|op| op.gate.arity() == 2).count()
    }

    /// A structural fingerprint of the circuit: a 64-bit hash over the
    /// qubit count and, per operation, its arity, its target qubits and the
    /// bit patterns of its unitary matrix's complex entries. Each input is
    /// one `u64` word, folded in with a multiply-xorshift step (every step
    /// is a bijection of the state, so two inputs differing in one word
    /// never collide); matrices are read in place, without allocating. Two
    /// circuits with the same fingerprint produce identical tensor networks
    /// up to output projectors, which is what plan caches key on. Values
    /// are stable within a build, not a persisted format.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            h = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^= h >> 32;
        };
        eat(self.num_qubits as u64);
        for op in &self.ops {
            eat(op.qubits.len() as u64);
            for &q in &op.qubits {
                eat(q as u64);
            }
            op.gate.with_matrix(|matrix| {
                for entry in matrix {
                    eat(entry.re.to_bits());
                    eat(entry.im.to_bits());
                }
            });
        }
        h
    }

    /// Circuit depth: the length of the longest chain of gates sharing
    /// qubits, computed by levelling each qubit wire.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        let mut depth = 0;
        for op in &self.ops {
            let l = op.qubits.iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
            for &q in &op.qubits {
                level[q] = l;
            }
            depth = depth.max(l);
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_circuit() {
        let mut c = Circuit::new(3);
        c.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1).push2(Gate::Cz, 1, 2);
        assert_eq!(c.len(), 3);
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.two_qubit_gate_count(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn depth_levels_wires() {
        let mut c = Circuit::new(3);
        // H(0), H(1) are parallel -> depth 1; CNOT(0,1) -> 2; X(2) parallel -> 1.
        c.push1(Gate::H, 0).push1(Gate::H, 1).push2(Gate::Cnot, 0, 1).push1(Gate::X, 2);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn empty_circuit_depth_zero() {
        assert_eq!(Circuit::new(4).depth(), 0);
    }

    #[test]
    fn fingerprint_distinguishes_structure_and_parameters() {
        let mut a = Circuit::new(2);
        a.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
        let mut b = Circuit::new(2);
        b.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different target qubit.
        let mut c = Circuit::new(2);
        c.push1(Gate::H, 1).push2(Gate::Cnot, 0, 1);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Different rotation angle.
        let mut d1 = Circuit::new(1);
        d1.push1(Gate::Rz(0.25), 0);
        let mut d2 = Circuit::new(1);
        d2.push1(Gate::Rz(0.26), 0);
        assert_ne!(d1.fingerprint(), d2.fingerprint());
        // Same gates, different qubit count.
        let mut e = Circuit::new(3);
        e.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
        assert_ne!(a.fingerprint(), e.fingerprint());
    }

    #[test]
    fn fingerprint_sees_every_matrix_bit_and_qubit_order() {
        use qtn_tensor::Complex64;
        let fsim = Gate::FSim { theta: 0.52, phi: 0.17 };
        let raw: [Complex64; 16] = fsim.matrix().try_into().unwrap();
        let circuit = |gate: Gate, q0: usize, q1: usize| {
            let mut c = Circuit::new(3);
            c.push1(Gate::SqrtW, 2).push2(gate, q0, q1);
            c.fingerprint()
        };
        let base = circuit(fsim.clone(), 0, 1);
        // A named gate and its raw unitary hash alike.
        assert_eq!(circuit(Gate::Unitary2(Box::new(raw)), 0, 1), base);
        // Swapping the gate's two qubits.
        assert_ne!(circuit(fsim.clone(), 1, 0), base);
        // The lowest or the highest bit of one entry's real or imaginary
        // part, for every entry.
        for at in 0..16 {
            for bit in [0, 63] {
                for part in [0, 1] {
                    let mut flipped = raw;
                    let entry = &mut flipped[at];
                    let word = if part == 0 { &mut entry.re } else { &mut entry.im };
                    *word = f64::from_bits(word.to_bits() ^ (1 << bit));
                    let h = circuit(Gate::Unitary2(Box::new(flipped)), 0, 1);
                    assert_ne!(h, base, "entry {at}, bit {bit}, part {part}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        Circuit::new(2).push1(Gate::X, 5);
    }

    #[test]
    #[should_panic(expected = "single qubit")]
    fn repeated_qubit_in_two_qubit_gate_panics() {
        Circuit::new(2).push2(Gate::Cz, 1, 1);
    }

    #[test]
    #[should_panic(expected = "push1 requires")]
    fn arity_mismatch_panics() {
        Circuit::new(2).push1(Gate::Cz, 0);
    }
}
