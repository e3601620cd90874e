//! Quantum circuit front end for qtnsim.
//!
//! Provides the gate library, a minimal circuit IR, the Sycamore-style 2D
//! qubit layout and random-quantum-circuit (RQC) generator used by the
//! paper's evaluation, and the conversion of a circuit plus an output
//! specification (closed amplitude or open batch indices) into the list of
//! tensors forming the tensor network that the contraction layers operate on.

#![warn(missing_docs)]

pub mod circuit;
pub mod gate;
pub mod layout;
pub mod library;
pub mod network;
pub mod qsim;
pub mod rqc;

pub use circuit::{Circuit, FingerprintFold, GateOp};
pub use gate::Gate;
pub use layout::{GridLayout, SYCAMORE_QUBITS};
pub use library::{ghz, qaoa_ansatz, qft};
pub use network::{
    circuit_to_network, contract_network_naive, NetworkBuild, OutputSpec, ParamSlot, RebindError,
    TensorNode, PROJECTOR_DATA,
};
pub use qsim::{parse_qsim, parse_qsim_with_slots, write_qsim, QsimParam, QsimParseError};
pub use rqc::{sycamore_rqc, RqcConfig};
