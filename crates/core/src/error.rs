//! Crate-wide error type.
//!
//! Every fallible operation of the engine API returns [`Error`] instead of
//! panicking: input validation happens at the API boundary (bitstring
//! lengths, bit values, open-qubit sets), shape misuse is caught when an
//! execute method is called on a [`crate::CompiledCircuit`] of the wrong
//! output shape, and internal executor invariant violations surface as
//! [`Error::Internal`] rather than `expect` panics.

use qtn_circuit::RebindError;

/// Everything that can go wrong when compiling or executing a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A bitstring's length does not match the circuit's qubit count.
    BitstringLength {
        /// Qubits in the circuit.
        expected: usize,
        /// Length of the bitstring that was supplied.
        got: usize,
    },
    /// A bit value other than 0 or 1 was supplied.
    InvalidBit {
        /// The offending qubit position.
        qubit: usize,
        /// The offending value.
        value: u8,
    },
    /// An open-qubit id is not a valid qubit of the circuit.
    OpenQubitOutOfRange {
        /// The offending qubit id.
        qubit: usize,
        /// Qubits in the circuit.
        num_qubits: usize,
    },
    /// The same qubit appears twice in an open-qubit set.
    DuplicateOpenQubit {
        /// The duplicated qubit id.
        qubit: usize,
    },
    /// An execute method was called on a compiled circuit of a different
    /// output shape (e.g. `execute_amplitude` on an open-output compilation).
    OutputShapeMismatch {
        /// What the compiled circuit was compiled for.
        compiled: &'static str,
        /// What the call requires.
        requested: &'static str,
    },
    /// A compiled plan's predicted peak buffer memory (from the plan-time
    /// lifetime analysis) exceeds the configured
    /// [`crate::PlannerConfig::memory_budget_bytes`]. Raise the budget or
    /// lower `target_rank` so slicing produces smaller subtasks.
    MemoryBudgetExceeded {
        /// Predicted per-worker peak bytes of the worst reuse phase, single
        /// or batched execution, whichever is larger.
        predicted_bytes: u64,
        /// The configured budget.
        budget_bytes: u64,
    },
    /// A compiled plan materialises a tensor of higher rank than the
    /// contraction kernels address ([`qtn_tensor::MAX_RANK`]). Lower
    /// `target_rank` or open fewer qubits so slicing produces smaller
    /// tensors.
    TensorTooLarge {
        /// Largest tensor rank of the plan's memory phases.
        rank: usize,
        /// The kernels' rank limit.
        max: usize,
    },
    /// A parameter rebind named a slot index the compiled circuit does not
    /// have (see [`qtn_circuit::NetworkBuild::param_slots`]).
    UnknownParamSlot {
        /// The offending slot index.
        slot: usize,
        /// Parameter slots the circuit was built with.
        slots: usize,
    },
    /// A parameter rebind supplied a NaN or infinite angle.
    NonFiniteParam {
        /// The slot the non-finite value targeted.
        slot: usize,
    },
    /// A plan slices so many edges that its `2^|S|` subtasks cannot be
    /// addressed by a `usize`; no such sweep could ever finish, so the
    /// executor refuses it before any worker starts.
    TooManySlicedEdges {
        /// Sliced edges of the plan (`|S|`).
        sliced: usize,
    },
    /// Sampling was requested from an amplitude tensor whose total
    /// probability mass is zero (every amplitude is exactly 0).
    ZeroAmplitudeDistribution,
    /// A circuit is too wide for a dense reference method that holds all
    /// `2^n` amplitudes (the facade's state-vector verification).
    TooManyQubits {
        /// Qubits in the circuit.
        qubits: usize,
        /// The reference method's qubit limit.
        max: usize,
    },
    /// An execution worker panicked and the panic was caught at the
    /// execution boundary: only the affected execution fails, the worker
    /// pool and any serving layer above keep running. Carries the panic
    /// payload's message when it was a string.
    ExecutionPanic(String),
    /// An internal invariant of the executor was violated. Seeing this is a
    /// bug in the planner/executor, not a user error.
    Internal(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::BitstringLength { expected, got } => {
                write!(f, "bitstring length {got} does not match {expected} qubits")
            }
            Error::InvalidBit { qubit, value } => {
                write!(f, "bit value {value} for qubit {qubit} is not 0 or 1")
            }
            Error::OpenQubitOutOfRange { qubit, num_qubits } => {
                write!(f, "open qubit {qubit} out of range for {num_qubits} qubits")
            }
            Error::DuplicateOpenQubit { qubit } => {
                write!(f, "open qubit {qubit} listed more than once")
            }
            Error::OutputShapeMismatch { compiled, requested } => {
                write!(
                    f,
                    "compiled circuit has {compiled} output shape but the call requires {requested}"
                )
            }
            Error::MemoryBudgetExceeded { predicted_bytes, budget_bytes } => {
                write!(
                    f,
                    "plan's predicted peak memory ({predicted_bytes} bytes) exceeds the \
                     {budget_bytes}-byte budget"
                )
            }
            Error::TensorTooLarge { rank, max } => {
                write!(
                    f,
                    "plan materialises a rank-{rank} tensor; the kernels address at most \
                     rank {max}"
                )
            }
            Error::UnknownParamSlot { slot, slots } => {
                write!(f, "parameter slot {slot} out of range for {slots} slots")
            }
            Error::NonFiniteParam { slot } => {
                write!(f, "non-finite value for parameter slot {slot}")
            }
            Error::TooManySlicedEdges { sliced } => {
                write!(f, "plan slices {sliced} edges: 2^{sliced} subtasks are not addressable")
            }
            Error::ZeroAmplitudeDistribution => {
                write!(f, "cannot sample from an all-zero amplitude tensor")
            }
            Error::TooManyQubits { qubits, max } => {
                write!(f, "{qubits} qubits exceed the {max}-qubit limit of the dense reference")
            }
            Error::ExecutionPanic(msg) => write!(f, "an execution worker panicked: {msg}"),
            Error::Internal(msg) => write!(f, "internal executor invariant violated: {msg}"),
        }
    }
}

impl Error {
    /// Convert a payload caught by `std::panic::catch_unwind` into a typed
    /// [`Error::ExecutionPanic`], extracting the message when the payload
    /// is the usual `&str` or `String`.
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Error {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Error::ExecutionPanic(msg)
    }
}

impl std::error::Error for Error {}

impl From<RebindError> for Error {
    fn from(e: RebindError) -> Self {
        match e {
            RebindError::BitstringLength { expected, got } => {
                Error::BitstringLength { expected, got }
            }
            RebindError::InvalidBit { qubit, value } => Error::InvalidBit { qubit, value },
            RebindError::UnknownParamSlot { slot, slots } => {
                Error::UnknownParamSlot { slot, slots }
            }
            RebindError::NonFiniteParam { slot } => Error::NonFiniteParam { slot },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::BitstringLength { expected: 5, got: 3 }, "length 3"),
            (Error::InvalidBit { qubit: 2, value: 7 }, "qubit 2"),
            (Error::OpenQubitOutOfRange { qubit: 9, num_qubits: 4 }, "out of range"),
            (Error::DuplicateOpenQubit { qubit: 1 }, "more than once"),
            (
                Error::OutputShapeMismatch { compiled: "open", requested: "amplitude" },
                "output shape",
            ),
            (
                Error::MemoryBudgetExceeded { predicted_bytes: 4096, budget_bytes: 1024 },
                "exceeds the 1024-byte budget",
            ),
            (Error::UnknownParamSlot { slot: 6, slots: 3 }, "slot 6"),
            (Error::NonFiniteParam { slot: 2 }, "non-finite"),
            (Error::TooManySlicedEdges { sliced: 64 }, "2^64 subtasks"),
            (Error::TensorTooLarge { rank: 34, max: 32 }, "rank-34 tensor"),
            (Error::ZeroAmplitudeDistribution, "all-zero"),
            (Error::TooManyQubits { qubits: 30, max: 26 }, "26-qubit limit"),
            (Error::ExecutionPanic("index out of bounds".into()), "panicked"),
            (Error::Internal("oops".into()), "oops"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn panic_payloads_convert_to_typed_errors() {
        let caught = std::panic::catch_unwind(|| panic!("static str payload")).unwrap_err();
        assert_eq!(Error::from_panic(caught), Error::ExecutionPanic("static str payload".into()));
        let caught = std::panic::catch_unwind(|| panic!("formatted {} payload", 42)).unwrap_err();
        assert_eq!(Error::from_panic(caught), Error::ExecutionPanic("formatted 42 payload".into()));
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(
            Error::from_panic(caught),
            Error::ExecutionPanic("non-string panic payload".into())
        );
    }

    #[test]
    fn rebind_errors_convert() {
        let e: Error = RebindError::BitstringLength { expected: 2, got: 1 }.into();
        assert_eq!(e, Error::BitstringLength { expected: 2, got: 1 });
        let e: Error = RebindError::InvalidBit { qubit: 0, value: 3 }.into();
        assert_eq!(e, Error::InvalidBit { qubit: 0, value: 3 });
        let e: Error = RebindError::UnknownParamSlot { slot: 4, slots: 1 }.into();
        assert_eq!(e, Error::UnknownParamSlot { slot: 4, slots: 1 });
        let e: Error = RebindError::NonFiniteParam { slot: 0 }.into();
        assert_eq!(e, Error::NonFiniteParam { slot: 0 });
    }
}
