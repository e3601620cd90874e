//! # qtnsim — lifetime-based tensor-network quantum circuit simulation
//!
//! A Rust reproduction of *"Lifetime-Based Optimization for Simulating
//! Quantum Circuits on a New Sunway Supercomputer"* (PPoPP 2023): a
//! tensor-network contraction simulator for random quantum circuits whose
//! memory is managed by *slicing*, with the slicing sets chosen by the
//! paper's lifetime-based finder and simulated-annealing refiner, executed
//! as a pooled stem-only sweep on the host. The paper's thread-level fused
//! design and the Sunway SW26010pro machine model are private modules of
//! `qtn-bench`, the package of the `repro` binary, not part of this crate.
//!
//! ## Quick start: compile once, execute many
//!
//! Planning (contraction-path search plus slicing refinement) is orders of
//! magnitude more expensive than rebinding an output bitstring, so the API
//! splits the two: [`Engine::compile`] plans, [`CompiledCircuit`] executes.
//!
//! ```
//! use qtnsim::circuit::{Circuit, Gate, OutputSpec};
//! use qtnsim::Engine;
//!
//! // A 3-qubit GHZ circuit.
//! let mut circuit = Circuit::new(3);
//! circuit.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1).push2(Gate::Cnot, 1, 2);
//!
//! let engine = Engine::new();
//! let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; 3]))?;
//!
//! // Any bitstring executes on the same plan — only the rank-1 output
//! // projectors are rebound, the planner never runs again.
//! let (a000, _report) = compiled.execute_amplitude(&[0, 0, 0])?;
//! let (a111, report) = compiled.execute_amplitude(&[1, 1, 1])?;
//! assert!((a000.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-10);
//! assert!((a111.abs() - 1.0 / 2f64.sqrt()).abs() < 1e-10);
//! assert!(report.stats.subtasks_run >= 1);
//! assert_eq!(engine.plans_built(), 1);
//! # Ok::<(), qtnsim::Error>(())
//! ```
//!
//! Correlated samples use an open-output compilation:
//!
//! ```
//! use qtnsim::circuit::{Circuit, Gate, OutputSpec};
//! use qtnsim::Engine;
//!
//! let mut circuit = Circuit::new(2);
//! circuit.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1);
//! let engine = Engine::new();
//! let compiled = engine.compile(
//!     &circuit,
//!     &OutputSpec::Open { fixed: vec![0, 0], open: vec![0, 1] },
//! )?;
//! let (samples, _) = compiled.sample(&[0, 0], 100, 7)?;
//! assert!(samples.iter().all(|s| s[0] == s[1])); // Bell pair correlations
//! # Ok::<(), qtnsim::Error>(())
//! ```
//!
//! Every fallible operation returns [`Error`] instead of panicking.
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`tensor`] | complex scalars, dense tensors, permutation, GEMM, transpose-free contraction |
//! | [`circuit`] | gate library, circuit IR, Sycamore-style RQC generator, circuit → network |
//! | [`tensornet`] | network graph, contraction trees, path search, stem extraction |
//! | [`slicing`] | lifetime, overheads, the slice finder (Alg. 1), the SA refiner (Alg. 2) |
//! | [`statevector`] | reference full-state simulator for validation |
//! | [`core`] | engine, planner, stem-only sliced executor, sampling |
//! | [`verify`] | tensor-network amplitudes cross-checked against [`statevector`] |

#![warn(missing_docs)]

pub use qtn_circuit as circuit;
pub use qtn_slicing as slicing;
pub use qtn_statevector as statevector;
pub use qtn_tensor as tensor;
pub use qtn_tensornet as tensornet;
pub use qtnsim_core as core;

pub mod verify;

pub use qtn_circuit::{sycamore_rqc, Circuit, Gate, OutputSpec, RqcConfig};
pub use qtn_tensor::{c64, Complex64, DenseTensor};
pub use qtnsim_core::{
    plan_simulation, BufferPool, CompiledCircuit, Engine, Error, ExecutionReport, ExecutionStats,
    ExecutorConfig, OutputShape, PlannerConfig, PoolCounters, WorkerPool,
};
pub use verify::{verify_against_statevector, Verification};
