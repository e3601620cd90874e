//! End-to-end lifetime-based tensor-network simulator.
//!
//! This crate ties the substrates together into the system the paper
//! describes, around a **compile-once / execute-many** API: [`Engine`] runs
//! the planning pipeline (circuit → tensor network → contraction path →
//! stem → lifetime slicing → SA refinement) exactly once per circuit/output
//! shape and hands back a [`CompiledCircuit`]; every execute rebinds only
//! the output-projector leaves and sweeps the `2^|S|` slice subtasks on
//! the engine's persistent [`WorkerPool`], accumulating results with a
//! deterministic reduction and reporting FLOP counts and timings through
//! [`ExecutionReport`]. The sweep is *stem-only* (§4.2 of the paper):
//! slice-invariant branches are pre-contracted once per plan into a
//! plan-lifetime store, projector-dependent frontiers once per execution, and
//! only the slice-dependent stem replays per subtask — bit-identically to
//! a full replay. All fallible operations return [`Error`] instead of
//! panicking.

#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod executor;
pub mod fault;
pub mod json;
pub mod planner;
pub mod pool;
pub mod sampling;
pub mod sync;

pub use engine::{CacheStats, CompiledCircuit, Engine, ExecutionReport, OutputShape};
pub use error::Error;
pub use executor::{ExecutionStats, ExecutorConfig, WorkerPool};
pub use fault::{FaultPlan, FaultPoint};
pub use planner::{plan_simulation, PlanStage, PlannerConfig, SimulationPlan};
pub use pool::{BufferPool, PoolCounters, SharedWorkerPools};
pub use sampling::sample_bitstrings;
pub use sync::lock_unpoisoned;
