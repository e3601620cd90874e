//! Secondary slicing and fused thread-level execution (§5 of the paper).
//!
//! At thread level, contracting step by step forces a DMA round trip of the
//! running stem tensor between every two contractions, and with the narrow
//! GEMM shapes of qubit networks that makes the whole kernel
//! bandwidth-bound. The fused design applies slicing a second time — between
//! the main memory and the 256 KB LDM — choosing the indices with the
//! longest lifetime as the (secondary) sliced set so that a run of `n`
//! contraction steps can be executed entirely inside the LDM: one DMA-get at
//! the start, one DMA-put at the end, `n − 1` round trips saved, and no
//! slicing overhead at all because the DMA-put doubles as the stacking step.
//!
//! The crate provides the secondary-slicing planner, a numeric fused executor
//! and the step-by-step baseline (both produce bit-identical tensors, only
//! their accounted time differs).

#![warn(missing_docs)]

pub mod exec;
pub mod secondary;
pub mod segment;

pub use exec::{execute_fused, execute_step_by_step, ExecutionReport};
pub use secondary::{plan_secondary_slicing, FusedGroup, SecondaryPlan};
pub use segment::{random_segment, StemSegment};
