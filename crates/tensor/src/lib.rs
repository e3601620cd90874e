//! Dense complex tensor substrate for the qtnsim tensor-network simulator.
//!
//! This crate provides the numeric building blocks used by every layer above
//! it: the double-precision complex scalar [`Complex64`], dense tensors whose
//! bond dimensions are all 2 (qubit tensor networks), out-of-place tensor
//! permutation, `Complex64` GEMM with rank-specialized
//! micro-kernels, one portable packed/blocked kernel and runtime-probed
//! SIMD paths (AVX2+FMA / NEON — see [`kernels`]) that read their operands
//! in place through offset views, and the transpose-free pairwise
//! contraction ([`contract`]) that the higher-level contraction engine is
//! built on.
//!
//! No external BLAS or complex-number crates are used: everything needed by
//! the simulator is implemented here so the workspace builds offline.

#![warn(missing_docs)]

pub mod complex;
pub mod contract;
pub mod dense;
pub mod gemm;
pub mod index;
pub mod kernels;
pub mod permute;

pub use complex::{c64, Complex64, Scalar};
pub use contract::{contract_pair, ContractionKernel, ContractionSpec};
pub use dense::DenseTensor;
pub use index::{IndexId, IndexSet};
pub use kernels::{
    set_simd_override, simd_level, DispatchClass, GemmPath, KernelPlan, MatRef, OffsetTable,
    SimdLevel, MAX_RANK,
};
pub use permute::permute;
