//! Simulated Sunway SW26010pro machine model.
//!
//! The paper's thread-level results are driven by the relationship between
//! arithmetic intensity and the capacities/bandwidths of the SW26010pro
//! memory hierarchy: 6 core groups (CGs) per chip, 64 compute processing
//! elements (CPEs) per CG arranged in an 8×8 grid, a 16 GB main memory per
//! CG, a 256 KB local data memory (LDM) per CPE, DMA between main memory and
//! LDM at 51.2 GB/s, and RMA between CPEs of one CG at up to 800 GB/s.
//!
//! This crate provides that machine as an analytical model: capacities,
//! bandwidths with granularity-dependent efficiency, a roofline model whose
//! ridge point matches the paper's 42.3 flops/byte, a cost model that turns
//! (flops, bytes moved per level) into time, the slicing-vs-stacking
//! discriminant of §3.3, and the strong/weak scaling projection used for
//! Fig. 11 and the headline 96.1 s / 308.6 Pflops projection.
//!
//! Nothing here requires Sunway hardware: the same planner and executor code
//! paths run on any host, with this model supplying the timing that the
//! paper measured on the real machine (see DESIGN.md, substitutions).

#![warn(missing_docs)]

pub mod arch;
pub mod cost;
pub mod roofline;
pub mod scaling;
pub mod storage;
pub mod timebreak;

pub use arch::SunwayArch;
pub use cost::{CostModel, KernelCost};
pub use roofline::Roofline;
pub use scaling::{ScalingModel, ScalingPoint};
pub use storage::{MemoryHierarchy, StorageLevel};
pub use timebreak::TimeBreakdown;
