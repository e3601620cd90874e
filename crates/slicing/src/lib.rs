//! Lifetime-based slicing: the paper's core contribution.
//!
//! Slicing fixes the value of selected tensor-network edges so that every
//! tensor containing a sliced edge loses one dimension; the `2^|S|`
//! assignments of the sliced edges become independent subtasks whose results
//! are accumulated at the end. Slicing is how the simulator fits Sycamore
//! contractions into bounded memory, at the price of *slicing overhead*
//! (redundant recomputation in every subtask of the contractions that do not
//! involve the sliced edges).
//!
//! This crate implements:
//!
//! * Definition 1: the lifetime of an edge is the set of stem tensors whose
//!   index set contains it. On a stem it is one interval of positions, and
//!   the finder and the refiner read every edge's interval from one
//!   crate-private table;
//! * [`overhead`] — Eq. (2) and Eq. (4): the sliced time complexity and the
//!   overhead ratio of a slicing set;
//! * [`finder`] — Algorithm 1: the lifetime-based slice finder that works
//!   inward from the ends of the stem, always slicing the indices with the
//!   longest lifetime;
//! * [`refiner`] — Algorithm 2: the simulated-annealing slice refiner based
//!   on critical tensors.
//!
//! The baselines the paper compares against (the cotengra-style greedy
//! slicer of Fig. 10 and the Alibaba-style dynamic slicer) live next to the
//! figures that run them, in `qtn-bench`.

#![warn(missing_docs)]

pub mod finder;
mod lifetime;
mod marks;
pub mod overhead;
pub mod refiner;
#[cfg(test)]
mod test_stems;

pub use finder::lifetime_slice_finder;
pub use overhead::{sliced_log_cost, sliced_max_rank, slicing_overhead, SlicingPlan};
pub use refiner::{refine_slicing, RefinerConfig};
