//! Per-phase time accounting (the breakdown of Fig. 12).
//!
//! The thread-level comparison in the paper splits execution time into
//! memory access (DMA + RMA), tensor permutation, and GEMM. The fused design
//! reduces the memory-access share while leaving permutation and GEMM time
//! essentially unchanged; accumulating these buckets is how the benchmark
//! harness regenerates that figure.

use std::ops::{Add, AddAssign};

/// Time spent in each execution phase, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Main-memory ↔ LDM transfers (DMA), including IO where applicable.
    pub memory_access: f64,
    /// CPE ↔ CPE exchanges (RMA).
    pub rma: f64,
    /// Tensor permutations (LDM-local data reshuffling).
    pub permutation: f64,
    /// Matrix multiplication kernels.
    pub gemm: f64,
    /// Planner / host-side preprocessing (the paper's "python based
    /// pre-conditioning", negligible and run on one core).
    pub preprocessing: f64,
}

impl TimeBreakdown {
    /// Total wall time of the phases.
    pub fn total(&self) -> f64 {
        self.memory_access + self.rma + self.permutation + self.gemm + self.preprocessing
    }

    /// Scale every phase by a constant (used when projecting one measured
    /// subtask to a full sweep).
    pub fn scaled(&self, factor: f64) -> TimeBreakdown {
        TimeBreakdown {
            memory_access: self.memory_access * factor,
            rma: self.rma * factor,
            permutation: self.permutation * factor,
            gemm: self.gemm * factor,
            preprocessing: self.preprocessing * factor,
        }
    }
}

impl Add for TimeBreakdown {
    type Output = TimeBreakdown;
    fn add(self, rhs: TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            memory_access: self.memory_access + rhs.memory_access,
            rma: self.rma + rhs.rma,
            permutation: self.permutation + rhs.permutation,
            gemm: self.gemm + rhs.gemm,
            preprocessing: self.preprocessing + rhs.preprocessing,
        }
    }
}

impl AddAssign for TimeBreakdown {
    fn add_assign(&mut self, rhs: TimeBreakdown) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_phases() {
        let t = TimeBreakdown {
            memory_access: 1.0,
            rma: 0.5,
            permutation: 2.0,
            gemm: 3.0,
            preprocessing: 0.25,
        };
        assert!((t.total() - 6.75).abs() < 1e-12);
    }

    #[test]
    fn add_and_scale() {
        let a = TimeBreakdown { memory_access: 1.0, gemm: 2.0, ..Default::default() };
        let b = TimeBreakdown { permutation: 3.0, gemm: 1.0, ..Default::default() };
        let mut c = a + b;
        assert_eq!(c.gemm, 3.0);
        assert_eq!(c.permutation, 3.0);
        c += a;
        assert_eq!(c.memory_access, 2.0);
        let s = c.scaled(0.5);
        assert_eq!(s.memory_access, 1.0);
        assert_eq!(s.gemm, 2.5);
    }
}
