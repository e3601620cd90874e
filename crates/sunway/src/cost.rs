//! Execution cost model.
//!
//! Turns per-kernel resource usage (flops, bytes moved by DMA / RMA / LDM
//! access, bytes of IO) into time on the modelled machine. DMA efficiency
//! depends on access granularity: discrete, small-stride accesses achieve a
//! tiny fraction of the peak bandwidth (the paper observed under 0.1% for
//! scattered elements and over 50% once the granularity reaches 512 bytes),
//! which is exactly why the fused design rearranges data with RMA before
//! touching main memory.

use crate::arch::SunwayArch;

/// Resource usage of one kernel execution on a core group.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCost {
    /// Floating point operations.
    pub flops: f64,
    /// Bytes moved between main memory and LDM by DMA.
    pub dma_bytes: f64,
    /// Granularity (bytes per contiguous DMA transfer); 0 means perfectly
    /// contiguous.
    pub dma_granularity: f64,
    /// Bytes exchanged between CPEs by RMA.
    pub rma_bytes: f64,
    /// Bytes of LDM traffic generated by permutations and kernel loads.
    pub ldm_bytes: f64,
    /// Bytes read from or written to disk.
    pub io_bytes: f64,
}

impl KernelCost {
    /// Sum of two kernel costs (granularity keeps the smaller non-zero one,
    /// pessimistically).
    pub fn combine(&self, other: &KernelCost) -> KernelCost {
        let gran = match (self.dma_granularity, other.dma_granularity) {
            (0.0, g) | (g, 0.0) => g,
            (a, b) => a.min(b),
        };
        KernelCost {
            flops: self.flops + other.flops,
            dma_bytes: self.dma_bytes + other.dma_bytes,
            dma_granularity: gran,
            rma_bytes: self.rma_bytes + other.rma_bytes,
            ldm_bytes: self.ldm_bytes + other.ldm_bytes,
            io_bytes: self.io_bytes + other.io_bytes,
        }
    }

    /// Arithmetic intensity against main-memory (DMA) traffic.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.dma_bytes <= 0.0 {
            f64::INFINITY
        } else {
            self.flops / self.dma_bytes
        }
    }
}

/// The analytic cost model for one core group of the modelled machine.
#[derive(Debug, Clone)]
pub struct CostModel {
    arch: SunwayArch,
    /// Fraction of peak flops the GEMM micro-kernel sustains on square-ish
    /// shapes (the paper's baseline achieves >70%).
    pub gemm_efficiency: f64,
}

impl CostModel {
    /// Cost model for the default architecture.
    pub fn new(arch: SunwayArch) -> Self {
        Self { arch, gemm_efficiency: 0.7 }
    }

    /// The architecture parameters.
    pub fn arch(&self) -> &SunwayArch {
        &self.arch
    }

    /// DMA bandwidth efficiency for a given transfer granularity in bytes.
    ///
    /// Modelled as `g / (g + 512)`: 512-byte transfers reach 50% of peak
    /// (the paper's figure) and scattered 8-byte accesses drop below 2%.
    fn dma_efficiency(&self, granularity_bytes: f64) -> f64 {
        if granularity_bytes <= 0.0 {
            return 1.0; // contiguous
        }
        granularity_bytes / (granularity_bytes + 512.0)
    }

    /// Time in seconds to execute a kernel with the given resource usage on
    /// one core group (64 CPEs cooperating).
    fn kernel_time(&self, cost: &KernelCost) -> f64 {
        let compute = cost.flops / (self.arch.peak_flops_per_cg * self.gemm_efficiency);
        let dma =
            cost.dma_bytes / (self.arch.dma_bandwidth * self.dma_efficiency(cost.dma_granularity));
        let rma = cost.rma_bytes / self.arch.rma_bandwidth;
        let ldm = cost.ldm_bytes / (self.arch.ldm_bandwidth * self.arch.cpes_per_cg as f64);
        let io = cost.io_bytes / self.arch.io_bandwidth;
        // Compute overlaps with neither DMA nor RMA in the step-by-step
        // design; we keep the pessimistic sum, which is also what the fused
        // executor accounts (its wins come from eliminating terms, not from
        // overlapping them).
        compute + dma + rma + ldm + io
    }

    /// Sustained flops/s of a kernel under this model.
    pub fn sustained_flops(&self, cost: &KernelCost) -> f64 {
        let t = self.kernel_time(cost);
        if t <= 0.0 {
            0.0
        } else {
            cost.flops / t
        }
    }

    /// Fraction of the peak the kernel sustains.
    pub fn efficiency(&self, cost: &KernelCost) -> f64 {
        self.sustained_flops(cost) / self.arch.peak_flops_per_cg
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::new(SunwayArch::sw26010pro())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn contiguous_dma_is_full_speed() {
        let m = model();
        assert_eq!(m.dma_efficiency(0.0), 1.0);
        assert!((m.dma_efficiency(512.0) - 0.5).abs() < 1e-12);
        assert!(m.dma_efficiency(8.0) < 0.02);
        assert!(m.dma_efficiency(64.0 * 1024.0) > 0.99);
    }

    #[test]
    fn compute_only_kernel_time() {
        let m = model();
        let cost = KernelCost { flops: m.arch.peak_flops_per_cg, ..Default::default() };
        let t = m.kernel_time(&cost);
        // One second of peak work at 70% efficiency takes ~1.43 s.
        assert!((t - 1.0 / 0.7).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_kernel_dominated_by_dma() {
        let m = model();
        let cost =
            KernelCost { flops: 1e9, dma_bytes: 10e9, dma_granularity: 0.0, ..Default::default() };
        let t = m.kernel_time(&cost);
        let dma_only = 10e9 / m.arch.dma_bandwidth;
        assert!(t >= dma_only);
        assert!(m.efficiency(&cost) < 0.01);
    }

    #[test]
    fn scattered_dma_is_catastrophic() {
        let m = model();
        let contiguous = KernelCost { dma_bytes: 1e9, dma_granularity: 0.0, ..Default::default() };
        let scattered = KernelCost { dma_bytes: 1e9, dma_granularity: 8.0, ..Default::default() };
        let speedup = m.kernel_time(&scattered) / m.kernel_time(&contiguous);
        assert!(speedup > 50.0, "scattered DMA only {speedup}x slower");
    }

    #[test]
    fn rma_rearrangement_is_cheaper_than_scattered_dma() {
        // The §5.3.2 strategy: move the same bytes contiguously by DMA plus
        // an RMA exchange, instead of scattered DMA.
        let m = model();
        let scattered = KernelCost { dma_bytes: 1e9, dma_granularity: 8.0, ..Default::default() };
        let cooperative = KernelCost {
            dma_bytes: 1e9,
            dma_granularity: 512.0,
            rma_bytes: 1e9,
            ..Default::default()
        };
        assert!(m.kernel_time(&cooperative) < m.kernel_time(&scattered) / 5.0);
    }

    #[test]
    fn combine_accumulates_and_keeps_worst_granularity() {
        let a =
            KernelCost { flops: 1.0, dma_bytes: 2.0, dma_granularity: 512.0, ..Default::default() };
        let b =
            KernelCost { flops: 3.0, dma_bytes: 4.0, dma_granularity: 64.0, ..Default::default() };
        let c = a.combine(&b);
        assert_eq!(c.flops, 4.0);
        assert_eq!(c.dma_bytes, 6.0);
        assert_eq!(c.dma_granularity, 64.0);
        let d = a.combine(&KernelCost::default());
        assert_eq!(d.dma_granularity, 512.0);
    }

    #[test]
    fn sustained_flops_bounded_by_roofline() {
        let m = model();
        let cost = KernelCost { flops: 1e12, dma_bytes: 1e9, ..Default::default() };
        let sustained = m.sustained_flops(&cost);
        let roof = crate::roofline::Roofline::for_cg(m.arch());
        assert!(sustained <= roof.peak_flops * 1.0001);
    }

    #[test]
    fn arithmetic_intensity_helper() {
        let cost = KernelCost { flops: 100.0, dma_bytes: 10.0, ..Default::default() };
        assert_eq!(cost.arithmetic_intensity(), 10.0);
        let free = KernelCost { flops: 100.0, ..Default::default() };
        assert!(free.arithmetic_intensity().is_infinite());
    }
}
