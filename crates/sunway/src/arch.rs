//! SW26010pro architectural parameters.

/// Parameters of one Sunway SW26010pro processor and the surrounding system,
/// as described in §2.2 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct SunwayArch {
    /// Core groups per processor chip.
    pub cgs_per_chip: usize,
    /// Compute processing elements per core group (8×8 grid).
    pub cpes_per_cg: usize,
    /// Main memory per core group, in bytes (16 GB).
    pub main_memory_per_cg: u64,
    /// Local data memory per CPE, in bytes (256 KB).
    pub ldm_per_cpe: u64,
    /// DMA bandwidth between main memory and LDM, bytes/s (51.2 GB/s).
    pub dma_bandwidth: f64,
    /// Peak RMA bandwidth between CPEs of one CG, bytes/s (800 GB/s).
    pub rma_bandwidth: f64,
    /// Effective LDM access bandwidth per CPE, bytes/s.
    pub ldm_bandwidth: f64,
    /// I/O (disk) bandwidth per node, bytes/s.
    pub io_bandwidth: f64,
    /// Peak single-precision floating point rate per CG, flops/s. Chosen so
    /// that the roofline ridge point is the paper's 42.3 flops/byte against
    /// the DMA bandwidth.
    pub peak_flops_per_cg: f64,
    /// Number of nodes in the full-system projection (the paper projects to
    /// 107,520 nodes / 41,932,800 cores).
    pub projection_nodes: usize,
}

impl SunwayArch {
    /// The configuration used throughout the paper.
    pub fn sw26010pro() -> Self {
        let dma_bandwidth = 51.2e9;
        Self {
            cgs_per_chip: 6,
            cpes_per_cg: 64,
            main_memory_per_cg: 16 * (1 << 30),
            ldm_per_cpe: 256 * 1024,
            dma_bandwidth,
            rma_bandwidth: 800.0e9,
            ldm_bandwidth: 1.0e12,
            io_bandwidth: 2.0e9,
            // Ridge point of 42.3 flops/byte (paper §6.2) against DMA.
            peak_flops_per_cg: 42.3 * dma_bandwidth,
            projection_nodes: 107_520,
        }
    }

    /// The united cross-CG main memory of one chip used to hold large
    /// tensors (the paper unites the 6 CG memories into a 96 GB dump).
    pub fn united_main_memory(&self) -> u64 {
        self.main_memory_per_cg * self.cgs_per_chip as u64
    }

    /// Largest tensor rank (number of qubit indices) whose single-precision
    /// complex data fits in the LDM of one CPE. 256 KB / 8 bytes = 32 Ki
    /// elements = 2^15; the paper reserves part of the LDM for buffers and
    /// quotes rank 13.
    pub fn max_ldm_rank(&self) -> usize {
        let elements = self.ldm_per_cpe / 8; // complex<f32> = 8 bytes
                                             // Reserve three quarters of the LDM for double buffers, maps and the
                                             // output tile, as the fused kernel does, leaving 2^13 elements.
        ((elements / 4) as f64).log2().floor() as usize
    }

    /// Largest tensor rank whose single-precision complex data fits in the
    /// united main memory of a chip (the paper's rank-30 slices at process
    /// level fit comfortably).
    pub fn max_main_memory_rank(&self) -> usize {
        ((self.united_main_memory() / 8) as f64).log2().floor() as usize
    }

    /// Peak flops of one full node (chip).
    pub fn peak_flops_per_node(&self) -> f64 {
        self.peak_flops_per_cg * self.cgs_per_chip as f64
    }
}

impl Default for SunwayArch {
    fn default() -> Self {
        Self::sw26010pro()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_parameters() {
        let a = SunwayArch::sw26010pro();
        assert_eq!(a.cgs_per_chip, 6);
        assert_eq!(a.cpes_per_cg, 64);
        assert_eq!(a.ldm_per_cpe, 262_144);
        assert_eq!(a.main_memory_per_cg, 17_179_869_184);
        assert_eq!(a.united_main_memory(), 6 * 17_179_869_184);
        assert!((a.dma_bandwidth - 51.2e9).abs() < 1.0);
        assert!((a.rma_bandwidth - 800e9).abs() < 1.0);
    }

    #[test]
    fn ldm_holds_rank_13_tensor() {
        let a = SunwayArch::sw26010pro();
        assert_eq!(a.max_ldm_rank(), 13);
    }

    #[test]
    fn main_memory_holds_rank_30_tensor() {
        let a = SunwayArch::sw26010pro();
        assert!(a.max_main_memory_rank() >= 30);
        assert!(a.max_main_memory_rank() < 40);
    }

    #[test]
    fn ridge_point_is_42_3() {
        let a = SunwayArch::sw26010pro();
        let ridge = a.peak_flops_per_cg / a.dma_bandwidth;
        assert!((ridge - 42.3).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_hierarchy_ordering() {
        // The §3.3 premise: BW_IO << BW_DMA << BW_LDM.
        let a = SunwayArch::sw26010pro();
        assert!(a.io_bandwidth < a.dma_bandwidth / 10.0);
        assert!(a.dma_bandwidth < a.ldm_bandwidth / 10.0);
        assert!(a.dma_bandwidth < a.rma_bandwidth);
    }
}
