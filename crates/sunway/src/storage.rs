//! Multi-level storage model and the slicing-vs-stacking discriminant (§3.3).
//!
//! Slicing works between every two adjacent manually-controllable levels of a
//! multi-level storage system. On Sunway the levels are the hard disk, the
//! main memory and the LDM. Whether to *slice* (recompute, no data movement)
//! or to *stack* (move data, no recomputation) across a boundary depends on
//! the bandwidth of the boundary relative to the cost of the redundant
//! computation: low bandwidth and low overhead favour slicing, high bandwidth
//! and high overhead favour stacking.

use crate::arch::SunwayArch;

/// A manually controllable storage level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageLevel {
    /// Hard disk / parallel file system.
    Disk,
    /// Main memory of a core group (united across the chip for big tensors).
    MainMemory,
    /// The 256 KB local data memory of a CPE.
    Ldm,
}

/// The memory hierarchy: capacities and the bandwidth of the boundary
/// *below* each level (the channel used to fill it from the next level down).
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    arch: SunwayArch,
}

impl MemoryHierarchy {
    /// Build the hierarchy for an architecture description.
    pub fn new(arch: SunwayArch) -> Self {
        Self { arch }
    }

    /// Capacity of a level in bytes (per chip for disk/main memory, per CPE
    /// for LDM). Disk is modelled as effectively unbounded.
    pub fn capacity(&self, level: StorageLevel) -> u64 {
        match level {
            StorageLevel::Disk => u64::MAX,
            StorageLevel::MainMemory => self.arch.united_main_memory(),
            StorageLevel::Ldm => self.arch.ldm_per_cpe,
        }
    }

    /// Largest tensor rank (single-precision complex elements) that fits in
    /// a level.
    pub fn max_rank(&self, level: StorageLevel) -> usize {
        match level {
            StorageLevel::Disk => 53, // bounded by the circuit, not storage
            StorageLevel::MainMemory => self.arch.max_main_memory_rank(),
            StorageLevel::Ldm => self.arch.max_ldm_rank(),
        }
    }

    /// Bandwidth (bytes/s) of the channel that feeds a level from the level
    /// below it: IO for main memory from disk, DMA for LDM from main memory.
    /// For the disk itself this returns the IO bandwidth.
    fn fill_bandwidth(&self, level: StorageLevel) -> f64 {
        match level {
            StorageLevel::Disk | StorageLevel::MainMemory => self.arch.io_bandwidth,
            StorageLevel::Ldm => self.arch.dma_bandwidth,
        }
    }

    /// Equal-overhead line of Fig. 7: the overhead ratio at which slicing and
    /// stacking break even for a subtask of the given size (bytes moved per
    /// unit of original computation time).
    pub fn breakeven_overhead(&self, level: StorageLevel, bytes_per_flop: f64) -> f64 {
        // Slicing multiplies compute time by `overhead`; stacking adds
        // bytes/bandwidth. They break even when
        //   (overhead - 1) / peak_flops = bytes_per_flop / bandwidth.
        1.0 + bytes_per_flop * self.arch.peak_flops_per_cg / self.fill_bandwidth(level)
    }
}

impl Default for MemoryHierarchy {
    fn default() -> Self {
        Self::new(SunwayArch::sw26010pro())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_are_ordered() {
        let h = MemoryHierarchy::default();
        assert!(h.capacity(StorageLevel::Ldm) < h.capacity(StorageLevel::MainMemory));
        assert!(h.capacity(StorageLevel::MainMemory) < h.capacity(StorageLevel::Disk));
    }

    #[test]
    fn max_ranks_match_arch() {
        let h = MemoryHierarchy::default();
        assert_eq!(h.max_rank(StorageLevel::Ldm), 13);
        assert!(h.max_rank(StorageLevel::MainMemory) >= 30);
        assert_eq!(h.max_rank(StorageLevel::Disk), 53);
    }

    #[test]
    fn breakeven_is_higher_for_slower_channels() {
        let h = MemoryHierarchy::default();
        let bpf = 0.1;
        let io = h.breakeven_overhead(StorageLevel::MainMemory, bpf);
        let dma = h.breakeven_overhead(StorageLevel::Ldm, bpf);
        assert!(io > dma, "slow IO must tolerate more slicing overhead ({io} vs {dma})");
        assert!(dma > 1.0);
    }
}
