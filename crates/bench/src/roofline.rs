//! Roofline model (Fig. 13 of the paper).
//!
//! Attainable performance is bounded by `min(peak, AI × bandwidth)` where AI
//! is the arithmetic intensity (flops per byte of main-memory traffic). The
//! paper reports that the step-by-step strategy sits at AI ≈ 1.22 (single
//! precision) / 2.6 (mixed precision), far to the left of the ridge point of
//! 42.3, while the fused design raises AI to 10–40× and in some cases crosses
//! the ridge into the compute-bound region.

use crate::arch::SunwayArch;

/// A roofline for one core group.
#[derive(Debug, Clone)]
pub struct Roofline {
    /// Peak floating point rate, flops/s.
    pub peak_flops: f64,
    /// Memory bandwidth of the bounding channel, bytes/s.
    pub bandwidth: f64,
}

impl Roofline {
    /// The roofline of a core group against the DMA channel.
    pub fn for_cg(arch: &SunwayArch) -> Self {
        Self { peak_flops: arch.peak_flops_per_cg, bandwidth: arch.dma_bandwidth }
    }

    /// Arithmetic intensity (flops/byte) above which the kernel is
    /// compute-bound (the ridge point).
    pub fn ridge_point(&self) -> f64 {
        self.peak_flops / self.bandwidth
    }

    /// Attainable performance (flops/s) at a given arithmetic intensity.
    pub fn attainable(&self, arithmetic_intensity: f64) -> f64 {
        (arithmetic_intensity * self.bandwidth).min(self.peak_flops)
    }

    /// Whether a kernel with this arithmetic intensity is compute-bound.
    pub fn is_compute_bound(&self, arithmetic_intensity: f64) -> bool {
        arithmetic_intensity >= self.ridge_point()
    }
}

/// Arithmetic intensity of a kernel given its flop count and the bytes it
/// moves across the bounding channel.
pub fn arithmetic_intensity(flops: f64, bytes: f64) -> f64 {
    if bytes <= 0.0 {
        f64::INFINITY
    } else {
        flops / bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roofline() -> Roofline {
        Roofline::for_cg(&SunwayArch::sw26010pro())
    }

    #[test]
    fn ridge_point_matches_paper() {
        assert!((roofline().ridge_point() - 42.3).abs() < 1e-9);
    }

    #[test]
    fn attainable_is_bandwidth_bound_below_ridge() {
        let r = roofline();
        let ai = 2.0;
        assert!((r.attainable(ai) - ai * r.bandwidth).abs() < 1.0);
        assert!(!r.is_compute_bound(ai));
    }

    #[test]
    fn attainable_saturates_at_peak_above_ridge() {
        let r = roofline();
        assert_eq!(r.attainable(100.0), r.peak_flops);
        assert!(r.is_compute_bound(100.0));
    }

    #[test]
    fn zero_bytes_is_infinite_intensity() {
        assert!(arithmetic_intensity(100.0, 0.0).is_infinite());
    }
}
