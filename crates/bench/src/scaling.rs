//! Strong/weak scaling model and full-system projection (Fig. 11, §6.2).
//!
//! Slicing makes the subtasks embarrassingly parallel: every process works
//! through its share of the `2^|S|` slice assignments independently and the
//! only communication is a single allReduce of the (small) result at the end.
//! The paper measures 1024 nodes and projects the full 107,520-node system
//! from the per-node throughput; this module implements exactly that model so
//! the benchmark harness can regenerate the scaling curves and the headline
//! 96.1 s / 308.6 Pflops projection.

use crate::arch::SunwayArch;

/// One point of a scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Number of nodes (or workers).
    pub nodes: usize,
    /// Total subtasks executed.
    pub subtasks: usize,
    /// Wall-clock time in seconds.
    pub time: f64,
    /// Parallel efficiency relative to one node (1.0 = ideal).
    pub efficiency: f64,
    /// Speedup relative to one node.
    pub speedup: f64,
}

/// Analytic scaling model.
#[derive(Debug, Clone)]
pub struct ScalingModel {
    /// Time to execute one subtask on one node, in seconds.
    pub subtask_time: f64,
    /// Result size reduced at the end, in bytes.
    pub reduce_bytes: f64,
    /// Per-message latency of the reduction, in seconds.
    pub reduce_latency: f64,
    /// Interconnect bandwidth per node for the reduction, bytes/s.
    pub network_bandwidth: f64,
}

impl ScalingModel {
    /// A model with the reduction parameters used for the Sunway runs: the
    /// reduced object is the batch of correlated amplitudes (a few MB), and
    /// the tree allReduce pays a logarithmic latency term.
    pub fn new(subtask_time: f64, reduce_bytes: f64) -> Self {
        Self { subtask_time, reduce_bytes, reduce_latency: 5e-6, network_bandwidth: 10e9 }
    }

    /// Time of the final allReduce across `nodes` nodes.
    fn allreduce_time(&self, nodes: usize) -> f64 {
        if nodes <= 1 {
            return 0.0;
        }
        let rounds = (nodes as f64).log2().ceil();
        rounds * (self.reduce_latency + self.reduce_bytes / self.network_bandwidth)
    }

    /// Wall-clock time to run `subtasks` subtasks on `nodes` nodes (strong
    /// scaling: fixed total work). The count is an `f64` so a sweep of
    /// `2^|S|` subtasks needs no integer that could overflow.
    pub fn strong_time(&self, subtasks: f64, nodes: usize) -> f64 {
        let per_node = (subtasks / nodes as f64).ceil();
        per_node * self.subtask_time + self.allreduce_time(nodes)
    }

    /// Strong-scaling curve for a fixed subtask count over the given node
    /// counts.
    pub fn strong_scaling(&self, subtasks: usize, node_counts: &[usize]) -> Vec<ScalingPoint> {
        let t1 = self.strong_time(subtasks as f64, 1);
        node_counts
            .iter()
            .map(|&n| {
                let t = self.strong_time(subtasks as f64, n);
                let speedup = t1 / t;
                ScalingPoint {
                    nodes: n,
                    subtasks,
                    time: t,
                    speedup,
                    efficiency: speedup / n as f64,
                }
            })
            .collect()
    }

    /// Weak-scaling curve: every node keeps `subtasks_per_node` subtasks.
    pub fn weak_scaling(
        &self,
        subtasks_per_node: usize,
        node_counts: &[usize],
    ) -> Vec<ScalingPoint> {
        let t1 = self.strong_time(subtasks_per_node as f64, 1);
        node_counts
            .iter()
            .map(|&n| {
                let subtasks = subtasks_per_node * n;
                let t = self.strong_time(subtasks as f64, n);
                // Weak-scaling efficiency: ideal time is constant.
                let efficiency = t1 / t;
                ScalingPoint {
                    nodes: n,
                    subtasks,
                    time: t,
                    speedup: efficiency * n as f64,
                    efficiency,
                }
            })
            .collect()
    }
}

/// Full-system projection (§6.2 of the paper).
#[derive(Debug, Clone, Copy)]
pub struct Projection {
    /// Projected wall-clock time, seconds.
    pub time: f64,
    /// Projected sustained flops/s across the whole machine.
    pub sustained_flops: f64,
}

/// Project a measured run to the full system, the way the paper projects its
/// 1024-node measurement (10,098.5 s) to 107,520 nodes (96.1 s, 308.6 Pflops).
///
/// `measured_time` is the wall time using `measured_nodes` nodes;
/// `total_flops` is the floating point work of the whole job.
pub fn project_full_system(
    arch: &SunwayArch,
    measured_time: f64,
    measured_nodes: usize,
    total_flops: f64,
) -> Projection {
    let scale = arch.projection_nodes as f64 / measured_nodes as f64;
    let time = measured_time / scale;
    Projection { time, sustained_flops: total_flops / time }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_scaling_is_monotone_and_saturates() {
        let m = ScalingModel::new(0.15, 8.0 * (1 << 20) as f64);
        let nodes = [1, 2, 4, 8, 16, 64, 256, 1024];
        let pts = m.strong_scaling(65_536, &nodes);
        for w in pts.windows(2) {
            assert!(w[1].time <= w[0].time + 1e-12, "strong scaling time increased");
        }
        // Near-ideal at small scale, degrading as the reduce term matters.
        assert!(pts[1].efficiency > 0.95);
        assert!(pts.last().unwrap().efficiency <= 1.0 + 1e-9);
    }

    #[test]
    fn strong_scaling_efficiency_above_90_percent_at_1024_nodes() {
        // The paper's Fig. 11 shows close-to-linear strong scaling for 65,536
        // subtasks; the model must reproduce that shape.
        let m = ScalingModel::new(0.15, 8.0 * (1 << 20) as f64);
        let pts = m.strong_scaling(65_536, &[1024]);
        assert!(pts[0].efficiency > 0.9, "efficiency {}", pts[0].efficiency);
    }

    #[test]
    fn weak_scaling_time_roughly_constant() {
        let m = ScalingModel::new(0.15, 8.0 * (1 << 20) as f64);
        let nodes = [1, 4, 16, 64, 256, 1024];
        let pts = m.weak_scaling(16, &nodes);
        let t0 = pts[0].time;
        for p in &pts {
            assert!(p.time >= t0);
            assert!(p.time < t0 * 1.2, "weak scaling degraded: {} vs {}", p.time, t0);
        }
    }

    #[test]
    fn allreduce_grows_logarithmically() {
        let m = ScalingModel::new(1.0, (1u64 << 20) as f64);
        assert_eq!(m.allreduce_time(1), 0.0);
        let t2 = m.allreduce_time(2);
        let t1024 = m.allreduce_time(1024);
        assert!(t1024 < t2 * 11.0);
        assert!(t1024 > t2 * 9.0);
    }

    #[test]
    fn projection_reproduces_paper_arithmetic() {
        // Paper: 10,098.5 s on 1024 nodes -> 96.1 s on 107,520 nodes.
        let arch = SunwayArch::sw26010pro();
        let proj = project_full_system(&arch, 10_098.5, 1024, 308.6e15 * 96.1);
        assert!((proj.time - 96.17).abs() < 0.2, "projected time {}", proj.time);
        assert!((proj.sustained_flops / 1e15 - 308.6).abs() < 2.0);
    }

    #[test]
    fn imperfect_division_rounds_up() {
        let m = ScalingModel::new(1.0, 0.0);
        // 10 subtasks on 4 nodes -> 3 per node.
        assert!((m.strong_time(10.0, 4) - (3.0 + m.allreduce_time(4))).abs() < 1e-12);
    }
}
