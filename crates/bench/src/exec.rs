//! The two thread-level executors: step-by-step (baseline) and fused.
//!
//! Both executors produce the exact same numeric result for a stem segment —
//! the fused one is a reorganisation of the computation, not an
//! approximation — but they move very different amounts of data through the
//! modelled memory hierarchy:
//!
//! * the **step-by-step** executor (previous Sunway work, §5.1) round-trips
//!   the running stem tensor between main memory and the LDM at every
//!   contraction step;
//! * the **fused** executor (§5.2) plans secondary slicing, keeps an
//!   LDM-sized working slice resident across a whole fused group, and only
//!   touches main memory at group boundaries, with the final DMA-put playing
//!   the role of the stacking step (no slicing overhead).
//!
//! The accounted time breakdown (memory access / permutation / GEMM) is what
//! the Fig. 12 benchmark prints.

use crate::arch::SunwayArch;
use crate::roofline::arithmetic_intensity;
use crate::secondary::{plan_secondary_slicing, SecondaryPlan};
use crate::segment::StemSegment;
use crate::timebreak::TimeBreakdown;
use qtn_tensor::{contract_pair, Complex64, ContractionSpec, DenseTensor, IndexId, IndexSet};

/// Size of one amplitude in bytes (single-precision complex, as used for the
/// paper's performance numbers).
const ELEM_BYTES: f64 = 8.0;

/// What an executor did, in machine-model terms.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Accounted time per phase on one core group.
    pub time: TimeBreakdown,
    /// Real floating point operations performed.
    pub flops: u64,
    /// Arithmetic intensity against main-memory traffic.
    pub arithmetic_intensity: f64,
}

fn tensor_bytes(t: &DenseTensor<Complex64>) -> f64 {
    t.len() as f64 * ELEM_BYTES
}

fn finish_report(
    arch: &SunwayArch,
    mut time: TimeBreakdown,
    flops: u64,
    dma_bytes: f64,
) -> ExecutionReport {
    time.gemm = flops as f64 / (arch.peak_flops_per_cg * arch.gemm_efficiency);
    ExecutionReport {
        time,
        flops,
        arithmetic_intensity: arithmetic_intensity(flops as f64, dma_bytes),
    }
}

/// Permutation traffic of one pairwise contraction: both operands and the
/// result are re-laid-out once in LDM (read + write).
fn permutation_bytes(spec: &ContractionSpec) -> f64 {
    let (m, n, k) = spec.gemm_shape();
    2.0 * ELEM_BYTES * (m * k + k * n + m * n) as f64
}

/// Execute a segment step by step: every contraction round-trips the running
/// stem tensor (and reads the branch) through DMA.
pub fn execute_step_by_step(
    segment: &StemSegment,
    arch: &SunwayArch,
) -> (DenseTensor<Complex64>, ExecutionReport) {
    let mut time = TimeBreakdown::default();
    let mut flops = 0u64;
    let mut dma_bytes = 0.0;

    let mut current = segment.start.clone();
    for branch in &segment.branches {
        let spec = ContractionSpec::new(current.indices(), branch.indices());
        // DMA: read both operands, write the result.
        let result = contract_pair(&current, branch);
        let step_dma = tensor_bytes(&current) + tensor_bytes(branch) + tensor_bytes(&result);
        dma_bytes += step_dma;
        time.memory_access += step_dma / arch.dma_bandwidth;
        // Permutation inside the LDM.
        let perm = permutation_bytes(&spec);
        time.permutation += perm / arch.ldm_bandwidth;
        flops += spec.flops();
        current = result;
    }
    let report = finish_report(arch, time, flops, dma_bytes);
    (current, report)
}

/// Execute a segment with the fused design: secondary slicing keeps an
/// LDM-resident working set across each fused group.
///
/// `ldm_rank` bounds the rank of the LDM-resident working tensor (13 on the
/// SW26010pro). The numeric result is identical to
/// [`execute_step_by_step`]'s.
pub fn execute_fused(
    segment: &StemSegment,
    arch: &SunwayArch,
    ldm_rank: usize,
) -> (DenseTensor<Complex64>, ExecutionReport, SecondaryPlan) {
    let stem_sets = segment.stem_index_sets();
    let branch_sets: Vec<IndexSet> = segment.branches.iter().map(|b| b.indices().clone()).collect();
    let plan = plan_secondary_slicing(&stem_sets, &branch_sets, ldm_rank);

    let mut time = TimeBreakdown::default();
    let mut flops = 0u64;
    let mut dma_bytes = 0.0;

    let mut current = segment.start.clone();
    for group in &plan.groups {
        let branches = &segment.branches[group.first_step..group.last_step];
        // One DMA-get of the stem tensor and the group's branches, one
        // DMA-put of the group result. The secondary-sliced gather is made
        // contiguous by CPE cooperation: the data crosses the RMA network
        // once for the rearrangement (§5.3.2).
        let group_result_indices = {
            let mut cur = current.indices().clone();
            for b in branches {
                cur = cur.contract_output(b.indices());
            }
            cur
        };
        let stem_in = tensor_bytes(&current);
        let branch_in: f64 = branches.iter().map(tensor_bytes).sum();
        let stem_out = ELEM_BYTES * (1u64 << group_result_indices.rank()) as f64;
        let group_dma = stem_in + branch_in + stem_out;
        dma_bytes += group_dma;
        time.memory_access += group_dma / arch.dma_bandwidth;
        time.rma += (stem_in + stem_out) / arch.rma_bandwidth;

        // Execute the 2^s secondary subtasks; each works on an LDM-sized
        // slice of the running stem tensor and absorbs whole branches.
        if group.sliced.is_empty() {
            for branch in branches {
                let spec = ContractionSpec::new(current.indices(), branch.indices());
                flops += spec.flops();
                time.permutation += permutation_bytes(&spec) / arch.ldm_bandwidth;
                current = contract_pair(&current, branch);
            }
        } else {
            let mut output = DenseTensor::<Complex64>::zeros(group_result_indices.clone());
            let num_subtasks = 1usize << group.sliced.len();
            for assignment in 0..num_subtasks {
                // Slice the running stem tensor on the secondary indices.
                let mut working = current.clone();
                for (pos, &e) in group.sliced.iter().enumerate() {
                    let bit = ((assignment >> pos) & 1) as u8;
                    working = working.slice_index(e, bit);
                }
                for branch in branches {
                    let spec = ContractionSpec::new(working.indices(), branch.indices());
                    flops += spec.flops();
                    time.permutation += permutation_bytes(&spec) / arch.ldm_bandwidth;
                    working = contract_pair(&working, branch);
                }
                // Stack the subtask result back into the group output.
                stack_subtask(&mut output, &working, &group.sliced, assignment);
            }
            current = output;
        }
    }

    let report = finish_report(arch, time, flops, dma_bytes);
    (current, report, plan)
}

/// Write a subtask result (missing the sliced indices) into the full group
/// output at the position given by `assignment` (bit `pos` of the assignment
/// is the value of `sliced[pos]`).
fn stack_subtask(
    output: &mut DenseTensor<Complex64>,
    subtask: &DenseTensor<Complex64>,
    sliced: &[IndexId],
    assignment: usize,
) {
    let out_indices = output.indices().clone();
    let out_rank = out_indices.rank();
    // Positions (axis, bit) of the sliced indices in the output.
    let fixed: Vec<(usize, u8)> = sliced
        .iter()
        .enumerate()
        .map(|(pos, &e)| {
            let axis = out_indices.position(e).expect("sliced index missing from output");
            (axis, ((assignment >> pos) & 1) as u8)
        })
        .collect();
    // Axes of the output that come from the subtask tensor, in subtask order.
    let sub_axes: Vec<usize> = subtask
        .indices()
        .iter()
        .map(|e| out_indices.position(e).expect("subtask index missing from output"))
        .collect();
    let sub_rank = sub_axes.len();
    let out_data = output.data_mut();
    for (i, &v) in subtask.data().iter().enumerate() {
        let mut off = 0usize;
        for (pos, &axis) in sub_axes.iter().enumerate() {
            let bit = (i >> (sub_rank - 1 - pos)) & 1;
            off |= bit << (out_rank - 1 - axis);
        }
        for &(axis, bit) in &fixed {
            off |= (bit as usize) << (out_rank - 1 - axis);
        }
        out_data[off] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::random_segment;
    use qtn_tensor::permute::permute_to_order;

    fn arch() -> SunwayArch {
        SunwayArch::sw26010pro()
    }

    fn assert_tensors_close(a: &DenseTensor<Complex64>, b: &DenseTensor<Complex64>) {
        let b = permute_to_order(b, a.indices());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!((*x - *y).abs() < 1e-9, "mismatch {x:?} vs {y:?}");
        }
    }

    fn reference_result(segment: &StemSegment) -> DenseTensor<Complex64> {
        let mut current = segment.start.clone();
        for b in &segment.branches {
            current = contract_pair(&current, b);
        }
        current
    }

    #[test]
    fn step_by_step_matches_reference() {
        let seg = random_segment(11, 10, 6, 2, 2);
        let (result, report) = execute_step_by_step(&seg, &arch());
        assert_tensors_close(&reference_result(&seg), &result);
        let (_, fused, _) = execute_fused(&seg, &arch(), 13);
        assert!(report.flops > 0);
        assert_eq!(report.flops, fused.flops);
        assert!(report.arithmetic_intensity.is_finite());
    }

    #[test]
    fn fused_matches_step_by_step_when_slicing_needed() {
        // Stem rank 16 with LDM rank 13 forces secondary slicing.
        let seg = random_segment(12, 16, 8, 2, 2);
        let (a, step) = execute_step_by_step(&seg, &arch());
        let (b, report, plan) = execute_fused(&seg, &arch(), 13);
        assert_tensors_close(&a, &b);
        assert!(plan.groups.iter().any(|g| !g.sliced.is_empty()));
        assert_eq!(report.flops, step.flops);
    }

    #[test]
    fn fused_matches_when_everything_fits_ldm() {
        let seg = random_segment(13, 9, 5, 2, 2);
        let (a, _) = execute_step_by_step(&seg, &arch());
        let (b, _, plan) = execute_fused(&seg, &arch(), 13);
        assert_tensors_close(&a, &b);
        assert_eq!(plan.groups.len(), 1);
    }

    #[test]
    fn fused_reduces_memory_traffic() {
        let seg = random_segment(14, 14, 10, 2, 2);
        let (_, step) = execute_step_by_step(&seg, &arch());
        let (_, fused, plan) = execute_fused(&seg, &arch(), 13);
        assert!(
            fused.time.memory_access < step.time.memory_access,
            "fused {} vs step {} s of memory access",
            fused.time.memory_access,
            step.time.memory_access
        );
        // One stem round trip per fused group instead of one per step.
        assert!(plan.groups.len() < seg.branches.len());
        // GEMM work is identical.
        assert_eq!(fused.flops, step.flops);
    }

    #[test]
    fn fused_raises_arithmetic_intensity() {
        let seg = random_segment(15, 14, 10, 2, 2);
        let (_, step) = execute_step_by_step(&seg, &arch());
        let (_, fused, _) = execute_fused(&seg, &arch(), 13);
        assert!(
            fused.arithmetic_intensity > step.arithmetic_intensity,
            "AI did not improve: {} vs {}",
            fused.arithmetic_intensity,
            step.arithmetic_intensity
        );
        // Same flops in less time: fused sustains a larger share of peak.
        assert!(fused.time.total() <= step.time.total());
    }

    #[test]
    fn growing_and_shrinking_segments_are_handled() {
        for (seed, absorb, emit) in [(16u64, 1usize, 2usize), (17, 2, 1), (18, 3, 2)] {
            let seg = random_segment(seed, 12, 6, absorb, emit);
            let (a, _) = execute_step_by_step(&seg, &arch());
            let (b, _, _) = execute_fused(&seg, &arch(), 13);
            assert_tensors_close(&a, &b);
        }
    }

    #[test]
    fn report_time_components_are_positive() {
        let seg = random_segment(19, 12, 6, 2, 2);
        let (_, report) = execute_step_by_step(&seg, &arch());
        assert!(report.time.memory_access > 0.0);
        assert!(report.time.permutation > 0.0);
        assert!(report.time.gemm > 0.0);
        assert!(report.time.total() > 0.0);
        let achieved = report.flops as f64 / report.time.total();
        assert!(achieved > 0.0 && achieved <= arch().peak_flops_per_cg);
    }
}
