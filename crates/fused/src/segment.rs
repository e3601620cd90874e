//! Concrete stem segments: the numeric counterpart of a run of stem steps.
//!
//! A [`StemSegment`] is a starting stem tensor plus the ordered branch
//! tensors it absorbs. The two thread-level executors (fused and
//! step-by-step) both consume segments and must produce identical results;
//! only their accounted data movement differs.

use qtn_tensor::{c64, Complex64, DenseTensor, IndexId, IndexSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A stem segment with concrete tensor data.
#[derive(Debug, Clone)]
pub struct StemSegment {
    /// The running stem tensor at the start of the segment.
    pub start: DenseTensor<Complex64>,
    /// Branch tensors absorbed one per step, in order.
    pub branches: Vec<DenseTensor<Complex64>>,
}

impl StemSegment {
    /// Number of contraction steps in the segment.
    pub fn len(&self) -> usize {
        self.branches.len()
    }

    /// True if the segment has no steps.
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// Index sets of the running stem tensor before each step and after the
    /// last one (length `len() + 1`).
    pub fn stem_index_sets(&self) -> Vec<IndexSet> {
        let mut out = vec![self.start.indices().clone()];
        let mut current = self.start.indices().clone();
        for b in &self.branches {
            current = current.contract_output(b.indices());
            out.push(current.clone());
        }
        out
    }

    /// Total real flops of the segment when executed as pairwise
    /// contractions.
    pub fn total_flops(&self) -> u64 {
        let mut flops = 0u64;
        let mut current = self.start.indices().clone();
        for b in &self.branches {
            let spec = qtn_tensor::ContractionSpec::new(&current, b.indices());
            flops += spec.flops();
            current = spec.output;
        }
        flops
    }
}

/// Generate a random stem segment for tests and benchmarks.
///
/// The running stem tensor starts at `start_rank`; each of the `steps`
/// branches shares `absorb` indices with the running stem (contracting them
/// away) and introduces `emit` fresh indices, so the stem rank changes by
/// `emit − absorb` per step. All amplitudes are uniform in `[-1, 1]²`.
pub fn random_segment(
    seed: u64,
    start_rank: usize,
    steps: usize,
    absorb: usize,
    emit: usize,
) -> StemSegment {
    assert!(absorb >= 1, "each branch must share at least one index");
    assert!(start_rank >= absorb, "start rank too small for the absorb count");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_index: IndexId = 0;
    let fresh = |n: usize, next_index: &mut IndexId| -> Vec<IndexId> {
        let v: Vec<IndexId> = (0..n).map(|i| *next_index + i as IndexId).collect();
        *next_index += n as IndexId;
        v
    };
    let random_tensor = |rng: &mut StdRng, idx: IndexSet| {
        let data = (0..idx.len())
            .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        DenseTensor::from_data(idx, data)
    };

    let start_axes = fresh(start_rank, &mut next_index);
    let start = random_tensor(&mut rng, IndexSet::new(start_axes.clone()));

    let mut current = start_axes;
    let mut branches = Vec::with_capacity(steps);
    for _ in 0..steps {
        // Choose `absorb` indices of the current stem tensor to contract.
        let mut picks = current.clone();
        // Deterministic shuffle via the rng.
        for i in (1..picks.len()).rev() {
            let j = rng.gen_range(0..=i);
            picks.swap(i, j);
        }
        let absorbed: Vec<IndexId> = picks.into_iter().take(absorb).collect();
        let emitted = fresh(emit, &mut next_index);
        let mut branch_axes = absorbed.clone();
        branch_axes.extend(emitted.iter().copied());
        branches.push(random_tensor(&mut rng, IndexSet::new(branch_axes)));
        current.retain(|e| !absorbed.contains(e));
        current.extend(emitted);
    }
    StemSegment { start, branches }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_segment_has_requested_shape() {
        let seg = random_segment(1, 10, 5, 2, 2);
        assert_eq!(seg.len(), 5);
        assert_eq!(seg.start.rank(), 10);
        // Constant rank: absorb == emit.
        for s in seg.stem_index_sets() {
            assert_eq!(s.rank(), 10);
        }
    }

    #[test]
    fn growing_segment() {
        let seg = random_segment(2, 8, 4, 1, 2);
        let sets = seg.stem_index_sets();
        assert_eq!(sets.first().unwrap().rank(), 8);
        assert_eq!(sets.last().unwrap().rank(), 8 + 4);
    }

    #[test]
    fn shrinking_segment() {
        let seg = random_segment(3, 10, 3, 2, 1);
        assert_eq!(seg.stem_index_sets().last().unwrap().rank(), 7);
    }

    #[test]
    fn flops_accounting_positive_and_deterministic() {
        let a = random_segment(4, 9, 4, 2, 2);
        let b = random_segment(4, 9, 4, 2, 2);
        assert_eq!(a.total_flops(), b.total_flops());
        assert!(a.total_flops() > 0);
    }

    #[test]
    fn branches_share_indices_with_stem() {
        let seg = random_segment(5, 10, 6, 2, 2);
        let mut current = seg.start.indices().clone();
        for b in &seg.branches {
            assert_eq!(current.intersection(b.indices()).len(), 2);
            current = current.contract_output(b.indices());
        }
    }

    #[test]
    #[should_panic(expected = "at least one index")]
    fn zero_absorb_panics() {
        random_segment(6, 8, 2, 0, 1);
    }
}
