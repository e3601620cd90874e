//! Pairwise tensor contraction, transpose-free.
//!
//! A contraction of two tensors over their shared indices is one matrix
//! multiplication: the left operand's free indices are the rows of `A`, the
//! shared indices its columns and the rows of `B`, the right operand's free
//! indices the columns of `B`. The classic lowering (TTGT —
//! Transpose-Transpose-GEMM-Transpose, the strategy of the 2021 Gordon Bell
//! work on Sunway that the paper builds on) first *permutes* both operands
//! so those groups are contiguous. Here nothing is permuted: every axis has
//! dimension 2, so regrouping axes only reassigns offset bits, and the
//! source offset of matrix element `(i, p)` is `row_off[i] + col_off[p]`
//! for two small tables ([`OffsetTable`]). A [`ContractionKernel`] builds
//! the tables for both operands once (`m + k` and `k + n` entries, where a
//! permutation map has up to `2^rank`) and the GEMM kernels read the
//! operands where they lie — the transposes of TTGT became address
//! arithmetic, and their scratch buffers are gone. The output needs no
//! transpose either: its axis order is chosen to be exactly what the GEMM
//! produces (`left_free ++ right_free`).
//!
//! There is one implementation: [`contract_pair`] compiles a kernel and
//! applies it, so one-off contractions (the branch and frontier builders,
//! the full-replay oracle) and the executor's compiled stem run the same
//! kernels and agree bit for bit by construction.

use crate::complex::Complex64;
use crate::dense::DenseTensor;
use crate::gemm::gemm_flops;
use crate::index::{IndexId, IndexSet};
use crate::kernels::{KernelPlan, OffsetTable};

/// A fully resolved plan for contracting a pair of tensors.
///
/// The spec is independent of the numeric data *and of the operands' axis
/// orders* (only index-set membership matters), so it can be reused across
/// all slice subtasks, which share identical shapes.
#[derive(Debug, Clone)]
pub struct ContractionSpec {
    /// Free (kept) indices of the left operand, in output order.
    pub left_free: Vec<IndexId>,
    /// Free (kept) indices of the right operand, in output order.
    pub right_free: Vec<IndexId>,
    /// Indices summed over (shared by both operands).
    pub contracted: Vec<IndexId>,
    /// Index set of the output tensor: `left_free ++ right_free`.
    pub output: IndexSet,
}

impl ContractionSpec {
    /// Build the contraction spec for two index sets.
    ///
    /// Indices appearing in both operands are contracted; all others are
    /// kept. Batch (hyper) indices are not supported: an index appears at
    /// most once per operand by construction of [`IndexSet`].
    pub fn new(left: &IndexSet, right: &IndexSet) -> Self {
        let contracted = left.intersection(right);
        let left_free = left.difference(right);
        let right_free = right.difference(left);
        let mut out = Vec::with_capacity(left_free.len() + right_free.len());
        out.extend_from_slice(&left_free);
        out.extend_from_slice(&right_free);
        Self { left_free, right_free, contracted, output: IndexSet::new(out) }
    }

    /// GEMM shape `(m, n, k)` implied by this spec.
    pub fn gemm_shape(&self) -> (usize, usize, usize) {
        (
            1usize << self.left_free.len(),
            1usize << self.right_free.len(),
            1usize << self.contracted.len(),
        )
    }

    /// The GEMM dispatch decision for this spec's shape at the process's
    /// current SIMD level. Cheap (pure shape classification); plan builders
    /// use it to record per-contraction dispatch tallies without running
    /// anything.
    pub fn kernel_plan(&self) -> KernelPlan {
        let (m, n, k) = self.gemm_shape();
        KernelPlan::select(m, n, k)
    }

    /// Real floating point operations performed by this contraction.
    pub fn flops(&self) -> u64 {
        let (m, n, k) = self.gemm_shape();
        gemm_flops(m, n, k)
    }

    /// Number of complex elements moved if both inputs are read and the
    /// output written exactly once (used for arithmetic-intensity modelling).
    pub fn elements_moved(&self) -> u64 {
        let (m, n, k) = self.gemm_shape();
        (m * k + k * n + m * n) as u64
    }
}

/// Contract two tensors over all indices they share.
///
/// Returns a tensor whose axes are the left operand's free indices followed
/// by the right operand's free indices. If no indices are shared this is an
/// outer product; if all indices are shared the result is a scalar
/// (rank-0 tensor). Compiles a [`ContractionKernel`] for the pair and
/// applies it once — callers that contract the same index sets repeatedly
/// should keep the kernel.
pub fn contract_pair(
    left: &DenseTensor<Complex64>,
    right: &DenseTensor<Complex64>,
) -> DenseTensor<Complex64> {
    let kernel = ContractionKernel::new(left.indices(), right.indices());
    let mut out = vec![Complex64::ZERO; kernel.output().len()];
    kernel.contract(left.data(), right.data(), &mut out);
    DenseTensor::from_data(kernel.spec.output, out)
}

/// A fully compiled pairwise contraction: the [`ContractionSpec`], the
/// separable offset tables of both operands and the frozen GEMM dispatch,
/// built once per `(left, right)` index-set pair and applied to many
/// buffers.
///
/// This is what the executor's stem loop replays per slice subtask: every
/// subtask contracts tensors of identical shape and axis order, so the spec,
/// the tables and the GEMM shape are all plan-time constants. Applying a
/// kernel performs **zero heap allocations** and needs no scratch: the
/// operands are read in place and only the output is written.
#[derive(Debug, Clone)]
pub struct ContractionKernel {
    spec: ContractionSpec,
    /// Left operand as `A`: rows `left_free`, columns `contracted`.
    left: OffsetTable,
    /// Right operand as `B`: rows `contracted`, columns `right_free`.
    right: OffsetTable,
    gemm_plan: KernelPlan,
}

impl ContractionKernel {
    /// Compile the contraction of two operand index sets (order matters: it
    /// fixes the offset tables). The GEMM dispatch decision — shape class
    /// and SIMD level — is frozen here, so applying the kernel never
    /// re-probes or re-classifies.
    pub fn new(left: &IndexSet, right: &IndexSet) -> Self {
        let spec = ContractionSpec::new(left, right);
        let left = OffsetTable::new(left, &spec.left_free, &spec.contracted);
        let right = OffsetTable::new(right, &spec.contracted, &spec.right_free);
        let gemm_plan = spec.kernel_plan();
        Self { spec, left, right, gemm_plan }
    }

    /// The underlying contraction spec.
    pub fn spec(&self) -> &ContractionSpec {
        &self.spec
    }

    /// The GEMM dispatch decision frozen at compile time.
    pub fn gemm_plan(&self) -> KernelPlan {
        self.gemm_plan
    }

    /// Index set of the output tensor.
    pub fn output(&self) -> &IndexSet {
        &self.spec.output
    }

    /// Real floating point operations one application performs.
    pub fn flops(&self) -> u64 {
        self.spec.flops()
    }

    /// Contract raw operand buffers into `out`: `out` is overwritten with
    /// the contraction in [`output`](Self::output) axis order, the operands
    /// are read in place. Buffer lengths must match the index sets the
    /// kernel was compiled for.
    ///
    /// # Panics
    /// If a buffer has the wrong length.
    pub fn contract(&self, left: &[Complex64], right: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(out.len(), self.spec.output.len(), "output buffer length mismatch");
        self.gemm_plan.run(self.left.view(left), self.right.view(right), out, true);
    }

    /// [`contract`](Self::contract) under its pre-fusion signature: the two
    /// scratch slices TTGT's permuted copies used to occupy are ignored.
    /// Kept only because the frozen repo benchmark calls it.
    pub fn contract_into(
        &self,
        left: &[Complex64],
        right: &[Complex64],
        _left_scratch: &mut [Complex64],
        _right_scratch: &mut [Complex64],
        out: &mut [Complex64],
    ) {
        self.contract(left, right, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(rng: &mut StdRng, axes: Vec<IndexId>) -> DenseTensor<Complex64> {
        let idx = IndexSet::new(axes);
        let data = (0..idx.len())
            .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        DenseTensor::from_data(idx, data)
    }

    /// Naive contraction by explicit summation, used as the oracle.
    fn contract_naive(
        a: &DenseTensor<Complex64>,
        b: &DenseTensor<Complex64>,
    ) -> DenseTensor<Complex64> {
        let spec = ContractionSpec::new(a.indices(), b.indices());
        let mut out = DenseTensor::zeros(spec.output.clone());
        let out_rank = out.rank();
        let c_rank = spec.contracted.len();
        for out_off in 0..out.len() {
            let out_bits = crate::index::unravel(out_off, out_rank);
            let mut acc = Complex64::ZERO;
            for s in 0..(1usize << c_rank) {
                let s_bits = crate::index::unravel(s, c_rank);
                // Assemble the multi-index of a and b.
                let a_bits: Vec<u8> = a
                    .indices()
                    .iter()
                    .map(|id| {
                        if let Some(p) = spec.contracted.iter().position(|&c| c == id) {
                            s_bits[p]
                        } else {
                            let p = spec.output.position(id).unwrap();
                            out_bits[p]
                        }
                    })
                    .collect();
                let b_bits: Vec<u8> = b
                    .indices()
                    .iter()
                    .map(|id| {
                        if let Some(p) = spec.contracted.iter().position(|&c| c == id) {
                            s_bits[p]
                        } else {
                            let p = spec.output.position(id).unwrap();
                            out_bits[p]
                        }
                    })
                    .collect();
                acc += a.get(&a_bits) * b.get(&b_bits);
            }
            out.data_mut()[out_off] = acc;
        }
        out
    }

    fn assert_tensor_close(a: &DenseTensor<Complex64>, b: &DenseTensor<Complex64>) {
        assert_eq!(a.indices(), b.indices());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!((*x - *y).abs() < 1e-9, "mismatch {x:?} vs {y:?}");
        }
    }

    #[test]
    fn spec_identifies_contracted_indices() {
        let a = IndexSet::new(vec![0, 1, 2]);
        let b = IndexSet::new(vec![2, 3]);
        let spec = ContractionSpec::new(&a, &b);
        assert_eq!(spec.contracted, vec![2]);
        assert_eq!(spec.left_free, vec![0, 1]);
        assert_eq!(spec.right_free, vec![3]);
        assert_eq!(spec.output.axes(), &[0, 1, 3]);
        assert_eq!(spec.gemm_shape(), (4, 2, 2));
        assert_eq!(spec.flops(), 8 * 4 * 2 * 2);
    }

    #[test]
    fn matrix_product_as_contraction() {
        // A[i,k] * B[k,j] = C[i,j]
        let a = DenseTensor::from_data(
            IndexSet::new(vec![0, 1]),
            vec![c64(1.0, 0.0), c64(2.0, 0.0), c64(3.0, 0.0), c64(4.0, 0.0)],
        );
        let b = DenseTensor::from_data(
            IndexSet::new(vec![1, 2]),
            vec![c64(5.0, 0.0), c64(6.0, 0.0), c64(7.0, 0.0), c64(8.0, 0.0)],
        );
        let c = contract_pair(&a, &b);
        assert_eq!(c.indices().axes(), &[0, 2]);
        assert_eq!(c.get(&[0, 0]), c64(19.0, 0.0));
        assert_eq!(c.get(&[0, 1]), c64(22.0, 0.0));
        assert_eq!(c.get(&[1, 0]), c64(43.0, 0.0));
        assert_eq!(c.get(&[1, 1]), c64(50.0, 0.0));
    }

    #[test]
    fn outer_product() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_tensor(&mut rng, vec![0, 1]);
        let b = random_tensor(&mut rng, vec![2]);
        let c = contract_pair(&a, &b);
        assert_eq!(c.rank(), 3);
        assert_tensor_close(&c, &contract_naive(&a, &b));
    }

    #[test]
    fn full_contraction_to_scalar() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = random_tensor(&mut rng, vec![0, 1, 2]);
        let b = random_tensor(&mut rng, vec![0, 1, 2]);
        let c = contract_pair(&a, &b);
        assert_eq!(c.rank(), 0);
        assert_tensor_close(&c, &contract_naive(&a, &b));
    }

    #[test]
    fn random_contractions_match_naive() {
        let mut rng = StdRng::seed_from_u64(13);
        // Various overlap patterns.
        let cases: Vec<(Vec<IndexId>, Vec<IndexId>)> = vec![
            (vec![0, 1, 2, 3], vec![2, 3, 4, 5]),
            (vec![0, 1, 2, 3, 4], vec![4, 5]),
            (vec![7, 3, 5], vec![5, 3, 9, 11]),
            (vec![0, 1], vec![1, 0]),
            (vec![2, 4, 6, 8, 10], vec![10, 8, 12]),
        ];
        for (la, lb) in cases {
            let a = random_tensor(&mut rng, la);
            let b = random_tensor(&mut rng, lb);
            let fast = contract_pair(&a, &b);
            let slow = contract_naive(&a, &b);
            assert_tensor_close(&fast, &slow);
        }
    }

    #[test]
    fn contraction_is_commutative_up_to_axis_order() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = random_tensor(&mut rng, vec![0, 1, 2]);
        let b = random_tensor(&mut rng, vec![2, 3]);
        let ab = contract_pair(&a, &b);
        let ba = contract_pair(&b, &a);
        // Same values, different axis order.
        let ba_reordered = crate::permute::permute_to_order(&ba, ab.indices());
        assert_tensor_close(&ab, &ba_reordered);
    }

    /// Index sets whose contraction lands in every dispatch class, with
    /// the contracted axes leading, trailing and interleaved in the
    /// operands and the unit-stride axis both free and contracted.
    fn cases_of_every_class() -> Vec<(Vec<IndexId>, Vec<IndexId>)> {
        let range = |lo: u32, hi: u32| (lo..hi).collect::<Vec<IndexId>>();
        let with = |mut head: Vec<IndexId>, tail: Vec<IndexId>| {
            head.extend(tail);
            head
        };
        vec![
            // Micro 4x4x4 and 2x4x8.
            (vec![0, 1, 2, 3], vec![2, 3, 4, 5]),
            (vec![9, 0, 8, 7], vec![7, 1, 9, 2, 8]),
            // GemvRow (left fully contracted) and GemvCol.
            (range(0, 5), with(range(0, 5), range(10, 16))),
            (with(range(10, 16), range(0, 5)), vec![4, 2, 0, 1, 3]),
            // Narrow: tall 512x4x4, wide 4x512x4, deep 8x4x256, outer product.
            (with(vec![20, 21], range(0, 9)), vec![30, 21, 31, 20]),
            (vec![20, 30, 21, 31], with(range(0, 5), with(vec![21, 20], range(5, 9)))),
            (
                with(range(0, 8), vec![40, 41, 42]),
                with(vec![50, 51], range(0, 8).into_iter().rev().collect()),
            ),
            (range(0, 6), vec![10, 11]),
            // Blocked 64x32x32, contracted axes interleaved with free ones.
            (
                vec![0, 20, 1, 21, 2, 22, 3, 23, 4, 24, 5],
                vec![24, 30, 23, 31, 22, 32, 21, 33, 20, 34],
            ),
        ]
    }

    #[test]
    fn kernel_matches_contract_pair_bit_for_bit() {
        use crate::kernels::{DispatchClass, SimdLevel};
        use crate::permute::permute_to_order;
        let mut rng = StdRng::seed_from_u64(22);
        let mut classes = std::collections::HashSet::new();
        for (la, lb) in cases_of_every_class() {
            let a = random_tensor(&mut rng, la);
            let b = random_tensor(&mut rng, lb);
            let owned = contract_pair(&a, &b);
            let kernel = ContractionKernel::new(a.indices(), b.indices());
            assert_eq!(kernel.output(), owned.indices());
            assert_eq!(kernel.flops(), kernel.spec().flops());
            classes.insert(std::mem::discriminant(&kernel.gemm_plan().class()));

            // Apply twice to the same dirty buffer: reuse must not change
            // bits, and the legacy five-argument shim is the same call.
            let mut out = vec![c64(1.0, 1.0); kernel.output().len()];
            for _ in 0..2 {
                kernel.contract(a.data(), b.data(), &mut out);
                assert_eq!(out.as_slice(), owned.data(), "kernel must be bit-identical");
            }
            let (mut ls, mut rs) = (vec![Complex64::ZERO; 1], vec![Complex64::ZERO; 1]);
            kernel.contract_into(a.data(), b.data(), &mut ls, &mut rs, &mut out);
            assert_eq!(out.as_slice(), owned.data());

            // Reading in place equals running the same plan on explicitly
            // permuted dense copies — the TTGT it replaced — bit for bit,
            // at the probed level and on the scalar path.
            let spec = kernel.spec();
            let order = |head: &[IndexId], tail: &[IndexId]| {
                IndexSet::new(head.iter().chain(tail).copied().collect())
            };
            let pa = permute_to_order(&a, &order(&spec.left_free, &spec.contracted));
            let pb = permute_to_order(&b, &order(&spec.contracted, &spec.right_free));
            let (m, n, k) = spec.gemm_shape();
            for level in [kernel.gemm_plan().level(), SimdLevel::Scalar] {
                let plan = KernelPlan::select_with_level(m, n, k, level);
                let mut dense = vec![Complex64::ZERO; m * n];
                plan.apply(pa.data(), pb.data(), &mut dense, m, n, k);
                let mut in_place = vec![Complex64::ZERO; m * n];
                let (va, vb) = (kernel.left.view(a.data()), kernel.right.view(b.data()));
                plan.apply_views(va, vb, &mut in_place);
                assert_eq!(in_place, dense, "{m}x{n}x{k} at {level:?}: view changed the bits");
            }
            assert_tensor_close(&owned, &contract_naive(&a, &b));
        }
        let all = [
            DispatchClass::Micro { m: 1, n: 1, k: 2 },
            DispatchClass::GemvRow,
            DispatchClass::GemvCol,
            DispatchClass::Narrow,
            DispatchClass::Blocked,
        ];
        for class in all {
            assert!(classes.contains(&std::mem::discriminant(&class)), "no case reached {class:?}");
        }
    }

    #[test]
    #[should_panic(expected = "output buffer length mismatch")]
    fn contract_rejects_wrong_output_length() {
        let kernel = ContractionKernel::new(&IndexSet::new(vec![0, 1]), &IndexSet::new(vec![1, 2]));
        let operand = vec![Complex64::ZERO; 4];
        kernel.contract(&operand, &operand, &mut [Complex64::ZERO; 1]);
    }

    #[test]
    #[should_panic(expected = "operand buffer length mismatch")]
    fn contract_rejects_wrong_operand_length() {
        let kernel = ContractionKernel::new(&IndexSet::new(vec![0, 1]), &IndexSet::new(vec![1, 2]));
        let operand = vec![Complex64::ZERO; 4];
        kernel.contract(&operand[..3], &operand, &mut [Complex64::ZERO; 4]);
    }

    #[test]
    fn elements_moved_accounting() {
        let a = IndexSet::new(vec![0, 1, 2]);
        let b = IndexSet::new(vec![2, 3]);
        let spec = ContractionSpec::new(&a, &b);
        // m=4, n=2, k=2 -> 8 + 4 + 8 = 20
        assert_eq!(spec.elements_moved(), 20);
    }
}
