//! Dense tensors over qubit indices.
//!
//! A [`DenseTensor`] owns a row-major buffer of `2^rank` complex amplitudes
//! together with the [`IndexSet`] naming its axes. This is the object that
//! the contraction executor, the fused thread-level kernels and the slicing
//! machinery all operate on.

use crate::complex::Scalar;
use crate::index::{ravel, strides, IndexId, IndexSet};

/// A dense tensor whose axes all have dimension 2.
///
/// Storage is row-major with axis 0 the most significant bit of the linear
/// offset. The element type is generic over [`Scalar`]; the simulator
/// instantiates it with [`Complex64`](crate::Complex64).
#[derive(Clone, PartialEq)]
pub struct DenseTensor<T: Scalar> {
    indices: IndexSet,
    data: Vec<T>,
}

impl<T: Scalar> std::fmt::Debug for DenseTensor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseTensor")
            .field("indices", &self.indices)
            .field("elements", &self.data.len())
            .finish()
    }
}

impl<T: Scalar> DenseTensor<T> {
    /// Create a tensor filled with zeros.
    pub fn zeros(indices: IndexSet) -> Self {
        let len = indices.len();
        Self { indices, data: vec![T::zero(); len] }
    }

    /// Create a tensor from an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != 2^rank`.
    pub fn from_data(indices: IndexSet, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            indices.len(),
            "buffer length {} does not match 2^rank = {}",
            data.len(),
            indices.len()
        );
        Self { indices, data }
    }

    /// A rank-0 tensor holding a single scalar value.
    pub fn scalar(value: T) -> Self {
        Self { indices: IndexSet::scalar(), data: vec![value] }
    }

    /// The axes of this tensor.
    pub fn indices(&self) -> &IndexSet {
        &self.indices
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.indices.rank()
    }

    /// Number of stored amplitudes (`2^rank`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True only for the (impossible in practice) zero-length buffer; kept
    /// for API completeness. A rank-0 tensor is *not* empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the amplitude buffer.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the amplitude buffer.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume the tensor, returning its parts.
    pub fn into_parts(self) -> (IndexSet, Vec<T>) {
        (self.indices, self.data)
    }

    /// Amplitude at the given multi-index (one bit per axis, axis order).
    pub fn get(&self, bits: &[u8]) -> T {
        assert_eq!(bits.len(), self.rank());
        self.data[ravel(bits)]
    }

    /// Set the amplitude at the given multi-index.
    pub fn set(&mut self, bits: &[u8], value: T) {
        assert_eq!(bits.len(), self.rank());
        let i = ravel(bits);
        self.data[i] = value;
    }

    /// The scalar value of a rank-0 tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not rank 0.
    pub fn scalar_value(&self) -> T {
        assert_eq!(self.rank(), 0, "scalar_value on a rank-{} tensor", self.rank());
        self.data[0]
    }

    /// Frobenius norm squared: sum of squared moduli of all amplitudes.
    pub fn norm_sqr(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Fix `index` to the bit `value`, producing a tensor of one lower rank.
    ///
    /// This is the *slicing* primitive of the whole system: slicing an edge
    /// `e` of the tensor network replaces every tensor whose index set
    /// contains `e` by `slice_index(e, b)` in the subtask for bit `b`.
    ///
    /// # Panics
    /// Panics if `index` is not an axis of this tensor.
    pub fn slice_index(&self, index: IndexId, value: u8) -> Self {
        let pos = self
            .indices
            .position(index)
            .unwrap_or_else(|| panic!("index {index} not present in {:?}", self.indices));
        let rank = self.rank();
        let out_axes: Vec<IndexId> = self.indices.iter().filter(|&a| a != index).collect();
        let out_indices = IndexSet::new(out_axes);
        let mut out = vec![T::zero(); out_indices.len()];

        // The sliced axis contributes a stride of 2^(rank-1-pos). Elements
        // with that bit equal to `value` are gathered in order.
        let axis_stride = 1usize << (rank - 1 - pos);
        let high = 1usize << pos; // number of blocks above the sliced axis
        let low = axis_stride; // elements below the sliced axis
        let mut dst = 0usize;
        for h in 0..high {
            let base = h * (axis_stride << 1) + (value as usize) * axis_stride;
            out[dst..dst + low].copy_from_slice(&self.data[base..base + low]);
            dst += low;
        }
        Self { indices: out_indices, data: out }
    }

    /// Fix several axes at once, writing the sliced tensor into a
    /// caller-provided buffer — no allocation.
    ///
    /// `fixes` lists `(axis position, bit)` pairs; the remaining axes keep
    /// their relative order, so the result is element-for-element identical
    /// to applying [`slice_index`](Self::slice_index) once per fixed axis.
    /// This is the pooled executor's leaf-materialisation primitive: a slice
    /// subtask slices every sliced edge of a leaf straight into a recycled
    /// buffer instead of cloning the leaf and slicing it down edge by edge.
    ///
    /// # Panics
    /// Panics if a position is out of range or fixed twice, or if `dst` does
    /// not hold exactly `2^(rank - fixes.len())` elements.
    pub fn slice_into(&self, fixes: &[(usize, u8)], dst: &mut [T]) {
        let rank = self.rank();
        assert!(fixes.len() <= rank, "more fixed axes than tensor axes");
        let out_rank = rank - fixes.len();
        assert_eq!(dst.len(), 1usize << out_rank, "destination buffer length mismatch");

        // Base source offset from the fixed bits, and a mask of fixed axes
        // (one bit per axis, in stride position).
        let mut base = 0usize;
        let mut fixed_mask = 0usize;
        for &(pos, bit) in fixes {
            assert!(pos < rank, "axis position {pos} out of range for rank {rank}");
            let stride = 1usize << (rank - 1 - pos);
            assert_eq!(fixed_mask & stride, 0, "axis {pos} fixed twice");
            fixed_mask |= stride;
            base |= (bit as usize & 1) * stride;
        }

        // Strides of the free axes, slowest first (stack-allocated: ranks
        // are far below 64 by construction of the linear offset).
        let mut free = [0usize; 64];
        let mut num_free = 0;
        for pos in 0..rank {
            let stride = 1usize << (rank - 1 - pos);
            if fixed_mask & stride == 0 {
                free[num_free] = stride;
                num_free += 1;
            }
        }

        // Trailing free axes are contiguous in the source: copy whole runs.
        let mut trailing = 0;
        while trailing < rank && fixed_mask & (1usize << trailing) == 0 {
            trailing += 1;
        }
        let run = 1usize << trailing;
        let scattered = num_free - trailing;
        for (chunk, dst_run) in dst.chunks_exact_mut(run).enumerate() {
            let mut src = base;
            let mut bits = chunk;
            for i in (0..scattered).rev() {
                src |= (bits & 1) * free[i];
                bits >>= 1;
            }
            dst_run.copy_from_slice(&self.data[src..src + run]);
        }
    }

    /// Inverse of [`slice_index`](Self::slice_index): write this tensor into
    /// the half of `target` selected by fixing `index = value`.
    ///
    /// This is the *stacking* primitive (§3.3 of the paper): accumulating a
    /// computed slice back into the full tensor stored one level down in the
    /// memory hierarchy.
    pub fn stack_into(&self, target: &mut DenseTensor<T>, index: IndexId, value: u8) {
        let pos = target
            .indices
            .position(index)
            .unwrap_or_else(|| panic!("index {index} not present in target"));
        let rank = target.rank();
        assert_eq!(self.rank() + 1, rank, "stack_into rank mismatch");
        let axis_stride = 1usize << (rank - 1 - pos);
        let high = 1usize << pos;
        let low = axis_stride;
        let mut src = 0usize;
        for h in 0..high {
            let base = h * (axis_stride << 1) + (value as usize) * axis_stride;
            target.data[base..base + low].copy_from_slice(&self.data[src..src + low]);
            src += low;
        }
    }

    /// Element-wise accumulate another tensor with identical axes.
    ///
    /// # Panics
    /// Panics if the index sets differ (order included).
    pub fn accumulate(&mut self, other: &DenseTensor<T>) {
        assert_eq!(self.indices, other.indices, "accumulate index mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// Multiply every amplitude by a scalar.
    pub fn scale(&mut self, factor: T) {
        for a in self.data.iter_mut() {
            *a *= factor;
        }
    }

    /// Row-major strides of this tensor.
    pub fn strides(&self) -> Vec<usize> {
        strides(self.rank())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, Complex64};

    fn iota(indices: IndexSet) -> DenseTensor<Complex64> {
        let data = (0..indices.len()).map(|i| c64(i as f64, 0.0)).collect();
        DenseTensor::from_data(indices, data)
    }

    #[test]
    fn zeros_and_len() {
        let t = DenseTensor::<Complex64>::zeros(IndexSet::new(vec![0, 1, 2]));
        assert_eq!(t.rank(), 3);
        assert_eq!(t.len(), 8);
        assert!(t.data().iter().all(|&z| z == Complex64::ZERO));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = DenseTensor::<Complex64>::zeros(IndexSet::new(vec![4, 7]));
        t.set(&[1, 0], c64(2.5, -1.0));
        assert_eq!(t.get(&[1, 0]), c64(2.5, -1.0));
        assert_eq!(t.get(&[0, 1]), Complex64::ZERO);
        assert_eq!(t.data()[2], c64(2.5, -1.0));
    }

    #[test]
    fn scalar_tensor() {
        let t = DenseTensor::scalar(c64(3.0, 4.0));
        assert_eq!(t.rank(), 0);
        assert_eq!(t.scalar_value(), c64(3.0, 4.0));
        assert_eq!(t.norm_sqr(), 25.0);
    }

    #[test]
    fn slice_first_axis() {
        // rank-2 tensor with axes [a=10, b=11], values 0..4.
        let t = iota(IndexSet::new(vec![10, 11]));
        let s0 = t.slice_index(10, 0);
        let s1 = t.slice_index(10, 1);
        assert_eq!(s0.indices().axes(), &[11]);
        assert_eq!(s0.data(), &[c64(0.0, 0.0), c64(1.0, 0.0)]);
        assert_eq!(s1.data(), &[c64(2.0, 0.0), c64(3.0, 0.0)]);
    }

    #[test]
    fn slice_last_axis() {
        let t = iota(IndexSet::new(vec![10, 11]));
        let s0 = t.slice_index(11, 0);
        let s1 = t.slice_index(11, 1);
        assert_eq!(s0.data(), &[c64(0.0, 0.0), c64(2.0, 0.0)]);
        assert_eq!(s1.data(), &[c64(1.0, 0.0), c64(3.0, 0.0)]);
    }

    #[test]
    fn slice_middle_axis_rank3() {
        let t = iota(IndexSet::new(vec![0, 1, 2]));
        let s = t.slice_index(1, 1);
        assert_eq!(s.indices().axes(), &[0, 2]);
        // offsets with bit1 (stride 2) set: 2,3,6,7
        assert_eq!(s.data(), &[c64(2.0, 0.0), c64(3.0, 0.0), c64(6.0, 0.0), c64(7.0, 0.0)]);
    }

    #[test]
    fn slice_then_stack_roundtrip() {
        let t = iota(IndexSet::new(vec![0, 1, 2, 3]));
        for axis in 0..4u32 {
            let mut rebuilt = DenseTensor::<Complex64>::zeros(t.indices().clone());
            for bit in 0..2u8 {
                let s = t.slice_index(axis, bit);
                s.stack_into(&mut rebuilt, axis, bit);
            }
            assert_eq!(rebuilt, t);
        }
    }

    #[test]
    fn slice_into_matches_repeated_slice_index() {
        let t = iota(IndexSet::new(vec![0, 1, 2, 3, 4]));
        // Fix axes in every pattern of up to three positions.
        let patterns: Vec<Vec<(usize, u8)>> = vec![
            vec![],
            vec![(0, 1)],
            vec![(4, 0)],
            vec![(2, 1)],
            vec![(1, 0), (3, 1)],
            vec![(0, 1), (4, 1)],
            vec![(0, 0), (2, 1), (4, 0)],
            vec![(1, 1), (2, 0), (3, 1)],
        ];
        for fixes in patterns {
            // Oracle: repeated slice_index, highest position first so the
            // remaining positions stay valid.
            let mut sorted = fixes.clone();
            sorted.sort_by_key(|&(pos, _)| std::cmp::Reverse(pos));
            let mut oracle = t.clone();
            for &(pos, bit) in &sorted {
                let id = oracle.indices().axes()[pos];
                oracle = oracle.slice_index(id, bit);
            }
            let mut dst = vec![c64(-1.0, -1.0); oracle.len()];
            t.slice_into(&fixes, &mut dst);
            assert_eq!(dst.as_slice(), oracle.data(), "mismatch for fixes {fixes:?}");
        }
    }

    #[test]
    fn slice_into_all_axes_yields_one_element() {
        let t = iota(IndexSet::new(vec![0, 1]));
        let mut dst = vec![Complex64::ZERO; 1];
        t.slice_into(&[(0, 1), (1, 0)], &mut dst);
        assert_eq!(dst[0], t.get(&[1, 0]));
    }

    #[test]
    #[should_panic(expected = "fixed twice")]
    fn slice_into_rejects_duplicate_axis() {
        let t = iota(IndexSet::new(vec![0, 1]));
        let mut dst = vec![Complex64::ZERO; 1];
        t.slice_into(&[(0, 0), (0, 1)], &mut dst);
    }

    #[test]
    fn accumulate_and_scale() {
        let mut a = iota(IndexSet::new(vec![1, 2]));
        let b = iota(IndexSet::new(vec![1, 2]));
        a.accumulate(&b);
        assert_eq!(a.data()[3], c64(6.0, 0.0));
        a.scale(c64(0.0, 1.0));
        assert_eq!(a.data()[3], c64(0.0, 6.0));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_data_length_mismatch_panics() {
        DenseTensor::from_data(IndexSet::new(vec![0, 1]), vec![Complex64::ZERO; 3]);
    }

    #[test]
    fn norm_sqr_sums_all() {
        let t = DenseTensor::from_data(IndexSet::new(vec![0]), vec![c64(3.0, 0.0), c64(0.0, 4.0)]);
        assert_eq!(t.norm_sqr(), 25.0);
    }
}
