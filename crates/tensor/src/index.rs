//! Tensor index bookkeeping.
//!
//! Every bond in a qubit tensor network has dimension 2, so a tensor's shape
//! is fully described by the ordered list of *index identifiers* attached to
//! its axes. [`IndexId`] is a small integer naming an edge of the tensor
//! network; [`IndexSet`] is the ordered list of axes of one tensor.
//!
//! The axis order matters: axis 0 is the *slowest varying* (most significant
//! bit of the linear offset), matching row-major storage in
//! [`crate::dense::DenseTensor`].

use std::fmt;

/// Identifier of a tensor-network edge (a tensor dimension of size 2).
///
/// The planner allocates these densely starting from 0, so they can be used
/// directly as `Vec` indices in per-edge tables.
pub type IndexId = u32;

/// Ordered list of index identifiers forming the axes of a tensor.
///
/// All axes have dimension 2, so a tensor with `rank()` axes has
/// `1 << rank()` elements.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct IndexSet {
    axes: Vec<IndexId>,
}

impl IndexSet {
    /// Create an index set from an ordered list of identifiers.
    ///
    /// # Panics
    /// Panics if the same identifier appears twice: tensors in the network
    /// never carry repeated indices (self-loops are contracted away by the
    /// simplifier before tensors are materialised).
    pub fn new(axes: Vec<IndexId>) -> Self {
        assert!(all_distinct(&axes), "repeated index in IndexSet: {axes:?}");
        Self { axes }
    }

    /// The empty index set (a scalar).
    pub fn scalar() -> Self {
        Self { axes: Vec::new() }
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.axes.len()
    }

    /// Number of elements of a tensor with these axes (`2^rank`).
    pub fn len(&self) -> usize {
        1usize << self.axes.len()
    }

    /// True if this is a scalar (rank 0). Note a rank-0 tensor still holds
    /// one element, so `len() == 1`.
    pub fn is_empty(&self) -> bool {
        self.axes.is_empty()
    }

    /// The ordered axis identifiers.
    pub fn axes(&self) -> &[IndexId] {
        &self.axes
    }

    /// Position of an index identifier among the axes, if present.
    pub fn position(&self, id: IndexId) -> Option<usize> {
        self.axes.iter().position(|&a| a == id)
    }

    /// Whether the identifier labels one of the axes.
    pub fn contains(&self, id: IndexId) -> bool {
        self.position(id).is_some()
    }

    /// Indices shared with another set, in `self`'s axis order.
    pub fn intersection(&self, other: &IndexSet) -> Vec<IndexId> {
        self.axes.iter().copied().filter(|&a| other.contains(a)).collect()
    }

    /// Indices of `self` not present in `other`, in `self`'s axis order.
    pub fn difference(&self, other: &IndexSet) -> Vec<IndexId> {
        self.axes.iter().copied().filter(|&a| !other.contains(a)).collect()
    }

    /// Union preserving `self`'s order first, then the new indices of `other`.
    pub fn union(&self, other: &IndexSet) -> IndexSet {
        let mut axes = self.axes.clone();
        for &a in &other.axes {
            if !self.contains(a) {
                axes.push(a);
            }
        }
        IndexSet { axes }
    }

    /// The index set resulting from contracting `self` with `other`:
    /// the symmetric difference, with `self`'s free indices first.
    pub fn contract_output(&self, other: &IndexSet) -> IndexSet {
        let mut axes: Vec<IndexId> = self.difference(other);
        axes.extend(other.difference(self));
        IndexSet { axes }
    }

    /// Iterate over the axis identifiers.
    pub fn iter(&self) -> impl Iterator<Item = IndexId> + '_ {
        self.axes.iter().copied()
    }
}

impl fmt::Debug for IndexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IndexSet{:?}", self.axes)
    }
}

impl From<Vec<IndexId>> for IndexSet {
    fn from(axes: Vec<IndexId>) -> Self {
        Self::new(axes)
    }
}

impl From<&[IndexId]> for IndexSet {
    fn from(axes: &[IndexId]) -> Self {
        Self::new(axes.to_vec())
    }
}

impl FromIterator<IndexId> for IndexSet {
    fn from_iter<T: IntoIterator<Item = IndexId>>(iter: T) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

/// Whether no identifier repeats, checked pairwise without allocating: a
/// dense tensor's rank is at most a few dozen, so this is a few hundred
/// comparisons at worst.
fn all_distinct(axes: &[IndexId]) -> bool {
    axes.iter().enumerate().all(|(i, a)| !axes[..i].contains(a))
}

/// Compute the row-major strides (in elements) of a rank-`n` tensor whose
/// axes all have dimension 2. Axis 0 is the most significant.
pub fn strides(rank: usize) -> Vec<usize> {
    (0..rank).map(|i| 1usize << (rank - 1 - i)).collect()
}

/// Convert a multi-index (one bit per axis, axis 0 first) to a linear
/// row-major offset.
pub fn ravel(bits: &[u8]) -> usize {
    bits.iter().fold(0usize, |acc, &b| (acc << 1) | (b as usize & 1))
}

/// Convert a linear row-major offset to a multi-index of the given rank.
pub fn unravel(mut offset: usize, rank: usize) -> Vec<u8> {
    let mut bits = vec![0u8; rank];
    for i in (0..rank).rev() {
        bits[i] = (offset & 1) as u8;
        offset >>= 1;
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_and_len() {
        let s = IndexSet::new(vec![3, 1, 7]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.len(), 8);
        assert!(!s.is_empty());
        assert!(IndexSet::scalar().is_empty());
        assert_eq!(IndexSet::scalar().len(), 1);
    }

    #[test]
    #[should_panic(expected = "repeated index")]
    fn repeated_index_panics() {
        IndexSet::new(vec![1, 2, 1]);
    }

    #[test]
    fn distinct_ids_are_checked_at_every_length() {
        for len in [2usize, 16, 17, 40] {
            let ids: Vec<IndexId> = (0..len as IndexId).rev().collect();
            assert_eq!(IndexSet::new(ids.clone()).rank(), len);
            let mut repeated = ids;
            repeated[len / 2] = repeated[0];
            assert!(std::panic::catch_unwind(|| IndexSet::new(repeated)).is_err(), "{len}");
        }
    }

    #[test]
    fn set_operations() {
        let a = IndexSet::new(vec![0, 1, 2, 3]);
        let b = IndexSet::new(vec![2, 3, 4]);
        assert_eq!(a.intersection(&b), vec![2, 3]);
        assert_eq!(a.difference(&b), vec![0, 1]);
        assert_eq!(a.union(&b).axes(), &[0, 1, 2, 3, 4]);
        assert_eq!(a.contract_output(&b).axes(), &[0, 1, 4]);
    }

    #[test]
    fn position_and_contains() {
        let a = IndexSet::new(vec![5, 9, 2]);
        assert_eq!(a.position(9), Some(1));
        assert_eq!(a.position(7), None);
        assert!(a.contains(2));
        assert!(!a.contains(3));
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(strides(3), vec![4, 2, 1]);
        assert_eq!(strides(0), Vec::<usize>::new());
    }

    #[test]
    fn ravel_unravel_roundtrip() {
        for offset in 0..32 {
            let bits = unravel(offset, 5);
            assert_eq!(ravel(&bits), offset);
        }
        assert_eq!(ravel(&[1, 0, 1]), 5);
        assert_eq!(unravel(6, 3), vec![1, 1, 0]);
    }

    #[test]
    fn from_iterator() {
        let s: IndexSet = (0..4u32).collect();
        assert_eq!(s.axes(), &[0, 1, 2, 3]);
    }
}
