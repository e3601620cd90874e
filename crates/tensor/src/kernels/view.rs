//! Operand views: a logical row-major matrix read where it already lies.
//!
//! Every GEMM kernel reads its operands through a [`MatRef`]: element
//! `(r, c)` of the logical `rows x cols` matrix lives at
//! `row(r) + col(c)` in the source buffer. Two [`Layout`]s exist:
//!
//! * [`Dense`] — plain row-major storage, `row(r) = r * cols`,
//!   `col(c) = c` (what [`super::KernelPlan::apply`] wraps its slices in);
//! * [`Tables`] — the separable offset tables of an [`OffsetTable`], which
//!   describe a tensor whose axes are *regrouped* into matrix rows and
//!   columns without being moved.
//!
//! The tables are what makes contraction transpose-free. Every tensor axis
//! has dimension 2, so a linear offset is a bit string with one bit per
//! axis, and choosing which axes form the rows and which the columns only
//! decides which bits a row number and a column number each control. The
//! two bit sets are disjoint, hence the offset of `(r, c)` is a *sum* of a
//! row part and a column part: `rows + cols` table entries replace the
//! `rows * cols` entries of a permutation map, and no permuted copy of the
//! operand is ever written.

use crate::index::{IndexId, IndexSet};

/// Largest operand rank an [`OffsetTable`] addresses: its offsets are
/// `u32`, so a tensor may hold at most `2^32` elements. Plans whose tensors
/// exceed it are refused before they execute.
pub const MAX_RANK: usize = 32;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Dense {}
    impl Sealed for super::Tables<'_> {}
}

/// Where the elements of a logical matrix live inside its source buffer:
/// element `(r, c)` is at `row(r) + col(c)`. Sealed — the kernels' unchecked
/// loads rely on the guarantees the two implementations give.
pub trait Layout: Copy + sealed::Sealed {
    /// Offset contributed by row `r`.
    fn row(&self, r: usize) -> usize;
    /// Offset contributed by column `c`.
    fn col(&self, c: usize) -> usize;
    /// Length of the aligned column blocks that are contiguous in memory:
    /// `col(c + d) == col(c) + d` whenever `c` is a multiple of the run and
    /// `d` is below it. At least 1; `usize::MAX` when any range is.
    fn col_run(&self) -> usize;
    /// Whether the two elements of an even-aligned column pair are
    /// neighbours in memory, so one vector load fetches both.
    #[inline(always)]
    fn col_pairs_adjacent(&self) -> bool {
        self.col_run() >= 2
    }
}

/// Row-major storage: `row(r) = r * cols`, `col(c) = c`.
#[derive(Debug, Clone, Copy)]
pub struct Dense {
    cols: usize,
}

impl Layout for Dense {
    #[inline(always)]
    fn row(&self, r: usize) -> usize {
        r * self.cols
    }

    #[inline(always)]
    fn col(&self, c: usize) -> usize {
        c
    }

    #[inline(always)]
    fn col_run(&self) -> usize {
        usize::MAX
    }
}

/// Borrowed offset tables of an [`OffsetTable`].
#[derive(Debug, Clone, Copy)]
pub struct Tables<'a> {
    row: &'a [u32],
    col: &'a [u32],
    col_run: usize,
}

impl Layout for Tables<'_> {
    #[inline(always)]
    fn row(&self, r: usize) -> usize {
        self.row[r] as usize
    }

    #[inline(always)]
    fn col(&self, c: usize) -> usize {
        self.col[c] as usize
    }

    #[inline(always)]
    fn col_run(&self) -> usize {
        self.col_run
    }
}

/// A logical `rows x cols` matrix read in place from `data`.
///
/// The constructors guarantee that `row(r) + col(c) < data.len()` for every
/// `r < rows`, `c < cols`, which is what lets the SIMD kernels load without
/// per-element bounds checks.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a, T, L> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    layout: L,
}

impl<'a, T> MatRef<'a, T, Dense> {
    /// View a row-major `rows x cols` slice.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn dense(data: &'a [T], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "dense operand has wrong length");
        Self { data, rows, cols, layout: Dense { cols } }
    }
}

impl<'a, T: Copy, L: Layout> MatRef<'a, T, L> {
    /// Rows of the logical matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the logical matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element `(r, c)`, bounds-checked.
    #[inline(always)]
    pub fn at(&self, r: usize, c: usize) -> T {
        self.data[self.layout.row(r) + self.layout.col(c)]
    }

    /// Visit columns `c0..c0 + len` of row `r` as maximal stretches that
    /// are contiguous in memory: `f(c, chunk)` receives the stretch that
    /// starts at column `c0 + c`. Loops that walk a row take it a chunk at
    /// a time — one offset lookup and one bounds check per chunk, unit
    /// stride inside; a dense row is a single chunk.
    #[inline(always)]
    pub(crate) fn for_each_run(
        &self,
        r: usize,
        c0: usize,
        len: usize,
        mut f: impl FnMut(usize, &'a [T]),
    ) {
        if len == 0 {
            return;
        }
        let run = self.layout.col_run();
        let base = self.layout.row(r);
        debug_assert!(run == usize::MAX || run.is_power_of_two());
        // The whole range inside one run (always, when dense): one chunk
        // of exactly `len`, which callers with a constant `len` unroll.
        if run == usize::MAX || (c0 & (run - 1)) + len <= run {
            let start = base + self.layout.col(c0);
            return f(0, &self.data[start..start + len]);
        }
        let mut c = 0;
        while c < len {
            // Up to the next multiple of `run`, where contiguity may end.
            let n = (run - ((c0 + c) & (run - 1))).min(len - c);
            let start = base + self.layout.col(c0 + c);
            f(c, &self.data[start..start + n]);
            c += n;
        }
    }

    #[inline(always)]
    pub(crate) fn data(&self) -> &'a [T] {
        self.data
    }

    #[inline(always)]
    pub(crate) fn layout(&self) -> L {
        self.layout
    }
}

/// The separable offset tables of one contraction operand: which source
/// offset each matrix row and each matrix column contributes when the
/// tensor's axes are split into row axes and column axes.
///
/// Built once per compiled contraction ([`crate::ContractionKernel::new`])
/// and applied to many buffers through [`view`](Self::view).
#[derive(Debug, Clone)]
pub struct OffsetTable {
    row: Vec<u32>,
    col: Vec<u32>,
    /// `2^t` for the longest run of low column bits that map to themselves
    /// (`col[2^s] == 2^s` for `s < t`): the tables are sums over disjoint
    /// bits, so aligned column blocks of that length are contiguous.
    col_run: usize,
}

/// Offsets of every bit combination of `axes` (most significant first)
/// inside a tensor with axis order `source`; the stride of every axis used
/// is OR-ed into `seen`.
fn axis_offsets(source: &IndexSet, axes: &[IndexId], seen: &mut u64) -> Vec<u32> {
    let rank = source.rank();
    let mut table = Vec::with_capacity(1usize << axes.len());
    table.push(0u32);
    for &axis in axes.iter().rev() {
        let pos = source
            .position(axis)
            .unwrap_or_else(|| panic!("index {axis} missing from operand {source:?}"));
        let stride = 1u32 << (rank - 1 - pos);
        *seen |= u64::from(stride);
        for i in 0..table.len() {
            table.push(table[i] + stride);
        }
    }
    table
}

impl OffsetTable {
    /// Regroup the axes of a tensor with axis order `source` into a matrix
    /// whose row number is read off `rows` and whose column number off
    /// `cols` (most significant axis first in both).
    ///
    /// # Panics
    /// If `rows` and `cols` do not partition `source`'s axes, or the rank
    /// exceeds [`MAX_RANK`].
    pub fn new(source: &IndexSet, rows: &[IndexId], cols: &[IndexId]) -> Self {
        let rank = source.rank();
        assert!(rank <= MAX_RANK, "operand rank {rank} exceeds MAX_RANK = {MAX_RANK}");
        let mut seen = 0u64;
        let row = axis_offsets(source, rows, &mut seen);
        let col = axis_offsets(source, cols, &mut seen);
        // As many axes as the source has, each found in it, every stride
        // hit: a partition — which is what makes the offsets a bijection.
        assert!(
            rows.len() + cols.len() == rank && seen == (1u64 << rank) - 1,
            "row axes {rows:?} and column axes {cols:?} must partition {source:?}"
        );
        let mut col_run = 1;
        while col_run < col.len() && col[col_run] as usize == col_run {
            col_run *= 2;
        }
        Self { row, col, col_run }
    }

    /// Read `data` — a tensor in the axis order the table was built for —
    /// as the regrouped matrix.
    ///
    /// # Panics
    /// If `data` is not the tensor's length (`rows * cols`). The offsets are
    /// a bijection onto `0..rows * cols`, so every element is in bounds.
    pub fn view<'a, T>(&'a self, data: &'a [T]) -> MatRef<'a, T, Tables<'a>> {
        let (rows, cols) = (self.row.len(), self.col.len());
        assert_eq!(data.len(), rows * cols, "operand buffer length mismatch");
        let layout = Tables { row: &self.row, col: &self.col, col_run: self.col_run };
        MatRef { data, rows, cols, layout }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::dense::DenseTensor;
    use crate::permute::permute_to_order;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn runs<L: Layout>(
        view: &MatRef<'_, u32, L>,
        r: usize,
        c0: usize,
        len: usize,
    ) -> Vec<(usize, Vec<u32>)> {
        let mut out = Vec::new();
        view.for_each_run(r, c0, len, |c, chunk| out.push((c, chunk.to_vec())));
        out
    }

    #[test]
    fn dense_is_row_major() {
        let data: Vec<u32> = (0..12).collect();
        let view = MatRef::dense(&data, 3, 4);
        assert_eq!((view.rows(), view.cols()), (3, 4));
        assert_eq!(view.at(2, 1), 9);
        assert!(view.layout().col_pairs_adjacent());
        assert_eq!(runs(&view, 1, 1, 3), vec![(0, vec![5, 6, 7])]);
        assert_eq!(runs(&view, 1, 1, 0), vec![]);
    }

    #[test]
    fn tables_regroup_without_moving() {
        // Axes [a, b, c]: rows = [c], cols = [a, b] is the transpose of the
        // 4x2 row-major reading.
        let source = IndexSet::new(vec![0, 1, 2]);
        let table = OffsetTable::new(&source, &[2], &[0, 1]);
        assert_eq!(table.row, [0, 1]);
        assert_eq!(table.col, [0, 2, 4, 6]);
        let data: Vec<u32> = (0..8).collect();
        let view = table.view(&data);
        assert_eq!(view.at(1, 2), 5);
        assert!(!view.layout().col_pairs_adjacent());
        assert_eq!(runs(&view, 1, 1, 3), vec![(0, vec![3]), (1, vec![5]), (2, vec![7])]);
        // Unit-stride axis among the columns: pairs are neighbours, and a
        // run ends where the next column bit is not the next offset bit.
        let table = OffsetTable::new(&source, &[1], &[0, 2]);
        let view = table.view(&data);
        assert!(view.layout().col_pairs_adjacent());
        assert_eq!(runs(&view, 1, 0, 4), vec![(0, vec![2, 3]), (2, vec![6, 7])]);
        assert_eq!(runs(&view, 1, 1, 2), vec![(0, vec![3]), (1, vec![6])]);
        // Columns in source order to the end: the whole row is one run.
        let table = OffsetTable::new(&source, &[0], &[1, 2]);
        assert_eq!(runs(&table.view(&data), 1, 1, 3), vec![(0, vec![5, 6, 7])]);
    }

    /// `row[i] + col[p]` is the full TTGT permutation map, element for
    /// element, for random axis splits up to rank 12.
    #[test]
    fn tables_reproduce_the_full_permutation_map() {
        let mut rng = StdRng::seed_from_u64(0x7AB1E);
        for case in 0..200 {
            let rank = rng.gen_range(0usize..13);
            // A random axis order and a random split point.
            let mut axes: Vec<IndexId> = (0..rank as u32).map(|a| 3 * a + 1).collect();
            for i in (1..rank).rev() {
                axes.swap(i, rng.gen_range(0usize..i + 1));
            }
            let source = IndexSet::new(axes.clone());
            let mut regrouped = axes.clone();
            for i in (1..rank).rev() {
                regrouped.swap(i, rng.gen_range(0usize..i + 1));
            }
            let split = rng.gen_range(0usize..rank + 1);
            let (rows, cols) = regrouped.split_at(split);
            let table = OffsetTable::new(&source, rows, cols);
            let target = IndexSet::new(regrouped.clone());
            let iota = (0..1u32 << rank).map(|i| c64(f64::from(i), 0.0)).collect();
            let iota = DenseTensor::from_data(source.clone(), iota);
            let permuted = permute_to_order(&iota, &target);
            let view = table.view(iota.data());
            for r in 0..view.rows() {
                for c in 0..view.cols() {
                    assert_eq!(
                        view.at(r, c),
                        permuted.data()[r * view.cols() + c],
                        "case {case}: {source:?} as {rows:?} x {cols:?} at ({r}, {c})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must partition")]
    fn tables_reject_a_partial_split() {
        OffsetTable::new(&IndexSet::new(vec![0, 1, 2]), &[0], &[1]);
    }

    #[test]
    #[should_panic(expected = "must partition")]
    fn tables_reject_a_repeated_axis() {
        OffsetTable::new(&IndexSet::new(vec![0, 1, 2]), &[0, 1], &[1]);
    }

    #[test]
    #[should_panic(expected = "operand buffer length mismatch")]
    fn view_rejects_a_wrong_length() {
        let table = OffsetTable::new(&IndexSet::new(vec![0, 1]), &[0], &[1]);
        table.view(&[0u8; 3]);
    }
}
