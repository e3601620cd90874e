//! 2D qubit layouts and coupler patterns.
//!
//! The circuits the paper targets are "hardware-motivated and highly
//! entangled ... with a clear 2D geometry and relatively shallow": Sycamore
//! random circuits on a 53-qubit planar grid where two-qubit couplers are
//! partitioned into four sets (A, B, C, D) and activated one set per cycle
//! in the sequence `ABCDCDAB`.
//!
//! We model the device as a rectangular grid with an optional set of disabled
//! sites (Sycamore is a 54-site lattice with one unusable qubit). Couplers
//! are classified into the four pattern sets by direction and parity so that
//! within one set every qubit participates in at most one coupler — the
//! property that matters for the tensor network's structure.

use std::collections::BTreeSet;

/// Number of working qubits on the Sycamore processor.
pub const SYCAMORE_QUBITS: usize = 53;

/// One of the four coupler-activation sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CouplerSet {
    /// Horizontal couplers at even column offset.
    A,
    /// Horizontal couplers at odd column offset.
    B,
    /// Vertical couplers at even row offset.
    C,
    /// Vertical couplers at odd row offset.
    D,
}

impl CouplerSet {
    /// The Sycamore cycle sequence `ABCDCDAB`, repeated as needed.
    pub const SEQUENCE: [CouplerSet; 8] = [
        CouplerSet::A,
        CouplerSet::B,
        CouplerSet::C,
        CouplerSet::D,
        CouplerSet::C,
        CouplerSet::D,
        CouplerSet::A,
        CouplerSet::B,
    ];

    /// The coupler set activated in cycle `m` (0-based).
    pub fn for_cycle(m: usize) -> CouplerSet {
        Self::SEQUENCE[m % Self::SEQUENCE.len()]
    }
}

/// A rectangular grid of qubits with some sites disabled.
#[derive(Debug, Clone)]
pub struct GridLayout {
    rows: usize,
    cols: usize,
    /// Map from site index (r*cols + c) to dense qubit id, None if disabled.
    site_to_qubit: Vec<Option<usize>>,
    num_qubits: usize,
}

impl GridLayout {
    /// Build a full `rows x cols` grid with the given disabled sites
    /// (site index = `r * cols + c`).
    pub fn new(rows: usize, cols: usize, disabled: &[usize]) -> Self {
        assert!(rows > 0 && cols > 0, "grid must be non-empty");
        let disabled: BTreeSet<usize> = disabled.iter().copied().collect();
        for &d in &disabled {
            assert!(d < rows * cols, "disabled site {d} out of range");
        }
        let mut site_to_qubit = vec![None; rows * cols];
        let mut q = 0;
        for (site, slot) in site_to_qubit.iter_mut().enumerate() {
            if !disabled.contains(&site) {
                *slot = Some(q);
                q += 1;
            }
        }
        Self { rows, cols, site_to_qubit, num_qubits: q }
    }

    /// The Sycamore-like layout: a 6×9 grid (54 sites) with one site
    /// disabled, giving 53 working qubits.
    pub fn sycamore() -> Self {
        let layout = Self::new(6, 9, &[3]);
        debug_assert_eq!(layout.num_qubits(), SYCAMORE_QUBITS);
        layout
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of working qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Dense qubit id at grid position `(r, c)`, if the site is enabled.
    fn qubit_at(&self, r: usize, c: usize) -> Option<usize> {
        if r >= self.rows || c >= self.cols {
            return None;
        }
        self.site_to_qubit[r * self.cols + c]
    }

    /// All couplers (pairs of adjacent working qubits) in the given set.
    pub fn couplers(&self, set: CouplerSet) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for r in 0..self.rows {
            for c in 0..self.cols {
                let (dr, dc, wanted_parity, parity) = match set {
                    CouplerSet::A => (0usize, 1usize, 0, c % 2),
                    CouplerSet::B => (0, 1, 1, c % 2),
                    CouplerSet::C => (1, 0, 0, r % 2),
                    CouplerSet::D => (1, 0, 1, r % 2),
                };
                if parity != wanted_parity {
                    continue;
                }
                let (r2, c2) = (r + dr, c + dc);
                if let (Some(a), Some(b)) = (self.qubit_at(r, c), self.qubit_at(r2, c2)) {
                    pairs.push((a, b));
                }
            }
        }
        pairs
    }

    /// All couplers of the device regardless of set.
    pub fn all_couplers(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for set in [CouplerSet::A, CouplerSet::B, CouplerSet::C, CouplerSet::D] {
            pairs.extend(self.couplers(set));
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sycamore_has_53_qubits() {
        let l = GridLayout::sycamore();
        assert_eq!(l.num_qubits(), 53);
        assert_eq!(l.rows() * l.cols(), 54);
    }

    #[test]
    fn qubit_ids_are_dense() {
        let l = GridLayout::new(2, 3, &[1]);
        assert_eq!(l.num_qubits(), 5);
        let ids: Vec<_> = (0..2)
            .flat_map(|r| (0..3).filter_map(move |c| (r, c).into()).collect::<Vec<_>>())
            .filter_map(|(r, c)| l.qubit_at(r, c))
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(l.qubit_at(0, 1), None);
    }

    #[test]
    fn coupler_sets_are_matchings() {
        // Within one set, a qubit appears in at most one coupler.
        let l = GridLayout::sycamore();
        for set in [CouplerSet::A, CouplerSet::B, CouplerSet::C, CouplerSet::D] {
            let pairs = l.couplers(set);
            let mut seen = HashSet::new();
            for (a, b) in pairs {
                assert!(seen.insert(a), "{set:?}: qubit {a} repeated");
                assert!(seen.insert(b), "{set:?}: qubit {b} repeated");
            }
        }
    }

    #[test]
    fn coupler_sets_partition_all_couplers() {
        let l = GridLayout::new(4, 4, &[]);
        let all: HashSet<_> = l.all_couplers().into_iter().collect();
        // A 4x4 grid has 2*4*3 = 24 couplers.
        assert_eq!(all.len(), 24);
        // No pair appears in two sets.
        let total: usize = [CouplerSet::A, CouplerSet::B, CouplerSet::C, CouplerSet::D]
            .iter()
            .map(|&s| l.couplers(s).len())
            .sum();
        assert_eq!(total, 24);
    }

    #[test]
    fn couplers_only_connect_working_qubits() {
        let l = GridLayout::sycamore();
        for (a, b) in l.all_couplers() {
            assert!(a < l.num_qubits());
            assert!(b < l.num_qubits());
            assert_ne!(a, b);
        }
    }

    #[test]
    fn cycle_sequence_is_abcdcdab() {
        use CouplerSet::*;
        let seq: Vec<_> = (0..8).map(CouplerSet::for_cycle).collect();
        assert_eq!(seq, vec![A, B, C, D, C, D, A, B]);
        assert_eq!(CouplerSet::for_cycle(8), A);
        assert_eq!(CouplerSet::for_cycle(13), D);
    }

    #[test]
    fn out_of_range_positions_return_none() {
        let l = GridLayout::new(2, 2, &[]);
        assert_eq!(l.qubit_at(2, 0), None);
        assert_eq!(l.qubit_at(0, 2), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_disabled_site_panics() {
        GridLayout::new(2, 2, &[7]);
    }
}
