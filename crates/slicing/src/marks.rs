//! Slicing-set membership as a table indexed by edge id.
//!
//! The slicing machinery asks one question over and over: is this edge
//! sliced? A [`SliceMarks`] answers it in O(1), and the simulated-annealing
//! refiner edits it in place (one edge out, one in) instead of rebuilding a
//! set per trial. Every stem index list it is applied to is sorted, but
//! the table does not rely on that.

use qtn_tensor::IndexId;

/// Multiplicity of every edge id in a slicing set, plus the number of
/// distinct edges — the `|S|` of Eq. 4.
#[derive(Debug, Clone, Default)]
pub(crate) struct SliceMarks {
    count: Vec<u32>,
    distinct: usize,
}

impl SliceMarks {
    /// The table of `sliced` (duplicates count once towards [`Self::len`]).
    pub(crate) fn new(sliced: &[IndexId]) -> Self {
        let mut marks = Self::default();
        for &e in sliced {
            marks.insert(e);
        }
        marks
    }

    /// Number of distinct sliced edges.
    pub(crate) fn len(&self) -> usize {
        self.distinct
    }

    /// Whether `e` is sliced.
    pub(crate) fn contains(&self, e: IndexId) -> bool {
        self.count.get(e as usize).is_some_and(|&c| c > 0)
    }

    /// Add one occurrence of `e`.
    pub(crate) fn insert(&mut self, e: IndexId) {
        let e = e as usize;
        if e >= self.count.len() {
            self.count.resize(e + 1, 0);
        }
        self.distinct += usize::from(self.count[e] == 0);
        self.count[e] += 1;
    }

    /// Remove one occurrence of `e`, which must be present.
    pub(crate) fn remove(&mut self, e: IndexId) {
        let c = &mut self.count[e as usize];
        *c -= 1;
        self.distinct -= usize::from(*c == 0);
    }

    /// How many indices of `s` are sliced.
    pub(crate) fn count_in(&self, s: &[IndexId]) -> usize {
        s.iter().filter(|&&e| self.contains(e)).count()
    }

    /// How many indices of `s` are not sliced: the rank of `s` after
    /// slicing.
    pub(crate) fn count_unsliced(&self, s: &[IndexId]) -> usize {
        s.len() - self.count_in(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn counts_match_the_contains_definitions() {
        let mut rng = StdRng::seed_from_u64(0x511c);
        for _ in 0..300 {
            let universe = rng.gen_range(1..200u32);
            let rank = rng.gen_range(0..65usize);
            let mut s: Vec<IndexId> = (0..rank).map(|_| rng.gen_range(0..universe)).collect();
            s.sort_unstable();
            s.dedup();
            let size = rng.gen_range(0..40usize);
            let mut sliced: Vec<IndexId> =
                (0..size).map(|_| rng.gen_range(0..universe + 10)).collect();
            let mut marks = SliceMarks::new(&sliced);
            let check = |marks: &SliceMarks, sliced: &[IndexId]| {
                let mut distinct = sliced.to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(marks.len(), distinct.len());
                let hit = s.iter().filter(|e| sliced.contains(e)).count();
                assert_eq!(marks.count_in(&s), hit, "{s:?} ∩ {sliced:?}");
                assert_eq!(marks.count_unsliced(&s), s.len() - hit);
                for e in 0..universe + 12 {
                    assert_eq!(marks.contains(e), sliced.contains(&e));
                }
            };
            check(&marks, &sliced);
            // One SA swap: an edge out, another in, and back.
            if let Some(&out) = sliced.first() {
                let into = rng.gen_range(0..universe + 20);
                marks.remove(out);
                marks.insert(into);
                sliced[0] = into;
                check(&marks, &sliced);
                marks.remove(into);
                marks.insert(out);
                sliced[0] = out;
                check(&marks, &sliced);
            }
        }
        assert_eq!(SliceMarks::new(&[]).len(), 0);
        assert!(!SliceMarks::new(&[3]).contains(1 << 20));
    }
}
