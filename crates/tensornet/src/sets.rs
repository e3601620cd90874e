//! Set algebra on sorted index lists.
//!
//! Every structural index set in this crate — a vertex's indices in
//! [`crate::TensorNetwork`], a [`crate::TreeNode`]'s indices, a
//! [`crate::StemStep`]'s operands — is a strictly increasing
//! list of `IndexId`s. The helpers here rely on that invariant (checked by
//! `debug_assert!` at every merge entry): a union or symmetric difference
//! is one merge of two lists, linear in their lengths, and the counting
//! forms allocate nothing. Membership in a fixed set of ids (the sliced
//! edges, the overridable leaves) is a [`Marks`] lookup.

use qtn_tensor::IndexId;
use std::cmp::Ordering;

/// Whether `s` is strictly increasing — the invariant every merge needs.
pub(crate) fn is_sorted_set(s: &[IndexId]) -> bool {
    s.windows(2).all(|w| w[0] < w[1])
}

/// `a Δ b`, sorted, written into `out` (cleared first, capacity kept).
pub(crate) fn sym_diff_into(a: &[IndexId], b: &[IndexId], out: &mut Vec<IndexId>) {
    out.clear();
    sym_diff_each(a, b, |e| out.push(e));
}

/// `a Δ b`, sorted, written to the front of `out`, which must hold
/// `|a| + |b|` ids; returns `|a Δ b|`.
pub(crate) fn sym_diff_to(a: &[IndexId], b: &[IndexId], out: &mut [IndexId]) -> usize {
    let mut n = 0;
    sym_diff_each(a, b, |e| {
        out[n] = e;
        n += 1;
    });
    n
}

/// Pass `a Δ b` to `emit` in increasing order, by one merge.
#[inline(always)]
fn sym_diff_each(a: &[IndexId], b: &[IndexId], mut emit: impl FnMut(IndexId)) {
    debug_assert!(is_sorted_set(a) && is_sorted_set(b), "merge operands must be sorted sets");
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                emit(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                emit(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    a[i..].iter().chain(&b[j..]).for_each(|&e| emit(e));
}

/// `(|a ∩ b|, |(a ∩ b) \ S|)` for the set `S` marked in `skip`, by one
/// merge that writes nothing.
pub(crate) fn shared_lens(a: &[IndexId], b: &[IndexId], skip: &Marks) -> (usize, usize) {
    debug_assert!(is_sorted_set(a) && is_sorted_set(b), "merge operands must be sorted sets");
    let (mut i, mut j, mut shared, mut shared_unmarked) = (0, 0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        shared += usize::from(x == y);
        shared_unmarked += usize::from(x == y && !skip.contains(x as usize));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    (shared, shared_unmarked)
}

/// `a Δ b` as a fresh sorted list.
pub(crate) fn sym_diff(a: &[IndexId], b: &[IndexId]) -> Vec<IndexId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    sym_diff_into(a, b, &mut out);
    out
}

/// `a ∪ b` as a fresh sorted list.
pub(crate) fn union(a: &[IndexId], b: &[IndexId]) -> Vec<IndexId> {
    debug_assert!(is_sorted_set(a) && is_sorted_set(b), "merge operands must be sorted sets");
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// `a ∪ b ∪ c` in increasing order, by one three-way merge.
pub(crate) fn union3<'a>(
    a: &'a [IndexId],
    b: &'a [IndexId],
    c: &'a [IndexId],
) -> impl Iterator<Item = IndexId> + 'a {
    debug_assert!(
        is_sorted_set(a) && is_sorted_set(b) && is_sorted_set(c),
        "merge operands must be sorted sets"
    );
    let mut heads = [a, b, c];
    std::iter::from_fn(move || {
        let least = heads.iter().filter_map(|s| s.first()).min().copied()?;
        for s in &mut heads {
            if s.first() == Some(&least) {
                *s = &s[1..];
            }
        }
        Some(least)
    })
}

/// `(|a ∪ b|, |(a ∪ b) \ S|)` for the set `S` marked in `skip`, by one
/// merge. The deferral reads both off lengths instead; its full-sweep test
/// oracle counts them here.
#[cfg(test)]
pub(crate) fn union_lens_unmarked(a: &[IndexId], b: &[IndexId], skip: &Marks) -> (usize, usize) {
    debug_assert!(is_sorted_set(a) && is_sorted_set(b), "merge operands must be sorted sets");
    let (mut i, mut j, mut shared, mut shared_unmarked) = (0, 0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                shared += 1;
                shared_unmarked += usize::from(!skip.contains(a[i] as usize));
                i += 1;
                j += 1;
            }
        }
    }
    let unmarked = skip.count_unmarked(a) + skip.count_unmarked(b) - shared_unmarked;
    (a.len() + b.len() - shared, unmarked)
}

/// A membership table over dense ids (edge ids or vertex ids): built once
/// per call or per pass, then O(1) per lookup.
pub(crate) struct Marks(Vec<bool>);

impl Marks {
    /// Mark every id of `ids`.
    pub(crate) fn new(ids: impl IntoIterator<Item = usize>) -> Self {
        let mut marked = Vec::new();
        for id in ids {
            if id >= marked.len() {
                marked.resize(id + 1, false);
            }
            marked[id] = true;
        }
        Self(marked)
    }

    /// Whether `id` is marked.
    pub(crate) fn contains(&self, id: usize) -> bool {
        self.0.get(id).copied().unwrap_or(false)
    }

    /// Whether any index of `s` is marked.
    pub(crate) fn any(&self, s: &[IndexId]) -> bool {
        s.iter().any(|&e| self.contains(e as usize))
    }

    /// How many indices of `s` are not marked.
    pub(crate) fn count_unmarked(&self, s: &[IndexId]) -> usize {
        s.iter().filter(|&&e| !self.contains(e as usize)).count()
    }
}

/// The edges of `sliced` as a [`Marks`] table.
pub(crate) fn edge_marks(sliced: &[IndexId]) -> Marks {
    Marks::new(sliced.iter().map(|&e| e as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random sorted set of ids below `universe`, each id present with
    /// probability `density`.
    fn random_set(rng: &mut StdRng, universe: IndexId, density: f64) -> Vec<IndexId> {
        (0..universe).filter(|_| rng.gen_bool(density)).collect()
    }

    /// Pairs covering the shapes the merges must handle: empty, disjoint,
    /// equal, nested and overlapping, at ranks up to 64.
    fn cases() -> Vec<(Vec<IndexId>, Vec<IndexId>)> {
        let mut rng = StdRng::seed_from_u64(0x5e75);
        let mut out = vec![
            (vec![], vec![]),
            (vec![], vec![3, 9]),
            (vec![0, 1, 2], vec![5, 6]),
            (vec![4, 7, 11], vec![4, 7, 11]),
        ];
        for _ in 0..200 {
            let universe = rng.gen_range(1..129u32);
            let density = rng.gen_range(0.0..0.5);
            let a = random_set(&mut rng, universe, density);
            let b = match rng.gen_range(0..4usize) {
                // Nested: a subset of `a`.
                0 => a.iter().copied().filter(|_| rng.gen_bool(0.5)).collect(),
                // Disjoint: shifted past `a`'s largest id.
                1 => random_set(&mut rng, universe, 0.3).iter().map(|e| e + universe).collect(),
                2 => a.clone(),
                _ => {
                    let density = rng.gen_range(0.0..0.5);
                    random_set(&mut rng, universe, density)
                }
            };
            let (a, b) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
            if a.len() <= 64 && b.len() <= 64 {
                out.push((a, b));
            }
        }
        out
    }

    #[test]
    fn merges_match_the_contains_definitions() {
        let mut rng = StdRng::seed_from_u64(7);
        for (a, b) in cases() {
            let mut naive_union = a.clone();
            naive_union.extend(b.iter().copied().filter(|e| !a.contains(e)));
            naive_union.sort_unstable();
            let mut naive_diff: Vec<IndexId> =
                a.iter().copied().filter(|e| !b.contains(e)).collect();
            naive_diff.extend(b.iter().copied().filter(|e| !a.contains(e)));
            naive_diff.sort_unstable();

            assert_eq!(union(&a, &b), naive_union, "{a:?} ∪ {b:?}");
            for c in [&a, &b, &naive_diff, &vec![]] {
                let mut naive3 = naive_union.clone();
                naive3.extend(c.iter().copied().filter(|e| !naive_union.contains(e)));
                naive3.sort_unstable();
                assert_eq!(union3(&a, &b, c).collect::<Vec<_>>(), naive3, "{a:?} ∪ {b:?} ∪ {c:?}");
            }
            assert_eq!(sym_diff(&a, &b), naive_diff, "{a:?} Δ {b:?}");
            let shared = a.iter().filter(|e| b.contains(e)).count();
            // A trial's re-paired node: |a Δ b| = |a| + |b| − 2|a ∩ b|.
            assert_eq!(naive_diff.len(), a.len() + b.len() - 2 * shared);
            // The lengths alone give the union: what a tree node's cost reads.
            assert_eq!((a.len() + b.len() + naive_diff.len()) / 2, naive_union.len());
            let mut reused = vec![99; 3];
            sym_diff_into(&a, &b, &mut reused);
            assert_eq!(reused, naive_diff);

            // Masked counts, with an empty skip set and a random one drawn
            // from both operands and beyond them.
            let universe = a.iter().chain(&b).max().map_or(8, |&m| m + 8);
            for skip in [vec![], random_set(&mut rng, universe, 0.3)] {
                let marks = edge_marks(&skip);
                let naive = naive_union.iter().filter(|e| !skip.contains(e)).count();
                let lens = union_lens_unmarked(&a, &b, &marks);
                let shared_unmarked = a.iter().filter(|e| b.contains(e) && !skip.contains(e));
                assert_eq!(shared_lens(&a, &b, &marks), (shared, shared_unmarked.count()));
                assert_eq!(lens, (naive_union.len(), naive), "{a:?} ∪ {b:?} \\ {skip:?}");
                let unmarked = a.iter().filter(|e| !skip.contains(e)).count();
                assert_eq!(marks.count_unmarked(&a), unmarked);
                assert_eq!(marks.any(&a), a.iter().any(|e| skip.contains(e)));
            }
        }
    }

    #[test]
    fn marks_cover_ids_beyond_the_table() {
        let marks = Marks::new([2, 5]);
        assert!(marks.contains(2) && marks.contains(5));
        assert!(!marks.contains(0) && !marks.contains(6) && !marks.contains(1 << 20));
        assert!(!Marks::new([]).contains(0));
    }

    #[test]
    fn sortedness_check() {
        assert!(is_sorted_set(&[]) && is_sorted_set(&[3]) && is_sorted_set(&[1, 4, 9]));
        assert!(!is_sorted_set(&[1, 1]) && !is_sorted_set(&[4, 2]));
    }
}
