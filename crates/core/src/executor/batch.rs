//! Cross-bitstring deduplication: dependent-bits keys and the batch's key
//! tables.
//!
//! A projector-dependent tensor depends only on the output bits of the
//! projector qubits inside its own subtree, so with a batch of B bitstrings
//! a node has at most `min(B, 2^|qubits in subtree|)` distinct values. The
//! [`BatchKeys`] tables intern every bitstring's dependent bits per node
//! once; the program's frontier run contracts each Frontier node once per
//! distinct key, and the stem interpreter's keyed loop recomputes a
//! StemMixed node only when its key changes. A batch of one has a single
//! value everywhere, so it builds no table at all.

use crate::planner::SimulationPlan;
use qtn_tensornet::NodeClass;
use std::collections::HashMap;

/// A dependent-bits deduplication key: the output bits a node's subtree
/// depends on, packed *compactly* — bit `j` of the key is the bitstring's
/// value at the `j`-th set ordinal of the node's dependency mask,
/// ascending. Two bitstrings with equal keys are indistinguishable to any
/// tensor whose subtree touches only the masked projectors. Nodes
/// depending on up to 128 projector ordinals pack into one `u128`; wider
/// dependency cones (wide-output circuits) spill into boxed words, so
/// dedup never degrades to per-bitstring rebuilds no matter how many
/// qubits the circuit measures.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) enum DepKey {
    Packed(u128),
    Wide(Box<[u128]>),
}

/// Pack one bitstring's dependent bits for a node. `ordinals` lists the
/// node's dependency-mask ordinals ascending (see
/// [`qtn_tensornet::DependencyMasks`]); `ordinal_bits[i]` is the
/// bitstring's value at projector ordinal `i`.
pub(super) fn pack_dep_key(ordinals: &[usize], ordinal_bits: &[u8]) -> DepKey {
    if ordinals.len() <= 128 {
        let mut key = 0u128;
        for (j, &ord) in ordinals.iter().enumerate() {
            key |= ((ordinal_bits[ord] & 1) as u128) << j;
        }
        DepKey::Packed(key)
    } else {
        let mut words = vec![0u128; ordinals.len().div_ceil(128)];
        for (j, &ord) in ordinals.iter().enumerate() {
            words[j / 128] |= ((ordinal_bits[ord] & 1) as u128) << (j % 128);
        }
        DepKey::Wide(words.into_boxed_slice())
    }
}

/// Structural cost weight of contracting tree nodes `l` and `r`:
/// `2^|indices(l) ∪ indices(r)|`, clamped so a pathological rank cannot
/// overflow the shift.
fn pair_cost(plan: &SimulationPlan, l: usize, r: usize) -> u64 {
    let left = &plan.tree.node(l).indices;
    let right = &plan.tree.node(r).indices;
    let union = left.len() + right.iter().filter(|e| !left.contains(*e)).count();
    1u64 << union.min(60)
}

/// One projector-dependent node's interned keys: each bitstring's key id,
/// dense in `0..distinct` and interned in submission order, at
/// `BatchKeys::ids[at..at + batch]`.
#[derive(Clone, Copy)]
pub(super) struct NodeKeys {
    at: usize,
    pub(super) distinct: u32,
}

/// The dependent-bits key tables of one execution, fixed in size once
/// built and shared read-only by every worker. For each Frontier and
/// StemMixed node every bitstring's key is interned to a dense id (one
/// flat table for all nodes), and the batch is sorted so bitstrings with
/// equal key prefixes are adjacent: the keyed stem loop keeps a
/// single-entry (most-recent-key) cache per node, which on spine-shaped
/// suffixes (nested dependency masks, where the heavy mixed contractions
/// live) recomputes each node exactly once per distinct key it has in the
/// batch.
pub(super) struct BatchKeys {
    /// Per tree node; `None` outside the Frontier/StemMixed classes, and
    /// empty altogether for a batch of one (whose only key id is 0).
    pub(super) nodes: Box<[Option<NodeKeys>]>,
    /// Every keyed node's ids, one run of `batch` per node.
    ids: Box<[u32]>,
    /// Bitstring indices in keyed-loop processing order: lexicographically
    /// sorted by the per-node key ids taken in mixed-schedule priority
    /// order, with submission order as the stable tie-break. Reordering
    /// within a subtask is safe — every bitstring accumulates into its own
    /// partial, and partials still merge subtasks in ascending-assignment
    /// order per worker, exactly like a loop of singles.
    pub(super) order: Box<[usize]>,
    /// Sum over StemMixed *contraction* nodes of the number of distinct
    /// keys in the batch — the per-subtask floor on mixed contractions, and
    /// exactly what the sorted single-entry cache achieves on spines.
    pub(super) distinct_contraction_keys: u64,
}

/// What a batch's key tables need from the plan, computed once by
/// `Program::compile`: the qubit behind each projector ordinal, each keyed
/// node's dependency-mask ordinals, and the sort priority.
#[derive(Debug)]
pub(super) struct KeySchedule {
    /// The qubit `plan.build.projector_leaves[i]` measures, per ordinal `i`
    /// — the order every dependency mask is defined over.
    qubits: Vec<usize>,
    /// Every Frontier and StemMixed node with its mask's ordinals,
    /// ascending.
    nodes: Vec<(usize, Vec<usize>)>,
    /// The StemMixed contraction outputs, in schedule order.
    mixed: Vec<usize>,
    /// [`mixed_sort_priority`].
    priority: Vec<usize>,
    /// Tree nodes in the plan.
    tree_len: usize,
}

impl KeySchedule {
    pub(super) fn compile(plan: &SimulationPlan) -> KeySchedule {
        let cls = &plan.classification;
        let masks = cls.projector_masks();
        let nodes = (0..plan.tree.nodes().len())
            .filter(|&node| matches!(cls.class(node), NodeClass::Frontier | NodeClass::StemMixed))
            .map(|node| (node, masks.ordinals(node).collect()))
            .collect();
        KeySchedule {
            qubits: plan.build.projector_leaves.iter().map(|&(q, _)| q).collect(),
            nodes,
            mixed: mixed_steps(plan).map(|&(_, _, out)| out).collect(),
            priority: mixed_sort_priority(plan),
            tree_len: plan.tree.nodes().len(),
        }
    }
}

impl BatchKeys {
    /// Key id of bitstring `b` at `node`.
    pub(super) fn id(&self, node: usize, b: usize) -> u32 {
        self.nodes.get(node).and_then(Option::as_ref).map_or(0, |keys| self.ids[keys.at + b])
    }

    /// Distinct keys the batch presents at `node` (1 for an unkeyed node).
    pub(super) fn distinct(&self, node: usize) -> usize {
        self.nodes.get(node).and_then(Option::as_ref).map_or(1, |keys| keys.distinct as usize)
    }

    /// Intern the batch's keys. A batch of at most one bitstring needs no
    /// table: every node has one value.
    pub(super) fn build(schedule: &KeySchedule, bitstrings: &[&[u8]]) -> BatchKeys {
        let batch = bitstrings.len();
        if batch <= 1 {
            return BatchKeys {
                nodes: Box::default(),
                ids: Box::default(),
                order: Box::new([0]),
                distinct_contraction_keys: 0,
            };
        }
        // Row `b` holds bitstring b's output bit at each ordinal's qubit.
        let width = schedule.qubits.len();
        let ordinal_bits: Vec<u8> = bitstrings
            .iter()
            .flat_map(|bits| schedule.qubits.iter().map(|&q| bits.get(q).copied().unwrap_or(0) & 1))
            .collect();
        let rows = || (0..batch).map(|b| &ordinal_bits[b * width..][..width]);
        let mut nodes = vec![None; schedule.tree_len];
        let mut ids = Vec::with_capacity(schedule.nodes.len() * batch);
        let mut interned: HashMap<DepKey, u32> = HashMap::new();
        for (node, ordinals) in &schedule.nodes {
            interned.clear();
            let at = ids.len();
            ids.extend(rows().map(|bits| {
                let next = interned.len() as u32;
                *interned.entry(pack_dep_key(ordinals, bits)).or_insert(next)
            }));
            nodes[*node] = Some(NodeKeys { at, distinct: interned.len() as u32 });
        }
        let table = BatchKeys {
            nodes: nodes.into_boxed_slice(),
            ids: ids.into_boxed_slice(),
            order: Box::default(),
            distinct_contraction_keys: 0,
        };
        let distinct_contraction_keys =
            schedule.mixed.iter().map(|&out| table.distinct(out) as u64).sum();
        let mut order: Box<[usize]> = (0..batch).collect();
        order.sort_by(|&a, &b| {
            let mut by_key =
                schedule.priority.iter().map(|&out| table.id(out, a).cmp(&table.id(out, b)));
            by_key.find(|o| o.is_ne()).unwrap_or_else(|| a.cmp(&b))
        });
        BatchKeys { order, distinct_contraction_keys, ..table }
    }
}

/// The StemMixed steps: the stem run filtered by class, in tree order.
fn mixed_steps(plan: &SimulationPlan) -> impl Iterator<Item = &(usize, usize, usize)> {
    let cls = &plan.classification;
    let stem = cls.run(NodeClass::StemMixed).iter();
    stem.filter(|&&(_, _, out)| cls.class(out) == NodeClass::StemMixed)
}

/// The StemMixed contraction outputs in the order the batch sort compares
/// their keys. Processing order never affects correctness (a node
/// recomputes exactly when its key differs from what its buffer holds,
/// children before parents), only how often the single-entry caches miss —
/// so group the batch around the nodes where a miss costs the most.
///
/// Dependency masks form a *laminar* family (each is the union of its
/// children's), so arrange the distinct masks as a containment forest and
/// emit them in cost-weighted post-order: within a chain the narrowest mask
/// sorts first — then a wider mask's keys are refined by the narrower one's
/// groups, and since a wide key determines every sub-key, **all** chain
/// nodes simultaneously hit their distinct-key floor. Disjoint subtrees
/// inevitably fragment each other, so the heavier subtree gets the outer
/// (unfragmented) sort position.
fn mixed_sort_priority(plan: &SimulationPlan) -> Vec<usize> {
    let cls = &plan.classification;
    let masks = cls.projector_masks();
    // Group schedule outs by identical mask, accumulating structural cost.
    let mut groups: Vec<(Vec<u64>, Vec<usize>, u64)> = Vec::new();
    for &(l, r, out) in mixed_steps(plan) {
        let words = masks.mask(out).to_vec();
        let cost = pair_cost(plan, l, r);
        match groups.iter_mut().find(|(w, _, _)| *w == words) {
            Some((_, members, total)) => {
                members.push(out);
                *total += cost;
            }
            None => groups.push((words, vec![out], cost)),
        }
    }
    let subset = |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(x, y)| x & !y == 0);
    let popcount = |w: &[u64]| w.iter().map(|x| x.count_ones() as u64).sum::<u64>();
    // Minimal strict superset = laminar parent (supersets form a chain).
    let parent: Vec<Option<usize>> = (0..groups.len())
        .map(|i| {
            (0..groups.len())
                .filter(|&j| j != i && subset(&groups[i].0, &groups[j].0))
                .min_by_key(|&j| popcount(&groups[j].0))
        })
        .collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
    let mut forest_roots: Vec<usize> = Vec::new();
    for (i, p) in parent.iter().enumerate() {
        match p {
            Some(p) => children[*p].push(i),
            None => forest_roots.push(i),
        }
    }
    // Subtree weights, bottom-up (children have strictly smaller masks).
    let mut weight: Vec<u64> = groups.iter().map(|(_, _, c)| *c).collect();
    let mut by_pop: Vec<usize> = (0..groups.len()).collect();
    by_pop.sort_by_key(|&i| popcount(&groups[i].0));
    for &i in &by_pop {
        if let Some(p) = parent[i] {
            weight[p] = weight[p].saturating_add(weight[i]);
        }
    }
    // Cost-weighted post-order: heavier subtrees first, masks narrower
    // than their parent emitted before it.
    for list in children.iter_mut() {
        list.sort_by_key(|&i| std::cmp::Reverse(weight[i]));
    }
    forest_roots.sort_by_key(|&i| std::cmp::Reverse(weight[i]));
    let mut priority: Vec<usize> = Vec::new();
    let mut stack: Vec<(usize, bool)> = forest_roots.iter().rev().map(|&i| (i, false)).collect();
    while let Some((i, emitted)) = stack.pop() {
        if emitted {
            priority.extend(groups[i].1.iter().copied());
        } else {
            stack.push((i, true));
            stack.extend(children[i].iter().rev().map(|&c| (c, false)));
        }
    }
    priority
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_simulation, PlannerConfig};
    use qtn_circuit::{OutputSpec, RqcConfig};

    #[test]
    fn dep_keys_pack_beyond_64_dependent_qubits() {
        // 100 dependent ordinals: more than a u64 could hold, still one
        // u128 — the path the old packed-u64 key used to bail out of with a
        // per-bitstring fallback.
        let ordinals: Vec<usize> = (0..100).collect();
        let mut bits = vec![0u8; 100];
        bits[0] = 1;
        bits[70] = 1;
        bits[99] = 1;
        let key = pack_dep_key(&ordinals, &bits);
        assert_eq!(key, DepKey::Packed(1 | (1u128 << 70) | (1u128 << 99)));
        // Flipping a bit above position 64 changes the key.
        bits[70] = 0;
        assert_ne!(pack_dep_key(&ordinals, &bits), key);

        // Keys are *compact*: only the masked ordinals feed the key, so two
        // bitstrings differing outside the mask are indistinguishable.
        let sparse = [3usize, 71, 99];
        let mut a = vec![0u8; 100];
        let mut b = vec![1u8; 100];
        for &o in &sparse {
            a[o] = 1;
            b[o] = 1;
        }
        assert_eq!(pack_dep_key(&sparse, &a), pack_dep_key(&sparse, &b));
        assert_eq!(pack_dep_key(&sparse, &a), DepKey::Packed(0b111));
    }

    #[test]
    fn dep_keys_spill_to_wide_words_past_128_ordinals() {
        let ordinals: Vec<usize> = (0..200).collect();
        let mut bits = vec![0u8; 200];
        bits[5] = 1;
        bits[140] = 1;
        let key = pack_dep_key(&ordinals, &bits);
        match &key {
            DepKey::Wide(words) => {
                assert_eq!(words.len(), 2);
                assert_eq!(words[0], 1u128 << 5);
                assert_eq!(words[1], 1u128 << (140 - 128));
            }
            DepKey::Packed(_) => panic!("200 ordinals must use the wide representation"),
        }
        // Hash/Eq line up across representations of the same width.
        assert_eq!(key.clone(), pack_dep_key(&ordinals, &bits));
        bits[199] = 1;
        assert_ne!(pack_dep_key(&ordinals, &bits), key);
    }

    #[test]
    fn mixed_dedup_orders_the_batch_by_dependent_keys() {
        // RQC plan with a StemMixed root: the dedup tables must cover every
        // mixed node, intern at most `batch` ids per node, and sort the
        // batch so equal full-dependency keys are adjacent.
        let circuit = RqcConfig::small(3, 3, 8, 13).build();
        let n = circuit.num_qubits();
        let plan = plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 7, ..Default::default() },
        );
        assert!(mixed_steps(&plan).next().is_some());
        let bits: Vec<Vec<u8>> =
            (0..16).map(|k| (0..n).map(|q| ((k >> (q % 4)) & 1) as u8).collect()).collect();
        let batch: Vec<&[u8]> = bits.iter().map(Vec::as_slice).collect();
        let dedup = BatchKeys::build(&KeySchedule::compile(&plan), &batch);
        let mut sorted = dedup.order.clone();
        sorted.sort_unstable();
        assert_eq!(*sorted, *(0..16).collect::<Vec<_>>(), "order is a permutation of the batch");
        for &(_, _, out) in mixed_steps(&plan) {
            let keys = dedup.nodes[out].as_ref().expect("every mixed out gets a key table");
            let ids: Vec<u32> = (0..16).map(|b| dedup.id(out, b)).collect();
            // Sorted order keeps equal keys adjacent: each distinct id
            // appears in exactly one contiguous run when masks are nested,
            // and never more runs than distinct ids times fragmentation by
            // wider masks — at minimum, the distinct count is consistent.
            let distinct = ids.iter().collect::<std::collections::HashSet<_>>().len();
            assert!(distinct as u64 <= 16);
            assert_eq!(distinct, keys.distinct as usize, "ids are dense in 0..distinct");
        }
        assert!(dedup.distinct_contraction_keys > 0);
    }

    #[test]
    fn a_batch_of_one_builds_no_key_tables() {
        let circuit = RqcConfig::small(3, 3, 8, 13).build();
        let n = circuit.num_qubits();
        let plan = plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 7, ..Default::default() },
        );
        let bits = vec![1u8; n];
        let schedule = KeySchedule::compile(&plan);
        for batch in [&[][..], &[bits.as_slice()][..]] {
            let keys = BatchKeys::build(&schedule, batch);
            assert!(keys.nodes.is_empty(), "one bitstring has one value everywhere");
            assert_eq!(*keys.order, [0]);
            assert_eq!(keys.distinct_contraction_keys, 0);
            assert_eq!(keys.id(plan.tree.root(), 0), 0);
        }
    }
}
