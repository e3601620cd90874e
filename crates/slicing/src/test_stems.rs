//! The stems the slicing tests check exactness on: Sycamore m = 20 planned
//! at each seed of the pinned 17-seed set, and seeded random circuits
//! planned by greedy at temperature 0 and above; and a direct position scan
//! of a stem's lifetimes that shares nothing with the crate's table.

use crate::finder::lifetime_slice_finder;
use crate::refiner::{refine_slicing, RefinerConfig};
use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};
use qtn_tensor::IndexId;
use qtn_tensornet::{
    defer_projector_joins_tree, extract_stem, greedy_path, random_greedy_paths, refine_tree,
    simplify_network, ContractionTree, PathConfig, RefineObjective, Stem, TensorNetwork,
};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Sycamore m = 20 (circuit seed 5) at planner seeds 0–15 and 2023, as the
/// planner chains its stages at target rank 30: the stem of the refined
/// tree, and the stem of the tree the projector deferral hands back. Built
/// once per test binary.
pub(crate) fn sycamore_seed_set() -> &'static [(String, Stem)] {
    static STEMS: OnceLock<Vec<(String, Stem)>> = OnceLock::new();
    STEMS.get_or_init(build_sycamore_seed_set)
}

fn build_sycamore_seed_set() -> Vec<(String, Stem)> {
    let c = RqcConfig::sycamore(20, 5).build();
    let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0; c.num_qubits()]));
    let network = TensorNetwork::from_build(&b);
    let overridable: Vec<usize> = b.projector_leaves.iter().map(|&(_, node)| node).collect();
    let mut stems = Vec::new();
    for seed in (0..16u64).chain([2023]) {
        let mut work = network.clone();
        let mut pairs = simplify_network(&mut work);
        pairs.extend(random_greedy_paths(&work, 4, seed).swap_remove(0).1);
        let tree = ContractionTree::from_pairs(&network, &pairs);
        let objective = RefineObjective::SunwayAdaptive { ldm_rank: 13 };
        let (tree, _, _) = refine_tree(tree, objective, 4);
        let stem = extract_stem(&tree);
        let slicing = lifetime_slice_finder(&stem, 30);
        let slicing = refine_slicing(&stem, &slicing, &RefinerConfig::default());
        stems.push((format!("sycamore seed {seed} refined"), stem));
        let (deferred, _, _) = defer_projector_joins_tree(tree, &slicing.sliced, &overridable, 4);
        stems.push((format!("sycamore seed {seed} deferred"), extract_stem(&deferred)));
    }
    stems
}

/// RQC grids from 3x3 to 5x6 at two circuit seeds, each simplified and
/// contracted by greedy at temperature 0 and 0.5.
pub(crate) fn random_rqcs() -> &'static [(String, Stem)] {
    static STEMS: OnceLock<Vec<(String, Stem)>> = OnceLock::new();
    STEMS.get_or_init(build_random_rqcs)
}

fn build_random_rqcs() -> Vec<(String, Stem)> {
    let mut stems = Vec::new();
    for (rows, cols, cycles) in [(3, 3, 8), (3, 4, 10), (4, 4, 12), (4, 5, 12), (5, 6, 12)] {
        for seed in [3u64, 8] {
            let c = RqcConfig::small(rows, cols, cycles, seed).build();
            let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0; c.num_qubits()]));
            let network = TensorNetwork::from_build(&b);
            for temperature in [0.0, 0.5] {
                let mut work = network.clone();
                let mut pairs = simplify_network(&mut work);
                pairs.extend(greedy_path(&mut work, &PathConfig { temperature, seed }));
                let tree = ContractionTree::from_pairs(&network, &pairs);
                let name = format!("{rows}x{cols}x{cycles} seed {seed} T={temperature}");
                stems.push((name, extract_stem(&tree)));
            }
        }
    }
    stems
}

/// Every stem edge with the positions whose tensor carries it, in
/// increasing edge order, from a direct scan of the stem's tensors.
pub(crate) fn lifetime_positions(stem: &Stem) -> Vec<(IndexId, Vec<usize>)> {
    let mut positions: BTreeMap<IndexId, Vec<usize>> = BTreeMap::new();
    let results = stem.steps.iter().map(|step| &step.result);
    for (p, tensor) in std::iter::once(&stem.start_indices).chain(results).enumerate() {
        for &e in tensor {
            positions.entry(e).or_default().push(p);
        }
    }
    positions.into_iter().collect()
}

/// The `count` stem edges with the longest lifetimes, longest first, ties
/// broken by increasing edge id.
pub(crate) fn longest_lived(stem: &Stem, count: usize) -> Vec<IndexId> {
    let mut scored: Vec<(usize, IndexId)> =
        lifetime_positions(stem).into_iter().map(|(e, p)| (p.len(), e)).collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().take(count).map(|(_, e)| e).collect()
}
