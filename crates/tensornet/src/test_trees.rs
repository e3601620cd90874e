//! The trees the planner's exactness oracles run on: Sycamore m = 20 as
//! the planner chains it at each seed of the pinned 17-seed set, and
//! seeded random circuits planned by greedy at temperature 0 and above.

use crate::graph::TensorNetwork;
use crate::path::{greedy_path, random_greedy_paths, PathConfig};
use crate::refine::{defer_projector_joins_tree, refine_tree, RefineObjective};
use crate::simplify::simplify_network;
use crate::stem::{extract_stem, Stem};
use crate::tree::ContractionTree;
use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};
use qtn_tensor::IndexId;
use std::sync::OnceLock;

/// Sycamore m = 20 (circuit seed 5) at planner seeds 0–15 and 2023, at
/// target rank 30: the refined tree, and the tree the projector deferral
/// hands back for a slicing of its stem ([`slice_to`] stands in for the
/// slice finder, which lives downstream). Built once per test binary.
pub(crate) fn sycamore_seed_set() -> &'static [(String, ContractionTree)] {
    static TREES: OnceLock<Vec<(String, ContractionTree)>> = OnceLock::new();
    TREES.get_or_init(|| {
        let c = RqcConfig::sycamore(20, 5).build();
        let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0; c.num_qubits()]));
        let network = TensorNetwork::from_build(&b);
        let overridable: Vec<usize> = b.projector_leaves.iter().map(|&(_, node)| node).collect();
        let mut trees = Vec::new();
        for seed in (0..16u64).chain([2023]) {
            let mut work = network.clone();
            let mut pairs = simplify_network(&mut work);
            pairs.extend(random_greedy_paths(&work, 4, seed).swap_remove(0).1);
            let tree = ContractionTree::from_pairs(&network, &pairs);
            let objective = RefineObjective::SunwayAdaptive { ldm_rank: 13 };
            let (tree, _, _) = refine_tree(tree, objective, 4);
            let sliced = slice_to(&extract_stem(&tree), 30);
            let (deferred, _, _) =
                defer_projector_joins_tree(tree.clone(), &sliced, &overridable, 4);
            trees.push((format!("sycamore seed {seed} refined"), tree));
            trees.push((format!("sycamore seed {seed} deferred"), deferred));
        }
        trees
    })
}

/// A slicing that brings every stem tensor to rank `target` or below:
/// walking the stem up, each tensor over the target has its longest-lived
/// unsliced edges sliced (ties to the lower id).
pub(crate) fn slice_to(stem: &Stem, target: usize) -> Vec<IndexId> {
    let tensors: Vec<&[IndexId]> = std::iter::once(stem.start_indices.as_slice())
        .chain(stem.steps.iter().map(|step| step.result.as_slice()))
        .collect();
    let lifetime = |e: &IndexId| tensors.iter().filter(|t| t.contains(e)).count();
    let mut sliced: Vec<IndexId> = Vec::new();
    for t in &tensors {
        let mut free: Vec<IndexId> = t.iter().copied().filter(|e| !sliced.contains(e)).collect();
        if free.len() > target {
            free.sort_by_key(|e| (std::cmp::Reverse(lifetime(e)), *e));
            sliced.extend(&free[..free.len() - target]);
        }
    }
    sliced.sort_unstable();
    sliced
}

/// The trees the exactness oracle runs on: RQC grids from 3x3 to 5x6
/// and the 53-qubit Sycamore at m = 12, each planned by simplification
/// plus a greedy path at temperature 0 and 0.5.
pub(crate) fn oracle_trees() -> Vec<(String, TensorNetwork, ContractionTree, Vec<usize>)> {
    let mut circuits: Vec<(String, qtn_circuit::Circuit, u64)> = Vec::new();
    for (rows, cols, cycles) in
        [(3, 3, 8), (3, 4, 10), (4, 4, 10), (4, 5, 12), (5, 5, 10), (5, 6, 12)]
    {
        for seed in [1u64, 7] {
            let c = RqcConfig::small(rows, cols, cycles, seed).build();
            circuits.push((format!("{rows}x{cols}x{cycles} seed {seed}"), c, seed));
        }
    }
    circuits.push(("sycamore m=12".into(), RqcConfig::sycamore(12, 5).build(), 0));
    let mut trees = Vec::new();
    for (name, c, seed) in circuits {
        let b = circuit_to_network(&c, &OutputSpec::Amplitude(vec![0; c.num_qubits()]));
        let g = TensorNetwork::from_build(&b);
        let overridable: Vec<usize> = b.projector_leaves.iter().map(|&(_, node)| node).collect();
        for temperature in [0.0, 0.5] {
            let mut work = g.clone();
            let mut pairs = simplify_network(&mut work);
            pairs.extend(greedy_path(&mut work, &PathConfig { temperature, seed }));
            let tree = ContractionTree::from_pairs(&g, &pairs);
            trees.push((format!("{name} T={temperature}"), g.clone(), tree, overridable.clone()));
        }
    }
    trees
}
