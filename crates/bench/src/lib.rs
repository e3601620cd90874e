//! Shared helpers for the paper-reproduction harness.
//!
//! The `repro` binary (`src/bin/repro.rs`) regenerates every figure and
//! table of the paper's evaluation section as one deterministic JSON
//! document, checked in as `REPRO.json`; timings live in the repo benchmark
//! (`benchmark/`), plus the `gemm` bench under `benches/`. The helpers here
//! build the workloads its sections share: Sycamore-style tensor networks,
//! contraction trees, and stems.
//!
//! The slicing baselines the figures compare the paper's finder against
//! live here too, since nothing else runs them:
//!
//! * [`greedy`] — the cotengra-style greedy slicer of Fig. 10, with the
//!   whole-tree sliced costs it is priced by;
//! * [`dynamic`] — an Alibaba-style dynamic slicer that re-tunes the stem
//!   order between slice picks (the related work of §2.1.2).

#![warn(missing_docs)]

pub mod dynamic;
pub mod greedy;

pub use dynamic::dynamic_slicer;
pub use greedy::{greedy_slicer, slicing_overhead_tree};

use qtn_circuit::{circuit_to_network, Circuit, OutputSpec, RqcConfig};
use qtn_tensornet::{
    extract_stem, random_greedy_paths, simplify_network, ContractionTree, Stem, TensorNetwork,
};

/// A planned workload: the network, the chosen contraction tree and its stem.
pub struct PlannedNetwork {
    /// The circuit the network came from.
    pub circuit: Circuit,
    /// The full tensor network (structure only).
    pub network: TensorNetwork,
    /// The contraction tree selected by the path search.
    pub tree: ContractionTree,
    /// The stem of that tree.
    pub stem: Stem,
}

/// Build and plan a Sycamore-style network with `cycles` cycles on the full
/// 53-qubit layout. Planning is structural only, so this is fast even for
/// m = 20.
pub fn plan_sycamore(cycles: usize, seed: u64, path_candidates: usize) -> PlannedNetwork {
    let circuit = RqcConfig::sycamore(cycles, seed).build();
    plan_circuit(circuit, seed, path_candidates)
}

fn plan_circuit(circuit: Circuit, seed: u64, path_candidates: usize) -> PlannedNetwork {
    let n = circuit.num_qubits();
    let build = circuit_to_network(&circuit, &OutputSpec::Amplitude(vec![0; n]));
    let network = TensorNetwork::from_build(&build);
    let mut work = network.clone();
    let mut pairs = simplify_network(&mut work);
    let candidates = random_greedy_paths(&work, path_candidates.max(1), seed);
    let (_, best) = candidates.into_iter().next().expect("no contraction path found");
    pairs.extend(best);
    let tree = ContractionTree::from_pairs(&network, &pairs);
    let stem = extract_stem(&tree);
    PlannedNetwork { circuit, network, tree, stem }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_grid_produces_consistent_structures() {
        let p = plan_circuit(RqcConfig::small(3, 3, 8, 1).build(), 1, 4);
        assert_eq!(p.circuit.num_qubits(), 9);
        assert_eq!(p.tree.node(p.tree.root()).rank(), 0);
        assert!(!p.stem.is_empty());
        assert!(p.network.num_active() > 0);
    }

    #[test]
    fn plan_sycamore_is_structurally_sound() {
        let p = plan_sycamore(10, 3, 2);
        assert_eq!(p.circuit.num_qubits(), 53);
        assert!(p.tree.total_log_cost() > 15.0);
        assert!(p.stem.max_rank() >= 10);
    }
}
