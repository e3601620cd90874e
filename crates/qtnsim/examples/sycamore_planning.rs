//! Plan a full 53-qubit Sycamore random circuit the way the paper's
//! process-level pipeline does: build the tensor network, search contraction
//! paths, extract the stem, and slice it with the lifetime-based slice
//! finder + simulated-annealing refiner. The comparison against the
//! cotengra-style greedy baseline is the `fig10` section of `qtn-bench`'s
//! `repro` binary.
//!
//! Planning is pure graph work — no tensor of rank 30+ is ever materialised —
//! so this runs on a laptop even though executing the resulting contraction
//! would need a supercomputer.
//!
//! Run with `cargo run --release --example sycamore_planning [cycles]`.

use qtnsim::circuit::{circuit_to_network, sycamore_rqc, OutputSpec};
use qtnsim::slicing::overhead::{sliced_max_rank, slicing_overhead};
use qtnsim::slicing::{lifetime_slice_finder, refine_slicing, RefinerConfig};
use qtnsim::tensornet::{
    extract_stem, random_greedy_paths, simplify_network, ContractionTree, TensorNetwork,
};

fn main() {
    let cycles: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(12);
    let target_rank = 30; // fits the united 96 GB main memory of one node

    println!("Building Sycamore-style RQC with m = {cycles} cycles (53 qubits)...");
    let circuit = sycamore_rqc(cycles, 2023);
    println!(
        "  {} gates total, {} two-qubit couplers",
        circuit.len(),
        circuit.two_qubit_gate_count()
    );

    let build = circuit_to_network(&circuit, &OutputSpec::Amplitude(vec![0; 53]));
    let network = TensorNetwork::from_build(&build);
    println!("  tensor network: {} tensors, {} edges", network.num_active(), network.num_edges());

    let mut work = network.clone();
    let mut pairs = simplify_network(&mut work);
    println!("  after rank-1/rank-2 simplification: {} tensors", work.num_active());

    println!("Searching contraction paths (randomised greedy)...");
    let candidates = random_greedy_paths(&work, 8, 7);
    let (_, best_pairs) = candidates.into_iter().next().unwrap();
    pairs.extend(best_pairs);
    let tree = ContractionTree::from_pairs(&network, &pairs);
    println!(
        "  best tree: log2(time complexity) = {:.2}, largest tensor rank = {}",
        tree.total_log_cost(),
        tree.max_rank()
    );

    let stem = extract_stem(&tree);
    println!(
        "  stem: {} absorption steps, log2(stem cost) = {:.2} ({:.1}% of the total)",
        stem.len(),
        stem.total_log_cost(),
        100.0 * (stem.total_log_cost() - tree.total_log_cost()).exp2()
    );

    println!("\nSlicing down to rank {target_rank} (per-node memory bound):");
    let ours = lifetime_slice_finder(&stem, target_rank);
    let refined = refine_slicing(&stem, &ours, &RefinerConfig::default());
    println!(
        "  lifetime finder          : {:>3} edges, overhead {:.3}, max rank {}",
        ours.len(),
        slicing_overhead(&stem, &ours.sliced),
        sliced_max_rank(&stem, &ours.sliced)
    );
    println!(
        "  + simulated annealing    : {:>3} edges, overhead {:.3}",
        refined.len(),
        slicing_overhead(&stem, &refined.sliced)
    );
    println!(
        "\nSubtasks generated for the distributed sweep: 2^{} = {:.3e}",
        refined.len(),
        2f64.powi(refined.len() as i32)
    );
}
