//! Plan a full 53-qubit Sycamore random circuit with the planner the
//! engine compiles with: `plan_simulation` builds the tensor network,
//! searches contraction paths, refines the path, extracts the stem, slices
//! it with the lifetime-based slice finder + simulated-annealing refiner,
//! and defers projector joins. The comparison against the cotengra-style
//! greedy baseline is the `fig10` section of `qtn-bench`'s `repro` binary.
//!
//! Planning is pure graph work — no tensor of rank 30+ is ever materialised —
//! so this runs on a laptop even though executing the resulting contraction
//! would need a supercomputer.
//!
//! Run with `cargo run --release --example sycamore_planning [cycles]`.

use qtnsim::circuit::{sycamore_rqc, OutputSpec};
use qtnsim::slicing::{lifetime_slice_finder, refine_slicing, slicing_overhead, RefinerConfig};
use qtnsim::{plan_simulation, PlannerConfig};
use std::time::Instant;

fn main() {
    let cycles: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(20);
    let target_rank = 30; // fits the united 96 GB main memory of one node

    println!("Building Sycamore-style RQC with m = {cycles} cycles (53 qubits)...");
    let circuit = sycamore_rqc(cycles, 2023);
    println!(
        "  {} gates total, {} two-qubit couplers",
        circuit.len(),
        circuit.two_qubit_gate_count()
    );

    let output = OutputSpec::Amplitude(vec![0; circuit.num_qubits()]);
    let config = PlannerConfig { target_rank, ..PlannerConfig::default() };
    let start = Instant::now();
    let plan = plan_simulation(&circuit, &output, &config);
    let wall = start.elapsed();

    println!("\nPlan for one amplitude at target rank {target_rank}:");
    println!("  tensor network       : {} tensors", plan.network.num_active());
    println!("  log2(time complexity): {:.2}", plan.log_cost);
    println!("  stem                 : {} absorption steps", plan.stem.len());
    println!("  sliced edges |S|     : {}", plan.slicing.len());
    println!("  slicing overhead     : {:.3}", plan.overhead);
    println!("  sliced max rank      : {}", plan.sliced_max_rank());
    println!("  planning wall time   : {:.1} ms", wall.as_secs_f64() * 1e3);

    // The slicing set was chosen before the projector deferral reshaped the
    // tree; slice the shipped stem afresh for comparison.
    println!("\nSlicing the shipped stem afresh:");
    let found = lifetime_slice_finder(&plan.stem, target_rank);
    let refined = refine_slicing(&plan.stem, &found, &RefinerConfig::default());
    for (name, slicing) in [("lifetime finder", &found), ("+ simulated annealing", &refined)] {
        println!(
            "  {name:<22}: {:>3} edges, overhead {:.3}",
            slicing.len(),
            slicing_overhead(&plan.stem, &slicing.sliced)
        );
    }
    println!(
        "\nSubtasks generated for the distributed sweep: 2^{} = {:.3e}",
        plan.slicing.len(),
        2f64.powi(plan.slicing.len() as i32)
    );
}
