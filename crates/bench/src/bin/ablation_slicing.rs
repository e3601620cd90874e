//! Ablation study of the slicing pipeline's design choices.
//!
//! DESIGN.md calls out three design decisions whose contribution should be
//! measurable in isolation:
//!
//! 1. ranking candidate slices by **lifetime length** (Algorithm 1) rather
//!    than greedily by marginal overhead;
//! 2. the **simulated-annealing refiner** (Algorithm 2) on top of the
//!    finder;
//! 3. restricting the search to the **stem** rather than the whole tree.
//!
//! For a sweep of circuits and targets, this binary prints the slicing-set
//! size and overhead of: the greedy whole-tree baseline, the dynamic
//! (Alibaba-style) baseline, the lifetime finder alone, and finder+refiner.
//!
//! Usage: `cargo run --release -p qtn-bench --bin ablation_slicing
//! [cycles=12] [instances=8] [delta=4]`

use qtn_bench::{arg_or, dynamic_slicer, greedy_slicer, plan_sycamore, slicing_overhead_tree};
use qtn_slicing::overhead::{sliced_max_rank, slicing_overhead};
use qtn_slicing::{lifetime_slice_finder, refine_slicing, RefinerConfig};

fn main() {
    let cycles: usize = arg_or("cycles", 12);
    let instances: usize = arg_or("instances", 8);
    let delta: usize = arg_or("delta", 4);

    println!("# Ablation: contribution of each slicing design choice");
    println!(
        "# Sycamore-style m = {cycles}, {instances} instances, target = stem max rank - {delta}"
    );
    println!("#");
    println!("# {:>4}  {:>22}  {:>8}  {:>10}", "inst", "method", "|S|", "overhead");

    let mut totals = [0usize; 4];
    let mut overheads = [0.0f64; 4];
    for i in 0..instances {
        let planned = plan_sycamore(cycles, 1000 + i as u64, 2);
        let stem = &planned.stem;
        let tree = &planned.tree;
        let target = sliced_max_rank(stem, &[]).saturating_sub(delta).max(8);

        let greedy = greedy_slicer(tree, target);
        let dynamic = dynamic_slicer(stem, target);
        let finder = lifetime_slice_finder(stem, target);
        let refined = refine_slicing(stem, &finder, &RefinerConfig::default());

        let rows = [
            ("greedy (whole tree)", greedy.len(), slicing_overhead_tree(tree, &greedy.sliced)),
            (
                "dynamic (stem, re-tuned)",
                dynamic.plan.len(),
                slicing_overhead(&dynamic.stem, &dynamic.plan.sliced),
            ),
            ("lifetime finder", finder.len(), slicing_overhead(stem, &finder.sliced)),
            ("finder + SA refiner", refined.len(), slicing_overhead(stem, &refined.sliced)),
        ];
        for (k, (name, size, overhead)) in rows.iter().enumerate() {
            println!("  {:>4}  {:>22}  {:>8}  {:>10.3}", i, name, size, overhead);
            totals[k] += size;
            overheads[k] += overhead;
        }
    }

    println!("#");
    println!("# means over {instances} instances:");
    for (k, name) in [
        "greedy (whole tree)",
        "dynamic (stem, re-tuned)",
        "lifetime finder",
        "finder + SA refiner",
    ]
    .iter()
    .enumerate()
    {
        println!(
            "#   {:<26} mean |S| = {:>6.2}, mean overhead = {:>7.3}",
            name,
            totals[k] as f64 / instances as f64,
            overheads[k] / instances as f64
        );
    }
}
