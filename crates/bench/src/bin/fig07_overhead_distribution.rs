//! Figure 7: slicing-overhead distribution versus target size, with the
//! storage capacities and equal-overhead (slicing-vs-stacking break-even)
//! lines of the Sunway memory hierarchy.
//!
//! For every target rank the greedy baseline and the lifetime finder produce
//! a slicing set; the resulting overhead is printed together with the
//! storage level that the target rank corresponds to and the break-even
//! overhead at which stacking across that level's fill channel would become
//! preferable (§3.3).
//!
//! Usage: `cargo run --release -p qtn-bench --bin fig07_overhead_distribution
//! [cycles=20] [seed=1] [min_target=16] [max_target=36]`

use qtn_bench::{arg_or, greedy_slicer, plan_sycamore, slicing_overhead_tree};
use qtn_slicing::{lifetime_slice_finder, slicing_overhead};
use qtn_sunway::{MemoryHierarchy, StorageLevel};

fn main() {
    let cycles: usize = arg_or("cycles", 20);
    let seed: u64 = arg_or("seed", 1);
    let min_target: usize = arg_or("min_target", 16);
    let max_target: usize = arg_or("max_target", 36);

    let hierarchy = MemoryHierarchy::default();
    let ldm_rank = hierarchy.max_rank(StorageLevel::Ldm);
    let mem_rank = hierarchy.max_rank(StorageLevel::MainMemory);

    println!("# Figure 7 reproduction: overhead distribution vs target size");
    println!("# Sycamore-style RQC, m = {cycles}, seed = {seed}");
    println!(
        "# storage capacities: LDM holds rank {ldm_rank}, united main memory holds rank {mem_rank}"
    );

    let planned = plan_sycamore(cycles, seed, 4);
    let stem = &planned.stem;
    let tree = &planned.tree;
    let full_rank = stem.max_rank();
    println!("# unsliced max rank = {full_rank}, log2(total cost) = {:.2}", tree.total_log_cost());
    println!("#");
    println!(
        "# {:>6}  {:>14}  {:>10}  {:>16}  {:>10}  {:>20}",
        "target",
        "storage level",
        "|S| (ours)",
        "overhead (ours)",
        "|S| greedy",
        "overhead (greedy)"
    );

    for target in (min_target..=max_target.min(full_rank)).rev() {
        let ours = lifetime_slice_finder(stem, target);
        let ours_overhead = slicing_overhead(stem, &ours.sliced);
        let greedy = greedy_slicer(tree, target);
        let greedy_overhead = slicing_overhead_tree(tree, &greedy.sliced);
        let level = if target <= ldm_rank {
            "LDM"
        } else if target <= mem_rank {
            "main memory"
        } else {
            "disk"
        };
        println!(
            "  {:>6}  {:>14}  {:>10}  {:>16.3}  {:>10}  {:>20.3}",
            target,
            level,
            ours.len(),
            ours_overhead,
            greedy.len(),
            greedy_overhead
        );
    }

    println!("#");
    println!("# slicing-vs-stacking break-even overheads (equal-overhead lines):");
    for (level, name) in [
        (StorageLevel::MainMemory, "disk -> main memory (IO)"),
        (StorageLevel::Ldm, "main memory -> LDM (DMA)"),
    ] {
        // Bytes moved per flop of original work for a balanced contraction
        // kernel of the narrow kind the stem is made of (AI ~ 2).
        let bytes_per_flop = 0.5;
        let breakeven = hierarchy.breakeven_overhead(level, bytes_per_flop);
        println!("#   {name:<28} break-even overhead = {breakeven:.1}");
    }
    println!("# below the break-even line slicing wins; above it stacking (data movement) wins.");
}
