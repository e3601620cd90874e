//! Figure 10: slicing-set size and overhead of the lifetime-based method
//! versus the cotengra-style greedy baseline, over many contraction paths.
//!
//! The paper samples 400 contraction paths of the Sycamore network, runs
//! both slicers on every path, and reports (a) how many *extra* edges the
//! greedy baseline slices compared to ours and (b) the ratio of the two
//! overheads. Our method wins or ties on more than 98% of paths. This
//! binary reproduces that experiment (at a configurable path count and
//! circuit size so that it also runs quickly in CI).
//!
//! Usage: `cargo run --release -p qtn-bench --bin fig10_slicing_vs_greedy
//! [paths=400] [cycles=12] [delta=4] [seed=7] [refine=1]`

use qtn_bench::{arg_or, greedy_slicer, slicing_overhead_tree};
use qtn_circuit::{circuit_to_network, OutputSpec, RqcConfig};
use qtn_slicing::overhead::{sliced_max_rank, slicing_overhead};
use qtn_slicing::{lifetime_slice_finder, refine_slicing, RefinerConfig};
use qtn_tensornet::{extract_stem, random_greedy_paths, simplify_network, TensorNetwork};

fn main() {
    let paths: usize = arg_or("paths", 400);
    let cycles: usize = arg_or("cycles", 12);
    let delta: usize = arg_or("delta", 4);
    let seed: u64 = arg_or("seed", 7);
    let refine: usize = arg_or("refine", 1);

    println!("# Figure 10 reproduction: slicing size and overhead vs the greedy baseline");
    println!("# {paths} contraction paths, Sycamore-style m = {cycles}, target = stem max rank - {delta}");

    // Build the network once; the paths are independent randomised greedy
    // searches over it, as in the paper (cotengra's samples).
    let circuit = RqcConfig::sycamore(cycles, seed).build();
    let build = circuit_to_network(&circuit, &OutputSpec::Amplitude(vec![0; 53]));
    let network = TensorNetwork::from_build(&build);
    let mut simplified = network.clone();
    let prefix = simplify_network(&mut simplified);

    let candidates = random_greedy_paths(&simplified, paths, seed);
    println!("# generated {} candidate paths", candidates.len());
    println!("#");
    println!(
        "# {:>5}  {:>12}  {:>11}  {:>11}  {:>12}  {:>14}  {:>15}",
        "path",
        "log2(cost)",
        "|S| ours",
        "|S| greedy",
        "extra edges",
        "overhead ours",
        "overhead greedy"
    );

    let mut wins_or_ties = 0usize;
    let mut overhead_wins_or_ties = 0usize;
    let mut total = 0usize;
    let mut best_overhead = f64::INFINITY;
    for (i, (_, path_pairs)) in candidates.into_iter().enumerate() {
        let mut pairs = prefix.clone();
        pairs.extend(path_pairs);
        let tree = qtn_tensornet::ContractionTree::from_pairs(&network, &pairs);
        let stem = extract_stem(&tree);
        let full = sliced_max_rank(&stem, &[]);
        let target = full.saturating_sub(delta).max(8);

        let mut ours = lifetime_slice_finder(&stem, target);
        if refine != 0 {
            ours = refine_slicing(&stem, &ours, &RefinerConfig { seed, ..Default::default() });
        }
        let theirs = greedy_slicer(&tree, target);
        let ours_overhead = slicing_overhead(&stem, &ours.sliced);
        let theirs_overhead = slicing_overhead_tree(&tree, &theirs.sliced);

        total += 1;
        if ours.len() <= theirs.len() {
            wins_or_ties += 1;
        }
        if ours_overhead <= theirs_overhead + 1e-9 {
            overhead_wins_or_ties += 1;
        }
        best_overhead = best_overhead.min(ours_overhead);

        println!(
            "  {:>5}  {:>12.2}  {:>11}  {:>11}  {:>12}  {:>14.3}  {:>15.3}",
            i,
            tree.total_log_cost(),
            ours.len(),
            theirs.len(),
            theirs.len() as i64 - ours.len() as i64,
            ours_overhead,
            theirs_overhead
        );
    }

    println!("#");
    println!(
        "# summary: smaller-or-equal slicing set on {}/{} paths ({:.1}%), lower-or-equal overhead on {}/{} paths ({:.1}%)",
        wins_or_ties,
        total,
        100.0 * wins_or_ties as f64 / total as f64,
        overhead_wins_or_ties,
        total,
        100.0 * overhead_wins_or_ties as f64 / total as f64
    );
    println!("# best overhead found: {best_overhead:.3} (paper: best < 1.05)");
}
