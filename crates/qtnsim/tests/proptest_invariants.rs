//! Randomized tests of the core invariants, spanning crates.
//!
//! Formerly written against `proptest`; the build environment has no access
//! to crates.io, so the same properties are now exercised as seeded
//! randomized loops (64 cases each, matching the old `ProptestConfig`).
//!
//! These check the algebraic properties the whole system relies on:
//! * tensor permutation is a bijection and composes correctly;
//! * slicing + summation is exact (slice any edge, sum the halves, get the
//!   original contraction back);
//! * the lifetime-based slicing machinery always produces feasible plans and
//!   overhead ≥ 1;
//! * GEMM kernels agree with the naive reference for arbitrary shapes.

use qtnsim::circuit::circuit_to_network;
use qtnsim::slicing::lifetime_slice_finder;
use qtnsim::slicing::overhead::{sliced_max_rank, slicing_overhead};
use qtnsim::tensor::gemm::gemm_reference;
use qtnsim::tensor::permute::permute;
use qtnsim::tensor::{c64, contract_pair, Complex64, DenseTensor, IndexSet, KernelPlan};
use qtnsim::tensornet::{
    extract_stem, greedy_path, simplify_network, ContractionTree, PathConfig, TensorNetwork,
};
use qtnsim::{OutputSpec, RqcConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

fn random_tensor(rng: &mut StdRng, rank: usize) -> DenseTensor<Complex64> {
    let data: Vec<Complex64> = (0..1usize << rank)
        .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    DenseTensor::from_data(IndexSet::new((0..rank as u32).collect()), data)
}

fn random_permutation(rng: &mut StdRng, rank: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..rank).collect();
    for i in (1..rank).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

#[test]
fn permutation_roundtrip() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let rank = rng.gen_range(1..7);
        let t = random_tensor(&mut rng, rank);
        let perm = random_permutation(&mut rng, rank);
        let mut inverse = vec![0usize; rank];
        for (new, &old) in perm.iter().enumerate() {
            inverse[old] = new;
        }
        let back = permute(&permute(&t, &perm), &inverse);
        assert_eq!(back, t, "seed {seed}");
    }
}

#[test]
fn slice_and_sum_reproduces_contraction() {
    let mut checked = 0usize;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let rank_a = rng.gen_range(2..6);
        let a = random_tensor(&mut rng, rank_a);
        let rank_b = rng.gen_range(2..6);
        let b = random_tensor(&mut rng, rank_b);
        // Give the tensors overlapping index names: `b`'s axes are shifted so
        // that at least one index is shared.
        let axis = rng.gen_range(0usize..2) as u32;
        let shift = (a.rank() as u32).saturating_sub(1 + axis % a.rank() as u32);
        let b_axes: Vec<u32> = (0..b.rank() as u32).map(|i| i + shift).collect();
        let b = DenseTensor::from_data(IndexSet::new(b_axes), b.data().to_vec());
        let shared: Vec<u32> = a.indices().intersection(b.indices());
        if shared.is_empty() {
            continue;
        }
        checked += 1;
        let edge = shared[0];

        let direct = contract_pair(&a, &b);
        // Slice the shared edge on both operands and sum the two halves.
        let mut summed: Option<DenseTensor<Complex64>> = None;
        for bit in 0..2u8 {
            let part = contract_pair(&a.slice_index(edge, bit), &b.slice_index(edge, bit));
            summed = Some(match summed {
                None => part,
                Some(mut acc) => {
                    let aligned = qtnsim::tensor::permute::permute_to_order(&part, acc.indices());
                    acc.accumulate(&aligned);
                    acc
                }
            });
        }
        let summed = qtnsim::tensor::permute::permute_to_order(&summed.unwrap(), direct.indices());
        for (x, y) in direct.data().iter().zip(summed.data().iter()) {
            assert!((*x - *y).abs() < 1e-9, "seed {seed}");
        }
    }
    assert!(checked > CASES as usize / 2, "too few cases had a shared edge: {checked}");
}

#[test]
fn gemm_kernels_agree_with_reference() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3000 + seed);
        let (m, n, k) = (rng.gen_range(1..24), rng.gen_range(1..24), rng.gen_range(1..24));
        let a: Vec<Complex64> =
            (0..m * k).map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
        let b: Vec<Complex64> =
            (0..k * n).map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect();
        let mut c_ref = vec![Complex64::ZERO; m * n];
        let mut c_opt = vec![Complex64::ZERO; m * n];
        gemm_reference(&a, &b, &mut c_ref, m, n, k);
        KernelPlan::select(m, n, k).apply(&a, &b, &mut c_opt, m, n, k);
        for (x, y) in c_ref.iter().zip(c_opt.iter()) {
            assert!((*x - *y).abs() < 1e-9, "seed {seed} shape {m}x{n}x{k}");
        }
    }
}

#[test]
fn slicing_plans_are_always_feasible() {
    for case in 0..40 {
        let mut rng = StdRng::seed_from_u64(4000 + case);
        let seed = case;
        let cycles = rng.gen_range(6..11);
        let delta = rng.gen_range(1..5);
        let circuit = RqcConfig::small(3, 3, cycles, seed).build();
        let build = circuit_to_network(&circuit, &OutputSpec::Amplitude(vec![0; 9]));
        let network = TensorNetwork::from_build(&build);
        let mut work = network.clone();
        let mut pairs = simplify_network(&mut work);
        pairs.extend(greedy_path(&mut work, &PathConfig::default()));
        let tree = ContractionTree::from_pairs(&network, &pairs);
        let stem = extract_stem(&tree);
        let full = sliced_max_rank(&stem, &[]);
        let target = full.saturating_sub(delta).max(3);
        let plan = lifetime_slice_finder(&stem, target);
        assert!(sliced_max_rank(&stem, &plan.sliced) <= target, "case {case}");
        let overhead = slicing_overhead(&stem, &plan.sliced);
        assert!(overhead >= 1.0 - 1e-9, "case {case}");
        assert!(overhead.is_finite(), "case {case}");
    }
}
