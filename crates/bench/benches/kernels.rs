//! Micro-benchmarks of the numeric substrate: the scalar complex GEMM
//! bodies (blocked vs narrow vs reference), tensor permutation (direct vs
//! precomputed vs reduced map), and pairwise contraction. These are the kernels whose
//! arithmetic intensity the paper's thread-level design is built around.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qtn_tensor::gemm::{gemm, gemm_narrow, gemm_reference};
use qtn_tensor::permute::{permute, PermutePlan};
use qtn_tensor::{c64, contract_pair, Complex64, DenseTensor, IndexSet, MatRef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_vec(rng: &mut StdRng, len: usize) -> Vec<Complex64> {
    (0..len).map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
}

fn random_tensor(rng: &mut StdRng, axes: Vec<u32>) -> DenseTensor<Complex64> {
    let idx = IndexSet::new(axes);
    let data = random_vec(rng, idx.len());
    DenseTensor::from_data(idx, data)
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(1);
    // Square and narrow shapes.
    for &(m, n, k) in &[(64usize, 64usize, 64usize), (256, 4, 4), (4096, 2, 2)] {
        let a = random_vec(&mut rng, m * k);
        let b = random_vec(&mut rng, k * n);
        group.throughput(Throughput::Elements((m * n * k) as u64));
        group.bench_with_input(
            BenchmarkId::new("blocked", format!("{m}x{n}x{k}")),
            &(m, n, k),
            |bench, &(m, n, k)| {
                bench.iter(|| {
                    let mut out = vec![Complex64::ZERO; m * n];
                    gemm(MatRef::dense(&a, m, k), MatRef::dense(&b, k, n), &mut out);
                    out
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("narrow", format!("{m}x{n}x{k}")),
            &(m, n, k),
            |bench, &(m, n, k)| {
                bench.iter(|| {
                    let mut out = vec![Complex64::ZERO; m * n];
                    gemm_narrow(MatRef::dense(&a, m, k), MatRef::dense(&b, k, n), &mut out);
                    out
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reference", format!("{m}x{n}x{k}")),
            &(m, n, k),
            |bench, &(m, n, k)| {
                bench.iter(|| {
                    let mut out = vec![Complex64::ZERO; m * n];
                    gemm_reference(&a, &b, &mut out, m, n, k);
                    out
                })
            },
        );
    }
    group.finish();
}

fn bench_permutation(c: &mut Criterion) {
    let mut group = c.benchmark_group("permutation");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(2);
    for rank in [12usize, 16] {
        let t = random_tensor(&mut rng, (0..rank as u32).collect());
        // A permutation that keeps a trailing run (reducible) by reversing
        // only the first half of the axes.
        let mut perm: Vec<usize> = (0..rank / 2).rev().collect();
        perm.extend(rank / 2..rank);
        let full = PermutePlan::full(rank, &perm);
        let reduced = PermutePlan::reduced(rank, &perm);
        group.throughput(Throughput::Elements(1 << rank as u64));
        group.bench_function(BenchmarkId::new("in_situ", rank), |b| b.iter(|| permute(&t, &perm)));
        group.bench_function(BenchmarkId::new("full_map", rank), |b| b.iter(|| full.apply(&t)));
        group.bench_function(BenchmarkId::new("reduced_map", rank), |b| {
            b.iter(|| reduced.apply(&t))
        });
    }
    group.finish();
}

fn bench_contraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("contraction");
    group.sample_size(15);
    let mut rng = StdRng::seed_from_u64(3);
    for rank in [10usize, 14] {
        // Stem-like contraction: a rank-`rank` tensor absorbs a rank-4
        // branch sharing two indices.
        let stem = random_tensor(&mut rng, (0..rank as u32).collect());
        let branch = random_tensor(&mut rng, vec![0, 1, 100, 101]);
        group.throughput(Throughput::Elements(1 << rank as u64));
        group.bench_function(BenchmarkId::new("stem_absorb", rank), |b| {
            b.iter(|| contract_pair(&stem, &branch))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_permutation, bench_contraction);
criterion_main!(benches);
