//! Strong-scaling benchmark of the sliced executor (Fig. 11): the same set
//! of slice subtasks executed on 1, 2, 4 and 8 worker threads. The subtasks
//! are embarrassingly parallel, so the wall time should drop near-linearly
//! until the host runs out of cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qtn_circuit::{OutputSpec, RqcConfig};
use qtnsim_core::{
    execute_on_pool, plan_simulation, ExecutorConfig, LeafOverrides, PlannerConfig, WorkerPool,
};
use std::sync::Arc;

fn bench_strong_scaling(c: &mut Criterion) {
    let circuit = RqcConfig::small(3, 4, 10, 5).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 8, ..Default::default() },
    ));
    let no_overrides = Arc::new(LeafOverrides::new());
    let subtasks = plan.num_subtasks().min(64);

    let mut group = c.benchmark_group("strong_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(subtasks as u64));
    let max_workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    for workers in [1usize, 2, 4, 8] {
        if workers > max_workers {
            continue;
        }
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            // Full replay: the bench measures how the per-subtask sweep
            // scales with workers; the reuse path would prepend a serial
            // frontier build to every call and shrink the parallel
            // portion to the stem, capping the apparent speedup.
            let config = ExecutorConfig {
                workers: w,
                max_subtasks: subtasks,
                reuse: false,
                ..Default::default()
            };
            let pool = WorkerPool::new(w);
            b.iter(|| execute_on_pool(&pool, &plan, &no_overrides, &config).expect("execute"))
        });
    }
    group.finish();
}

fn bench_weak_scaling(c: &mut Criterion) {
    // Weak scaling: subtasks proportional to the worker count.
    let circuit = RqcConfig::small(3, 4, 10, 6).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 8, ..Default::default() },
    ));
    let no_overrides = Arc::new(LeafOverrides::new());
    let per_worker = 8usize;

    let mut group = c.benchmark_group("weak_scaling");
    group.sample_size(10);
    let max_workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    for workers in [1usize, 2, 4] {
        if workers > max_workers {
            continue;
        }
        let subtasks = (per_worker * workers).min(plan.num_subtasks());
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            // Full replay: the bench measures how the per-subtask sweep
            // scales with workers; the reuse path would prepend a serial
            // frontier build to every call and shrink the parallel
            // portion to the stem, capping the apparent speedup.
            let config = ExecutorConfig {
                workers: w,
                max_subtasks: subtasks,
                reuse: false,
                ..Default::default()
            };
            let pool = WorkerPool::new(w);
            b.iter(|| execute_on_pool(&pool, &plan, &no_overrides, &config).expect("execute"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_strong_scaling, bench_weak_scaling);
criterion_main!(benches);
