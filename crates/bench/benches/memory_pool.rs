//! Pooled vs unpooled stem sweep: time, peak buffer bytes and allocations.
//!
//! The lifetime-based buffer pool must never change what is computed (the
//! integration tests assert bit-identity), so this bench measures what it
//! *does* change: the allocation traffic of the hot per-subtask loop. For
//! each slicing depth the pooled and unpooled executors sweep the same
//! compiled plan, and the pool counters of one execution are printed next
//! to the plan-time prediction — `allocated` collapses to 0 in the pooled
//! steady state while the unpooled path pays fresh buffers for every leaf
//! and intermediate of all `2^|S|` subtasks.
//!
//! One circuit (3x4 qubits, 10 cycles) is planned at three memory targets
//! to sweep `|S| ∈ {2, 4, 6}` — i.e. 4, 16 and 64 subtasks per execution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qtn_circuit::{OutputSpec, RqcConfig};
use qtnsim_core::{Engine, ExecutorConfig, PlannerConfig};

/// `(target_rank, |S|)` pairs for the 3x4x10 seed-5 circuit; the bench
/// asserts the planner still produces these slicing sets.
const TARGETS: [(usize, usize); 3] = [(10, 2), (8, 4), (6, 6)];

fn executor(pool: bool) -> ExecutorConfig {
    ExecutorConfig { workers: 4, max_subtasks: 0, reuse: true, pool }
}

fn bench_memory_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("memory_pool");
    group.sample_size(10);
    let circuit = RqcConfig::small(3, 4, 10, 5).build();
    let n = circuit.num_qubits();
    let bits: Vec<Vec<u8>> =
        (0..4).map(|k| (0..n).map(|q| ((k >> (q % 2)) & 1) as u8).collect()).collect();

    for (target_rank, sliced_edges) in TARGETS {
        let planner = PlannerConfig { target_rank, ..Default::default() };
        let subtasks = 1usize << sliced_edges;
        group.throughput(Throughput::Elements((bits.len() * subtasks) as u64));

        for pooled in [true, false] {
            let label = if pooled { "pooled" } else { "unpooled" };
            group.bench_with_input(
                BenchmarkId::new(label, format!("S{sliced_edges}_{subtasks}sub")),
                &planner,
                |b, planner| {
                    let engine = Engine::with_configs(planner.clone(), executor(pooled));
                    let compiled = engine
                        .compile(&circuit, &OutputSpec::Amplitude(vec![0; n]))
                        .expect("compile");
                    assert_eq!(compiled.plan().slicing.len(), sliced_edges);
                    // Warm the branch cache and (when pooling) the buffer
                    // pools so the timing reflects the steady state.
                    let (_, warm) = compiled.execute_amplitude(&vec![0; n]).expect("warmup");
                    let (_, steady) = compiled.execute_amplitude(&vec![1; n]).expect("steady");
                    eprintln!(
                        "memory_pool/{label}/S{sliced_edges}: predicted_peak={}B \
                         peak_in_flight={}B cold_alloc={} steady_alloc={} steady_reuse={}",
                        steady.stats.predicted_peak_bytes,
                        steady.stats.peak_bytes_in_flight,
                        warm.stats.buffers_allocated,
                        steady.stats.buffers_allocated,
                        steady.stats.buffers_reused,
                    );
                    if pooled {
                        assert_eq!(
                            steady.stats.buffers_allocated, 0,
                            "steady-state pooled sweep must not allocate"
                        );
                    }
                    b.iter(|| {
                        bits.iter()
                            .map(|bs| compiled.execute_amplitude(bs).expect("execute").0)
                            .collect::<Vec<_>>()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_memory_pool);
criterion_main!(benches);
