//! Amortized planning: execute N amplitudes on one `CompiledCircuit` vs N
//! plan-and-execute round trips.
//!
//! The paper's workload plans once and sweeps millions of subtasks; this
//! bench demonstrates the same cost model at laptop scale. `compile_once`
//! reuses one plan and rebinds the output projectors per bitstring;
//! `replan_every_call` runs the full planning pipeline (path search +
//! lifetime slicing + SA refinement) for every amplitude.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qtn_circuit::{OutputSpec, RqcConfig};
use qtnsim_core::{Engine, ExecutorConfig, PlannerConfig};

const AMPLITUDES: usize = 8;

fn bitstrings(n: usize) -> Vec<Vec<u8>> {
    (0..AMPLITUDES).map(|k| (0..n).map(|q| ((k >> (q % 3)) & 1) as u8).collect()).collect()
}

fn planner() -> PlannerConfig {
    PlannerConfig { target_rank: 9, ..Default::default() }
}

fn bench_amortized_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile_once_vs_replan");
    group.sample_size(10);
    for (rows, cols, cycles) in [(2usize, 3usize, 6usize), (3, 3, 8)] {
        let circuit = RqcConfig::small(rows, cols, cycles, 5).build();
        let n = circuit.num_qubits();
        let bits = bitstrings(n);
        group.throughput(Throughput::Elements(AMPLITUDES as u64));

        group.bench_with_input(
            BenchmarkId::new("compile_once", format!("{n}q_{cycles}c")),
            &circuit,
            |b, circuit| {
                let engine = Engine::with_configs(planner(), ExecutorConfig::default());
                let compiled =
                    engine.compile(circuit, &OutputSpec::Amplitude(vec![0; n])).expect("compile");
                b.iter(|| {
                    bits.iter()
                        .map(|bs| compiled.execute_amplitude(bs).expect("execute").0)
                        .collect::<Vec<_>>()
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("replan_every_call", format!("{n}q_{cycles}c")),
            &circuit,
            |b, circuit| {
                b.iter(|| {
                    // A fresh engine per amplitude defeats the plan cache:
                    // every call pays the whole planning pipeline.
                    bits.iter()
                        .map(|bs| {
                            let engine = Engine::with_configs(planner(), ExecutorConfig::default());
                            let compiled = engine
                                .compile(circuit, &OutputSpec::Amplitude(bs.clone()))
                                .expect("compile");
                            compiled.execute_amplitude(bs).expect("execute").0
                        })
                        .collect::<Vec<_>>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_amortized_planning);
criterion_main!(benches);
