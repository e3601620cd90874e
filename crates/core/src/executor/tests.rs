//! Driver-level tests: every configuration the executor admits agrees with
//! the statevector oracle and, bit for bit, with every other configuration.

use super::*;
use crate::planner::{plan_simulation, PlannerConfig};
use qtn_circuit::{OutputSpec, RqcConfig};
use qtn_statevector::StateVector;
use qtn_tensornet::{bytes_of_rank, NodeClass, BYTES_PER_AMPLITUDE};

/// Execute a batch of one bitstring.
fn execute_one(
    pool: &WorkerPool,
    plan: &Arc<SimulationPlan>,
    bits: &[u8],
    config: &ExecutorConfig,
) -> Result<(DenseTensor<Complex64>, ExecutionStats), Error> {
    let (mut results, stats) = execute(pool, plan, &[bits], config)?;
    Ok((results.pop().expect("one result per bitstring"), stats))
}

/// Execute one bitstring on a pool sized for `config`.
fn run(
    plan: &Arc<SimulationPlan>,
    bits: &[u8],
    config: &ExecutorConfig,
) -> (DenseTensor<Complex64>, ExecutionStats) {
    let pool = WorkerPool::new(config.workers);
    execute_one(&pool, plan, bits, config).expect("plan execution failed")
}

fn check_amplitude_against_statevector(
    rows: usize,
    cols: usize,
    cycles: usize,
    seed: u64,
    target_rank: usize,
    workers: usize,
) {
    let circuit = RqcConfig::small(rows, cols, cycles, seed).build();
    let n = circuit.num_qubits();
    let bits: Vec<u8> = (0..n).map(|q| ((seed as usize + q) % 2) as u8).collect();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(bits.clone()),
        &PlannerConfig { target_rank, ..Default::default() },
    ));
    let (result, stats) =
        run(&plan, &bits, &ExecutorConfig { workers, max_subtasks: 0, ..Default::default() });
    let sv = StateVector::simulate(&circuit);
    let expected = sv.amplitude(&bits);
    let got = result.scalar_value();
    assert!(
        (got - expected).abs() < 1e-8,
        "amplitude mismatch: {got:?} vs {expected:?} ({} subtasks)",
        stats.subtasks_total
    );
    assert_eq!(stats.subtasks_run, stats.subtasks_total);
    assert!(stats.flops > 0);
}

#[test]
fn unsliced_execution_matches_statevector() {
    check_amplitude_against_statevector(2, 3, 6, 1, 30, 2);
}

#[test]
fn sliced_execution_matches_statevector() {
    // Tight target forces several sliced edges -> many subtasks.
    check_amplitude_against_statevector(3, 3, 8, 2, 8, 4);
}

#[test]
fn heavily_sliced_execution_matches_statevector() {
    check_amplitude_against_statevector(3, 3, 8, 3, 6, 4);
}

#[test]
fn single_worker_and_many_workers_agree() {
    let circuit = RqcConfig::small(3, 3, 8, 4).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 8, ..Default::default() },
    ));
    let bits = vec![0; n];
    let (a, _) =
        run(&plan, &bits, &ExecutorConfig { workers: 1, max_subtasks: 0, ..Default::default() });
    let (b, _) =
        run(&plan, &bits, &ExecutorConfig { workers: 8, max_subtasks: 0, ..Default::default() });
    assert!((a.scalar_value() - b.scalar_value()).abs() < 1e-10);
}

#[test]
fn repeated_pooled_executions_are_bit_identical() {
    let circuit = RqcConfig::small(3, 3, 8, 9).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 7, ..Default::default() },
    ));
    let pool = WorkerPool::new(4);
    let config = ExecutorConfig { workers: 4, max_subtasks: 0, ..Default::default() };
    let bits = vec![0; n];
    let (a, _) = execute_one(&pool, &plan, &bits, &config).unwrap();
    for _ in 0..5 {
        let (b, _) = execute_one(&pool, &plan, &bits, &config).unwrap();
        assert_eq!(a.data(), b.data(), "pooled execution must be deterministic");
    }
}

#[test]
fn overrides_retarget_the_output_projectors() {
    let circuit = RqcConfig::small(2, 3, 6, 12).build();
    let n = circuit.num_qubits();
    let template = vec![0u8; n];
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(template),
        &PlannerConfig { target_rank: 8, ..Default::default() },
    ));
    let pool = WorkerPool::new(2);
    let config = ExecutorConfig { workers: 2, max_subtasks: 0, ..Default::default() };
    let sv = StateVector::simulate(&circuit);
    let patterns: Vec<Vec<u8>> = vec![
        vec![1; n],
        (0..n).map(|q| (q % 2) as u8).collect(),
        (0..n).map(|q| ((q + 1) % 2) as u8).collect(),
    ];
    for bits in patterns {
        let (result, _) = execute_one(&pool, &plan, &bits, &config).unwrap();
        let expected = sv.amplitude(&bits);
        assert!(
            (result.scalar_value() - expected).abs() < 1e-8,
            "rebound amplitude mismatch for {bits:?}"
        );
    }
}

#[test]
fn worker_pool_survives_panicking_jobs() {
    let pool = WorkerPool::new(2);
    for _ in 0..4 {
        pool.submit(Box::new(|| panic!("job blew up")));
    }
    // Every worker has met a panic; the pool must still serve jobs.
    let (tx, rx) = mpsc::channel();
    pool.submit(Box::new(move || {
        let _ = tx.send(42);
    }));
    assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)), Ok(42));
    // And a pooled execution after the panics still succeeds.
    let circuit = RqcConfig::small(2, 2, 4, 8).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 20, ..Default::default() },
    ));
    let config = ExecutorConfig { workers: 2, max_subtasks: 0, ..Default::default() };
    let result = execute_one(&pool, &plan, &vec![0; n], &config);
    assert!(result.is_ok());
}

#[test]
fn open_output_matches_statevector_marginal() {
    // Open two qubits: the result tensor must equal the state-vector
    // amplitudes with the other qubits fixed to 0.
    let circuit = RqcConfig::small(2, 3, 6, 5).build();
    let n = circuit.num_qubits();
    let open = vec![0usize, 1usize];
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Open { fixed: vec![0; n], open: open.clone() },
        &PlannerConfig { target_rank: 7, ..Default::default() },
    ));
    let (result, _) = run(&plan, &vec![0; n], &ExecutorConfig::default());
    assert_eq!(result.rank(), 2);
    let sv = StateVector::simulate(&circuit);
    // Map open qubits to their network indices to find the axis order.
    let order: qtn_tensor::IndexSet = plan.build.open_indices.iter().map(|&(_, id)| id).collect();
    let result = qtn_tensor::permute::permute_to_order(&result, &order);
    for b0 in 0..2u8 {
        for b1 in 0..2u8 {
            let mut bits = vec![0u8; n];
            bits[open[0]] = b0;
            bits[open[1]] = b1;
            let expected = sv.amplitude(&bits);
            let got = result.get(&[b0, b1]);
            assert!(
                (got - expected).abs() < 1e-8,
                "open amplitude mismatch at {b0}{b1}: {got:?} vs {expected:?}"
            );
        }
    }
}

#[test]
fn reuse_and_full_replay_are_bit_identical() {
    let circuit = RqcConfig::small(3, 3, 8, 2).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 7, ..Default::default() },
    ));
    assert!(plan.slicing.len() >= 2, "plan must be sliced for this test");
    let pool = WorkerPool::new(4);
    let reuse = ExecutorConfig { workers: 4, max_subtasks: 0, reuse: true, ..Default::default() };
    let replay = ExecutorConfig { workers: 4, max_subtasks: 0, reuse: false, ..Default::default() };
    for k in 0..4usize {
        let bits: Vec<u8> = (0..n).map(|q| ((k >> (q % 2)) & 1) as u8).collect();
        let (a, sa) = execute_one(&pool, &plan, &bits, &reuse).unwrap();
        let (b, sb) = execute_one(&pool, &plan, &bits, &replay).unwrap();
        assert_eq!(a.data(), b.data(), "stem-only sweep must be bit-identical for {bits:?}");
        assert!(
            sa.flops < sb.flops,
            "reuse must execute fewer flops ({} vs {})",
            sa.flops,
            sb.flops
        );
        assert_eq!(sb.stem_flops, sb.flops, "full replay attributes all work to the stem");
        assert_eq!(sb.branch_flops_reused, 0);
    }
}

#[test]
fn reuse_counters_track_phase_lifetimes() {
    let circuit = RqcConfig::small(3, 3, 8, 3).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 7, ..Default::default() },
    ));
    assert!(plan.slicing.len() >= 2);
    assert!(!plan.branch_built());
    let (branch, frontier, stem_pure, stem_mixed) = plan.classification.contraction_counts();
    assert!(stem_pure + stem_mixed > 0);
    let pool = WorkerPool::new(2);
    let config = ExecutorConfig { workers: 2, max_subtasks: 0, reuse: true, ..Default::default() };
    let bits = vec![0; n];

    // First execution builds the branch cache exactly once…
    let (_, s1) = execute_one(&pool, &plan, &bits, &config).unwrap();
    assert_eq!(s1.branch_contractions, branch as u64);
    assert_eq!(s1.frontier_contractions, frontier as u64);
    assert_eq!(s1.flops, s1.stem_flops + s1.frontier_flops + s1.branch_flops);
    assert!(plan.branch_built());

    // …later executions only pay the frontier and the stem.
    let (_, s2) = execute_one(&pool, &plan, &bits, &config).unwrap();
    assert_eq!(s2.branch_contractions, 0);
    assert_eq!(s2.branch_flops, 0);
    assert_eq!(s2.frontier_contractions, frontier as u64);
    assert_eq!(s2.stem_flops, s1.stem_flops, "per-subtask work is assignment-independent");
    if s1.branch_flops + s1.frontier_flops > 0 && s1.subtasks_run > 1 {
        assert!(s2.branch_flops_reused > 0, "a sliced sweep must reuse branch work");
    }
}

#[test]
fn unsliced_plan_reuses_the_frontier_root() {
    // A loose target means no slicing: the whole contraction is
    // slice-invariant, the single subtask just reads the cached root.
    let circuit = RqcConfig::small(2, 3, 6, 7).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 40, ..Default::default() },
    ));
    assert!(plan.slicing.is_empty());
    let pool = WorkerPool::new(1);
    let config = ExecutorConfig { workers: 1, max_subtasks: 0, reuse: true, ..Default::default() };
    let (result, stats) = execute_one(&pool, &plan, &vec![0; n], &config).unwrap();
    assert_eq!(stats.stem_flops, 0, "nothing depends on a slice assignment");
    assert!(stats.flops > 0);
    let sv = StateVector::simulate(&circuit);
    let expected = sv.amplitude(&vec![0; n]);
    assert!((result.scalar_value() - expected).abs() < 1e-8);
}

#[test]
fn pooled_and_unpooled_sweeps_are_bit_identical() {
    let circuit = RqcConfig::small(3, 3, 8, 5).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 7, ..Default::default() },
    ));
    assert!(plan.slicing.len() >= 2, "plan must be sliced for this test");
    let pool = WorkerPool::new(4);
    let pooled = ExecutorConfig { workers: 4, max_subtasks: 0, reuse: true, pool: true };
    let unpooled = ExecutorConfig { workers: 4, max_subtasks: 0, reuse: true, pool: false };
    for k in 0..4usize {
        let bits: Vec<u8> = (0..n).map(|q| ((k >> (q % 2)) & 1) as u8).collect();
        let (a, sa) = execute_one(&pool, &plan, &bits, &pooled).unwrap();
        let (b, sb) = execute_one(&pool, &plan, &bits, &unpooled).unwrap();
        assert_eq!(a.data(), b.data(), "pooling must be bit-identical for {bits:?}");
        // The first call additionally builds the plan-lifetime branch
        // cache; the per-subtask and per-execution work must agree.
        assert_eq!(sa.stem_flops, sb.stem_flops, "pooling must not change the stem work");
        assert_eq!(sa.frontier_flops, sb.frontier_flops);
        assert_eq!(sb.buffers_allocated, 0, "unpooled runs must not touch the pool");
        assert_eq!(sb.peak_bytes_in_flight, 0);
    }
}

#[test]
fn pool_counters_prove_zero_alloc_steady_state() {
    let circuit = RqcConfig::small(3, 3, 8, 2).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 7, ..Default::default() },
    ));
    assert!(plan.num_subtasks() >= 4);
    let pool = WorkerPool::new(2);
    let config = ExecutorConfig { workers: 2, max_subtasks: 0, reuse: true, pool: true };
    let bits = vec![0; n];
    assert_eq!(plan.pooled_buffers_retained(), 0);

    // Cold pools: each worker allocates exactly the slot count the
    // greedy interval assignment predicted — once, on its first
    // subtask, regardless of how many subtasks it sweeps.
    let (_, s1) = execute_one(&pool, &plan, &bits, &config).unwrap();
    let slots = plan.memory_plan.stem.num_slots() as u64;
    assert!(slots > 0);
    assert_eq!(s1.buffers_allocated, s1.workers as u64 * slots);
    assert!(s1.buffers_reused > 0, "later subtasks must recycle the first subtask's buffers");
    assert_eq!(s1.peak_bytes_in_flight, s1.predicted_peak_bytes);
    assert_eq!(s1.predicted_peak_bytes, plan.memory_plan.stem.peak_bytes());
    assert!(plan.pooled_buffers_retained() > 0, "pools persist on the plan");

    // Warm pools: the steady state allocates nothing at all.
    let (_, s2) = execute_one(&pool, &plan, &bits, &config).unwrap();
    assert_eq!(s2.buffers_allocated, 0, "second execution must be allocation-free");
    assert!(s2.buffers_reused >= s1.buffers_reused);
    assert_eq!(s2.peak_bytes_in_flight, s2.predicted_peak_bytes);
}

#[test]
fn a_pooled_sweep_acquires_one_buffer_per_stem_leaf_and_output() {
    let circuit = RqcConfig::small(3, 3, 8, 2).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 7, ..Default::default() },
    ));
    let cls = &plan.classification;
    let stem_leaves = (plan.tree.nodes().iter().enumerate())
        .filter(|(id, node)| node.is_leaf() && cls.class(*id).is_stem())
        .count() as u64;
    let outputs = cls.run(NodeClass::StemPure).len() as u64;
    assert!(stem_leaves > 0 && outputs > 0);
    let config = ExecutorConfig { workers: 1, max_subtasks: 0, reuse: true, pool: true };
    let (_, stats) = run(&plan, &vec![0; n], &config);
    // Contraction reads its operands in place: a subtask takes its sliced
    // leaves and one output per step from the pool, and nothing else.
    assert_eq!(
        stats.buffers_allocated + stats.buffers_reused,
        stats.subtasks_run as u64 * (stem_leaves + outputs),
        "{stem_leaves} leaves + {outputs} outputs per subtask, no scratch"
    );
}

#[test]
fn unsliced_plan_bypasses_the_buffer_pool() {
    let circuit = RqcConfig::small(2, 3, 6, 7).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 40, ..Default::default() },
    ));
    assert!(plan.slicing.is_empty());
    let pool = WorkerPool::new(1);
    let config = ExecutorConfig { workers: 1, max_subtasks: 0, reuse: true, pool: true };
    let (_, stats) = execute_one(&pool, &plan, &vec![0; n], &config).unwrap();
    // Nothing is slice-dependent: no pooled replay, no pool traffic,
    // and the stem-phase prediction is zero accordingly.
    assert_eq!(stats.buffers_allocated, 0);
    assert_eq!(stats.peak_bytes_in_flight, 0);
    assert_eq!(stats.predicted_peak_bytes, 0);
    assert_eq!(plan.pooled_buffers_retained(), 0);
}

#[test]
fn batched_execution_is_bit_identical_to_a_loop_of_singles() {
    let circuit = RqcConfig::small(3, 3, 8, 2).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 7, ..Default::default() },
    ));
    assert!(plan.slicing.len() >= 2, "plan must be sliced for this test");
    let pool = WorkerPool::new(4);
    let patterns: Vec<Vec<u8>> =
        (0..6usize).map(|k| (0..n).map(|q| ((k >> (q % 3)) & 1) as u8).collect()).collect();
    let batch: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
    for pooled in [true, false] {
        let config = ExecutorConfig { workers: 4, max_subtasks: 0, reuse: true, pool: pooled };
        let (results, stats) = execute(&pool, &plan, &batch, &config).unwrap();
        assert_eq!(results.len(), patterns.len());
        assert_eq!(stats.amplitudes_in_batch, patterns.len() as u64);
        for (bits, batched) in patterns.iter().zip(results.iter()) {
            let (single, _) = execute_one(&pool, &plan, bits, &config).unwrap();
            assert_eq!(
                batched.data(),
                single.data(),
                "batched execution must be bit-identical to a single execute (pooled={pooled})"
            );
        }
    }
}

#[test]
fn batched_pure_prefix_runs_once_per_subtask_regardless_of_batch_size() {
    let circuit = RqcConfig::small(3, 3, 8, 5).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 7, ..Default::default() },
    ));
    assert!(plan.slicing.len() >= 2);
    let (_, _, pure, _) = plan.classification.contraction_counts();
    assert!(pure > 0, "the stem must have a pure prefix for amortization to exist");
    let pool = WorkerPool::new(2);
    let config = ExecutorConfig { workers: 2, max_subtasks: 0, reuse: true, pool: true };
    let mut pure_flops_seen = None;
    for b in [1usize, 4, 16] {
        let patterns: Vec<Vec<u8>> =
            (0..b).map(|k| (0..n).map(|q| ((k >> (q % 4)) & 1) as u8).collect()).collect();
        let batch: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
        let (_, stats) = execute(&pool, &plan, &batch, &config).unwrap();
        assert_eq!(
            stats.stem_pure_contractions,
            (pure * plan.num_subtasks()) as u64,
            "pure contractions must not scale with the batch size (B={b})"
        );
        let pure_flops = stats.stem_pure_flops;
        assert!(pure_flops > 0);
        if let Some(seen) = pure_flops_seen {
            assert_eq!(pure_flops, seen, "pure work is batch-size invariant");
        }
        pure_flops_seen = Some(pure_flops);
        assert_eq!(stats.stem_pure_flops_reused, pure_flops * (b as u64 - 1));
        assert_eq!(stats.amplitudes_in_batch, b as u64);
    }
}

#[test]
fn batched_pooled_peak_matches_the_batched_prediction() {
    let circuit = RqcConfig::small(3, 3, 8, 2).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 7, ..Default::default() },
    ));
    assert!(plan.slicing.len() >= 2);
    let pool = WorkerPool::new(2);
    let config = ExecutorConfig { workers: 2, max_subtasks: 0, reuse: true, pool: true };
    let patterns: Vec<Vec<u8>> =
        (0..8usize).map(|k| (0..n).map(|q| ((k >> (q % 3)) & 1) as u8).collect()).collect();
    let batch: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
    let (_, stats) = execute(&pool, &plan, &batch, &config).unwrap();
    assert_eq!(stats.predicted_peak_bytes, plan.memory_plan.batched_stem.peak_bytes());
    assert_eq!(
        stats.peak_bytes_in_flight, stats.predicted_peak_bytes,
        "the batched lifetime simulation must be exact"
    );
    // A second batch on the warm plan pools allocates nothing.
    let (_, warm) = execute(&pool, &plan, &batch, &config).unwrap();
    assert_eq!(warm.buffers_allocated, 0, "warm batched sweep must be allocation-free");
    assert_eq!(warm.peak_bytes_in_flight, warm.predicted_peak_bytes);
}

#[test]
fn batched_execution_without_reuse_replays_every_bitstring_per_subtask() {
    let circuit = RqcConfig::small(3, 3, 8, 4).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 8, ..Default::default() },
    ));
    let pool = WorkerPool::new(2);
    let reuse = ExecutorConfig { workers: 2, max_subtasks: 0, reuse: true, pool: true };
    let replay = ExecutorConfig { workers: 2, max_subtasks: 0, reuse: false, pool: true };
    let patterns: Vec<Vec<u8>> =
        (0..3usize).map(|k| (0..n).map(|q| ((k >> (q % 2)) & 1) as u8).collect()).collect();
    let batch: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
    let (a, sa) = execute(&pool, &plan, &batch, &reuse).unwrap();
    let (b, sb) = execute(&pool, &plan, &batch, &replay).unwrap();
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.data(), y.data(), "full replay must be bit-identical to the batched path");
    }
    for (bits, y) in batch.iter().zip(b.iter()) {
        let (single, _) = execute(&pool, &plan, &[bits], &replay).unwrap();
        assert_eq!(single[0].data(), y.data(), "a batch must equal its single executions");
    }
    assert_eq!(sb.stem_pure_flops, 0, "the full replay does not classify contractions");
    assert_eq!(sb.amplitudes_in_batch, patterns.len() as u64);
    assert_eq!(sb.subtasks_run, sa.subtasks_run, "one sweep covers the whole batch");
    assert!(sa.flops < sb.flops, "batching must save work over the full replay");
}

#[test]
fn batched_execution_of_an_unsliced_plan_reads_cached_roots() {
    let circuit = RqcConfig::small(2, 3, 6, 7).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 40, ..Default::default() },
    ));
    assert!(plan.slicing.is_empty());
    let pool = WorkerPool::new(1);
    let config = ExecutorConfig { workers: 1, max_subtasks: 0, reuse: true, pool: true };
    let patterns: Vec<Vec<u8>> = vec![vec![0; n], vec![1; n]];
    let batch: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
    let (results, stats) = execute(&pool, &plan, &batch, &config).unwrap();
    assert_eq!(stats.stem_flops, 0);
    assert_eq!(stats.stem_pure_contractions, 0);
    let sv = StateVector::simulate(&circuit);
    for (bits, result) in patterns.iter().zip(results.iter()) {
        assert!((result.scalar_value() - sv.amplitude(bits)).abs() < 1e-8);
    }
}

#[test]
fn empty_batch_is_a_cheap_no_op() {
    let circuit = RqcConfig::small(2, 2, 4, 1).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 20, ..Default::default() },
    ));
    let pool = WorkerPool::new(1);
    let (results, stats) = execute(&pool, &plan, &[], &ExecutorConfig::default()).unwrap();
    assert!(results.is_empty());
    assert_eq!(stats.amplitudes_in_batch, 0);
    assert_eq!(stats.flops, 0);
}

#[test]
fn max_subtasks_limits_work() {
    let circuit = RqcConfig::small(3, 3, 8, 6).build();
    let n = circuit.num_qubits();
    let plan = Arc::new(plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 5, ..Default::default() },
    ));
    assert!(plan.num_subtasks() > 2);
    let (_, stats) = run(
        &plan,
        &vec![0; n],
        &ExecutorConfig { workers: 2, max_subtasks: 2, ..Default::default() },
    );
    assert_eq!(stats.subtasks_run, 2);
    assert!(stats.subtasks_total > 2);
    assert!(stats.seconds_per_subtask >= 0.0);
}

/// Sum of the per-class dispatch counters: every executed contraction
/// lands in exactly one bucket.
fn gemm_total(stats: &ExecutionStats) -> u64 {
    stats.gemm_micro + stats.gemm_gemv + stats.gemm_narrow + stats.gemm_blocked
}

#[test]
fn gemm_dispatch_counters_cover_every_contraction() {
    let circuit = RqcConfig::small(3, 3, 8, 2).build();
    let n = circuit.num_qubits();
    let make_plan = || {
        Arc::new(plan_simulation(
            &circuit,
            &OutputSpec::Amplitude(vec![0; n]),
            &PlannerConfig { target_rank: 8, ..Default::default() },
        ))
    };

    // Reuse path: branch (built once) + frontier + stem-per-subtask.
    let plan = make_plan();
    let bits = vec![0; n];
    let (_, stats) = run(&plan, &bits, &ExecutorConfig { workers: 2, ..Default::default() });
    let stem = plan.classification.run(NodeClass::StemPure).len() as u64;
    let stem = stem * stats.subtasks_run as u64;
    assert_eq!(gemm_total(&stats), stats.branch_contractions + stats.frontier_contractions + stem,);
    assert!(stats.gemm_simd <= gemm_total(&stats));
    assert!(matches!(stats.simd_level, "scalar" | "neon" | "avx2-fma" | "avx512"));
    assert_eq!(stats.simd_level, qtn_tensor::simd_level().as_str());
    // At the scalar level no contraction may count as SIMD; at a SIMD
    // level the dominant blocked/micro/narrow dispatches must.
    if qtn_tensor::simd_level() == qtn_tensor::SimdLevel::Scalar {
        assert_eq!(stats.gemm_simd, 0);
    }

    // Full replay: every tree contraction, every subtask — same buckets.
    let plan = make_plan();
    let (_, full) =
        run(&plan, &bits, &ExecutorConfig { workers: 2, reuse: false, ..Default::default() });
    assert_eq!(gemm_total(&full), plan.tree.schedule().len() as u64 * full.subtasks_run as u64,);

    // The tally derives from frozen kernel plans, so it is deterministic
    // across repeated executions (later runs just drop the branch part).
    let plan = make_plan();
    let config = ExecutorConfig { workers: 2, ..Default::default() };
    let (_, first) = run(&plan, &bits, &config);
    let (_, second) = run(&plan, &bits, &config);
    assert_eq!(
        gemm_total(&second) + first.branch_contractions,
        gemm_total(&first),
        "second execution re-dispatches everything but the cached branch"
    );
}

#[test]
fn gemm_shape_histogram_matches_full_replay_dispatch() {
    let circuit = RqcConfig::small(3, 3, 8, 3).build();
    let n = circuit.num_qubits();
    let plan = plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 8, ..Default::default() },
    );
    let hist = plan.gemm_shape_histogram();
    assert!(!hist.is_empty());
    // Total weighted count = tree contractions with stem steps repeated
    // per subtask — exactly what a full reusing execution dispatches.
    let total: u64 = hist.iter().map(|&(_, c)| c).sum();
    let stem = plan.classification.run(NodeClass::StemPure).len() as u64;
    let non_stem = plan.tree.schedule().len() as u64 - stem;
    assert_eq!(total, non_stem + stem * plan.num_subtasks() as u64);
    // Sorted by descending total flops.
    let flops: Vec<u64> =
        hist.iter().map(|&((m, n, k), c)| qtn_tensor::gemm::gemm_flops(m, n, k) * c).collect();
    assert!(flops.windows(2).all(|w| w[0] >= w[1]));
    // All bond dimensions are 2: every shape is a power of two.
    for &((m, n, k), _) in &hist {
        assert!(m.is_power_of_two() && n.is_power_of_two() && k.is_power_of_two());
    }
}

#[test]
fn unaddressable_slicing_sets_are_a_typed_error() {
    // Hand-build a slicing set of `usize::BITS` edges: `2^|S|` no longer
    // fits a usize, so the sweep must be refused before any worker starts
    // instead of wrapping the shift into "1 subtask" and a wrong answer.
    let circuit = RqcConfig::small(2, 2, 4, 1).build();
    let n = circuit.num_qubits();
    let mut plan = plan_simulation(
        &circuit,
        &OutputSpec::Amplitude(vec![0; n]),
        &PlannerConfig { target_rank: 20, ..Default::default() },
    );
    let wide = usize::BITS as usize;
    // Ids the network never uses: no leaf carries them, so only the count
    // matters.
    let fake_edges = (0..wide as u32).map(|i| 1_000_000 + i).collect();
    plan.slicing = qtn_slicing::SlicingPlan::new(fake_edges, 20);
    assert_eq!(plan.num_subtasks(), usize::MAX, "the plan-side count saturates");
    let plan = Arc::new(plan);
    let pool = WorkerPool::new(1);
    let bits = vec![0u8; n];
    for reuse in [true, false] {
        let config = ExecutorConfig { workers: 1, max_subtasks: 4, reuse, pool: true };
        let single = execute_one(&pool, &plan, &bits, &config);
        assert_eq!(single.unwrap_err(), Error::TooManySlicedEdges { sliced: wide });
        let batched = execute(&pool, &plan, &[&bits, &bits], &config);
        assert_eq!(batched.unwrap_err(), Error::TooManySlicedEdges { sliced: wide });
    }
    assert!(!plan.branch_built(), "nothing may run before the refusal");
}

#[test]
fn executed_flops_equal_the_programs_static_bill() {
    // (rows, cols, cycles, seed, target rank, open qubits): sliced, heavily
    // sliced, unsliced and open-output plans.
    type Case = (usize, usize, usize, u64, usize, &'static [usize]);
    let cases: [Case; 6] = [
        (3, 3, 8, 2, 7, &[]),
        (3, 3, 8, 4, 8, &[]),
        (3, 4, 10, 5, 8, &[]),
        (3, 3, 8, 6, 5, &[]),
        (2, 3, 6, 7, 40, &[]),
        (2, 3, 6, 5, 7, &[0, 1]),
    ];
    let pool = WorkerPool::new(2);
    let config = ExecutorConfig { workers: 2, ..Default::default() };
    for (rows, cols, cycles, seed, target_rank, open) in cases {
        let circuit = RqcConfig::small(rows, cols, cycles, seed).build();
        let n = circuit.num_qubits();
        let output = match open {
            [] => OutputSpec::Amplitude(vec![0; n]),
            open => OutputSpec::Open { fixed: vec![0; n], open: open.to_vec() },
        };
        let planner = PlannerConfig { target_rank, ..Default::default() };
        let plan = Arc::new(plan_simulation(&circuit, &output, &planner));
        let [branch, frontier, pure, mixed] =
            Program::compile(&plan).unwrap().bills.map(|b| b.flops);
        let case = format!("{rows}x{cols}x{cycles} seed {seed} at rank {target_rank}");

        // A cold single execution runs every branch step once, every
        // frontier step once and every stem step once per subtask.
        let (_, cold) = execute_one(&pool, &plan, &vec![0; n], &config).unwrap();
        let runs = cold.subtasks_run as u64;
        assert_eq!(cold.flops, branch + frontier + runs * (pure + mixed), "{case}");

        // A batch runs the StemPure steps once per subtask and bills every
        // StemMixed step once per subtask and bitstring, executed or
        // skipped by the keyed loop.
        let bits: Vec<Vec<u8>> =
            (0..8usize).map(|k| (0..n).map(|q| ((k >> (q % 3)) & 1) as u8).collect()).collect();
        let batch: Vec<&[u8]> = bits.iter().map(Vec::as_slice).collect();
        let (_, stats) = execute(&pool, &plan, &batch, &config).unwrap();
        assert_eq!(
            stats.stem_pure_flops + stats.stem_mixed_flops + stats.stem_mixed_flops_reused,
            runs * (pure + batch.len() as u64 * mixed),
            "{case}"
        );
        assert_eq!(stats.flops, stats.frontier_flops + stats.stem_flops, "{case}: warm store");
        assert!(stats.frontier_flops <= batch.len() as u64 * frontier, "{case}");
    }
}

#[test]
fn the_branch_store_and_the_frontier_arena_hold_what_the_memory_plan_prices() {
    // (rows, cols, cycles, seed, target rank): the pinned 3x4x10 plan, a
    // sliced and an unsliced small plan, and the `amp-m20` plan.
    let cases = [(3, 4, 10, 5, 8), (3, 3, 8, 2, 7), (2, 3, 6, 7, 40), (4, 5, 12, 5, 14)];
    let bytes = |elements: usize| elements as u64 * BYTES_PER_AMPLITUDE;
    let (mut branch_seen, mut keys_seen) = (false, false);
    for (rows, cols, cycles, seed, target_rank) in cases {
        let circuit = RqcConfig::small(rows, cols, cycles, seed).build();
        let n = circuit.num_qubits();
        let planner = PlannerConfig { target_rank, ..Default::default() };
        let plan = plan_simulation(&circuit, &OutputSpec::Amplitude(vec![0; n]), &planner);
        let (memory, cls) = (&plan.memory_plan, &plan.classification);
        let case = format!("{rows}x{cols}x{cycles}/{target_rank}");
        assert!(!cls.run(NodeClass::Frontier).is_empty(), "{case}: the plan needs a frontier");

        // A single execution's arena holds every Frontier output once.
        let single = prepare_reuse(&plan, &[&vec![0; n]]).unwrap();
        assert_eq!(bytes(single.arena.len()), memory.frontier_bytes, "{case}");

        // A batch's arena holds each output once per distinct key.
        let bits: Vec<Vec<u8>> =
            (0..8usize).map(|k| (0..n).map(|q| ((k >> (q % 3)) & 1) as u8).collect()).collect();
        let batch: Vec<&[u8]> = bits.iter().map(Vec::as_slice).collect();
        let batched = prepare_reuse(&plan, &batch).unwrap();
        let keyed = cls.run(NodeClass::Frontier).iter().map(|&(_, _, out)| {
            let distinct = batched.keys.distinct(out) as u64;
            keys_seen |= distinct > 1;
            bytes_of_rank(plan.tree.node(out).indices.len()) * distinct
        });
        assert_eq!(bytes(batched.arena.len()), keyed.sum::<u64>(), "{case}");

        // The store keeps the kept roots, never more than its build's peak.
        let kept: u64 = single.store.entries.iter().flatten().map(|entry| bytes(entry.len())).sum();
        assert!(
            kept <= memory.branch_bytes,
            "{case}: {kept} B kept, {} B priced",
            memory.branch_bytes
        );
        branch_seen |= kept > 0;
    }
    assert!(branch_seen && keys_seen, "some case must build a store and key a frontier");
}
