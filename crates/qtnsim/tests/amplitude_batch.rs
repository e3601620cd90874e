//! Integration tests for batched multi-amplitude execution: the four-class
//! reuse lattice must make `execute_amplitudes` an *invisible* optimisation
//! — bit-identical to a loop of single executions, pooled and unpooled —
//! while its counters prove the amortization (the StemPure prefix runs
//! exactly once per subtask regardless of batch size) and the memory
//! plan's batched stem predicts the pooled peak exactly.

use qtnsim::circuit::{Gate, OutputSpec, RqcConfig};
use qtnsim::tensornet::{NodeClass, NodeClassification};
use qtnsim::{Circuit, Engine, ExecutorConfig, PlannerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A 12-qubit RQC whose plan slices 4 edges at target rank 8 (16 subtasks).
fn sliced_circuit() -> Circuit {
    RqcConfig::small(3, 4, 10, 5).build()
}

fn planner() -> PlannerConfig {
    PlannerConfig { target_rank: 8, ..Default::default() }
}

fn executor(pool: bool) -> ExecutorConfig {
    ExecutorConfig { workers: 4, max_subtasks: 0, reuse: true, pool }
}

/// The StemMixed contraction outputs: the stem run filtered by class.
fn mixed_outputs(cls: &NodeClassification) -> Vec<usize> {
    let stem = cls.run(NodeClass::StemMixed).iter().map(|&(_, _, out)| out);
    stem.filter(|&out| cls.class(out) == NodeClass::StemMixed).collect()
}

fn random_bitstrings(n: usize, count: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| (0..n).map(|_| rng.gen_range(0..2u32) as u8).collect()).collect()
}

#[test]
fn batched_is_bit_identical_to_sequential_pooled_and_unpooled() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let bitstrings = random_bitstrings(n, 32, 42);

    for pool in [true, false] {
        let engine = Engine::with_configs(planner(), executor(pool));
        let compiled = engine.compile(&circuit, &spec).unwrap();
        assert_eq!(compiled.plan().slicing.len(), 4, "this configuration slices |S| = 4 edges");

        let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
        let (amps, report) = compiled.execute_amplitudes(&batch).unwrap();
        assert_eq!(amps.len(), 32);
        assert_eq!(report.stats.amplitudes_in_batch, 32);

        // The sequential loop the batch replaces, on the *same* compiled
        // plan (sharing the branch cache), must agree bit for bit.
        for (bits, batched) in bitstrings.iter().zip(amps.iter()) {
            let (single, _) = compiled.execute_amplitude(bits).unwrap();
            assert_eq!(
                single, *batched,
                "batched amplitude must be bit-identical for {bits:?} (pool={pool})"
            );
        }
    }
}

#[test]
fn pure_prefix_runs_once_per_subtask_regardless_of_batch_size() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let engine = Engine::with_configs(planner(), executor(true));
    let compiled = engine.compile(&circuit, &spec).unwrap();
    let subtasks = compiled.plan().num_subtasks();
    let (_, _, pure, mixed) = compiled.plan().classification.contraction_counts();
    assert!(pure > 0, "the stem must have a StemPure prefix worth amortizing");
    assert!(mixed > 0, "projectors join the sliced spine somewhere");

    let mut pure_flops = None;
    for batch_size in [1usize, 8, 32] {
        let bitstrings = random_bitstrings(n, batch_size, batch_size as u64);
        let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
        let (_, report) = compiled.execute_amplitudes(&batch).unwrap();
        let stats = &report.stats;
        assert_eq!(
            stats.stem_pure_contractions,
            (pure * subtasks) as u64,
            "StemPure contractions must run exactly once per subtask (B={batch_size})"
        );
        assert!(stats.stem_pure_flops > 0);
        if let Some(seen) = pure_flops {
            assert_eq!(stats.stem_pure_flops, seen, "pure work is batch-size invariant");
        }
        pure_flops = Some(stats.stem_pure_flops);
        assert_eq!(
            stats.stem_pure_flops_reused,
            stats.stem_pure_flops * (batch_size as u64 - 1),
            "a loop of singles would replay the prefix per bitstring"
        );
        assert_eq!(stats.amplitudes_in_batch, batch_size as u64);
        // The frontier absorbs the rebound bits, but its subtrees dedup
        // across the batch: each contraction runs once per *distinct*
        // key, bounded by one full build below and one per bitstring
        // above.
        let (_, single) = compiled.execute_amplitude(&bitstrings[0]).unwrap();
        assert!(stats.frontier_contractions >= single.stats.frontier_contractions);
        assert!(
            stats.frontier_contractions <= single.stats.frontier_contractions * batch_size as u64
        );
        if batch_size > 1 {
            assert!(
                stats.frontier_contractions
                    < single.stats.frontier_contractions * batch_size as u64,
                "a batch of near-identical bitstrings must dedup some frontier work"
            );
        }
        // Phase split stays exhaustive.
        assert_eq!(
            stats.flops,
            stats.stem_flops + stats.frontier_flops + stats.branch_flops,
            "per-phase flop split must add up"
        );
    }
}

#[test]
fn batched_pooled_peak_matches_prediction_and_stays_zero_alloc() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let engine = Engine::with_configs(planner(), executor(true));
    let compiled = engine.compile(&circuit, &spec).unwrap();
    let bitstrings = random_bitstrings(n, 16, 7);
    let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();

    let (_, cold) = compiled.execute_amplitudes(&batch).unwrap();
    assert_eq!(
        cold.stats.predicted_peak_bytes,
        compiled.plan().predicted_batched_peak_bytes(),
        "batched executions are checked against the batched stem's peak"
    );
    assert_eq!(
        cold.stats.peak_bytes_in_flight, cold.stats.predicted_peak_bytes,
        "the batched acquire/release sequence must mirror the simulation exactly"
    );
    // A cold pool opens exactly the batched phase's slots on each worker.
    let slots = compiled.plan().memory_plan.batched_stem.num_slots() as u64;
    assert!(slots > 0);
    assert_eq!(cold.stats.buffers_allocated, cold.stats.workers as u64 * slots);

    // Warm batched sweep: the steady state allocates nothing, and the peak
    // stays exactly at the prediction.
    let (_, warm) = compiled.execute_amplitudes(&batch).unwrap();
    assert_eq!(warm.stats.buffers_allocated, 0, "warm batched sweep must be allocation-free");
    assert!(warm.stats.buffers_reused > 0);
    assert_eq!(warm.stats.peak_bytes_in_flight, warm.stats.predicted_peak_bytes);

    // Batching holds the StemPure keep set across the bitstring loop, so
    // its peak can only meet or exceed the single-execution stem phase.
    assert!(
        compiled.plan().predicted_batched_peak_bytes()
            >= compiled.plan().memory_plan.stem.peak_bytes()
    );
}

#[test]
fn unsliced_plans_batch_too() {
    // A loose target leaves the plan unsliced: the batch degenerates to one
    // frontier build per bitstring reading the cached root.
    let circuit = RqcConfig::small(2, 3, 6, 9).build();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(
        PlannerConfig { target_rank: 40, ..Default::default() },
        executor(true),
    );
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    assert!(compiled.plan().slicing.is_empty());
    let bitstrings = random_bitstrings(n, 8, 3);
    let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
    let (amps, report) = compiled.execute_amplitudes(&batch).unwrap();
    assert_eq!(report.stats.stem_flops, 0, "nothing depends on a slice assignment");
    let sv = qtnsim::statevector::StateVector::simulate(&circuit);
    for (bits, amp) in bitstrings.iter().zip(amps.iter()) {
        assert!((*amp - sv.amplitude(bits)).abs() < 1e-8, "amplitude mismatch for {bits:?}");
    }
}

#[test]
fn batched_amortization_beats_the_sequential_flop_bill() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let engine = Engine::with_configs(planner(), executor(true));
    let compiled = engine.compile(&circuit, &spec).unwrap();
    let bitstrings = random_bitstrings(n, 32, 17);
    let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();

    // Warm the branch cache so both sides price steady-state work.
    compiled.execute_amplitude(&bitstrings[0]).unwrap();
    let (_, batched) = compiled.execute_amplitudes(&batch).unwrap();
    let singles: Vec<_> =
        bitstrings.iter().map(|bits| compiled.execute_amplitude(bits).unwrap().1.stats).collect();
    let sequential: u64 = singles.iter().map(|s| s.flops).sum();
    assert!(
        batched.stats.flops < sequential,
        "batching must execute fewer flops ({} vs {})",
        batched.stats.flops,
        sequential
    );
    // The stem-side saving is exactly the replayed StemPure work plus the
    // keyed-cache StemMixed skips; the frontier dedup saves on top of it.
    let sequential_stem: u64 = singles.iter().map(|s| s.stem_flops).sum();
    assert_eq!(
        batched.stats.stem_flops
            + batched.stats.stem_pure_flops_reused
            + batched.stats.stem_mixed_flops_reused,
        sequential_stem,
        "what the batched stem saved is exactly the replayed StemPure and deduped StemMixed work"
    );
    assert!(
        batched.stats.stem_mixed_flops_reused > 0,
        "32 bitstrings over narrow mixed cones must dedup some StemMixed work"
    );
    let sequential_frontier: u64 = singles.iter().map(|s| s.frontier_flops).sum();
    assert!(
        batched.stats.frontier_flops < sequential_frontier,
        "frontier dedup must save work across 32 bitstrings"
    );
}

/// A 10-qubit GHZ-style ladder (CNOT chain, then a T/CZ brickwork layer,
/// then Hadamards) planned at target rank 2: the mixed suffix's dependency
/// cones span widths 1 through all 10 output qubits, exercising the keyed
/// dedup from single-projector joins up to the fully dependent root.
fn ladder_circuit(n: usize) -> Circuit {
    let mut circuit = Circuit::new(n);
    circuit.push1(Gate::H, 0);
    for q in 0..n - 1 {
        circuit.push2(Gate::Cnot, q, q + 1);
    }
    for q in 0..n - 1 {
        circuit.push1(Gate::T, q);
        circuit.push2(Gate::Cz, q, q + 1);
    }
    for q in 0..n {
        circuit.push1(Gate::H, q);
    }
    circuit
}

#[test]
fn mixed_cones_from_one_qubit_to_full_output_stay_bit_identical() {
    let n = 10;
    let circuit = ladder_circuit(n);
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let bitstrings = random_bitstrings(n, 16, 23);

    for pool in [true, false] {
        let engine = Engine::with_configs(
            PlannerConfig { target_rank: 2, ..Default::default() },
            executor(pool),
        );
        let compiled = engine.compile(&circuit, &spec).unwrap();
        let plan = compiled.plan();
        let masks = plan.classification.projector_masks();
        let widths: Vec<usize> =
            mixed_outputs(&plan.classification).iter().map(|&out| masks.popcount(out)).collect();
        assert!(widths.contains(&1), "a single-projector join must be StemMixed: {widths:?}");
        assert!(
            widths.iter().any(|&w| w > 1 && w < n),
            "an intermediate-width cone must be StemMixed: {widths:?}"
        );
        assert!(widths.contains(&n), "the root depends on every output qubit: {widths:?}");

        let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
        let (amps, report) = compiled.execute_amplitudes(&batch).unwrap();
        assert!(
            report.stats.stem_mixed_flops_reused > 0,
            "narrow cones see at most 2^w distinct keys, so B=16 must dedup (pool={pool})"
        );
        if pool {
            assert_eq!(
                report.stats.peak_bytes_in_flight, report.stats.predicted_peak_bytes,
                "keyed suffix must still hit the predicted peak exactly"
            );
        }
        for (bits, batched) in bitstrings.iter().zip(amps.iter()) {
            let (single, _) = compiled.execute_amplitude(bits).unwrap();
            assert_eq!(
                single, *batched,
                "batched amplitude must be bit-identical for {bits:?} (pool={pool})"
            );
        }
    }
}

#[test]
fn each_distinct_subtask_key_contraction_runs_exactly_once_on_nested_cones() {
    // This 9-qubit RQC's mixed dependency masks are totally ordered by
    // containment (a chain), so the cost-weighted narrowest-first sort
    // groups *every* mixed node perfectly: contraction counts must hit the
    // distinct-key floor exactly, at any batch size.
    let circuit = RqcConfig::small(3, 3, 8, 13).build();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let engine = Engine::with_configs(
        PlannerConfig { target_rank: 7, ..Default::default() },
        executor(true),
    );
    let compiled = engine.compile(&circuit, &spec).unwrap();
    let plan = compiled.plan();
    let masks = plan.classification.projector_masks();
    let cones: Vec<Vec<usize>> = (mixed_outputs(&plan.classification).iter())
        .map(|&out| masks.ordinals(out).collect())
        .collect();
    for a in &cones {
        for b in &cones {
            assert!(
                a.iter().all(|o| b.contains(o)) || b.iter().all(|o| a.contains(o)),
                "test premise: masks form a chain"
            );
        }
    }
    let sched_len = mixed_outputs(&plan.classification).len() as u64;
    let subtasks = plan.num_subtasks() as u64;

    for batch_size in [8usize, 64] {
        let bitstrings = random_bitstrings(n, batch_size, 1000 + batch_size as u64);
        let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
        let (_, report) = compiled.execute_amplitudes(&batch).unwrap();
        let stats = &report.stats;
        assert!(stats.stem_mixed_distinct_keys > 0);
        assert!(stats.stem_mixed_distinct_keys <= sched_len * batch_size as u64);
        assert_eq!(
            stats.stem_mixed_contractions,
            stats.stem_mixed_distinct_keys * subtasks,
            "each distinct (subtask, dependent-bits) contraction runs exactly once (B={batch_size})"
        );
        assert_eq!(
            stats.stem_mixed_contractions + stats.stem_mixed_contractions_deduped,
            sched_len * batch_size as u64 * subtasks,
            "executed + skipped must cover the per-bitstring mixed bill (B={batch_size})"
        );
        assert_eq!(
            stats.stem_mixed_flops,
            stats.stem_flops - stats.stem_pure_flops,
            "executed mixed flops split exactly off the stem total"
        );
        if batch_size == 64 {
            assert!(
                stats.stem_mixed_contractions_deduped > 0,
                "64 random bitstrings over narrow nested cones must repeat keys"
            );
        }
    }
}
