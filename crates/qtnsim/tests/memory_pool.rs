//! Integration tests for the memory plan and the pooled
//! zero-allocation stem sweep: pooling must be an *invisible* optimisation
//! (bit-identical amplitudes), the pool counters must prove the
//! zero-allocation steady state, and the plan-time peak prediction must
//! bound — in fact match — the measured buffer traffic.

use qtnsim::circuit::{OutputSpec, RqcConfig};
use qtnsim::{Circuit, Engine, ExecutorConfig, PlannerConfig};

/// The stem_reuse test plan: a 12-qubit RQC slicing |S| = 4 edges at
/// target rank 8 (16 subtasks per execution).
fn sliced_circuit() -> Circuit {
    RqcConfig::small(3, 4, 10, 5).build()
}

fn planner() -> PlannerConfig {
    PlannerConfig { target_rank: 8, ..Default::default() }
}

fn executor(pool: bool) -> ExecutorConfig {
    ExecutorConfig { workers: 4, max_subtasks: 0, reuse: true, pool }
}

fn bitstrings(n: usize, count: usize) -> Vec<Vec<u8>> {
    (0..count).map(|k| (0..n).map(|q| ((k >> (q % 5)) & 1) as u8).collect()).collect()
}

#[test]
fn pooled_and_unpooled_are_bit_identical_over_16_bitstrings() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);

    let pooled = Engine::with_configs(planner(), executor(true));
    let unpooled = Engine::with_configs(planner(), executor(false));
    let a = pooled.compile(&circuit, &spec).unwrap();
    let b = unpooled.compile(&circuit, &spec).unwrap();
    assert_eq!(a.plan().num_subtasks(), 16);

    for bits in bitstrings(n, 16) {
        let (pa, ra) = a.execute_amplitude(&bits).unwrap();
        let (pb, rb) = b.execute_amplitude(&bits).unwrap();
        assert_eq!(pa, pb, "pooled execution must be bit-identical for {bits:?}");
        assert_eq!(ra.stats.stem_flops, rb.stats.stem_flops, "pooling changes no work");
        assert!(ra.stats.buffers_reused > 0, "a 16-subtask sweep must recycle buffers");
        assert_eq!(rb.stats.buffers_allocated, 0, "unpooled runs never touch the pool");
        assert_eq!(rb.stats.peak_bytes_in_flight, 0);
    }
}

#[test]
fn pooled_open_batches_are_bit_identical() {
    // Open outputs exercise the non-scalar root path: the root buffer is
    // recycled through the pool while its stacked copy feeds the output.
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Open { fixed: vec![0; n], open: vec![0, 3, 7] };
    let pooled = Engine::with_configs(planner(), executor(true));
    let unpooled = Engine::with_configs(planner(), executor(false));
    let a = pooled.compile(&circuit, &spec).unwrap();
    let b = unpooled.compile(&circuit, &spec).unwrap();
    for k in 0..4u8 {
        let fixed: Vec<u8> = (0..n).map(|q| (k >> (q % 2)) & 1).collect();
        let (ba, _) = a.execute_batch(&fixed).unwrap();
        let (bb, _) = b.execute_batch(&fixed).unwrap();
        assert_eq!(ba.data(), bb.data(), "pooled open batch must be bit-identical");
    }
    // Sampling rides on the same pooled path.
    let (sa, _) = a.sample(&vec![0; n], 32, 11).unwrap();
    let (sb, _) = b.sample(&vec![0; n], 32, 11).unwrap();
    assert_eq!(sa, sb);
}

#[test]
fn steady_state_sweeps_allocate_nothing() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    // Three slicing depths of the same circuit: |S| = 2, 4 and 6, i.e. 4,
    // 16 and 64 subtasks per execution.
    for (target_rank, sliced_edges) in [(10, 2), (8, 4), (6, 6)] {
        let engine = Engine::with_configs(
            PlannerConfig { target_rank, ..Default::default() },
            executor(true),
        );
        let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
        let plan = compiled.plan();
        assert_eq!(plan.slicing.len(), sliced_edges, "target rank {target_rank}");
        let slots = plan.memory_plan.stem.num_slots() as u64;
        assert!(slots > 0);

        // The first execution warms each worker's pool on its first
        // subtask: exactly the predicted slot count per worker, nothing
        // more — even though each worker sweeps several subtasks.
        let (_, first) = compiled.execute_amplitude(&vec![0; n]).unwrap();
        assert_eq!(first.stats.buffers_allocated, first.stats.workers as u64 * slots);
        assert!(first.stats.buffers_reused > 0);

        // Pools persist on the compiled plan: every later execution — here
        // a 16-bitstring sweep — allocates zero buffers.
        for bits in bitstrings(n, 16) {
            let (_, report) = compiled.execute_amplitude(&bits).unwrap();
            assert_eq!(
                report.stats.buffers_allocated, 0,
                "steady-state execution at |S| = {sliced_edges} must be allocation-free for \
                 {bits:?}"
            );
            assert!(report.stats.buffers_reused >= first.stats.buffers_reused);
        }
    }
}

#[test]
fn measured_peak_never_exceeds_the_prediction() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(planner(), executor(true));
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    let predicted = compiled.plan().memory_plan.stem.peak_bytes();
    assert!(predicted > 0);
    assert_eq!(compiled.plan().predicted_peak_bytes(), compiled.plan().memory_plan.peak_bytes());

    for bits in bitstrings(n, 8) {
        let (_, report) = compiled.execute_amplitude(&bits).unwrap();
        assert_eq!(report.stats.predicted_peak_bytes, predicted);
        assert!(
            report.stats.peak_bytes_in_flight <= report.stats.predicted_peak_bytes,
            "measured peak {} exceeds prediction {}",
            report.stats.peak_bytes_in_flight,
            report.stats.predicted_peak_bytes
        );
        // The memory plan mirrors the executor exactly, so the bound is
        // tight, not just safe.
        assert_eq!(report.stats.peak_bytes_in_flight, predicted);
    }
}

#[test]
fn slot_assignment_respects_live_set_maxima() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(planner(), executor(true));
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    let memory = &compiled.plan().memory_plan;
    // A cold pool opens a buffer only when every buffer of its size class
    // is live, so each worker allocates exactly the planned slots: the
    // per-class live-set maxima of the phase it runs.
    let (_, single) = compiled.execute_amplitude(&vec![0; n]).unwrap();
    let slots = memory.stem.num_slots() as u64;
    assert_eq!(single.stats.buffers_allocated, single.stats.workers as u64 * slots);
    // Pools persist on the plan, so the batched run needs a plan of its own.
    let bitstrings = bitstrings(n, 8);
    let batch: Vec<&[u8]> = bitstrings.iter().map(Vec::as_slice).collect();
    let cold = Engine::with_configs(planner(), executor(true))
        .compile(&circuit, &OutputSpec::Amplitude(vec![0; n]))
        .unwrap();
    let (_, batched) = cold.execute_amplitudes(&batch).unwrap();
    let slots = cold.plan().memory_plan.batched_stem.num_slots() as u64;
    assert_eq!(batched.stats.buffers_allocated, batched.stats.workers as u64 * slots);
    // The plan-level peak is the worst home.
    let worst = memory.branch_bytes.max(memory.frontier_bytes).max(memory.stem.peak_bytes());
    assert_eq!(memory.peak_bytes(), worst);
}

#[test]
fn memory_budget_is_enforced_end_to_end() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    // Compile checks the larger of a single and a batched execution's peak.
    let compiled =
        Engine::with_configs(planner(), executor(true)).compile(&circuit, &spec).unwrap();
    let plan = compiled.plan();
    let predicted = plan.predicted_peak_bytes().max(plan.predicted_batched_peak_bytes());
    let budgeted = Engine::with_configs(
        PlannerConfig { memory_budget_bytes: Some(predicted / 2), ..planner() },
        executor(true),
    );
    match budgeted.compile(&circuit, &spec) {
        Err(qtnsim::Error::MemoryBudgetExceeded { predicted_bytes, budget_bytes }) => {
            assert_eq!(predicted_bytes, predicted);
            assert_eq!(budget_bytes, predicted / 2);
        }
        other => panic!("expected MemoryBudgetExceeded, got {other:?}"),
    }
}

/// A batched execution holds the StemPure keep set across the whole batch,
/// so its per-worker peak can exceed a single execution's — on the 20-qubit
/// 4x5x12 plan at target rank 14, 4,197,904 bytes against 2,360,320. A
/// budget equal to the single-execution peak must refuse that plan and
/// report the batched peak; one equal to the batched peak admits it.
#[test]
fn memory_budget_covers_batched_executions() {
    let circuit = RqcConfig::small(4, 5, 12, 5).build();
    let spec = OutputSpec::Amplitude(vec![0; circuit.num_qubits()]);
    let planner = PlannerConfig { target_rank: 14, ..Default::default() };
    let budgeted = |budget: u64| {
        Engine::with_configs(
            PlannerConfig { memory_budget_bytes: Some(budget), ..planner.clone() },
            executor(true),
        )
    };
    let compiled =
        Engine::with_configs(planner.clone(), executor(true)).compile(&circuit, &spec).unwrap();
    let single = compiled.plan().predicted_peak_bytes();
    let batched = compiled.plan().predicted_batched_peak_bytes();
    assert!(batched > single, "batched peak {batched} should exceed the single peak {single}");
    assert_eq!(
        budgeted(single).compile(&circuit, &spec).unwrap_err(),
        qtnsim::Error::MemoryBudgetExceeded { predicted_bytes: batched, budget_bytes: single }
    );
    assert!(budgeted(batched).compile(&circuit, &spec).is_ok());
}
