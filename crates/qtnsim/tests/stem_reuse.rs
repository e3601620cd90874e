//! Integration tests for the stem-only slice sweep: the two-level
//! partial-contraction reuse layer must be an *invisible* optimisation —
//! bit-identical results, strictly less work — and its phase counters must
//! track the documented lifetimes (branch cache once per compiled plan,
//! frontier once per execution, stem per subtask).

use qtnsim::circuit::{OutputSpec, RqcConfig};
use qtnsim::{Circuit, Engine, ExecutorConfig, PlannerConfig};

/// A 12-qubit RQC whose plan slices 4 edges at target rank 8 (16 subtasks).
fn sliced_circuit() -> Circuit {
    RqcConfig::small(3, 4, 10, 5).build()
}

fn planner() -> PlannerConfig {
    PlannerConfig { target_rank: 8, ..Default::default() }
}

fn executor(reuse: bool) -> ExecutorConfig {
    ExecutorConfig { workers: 4, max_subtasks: 0, reuse, ..Default::default() }
}

fn bitstrings(n: usize, count: usize) -> Vec<Vec<u8>> {
    (0..count).map(|k| (0..n).map(|q| ((k >> (q % 5)) & 1) as u8).collect()).collect()
}

#[test]
fn stem_only_sweep_is_bit_identical_to_full_replay() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);

    let reuse_engine = Engine::with_configs(planner(), executor(true));
    let replay_engine = Engine::with_configs(planner(), executor(false));
    let reuse = reuse_engine.compile(&circuit, &spec).unwrap();
    let replay = replay_engine.compile(&circuit, &spec).unwrap();

    // The paper-faithful regime: a genuinely sliced plan.
    assert!(reuse.plan().slicing.len() >= 3, "plan must slice at least 3 edges");
    assert_eq!(reuse.plan().slicing.len(), 4, "this configuration slices |S| = 4 edges");
    assert_eq!(reuse.plan().num_subtasks(), 16);
    assert_eq!(reuse.plan().pairs, replay.plan().pairs, "planning is deterministic");

    for bits in bitstrings(n, 16) {
        let (a, ra) = reuse.execute_amplitude(&bits).unwrap();
        let (b, rb) = replay.execute_amplitude(&bits).unwrap();
        assert_eq!(a, b, "stem-only sweep must be bit-identical for {bits:?}");
        assert!(
            ra.stats.flops < rb.stats.flops,
            "reuse must do strictly less work ({} vs {} flops)",
            ra.stats.flops,
            rb.stats.flops
        );
        // Per-subtask work drops: only the stem is replayed.
        assert!(ra.stats.stem_flops / 16 < rb.stats.flops / 16);
        assert!(ra.stats.branch_flops_reused > 0);
        assert_eq!(rb.stats.branch_flops_reused, 0, "full replay reuses nothing");
    }
}

#[test]
fn branch_cache_builds_once_per_compile_and_frontier_once_per_execute() {
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Amplitude(vec![0; n]);
    let engine = Engine::with_configs(planner(), executor(true));
    let compiled = engine.compile(&circuit, &spec).unwrap();
    let (branch, frontier, stem_pure, stem_mixed) =
        compiled.plan().classification.contraction_counts();
    let stem = stem_pure + stem_mixed;
    assert!(branch > 0 && frontier > 0 && stem > 0, "all three phases must be populated");

    let mut reports = Vec::new();
    for bits in bitstrings(n, 16) {
        let (_, report) = compiled.execute_amplitude(&bits).unwrap();
        reports.push(report);
    }

    // Branch contractions happen exactly once per compiled plan…
    assert!(!reports[0].branch_cache_hit);
    assert_eq!(reports[0].stats.branch_contractions, branch as u64);
    assert!(reports[0].stats.branch_flops > 0);
    for report in &reports[1..] {
        assert!(report.branch_cache_hit);
        assert_eq!(report.stats.branch_contractions, 0);
        assert_eq!(report.stats.branch_flops, 0);
    }
    let total_branch: u64 = reports.iter().map(|r| r.stats.branch_contractions).sum();
    assert_eq!(total_branch, branch as u64, "branch cache must be built exactly once");

    // …and the frontier is rebuilt exactly once per execution.
    for report in &reports {
        assert_eq!(report.stats.frontier_contractions, frontier as u64);
        assert_eq!(
            report.stats.flops,
            report.stats.stem_flops + report.stats.frontier_flops + report.stats.branch_flops,
            "per-phase flop split must add up"
        );
    }

    // A recompile of the same shape shares the plan — and with it the cache.
    let recompiled = engine.compile(&circuit, &spec).unwrap();
    assert!(recompiled.plan_cache_hit());
    let (_, report) = recompiled.execute_amplitude(&vec![1; n]).unwrap();
    assert!(report.branch_cache_hit, "cached plan must carry its branch cache");
    assert_eq!(report.stats.branch_contractions, 0);
}

#[test]
fn open_batch_and_sampling_reuse_is_bit_identical() {
    let circuit = RqcConfig::small(3, 3, 8, 3).build();
    let n = circuit.num_qubits();
    let spec = OutputSpec::Open { fixed: vec![0; n], open: vec![0, 1, 2] };
    let reuse_engine = Engine::with_configs(
        PlannerConfig { target_rank: 7, ..Default::default() },
        executor(true),
    );
    let replay_engine = Engine::with_configs(
        PlannerConfig { target_rank: 7, ..Default::default() },
        executor(false),
    );
    let reuse = reuse_engine.compile(&circuit, &spec).unwrap();
    let replay = replay_engine.compile(&circuit, &spec).unwrap();
    assert!(!reuse.plan().slicing.is_empty());

    for k in 0..4u8 {
        let fixed: Vec<u8> = (0..n).map(|q| ((k as usize >> (q % 2)) & 1) as u8).collect();
        let (a, ra) = reuse.execute_batch(&fixed).unwrap();
        let (b, _) = replay.execute_batch(&fixed).unwrap();
        assert_eq!(a.indices(), b.indices());
        assert_eq!(a.data(), b.data(), "open-batch reuse must be bit-identical");
        assert!(ra.stats.frontier_contractions > 0 || ra.stats.stem_flops > 0);

        let (sa, _) = reuse.sample(&fixed, 32, 11).unwrap();
        let (sb, _) = replay.sample(&fixed, 32, 11).unwrap();
        assert_eq!(sa, sb, "samples are a pure function of the (identical) distribution");
    }
}

#[test]
fn amortized_work_approaches_the_stem_only_floor() {
    // Across many executions of one compiled plan, the mean flops per
    // execute should approach frontier + stem — the branch build amortizes
    // away. The repo benchmark times the same gap as `executor.cold_extra_s`.
    let circuit = sliced_circuit();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(planner(), executor(true));
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();

    let mut total: u64 = 0;
    let mut steady: u64 = 0;
    let mut cold_branch_flops = 0;
    let runs = 8u64;
    for (i, bits) in bitstrings(n, runs as usize).into_iter().enumerate() {
        let (_, report) = compiled.execute_amplitude(&bits).unwrap();
        total += report.stats.flops;
        if i == 0 {
            cold_branch_flops = report.stats.branch_flops;
        } else {
            steady = report.stats.flops;
        }
    }
    let mean = total / runs;
    // The steady-state execute pays no branch flops, so the mean sits within
    // one branch-build of the floor.
    assert!(mean >= steady);
    assert!(mean - steady <= cold_branch_flops / runs + 1);
}
