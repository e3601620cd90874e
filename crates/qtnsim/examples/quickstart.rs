//! Quickstart: compile a circuit once, execute many amplitudes on the
//! compiled plan, inspect the plan, draw correlated samples, and verify
//! against the state-vector reference.
//!
//! Run with `cargo run --release --example quickstart`.

use qtnsim::circuit::{Circuit, Gate, OutputSpec, RqcConfig};
use qtnsim::core::{Engine, ExecutorConfig, PlannerConfig};
use qtnsim::verify_against_statevector;

fn main() -> Result<(), qtnsim::Error> {
    // --- 1. A hand-written circuit -----------------------------------------
    let mut ghz = Circuit::new(4);
    ghz.push1(Gate::H, 0).push2(Gate::Cnot, 0, 1).push2(Gate::Cnot, 1, 2).push2(Gate::Cnot, 2, 3);
    let engine = Engine::new();
    let compiled = engine.compile(&ghz, &OutputSpec::Amplitude(vec![0; 4]))?;
    // Any bitstring executes on the same compiled plan — only the output
    // projectors are rebound.
    let (a0000, _) = compiled.execute_amplitude(&[0, 0, 0, 0])?;
    let (a1111, _) = compiled.execute_amplitude(&[1, 1, 1, 1])?;
    println!("GHZ amplitudes: <0000|psi> = {a0000}  <1111|psi> = {a1111}");
    println!("(planner ran {} time(s) for both amplitudes)", engine.plans_built());

    // --- 2. A Sycamore-style random circuit on a small grid ----------------
    let config = RqcConfig::small(3, 4, 10, 42);
    let circuit = config.build();
    let n = circuit.num_qubits();
    println!(
        "\nRandom circuit: {} qubits, {} cycles, {} two-qubit gates, depth {}",
        n,
        config.cycles,
        circuit.two_qubit_gate_count(),
        circuit.depth()
    );

    // Compile with a tight memory target to force slicing, and inspect the
    // plan before executing anything.
    let planner = PlannerConfig { target_rank: 10, ..Default::default() };
    let engine = Engine::with_configs(planner.clone(), ExecutorConfig::default());
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n]))?;
    let plan = compiled.plan();
    println!(
        "Plan: log2(cost) = {:.2}, sliced edges = {}, subtasks = {}, overhead = {:.3}, max rank after slicing = {}",
        plan.log_cost,
        plan.slicing.len(),
        plan.num_subtasks(),
        plan.overhead,
        plan.sliced_max_rank(),
    );

    // Execute: a single amplitude. The report replaces the old mutable
    // `last_stats` side-channel.
    let (amp, report) = compiled.execute_amplitude(&vec![0; n])?;
    println!(
        "Amplitude <0...0|C|0...0> = {amp}  ({} subtasks, {:.1} Mflop, {:.3} s wall)",
        report.stats.subtasks_run,
        report.stats.flops as f64 / 1e6,
        report.stats.wall_seconds
    );

    // A batch of correlated amplitudes over three open qubits, then samples.
    // A different output shape is a separate compilation (and cache entry).
    let open = vec![0usize, 1, 2];
    let sampler =
        engine.compile(&circuit, &OutputSpec::Open { fixed: vec![0; n], open: open.clone() })?;
    let (samples, _) = sampler.sample(&vec![0; n], 5, 1)?;
    println!("Five correlated samples of qubits {open:?}: {samples:?}");

    // --- 3. Verification against the state-vector reference ----------------
    let verification = verify_against_statevector(&circuit, &planner, 4, 1e-8)?;
    println!(
        "\nVerification against the state vector: {} amplitudes compared, max |error| = {:.2e}, passed = {}",
        verification.compared, verification.max_error, verification.passed
    );
    Ok(())
}
