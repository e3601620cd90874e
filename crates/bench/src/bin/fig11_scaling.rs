//! Figure 11: strong scaling (65,536 subtasks in total) and weak scaling
//! (16 subtasks per node).
//!
//! The per-subtask cost is *measured* by executing real slice subtasks of a
//! grid circuit on this machine's worker threads; the curves over node
//! counts then come from the analytic scaling model (embarrassingly parallel
//! subtasks + one final allReduce), exactly as the paper extrapolates its
//! 1024-node measurements.
//!
//! Usage: `cargo run --release -p qtn-bench --bin fig11_scaling
//! [rows=4] [cols=4] [cycles=12] [target=10] [measure_subtasks=32]`

use qtn_bench::arg_or;
use qtn_circuit::{OutputSpec, RqcConfig};
use qtn_sunway::scaling::ScalingModel;
use qtnsim_core::{Engine, ExecutorConfig, PlannerConfig};

fn main() {
    let rows: usize = arg_or("rows", 4);
    let cols: usize = arg_or("cols", 4);
    let cycles: usize = arg_or("cycles", 12);
    let target: usize = arg_or("target", 10);
    let measure_subtasks: usize = arg_or("measure_subtasks", 32);

    println!("# Figure 11 reproduction: strong and weak scaling");
    let circuit = RqcConfig::small(rows, cols, cycles, 3).build();
    let n = circuit.num_qubits();
    // Measure the per-subtask cost by running a bounded number of subtasks.
    // Force the full per-subtask replay: the projection multiplies this cost
    // by the whole 2^|S| sweep, so it must measure a standalone subtask, not
    // a stem-only replay plus an amortized one-off cache build.
    let engine = Engine::with_configs(
        PlannerConfig { target_rank: target, ..Default::default() },
        ExecutorConfig {
            workers: 1,
            max_subtasks: measure_subtasks,
            reuse: false,
            ..Default::default()
        },
    );
    let zeros = vec![0u8; n];
    let compiled =
        engine.compile(&circuit, &OutputSpec::Amplitude(zeros.clone())).expect("compile");
    let plan = compiled.plan();
    println!(
        "# workload: {rows}x{cols} grid, m = {cycles}, {} sliced edges -> {} subtasks, overhead {:.3}",
        plan.slicing.len(),
        plan.num_subtasks(),
        plan.overhead
    );

    let stats = compiled.execute_amplitude(&zeros).expect("execute").1.stats;
    let subtask_time = stats.seconds_per_subtask;
    println!(
        "# measured {} subtasks on 1 worker: {:.6} s per subtask, {:.1} Mflop per subtask",
        stats.subtasks_run,
        subtask_time,
        stats.flops as f64 / stats.subtasks_run.max(1) as f64 / 1e6
    );

    let model = ScalingModel::new(subtask_time, 8.0 * (1 << 20) as f64);
    let node_counts = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

    println!("#");
    println!("# strong scaling: 65,536 subtasks in total");
    println!("# {:>6}  {:>12}  {:>10}  {:>10}", "nodes", "time (s)", "speedup", "efficiency");
    for p in model.strong_scaling(65_536, &node_counts) {
        println!(
            "  {:>6}  {:>12.4}  {:>10.1}  {:>9.1}%",
            p.nodes,
            p.time,
            p.speedup,
            100.0 * p.efficiency
        );
    }

    println!("#");
    println!("# weak scaling: 16 subtasks per node");
    println!("# {:>6}  {:>10}  {:>12}  {:>10}", "nodes", "subtasks", "time (s)", "efficiency");
    for p in model.weak_scaling(16, &node_counts) {
        println!(
            "  {:>6}  {:>10}  {:>12.4}  {:>9.1}%",
            p.nodes,
            p.subtasks,
            p.time,
            100.0 * p.efficiency
        );
    }
}
