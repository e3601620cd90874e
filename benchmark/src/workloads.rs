//! The five workloads: their inputs, their oracles, and the untraced pass
//! that measures the end-to-end metrics.
//!
//! The program under test only ever receives generated circuits and
//! bitstrings; both come from `--seed`.

use crate::serve;
use crate::stats::{median, quartiles, sorted};
use crate::trace::Tracer;
use qtn_circuit::{circuit_to_network, Circuit, OutputSpec, RqcConfig};
use qtn_statevector::StateVector;
use qtn_tensor::Complex64;
use qtnsim_core::{
    plan_simulation, CompiledCircuit, Engine, ExecutionStats, ExecutorConfig, PlannerConfig,
    SimulationPlan,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Bitstrings per `execute_amplitudes` call on `batch-m20`.
pub const BATCH: usize = 16;
/// An amplitude may miss its oracle by this much, relative.
pub const TOLERANCE: f64 = 1e-9;
/// Share of `--seconds` spent on fresh set-ups before the timed region.
pub const SETUP_SHARE: f64 = 0.2;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    /// One `execute_amplitude` per operation.
    Amp,
    /// One `execute_amplitudes` of [`BATCH`] bitstrings per operation.
    Batch,
    /// One `plan_simulation` per operation; nothing executes.
    Plan,
    /// One request round trip to an in-process server per operation.
    Serve,
}

/// The fixed sizes of a workload. Repetition counts shrink with `--seconds`;
/// these never do.
pub struct Spec {
    /// The name later issues cite.
    pub name: &'static str,
    /// Why the workload exists, as the manifest states it.
    pub why: &'static str,
    pub kind: Kind,
    /// Grid of the lattice RQC; `None` is the 53-qubit Sycamore layout.
    grid: Option<(usize, usize)>,
    cycles: usize,
    pub target_rank: usize,
    pub max_subtasks: usize,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "amp-m20",
        why: "One amplitude of a 20-qubit 4x5x12 RQC, 64 subtasks, 3.3 Gflop: stem sweep over 99% of flops, the one place blocked/SIMD GEMM fires on a real plan, so kernel and permute work shows here.",
        kind: Kind::Amp, grid: Some((4, 5)), cycles: 12, target_rank: 14, max_subtasks: 0 },
    Spec {
        name: "batch-m20",
        why: "16 seeded bitstrings per call on the same 20-qubit circuit: shared StemPure prefix, keyed StemMixed suffix, narrow/GEMV kernels dominate; the only workload where dedup counters move.",
        kind: Kind::Batch, grid: Some((4, 5)), cycles: 12, target_rank: 14, max_subtasks: 0 },
    Spec {
        name: "amp-l30",
        why: "30-qubit 5x6x12 RQC capped at 8 of 8192 subtasks, 12 Gflop on rank-19 (8 MiB) tensors larger than L2: permutes, gathers and pool traffic leave cache, so byte-saving shows; plan misses its rank target.",
        kind: Kind::Amp, grid: Some((5, 6)), cycles: 12, target_rank: 18, max_subtasks: 8 },
    Spec {
        name: "plan-syc53",
        why: "plan_simulation alone on the 53-qubit Sycamore at m=20, target rank 30: the paper's slice finder and refiners at the paper's scale; executor and kernel changes must show no change here.",
        kind: Kind::Plan, grid: None, cycles: 20, target_rank: 30, max_subtasks: 0 },
    Spec {
        name: "serve-s12",
        why: "Closed loop, one client, single-amplitude requests to an in-process server on a 12-qubit 3x4x10 RQC (0.7 Mflop): the dispatch-overhead regime of wire, plan cache, queue, flush and rebind.",
        kind: Kind::Serve, grid: Some((3, 4)), cycles: 10, target_rank: 8, max_subtasks: 0 },
];

impl Spec {
    pub fn circuit(&self, seed: u64) -> Circuit {
        match self.grid {
            Some((rows, cols)) => RqcConfig::small(rows, cols, self.cycles, seed).build(),
            None => RqcConfig::sycamore(self.cycles, seed).build(),
        }
    }

    pub fn planner(&self) -> PlannerConfig {
        PlannerConfig { target_rank: self.target_rank, ..PlannerConfig::default() }
    }

    /// The configuration end-to-end numbers are measured under: one worker
    /// repeats within 6% on this 2-core box, two workers within 13%.
    pub fn executor(&self) -> ExecutorConfig {
        ExecutorConfig { workers: 1, max_subtasks: self.max_subtasks, reuse: true, pool: true }
    }

    pub fn engine(&self) -> Engine {
        Engine::with_configs(self.planner(), self.executor())
    }

    /// The full-replay oracle path of `amp-l30`: no reuse, no pool, the
    /// same subtasks.
    fn replay_engine(&self) -> Engine {
        Engine::with_configs(
            self.planner(),
            ExecutorConfig { reuse: false, pool: false, ..self.executor() },
        )
    }
}

/// How long a pass may run and how often it must repeat.
#[derive(Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    /// At most three repetitions of anything, for a CI smoke run.
    pub quick: bool,
}

impl Budget {
    /// Repeat `step` for `share` of the budget: at least 3 times, at most
    /// `cap` times; in quick mode `quick_reps` times.
    pub fn repeat(&self, share: f64, cap: usize, quick_reps: usize, mut step: impl FnMut()) {
        let start = Instant::now();
        let mut done = 0;
        loop {
            step();
            done += 1;
            let enough = if self.quick {
                done >= quick_reps
            } else {
                done >= 3 && (start.elapsed().as_secs_f64() >= share * self.seconds || done >= cap)
            };
            if enough {
                return;
            }
        }
    }
}

pub fn zero_output(circuit: &Circuit) -> OutputSpec {
    OutputSpec::Amplitude(vec![0; circuit.num_qubits()])
}

/// Seeded bitstrings with the amplitude each must produce.
pub struct Cases {
    rng: StdRng,
    qubits: usize,
    oracle: Oracle,
    served: usize,
    /// The bitstrings of every `batch-m20` call. They stay the same within
    /// a run because the flops a batch costs depend on which keys its
    /// bitstrings share, and `log2_flops` must repeat exactly.
    batch: Vec<(Vec<u8>, Complex64)>,
}

enum Oracle {
    /// Every amplitude of the circuit, from `qtn-statevector`.
    StateVector(StateVector),
    /// A few bitstrings whose amplitudes the full-replay path computed.
    Known(Vec<(Vec<u8>, Complex64)>),
}

impl Cases {
    pub fn new(spec: &Spec, circuit: &Circuit, seed: u64, budget: Budget) -> Self {
        // The stream is distinct from the circuit generator's, which is
        // seeded with `seed` itself.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB175_7121_65EE_D5B1);
        let qubits = circuit.num_qubits();
        let oracle = if qubits <= 24 {
            Oracle::StateVector(StateVector::simulate(circuit))
        } else {
            let replay = spec
                .replay_engine()
                .compile(circuit, &zero_output(circuit))
                .expect("the generated circuit compiles");
            let known = (0..if budget.quick { 1 } else { 2 })
                .map(|_| {
                    let bits = draw_bits(&mut rng, qubits);
                    let (amp, _) = replay.execute_amplitude(&bits).expect("full replay executes");
                    (bits, amp)
                })
                .collect();
            Oracle::Known(known)
        };
        let mut cases = Cases { rng, qubits, oracle, served: 0, batch: Vec::new() };
        if spec.kind == Kind::Batch {
            cases.batch = (0..BATCH).map(|_| cases.next()).collect();
        }
        cases
    }

    /// The inputs of one operation: the run's batch, or one fresh bitstring.
    fn next_op(&mut self) -> Vec<(Vec<u8>, Complex64)> {
        if self.batch.is_empty() {
            vec![self.next()]
        } else {
            self.batch.clone()
        }
    }

    /// The next bitstring and its reference amplitude.
    pub fn next(&mut self) -> (Vec<u8>, Complex64) {
        self.served += 1;
        match &self.oracle {
            Oracle::StateVector(state) => {
                let bits = draw_bits(&mut self.rng, self.qubits);
                let amp = state.amplitude(&bits);
                (bits, amp)
            }
            Oracle::Known(known) => known[self.served % known.len()].clone(),
        }
    }

    /// Error of `got` against `want`, relative to `want` or, for an
    /// amplitude near zero, to the RMS amplitude `2^(-n/2)`.
    pub fn rel_err(&self, got: Complex64, want: Complex64) -> f64 {
        (got - want).abs() / want.abs().max(0.5f64.powf(self.qubits as f64 / 2.0))
    }
}

fn draw_bits(rng: &mut StdRng, qubits: usize) -> Vec<u8> {
    (0..qubits).map(|_| rng.gen_range(0..2usize) as u8).collect()
}

/// What one pass measured for the end-to-end metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    pub op_s: Vec<f64>,
    /// `log2_flops`, `slicing_overhead`, `peak_bytes`: fixed by the first
    /// repetition, and every later one must repeat it exactly.
    exact: [Option<f64>; 3],
    /// Worst error against the oracle over the pass.
    pub rel_err: f64,
}

/// Where the three exact metrics start in the manifest's end-to-end order.
const LOG2_FLOPS_AT: usize = 2;
pub const LOG2_FLOPS: usize = 0;
pub const SLICING_OVERHEAD: usize = 1;
pub const PEAK_BYTES: usize = 2;

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Count one operation; `error` says why it failed, if it did.
    pub fn count(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(why) = error {
            self.fail(why);
        }
    }

    pub fn exact(&mut self, which: usize, value: f64) {
        match self.exact[which] {
            None => self.exact[which] = Some(value),
            Some(first) if first != value => {
                let name = crate::manifest::END_TO_END[LOG2_FLOPS_AT + which].name;
                self.fail(format!("`{name}` must repeat exactly: {first}, then {value}"))
            }
            Some(_) => {}
        }
    }

    /// Median and quartiles of each end-to-end metric, in manifest order.
    pub fn end_to_end(&self) -> Vec<(f64, f64, f64)> {
        let timing = |samples: &[f64]| {
            let s = sorted(samples.to_vec());
            let (q1, q3) = quartiles(&s);
            (median(&s), q1, q3)
        };
        let exact = |which: usize| {
            let v = self.exact[which].unwrap_or(0.0);
            (v, v, v)
        };
        vec![
            timing(&self.setup_s),
            timing(&self.op_s),
            exact(LOG2_FLOPS),
            exact(SLICING_OVERHEAD),
            exact(PEAK_BYTES),
        ]
    }
}

/// One operation of an execute workload: draw the inputs, execute, compare
/// with the oracle, and check the pool against its prediction. Returns the
/// seconds and the stats of a successful call. `pooled` says whether the
/// circuit was compiled with `reuse` and `pool` on.
pub fn execute_op(
    spec: &Spec,
    compiled: &CompiledCircuit,
    pooled: bool,
    cases: &mut Cases,
    tr: &Tracer,
    out: &mut Outcome,
) -> Option<(f64, ExecutionStats)> {
    let (bits, want): (Vec<Vec<u8>>, Vec<Complex64>) = cases.next_op().into_iter().unzip();
    let (result, seconds) = if spec.kind == Kind::Batch {
        let refs: Vec<&[u8]> = bits.iter().map(Vec::as_slice).collect();
        tr.time("executor.execute_amplitudes", || compiled.execute_amplitudes(&refs))
    } else {
        tr.time("executor.execute_amplitude", || {
            compiled.execute_amplitude(&bits[0]).map(|(amp, report)| (vec![amp], report))
        })
    };
    let (got, report) = match result {
        Ok(ok) => ok,
        Err(e) => {
            out.count(Some(format!("execution failed: {e}")));
            return None;
        }
    };
    let worst = got.iter().zip(&want).map(|(&g, &w)| cases.rel_err(g, w)).fold(0.0, f64::max);
    out.rel_err = out.rel_err.max(worst);
    let stats = report.stats;
    let error = if worst > TOLERANCE {
        Some(format!("amplitude misses the oracle by {worst:e} relative"))
    } else if pooled && stats.peak_bytes_in_flight != stats.predicted_peak_bytes {
        Some(format!(
            "pool peak {} differs from the predicted {}",
            stats.peak_bytes_in_flight, stats.predicted_peak_bytes
        ))
    } else {
        None
    };
    out.count(error);
    Some((seconds, stats))
}

/// One fresh set-up of an execute workload: circuit generation, a cold
/// compile on a new engine, and the first execution.
pub fn fresh_setup(
    spec: &Spec,
    seed: u64,
    cases: &mut Cases,
    tr: &Tracer,
    out: &mut Outcome,
) -> (CompiledCircuit, f64) {
    let ((compiled, _), seconds) = tr.time("setup", || {
        let (circuit, _) = tr.time("circuit.generate", || spec.circuit(seed));
        let (compiled, _) = tr.time("engine.compile", || {
            spec.engine().compile(&circuit, &zero_output(&circuit)).expect("the circuit compiles")
        });
        let first = execute_op(spec, &compiled, true, cases, tr, out);
        (compiled, first)
    });
    (compiled, seconds)
}

fn run_execute(spec: &Spec, seed: u64, budget: Budget, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let circuit = spec.circuit(seed);
    let mut cases = Cases::new(spec, &circuit, seed, budget);

    let mut compiled = None;
    budget.repeat(SETUP_SHARE, 200, 1, || {
        let (fresh, seconds) = fresh_setup(spec, seed, &mut cases, tr, &mut out);
        out.setup_s.push(seconds);
        compiled = Some(fresh);
    });
    let compiled = compiled.expect("at least one set-up ran");

    out.exact(SLICING_OVERHEAD, compiled.plan().overhead);
    budget.repeat(1.0, usize::MAX, 2, || {
        if let Some((seconds, stats)) = execute_op(spec, &compiled, true, &mut cases, tr, &mut out)
        {
            out.op_s.push(seconds);
            out.exact(LOG2_FLOPS, (stats.flops as f64).log2());
            out.exact(PEAK_BYTES, stats.peak_bytes_in_flight as f64);
        }
    });
    out
}

/// `log_cost + log2(overhead)`: the flops one sliced contraction costs.
pub fn planned_log2_flops(plan: &SimulationPlan) -> f64 {
    plan.log_cost + plan.overhead.log2()
}

fn run_plan(spec: &Spec, seed: u64, budget: Budget, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    budget.repeat(SETUP_SHARE, 200, 1, || {
        let (_, seconds) = tr.time("setup", || {
            let circuit = spec.circuit(seed);
            circuit_to_network(&circuit, &zero_output(&circuit))
        });
        out.setup_s.push(seconds);
    });

    let circuit = spec.circuit(seed);
    let (output, config) = (zero_output(&circuit), spec.planner());
    let mut first: Option<SimulationPlan> = None;
    budget.repeat(1.0, usize::MAX, 2, || {
        let (plan, seconds) =
            tr.time("planner.plan_simulation", || plan_simulation(&circuit, &output, &config));
        out.op_s.push(seconds);
        out.exact(LOG2_FLOPS, planned_log2_flops(&plan));
        out.exact(SLICING_OVERHEAD, plan.overhead);
        out.exact(PEAK_BYTES, plan.predicted_peak_bytes() as f64);
        let reference = first.get_or_insert_with(|| plan.clone());
        let same = reference.pairs == plan.pairs && reference.slicing == plan.slicing;
        out.count((!same).then(|| "the plan differs from the first repetition's".to_string()));
    });
    out
}

/// The untraced pass: every end-to-end metric of one workload.
pub fn run(spec: &Spec, seed: u64, budget: Budget) -> Outcome {
    let tr = Tracer::new(spec.name, false);
    match spec.kind {
        Kind::Amp | Kind::Batch => run_execute(spec, seed, budget, &tr),
        Kind::Plan => run_plan(spec, seed, budget, &tr),
        Kind::Serve => serve::run(spec, seed, budget, &tr),
    }
}
