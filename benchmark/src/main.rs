//! The repo benchmark's runner. See `README.md` beside this package and
//! `BENCHMARK.json` at the root of the repository.
//!
//! ```text
//! qtnsim-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! qtnsim-benchmark [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! qtnsim-benchmark agree [--workload NAME] [--seed N] [--seconds S]
//! qtnsim-benchmark check-manifest
//! ```
//!
//! With `--workload` the last line of standard output is the driver's
//! result object for that workload. Without it every workload runs and the
//! last line is a summary that ends with `"claim": null`: this benchmark
//! measures, it claims nothing.

mod host;
mod json;
mod layers;
mod manifest;
mod serve;
mod stats;
mod trace;
mod workloads;

use manifest::{END_TO_END, LAYERS};
use qtnsim_core::json::JsonObject;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Budget, Outcome, Spec, SPECS};

/// Per-layer metric values by declared name.
pub type Metrics = BTreeMap<&'static str, f64>;

const MANIFEST_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

enum Mode {
    Run,
    Agree,
    CheckManifest,
}

struct Args {
    mode: Mode,
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

impl Args {
    /// The workload `--workload` names, or all of them.
    fn chosen(&self) -> Vec<&'static Spec> {
        self.workload.map_or_else(|| SPECS.iter().collect(), |spec| vec![spec])
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Run,
        workload: None,
        seed: 5,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut words = std::env::args().skip(1);
    while let Some(word) = words.next() {
        let mut value = || words.next().ok_or_else(|| format!("`{word}` needs a value"));
        match word.as_str() {
            "agree" => args.mode = Mode::Agree,
            "check-manifest" => args.mode = Mode::CheckManifest,
            "--quick" => args.quick = true,
            "--workload" => {
                let name = value()?;
                let spec = SPECS.iter().find(|s| s.name == name);
                args.workload = Some(spec.ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds: {seconds} is out of range"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// First line of a command's standard output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok()?.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment every output starts with.
fn print_header(args: &Args, budget: Budget) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# cpu: {cpu}; nproc: {nproc}; simd: {}", qtn_tensor::simd_level().as_str());
    println!("# rustc: {}", first_line("rustc", &["-V"]));
    println!("# git commit: {}", first_line("git", &["rev-parse", "HEAD"]));
    println!(
        "# seed: {}; seconds per timed region: {}; quick: {}; QTNSIM_FORCE_SCALAR: {}",
        args.seed,
        budget.seconds,
        budget.quick,
        std::env::var("QTNSIM_FORCE_SCALAR").unwrap_or_else(|_| "unset".to_string()),
    );
}

/// One pass over one workload: metric values in manifest order, and counts.
struct Pass {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, unit, value)`.
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// `(median, q1, q3)` per end-to-end metric; empty for a traced pass.
    spread: Vec<(f64, f64, f64)>,
}

impl Pass {
    fn new(
        out: &Outcome,
        metrics: Vec<(&'static str, &'static str, f64)>,
        spread: Vec<(f64, f64, f64)>,
    ) -> Pass {
        for why in &out.failures {
            println!("# failed: {why}");
        }
        let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
        Pass {
            correct: out.failed == 0 && out.attempted > 0 && finite,
            attempted: out.attempted,
            failed: out.failed,
            metrics,
            spread,
        }
    }

    /// The driver's result object.
    fn to_json(&self) -> String {
        let mut metrics = JsonObject::new();
        for (name, unit, value) in &self.metrics {
            let mut metric = JsonObject::new();
            metric.field_f64("value", *value).field_str("unit", unit);
            metrics.field_raw(name, &metric.finish());
        }
        let mut top = JsonObject::new();
        top.field_bool("correct", self.correct)
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_raw("metrics", &metrics.finish());
        top.finish()
    }
}

fn untraced_pass(spec: &Spec, seed: u64, budget: Budget) -> Pass {
    let out = workloads::run(spec, seed, budget);
    let spread = out.end_to_end();
    let metrics = END_TO_END.iter().zip(&spread).map(|(m, s)| (m.name, m.unit, s.0)).collect();
    let (op_tail, op_pct) = stats::tail(&stats::sorted(out.op_s.clone()));
    println!(
        "# {}: {} set-ups, quartiles {} .. {} s; {} operations, quartiles {} .. {} s, p{op_pct:.2} {op_tail} s",
        spec.name,
        out.setup_s.len(),
        spread[0].1,
        spread[0].2,
        out.op_s.len(),
        spread[1].1,
        spread[1].2,
    );
    Pass::new(&out, metrics, spread)
}

fn traced_pass(spec: &Spec, seed: u64, budget: Budget) -> Pass {
    let (out, values, tracer) = layers::run(spec, seed, budget);
    let path = PathBuf::from(TRACE_DIR).join(format!("{}.trace.json", spec.name));
    match tracer.write_chrome_trace(&path) {
        Ok(()) => {
            println!("# {}: {} spans written to {}", spec.name, tracer.span_count(), path.display())
        }
        Err(e) => println!("# {}: trace file not written: {e}", spec.name),
    }
    let metrics = LAYERS.iter().map(|m| (m.name, m.unit, values[m.name])).collect();
    Pass::new(&out, metrics, Vec::new())
}

fn print_pass(spec: &Spec, pass: &Pass) {
    for (name, unit, value) in &pass.metrics {
        println!("{} {name} {value} {unit}", spec.name);
    }
    println!("{} ops_attempted {} count", spec.name, pass.attempted);
    println!("{} ops_failed {} count", spec.name, pass.failed);
}

/// Every workload's result object under its name, closed by the claim.
fn summary(seed: u64, passes: &[(&Spec, String)]) -> String {
    let mut workloads = JsonObject::new();
    for (spec, json) in passes {
        workloads.field_raw(spec.name, json);
    }
    let mut top = JsonObject::new();
    top.field_u64("seed", seed)
        .field_raw("workloads", &workloads.finish())
        .field_raw("claim", "null");
    top.finish()
}

fn run(args: &Args, budget: Budget) -> ExitCode {
    let pass = if args.trace { traced_pass } else { untraced_pass };
    let mut passes = Vec::new();
    let mut correct = true;
    for spec in args.chosen() {
        let result = pass(spec, args.seed, budget);
        print_pass(spec, &result);
        correct &= result.correct;
        passes.push((spec, result.to_json()));
    }
    match args.workload {
        Some(_) => println!("{}", passes[0].1),
        None => println!("{}", summary(args.seed, &passes)),
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run the untraced pass twice and say, for every end-to-end metric of
/// every workload, whether the two agree within the metric's bound.
fn agree(args: &Args, budget: Budget) -> ExitCode {
    let mut passes = Vec::new();
    let mut exact_disagreement = false;
    for spec in args.chosen() {
        let (first, second) =
            (untraced_pass(spec, args.seed, budget), untraced_pass(spec, args.seed, budget));
        let mut verdicts = JsonObject::new();
        for ((metric, a), b) in END_TO_END.iter().zip(&first.spread).zip(&second.spread) {
            let spread = ((a.2 - a.1) / a.0).max((b.2 - b.1) / b.0);
            let verdict = if metric.exact {
                // A count either repeats exactly or something changed.
                if a.0 == b.0 {
                    "agree"
                } else {
                    "disagree"
                }
            } else if spread > metric.bound {
                "unresolved"
            } else if ((b.0 - a.0) / a.0).abs() <= metric.bound {
                "agree"
            } else {
                "disagree"
            };
            exact_disagreement |= metric.exact && verdict == "disagree";
            println!(
                "{} {}: first {} [{} .. {}], second {} [{} .. {}] {}, bound {}: {verdict}",
                spec.name, metric.name, a.0, a.1, a.2, b.0, b.1, b.2, metric.unit, metric.bound,
            );
            verdicts.field_str(metric.name, verdict);
        }
        let failed = first.failed + second.failed;
        println!("{} ops_attempted {} count", spec.name, first.attempted + second.attempted);
        println!("{} ops_failed {failed} count", spec.name);
        passes.push((spec, verdicts.finish()));
    }
    println!("{}", summary(args.seed, &passes));
    if exact_disagreement {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // The self-check runs before anything is measured: a manifest that has
    // drifted from the runner's names must not produce numbers.
    let checked = std::fs::read_to_string(MANIFEST_PATH)
        .map_err(|e| vec![format!("{MANIFEST_PATH}: {e}")])
        .and_then(|text| manifest::check(&text));
    let run_seconds = match checked {
        Ok(run_seconds) => run_seconds,
        Err(errors) => {
            for e in errors {
                eprintln!("check-manifest: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let budget = Budget { seconds: args.seconds.unwrap_or(run_seconds), quick: args.quick };
    match args.mode {
        Mode::CheckManifest => {
            println!(
                "check-manifest: ok, {} workloads, {} end-to-end and {} per-layer metrics",
                SPECS.len(),
                END_TO_END.len(),
                LAYERS.len()
            );
            ExitCode::SUCCESS
        }
        Mode::Run => {
            print_header(&args, budget);
            run(&args, budget)
        }
        Mode::Agree => {
            print_header(&args, budget);
            agree(&args, budget)
        }
    }
}
