//! Every name the benchmark declares, and the self-check that holds
//! `BENCHMARK.json` to them.
//!
//! The tables below are what the runner emits; `BENCHMARK.json` is what the
//! driver reads. [`check`] runs before every run and fails on any difference
//! between the two, in either direction.

use crate::json::{self, Value};
use crate::workloads::SPECS;

/// An end-to-end metric; lower is better for all of them. `bound` is the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    /// Whether the value is a count that must repeat exactly.
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25, exact: false },
    EndToEnd { name: "op_s", unit: "s", bound: 0.25, exact: false },
    EndToEnd { name: "log2_flops", unit: "log2flop", bound: 0.0003, exact: true },
    EndToEnd { name: "slicing_overhead", unit: "ratio", bound: 0.01, exact: true },
    EndToEnd { name: "peak_bytes", unit: "bytes", bound: 0.02, exact: true },
];

/// A per-layer metric, with the prediction made before measuring: the
/// end-to-end metric it should move, and on which workload.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer { name, unit, better, moves, on }
}

const LO: &str = "lower";
const HI: &str = "higher";

pub const LAYERS: [Layer; 103] = [
    layer("circuit.generate_s", "s", LO, "setup_s", "plan-syc53"),
    layer("circuit.to_network_s", "s", LO, "setup_s", "plan-syc53"),
    layer("circuit.rebind_output_s", "s", LO, "op_s", "serve-s12"),
    layer("circuit.leaf_tensors", "count", LO, "setup_s", "plan-syc53"),
    layer("tensornet.simplify_s", "s", LO, "op_s", "plan-syc53"),
    layer("tensornet.path_search_s", "s", LO, "op_s", "plan-syc53"),
    layer("tensornet.refine_path_s", "s", LO, "op_s", "plan-syc53"),
    layer("tensornet.extract_stem_s", "s", LO, "op_s", "plan-syc53"),
    layer("tensornet.defer_joins_s", "s", LO, "op_s", "plan-syc53"),
    layer("tensornet.classify_s", "s", LO, "op_s", "plan-syc53"),
    layer("tensornet.analyze_memory_s", "s", LO, "op_s", "plan-syc53"),
    layer("tensornet.log2_cost_unsliced", "log2flop", LO, "log2_flops", "plan-syc53"),
    layer("tensornet.stem_len", "count", LO, "op_s", "plan-syc53"),
    layer("tensornet.nodes_branch", "count", HI, "setup_s", "amp-m20"),
    layer("tensornet.nodes_frontier", "count", LO, "op_s", "serve-s12"),
    layer("tensornet.nodes_stem_pure", "count", LO, "op_s", "amp-m20"),
    layer("tensornet.nodes_stem_mixed", "count", LO, "op_s", "batch-m20"),
    layer("tensornet.stem_slots", "count", LO, "peak_bytes", "amp-l30"),
    layer("slicing.finder_s", "s", LO, "op_s", "plan-syc53"),
    layer("slicing.refine_s", "s", LO, "op_s", "plan-syc53"),
    layer("slicing.slice_count", "count", LO, "slicing_overhead", "plan-syc53"),
    layer("slicing.overhead_found", "ratio", LO, "slicing_overhead", "plan-syc53"),
    layer("slicing.overhead_refined", "ratio", LO, "slicing_overhead", "plan-syc53"),
    layer("slicing.sliced_max_rank", "count", LO, "peak_bytes", "amp-l30"),
    layer("slicing.rank_excess", "count", LO, "peak_bytes", "plan-syc53"),
    layer("planner.plan_s", "s", LO, "op_s", "plan-syc53"),
    layer("planner.stage_cover", "ratio", HI, "op_s", "plan-syc53"),
    layer("engine.compile_cold_s", "s", LO, "setup_s", "amp-m20"),
    layer("engine.compile_hit_s", "s", LO, "op_s", "serve-s12"),
    layer("engine.rebind_params_s", "s", LO, "setup_s", "amp-m20"),
    layer("engine.rebind_exec_s", "s", LO, "setup_s", "amp-m20"),
    layer("engine.branch_entries_invalidated", "count", LO, "setup_s", "amp-m20"),
    layer("executor.first_exec_s", "s", LO, "setup_s", "amp-m20"),
    layer("executor.warm_exec_s", "s", LO, "op_s", "amp-m20"),
    layer("executor.warm_exec_tail_s", "s", LO, "op_s", "amp-m20"),
    layer("executor.cold_extra_s", "s", LO, "setup_s", "amp-m20"),
    layer("executor.flops", "flop", LO, "log2_flops", "amp-m20"),
    layer("executor.stem_flops", "flop", LO, "log2_flops", "amp-m20"),
    layer("executor.stem_pure_flops", "flop", LO, "log2_flops", "batch-m20"),
    layer("executor.stem_mixed_flops", "flop", LO, "log2_flops", "batch-m20"),
    layer("executor.frontier_flops", "flop", LO, "log2_flops", "serve-s12"),
    layer("executor.branch_flops", "flop", LO, "setup_s", "amp-m20"),
    layer("executor.flops_reused", "flop", HI, "log2_flops", "batch-m20"),
    layer("executor.reuse_ratio", "ratio", HI, "log2_flops", "batch-m20"),
    layer("executor.mixed_distinct_keys", "count", LO, "log2_flops", "batch-m20"),
    layer("executor.subtasks_run", "count", LO, "op_s", "amp-l30"),
    layer("executor.gflops", "Gflop/s", HI, "op_s", "amp-m20"),
    layer("executor.roofline_frac", "ratio", HI, "op_s", "amp-l30"),
    layer("executor.non_kernel_s", "s", LO, "op_s", "serve-s12"),
    layer("executor.non_kernel_share", "ratio", LO, "op_s", "serve-s12"),
    layer("executor.replay_exec_s", "s", LO, "op_s", "amp-m20"),
    layer("executor.speedup_w2", "ratio", HI, "op_s", "amp-m20"),
    layer("executor.rel_err", "ratio", LO, "op_s", "amp-m20"),
    layer("executor.stats_wall_gap", "ratio", LO, "op_s", "serve-s12"),
    layer("pool.unpooled_exec_s", "s", LO, "op_s", "amp-l30"),
    layer("pool.buffers_allocated", "count", LO, "setup_s", "amp-l30"),
    layer("pool.buffers_reused", "count", HI, "op_s", "amp-l30"),
    layer("pool.peak_bytes", "bytes", LO, "peak_bytes", "amp-l30"),
    layer("pool.predicted_peak_bytes", "bytes", LO, "peak_bytes", "amp-l30"),
    layer("pool.acquire_release_ns", "ns", LO, "op_s", "amp-l30"),
    layer("tensor.contract_replay_s", "s", LO, "op_s", "amp-m20"),
    layer("tensor.gemm_replay_s", "s", LO, "op_s", "amp-m20"),
    layer("tensor.permute_s", "s", LO, "op_s", "amp-l30"),
    layer("tensor.slice_gather_s", "s", LO, "op_s", "amp-l30"),
    layer("tensor.gemm_flops", "flop", LO, "log2_flops", "amp-m20"),
    layer("tensor.gemm_gflops", "Gflop/s", HI, "op_s", "amp-m20"),
    layer("tensor.gemm_calls_micro", "count", LO, "op_s", "serve-s12"),
    layer("tensor.gemm_calls_gemv", "count", LO, "op_s", "batch-m20"),
    layer("tensor.gemm_calls_narrow", "count", LO, "op_s", "batch-m20"),
    layer("tensor.gemm_calls_blocked", "count", HI, "op_s", "amp-m20"),
    layer("tensor.gemm_calls_simd", "count", HI, "op_s", "amp-m20"),
    layer("tensor.gemm_s_micro", "s", LO, "op_s", "serve-s12"),
    layer("tensor.gemm_s_gemv", "s", LO, "op_s", "batch-m20"),
    layer("tensor.gemm_s_narrow", "s", LO, "op_s", "batch-m20"),
    layer("tensor.gemm_s_blocked", "s", LO, "op_s", "amp-m20"),
    layer("tensor.bytes_moved", "bytes", LO, "op_s", "amp-l30"),
    layer("tensor.flop_per_byte", "flop/B", HI, "op_s", "amp-l30"),
    layer("tensor.achieved_gbps", "GB/s", HI, "op_s", "amp-l30"),
    layer("host.stream_gbps", "GB/s", HI, "op_s", "amp-l30"),
    layer("host.fma_gflops", "Gflop/s", HI, "op_s", "amp-m20"),
    layer("host.llc_bytes", "bytes", HI, "op_s", "amp-l30"),
    layer("serve.encode_request_s", "s", LO, "op_s", "serve-s12"),
    layer("serve.decode_request_s", "s", LO, "op_s", "serve-s12"),
    layer("serve.first_req_ms", "ms", LO, "setup_s", "serve-s12"),
    layer("serve.closed_req_per_s", "1/s", HI, "op_s", "serve-s12"),
    layer("serve.closed_p50_ms", "ms", LO, "op_s", "serve-s12"),
    layer("serve.closed_tail_ms", "ms", LO, "op_s", "serve-s12"),
    layer("serve.wire_overhead_ms", "ms", LO, "op_s", "serve-s12"),
    layer("serve.open_p50_ms", "ms", LO, "op_s", "serve-s12"),
    layer("serve.open_tail_ms", "ms", LO, "op_s", "serve-s12"),
    layer("serve.open_late_ms", "ms", LO, "op_s", "serve-s12"),
    layer("serve.open_completed_per_s", "1/s", HI, "op_s", "serve-s12"),
    layer("serve.queue_wait_us_mean", "us", LO, "op_s", "serve-s12"),
    layer("serve.batch_occupancy_mean", "count", HI, "op_s", "serve-s12"),
    layer("serve.flush_solo", "count", HI, "op_s", "serve-s12"),
    layer("serve.flush_size", "count", LO, "op_s", "serve-s12"),
    layer("serve.flush_deadline", "count", LO, "op_s", "serve-s12"),
    layer("serve.plan_cache_hit_ratio", "ratio", HI, "op_s", "serve-s12"),
    layer("serve.shed", "count", LO, "op_s", "serve-s12"),
    layer("serve.failed", "count", LO, "op_s", "serve-s12"),
    layer("serve.panics_caught", "count", LO, "op_s", "serve-s12"),
    layer("trace.overhead_ratio", "ratio", LO, "op_s", "amp-m20"),
    layer("trace.spans", "count", LO, "op_s", "amp-m20"),
];

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The entry must be an object with exactly `keys`.
fn exact_keys(entry: &Value, keys: &[&str]) -> Result<(), String> {
    let Value::Object(map) = entry else { return Err("not an object".into()) };
    let mut found: Vec<&str> = map.keys().map(String::as_str).collect();
    let mut wanted = keys.to_vec();
    found.sort_unstable();
    wanted.sort_unstable();
    if found == wanted {
        Ok(())
    } else {
        Err(format!("keys {found:?}, expected {wanted:?}"))
    }
}

fn text<'a>(entry: &'a Value, key: &str) -> Result<&'a str, String> {
    entry.get(key).and_then(Value::as_str).ok_or_else(|| format!("`{key}` is not a string"))
}

fn list<'a>(doc: &'a Value, key: &str, max: usize, errors: &mut Vec<String>) -> &'a [Value] {
    let items = doc.get(key).and_then(Value::as_array).unwrap_or_default();
    if !(1..=max).contains(&items.len()) {
        errors.push(format!("`{key}`: {} entries, expected 1 to {max}", items.len()));
    }
    items
}

/// Unit and direction of a metric entry, rendered for comparison.
fn unit_and_direction(entry: &Value) -> Result<String, String> {
    let (unit, better) = (text(entry, "unit")?, text(entry, "better")?);
    if !is_unit(unit) || !["lower", "higher"].contains(&better) {
        return Err(format!("bad unit `{unit}` or direction `{better}`"));
    }
    Ok(format!("{unit}, {better}"))
}

/// Check one list of named entries: each has exactly `keys`, a valid name
/// not used before, and a `describe`d rest; the rendered rows must equal
/// `emitted`, the runner's own table, in both directions.
fn section(
    entries: &[Value],
    what: &str,
    keys: &[&str],
    describe: impl Fn(&Value) -> Result<String, String>,
    emitted: Vec<String>,
    names: &mut Vec<String>,
    errors: &mut Vec<String>,
) {
    let mut declared = Vec::new();
    for entry in entries {
        let row = exact_keys(entry, keys).and_then(|()| {
            let name = text(entry, "name")?;
            if !is_name(name) {
                return Err(format!("`{name}` is not a valid name"));
            }
            if names.iter().any(|n| n == name) {
                return Err(format!("name `{name}` is used more than once"));
            }
            names.push(name.to_string());
            Ok(format!("{name} [{}]", describe(entry).map_err(|e| format!("`{name}`: {e}"))?))
        });
        match row {
            Ok(row) => declared.push(row),
            Err(e) => errors.push(format!("`{what}`: {e}")),
        }
    }
    for row in &declared {
        if !emitted.contains(row) {
            errors.push(format!("`{what}`: the manifest declares {row}, the runner does not"));
        }
    }
    for row in &emitted {
        if !declared.contains(row) {
            errors.push(format!("`{what}`: the runner emits {row}, the manifest does not"));
        }
    }
}

/// Parse and check the manifest text against the contract's limits and
/// against the runner's own tables. Returns `run_seconds`, or every mismatch
/// found.
pub fn check(manifest: &str) -> Result<f64, Vec<String>> {
    let mut errors = Vec::new();
    if manifest.len() > 64 * 1024 {
        errors.push(format!("BENCHMARK.json is {} bytes, over 64 KiB", manifest.len()));
    }
    let doc = json::parse(manifest).map_err(|e| vec![e])?;
    let top = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"];
    exact_keys(&doc, &top).map_err(|e| vec![format!("top level: {e}")])?;

    let command = list(&doc, "command", 32, &mut errors);
    if !command.iter().all(|c| c.as_str().is_some_and(|s| s.len() <= 200)) {
        errors.push("`command`: every element must be a string of at most 200 characters".into());
    }
    let is_path = |s: &str| {
        (1..=200).contains(&s.len())
            && !s.starts_with('/')
            && !s.split('/').any(|part| part == "..")
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
    };
    if !list(&doc, "paths", 16, &mut errors).iter().all(|p| p.as_str().is_some_and(is_path)) {
        errors.push("`paths`: every element must be a relative path inside the repo".into());
    }
    let run_seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap_or(0.0);
    if run_seconds.fract() != 0.0 || !(1.0..=60.0).contains(&run_seconds) {
        errors.push(format!("`run_seconds`: {run_seconds} is not a whole number from 1 to 60"));
    }

    let mut names = Vec::new();
    let workloads = list(&doc, "workloads", 8, &mut errors);
    if workloads.len() < 2 {
        errors.push("`workloads`: fewer than 2".into());
    }
    section(
        workloads,
        "workloads",
        &["name", "why"],
        |entry| {
            let why = text(entry, "why")?;
            if why.chars().count() > 200 || why.contains('\n') {
                return Err("`why` must be one line of at most 200 characters".into());
            }
            Ok(why.to_string())
        },
        SPECS.iter().map(|w| format!("{} [{}]", w.name, w.why)).collect(),
        &mut names,
        &mut errors,
    );
    section(
        list(&doc, "end_to_end", 16, &mut errors),
        "end_to_end",
        &["name", "unit", "better", "bound"],
        |entry| {
            let bound = entry.get("bound").and_then(Value::as_f64).unwrap_or(-1.0);
            if !(bound > 0.0 && bound <= 0.25) {
                return Err(format!("bound {bound} is outside (0, 0.25]"));
            }
            Ok(format!("{}, bound {bound}", unit_and_direction(entry)?))
        },
        END_TO_END
            .iter()
            .map(|m| format!("{} [{}, lower, bound {}]", m.name, m.unit, m.bound))
            .collect(),
        &mut names,
        &mut errors,
    );
    if !END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s") {
        errors.push("`end_to_end` must hold `setup_s` in `s`, lower is better".into());
    }
    section(
        list(&doc, "per_layer", 128, &mut errors),
        "per_layer",
        &["name", "unit", "better"],
        unit_and_direction,
        LAYERS.iter().map(|m| format!("{} [{}, {}]", m.name, m.unit, m.better)).collect(),
        &mut names,
        &mut errors,
    );

    for m in &LAYERS {
        if !END_TO_END.iter().any(|e| e.name == m.moves) || !SPECS.iter().any(|w| w.name == m.on) {
            errors.push(format!("`{}` names no end-to-end metric and workload to move", m.name));
        }
    }

    if errors.is_empty() {
        Ok(run_seconds)
    } else {
        Err(errors)
    }
}
