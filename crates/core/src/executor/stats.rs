//! What an execution measured: [`ExecutionStats`], and the [`Bill`] the
//! executor sums its counters from.
//!
//! Every counter is declared exactly once, in the table at the bottom of
//! this file: name, type and merge rule. The struct, [`ExecutionStats::absorb`]
//! and [`ExecutionStats::to_json`] are generated from it, so a new counter
//! is one line and can never be summed in one place and forgotten in
//! another.

use crate::json::JsonObject;
use qtn_tensor::{Complex64, ContractionKernel, ContractionSpec, GemmPath};

/// A counter type the stats table can hold: knows its JSON rendering.
trait StatValue: Copy {
    fn write(self, obj: &mut JsonObject, key: &str);
}

impl StatValue for u64 {
    fn write(self, obj: &mut JsonObject, key: &str) {
        obj.field_u64(key, self);
    }
}

impl StatValue for usize {
    fn write(self, obj: &mut JsonObject, key: &str) {
        obj.field_usize(key, self);
    }
}

impl StatValue for f64 {
    fn write(self, obj: &mut JsonObject, key: &str) {
        obj.field_f64(key, self);
    }
}

impl StatValue for &'static str {
    fn write(self, obj: &mut JsonObject, key: &str) {
        obj.field_str(key, self);
    }
}

/// How [`ExecutionStats::absorb`] folds one field: `sum` adds, `max` keeps
/// the high-water mark, `first` keeps the first non-empty value, `derived`
/// is recomputed from the merged fields afterwards.
macro_rules! merge_field {
    (sum, $mine:expr, $theirs:expr) => {
        $mine += $theirs
    };
    (max, $mine:expr, $theirs:expr) => {
        $mine = $mine.max($theirs)
    };
    (first, $mine:expr, $theirs:expr) => {
        if $mine.is_empty() {
            $mine = $theirs;
        }
    };
    (derived, $mine:expr, $theirs:expr) => {};
}

macro_rules! execution_stats {
    ($( $(#[$doc:meta])* $name:ident: $ty:ty, $rule:ident; )*) => {
        /// What the executor measured.
        ///
        /// `flops` is the real work this call executed; it always equals
        /// `stem_flops + frontier_flops + branch_flops`. With reuse disabled
        /// (or bypassed), every contraction is replayed per subtask, so
        /// `stem_flops == flops` and the other phase counters are zero.
        #[derive(Debug, Clone, Default)]
        pub struct ExecutionStats {
            $( $(#[$doc])* pub $name: $ty, )*
        }

        impl ExecutionStats {
            /// Fold another execution's measurements into this one, turning
            /// a sequence of per-execution stats into a running
            /// service-level total: counters and wall time add up,
            /// high-water marks (`peak_bytes_in_flight`,
            /// `predicted_peak_bytes`, `workers`) take the maximum, and the
            /// derived `seconds_per_subtask` becomes the aggregate mean wall
            /// time per executed subtask. `qtnsim-serve` aggregates every
            /// dispatched batch through this before exporting the totals on
            /// its stats endpoint.
            pub fn absorb(&mut self, other: &ExecutionStats) {
                $( merge_field!($rule, self.$name, other.$name); )*
                self.seconds_per_subtask = if self.subtasks_run > 0 {
                    self.wall_seconds / self.subtasks_run as f64
                } else {
                    0.0
                };
            }

            /// Render every counter as a JSON object (see [`crate::json`]),
            /// in declaration order — the one formatting path shared by the
            /// `BENCH_*.json` writers and the `qtnsim-serve` stats endpoint.
            pub fn to_json(&self) -> String {
                let mut obj = JsonObject::new();
                $( self.$name.write(&mut obj, stringify!($name)); )*
                obj.finish()
            }
        }
    };
}

impl ExecutionStats {
    /// Take the executed flops and the `gemm_*` counters from a bill.
    pub(super) fn apply_bill(&mut self, bill: &Bill) {
        self.flops = bill.flops;
        self.gemm_micro = bill.micro;
        self.gemm_gemv = bill.gemv;
        self.gemm_narrow = bill.narrow;
        self.gemm_blocked = bill.blocked;
        self.gemm_simd = bill.simd;
    }
}

/// What a run of contractions costs: flops, contractions, and the GEMM
/// kernel class each one dispatched to, in the buckets [`ExecutionStats`]
/// reports. The one bill type of the executor: a compiled program's static
/// per-class bills, a sweep's executed bills (one per node class, plus
/// [`SKIPPED`]), the frontier run's and the branch build's. Each
/// contraction is classified through its frozen [`qtn_tensor::KernelPlan`],
/// so the bill is exact per execution, whatever runs beside it.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct Bill {
    pub(super) flops: u64,
    pub(super) contractions: u64,
    micro: u64,
    gemv: u64,
    narrow: u64,
    blocked: u64,
    /// Dispatches (of any class) that took a SIMD code path.
    simd: u64,
}

/// A sweep's bills: one per [`qtn_tensornet::NodeClass`] (indexed by
/// `class as usize`), plus the mixed work the keyed loop skipped.
pub(super) type Bills = [Bill; 5];

/// The index of the skipped mixed work in [`Bills`].
pub(super) const SKIPPED: usize = 4;

impl Bill {
    fn dispatched(&mut self, flops: u64, path: GemmPath) {
        self.flops += flops;
        self.contractions += 1;
        let (class, simd) = match path {
            GemmPath::MicroSimd => (&mut self.micro, true),
            GemmPath::MicroScalar => (&mut self.micro, false),
            GemmPath::GemvRow | GemmPath::GemvCol => (&mut self.gemv, false),
            GemmPath::NarrowSimd => (&mut self.narrow, true),
            GemmPath::NarrowScalar => (&mut self.narrow, false),
            GemmPath::BlockedSimd => (&mut self.blocked, true),
            GemmPath::BlockedScalar => (&mut self.blocked, false),
        };
        *class += 1;
        self.simd += u64::from(simd);
    }

    /// Bill one contraction through a compiled kernel (whose dispatch was
    /// frozen at [`ContractionKernel::new`] time).
    pub(super) fn record(&mut self, kernel: &ContractionKernel) {
        self.dispatched(kernel.flops(), kernel.gemm_plan().taken::<Complex64>());
    }

    /// Bill one contraction through per-call dispatch
    /// ([`qtn_tensor::contract_pair`] selects from the spec's shape at call
    /// time).
    pub(super) fn record_spec(&mut self, spec: &ContractionSpec) {
        self.dispatched(spec.flops(), spec.kernel_plan().taken::<Complex64>());
    }

    pub(super) fn add(&mut self, other: &Bill) {
        self.flops += other.flops;
        self.contractions += other.contractions;
        self.micro += other.micro;
        self.gemv += other.gemv;
        self.narrow += other.narrow;
        self.blocked += other.blocked;
        self.simd += other.simd;
    }
}

execution_stats! {
    /// Subtasks actually executed.
    subtasks_run: usize, sum;
    /// Total subtasks of the plan.
    subtasks_total: usize, sum;
    /// Real floating point operations executed by this call.
    flops: u64, sum;
    /// Portion of `flops` spent replaying stem-class contractions across
    /// the slice subtasks (both StemPure and StemMixed).
    stem_flops: u64, sum;
    /// Portion of `stem_flops` spent on StemPure contractions — the
    /// slice-dependent but projector-independent prefix. In a batched
    /// execution this runs **once per slice assignment** regardless of how
    /// many bitstrings the batch holds; in a single execution it is simply
    /// the pure share of the per-subtask replay. Zero when reuse is off
    /// (the full replay does not classify its contractions).
    stem_pure_flops: u64, sum;
    /// Floating point operations a loop of single executions would have
    /// spent re-running the StemPure prefix but this call avoided by
    /// batching: `(amplitudes_in_batch − 1) ×` the executed
    /// [`stem_pure_flops`](Self::stem_pure_flops). Zero outside batched
    /// execution.
    stem_pure_flops_reused: u64, sum;
    /// StemPure pairwise contractions executed by this call. In a batched
    /// execution this equals the StemPure schedule length times the number
    /// of subtasks run — independent of the batch size.
    stem_pure_contractions: u64, sum;
    /// Portion of `stem_flops` spent on StemMixed contractions — the
    /// slice-dependent *and* projector-dependent suffix. A batched
    /// execution computes each mixed intermediate once per distinct
    /// `(subtask, dependent-output-bits)` key instead of once per
    /// bitstring, so this is the deduped bill actually executed. Zero when
    /// reuse is off (the full replay does not classify its contractions).
    stem_mixed_flops: u64, sum;
    /// Floating point operations a loop of single executions would have
    /// spent replaying StemMixed contractions per bitstring but this call
    /// avoided by keyed deduplication: the per-`(subtask, bitstring)` mixed
    /// bill times the batch, minus the executed
    /// [`stem_mixed_flops`](Self::stem_mixed_flops). Zero outside batched
    /// execution.
    stem_mixed_flops_reused: u64, sum;
    /// StemMixed pairwise contractions executed by this call. In a batched
    /// execution every mixed contraction runs once per distinct key its
    /// output depends on (per subtask), not once per bitstring.
    stem_mixed_contractions: u64, sum;
    /// StemMixed pairwise contractions a per-bitstring replay would have
    /// executed but keyed deduplication skipped (the batch shared an
    /// already-computed intermediate). Zero outside batched execution.
    stem_mixed_contractions_deduped: u64, sum;
    /// Sum over StemMixed contraction nodes of the number of distinct
    /// dependent-bits keys the batch presented — the structural lower bound
    /// on per-subtask mixed contractions. On spine-shaped mixed suffixes
    /// (nested dependency masks) the executed
    /// [`stem_mixed_contractions`](Self::stem_mixed_contractions) equals
    /// exactly this times the subtasks run. Zero outside batched execution.
    stem_mixed_distinct_keys: u64, sum;
    /// Number of amplitudes this execution produced: the batch size of a
    /// batched multi-amplitude execution, 1 for single executions.
    amplitudes_in_batch: u64, sum;
    /// Portion of `flops` spent contracting the per-execution frontier
    /// (output-projector-dependent, slice-invariant nodes) — paid once per
    /// execution, not per subtask.
    frontier_flops: u64, sum;
    /// Portion of `flops` spent building the plan-lifetime branch cache.
    /// Reported once per build, by the first execution that succeeds after
    /// it (normally the one that ran it); every later execution sharing
    /// that plan instance reports 0.
    branch_flops: u64, sum;
    /// Floating point operations a full per-subtask replay would have
    /// executed but this call avoided thanks to the reuse layer. Counts
    /// *both* cache levels: branch contractions not replayed per subtask
    /// (or at all, once the cache exists) and frontier contractions
    /// replayed once instead of per subtask.
    branch_flops_reused: u64, sum;
    /// Branch-class pairwise contractions executed by this call (non-zero
    /// only while building the plan-lifetime cache).
    branch_contractions: u64, sum;
    /// Frontier-class pairwise contractions executed by this call.
    frontier_contractions: u64, sum;
    /// Parameter-slot updates applied by
    /// `CompiledCircuit::rebind_parameters` that this call's branch-cache
    /// build absorbed. Reported (like [`branch_flops`](Self::branch_flops))
    /// once, with the post-rebind build; zero on a cold compile and on
    /// every execution reusing an already-reported cache.
    params_rebound: u64, sum;
    /// Previously cached branch entries the rebinds' invalidation cones
    /// dropped — exactly the kept roots whose parameter dependency mask
    /// intersects a rebound slot; this call rebuilt only those.
    branch_entries_invalidated: u64, sum;
    /// Floating point operations of the branch entries that *survived* the
    /// rebinds and were carried over instead of re-executed. The flop
    /// identity `branch_flops_survived_rebind + branch_flops ==` the cold
    /// build's `branch_flops` holds exactly.
    branch_flops_survived_rebind: u64, sum;
    /// Contractions whose GEMM dispatched to a fully unrolled
    /// rank-specialized micro-kernel (m, n ∈ {1, 2, 4}, k ∈ {2, 4, 8} — the
    /// bond-dimension-2 hot shapes).
    gemm_micro: u64, sum;
    /// Contractions whose GEMM degenerated to a matrix–vector product
    /// (m == 1 or n == 1) and took the dedicated GEMV row/column kernel.
    gemm_gemv: u64, sum;
    /// Contractions dispatched to the narrow-matrix kernel.
    gemm_narrow: u64, sum;
    /// Contractions dispatched to the packed/blocked GEMM.
    gemm_blocked: u64, sum;
    /// Portion of the dispatched contractions that took a SIMD code path
    /// (AVX2+FMA, AVX-512 or NEON) instead of the scalar reference kernels.
    /// Zero when the process dispatches at the scalar level — no SIMD
    /// hardware, `QTNSIM_FORCE_SCALAR` set, or a test override.
    gemm_simd: u64, sum;
    /// SIMD level the executor dispatched at (`"scalar"`, `"neon"`,
    /// `"avx2-fma"`, `"avx512"`; see [`qtn_tensor::simd_level`]). Empty on
    /// a default-constructed stats value.
    simd_level: &'static str, first;
    /// Buffers the per-worker pools had to freshly allocate, summed over
    /// workers. On a cold pool this equals the plan's predicted slot count
    /// times [`workers`](Self::workers) (the worker count actually used,
    /// which is capped at the subtask count — idle workers allocate
    /// nothing); every later execution of the same plan reports 0 — the
    /// proof of the zero-allocation steady state. Zero when pooling is off.
    buffers_allocated: u64, sum;
    /// Buffers served from pool free lists instead of the allocator,
    /// summed over workers. Zero when pooling is off.
    buffers_reused: u64, sum;
    /// Exact high-water mark of bytes checked out of any single worker's
    /// buffer pool (each worker replays one subtask at a time, so this is
    /// the per-worker stem working set, not the sum across workers). Zero
    /// when pooling is off.
    peak_bytes_in_flight: u64, max;
    /// The plan-time prediction for `peak_bytes_in_flight`: the
    /// [`qtn_tensornet::PhaseMemoryPlan::peak_bytes`] of the stem phase the
    /// call ran — `stem` for a single amplitude, `batched_stem` for a batch
    /// of two or more. Lifetimes of contraction intermediates are
    /// statically known, so a pooled execution satisfies
    /// `peak_bytes_in_flight <= predicted_peak_bytes` exactly (equality
    /// whenever at least one sliced subtask ran).
    predicted_peak_bytes: u64, max;
    /// Wall-clock time of the whole execution, including the serial cache
    /// phases (branch build, frontier build) when reuse runs them.
    wall_seconds: f64, sum;
    /// Wall-clock time from the executor's entry to the start of the slice
    /// sweep: the branch-cache build on a plan's first execution, the key
    /// tables, the program compiles and the frontier build. The part of
    /// `wall_seconds` before the sweep starts.
    prepare_seconds: f64, sum;
    /// Mean wall-clock time of one subtask on one worker, measured over the
    /// parallel sweep only — the one-off cache builds are excluded. With
    /// reuse enabled this prices a *stem-only* replay; extrapolations that
    /// need the cost of a standalone full subtask should measure with
    /// [`ExecutorConfig::reuse`](super::ExecutorConfig::reuse) disabled.
    seconds_per_subtask: f64, derived;
    /// Worker threads used.
    workers: usize, max;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keys_keep_their_names_and_order() {
        // The serve stats endpoint and the benchmark read these by name.
        let expected = [
            "subtasks_run",
            "subtasks_total",
            "flops",
            "stem_flops",
            "stem_pure_flops",
            "stem_pure_flops_reused",
            "stem_pure_contractions",
            "stem_mixed_flops",
            "stem_mixed_flops_reused",
            "stem_mixed_contractions",
            "stem_mixed_contractions_deduped",
            "stem_mixed_distinct_keys",
            "amplitudes_in_batch",
            "frontier_flops",
            "branch_flops",
            "branch_flops_reused",
            "branch_contractions",
            "frontier_contractions",
            "params_rebound",
            "branch_entries_invalidated",
            "branch_flops_survived_rebind",
            "gemm_micro",
            "gemm_gemv",
            "gemm_narrow",
            "gemm_blocked",
            "gemm_simd",
            "simd_level",
            "buffers_allocated",
            "buffers_reused",
            "peak_bytes_in_flight",
            "predicted_peak_bytes",
            "wall_seconds",
            "prepare_seconds",
            "seconds_per_subtask",
            "workers",
        ];
        let json = ExecutionStats { simd_level: "scalar", ..Default::default() }.to_json();
        let keys: Vec<&str> =
            json.split('"').skip(1).step_by(2).filter(|k| *k != "scalar").collect();
        assert_eq!(keys, expected);
        assert!(json.contains("\"simd_level\": \"scalar\""), "{json}");
    }

    #[test]
    fn absorb_follows_each_fields_merge_rule() {
        let mut total = ExecutionStats::default();
        let first = ExecutionStats {
            subtasks_run: 4,
            flops: 100,
            peak_bytes_in_flight: 512,
            wall_seconds: 2.0,
            workers: 2,
            simd_level: "avx2-fma",
            ..Default::default()
        };
        let second = ExecutionStats {
            subtasks_run: 4,
            flops: 50,
            peak_bytes_in_flight: 256,
            wall_seconds: 2.0,
            workers: 1,
            simd_level: "scalar",
            ..Default::default()
        };
        total.absorb(&first);
        total.absorb(&second);
        assert_eq!((total.subtasks_run, total.flops), (8, 150), "counters sum");
        assert_eq!((total.peak_bytes_in_flight, total.workers), (512, 2), "high-water marks max");
        assert_eq!(total.simd_level, "avx2-fma", "the first non-empty level sticks");
        assert_eq!(total.wall_seconds, 4.0);
        assert_eq!(total.seconds_per_subtask, 0.5, "derived from the merged totals");
    }
}
