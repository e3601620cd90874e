//! Pinned executions: every amplitude and every deterministic counter of a
//! fixed set of executions, digested and compared against checked-in
//! values.
//!
//! Four circuits (a 3x4x10 RQC at target rank 8, a 3x3x8 RQC at target 7,
//! a 4x4x10 RQC at target 10 and a 3x3x8 RQC with two open qubits) run
//! under every combination of 1 or 2 workers, pool on or off and reuse on
//! or off. Each combination compiles on a fresh engine and runs three
//! single executions, one 16-bitstring batch, a parameter rebind and the
//! same batch again. An open-shape compile has no multi-bitstring entry,
//! so its batch is 16 `execute_batch` calls.
//!
//! Per circuit the test folds two FNV-1a digests: one over the `f64` bits
//! of every amplitude, one over every integer counter of every
//! [`ExecutionStats`] that depends neither on the SIMD level nor on the
//! clock. Amplitudes round differently at each SIMD level, so their digests
//! are pinned per level (`avx2-fma` and `scalar`, the level
//! `QTNSIM_FORCE_SCALAR=1` forces). The `avx512` level must reproduce the
//! `avx2-fma` digests: its 512-bit blocked tiles keep the 256-bit tile's
//! FMA order. At any other level only the counters are checked. A change
//! to the executor that keeps these digests computes the same numbers and
//! does the same bookkeeping.

use qtnsim::circuit::{OutputSpec, RqcConfig};
use qtnsim::{Circuit, CompiledCircuit, Complex64, Engine, ExecutionReport, ExecutorConfig};
use qtnsim::{ExecutionStats, PlannerConfig};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf29ce484222325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// Every counter of `stats` that depends neither on the SIMD level nor on
/// the clock (so not `gemm_simd`, `simd_level` or the three timings).
fn counters(stats: &ExecutionStats) -> [u64; 30] {
    [
        stats.subtasks_run as u64,
        stats.subtasks_total as u64,
        stats.flops,
        stats.stem_flops,
        stats.stem_pure_flops,
        stats.stem_pure_flops_reused,
        stats.stem_pure_contractions,
        stats.stem_mixed_flops,
        stats.stem_mixed_flops_reused,
        stats.stem_mixed_contractions,
        stats.stem_mixed_contractions_deduped,
        stats.stem_mixed_distinct_keys,
        stats.amplitudes_in_batch,
        stats.frontier_flops,
        stats.branch_flops,
        stats.branch_flops_reused,
        stats.branch_contractions,
        stats.frontier_contractions,
        stats.params_rebound,
        stats.branch_entries_invalidated,
        stats.branch_flops_survived_rebind,
        stats.gemm_micro,
        stats.gemm_gemv,
        stats.gemm_narrow,
        stats.gemm_blocked,
        stats.buffers_allocated,
        stats.buffers_reused,
        stats.peak_bytes_in_flight,
        stats.predicted_peak_bytes,
        stats.workers as u64,
    ]
}

/// The two digests of one circuit, and the SIMD level it ran at.
struct Digests {
    amplitudes: Fnv,
    counters: Fnv,
    level: &'static str,
}

impl Digests {
    fn report(&mut self, report: &ExecutionReport) {
        counters(&report.stats).iter().for_each(|&c| self.counters.word(c));
        self.counters.word(u64::from(report.branch_cache_hit));
        self.level = report.stats.simd_level;
    }

    fn amplitudes<'a>(&mut self, amplitudes: impl IntoIterator<Item = &'a Complex64>) {
        for a in amplitudes {
            self.amplitudes.word(a.re.to_bits());
            self.amplitudes.word(a.im.to_bits());
        }
    }
}

/// One pinned circuit.
struct Case {
    circuit: Circuit,
    target_rank: usize,
    /// Open qubits of an open-shape compile; empty for amplitudes.
    open: Vec<usize>,
}

/// `count` deterministic bitstrings of `n` bits from a 64-bit LCG.
fn bitstrings(n: usize, count: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..count)
        .map(|_| {
            (0..n)
                .map(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 63) as u8
                })
                .collect()
        })
        .collect()
}

/// Execute `bits` as one batch: one call for an amplitude compile, one
/// `execute_batch` per bitstring for an open-shape compile.
fn run_batch(compiled: &CompiledCircuit, bits: &[Vec<u8>], case: &Case, digests: &mut Digests) {
    if case.open.is_empty() {
        let batch: Vec<&[u8]> = bits.iter().map(Vec::as_slice).collect();
        let (amplitudes, report) = compiled.execute_amplitudes(&batch).expect("batch");
        digests.amplitudes(&amplitudes);
        digests.report(&report);
    } else {
        for fixed in bits {
            let (tensor, report) = compiled.execute_batch(fixed).expect("open batch");
            digests.amplitudes(tensor.data());
            digests.report(&report);
        }
    }
}

/// Run every configuration of one case and digest it.
fn digest(case: &Case) -> Digests {
    let n = case.circuit.num_qubits();
    let spec = if case.open.is_empty() {
        OutputSpec::Amplitude(vec![0; n])
    } else {
        OutputSpec::Open { fixed: vec![0; n], open: case.open.clone() }
    };
    let planner = PlannerConfig { target_rank: case.target_rank, ..Default::default() };
    let mut digests = Digests { amplitudes: Fnv::new(), counters: Fnv::new(), level: "" };
    let singles = bitstrings(n, 3, 1);
    let batch = bitstrings(n, 16, 2);
    for workers in [1, 2] {
        for pool in [true, false] {
            for reuse in [true, false] {
                let executor = ExecutorConfig { workers, max_subtasks: 0, reuse, pool };
                let engine = Engine::with_configs(planner.clone(), executor);
                let mut compiled = engine.compile(&case.circuit, &spec).expect("compile");
                for bits in &singles {
                    run_batch(&compiled, std::slice::from_ref(bits), case, &mut digests);
                }
                run_batch(&compiled, &batch, case, &mut digests);
                let slots = compiled.param_slots().len();
                compiled.rebind_parameters(&[(slots / 2, 1.25), (slots - 1, -0.75)]).unwrap();
                run_batch(&compiled, &batch, case, &mut digests);
            }
        }
    }
    digests
}

/// `(counters, avx2-fma amplitudes, scalar amplitudes)` per case, in
/// `cases()` order.
const PINNED: [(u64, u64, u64); 4] = [
    (0xfaedd504e08ace9f, 0x95eae319e33b4ee5, 0xa65a648664c961c5),
    (0xcaa64ba5738fb559, 0xbccfec2b473f8c5d, 0x4244f04643d1c9ed),
    (0x21ae4d5196c71179, 0x68d61d6e7741caa5, 0xf35b6fbeb9138fc5),
    (0x4ac21c889d3aa49d, 0x63b4481e62460f25, 0xd8b9fc4b4ef4c2d5),
];

fn cases() -> [Case; 4] {
    [
        Case { circuit: RqcConfig::small(3, 4, 10, 5).build(), target_rank: 8, open: vec![] },
        Case { circuit: RqcConfig::small(3, 3, 8, 2).build(), target_rank: 7, open: vec![] },
        Case { circuit: RqcConfig::small(4, 4, 10, 5).build(), target_rank: 10, open: vec![] },
        Case { circuit: RqcConfig::small(3, 3, 8, 4).build(), target_rank: 7, open: vec![0, 1] },
    ]
}

#[test]
fn executions_are_pinned() {
    let digests: Vec<Digests> = cases().iter().map(digest).collect();
    let moved = digests.iter().zip(PINNED).any(|(d, (counters, avx2, scalar))| {
        let amplitudes = match d.level {
            "avx2-fma" | "avx512" => Some(avx2),
            "scalar" => Some(scalar),
            _ => None,
        };
        d.counters.0 != counters || amplitudes.is_some_and(|pinned| pinned != d.amplitudes.0)
    });
    let table: Vec<String> = digests
        .iter()
        .map(|d| format!("(0x{:016x}, 0x{:016x}) at {}", d.counters.0, d.amplitudes.0, d.level))
        .collect();
    assert!(!moved, "an execution moved; (counters, amplitudes) per case:\n{}", table.join("\n"));
}
