//! A warm execution allocates a fixed number of times.
//!
//! The executor reads each output projector in place from the bitstring,
//! the frontier runs a compiled program into one per-execution arena, the
//! stem sweep draws every buffer from the plan's warm pool, and a
//! one-worker sweep runs on the calling thread. So once warm, an execution
//! allocates the same small number of times whatever its qubit count or
//! the size of its frontier or stem. A counting global allocator checks
//! that on the `serve-s12` circuit (3x4, 10 cycles) and on a 4x4, 10-cycle
//! circuit with more qubits and a larger frontier, for one amplitude and for
//! a keyed batch of 16. It counts on every thread, because a wider sweep
//! runs on pool threads.
//!
//! The file holds a single test, so no other test allocates while it
//! counts.

use qtnsim::circuit::{OutputSpec, RqcConfig};
use qtnsim::{Engine, ExecutorConfig, PlannerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; counting is one
// atomic add, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on any thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, out)
}

/// What one warm `execute_amplitude` allocates, and the frontier
/// contractions it ran.
fn warm_execution(rows: usize, cols: usize) -> (usize, u64) {
    let circuit = RqcConfig::small(rows, cols, 10, 5).build();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(
        PlannerConfig { target_rank: 8, ..Default::default() },
        ExecutorConfig { workers: 1, max_subtasks: 0, reuse: true, pool: true },
    );
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    let bits: Vec<u8> = (0..n).map(|q| (q % 3 == 0) as u8).collect();
    for _ in 0..3 {
        compiled.execute_amplitude(&bits).unwrap();
    }
    let (execution, (_, report)) = allocations(|| compiled.execute_amplitude(&bits).unwrap());
    assert_eq!(report.stats.buffers_allocated, 0, "{rows}x{cols}: the pool is warm");
    (execution, report.stats.frontier_contractions)
}

/// What one warm 16-bitstring `execute_amplitudes` allocates.
fn warm_batch(rows: usize, cols: usize) -> usize {
    let circuit = RqcConfig::small(rows, cols, 10, 5).build();
    let n = circuit.num_qubits();
    let engine = Engine::with_configs(
        PlannerConfig { target_rank: 8, ..Default::default() },
        ExecutorConfig { workers: 1, max_subtasks: 0, reuse: true, pool: true },
    );
    let compiled = engine.compile(&circuit, &OutputSpec::Amplitude(vec![0; n])).unwrap();
    let bits: Vec<Vec<u8>> = (0..16u32)
        .map(|s| (0..n).map(|q| ((s.wrapping_mul(0x9E37) >> (q % 16)) & 1) as u8).collect())
        .collect();
    let batch: Vec<&[u8]> = bits.iter().map(Vec::as_slice).collect();
    for _ in 0..3 {
        compiled.execute_amplitudes(&batch).unwrap();
    }
    let (execution, (_, report)) = allocations(|| compiled.execute_amplitudes(&batch).unwrap());
    assert_eq!(report.stats.buffers_allocated, 0, "{rows}x{cols}: the pool is warm");
    assert!(report.stats.stem_mixed_distinct_keys > 1, "{rows}x{cols}: the batch is keyed");
    execution
}

#[test]
fn a_warm_execution_allocates_a_fixed_number_of_times() {
    let (serve, serve_frontier) = warm_execution(3, 4);
    let (wide, wide_frontier) = warm_execution(4, 4);
    assert!(wide_frontier > serve_frontier, "the 4x4 circuit has the larger frontier");
    assert_eq!(serve, wide, "allocations must not grow with the qubit count, frontier or stem");
    assert!(serve <= 24, "a warm execution allocates {serve} times");
    // A keyed batch's tables take one flat allocation per kind, whatever
    // the number of keyed nodes: the key schedule (ordinals, sort priority)
    // is compiled with the program, not rebuilt per call.
    let (serve_batch, wide_batch) = (warm_batch(3, 4), warm_batch(4, 4));
    assert_eq!(serve_batch, wide_batch, "batch allocations must not grow with the circuit");
    assert!(serve_batch <= 48, "a warm batch of 16 allocates {serve_batch} times");
}
