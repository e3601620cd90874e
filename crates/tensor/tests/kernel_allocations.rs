//! GEMM kernels allocate nothing once warm.
//!
//! The executor's steady state is allocation-free, and the pool tests only
//! see pool buffers. The kernels' own thread-local scratch — the AVX2 tile's
//! packed-`B` panel (its offsets live on the stack) and the portable blocked
//! path's `PackArena` — grows on a
//! thread's first call of a shape and must never allocate again. A counting
//! global allocator, counted on the calling thread, checks that after one
//! warm-up call per shape, at the probed level and at `Scalar`.

use qtn_tensor::{
    c64, set_simd_override, simd_level, Complex64, ContractionKernel, IndexId, IndexSet, SimdLevel,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
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

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A micro, a GEMV, a deep narrow `m <= 8`, a narrow `m > 8`, a blocked
/// (`n > 16`, `k > 128`), and a tall and a wide single-chunk narrow shape,
/// as `(m, n, k)`.
const SHAPES: [(usize, usize, usize); 7] =
    [(2, 2, 4), (1, 64, 128), (8, 4, 512), (64, 4, 8), (32, 64, 256), (4096, 4, 4), (4, 4096, 4)];

#[test]
fn warm_kernels_allocate_nothing() {
    let probed = simd_level();
    for level in [probed, SimdLevel::Scalar] {
        // Kernels freeze the level they are compiled at.
        set_simd_override(Some(level));
        for &(m, n, k) in &SHAPES {
            let bits = |d: usize| d.trailing_zeros();
            let left: Vec<IndexId> = (0..bits(m)).chain(100..100 + bits(k)).collect();
            let right: Vec<IndexId> = (100..100 + bits(k)).chain(200..200 + bits(n)).collect();
            let kernel = ContractionKernel::new(&IndexSet::new(left), &IndexSet::new(right));
            assert_eq!(kernel.spec().gemm_shape(), (m, n, k));
            let plan = kernel.gemm_plan();
            let a = vec![c64(0.5, -0.25); m * k];
            let b = vec![c64(-0.75, 0.5); k * n];
            let mut c = vec![Complex64::ZERO; m * n];
            let what = format!("({m},{n},{k}) {:?}", plan.taken::<Complex64>());
            kernel.contract(&a, &b, &mut c);
            plan.apply(&a, &b, &mut c, m, n, k);
            assert_eq!(allocations(|| kernel.contract(&a, &b, &mut c)), 0, "{what} contract");
            assert_eq!(allocations(|| plan.apply(&a, &b, &mut c, m, n, k)), 0, "{what} apply");
        }
    }
    set_simd_override(None);
}
