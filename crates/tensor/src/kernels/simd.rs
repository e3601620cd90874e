//! Per-precision SIMD entry points behind the [`Scalar`] hooks.
//!
//! The `Scalar` trait cannot name concrete intrinsics, so each precision
//! gets a tiny module (`c64_simd` / `c32_simd`) with `support` / `micro` /
//! `narrow` / `blocked` functions that the `impl_complex!` macro wires into
//! the trait. All routing here is by [`SimdLevel`]; the level itself was
//! already validated against the hardware probe by the dispatcher, which is
//! what makes the `#[target_feature]` calls sound.
//!
//! Two acceleration strategies appear:
//!
//! * **Intrinsics** — `Complex64` narrow shapes and blocked panels use the
//!   hand-written AVX2+FMA tiles in [`super::avx2`].
//! * **`#[target_feature]` twins** — the micro-kernels and the `Complex32`
//!   packed driver reuse the *scalar* bodies compiled a second time in an
//!   AVX2+FMA context, where LLVM unrolls and vectorizes them. Same code,
//!   different instruction selection; the scalar originals stay untouched
//!   as the reference path.
//!
//! A precision without a hand-written narrow tile (`Complex32`) reports no
//! narrow support and runs the scalar streaming loop: recompiling that loop
//! under AVX2 measured 1.0–1.3x, which is not a second code path worth
//! keeping.
//!
//! On aarch64, NEON is a baseline feature: the portable bodies already
//! compile to vector code, so only the split-real blocked driver (whose
//! plane layout is what actually enables vectorization) is routed, and
//! `micro`/`narrow` report no separate SIMD variant.

use super::micro;
use super::packed::{gemm_packed_with, tile_generic, PackArena};
use super::view::{Layout, MatRef};
use super::{SimdLevel, SimdSupport};
use crate::complex::{Complex32, Complex64, Scalar};
use crate::gemm::gemm_narrow;
use std::cell::RefCell;

thread_local! {
    static PACK_F64: RefCell<PackArena<f64>> = const { RefCell::new(PackArena::new()) };
    static PACK_F32: RefCell<PackArena<f32>> = const { RefCell::new(PackArena::new()) };
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;

    /// Micro-kernel table compiled with AVX2+FMA codegen.
    ///
    /// # Safety
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn micro_avx2<T: Scalar, L: Layout>(
        a: MatRef<'_, T, L>,
        b: MatRef<'_, T, L>,
        c: &mut [T],
    ) {
        micro::run_scalar(a, b, c)
    }

    /// Split-real packed driver with the portable tile, compiled with
    /// AVX2+FMA codegen (used for `Complex32`, whose f32 planes vectorize
    /// 8-wide without hand intrinsics).
    ///
    /// # Safety
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn packed_avx2_c32<L: Layout>(
        arena: &mut PackArena<f32>,
        a: MatRef<'_, Complex32, L>,
        b: MatRef<'_, Complex32, L>,
        c: &mut [Complex32],
    ) {
        gemm_packed_with(arena, a, b, c, tile_generic)
    }
}

macro_rules! simd_entries {
    (@given) => {
        false
    };
    (@given $narrow_avx2:path) => {
        true
    };
    ($mod_name:ident, $ty:ty, $arena:ident, $blocked_avx2:path $(, $narrow_avx2:path)?) => {
        /// SIMD entry points for this precision (see module docs).
        pub(crate) mod $mod_name {
            use super::*;

            pub(crate) fn support(level: SimdLevel) -> SimdSupport {
                match level {
                    SimdLevel::Scalar => SimdSupport::default(),
                    SimdLevel::Avx2Fma => SimdSupport {
                        micro: cfg!(target_arch = "x86_64"),
                        narrow: cfg!(target_arch = "x86_64")
                            && simd_entries!(@given $($narrow_avx2)?),
                        blocked: true,
                    },
                    SimdLevel::Neon => SimdSupport { micro: false, narrow: false, blocked: true },
                }
            }

            // Off x86_64 the match collapses to its portable arm.
            #[allow(clippy::match_single_binding)]
            pub(crate) fn micro<L: Layout>(
                level: SimdLevel,
                a: MatRef<'_, $ty, L>,
                b: MatRef<'_, $ty, L>,
                c: &mut [$ty],
            ) {
                match level {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: Avx2Fma is only dispatched after runtime detection.
                    SimdLevel::Avx2Fma => unsafe { x86::micro_avx2(a, b, c) },
                    _ => micro::run_scalar(a, b, c),
                }
            }

            #[allow(clippy::match_single_binding)]
            pub(crate) fn narrow<L: Layout>(
                level: SimdLevel,
                a: MatRef<'_, $ty, L>,
                b: MatRef<'_, $ty, L>,
                c: &mut [$ty],
                overwrite: bool,
            ) {
                match level {
                    $(
                        #[cfg(target_arch = "x86_64")]
                        // SAFETY: Avx2Fma is only dispatched after runtime
                        // detection.
                        SimdLevel::Avx2Fma => unsafe { $narrow_avx2(a, b, c, overwrite) },
                    )?
                    _ => {
                        if overwrite {
                            c.fill(<$ty>::ZERO);
                        }
                        gemm_narrow(a, b, c)
                    }
                }
            }

            #[allow(clippy::match_single_binding)]
            pub(crate) fn blocked<L: Layout>(
                level: SimdLevel,
                a: MatRef<'_, $ty, L>,
                b: MatRef<'_, $ty, L>,
                c: &mut [$ty],
            ) {
                $arena.with(|arena| {
                    let arena = &mut *arena.borrow_mut();
                    match level {
                        #[cfg(target_arch = "x86_64")]
                        // SAFETY: Avx2Fma is only dispatched after runtime
                        // detection.
                        SimdLevel::Avx2Fma => unsafe { $blocked_avx2(arena, a, b, c) },
                        _ => gemm_packed_with(arena, a, b, c, tile_generic),
                    }
                });
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
simd_entries!(
    c64_simd,
    Complex64,
    PACK_F64,
    super::super::avx2::gemm_avx2_c64,
    super::super::avx2::gemm_narrow_avx2_c64
);
#[cfg(target_arch = "x86_64")]
simd_entries!(c32_simd, Complex32, PACK_F32, x86::packed_avx2_c32);

// Off x86_64 there is no AVX2 entry to name; pass a never-taken stub so the
// macro body stays uniform.
#[cfg(not(target_arch = "x86_64"))]
simd_entries!(c64_simd, Complex64, PACK_F64, unreachable_blocked_c64);
#[cfg(not(target_arch = "x86_64"))]
simd_entries!(c32_simd, Complex32, PACK_F32, unreachable_blocked_c32);
