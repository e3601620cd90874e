//! The SIMD entry points [`super::KernelPlan`] dispatches to.
//!
//! [`support`] says which shape classes have a SIMD variant at a level;
//! [`micro`], [`narrow`] and [`blocked`] run them. All routing here is by
//! [`SimdLevel`]; the level itself was already validated against the
//! hardware probe by the dispatcher, which is what makes the
//! `#[target_feature]` calls sound.
//!
//! Two acceleration strategies appear:
//!
//! * **Intrinsics** — narrow and blocked shapes alike run the one
//!   hand-written interleaved tile in [`super::avx2`]. At
//!   [`SimdLevel::Avx512`] the blocked class enters its 512-bit
//!   instantiation and every other class runs exactly the
//!   [`SimdLevel::Avx2Fma`] code.
//! * **A `#[target_feature]` twin** — the micro-kernels reuse the *scalar*
//!   bodies compiled a second time in an AVX2+FMA context, where LLVM
//!   unrolls and vectorizes them (at both x86 levels). Same code, different
//!   instruction selection; the scalar original stays untouched as the
//!   reference path.
//!
//! On aarch64, NEON is a baseline feature: the portable bodies already
//! compile to vector code, so there is no separate `micro` or `narrow`
//! variant, and the blocked class runs the portable packed driver — the
//! same body as the scalar blocked path, whose split-real plane layout is
//! what lets it vectorize.

use super::micro;
use super::packed::{gemm_packed, PackArena};
use super::view::{Layout, MatRef};
use super::SimdLevel;
use crate::complex::Complex64;
use crate::gemm::gemm_narrow;
use std::cell::RefCell;

thread_local! {
    static PACK: RefCell<PackArena> = const { RefCell::new(PackArena::new()) };
}

/// Which dispatch classes have a SIMD variant at a given level. The GEMV
/// classes are always scalar (a plan spends well under 0.1% of its GEMM
/// time in them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SimdSupport {
    /// SIMD variant of the unrolled micro-kernels.
    pub(crate) micro: bool,
    /// Register-blocked SIMD tile for the narrow class.
    pub(crate) narrow: bool,
    /// SIMD path for the blocked class: the narrow class's interleaved tile
    /// on x86 (its packed tiles at 512 bits at AVX-512), the portable
    /// split-real packed driver on NEON.
    pub(crate) blocked: bool,
}

/// The classes with a SIMD variant at `level`: what
/// [`super::KernelPlan::taken`] reports and `run` then dispatches.
pub(crate) fn support(level: SimdLevel) -> SimdSupport {
    match level {
        SimdLevel::Scalar => SimdSupport::default(),
        SimdLevel::Avx2Fma | SimdLevel::Avx512 => SimdSupport {
            micro: cfg!(target_arch = "x86_64"),
            narrow: cfg!(target_arch = "x86_64"),
            blocked: true,
        },
        SimdLevel::Neon => SimdSupport { micro: false, narrow: false, blocked: true },
    }
}

/// Micro-kernel table compiled with AVX2+FMA codegen.
///
/// # Safety
/// Requires AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn micro_avx2<L: Layout>(
    a: MatRef<'_, Complex64, L>,
    b: MatRef<'_, Complex64, L>,
    c: &mut [Complex64],
) {
    micro::run_scalar(a, b, c)
}

/// Micro-kernel `C += A·B`.
// Off x86_64 this match, and the two below, collapse to the portable arm.
#[allow(clippy::match_single_binding)]
pub(crate) fn micro<L: Layout>(
    level: SimdLevel,
    a: MatRef<'_, Complex64, L>,
    b: MatRef<'_, Complex64, L>,
    c: &mut [Complex64],
) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: both x86 levels are only dispatched after runtime
        // detection, and each implies AVX2+FMA.
        SimdLevel::Avx2Fma | SimdLevel::Avx512 => unsafe { micro_avx2(a, b, c) },
        _ => micro::run_scalar(a, b, c),
    }
}

/// Narrow `C += A·B`, or `C = A·B` with `overwrite`.
#[allow(clippy::match_single_binding)]
pub(crate) fn narrow<L: Layout>(
    level: SimdLevel,
    a: MatRef<'_, Complex64, L>,
    b: MatRef<'_, Complex64, L>,
    c: &mut [Complex64],
    overwrite: bool,
) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: both x86 levels are only dispatched after runtime
        // detection, and each implies AVX2+FMA.
        SimdLevel::Avx2Fma | SimdLevel::Avx512 => unsafe {
            super::avx2::gemm_avx2(a, b, c, overwrite)
        },
        _ => {
            if overwrite {
                c.fill(Complex64::ZERO);
            }
            gemm_narrow(a, b, c)
        }
    }
}

/// Blocked `C += A·B`, or `C = A·B` with `overwrite`: the x86 tile the
/// narrow class runs (its 512-bit instantiation at AVX-512), the portable
/// packed driver on this thread's [`PackArena`] at every other level —
/// which makes `blocked(SimdLevel::Scalar, ..)` the scalar blocked path.
#[allow(clippy::match_single_binding)]
pub(crate) fn blocked<L: Layout>(
    level: SimdLevel,
    a: MatRef<'_, Complex64, L>,
    b: MatRef<'_, Complex64, L>,
    c: &mut [Complex64],
    overwrite: bool,
) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only dispatched after runtime detection.
        SimdLevel::Avx2Fma => unsafe { super::avx2::gemm_avx2(a, b, c, overwrite) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx512 is only dispatched after runtime detection of
        // AVX-512F, AVX2 and FMA.
        SimdLevel::Avx512 => unsafe { super::avx2::gemm_avx512(a, b, c, overwrite) },
        _ => {
            if overwrite {
                c.fill(Complex64::ZERO);
            }
            PACK.with(|arena| gemm_packed(&mut arena.borrow_mut(), a, b, c))
        }
    }
}
