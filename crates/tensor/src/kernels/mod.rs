//! Shape- and hardware-specialized GEMM dispatch over in-place operand views.
//!
//! Every contraction in the simulator bottoms out in one complex GEMM, and
//! because all bond dimensions are 2 the shapes are powers of two drawn from
//! a small set per plan. This module turns that structure into a two-axis
//! dispatch:
//!
//! * **Shape axis** ([`DispatchClass`]): fully unrolled micro-kernels for the
//!   rank-2 hot shapes (`m`/`n` ∈ {1, 2, 4}, `k` ∈ {2, 4, 8}), GEMV row/col
//!   for degenerate products, the narrow kernel (two of `m`, `n`, `k` ≤ 16 —
//!   a gate tensor against the running stem tensor, the bulk of a real
//!   plan's flops), and the packed/blocked kernel for everything
//!   square-ish.
//! * **Hardware axis** ([`SimdLevel`]): a one-time capability probe (AVX2+FMA
//!   or AVX-512 on x86_64, NEON on aarch64) selects the SIMD variants — on
//!   x86 one register-blocked interleaved tile serves the narrow and the
//!   blocked class (at AVX-512 the blocked class's packed tiles run at 512
//!   bits, bit-identical to AVX2+FMA), and NEON runs the portable
//!   split-real packed driver for the blocked class. The scalar kernels in
//!   [`crate::gemm`], the unrolled micro-kernels and the portable packed
//!   driver (the blocked class's scalar path, and its NEON path) are the
//!   reference.
//!
//! Every kernel computes on [`Complex64`], the simulator's one precision.
//!
//! Operands are never copied into GEMM layout first. Every kernel reads
//! `A` and `B` through a [`MatRef`] ([`view`]): element `(r, c)` lives at
//! `row(r) + col(c)`, which covers a dense row-major slice
//! ([`KernelPlan::apply`]) and a tensor whose axes are merely *regrouped*
//! into rows and columns ([`KernelPlan::apply_views`] on an
//! [`OffsetTable`]) with one code path. That is what retired TTGT's two
//! transposes: the "permute" is the address arithmetic of the loads (or of
//! the pack step, for the blocked class).
//!
//! A [`KernelPlan`] freezes both axes. [`crate::ContractionKernel`] resolves
//! its plan once at compile time, so the executor's zero-alloc steady state
//! never re-probes or re-classifies. Dispatch is a pure function of
//! `(shape, level)`: deterministic per process, and repeated
//! runs are bit-identical because every kernel fixes its summation order
//! (`p` ascending per output element, independent of the view).
//!
//! The probe can be overridden for testing: the `QTNSIM_FORCE_SCALAR`
//! environment variable (read once per process) forces the scalar
//! reference path, and the [`set_simd_override`] hook any level the CPU
//! supports (AVX2+FMA on an AVX-512 host, so one host runs both x86
//! tiles).

#[cfg(target_arch = "x86_64")]
mod avx2;
mod micro;
mod packed;
mod simd;
pub mod view;

pub use view::{Dense, Layout, MatRef, OffsetTable, Tables, MAX_RANK};

use crate::complex::{Complex64, Scalar};
use crate::gemm::{gemm_narrow, gemv_col, gemv_row, is_narrow, shape_of};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// SIMD capability level a GEMM dispatches at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Portable scalar kernels (the reference path).
    Scalar,
    /// aarch64 Advanced SIMD — baseline on that architecture, so the
    /// split-real kernels rely on auto-vectorization rather than intrinsics.
    Neon,
    /// x86_64 AVX2 + FMA, runtime-detected.
    Avx2Fma,
    /// x86_64 AVX-512F on top of AVX2 + FMA, runtime-detected: the blocked
    /// class's packed tiles run at 512 bits, every other class runs the
    /// [`SimdLevel::Avx2Fma`] code, and results are bit-identical to it.
    Avx512,
}

impl SimdLevel {
    /// Stable lowercase name, used in stats JSON and bench output.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Neon => "neon",
            SimdLevel::Avx2Fma => "avx2-fma",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

#[allow(unreachable_code)]
fn probe() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return SimdLevel::Avx512;
            }
            return SimdLevel::Avx2Fma;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return SimdLevel::Neon;
    }
    SimdLevel::Scalar
}

/// The raw hardware capability probe, cached after the first call. Ignores
/// both the environment force and the test override — [`simd_level`] is
/// what dispatch will actually do.
fn detected_simd() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(probe)
}

fn env_force_scalar() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var("QTNSIM_FORCE_SCALAR")
            .map(|v| {
                let v = v.trim();
                !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false")
            })
            .unwrap_or(false)
    })
}

/// Test override slot: 0 = none, 1 = Scalar, 2 = Neon, 3 = Avx2Fma,
/// 4 = Avx512.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Override the SIMD level for subsequent dispatch decisions (test hook).
///
/// `None` clears the override. Any level the CPU supports is honoured —
/// [`SimdLevel::Avx2Fma`] on an AVX-512 host, so one host runs both x86
/// tiles — and a level it lacks is clamped to [`SimdLevel::Scalar`]: the
/// override can lower the level but never fabricate capability. Kernels
/// compiled *before* the override (e.g. inside a
/// [`crate::ContractionKernel`]) keep their frozen level; set the override
/// before compiling the plan under test.
pub fn set_simd_override(level: Option<SimdLevel>) {
    let v = match level {
        None => 0,
        Some(SimdLevel::Scalar) => 1,
        Some(SimdLevel::Neon) => 2,
        Some(SimdLevel::Avx2Fma) => 3,
        Some(SimdLevel::Avx512) => 4,
    };
    OVERRIDE.store(v, Ordering::SeqCst);
}

fn clamp_to_detected(level: SimdLevel) -> SimdLevel {
    let detected = detected_simd();
    let runs = match level {
        SimdLevel::Scalar => true,
        SimdLevel::Avx2Fma => matches!(detected, SimdLevel::Avx2Fma | SimdLevel::Avx512),
        SimdLevel::Neon | SimdLevel::Avx512 => level == detected,
    };
    if runs {
        level
    } else {
        SimdLevel::Scalar
    }
}

/// The SIMD level new dispatch decisions use: the test override if set,
/// else [`SimdLevel::Scalar`] when `QTNSIM_FORCE_SCALAR` is in the
/// environment, else the hardware probe. Constant per process in the
/// absence of the test hook.
pub fn simd_level() -> SimdLevel {
    match OVERRIDE.load(Ordering::SeqCst) {
        1 => return SimdLevel::Scalar,
        2 => return clamp_to_detected(SimdLevel::Neon),
        3 => return clamp_to_detected(SimdLevel::Avx2Fma),
        4 => return clamp_to_detected(SimdLevel::Avx512),
        _ => {}
    }
    if env_force_scalar() {
        SimdLevel::Scalar
    } else {
        detected_simd()
    }
}

/// The shape class a GEMM dispatches to, decided once per
/// [`KernelPlan::select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchClass {
    /// Fully unrolled micro-kernel for this exact (tiny) shape.
    Micro {
        /// Rows of `C` (1, 2 or 4).
        m: u8,
        /// Columns of `C` (1, 2 or 4).
        n: u8,
        /// Contracted dimension (2, 4 or 8).
        k: u8,
    },
    /// `m == 1`: row vector times matrix.
    GemvRow,
    /// `n == 1`: matrix times column vector.
    GemvCol,
    /// Two of `m`, `n`, `k` ≤ 16: the narrow kernel.
    Narrow,
    /// Square-ish shapes: packed/blocked kernel.
    Blocked,
}

/// The concrete code path one `apply` takes, combining the shape class with
/// whether its SIMD variant is used. This is what `ExecutionStats`
/// tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum GemmPath {
    MicroSimd,
    MicroScalar,
    GemvRow,
    GemvCol,
    NarrowSimd,
    NarrowScalar,
    BlockedSimd,
    BlockedScalar,
}

/// A frozen GEMM dispatch decision: shape class plus SIMD level.
///
/// Built once (at [`crate::ContractionKernel`] compile time for the
/// executor's steady state) and applied to many buffers; `apply` performs no
/// probing or classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelPlan {
    class: DispatchClass,
    level: SimdLevel,
}

impl KernelPlan {
    /// Classify a shape at the process's current [`simd_level`].
    pub fn select(m: usize, n: usize, k: usize) -> Self {
        Self::select_with_level(m, n, k, simd_level())
    }

    /// Classify a shape at an explicit level (conformance tests pin levels
    /// independent of the probe).
    ///
    /// Priority: micro shapes first (they are also narrow by the size
    /// heuristic, but the unrolled kernels win), then the degenerate GEMV
    /// shapes, then narrow, then blocked.
    pub fn select_with_level(m: usize, n: usize, k: usize, level: SimdLevel) -> Self {
        let class = if micro::is_micro_shape(m, n, k) {
            DispatchClass::Micro { m: m as u8, n: n as u8, k: k as u8 }
        } else if m == 1 {
            DispatchClass::GemvRow
        } else if n == 1 {
            DispatchClass::GemvCol
        } else if is_narrow(m, n, k) {
            DispatchClass::Narrow
        } else {
            DispatchClass::Blocked
        };
        Self { class, level }
    }

    /// Build a plan with an explicit class, bypassing shape classification.
    /// The conformance suite and the gemm bench use this to force a specific
    /// path onto a shape; the class must still be applicable (a `Micro` plan
    /// requires a micro shape, `GemvRow` requires `m == 1`, ...).
    pub fn forced(class: DispatchClass, level: SimdLevel) -> Self {
        Self { class, level }
    }

    /// The shape class this plan dispatches to.
    pub fn class(self) -> DispatchClass {
        self.class
    }

    /// The SIMD level frozen into this plan.
    pub fn level(self) -> SimdLevel {
        self.level
    }

    /// The concrete path `apply` will take — a pure function of the plan, so
    /// callers (the executor's stats tally) can account for dispatch
    /// without running anything. Every GEMM runs on [`Complex64`]; the type
    /// parameter only lets callers name the element type they account for.
    pub fn taken<T: Scalar>(self) -> GemmPath {
        let support = simd::support(self.level);
        match self.class {
            DispatchClass::Micro { .. } => {
                if support.micro {
                    GemmPath::MicroSimd
                } else {
                    GemmPath::MicroScalar
                }
            }
            DispatchClass::GemvRow => GemmPath::GemvRow,
            DispatchClass::GemvCol => GemmPath::GemvCol,
            DispatchClass::Narrow => {
                if support.narrow {
                    GemmPath::NarrowSimd
                } else {
                    GemmPath::NarrowScalar
                }
            }
            DispatchClass::Blocked => {
                if support.blocked {
                    GemmPath::BlockedSimd
                } else {
                    GemmPath::BlockedScalar
                }
            }
        }
    }

    /// `C += A * B` down the frozen path, on dense row-major slices. Shapes
    /// are checked, the path is not re-derived. Every path accumulates into
    /// `C` with a fixed summation order, so repeated applications are
    /// bit-identical.
    pub fn apply(
        self,
        a: &[Complex64],
        b: &[Complex64],
        c: &mut [Complex64],
        m: usize,
        n: usize,
        k: usize,
    ) {
        self.apply_views(MatRef::dense(a, m, k), MatRef::dense(b, k, n), c);
    }

    /// `C += A * B` down the frozen path with both operands read in place
    /// through their views — the same kernels [`apply`](Self::apply) runs,
    /// and for a fixed output element the same summation order, so the
    /// result equals applying the plan to explicitly permuted dense copies
    /// bit for bit.
    ///
    /// # Panics
    /// If `A`'s columns differ from `B`'s rows, `C` is not `m * n` long, or
    /// the plan's class does not fit the shape (a `Micro` plan on another
    /// shape, `GemvRow` with `m != 1`, `GemvCol` with `n != 1`).
    pub fn apply_views<L: Layout>(
        self,
        a: MatRef<'_, Complex64, L>,
        b: MatRef<'_, Complex64, L>,
        c: &mut [Complex64],
    ) {
        self.run(a, b, c, false);
    }

    /// The one dispatch point. With `overwrite` the prior contents of `C`
    /// are ignored (`C = A * B`, bit-identical to zeroing `C` first): the
    /// narrow and blocked SIMD paths hand it to their kernel, whose x86
    /// tile then starts its accumulators at zero instead of loading `C` and
    /// so spares a contraction one full pass over its output; every other
    /// path zero-fills and accumulates.
    pub(crate) fn run<L: Layout>(
        self,
        a: MatRef<'_, Complex64, L>,
        b: MatRef<'_, Complex64, L>,
        c: &mut [Complex64],
        overwrite: bool,
    ) {
        let (m, n, k) = shape_of(&a, &b, c);
        if let DispatchClass::Micro { m: mm, n: nn, k: kk } = self.class {
            assert_eq!(
                (mm as usize, nn as usize, kk as usize),
                (m, n, k),
                "micro plan applied to a different shape"
            );
        }
        let path = self.taken::<Complex64>();
        if overwrite && !matches!(path, GemmPath::NarrowSimd | GemmPath::BlockedSimd) {
            c.fill(Complex64::ZERO);
        }
        match path {
            GemmPath::MicroSimd => simd::micro(self.level, a, b, c),
            GemmPath::MicroScalar => micro::run_scalar(a, b, c),
            GemmPath::GemvRow => gemv_row(a, b, c),
            GemmPath::GemvCol => gemv_col(a, b, c),
            GemmPath::NarrowSimd => simd::narrow(self.level, a, b, c, overwrite),
            GemmPath::NarrowScalar => gemm_narrow(a, b, c),
            GemmPath::BlockedSimd => simd::blocked(self.level, a, b, c, overwrite),
            GemmPath::BlockedScalar => simd::blocked(SimdLevel::Scalar, a, b, c, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_stable() {
        assert_eq!(detected_simd(), detected_simd());
        assert_eq!(simd_level().as_str(), simd_level().as_str());
    }

    #[test]
    fn override_clamps_to_detected() {
        // A level the hardware runs is honoured — AVX2+FMA below a probed
        // AVX-512 too — and one it cannot run clamps to scalar, never
        // fabricating capability.
        let detected = detected_simd();
        let runs = |level| match detected {
            SimdLevel::Avx512 => {
                [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512].contains(&level)
            }
            other => level == SimdLevel::Scalar || level == other,
        };
        for forced in [SimdLevel::Scalar, SimdLevel::Neon, SimdLevel::Avx2Fma, SimdLevel::Avx512] {
            let want = if runs(forced) { forced } else { SimdLevel::Scalar };
            assert_eq!(clamp_to_detected(forced), want, "{forced:?} on {detected:?}");
        }
        assert_eq!(clamp_to_detected(detected), detected);
    }

    #[test]
    fn classification_priority() {
        use DispatchClass::*;
        assert_eq!(KernelPlan::select(2, 2, 2).class(), Micro { m: 2, n: 2, k: 2 });
        assert_eq!(KernelPlan::select(4, 4, 8).class(), Micro { m: 4, n: 4, k: 8 });
        // m == 1 but k = 16 is not a micro k: GEMV row.
        assert_eq!(KernelPlan::select(1, 4, 16).class(), GemvRow);
        assert_eq!(KernelPlan::select(8, 1, 16).class(), GemvCol);
        assert_eq!(KernelPlan::select(128, 4, 2).class(), Narrow);
        assert_eq!(KernelPlan::select(64, 64, 64).class(), Blocked);
        // Degenerate dims never panic in classification.
        assert_eq!(KernelPlan::select(0, 64, 64).class(), Blocked);
        assert_eq!(KernelPlan::select(1, 0, 0).class(), GemvRow);
    }
}
