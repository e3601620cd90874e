//! The x86 GEMM for double-precision complex operands (AVX2+FMA, and
//! AVX-512F where the CPU has it).
//!
//! One hand-written tile serves every GEMM the dispatcher sends here, the
//! narrow class and the blocked class alike: a register-blocked tile on
//! *interleaved* complex data, up to 6 rows × 4 columns in ymm registers
//! ([`gemm_avx2`]) or, for the blocked class at the AVX-512 level, 4 rows ×
//! 16 columns in zmm registers ([`gemm_avx512`]), reading its operands
//! through [`MatRef`] views so a contraction's regrouped axes are consumed
//! in place. One loop nest, [`driver`], runs it for every shape, written
//! once over the register width: the nest, [`pack`], [`sweep_rows`] and
//! [`tile`] are generic over a private [`Vector`] trait and
//! `#[inline(always)]`, and only thin `#[target_feature]` entry points
//! differ by width (each GEMM entry and each width's [`Vector::sweep`]).
//!
//! # The tile
//!
//! A ymm register holds two complex numbers `[re0, im0, re1, im1]`. For an
//! `A` element `a = ar + i·ai` and a `B` vector `b`, the product is
//!
//! ```text
//! a·b = ar·[br, bi] + ai·[−bi, br]
//! ```
//!
//! so with `b` and its *twin* `[−bi, br]` each accumulator takes exactly
//! two FMAs per `p` step with broadcast `ar` and `ai` — every lane of every
//! FMA does useful work, and `C` is loaded and stored once per tile and
//! `p` chunk instead of once per `p`. `A` elements are fetched by scalar
//! broadcast, so any `A` view works unchanged.
//!
//! Each accumulator is a chain of dependent FMAs, so a tile wants about
//! latency × ports = 4 × 2 = 8 independent accumulators, and more to have
//! slack. Where the `B` vectors come from decides how many fit in the 16
//! registers:
//!
//! * **packed**: every (vector, twin) pair of `B` a tile needs is built once
//!   into a per-thread grow-once panel — BLIS's pack-once rule — and every
//!   row block reads it from cache. The tile keeps only the `B` values it is
//!   using in registers, so it holds 6 rows × 2 vectors = 12 accumulators;
//! * **built by the tile**: where a pair would be read by too few row
//!   blocks to repay the pass that writes it, the tile loads its own
//!   vectors and forms their twins, and holds 4 rows × 2 vectors.
//!
//! A vector is one 256-bit load when the view's column pairs are adjacent
//! in memory (the unit-stride source axis is a free axis) and two 128-bit
//! loads otherwise (it is contracted); its twin is one in-lane swap and one
//! sign flip. A last column that does not fill a pair takes scalar FMAs.
//!
//! # At 512 bits
//!
//! The blocked class is compute-bound (dense and in-place rates agree, and
//! it ran at 65–74% of the 256-bit FMA peak), and with AVX-512F the peak
//! doubles. A zmm holds two column pairs, packed from two pair loads; its
//! twin is the same in-lane swap and sign flip. With 32 registers the
//! packed tile holds 4 rows × 4 registers (16 accumulators, 16 columns),
//! which on a 2-vCPU Sapphire Rapids host ran the `amp-l30` blocked shapes
//! at 1.4–1.8x the 256-bit tile, ahead of 6 × 2, 8 × 2 and 12 × 2 zmm
//! tiles; 6 × 4 ran level with it but leaves a 2-row block on every
//! power-of-two `m`. Column tails run one tile each of 8 and 4 columns, a 256-bit
//! pair (the panel packs a last odd pair at 256 bits) and a scalar column;
//! the panel is 64-byte aligned. Shapes the nest does not pack run the
//! 256-bit built tiles in both entries. Every element takes the same FMAs
//! in the same order at either width, so the two x86 levels agree bit for
//! bit.
//!
//! # What bounds the narrow class
//!
//! Not bandwidth and not the FMA latency: on a 2-vCPU AVX2 host the narrow
//! class ran at the same 13–14 Gflop/s whether its operands sat in L1
//! (`256x4x4`) or in L3 (`16384x4x4`). At `k <= 16` a tile does at most 96
//! FMAs per `p` chunk, and a loop that builds a descriptor, fills offset
//! arrays and dispatches over tile shapes around each one pays about as
//! much again. Every instruction outside the FMAs costs time here: the
//! tile's own broadcasts and loads already keep it well below the FMA peak
//! on the host's slow phases. So the nest resolves every offset it can once
//! per chunk or row block, never per tile.
//!
//! # The loop nest
//!
//! [`driver`] walks `p` chunks of [`KC`], then column groups, then row
//! blocks; each row block resolves its row pointers once and sweeps the
//! group's columns (blocks of 4, then 2, then 1) in one monomorphised
//! function per tile height, with the accumulators in named registers and a
//! plain `p` loop. `A`'s column and `B`'s row offsets are resolved once per
//! chunk. `C` is touched once per chunk, never through a scratch plane, and
//! with `overwrite` the first chunk starts from zero instead of reading it.
//!
//! * **tall** (`n <= m`, more than 8 rows) and **blocked** (`m` past 16):
//!   `B`'s pairs are packed once per chunk and group and rows are swept in
//!   blocks of 6 (then 4, 2, 1; at 512 bits 4, then 2, 1) by
//!   [`sweep_rows`]; a blocked shape's packed 64-column group is reused by
//!   all its row blocks, and the chunk's rows of `A` are read once per
//!   group. A two-qubit gate's `n = 4` row is one tile at a constant
//!   stride;
//! * **wide** (`n > m`, at most 16 rows) and shapes of at most 8 rows:
//!   nothing is packed, and blocks of 4 rows (then 2, 1) sweep the group's
//!   columns building their own 256-bit vectors ([`sweep_columns`]) from
//!   the group's slice of `B`, which the first block brought into L1;
//! * **deep** (`k` past [`KC`]): the accumulators round-trip through `C`
//!   between chunks (exact: they are the same f64 values).
//!
//! Almost every gate applied to a stem has `k <= 16`: one chunk, one group
//! when tall, so `B` is packed once per call and `A` streams through once.
//!
//! Per output element the FMA order is fixed — `p` ascending, the `ar`
//! term before the `ai` term, starting from `C` (or from zero when
//! overwriting) — independent of the view, the tile a remainder falls
//! into, whether `B` was packed, and the chunking, so results are
//! deterministic and a contraction is bit-identical whichever way its
//! operands are laid out. They differ from the scalar reference only by
//! FMA rounding, which the conformance suite bounds; the suite also checks
//! them bit for bit against a scalar model of this order.

use super::view::{Layout, MatRef};
use crate::complex::Complex64;
use crate::gemm::shape_of;
use core::arch::x86_64::*;
use std::cell::RefCell;
use std::mem::MaybeUninit;
use std::ops::Range;

/// `p` chunk of the loop nest. Its column offsets of `A` and row offsets of
/// `B` live on the stack (2 KiB), and a packed chunk holds `KC × min(n,
/// group)` (vector, twin) columns: 16 KiB at `n = 4`, well inside a 48 KiB
/// L1 next to the row block's `6 × KC` elements of `A`, and 256 KiB for a
/// full [`BLOCKED_GROUP`], which streams from L2. Only shapes with `k > KC`
/// see a chunk boundary, where each tile's accumulators take one extra load
/// and store of `C`.
const KC: usize = 128;

/// Rows of a tile that builds its own `B` vectors, and columns of every
/// 256-bit tile.
const TILE: usize = 4;

/// Rows of a tile that reads packed `B` vectors: 6 × 2 accumulators plus
/// the two `B` values and two broadcasts in use fill the 16 ymm registers.
const PACKED_ROWS: usize = 6;

/// The narrow bound: most rows a wide shape may have for its tiles to build
/// their own `B` vectors, and the column group of deep wide shapes, whose
/// `KC x GROUP` slice of `B` (32 KiB) fits L1.
const GROUP: usize = 16;

/// Column group of every other shape: a blocked shape's packed chunk of
/// this many columns (256 KiB, streaming from L2) is reused by all its row
/// blocks, and every group re-reads the chunk's rows of `A`, so a wider
/// group saves passes over a tall `A`. A wide shape with `k <= 16` reads a
/// slice of at most 16 KiB of `B` per group.
const BLOCKED_GROUP: usize = 64;

/// One 64-byte line of the packed panel: the panel is aligned for zmm
/// loads.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([f64; 8]);

thread_local! {
    /// The tile's packed `B` vectors, grown once per thread.
    static PANEL: RefCell<Vec<Line>> = const { RefCell::new(Vec::new()) };
}

/// One register width of the tile: a register of `PAIRS` column pairs of
/// `C` (one per 128-bit lane pair, `[re0, im0, re1, im1]` each). The loop
/// nest is written once over this trait. Each width's entry points — its
/// GEMM ([`gemm_avx2`], [`gemm_avx512`]) and its [`Vector::sweep`] — enable
/// its target features, and every generic function below is
/// `#[inline(always)]` so it compiles inside them.
trait Vector: Copy {
    /// Column pairs one register holds.
    const PAIRS: usize;
    /// All lanes zero.
    unsafe fn zero() -> Self;
    /// `x` in every lane.
    unsafe fn splat(x: &f64) -> Self;
    /// `2 * PAIRS` complex numbers from `src`, unaligned.
    unsafe fn load(src: *const f64) -> Self;
    /// The lanes to `dst`, unaligned.
    unsafe fn store(self, dst: *mut f64);
    /// `self * b + acc`, one rounding per lane.
    unsafe fn fmadd(self, b: Self, acc: Self) -> Self;
    /// The twin `[-bi, br]` of every pair `[br, bi]`: an in-lane swap, then
    /// a sign flip of the even (real) lanes.
    unsafe fn twin(self) -> Self;
    /// A register from its pairs, `lo` first; `hi` is ignored at one pair.
    unsafe fn join(lo: __m256d, hi: __m256d) -> Self;
    /// [`sweep_rows`] at this width, compiled out of line: inlined into the
    /// nest, the row sweeps ran the tall narrow shapes (`16384x4x4`,
    /// `1024x16x4`) 5–10% slower on a 2-vCPU host.
    unsafe fn sweep<L: Layout, const R: usize>(
        chunk: &Chunk<'_, L>,
        packed: &Packed,
        i0: usize,
        blocks: usize,
    );
}

impl Vector for __m256d {
    const PAIRS: usize = 1;

    #[inline(always)]
    unsafe fn zero() -> Self {
        // SAFETY (every method): AVX2+FMA from the entry point the nest is
        // inlined into; pointers are the callers' contract.
        unsafe { _mm256_setzero_pd() }
    }

    #[inline(always)]
    unsafe fn splat(x: &f64) -> Self {
        unsafe { _mm256_broadcast_sd(x) }
    }

    #[inline(always)]
    unsafe fn load(src: *const f64) -> Self {
        unsafe { _mm256_loadu_pd(src) }
    }

    #[inline(always)]
    unsafe fn store(self, dst: *mut f64) {
        unsafe { _mm256_storeu_pd(dst, self) }
    }

    #[inline(always)]
    unsafe fn fmadd(self, b: Self, acc: Self) -> Self {
        unsafe { _mm256_fmadd_pd(self, b, acc) }
    }

    #[inline(always)]
    unsafe fn twin(self) -> Self {
        unsafe {
            let sign = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
            _mm256_xor_pd(_mm256_permute_pd::<0b0101>(self), sign)
        }
    }

    #[inline(always)]
    unsafe fn join(lo: __m256d, _: __m256d) -> Self {
        lo
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn sweep<L: Layout, const R: usize>(
        chunk: &Chunk<'_, L>,
        packed: &Packed,
        i0: usize,
        blocks: usize,
    ) {
        unsafe { sweep_rows::<Self, L, R>(chunk, packed, i0, blocks) }
    }
}

impl Vector for __m512d {
    const PAIRS: usize = 2;

    #[inline(always)]
    unsafe fn zero() -> Self {
        // SAFETY (every method): AVX-512F from the entry point the nest is
        // inlined into; pointers are the callers' contract.
        unsafe { _mm512_setzero_pd() }
    }

    #[inline(always)]
    unsafe fn splat(x: &f64) -> Self {
        unsafe { _mm512_set1_pd(*x) }
    }

    #[inline(always)]
    unsafe fn load(src: *const f64) -> Self {
        unsafe { _mm512_loadu_pd(src) }
    }

    #[inline(always)]
    unsafe fn store(self, dst: *mut f64) {
        unsafe { _mm512_storeu_pd(dst, self) }
    }

    #[inline(always)]
    unsafe fn fmadd(self, b: Self, acc: Self) -> Self {
        unsafe { _mm512_fmadd_pd(self, b, acc) }
    }

    #[inline(always)]
    unsafe fn twin(self) -> Self {
        unsafe {
            let sign = _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
            let swapped = _mm512_castpd_si512(_mm512_permute_pd::<0b0101_0101>(self));
            _mm512_castsi512_pd(_mm512_xor_si512(swapped, _mm512_castpd_si512(sign)))
        }
    }

    #[inline(always)]
    unsafe fn join(lo: __m256d, hi: __m256d) -> Self {
        unsafe { _mm512_insertf64x4::<1>(_mm512_castpd256_pd512(lo), hi) }
    }

    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn sweep<L: Layout, const R: usize>(
        chunk: &Chunk<'_, L>,
        packed: &Packed,
        i0: usize,
        blocks: usize,
    ) {
        unsafe { sweep_rows::<Self, L, R>(chunk, packed, i0, blocks) }
    }
}

/// `C += A·B` (or `C = A·B` with `overwrite`, which never reads `C`) for
/// `Complex64` on the register-blocked 256-bit tile, operands read in place
/// through their views: the narrow class's SIMD path at both x86 levels,
/// and the blocked class's at AVX2+FMA.
///
/// # Safety
/// The caller must have verified that the CPU supports AVX2 and FMA
/// (the dispatcher only routes here after the runtime probe).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn gemm_avx2<L: Layout>(
    a: MatRef<'_, Complex64, L>,
    b: MatRef<'_, Complex64, L>,
    c: &mut [Complex64],
    overwrite: bool,
) {
    PANEL.with(|panel| {
        let panel = &mut panel.borrow_mut();
        // SAFETY: AVX2+FMA inherited from this function's contract.
        unsafe {
            if b.layout().col_pairs_adjacent() {
                driver::<__m256d, L, true>(panel, a, b, c, overwrite)
            } else {
                driver::<__m256d, L, false>(panel, a, b, c, overwrite)
            }
        }
    })
}

/// [`gemm_avx2`] with the packed tiles at 512 bits: the blocked class's
/// SIMD path at the AVX-512 level. Shapes the nest does not pack run the
/// same 256-bit tiles as [`gemm_avx2`], and every element takes the same
/// FMAs in the same order, so the two entries agree bit for bit.
///
/// # Safety
/// The caller must have verified that the CPU supports AVX-512F, AVX2 and
/// FMA.
#[target_feature(enable = "avx512f,avx2,fma")]
pub(crate) unsafe fn gemm_avx512<L: Layout>(
    a: MatRef<'_, Complex64, L>,
    b: MatRef<'_, Complex64, L>,
    c: &mut [Complex64],
    overwrite: bool,
) {
    PANEL.with(|panel| {
        let panel = &mut panel.borrow_mut();
        // SAFETY: AVX-512F, AVX2 and FMA inherited from this function's
        // contract.
        unsafe {
            if b.layout().col_pairs_adjacent() {
                driver::<__m512d, L, true>(panel, a, b, c, overwrite)
            } else {
                driver::<__m512d, L, false>(panel, a, b, c, overwrite)
            }
        }
    })
}

/// The loop nest around the tile (module docs), with packed tiles of `V`.
/// `ADJ` says whether `B`'s column pairs are adjacent in memory.
///
/// # Safety
/// Requires the target features of `V`'s entry point.
#[inline(always)]
unsafe fn driver<V: Vector, L: Layout, const ADJ: bool>(
    panel: &mut Vec<Line>,
    a: MatRef<'_, Complex64, L>,
    b: MatRef<'_, Complex64, L>,
    c: &mut [Complex64],
    overwrite: bool,
) {
    let (m, n, k) = shape_of(&a, &b, c);
    if overwrite && k == 0 {
        c.fill(Complex64::ZERO);
    }
    let (la, lb) = (a.layout(), b.layout());
    let (a_ptr, b_ptr, c_ptr) = (a.data().as_ptr(), b.data().as_ptr(), c.as_mut_ptr());
    // With at most 8 rows a packed pair would serve at most two row blocks,
    // and a wide narrow shape reads each pair from at most four: neither
    // repays writing it, so their tiles build their own.
    let packed = m > 2 * TILE && (n <= m || m > GROUP);
    let group = if m <= GROUP && k > GROUP { GROUP } else { BLOCKED_GROUP };
    let cols = if packed { group.min(n) / 2 * 2 } else { 0 };
    // Each packed column takes a value and a twin (4 f64) per `p`; a row
    // of the panel is padded to whole registers so every one is aligned.
    let stride = (4 * cols).next_multiple_of(8 * V::PAIRS);
    let need = (stride * KC.min(k)).div_ceil(8);
    if panel.len() < need {
        panel.resize(need, Line([0.0; 8]));
    }

    // Offset buffers for a chunk and a group; a call writes only the
    // entries it reads, so a small shape does not pay to clear them.
    let mut a_col = [MaybeUninit::uninit(); KC];
    let mut b_row = [MaybeUninit::uninit(); KC];
    let mut b_cols = [MaybeUninit::uninit(); BLOCKED_GROUP];
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        let a_col = offsets(&mut a_col, kc, |p| la.col(p0 + p));
        let b_row = offsets(&mut b_row, kc, |p| lb.row(p0 + p));
        for j0 in (0..n).step_by(group) {
            let chunk = Chunk {
                a: a_ptr,
                la,
                a_col,
                b: b_ptr,
                lb,
                b_row,
                c: c_ptr,
                ldc: n,
                cols: j0..n.min(j0 + group),
                // Only the first chunk may ignore `C`; later ones add to it.
                load_c: !overwrite || p0 > 0,
            };
            // SAFETY (both arms): the target features from this function's
            // contract; the sweeps stay inside the `m x n` output
            // `shape_of` checked and the panel's `stride` f64 per `p` of
            // the chunk, and the views guarantee `row + col < len` for
            // every in-range (row, col).
            unsafe {
                if packed {
                    let cols = offsets(&mut b_cols, chunk.cols.len() / 2 * 2, |j| lb.col(j0 + j));
                    let panel_ptr = panel.as_mut_ptr().cast::<f64>();
                    pack::<V, ADJ>(panel_ptr, stride, &b, chunk.b_row, cols);
                    let panel = Packed { panel: panel_ptr, stride };
                    // 256 bits: blocks of 6 rows, at most one of 4.
                    // 512 bits: blocks of 4 rows (module docs).
                    let mut i = 0;
                    if V::PAIRS == 1 {
                        i = m / PACKED_ROWS * PACKED_ROWS;
                        V::sweep::<L, PACKED_ROWS>(&chunk, &panel, 0, m / PACKED_ROWS);
                    }
                    V::sweep::<L, TILE>(&chunk, &panel, i, (m - i) / TILE);
                    i += (m - i) / TILE * TILE;
                    if i + 2 <= m {
                        V::sweep::<L, 2>(&chunk, &panel, i, 1);
                        i += 2;
                    }
                    if i < m {
                        V::sweep::<L, 1>(&chunk, &panel, i, 1);
                    }
                } else {
                    let full = m / TILE;
                    sweep_columns::<L, ADJ, TILE>(&chunk, 0, full);
                    let mut i = full * TILE;
                    if i + 2 <= m {
                        sweep_columns::<L, ADJ, 2>(&chunk, i, 1);
                        i += 2;
                    }
                    if i < m {
                        sweep_columns::<L, ADJ, 1>(&chunk, i, 1);
                    }
                }
            }
        }
    }
}

/// `f(0)`, …, `f(len - 1)` written to the front of `buf`, and read back.
#[inline(always)]
fn offsets(buf: &mut [MaybeUninit<usize>], len: usize, f: impl Fn(usize) -> usize) -> &[usize] {
    for (i, slot) in buf[..len].iter_mut().enumerate() {
        slot.write(f(i));
    }
    // SAFETY: the first `len` entries were just initialised, and
    // `MaybeUninit<usize>` has the layout of `usize`.
    unsafe { std::slice::from_raw_parts(buf.as_ptr().cast(), len) }
}

/// One `p` chunk and column group with every offset it needs resolved:
/// `A`'s column and `B`'s row offset per `p`, base pointers, and `C`.
struct Chunk<'t, L> {
    a: *const Complex64,
    la: L,
    a_col: &'t [usize],
    b: *const Complex64,
    lb: L,
    b_row: &'t [usize],
    c: *mut Complex64,
    /// Row stride of `C` in elements.
    ldc: usize,
    /// The group's columns of `C`.
    cols: Range<usize>,
    load_c: bool,
}

impl<L: Layout> Chunk<'_, L> {
    /// `R` row pointers of `A` from row `i0`.
    ///
    /// # Safety
    /// Rows `i0..i0 + R` must exist.
    #[inline(always)]
    unsafe fn rows<const R: usize>(&self, i0: usize) -> [*const Complex64; R] {
        // SAFETY: the view guarantees `row(i) < len` for every in-range row.
        std::array::from_fn(|r| unsafe { self.a.add(self.la.row(i0 + r)) })
    }

    /// Column `j` of `C` in rows `rows` (given as `A` row pointers, row
    /// `i0` first), one scalar FMA chain per element.
    ///
    /// # Safety
    /// Requires AVX2+FMA; `i0 + rows.len() <= m`, `j < n`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn column(&self, rows: &[*const Complex64], i0: usize, j: usize) {
        // SAFETY: in bounds per the caller's contract and the view's
        // `row + col < len` guarantee.
        unsafe {
            let b = self.b.add(self.lb.col(j));
            for (r, &a) in rows.iter().enumerate() {
                single_element(
                    a,
                    self.a_col,
                    b,
                    self.b_row,
                    self.c.add((i0 + r) * self.ldc + j),
                    self.load_c,
                );
            }
        }
    }
}

/// A packed `B`: the group's columns `j..j + 2 * V::PAIRS` of row `p` sit
/// at `panel + p * stride + 4 * (j - j0)` f64, a register of values then
/// one of twins.
struct Packed {
    panel: *const f64,
    stride: usize,
}

/// Packed: `blocks` blocks of `R` rows from row `i0`, each resolving its
/// row pointers once and then running across the group's columns, reading
/// `B` from the panel: tiles of two 256-bit registers (four columns), then
/// one; at 512 bits tiles of four registers (16 columns), then at most one
/// each of two and one register and of a 256-bit pair. A last odd column
/// takes scalar FMAs. The block's rows of `A` stay in L1 while it does.
///
/// # Safety
/// Requires `V`'s target features; `i0 + blocks * R <= m` and `B` packed
/// for the group's column pairs.
#[inline(always)]
unsafe fn sweep_rows<V: Vector, L: Layout, const R: usize>(
    chunk: &Chunk<'_, L>,
    packed: &Packed,
    i0: usize,
    blocks: usize,
) {
    let Range { start: j0, end: j1 } = chunk.cols;
    let (a_col, b_row, ldc, load_c) = (chunk.a_col, chunk.b_row, chunk.ldc, chunk.load_c);
    // Columns of `C` per register of `V`.
    let width = 2 * V::PAIRS;
    // SAFETY: every tile below lies inside rows `i0..i0 + blocks * R` and
    // the group's columns; column `j` of row `p` is packed at f64 `p *
    // stride + 4 * (j - j0)` of the panel.
    unsafe {
        let stride = packed.stride;
        let at = |j: usize| packed.panel.add(4 * (j - j0));
        for i in (i0..).step_by(R).take(blocks) {
            let rows = chunk.rows::<R>(i);
            let c = chunk.c.add(i * ldc);
            if ldc == 2 * width {
                // One tile spans the row (a two-qubit gate's `n = 4` at 256
                // bits), and the constant row stride lets `C` be addressed
                // at fixed offsets; on a 2-vCPU AVX2 host this ran the tall
                // `n = 4` shapes 1.10–1.18x faster than the column loop.
                let at = at(j0);
                tile::<V, R, 2>(rows, a_col, b_row, c, 2 * width, load_c, |p, _| {
                    packed_vectors(at.add(p * stride))
                });
                continue;
            }
            // Written out rather than through a helper per tile width: a
            // helper cost the tall narrow shapes 3–6% on a 2-vCPU host.
            let mut j = j0;
            while V::PAIRS > 1 && j + 4 * width <= j1 {
                let at = at(j);
                tile::<V, R, 4>(rows, a_col, b_row, c.add(j), ldc, load_c, |p, _| {
                    packed_vectors(at.add(p * stride))
                });
                j += 4 * width;
            }
            while j + 2 * width <= j1 {
                let at = at(j);
                tile::<V, R, 2>(rows, a_col, b_row, c.add(j), ldc, load_c, |p, _| {
                    packed_vectors(at.add(p * stride))
                });
                j += 2 * width;
            }
            if j + width <= j1 {
                let at = at(j);
                tile::<V, R, 1>(rows, a_col, b_row, c.add(j), ldc, load_c, |p, _| {
                    packed_vectors(at.add(p * stride))
                });
                j += width;
            }
            if V::PAIRS > 1 && j + 2 <= j1 {
                let at = at(j);
                tile::<__m256d, R, 1>(rows, a_col, b_row, c.add(j), ldc, load_c, |p, _| {
                    packed_vectors(at.add(p * stride))
                });
                j += 2;
            }
            if j < j1 {
                chunk.column(&rows, i, j);
            }
        }
    }
}

/// Built: `blocks` blocks of `R` rows from row `i0`, each resolving its row
/// pointers once and then running across the group's blocks of [`TILE`]
/// columns, then 2 and 1, building its own 256-bit `B` vectors. The group's
/// slice of `B` stays in L1 while the row blocks cross it.
///
/// # Safety
/// Requires AVX2+FMA; `i0 + blocks * R <= m`.
#[target_feature(enable = "avx2,fma")]
unsafe fn sweep_columns<L: Layout, const ADJ: bool, const R: usize>(
    chunk: &Chunk<'_, L>,
    i0: usize,
    blocks: usize,
) {
    let Range { start: j0, end: j1 } = chunk.cols;
    // SAFETY: every tile below lies inside rows `i0..i0 + blocks * R` and
    // the group's columns, which the caller vouches for.
    unsafe {
        let col = |j: usize| chunk.b.add(chunk.lb.col(j));
        // The odd column of a pair; `load_pair` never reads it when the
        // pair is adjacent, so that case skips the lookup.
        let hi_col = |j: usize| if ADJ { std::ptr::null() } else { col(j) };
        for i in (i0..).step_by(R).take(blocks) {
            let rows = chunk.rows::<R>(i);
            let c = chunk.c.add(i * chunk.ldc);
            let mut j = j0;
            while j + TILE <= j1 {
                let (lo, hi) = ([col(j), col(j + 2)], [hi_col(j + 1), hi_col(j + 3)]);
                tile::<__m256d, R, 2>(
                    rows,
                    chunk.a_col,
                    chunk.b_row,
                    c.add(j),
                    chunk.ldc,
                    chunk.load_c,
                    |_, b_p| built_pairs::<ADJ, 2>(&lo, &hi, b_p),
                );
                j += TILE;
            }
            if j + 2 <= j1 {
                let (lo, hi) = ([col(j)], [hi_col(j + 1)]);
                tile::<__m256d, R, 1>(
                    rows,
                    chunk.a_col,
                    chunk.b_row,
                    c.add(j),
                    chunk.ldc,
                    chunk.load_c,
                    |_, b_p| built_pairs::<ADJ, 1>(&lo, &hi, b_p),
                );
                j += 2;
            }
            if j < j1 {
                chunk.column(&rows, i, j);
            }
        }
    }
}

/// The `B` vector at row offset `row` of the column pair starting at `lo`
/// and `hi` — one 256-bit load at `lo` when the pair is adjacent (`ADJ`;
/// `hi` is then not read), two 128-bit loads otherwise.
///
/// # Safety
/// Requires AVX2; `lo + row` (plus one when `ADJ`) and, unless `ADJ`,
/// `hi + row` in bounds.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn load_pair<const ADJ: bool>(
    lo: *const Complex64,
    hi: *const Complex64,
    row: usize,
) -> __m256d {
    // SAFETY: in bounds per the caller's contract.
    unsafe {
        if ADJ {
            _mm256_loadu_pd(lo.add(row) as *const f64)
        } else {
            _mm256_loadu2_m128d(hi.add(row) as *const f64, lo.add(row) as *const f64)
        }
    }
}

/// Pack the `B` column pairs at offsets `cols` (consecutive columns, an
/// even count) for every `p` of the chunk (`b_row` holds its row offsets):
/// each run of `2 * V::PAIRS` columns becomes a register of values and one
/// of twins at f64 `p * stride + 4 * j` of `panel`, `j` its first column;
/// a last pair that does not fill a register is packed at 256 bits.
///
/// # Safety
/// Requires `V`'s target features; every `b_row[p] + cols[j]` in bounds of
/// `b` (plus one when `ADJ`), and `panel` holds `stride * b_row.len()` f64,
/// `stride >= 4 * cols.len()`.
#[inline(always)]
unsafe fn pack<V: Vector, const ADJ: bool>(
    panel: *mut f64,
    stride: usize,
    b: &MatRef<'_, Complex64, impl Layout>,
    b_row: &[usize],
    cols: &[usize],
) {
    debug_assert!(4 * cols.len() <= stride && cols.len().is_multiple_of(2));
    let b_ptr = b.data().as_ptr();
    for (q, run) in cols.chunks(2 * V::PAIRS).enumerate() {
        debug_assert!(!ADJ || run.chunks(2).all(|pair| pair[1] == pair[0] + 1));
        debug_assert!(b_row.iter().all(|p| run.iter().all(|j| p + j < b.data().len())));
        // SAFETY: the view guarantees `row + col < len` for every in-range
        // (row, col); the panel bound is the caller's.
        unsafe {
            let (lo, hi) = (b_ptr.add(run[0]), b_ptr.add(run[1]));
            for (p, &b_p) in b_row.iter().enumerate() {
                let dst = panel.add(p * stride + 8 * V::PAIRS * q);
                let vec = load_pair::<ADJ>(lo, hi, b_p);
                if run.len() == 2 * V::PAIRS {
                    let high = if run.len() > 2 {
                        load_pair::<ADJ>(b_ptr.add(run[2]), b_ptr.add(run[3]), b_p)
                    } else {
                        vec
                    };
                    let vec = V::join(vec, high);
                    vec.store(dst);
                    vec.twin().store(dst.add(4 * V::PAIRS));
                } else {
                    vec.store(dst);
                    vec.twin().store(dst.add(4));
                }
            }
        }
    }
}

/// The `NV` packed (value, twin) registers starting at `at`.
///
/// # Safety
/// `2 * NV` registers of `V` readable at `at`.
#[inline(always)]
unsafe fn packed_vectors<V: Vector, const NV: usize>(at: *const f64) -> ([V; NV], [V; NV]) {
    let reg = 4 * V::PAIRS;
    // SAFETY: per the caller's contract.
    unsafe {
        (
            std::array::from_fn(|v| V::load(at.add(2 * reg * v))),
            std::array::from_fn(|v| V::load(at.add(2 * reg * v + reg))),
        )
    }
}

/// The `NV` `B` vectors of the column pairs (`lo[v]`, `hi[v]`) at row
/// offset `row`, and their twins.
///
/// # Safety
/// Requires AVX2; as [`load_pair`] for every pair.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn built_pairs<const ADJ: bool, const NV: usize>(
    lo: &[*const Complex64; NV],
    hi: &[*const Complex64; NV],
    row: usize,
) -> ([__m256d; NV], [__m256d; NV]) {
    // SAFETY: per the caller's contract.
    let vec: [__m256d; NV] =
        std::array::from_fn(|v| unsafe { load_pair::<ADJ>(lo[v], hi[v], row) });
    (vec, vec.map(|x| unsafe { x.twin() }))
}

/// The register tile every x86 GEMM runs: `R` rows (`A` row pointers
/// `rows`) × `NV` registers of `V` of `C` at `c`, over the `p` of one
/// chunk, with `pairs(p, b_row[p])` giving `B`'s registers and twins at
/// `p`. Per element: `p` ascending, the `ar` term before the `ai` term,
/// starting from `C` when `load_c` and from zero otherwise.
///
/// # Safety
/// Requires `V`'s target features; every `rows[r] + a_col[p]` readable,
/// `C` writable at `c + r * ldc + j` for `r < R`, `j < 2 * NV * V::PAIRS`,
/// and `pairs` sound for every `p` of the chunk.
#[inline(always)]
unsafe fn tile<V: Vector, const R: usize, const NV: usize>(
    rows: [*const Complex64; R],
    a_col: &[usize],
    b_row: &[usize],
    c: *mut Complex64,
    ldc: usize,
    load_c: bool,
    pairs: impl Fn(usize, usize) -> ([V; NV], [V; NV]),
) {
    debug_assert_eq!(a_col.len(), b_row.len());
    // Complex elements of `C` per register.
    let width = 2 * V::PAIRS;
    // SAFETY (whole body): in bounds per the caller's contract; loads and
    // stores are unaligned-tolerant.
    unsafe {
        let at = |r: usize, v: usize| c.add(r * ldc + width * v) as *mut f64;
        let mut acc = [[V::zero(); NV]; R];
        if load_c {
            for (r, row) in acc.iter_mut().enumerate() {
                for (v, slot) in row.iter_mut().enumerate() {
                    *slot = V::load(at(r, v));
                }
            }
        }
        for (p, (&a_p, &b_p)) in a_col.iter().zip(b_row).enumerate() {
            let (b_vec, b_twin) = pairs(p, b_p);
            for (r, row) in acc.iter_mut().enumerate() {
                let a_rp = rows[r].add(a_p) as *const f64;
                let ar = V::splat(&*a_rp);
                let ai = V::splat(&*a_rp.add(1));
                for (v, slot) in row.iter_mut().enumerate() {
                    *slot = ar.fmadd(b_vec[v], *slot);
                    *slot = ai.fmadd(b_twin[v], *slot);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &value) in row.iter().enumerate() {
                value.store(at(r, v));
            }
        }
    }
}

/// One element of `C` at `c`: row `a` of `A` against the `B` column at `b`,
/// scalar FMAs in exactly the vector lanes' order, so an element's value
/// does not depend on which tile computed it.
///
/// # Safety
/// Requires FMA; every `a + a_col[p]` and `b + b_row[p]` readable, `c`
/// writable.
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn single_element(
    a: *const Complex64,
    a_col: &[usize],
    b: *const Complex64,
    b_row: &[usize],
    c: *mut Complex64,
    load_c: bool,
) {
    // SAFETY: per the caller's contract.
    unsafe {
        let (mut re, mut im) = if load_c { ((*c).re, (*c).im) } else { (0.0, 0.0) };
        for (&a_p, &b_p) in a_col.iter().zip(b_row) {
            let (a_ip, b_pj) = (*a.add(a_p), *b.add(b_p));
            re = a_ip.re.mul_add(b_pj.re, re);
            im = a_ip.re.mul_add(b_pj.im, im);
            re = a_ip.im.mul_add(-b_pj.im, re);
            im = a_ip.im.mul_add(b_pj.re, im);
        }
        *c = Complex64 { re, im };
    }
}
