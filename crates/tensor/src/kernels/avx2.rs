//! The AVX2+FMA GEMM for double-precision complex operands (x86_64).
//!
//! One hand-written tile serves every GEMM the dispatcher sends here, the
//! narrow class and the blocked class alike ([`gemm_avx2`]): a
//! register-blocked tile of up to 6 rows × 4 columns on *interleaved*
//! complex data, reading its operands through [`MatRef`] views so a
//! contraction's regrouped axes are consumed in place. One loop nest,
//! [`driver`], runs it for every shape.
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
//!   blocks of 6 (then 4, 2, 1) by [`sweep_rows`]; a blocked shape's packed
//!   64-column group is reused by all `m / 6` row blocks, and the chunk's
//!   rows of `A` are read once per group. A two-qubit gate's `n = 4` row is
//!   one tile at a constant stride;
//! * **wide** (`n > m`, at most 16 rows) and shapes of at most 8 rows:
//!   nothing is packed, and blocks of 4 rows (then 2, 1) sweep the group's
//!   columns building their own vectors ([`sweep_columns`]) from the
//!   group's slice of `B`, which the first block brought into L1;
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
/// group)` vectors: 16 KiB at `n = 4`, well inside a 48 KiB L1 next to the
/// row block's `6 × KC` elements of `A`, and 256 KiB for a full
/// [`BLOCKED_GROUP`], which streams from L2. Only shapes with `k > KC` see
/// a chunk boundary, where each tile's accumulators take one extra load and
/// store of `C`.
const KC: usize = 128;

/// Rows of a tile that builds its own `B` vectors, and columns of every
/// tile.
const TILE: usize = 4;

/// Rows of a tile that reads packed `B` vectors: 6 × 2 accumulators plus
/// the two `B` values and two broadcasts in use fill the 16 registers.
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

thread_local! {
    /// The tile's packed `B` vectors, grown once per thread.
    static PANEL: RefCell<Vec<__m256d>> = const { RefCell::new(Vec::new()) };
}

/// `C += A·B` (or `C = A·B` with `overwrite`, which never reads `C`) for
/// `Complex64` on the register-blocked AVX2+FMA tile, operands read in place
/// through their views: the narrow and the blocked class's SIMD path.
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
                driver::<L, true>(panel, a, b, c, overwrite)
            } else {
                driver::<L, false>(panel, a, b, c, overwrite)
            }
        }
    })
}

/// The loop nest around the tile (module docs). `ADJ` says whether `B`'s
/// column pairs are adjacent in memory.
///
/// # Safety
/// Requires AVX2+FMA.
#[target_feature(enable = "avx2,fma")]
unsafe fn driver<L: Layout, const ADJ: bool>(
    panel: &mut Vec<__m256d>,
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
    let lanes = if packed { group.min(n) / 2 * 2 } else { 0 };
    let need = lanes * KC.min(k);
    if panel.len() < need {
        panel.resize(need, _mm256_setzero_pd());
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
            // SAFETY (both arms): AVX2+FMA from this function's contract;
            // the sweeps stay inside the `m x n` output `shape_of` checked
            // and the panel's `lanes` vectors per `p` of the chunk, and the
            // views guarantee `row + col < len` for every in-range (row,
            // col).
            unsafe {
                if packed {
                    let cols = offsets(&mut b_cols, chunk.cols.len() / 2 * 2, |j| lb.col(j0 + j));
                    pack::<ADJ>(panel.as_mut_ptr(), lanes, &b, chunk.b_row, cols);
                    let panel = Packed { panel: panel.as_ptr(), lanes };
                    let full = m / PACKED_ROWS;
                    sweep_rows::<L, PACKED_ROWS>(&chunk, &panel, 0, full);
                    let mut i = full * PACKED_ROWS;
                    if i + TILE <= m {
                        sweep_rows::<L, TILE>(&chunk, &panel, i, 1);
                        i += TILE;
                    }
                    if i + 2 <= m {
                        sweep_rows::<L, 2>(&chunk, &panel, i, 1);
                        i += 2;
                    }
                    if i < m {
                        sweep_rows::<L, 1>(&chunk, &panel, i, 1);
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

/// A packed `B`: (vector, twin) pair `v` of the group's row `p` at `panel +
/// p * lanes + 2v`.
struct Packed {
    panel: *const __m256d,
    lanes: usize,
}

/// Packed: `blocks` blocks of `R` rows from row `i0`, each resolving its
/// row pointers once and then running across the group's columns: tiles of
/// [`TILE`] columns, then 2 and 1, reading `B` from the panel. The block's
/// rows of `A` stay in L1 while it does.
///
/// # Safety
/// Requires AVX2+FMA; `i0 + blocks * R <= m` and `B` packed for the group's
/// column pairs.
#[target_feature(enable = "avx2,fma")]
unsafe fn sweep_rows<L: Layout, const R: usize>(
    chunk: &Chunk<'_, L>,
    packed: &Packed,
    i0: usize,
    blocks: usize,
) {
    let Range { start: j0, end: j1 } = chunk.cols;
    // SAFETY: every tile below lies inside rows `i0..i0 + blocks * R` and
    // the group's columns; pair `(j - j0) / 2` of row `p` starts at vector
    // `p * lanes + j - j0` of the panel.
    unsafe {
        let pairs = |j: usize, p: usize| packed.panel.add(p * packed.lanes + j - j0);
        for i in (i0..).step_by(R).take(blocks) {
            let rows = chunk.rows::<R>(i);
            let c = chunk.c.add(i * chunk.ldc);
            if chunk.ldc == TILE {
                // A two-qubit gate's `n = 4`: one tile spans the row, and
                // the constant row stride lets `C` be addressed at fixed
                // offsets; on a 2-vCPU AVX2 host this ran the tall `n = 4`
                // shapes 1.10–1.18x faster than the column loop.
                tile::<R, 2>(rows, chunk.a_col, chunk.b_row, c, TILE, chunk.load_c, |p, _| {
                    packed_pairs(pairs(0, p))
                });
                continue;
            }
            let mut j = j0;
            while j + TILE <= j1 {
                tile::<R, 2>(
                    rows,
                    chunk.a_col,
                    chunk.b_row,
                    c.add(j),
                    chunk.ldc,
                    chunk.load_c,
                    |p, _| packed_pairs(pairs(j, p)),
                );
                j += TILE;
            }
            if j + 2 <= j1 {
                tile::<R, 1>(
                    rows,
                    chunk.a_col,
                    chunk.b_row,
                    c.add(j),
                    chunk.ldc,
                    chunk.load_c,
                    |p, _| packed_pairs(pairs(j, p)),
                );
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
/// columns, then 2 and 1, building its own `B` vectors. The group's slice
/// of `B` stays in L1 while the row blocks cross it.
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
                tile::<R, 2>(
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
                tile::<R, 1>(
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

/// The twin `[-bi, br]` of a `B` vector `[br, bi]`: an in-lane swap, then
/// a sign flip of the even (real) lanes.
#[target_feature(enable = "avx2")]
#[inline]
fn twin(vec: __m256d) -> __m256d {
    _mm256_xor_pd(_mm256_permute_pd(vec, 0b0101), _mm256_set_pd(0.0, -0.0, 0.0, -0.0))
}

/// Pack the `B` column pairs at offsets `cols` (consecutive columns, an
/// even count) for every `p` of the chunk (`b_row` holds its row
/// offsets): pair `v` of row `p` becomes vector `p * lanes + 2v` of
/// `panel`, its twin the vector after it.
///
/// # Safety
/// Requires AVX2+FMA; `cols.len() <= lanes`, every `b_row[p] + cols[j]` in
/// bounds of `b` (plus one when `ADJ`), and `panel` holds `lanes *
/// b_row.len()` vectors.
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn pack<const ADJ: bool>(
    panel: *mut __m256d,
    lanes: usize,
    b: &MatRef<'_, Complex64, impl Layout>,
    b_row: &[usize],
    cols: &[usize],
) {
    debug_assert!(cols.len() <= lanes && cols.len().is_multiple_of(2));
    let b_ptr = b.data().as_ptr();
    for (v, pair) in cols.chunks_exact(2).enumerate() {
        debug_assert!(!ADJ || pair[1] == pair[0] + 1);
        debug_assert!(b_row.iter().all(|p| p + pair[0].max(pair[1]) < b.data().len()));
        // SAFETY: the view guarantees `row + col < len` for every in-range
        // (row, col); the panel bound is the caller's.
        unsafe {
            let (lo, hi) = (b_ptr.add(pair[0]), b_ptr.add(pair[1]));
            for (p, &b_p) in b_row.iter().enumerate() {
                let vec = load_pair::<ADJ>(lo, hi, b_p);
                let dst = panel.add(p * lanes + 2 * v);
                dst.write(vec);
                dst.add(1).write(twin(vec));
            }
        }
    }
}

/// The `NV` packed (vector, twin) pairs starting at `pairs`.
///
/// # Safety
/// `2 * NV` vectors readable at `pairs`.
#[inline(always)]
unsafe fn packed_pairs<const NV: usize>(pairs: *const __m256d) -> ([__m256d; NV], [__m256d; NV]) {
    // SAFETY: per the caller's contract.
    unsafe {
        (std::array::from_fn(|v| *pairs.add(2 * v)), std::array::from_fn(|v| *pairs.add(2 * v + 1)))
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
    (vec, vec.map(|x| twin(x)))
}

/// The register tile every AVX2 GEMM runs: `R` rows (`A` row pointers
/// `rows`) × `NV` vectors of `C` at `c`, over the `p` of one chunk, with
/// `pairs(p, b_row[p])` giving `B`'s vectors and twins at `p`. Per element:
/// `p` ascending, the `ar` term before the `ai` term, starting from `C`
/// when `load_c` and from zero otherwise.
///
/// # Safety
/// Requires AVX2+FMA; every `rows[r] + a_col[p]` readable, `C` writable at
/// `c + r * ldc + j` for `r < R`, `j < 2 * NV`, and `pairs` sound for every
/// `p` of the chunk.
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn tile<const R: usize, const NV: usize>(
    rows: [*const Complex64; R],
    a_col: &[usize],
    b_row: &[usize],
    c: *mut Complex64,
    ldc: usize,
    load_c: bool,
    pairs: impl Fn(usize, usize) -> ([__m256d; NV], [__m256d; NV]),
) {
    debug_assert_eq!(a_col.len(), b_row.len());
    // SAFETY (whole body): in bounds per the caller's contract; loads and
    // stores are unaligned-tolerant.
    unsafe {
        let mut acc = [[_mm256_setzero_pd(); NV]; R];
        if load_c {
            for (r, row) in acc.iter_mut().enumerate() {
                for (v, slot) in row.iter_mut().enumerate() {
                    *slot = _mm256_loadu_pd(c.add(r * ldc + 2 * v) as *const f64);
                }
            }
        }
        for (p, (&a_p, &b_p)) in a_col.iter().zip(b_row).enumerate() {
            let (b_vec, b_twin) = pairs(p, b_p);
            for (r, row) in acc.iter_mut().enumerate() {
                let a_rp = rows[r].add(a_p) as *const f64;
                let ar = _mm256_broadcast_sd(&*a_rp);
                let ai = _mm256_broadcast_sd(&*a_rp.add(1));
                for (v, slot) in row.iter_mut().enumerate() {
                    *slot = _mm256_fmadd_pd(ar, b_vec[v], *slot);
                    *slot = _mm256_fmadd_pd(ai, b_twin[v], *slot);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &value) in row.iter().enumerate() {
                _mm256_storeu_pd(c.add(r * ldc + 2 * v) as *mut f64, value);
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
