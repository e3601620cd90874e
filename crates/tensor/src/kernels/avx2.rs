//! AVX2+FMA kernels for double-precision complex operands (x86_64).
//!
//! Two hand-written tiles live here, both reading their operands through
//! [`MatRef`] views so a contraction's regrouped axes are consumed in place:
//!
//! * the **narrow tile** ([`gemm_narrow_avx2_c64`]) — a register-blocked
//!   tile of up to 6 rows × 4 columns on *interleaved* complex data. It
//!   serves every narrow shape (tall, wide and deep) with one loop nest;
//! * the **blocked tile** ([`gemm_avx2_c64`]) — the split-real 2 × 8 tile
//!   behind the shared packing driver and [`PackArena`]: 8 ymm
//!   accumulators, 4 B-plane loads and 4 A broadcasts per `p` step feeding
//!   16 FMAs.
//!
//! # The narrow tile
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
//! FMA does useful work, and `C` is loaded and stored once per tile instead
//! of once per `p`. `A` elements are fetched by scalar broadcast, so any
//! `A` view works unchanged.
//!
//! Each accumulator is a chain of dependent FMAs, so a tile needs about
//! latency × ports = 4 × 2 = 8 independent accumulators just to keep the
//! FMA units busy, and more to have slack. Where the `B` vectors come from
//! decides how many fit in the 16 registers:
//!
//! * **packed** (`m > 8`): per `p` chunk and group of up to [`GROUP`]
//!   columns, every (vector, twin) pair of `B` is built once into a
//!   per-thread grow-once panel — BLIS's pack-once rule — and every row
//!   block reads it from L1. The tile keeps only the `B` values it is
//!   using in registers, so it holds 6 rows × 2 vectors = 12 accumulators;
//! * **built by the tile** (`m ≤ 8`): a packed pair would be read by at
//!   most two row blocks, too few to repay the pass that writes it. The
//!   tile loads its own vectors and forms their twins, work that hides
//!   under the FMA latency of its 4 rows × 2 vectors.
//!
//! A vector is one 256-bit load when the view's column pairs are adjacent
//! in memory (the unit-stride source axis is a free axis) and two 128-bit
//! loads otherwise (it is contracted); its twin is one in-lane swap and one
//! sign flip. A last column that does not fill a pair takes scalar FMAs.
//!
//! The loop nest runs `p` chunks of [`KC`], then column groups, then row
//! blocks, then the group's column blocks. A narrow shape with `n > 16`
//! has `m <= 16`, so both long operands stream through once:
//!
//! * **tall** (`m` long): one group covers all of `B`, so every row block
//!   reads the same (packed) `B` and each `A` row block is read once;
//! * **wide** (`n` long): each group's `k × 16` slice of `B` stays in L1
//!   while the few row blocks run across it, and `C` is written once
//!   instead of `k` times;
//! * **deep** (`k` long): the accumulators round-trip through `C` between
//!   chunks (exact: they are the same f64 values).
//!
//! Per output element the FMA order is fixed — `p` ascending, the `ar`
//! term before the `ai` term — independent of the view, the tile a
//! remainder falls into, whether `B` was packed, and the chunking, so
//! results are deterministic and a contraction is bit-identical whichever
//! way its operands are laid out. They differ from the scalar reference
//! only by FMA rounding, which the conformance suite bounds; the suite also
//! checks them bit for bit against a scalar model of this order.

use super::packed::{gemm_packed_with, PackArena};
use super::view::{Layout, MatRef};
use crate::complex::Complex64;
use crate::gemm::shape_of;
use core::arch::x86_64::*;
use std::cell::RefCell;

/// `p` chunk of the narrow kernel. Its column offsets of `A` and row
/// offsets of `B` live on the stack (2 KiB), and a packed chunk holds
/// `KC × n` vectors: 16 KiB at the `n = 4` of the stems' tall shapes, well
/// inside a 48 KiB L1 next to the row block's `6 × KC` elements of `A`.
/// Only shapes with `k > KC` see a chunk boundary, where each tile's
/// accumulators take one extra load and store of `C`.
const KC: usize = 128;

/// Rows of a tile that builds its own `B` vectors, and columns of every
/// tile.
const TILE: usize = 4;

/// Rows of a tile that reads packed `B` vectors: 6 × 2 accumulators plus
/// the two `B` values and two broadcasts in use fill the 16 registers.
const PACKED_ROWS: usize = 6;

/// Columns of `B` whose offsets are looked up (and, when packing, whose
/// vectors are packed) at once; every row block then runs across them.
const GROUP: usize = 16;

thread_local! {
    /// The narrow kernel's packed `B` vectors, grown once per thread.
    static PANEL: RefCell<Vec<__m256d>> = const { RefCell::new(Vec::new()) };
}

/// Narrow `C += A·B` (or `C = A·B` with `overwrite`, which never reads `C`)
/// for `Complex64` on the register-blocked AVX2+FMA tile, operands read in
/// place through their views.
///
/// # Safety
/// The caller must have verified that the CPU supports AVX2 and FMA
/// (the dispatcher only routes here after the runtime probe).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn gemm_narrow_avx2_c64<L: Layout>(
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
                narrow_driver::<L, true>(panel, a, b, c, overwrite)
            } else {
                narrow_driver::<L, false>(panel, a, b, c, overwrite)
            }
        }
    })
}

/// Width of the next block when `left` rows (or columns) remain: `full`
/// first, then 4, 2 and 1.
#[inline(always)]
fn block_width(left: usize, full: usize) -> usize {
    match left {
        0..=1 => left,
        2..=3 => 2,
        _ if left < full => TILE,
        _ => full,
    }
}

/// The loop nest around the tile. `ADJ` says whether `B`'s column pairs are
/// adjacent in memory.
///
/// # Safety
/// Requires AVX2+FMA.
#[target_feature(enable = "avx2,fma")]
unsafe fn narrow_driver<L: Layout, const ADJ: bool>(
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
    let (a_len, b_len) = (a.data().len(), b.data().len());
    let (a_ptr, b_ptr, c_ptr) = (a.data().as_ptr(), b.data().as_ptr(), c.as_mut_ptr());
    // With at most 8 rows a packed pair would serve at most two row blocks,
    // which does not repay writing it; the tiles' own loads and twin
    // builds hide under the FMA latency instead.
    let packed = m > 2 * TILE;
    let rows_full = if packed { PACKED_ROWS } else { TILE };
    // (vector, twin) pairs of one column group, per `p` of a chunk.
    let lanes = if packed { GROUP.min(n) / 2 * 2 } else { 0 };
    let need = lanes * KC.min(k);
    if panel.len() < need {
        panel.resize(need, _mm256_setzero_pd());
    }
    let panel = panel.as_mut_ptr();

    let mut a_col = [0usize; KC];
    let mut b_row = [0usize; KC];
    // Column offsets of the current group, padded so every tile can take a
    // full-width window.
    let mut b_cols = [0usize; GROUP + TILE];
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        for p in 0..kc {
            a_col[p] = la.col(p0 + p);
            b_row[p] = lb.row(p0 + p);
        }
        let (a_col, b_row) = (&a_col[..kc], &b_row[..kc]);
        // Only the first chunk may ignore `C`; later ones add to it.
        let load_c = !overwrite || p0 > 0;
        let mut g0 = 0;
        while g0 < n {
            let g_len = GROUP.min(n - g0);
            for (j, slot) in b_cols[..g_len].iter_mut().enumerate() {
                *slot = lb.col(g0 + j);
            }
            if packed {
                // SAFETY: AVX2+FMA from this function's contract; the panel
                // holds `lanes >= g_len / 2 * 2` vectors per `p` of the chunk.
                unsafe { pack::<ADJ>(panel, lanes, &b, b_row, &b_cols[..g_len / 2 * 2]) };
            }
            let mut i0 = 0;
            while i0 < m {
                let mr = block_width(m - i0, rows_full);
                let mut a_rows = [0usize; PACKED_ROWS];
                for (r, slot) in a_rows[..mr].iter_mut().enumerate() {
                    *slot = la.row(i0 + r);
                }
                let mut jg = 0;
                while jg < g_len {
                    let nc = block_width(g_len - jg, TILE);
                    let j0 = g0 + jg;
                    let b_cols: &[usize; TILE] = b_cols[jg..jg + TILE].try_into().unwrap();
                    // The views guarantee `row + col < len` for every
                    // in-range (row, col); the tiles below only form such
                    // sums.
                    debug_assert!(a_rows[..mr].iter().all(|r| a_col.iter().all(|p| r + p < a_len)));
                    debug_assert!(b_cols[..nc].iter().all(|j| b_row.iter().all(|p| p + j < b_len)));
                    debug_assert!(!ADJ || nc < 2 || b_cols[1] == b_cols[0] + 1);
                    debug_assert!((i0 + mr - 1) * n + j0 + nc <= m * n);
                    // SAFETY: `c` addresses rows `i0..i0+mr`, columns
                    // `j0..j0+nc` of the `m x n` output, which `shape_of`
                    // checked `c` holds. When packed, the block's first
                    // column pair is lane `jg` of the group, inside the
                    // panel.
                    let t = unsafe {
                        Tile {
                            a: a_ptr,
                            a_rows: &a_rows,
                            a_col,
                            b: b_ptr,
                            b_row,
                            b_cols,
                            panel: panel.add(jg.min(lanes)),
                            lanes,
                            c: c_ptr.add(i0 * n + j0),
                            ldc: n,
                        }
                    };
                    // SAFETY: AVX2+FMA from this function's contract; the
                    // offsets in `t` are in bounds as asserted above.
                    unsafe {
                        match (packed, mr, nc) {
                            (_, _, 1) => t.run_single_column(mr, load_c),
                            (true, 6, 4) => t.run::<6, 2, ADJ, true>(load_c),
                            (true, 6, _) => t.run::<6, 1, ADJ, true>(load_c),
                            (true, 4, 4) => t.run::<4, 2, ADJ, true>(load_c),
                            (true, 4, _) => t.run::<4, 1, ADJ, true>(load_c),
                            (true, 2, 4) => t.run::<2, 2, ADJ, true>(load_c),
                            (true, 2, _) => t.run::<2, 1, ADJ, true>(load_c),
                            (true, _, 4) => t.run::<1, 2, ADJ, true>(load_c),
                            (true, _, _) => t.run::<1, 1, ADJ, true>(load_c),
                            (false, 4, 4) => t.run::<4, 2, ADJ, false>(load_c),
                            (false, 4, _) => t.run::<4, 1, ADJ, false>(load_c),
                            (false, 2, 4) => t.run::<2, 2, ADJ, false>(load_c),
                            (false, 2, _) => t.run::<2, 1, ADJ, false>(load_c),
                            (false, _, 4) => t.run::<1, 2, ADJ, false>(load_c),
                            (false, _, _) => t.run::<1, 1, ADJ, false>(load_c),
                        }
                    }
                    jg += nc;
                }
                i0 += mr;
            }
            g0 += g_len;
        }
        p0 += KC;
    }
}

/// The `B` vector at row offset `row` of the column pair starting at `lo`
/// and `hi` (`hi == lo + 1` when `ADJ`) — one 256-bit load when adjacent,
/// two 128-bit loads otherwise.
///
/// # Safety
/// Requires AVX2; `lo + row` and `hi + row` in bounds.
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

/// One register tile's operands: raw base pointers plus the offsets of its
/// rows, columns and `p` chunk, all validated by [`narrow_driver`], and —
/// when `B` is packed — where its columns' pairs start in the panel.
struct Tile<'t> {
    a: *const Complex64,
    /// `A` row offsets (first `MR` entries used).
    a_rows: &'t [usize; PACKED_ROWS],
    /// `A` column offset per `p` of the chunk.
    a_col: &'t [usize],
    b: *const Complex64,
    /// `B` row offset per `p` of the chunk.
    b_row: &'t [usize],
    /// `B` column offsets (first `2 * NV` entries used).
    b_cols: &'t [usize; TILE],
    /// The tile's first packed (vector, twin) pair at `p = 0`; row `p`
    /// starts `p * lanes` vectors further.
    panel: *const __m256d,
    lanes: usize,
    /// `C[i0, j0]`.
    c: *mut Complex64,
    /// Row stride of `C` in elements.
    ldc: usize,
}

impl Tile<'_> {
    /// `MR` rows × `NV` vectors (2 complex columns each), reading `B`'s
    /// (vector, twin) pairs from the panel when `PACKED`, building them from
    /// `B` otherwise. The accumulators start from `C` when `load_c`, from
    /// zero otherwise.
    ///
    /// # Safety
    /// Requires AVX2+FMA, and every `a_rows[r] + a_col[p]`, `b_row[p] +
    /// b_cols[j]` (plus one when `ADJ`) and `c + r * ldc + j` formed from
    /// the first `MR` rows and `2 * NV` columns must be in bounds; when
    /// `PACKED`, `2 * NV` vectors at `panel + p * lanes` for every `p`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn run<const MR: usize, const NV: usize, const ADJ: bool, const PACKED: bool>(
        &self,
        load_c: bool,
    ) {
        // SAFETY (whole body): pointer arithmetic stays within the bounds
        // the caller vouches for; loads and stores are unaligned-tolerant.
        unsafe {
            let a_row_ptr: [*const Complex64; MR] =
                std::array::from_fn(|r| self.a.add(self.a_rows[r]));
            let mut acc = [[_mm256_setzero_pd(); NV]; MR];
            if load_c {
                for (r, row) in acc.iter_mut().enumerate() {
                    for (v, slot) in row.iter_mut().enumerate() {
                        *slot = _mm256_loadu_pd(self.c.add(r * self.ldc + 2 * v) as *const f64);
                    }
                }
            }
            // Entries past `2 * NV` are never dereferenced.
            let b_col_ptr: [*const Complex64; TILE] =
                std::array::from_fn(|j| self.b.wrapping_add(self.b_cols[j]));
            let mut pair = self.panel;
            for (&a_p, &b_p) in self.a_col.iter().zip(self.b_row) {
                let (b_vec, b_twin): ([__m256d; NV], [__m256d; NV]) = if PACKED {
                    let vecs = (
                        std::array::from_fn(|v| *pair.add(2 * v)),
                        std::array::from_fn(|v| *pair.add(2 * v + 1)),
                    );
                    pair = pair.wrapping_add(self.lanes);
                    vecs
                } else {
                    let vec: [__m256d; NV] = std::array::from_fn(|v| {
                        load_pair::<ADJ>(b_col_ptr[2 * v], b_col_ptr[2 * v + 1], b_p)
                    });
                    (vec, vec.map(|x| twin(x)))
                };
                for (r, row) in acc.iter_mut().enumerate() {
                    let a_rp = a_row_ptr[r].add(a_p) as *const f64;
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
                    _mm256_storeu_pd(self.c.add(r * self.ldc + 2 * v) as *mut f64, value);
                }
            }
        }
    }

    /// The odd last column of `C`, `rows` rows of it: scalar FMAs in exactly
    /// the vector lanes' order, so an element's value does not depend on
    /// which tile computed it.
    ///
    /// # Safety
    /// As [`run`](Self::run), for the first `rows` rows and column 0.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn run_single_column(&self, rows: usize, load_c: bool) {
        for r in 0..rows {
            // SAFETY: in bounds per the caller's contract.
            unsafe {
                let c_ij = self.c.add(r * self.ldc);
                let (mut re, mut im) = if load_c { ((*c_ij).re, (*c_ij).im) } else { (0.0, 0.0) };
                for (&a_p, &b_p) in self.a_col.iter().zip(self.b_row) {
                    let a_ip = *self.a.add(self.a_rows[r] + a_p);
                    let b_pj = *self.b.add(b_p + self.b_cols[0]);
                    re = a_ip.re.mul_add(b_pj.re, re);
                    im = a_ip.re.mul_add(b_pj.im, im);
                    re = a_ip.im.mul_add(-b_pj.im, re);
                    im = a_ip.im.mul_add(b_pj.re, im);
                }
                *c_ij = Complex64 { re, im };
            }
        }
    }
}

/// Packed/blocked `C += A·B` for `Complex64` using the AVX2+FMA tile.
///
/// # Safety
/// The caller must have verified that the CPU supports AVX2 and FMA
/// (the dispatcher only routes here after the runtime probe).
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn gemm_avx2_c64<L: Layout>(
    arena: &mut PackArena,
    a: MatRef<'_, Complex64, L>,
    b: MatRef<'_, Complex64, L>,
    c: &mut [Complex64],
) {
    gemm_packed_with(arena, a, b, c, |ar, ai, br, bi, cr, ci, ib, jb, pb| {
        // SAFETY: inherited from the function's contract; slices come from
        // the arena with the layout `tile` documents.
        unsafe { tile_avx2(ar, ai, br, bi, cr, ci, ib, jb, pb) }
    })
}

/// One C tile: planes are packed row-major (`A` as `ib×pb`, `B` as `pb×jb`,
/// `C` as `ib×jb`), C planes pre-zeroed by the driver.
///
/// # Safety
/// Requires AVX2+FMA.
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_avx2(
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
    c_re: &mut [f64],
    c_im: &mut [f64],
    ib: usize,
    jb: usize,
    pb: usize,
) {
    let i2 = ib / 2 * 2;
    let j8 = jb / 8 * 8;
    let mut i = 0;
    while i < i2 {
        let mut j = 0;
        while j < j8 {
            let c0 = i * jb + j;
            let c1 = (i + 1) * jb + j;
            let mut r00 = _mm256_loadu_pd(c_re.as_ptr().add(c0));
            let mut r01 = _mm256_loadu_pd(c_re.as_ptr().add(c0 + 4));
            let mut s00 = _mm256_loadu_pd(c_im.as_ptr().add(c0));
            let mut s01 = _mm256_loadu_pd(c_im.as_ptr().add(c0 + 4));
            let mut r10 = _mm256_loadu_pd(c_re.as_ptr().add(c1));
            let mut r11 = _mm256_loadu_pd(c_re.as_ptr().add(c1 + 4));
            let mut s10 = _mm256_loadu_pd(c_im.as_ptr().add(c1));
            let mut s11 = _mm256_loadu_pd(c_im.as_ptr().add(c1 + 4));
            for p in 0..pb {
                let bb = p * jb + j;
                let br0 = _mm256_loadu_pd(b_re.as_ptr().add(bb));
                let br1 = _mm256_loadu_pd(b_re.as_ptr().add(bb + 4));
                let bi0 = _mm256_loadu_pd(b_im.as_ptr().add(bb));
                let bi1 = _mm256_loadu_pd(b_im.as_ptr().add(bb + 4));

                let ar0 = _mm256_set1_pd(*a_re.get_unchecked(i * pb + p));
                let ai0 = _mm256_set1_pd(*a_im.get_unchecked(i * pb + p));
                r00 = _mm256_fmadd_pd(ar0, br0, r00);
                r00 = _mm256_fnmadd_pd(ai0, bi0, r00);
                r01 = _mm256_fmadd_pd(ar0, br1, r01);
                r01 = _mm256_fnmadd_pd(ai0, bi1, r01);
                s00 = _mm256_fmadd_pd(ar0, bi0, s00);
                s00 = _mm256_fmadd_pd(ai0, br0, s00);
                s01 = _mm256_fmadd_pd(ar0, bi1, s01);
                s01 = _mm256_fmadd_pd(ai0, br1, s01);

                let ar1 = _mm256_set1_pd(*a_re.get_unchecked((i + 1) * pb + p));
                let ai1 = _mm256_set1_pd(*a_im.get_unchecked((i + 1) * pb + p));
                r10 = _mm256_fmadd_pd(ar1, br0, r10);
                r10 = _mm256_fnmadd_pd(ai1, bi0, r10);
                r11 = _mm256_fmadd_pd(ar1, br1, r11);
                r11 = _mm256_fnmadd_pd(ai1, bi1, r11);
                s10 = _mm256_fmadd_pd(ar1, bi0, s10);
                s10 = _mm256_fmadd_pd(ai1, br0, s10);
                s11 = _mm256_fmadd_pd(ar1, bi1, s11);
                s11 = _mm256_fmadd_pd(ai1, br1, s11);
            }
            _mm256_storeu_pd(c_re.as_mut_ptr().add(c0), r00);
            _mm256_storeu_pd(c_re.as_mut_ptr().add(c0 + 4), r01);
            _mm256_storeu_pd(c_im.as_mut_ptr().add(c0), s00);
            _mm256_storeu_pd(c_im.as_mut_ptr().add(c0 + 4), s01);
            _mm256_storeu_pd(c_re.as_mut_ptr().add(c1), r10);
            _mm256_storeu_pd(c_re.as_mut_ptr().add(c1 + 4), r11);
            _mm256_storeu_pd(c_im.as_mut_ptr().add(c1), s10);
            _mm256_storeu_pd(c_im.as_mut_ptr().add(c1 + 4), s11);
            j += 8;
        }
        // Column remainder for the row pair: scalar FMAs, same `p` order.
        for j in j8..jb {
            for di in 0..2 {
                let row = i + di;
                let mut sr = c_re[row * jb + j];
                let mut si = c_im[row * jb + j];
                for p in 0..pb {
                    let ar = a_re[row * pb + p];
                    let ai = a_im[row * pb + p];
                    let br = b_re[p * jb + j];
                    let bi = b_im[p * jb + j];
                    sr = ar.mul_add(br, sr);
                    sr = (-ai).mul_add(bi, sr);
                    si = ar.mul_add(bi, si);
                    si = ai.mul_add(br, si);
                }
                c_re[row * jb + j] = sr;
                c_im[row * jb + j] = si;
            }
        }
        i += 2;
    }
    // Row remainder (ib odd): one row at a time, 8 columns wide.
    for i in i2..ib {
        let mut j = 0;
        while j < j8 {
            let c0 = i * jb + j;
            let mut r0 = _mm256_loadu_pd(c_re.as_ptr().add(c0));
            let mut r1 = _mm256_loadu_pd(c_re.as_ptr().add(c0 + 4));
            let mut s0 = _mm256_loadu_pd(c_im.as_ptr().add(c0));
            let mut s1 = _mm256_loadu_pd(c_im.as_ptr().add(c0 + 4));
            for p in 0..pb {
                let bb = p * jb + j;
                let br0 = _mm256_loadu_pd(b_re.as_ptr().add(bb));
                let br1 = _mm256_loadu_pd(b_re.as_ptr().add(bb + 4));
                let bi0 = _mm256_loadu_pd(b_im.as_ptr().add(bb));
                let bi1 = _mm256_loadu_pd(b_im.as_ptr().add(bb + 4));
                let ar = _mm256_set1_pd(*a_re.get_unchecked(i * pb + p));
                let ai = _mm256_set1_pd(*a_im.get_unchecked(i * pb + p));
                r0 = _mm256_fmadd_pd(ar, br0, r0);
                r0 = _mm256_fnmadd_pd(ai, bi0, r0);
                r1 = _mm256_fmadd_pd(ar, br1, r1);
                r1 = _mm256_fnmadd_pd(ai, bi1, r1);
                s0 = _mm256_fmadd_pd(ar, bi0, s0);
                s0 = _mm256_fmadd_pd(ai, br0, s0);
                s1 = _mm256_fmadd_pd(ar, bi1, s1);
                s1 = _mm256_fmadd_pd(ai, br1, s1);
            }
            _mm256_storeu_pd(c_re.as_mut_ptr().add(c0), r0);
            _mm256_storeu_pd(c_re.as_mut_ptr().add(c0 + 4), r1);
            _mm256_storeu_pd(c_im.as_mut_ptr().add(c0), s0);
            _mm256_storeu_pd(c_im.as_mut_ptr().add(c0 + 4), s1);
            j += 8;
        }
        for j in j8..jb {
            let mut sr = c_re[i * jb + j];
            let mut si = c_im[i * jb + j];
            for p in 0..pb {
                let ar = a_re[i * pb + p];
                let ai = a_im[i * pb + p];
                let br = b_re[p * jb + j];
                let bi = b_im[p * jb + j];
                sr = ar.mul_add(br, sr);
                sr = (-ai).mul_add(bi, sr);
                si = ar.mul_add(bi, si);
                si = ai.mul_add(br, si);
            }
            c_re[i * jb + j] = sr;
            c_im[i * jb + j] = si;
        }
    }
}
