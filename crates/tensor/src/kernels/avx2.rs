//! AVX2+FMA kernels for double-precision complex operands (x86_64).
//!
//! Two hand-written tiles live here, both reading their operands through
//! [`MatRef`] views so a contraction's regrouped axes are consumed in place:
//!
//! * the **narrow tile** ([`gemm_narrow_avx2_c64`]) — a register-blocked
//!   4-row × 4-column tile on *interleaved* complex data, with no packing
//!   at all. It serves every narrow shape; which dimension is long only
//!   decides the loop order around the tile (see below);
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
//! so with `b` and its *twin* `[−bi, br]` (one in-lane swap and one sign
//! flip per loaded vector, shared by every row of the tile) each
//! accumulator takes exactly two FMAs per `p` step with broadcast `ar` and
//! `ai` — every lane of every FMA does useful work, and `C` is loaded and
//! stored once per tile instead of once per `p`. 4 rows × 2 vectors keeps 8
//! accumulators, 4 `B` registers and 2 broadcasts inside the 16-register
//! file.
//!
//! `A` elements are fetched by scalar broadcast, so any `A` view works
//! unchanged. `B` vectors are one 256-bit load when the view's column pairs
//! are adjacent in memory (the unit-stride source axis is a free axis) and
//! two 128-bit loads otherwise (it is contracted) — decided once per call.
//!
//! The loop nest around the tile keeps whichever operand is long streaming
//! through exactly once:
//!
//! * **tall** (`m` long): row blocks outermost — `B` (at most 16 × 16)
//!   stays in L1, each `A` row block is read once;
//! * **wide** (`n` long): column blocks outermost — the `k × 4` `B` panel is
//!   reused by every row block while it is hot, `C` is written once instead
//!   of `k` times;
//! * **deep** (`k` long): `p` is cut into [`KC`]-sized chunks whose `A` and
//!   `B` panels fit L1 together; the `m × n` accumulators round-trip
//!   through `C` between chunks (exact: they are the same f64 values).
//!
//! Per output element the FMA order is fixed — `p` ascending, the `ar`
//! term before the `ai` term — independent of the view, the tile a
//! remainder falls into, and the chunking, so results are deterministic and
//! a contraction is bit-identical whichever way its operands are laid out.
//! They differ from the scalar reference only by FMA rounding, which the
//! conformance suite bounds.

use super::packed::{gemm_packed_with, PackArena};
use super::view::{Layout, MatRef};
use crate::complex::Complex64;
use crate::gemm::shape_of;
use core::arch::x86_64::*;

/// `p` chunk of the narrow kernel: `4 rows × KC` of `A` plus `KC × 4` of `B`
/// is 16 KiB, half of a 32 KiB L1, and the per-chunk offset arrays stay a
/// few KiB of stack.
const KC: usize = 128;

/// Rows and columns of the full narrow tile.
const TILE: usize = 4;

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
    if b.layout().col_pairs_adjacent() {
        // SAFETY: AVX2+FMA inherited from this function's contract.
        unsafe { narrow_driver::<L, true>(a, b, c, overwrite) }
    } else {
        // SAFETY: as above.
        unsafe { narrow_driver::<L, false>(a, b, c, overwrite) }
    }
}

/// Width of the next block when `left` rows (or columns) remain: full tiles
/// first, then a pair, then a single.
#[inline(always)]
fn block_width(left: usize) -> usize {
    match left {
        0..=1 => left,
        2..=3 => 2,
        _ => TILE,
    }
}

/// The loop nest around the tile. `ADJ` says whether `B`'s column pairs are
/// adjacent in memory.
///
/// # Safety
/// Requires AVX2+FMA.
#[target_feature(enable = "avx2,fma")]
unsafe fn narrow_driver<L: Layout, const ADJ: bool>(
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
    // Long dimension outermost: the long operand streams through once.
    let cols_outer = n > m;
    let (outer_len, inner_len) = if cols_outer { (n, m) } else { (m, n) };

    let mut a_col = [0usize; KC];
    let mut b_row = [0usize; KC];
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

        let mut outer = 0;
        while outer < outer_len {
            let outer_w = block_width(outer_len - outer);
            let mut inner = 0;
            while inner < inner_len {
                let inner_w = block_width(inner_len - inner);
                let (i0, mr, j0, nc) = if cols_outer {
                    (inner, inner_w, outer, outer_w)
                } else {
                    (outer, outer_w, inner, inner_w)
                };
                let mut a_rows = [0usize; TILE];
                for (r, slot) in a_rows.iter_mut().enumerate().take(mr) {
                    *slot = la.row(i0 + r);
                }
                let mut b_cols = [0usize; TILE];
                for (j, slot) in b_cols.iter_mut().enumerate().take(nc) {
                    *slot = lb.col(j0 + j);
                }
                // The views guarantee `row + col < len` for every in-range
                // (row, col); the tiles below only form such sums.
                debug_assert!(a_rows[..mr].iter().all(|r| a_col.iter().all(|p| r + p < a_len)));
                debug_assert!(b_cols[..nc].iter().all(|j| b_row.iter().all(|p| p + j < b_len)));
                debug_assert!(!ADJ || nc < 2 || b_cols[1] == b_cols[0] + 1);
                debug_assert!((i0 + mr - 1) * n + j0 + nc <= m * n);
                // SAFETY: `c_tile` addresses rows `i0..i0+mr`, columns
                // `j0..j0+nc` of the `m x n` output, which `shape_of`
                // checked `c` holds.
                let c_tile = unsafe { c_ptr.add(i0 * n + j0) };
                let t =
                    Tile { a: a_ptr, a_rows, a_col, b: b_ptr, b_row, b_cols, c: c_tile, ldc: n };
                // SAFETY: AVX2+FMA from this function's contract; the
                // offsets in `t` are in bounds as asserted above.
                unsafe {
                    match (mr, nc) {
                        (4, 4) => t.run::<4, 2, ADJ>(load_c),
                        (2, 4) => t.run::<2, 2, ADJ>(load_c),
                        (1, 4) => t.run::<1, 2, ADJ>(load_c),
                        (4, 2) => t.run::<4, 1, ADJ>(load_c),
                        (2, 2) => t.run::<2, 1, ADJ>(load_c),
                        (1, 2) => t.run::<1, 1, ADJ>(load_c),
                        (_, _) => t.run_single_column(mr, load_c),
                    }
                }
                inner += inner_w;
            }
            outer += outer_w;
        }
        p0 += KC;
    }
}

/// One register tile's operands: raw base pointers plus the offsets of its
/// rows, columns and `p` chunk, all validated by [`narrow_driver`].
struct Tile<'t> {
    a: *const Complex64,
    /// `A` row offsets (first `MR` entries used).
    a_rows: [usize; TILE],
    /// `A` column offset per `p` of the chunk.
    a_col: &'t [usize],
    b: *const Complex64,
    /// `B` row offset per `p` of the chunk.
    b_row: &'t [usize],
    /// `B` column offsets (first `2 * NV` entries used).
    b_cols: [usize; TILE],
    /// `C[i0, j0]`.
    c: *mut Complex64,
    /// Row stride of `C` in elements.
    ldc: usize,
}

impl Tile<'_> {
    /// `MR` rows × `NV` vectors (2 complex columns each). The accumulators
    /// start from `C` when `load_c`, from zero otherwise.
    ///
    /// # Safety
    /// Requires AVX2+FMA, and every `a_rows[r] + a_col[p]`, `b_row[p] +
    /// b_cols[j]` (plus one when `ADJ`) and `c + r * ldc + j` formed from
    /// the first `MR` rows and `2 * NV` columns must be in bounds.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn run<const MR: usize, const NV: usize, const ADJ: bool>(&self, load_c: bool) {
        // SAFETY (whole body): pointer arithmetic stays within the bounds
        // the caller vouches for; loads and stores are unaligned-tolerant.
        unsafe {
            let a_row_ptr: [*const Complex64; MR] =
                std::array::from_fn(|r| self.a.add(self.a_rows[r]));
            let b_col_ptr: [*const Complex64; TILE] =
                std::array::from_fn(|j| self.b.add(self.b_cols[j]));
            let mut acc = [[_mm256_setzero_pd(); NV]; MR];
            if load_c {
                for (r, row) in acc.iter_mut().enumerate() {
                    for (v, slot) in row.iter_mut().enumerate() {
                        *slot = _mm256_loadu_pd(self.c.add(r * self.ldc + 2 * v) as *const f64);
                    }
                }
            }
            // Flips the sign of the even (real) lanes.
            let flip_even = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
            for (&a_p, &b_p) in self.a_col.iter().zip(self.b_row) {
                let mut b_vec = [_mm256_setzero_pd(); NV];
                let mut b_twin = [_mm256_setzero_pd(); NV];
                for v in 0..NV {
                    let lo = b_col_ptr[2 * v].add(b_p) as *const f64;
                    b_vec[v] = if ADJ {
                        _mm256_loadu_pd(lo)
                    } else {
                        _mm256_loadu2_m128d(b_col_ptr[2 * v + 1].add(b_p) as *const f64, lo)
                    };
                    // [br, bi] -> [bi, br] -> [-bi, br]
                    b_twin[v] = _mm256_xor_pd(_mm256_permute_pd(b_vec[v], 0b0101), flip_even);
                }
                for r in 0..MR {
                    let a_rp = a_row_ptr[r].add(a_p) as *const f64;
                    let ar = _mm256_broadcast_sd(&*a_rp);
                    let ai = _mm256_broadcast_sd(&*a_rp.add(1));
                    for v in 0..NV {
                        acc[r][v] = _mm256_fmadd_pd(ar, b_vec[v], acc[r][v]);
                        acc[r][v] = _mm256_fmadd_pd(ai, b_twin[v], acc[r][v]);
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
