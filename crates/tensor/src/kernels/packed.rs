//! Split-real packed/blocked complex GEMM: the blocked class's scalar and
//! NEON path. (On AVX2+FMA the blocked class runs the narrow class's
//! interleaved register tile instead.)
//!
//! Interleaved complex storage defeats auto-vectorization: a SIMD
//! lane-wise multiply of `(re, im, re, im, ...)` vectors does not compute a
//! complex product without shuffles. This driver therefore *splits* each
//! operand panel into separate real and imaginary planes while packing it
//! into a contiguous block-sized arena (the classic 4M split-real scheme:
//! four real multiplies per complex multiply, chosen over 3M-Karatsuba
//! because its `±a·b` terms map 1:1 onto multiply-adds and avoid the
//! Karatsuba cancellation error). The pack step reads the operand through
//! its [`MatRef`] view, so packing *is* the TTGT transpose: a
//! contraction's regrouped axes are gathered straight into the planes,
//! never into a permuted copy first. The portable tile then runs four
//! plane-by-plane real GEMMs' worth of work with unit-stride loads, which
//! the compiler vectorizes (NEON is baseline on aarch64):
//!
//! ```text
//! C.re += A.re·B.re − A.im·B.im
//! C.im += A.re·B.im + A.im·B.re
//! ```
//!
//! Panels are bounded by [`PBM`]×[`PBK`] (A), [`PBK`]×[`PBN`] (B) and
//! [`PBM`]×[`PBN`] (C), so the per-thread [`PackArena`] is O(1) — 128 KiB
//! of f64 planes — and grow-once: the executor's zero-allocation steady
//! state stays allocation-free after the first blocked dispatch on a
//! thread.
//!
//! Loop order is `j0 → p0 → i0`: each B panel is packed once and the A
//! panels stream past it, so `A` is re-gathered through its view (and
//! split again) once per B panel, `⌈n / PBN⌉` times in all. For a fixed
//! output element the `k` blocks are visited in ascending order and each
//! block accumulates `p` ascending from zero before it is added to `C`, so
//! results are deterministic and repeated runs bit-identical.

use super::view::{Layout, MatRef};
use crate::complex::Complex64;

/// A-panel rows per block.
pub(crate) const PBM: usize = 32;
/// B-panel columns per block.
pub(crate) const PBN: usize = 64;
/// Shared (contracted) dimension per block.
pub(crate) const PBK: usize = 64;

/// Grow-once scratch planes for packed panels, one per worker thread.
pub(crate) struct PackArena {
    a_re: Vec<f64>,
    a_im: Vec<f64>,
    b_re: Vec<f64>,
    b_im: Vec<f64>,
    c_re: Vec<f64>,
    c_im: Vec<f64>,
}

impl PackArena {
    /// An empty arena; planes are sized on first use.
    pub(crate) const fn new() -> Self {
        Self {
            a_re: Vec::new(),
            a_im: Vec::new(),
            b_re: Vec::new(),
            b_im: Vec::new(),
            c_re: Vec::new(),
            c_im: Vec::new(),
        }
    }

    fn ensure(&mut self) {
        if self.a_re.len() < PBM * PBK {
            self.a_re.resize(PBM * PBK, 0.0);
            self.a_im.resize(PBM * PBK, 0.0);
            self.b_re.resize(PBK * PBN, 0.0);
            self.b_im.resize(PBK * PBN, 0.0);
            self.c_re.resize(PBM * PBN, 0.0);
            self.c_im.resize(PBM * PBN, 0.0);
        }
    }
}

/// Split-pack the `rb x cb` panel of `src` at `(r0, c0)` into row-major
/// planes: `src(r0+r, c0+c) → planes[r·cb + c]`. Serves `A` panels
/// (`rows = i`, `cols = p`) and `B` panels (`rows = p`, `cols = j`) alike.
#[inline(always)]
fn pack_panel<L: Layout>(
    src: &MatRef<'_, Complex64, L>,
    re: &mut [f64],
    im: &mut [f64],
    (r0, c0): (usize, usize),
    (rb, cb): (usize, usize),
) {
    for r in 0..rb {
        let dst_re = &mut re[r * cb..(r + 1) * cb];
        let dst_im = &mut im[r * cb..(r + 1) * cb];
        src.for_each_run(r0 + r, c0, cb, |c, chunk| {
            for ((v, d_re), d_im) in chunk.iter().zip(&mut dst_re[c..]).zip(&mut dst_im[c..]) {
                *d_re = v.re;
                *d_im = v.im;
            }
        });
    }
}

/// Merge the accumulated C tile planes back into interleaved `C` (`+=`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn unpack_c(
    c: &mut [Complex64],
    c_re: &[f64],
    c_im: &[f64],
    n: usize,
    i0: usize,
    j0: usize,
    ib: usize,
    jb: usize,
) {
    for i in 0..ib {
        let dst = &mut c[(i0 + i) * n + j0..(i0 + i) * n + j0 + jb];
        let src_re = &c_re[i * jb..(i + 1) * jb];
        let src_im = &c_im[i * jb..(i + 1) * jb];
        for j in 0..jb {
            dst[j] += Complex64::new(src_re[j], src_im[j]);
        }
    }
}

/// Portable split-real tile kernel over packed planes (`A` as `ib×pb`, `B`
/// as `pb×jb`, `C` as `ib×jb`, row-major), accumulating `p` ascending.
/// Written so the innermost `j` loops are unit-stride over disjoint slices,
/// which LLVM auto-vectorizes under whatever features the compilation
/// target enables (NEON is baseline on aarch64).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_generic(
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
    for i in 0..ib {
        let cr = &mut c_re[i * jb..(i + 1) * jb];
        let ci = &mut c_im[i * jb..(i + 1) * jb];
        for p in 0..pb {
            let ar = a_re[i * pb + p];
            let ai = a_im[i * pb + p];
            let br = &b_re[p * jb..(p + 1) * jb];
            let bi = &b_im[p * jb..(p + 1) * jb];
            for j in 0..jb {
                cr[j] += ar * br[j] - ai * bi[j];
                ci[j] += ar * bi[j] + ai * br[j];
            }
        }
    }
}

/// Packed/blocked `C += A·B`: pack panels into `arena`, run the portable
/// tile per C tile on zeroed C planes, merge into interleaved `C`.
pub(crate) fn gemm_packed<L: Layout>(
    arena: &mut PackArena,
    a: MatRef<'_, Complex64, L>,
    b: MatRef<'_, Complex64, L>,
    c: &mut [Complex64],
) {
    let (m, n, k) = crate::gemm::shape_of(&a, &b, c);
    arena.ensure();
    let mut j0 = 0;
    while j0 < n {
        let jb = PBN.min(n - j0);
        let mut p0 = 0;
        while p0 < k {
            let pb = PBK.min(k - p0);
            pack_panel(&b, &mut arena.b_re, &mut arena.b_im, (p0, j0), (pb, jb));
            let mut i0 = 0;
            while i0 < m {
                let ib = PBM.min(m - i0);
                pack_panel(&a, &mut arena.a_re, &mut arena.a_im, (i0, p0), (ib, pb));
                arena.c_re[..ib * jb].fill(0.0);
                arena.c_im[..ib * jb].fill(0.0);
                tile_generic(
                    &arena.a_re,
                    &arena.a_im,
                    &arena.b_re,
                    &arena.b_im,
                    &mut arena.c_re,
                    &mut arena.c_im,
                    ib,
                    jb,
                    pb,
                );
                unpack_c(c, &arena.c_re, &arena.c_im, n, i0, j0, ib, jb);
                i0 += PBM;
            }
            p0 += PBK;
        }
        j0 += PBN;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, Complex64};
    use crate::gemm::gemm_reference;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, len: usize) -> Vec<Complex64> {
        (0..len).map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    #[test]
    fn packed_generic_matches_reference() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut arena = PackArena::new();
        // Shapes straddling each panel boundary, including non-multiples.
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (17, 18, 19),
            (32, 64, 64),
            (33, 65, 65),
            (31, 63, 129),
            (96, 70, 40),
        ] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let dirty = c64(0.5, -0.5);
            let mut c_ref = vec![dirty; m * n];
            let mut c_pack = vec![dirty; m * n];
            gemm_reference(&a, &b, &mut c_ref, m, n, k);
            gemm_packed(&mut arena, MatRef::dense(&a, m, k), MatRef::dense(&b, k, n), &mut c_pack);
            for (x, y) in c_pack.iter().zip(c_ref.iter()) {
                assert!((*x - *y).abs() < 1e-9, "packed {m}x{n}x{k}: {x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn packed_degenerate_dims_are_noops_or_exact() {
        let mut arena = PackArena::new();
        // k = 0: C must be left untouched (C += nothing).
        let a: Vec<Complex64> = vec![];
        let b: Vec<Complex64> = vec![];
        let mut c = vec![c64(2.0, 3.0); 4 * 5];
        gemm_packed(&mut arena, MatRef::dense(&a, 4, 0), MatRef::dense(&b, 0, 5), &mut c);
        assert!(c.iter().all(|&z| z == c64(2.0, 3.0)));
        // m = 0: nothing to write, must not panic.
        let mut empty: Vec<Complex64> = vec![];
        let b = vec![Complex64::ONE; 3 * 5];
        gemm_packed(&mut arena, MatRef::dense(&a, 0, 3), MatRef::dense(&b, 3, 5), &mut empty);
    }
}
