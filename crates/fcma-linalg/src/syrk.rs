//! Symmetric rank-k update kernels: `C = A · Aᵀ` for tall-skinny `A`.
//!
//! Stage 3 of FCMA precomputes, per voxel, the linear-SVM kernel matrix
//! `K = X · Xᵀ` where `X` is `M × N` (`M` ≈ 200 epochs, `N` ≈ 35,000
//! brain voxels) — a symmetric product whose *depth* dimension is enormous
//! while the output is tiny. The paper replaces MKL's `cblas_ssyrk` with a
//! custom kernel (§4.4, Fig. 7): threads walk the long dimension in blocks
//! of 96, copy each block into a local buffer, transpose sub-blocks, run a
//! `16x9x96` register microkernel, and merge their partial `C` under a
//! lock.
//!
//! Three implementations, one body each:
//! * [`crate::gemm_ref::syrk_ref`] — the triple-loop oracle (in `gemm_ref`);
//! * [`syrk_dot`] — a generic library-style version (chunked row dot
//!   products over the lower triangle), the `cblas_ssyrk` stand-in;
//! * [`syrk_panel_scratch`] — the paper's panel-blocked, microkernel-based
//!   design over caller-provided packing buffers. It is single-threaded
//!   by design: stage 3 fills the cores across voxels (or across CV
//!   folds for a one-voxel task), one [`SyrkScratch`] per pool worker,
//!   so unlike the paper's OpenMP-lock partial-`C` merge (§4.4) there is
//!   no cross-thread reduction here at all.
//!
//! The panel kernel is three steps — [`syrk_zero`], [`syrk_accumulate`],
//! [`syrk_mirror`] — and [`syrk_panel_scratch`] is their composition.
//! The middle step adds `A`'s panels to the lower triangle in ascending
//! column order, so calling it once per column strip of `A` (strips that
//! start on multiples of the panel depth) performs the same additions in
//! the same order as one call over all of `A`: that is how the optimized
//! executor builds each voxel's Gram matrix from strips it never
//! assembles into a whole `M × N` matrix.

use crate::microkernel::{microkernel_clipped, pack_a_panel};

pub use crate::microkernel::{MR, NR};

/// Depth of one packed panel — the paper's "blocks of 96 rows (an integral
/// multiple of VPU length)".
pub const PANEL_K: usize = 96;

/// Generic chunked-dot-product SYRK (the `cblas_ssyrk` stand-in).
///
/// Computes the lower triangle of `C[0..m, 0..m] = A · Aᵀ` via row dot
/// products taken `kc` elements at a time, then mirrors. Vectorizes well
/// per dot product but re-streams both operand rows from memory for every
/// `C` entry — the reuse failure mode the paper measures for MKL on this
/// shape.
///
/// # Panics
/// If `lda < n`, `ldc < m`, or either buffer is shorter than the
/// leading-dimension layout requires.
pub fn syrk_dot(m: usize, n: usize, a: &[f32], lda: usize, c: &mut [f32], ldc: usize) {
    assert!(lda >= n, "syrk_dot: lda {lda} < n {n}");
    assert!(ldc >= m, "syrk_dot: ldc {ldc} < m {m}");
    if m > 0 {
        assert!(a.len() >= (m - 1) * lda + n, "syrk_dot: A too short");
        assert!(c.len() >= (m - 1) * ldc + m, "syrk_dot: C too short");
    }
    for i in 0..m {
        let ai = &a[i * lda..i * lda + n];
        for j in 0..=i {
            let aj = &a[j * lda..j * lda + n];
            let s = crate::norms::dot(ai, aj);
            c[i * ldc + j] = s;
            c[j * ldc + i] = s;
        }
    }
}

/// The paper's optimized SYRK — panel-blocked over the long dimension
/// with a register microkernel — over caller-provided packing buffers,
/// allocated once per worker (DESIGN.md §14). The panel depth is carried by
/// the scratch (the paper's 96 is [`PANEL_K`]; other depths are the
/// `fcma-repro ablate-panel` knob); a [`SyrkScratch`] built once can be
/// reused across calls (and across smaller `m`) without touching the
/// allocator, which is what the paper's per-thread `A_local` buffers
/// amount to.
///
/// A dirty scratch gives bit-identical results to a fresh one: every
/// scratch region read by the microkernels is fully overwritten first,
/// so stale contents from a previous call can never leak into the
/// product.
///
/// # Panics
/// Panics if buffers are inconsistent or `scratch` was built for a
/// smaller `m`.
pub fn syrk_panel_scratch(
    m: usize,
    n: usize,
    a: &[f32],
    lda: usize,
    c: &mut [f32],
    ldc: usize,
    scratch: &mut SyrkScratch,
) {
    syrk_zero(m, c, ldc);
    syrk_accumulate(m, n, a, lda, c, ldc, scratch);
    syrk_mirror(m, c, ldc);
}

/// Step 1 of [`syrk_panel_scratch`]: zero the `m × m` square of `C`
/// (tiles straddling the diagonal write a few upper entries too, so the
/// whole square is cleared and stale data never leaks through
/// [`syrk_mirror`]).
///
/// # Panics
/// If `c` cannot hold `m` rows at leading dimension `ldc`.
pub fn syrk_zero(m: usize, c: &mut [f32], ldc: usize) {
    for i in 0..m {
        c[i * ldc..i * ldc + m].fill(0.0);
    }
}

/// Step 2 of [`syrk_panel_scratch`]: add `A · Aᵀ` over `A`'s `n`
/// columns to the lower triangle of `C`, one scratch-deep panel at a
/// time in ascending column order. `A` may be one column strip of a
/// wider matrix (`lda` is then the strip width): consecutive calls over
/// strips that start on multiples of the panel depth add the same
/// panels, in the same order, as one call over the whole matrix, so the
/// result is bit-identical.
///
/// # Panics
/// Panics if buffers are inconsistent or `scratch` was built for a
/// smaller `m`.
pub fn syrk_accumulate(
    m: usize,
    n: usize,
    a: &[f32],
    lda: usize,
    c: &mut [f32],
    ldc: usize,
    scratch: &mut SyrkScratch,
) {
    assert!(scratch.m >= m, "syrk: scratch built for m {} < {m}", scratch.m);
    validate(m, n, a.len(), lda, c.len(), ldc);
    if m == 0 {
        return;
    }
    let panel_k = scratch.panel_k;
    for p in (0..n).step_by(panel_k) {
        let kp = panel_k.min(n - p);
        accumulate_panel(m, a, lda, p, kp, c, ldc, scratch);
    }
}

/// Step 3 of [`syrk_panel_scratch`]: copy the lower triangle of the
/// `m × m` square of `C` onto its upper triangle.
///
/// # Panics
/// If `c` cannot hold `m` rows at leading dimension `ldc`.
pub fn syrk_mirror(m: usize, c: &mut [f32], ldc: usize) {
    for i in 0..m {
        for j in i + 1..m {
            c[i * ldc + j] = c[j * ldc + i];
        }
    }
}

/// Reusable packing buffers for one thread's panel walk (`A_local` and
/// `A^T_local` in the paper's Fig. 7 terminology). Build once with
/// [`SyrkScratch::new`], thread through [`syrk_panel_scratch`]; the
/// buffers are private so only the kernel's fully-overwriting writes
/// ever touch them.
pub struct SyrkScratch {
    /// `MR`-tall packed slabs for every row tile (the `Aᵀ_local` role).
    a_packs: Vec<f32>,
    /// One `NR`-wide right-operand panel, rebuilt per column tile.
    b_panel: Vec<f32>,
    /// Panel depth the buffers were sized for; also the walk's step.
    panel_k: usize,
    /// Largest `m` the `a_packs` slab can pack.
    m: usize,
}

impl SyrkScratch {
    /// Size buffers for an `m`-row update walked `panel_k` deep.
    ///
    /// # Panics
    /// Panics if `panel_k` is zero.
    #[must_use]
    pub fn new(m: usize, panel_k: usize) -> Self {
        assert!(panel_k > 0, "syrk: panel_k must be positive");
        let n_row_tiles = m.div_ceil(MR);
        SyrkScratch {
            a_packs: vec![0.0; n_row_tiles * panel_k * MR],
            b_panel: vec![0.0; panel_k * NR],
            panel_k,
            m,
        }
    }
}

/// Add one `kp`-deep panel's contribution to the lower triangle of `C`.
#[expect(clippy::too_many_arguments, reason = "BLAS-style panel call")]
fn accumulate_panel(
    m: usize,
    a: &[f32],
    lda: usize,
    p: usize,
    kp: usize,
    c: &mut [f32],
    ldc: usize,
    scratch: &mut SyrkScratch,
) {
    let SyrkScratch { a_packs, b_panel, panel_k, .. } = scratch;
    let panel_k = *panel_k;
    // Pack every MR-tall row tile of A[.., p..p+kp] once; tiles serve as
    // the left operand and, NR / MR of them side by side, as the right.
    let n_row_tiles = m.div_ceil(MR);
    for (t, i0) in (0..m).step_by(MR).enumerate() {
        let mr = MR.min(m - i0);
        pack_a_panel::<MR>(&a[i0 * lda + p..], lda, mr, kp, &mut a_packs[t * panel_k * MR..]);
    }
    for j0 in (0..m).step_by(NR) {
        let nr = NR.min(m - j0);
        // The B layout (l*NR + j = A[j0+j, p+l]) is row tile j0/MR + q in
        // lanes q*MR.. of every step; tiles past the last row are zero.
        for q in 0..NR / MR {
            let t = j0 / MR + q;
            let steps = b_panel[..kp * NR].chunks_exact_mut(NR);
            if t < n_row_tiles {
                let tile = &a_packs[t * panel_k * MR..t * panel_k * MR + kp * MR];
                for (dst, src) in steps.zip(tile.chunks_exact(MR)) {
                    dst[q * MR..(q + 1) * MR].copy_from_slice(src);
                }
            } else {
                for dst in steps {
                    dst[q * MR..(q + 1) * MR].fill(0.0);
                }
            }
        }
        // Only row tiles at or below this column tile contribute to the
        // lower triangle (j0 <= i0 covers all i >= j; see mirror step).
        for (t, i0) in (0..m).step_by(MR).enumerate() {
            if i0 < j0 {
                continue;
            }
            let mr = MR.min(m - i0);
            let a_panel = &a_packs[t * panel_k * MR..t * panel_k * MR + kp * MR];
            microkernel_clipped(
                kp,
                mr,
                nr,
                a_panel,
                b_panel,
                NR,
                &mut c[i0 * ldc + j0..],
                ldc,
                true,
            );
        }
    }
}

fn validate(m: usize, n: usize, a_len: usize, lda: usize, c_len: usize, ldc: usize) {
    assert!(lda >= n, "syrk: lda {lda} < n {n}");
    assert!(ldc >= m, "syrk: ldc {ldc} < m {m}");
    if m > 0 {
        assert!(a_len >= (m - 1) * lda + n, "syrk: A too short");
        assert!(c_len >= (m - 1) * ldc + m, "syrk: C too short");
    }
}

/// Re-export of the reference oracle for convenience.
pub use crate::gemm_ref::syrk_ref;

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(99);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1 << 24) as f32) - 0.5
            })
            .collect()
    }

    /// The panel kernel at the paper's depth over a fresh scratch.
    fn syrk_fresh(m: usize, n: usize, a: &[f32], lda: usize, c: &mut [f32], ldc: usize) {
        syrk_panel_scratch(m, n, a, lda, c, ldc, &mut SyrkScratch::new(m, PANEL_K));
    }

    fn check(m: usize, n: usize, f: impl Fn(usize, usize, &[f32], usize, &mut [f32], usize)) {
        let a = pseudo(m * n, 3);
        let mut got = vec![f32::NAN; m * m];
        let mut expect = vec![0.0; m * m];
        f(m, n, &a, n, &mut got, m);
        syrk_ref(m, n, &a, n, &mut expect, m);
        let tol = 1e-4 * n.max(1) as f32 * 0.05 + 1e-4;
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert!((g - e).abs() < tol, "m={m} n={n} idx {i}: {g} vs {e}");
        }
    }

    #[test]
    fn dot_version_matches_reference() {
        check(7, 33, syrk_dot);
        check(16, 96, syrk_dot);
    }

    #[test]
    fn panel_version_matches_reference_exact_panels() {
        check(16, 192, syrk_fresh);
    }

    #[test]
    fn panel_version_matches_reference_ragged() {
        check(13, 100, syrk_fresh);
        check(9, 97, syrk_fresh);
        check(21, 1, syrk_fresh);
        check(1, 200, syrk_fresh);
    }

    #[test]
    fn panel_version_fcma_shape_scaled() {
        // M ~ epochs (204 in the paper; scaled), N ~ brain voxels.
        check(52, 700, syrk_fresh);
    }

    #[test]
    fn output_is_symmetric() {
        let m = 19;
        let n = 131;
        let a = pseudo(m * n, 8);
        let mut c = vec![0.0; m * m];
        syrk_fresh(m, n, &a, n, &mut c, m);
        for i in 0..m {
            for j in 0..m {
                assert_eq!(c[i * m + j], c[j * m + i], "asymmetry at ({i},{j})");
            }
        }
    }

    #[test]
    fn diagonal_is_nonnegative() {
        let m = 10;
        let n = 50;
        let a = pseudo(m * n, 21);
        let mut c = vec![0.0; m * m];
        syrk_fresh(m, n, &a, n, &mut c, m);
        for i in 0..m {
            assert!(c[i * m + i] >= 0.0, "negative diagonal at {i}");
        }
    }

    #[test]
    fn panel_depth_does_not_change_results() {
        let m = 17;
        let n = 333;
        let a = pseudo(m * n, 11);
        let mut expect = vec![0.0; m * m];
        syrk_ref(m, n, &a, n, &mut expect, m);
        for panel_k in [1usize, 16, 48, 96, 200, 512] {
            let mut got = vec![0.0; m * m];
            syrk_panel_scratch(m, n, &a, n, &mut got, m, &mut SyrkScratch::new(m, panel_k));
            for (g, e) in got.iter().zip(&expect) {
                assert!((g - e).abs() < 0.05, "panel {panel_k}: {g} vs {e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "panel_k")]
    fn rejects_zero_panel_depth() {
        let _ = SyrkScratch::new(2, 0);
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One dirty scratch walked across shrinking shapes must reproduce
        // the fresh-allocation path bit for bit.
        let mut scratch = SyrkScratch::new(24, 48);
        // Dirty it with NaN first: the right panel is assembled from the
        // packed row tiles, and a stale tile read would surface at once.
        syrk_panel_scratch(
            24,
            100,
            &[f32::NAN; 24 * 100],
            100,
            &mut [0.0; 24 * 24],
            24,
            &mut scratch,
        );
        for (m, n, seed) in [(24usize, 150usize, 5u32), (17, 97, 6), (9, 200, 7)] {
            let a = pseudo(m * n, seed);
            let mut fresh = vec![0.0; m * m];
            syrk_panel_scratch(m, n, &a, n, &mut fresh, m, &mut SyrkScratch::new(m, 48));
            let mut reused = vec![f32::NAN; m * m];
            syrk_panel_scratch(m, n, &a, n, &mut reused, m, &mut scratch);
            for (r, f) in reused.iter().zip(&fresh) {
                assert_eq!(r.to_bits(), f.to_bits(), "m={m} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "scratch built for")]
    fn rejects_undersized_scratch() {
        let mut scratch = SyrkScratch::new(4, 16);
        let mut c = vec![0.0; 64];
        syrk_panel_scratch(8, 16, &[0.0; 128], 16, &mut c, 8, &mut scratch);
    }

    #[test]
    fn zero_depth_gives_zero_matrix() {
        let mut c = vec![5.0; 9];
        syrk_fresh(3, 0, &[], 0, &mut c, 3);
        assert_eq!(c, vec![0.0; 9]);
    }

    #[test]
    fn respects_ldc() {
        let m = 4;
        let n = 24;
        let a = pseudo(m * n, 4);
        let ldc = 7;
        let mut c = vec![-3.0; m * ldc];
        syrk_fresh(m, n, &a, n, &mut c, ldc);
        let mut expect = vec![0.0; m * m];
        syrk_ref(m, n, &a, n, &mut expect, m);
        for i in 0..m {
            for j in 0..m {
                assert!((c[i * ldc + j] - expect[i * m + j]).abs() < 1e-3);
            }
            for j in m..ldc.min(if i + 1 < m { ldc } else { m }) {
                // Padding beyond column m must be untouched (except the
                // last row, whose padding was never part of the buffer walk).
                assert_eq!(c[i * ldc + j], -3.0, "padding clobbered at ({i},{j})");
            }
        }
    }
}
