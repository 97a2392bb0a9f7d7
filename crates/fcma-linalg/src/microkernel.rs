//! Register-tile microkernels.
//!
//! The paper's optimized kernels bottom out in an auto-generated
//! `16x9x96` assembly microkernel (§4.4). Rust's stand-in is a const-
//! generic `MR × NR` register tile written so LLVM keeps the `NR`-wide
//! accumulator rows in SIMD registers: the inner loop is a broadcast-
//! multiply-accumulate over packed panels, the exact dataflow of the
//! assembly kernel.
//!
//! Packed-panel layout (identical to Goto-style GEMM packing):
//! * `a_panel[l * MR + i]` — element `A[i, l]` of the `MR × k` slab
//!   (k-major, so each k step reads `MR` contiguous floats).
//! * `b_panel[l * NR + j]` — element `B[l, j]` of the `k × NR` slab.

/// Number of f32 lanes in one Xeon Phi vector register; the natural `NR`.
pub const VPU_WIDTH: usize = 16;

/// Register tile height every kernel in this crate instantiates the
/// microkernels with. Declared once: the §15 bit-identity of banded
/// output depends on GEMM, SYRK, the correlation tile and the callers
/// that align bands on it all agreeing.
pub const MR: usize = 8;
/// Register tile width (one Phi vector register of f32).
pub const NR: usize = VPU_WIDTH;

/// Compute a single `MR × NR` tile: `C[i, j] (+)= Σ_l a_panel[l,i] · b_panel[l,j]`.
///
/// When `accumulate` is false the tile is overwritten.
///
/// # Panics
/// Panics (in debug builds) if the panels are shorter than `k` steps or the
/// C buffer cannot hold the tile at leading dimension `ldc`.
#[inline]
// audit: pure
pub fn microkernel<const MR: usize, const NR: usize>(
    k: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    accumulate: bool,
) {
    debug_assert!(a_panel.len() >= k * MR, "microkernel: A panel too short");
    debug_assert!(b_panel.len() >= k * NR, "microkernel: B panel too short");
    debug_assert!(ldc >= NR, "microkernel: ldc {ldc} < NR {NR}");
    debug_assert!(MR == 0 || c.len() >= (MR - 1) * ldc + NR, "microkernel: C too short");

    let mut acc = [[0.0f32; NR]; MR];
    for l in 0..k {
        let arow = &a_panel[l * MR..(l + 1) * MR];
        let brow = &b_panel[l * NR..(l + 1) * NR];
        for i in 0..MR {
            let ail = arow[i];
            let accr = &mut acc[i];
            for j in 0..NR {
                accr[j] += ail * brow[j];
            }
        }
    }
    for i in 0..MR {
        let crow = &mut c[i * ldc..i * ldc + NR];
        if accumulate {
            for j in 0..NR {
                crow[j] += acc[i][j];
            }
        } else {
            crow.copy_from_slice(&acc[i]);
        }
    }
}

/// Like [`microkernel`] but for an edge tile narrower than `NR` columns
/// and/or shorter than `MR` rows. Slower; only used on matrix fringes.
///
/// # Panics
/// If the packed panels or `c` are shorter than the `k`/`mr`/`nr`/`ldc`
/// layout requires.
#[inline]
#[allow(clippy::too_many_arguments)] // kernel-call ABI
                                     // audit: pure
pub fn microkernel_edge<const MR: usize, const NR: usize>(
    k: usize,
    mr: usize,
    nr: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    accumulate: bool,
) {
    debug_assert!(mr <= MR && nr <= NR, "microkernel_edge: tile exceeds template");
    let mut acc = [[0.0f32; NR]; MR];
    for l in 0..k {
        let arow = &a_panel[l * MR..l * MR + mr];
        let brow = &b_panel[l * NR..l * NR + nr];
        for i in 0..mr {
            let ail = arow[i];
            for j in 0..nr {
                acc[i][j] += ail * brow[j];
            }
        }
    }
    for i in 0..mr {
        let crow = &mut c[i * ldc..i * ldc + nr];
        if accumulate {
            for j in 0..nr {
                crow[j] += acc[i][j];
            }
        } else {
            crow.copy_from_slice(&acc[i][..nr]);
        }
    }
}

/// Pack an `mr × k` slab of row-major `A` (leading dimension `lda`) into
/// the k-major panel layout, zero-padding rows `mr..MR`.
///
/// # Panics
/// If `a` or `panel` is shorter than the `mr`/`k`/`lda` layout requires.
#[inline]
// audit: pure
pub fn pack_a_panel<const MR: usize>(
    a: &[f32],
    lda: usize,
    mr: usize,
    k: usize,
    panel: &mut [f32],
) {
    debug_assert!(mr <= MR);
    debug_assert!(panel.len() >= k * MR, "pack_a_panel: panel too short");
    for l in 0..k {
        let dst = &mut panel[l * MR..(l + 1) * MR];
        for i in 0..mr {
            dst[i] = a[i * lda + l];
        }
        dst[mr..MR].fill(0.0);
    }
}

/// Pack a `k × nr` slab of row-major `B` (leading dimension `ldb`) into the
/// panel layout, zero-padding columns `nr..NR`.
///
/// # Panics
/// If `b` or `panel` is shorter than the `k`/`nr`/`ldb` layout requires.
#[inline]
// audit: pure
pub fn pack_b_panel<const NR: usize>(
    b: &[f32],
    ldb: usize,
    k: usize,
    nr: usize,
    panel: &mut [f32],
) {
    debug_assert!(nr <= NR);
    debug_assert!(panel.len() >= k * NR, "pack_b_panel: panel too short");
    for l in 0..k {
        let src = &b[l * ldb..l * ldb + nr];
        let dst = &mut panel[l * NR..(l + 1) * NR];
        dst[..nr].copy_from_slice(src);
        dst[nr..NR].fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_ref::gemm_ref;

    fn dense_tile<const MR: usize, const NR: usize>(k: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..MR * k).map(|i| ((i * 7 + 3) % 11) as f32 - 5.0).collect();
        let b: Vec<f32> = (0..k * NR).map(|i| ((i * 5 + 1) % 13) as f32 - 6.0).collect();
        (a, b)
    }

    fn run_micro<const MR: usize, const NR: usize>(k: usize) {
        let (a, b) = dense_tile::<MR, NR>(k);
        let mut a_panel = vec![0.0; k * MR];
        let mut b_panel = vec![0.0; k * NR];
        pack_a_panel::<MR>(&a, k, MR, k, &mut a_panel);
        pack_b_panel::<NR>(&b, NR, k, NR, &mut b_panel);

        let mut c = vec![0.0; MR * NR];
        microkernel::<MR, NR>(k, &a_panel, &b_panel, &mut c, NR, false);

        let mut expect = vec![0.0; MR * NR];
        gemm_ref(MR, NR, k, &a, k, &b, NR, &mut expect, NR);
        for (g, e) in c.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-3, "{g} vs {e}");
        }
    }

    #[test]
    fn tile_8x16_matches_reference() {
        run_micro::<8, 16>(96);
    }

    #[test]
    fn tile_9x16_matches_reference() {
        // The paper's 16x9x96 shape (transposed naming: 9 C-rows of 16 lanes).
        run_micro::<9, 16>(96);
    }

    #[test]
    fn tile_with_tiny_k() {
        run_micro::<8, 16>(1);
        run_micro::<8, 16>(12); // FCMA's epoch length
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let k = 4;
        let (a, b) = dense_tile::<4, 16>(k);
        let mut a_panel = vec![0.0; k * 4];
        let mut b_panel = vec![0.0; k * 16];
        pack_a_panel::<4>(&a, k, 4, k, &mut a_panel);
        pack_b_panel::<16>(&b, 16, k, 16, &mut b_panel);

        let mut c = vec![1.0; 4 * 16];
        microkernel::<4, 16>(k, &a_panel, &b_panel, &mut c, 16, true);
        let mut once = vec![0.0; 4 * 16];
        microkernel::<4, 16>(k, &a_panel, &b_panel, &mut once, 16, false);
        for (acc, base) in c.iter().zip(&once) {
            assert!((acc - (base + 1.0)).abs() < 1e-4);
        }
    }

    #[test]
    fn edge_tile_matches_reference() {
        let k = 10;
        let mr = 5;
        let nr = 11;
        let a: Vec<f32> = (0..mr * k).map(|i| (i % 7) as f32 * 0.5 - 1.0).collect();
        let b: Vec<f32> = (0..k * nr).map(|i| (i % 9) as f32 * 0.25 - 1.0).collect();
        let mut a_panel = vec![0.0; k * 8];
        let mut b_panel = vec![0.0; k * 16];
        pack_a_panel::<8>(&a, k, mr, k, &mut a_panel);
        pack_b_panel::<16>(&b, nr, k, nr, &mut b_panel);

        let mut c = vec![0.0; mr * nr];
        microkernel_edge::<8, 16>(k, mr, nr, &a_panel, &b_panel, &mut c, nr, false);

        let mut expect = vec![0.0; mr * nr];
        gemm_ref(mr, nr, k, &a, k, &b, nr, &mut expect, nr);
        for (g, e) in c.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-3);
        }
    }

    #[test]
    fn packing_zero_pads_fringes() {
        let a = [1.0, 2.0, 3.0, 4.0]; // 2x2
        let mut panel = vec![9.0; 2 * 4];
        pack_a_panel::<4>(&a, 2, 2, 2, &mut panel);
        // k-major: step l=0 -> [A00, A10, 0, 0], l=1 -> [A01, A11, 0, 0]
        assert_eq!(panel, vec![1.0, 3.0, 0.0, 0.0, 2.0, 4.0, 0.0, 0.0]);
    }
}
