//! Generic cache-blocked GEMM — the stand-in for Intel MKL's `cblas_sgemm`.
//!
//! This is a faithful Goto-style implementation: pack a `KC × NC` slab of
//! `B`, pack `MC × KC` slabs of `A`, and sweep an `MR × NR` register
//! microkernel over them. It is *good generic BLAS*: cache-conscious,
//! vectorizable, and square-blocking — and therefore, exactly like MKL in
//! the paper's measurements, it leaves performance on the table for FCMA's
//! tall-skinny shapes (tiny `k`, enormous `n`), where the packing traffic
//! and square partitioning are mismatched to the data. The shape-
//! specialized competitor lives in [`crate::tall_skinny`].

use crate::gemm_ref::check_gemm_dims;
use crate::microkernel::{microkernel_clipped, pack_a_panel, pack_b_panel};

pub use crate::microkernel::{MR, NR};

/// Cache blocking parameters of the generic kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSizes {
    /// Rows of `A` per L2-resident slab.
    pub mc: usize,
    /// Depth (`k`) per slab.
    pub kc: usize,
    /// Columns of `B` per outer slab.
    pub nc: usize,
}

impl Default for BlockSizes {
    fn default() -> Self {
        // Sized for a 512 KB L2: KCxNC B-slab (256x512x4B = 512KB would
        // overflow; halve both) plus the A slab and C tile.
        BlockSizes { mc: 64, kc: 128, nc: 512 }
    }
}

/// `C = A · B` with default blocking and freshly allocated packing
/// buffers. See [`gemm_blocked_scratch`].
///
/// # Panics
/// Panics on inconsistent leading dimensions or undersized buffers.
#[expect(clippy::too_many_arguments, reason = "BLAS-style signature")]
pub fn gemm_blocked(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    gemm_blocked_scratch(
        m,
        n,
        k,
        a,
        lda,
        b,
        ldb,
        c,
        ldc,
        &mut GemmScratch::new(BlockSizes::default()),
    );
}

/// Reusable packing buffers for the blocked GEMM. Sized purely by the
/// block configuration, so one [`GemmScratch`] serves any sequence of
/// problem shapes — e.g. the stage-1 correlation loop multiplies one
/// epoch slab per iteration and must not pay an allocation each time.
pub struct GemmScratch {
    /// `NR`-wide packed panels of the current `B` slab.
    b_pack: Vec<f32>,
    /// `MR`-tall packed panels of the current `A` slab.
    a_pack: Vec<f32>,
    /// Block configuration the buffers were sized for.
    bs: BlockSizes,
}

impl GemmScratch {
    /// Size packing buffers for the given block configuration.
    ///
    /// # Panics
    /// Panics on degenerate block sizes (`mc < MR`, `nc < NR`, `kc == 0`).
    #[must_use]
    pub fn new(bs: BlockSizes) -> Self {
        assert!(bs.mc >= MR && bs.nc >= NR && bs.kc >= 1, "gemm_blocked: degenerate block sizes");
        GemmScratch {
            b_pack: vec![0.0f32; bs.kc * bs.nc.div_ceil(NR) * NR],
            a_pack: vec![0.0f32; bs.kc * bs.mc.div_ceil(MR) * MR],
            bs,
        }
    }
}

/// `C[0..m, 0..n] = A[0..m, 0..k] · B[0..k, 0..n]` (row-major, overwrite)
/// with caller-provided packing buffers, allocated once per call of the
/// driver that loops over it (DESIGN.md §14). Semantics are identical to
/// [`crate::gemm_ref::gemm_ref`]; only the traversal order and packing
/// differ. The block configuration is carried by the scratch; a dirty
/// scratch gives bit-identical results to a fresh one because every
/// packed region read by the microkernels is fully overwritten
/// (fringe-padded) before use.
///
/// Each row of `C` is summed in the same FMA sequence whichever row of
/// its `mc` block and its `MR` tile it lands in, so calling this on any
/// row sub-range (`&a[r0 * lda..]`, `&mut c[r0 * ldc..]`) gives the
/// full-range rows bit for bit — what lets the baseline executor's
/// sub-tasks start on any voxel (DESIGN.md §15).
///
/// # Panics
/// Panics on inconsistent leading dimensions or undersized buffers.
#[expect(clippy::too_many_arguments, reason = "BLAS-style signature plus its scratch")]
pub fn gemm_blocked_scratch(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    check_gemm_dims(m, n, k, a.len(), lda, b.len(), ldb, c.len(), ldc);
    let GemmScratch { b_pack, a_pack, bs } = scratch;
    let bs = *bs;
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        for i in 0..m {
            c[i * ldc..i * ldc + n].fill(0.0);
        }
        return;
    }

    for jc in (0..n).step_by(bs.nc) {
        let nc = bs.nc.min(n - jc);
        for pc in (0..k).step_by(bs.kc) {
            let kc = bs.kc.min(k - pc);
            let first_k_block = pc == 0;
            // Pack B[pc..pc+kc, jc..jc+nc] into NR-wide panels.
            for (t, jt) in (0..nc).step_by(NR).enumerate() {
                let nr = NR.min(nc - jt);
                let src = &b[pc * ldb + jc + jt..];
                pack_b_panel::<NR>(src, ldb, kc, nr, &mut b_pack[t * bs.kc * NR..]);
            }
            for ic in (0..m).step_by(bs.mc) {
                let mc = bs.mc.min(m - ic);
                // Pack A[ic..ic+mc, pc..pc+kc] into MR-tall panels.
                for (t, it) in (0..mc).step_by(MR).enumerate() {
                    let mr = MR.min(mc - it);
                    let src = &a[(ic + it) * lda + pc..];
                    pack_a_panel::<MR>(src, lda, mr, kc, &mut a_pack[t * bs.kc * MR..]);
                }
                // Macro-kernel: sweep the register tile.
                for (ta, it) in (0..mc).step_by(MR).enumerate() {
                    let mr = MR.min(mc - it);
                    let a_panel = &a_pack[ta * bs.kc * MR..ta * bs.kc * MR + kc * MR];
                    for (tb, jt) in (0..nc).step_by(NR).enumerate() {
                        let nr = NR.min(nc - jt);
                        let b_panel = &b_pack[tb * bs.kc * NR..tb * bs.kc * NR + kc * NR];
                        let c_off = (ic + it) * ldc + jc + jt;
                        microkernel_clipped(
                            kc,
                            mr,
                            nr,
                            a_panel,
                            b_panel,
                            NR,
                            &mut c[c_off..],
                            ldc,
                            !first_k_block,
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_ref::gemm_ref;
    use crate::Mat;

    fn pseudo(n: usize, seed: u32) -> Vec<f32> {
        // Deterministic pseudo-random data without pulling rand into the lib.
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1 << 24) as f32) - 0.5
            })
            .collect()
    }

    fn check_shape(m: usize, n: usize, k: usize, bs: BlockSizes) {
        let a = pseudo(m * k, 1);
        let b = pseudo(k * n, 2);
        let mut c = vec![f32::NAN; m * n];
        let mut expect = vec![0.0; m * n];
        gemm_blocked_scratch(m, n, k, &a, k, &b, n, &mut c, n, &mut GemmScratch::new(bs));
        gemm_ref(m, n, k, &a, k, &b, n, &mut expect, n);
        let tol = 1e-4 * k.max(1) as f32;
        for (i, (g, e)) in c.iter().zip(&expect).enumerate() {
            assert!((g - e).abs() < tol, "({m}x{n}x{k}) idx {i}: {g} vs {e}");
        }
    }

    #[test]
    fn matches_reference_on_exact_tiles() {
        check_shape(16, 32, 8, BlockSizes::default());
    }

    #[test]
    fn matches_reference_on_ragged_shapes() {
        check_shape(13, 37, 11, BlockSizes::default());
        check_shape(7, 5, 3, BlockSizes::default());
        check_shape(1, 100, 1, BlockSizes::default());
    }

    #[test]
    fn matches_reference_when_blocks_divide_nothing() {
        check_shape(30, 70, 50, BlockSizes { mc: 16, kc: 7, nc: 33 });
    }

    #[test]
    fn matches_reference_on_tall_skinny_fcma_shape() {
        // Stage-1 shape: tiny k, wide n (scaled down).
        check_shape(24, 600, 12, BlockSizes::default());
    }

    #[test]
    fn matches_reference_with_multiple_k_blocks() {
        // Forces the accumulate path across k slabs.
        check_shape(20, 40, 300, BlockSizes { mc: 16, kc: 64, nc: 32 });
    }

    #[test]
    fn zero_k_zeroes_output() {
        let mut c = vec![3.0; 6];
        gemm_blocked(2, 3, 0, &[], 0, &[], 3, &mut c, 3);
        assert_eq!(c, vec![0.0; 6]);
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One dirty scratch swept across unrelated shapes must reproduce
        // the fresh-allocation path bit for bit.
        let bs = BlockSizes { mc: 16, kc: 8, nc: 32 };
        let mut scratch = GemmScratch::new(bs);
        for (m, n, k, seed) in [(20usize, 50usize, 12usize, 1u32), (7, 5, 3, 2), (13, 70, 30, 3)] {
            let a = pseudo(m * k, seed);
            let b = pseudo(k * n, seed + 10);
            let mut fresh = vec![0.0; m * n];
            gemm_blocked_scratch(m, n, k, &a, k, &b, n, &mut fresh, n, &mut GemmScratch::new(bs));
            let mut reused = vec![f32::NAN; m * n];
            gemm_blocked_scratch(m, n, k, &a, k, &b, n, &mut reused, n, &mut scratch);
            for (r, f) in reused.iter().zip(&fresh) {
                assert_eq!(r.to_bits(), f.to_bits(), "({m}x{n}x{k})");
            }
        }
    }

    #[test]
    fn honors_output_leading_dimension() {
        // Write a 2x2 product into a 2x5 buffer with ldc=5; the paper's
        // interleaved-by-voxel output trick relies on this.
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let mut c = vec![-1.0; 10];
        gemm_blocked(2, 2, 2, a.as_slice(), 2, b.as_slice(), 2, &mut c, 5);
        assert_eq!(&c[0..2], &[19.0, 22.0]);
        assert_eq!(&c[5..7], &[43.0, 50.0]);
        assert_eq!(c[2], -1.0, "padding must stay untouched");
    }
}
