//! Shape-specialized tall-skinny correlation GEMM — optimization ideas #1
//! and #3 of the paper (§4.2).
//!
//! Stage 1 of FCMA multiplies, for every epoch, a small `V × k` matrix of
//! assigned-voxel activity against a huge `k × N` matrix of whole-brain
//! activity (`k` ≈ 12 time points, `N` ≈ 35,000 voxels), writing each
//! result row into an output interleaved *by voxel*: the correlation row
//! for (voxel `v`, epoch `e`) lands at row `v·M + e` of a `(V·M) × N`
//! buffer, so that all of one voxel's correlation vectors are contiguous
//! for the later SVM stage.
//!
//! A generic square-blocking GEMM (MKL, [`crate::gemm_blocked::gemm_blocked`]) handles
//! this shape poorly: with `k` this small there is nothing to block in the
//! depth dimension and the packing traffic dominates. The specialized
//! kernel here instead:
//!
//! 1. tiles the *wide* dimension `N` into column strips sized to keep the
//!    brain-data strip plus the output tile resident in one core's L2
//!    (idea #1 — "partitioning tall-skinny matrices for blocking");
//! 2. reads each epoch's strip of brain data *in place* — the `k` rows of
//!    a strip are already `NR`-lane contiguous, so the register tile takes
//!    them at the brain matrix's own leading dimension and nothing is
//!    packed or copied except the `k × MR` assigned-voxel slab and the
//!    one ragged column tile at the end of a matrix (DESIGN.md §8);
//! 3. bottoms out in the 16-lane register microkernel so every multiply is
//!    a full-width vector FMA (idea #3 — vectorization-friendly layout).

use crate::gemm_ref::gemm_ref;
use crate::microkernel::{microkernel_clipped, pack_a_panel, pack_b_panel};
use crate::Mat;
use std::ops::Range;

pub use crate::microkernel::{MR, NR};

/// One epoch's pair of normalized activity matrices.
///
/// `assigned` is `V × k` (the task's voxels over the epoch's time points,
/// already normalized per Eq. 2); `brain` is `k × N` (every brain voxel,
/// same normalization, transposed so time is the leading dimension).
/// The dot product of a row of `assigned` with a column of `brain` is the
/// Pearson correlation of that voxel pair over the epoch.
#[derive(Clone, Copy)]
pub struct EpochPair<'a> {
    /// `V × k` assigned-voxel matrix.
    pub assigned: &'a Mat,
    /// `k × N` whole-brain matrix.
    pub brain: &'a Mat,
}

impl<'a> EpochPair<'a> {
    /// Number of time points in this epoch.
    pub fn k(&self) -> usize {
        self.assigned.cols()
    }

    fn validate(&self, v: usize, n: usize) {
        assert_eq!(self.assigned.rows(), v, "EpochPair: assigned rows != V");
        assert_eq!(self.brain.cols(), n, "EpochPair: brain cols != N");
        assert_eq!(
            self.assigned.cols(),
            self.brain.rows(),
            "EpochPair: assigned cols (k={}) != brain rows (k={})",
            self.assigned.cols(),
            self.brain.rows()
        );
    }
}

/// Tuning knobs for the tall-skinny kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TallSkinnyOpts {
    /// Width of each brain-voxel column strip. The default (512 columns ×
    /// 12 time points × 4 B ≈ 24 KB strip + per-voxel-group output tiles)
    /// keeps the working set inside a 512 KB Phi L2.
    pub tile_cols: usize,
}

impl Default for TallSkinnyOpts {
    fn default() -> Self {
        TallSkinnyOpts { tile_cols: 512 }
    }
}

/// Shape summary for the interleaved stage-1 output buffer.
///
/// The buffer holds `V · M` rows of `N` floats; row `v·M + e` is voxel
/// `v`'s correlation vector for epoch `e`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrLayout {
    /// Assigned voxels (`V`).
    pub n_assigned: usize,
    /// Epochs (`M`).
    pub n_epochs: usize,
    /// Brain voxels (`N`).
    pub n_brain: usize,
}

impl CorrLayout {
    /// Required output buffer length.
    pub fn out_len(&self) -> usize {
        self.n_assigned * self.n_epochs * self.n_brain
    }

    /// Row index of (voxel `v`, epoch `e`) in the interleaved buffer.
    #[inline]
    pub fn row(&self, v: usize, e: usize) -> usize {
        v * self.n_epochs + e
    }
}

/// Optimized stage-1 kernel: compute every epoch's correlation rows for
/// every assigned voxel, writing the voxel-interleaved layout.
///
/// Returns the [`CorrLayout`] describing `out`.
///
/// # Panics
/// Panics if the epochs disagree on `V`/`N` or `out` is too short.
pub fn corr_tall_skinny(
    epochs: &[EpochPair<'_>],
    out: &mut [f32],
    opts: TallSkinnyOpts,
) -> CorrLayout {
    assert!(!epochs.is_empty(), "corr_tall_skinny: no epochs");
    let v = epochs[0].assigned.rows();
    let n = epochs[0].brain.cols();
    for ep in epochs {
        ep.validate(v, n);
    }
    let m = epochs.len();
    let layout = CorrLayout { n_assigned: v, n_epochs: m, n_brain: n };
    assert!(
        out.len() >= layout.out_len(),
        "corr_tall_skinny: out buffer {} < required {}",
        out.len(),
        layout.out_len()
    );
    let tile = opts.tile_cols.max(NR);
    let mut scratch = StripScratch::for_epochs(epochs);

    // Column-strip-major traversal: every epoch's strip of the output is
    // finished, across all voxel groups, before the next strip starts.
    for j0 in (0..n).step_by(tile) {
        let tw = tile.min(n - j0);
        for (e, ep) in epochs.iter().enumerate() {
            // Output rows for consecutive voxels are M rows apart:
            // leading dimension M·N expresses the interleaving.
            epoch_strip(ep, 0..v, j0, tw, &mut scratch, out, e * n + j0, m * n);
        }
    }
    layout
}

/// The packing scratch of the tall-skinny family, reused across every
/// strip of a walk: the `k × MR` slab of the current voxel group and the
/// zero-padded `k × NR` pack of a strip's ragged last column tile (the
/// only part of `B` that is ever copied). Built once per
/// [`corr_tall_skinny`] call or per pass of the merged pipeline.
pub struct StripScratch {
    a_pack: Vec<f32>,
    b_edge: Vec<f32>,
}

impl StripScratch {
    /// Scratch deep enough for the longest of `epochs`.
    #[must_use]
    pub fn for_epochs(epochs: &[EpochPair<'_>]) -> Self {
        let k_max = epochs.iter().map(EpochPair::k).max().unwrap_or(0);
        StripScratch { a_pack: vec![0.0; k_max * MR], b_edge: vec![0.0; k_max * NR] }
    }
}

/// Compute the correlations of a band of assigned voxels, a contiguous
/// range of epochs and a strip of brain-voxel columns.
///
/// This is the primitive behind the *merged* stage-1+2 pipeline
/// (optimization idea #2): the caller asks for exactly the `(voxel band) ×
/// (one subject's epochs) × (one column strip)` block that within-subject
/// normalization needs, lands it where the finished values go — the big
/// interleaved buffer, or the strip the fused executor path adds to its
/// Gram matrices — and normalizes it there while it is cache-hot.
///
/// Rows are addressed with *local* indices: the `W = col_range.len()`
/// values of (voxel `vi − v_start`, epoch `ei`) start at
/// `buf[((vi − v_start) · voxel_rows + ei) · ld]`. A dense block is
/// `voxel_rows = E` (`E = epoch_range.len()`), `ld = W`; the merged
/// pipeline passes its output's `M` and leading dimension, so each row
/// lands at its voxel-interleaved place.
///
/// The band may start anywhere, as an executor's sub-task of a larger
/// task does: voxels are grouped by [`MR`] from `voxel_range.start`, but
/// every row of a register tile is its own in-order sum whatever the
/// tile's height, so each element is bit-identical to the full-range
/// call's (DESIGN.md §15 determinism contract).
///
/// `scratch` is the caller's [`StripScratch::for_epochs`] of (a superset
/// of) these epochs, reused across calls; a dirty one gives the same
/// bits as a fresh one, since every region read is overwritten first.
///
/// # Panics
/// Panics on inconsistent shapes, out-of-bounds ranges, rows that
/// overlap (`ld < W` or `voxel_rows < E`), a short buffer, or a scratch
/// built for shorter epochs.
#[expect(clippy::too_many_arguments, reason = "kernel-call ABI")]
pub fn corr_tile_block_rows(
    epochs: &[EpochPair<'_>],
    voxel_range: Range<usize>,
    epoch_range: Range<usize>,
    col_range: Range<usize>,
    buf: &mut [f32],
    ld: usize,
    voxel_rows: usize,
    scratch: &mut StripScratch,
) {
    assert!(!epochs.is_empty(), "corr_tile_block_rows: no epochs");
    let v = epochs[0].assigned.rows();
    let n = epochs[0].brain.cols();
    assert!(epoch_range.end <= epochs.len(), "corr_tile_block_rows: epoch range out of bounds");
    assert!(col_range.end <= n, "corr_tile_block_rows: column range out of bounds");
    assert!(voxel_range.end <= v, "corr_tile_block_rows: voxel range out of bounds");
    let v_count = voxel_range.len();
    let e_count = epoch_range.len();
    let w = col_range.len();
    assert!(ld >= w && voxel_rows >= e_count, "corr_tile_block_rows: rows overlap");
    if v_count == 0 || e_count == 0 {
        return;
    }
    let last_row = (v_count - 1) * voxel_rows + e_count - 1;
    assert!(buf.len() >= last_row * ld + w, "corr_tile_block_rows: buffer too short");

    for (ei, eidx) in epoch_range.clone().enumerate() {
        let ep = &epochs[eidx];
        ep.validate(v, n);
        epoch_strip(
            ep,
            voxel_range.clone(),
            col_range.start,
            w,
            scratch,
            buf,
            ei * ld,
            voxel_rows * ld,
        );
    }
}

/// The one strip body of the tall-skinny family: one epoch's
/// correlations of the `voxel_range` rows of `assigned` against columns
/// `col0..col0 + w` of `brain`, written to `c[base + vi·ldc + j]` for
/// local voxel `vi` and local column `j`. [`corr_tall_skinny`] lands the
/// tile in the voxel-interleaved buffer (`base = e·N + col0`,
/// `ldc = M·N`), [`corr_tile_block_rows`] at the caller's rows
/// (`base = ei·ld`, `ldc = voxel_rows·ld`). Voxels are grouped by [`MR`]
/// from `voxel_range.start` and columns by [`NR`] from `col0`; every
/// full column tile reads `brain` in place.
#[expect(clippy::too_many_arguments, reason = "kernel-call ABI")]
fn epoch_strip(
    ep: &EpochPair<'_>,
    voxel_range: Range<usize>,
    col0: usize,
    w: usize,
    scratch: &mut StripScratch,
    c: &mut [f32],
    base: usize,
    ldc: usize,
) {
    let k = ep.k();
    if k == 0 {
        for vi in 0..voxel_range.len() {
            c[base + vi * ldc..base + vi * ldc + w].fill(0.0);
        }
        return;
    }
    let StripScratch { a_pack, b_edge } = scratch;
    assert!(a_pack.len() >= k * MR, "tall_skinny: scratch built for epochs shorter than {k}");
    let n = ep.brain.cols();
    let strip = &ep.brain.as_slice()[col0..];
    // The ragged last tile is the one place a row of the strip is not NR
    // readable lanes; zero-pad it once for all voxel groups.
    let w_full = w - w % NR;
    if w_full < w {
        pack_b_panel::<NR>(&strip[w_full..], n, k, w - w_full, b_edge);
    }
    for v0 in voxel_range.clone().step_by(MR) {
        let mr = MR.min(voxel_range.end - v0);
        pack_a_panel::<MR>(&ep.assigned.as_slice()[v0 * k..], k, mr, k, a_pack);
        let c_row = base + (v0 - voxel_range.start) * ldc;
        for jt in (0..w_full).step_by(NR) {
            microkernel_clipped(
                k,
                mr,
                NR,
                a_pack,
                &strip[jt..],
                n,
                &mut c[c_row + jt..],
                ldc,
                false,
            );
        }
        if w_full < w {
            let c_tile = &mut c[c_row + w_full..];
            microkernel_clipped(k, mr, w - w_full, a_pack, b_edge, NR, c_tile, ldc, false);
        }
    }
}

/// Baseline stage-1 reference: per-epoch `gemm_ref` with the interleaving
/// expressed via `ldc`, exactly how the paper's baseline drives
/// `cblas_sgemm`. Used as the correctness oracle for the optimized kernel.
///
/// # Panics
/// If `epochs` is empty or `out` is shorter than the layout requires.
pub fn corr_reference(epochs: &[EpochPair<'_>], out: &mut [f32]) -> CorrLayout {
    assert!(!epochs.is_empty(), "corr_reference: no epochs");
    let v = epochs[0].assigned.rows();
    let n = epochs[0].brain.cols();
    let m = epochs.len();
    let layout = CorrLayout { n_assigned: v, n_epochs: m, n_brain: n };
    assert!(out.len() >= layout.out_len(), "corr_reference: out buffer too short");
    for (e, ep) in epochs.iter().enumerate() {
        ep.validate(v, n);
        gemm_ref(
            v,
            n,
            ep.k(),
            ep.assigned.as_slice(),
            ep.k().max(1),
            ep.brain.as_slice(),
            n,
            &mut out[e * n..],
            m * n,
        );
    }
    layout
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_mat(rows: usize, cols: usize, seed: u32) -> Mat {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        Mat::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 8) as f32 / (1 << 24) as f32) - 0.5
        })
    }

    fn make_epochs(v: usize, n: usize, ks: &[usize]) -> (Vec<Mat>, Vec<Mat>) {
        let mut assigned = Vec::new();
        let mut brain = Vec::new();
        for (i, &k) in ks.iter().enumerate() {
            assigned.push(pseudo_mat(v, k, 100 + i as u32));
            brain.push(pseudo_mat(k, n, 200 + i as u32));
        }
        (assigned, brain)
    }

    fn pairs<'a>(assigned: &'a [Mat], brain: &'a [Mat]) -> Vec<EpochPair<'a>> {
        assigned.iter().zip(brain).map(|(a, b)| EpochPair { assigned: a, brain: b }).collect()
    }

    fn compare(v: usize, n: usize, ks: &[usize], opts: TallSkinnyOpts) {
        let (assigned, brain) = make_epochs(v, n, ks);
        let eps = pairs(&assigned, &brain);
        let m = ks.len();
        let mut got = vec![f32::NAN; v * m * n];
        let mut expect = vec![0.0; v * m * n];
        let l1 = corr_tall_skinny(&eps, &mut got, opts);
        let l2 = corr_reference(&eps, &mut expect);
        assert_eq!(l1, l2);
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert!((g - e).abs() < 1e-4, "idx {i}: {g} vs {e}");
        }
    }

    #[test]
    fn matches_reference_small() {
        compare(8, 64, &[12, 12], TallSkinnyOpts::default());
    }

    #[test]
    fn matches_reference_ragged_everything() {
        compare(11, 93, &[12, 7, 12, 5], TallSkinnyOpts { tile_cols: 48 });
    }

    #[test]
    fn matches_reference_fcma_shape_scaled() {
        // 24 voxels x 300 brain voxels x 6 epochs of 12 tp.
        compare(24, 300, &[12; 6], TallSkinnyOpts::default());
    }

    #[test]
    fn matches_reference_single_voxel_single_epoch() {
        compare(1, 20, &[12], TallSkinnyOpts { tile_cols: 16 });
    }

    #[test]
    fn interleaved_rows_are_grouped_by_voxel() {
        // Construct epochs where the correlation row value identifies the
        // epoch, then verify row (v, e) lands at v*M + e.
        let v = 2;
        let n = 4;
        let m = 3;
        let mut assigned = Vec::new();
        let mut brain = Vec::new();
        for e in 0..m {
            // A[v, 0] = v + 1; B[0, j] = (e + 1) * 10 -> C[v, j] = (v+1)(e+1)*10
            assigned.push(Mat::from_fn(v, 1, |r, _| (r + 1) as f32));
            brain.push(Mat::from_fn(1, n, |_, _| (e + 1) as f32 * 10.0));
        }
        let eps = pairs(&assigned, &brain);
        let mut out = vec![0.0; v * m * n];
        let layout = corr_tall_skinny(&eps, &mut out, TallSkinnyOpts::default());
        for vi in 0..v {
            for e in 0..m {
                let row = layout.row(vi, e);
                let want = (vi + 1) as f32 * (e + 1) as f32 * 10.0;
                assert!(out[row * n..(row + 1) * n].iter().all(|&x| x == want));
            }
        }
    }

    #[test]
    fn tile_block_matches_full_computation() {
        let v = 5;
        let n = 40;
        let ks = [12usize; 6];
        let (assigned, brain) = make_epochs(v, n, &ks);
        let eps = pairs(&assigned, &brain);
        let mut full = vec![0.0; v * ks.len() * n];
        let layout = corr_reference(&eps, &mut full);

        // Block: epochs 2..5, columns 7..29.
        let er = 2..5usize;
        let cr = 7..29usize;
        let w = cr.len();
        let ec = er.len();
        let mut buf = vec![f32::NAN; v * ec * w];
        corr_tile_block_rows(
            &eps,
            0..v,
            er.clone(),
            cr.clone(),
            &mut buf,
            w,
            ec,
            &mut StripScratch::for_epochs(&eps),
        );
        for vi in 0..v {
            for (ei, e) in er.clone().enumerate() {
                for (ji, j) in cr.clone().enumerate() {
                    let got = buf[(vi * ec + ei) * w + ji];
                    let want = full[layout.row(vi, e) * n + j];
                    assert!((got - want).abs() < 1e-4, "v{vi} e{e} j{j}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn tile_block_rows_bit_identical_to_full_range() {
        // Band-partitioned computation (the merged pipeline's unit of
        // work) at voxel granularity: every range, MR-aligned or not,
        // gives the matching rows of the full-range call bit for bit,
        // though its register tiles group other voxels (and other
        // fringes) than the full call's. One scratch, dirty from the
        // call before, serves every range. The rows sit in a wider,
        // taller buffer, as in the merged pipeline's strips: row
        // `vi·(E + 1) + ei` at leading dimension `W + 3`, and nothing
        // between them is written.
        let v = 2 * MR + 3;
        let ks = [12usize, 5];
        let (assigned, brain) = make_epochs(v, 37, &ks);
        let eps = pairs(&assigned, &brain);
        let (er, cr) = (0..ks.len(), 2..35usize);
        let (ld, voxel_rows) = (cr.len() + 3, ks.len() + 1);
        let per_voxel = voxel_rows * ld;
        let mut scratch = StripScratch::for_epochs(&eps);
        let mut full = vec![f32::NAN; v * per_voxel];
        let call = |range: Range<usize>, buf: &mut [f32], scratch: &mut StripScratch| {
            corr_tile_block_rows(&eps, range, er.clone(), cr.clone(), buf, ld, voxel_rows, scratch);
        };
        call(0..v, &mut full, &mut scratch);
        for (i, x) in full.iter().enumerate() {
            let (row, col) = (i / ld, i % ld);
            let written = row % voxel_rows < ks.len() && col < cr.len();
            assert_eq!(x.is_nan(), !written, "idx {i}");
        }
        for v0 in 0..v {
            for v1 in v0 + 1..=v {
                let mut part = vec![f32::NAN; (v1 - v0) * per_voxel];
                call(v0..v1, &mut part, &mut scratch);
                let want = &full[v0 * per_voxel..v1 * per_voxel];
                for (i, (p, f)) in part.iter().zip(want).enumerate() {
                    assert_eq!(p.to_bits(), f.to_bits(), "{v0}..{v1} idx {i}");
                }
            }
        }
    }

    #[test]
    fn normalized_inputs_give_unit_self_correlation() {
        // When A rows are also columns of B and all are Eq.2-normalized,
        // the correlation of a voxel with itself must be ~1.
        use crate::norms::normalize_epoch;
        let v = 3;
        let n = 3;
        let k = 12;
        let raw = pseudo_mat(n, k, 7);
        let mut norm = raw.clone();
        for r in 0..n {
            normalize_epoch(norm.row_mut(r));
        }
        let brain = norm.transposed(); // k x n
        let eps = [EpochPair { assigned: &norm, brain: &brain }];
        let mut out = vec![0.0; v * n];
        let layout = corr_tall_skinny(&eps, &mut out, TallSkinnyOpts::default());
        for vi in 0..v {
            let self_corr = out[layout.row(vi, 0) * n + vi];
            assert!((self_corr - 1.0).abs() < 1e-4, "self corr {self_corr}");
        }
    }

    #[test]
    #[should_panic(expected = "out buffer")]
    fn rejects_short_output() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(3, 5);
        let eps = [EpochPair { assigned: &a, brain: &b }];
        let mut out = vec![0.0; 5];
        let _ = corr_tall_skinny(&eps, &mut out, TallSkinnyOpts::default());
    }
}
