//! Stage 2 — within-subject normalization (Fisher transform + z-scoring,
//! paper Eqs. 4–5).
//!
//! Every correlation coefficient is Fisher-transformed, then z-scored
//! against the population of the same (voxel, brain-voxel) pair's values
//! across one subject's epochs (the "vertical black line" of Fig. 4 —
//! `E` values per column per subject).
//!
//! Three schedules produce **bit-comparable results** and are tested for
//! agreement:
//!
//! * [`normalize_baseline`] — the §3.2 baseline: a full Fisher pass over
//!   the buffer, then a stats pass, then an apply pass (three trips to
//!   memory);
//! * [`normalize_separated`] — the optimized-but-unmerged variant of
//!   Table 7: a fused Fisher+stats pass followed by the apply pass (two
//!   trips);
//! * [`corr_normalized_merged`] — optimization idea #2 (§4.3): stage 1
//!   lands one (voxel-block × subject × column-strip) block at a time in
//!   the interleaved output buffer, and the block is normalized there in
//!   place *while it is still cache-resident*.
//!
//! The optimized executor takes the merged schedule one stage further
//! ([`fused_kernels`]): the same band body lands each strip in a reused
//! per-band buffer instead of the task-wide one, and adds the z-scored
//! strip's panels to every voxel's Gram matrix (the stage-3 SYRK) before
//! the next strip starts. A task then holds `V·M²` floats and one strip
//! per band, never the `V·M·N` of the interleaved buffer.
//!
//! Statistics accumulate in `f32`: the population is one subject's `E`
//! (≈12) epochs, far below any f32 summation-accuracy concern, and it
//! keeps the stat loops on the vector units (idea #3).

use crate::context::TaskContext;
use crate::stage1::{assigned_blocks, epoch_pairs, run_voxel_bands, CorrData};
use crate::task::VoxelTask;
use fcma_linalg::tall_skinny::{corr_tile_block_rows, EpochPair, StripScratch, TallSkinnyOpts};
use fcma_linalg::{
    f32_from_usize, fisher_z_slice, syrk_accumulate, syrk_mirror, syrk_zero, CorrLayout, Mat,
    SyrkScratch, PANEL_K,
};
use fcma_svm::KernelMatrix;
use fcma_sync::pool::Pool;
use fcma_trace::span;
use std::ops::Range;

/// What one band's z-scored strip may occupy on the fused path: the
/// strip stays in a 2 MiB L2 while its panels are added to the Gram
/// matrices (DESIGN.md §8 has the widths measured around it).
const STRIP_BYTES: usize = 2 << 20;

/// Baseline schedule: Fisher pass, then stats pass, then apply pass.
///
/// # Panics
/// If `ctx`'s subject epoch ranges do not match `corr`'s layout.
pub fn normalize_baseline(corr: &mut CorrData, ctx: &TaskContext) {
    let n = corr.layout.n_brain;
    let v = corr.layout.n_assigned;
    let _span = span!("stage2.normalize", voxels = v, brain = n, schedule = "baseline");
    // Pass 1: Fisher-transform everything.
    for row in corr.buf.chunks_mut(n) {
        fisher_z_slice(row);
    }
    // Pass 2 + 3: per (voxel, subject): column stats, then apply.
    let mut sum = vec![0.0f32; n];
    let mut sumsq = vec![0.0f32; n];
    let mut mean = vec![0.0f32; n];
    let mut inv_std = vec![0.0f32; n];
    for vi in 0..v {
        for sr in ctx.subject_ranges.iter() {
            sum.fill(0.0);
            sumsq.fill(0.0);
            for e in sr.clone() {
                accumulate(corr.row(vi, e), &mut sum, &mut sumsq);
            }
            finish_stats(&sum, &sumsq, f32_from_usize(sr.len()), &mut mean, &mut inv_std);
            for e in sr.clone() {
                let row = corr.row_mut(vi, e);
                for (j, x) in row.iter_mut().enumerate() {
                    *x = (*x - mean[j]) * inv_std[j];
                }
            }
        }
    }
    fcma_linalg::debug_assert_finite!(&corr.buf, "stage2 normalization output");
}

/// Separated-optimized schedule: fused Fisher+stats pass, then apply.
///
/// # Panics
/// If `ctx`'s subject epoch ranges do not match `corr`'s layout.
pub fn normalize_separated(corr: &mut CorrData, ctx: &TaskContext) {
    let n = corr.layout.n_brain;
    let v = corr.layout.n_assigned;
    let _span = span!("stage2.normalize", voxels = v, brain = n, schedule = "separated");
    let mut sum = vec![0.0f32; n];
    let mut sumsq = vec![0.0f32; n];
    let mut mean = vec![0.0f32; n];
    let mut inv_std = vec![0.0f32; n];
    for vi in 0..v {
        for sr in ctx.subject_ranges.iter() {
            sum.fill(0.0);
            sumsq.fill(0.0);
            // Fused pass: Fisher each row while accumulating column sums.
            for e in sr.clone() {
                let row = corr.row_mut(vi, e);
                fisher_z_slice(row);
                accumulate(row, &mut sum, &mut sumsq);
            }
            finish_stats(&sum, &sumsq, f32_from_usize(sr.len()), &mut mean, &mut inv_std);
            for e in sr.clone() {
                let row = corr.row_mut(vi, e);
                for (j, x) in row.iter_mut().enumerate() {
                    *x = (*x - mean[j]) * inv_std[j];
                }
            }
        }
    }
    fcma_linalg::debug_assert_finite!(&corr.buf, "stage2 normalization output");
}

/// Merged schedule on the calling thread: [`corr_normalized_merged_parallel`]
/// with the one-thread pool.
///
/// # Panics
/// If `task` is out of range for `ctx`.
pub fn corr_normalized_merged(
    ctx: &TaskContext,
    task: VoxelTask,
    opts: TallSkinnyOpts,
) -> CorrData {
    corr_normalized_merged_parallel(ctx, task, opts, &Pool::default())
}

/// Merged schedule: stage 1 and stage 2 fused at tile granularity.
///
/// Equivalent to `corr_optimized` followed by `normalize_separated`, but
/// each (voxel-block × subject × column-strip) block is normalized in
/// place right after stage 1 lands it, before it leaves cache (Fig. 5).
/// Produces the finished normalized buffer.
///
/// The task's voxels are banded across `pool` workers: each worker owns
/// a disjoint band and runs the full strip loop for it, writing straight
/// into its own contiguous slice of the interleaved output.
/// Bit-identical at every thread count (DESIGN.md §15): every row of a
/// register tile is its own in-order sum, so bands may start on any
/// voxel, per-voxel statistics never cross bands, and there is no
/// cross-thread reduction at all.
///
/// # Panics
/// If `task` is out of range for `ctx`.
pub fn corr_normalized_merged_parallel(
    ctx: &TaskContext,
    task: VoxelTask,
    opts: TallSkinnyOpts,
    pool: &Pool,
) -> CorrData {
    let v = task.count;
    let n = ctx.n_voxels();
    let m = ctx.n_epochs();
    let layout = CorrLayout { n_assigned: v, n_epochs: m, n_brain: n };
    let mut buf = vec![0.0f32; layout.out_len()];
    let _span = span!("stage12.fused", voxels = v, brain = n, epochs = m);

    let assigned = assigned_blocks(ctx, task);
    let pairs = epoch_pairs(ctx, &assigned);
    let w_max = opts.tile_cols.max(16);
    run_voxel_bands(
        pool,
        &mut buf,
        v,
        m * n,
        1,
        || (),
        |(), _band, (v0, v1, chunk)| {
            merged_band(ctx, &pairs, v0..v1, w_max, Landing::Task, chunk, |_, _| ());
        },
    );
    fcma_linalg::debug_assert_finite!(&buf, "stage2 merged pipeline output");
    CorrData { buf, layout }
}

/// The optimized executor's stages 1, 2 and kernel precompute as one
/// pass: voxel `vi`'s `M × M` Gram matrix over its z-scored correlation
/// vectors, for every voxel of `task`, without ever holding the task's
/// `V × M × N` correlations.
///
/// Each band runs the merged body into a reused strip buffer and, once
/// a strip is finished, adds its panels to the band's Gram matrices
/// (`syrk_accumulate` at `lda = w`) while it is still in L2. Strips are
/// a multiple of [`PANEL_K`] wide, so the SYRK sees exactly the panels
/// of the task-wide buffer in the same order, and the strip width cannot
/// change a stage 1+2 bit: the result equals
/// `KernelMatrix::precompute_raw_with` over [`corr_normalized_merged`]'s
/// buffer bit for bit, at every thread count (bands start on any voxel,
/// DESIGN.md §15).
///
/// # Panics
/// If `task` is out of range for `ctx`.
pub fn fused_kernels(ctx: &TaskContext, task: VoxelTask, pool: &Pool) -> Vec<KernelMatrix> {
    fused_kernels_within(ctx, task, pool, STRIP_BYTES)
}

/// [`fused_kernels`] with strips sized for `strip_bytes` (tests shrink
/// it to force many strips on small brains).
fn fused_kernels_within(
    ctx: &TaskContext,
    task: VoxelTask,
    pool: &Pool,
    strip_bytes: usize,
) -> Vec<KernelMatrix> {
    let v = task.count;
    let n = ctx.n_voxels();
    let m = ctx.n_epochs();
    let mut grams = vec![0.0f32; v * m * m];
    let _span = span!("stage12.fused", voxels = v, brain = n, epochs = m);

    let assigned = assigned_blocks(ctx, task);
    let pairs = epoch_pairs(ctx, &assigned);
    run_voxel_bands(
        pool,
        &mut grams,
        v,
        m * m,
        1,
        || (),
        |(), _band, (v0, v1, grams)| {
            let w_max = strip_cols(v1 - v0, m, strip_bytes);
            let mut strip = vec![0.0f32; (v1 - v0) * m * w_max];
            let mut syrk = SyrkScratch::new(m, PANEL_K);
            for gram in grams.chunks_exact_mut(m * m) {
                syrk_zero(m, gram, m);
            }
            merged_band(ctx, &pairs, v0..v1, w_max, Landing::Strip, &mut strip, |strip, w| {
                for (x, gram) in strip.chunks_exact(m * w).zip(grams.chunks_exact_mut(m * m)) {
                    syrk_accumulate(m, w, x, w, gram, m, &mut syrk);
                }
            });
            for gram in grams.chunks_exact_mut(m * m) {
                syrk_mirror(m, gram, m);
            }
        },
    );
    fcma_linalg::debug_assert_finite!(&grams, "stage12 fused Gram matrices");
    grams
        .chunks_exact(m * m)
        .map(|g| KernelMatrix::from_mat(Mat::from_vec(m, m, g.to_vec())))
        .collect()
}

/// The fused path's strip width for a band of `band_voxels` voxels over
/// `m` epochs: the widest multiple of [`PANEL_K`] whose
/// (voxels × `M` × w) strip of `f32` fits in `strip_bytes`, and at least
/// one panel.
fn strip_cols(band_voxels: usize, m: usize, strip_bytes: usize) -> usize {
    let col_bytes = band_voxels * m * std::mem::size_of::<f32>();
    (strip_bytes / col_bytes.max(1) / PANEL_K).max(1) * PANEL_K
}

/// Where [`merged_band`] lands the band's z-scored values.
#[derive(Clone, Copy)]
enum Landing {
    /// The band's rows of the task-wide interleaved buffer: row
    /// `vi·M + e` at leading dimension `N`, from column `j0`.
    Task,
    /// The band's reused strip buffer: row `vi·M + e` at leading
    /// dimension `w`, from column 0, so voxel `vi`'s strip is one
    /// contiguous `M × w` matrix.
    Strip,
}

/// One worker's share of the merged pipeline: the voxels of `band`,
/// strip by strip (`w_max` columns each, the last one ragged), landed
/// in `out` as `landing` says. Stage 1 writes each subject's block
/// straight into its landed rows, and the Fisher transform, the column
/// statistics and the z-apply run on those rows in place while they are
/// in cache. Once a strip is finished — every subject landed and
/// normalized — `strip_done(out, w)` runs.
fn merged_band(
    ctx: &TaskContext,
    pairs: &[EpochPair<'_>],
    band: Range<usize>,
    w_max: usize,
    landing: Landing,
    out: &mut [f32],
    mut strip_done: impl FnMut(&[f32], usize),
) {
    let (m, n) = (ctx.n_epochs(), ctx.n_voxels());
    let mut strip_scratch = StripScratch::for_epochs(pairs);
    // Workhorse stat buffers reused across every strip.
    let mut sum = vec![0.0f32; w_max];
    let mut sumsq = vec![0.0f32; w_max];
    let mut mean = vec![0.0f32; w_max];
    let mut inv_std = vec![0.0f32; w_max];

    let mut j0 = 0;
    while j0 < n {
        let w = w_max.min(n - j0);
        let (ld, col) = match landing {
            Landing::Task => (n, j0),
            Landing::Strip => (w, 0),
        };
        for sr in ctx.subject_ranges.iter() {
            // Stage 1: the (band voxels × subject epochs × strip) block,
            // row `vi·M + e` of the landing.
            let block = &mut out[sr.start * ld + col..];
            corr_tile_block_rows(
                pairs,
                band.clone(),
                sr.clone(),
                j0..j0 + w,
                block,
                ld,
                m,
                &mut strip_scratch,
            );
            for vi in 0..band.len() {
                let rows = sr.clone().map(|e| (vi * m + e) * ld + col);
                sum[..w].fill(0.0);
                sumsq[..w].fill(0.0);
                for at in rows.clone() {
                    let row = &mut out[at..at + w];
                    fisher_z_slice(row);
                    accumulate(row, &mut sum[..w], &mut sumsq[..w]);
                }
                finish_stats(
                    &sum[..w],
                    &sumsq[..w],
                    f32_from_usize(sr.len()),
                    &mut mean[..w],
                    &mut inv_std[..w],
                );
                for at in rows {
                    for ((x, &mu), &inv) in out[at..at + w].iter_mut().zip(&mean).zip(&inv_std) {
                        *x = (*x - mu) * inv;
                    }
                }
            }
        }
        strip_done(out, w);
        j0 += w;
    }
}

/// Column-wise accumulation of sums and sums of squares (vectorizes: all
/// three slices are contiguous). The real-time feedback model freezes its
/// statistics with this and [`finish_stats`] too.
#[inline]
pub(crate) fn accumulate(row: &[f32], sum: &mut [f32], sumsq: &mut [f32]) {
    for (j, &z) in row.iter().enumerate() {
        sum[j] += z;
        sumsq[j] += z * z;
    }
}

/// Turn accumulated sums into (mean, 1/std) with the zero-variance
/// convention (constant populations z-score to 0).
#[inline]
pub(crate) fn finish_stats(
    sum: &[f32],
    sumsq: &[f32],
    cnt: f32,
    mean: &mut [f32],
    inv_std: &mut [f32],
) {
    for j in 0..sum.len() {
        let m = sum[j] / cnt;
        let var = (sumsq[j] / cnt - m * m).max(0.0);
        mean[j] = m;
        inv_std[j] = if var <= f32::MIN_POSITIVE { 0.0 } else { 1.0 / var.sqrt() };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::{corr_baseline, corr_optimized};
    use fcma_fmri::presets;

    fn ctx() -> TaskContext {
        let (d, _) = presets::tiny().generate();
        TaskContext::full(&d)
    }

    fn max_diff(a: &CorrData, b: &CorrData) -> f32 {
        a.buf.iter().zip(&b.buf).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max)
    }

    #[test]
    fn baseline_and_separated_agree() {
        let ctx = ctx();
        let task = VoxelTask { start: 4, count: 9 };
        let mut a = corr_baseline(&ctx, task, &Pool::default());
        let mut b = corr_baseline(&ctx, task, &Pool::default());
        normalize_baseline(&mut a, &ctx);
        normalize_separated(&mut b, &ctx);
        assert!(max_diff(&a, &b) < 1e-4);
    }

    #[test]
    fn merged_agrees_with_separated() {
        let ctx = ctx();
        let task = VoxelTask { start: 0, count: 11 };
        let mut sep = corr_optimized(&ctx, task, TallSkinnyOpts::default());
        normalize_separated(&mut sep, &ctx);
        let merged = corr_normalized_merged(&ctx, task, TallSkinnyOpts::default());
        assert!(max_diff(&sep, &merged) < 1e-4);
    }

    #[test]
    fn merged_agrees_with_small_tiles() {
        let ctx = ctx();
        let task = VoxelTask { start: 2, count: 5 };
        let mut sep = corr_optimized(&ctx, task, TallSkinnyOpts::default());
        normalize_separated(&mut sep, &ctx);
        let merged = corr_normalized_merged(&ctx, task, TallSkinnyOpts { tile_cols: 24 });
        assert!(max_diff(&sep, &merged) < 1e-4);
    }

    #[test]
    fn tile_cols_never_changes_a_bit() {
        // An element's k-deep dot product and a column's epoch-order
        // statistics never see the strip width. The fused executor path
        // (`fused_kernels`) cuts its strips at multiples of PANEL_K and
        // relies on exactly this.
        let (d, _) = fcma_fmri::SynthConfig { n_voxels: 700, ..presets::tiny() }.generate();
        let ctx = TaskContext::full(&d);
        let n = ctx.n_voxels();
        // 7 voxels: one full MR group and a 3-row fringe; 700 columns:
        // every width below leaves a ragged last strip or a ragged tile.
        let task = VoxelTask { start: 1, count: 7 };
        let whole = corr_normalized_merged(&ctx, task, TallSkinnyOpts { tile_cols: n });
        for tile_cols in [16usize, 96, 480, 512, 576] {
            let strips = corr_normalized_merged(&ctx, task, TallSkinnyOpts { tile_cols });
            for (i, (s, w)) in strips.buf.iter().zip(&whole.buf).enumerate() {
                assert_eq!(s.to_bits(), w.to_bits(), "tile_cols={tile_cols} idx={i}");
            }
        }
    }

    #[test]
    fn strip_width_is_derived_from_the_band() {
        // The benchmark's shapes: face-scene M = 216 at one band of two
        // voxels and at two bands of one, attention M = 540; a band too
        // tall for the budget still gets one panel.
        assert_eq!(strip_cols(2, 216, STRIP_BYTES), 1152);
        assert_eq!(strip_cols(1, 216, STRIP_BYTES), 2400);
        assert_eq!(strip_cols(2, 540, STRIP_BYTES), 480);
        assert_eq!(strip_cols(64, 216, STRIP_BYTES), PANEL_K);
        assert_eq!(strip_cols(3, 40, 0), PANEL_K);
    }

    #[test]
    fn fused_kernels_equal_precompute_over_the_merged_buffer() {
        // One-panel strips (a zero budget) cut a 700-column brain into
        // seven full strips and a ragged one; the real budget is one
        // strip. Either way every Gram entry is the unfused one's bits.
        let (d, _) = fcma_fmri::SynthConfig { n_voxels: 700, ..presets::tiny() }.generate();
        let ctx = TaskContext::full(&d);
        let (n, m) = (ctx.n_voxels(), ctx.n_epochs());
        let task = VoxelTask { start: 3, count: 6 };
        let merged = corr_normalized_merged(&ctx, task, TallSkinnyOpts::default());
        let mut scratch = SyrkScratch::new(m, PANEL_K);
        let want: Vec<KernelMatrix> = (0..task.count)
            .map(|vi| {
                KernelMatrix::precompute_raw_with(m, n, merged.voxel_matrix(vi), &mut scratch)
            })
            .collect();
        for (strip_bytes, threads) in [(0, 1), (0, 2), (0, 4), (STRIP_BYTES, 1), (STRIP_BYTES, 3)] {
            let got = fused_kernels_within(&ctx, task, &Pool::new(threads), strip_bytes);
            assert_eq!(got.len(), want.len());
            for (vi, (g, w)) in got.iter().zip(&want).enumerate() {
                for i in 0..m {
                    for (j, (x, y)) in g.row(i).iter().zip(w.row(i)).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "bytes={strip_bytes} threads={threads} voxel {vi} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_merged_bit_identical_at_every_thread_count() {
        let ctx = ctx();
        // 19 voxels: at 2, 3 and 8 threads the bands (10 + 9, 7 + 6 + 6,
        // 3 × 3 + 5 × 2) start off MR boundaries and end in fringes.
        let task = VoxelTask { start: 2, count: 19 };
        let opts = TallSkinnyOpts { tile_cols: 48 };
        let serial = corr_normalized_merged(&ctx, task, opts);
        for threads in [1usize, 2, 3, 8] {
            let par = corr_normalized_merged_parallel(&ctx, task, opts, &Pool::new(threads));
            for (i, (p, s)) in par.buf.iter().zip(&serial.buf).enumerate() {
                assert_eq!(p.to_bits(), s.to_bits(), "threads={threads} idx={i}");
            }
        }
    }

    #[test]
    fn normalized_columns_have_zero_mean_per_subject() {
        let ctx = ctx();
        let task = VoxelTask { start: 0, count: 3 };
        let mut c = corr_baseline(&ctx, task, &Pool::default());
        normalize_baseline(&mut c, &ctx);
        for vi in 0..3 {
            for sr in ctx.subject_ranges.iter() {
                for j in [0usize, 31, 77] {
                    let vals: Vec<f32> = sr.clone().map(|e| c.row(vi, e)[j]).collect();
                    let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
                    assert!(mean.abs() < 1e-4, "v{vi} j{j}: mean {mean}");
                    let var: f32 = vals.iter().map(|z| (z - mean) * (z - mean)).sum::<f32>()
                        / vals.len() as f32;
                    // Variance is 1 unless the column was constant.
                    assert!((var - 1.0).abs() < 1e-2 || var.abs() < 1e-6, "v{vi} j{j}: var {var}");
                }
            }
        }
    }

    #[test]
    fn self_correlation_column_zscores_to_zero() {
        // Voxel's correlation with itself is always ~1 (constant across
        // epochs) → Fisher clamps it, variance ≈ 0 → z-scored to 0.
        let ctx = ctx();
        let task = VoxelTask { start: 5, count: 2 };
        let mut c = corr_baseline(&ctx, task, &Pool::default());
        normalize_baseline(&mut c, &ctx);
        for vi in 0..2 {
            for e in 0..ctx.n_epochs() {
                let z = c.row(vi, e)[5 + vi];
                assert!(z.abs() < 1e-2, "self column not degenerate: {z}");
            }
        }
    }
}
