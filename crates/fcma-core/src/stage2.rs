//! Stage 2 — within-subject normalization (Fisher transform + z-scoring,
//! paper Eqs. 4–5).
//!
//! Every correlation coefficient is Fisher-transformed, then z-scored
//! against the population of the same (voxel, brain-voxel) pair's values
//! across one subject's epochs (the "vertical black line" of Fig. 4 —
//! `E` values per column per subject).
//!
//! Three schedules produce **bit-comparable results**, z-scoring through
//! one body (`ZScore`) a (voxel, subject) block at a time:
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
//! ([`fused_kernels`]): the same body lands each strip in a reused strip
//! buffer instead of the task-wide one, and adds the z-scored strip's
//! panels to every voxel's Gram matrix (the stage-3 SYRK) before the
//! next strip starts. A task then holds `V·M²` floats and one strip,
//! never the `V·M·N` of the interleaved buffer.
//!
//! The final classifiers' samples (`selected_samples`) take the same
//! tile kernel and statistics epoch by epoch over the selected voxels
//! alone, so they stream the brain once, not once per selected voxel.
//!
//! Statistics accumulate in `f32`: the population is one subject's `E`
//! (≈12) epochs, far below any f32 summation-accuracy concern, and it
//! keeps the stat loops on the vector units (idea #3).

use crate::context::TaskContext;
use crate::stage1::{assigned_blocks, epoch_pairs, CorrData};
use crate::task::VoxelTask;
use fcma_linalg::tall_skinny::{corr_tile_block_rows, EpochPair, StripScratch, TallSkinnyOpts};
use fcma_linalg::{
    f32_from_usize, fisher_z_slice, syrk_accumulate, syrk_mirror, CorrLayout, Mat, SyrkScratch,
    PANEL_K,
};
use fcma_svm::KernelMatrix;
use fcma_trace::span;

/// What a task's z-scored strip may occupy on the fused path: the
/// strip stays in a 2 MiB L2 while its panels are added to the Gram
/// matrices (DESIGN.md §8 has the widths measured around it).
const STRIP_BYTES: usize = 2 << 20;

/// Baseline schedule: Fisher pass, then stats pass, then apply pass.
///
/// # Panics
/// If `ctx`'s subject epoch ranges do not match `corr`'s layout.
pub fn normalize_baseline(corr: &mut CorrData, ctx: &TaskContext) {
    normalize(corr, ctx, false);
}

/// Separated-optimized schedule: fused Fisher+stats pass, then apply.
///
/// # Panics
/// If `ctx`'s subject epoch ranges do not match `corr`'s layout.
pub fn normalize_separated(corr: &mut CorrData, ctx: &TaskContext) {
    normalize(corr, ctx, true);
}

/// The unmerged schedules: every (voxel, subject) block of `corr`
/// z-scored in place, each row Fisher-transformed as its block sums it
/// if `separated`, or all rows in a first trip of their own if not.
fn normalize(corr: &mut CorrData, ctx: &TaskContext, separated: bool) {
    let layout = corr.layout;
    let n = layout.n_brain;
    let schedule = if separated { "separated" } else { "baseline" };
    let _span =
        span!("stage2.normalize", voxels = layout.n_assigned, brain = n, schedule = schedule);
    if !separated {
        for row in corr.buf.chunks_mut(n) {
            fisher_z_slice(row);
        }
    }
    let mut z = ZScore::new(n);
    for vi in 0..layout.n_assigned {
        for sr in ctx.subject_ranges.iter() {
            z.block(&mut corr.buf, sr.clone().map(|e| layout.row(vi, e) * n), n, separated);
        }
    }
    fcma_linalg::debug_assert_finite!(&corr.buf, "stage2 normalization output");
}

/// Merged schedule: stage 1 and stage 2 fused at tile granularity.
///
/// Equivalent to `corr_optimized` followed by `normalize_separated`, but
/// each (voxel-block × subject × column-strip) block is normalized in
/// place right after stage 1 lands it, before it leaves cache (Fig. 5).
/// Produces the finished normalized buffer.
///
/// # Panics
/// If `task` is out of range for `ctx`.
pub fn corr_normalized_merged(
    ctx: &TaskContext,
    task: VoxelTask,
    opts: TallSkinnyOpts,
) -> CorrData {
    let (v, n, m) = (task.count, ctx.n_voxels(), ctx.n_epochs());
    let layout = CorrLayout { n_assigned: v, n_epochs: m, n_brain: n };
    let mut buf = vec![0.0f32; layout.out_len()];
    let _span = span!("stage12.fused", voxels = v, brain = n, epochs = m);

    let assigned = assigned_blocks(ctx, task);
    let pairs = epoch_pairs(ctx, &assigned);
    let w_max = opts.tile_cols.max(16);
    merged_pass(ctx, &pairs, v, w_max, Landing::Task, &mut buf, |_, _| ());
    fcma_linalg::debug_assert_finite!(&buf, "stage2 merged pipeline output");
    CorrData { buf, layout }
}

/// The optimized executor's stages 1, 2 and kernel precompute as one
/// pass: voxel `vi`'s `M × M` Gram matrix over its z-scored correlation
/// vectors, for every voxel of `task`, without ever holding the task's
/// `V × M × N` correlations.
///
/// The merged body runs into a reused strip buffer and, once a strip is
/// finished, adds its panels to each voxel's Gram matrix
/// (`syrk_accumulate` at `lda = w`) while it is still in L2. Strips are
/// a multiple of [`PANEL_K`] wide, so the SYRK sees exactly the panels
/// of the task-wide buffer in the same order, and the strip width cannot
/// change a stage 1+2 bit: the result equals
/// `KernelMatrix::precompute_raw_with` over [`corr_normalized_merged`]'s
/// buffer bit for bit, whichever voxel the task starts on (DESIGN.md
/// §15), so the sub-tasks an executor splits a task into give the
/// whole task's kernels.
///
/// # Panics
/// If `task` is out of range for `ctx`.
pub fn fused_kernels(ctx: &TaskContext, task: VoxelTask) -> Vec<KernelMatrix> {
    fused_kernels_within(ctx, task, STRIP_BYTES)
}

/// [`fused_kernels`] with strips sized for `strip_bytes` (tests shrink
/// it to force many strips on small brains).
fn fused_kernels_within(
    ctx: &TaskContext,
    task: VoxelTask,
    strip_bytes: usize,
) -> Vec<KernelMatrix> {
    let (v, n, m) = (task.count, ctx.n_voxels(), ctx.n_epochs());
    let _span = span!("stage12.fused", voxels = v, brain = n, epochs = m);

    let assigned = assigned_blocks(ctx, task);
    let pairs = epoch_pairs(ctx, &assigned);
    let w_max = strip_cols(v, m, strip_bytes);
    let mut strip = vec![0.0f32; v * m * w_max];
    let mut syrk = SyrkScratch::new(m, PANEL_K);
    let mut grams: Vec<Mat> = (0..v).map(|_| Mat::zeros(m, m)).collect();
    merged_pass(ctx, &pairs, v, w_max, Landing::Strip, &mut strip, |strip, w| {
        for (x, gram) in strip.chunks_exact(m * w).zip(&mut grams) {
            syrk_accumulate(m, w, x, w, gram.as_mut_slice(), m, &mut syrk);
        }
    });
    grams
        .into_iter()
        .map(|mut gram| {
            syrk_mirror(m, gram.as_mut_slice(), m);
            fcma_linalg::debug_assert_finite!(gram.as_slice(), "stage12 fused Gram matrix");
            KernelMatrix::from_mat(gram)
        })
        .collect()
}

/// The fused path's strip width for a task of `voxels` voxels over `m`
/// epochs: the widest multiple of [`PANEL_K`] whose (voxels × `M` × w)
/// strip of `f32` fits in `strip_bytes`, and at least one panel.
fn strip_cols(voxels: usize, m: usize, strip_bytes: usize) -> usize {
    let col_bytes = voxels * m * std::mem::size_of::<f32>();
    (strip_bytes / col_bytes.max(1) / PANEL_K).max(1) * PANEL_K
}

/// Where [`merged_pass`] lands the task's z-scored values.
#[derive(Clone, Copy)]
enum Landing {
    /// The task-wide interleaved buffer: row `vi·M + e` at leading
    /// dimension `N`, from column `j0`.
    Task,
    /// The task's reused strip buffer: row `vi·M + e` at leading
    /// dimension `w`, from column 0, so voxel `vi`'s strip is one
    /// contiguous `M × w` matrix.
    Strip,
}

/// The merged pipeline over every voxel of `pairs`' assigned matrices,
/// strip by strip (`w_max` columns each, the last one ragged), landed
/// in `out` as `landing` says. Stage 1 writes each subject's block
/// straight into its landed rows, and the Fisher transform, the column
/// statistics and the z-apply run on those rows in place while they are
/// in cache. Once a strip is finished — every subject landed and
/// normalized — `strip_done(out, w)` runs.
fn merged_pass(
    ctx: &TaskContext,
    pairs: &[EpochPair<'_>],
    voxels: usize,
    w_max: usize,
    landing: Landing,
    out: &mut [f32],
    mut strip_done: impl FnMut(&[f32], usize),
) {
    let (m, n) = (ctx.n_epochs(), ctx.n_voxels());
    let mut strip_scratch = StripScratch::for_epochs(pairs);
    let mut z = ZScore::new(w_max);

    let mut j0 = 0;
    while j0 < n {
        let w = w_max.min(n - j0);
        let (ld, col) = match landing {
            Landing::Task => (n, j0),
            Landing::Strip => (w, 0),
        };
        for sr in ctx.subject_ranges.iter() {
            // Stage 1: the (voxels × subject epochs × strip) block, row
            // `vi·M + e` of the landing.
            let block = &mut out[sr.start * ld + col..];
            corr_tile_block_rows(
                pairs,
                0..voxels,
                sr.clone(),
                j0..j0 + w,
                block,
                ld,
                m,
                &mut strip_scratch,
            );
            for vi in 0..voxels {
                z.block(out, sr.clone().map(|e| (vi * m + e) * ld + col), w, true);
            }
        }
        strip_done(out, w);
        j0 += w;
    }
}

/// The final classifiers' samples (§5.2.1 and §5.2.2): one row per epoch
/// of `ctx`, holding the selected voxels' z-scored correlation vectors in
/// selection order (`selected.len() × N` columns), built epoch by epoch
/// through [`fisher_rows`]. Each subject's rows are z-scored with that
/// subject's column statistics, stage 2's arithmetic, and
/// `subject_stats(mean, inv_std)` receives them in subject order. Neither
/// the tile shape nor the strip width changes a z-value (DESIGN.md §15),
/// so every value is the one [`corr_normalized_merged`] gives.
// Cannot panic: every row and statistics buffer is sized selected × N of the context's own brain matrices
pub(crate) fn selected_samples(
    ctx: &TaskContext,
    selected: &[usize],
    mut subject_stats: impl FnMut(&[f32], &[f32]),
) -> Mat {
    let mut samples = Mat::zeros(ctx.n_epochs(), selected.len() * ctx.n_voxels());
    let width = samples.cols();
    let mut z = ZScore::new(width);
    for sr in ctx.subject_ranges.iter() {
        for e in sr.clone() {
            fisher_rows(ctx.norm.brain(e), selected, samples.row_mut(e));
        }
        let (mean, inv_std) =
            z.block(samples.as_mut_slice(), sr.clone().map(|e| e * width), width, false);
        subject_stats(mean, inv_std);
    }
    samples
}

/// Stage 1 and the Fisher half of stage 2 for one epoch's normalised
/// `k × N` brain matrix: each selected voxel's correlation row against
/// the whole brain, Fisher-transformed, into `out` (row `si` at `si·N`).
/// The tile kernel and Fisher pass are the merged pass's.
pub(crate) fn fisher_rows(brain: &Mat, selected: &[usize], out: &mut [f32]) {
    let (k, n) = (brain.rows(), brain.cols());
    let assigned = Mat::from_fn(selected.len(), k, |si, t| brain.get(t, selected[si]));
    let pairs = [EpochPair { assigned: &assigned, brain }];
    let mut scratch = StripScratch::for_epochs(&pairs);
    corr_tile_block_rows(&pairs, 0..selected.len(), 0..1, 0..n, out, n, 1, &mut scratch);
    fisher_z_slice(out);
}

/// Stage 2's z-apply with given column statistics.
pub(crate) fn zscore_with(z: &mut [f32], mean: &[f32], inv_std: &[f32]) {
    for ((x, &mean), &inv_std) in z.iter_mut().zip(mean).zip(inv_std) {
        *x = (*x - mean) * inv_std;
    }
}

/// Stage 2 on one (voxel, subject) block (Eqs. 4–5): one subject's
/// epochs of the same correlation columns, each column z-scored against
/// that population. Owns the statistics rows (Σz, Σz², mean, 1/std),
/// reused from block to block.
struct ZScore {
    sum: Vec<f32>,
    sumsq: Vec<f32>,
    mean: Vec<f32>,
    inv_std: Vec<f32>,
}

impl ZScore {
    /// Statistics rows for blocks up to `width` columns wide.
    fn new(width: usize) -> Self {
        let row = || vec![0.0f32; width];
        ZScore { sum: row(), sumsq: row(), mean: row(), inv_std: row() }
    }

    /// Z-score in place the block of `w`-wide rows of `buf` that start at
    /// `rows`: add each row to the column sums in `rows` order,
    /// Fisher-transforming it first if `fisher`; finish each column's
    /// `(mean, 1/std)`, a constant column z-scoring to 0; apply them to
    /// every row. Returns the block's statistics.
    fn block(
        &mut self,
        buf: &mut [f32],
        rows: impl ExactSizeIterator<Item = usize> + Clone,
        w: usize,
        fisher: bool,
    ) -> (&[f32], &[f32]) {
        let cnt = f32_from_usize(rows.len());
        let (sum, sumsq) = (&mut self.sum[..w], &mut self.sumsq[..w]);
        sum.fill(0.0);
        sumsq.fill(0.0);
        for at in rows.clone() {
            let row = &mut buf[at..at + w];
            if fisher {
                fisher_z_slice(row);
            }
            for ((s, q), &z) in sum.iter_mut().zip(sumsq.iter_mut()).zip(&*row) {
                *s += z;
                *q += z * z;
            }
        }
        let (mean, inv_std) = (&mut self.mean[..w], &mut self.inv_std[..w]);
        for j in 0..w {
            let m = sum[j] / cnt;
            let var = (sumsq[j] / cnt - m * m).max(0.0);
            mean[j] = m;
            inv_std[j] = if var <= f32::MIN_POSITIVE { 0.0 } else { 1.0 / var.sqrt() };
        }
        for at in rows {
            zscore_with(&mut buf[at..at + w], mean, inv_std);
        }
        (mean, inv_std)
    }
}

/// [`selected_samples`] by the offline analysis's former route: one
/// one-voxel [`corr_normalized_merged`] pass per selected voxel, each
/// streaming the whole brain. Tests hold the builder to it.
#[cfg(test)]
pub(crate) fn selected_samples_per_voxel(ctx: &TaskContext, selected: &[usize]) -> Mat {
    let (m, n) = (ctx.n_epochs(), ctx.n_voxels());
    let mut samples = Mat::zeros(m, selected.len() * n);
    for (si, &v) in selected.iter().enumerate() {
        let corr = corr_normalized_merged(
            ctx,
            VoxelTask { start: v, count: 1 },
            TallSkinnyOpts::default(),
        );
        for e in 0..m {
            samples.row_mut(e)[si * n..(si + 1) * n].copy_from_slice(corr.row(0, e));
        }
    }
    samples
}

#[cfg(test)]
mod golden;

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
        let mut a = corr_baseline(&ctx, task);
        let mut b = corr_baseline(&ctx, task);
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
    fn strip_width_is_derived_from_the_task() {
        // The benchmark's shapes: face-scene M = 216 at a task of two
        // voxels and at its one-voxel sub-tasks, attention M = 540; a
        // task too tall for the budget still gets one panel.
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
        for strip_bytes in [0, STRIP_BYTES] {
            let got = fused_kernels_within(&ctx, task, strip_bytes);
            assert_eq!(got.len(), want.len());
            for (vi, (g, w)) in got.iter().zip(&want).enumerate() {
                for i in 0..m {
                    for (j, (x, y)) in g.row(i).iter().zip(w.row(i)).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "bytes={strip_bytes} voxel {vi} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn normalized_columns_have_zero_mean_per_subject() {
        let ctx = ctx();
        let task = VoxelTask { start: 0, count: 3 };
        let mut c = corr_baseline(&ctx, task);
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

    /// The builder against one merged pass per selected voxel, bit for
    /// bit; and each subject's statistics against that reference: they
    /// z-score each of the subject's epochs' Fisher rows to its row.
    fn assert_samples_are_the_per_voxel_bits(ctx: &TaskContext, selected: &[usize]) {
        let mut stats = Vec::new();
        let got = selected_samples(ctx, selected, |mean, inv_std| {
            stats.push((mean.to_vec(), inv_std.to_vec()));
        });
        let want = selected_samples_per_voxel(ctx, selected);
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        for e in 0..ctx.n_epochs() {
            for (j, (a, b)) in got.row(e).iter().zip(want.row(e)).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "epoch {e} column {j}: {a} vs {b}");
            }
        }
        assert_eq!(stats.len(), ctx.n_subjects());
        let mut z = vec![0.0f32; want.cols()];
        for (sr, (mean, inv_std)) in ctx.subject_ranges.iter().zip(&stats) {
            for e in sr.clone() {
                fisher_rows(ctx.norm.brain(e), selected, &mut z);
                zscore_with(&mut z, mean, inv_std);
                let same = z.iter().zip(want.row(e)).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "epoch {e}: the handed statistics miss the reference row");
            }
        }
    }

    #[test]
    fn selected_samples_are_the_per_voxel_passes_bits() {
        // Four subjects over a brain width that is a multiple of neither
        // the register tile's NR nor the SYRK panel, selected voxels out
        // of order.
        let mut cfg = presets::tiny();
        cfg.n_voxels = 101;
        let nr = fcma_linalg::microkernel::NR;
        assert!(!cfg.n_voxels.is_multiple_of(nr) && !cfg.n_voxels.is_multiple_of(PANEL_K));
        let (d, _) = cfg.generate();
        assert_samples_are_the_per_voxel_bits(&TaskContext::full(&d), &[77, 3, 100, 41, 0, 58]);
        // One subject, as an online session has: its epochs back to back.
        (cfg.n_subjects, cfg.epochs_per_subject, cfg.gap) = (1, 20, 0);
        let (d, _) = cfg.generate();
        assert_samples_are_the_per_voxel_bits(&TaskContext::full(&d), &[12, 90, 5]);
    }

    #[test]
    fn self_correlation_column_zscores_to_zero() {
        // Voxel's correlation with itself is always ~1 (constant across
        // epochs) → Fisher clamps it, variance ≈ 0 → z-scored to 0.
        let ctx = ctx();
        let task = VoxelTask { start: 5, count: 2 };
        let mut c = corr_baseline(&ctx, task);
        normalize_baseline(&mut c, &ctx);
        for vi in 0..2 {
            for e in 0..ctx.n_epochs() {
                let z = c.row(vi, e)[5 + vi];
                assert!(z.abs() < 1e-2, "self column not degenerate: {z}");
            }
        }
    }
}
