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
//!   computes one (voxel-block × subject × column-strip) tile at a time,
//!   normalizes it *while it is still cache-resident*, and the z-apply is
//!   fused with the single write to the interleaved output buffer.
//!
//! Statistics accumulate in `f32`: the population is one subject's `E`
//! (≈12) epochs, far below any f32 summation-accuracy concern, and it
//! keeps the stat loops on the vector units (idea #3).

use crate::context::TaskContext;
use crate::stage1::{run_voxel_bands, CorrData};
use crate::task::VoxelTask;
use fcma_linalg::tall_skinny::{corr_tile_block_rows, EpochPair, StripScratch, TallSkinnyOpts, MR};
use fcma_linalg::{f32_from_usize, fisher_z_slice, CorrLayout};
use fcma_sync::pool::Pool;
use fcma_trace::span;

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
/// each tile is normalized immediately after being computed, before it
/// leaves cache (Fig. 5), and the z-apply doubles as the single write to
/// the interleaved output. Produces the finished normalized buffer.
///
/// The task's voxels are banded across `pool` workers: each worker owns
/// a disjoint MR-aligned band and runs the full tile loop for it,
/// writing straight into its own contiguous slice of the interleaved
/// output. Bit-identical at every thread count (DESIGN.md §15): band
/// boundaries respect the register-tile grouping, per-voxel statistics
/// never cross bands, and there is no cross-thread reduction at all.
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

    let assigned = crate::stage1::assigned_blocks(ctx, task);
    let pairs: Vec<EpochPair<'_>> = assigned
        .iter()
        .enumerate()
        .map(|(e, a)| EpochPair { assigned: a, brain: ctx.norm.brain(e) })
        .collect();

    let w_max = opts.tile_cols.max(16);
    let max_se = max_subject_epochs(ctx);
    run_voxel_bands(
        pool,
        &mut buf,
        v,
        m * n,
        MR,
        || (),
        |(), _band, (v0, v1, chunk)| merged_band(ctx, &pairs, v0, v1, chunk, w_max, max_se, m, n),
    );
    fcma_linalg::debug_assert_finite!(&buf, "stage2 merged pipeline output");
    CorrData { buf, layout }
}

/// One worker's share of the merged pipeline: voxels `[v0, v1)`, writing
/// the band's rows into `chunk` (local layout, row `(vi − v0)·M + e`).
#[allow(clippy::too_many_arguments)] // band-worker ABI: everything is loop-invariant context
fn merged_band(
    ctx: &TaskContext,
    pairs: &[EpochPair<'_>],
    v0: usize,
    v1: usize,
    chunk: &mut [f32],
    w_max: usize,
    max_se: usize,
    m: usize,
    n: usize,
) {
    let bv = v1 - v0;
    let mut tile = vec![0.0f32; bv * max_se * w_max];
    let mut strip_scratch = StripScratch::for_epochs(pairs);
    // Workhorse stat buffers reused across every tile.
    let mut sum = vec![0.0f32; w_max];
    let mut sumsq = vec![0.0f32; w_max];
    let mut mean = vec![0.0f32; w_max];
    let mut inv_std = vec![0.0f32; w_max];

    let mut j0 = 0;
    while j0 < n {
        let w = w_max.min(n - j0);
        for sr in ctx.subject_ranges.iter() {
            let e_cnt = sr.len();
            // Compute the (band voxels × subject epochs × strip) tile.
            corr_tile_block_rows(
                pairs,
                v0..v1,
                sr.clone(),
                j0..j0 + w,
                &mut tile,
                &mut strip_scratch,
            );
            for vi in 0..bv {
                let base = vi * e_cnt * w;
                let block = &mut tile[base..base + e_cnt * w];
                sum[..w].fill(0.0);
                sumsq[..w].fill(0.0);
                for row in block.chunks_mut(w) {
                    fisher_z_slice(row);
                    accumulate(row, &mut sum[..w], &mut sumsq[..w]);
                }
                finish_stats(
                    &sum[..w],
                    &sumsq[..w],
                    f32_from_usize(e_cnt),
                    &mut mean[..w],
                    &mut inv_std[..w],
                );
                // Fused z-apply + scatter: the tile is read once (hot in
                // cache) and the finished values stream to memory once.
                for (ei, e) in sr.clone().enumerate() {
                    let src = &block[ei * w..(ei + 1) * w];
                    let dst_row = vi * m + e;
                    let dst = &mut chunk[dst_row * n + j0..dst_row * n + j0 + w];
                    for j in 0..w {
                        dst[j] = (src[j] - mean[j]) * inv_std[j];
                    }
                }
            }
        }
        j0 += w;
    }
}

fn max_subject_epochs(ctx: &TaskContext) -> usize {
    ctx.subject_ranges.iter().map(std::iter::ExactSizeIterator::len).max().unwrap_or(0)
}

/// Column-wise accumulation of sums and sums of squares (vectorizes: all
/// three slices are contiguous).
#[inline]
fn accumulate(row: &[f32], sum: &mut [f32], sumsq: &mut [f32]) {
    for (j, &z) in row.iter().enumerate() {
        sum[j] += z;
        sumsq[j] += z * z;
    }
}

/// Turn accumulated sums into (mean, 1/std) with the zero-variance
/// convention (constant populations z-score to 0).
#[inline]
fn finish_stats(sum: &[f32], sumsq: &[f32], cnt: f32, mean: &mut [f32], inv_std: &mut [f32]) {
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
        // statistics never see the strip width. ROADMAP item 3 (SYRK
        // fused into the strip) moves strip boundaries onto panel
        // boundaries and relies on exactly this.
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
    fn parallel_merged_bit_identical_at_every_thread_count() {
        let ctx = ctx();
        // 19 voxels: 2 full MR groups + a 3-row edge, so band carving
        // exercises both aligned interior bands and the ragged tail.
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
