//! Property-based tests for the FCMA pipeline: schedule equivalence,
//! partition invariance, and statistical sanity across randomized
//! dataset configurations.

use fcma_core::{
    corr_baseline, corr_normalized_merged, corr_normalized_merged_parallel, corr_optimized,
    fused_kernels, normalize_baseline, normalize_separated, score_task, KernelPrecompute,
    TaskContext, VoxelTask,
};
use fcma_fmri::noise::{Ar1, Drift};
use fcma_fmri::synth::{Placement, SynthConfig};
use fcma_linalg::tall_skinny::TallSkinnyOpts;
use fcma_linalg::{gemm_blocked, SyrkScratch, PANEL_K};
use fcma_svm::{KernelMatrix, SmoParams, SolverKind};
use fcma_sync::pool::Pool;
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = SynthConfig> {
    (12usize..48, 2usize..4, 2usize..4, any::<u64>()).prop_map(|(nv, ns, eh, seed)| SynthConfig {
        n_informative: (nv / 4).max(2) & !1,
        ..synth(nv, ns, eh * 2, seed)
    })
}

/// A small noisy dataset with no planted network.
fn synth(n_voxels: usize, n_subjects: usize, epochs_per_subject: usize, seed: u64) -> SynthConfig {
    SynthConfig {
        n_voxels,
        n_subjects,
        epochs_per_subject,
        epoch_len: 8,
        gap: 2,
        n_informative: 0,
        coupling: 1.2,
        noise: Ar1 { phi: 0.3, sigma: 1.0 },
        drift: Drift { linear: 0.5, sin_amp: 0.2, sin_cycles: 1.0 },
        seed,
        placement: Placement::Random,
        hrf: None,
    }
}

/// Brain widths of the fused-kernel property: one voxel, one SYRK panel
/// (`PANEL_K` = 96 columns) and either side of it, and several panels.
const FUSED_BRAINS: [usize; 5] = [1, 95, 96, 97, 700];
/// Task sizes of the fused-kernel property: below, at and above one
/// register tile (`MR` = 4), and two tiles and a fringe.
const FUSED_VOXELS: [usize; 5] = [1, 3, 4, 5, 9];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The three stage-1+2 schedules agree on every dataset and task.
    #[test]
    fn all_schedules_agree(cfg in config_strategy(), start_frac in 0.0f32..0.8) {
        let (d, _) = cfg.generate();
        let ctx = TaskContext::full(&d);
        let start = (start_frac * d.n_voxels() as f32) as usize;
        let count = (d.n_voxels() - start).clamp(1, 7);
        let task = VoxelTask { start, count };

        let mut a = corr_baseline(&ctx, task, &Pool::default());
        normalize_baseline(&mut a, &ctx);
        let mut b = corr_optimized(&ctx, task, TallSkinnyOpts { tile_cols: 16 });
        normalize_separated(&mut b, &ctx);
        let c = corr_normalized_merged(&ctx, task, TallSkinnyOpts { tile_cols: 24 });

        for (i, ((x, y), z)) in a.buf.iter().zip(&b.buf).zip(&c.buf).enumerate() {
            prop_assert!((x - y).abs() < 1e-3, "baseline vs separated at {i}: {x} vs {y}");
            prop_assert!((y - z).abs() < 1e-3, "separated vs merged at {i}: {y} vs {z}");
        }
    }

    /// Scores are identical no matter how the brain is partitioned into
    /// tasks (no hidden coupling between tasks).
    #[test]
    fn scores_are_partition_invariant(cfg in config_strategy(), size in 1usize..9) {
        let (d, _) = cfg.generate();
        let ctx = TaskContext::full(&d);
        let solver = SolverKind::PhiSvm(SmoParams::default());

        let whole_task = VoxelTask { start: 0, count: d.n_voxels() };
        let whole = corr_normalized_merged(&ctx, whole_task, TallSkinnyOpts::default());
        let pool = Pool::new(2);
        let ref_scores = score_task(
            &whole, whole_task, &ctx.y, &ctx.subjects, &solver, KernelPrecompute::Optimized, &pool,
        );

        let mut start = 0;
        while start < d.n_voxels() {
            let count = size.min(d.n_voxels() - start);
            let task = VoxelTask { start, count };
            let corr = corr_normalized_merged(&ctx, task, TallSkinnyOpts::default());
            let scores = score_task(
                &corr, task, &ctx.y, &ctx.subjects, &solver, KernelPrecompute::Optimized, &pool,
            );
            for s in &scores {
                let r = &ref_scores[s.voxel];
                prop_assert!(
                    (s.accuracy - r.accuracy).abs() < 1e-9,
                    "voxel {}: {} vs {}",
                    s.voxel,
                    s.accuracy,
                    r.accuracy
                );
            }
            start += count;
        }
    }

    /// DESIGN.md §15: the fused stage-1+2 pipeline is bit-identical to its
    /// one-thread schedule at every thread count, on arbitrary datasets
    /// and task offsets (bands are cut at voxel granularity, so most of
    /// them start off an `MR` boundary).
    #[test]
    fn parallel_pipeline_bit_identical(cfg in config_strategy(), start_frac in 0.0f32..0.6) {
        let (d, _) = cfg.generate();
        let ctx = TaskContext::full(&d);
        let start = (start_frac * d.n_voxels() as f32) as usize;
        let count = d.n_voxels() - start;
        let task = VoxelTask { start, count };

        let merged = corr_normalized_merged(&ctx, task, TallSkinnyOpts { tile_cols: 32 });
        for threads in [1usize, 2, 3, 8] {
            let pool = Pool::new(threads);
            let pm = corr_normalized_merged_parallel(&ctx, task, TallSkinnyOpts { tile_cols: 32 }, &pool);
            for (i, (p, s)) in pm.buf.iter().zip(&merged.buf).enumerate() {
                prop_assert_eq!(p.to_bits(), s.to_bits(), "merged threads={} idx={}", threads, i);
            }
        }
    }

    /// The optimized executor's one pass — stage 1+2 and the kernel
    /// precompute over each strip while it is in cache — gives every
    /// voxel's Gram matrix the bits of the unfused sequence:
    /// `corr_normalized_merged`, then `KernelMatrix::precompute_raw_with`.
    /// Subjects keep a ragged number of epochs, bands start on any voxel
    /// at 1–3 threads, and a decoy task runs through the same pool (and
    /// dirties the oracle's SYRK scratch) first.
    #[test]
    fn fused_kernels_bit_identical_to_unfused(
        brain in 0usize..5,
        voxels in 0usize..5,
        threads in 1usize..4,
        lens in proptest::collection::vec(1usize..7, 3),
        start_frac in 0.0f32..1.0,
        seed in any::<u64>(),
    ) {
        let n = FUSED_BRAINS[brain];
        let (d, _) = synth(n, 3, 6, seed).generate();
        // Ragged subjects: subject s keeps its first lens[s] epochs.
        let mut seen = [0usize; 3];
        let keep: Vec<usize> = (0..d.n_epochs())
            .filter(|&e| {
                let s = d.epochs()[e].subject;
                seen[s] += 1;
                seen[s] <= lens[s]
            })
            .collect();
        let ctx = TaskContext::subset(&d, &keep);
        let m = ctx.n_epochs();
        let count = FUSED_VOXELS[voxels].min(n);
        let task = VoxelTask { start: ((n - count) as f32 * start_frac) as usize, count };
        let pool = Pool::new(threads);

        let decoy = VoxelTask { start: n - 1, count: 1 };
        let mut scratch = SyrkScratch::new(m, PANEL_K);
        let dirt = corr_normalized_merged(&ctx, decoy, TallSkinnyOpts::default());
        KernelMatrix::precompute_raw_with(m, n, dirt.voxel_matrix(0), &mut scratch);
        drop(fused_kernels(&ctx, decoy, &pool));

        let merged = corr_normalized_merged(&ctx, task, TallSkinnyOpts::default());
        let fused = fused_kernels(&ctx, task, &pool);
        prop_assert_eq!(fused.len(), count);
        for (vi, got) in fused.iter().enumerate() {
            let want = KernelMatrix::precompute_raw_with(m, n, merged.voxel_matrix(vi), &mut scratch);
            for i in 0..m {
                for (j, (g, w)) in got.row(i).iter().zip(want.row(i)).enumerate() {
                    prop_assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "n={} task={:?} threads={} voxel {} ({},{})",
                        n, task, threads, vi, i, j
                    );
                }
            }
        }
    }

    /// DESIGN.md §15 for the baseline stage 1, whose bands are mc = 64
    /// voxels: a 150-voxel task is two full bands and a 22-voxel ragged
    /// tail, so threads {2, 3, 8} really split it. Every thread count
    /// must reproduce, bit for bit, one full-range `gemm_blocked` per
    /// epoch on fresh packing buffers — while inside `corr_baseline`
    /// each worker's scratch is dirty from the previous epoch's product
    /// (and from a previous band, when it takes more than one).
    #[test]
    fn banded_baseline_bit_identical(cfg in config_strategy(), start in 0usize..11) {
        let (d, _) = SynthConfig { n_voxels: 160, n_informative: 8, ..cfg }.generate();
        let ctx = TaskContext::full(&d);
        let task = VoxelTask { start, count: 150 };
        let (v, n, m) = (task.count, ctx.n_voxels(), ctx.n_epochs());

        let mut fresh = vec![f32::NAN; v * m * n];
        for (e, a) in ctx.norm.assigned_blocks(task.range()).iter().enumerate() {
            let k = a.cols();
            let b = ctx.norm.brain(e);
            gemm_blocked(v, n, k, a.as_slice(), k, b.as_slice(), n, &mut fresh[e * n..], m * n);
        }
        for threads in [1usize, 2, 3, 8] {
            let got = corr_baseline(&ctx, task, &Pool::new(threads));
            prop_assert_eq!(got.buf.len(), fresh.len());
            for (i, (p, s)) in got.buf.iter().zip(&fresh).enumerate() {
                prop_assert_eq!(p.to_bits(), s.to_bits(), "baseline threads={} idx={}", threads, i);
            }
        }
    }

    /// Stage-3 scores do not depend on the pool's thread count: every
    /// voxel's CV runs to the same accuracy bit for bit.
    #[test]
    fn scores_thread_count_invariant(cfg in config_strategy()) {
        let (d, _) = cfg.generate();
        let ctx = TaskContext::full(&d);
        let task = VoxelTask { start: 0, count: d.n_voxels().min(10) };
        let corr = corr_normalized_merged(&ctx, task, TallSkinnyOpts::default());
        let solver = SolverKind::PhiSvm(SmoParams::default());
        let reference = score_task(
            &corr, task, &ctx.y, &ctx.subjects, &solver, KernelPrecompute::Optimized,
            &Pool::new(1),
        );
        for threads in [2usize, 3, 8] {
            let scores = score_task(
                &corr, task, &ctx.y, &ctx.subjects, &solver, KernelPrecompute::Optimized,
                &Pool::new(threads),
            );
            for (s, r) in scores.iter().zip(&reference) {
                prop_assert_eq!(s.voxel, r.voxel);
                prop_assert_eq!(s.accuracy.to_bits(), r.accuracy.to_bits(), "threads={}", threads);
            }
        }
    }

    /// Accuracies are probabilities and normalized output is bounded.
    #[test]
    fn outputs_are_bounded(cfg in config_strategy()) {
        let (d, _) = cfg.generate();
        let ctx = TaskContext::full(&d);
        let task = VoxelTask { start: 0, count: d.n_voxels().min(8) };
        let corr = corr_normalized_merged(&ctx, task, TallSkinnyOpts::default());
        // Fisher-z of |r| <= 1 clamped then z-scored over E epochs: values
        // stay small and finite.
        for &v in &corr.buf {
            prop_assert!(v.is_finite());
            prop_assert!(v.abs() < 10.0, "normalized value {v} out of range");
        }
        let scores = score_task(
            &corr,
            task,
            &ctx.y,
            &ctx.subjects,
            &SolverKind::PhiSvm(SmoParams::default()),
            KernelPrecompute::Optimized,
            &Pool::new(3),
        );
        for s in &scores {
            prop_assert!((0.0..=1.0).contains(&s.accuracy));
        }
    }
}
