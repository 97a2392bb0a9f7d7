//! Property-based tests for the FCMA pipeline: schedule equivalence,
//! partition invariance, and statistical sanity across randomized
//! dataset configurations.

use fcma_core::{
    corr_baseline, corr_normalized_merged, corr_optimized, fused_kernels, normalize_baseline,
    normalize_separated, score_task, KernelPrecompute, TaskContext, VoxelTask,
};
use fcma_fmri::noise::{Ar1, Drift};
use fcma_fmri::synth::{Placement, SynthConfig};
use fcma_linalg::tall_skinny::TallSkinnyOpts;
use fcma_linalg::{SyrkScratch, PANEL_K};
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

        let mut a = corr_baseline(&ctx, task);
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

    /// The optimized executor's one pass — stage 1+2 and the kernel
    /// precompute over each strip while it is in cache — gives every
    /// voxel's Gram matrix the bits of the unfused sequence:
    /// `corr_normalized_merged`, then `KernelMatrix::precompute_raw_with`.
    /// Subjects keep a ragged number of epochs, the task starts on any
    /// voxel (as an executor's sub-tasks do), and a decoy task runs
    /// first and dirties the oracle's SYRK scratch.
    #[test]
    fn fused_kernels_bit_identical_to_unfused(
        brain in 0usize..5,
        voxels in 0usize..5,
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

        let decoy = VoxelTask { start: n - 1, count: 1 };
        let mut scratch = SyrkScratch::new(m, PANEL_K);
        let dirt = corr_normalized_merged(&ctx, decoy, TallSkinnyOpts::default());
        KernelMatrix::precompute_raw_with(m, n, dirt.voxel_matrix(0), &mut scratch);

        let merged = corr_normalized_merged(&ctx, task, TallSkinnyOpts::default());
        let fused = fused_kernels(&ctx, task);
        prop_assert_eq!(fused.len(), count);
        for (vi, got) in fused.iter().enumerate() {
            let want = KernelMatrix::precompute_raw_with(m, n, merged.voxel_matrix(vi), &mut scratch);
            for i in 0..m {
                for (j, (g, w)) in got.row(i).iter().zip(want.row(i)).enumerate() {
                    prop_assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "n={} task={:?} voxel {} ({},{})",
                        n, task, vi, i, j
                    );
                }
            }
        }
    }

    /// DESIGN.md §8: an outer fold's Gram is a submatrix of the full one.
    /// Stage 2 z-scores within each subject and the SYRK sums over the
    /// brain in fixed `PANEL_K` panels, so the fused Gram of a context,
    /// restricted to the epochs an offline plan keeps (every subject but
    /// the held-out one), is bit for bit the fused Gram of
    /// `TaskContext::subset` over those epochs. Every held-out subject,
    /// ragged subjects, tasks starting on any voxel.
    #[test]
    fn fold_gram_is_the_full_grams_submatrix(
        brain in 0usize..5,
        voxels in 0usize..5,
        lens in proptest::collection::vec(1usize..7, 3..6),
        start_frac in 0.0f32..1.0,
        seed in any::<u64>(),
    ) {
        let (n, n_subjects) = (FUSED_BRAINS[brain], lens.len());
        let (d, _) = synth(n, n_subjects, 6, seed).generate();
        // Ragged subjects: subject s keeps its first lens[s] epochs.
        let mut seen = vec![0usize; n_subjects];
        let keep: Vec<usize> = (0..d.n_epochs())
            .filter(|&e| {
                let s = d.epochs()[e].subject;
                seen[s] += 1;
                seen[s] <= lens[s]
            })
            .collect();
        let full = TaskContext::subset(&d, &keep);
        let count = FUSED_VOXELS[voxels].min(n);
        let task = VoxelTask { start: ((n - count) as f32 * start_frac) as usize, count };
        let grams = fused_kernels(&full, task);
        for held in 0..n_subjects {
            let rows: Vec<usize> =
                (0..full.n_epochs()).filter(|&e| full.subjects[e] != held).collect();
            let fold_keep: Vec<usize> = rows.iter().map(|&e| keep[e]).collect();
            let fold = fused_kernels(&TaskContext::subset(&d, &fold_keep), task);
            for (vi, (got, want)) in grams.iter().zip(&fold).enumerate() {
                for (i, &r) in rows.iter().enumerate() {
                    for (j, &c) in rows.iter().enumerate() {
                        prop_assert_eq!(
                            got.row(r)[c].to_bits(),
                            want.row(i)[j].to_bits(),
                            "n={} task={:?} held={} voxel {} ({},{})",
                            n, task, held, vi, i, j
                        );
                    }
                }
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
