//! Stage 3 — SVM cross validation (kernel precompute + per-voxel CV).
//!
//! For each assigned voxel, the worker precomputes the linear kernel
//! matrix over that voxel's correlation vectors (a symmetric rank-k
//! update, §4.4) and runs leave-one-group-out cross validation with the
//! configured SVM solver. The resulting accuracy is the voxel's
//! "informativeness" score.
//!
//! [`score_task`] does both over a task's correlation buffer; the
//! optimized executor gets its kernels from the fused stage 1+2 pass
//! (`stage2::fused_kernels`) instead. Both end in [`score_kernels`],
//! where one pool task handles one voxel — the paper's "a thread takes
//! full responsibility for the cross validation of one voxel".

use crate::stage1::CorrData;
use crate::task::{VoxelScore, VoxelTask};
use fcma_linalg::{SyrkScratch, PANEL_K};
use fcma_svm::{loso_cross_validate_with, KernelMatrix, SmoScratch, SolverKind};
use fcma_sync::pool::Pool;
use fcma_trace::{counter, span};

/// Which SYRK implementation precomputes the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPrecompute {
    /// Generic library-style SYRK (baseline).
    Baseline,
    /// The paper's 96-deep panel SYRK.
    Optimized,
}

/// Score every voxel of a task: precompute each voxel's kernel from
/// `corr` (one [`SyrkScratch`] per pool worker, the paper's per-thread
/// `A_local`, §4.4), then [`score_kernels`].
///
/// `y` and `groups` are parallel to the epochs of `corr` (groups are
/// subjects for offline analysis, epoch folds for the online case).
/// Returns global-voxel-indexed scores (using `task.start` as the base).
///
/// # Panics
/// If `corr` does not hold `task.count` voxels, or on the length
/// mismatches [`score_kernels`] rejects.
pub fn score_task(
    corr: &CorrData,
    task: VoxelTask,
    y: &[f32],
    groups: &[usize],
    solver: &SolverKind,
    precompute: KernelPrecompute,
    pool: &Pool,
) -> Vec<VoxelScore> {
    assert_eq!(corr.layout.n_assigned, task.count, "score_task: task/corr shape mismatch");
    let (m, n) = (corr.layout.n_epochs, corr.layout.n_brain);
    let kernels = pool.run_init(
        (0..task.count).collect(),
        || SyrkScratch::new(m, PANEL_K),
        |syrk, _idx, vi| {
            let data = corr.voxel_matrix(vi);
            match precompute {
                KernelPrecompute::Baseline => KernelMatrix::precompute_baseline_raw(m, n, data),
                KernelPrecompute::Optimized => KernelMatrix::precompute_raw_with(m, n, data, syrk),
            }
        },
    );
    counter!("pool.tasks.run", task.count);
    score_kernels(&kernels, task.start, y, groups, solver, pool)
}

/// Leave-one-group-out CV of every voxel of a task from its precomputed
/// kernel — the one stage-3 loop of both executors. `kernels[vi]` is
/// voxel `start + vi`'s; `y` and `groups` are parallel to its samples.
///
/// One pool task per voxel, each worker reusing one [`SmoScratch`];
/// scores come back in voxel order whichever worker ran them. A
/// one-voxel task (the online shape) has no voxel parallelism, so the
/// pool goes down one level and runs that voxel's CV folds instead.
/// Same scores either way: the CV is bit-identical at every thread
/// count (DESIGN.md §15).
///
/// # Panics
/// If `y` or `groups` does not match a kernel's size, or a fold would
/// see a single class.
pub(crate) fn score_kernels(
    kernels: &[KernelMatrix],
    start: usize,
    y: &[f32],
    groups: &[usize],
    solver: &SolverKind,
    pool: &Pool,
) -> Vec<VoxelScore> {
    let _span = span!("stage3.score", voxels = kernels.len(), epochs = y.len());
    counter!("stage3.voxels", kernels.len());
    let fold_pool = if kernels.len() == 1 { *pool } else { Pool::default() };
    let scores = pool.run_init(kernels.iter().collect(), SmoScratch::default, |smo, vi, kernel| {
        VoxelScore {
            voxel: start + vi,
            accuracy: loso_cross_validate_with(kernel, y, groups, solver, &fold_pool, smo).accuracy,
        }
    });
    counter!("pool.tasks.run", kernels.len());
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TaskContext;
    use crate::stage2::corr_normalized_merged;
    use fcma_fmri::presets;
    use fcma_linalg::tall_skinny::TallSkinnyOpts;
    use fcma_svm::{LibSvmParams, SmoParams};

    fn scored(preset_coupling: f32) -> (Vec<VoxelScore>, Vec<usize>, TaskContext) {
        let mut cfg = presets::tiny();
        cfg.coupling = preset_coupling;
        let (d, gt) = cfg.generate();
        let ctx = TaskContext::full(&d);
        let task = VoxelTask { start: 0, count: d.n_voxels() };
        let corr = corr_normalized_merged(&ctx, task, TallSkinnyOpts::default());
        let scores = score_task(
            &corr,
            task,
            &ctx.y,
            &ctx.subjects,
            &SolverKind::PhiSvm(SmoParams::default()),
            KernelPrecompute::Optimized,
            &Pool::new(2),
        );
        (scores, gt.informative, ctx)
    }

    #[test]
    fn informative_voxels_score_higher() {
        let (scores, informative, _) = scored(1.6);
        let mean_inf: f64 =
            informative.iter().map(|&v| scores[v].accuracy).sum::<f64>() / informative.len() as f64;
        let outsiders: Vec<f64> =
            scores.iter().filter(|s| !informative.contains(&s.voxel)).map(|s| s.accuracy).collect();
        let mean_out: f64 = outsiders.iter().sum::<f64>() / outsiders.len() as f64;
        assert!(
            mean_inf > mean_out + 0.15,
            "informative {mean_inf:.3} vs uninformative {mean_out:.3}"
        );
        assert!(mean_inf > 0.7, "informative accuracy too low: {mean_inf:.3}");
    }

    #[test]
    fn both_precompute_paths_agree() {
        let mut cfg = presets::tiny();
        cfg.n_voxels = 48;
        cfg.n_informative = 8;
        let (d, _) = cfg.generate();
        let ctx = TaskContext::full(&d);
        let task = VoxelTask { start: 0, count: 16 };
        let corr = corr_normalized_merged(&ctx, task, TallSkinnyOpts::default());
        let solver = SolverKind::PhiSvm(SmoParams::default());
        let pool = Pool::new(2);
        let a = score_task(
            &corr,
            task,
            &ctx.y,
            &ctx.subjects,
            &solver,
            KernelPrecompute::Optimized,
            &pool,
        );
        let b = score_task(
            &corr,
            task,
            &ctx.y,
            &ctx.subjects,
            &solver,
            KernelPrecompute::Baseline,
            &pool,
        );
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (x.accuracy - y.accuracy).abs() < 0.101,
                "voxel {}: {} vs {}",
                x.voxel,
                x.accuracy,
                y.accuracy
            );
        }
    }

    #[test]
    fn libsvm_and_phisvm_give_similar_scores() {
        let mut cfg = presets::tiny();
        cfg.n_voxels = 32;
        cfg.n_informative = 6;
        let (d, _) = cfg.generate();
        let ctx = TaskContext::full(&d);
        let task = VoxelTask { start: 0, count: 12 };
        let corr = corr_normalized_merged(&ctx, task, TallSkinnyOpts::default());
        let a = score_task(
            &corr,
            task,
            &ctx.y,
            &ctx.subjects,
            &SolverKind::PhiSvm(SmoParams::default()),
            KernelPrecompute::Optimized,
            &Pool::new(2),
        );
        let b = score_task(
            &corr,
            task,
            &ctx.y,
            &ctx.subjects,
            &SolverKind::LibSvm(LibSvmParams::default()),
            KernelPrecompute::Optimized,
            &Pool::new(2),
        );
        let mean_gap: f64 =
            a.iter().zip(&b).map(|(x, y)| (x.accuracy - y.accuracy).abs()).sum::<f64>()
                / a.len() as f64;
        assert!(mean_gap < 0.12, "solver score gap {mean_gap}");
    }

    #[test]
    fn scores_are_in_unit_interval() {
        let (scores, _, _) = scored(1.0);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(&s.accuracy)));
    }

    #[test]
    fn single_voxel_task_fold_parallel_matches_serial() {
        // task.count == 1 at threads > 1 takes the fold-parallel CV
        // path; the score must still be bit-identical to the serial run.
        let mut cfg = presets::tiny();
        cfg.n_voxels = 24;
        cfg.n_informative = 4;
        let (d, _) = cfg.generate();
        let ctx = TaskContext::full(&d);
        let task = VoxelTask { start: 7, count: 1 };
        let corr = corr_normalized_merged(&ctx, task, TallSkinnyOpts::default());
        let solver = SolverKind::PhiSvm(SmoParams::default());
        let serial = score_task(
            &corr,
            task,
            &ctx.y,
            &ctx.subjects,
            &solver,
            KernelPrecompute::Optimized,
            &Pool::new(1),
        );
        for threads in [2usize, 8] {
            let par = score_task(
                &corr,
                task,
                &ctx.y,
                &ctx.subjects,
                &solver,
                KernelPrecompute::Optimized,
                &Pool::new(threads),
            );
            assert_eq!(par.len(), 1);
            assert_eq!(par[0].voxel, 7);
            assert_eq!(par[0].accuracy.to_bits(), serial[0].accuracy.to_bits());
        }
    }

    #[test]
    fn task_offset_respected() {
        let mut cfg = presets::tiny();
        cfg.n_voxels = 24;
        cfg.n_informative = 4;
        let (d, _) = cfg.generate();
        let ctx = TaskContext::full(&d);
        let task = VoxelTask { start: 10, count: 5 };
        let corr = corr_normalized_merged(&ctx, task, TallSkinnyOpts::default());
        let scores = score_task(
            &corr,
            task,
            &ctx.y,
            &ctx.subjects,
            &SolverKind::PhiSvm(SmoParams::default()),
            KernelPrecompute::Optimized,
            &Pool::new(3),
        );
        let voxels: Vec<usize> = scores.iter().map(|s| s.voxel).collect();
        assert_eq!(voxels, vec![10, 11, 12, 13, 14]);
    }
}
