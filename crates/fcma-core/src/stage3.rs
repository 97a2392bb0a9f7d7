//! Stage 3 — SVM cross validation (kernel precompute + per-voxel CV).
//!
//! For each assigned voxel, the worker precomputes the linear kernel
//! matrix over that voxel's correlation vectors (a symmetric rank-k
//! update, §4.4) and runs leave-one-group-out cross validation with the
//! configured SVM solver. The resulting accuracy is the voxel's
//! "informativeness" score.
//!
//! One pool task handles one voxel — the paper's "a thread takes full
//! responsibility for the cross validation of one voxel".

use crate::stage1::{bridge_pool_counters, CorrData};
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

/// What one stage-3 worker reuses across its voxels: the SYRK panel
/// buffers (the paper's per-thread `A_local`, §4.4) and the SMO solver's
/// vectors and training-block buffer.
pub(crate) struct VoxelScratch {
    syrk: SyrkScratch,
    smo: SmoScratch,
}

impl VoxelScratch {
    /// Scratch for voxels of `n_epochs` epochs each.
    pub(crate) fn new(n_epochs: usize) -> Self {
        VoxelScratch { syrk: SyrkScratch::new(n_epochs, PANEL_K), smo: SmoScratch::default() }
    }
}

/// Score one voxel: kernel precompute + leave-one-group-out CV.
///
/// `vi` is the task-relative voxel index into `corr`; `y` and `groups`
/// are parallel to the epochs of `corr` (groups are subjects for offline
/// analysis, epoch folds for the online case). The CV folds run on
/// `fold_pool` — bit-identical at every thread count (DESIGN.md §15);
/// callers that already fill the cores across voxels pass the
/// one-thread pool.
#[allow(clippy::too_many_arguments)] // per-voxel scoring ABI shared by both executors
pub(crate) fn score_voxel(
    corr: &CorrData,
    vi: usize,
    y: &[f32],
    groups: &[usize],
    solver: &SolverKind,
    precompute: KernelPrecompute,
    scratch: &mut VoxelScratch,
    fold_pool: &Pool,
) -> f64 {
    let m = corr.layout.n_epochs;
    let n = corr.layout.n_brain;
    assert_eq!(y.len(), m, "score_voxel: targets/epochs mismatch");
    assert_eq!(groups.len(), m, "score_voxel: groups/epochs mismatch");
    let data = corr.voxel_matrix(vi);
    let kernel = match precompute {
        KernelPrecompute::Baseline => KernelMatrix::precompute_baseline_raw(m, n, data),
        KernelPrecompute::Optimized => {
            KernelMatrix::precompute_raw_with(m, n, data, &mut scratch.syrk)
        }
    };
    loso_cross_validate_with(&kernel, y, groups, solver, fold_pool, &mut scratch.smo).accuracy
}

/// Score every voxel of a task in parallel.
///
/// Returns global-voxel-indexed scores (using `task.start` as the base).
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
    let _span = span!("stage3.score", voxels = task.count, epochs = corr.layout.n_epochs);
    counter!("stage3.voxels", task.count);
    if task.count == 1 && pool.threads() > 1 {
        // A single-voxel task (the online/realtime shape) has no voxel
        // parallelism to exploit; push the pool down one level and run
        // the CV folds in parallel instead. Same score either way — the
        // CV is bit-identical at every thread count (DESIGN.md §15).
        let mut scratch = VoxelScratch::new(corr.layout.n_epochs);
        let accuracy = score_voxel(corr, 0, y, groups, solver, precompute, &mut scratch, pool);
        return vec![VoxelScore { voxel: task.start, accuracy }];
    }
    // One scratch per pool worker, reused across that worker's voxels.
    // Scores come back in task-index order regardless of which worker
    // ran them.
    let inline = Pool::default();
    let (scores, stats) = pool.run_init_stats(
        (0..task.count).collect(),
        || VoxelScratch::new(corr.layout.n_epochs),
        |scratch, _idx, vi| VoxelScore {
            voxel: task.start + vi,
            accuracy: score_voxel(corr, vi, y, groups, solver, precompute, scratch, &inline),
        },
    );
    bridge_pool_counters(&stats);
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
