//! Single-node task executors: the paper's baseline vs. optimized
//! implementations of the three-stage pipeline.

use crate::context::TaskContext;
use crate::control::TaskControls;
use crate::stage1::corr_baseline;
use crate::stage2::{fused_kernels, normalize_baseline};
use crate::stage3::{score_kernels, score_task, KernelPrecompute};
use crate::task::{VoxelScore, VoxelTask};
use fcma_svm::{LibSvmParams, SmoParams, SolverKind};
use fcma_sync::pool::Pool;
use fcma_trace::span;

/// A single-node implementation of the three-stage FCMA pipeline.
pub trait TaskExecutor: Send + Sync {
    /// Short identifier used in reports.
    fn name(&self) -> &'static str;

    /// Run the full pipeline for one voxel task, optionally overriding the
    /// cross-validation grouping (defaults to the context's subjects).
    fn process_grouped(
        &self,
        ctx: &TaskContext,
        task: VoxelTask,
        groups: Option<&[usize]>,
    ) -> Vec<VoxelScore>;

    /// Run the pipeline with subject-wise (LOSO) cross validation.
    fn process(&self, ctx: &TaskContext, task: VoxelTask) -> Vec<VoxelScore> {
        self.process_grouped(ctx, task, None)
    }

    /// Like [`Self::process_grouped`], but with cooperative cancellation
    /// and deadline controls (see [`TaskControls`]). The default
    /// implementation ignores the controls — the three-stage pipeline is
    /// short per task, so the cluster scheduler's own deadline clock is
    /// the enforcement point. Executors that can block for long periods
    /// (fault injectors, remote backends) should poll
    /// `controls.cancel` and return early when it fires; the scheduler
    /// discards results from cancelled dispatches.
    fn process_with_controls(
        &self,
        ctx: &TaskContext,
        task: VoxelTask,
        groups: Option<&[usize]>,
        controls: &TaskControls,
    ) -> Vec<VoxelScore> {
        let _ = controls;
        self.process_grouped(ctx, task, groups)
    }
}

/// The paper's §3.2 baseline: per-epoch generic blocked GEMM, three-pass
/// normalization, generic SYRK, and the LibSVM-replica solver.
#[derive(Debug, Clone, Default)]
pub struct BaselineExecutor {
    /// LibSVM parameters for stage 3.
    pub svm: LibSvmParams,
    /// Worker pool for the kernel loops (defaults to single-threaded;
    /// see [`Pool::from_env`] for the `FCMA_THREADS` plumbing).
    pub pool: Pool,
}

impl TaskExecutor for BaselineExecutor {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn process_grouped(
        &self,
        ctx: &TaskContext,
        task: VoxelTask,
        groups: Option<&[usize]>,
    ) -> Vec<VoxelScore> {
        let _span =
            span!("task.process", start = task.start, count = task.count, executor = "baseline");
        let mut corr = corr_baseline(ctx, task, &self.pool);
        normalize_baseline(&mut corr, ctx);
        let groups = groups.unwrap_or(&ctx.subjects);
        score_task(
            &corr,
            task,
            &ctx.y,
            groups,
            &SolverKind::LibSvm(self.svm),
            KernelPrecompute::Baseline,
            &self.pool,
        )
    }
}

/// The paper's §4 optimized pipeline: merged stage 1+2 with tall-skinny
/// blocking, panel SYRK, and PhiSVM — with the SYRK fused into the
/// merged pass, so each voxel's kernel is built strip by strip while the
/// strip is in cache and the task's `V × M × N` correlations are never
/// held (`stage2::fused_kernels`).
#[derive(Debug, Clone, Default)]
pub struct OptimizedExecutor {
    /// PhiSVM parameters for stage 3.
    pub svm: SmoParams,
    /// Worker pool for the kernel loops (defaults to single-threaded;
    /// see [`Pool::from_env`] for the `FCMA_THREADS` plumbing).
    pub pool: Pool,
}

impl TaskExecutor for OptimizedExecutor {
    fn name(&self) -> &'static str {
        "optimized"
    }

    fn process_grouped(
        &self,
        ctx: &TaskContext,
        task: VoxelTask,
        groups: Option<&[usize]>,
    ) -> Vec<VoxelScore> {
        let _span =
            span!("task.process", start = task.start, count = task.count, executor = "optimized");
        let kernels = fused_kernels(ctx, task, &self.pool);
        let groups = groups.unwrap_or(&ctx.subjects);
        score_kernels(
            &kernels,
            task.start,
            &ctx.y,
            groups,
            &SolverKind::PhiSvm(self.svm),
            &self.pool,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcma_fmri::presets;

    #[test]
    fn executors_agree_on_voxel_ranking_quality() {
        let mut cfg = presets::tiny();
        cfg.coupling = 1.6;
        let (d, gt) = cfg.generate();
        let ctx = TaskContext::full(&d);
        let task = VoxelTask { start: 0, count: d.n_voxels() };

        let base = BaselineExecutor::default().process(&ctx, task);
        let opt = OptimizedExecutor::default().process(&ctx, task);
        assert_eq!(base.len(), opt.len());

        // Both implementations must put informative voxels on top.
        for scores in [&base, &opt] {
            let mut ranked: Vec<_> = scores.clone();
            ranked.sort_by(|a, b| b.accuracy.partial_cmp(&a.accuracy).unwrap());
            let top: Vec<usize> =
                ranked.iter().take(gt.informative.len()).map(|s| s.voxel).collect();
            let hits = top.iter().filter(|v| gt.informative.contains(v)).count();
            assert!(
                hits * 2 >= gt.informative.len(),
                "only {hits}/{} informative voxels in top set",
                gt.informative.len()
            );
        }

        // And their per-voxel accuracies must track each other.
        let mean_gap: f64 =
            base.iter().zip(&opt).map(|(a, b)| (a.accuracy - b.accuracy).abs()).sum::<f64>()
                / base.len() as f64;
        assert!(mean_gap < 0.1, "executor agreement gap {mean_gap}");
    }

    #[test]
    fn custom_groups_override_subjects() {
        let (d, _) = presets::tiny().generate();
        let ctx = TaskContext::full(&d);
        let task = VoxelTask { start: 0, count: 4 };
        // 4 groups by epoch index — the online-analysis style grouping.
        let groups: Vec<usize> = (0..ctx.n_epochs()).map(|e| e % 4).collect();
        let scores = OptimizedExecutor::default().process_grouped(&ctx, task, Some(&groups));
        assert_eq!(scores.len(), 4);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(&s.accuracy)));
    }
}
