//! Real host measurements feeding the reproduction harness.
//!
//! Two classes of quantities are *measured*, not modeled:
//!
//! * **SMO iteration counts** per solver — the algorithmic difference
//!   between LibSVM, optimized LibSVM, and PhiSVM is real; we run the
//!   actual solvers from `fcma-svm` on a scaled dataset (full epoch
//!   structure, so the SVM problem size `l` is *exactly* the paper's)
//!   and record iterations and host wall time.
//! * **Kernel wall times** on the host CPU — quick best-of-`reps`
//!   readings at scaled shapes that fill the repro binary's host
//!   columns. They are orientation only: the host numbers the docs cite
//!   come from `benchmark/` (paper shapes, recorded in
//!   `BENCH_history.jsonl`).

use crate::workloads::DatasetKind;
use fcma_core::{
    corr_baseline, corr_normalized_merged, corr_optimized, normalize_baseline, normalize_separated,
    TaskContext, VoxelTask,
};
use fcma_linalg::tall_skinny::TallSkinnyOpts;
use fcma_svm::{loso_cross_validate, KernelMatrix, LibSvmParams, SmoParams, SolverKind, WssMode};
use fcma_sync::pool::Pool;
use std::time::Instant;

/// Measured behaviour of one SVM solver on the CV workload.
#[derive(Debug, Clone, Copy)]
pub struct SvmMeasurement {
    /// Mean SMO iterations per voxel (summed over CV folds).
    pub iters_per_voxel: f64,
    /// Mean host wall milliseconds per voxel (all folds).
    pub host_ms_per_voxel: f64,
    /// Mean CV accuracy across the sampled voxels (sanity signal).
    pub accuracy: f64,
}

/// Measurements for the three Table 8 solvers, in paper order:
/// `[LibSVM, optimized LibSVM, PhiSVM]`.
pub fn measure_svm_solvers(
    kind: DatasetKind,
    scaled_voxels: usize,
    sample_voxels: usize,
) -> [SvmMeasurement; 3] {
    let cfg = kind.scaled_config(scaled_voxels);
    let (dataset, _) = cfg.generate();
    let ctx = TaskContext::full(&dataset);
    let task = VoxelTask { start: 0, count: sample_voxels.min(ctx.n_voxels()) };
    let corr = corr_normalized_merged(&ctx, task, TallSkinnyOpts::default());

    let kernels: Vec<KernelMatrix> = (0..task.count)
        .map(|vi| {
            KernelMatrix::precompute_raw(ctx.n_epochs(), ctx.n_voxels(), corr.voxel_matrix(vi))
        })
        .collect();

    let solvers = [
        SolverKind::LibSvm(LibSvmParams::default()),
        SolverKind::OptimizedLibSvm(SmoParams { wss: WssMode::SecondOrder, ..Default::default() }),
        SolverKind::PhiSvm(SmoParams::default()),
    ];
    let mut out =
        [SvmMeasurement { iters_per_voxel: 0.0, host_ms_per_voxel: 0.0, accuracy: 0.0 }; 3];
    for (si, solver) in solvers.iter().enumerate() {
        let t0 = Instant::now();
        let mut iters = 0usize;
        let mut acc = 0.0f64;
        for kernel in &kernels {
            let r = loso_cross_validate(kernel, &ctx.y, &ctx.subjects, solver);
            iters += r.total_iterations;
            acc += r.accuracy;
        }
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        out[si] = SvmMeasurement {
            iters_per_voxel: iters as f64 / kernels.len() as f64,
            host_ms_per_voxel: elapsed_ms / kernels.len() as f64,
            accuracy: acc / kernels.len() as f64,
        };
    }
    out
}

/// Host wall-clock (ms) of a closure, best of `reps`.
pub fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Host measurements of the stage-1/2 kernel variants on a scaled task.
#[derive(Debug, Clone, Copy)]
pub struct StageHostTimes {
    /// Baseline per-epoch generic GEMM (stage 1 only).
    pub corr_baseline_ms: f64,
    /// Optimized tall-skinny kernel (stage 1 only).
    pub corr_optimized_ms: f64,
    /// Optimized stage 1 + separated normalization.
    pub separated_ms: f64,
    /// Merged stage 1+2.
    pub merged_ms: f64,
    /// Baseline stage 1 + baseline three-pass normalization.
    pub baseline_norm_ms: f64,
}

/// Measure the stage-1/2 variants on the host for a `task_voxels`-voxel
/// task of the scaled dataset.
pub fn measure_stage12(
    kind: DatasetKind,
    scaled_voxels: usize,
    task_voxels: usize,
    reps: usize,
) -> StageHostTimes {
    let cfg = kind.scaled_config(scaled_voxels);
    let (dataset, _) = cfg.generate();
    let ctx = TaskContext::full(&dataset);
    let task = VoxelTask { start: 0, count: task_voxels.min(ctx.n_voxels()) };
    // Host-tuned strip width: the library default (512) is sized to the
    // Phi's 512 KB L2; desktop/server LLCs prefer wider strips (see the
    // `ablate-block` sweep).
    let opts = TallSkinnyOpts { tile_cols: 2048 };
    let pool = Pool::default();

    let corr_baseline_ms = time_ms(reps, || {
        std::hint::black_box(corr_baseline(&ctx, task, &pool));
    });
    let corr_optimized_ms = time_ms(reps, || {
        std::hint::black_box(corr_optimized(&ctx, task, opts));
    });
    let separated_ms = time_ms(reps, || {
        let mut c = corr_optimized(&ctx, task, opts);
        normalize_separated(&mut c, &ctx);
        std::hint::black_box(&c);
    });
    let merged_ms = time_ms(reps, || {
        std::hint::black_box(corr_normalized_merged(&ctx, task, opts));
    });
    let baseline_norm_ms = time_ms(reps, || {
        let mut c = corr_baseline(&ctx, task, &pool);
        normalize_baseline(&mut c, &ctx);
        std::hint::black_box(&c);
    });

    StageHostTimes {
        corr_baseline_ms,
        corr_optimized_ms,
        separated_ms,
        merged_ms,
        baseline_norm_ms,
    }
}

/// Host wall-clock of the two SYRK implementations on the **full-scale**
/// SVM kernel-matrix shape (`m_train × N`, e.g. 204 × 34,470 for
/// face-scene — this stage is small enough to measure unscaled). Returns
/// `(dot_ms, panel_ms)` per voxel.
pub fn measure_syrk(kind: DatasetKind, reps: usize) -> (f64, f64) {
    use fcma_linalg::{syrk_dot, syrk_panel_scratch, SyrkScratch, PANEL_K};
    let (n_full, subjects, m_full, _) = kind.table2();
    let m = (m_full - m_full / subjects) as usize;
    let n = n_full as usize;
    // Deterministic pseudo-data; contents don't affect timing.
    let a: Vec<f32> = (0..m * n)
        .map(|i| ((i as u32).wrapping_mul(2654435761) >> 16) as f32 / 65536.0 - 0.5)
        .collect();
    let mut c = vec![0.0f32; m * m];
    let dot_ms = time_ms(reps, || {
        syrk_dot(m, n, &a, n, &mut c, m);
        std::hint::black_box(&c);
    });
    let mut scratch = SyrkScratch::new(m, PANEL_K);
    let panel_ms = time_ms(reps, || {
        syrk_panel_scratch(m, n, &a, n, &mut c, m, &mut scratch);
        std::hint::black_box(&c);
    });
    (dot_ms, panel_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svm_measurements_have_sane_structure() {
        let m = measure_svm_solvers(DatasetKind::FaceScene, 48, 1);
        for s in &m {
            assert!(s.iters_per_voxel > 0.0);
            assert!(s.host_ms_per_voxel > 0.0);
            assert!((0.0..=1.0).contains(&s.accuracy));
        }
        // All three solvers reach comparable accuracy (same optimum).
        let max = m.iter().map(|s| s.accuracy).fold(f64::MIN, f64::max);
        let min = m.iter().map(|s| s.accuracy).fold(f64::MAX, f64::min);
        assert!(max - min < 0.25, "solver accuracies diverge: {min} vs {max}");
    }

    #[test]
    fn stage12_measurements_are_positive() {
        let t = measure_stage12(DatasetKind::FaceScene, 64, 16, 1);
        assert!(t.corr_baseline_ms > 0.0);
        assert!(t.corr_optimized_ms > 0.0);
        assert!(t.merged_ms > 0.0);
        assert!(t.separated_ms >= t.corr_optimized_ms * 0.5);
    }
}
