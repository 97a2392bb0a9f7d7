//! Table 8 on real hardware: leave-one-subject-out SVM cross validation
//! with the LibSVM replica, the float-converted "optimized LibSVM", and
//! PhiSVM — plus the working-set-selection ablation.

use criterion::{criterion_group, criterion_main, Criterion};
use fcma_core::{corr_normalized_merged, TaskContext, VoxelTask};
use fcma_fmri::presets;
use fcma_linalg::tall_skinny::TallSkinnyOpts;
use fcma_svm::{loso_cross_validate, KernelMatrix, LibSvmParams, SmoParams, SolverKind, WssMode};
use std::hint::black_box;

/// One voxel's kernel matrix at the full face-scene epoch structure
/// (216 epochs → folds of l = 204) over a scaled brain.
fn fixture() -> (KernelMatrix, Vec<f32>, Vec<usize>) {
    let cfg = presets::face_scene_scaled(512);
    let (dataset, _) = cfg.generate();
    let ctx = TaskContext::full(&dataset);
    let task = VoxelTask { start: 0, count: 1 };
    let corr = corr_normalized_merged(&ctx, task, TallSkinnyOpts::default());
    let kernel = KernelMatrix::precompute_raw(ctx.n_epochs(), ctx.n_voxels(), corr.voxel_matrix(0));
    (kernel, ctx.y.as_ref().clone(), ctx.subjects.as_ref().clone())
}

fn bench_solvers(c: &mut Criterion) {
    let (kernel, y, subjects) = fixture();
    let mut g = c.benchmark_group("table8_svm_cv");
    g.sample_size(10);

    g.bench_function("libsvm_replica", |b| {
        b.iter(|| {
            black_box(loso_cross_validate(
                &kernel,
                &y,
                &subjects,
                &SolverKind::LibSvm(LibSvmParams::default()),
            ))
        })
    });
    g.bench_function("optimized_libsvm", |b| {
        b.iter(|| {
            black_box(loso_cross_validate(
                &kernel,
                &y,
                &subjects,
                &SolverKind::OptimizedLibSvm(SmoParams::default()),
            ))
        })
    });
    g.bench_function("phisvm", |b| {
        b.iter(|| {
            black_box(loso_cross_validate(
                &kernel,
                &y,
                &subjects,
                &SolverKind::PhiSvm(SmoParams::default()),
            ))
        })
    });
    g.finish();
}

fn bench_wss_ablation(c: &mut Criterion) {
    let (kernel, y, subjects) = fixture();
    let mut g = c.benchmark_group("wss_ablation");
    g.sample_size(10);
    for (name, mode) in [
        ("first_order", WssMode::FirstOrder),
        ("second_order", WssMode::SecondOrder),
        ("adaptive", WssMode::Adaptive),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(loso_cross_validate(
                    &kernel,
                    &y,
                    &subjects,
                    &SolverKind::PhiSvm(SmoParams { wss: mode, ..Default::default() }),
                ))
            })
        });
    }
    g.finish();
}

fn bench_kernel_precompute(c: &mut Criterion) {
    let cfg = presets::face_scene_scaled(2048);
    let (dataset, _) = cfg.generate();
    let ctx = TaskContext::full(&dataset);
    let task = VoxelTask { start: 0, count: 1 };
    let corr = corr_normalized_merged(&ctx, task, TallSkinnyOpts::default());
    let m = ctx.n_epochs();
    let n = ctx.n_voxels();
    let data = corr.voxel_matrix(0);

    let mut g = c.benchmark_group("kernel_precompute");
    g.sample_size(10);
    let mut scratch = fcma_linalg::SyrkScratch::new(m, fcma_linalg::PANEL_K);
    g.bench_function("panel_syrk (paper)", |b| {
        b.iter(|| black_box(KernelMatrix::precompute_raw_with(m, n, data, &mut scratch)))
    });
    g.bench_function("dot_syrk (baseline)", |b| {
        b.iter(|| black_box(KernelMatrix::precompute_baseline_raw(m, n, data)))
    });
    g.finish();
}

criterion_group!(benches, bench_solvers, bench_wss_ablation, bench_kernel_precompute);
criterion_main!(benches);
