//! Table 7 on real hardware: the three stage-2 schedules (baseline
//! 3-pass, separated 2-pass, merged-with-stage-1), plus the Fisher
//! transform primitive itself.

use criterion::{criterion_group, criterion_main, Criterion};
use fcma_core::{
    corr_baseline, corr_normalized_merged, corr_optimized, normalize_baseline, normalize_separated,
    TaskContext, VoxelTask,
};
use fcma_fmri::presets;
use fcma_linalg::tall_skinny::TallSkinnyOpts;
use fcma_linalg::{fisher_z, fisher_z_slice};
use fcma_sync::pool::Pool;
use std::hint::black_box;

fn context() -> TaskContext {
    let cfg = presets::face_scene_scaled(1024);
    let (dataset, _) = cfg.generate();
    TaskContext::full(&dataset)
}

fn bench_fisher(c: &mut Criterion) {
    let mut data: Vec<f32> = (0..65536).map(|i| ((i as f32 * 0.37).sin()) * 0.98).collect();
    let mut g = c.benchmark_group("fisher_transform");
    g.bench_function("fast_ln_slice_64k", |b| {
        b.iter(|| {
            fisher_z_slice(&mut data);
            // keep values in range so repeated application stays finite
            for v in data.iter_mut() {
                *v = (*v * 0.3).clamp(-0.98, 0.98);
            }
            black_box(&data);
        })
    });
    g.bench_function("libm_atanh_slice_64k", |b| {
        b.iter(|| {
            for v in data.iter_mut() {
                *v = v.clamp(-0.98, 0.98).atanh();
                *v = (*v * 0.3).clamp(-0.98, 0.98);
            }
            black_box(&data);
        })
    });
    // Single-value latency comparison.
    g.bench_function("fisher_z_scalar", |b| b.iter(|| black_box(fisher_z(black_box(0.42)))));
    g.finish();
}

fn bench_schedules(c: &mut Criterion) {
    let ctx = context();
    let task = VoxelTask { start: 0, count: 32 };
    let opts = TallSkinnyOpts { tile_cols: 2048 };
    let pool = Pool::default();

    let mut g = c.benchmark_group("stage2_schedules");
    g.sample_size(10);
    g.bench_function("baseline_3pass (incl stage1 baseline)", |b| {
        b.iter(|| {
            let mut corr = corr_baseline(&ctx, task, &pool);
            normalize_baseline(&mut corr, &ctx);
            black_box(&corr);
        })
    });
    g.bench_function("separated_2pass (incl stage1 opt)", |b| {
        b.iter(|| {
            let mut corr = corr_optimized(&ctx, task, opts);
            normalize_separated(&mut corr, &ctx);
            black_box(&corr);
        })
    });
    g.bench_function("merged (stage1+2 fused)", |b| {
        b.iter(|| {
            black_box(corr_normalized_merged(&ctx, task, opts));
        })
    });
    g.finish();
}

criterion_group!(benches, bench_fisher, bench_schedules);
criterion_main!(benches);
