//! Table 5/6 (stage 3a) on real hardware: the SVM kernel-matrix SYRK —
//! reference vs generic dot-product (library stand-in) vs the paper's
//! 96-deep panel kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fcma_linalg::{syrk_dot, syrk_panel_scratch, syrk_ref, SyrkScratch, PANEL_K};
use std::hint::black_box;

/// The paper's sample dimension (204 training epochs, face-scene) against
/// a scaled feature width.
const M: usize = 204;
const N: usize = 4096;

fn pseudo(n: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(3);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 8) as f32 / (1 << 24) as f32) - 0.5
        })
        .collect()
}

fn bench_syrk(c: &mut Criterion) {
    let a = pseudo(M * N, 1);
    let mut out = vec![0.0f32; M * M];

    let mut g = c.benchmark_group("stage3_syrk");
    g.sample_size(10);

    g.bench_function("reference", |b| {
        b.iter(|| {
            syrk_ref(M, N, &a, N, &mut out, M);
            black_box(&out);
        })
    });
    g.bench_function("dot_product (library stand-in)", |b| {
        b.iter(|| {
            syrk_dot(M, N, &a, N, &mut out, M);
            black_box(&out);
        })
    });
    let mut scratch = SyrkScratch::new(M, PANEL_K);
    g.bench_function("panel_96 (paper)", |b| {
        b.iter(|| {
            syrk_panel_scratch(M, N, &a, N, &mut out, M, &mut scratch);
            black_box(&out);
        })
    });
    g.finish();
}

fn bench_syrk_width_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("stage3_syrk_feature_width");
    g.sample_size(10);
    for n in [1024usize, 4096, 16384] {
        let a = pseudo(M * n, 2);
        let mut out = vec![0.0f32; M * M];
        let mut scratch = SyrkScratch::new(M, PANEL_K);
        g.bench_with_input(BenchmarkId::new("panel_96", n), &n, |b, &n| {
            b.iter(|| {
                syrk_panel_scratch(M, n, &a, n, &mut out, M, &mut scratch);
                black_box(&out);
            })
        });
        g.bench_with_input(BenchmarkId::new("dot_product", n), &n, |b, &n| {
            b.iter(|| {
                syrk_dot(M, n, &a, n, &mut out, M);
                black_box(&out);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_syrk, bench_syrk_width_sweep);
criterion_main!(benches);
