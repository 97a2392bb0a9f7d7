//! Table 5/6 (stage 1) on real hardware: the tall-skinny correlation
//! multiply — reference vs generic blocked (MKL stand-in) vs the paper's
//! shape-specialized kernel, plus the strip-width ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fcma_linalg::tall_skinny::{corr_tall_skinny, EpochPair, TallSkinnyOpts};
use fcma_linalg::{gemm_blocked, gemm_ref, Mat};
use std::hint::black_box;

/// Scaled stage-1 shape: 64-voxel task, 2,048 brain voxels, 24 epochs of
/// 12 time points (full shape has 34,470 × 216).
const V: usize = 64;
const N: usize = 2048;
const M: usize = 24;
const K: usize = 12;

fn pseudo_mat(rows: usize, cols: usize, seed: u32) -> Mat {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(7);
    Mat::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((state >> 8) as f32 / (1 << 24) as f32) - 0.5
    })
}

fn epochs() -> (Vec<Mat>, Vec<Mat>) {
    let assigned: Vec<Mat> = (0..M).map(|e| pseudo_mat(V, K, 10 + e as u32)).collect();
    let brain: Vec<Mat> = (0..M).map(|e| pseudo_mat(K, N, 90 + e as u32)).collect();
    (assigned, brain)
}

fn bench_stage1(c: &mut Criterion) {
    let (assigned, brain) = epochs();
    let pairs: Vec<EpochPair<'_>> =
        assigned.iter().zip(&brain).map(|(a, b)| EpochPair { assigned: a, brain: b }).collect();
    let mut out = vec![0.0f32; V * M * N];

    let mut g = c.benchmark_group("stage1_corr");
    g.sample_size(20);

    g.bench_function("reference_triple_loop", |bch| {
        bch.iter(|| {
            for (e, p) in pairs.iter().enumerate() {
                gemm_ref(
                    V,
                    N,
                    K,
                    p.assigned.as_slice(),
                    K,
                    p.brain.as_slice(),
                    N,
                    &mut out[e * N..],
                    M * N,
                );
            }
            black_box(&out);
        })
    });

    g.bench_function("generic_blocked_per_epoch (MKL stand-in)", |bch| {
        bch.iter(|| {
            for (e, p) in pairs.iter().enumerate() {
                gemm_blocked(
                    V,
                    N,
                    K,
                    p.assigned.as_slice(),
                    K,
                    p.brain.as_slice(),
                    N,
                    &mut out[e * N..],
                    M * N,
                );
            }
            black_box(&out);
        })
    });

    g.bench_function("tall_skinny_optimized", |bch| {
        bch.iter(|| {
            corr_tall_skinny(&pairs, &mut out, TallSkinnyOpts::default());
            black_box(&out);
        })
    });
    g.finish();
}

fn bench_strip_width(c: &mut Criterion) {
    let (assigned, brain) = epochs();
    let pairs: Vec<EpochPair<'_>> =
        assigned.iter().zip(&brain).map(|(a, b)| EpochPair { assigned: a, brain: b }).collect();
    let mut out = vec![0.0f32; V * M * N];

    let mut g = c.benchmark_group("stage1_strip_width_ablation");
    g.sample_size(20);
    for tile in [64usize, 128, 256, 512, 1024, 2048] {
        g.bench_with_input(BenchmarkId::from_parameter(tile), &tile, |bch, &tile| {
            bch.iter(|| {
                corr_tall_skinny(&pairs, &mut out, TallSkinnyOpts { tile_cols: tile });
                black_box(&out);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_stage1, bench_strip_width);
criterion_main!(benches);
