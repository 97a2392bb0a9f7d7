//! Cross-commit oracle for stage 2's schedules.
//!
//! The agreement tests above hold the schedules to each other within
//! 1e-4; this one pins each schedule's *bits* across builds. Every hash
//! below was captured at commit 3c80782, before the schedules shared one
//! z-scoring body; a rewrite that moves one z-value, one Gram entry or
//! one handed-out statistic fails here. Regenerate only for a change
//! that is meant to alter stage 2's arithmetic: the failure message
//! prints the table to paste.

use super::*;
use crate::stage1::{corr_baseline, corr_optimized};
use fcma_fmri::presets;

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn f32s(&mut self, xs: &[f32]) {
        for x in xs {
            for b in x.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

fn hash(xs: &[f32]) -> u64 {
    let mut h = Fnv::new();
    h.f32s(xs);
    h.0
}

fn kernels_hash(kernels: &[KernelMatrix]) -> u64 {
    let mut h = Fnv::new();
    for k in kernels {
        for i in 0..k.n() {
            h.f32s(k.row(i));
        }
    }
    h.0
}

/// The two shapes: `presets::tiny()` (N = 96, one SYRK panel) and three
/// subjects of ten epochs over N = 211, a multiple of neither the
/// register tile's NR nor PANEL_K, so tiles and strips end ragged.
fn shapes() -> [(TaskContext, VoxelTask, Vec<usize>); 2] {
    let (d, _) = presets::tiny().generate();
    let tiny = (TaskContext::full(&d), VoxelTask { start: 4, count: 9 }, vec![7, 0, 95, 33]);
    let cfg = fcma_fmri::SynthConfig {
        n_voxels: 211,
        n_subjects: 3,
        epochs_per_subject: 10,
        ..presets::tiny()
    };
    let nr = fcma_linalg::microkernel::NR;
    assert!(!cfg.n_voxels.is_multiple_of(nr) && !cfg.n_voxels.is_multiple_of(PANEL_K));
    let (d, _) = cfg.generate();
    let ragged =
        (TaskContext::full(&d), VoxelTask { start: 1, count: 7 }, vec![210, 3, 100, 41, 0]);
    [tiny, ragged]
}

/// One row per shape: baseline, separated, merged (default tiles and
/// 24-column tiles), fused Grams (one strip and one-panel strips), the
/// selected samples and the statistics they hand out.
fn schedule_hashes() -> Vec<[u64; 8]> {
    shapes()
        .iter()
        .map(|(ctx, task, selected)| {
            let mut base = corr_baseline(ctx, *task);
            normalize_baseline(&mut base, ctx);
            let mut sep = corr_optimized(ctx, *task, TallSkinnyOpts::default());
            normalize_separated(&mut sep, ctx);
            let merged = corr_normalized_merged(ctx, *task, TallSkinnyOpts::default());
            let tiled = corr_normalized_merged(ctx, *task, TallSkinnyOpts { tile_cols: 24 });
            let mut stats = Fnv::new();
            let samples = selected_samples(ctx, selected, |mean, inv_std| {
                stats.f32s(mean);
                stats.f32s(inv_std);
            });
            [
                hash(&base.buf),
                hash(&sep.buf),
                hash(&merged.buf),
                hash(&tiled.buf),
                kernels_hash(&fused_kernels(ctx, *task)),
                kernels_hash(&fused_kernels_within(ctx, *task, 0)),
                hash(samples.as_slice()),
                stats.0,
            ]
        })
        .collect()
}

const GOLDEN: [[u64; 8]; 2] = [
    [
        0xaad9_aad8_d9fe_3622,
        0xaad9_aad8_d9fe_3622,
        0xaad9_aad8_d9fe_3622,
        0xaad9_aad8_d9fe_3622,
        0xbbe3_91e3_b686_d34d,
        0xbbe3_91e3_b686_d34d,
        0x225c_f758_45ac_8c6b,
        0xbfb2_e2ff_1600_5485,
    ],
    [
        0xc361_3320_ebad_76d3,
        0xc361_3320_ebad_76d3,
        0xc361_3320_ebad_76d3,
        0xc361_3320_ebad_76d3,
        0x4882_6524_fd40_304d,
        0x4882_6524_fd40_304d,
        0x1d95_b36b_912c_e2f2,
        0xd817_5d17_aa1a_7463,
    ],
];

#[test]
fn stage2_bits_match_the_parent_commit() {
    let got = schedule_hashes();
    let table: String = got
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|h| format!("{h:#018x}")).collect();
            format!("    [{}],\n", cells.join(", "))
        })
        .collect();
    assert!(got == GOLDEN, "stage 2 bits moved; actual table:\n{table}");
}
