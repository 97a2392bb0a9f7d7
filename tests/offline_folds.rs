//! Offline analysis forms its outer folds as plans over one full
//! context: each fold's inner LOSO runs on the full kernel with the
//! held-out subject left out. It must give, bit for bit, what a per-fold
//! reference gives — a context over the training subjects alone
//! (`TaskContext::subset`), swept by `score_all_voxels`, then the same
//! final classifier on the held-out subject.

use fcma::core::stage2::corr_normalized_merged;
use fcma::prelude::*;
use fcma::svm::train_phisvm;
use fcma_sync::Pool;

/// Held-out accuracy of the final classifier trained on the other
/// subjects' correlation patterns of `selected` (§5.2.1).
fn final_accuracy(ctx: &TaskContext, selected: &[usize], held: usize) -> f64 {
    let (m, n) = (ctx.n_epochs(), ctx.n_voxels());
    let mut samples = Mat::zeros(m, selected.len() * n);
    for (si, &v) in selected.iter().enumerate() {
        let task = VoxelTask { start: v, count: 1 };
        let corr = corr_normalized_merged(ctx, task, Default::default());
        for e in 0..m {
            samples.row_mut(e)[si * n..(si + 1) * n].copy_from_slice(corr.row(0, e));
        }
    }
    let kernel = KernelMatrix::precompute(&samples);
    let (test, train): (Vec<usize>, Vec<usize>) = (0..m).partition(|&e| ctx.subjects[e] == held);
    let y = |idx: &[usize]| idx.iter().map(|&e| ctx.y[e]).collect::<Vec<f32>>();
    let model = train_phisvm(&kernel, &train, &y(&train), &SmoParams::default());
    model.accuracy(&kernel, &test, &y(&test))
}

#[test]
fn offline_analysis_equals_per_fold_subset_sweeps() {
    let (d, _) = fcma::fmri::presets::tiny().generate();
    let full = TaskContext::full(&d);
    // 96 voxels in tasks of 20: four whole tasks and a ragged 16.
    let cfg = AnalysisConfig { task_size: 20, top_k: 8 };
    for threads in [1usize, 2] {
        let exec = OptimizedExecutor { pool: Pool::new(threads), ..Default::default() };
        let got = offline_analysis(&d, &exec, &cfg);
        assert_eq!(got.folds.len(), d.n_subjects());
        let (mut selections, mut accuracies) = (Vec::new(), 0.0);
        for (held, fold) in got.folds.iter().enumerate() {
            let keep: Vec<usize> =
                (0..d.n_epochs()).filter(|&e| d.epochs()[e].subject != held).collect();
            let train = TaskContext::subset(&d, &keep);
            let selected = select_top_k(&score_all_voxels(&train, &exec, cfg.task_size, None), 8);
            let accuracy = final_accuracy(&full, &selected, held);
            let at = format!("threads={threads} held={held}");
            assert_eq!(fold.held_out, held, "{at}");
            assert_eq!(fold.selected, selected, "{at}");
            assert_eq!(fold.test_accuracy.to_bits(), accuracy.to_bits(), "{at}");
            selections.extend(selected);
            accuracies += accuracy;
        }
        let mean = accuracies / d.n_subjects() as f64;
        assert_eq!(got.mean_test_accuracy.to_bits(), mean.to_bits(), "threads={threads}");
        let mut stable: Vec<usize> = selections.clone();
        stable.sort_unstable();
        stable.dedup();
        let majority = d.n_subjects().div_ceil(2);
        stable.retain(|v| selections.iter().filter(|&s| s == v).count() >= majority);
        assert_eq!(got.stable, stable, "threads={threads}");
    }
}
