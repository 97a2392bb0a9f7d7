//! Top-level analyses: offline nested leave-one-subject-out voxel
//! selection (§5.2.1) and online single-session voxel selection (§5.2.2).

use crate::context::TaskContext;
use crate::executor::TaskExecutor;
use crate::selection::{select_top_k, stable_voxels};
use crate::stage2::corr_normalized_merged;
use crate::task::{partition, VoxelScore, VoxelTask};
use fcma_fmri::Dataset;
use fcma_linalg::tall_skinny::TallSkinnyOpts;
use fcma_linalg::{f64_from_usize, Mat};
use fcma_svm::{train_phisvm, KernelMatrix, SmoParams};
use fcma_trace::span;

/// Parameters shared by the offline and online analyses.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Voxels per task (the paper assigns 120–240 per coprocessor).
    pub task_size: usize,
    /// Number of top voxels to select as the ROI.
    pub top_k: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig { task_size: 64, top_k: 16 }
    }
}

/// Score every brain voxel by running the executor over a task partition.
pub fn score_all_voxels(
    ctx: &TaskContext,
    exec: &dyn TaskExecutor,
    task_size: usize,
    groups: Option<&[usize]>,
) -> Vec<VoxelScore> {
    let _span = span!(
        "analysis.sweep",
        voxels = ctx.n_voxels(),
        task_size = task_size,
        executor = exec.name()
    );
    let mut scores = Vec::with_capacity(ctx.n_voxels());
    for task in partition(ctx.n_voxels(), task_size) {
        scores.extend(exec.process_grouped(ctx, task, groups));
    }
    scores
}

/// One outer cross-validation fold of the offline analysis.
#[derive(Debug, Clone)]
// audit: allow(deadpub) — part of a referenced public signature; demotion trips private_interfaces
pub struct FoldOutcome {
    /// Held-out subject.
    pub held_out: usize,
    /// Voxels selected from the training subjects.
    pub selected: Vec<usize>,
    /// Accuracy of the final classifier on the held-out subject.
    pub test_accuracy: f64,
}

/// Result of the full offline analysis.
#[derive(Debug, Clone)]
// audit: allow(deadpub) — part of a referenced public signature; demotion trips private_interfaces
pub struct OfflineResult {
    /// Per-fold outcomes.
    pub folds: Vec<FoldOutcome>,
    /// Mean held-out accuracy across folds.
    pub mean_test_accuracy: f64,
    /// Voxels selected in a majority of folds (the reliable ROI).
    pub stable: Vec<usize>,
}

/// Offline analysis: nested leave-one-subject-out cross validation.
///
/// For each outer fold, voxel selection runs on the remaining subjects
/// (inner LOSO via the executor's stage 3); a final classifier is then
/// trained on the training subjects' correlation patterns of the selected
/// voxels and tested on the held-out subject (§5.2.1).
///
/// # Panics
/// If the dataset has fewer than 3 subjects (nested LOSO needs them).
pub fn offline_analysis(
    dataset: &Dataset,
    exec: &dyn TaskExecutor,
    cfg: &AnalysisConfig,
) -> OfflineResult {
    let n_subjects = dataset.n_subjects();
    assert!(n_subjects >= 3, "offline analysis needs >= 3 subjects for nested LOSO");
    let full_ctx = TaskContext::full(dataset);
    let mut folds = Vec::with_capacity(n_subjects);
    for held in 0..n_subjects {
        let keep: Vec<usize> =
            (0..dataset.n_epochs()).filter(|&e| dataset.epochs()[e].subject != held).collect();
        let train_ctx = TaskContext::subset(dataset, &keep);
        let scores = score_all_voxels(&train_ctx, exec, cfg.task_size, None);
        let selected = select_top_k(&scores, cfg.top_k);
        let test_accuracy = final_classifier_accuracy(&full_ctx, dataset, &selected, held);
        folds.push(FoldOutcome { held_out: held, selected, test_accuracy });
    }
    let mean_test_accuracy =
        folds.iter().map(|f| f.test_accuracy).sum::<f64>() / f64_from_usize(folds.len());
    let stable = stable_voxels(
        &folds.iter().map(|f| f.selected.clone()).collect::<Vec<_>>(),
        folds.len().div_ceil(2),
    );
    OfflineResult { folds, mean_test_accuracy, stable }
}

/// Sample matrix of the selected voxels: one row per epoch, holding the
/// selected voxels' normalized correlation vectors concatenated.
// audit: allow(panicpath) — row slices are sized by the same m/n/selected that sized the samples matrix
pub(crate) fn selected_samples(ctx: &TaskContext, selected: &[usize]) -> Mat {
    let m = ctx.n_epochs();
    let n = ctx.n_voxels();
    let mut samples = Mat::zeros(m, selected.len() * n);
    for (si, &v) in selected.iter().enumerate() {
        let corr = corr_normalized_merged(
            ctx,
            VoxelTask { start: v, count: 1 },
            TallSkinnyOpts::default(),
        );
        for e in 0..m {
            samples.row_mut(e)[si * n..(si + 1) * n].copy_from_slice(corr.row(0, e));
        }
    }
    samples
}

/// Train the final classifier on the selected voxels' correlation
/// patterns (training subjects) and test on the held-out subject.
fn final_classifier_accuracy(
    full_ctx: &TaskContext,
    dataset: &Dataset,
    selected: &[usize],
    held: usize,
) -> f64 {
    let m = full_ctx.n_epochs();
    let kernel = KernelMatrix::precompute(&selected_samples(full_ctx, selected));
    let train_idx: Vec<usize> = (0..m).filter(|&e| dataset.epochs()[e].subject != held).collect();
    let test_idx: Vec<usize> = (0..m).filter(|&e| dataset.epochs()[e].subject == held).collect();
    let train_y: Vec<f32> = train_idx.iter().map(|&e| full_ctx.y[e]).collect();
    let test_y: Vec<f32> = test_idx.iter().map(|&e| full_ctx.y[e]).collect();
    let model = train_phisvm(&kernel, &train_idx, &train_y, &SmoParams::default());
    model.accuracy(&kernel, &test_idx, &test_y)
}

/// Result of the online (single-session) voxel selection.
#[derive(Debug, Clone)]
// audit: allow(deadpub) — part of a referenced public signature; demotion trips private_interfaces
pub struct OnlineResult {
    /// Selected voxels for the neurofeedback classifier.
    pub selected: Vec<usize>,
    /// All voxel scores (for inspection).
    pub scores: Vec<VoxelScore>,
}

/// Online analysis: select voxels from one session's data using k-fold
/// cross validation over epochs (no nested CV — §5.2.2).
///
/// Folds are stratified by condition so every fold sees both classes.
pub fn online_voxel_selection(
    dataset: &Dataset,
    exec: &dyn TaskExecutor,
    cfg: &AnalysisConfig,
    n_folds: usize,
) -> OnlineResult {
    assert!(n_folds >= 2, "online selection needs >= 2 folds");
    let ctx = TaskContext::full(dataset);
    let groups = stratified_folds(&ctx.y, n_folds);
    let scores = score_all_voxels(&ctx, exec, cfg.task_size, Some(&groups));
    let selected = select_top_k(&scores, cfg.top_k);
    OnlineResult { selected, scores }
}

/// Assign epochs to `n_folds` groups, round-robin within each condition,
/// so every fold contains both classes.
///
/// # Panics
/// If `n_folds == 0`.
// audit: allow(deadpub) — called by the stand-alone benchmark package (online-session workload), which the audit does not scan
pub fn stratified_folds(y: &[f32], n_folds: usize) -> Vec<usize> {
    let mut groups = vec![0usize; y.len()];
    let mut pos = 0usize;
    let mut neg = 0usize;
    for (e, &label) in y.iter().enumerate() {
        if label > 0.0 {
            groups[e] = pos % n_folds;
            pos += 1;
        } else {
            groups[e] = neg % n_folds;
            neg += 1;
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::OptimizedExecutor;
    use crate::selection::recovery_rate;
    use fcma_fmri::presets;

    #[test]
    fn stratified_folds_cover_both_classes() {
        let y = vec![1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        let g = stratified_folds(&y, 2);
        for fold in 0..2 {
            let labels: Vec<f32> =
                y.iter().zip(&g).filter(|(_, &gg)| gg == fold).map(|(&l, _)| l).collect();
            assert!(labels.contains(&1.0) && labels.contains(&-1.0));
        }
    }

    /// End-to-end offline analysis on the tiny planted dataset: FCMA must
    /// recover the planted network and classify held-out subjects above
    /// chance — the reproduction of "We reproduced the results used in
    /// [30] and [16]" (§5.2.1) against a verifiable ground truth.
    #[test]
    fn offline_analysis_recovers_planted_network() {
        let mut cfg_data = presets::tiny();
        cfg_data.coupling = 1.8;
        let (d, gt) = cfg_data.generate();
        let exec = OptimizedExecutor::default();
        let cfg = AnalysisConfig { task_size: 32, top_k: gt.informative.len() };
        let result = offline_analysis(&d, &exec, &cfg);

        assert_eq!(result.folds.len(), d.n_subjects());
        assert!(
            result.mean_test_accuracy > 0.7,
            "held-out accuracy {:.3}",
            result.mean_test_accuracy
        );
        let rec = recovery_rate(&result.stable, &gt.informative);
        assert!(rec >= 0.5, "stable ROI recovered only {rec:.2} of the planted network");
    }

    #[test]
    fn online_selection_finds_informative_voxels() {
        let mut cfg_data = presets::tiny();
        cfg_data.coupling = 2.0;
        cfg_data.n_subjects = 1;
        cfg_data.epochs_per_subject = 16;
        let (d, gt) = cfg_data.generate();
        let exec = OptimizedExecutor::default();
        let cfg = AnalysisConfig { task_size: 32, top_k: gt.informative.len() };
        let r = online_voxel_selection(&d, &exec, &cfg, 4);
        let rec = recovery_rate(&r.selected, &gt.informative);
        assert!(rec >= 0.5, "online selection recovered only {rec:.2}");
        assert_eq!(r.scores.len(), d.n_voxels());
    }
}
