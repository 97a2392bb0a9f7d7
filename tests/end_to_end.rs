//! Cross-crate integration tests: the full FCMA pipeline from synthetic
//! data generation through voxel selection, exercising both executors and
//! the cluster driver.

use fcma::prelude::*;
use std::sync::Arc;

fn planted(coupling: f32, n_voxels: usize) -> (Dataset, GroundTruth) {
    let mut cfg = fcma::fmri::presets::tiny();
    cfg.n_voxels = n_voxels;
    cfg.n_informative = (n_voxels / 8).max(4) & !1;
    cfg.coupling = coupling;
    cfg.generate()
}

#[test]
fn optimized_pipeline_recovers_planted_network() {
    let (dataset, truth) = planted(1.8, 96);
    let ctx = TaskContext::full(&dataset);
    let scores = score_all_voxels(&ctx, &OptimizedExecutor::default(), 32, None);
    let selected = select_top_k(&scores, truth.informative.len());
    let rec = recovery_rate(&selected, &truth.informative);
    assert!(rec >= 0.75, "optimized pipeline recovered only {rec:.2}");
}

#[test]
fn baseline_pipeline_recovers_planted_network() {
    let (dataset, truth) = planted(1.8, 64);
    let ctx = TaskContext::full(&dataset);
    let scores = score_all_voxels(&ctx, &BaselineExecutor::default(), 32, None);
    let selected = select_top_k(&scores, truth.informative.len());
    let rec = recovery_rate(&selected, &truth.informative);
    assert!(rec >= 0.75, "baseline pipeline recovered only {rec:.2}");
}

#[test]
fn baseline_and_optimized_rank_voxels_consistently() {
    let (dataset, _) = planted(1.5, 64);
    let ctx = TaskContext::full(&dataset);
    let base = score_all_voxels(&ctx, &BaselineExecutor::default(), 16, None);
    let opt = score_all_voxels(&ctx, &OptimizedExecutor::default(), 16, None);
    // Spearman-ish check: the top-8 sets must overlap substantially.
    let top_base = select_top_k(&base, 8);
    let top_opt = select_top_k(&opt, 8);
    let overlap = top_base.iter().filter(|v| top_opt.contains(v)).count();
    assert!(overlap >= 5, "executor top-8 overlap only {overlap}/8");
}

#[test]
fn cluster_run_equals_sequential_run() {
    let (dataset, _) = planted(1.4, 80);
    let ctx = TaskContext::full(&dataset);
    let sequential = score_all_voxels(&ctx, &OptimizedExecutor::default(), 20, None);
    let cluster = run_cluster(&ctx, Arc::new(OptimizedExecutor::default()), 3, 20)
        .expect("healthy cluster run");
    assert_eq!(cluster.scores.len(), sequential.len());
    for (a, b) in cluster.scores.iter().zip(&sequential) {
        assert_eq!(a.voxel, b.voxel);
        assert!((a.accuracy - b.accuracy).abs() < 1e-12);
    }
}

#[test]
fn shuffled_labels_destroy_the_signal() {
    // Permuting condition labels must push informative voxels to chance:
    // the end-to-end null-hypothesis check that guards against label
    // leakage anywhere in the pipeline.
    let (dataset, truth) = planted(1.8, 64);
    let (data, mut epochs) = dataset.into_parts();
    // Swap the labels of epoch pairs *within* subjects, scrambling the
    // condition structure while keeping both classes per subject.
    for chunk in epochs.chunks_mut(2) {
        if chunk.len() == 2 && chunk[0].subject == chunk[1].subject {
            let tmp = chunk[0].label;
            chunk[0].label = chunk[1].label;
            chunk[1].label = tmp;
        }
    }
    // Rebuild with rotated labels: condition A/B assignment is now
    // uncorrelated with the planted coupling sign within each subject.
    let rotated: Vec<EpochSpec> = epochs
        .iter()
        .enumerate()
        .map(|(i, e)| EpochSpec {
            label: if i % 2 == 0 { Condition::A } else { Condition::B },
            ..*e
        })
        .collect();
    let dataset = Dataset::new(data, rotated).unwrap();
    let ctx = TaskContext::full(&dataset);
    let scores = score_all_voxels(&ctx, &OptimizedExecutor::default(), 32, None);
    let mean_inf: f64 = truth.informative.iter().map(|&v| scores[v].accuracy).sum::<f64>()
        / truth.informative.len() as f64;
    assert!(mean_inf < 0.72, "label-scrambled informative voxels still score {mean_inf:.3}");
}

#[test]
fn analysis_config_defaults_work_end_to_end() {
    let (dataset, _) = planted(1.6, 64);
    let r = fcma::core::offline_analysis(
        &dataset,
        &OptimizedExecutor::default(),
        &AnalysisConfig { task_size: 32, top_k: 8 },
    );
    assert_eq!(r.folds.len(), dataset.n_subjects());
    assert!(r.mean_test_accuracy >= 0.5, "below chance: {}", r.mean_test_accuracy);
    for f in &r.folds {
        assert_eq!(f.selected.len(), 8);
    }
}
