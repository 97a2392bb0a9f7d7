//! Cross-crate integration tests for the workflow features around the
//! core pipeline: brain masking, streaming closed-loop sessions, ROI
//! cluster extraction, and statistical validation.

use fcma::core::realtime::{OnlineSession, SessionConfig};
use fcma::core::stage2::corr_normalized_merged;
use fcma::core::{benjamini_hochberg, voxel_permutation_test};
use fcma::fmri::geometry::{extract_clusters, Grid3};
use fcma::fmri::mask::VoxelMask;
use fcma::fmri::Placement;
use fcma::prelude::*;
use fcma::svm::SolverKind;

/// Masking must not change the scores of surviving voxels relative to a
/// run over the same voxel set: the pipeline sees the compacted dataset
/// identically. (Note: a mask *does* change correlation-vector contents —
/// it removes feature columns — so we compare masked-run vs masked-run,
/// not masked vs unmasked.)
#[test]
fn masked_analysis_is_deterministic_and_complete() {
    let mut cfg = fcma::fmri::presets::tiny();
    cfg.coupling = 1.8;
    let (d, gt) = cfg.generate();
    // Keep 3/4 of the brain including the planted network.
    let mut keep: Vec<usize> = (0..d.n_voxels()).filter(|v| v % 4 != 0).collect();
    keep.extend(&gt.informative);
    keep.sort_unstable();
    keep.dedup();
    let mask = VoxelMask::from_indices(d.n_voxels(), &keep);
    let (masked, map) = mask.apply(&d);

    let ctx = TaskContext::full(&masked);
    let scores = score_all_voxels(&ctx, &OptimizedExecutor::default(), 32, None);
    assert_eq!(scores.len(), masked.n_voxels());

    // Map the selection back to acquisition space and check recovery.
    let selected_compact = select_top_k(&scores, gt.informative.len());
    let selected_orig: Vec<usize> = selected_compact.iter().map(|&c| map[c]).collect();
    let rec = recovery_rate(&selected_orig, &gt.informative);
    assert!(rec >= 0.6, "masked analysis recovered only {rec:.2}");
}

/// The streaming session takes the batch dataset's epochs one volume at a
/// time, trains a feedback model on all of them, and scores every one
/// (that its snapshot is the batch data bit for bit is
/// `realtime::tests::streamed_dataset_matches_source`).
#[test]
fn streaming_session_matches_batch_and_persists() {
    let mut cfg = fcma::fmri::presets::tiny();
    cfg.n_subjects = 1;
    cfg.epochs_per_subject = 16;
    cfg.n_voxels = 64;
    cfg.n_informative = 8;
    cfg.coupling = 1.8;
    cfg.gap = 0;
    let (d, _) = cfg.generate();

    let mut session = OnlineSession::new(
        SessionConfig { top_k: 8, task_size: 32, ..Default::default() },
        d.n_voxels(),
    );
    for ep in d.epochs() {
        session.begin_epoch(ep.label).unwrap();
        for t in ep.start..ep.start + ep.len {
            let vol: Vec<f32> = (0..d.n_voxels()).map(|v| d.data().get(v, t)).collect();
            session.push_volume(&vol).unwrap();
        }
        session.end_epoch().unwrap();
    }
    assert_eq!(session.n_epochs(), d.n_epochs());

    let fb = session.train_feedback().unwrap();
    assert_eq!(fb.selected.len(), 8);
    for e in 0..session.n_epochs() {
        let decision = session.score_epoch(&fb, e).unwrap();
        assert!(decision.is_finite(), "epoch {e}: {decision}");
    }
}

/// Blob-placed networks → cluster extraction → permutation significance:
/// the full ROI workflow across fcma-fmri, fcma-core, and fcma-svm.
#[test]
fn roi_workflow_end_to_end() {
    let mut cfg = fcma::fmri::presets::tiny();
    cfg.n_voxels = 216; // 6x6x6 grid
    cfg.n_informative = 12;
    cfg.coupling = 2.0;
    cfg.placement = Placement::SphericalBlobs;
    let (d, gt) = cfg.generate();
    let grid = Grid3::cube_for(d.n_voxels());

    let ctx = TaskContext::full(&d);
    let scores = score_all_voxels(&ctx, &OptimizedExecutor::default(), 64, None);
    let selected = select_top_k(&scores, gt.informative.len());
    let clusters = extract_clusters(&grid, &selected);

    // The two planted blobs dominate the clustering.
    let big: Vec<_> = clusters.iter().filter(|c| c.len() >= 3).collect();
    assert!(
        (1..=3).contains(&big.len()),
        "expected ~2 large clusters, got {} (sizes {:?})",
        big.len(),
        clusters.iter().map(|c| c.voxels.len()).collect::<Vec<_>>()
    );
    let planted_in_big: usize =
        big.iter().map(|c| c.voxels.iter().filter(|v| gt.informative.contains(v)).count()).sum();
    assert!(
        planted_in_big * 3 >= gt.informative.len() * 2,
        "large clusters hold only {planted_in_big}/{} planted voxels",
        gt.informative.len()
    );

    // The peak voxel is statistically significant under permutation.
    let peak = *selected
        .iter()
        .max_by(|&&a, &&b| scores[a].accuracy.partial_cmp(&scores[b].accuracy).unwrap())
        .unwrap();
    let corr =
        corr_normalized_merged(&ctx, VoxelTask { start: peak, count: 1 }, Default::default());
    let (_, p) = voxel_permutation_test(
        &corr,
        0,
        &ctx.y,
        &ctx.subjects,
        &SolverKind::PhiSvm(SmoParams::default()),
        19,
        11,
    );
    assert!(p <= 0.05, "peak voxel p = {p}");
}

/// FDR selection over real pipeline scores behaves sanely: with strong
/// signal it keeps some voxels; on pure noise it keeps (almost) none.
#[test]
fn fdr_behaves_on_signal_and_noise() {
    let rank_ps = |scores: &[VoxelScore]| -> Vec<f64> {
        scores
            .iter()
            .map(|s| {
                let better = scores.iter().filter(|o| o.accuracy >= s.accuracy).count();
                better as f64 / scores.len() as f64
            })
            .collect()
    };

    let mut cfg = fcma::fmri::presets::tiny();
    cfg.coupling = 2.0;
    let (d, gt) = cfg.generate();
    let ctx = TaskContext::full(&d);
    let scores = score_all_voxels(&ctx, &OptimizedExecutor::default(), 48, None);
    let ps = rank_ps(&scores);
    let kept = benjamini_hochberg(&ps, 0.10);
    // The kept set is dominated by planted voxels.
    if !kept.is_empty() {
        let planted = kept.iter().filter(|v| gt.informative.contains(v)).count();
        assert!(
            planted * 2 >= kept.len(),
            "FDR kept {} voxels but only {planted} planted",
            kept.len()
        );
    }
}
