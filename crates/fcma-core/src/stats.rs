//! Statistical validation of selected voxels: permutation testing and
//! false-discovery-rate control.
//!
//! The paper notes that "the selected voxels across different folds can
//! be statistically compared to identify the reliable voxels whose
//! correlation patterns ... are informative" (§5.2.1). This module
//! provides the standard machinery: a within-subject label-permutation
//! null distribution for a voxel's CV accuracy, permutation p-values, and
//! Benjamini–Hochberg FDR selection over the whole brain.

use crate::context::TaskContext;
use crate::executor::TaskExecutor;
use crate::task::VoxelTask;
use fcma_linalg::f64_from_usize;
use fcma_svm::CvPlan;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Permute labels *within each subject* (the exchangeable unit in a
/// subject-level design), preserving each subject's class balance.
///
/// # Panics
/// If `y` and `subjects` differ in length.
pub(crate) fn permute_labels_within_subject(
    y: &[f32],
    subjects: &[usize],
    rng: &mut ChaCha8Rng,
) -> Vec<f32> {
    assert_eq!(y.len(), subjects.len(), "permute: length mismatch");
    let mut out = y.to_vec();
    let n_subjects = subjects.iter().copied().max().map_or(0, |s| s + 1);
    for s in 0..n_subjects {
        let idx: Vec<usize> = (0..y.len()).filter(|&t| subjects[t] == s).collect();
        let mut labels: Vec<f32> = idx.iter().map(|&t| y[t]).collect();
        labels.shuffle(rng);
        for (&t, &l) in idx.iter().zip(&labels) {
            out[t] = l;
        }
    }
    out
}

/// Permutation p-value with the standard +1 correction:
/// `(1 + #{null ≥ observed}) / (1 + n_perms)`.
pub(crate) fn permutation_p_value(observed: f64, null: &[f64]) -> f64 {
    let ge = null.iter().filter(|&&v| v >= observed - 1e-12).count();
    f64_from_usize(1 + ge) / f64_from_usize(1 + null.len())
}

/// Full permutation test for one voxel: its LOSO accuracy under the
/// context's labels and subjects, and the permutation p-value of that
/// accuracy against `n_perms` re-runs with labels shuffled within
/// subject. Deterministic in `seed`.
///
/// One [`TaskExecutor::process_on`] call on the one-voxel task: the
/// voxel's kernel is built once and cross-validated under the observed
/// plan and every permuted one.
///
/// # Panics
/// If `voxel` is not a voxel of `ctx`, if `exec` returns no scores, or
/// as [`fcma_svm::loso_cross_validate`].
pub fn voxel_permutation_test(
    ctx: &TaskContext,
    exec: &dyn TaskExecutor,
    voxel: usize,
    n_perms: usize,
    seed: u64,
) -> (f64, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let perms: Vec<Vec<f32>> = (0..n_perms)
        .map(|_| permute_labels_within_subject(&ctx.y, &ctx.subjects, &mut rng))
        .collect();
    let plans: Vec<CvPlan<'_>> = std::iter::once(&ctx.y[..])
        .chain(perms.iter().map(Vec::as_slice))
        .map(|y| CvPlan { y, groups: &ctx.subjects })
        .collect();
    let task = VoxelTask { start: voxel, count: 1 };
    let accuracies: Vec<f64> = exec
        .process_on(ctx, task, &plans, &exec.pool())
        .iter()
        .flat_map(|scores| scores.iter().map(|s| s.accuracy))
        .collect();
    let (&observed, null) =
        accuracies.split_first().expect("permutation test: the executor returned no scores");
    (observed, permutation_p_value(observed, null))
}

/// Benjamini–Hochberg FDR selection: returns the indices of hypotheses
/// rejected at false-discovery rate `q`.
///
/// # Panics
/// Panics if `q` is outside `(0, 1)` or any p-value is outside `[0, 1]`.
pub fn benjamini_hochberg(p_values: &[f64], q: f64) -> Vec<usize> {
    assert!((0.0..1.0).contains(&q) && q > 0.0, "BH: q must be in (0,1)");
    assert!(p_values.iter().all(|p| (0.0..=1.0).contains(p)), "BH: p-values must be in [0,1]");
    let m = p_values.len();
    if m == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| p_values[a].partial_cmp(&p_values[b]).expect("no NaN p-values"));
    // Largest k with p_(k) <= k/m * q (1-indexed k).
    let mut cutoff = None;
    for (rank0, &i) in order.iter().enumerate() {
        let k = rank0 + 1;
        if p_values[i] <= f64_from_usize(k) / f64_from_usize(m) * q {
            cutoff = Some(rank0);
        }
    }
    match cutoff {
        None => Vec::new(),
        Some(c) => {
            let mut rejected: Vec<usize> = order[..=c].to_vec();
            rejected.sort_unstable();
            rejected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::OptimizedExecutor;
    use fcma_fmri::presets;

    #[test]
    fn permutation_preserves_within_subject_balance() {
        let y = vec![1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, -1.0];
        let subjects = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..20 {
            let p = permute_labels_within_subject(&y, &subjects, &mut rng);
            for s in 0..2 {
                let pos: f32 = (0..8).filter(|&t| subjects[t] == s).map(|t| p[t]).sum();
                let orig: f32 = (0..8).filter(|&t| subjects[t] == s).map(|t| y[t]).sum();
                assert_eq!(pos, orig, "subject {s} balance changed");
            }
        }
    }

    #[test]
    fn p_value_extremes() {
        let null = vec![0.4, 0.5, 0.45, 0.55, 0.5];
        // Observed above all nulls → smallest possible p = 1/(n+1).
        assert!((permutation_p_value(0.99, &null) - 1.0 / 6.0).abs() < 1e-12);
        // Observed below all nulls → p = 1.
        assert!((permutation_p_value(0.1, &null) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bh_rejects_nothing_on_uniform_ps() {
        let ps: Vec<f64> = (1..=20).map(|i| i as f64 / 20.0).collect();
        let rejected = benjamini_hochberg(&ps, 0.05);
        // p_(k) = k/20 vs threshold k/20·0.05: nothing passes.
        assert!(rejected.is_empty(), "{rejected:?}");
    }

    #[test]
    fn bh_rejects_strong_signals() {
        let mut ps = vec![0.5f64; 18];
        ps.push(0.001);
        ps.push(0.002);
        let rejected = benjamini_hochberg(&ps, 0.05);
        assert_eq!(rejected, vec![18, 19]);
    }

    #[test]
    fn bh_step_up_includes_borderline_below_cutoff() {
        // Classic step-up behavior: a p-value above its own threshold is
        // still rejected if a later one passes.
        let ps = vec![0.01, 0.049, 0.9, 0.9];
        // m=4, q=0.1: thresholds 0.025, 0.05, 0.075, 0.1.
        // p_(1)=0.01 <= 0.025 ✓; p_(2)=0.049 <= 0.05 ✓ → reject both.
        let rejected = benjamini_hochberg(&ps, 0.1);
        assert_eq!(rejected, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "q must be")]
    fn bh_rejects_bad_q() {
        let _ = benjamini_hochberg(&[0.5], 1.5);
    }

    /// End-to-end: a planted voxel on signal-bearing data is significant;
    /// the same voxel on a *signal-free* dataset is not. (Note: on
    /// signal-bearing data even "uninformative" voxels carry weak signal
    /// through their correlations *with* the planted network — the full
    /// correlation vector spans the whole brain — so the clean null
    /// requires removing the planted coupling entirely.)
    #[test]
    fn permutation_test_separates_signal_from_noise() {
        let exec = OptimizedExecutor::default();
        let n_perms = 39; // min p = 0.025

        let mut cfg = presets::tiny();
        cfg.coupling = 2.0;
        let (d, gt) = cfg.generate();
        let voxel = gt.informative[0];
        let (acc_inf, p_inf) =
            voxel_permutation_test(&TaskContext::full(&d), &exec, voxel, n_perms, 42);
        assert!(p_inf <= 0.05, "informative voxel p = {p_inf} (acc {acc_inf})");

        // Same voxel index, zero coupling: no condition signal anywhere.
        cfg.coupling = 0.0;
        let (d0, _) = cfg.generate();
        let (acc_null, p_null) =
            voxel_permutation_test(&TaskContext::full(&d0), &exec, voxel, n_perms, 42);
        assert!(
            p_null > 0.05,
            "signal-free voxel p = {p_null} (acc {acc_null}) should be nonsignificant"
        );
        assert!(acc_inf > acc_null);
    }
}
