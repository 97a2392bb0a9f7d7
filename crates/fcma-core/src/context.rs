//! Shared per-analysis context handed to every worker task.

use fcma_fmri::{Condition, Dataset, NormalizedEpochs};
use std::sync::Arc;

/// Everything a worker needs besides its voxel range: the normalized
/// epoch matrices and the label/subject structure of the epochs in play.
///
/// The context is built once per analysis and shared across tasks — it
/// corresponds to the brain data the master distributes to workers up
/// front (§3.1.1). Outer cross-validation folds do not get their own
/// context: they are plans over this one, with the held-out subject's
/// epochs left out (`fcma_svm::CvPlan`).
#[derive(Clone)]
pub struct TaskContext {
    /// Normalized epoch matrices (only the epochs in play, in order).
    pub norm: Arc<NormalizedEpochs>,
    /// ±1 target per epoch (parallel to the epochs in `norm`).
    pub y: Arc<Vec<f32>>,
    /// Owning subject per epoch, renumbered to be 0-based contiguous.
    pub subjects: Arc<Vec<usize>>,
    /// Epochs per (renumbered) subject, for the within-subject
    /// normalization grouping. Derived; cached for the hot paths.
    pub subject_ranges: Arc<Vec<std::ops::Range<usize>>>,
}

impl TaskContext {
    /// Build a context over **all** epochs of a dataset.
    pub fn full(dataset: &Dataset) -> Self {
        let keep: Vec<usize> = (0..dataset.n_epochs()).collect();
        Self::subset(dataset, &keep)
    }

    /// Build a context over a subset of epoch indices (must be sorted and
    /// grouped by subject, which any subsequence of the validated epoch
    /// table is). Subjects are renumbered contiguously.
    ///
    /// # Panics
    /// Panics if `keep` is empty or not strictly increasing.
    pub fn subset(dataset: &Dataset, keep: &[usize]) -> Self {
        assert!(!keep.is_empty(), "TaskContext: empty epoch subset");
        assert!(
            keep.windows(2).all(|w| w[0] < w[1]),
            "TaskContext: epoch subset must be strictly increasing"
        );
        let full_norm = NormalizedEpochs::from_dataset_subset(dataset, keep);
        let mut y = Vec::with_capacity(keep.len());
        let mut subjects = Vec::with_capacity(keep.len());
        let mut next_id = 0usize;
        let mut last_orig: Option<usize> = None;
        for &e in keep {
            let ep = &dataset.epochs()[e];
            y.push(match ep.label {
                Condition::A => 1.0,
                Condition::B => -1.0,
            });
            match last_orig {
                Some(prev) if prev == ep.subject => {}
                Some(_) => next_id += 1,
                None => {}
            }
            last_orig = Some(ep.subject);
            subjects.push(next_id);
        }
        let subject_ranges = ranges_of(&subjects);
        TaskContext {
            norm: Arc::new(full_norm),
            y: Arc::new(y),
            subjects: Arc::new(subjects),
            subject_ranges: Arc::new(subject_ranges),
        }
    }

    /// Number of epochs in play.
    pub fn n_epochs(&self) -> usize {
        self.y.len()
    }

    /// Number of brain voxels.
    pub fn n_voxels(&self) -> usize {
        self.norm.n_voxels()
    }

    /// Number of (renumbered) subjects.
    pub fn n_subjects(&self) -> usize {
        self.subject_ranges.len()
    }
}

fn ranges_of(subjects: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for i in 1..=subjects.len() {
        if i == subjects.len() || subjects[i] != subjects[start] {
            out.push(start..i);
            start = i;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcma_fmri::presets;

    #[test]
    fn full_context_shapes() {
        let (d, _) = presets::tiny().generate();
        let ctx = TaskContext::full(&d);
        assert_eq!(ctx.n_epochs(), d.n_epochs());
        assert_eq!(ctx.n_voxels(), d.n_voxels());
        assert_eq!(ctx.n_subjects(), d.n_subjects());
        assert_eq!(ctx.subject_ranges.len(), 4);
        for (s, r) in ctx.subject_ranges.iter().enumerate() {
            assert!(ctx.subjects[r.clone()].iter().all(|&x| x == s));
        }
    }

    #[test]
    fn subset_renumbers_subjects() {
        let (d, _) = presets::tiny().generate();
        // Drop subject 1's epochs entirely.
        let keep: Vec<usize> = (0..d.n_epochs()).filter(|&e| d.epochs()[e].subject != 1).collect();
        let ctx = TaskContext::subset(&d, &keep);
        assert_eq!(ctx.n_subjects(), 3);
        assert_eq!(ctx.n_epochs(), keep.len());
        // Renumbered ids are contiguous 0..3.
        let max = ctx.subjects.iter().copied().max().unwrap();
        assert_eq!(max, 2);
    }

    #[test]
    fn labels_follow_epoch_table() {
        let (d, _) = presets::tiny().generate();
        let ctx = TaskContext::full(&d);
        for (e, ep) in d.epochs().iter().enumerate() {
            let want = if ep.label == Condition::A { 1.0 } else { -1.0 };
            assert_eq!(ctx.y[e], want);
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_subset() {
        let (d, _) = presets::tiny().generate();
        let _ = TaskContext::subset(&d, &[3, 1]);
    }
}
