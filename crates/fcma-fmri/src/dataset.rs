//! Core fMRI dataset types.
//!
//! An fMRI dataset is a voxels × time activity matrix plus an *epoch
//! table*: labeled windows of time points during which the subject
//! performed one of two task conditions (paper §3.1). FCMA consumes the
//! dataset epoch-by-epoch, so the types here are organized around that
//! access pattern.

use fcma_linalg::Mat;
use std::fmt;

/// Experimental condition label of an epoch. FCMA is a binary
/// classification analysis, so exactly two conditions exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Condition {
    /// First condition (e.g. "face" in the face-scene dataset).
    A,
    /// Second condition (e.g. "scene").
    B,
}

impl Condition {
    /// The SVM target value: `A → +1`, `B → −1`.
    pub fn sign(self) -> f32 {
        match self {
            Condition::A => 1.0,
            Condition::B => -1.0,
        }
    }

    /// Parse from the on-disk epoch-table token (`0`/`A` or `1`/`B`).
    pub fn parse(tok: &str) -> Result<Self, String> {
        match tok {
            "0" | "A" | "a" => Ok(Condition::A),
            "1" | "B" | "b" => Ok(Condition::B),
            other => Err(format!("unknown condition label {other:?}")),
        }
    }

    /// The on-disk token.
    pub(crate) fn token(self) -> &'static str {
        match self {
            Condition::A => "0",
            Condition::B => "1",
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.token())
    }
}

/// One labeled time epoch: a window `[start, start + len)` of time points
/// during which subject `subject` experienced condition `label`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSpec {
    /// Owning subject (0-based, contiguous).
    pub subject: usize,
    /// Task condition during the window.
    pub label: Condition,
    /// First time point of the window.
    pub start: usize,
    /// Number of time points.
    pub len: usize,
}

/// A full fMRI dataset: activity matrix + epoch table.
///
/// `data` is `n_voxels × n_timepoints` row-major (each row is one voxel's
/// time series). Epochs are stored grouped by subject in subject order, as
/// the within-subject normalization stage requires.
#[derive(Debug, Clone)]
pub struct Dataset {
    data: Mat,
    epochs: Vec<EpochSpec>,
    n_subjects: usize,
}

/// Errors raised by [`Dataset::new`] validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// An epoch window exceeds the time axis.
    EpochOutOfRange {
        /// Index of the offending epoch.
        epoch: usize,
        /// First time point of its window.
        start: usize,
        /// Length of its window in time points.
        len: usize,
        /// Length of the dataset's time axis.
        n_timepoints: usize,
    },
    /// An epoch is shorter than 2 time points, over which a correlation
    /// is undefined.
    ShortEpoch {
        /// Index of the offending epoch.
        epoch: usize,
        /// Its length in time points (0 or 1).
        len: usize,
    },
    /// Subject ids are not 0-based contiguous or epochs are not grouped by
    /// subject in nondecreasing order.
    BadSubjectOrder {
        /// Index of the first epoch that breaks the grouping.
        epoch: usize,
    },
    /// The dataset has no epochs at all.
    NoEpochs,
    /// A subject's epochs are all one condition (SVM needs both classes).
    SingleClassSubject {
        /// The subject whose epochs carry a single condition.
        subject: usize,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::EpochOutOfRange { epoch, start, len, n_timepoints } => write!(
                f,
                "epoch {epoch} window of {len} time points from {start} exceeds \
                 {n_timepoints} time points"
            ),
            DatasetError::ShortEpoch { epoch, len } => {
                write!(f, "epoch {epoch} has {len} time point(s); a correlation needs at least 2")
            }
            DatasetError::BadSubjectOrder { epoch } => {
                write!(f, "epoch {epoch} breaks contiguous subject grouping")
            }
            DatasetError::NoEpochs => write!(f, "dataset has no epochs"),
            DatasetError::SingleClassSubject { subject } => {
                write!(f, "subject {subject} has only one condition across its epochs")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

impl Dataset {
    /// Build and validate a dataset.
    ///
    /// Epoch subjects must be 0-based, contiguous, and grouped
    /// (e.g. `0,0,0,1,1,1,2,...`); every subject must see both conditions
    /// so leave-one-subject-out SVM folds are well-posed.
    pub fn new(data: Mat, epochs: Vec<EpochSpec>) -> Result<Self, DatasetError> {
        if epochs.is_empty() {
            return Err(DatasetError::NoEpochs);
        }
        let nt = data.cols();
        let mut n_subjects = 0usize;
        let mut has_a = false;
        let mut has_b = false;
        for (i, ep) in epochs.iter().enumerate() {
            if ep.len < 2 {
                return Err(DatasetError::ShortEpoch { epoch: i, len: ep.len });
            }
            if ep.start.checked_add(ep.len).is_none_or(|end| end > nt) {
                return Err(DatasetError::EpochOutOfRange {
                    epoch: i,
                    start: ep.start,
                    len: ep.len,
                    n_timepoints: nt,
                });
            }
            if ep.subject == n_subjects {
                // entering a new subject
                if n_subjects > 0 && !(has_a && has_b) {
                    return Err(DatasetError::SingleClassSubject { subject: n_subjects - 1 });
                }
                n_subjects += 1;
                has_a = false;
                has_b = false;
            } else if ep.subject + 1 != n_subjects {
                return Err(DatasetError::BadSubjectOrder { epoch: i });
            }
            match ep.label {
                Condition::A => has_a = true,
                Condition::B => has_b = true,
            }
        }
        if !(has_a && has_b) {
            return Err(DatasetError::SingleClassSubject { subject: n_subjects - 1 });
        }
        Ok(Dataset { data, epochs, n_subjects })
    }

    /// Number of voxels (rows of the activity matrix).
    pub fn n_voxels(&self) -> usize {
        self.data.rows()
    }

    /// Number of acquired time points.
    pub fn n_timepoints(&self) -> usize {
        self.data.cols()
    }

    /// Number of subjects.
    pub fn n_subjects(&self) -> usize {
        self.n_subjects
    }

    /// Total number of labeled epochs across all subjects.
    pub fn n_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// The epoch table, grouped by subject.
    pub fn epochs(&self) -> &[EpochSpec] {
        &self.epochs
    }

    /// The raw activity matrix (`n_voxels × n_timepoints`).
    pub fn data(&self) -> &Mat {
        &self.data
    }

    /// Epoch labels in table order.
    pub fn labels(&self) -> Vec<Condition> {
        self.epochs.iter().map(|e| e.label).collect()
    }

    /// One voxel's raw activity over an epoch window.
    ///
    /// # Panics
    /// If `voxel` or `epoch` is out of range for the dataset.
    #[cfg(test)]
    pub(crate) fn epoch_series(&self, voxel: usize, epoch: usize) -> &[f32] {
        let ep = &self.epochs[epoch];
        &self.data.row(voxel)[ep.start..ep.start + ep.len]
    }

    /// Consume into parts (used by the I/O layer).
    pub fn into_parts(self) -> (Mat, Vec<EpochSpec>) {
        (self.data, self.epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(n_vox: usize, nt: usize, epochs: Vec<EpochSpec>) -> Result<Dataset, DatasetError> {
        Dataset::new(Mat::zeros(n_vox, nt), epochs)
    }

    fn ep(subject: usize, label: Condition, start: usize, len: usize) -> EpochSpec {
        EpochSpec { subject, label, start, len }
    }

    #[test]
    fn accepts_wellformed_two_subject_dataset() {
        let d = tiny(
            4,
            40,
            vec![
                ep(0, Condition::A, 0, 10),
                ep(0, Condition::B, 10, 10),
                ep(1, Condition::B, 20, 10),
                ep(1, Condition::A, 30, 10),
            ],
        )
        .unwrap();
        assert_eq!(d.n_subjects(), 2);
        assert_eq!(d.n_epochs(), 4);
    }

    #[test]
    fn rejects_empty_epoch_table() {
        assert_eq!(tiny(2, 10, vec![]).unwrap_err(), DatasetError::NoEpochs);
    }

    #[test]
    fn rejects_out_of_range_epoch() {
        let err =
            tiny(2, 10, vec![ep(0, Condition::A, 5, 10), ep(0, Condition::B, 0, 5)]).unwrap_err();
        assert!(matches!(err, DatasetError::EpochOutOfRange { epoch: 0, .. }));
    }

    #[test]
    fn rejects_epoch_whose_end_wraps() {
        // start + len wraps to 11, which is inside the 40-point axis.
        let err =
            tiny(2, 40, vec![ep(0, Condition::A, usize::MAX, 12), ep(0, Condition::B, 0, 12)])
                .unwrap_err();
        assert!(matches!(err, DatasetError::EpochOutOfRange { epoch: 0, start: usize::MAX, .. }));
        assert!(err.to_string().contains("exceeds 40 time points"));
    }

    #[test]
    fn rejects_zero_length_epoch() {
        for len in [0, 1] {
            let err = tiny(2, 10, vec![ep(0, Condition::A, 0, len)]).unwrap_err();
            assert_eq!(err, DatasetError::ShortEpoch { epoch: 0, len });
        }
        let ok = tiny(2, 10, vec![ep(0, Condition::A, 0, 2), ep(0, Condition::B, 2, 2)]);
        assert!(ok.is_ok(), "two time points are enough: {ok:?}");
    }

    #[test]
    fn rejects_nongrouped_subjects() {
        let err = tiny(
            2,
            40,
            vec![
                ep(0, Condition::A, 0, 5),
                ep(0, Condition::B, 5, 5),
                ep(1, Condition::A, 10, 5),
                ep(1, Condition::B, 15, 5),
                ep(0, Condition::A, 20, 5),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, DatasetError::BadSubjectOrder { epoch: 4 }));
    }

    #[test]
    fn rejects_skipped_subject_id() {
        let err = tiny(
            2,
            40,
            vec![ep(0, Condition::A, 0, 5), ep(0, Condition::B, 5, 5), ep(2, Condition::A, 10, 5)],
        )
        .unwrap_err();
        assert!(matches!(err, DatasetError::BadSubjectOrder { epoch: 2 }));
    }

    #[test]
    fn rejects_single_class_subject() {
        let err = tiny(
            2,
            40,
            vec![
                ep(0, Condition::A, 0, 5),
                ep(0, Condition::A, 5, 5),
                ep(1, Condition::A, 10, 5),
                ep(1, Condition::B, 15, 5),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, DatasetError::SingleClassSubject { subject: 0 }));
    }

    #[test]
    fn rejects_single_class_final_subject() {
        let err = tiny(
            2,
            40,
            vec![ep(0, Condition::A, 0, 5), ep(0, Condition::B, 5, 5), ep(1, Condition::B, 15, 5)],
        )
        .unwrap_err();
        assert!(matches!(err, DatasetError::SingleClassSubject { subject: 1 }));
    }

    #[test]
    fn epoch_series_windows_the_row() {
        let data = Mat::from_fn(2, 12, |r, c| (r * 100 + c) as f32);
        let d =
            Dataset::new(data, vec![ep(0, Condition::A, 2, 3), ep(0, Condition::B, 6, 3)]).unwrap();
        assert_eq!(d.epoch_series(1, 0), &[102.0, 103.0, 104.0]);
        assert_eq!(d.epoch_series(0, 1), &[6.0, 7.0, 8.0]);
    }

    #[test]
    fn condition_parse_roundtrip() {
        for c in [Condition::A, Condition::B] {
            assert_eq!(Condition::parse(c.token()).unwrap(), c);
        }
        assert!(Condition::parse("x").is_err());
        assert_eq!(Condition::A.sign(), 1.0);
        assert_eq!(Condition::B.sign(), -1.0);
    }
}
