//! Streaming closed-loop session — the online half of the paper's Fig. 1.
//!
//! In a closed-loop experiment the scanner emits one brain volume every
//! 1–2 s; epochs accumulate during the session. This module provides an
//! [`OnlineSession`] that ingests labeled epochs incrementally, re-selects
//! voxels and retrains the feedback classifier on demand, and scores new
//! epochs as they complete — the software half of the paper's
//! scanner-to-cluster loop, with the scanner replaced by the caller
//! feeding volumes.
//!
//! **Frozen at training time.** [`OnlineSession::train_feedback`] runs the
//! pipeline over every epoch seen so far and keeps, in the
//! [`FeedbackModel`]: the selected voxels, the linear SVM, stage 2's
//! within-subject z-score statistics of every (selected voxel, brain
//! voxel) column over the training epochs, and the SVM's primal weight
//! vector.
//!
//! **Computed per epoch.** [`OnlineSession::score_epoch`] reads the scored
//! epoch's volumes and nothing else: it normalises the window (Eq. 2),
//! computes each selected voxel's correlation row and Fisher-transforms
//! it, z-scores it with the frozen statistics and takes one dot product
//! with the weight vector — O(top_k × N × epoch_len) whatever the epoch's
//! index, and the same for a training epoch as for a newer one.

use crate::analysis::{online_selection, AnalysisConfig};
use crate::context::TaskContext;
use crate::stage2::{fisher_rows, selected_samples, zscore_with};
use fcma_fmri::{Condition, Dataset, EpochSpec, NormalizedEpochs};
use fcma_linalg::norms::axpy;
use fcma_linalg::{dot, Mat};
use fcma_svm::{train_phisvm, KernelMatrix, SmoParams, SvmModel};

/// Side of the square tile [`voxel_major`] transposes through (16 KiB,
/// L1-resident).
const SNAPSHOT_TILE: usize = 64;

/// Configuration for the streaming session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Time points per epoch.
    pub epoch_len: usize,
    /// Voxels to select for the feedback classifier.
    pub top_k: usize,
    /// Epoch folds for the online selection CV.
    pub n_folds: usize,
    /// Voxels per selection task.
    pub task_size: usize,
    /// SVM parameters.
    pub svm: SmoParams,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            epoch_len: 12,
            top_k: 16,
            n_folds: 4,
            task_size: 64,
            svm: SmoParams::default(),
        }
    }
}

/// A trained feedback state: selected voxels + classifier, and what
/// scoring an epoch needs from training time.
///
/// The classifier's features are the selected voxels' z-scored
/// correlation vectors, `top_k × N` floats per epoch, selected voxel
/// major. Frozen here at training time: stage 2's `(mean, 1/std)` of each
/// feature column over the training epochs, and the primal weight vector
/// `w = Σ alpha_y[s] · z(train_idx[s])` of the linear kernel, so that a
/// decision is `⟨w, z⟩ − rho`. Every epoch is z-scored against the
/// statistics the classifier was trained on, not re-z-scored together
/// with the epochs seen since: the classifier sees the features it was
/// trained on, and an epoch's feedback does not depend on when it is
/// asked for. Epoch indices name epochs of the session being scored; a
/// model carries no epoch of the session it was trained in.
#[derive(Debug, Clone)]
pub struct FeedbackModel {
    /// Selected voxel indices.
    pub selected: Vec<usize>,
    /// The trained classifier over the selected voxels' correlation
    /// patterns.
    pub model: SvmModel,
    /// Stage 2's per-column means of the training epochs' features.
    mean: Vec<f32>,
    /// Stage 2's per-column `1/std` (0 for a constant column).
    inv_std: Vec<f32>,
    /// The primal weight vector over the same features.
    weights: Vec<f32>,
}

impl FeedbackModel {
    /// The features of one epoch from its normalised `k × N` brain
    /// matrix: the selected voxels' Fisher-transformed correlation rows,
    /// z-scored with the frozen training statistics.
    fn features(&self, brain: &Mat) -> Vec<f32> {
        let mut z = vec![0.0f32; self.weights.len()];
        fisher_rows(brain, &self.selected, &mut z);
        zscore_with(&mut z, &self.mean, &self.inv_std);
        z
    }

    /// Decision value of one epoch's features.
    fn primal_decision(&self, z: &[f32]) -> f32 {
        dot(&self.weights, z) - self.model.rho
    }
}

/// `volumes` (time-major, `n` voxels each) as an `n × t` voxel-major
/// matrix, transposed through a time-major tile: each volume is read in
/// contiguous runs, each voxel's row is written in contiguous runs.
fn voxel_major(volumes: &[Vec<f32>], n: usize) -> Mat {
    let mut data = Mat::zeros(n, volumes.len());
    let mut tile = [0.0f32; SNAPSHOT_TILE * SNAPSHOT_TILE];
    for v0 in (0..n).step_by(SNAPSHOT_TILE) {
        let width = SNAPSHOT_TILE.min(n - v0);
        for (ti, vols) in volumes.chunks(SNAPSHOT_TILE).enumerate() {
            for (row, vol) in tile.chunks_exact_mut(SNAPSHOT_TILE).zip(vols) {
                for (dst, &x) in row.iter_mut().zip(vol.iter().skip(v0)) {
                    *dst = x;
                }
            }
            for j in 0..width {
                let column = tile.iter().skip(j).step_by(SNAPSHOT_TILE);
                let run = data.row_mut(v0 + j).iter_mut().skip(ti * SNAPSHOT_TILE);
                for (dst, &x) in run.zip(column).take(vols.len()) {
                    *dst = x;
                }
            }
        }
    }
    data
}

/// Streaming session state.
pub struct OnlineSession {
    cfg: SessionConfig,
    /// Brain voxels per acquired volume.
    n_voxels: usize,
    /// Raw activity columns accumulated so far (`n_voxels × t`).
    volumes: Vec<Vec<f32>>,
    /// Completed labeled epochs.
    epochs: Vec<EpochSpec>,
    /// Currently open epoch (label, start) if any.
    open: Option<(Condition, usize)>,
}

/// Errors from session misuse.
#[derive(Debug, PartialEq, Eq)]
pub enum SessionError {
    /// `begin_epoch` while another epoch is open.
    EpochAlreadyOpen,
    /// `end_epoch` without an open epoch.
    NoOpenEpoch,
    /// Open epoch does not yet span `epoch_len` volumes.
    EpochTooShort {
        /// Volumes pushed into the open epoch so far.
        have: usize,
        /// The session's `epoch_len`.
        need: usize,
    },
    /// Not enough epochs/conditions to train.
    NotEnoughData(String),
    /// Volume length does not match the session's voxel count.
    BadVolume {
        /// Length of the pushed volume.
        got: usize,
        /// Voxels per volume of the session.
        want: usize,
    },
    /// The volume holds a NaN or an infinity; it was not stored.
    NonFinite {
        /// The first voxel whose sample is not finite.
        voxel: usize,
    },
    /// The epoch asked for has not been completed.
    UnknownEpoch {
        /// The epoch index asked for.
        epoch: usize,
        /// Epochs the session has completed.
        completed: usize,
    },
    /// The feedback model was trained on volumes of another size.
    ModelMismatch {
        /// Voxels per volume the model was trained on.
        model_voxels: usize,
        /// Voxels per volume of the session.
        session_voxels: usize,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::EpochAlreadyOpen => write!(f, "an epoch is already open"),
            SessionError::NoOpenEpoch => write!(f, "no epoch is open"),
            SessionError::EpochTooShort { have, need } => {
                write!(f, "open epoch has {have} volumes, needs {need}")
            }
            SessionError::NotEnoughData(m) => write!(f, "not enough data: {m}"),
            SessionError::BadVolume { got, want } => {
                write!(f, "volume has {got} voxels, expected {want}")
            }
            SessionError::NonFinite { voxel } => {
                write!(f, "volume sample at voxel {voxel} is not finite")
            }
            SessionError::UnknownEpoch { epoch, completed } => {
                write!(f, "epoch {epoch} not completed ({completed} epochs are)")
            }
            SessionError::ModelMismatch { model_voxels, session_voxels } => write!(
                f,
                "feedback model was trained on {model_voxels}-voxel volumes, \
                 the session's are {session_voxels}"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

impl OnlineSession {
    /// Start an empty session for `n_voxels`-voxel volumes.
    pub fn new(cfg: SessionConfig, n_voxels: usize) -> Self {
        OnlineSession { cfg, n_voxels, volumes: Vec::new(), epochs: Vec::new(), open: None }
    }

    /// Number of completed labeled epochs.
    pub fn n_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// Ingest one acquired brain volume (all voxels at one time point).
    /// A volume of the wrong length or with a NaN or infinite sample is
    /// refused and leaves the session as it was.
    pub fn push_volume(&mut self, volume: &[f32]) -> Result<(), SessionError> {
        if volume.len() != self.n_voxels {
            return Err(SessionError::BadVolume { got: volume.len(), want: self.n_voxels });
        }
        // Branch-free over the volume so it vectorises; the voxel is
        // looked for only once one is known to be there.
        if volume.iter().fold(false, |bad, x| bad | !x.is_finite()) {
            if let Some(voxel) = volume.iter().position(|x| !x.is_finite()) {
                return Err(SessionError::NonFinite { voxel });
            }
        }
        self.volumes.push(volume.to_vec());
        Ok(())
    }

    /// Mark the start of a labeled epoch at the *next* volume.
    pub fn begin_epoch(&mut self, label: Condition) -> Result<(), SessionError> {
        if self.open.is_some() {
            return Err(SessionError::EpochAlreadyOpen);
        }
        self.open = Some((label, self.volumes.len()));
        Ok(())
    }

    /// Close the open epoch; it must span exactly `epoch_len` volumes or
    /// more (extra volumes are kept; the epoch window is the first
    /// `epoch_len`).
    pub fn end_epoch(&mut self) -> Result<usize, SessionError> {
        let (label, start) = self.open.take().ok_or(SessionError::NoOpenEpoch)?;
        let have = self.volumes.len() - start;
        if have < self.cfg.epoch_len {
            self.open = Some((label, start));
            return Err(SessionError::EpochTooShort { have, need: self.cfg.epoch_len });
        }
        self.epochs.push(EpochSpec { subject: 0, label, start, len: self.cfg.epoch_len });
        Ok(self.epochs.len() - 1)
    }

    /// Snapshot the accumulated data as a [`Dataset`].
    pub fn dataset(&self) -> Result<Dataset, SessionError> {
        if self.epochs.len() < 2 {
            return Err(SessionError::NotEnoughData("need >= 2 epochs".into()));
        }
        Dataset::new(voxel_major(&self.volumes, self.n_voxels), self.epochs.clone())
            .map_err(|e| SessionError::NotEnoughData(e.to_string()))
    }

    /// Select voxels and train the feedback classifier on everything seen
    /// so far (paper §5.2.2: k-fold over epochs, no nested CV), then
    /// freeze what [`Self::score_epoch`] needs for newer epochs (see
    /// [`FeedbackModel`]).
    ///
    /// # Errors
    /// [`SessionError::NotEnoughData`] unless every fold's training set
    /// holds both conditions: the session's `n_folds` must be at least 2,
    /// and it must hold at least 2 epochs of each condition.
    pub fn train_feedback(&self) -> Result<FeedbackModel, SessionError> {
        if self.cfg.n_folds < 2 {
            return Err(SessionError::NotEnoughData(format!(
                "training needs at least 2 folds, the session has n_folds {}",
                self.cfg.n_folds
            )));
        }
        let a = self.epochs.iter().filter(|e| e.label == Condition::A).count();
        let b = self.epochs.len() - a;
        if a < 2 || b < 2 {
            return Err(SessionError::NotEnoughData(format!(
                "training needs at least 2 epochs of each condition, the session has {a} of A \
                 and {b} of B"
            )));
        }
        let dataset = self.dataset()?;
        let ctx = TaskContext::full(&dataset);
        let exec = crate::executor::OptimizedExecutor { svm: self.cfg.svm, ..Default::default() };
        let cfg = AnalysisConfig { task_size: self.cfg.task_size, top_k: self.cfg.top_k };
        let selected = online_selection(&ctx, &exec, &cfg, self.cfg.n_folds).selected;

        let (mut mean, mut inv_std) = (Vec::new(), Vec::new());
        let samples = selected_samples(&ctx, &selected, |m, s| {
            (mean, inv_std) = (m.to_vec(), s.to_vec());
        });
        let idx: Vec<usize> = (0..ctx.n_epochs()).collect();
        let model = train_phisvm(&KernelMatrix::precompute(&samples), &idx, &ctx.y, &self.cfg.svm);
        let mut weights = vec![0.0f32; samples.cols()];
        for (&ay, &s) in model.alpha_y.iter().zip(&model.train_idx) {
            axpy(ay, samples.row(s), &mut weights);
        }
        Ok(FeedbackModel { selected, model, mean, inv_std, weights })
    }

    /// Score completed epoch `e` with a feedback model: returns the
    /// decision value whose sign is the predicted condition.
    ///
    /// The epoch is scored from its own volumes, whether or not it was a
    /// training epoch: its window is normalised, each selected voxel's
    /// correlation row is computed, Fisher-transformed and z-scored with
    /// the statistics frozen at training time, and the decision is one
    /// dot product with the model's weight vector. The cost is the same
    /// at every epoch index, and the result does not depend on the epochs
    /// that came after `e`. On a training epoch it agrees with the dual
    /// decision over the training kernel to float rounding.
    // Cannot panic: `end_epoch` closes an epoch only once its window lies inside the volumes pushed
    pub fn score_epoch(&self, fb: &FeedbackModel, e: usize) -> Result<f32, SessionError> {
        let Some(ep) = self.epochs.get(e) else {
            return Err(SessionError::UnknownEpoch { epoch: e, completed: self.epochs.len() });
        };
        let n = self.n_voxels;
        if fb.weights.len() != fb.selected.len() * n {
            return Err(SessionError::ModelMismatch {
                model_voxels: fb.weights.len().checked_div(fb.selected.len()).unwrap_or(0),
                session_voxels: n,
            });
        }
        let norm = NormalizedEpochs::from_volumes(&self.volumes[ep.start..ep.start + ep.len], n);
        Ok(fb.primal_decision(&fb.features(norm.brain(0))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage2::selected_samples_per_voxel;
    use fcma_fmri::presets;
    use std::ops::Range;

    /// Feed epochs `epochs` of a pre-generated dataset through the
    /// streaming interface.
    fn feed(s: &mut OnlineSession, dataset: &Dataset, epochs: Range<usize>) {
        for ei in epochs {
            let ep = dataset.epochs()[ei];
            s.begin_epoch(ep.label).unwrap();
            for t in ep.start..ep.start + ep.len {
                let vol: Vec<f32> =
                    (0..dataset.n_voxels()).map(|v| dataset.data().get(v, t)).collect();
                s.push_volume(&vol).unwrap();
            }
            assert_eq!(s.end_epoch().unwrap(), ei);
        }
    }

    /// A new session fed the first `epochs` epochs of `dataset`.
    fn stream(dataset: &Dataset, cfg: SessionConfig, epochs: usize) -> OnlineSession {
        let mut s = OnlineSession::new(cfg, dataset.n_voxels());
        feed(&mut s, dataset, 0..epochs);
        s
    }

    fn single_subject() -> (Dataset, fcma_fmri::GroundTruth, SessionConfig) {
        let mut cfg = presets::tiny();
        cfg.n_subjects = 1;
        cfg.epochs_per_subject = 20;
        cfg.n_voxels = 96;
        cfg.n_informative = 12;
        cfg.coupling = 1.8;
        cfg.gap = 0; // streaming feeds epoch windows back-to-back
        let (d, gt) = cfg.generate();
        let scfg = SessionConfig { top_k: 12, task_size: 48, ..Default::default() };
        (d, gt, scfg)
    }

    #[test]
    fn protocol_errors_are_reported() {
        let (d, _, scfg) = single_subject();
        let mut s = OnlineSession::new(scfg, d.n_voxels());
        assert_eq!(s.end_epoch().unwrap_err(), SessionError::NoOpenEpoch);
        s.begin_epoch(Condition::A).unwrap();
        assert_eq!(s.begin_epoch(Condition::B).unwrap_err(), SessionError::EpochAlreadyOpen);
        assert!(matches!(s.end_epoch().unwrap_err(), SessionError::EpochTooShort { .. }));
        assert!(matches!(
            s.push_volume(&[0.0; 3]).unwrap_err(),
            SessionError::BadVolume { got: 3, .. }
        ));
        assert!(s.dataset().is_err());
    }

    /// Sessions `dataset` accepts but no fold plan can train on are
    /// refused up front; they used to panic in the cross validation, the
    /// SVM or the fold assignment.
    #[test]
    fn train_feedback_refuses_what_it_cannot_train_on() {
        use Condition::{A, B};
        let n = 4;
        let session = |labels: &[Condition], n_folds: usize| {
            let cfg = SessionConfig { epoch_len: 3, n_folds, task_size: n, ..Default::default() };
            let mut s = OnlineSession::new(cfg, n);
            for (e, &label) in labels.iter().enumerate() {
                s.begin_epoch(label).unwrap();
                for t in 0..3 {
                    let vol: Vec<f32> =
                        (0..n).map(|v| ((v * 7 + t * 3 + e * 5) % 11) as f32).collect();
                    s.push_volume(&vol).unwrap();
                }
                s.end_epoch().unwrap();
            }
            s
        };
        for (labels, n_folds, short) in [
            (&[A, B][..], 4, "1 of A and 1 of B"),
            (&[A, B, A], 4, "2 of A and 1 of B"),
            (&[A, A, A, B], 2, "3 of A and 1 of B"),
            (&[A, B, A, B], 0, "n_folds 0"),
            (&[A, B, A, B], 1, "n_folds 1"),
        ] {
            let s = session(labels, n_folds);
            assert!(s.dataset().is_ok(), "{labels:?}: the snapshot itself is fine");
            match s.train_feedback() {
                Err(SessionError::NotEnoughData(m)) => assert!(m.ends_with(short), "{m}"),
                other => panic!("{labels:?} at {n_folds} folds: {:?}", other.map(|_| ())),
            }
        }
        let fb = session(&[A, B, A, B, A, B], 2).train_feedback().unwrap();
        assert!(!fb.selected.is_empty());
    }

    #[test]
    fn non_finite_volumes_are_refused_and_the_session_goes_on() {
        let n = 5;
        let mut s = OnlineSession::new(SessionConfig { epoch_len: 2, ..Default::default() }, n);
        let volume = |t: usize| (0..n).map(|v| (v * 3 + t) as f32).collect::<Vec<f32>>();
        let mut pushed = Vec::new();
        for label in [Condition::A, Condition::B] {
            s.begin_epoch(label).unwrap();
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for voxel in [0, n - 1] {
                    let mut vol = volume(pushed.len());
                    vol[voxel] = bad;
                    assert_eq!(s.push_volume(&vol), Err(SessionError::NonFinite { voxel }));
                }
                // Refused, not stored: the next good volume is the next
                // time point.
                let vol = volume(pushed.len());
                s.push_volume(&vol).unwrap();
                pushed.push(vol);
            }
            s.end_epoch().unwrap();
        }
        let snap = s.dataset().unwrap();
        assert_eq!(snap.n_timepoints(), pushed.len());
        for (t, vol) in pushed.iter().enumerate() {
            for (v, x) in vol.iter().enumerate() {
                assert_eq!(snap.data().get(v, t).to_bits(), x.to_bits(), "v {v} t {t}");
            }
        }
    }

    #[test]
    fn snapshot_equals_the_per_element_transpose() {
        // 5 epochs of 15 volumes: t = 75, not a multiple of the tile.
        let (epoch_len, n_epochs) = (15, 5);
        for n in [1usize, 65, 2048] {
            let scfg = SessionConfig { epoch_len, ..Default::default() };
            let mut s = OnlineSession::new(scfg, n);
            let mut volumes = Vec::new();
            for e in 0..n_epochs {
                s.begin_epoch(if e % 2 == 0 { Condition::A } else { Condition::B }).unwrap();
                for _ in 0..epoch_len {
                    let t = volumes.len();
                    let vol: Vec<f32> = (0..n).map(|v| (v * 131 + t * 7) as f32 * 0.25).collect();
                    s.push_volume(&vol).unwrap();
                    volumes.push(vol);
                }
                s.end_epoch().unwrap();
            }
            let snap = s.dataset().unwrap();
            assert_eq!((snap.n_voxels(), snap.n_timepoints()), (n, volumes.len()));
            for (t, vol) in volumes.iter().enumerate() {
                for (v, x) in vol.iter().enumerate() {
                    assert_eq!(snap.data().get(v, t).to_bits(), x.to_bits(), "n {n} v {v} t {t}");
                }
            }
        }
    }

    #[test]
    fn streamed_dataset_matches_source() {
        let (d, _, scfg) = single_subject();
        let s = stream(&d, scfg, d.n_epochs());
        let snap = s.dataset().unwrap();
        assert_eq!(snap.n_epochs(), d.n_epochs());
        // The streamed time axis is the concatenation of epoch windows.
        for (e, ep) in snap.epochs().iter().enumerate() {
            let src = d.epochs()[e];
            for v in [0usize, 13, 95] {
                for t in 0..ep.len {
                    assert_eq!(
                        snap.data().get(v, ep.start + t),
                        d.data().get(v, src.start + t),
                        "voxel {v} epoch {e} t {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn feedback_model_selects_planted_voxels_and_predicts() {
        let (d, gt, scfg) = single_subject();
        // Train on the first 14 epochs; stream all 20.
        let s = stream(&d, scfg, 14);
        let fb = s.train_feedback().unwrap();
        let hits = fb.selected.iter().filter(|v| gt.is_informative(**v)).count();
        assert!(hits * 2 >= fb.selected.len(), "only {hits}/{} planted", fb.selected.len());

        // Now keep streaming and score the new epochs live.
        let s = stream(&d, SessionConfig { top_k: 12, task_size: 48, ..Default::default() }, 20);
        let mut correct = 0;
        for e in 14..20 {
            let dec = s.score_epoch(&fb, e).unwrap();
            let want = d.epochs()[e].label.sign();
            if dec.signum() == want {
                correct += 1;
            }
        }
        assert!(correct >= 4, "online feedback got {correct}/6 correct");
    }

    #[test]
    fn feedback_does_not_depend_on_later_epochs() {
        let (d, _, scfg) = single_subject();
        let mut s = stream(&d, scfg, 14);
        let fb = s.train_feedback().unwrap();
        feed(&mut s, &d, 14..15);
        let on_close = s.score_epoch(&fb, 14).unwrap();
        feed(&mut s, &d, 15..20);
        let later = s.score_epoch(&fb, 14).unwrap();
        assert_eq!(on_close.to_bits(), later.to_bits(), "{on_close} then {later}");
    }

    #[test]
    fn frozen_features_are_stage_2s() {
        // The scoring path's feature step, run on each training epoch,
        // is that epoch's row of the samples matrix one merged stage 1+2
        // pass per selected voxel builds, bit for bit; `score_epoch`'s
        // primal decision agrees with the dual one over the training
        // kernel.
        let (d, _, scfg) = single_subject();
        let s = stream(&d, scfg, 14);
        let fb = s.train_feedback().unwrap();
        let ctx = TaskContext::full(&s.dataset().unwrap());
        let samples = selected_samples_per_voxel(&ctx, &fb.selected);
        let kernel = KernelMatrix::precompute(&samples);
        for e in 0..ctx.n_epochs() {
            let z = fb.features(ctx.norm.brain(e));
            for (j, (a, b)) in z.iter().zip(samples.row(e)).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "epoch {e} feature {j}: {a} vs {b}");
            }
            let primal = s.score_epoch(&fb, e).unwrap();
            assert_eq!(primal.to_bits(), fb.primal_decision(&z).to_bits(), "epoch {e}");
            let dual = fb.model.decision(&kernel, e);
            assert_eq!(primal.signum(), dual.signum(), "epoch {e}: {primal} vs {dual}");
            let tol = 1e-4 * dual.abs().max(1.0);
            assert!((primal - dual).abs() <= tol, "epoch {e}: {primal} vs {dual}");
        }
    }

    /// `score_epoch` as it was before it normalised the time-major
    /// volumes directly: the window transposed voxel-major, then
    /// normalised as one window of that matrix.
    fn score_through_voxel_major(s: &OnlineSession, fb: &FeedbackModel, e: usize) -> f32 {
        let ep = s.epochs[e];
        let raw = voxel_major(&s.volumes[ep.start..ep.start + ep.len], s.n_voxels);
        let norm = NormalizedEpochs::from_windows(&raw, std::slice::from_ref(&(0..ep.len)));
        fb.primal_decision(&fb.features(norm.brain(0)))
    }

    #[test]
    fn scoring_from_volumes_is_the_voxel_major_bits() {
        // Every epoch of the session, training and newer, through both
        // normalisations: 96 voxels is one full block and one part block.
        let (d, _, scfg) = single_subject();
        let mut s = stream(&d, scfg, 14);
        let fb = s.train_feedback().unwrap();
        feed(&mut s, &d, 14..20);
        for e in 0..s.n_epochs() {
            let got = s.score_epoch(&fb, e).unwrap();
            let want = score_through_voxel_major(&s, &fb, e);
            assert_eq!(got.to_bits(), want.to_bits(), "epoch {e}: {got} vs {want}");
        }
    }

    #[test]
    fn scoring_unknown_epoch_errors() {
        let (d, _, scfg) = single_subject();
        // 11 of 20 epochs: with 10 per condition, any prefix of 11 is
        // guaranteed to contain both classes whatever the shuffle order,
        // so training cannot fail on an unlucky label arrangement.
        let s = stream(&d, scfg.clone(), 11);
        let fb = s.train_feedback().unwrap();
        assert_eq!(
            s.score_epoch(&fb, 99).unwrap_err(),
            SessionError::UnknownEpoch { epoch: 99, completed: 11 }
        );
        // A model trained on 96-voxel volumes, scored in a 64-voxel
        // session.
        let mut small = OnlineSession::new(scfg, 64);
        small.begin_epoch(Condition::A).unwrap();
        for t in 0..small.cfg.epoch_len {
            small.push_volume(&(0..64).map(|v| (v * 7 + t) as f32).collect::<Vec<_>>()).unwrap();
        }
        small.end_epoch().unwrap();
        assert_eq!(
            small.score_epoch(&fb, 0).unwrap_err(),
            SessionError::ModelMismatch { model_voxels: 96, session_voxels: 64 }
        );
    }
}
