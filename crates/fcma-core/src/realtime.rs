//! Streaming closed-loop session — the online half of the paper's Fig. 1.
//!
//! In a closed-loop experiment the scanner emits one brain volume every
//! 1–2 s; epochs accumulate during the session. This module provides an
//! [`OnlineSession`] that ingests labeled epochs incrementally, re-selects
//! voxels and retrains the feedback classifier on demand, and scores new
//! epochs as they complete — the software half of the paper's
//! scanner-to-cluster loop, with the scanner replaced by the caller
//! feeding volumes.

use crate::analysis::{selected_samples, stratified_folds};
use crate::context::TaskContext;
use crate::selection::select_top_k;
use fcma_fmri::{Condition, Dataset, EpochSpec};
use fcma_linalg::Mat;
use fcma_svm::{train_phisvm, KernelMatrix, SmoParams, SvmModel};

/// Side of the square tile [`OnlineSession::dataset`] transposes through
/// (16 KiB, L1-resident).
const SNAPSHOT_TILE: usize = 64;

/// Configuration for the streaming session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Brain voxels per acquired volume.
    pub n_voxels: usize,
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
            n_voxels: 0,
            epoch_len: 12,
            top_k: 16,
            n_folds: 4,
            task_size: 64,
            svm: SmoParams::default(),
        }
    }
}

/// A trained feedback state: selected voxels + classifier.
#[derive(Debug, Clone)]
// audit: allow(deadpub) — part of a referenced public signature; demotion trips private_interfaces
pub struct FeedbackModel {
    /// Selected voxel indices.
    pub selected: Vec<usize>,
    /// The trained classifier over the selected voxels' correlation
    /// patterns.
    pub model: SvmModel,
    /// Kernel over all epochs seen at training time (prediction for newer
    /// epochs rebuilds features; see [`OnlineSession::score_epoch`]).
    kernel: KernelMatrix,
    /// Number of epochs the kernel covers.
    trained_epochs: usize,
}

/// Streaming session state.
pub struct OnlineSession {
    cfg: SessionConfig,
    /// Raw activity columns accumulated so far (`n_voxels × t`).
    volumes: Vec<Vec<f32>>,
    /// Completed labeled epochs.
    epochs: Vec<EpochSpec>,
    /// Currently open epoch (label, start) if any.
    open: Option<(Condition, usize)>,
}

/// Errors from session misuse.
#[derive(Debug, PartialEq, Eq)]
// audit: allow(deadpub) — part of a referenced public signature; demotion trips private_interfaces
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
    /// Volume length does not match `n_voxels`.
    BadVolume {
        /// Length of the pushed volume.
        got: usize,
        /// The session's `n_voxels`.
        want: usize,
    },
    /// The volume holds a NaN or an infinity; it was not stored.
    NonFinite {
        /// The first voxel whose sample is not finite.
        voxel: usize,
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
        }
    }
}

impl std::error::Error for SessionError {}

impl OnlineSession {
    /// Start an empty session for `n_voxels`-voxel volumes.
    pub fn new(mut cfg: SessionConfig, n_voxels: usize) -> Self {
        cfg.n_voxels = n_voxels;
        OnlineSession { cfg, volumes: Vec::new(), epochs: Vec::new(), open: None }
    }

    /// Number of completed labeled epochs.
    pub fn n_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// Ingest one acquired brain volume (all voxels at one time point).
    /// A volume of the wrong length or with a NaN or infinite sample is
    /// refused and leaves the session as it was.
    pub fn push_volume(&mut self, volume: &[f32]) -> Result<(), SessionError> {
        if volume.len() != self.cfg.n_voxels {
            return Err(SessionError::BadVolume { got: volume.len(), want: self.cfg.n_voxels });
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
        // Transposed through a time-major tile: each volume is read in
        // contiguous runs, each voxel's row is written in contiguous runs.
        let n = self.cfg.n_voxels;
        let mut data = Mat::zeros(n, self.volumes.len());
        let mut tile = [0.0f32; SNAPSHOT_TILE * SNAPSHOT_TILE];
        for v0 in (0..n).step_by(SNAPSHOT_TILE) {
            let width = SNAPSHOT_TILE.min(n - v0);
            for (ti, vols) in self.volumes.chunks(SNAPSHOT_TILE).enumerate() {
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
        Dataset::new(data, self.epochs.clone())
            .map_err(|e| SessionError::NotEnoughData(e.to_string()))
    }

    /// Select voxels and train the feedback classifier on everything seen
    /// so far (paper §5.2.2: k-fold over epochs, no nested CV).
    pub fn train_feedback(&self) -> Result<FeedbackModel, SessionError> {
        let dataset = self.dataset()?;
        let ctx = TaskContext::full(&dataset);
        let groups = stratified_folds(&ctx.y, self.cfg.n_folds.min(ctx.n_epochs()));
        let exec = crate::executor::OptimizedExecutor { svm: self.cfg.svm, ..Default::default() };
        let scores =
            crate::analysis::score_all_voxels(&ctx, &exec, self.cfg.task_size, Some(&groups));
        let selected = select_top_k(&scores, self.cfg.top_k.min(scores.len()));

        let kernel = KernelMatrix::precompute(&selected_samples(&ctx, &selected));
        let idx: Vec<usize> = (0..ctx.n_epochs()).collect();
        let model = train_phisvm(&kernel, &idx, &ctx.y, &self.cfg.svm);
        Ok(FeedbackModel { selected, model, kernel, trained_epochs: ctx.n_epochs() })
    }

    /// Score epoch `e` (any completed epoch, typically one newer than the
    /// training set) with a feedback model: returns the decision value
    /// whose sign is the predicted condition.
    pub fn score_epoch(&self, fb: &FeedbackModel, e: usize) -> Result<f32, SessionError> {
        if e >= self.epochs.len() {
            return Err(SessionError::NotEnoughData(format!("epoch {e} not completed")));
        }
        if e < fb.trained_epochs && fb.kernel.n() == fb.trained_epochs {
            // Covered by the training-time kernel: one row read.
            return Ok(fb.model.decision(&fb.kernel, e));
        }
        // Newer epoch: rebuild the kernel over all epochs (the correlation
        // features of *training* epochs are unchanged; the full rebuild
        // keeps the code simple at session scale).
        let dataset = self.dataset()?;
        let ctx = TaskContext::full(&dataset);
        let kernel = KernelMatrix::precompute(&selected_samples(&ctx, &fb.selected));
        Ok(fb.model.decision(&kernel, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcma_fmri::presets;

    /// Feed a pre-generated dataset through the streaming interface.
    fn stream(dataset: &Dataset, cfg: SessionConfig, epochs: usize) -> OnlineSession {
        let mut s = OnlineSession::new(cfg, dataset.n_voxels());
        for (ei, ep) in dataset.epochs().iter().take(epochs).enumerate() {
            s.begin_epoch(ep.label).unwrap();
            for t in ep.start..ep.start + ep.len {
                let vol: Vec<f32> =
                    (0..dataset.n_voxels()).map(|v| dataset.data().get(v, t)).collect();
                s.push_volume(&vol).unwrap();
            }
            assert_eq!(s.end_epoch().unwrap(), ei);
        }
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
    fn scoring_unknown_epoch_errors() {
        let (d, _, scfg) = single_subject();
        // 11 of 20 epochs: with 10 per condition, any prefix of 11 is
        // guaranteed to contain both classes whatever the shuffle order,
        // so training cannot fail on an unlucky label arrangement.
        let s = stream(&d, scfg, 11);
        let fb = s.train_feedback().unwrap();
        assert!(s.score_epoch(&fb, 99).is_err());
    }
}
