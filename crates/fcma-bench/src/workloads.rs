//! Workload definitions for the two evaluation datasets (Table 2) in
//! both full-scale (for the machine-model reproductions) and scaled
//! (for the measured SMO iteration counts) forms.

use fcma_fmri::SynthConfig;
use fcma_sim::{CorrShape, NormShape, SvmShape, SyrkShape};

/// The paper's task sizes: the baseline fits 120 (face-scene) / 60
/// (attention) voxels in the coprocessor's 6 GB; the optimized pipeline
/// fits 240 by reducing to kernel matrices (§5.4.1).
pub const OPT_TASK_VOXELS: u64 = 240;

/// One of the paper's two evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// 34,470 voxels / 18 subjects / 216 epochs.
    FaceScene,
    /// 25,260 voxels / 30 subjects / 540 epochs.
    Attention,
}

impl DatasetKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::FaceScene => "face-scene",
            DatasetKind::Attention => "attention",
        }
    }

    /// Both datasets, in paper order.
    pub fn both() -> [DatasetKind; 2] {
        [DatasetKind::FaceScene, DatasetKind::Attention]
    }

    /// Table 2 row: (voxels, subjects, epochs, epoch length).
    pub fn table2(&self) -> (u64, u64, u64, u64) {
        match self {
            DatasetKind::FaceScene => (34_470, 18, 216, 12),
            DatasetKind::Attention => (25_260, 30, 540, 12),
        }
    }

    /// Baseline voxels per task, limited by the coprocessor memory
    /// (§5.4.1: 120 for face-scene, 60 for attention).
    pub fn baseline_task_voxels(&self) -> u64 {
        match self {
            DatasetKind::FaceScene => 120,
            DatasetKind::Attention => 60,
        }
    }

    /// Stage-1 shape for a task of `v` voxels (corr uses all epochs).
    pub fn corr_shape(&self, v: u64) -> CorrShape {
        let (n, _, m, k) = self.table2();
        CorrShape { v, n, m, k }
    }

    /// Stage-2 shape for a task of `v` voxels.
    pub fn norm_shape(&self, v: u64) -> NormShape {
        NormShape::of(&self.corr_shape(v))
    }

    /// Stage-3a shape for a task of `v` voxels: the SVM data matrix spans
    /// the inner-CV training epochs (epochs minus one subject's worth —
    /// 204 for face-scene, as in §5.4.2).
    pub fn syrk_shape(&self, v: u64) -> SyrkShape {
        let (n, subjects, m, _) = self.table2();
        let per_subject = m / subjects;
        SyrkShape { m: m - per_subject, n, voxels: v }
    }

    /// Stage-3b shape for a task of `v` voxels with `iters` measured SMO
    /// iterations per voxel (summed over folds). `l` is the inner-fold
    /// training size; folds = training subjects.
    pub fn svm_shape(&self, v: u64, iters: u64) -> SvmShape {
        let (_, subjects, m, _) = self.table2();
        let per_subject = m / subjects;
        let m_sel = m - per_subject; // selection runs on n-1 subjects
        SvmShape { l: m_sel - per_subject, folds: subjects - 1, voxels: v, iters }
    }

    /// Raw dataset bytes the master distributes to each node (voxels ×
    /// time points × 4 B; time points include inter-epoch gaps).
    pub fn data_bytes(&self) -> f64 {
        let cfg = self.scaled_config(self.table2().0 as usize);
        (cfg.n_voxels * cfg.n_timepoints() * 4) as f64
    }

    /// Online-analysis shapes: a single subject's session (no nested CV).
    /// Returns (corr, syrk) shapes for a task of `v` voxels and the
    /// number of epoch folds used for selection.
    pub fn online_shapes(&self, v: u64) -> (CorrShape, SyrkShape, u64) {
        let (n, subjects, m, k) = self.table2();
        let per_subject = m / subjects;
        (CorrShape { v, n, m: per_subject, k }, SyrkShape { m: per_subject, n, voxels: v }, 4)
    }

    /// A synthetic config with this dataset's full epoch structure and a
    /// scaled voxel count (pass the full count for the true shape).
    pub fn scaled_config(&self, n_voxels: usize) -> SynthConfig {
        match self {
            DatasetKind::FaceScene => fcma_fmri::presets::face_scene_scaled(n_voxels),
            DatasetKind::Attention => fcma_fmri::presets::attention_scaled(n_voxels),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn face_scene_shapes_match_paper_section54() {
        let d = DatasetKind::FaceScene;
        let c = d.corr_shape(120);
        assert_eq!((c.v, c.n, c.m, c.k), (120, 34_470, 216, 12));
        let s = d.syrk_shape(120);
        assert_eq!((s.m, s.n), (204, 34_470)); // the paper's 204×34470
        let svm = d.svm_shape(120, 1000);
        assert_eq!(svm.l, 192);
        assert_eq!(svm.folds, 17);
    }

    #[test]
    fn attention_shapes() {
        let d = DatasetKind::Attention;
        let s = d.syrk_shape(60);
        assert_eq!(s.m, 522);
        let svm = d.svm_shape(60, 1000);
        assert_eq!(svm.l, 504);
        assert_eq!(svm.folds, 29);
    }

    #[test]
    fn online_shapes_are_single_session() {
        let (c, s, folds) = DatasetKind::FaceScene.online_shapes(240);
        assert_eq!(c.m, 12);
        assert_eq!(s.m, 12);
        assert!(folds >= 2);
    }

    #[test]
    fn data_bytes_are_hundreds_of_megabytes() {
        let b = DatasetKind::FaceScene.data_bytes();
        assert!((1e8..1e9).contains(&b), "face-scene bytes {b:e}");
    }
}
