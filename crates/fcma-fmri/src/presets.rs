//! Preset configurations mirroring the paper's two evaluation datasets
//! (Table 2) plus scaled-down variants sized for laptop runs.
//!
//! | Dataset    | Voxels | Subjects | Epochs | Epoch length |
//! |------------|--------|----------|--------|--------------|
//! | face-scene | 34,470 | 18       | 216    | 12           |
//! | attention  | 25,260 | 30       | 540    | 12           |

use crate::noise::{Ar1, Drift};
use crate::synth::{Placement, SynthConfig};

/// Full-scale *face-scene* shape: 34,470 voxels, 18 subjects, 216 epochs
/// of 12 time points (12 epochs per subject).
pub(crate) fn face_scene_full() -> SynthConfig {
    SynthConfig {
        n_voxels: 34_470,
        n_subjects: 18,
        epochs_per_subject: 12,
        epoch_len: 12,
        gap: 4,
        n_informative: 256,
        coupling: 0.9,
        noise: Ar1 { phi: 0.4, sigma: 1.0 },
        drift: Drift { linear: 1.0, sin_amp: 0.5, sin_cycles: 2.0 },
        seed: 0xFACE_5CE0,
        placement: Placement::Random,
    }
}

/// Full-scale *attention* shape: 25,260 voxels, 30 subjects, 540 epochs of
/// 12 time points (18 epochs per subject).
pub(crate) fn attention_full() -> SynthConfig {
    SynthConfig {
        n_voxels: 25_260,
        n_subjects: 30,
        epochs_per_subject: 18,
        epoch_len: 12,
        gap: 4,
        n_informative: 192,
        coupling: 0.9,
        noise: Ar1 { phi: 0.4, sigma: 1.0 },
        drift: Drift { linear: 1.0, sin_amp: 0.5, sin_cycles: 2.0 },
        seed: 0xA77E_0710,
        placement: Placement::Random,
    }
}

/// *face-scene* with the voxel count scaled down but the full epoch
/// structure retained (18 subjects × 12 epochs of 12 tp). Shape-faithful
/// for everything except `N`.
pub fn face_scene_scaled(n_voxels: usize) -> SynthConfig {
    let mut cfg = face_scene_full();
    cfg.n_voxels = n_voxels;
    cfg.n_informative = (n_voxels / 64).max(4) & !1; // even, ~1.5% of brain
    cfg
}

/// *attention* with the voxel count scaled down (30 subjects × 18 epochs
/// of 12 tp retained).
pub fn attention_scaled(n_voxels: usize) -> SynthConfig {
    let mut cfg = attention_full();
    cfg.n_voxels = n_voxels;
    cfg.n_informative = (n_voxels / 64).max(4) & !1;
    cfg
}

/// A tiny configuration for unit and integration tests: completes an
/// end-to-end FCMA run in well under a second.
pub fn tiny() -> SynthConfig {
    SynthConfig {
        n_voxels: 96,
        n_subjects: 4,
        epochs_per_subject: 8,
        epoch_len: 12,
        gap: 2,
        n_informative: 12,
        coupling: 1.4,
        noise: Ar1 { phi: 0.3, sigma: 1.0 },
        drift: Drift { linear: 0.5, sin_amp: 0.3, sin_cycles: 1.5 },
        seed: 0x7E57_7E57,
        placement: Placement::Random,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn face_scene_matches_table2() {
        let cfg = face_scene_full();
        assert_eq!(cfg.n_voxels, 34_470);
        assert_eq!(cfg.n_subjects, 18);
        assert_eq!(cfg.n_epochs(), 216);
        assert_eq!(cfg.epoch_len, 12);
    }

    #[test]
    fn attention_matches_table2() {
        let cfg = attention_full();
        assert_eq!(cfg.n_voxels, 25_260);
        assert_eq!(cfg.n_subjects, 30);
        assert_eq!(cfg.n_epochs(), 540);
        assert_eq!(cfg.epoch_len, 12);
    }

    #[test]
    fn scaled_presets_keep_epoch_structure() {
        let cfg = face_scene_scaled(2048);
        assert_eq!(cfg.n_voxels, 2048);
        assert_eq!(cfg.n_epochs(), 216);
        assert!(cfg.n_informative.is_multiple_of(2) && cfg.n_informative >= 4);
        let cfg = attention_scaled(1024);
        assert_eq!(cfg.n_epochs(), 540);
    }

    #[test]
    fn tiny_preset_generates() {
        let (d, gt) = tiny().generate();
        assert_eq!(d.n_voxels(), 96);
        assert_eq!(gt.informative.len(), 12);
    }
}
