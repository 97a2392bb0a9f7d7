//! Synthetic fMRI data with *planted* condition-dependent correlation
//! structure.
//!
//! The paper evaluates on two human datasets we cannot obtain
//! (*face-scene* and *attention*). This generator substitutes them with
//! synthetic data that exercises the same code paths **and** carries a
//! known ground truth: a subset of "informative" voxels whose mutual
//! correlations flip with the task condition. FCMA run end-to-end on this
//! data must rank the informative voxels at the top — a stronger
//! correctness check than any real dataset allows.
//!
//! Planting mechanism: the informative set is split into two halves. In
//! every epoch a latent signal `g(t)` is added to both halves — with the
//! same sign under condition A and opposite signs under condition B. The
//! cross-half correlations are therefore positive in A epochs and negative
//! in B epochs, while every other correlation is condition-independent
//! noise. Only the *correlation structure* discriminates; mean activity
//! does not, which is exactly the regime FCMA (as opposed to activity-based
//! MVPA) targets.

use crate::dataset::{Condition, Dataset, EpochSpec};
use crate::geometry::Grid3;
use crate::hrf::Hrf;
use crate::noise::{gaussian, Ar1, Drift};
use fcma_linalg::Mat;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How the informative network is placed in the brain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// Uniformly random voxels (the default; hardest for any method that
    /// exploits spatial smoothness).
    Random,
    /// Two spatially compact spherical blobs on a cubic grid — one per
    /// network half, mimicking anatomically localized regions whose
    /// *inter-region* coupling flips with condition. Lets ROI cluster
    /// extraction ([`crate::geometry::extract_clusters`]) be validated
    /// end-to-end.
    SphericalBlobs,
}

/// Configuration of the synthetic generator.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Brain voxels (`N`).
    pub n_voxels: usize,
    /// Subjects.
    pub n_subjects: usize,
    /// Labeled epochs per subject (must be even: half A, half B).
    pub epochs_per_subject: usize,
    /// Time points per epoch (the paper's datasets use 12).
    pub epoch_len: usize,
    /// Unlabeled rest points between consecutive epochs.
    pub gap: usize,
    /// Size of the planted informative network.
    pub n_informative: usize,
    /// Amplitude of the shared latent signal relative to unit noise.
    pub coupling: f32,
    /// Temporal noise process.
    pub noise: Ar1,
    /// Scanner drift.
    pub drift: Drift,
    /// RNG seed; everything is deterministic given the config.
    pub seed: u64,
    /// Spatial placement of the informative network.
    pub placement: Placement,
    /// Optional hemodynamic response convolution of the planted latent
    /// signals (None = instantaneous neural coupling; Some = realistic
    /// BOLD dynamics that bleed across epoch boundaries).
    pub hrf: Option<Hrf>,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            n_voxels: 1024,
            n_subjects: 4,
            epochs_per_subject: 12,
            epoch_len: 12,
            gap: 4,
            n_informative: 32,
            coupling: 0.9,
            noise: Ar1 { phi: 0.4, sigma: 1.0 },
            drift: Drift { linear: 1.0, sin_amp: 0.5, sin_cycles: 2.0 },
            seed: 0x5EED_FC3A,
            placement: Placement::Random,
            hrf: None,
        }
    }
}

/// Ground truth accompanying a generated dataset.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Sorted indices of the planted informative voxels.
    pub informative: Vec<usize>,
}

impl GroundTruth {
    /// Whether `voxel` is part of the planted network.
    pub fn is_informative(&self, voxel: usize) -> bool {
        self.informative.binary_search(&voxel).is_ok()
    }
}

impl SynthConfig {
    /// Time points per subject scan.
    pub(crate) fn timepoints_per_subject(&self) -> usize {
        self.epochs_per_subject * (self.epoch_len + self.gap)
    }

    /// Total time points across all subjects (subjects occupy disjoint
    /// windows of the shared time axis).
    pub fn n_timepoints(&self) -> usize {
        self.n_subjects * self.timepoints_per_subject()
    }

    /// Total labeled epochs.
    pub fn n_epochs(&self) -> usize {
        self.n_subjects * self.epochs_per_subject
    }

    fn validate(&self) {
        assert!(self.n_voxels > 0, "synth: n_voxels == 0");
        assert!(self.n_subjects > 0, "synth: n_subjects == 0");
        assert!(self.epochs_per_subject >= 2, "synth: need >= 2 epochs per subject");
        assert!(
            self.epochs_per_subject.is_multiple_of(2),
            "synth: epochs_per_subject must be even (half per condition)"
        );
        assert!(self.epoch_len >= 2, "synth: epoch_len must be >= 2");
        assert!(
            self.n_informative <= self.n_voxels,
            "synth: n_informative {} > n_voxels {}",
            self.n_informative,
            self.n_voxels
        );
        assert!(self.n_informative.is_multiple_of(2), "synth: n_informative must be even");
    }

    /// The two halves of the informative network (the halves whose mutual
    /// correlation flips with condition), each sorted. Deterministic in
    /// the seed.
    ///
    /// # Panics
    /// If the config is invalid (odd `n_informative`, network larger than
    /// the volume, or zero-sized dimensions).
    pub(crate) fn network_halves(&self) -> (Vec<usize>, Vec<usize>) {
        self.validate();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xA11C_E5E1);
        let half = self.n_informative / 2;
        match self.placement {
            Placement::Random => {
                let mut all: Vec<usize> = (0..self.n_voxels).collect();
                all.shuffle(&mut rng);
                let mut h1: Vec<usize> = all[..half].to_vec();
                let mut h2: Vec<usize> = all[half..self.n_informative].to_vec();
                h1.sort_unstable();
                h2.sort_unstable();
                (h1, h2)
            }
            Placement::SphericalBlobs => {
                let grid = Grid3::cube_for(self.n_voxels);
                let c1 = rng.random_range(0..self.n_voxels);
                // Second region: the voxel farthest from the first center
                // (deterministic, maximally separated).
                let c2 = (0..self.n_voxels)
                    .max_by(|&a, &b| {
                        grid.distance(c1, a).total_cmp(&grid.distance(c1, b)).then(a.cmp(&b))
                    })
                    // Cannot panic: the range is non-empty (random_range above panics first on n_voxels == 0)
                    .expect("n_voxels > 0");
                let blob = |center: usize, exclude: &[usize]| -> Vec<usize> {
                    let mut all: Vec<usize> =
                        (0..self.n_voxels).filter(|v| !exclude.contains(v)).collect();
                    all.sort_by(|&a, &b| {
                        grid.distance(center, a)
                            .total_cmp(&grid.distance(center, b))
                            .then(a.cmp(&b))
                    });
                    let mut v: Vec<usize> = all.into_iter().take(half).collect();
                    v.sort_unstable();
                    v
                };
                let h1 = blob(c1, &[]);
                let h2 = blob(c2, &h1);
                (h1, h2)
            }
        }
    }

    /// Generate the dataset and its ground truth.
    ///
    /// # Panics
    /// If the config is invalid (odd `n_informative`, network larger than
    /// the volume, or zero-sized dimensions).
    pub fn generate(&self) -> (Dataset, GroundTruth) {
        self.validate();
        let nt = self.n_timepoints();
        let tps = self.timepoints_per_subject();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);

        // Background: AR(1) noise + drift for every voxel.
        let mut data = Mat::zeros(self.n_voxels, nt);
        for v in 0..self.n_voxels {
            let series = self.noise.generate(&mut rng, nt);
            let phase: f32 = rng.random::<f32>();
            let row = data.row_mut(v);
            for (t, (dst, src)) in row.iter_mut().zip(&series).enumerate() {
                *dst = *src + self.drift.at(t, nt, phase);
            }
        }

        // Informative network membership: union of the two halves, sorted.
        let (h1, h2) = self.network_halves();
        let mut informative: Vec<usize> = h1.iter().chain(h2.iter()).copied().collect();
        informative.sort_unstable();

        // Epoch table: per subject, half A / half B in a shuffled order.
        let mut epochs = Vec::with_capacity(self.n_epochs());
        for s in 0..self.n_subjects {
            let mut labels: Vec<Condition> = (0..self.epochs_per_subject)
                .map(|i| if i % 2 == 0 { Condition::A } else { Condition::B })
                .collect();
            labels.shuffle(&mut rng);
            for (i, &label) in labels.iter().enumerate() {
                let start = s * tps + i * (self.epoch_len + self.gap);
                epochs.push(EpochSpec { subject: s, label, start, len: self.epoch_len });
            }
        }

        // Plant the latent signal into the informative halves. The two
        // halves' full-timeline latents are built first so an optional
        // HRF convolution can bleed realistically across epoch windows.
        let mut latent1 = vec![0.0f32; nt];
        let mut latent2 = vec![0.0f32; nt];
        for ep in &epochs {
            let sign2 = match ep.label {
                Condition::A => 1.0f32,
                Condition::B => -1.0f32,
            };
            for t in 0..self.epoch_len {
                let g = gaussian(&mut rng);
                latent1[ep.start + t] += g;
                latent2[ep.start + t] += sign2 * g;
            }
        }
        if let Some(h) = &self.hrf {
            latent1 = h.convolve(&latent1);
            latent2 = h.convolve(&latent2);
        }
        for &v in &h1 {
            let row = data.row_mut(v);
            for (t, &g) in latent1.iter().enumerate() {
                row[t] += self.coupling * g;
            }
        }
        for &v in &h2 {
            let row = data.row_mut(v);
            for (t, &g) in latent2.iter().enumerate() {
                row[t] += self.coupling * g;
            }
        }

        // Cannot panic: epochs were generated within the bounds of the data just built
        let dataset = Dataset::new(data, epochs).expect("synthetic dataset must validate");
        (dataset, GroundTruth { informative })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcma_linalg::{dot, normalize_epoch};

    fn small() -> SynthConfig {
        SynthConfig {
            n_voxels: 64,
            n_subjects: 3,
            epochs_per_subject: 8,
            epoch_len: 12,
            gap: 2,
            n_informative: 8,
            coupling: 1.2,
            ..SynthConfig::default()
        }
    }

    #[test]
    fn generated_shapes_match_config() {
        let cfg = small();
        let (d, gt) = cfg.generate();
        assert_eq!(d.n_voxels(), 64);
        assert_eq!(d.n_subjects(), 3);
        assert_eq!(d.n_epochs(), 24);
        assert_eq!(d.n_timepoints(), cfg.n_timepoints());
        assert_eq!(gt.informative.len(), 8);
        assert!(gt.informative.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = small();
        let (d1, g1) = cfg.generate();
        let (d2, g2) = cfg.generate();
        assert_eq!(g1.informative, g2.informative);
        assert_eq!(d1.data().as_slice(), d2.data().as_slice());
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = small();
        let (d1, _) = cfg.generate();
        cfg.seed ^= 0xFF;
        let (d2, _) = cfg.generate();
        assert_ne!(d1.data().as_slice(), d2.data().as_slice());
    }

    #[test]
    fn labels_are_balanced_per_subject() {
        let (d, _) = small().generate();
        for s in 0..d.n_subjects() {
            let of_s: Vec<_> = d.epochs().iter().filter(|e| e.subject == s).collect();
            let a = of_s.iter().filter(|e| e.label == Condition::A).count();
            assert_eq!(a * 2, of_s.len(), "subject {s} imbalanced");
        }
    }

    /// The planted structure must actually flip cross-half correlations
    /// with condition — the property the whole pipeline depends on.
    #[test]
    fn cross_half_correlation_flips_with_condition() {
        let cfg = SynthConfig { coupling: 2.0, ..small() };
        let (d, _) = cfg.generate();
        let (h1, h2) = cfg.network_halves();
        let v1 = h1[0];
        let v2 = h2[0];
        let mut sum_a = 0.0f32;
        let mut sum_b = 0.0f32;
        let mut n_a = 0;
        let mut n_b = 0;
        for e in 0..d.n_epochs() {
            let mut x = d.epoch_series(v1, e).to_vec();
            let mut y = d.epoch_series(v2, e).to_vec();
            normalize_epoch(&mut x);
            normalize_epoch(&mut y);
            let r = dot(&x, &y);
            match d.epochs()[e].label {
                Condition::A => {
                    sum_a += r;
                    n_a += 1;
                }
                Condition::B => {
                    sum_b += r;
                    n_b += 1;
                }
            }
        }
        let mean_a = sum_a / n_a as f32;
        let mean_b = sum_b / n_b as f32;
        assert!(mean_a > 0.3, "A-condition cross-half corr too weak: {mean_a}");
        assert!(mean_b < -0.3, "B-condition cross-half corr should be negative: {mean_b}");
    }

    /// Uninformative voxel pairs must NOT discriminate.
    #[test]
    fn uninformative_correlations_do_not_flip() {
        let cfg = small();
        let (d, gt) = cfg.generate();
        let outsiders: Vec<usize> =
            (0..d.n_voxels()).filter(|v| !gt.is_informative(*v)).take(6).collect();
        let mut diff_sum = 0.0f32;
        let mut pairs = 0;
        for (ai, &va) in outsiders.iter().enumerate() {
            for &vb in &outsiders[ai + 1..] {
                let mut sum_a = 0.0f32;
                let mut sum_b = 0.0f32;
                let mut n_a = 0;
                let mut n_b = 0;
                for e in 0..d.n_epochs() {
                    let mut x = d.epoch_series(va, e).to_vec();
                    let mut y = d.epoch_series(vb, e).to_vec();
                    normalize_epoch(&mut x);
                    normalize_epoch(&mut y);
                    let r = dot(&x, &y);
                    match d.epochs()[e].label {
                        Condition::A => {
                            sum_a += r;
                            n_a += 1;
                        }
                        Condition::B => {
                            sum_b += r;
                            n_b += 1;
                        }
                    }
                }
                diff_sum += (sum_a / n_a as f32 - sum_b / n_b as f32).abs();
                pairs += 1;
            }
        }
        let mean_abs_diff = diff_sum / pairs as f32;
        assert!(mean_abs_diff < 0.35, "uninformative pairs discriminate: {mean_abs_diff}");
    }

    #[test]
    fn spherical_blobs_are_spatially_compact_and_disjoint() {
        let cfg = SynthConfig {
            n_voxels: 512, // 8x8x8 cube
            n_informative: 24,
            placement: Placement::SphericalBlobs,
            ..small()
        };
        let (h1, h2) = cfg.network_halves();
        assert_eq!(h1.len(), 12);
        assert_eq!(h2.len(), 12);
        assert!(h1.iter().all(|v| !h2.contains(v)), "halves overlap");
        // Compactness: every member of a blob is within a small radius of
        // the blob centroid (12 voxels fit inside radius ~2 on a cube).
        let grid = crate::geometry::Grid3::cube_for(cfg.n_voxels);
        for blob in [&h1, &h2] {
            let c = crate::geometry::Cluster { voxels: blob.clone() }.centroid(&grid);
            for &v in blob {
                let (x, y, z) = grid.coords(v);
                let d = ((x as f64 - c.0).powi(2)
                    + (y as f64 - c.1).powi(2)
                    + (z as f64 - c.2).powi(2))
                .sqrt();
                assert!(d < 3.5, "blob member {v} is {d:.1} from centroid");
            }
        }
        // Separation: blob centroids are far apart.
        let c1 = crate::geometry::Cluster { voxels: h1.clone() }.centroid(&grid);
        let c2 = crate::geometry::Cluster { voxels: h2.clone() }.centroid(&grid);
        let sep = ((c1.0 - c2.0).powi(2) + (c1.1 - c2.1).powi(2) + (c1.2 - c2.2).powi(2)).sqrt();
        assert!(sep > 4.0, "blob separation only {sep:.1}");
    }

    #[test]
    fn blob_placement_still_flips_correlations() {
        let cfg = SynthConfig {
            n_voxels: 216,
            n_informative: 12,
            coupling: 2.0,
            placement: Placement::SphericalBlobs,
            ..small()
        };
        let (d, _) = cfg.generate();
        let (h1, h2) = cfg.network_halves();
        let mut sum_a = 0.0f32;
        let mut sum_b = 0.0f32;
        let (mut n_a, mut n_b) = (0, 0);
        for e in 0..d.n_epochs() {
            let mut x = d.epoch_series(h1[0], e).to_vec();
            let mut y = d.epoch_series(h2[0], e).to_vec();
            normalize_epoch(&mut x);
            normalize_epoch(&mut y);
            let r = dot(&x, &y);
            match d.epochs()[e].label {
                Condition::A => {
                    sum_a += r;
                    n_a += 1;
                }
                Condition::B => {
                    sum_b += r;
                    n_b += 1;
                }
            }
        }
        assert!(sum_a / n_a as f32 > 0.3);
        assert!(sum_b / (n_b as f32) < -0.3);
    }

    #[test]
    fn hrf_convolved_data_still_flips_correlations() {
        // With the HRF the latent bleeds and smooths, but within-epoch
        // cross-half correlations must still carry the condition sign.
        let cfg = SynthConfig {
            coupling: 2.5,
            epoch_len: 16,
            gap: 8,
            hrf: Some(crate::hrf::Hrf::default()),
            ..small()
        };
        let (d, _) = cfg.generate();
        let (h1, h2) = cfg.network_halves();
        let mut sum_a = 0.0f32;
        let mut sum_b = 0.0f32;
        let (mut n_a, mut n_b) = (0, 0);
        for e in 0..d.n_epochs() {
            let mut x = d.epoch_series(h1[0], e).to_vec();
            let mut y = d.epoch_series(h2[0], e).to_vec();
            normalize_epoch(&mut x);
            normalize_epoch(&mut y);
            let r = dot(&x, &y);
            match d.epochs()[e].label {
                Condition::A => {
                    sum_a += r;
                    n_a += 1;
                }
                Condition::B => {
                    sum_b += r;
                    n_b += 1;
                }
            }
        }
        let (ma, mb) = (sum_a / n_a as f32, sum_b / n_b as f32);
        assert!(ma > mb + 0.3, "HRF data no longer discriminates: A {ma} vs B {mb}");
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn rejects_odd_epochs_per_subject() {
        let cfg = SynthConfig { epochs_per_subject: 7, ..small() };
        let _ = cfg.generate();
    }

    #[test]
    #[should_panic(expected = "n_informative")]
    fn rejects_oversized_network() {
        let cfg = SynthConfig { n_informative: 1000, n_voxels: 10, ..small() };
        let _ = cfg.generate();
    }
}
