//! Brain masks: restricting analysis to a voxel subset.
//!
//! Real FCMA never runs on the raw scanner grid — a brain mask first
//! removes air, skull, and non-gray-matter voxels (the paper's 34,470
//! voxels *are* the masked count of a larger acquisition grid). A
//! [`VoxelMask`] selects the voxels to keep; applying it produces a
//! compacted [`Dataset`] plus the mapping back to original indices so
//! selected voxels can be reported in acquisition space.

// An input boundary: product code here returns typed errors (DESIGN.md §10).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable
)]

use crate::dataset::Dataset;
use fcma_linalg::Mat;

/// A voxel-inclusion mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoxelMask {
    keep: Vec<bool>,
}

impl VoxelMask {
    /// Mask keeping every voxel.
    pub fn all(n_voxels: usize) -> Self {
        VoxelMask { keep: vec![true; n_voxels] }
    }

    /// Mask from an explicit sorted-or-not index list.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn from_indices(n_voxels: usize, indices: &[usize]) -> Self {
        let mut keep = vec![false; n_voxels];
        for &i in indices {
            assert!(i < n_voxels, "VoxelMask: index {i} out of range ({n_voxels})");
            if let Some(slot) = keep.get_mut(i) {
                *slot = true;
            }
        }
        VoxelMask { keep }
    }

    /// Mask from a predicate over voxel indices.
    pub fn from_fn(n_voxels: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        VoxelMask { keep: (0..n_voxels).map(&mut f).collect() }
    }

    /// Threshold mask: keep voxels whose mean absolute activity exceeds
    /// `threshold` — the standard crude brain/air separation (air voxels
    /// have near-zero signal).
    pub fn threshold_mean_abs(dataset: &Dataset, threshold: f32) -> Self {
        let nt = dataset.n_timepoints().max(1) as f32;
        VoxelMask {
            keep: (0..dataset.n_voxels())
                .map(|v| {
                    let mean_abs = dataset.data().row(v).iter().map(|x| x.abs()).sum::<f32>() / nt;
                    mean_abs > threshold
                })
                .collect(),
        }
    }

    /// Total voxels the mask is defined over.
    pub fn len(&self) -> usize {
        self.keep.len()
    }

    /// True when defined over zero voxels.
    pub fn is_empty(&self) -> bool {
        self.keep.is_empty()
    }

    /// Number of kept voxels.
    pub fn n_kept(&self) -> usize {
        self.keep.iter().filter(|&&k| k).count()
    }

    /// Whether voxel `v` is kept.
    pub fn contains(&self, v: usize) -> bool {
        self.keep.get(v).copied().unwrap_or(false)
    }

    /// Kept voxel indices, ascending.
    pub fn indices(&self) -> Vec<usize> {
        self.keep.iter().enumerate().filter_map(|(i, &k)| if k { Some(i) } else { None }).collect()
    }

    /// Intersect with another mask of the same length.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn and(&self, other: &VoxelMask) -> VoxelMask {
        assert_eq!(self.len(), other.len(), "VoxelMask::and: length mismatch");
        VoxelMask { keep: self.keep.iter().zip(&other.keep).map(|(&a, &b)| a && b).collect() }
    }

    /// Apply to a dataset: returns the compacted dataset (kept voxels
    /// only, epoch table unchanged) and the compact→original index map.
    ///
    /// # Panics
    /// Panics if the mask length differs from the dataset's voxel count
    /// or keeps zero voxels.
    pub fn apply(&self, dataset: &Dataset) -> (Dataset, Vec<usize>) {
        assert_eq!(
            self.len(),
            dataset.n_voxels(),
            "VoxelMask::apply: mask over {} voxels, dataset has {}",
            self.len(),
            dataset.n_voxels()
        );
        let kept = self.indices();
        assert!(!kept.is_empty(), "VoxelMask::apply: empty mask");
        let nt = dataset.n_timepoints();
        let mut data = Mat::zeros(kept.len(), nt);
        for (ci, &oi) in kept.iter().enumerate() {
            data.row_mut(ci).copy_from_slice(dataset.data().row(oi));
        }
        #[expect(
            clippy::expect_used,
            reason = "masking keeps the time axis, so every epoch stays valid"
        )]
        let masked = Dataset::new(data, dataset.epochs().to_vec())
            .expect("masking preserves epoch validity");
        (masked, kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn all_and_from_indices() {
        let m = VoxelMask::all(5);
        assert_eq!(m.n_kept(), 5);
        let m = VoxelMask::from_indices(5, &[0, 3]);
        assert_eq!(m.n_kept(), 2);
        assert!(m.contains(0) && m.contains(3) && !m.contains(1));
        assert_eq!(m.indices(), vec![0, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_indices_checks_bounds() {
        let _ = VoxelMask::from_indices(3, &[3]);
    }

    #[test]
    fn intersection() {
        let a = VoxelMask::from_indices(4, &[0, 1, 2]);
        let b = VoxelMask::from_indices(4, &[1, 2, 3]);
        assert_eq!(a.and(&b).indices(), vec![1, 2]);
    }

    #[test]
    fn apply_compacts_and_maps_back() {
        let (d, _) = presets::tiny().generate();
        let mask = VoxelMask::from_fn(d.n_voxels(), |v| v % 3 == 0);
        let (masked, map) = mask.apply(&d);
        assert_eq!(masked.n_voxels(), mask.n_kept());
        assert_eq!(masked.n_epochs(), d.n_epochs());
        for (ci, &oi) in map.iter().enumerate() {
            assert_eq!(masked.data().row(ci), d.data().row(oi));
        }
    }

    #[test]
    fn threshold_removes_dead_voxels() {
        let (d, _) = presets::tiny().generate();
        // Zero out a few voxels, then threshold.
        let (mut data, epochs) = d.into_parts();
        for v in [0usize, 5, 10] {
            data.row_mut(v).fill(0.0);
        }
        let d = Dataset::new(data, epochs).unwrap();
        let mask = VoxelMask::threshold_mean_abs(&d, 0.01);
        assert!(!mask.contains(0) && !mask.contains(5) && !mask.contains(10));
        assert_eq!(mask.n_kept(), d.n_voxels() - 3);
    }

    #[test]
    #[should_panic(expected = "empty mask")]
    fn apply_rejects_empty_mask() {
        let (d, _) = presets::tiny().generate();
        let mask = VoxelMask::from_indices(d.n_voxels(), &[]);
        let _ = mask.apply(&d);
    }

    #[test]
    fn masked_analysis_end_to_end_mapping() {
        // The planted voxels must survive masking and map back correctly.
        let cfg = presets::tiny();
        let (d, gt) = cfg.generate();
        // Keep planted voxels + every second voxel.
        let mut keep: Vec<usize> = (0..d.n_voxels()).filter(|v| v % 2 == 0).collect();
        keep.extend(&gt.informative);
        keep.sort_unstable();
        keep.dedup();
        let mask = VoxelMask::from_indices(d.n_voxels(), &keep);
        let (masked, map) = mask.apply(&d);
        // Every planted voxel appears in the compact dataset.
        for &inf in &gt.informative {
            let compact = map.iter().position(|&o| o == inf);
            assert!(compact.is_some(), "planted voxel {inf} lost by masking");
            let ci = compact.unwrap();
            assert_eq!(masked.data().row(ci), d.data().row(inf));
        }
    }
}
