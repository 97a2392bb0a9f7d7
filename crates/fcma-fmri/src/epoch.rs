//! Epoch extraction and per-epoch normalization (paper Eq. 2).
//!
//! Before any correlation is computed, FCMA normalizes each voxel's
//! activity within each epoch (subtract the epoch mean, divide by the
//! root sum of squares) so that Pearson correlation reduces to a dot
//! product and the full correlation matrix to a matrix multiply
//! (paper §3.1, Eq. 2–3). This module materializes those normalized
//! epoch matrices in the layouts the stage-1 kernels want:
//!
//! * the whole-brain side as `k × N` (time-major — a "brain" matrix whose
//!   columns are voxels), ready to be the right operand;
//! * any task's assigned-voxel block as `V × k` (voxel-major), extracted
//!   from the same normalized values, ready to be the left operand.

use crate::dataset::Dataset;
use fcma_linalg::{epoch_scale, Mat};
use std::ops::Range;

/// Voxels normalized per tile: the tile and the per-column statistics
/// stay in L1 at any epoch length, and every store is a 256-byte run
/// (DESIGN.md §8 has the widths and loop orders measured).
const VOXEL_BLOCK: usize = 64;

/// Normalize the block of voxels `v0..v0 + width` of epoch matrix `out`
/// (`k × N`) from `rows`, its `k` raw time points in order, one voxel per
/// column from column 0 (a row may run past `width`; the extra columns
/// are never stored). Each column's `f64` sums are accumulated in time
/// order, all columns side by side, and each row is normalized straight
/// into a contiguous run of `out`.
fn normalize_block<'a>(
    rows: impl Iterator<Item = &'a [f32]> + Clone,
    out: &mut Mat,
    v0: usize,
    width: usize,
) {
    let mut sum = [0.0f64; VOXEL_BLOCK];
    let mut sum_sq = [0.0f64; VOXEL_BLOCK];
    for row in rows.clone() {
        for ((s, s2), &raw) in sum.iter_mut().zip(&mut sum_sq).zip(row) {
            let raw = f64::from(raw);
            *s += raw;
            *s2 += raw * raw;
        }
    }
    // Per column: Eq. 2's (mean, 1/rss), and whether it has one (a
    // constant voxel does not). Three flat arrays, not one of `Option`s,
    // so the store loop below vectorises.
    let mut mean = [0.0f32; VOXEL_BLOCK];
    let mut inv = [0.0f32; VOXEL_BLOCK];
    let mut live = [false; VOXEL_BLOCK];
    let k = out.rows();
    for j in 0..width {
        let scale = epoch_scale(sum[j], sum_sq[j], k);
        live[j] = scale.is_some();
        (mean[j], inv[j]) = scale.unwrap_or_default();
    }
    for (t, row) in rows.enumerate() {
        let out = &mut out.row_mut(t)[v0..v0 + width];
        for ((((out, &raw), &mean), &inv), &live) in
            out.iter_mut().zip(row).zip(&mean).zip(&inv).zip(&live)
        {
            *out = if live { (raw - mean) * inv } else { 0.0 };
        }
    }
}

/// All epochs of a dataset, normalized per Eq. 2 and laid out for the
/// correlation kernels.
#[derive(Debug, Clone)]
pub struct NormalizedEpochs {
    /// One `k × N` matrix per epoch (time-major whole-brain activity).
    brain: Vec<Mat>,
    n_voxels: usize,
}

impl NormalizedEpochs {
    /// Normalize every epoch of `dataset`.
    ///
    /// Cost is one pass over each epoch window; dead (constant) voxels
    /// normalize to all-zero columns, giving zero correlation with
    /// everything (see [`fcma_linalg::normalize_epoch`]).
    pub fn from_dataset(dataset: &Dataset) -> Self {
        let keep: Vec<usize> = (0..dataset.n_epochs()).collect();
        Self::from_dataset_subset(dataset, &keep)
    }

    /// Normalize only the epochs whose table indices appear in `keep`
    /// (in `keep` order). Used by cross-validation folds that exclude a
    /// subject's epochs.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn from_dataset_subset(dataset: &Dataset, keep: &[usize]) -> Self {
        let windows: Vec<Range<usize>> = keep
            .iter()
            .map(|&e| {
                assert!(e < dataset.n_epochs(), "epoch index {e} out of range");
                let ep = &dataset.epochs()[e];
                ep.start..ep.start + ep.len
            })
            .collect();
        Self::from_windows(dataset.data(), &windows)
    }

    /// Normalize the time windows `windows` of a raw `voxels × time`
    /// activity matrix, one epoch per window (in `windows` order).
    ///
    /// Walks the voxels in blocks of [`VOXEL_BLOCK`]. For each block and
    /// each window, the voxels' raw windows are copied into a
    /// `k × block` tile (one voxel per column) and the tile is normalized
    /// by [`normalize_block`]. Per voxel the arithmetic is
    /// [`fcma_linalg::normalize_epoch`]'s, bit for bit, and every raw row
    /// is read once, front to back.
    ///
    /// # Panics
    /// Panics if a window reaches past the matrix's time points.
    pub fn from_windows(data: &Mat, windows: &[Range<usize>]) -> Self {
        let n = data.rows();
        let mut brain: Vec<Mat> = windows.iter().map(|w| Mat::zeros(w.len(), n)).collect();
        let k_max = brain.iter().map(Mat::rows).max().unwrap_or(0);
        let mut tile = vec![0.0f32; k_max * VOXEL_BLOCK];
        for v0 in (0..n).step_by(VOXEL_BLOCK) {
            let width = VOXEL_BLOCK.min(n - v0);
            for (window, m) in windows.iter().zip(&mut brain) {
                let k = m.rows();
                // Raw windows into the tile, one voxel per column.
                for j in 0..width {
                    let x = &data.row(v0 + j)[window.clone()];
                    for (row, &raw) in tile.chunks_exact_mut(VOXEL_BLOCK).zip(x) {
                        row[j] = raw;
                    }
                }
                normalize_block(tile.chunks_exact(VOXEL_BLOCK).take(k), m, v0, width);
            }
        }
        NormalizedEpochs { brain, n_voxels: n }
    }

    /// Normalize one epoch held as time-major volumes of `n` voxels each,
    /// volume `t` being the epoch's time point `t`: the bits of
    /// [`Self::from_windows`] over the same window laid out voxel-major.
    /// A volume is already a row of the `k × N` epoch matrix, so each
    /// block of [`VOXEL_BLOCK`] voxels is normalized straight from the
    /// volumes' runs, with no tile and no transposition.
    ///
    /// # Panics
    /// Panics if a volume holds fewer than `n` values.
    pub fn from_volumes(volumes: &[Vec<f32>], n: usize) -> Self {
        let mut m = Mat::zeros(volumes.len(), n);
        for v0 in (0..n).step_by(VOXEL_BLOCK) {
            let width = VOXEL_BLOCK.min(n - v0);
            normalize_block(volumes.iter().map(|v| &v[v0..v0 + width]), &mut m, v0, width);
        }
        NormalizedEpochs { brain: vec![m], n_voxels: n }
    }

    /// Number of epochs.
    pub fn n_epochs(&self) -> usize {
        self.brain.len()
    }

    /// Number of brain voxels (`N`).
    pub fn n_voxels(&self) -> usize {
        self.n_voxels
    }

    /// The `k × N` normalized whole-brain matrix for epoch `e`.
    ///
    /// # Panics
    /// If `e` is not a valid epoch index.
    pub fn brain(&self, e: usize) -> &Mat {
        &self.brain[e]
    }

    /// Extract the `V × k` assigned-voxel matrix for epoch `e` and the
    /// voxel range `voxels` (the left operand of the stage-1 multiply).
    ///
    /// # Panics
    /// Panics if the range exceeds the voxel count.
    pub(crate) fn assigned_block(&self, e: usize, voxels: Range<usize>) -> Mat {
        assert!(
            voxels.end <= self.n_voxels,
            "assigned_block: voxel range {voxels:?} exceeds N={}",
            self.n_voxels
        );
        let b = &self.brain[e];
        let k = b.rows();
        Mat::from_fn(voxels.len(), k, |r, c| b.get(c, voxels.start + r))
    }

    /// Extract assigned blocks for every epoch at once.
    ///
    /// # Panics
    /// Panics if the range exceeds the voxel count.
    pub fn assigned_blocks(&self, voxels: Range<usize>) -> Vec<Mat> {
        (0..self.n_epochs()).map(|e| self.assigned_block(e, voxels.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Condition, EpochSpec};
    use fcma_linalg::dot;

    fn dataset() -> Dataset {
        // 3 voxels, 24 time points, 2 epochs of 12 for one subject.
        let data = Mat::from_fn(3, 24, |r, c| ((r + 1) * (c + 3)) as f32 % 7.0 + r as f32);
        Dataset::new(
            data,
            vec![
                EpochSpec { subject: 0, label: Condition::A, start: 0, len: 12 },
                EpochSpec { subject: 0, label: Condition::B, start: 12, len: 12 },
            ],
        )
        .unwrap()
    }

    #[test]
    fn shapes_are_time_major() {
        let d = dataset();
        let ne = NormalizedEpochs::from_dataset(&d);
        assert_eq!(ne.n_epochs(), 2);
        assert_eq!(ne.brain(0).rows(), 12);
        assert_eq!(ne.brain(0).cols(), 3);
    }

    #[test]
    fn columns_have_unit_self_correlation() {
        let d = dataset();
        let ne = NormalizedEpochs::from_dataset(&d);
        for e in 0..2 {
            let b = ne.brain(e);
            for v in 0..3 {
                let col: Vec<f32> = (0..b.rows()).map(|t| b.get(t, v)).collect();
                let s = dot(&col, &col);
                assert!((s - 1.0).abs() < 1e-4, "epoch {e} voxel {v}: {s}");
            }
        }
    }

    #[test]
    fn a_lone_window_normalizes_as_its_epoch() {
        // Epoch 1's volumes alone, with no epoch table, as a voxel-major
        // window or as time-major volumes, give the bits of epoch 1
        // normalized inside the dataset.
        let d = dataset();
        let ne = NormalizedEpochs::from_dataset(&d);
        let window = Mat::from_fn(3, 12, |r, c| d.data().get(r, 12 + c));
        let lone = NormalizedEpochs::from_windows(&window, std::slice::from_ref(&(0..12)));
        let volumes: Vec<Vec<f32>> =
            (12..24).map(|t| (0..3).map(|v| d.data().get(v, t)).collect()).collect();
        let streamed = NormalizedEpochs::from_volumes(&volumes, 3);
        for lone in [lone, streamed] {
            assert_eq!(lone.n_epochs(), 1);
            for (a, b) in lone.brain(0).as_slice().iter().zip(ne.brain(1).as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn assigned_block_is_transposed_slice() {
        let d = dataset();
        let ne = NormalizedEpochs::from_dataset(&d);
        let blk = ne.assigned_block(1, 1..3);
        assert_eq!(blk.rows(), 2);
        assert_eq!(blk.cols(), 12);
        for r in 0..2 {
            for t in 0..12 {
                assert_eq!(blk.get(r, t), ne.brain(1).get(t, 1 + r));
            }
        }
    }

    #[test]
    fn dead_voxel_normalizes_to_zero_column() {
        let mut data = Mat::from_fn(2, 12, |_, c| c as f32);
        data.row_mut(1).fill(5.0); // constant voxel
        let d = Dataset::new(
            data,
            vec![
                EpochSpec { subject: 0, label: Condition::A, start: 0, len: 6 },
                EpochSpec { subject: 0, label: Condition::B, start: 6, len: 6 },
            ],
        )
        .unwrap();
        let ne = NormalizedEpochs::from_dataset(&d);
        for t in 0..6 {
            assert_eq!(ne.brain(0).get(t, 1), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "voxel range")]
    fn assigned_block_rejects_bad_range() {
        let d = dataset();
        let ne = NormalizedEpochs::from_dataset(&d);
        let _ = ne.assigned_block(0, 2..5);
    }
}
