//! Linear-kernel (Gram) matrix precomputation.
//!
//! FCMA's stage 3 trains one linear SVM per voxel over that voxel's
//! correlation vectors. Because the feature dimension (`N` ≈ 35,000
//! brain voxels) dwarfs the sample count (`M` ≈ a few hundred epochs),
//! the paper precomputes the entire `M × M` kernel matrix
//! `K = X · Xᵀ` once per voxel with a symmetric rank-k update (§3.2),
//! then runs every cross-validation fold against a training block
//! gathered from it (`KernelMatrix::gather_block`). The precompute also
//! collapses a ~60 MB data matrix into a ~160 KB kernel —
//! the memory reduction that lets a coprocessor hold 240 voxels' problems
//! at once (§4.4).

use fcma_linalg::{syrk_dot, syrk_panel_scratch, Mat, SyrkScratch, PANEL_K};
use fcma_trace::span;
use std::ops::Range;

/// The maximal runs of consecutive indices in `idx`, in order: two for a
/// LOSO fold around one contiguous subject, one per training stretch for
/// the online stratified folds.
pub(crate) fn index_runs(idx: &[usize]) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    for &t in idx {
        match runs.last_mut() {
            Some(run) if run.end == t => run.end = t + 1,
            _ => runs.push(t..t + 1),
        }
    }
    runs
}

/// A precomputed symmetric positive semidefinite Gram matrix over `M`
/// samples.
#[derive(Debug, Clone)]
pub struct KernelMatrix {
    k: Mat,
}

impl KernelMatrix {
    /// Precompute `K = X · Xᵀ` from an `M × N` sample-by-feature matrix
    /// using the paper's optimized panel SYRK.
    pub fn precompute(data: &Mat) -> Self {
        Self::precompute_raw(data.rows(), data.cols(), data.as_slice())
    }

    /// [`Self::precompute`] over a raw row-major `m × n` slice (avoids a
    /// copy when the data lives inside a larger buffer, as FCMA's
    /// per-voxel correlation matrices do), through a fresh SYRK scratch.
    ///
    /// # Panics
    /// If `data` holds fewer than `m × n` values.
    pub fn precompute_raw(m: usize, n: usize, data: &[f32]) -> Self {
        Self::precompute_raw_with(m, n, data, &mut SyrkScratch::new(m, PANEL_K))
    }

    /// [`Self::precompute_raw`] reusing caller-provided SYRK scratch —
    /// the per-thread path stage 3 takes when precomputing hundreds of
    /// voxels' kernels back to back (one allocation per worker instead
    /// of one per voxel).
    ///
    /// # Panics
    /// Panics if `scratch` was built for a smaller `m` than `data`'s rows.
    pub fn precompute_raw_with(
        m: usize,
        n: usize,
        data: &[f32],
        scratch: &mut SyrkScratch,
    ) -> Self {
        let _span = span!("svm.kernel.precompute", samples = m, features = n, kernel = "panel");
        let mut k = Mat::zeros(m, m);
        syrk_panel_scratch(m, n, data, n, k.as_mut_slice(), m, scratch);
        fcma_linalg::debug_assert_finite!(k.as_slice(), "stage3 SYRK kernel precompute");
        KernelMatrix { k }
    }

    /// Precompute via the generic library-style dot-product SYRK (the
    /// baseline path) over a raw row-major `m × n` slice.
    ///
    /// # Panics
    /// If `data` holds fewer than `m × n` values.
    pub fn precompute_baseline_raw(m: usize, n: usize, data: &[f32]) -> Self {
        let _span = span!("svm.kernel.precompute", samples = m, features = n, kernel = "dot");
        let mut k = Mat::zeros(m, m);
        syrk_dot(m, n, data, n, k.as_mut_slice(), m);
        fcma_linalg::debug_assert_finite!(k.as_slice(), "stage3 baseline kernel precompute");
        KernelMatrix { k }
    }

    /// Wrap an existing symmetric matrix as a kernel.
    ///
    /// # Panics
    /// Panics if the matrix is not square or departs from symmetry by more
    /// than a small tolerance.
    pub fn from_mat(k: Mat) -> Self {
        assert_eq!(k.rows(), k.cols(), "KernelMatrix: not square");
        for i in 0..k.rows() {
            for j in 0..i {
                let d = (k.get(i, j) - k.get(j, i)).abs();
                let scale = k.get(i, i).abs().max(k.get(j, j).abs()).max(1.0);
                assert!(
                    d <= 1e-3 * scale,
                    "KernelMatrix: asymmetric at ({i},{j}): {} vs {}",
                    k.get(i, j),
                    k.get(j, i)
                );
            }
        }
        KernelMatrix { k }
    }

    /// Number of samples `M`.
    pub fn n(&self) -> usize {
        self.k.rows()
    }

    /// Full kernel row for sample `i`.
    ///
    /// # Panics
    /// If `i` is not a sample index.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        self.k.row(i)
    }

    /// Gather the training block over `runs × runs` into `out`, one
    /// `copy_from_slice` per run: row `a` of the block starts at
    /// `a * stride`, holds the selected entries of the `a`-th selected
    /// kernel row, and is zero from there to the stride.
    ///
    /// # Panics
    /// If a run reaches past the kernel, or `out` is not `stride` floats
    /// per selected row with `stride` at least the selected count.
    pub(crate) fn gather_block(&self, runs: &[Range<usize>], stride: usize, out: &mut [f32]) {
        let l: usize = runs.iter().map(Range::len).sum();
        assert_eq!(out.len(), l * stride, "gather_block: block rows != selected samples");
        let rows = runs.iter().flat_map(Clone::clone);
        for (dst, ia) in out.chunks_exact_mut(stride).zip(rows) {
            let src = self.k.row(ia);
            let mut at = 0;
            for run in runs {
                dst[at..at + run.len()].copy_from_slice(&src[run.clone()]);
                at += run.len();
            }
            dst[at..].fill(0.0);
        }
    }

    /// Extract the dense sub-kernel over `idx × idx`.
    ///
    /// # Panics
    /// If any index in `idx` is out of range for the kernel.
    pub fn sub_kernel(&self, idx: &[usize]) -> Mat {
        let l = idx.len();
        let mut out = Mat::zeros(l, l);
        if l > 0 {
            self.gather_block(&index_runs(idx), l, out.as_mut_slice());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Mat {
        Mat::from_fn(6, 40, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.21 - 1.2)
    }

    #[test]
    fn precompute_matches_baseline() {
        let x = samples();
        let a = KernelMatrix::precompute(&x);
        let b = KernelMatrix::precompute_baseline_raw(x.rows(), x.cols(), x.as_slice());
        assert!(a.k.max_abs_diff(&b.k) < 1e-3);
    }

    #[test]
    fn precompute_with_scratch_is_bit_identical() {
        let x = samples();
        let fresh = KernelMatrix::precompute(&x);
        let mut scratch = SyrkScratch::new(x.rows(), fcma_linalg::PANEL_K);
        for _round in 0..2 {
            let reused =
                KernelMatrix::precompute_raw_with(x.rows(), x.cols(), x.as_slice(), &mut scratch);
            for (r, f) in reused.k.as_slice().iter().zip(fresh.k.as_slice()) {
                assert_eq!(r.to_bits(), f.to_bits());
            }
        }
    }

    #[test]
    fn kernel_is_gram_matrix() {
        let x = samples();
        let k = KernelMatrix::precompute(&x);
        for i in 0..x.rows() {
            for j in 0..x.rows() {
                let want = fcma_linalg::dot(x.row(i), x.row(j));
                assert!((k.row(i)[j] - want).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn sub_kernel_selects_rows_and_cols() {
        let x = samples();
        let k = KernelMatrix::precompute(&x);
        let idx = [4usize, 0, 2];
        let s = k.sub_kernel(&idx);
        assert_eq!(s.rows(), 3);
        for a in 0..3 {
            for b in 0..3 {
                assert_eq!(s.get(a, b), k.row(idx[a])[idx[b]]);
            }
        }
    }

    #[test]
    fn index_runs_are_maximal_and_ordered() {
        assert_eq!(index_runs(&[]), Vec::<Range<usize>>::new());
        assert_eq!(index_runs(&[0, 1, 2, 5, 6, 9]), vec![0..3, 5..7, 9..10]);
        assert_eq!(index_runs(&[4, 0, 2, 3]), vec![4..5, 0..1, 2..4]);
    }

    #[test]
    fn gather_block_pads_rows_with_zeros() {
        let x = samples();
        let k = KernelMatrix::precompute(&x);
        let idx = [0usize, 1, 3, 5];
        let mut out = vec![f32::NAN; 4 * 8];
        k.gather_block(&index_runs(&idx), 8, &mut out);
        for (a, row) in out.chunks_exact(8).enumerate() {
            for (b, &v) in row.iter().enumerate() {
                let want = if b < 4 { k.row(idx[a])[idx[b]] } else { 0.0 };
                assert_eq!(v.to_bits(), want.to_bits(), "({a},{b})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not square")]
    fn from_mat_rejects_rectangular() {
        let _ = KernelMatrix::from_mat(Mat::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "asymmetric")]
    fn from_mat_rejects_asymmetric() {
        let mut m = Mat::zeros(2, 2);
        m.set(0, 1, 1.0);
        m.set(1, 0, -1.0);
        let _ = KernelMatrix::from_mat(m);
    }
}
