//! PhiSVM — the paper's optimized SVM solver, and the "optimized LibSVM"
//! comparison point (Table 8).
//!
//! Both are thin assemblies over the dense `f32` SMO core in
//! [`crate::smo`], which solves over a training block gathered from the
//! precomputed kernel into a reusable [`SmoScratch`]:
//!
//! * **PhiSVM** = dense `f32` + precomputed kernel + *adaptive*
//!   working-set selection (first- vs second-order chosen by measured
//!   convergence rate, §4.4);
//! * **optimized LibSVM** = the paper's intermediate data point: LibSVM's
//!   algorithm (fixed second-order selection) but with the `f64`→`f32`
//!   conversion and dense, vectorization-friendly layout applied.

use crate::kernel::{index_runs, KernelMatrix};
use crate::model::SvmModel;
use crate::smo::{SmoParams, SmoScratch, Solved, WssMode};
use std::ops::Range;

/// Train PhiSVM on the samples `idx` (global kernel indices) with targets
/// `y` (±1, parallel to `idx`).
///
/// # Panics
/// Panics if `idx` and `y` differ in length, an index is out of range for
/// the kernel, or `y` is not a two-class ±1 vector.
pub fn train_phisvm(
    kernel: &KernelMatrix,
    idx: &[usize],
    y: &[f32],
    params: &SmoParams,
) -> SvmModel {
    assert_eq!(idx.len(), y.len(), "train: idx/targets length mismatch");
    let mut scratch = SmoScratch::default();
    let r = solve_runs(kernel, &index_runs(idx), y, params, &mut scratch);
    let alpha_y: Vec<f32> = scratch.alpha().iter().zip(y).map(|(a, yy)| a * yy).collect();
    SvmModel {
        train_idx: idx.to_vec(),
        alpha_y,
        rho: r.rho,
        objective: r.objective,
        iterations: r.iterations,
        wss: r.wss,
    }
}

/// The "optimized LibSVM" variant of `params`: identical machinery with
/// the working-set heuristic pinned to LibSVM's second-order rule.
pub(crate) fn optimized_libsvm(params: &SmoParams) -> SmoParams {
    SmoParams { wss: WssMode::SecondOrder, ..*params }
}

/// Solve the dual over the training block `runs × runs` of `kernel`
/// (runs of global kernel indices, `y` parallel to their concatenation):
/// gather the block into `scratch` and run SMO there. The dual variables
/// stay in the scratch.
pub(crate) fn solve_runs(
    kernel: &KernelMatrix,
    runs: &[Range<usize>],
    y: &[f32],
    params: &SmoParams,
    scratch: &mut SmoScratch,
) -> Solved {
    let (block, stride) = scratch.block_mut(y.len());
    kernel.gather_block(runs, stride, block);
    scratch.solve(y, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcma_linalg::Mat;

    fn toy_kernel() -> (KernelMatrix, Vec<f32>) {
        let xs: Vec<(f32, f32)> = (0..16)
            .map(|i| {
                let t = i as f32 * 0.8;
                (t.sin() * 0.5 + if i % 2 == 0 { 1.5 } else { -1.5 }, t.cos())
            })
            .collect();
        let y: Vec<f32> = (0..16).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let k = KernelMatrix::from_mat(Mat::from_fn(16, 16, |r, c| {
            xs[r].0 * xs[c].0 + xs[r].1 * xs[c].1
        }));
        (k, y)
    }

    #[test]
    fn phisvm_separates_separable_data() {
        let (k, y) = toy_kernel();
        let idx: Vec<usize> = (0..16).collect();
        let m = train_phisvm(&k, &idx, &y, &SmoParams::default());
        let acc = m.accuracy(&k, &idx, &y);
        assert_eq!(acc, 1.0, "training accuracy on separable data");
        assert!(m.n_support() >= 2);
    }

    #[test]
    fn optimized_libsvm_agrees_with_phisvm() {
        let (k, y) = toy_kernel();
        let idx: Vec<usize> = (0..16).collect();
        let a = train_phisvm(&k, &idx, &y, &SmoParams::default());
        let b = train_phisvm(&k, &idx, &y, &optimized_libsvm(&SmoParams::default()));
        assert!(
            (a.objective - b.objective).abs() < 1e-2 * a.objective.abs().max(1.0),
            "{} vs {}",
            a.objective,
            b.objective
        );
        for t in 0..16 {
            assert_eq!(a.predict(&k, t), b.predict(&k, t), "prediction differs at {t}");
        }
    }

    #[test]
    fn optimized_libsvm_never_uses_first_order() {
        let (k, y) = toy_kernel();
        let idx: Vec<usize> = (0..16).collect();
        let m = train_phisvm(&k, &idx, &y, &optimized_libsvm(&SmoParams::default()));
        assert_eq!(m.wss.first_order_iters, 0);
        assert!(m.wss.second_order_iters > 0);
    }

    #[test]
    fn subset_training_generalizes_on_toy() {
        let (k, y) = toy_kernel();
        let train: Vec<usize> = (0..12).collect();
        let test: Vec<usize> = (12..16).collect();
        let m = train_phisvm(&k, &train, &y[..12], &SmoParams::default());
        let acc = m.accuracy(&k, &test, &y[12..]);
        assert!(acc >= 0.75, "held-out accuracy {acc}");
    }
}
