//! Leave-one-subject-out cross validation over a precomputed kernel.
//!
//! FCMA's stage 3 assigns each voxel a classification accuracy by
//! cross-validating a linear SVM across subjects: every fold holds out one
//! subject's epochs, trains on the rest, and tests on the held-out epochs
//! (paper §3.1). Because the full `M × M` kernel matrix is precomputed,
//! a fold does no feature-space work at all: the dense solvers gather the
//! fold's training block from it, run by run, into a per-worker
//! [`SmoScratch`] (a few percent of the fold; SMO wants its rows
//! contiguous), solve there, and score each held-out epoch as one dot
//! product of the dual variables against that epoch's kernel row. The
//! fold plan — who trains, who tests, the training targets — is built
//! once per call, so a fold itself allocates nothing.

use crate::kernel::{index_runs, KernelMatrix};
use crate::phisvm::{optimized_libsvm, solve_runs};
use crate::reference::{decision as ref_decision, train_precomputed, LibSvmParams};
use crate::smo::{SmoParams, SmoScratch};
use fcma_sync::pool::Pool;
use fcma_sync::Mutex;
use fcma_trace::{counter, span};
use std::ops::Range;

/// Which solver runs the folds — the three rows of the paper's Table 8.
#[derive(Debug, Clone, Copy)]
pub enum SolverKind {
    /// The LibSVM replica (sparse nodes, `f64`, row cache).
    LibSvm(LibSvmParams),
    /// Dense `f32` with LibSVM's fixed second-order selection.
    OptimizedLibSvm(SmoParams),
    /// Dense `f32` with adaptive selection.
    PhiSvm(SmoParams),
}

impl Default for SolverKind {
    fn default() -> Self {
        SolverKind::PhiSvm(SmoParams::default())
    }
}

/// Outcome of a full leave-one-subject-out run.
#[derive(Debug, Clone)]
pub struct CvResult {
    /// Correct predictions across all folds / total held-out samples.
    pub accuracy: f64,
    /// Per-fold accuracy, indexed by held-out subject.
    pub fold_accuracies: Vec<f64>,
    /// Total SMO iterations across folds (a convergence-cost proxy).
    pub total_iterations: usize,
}

/// Leave-one-subject-out cross validation on the calling thread:
/// [`loso_cross_validate_with`] on the one-thread pool, through a fresh
/// solver scratch.
pub fn loso_cross_validate(
    kernel: &KernelMatrix,
    y: &[f32],
    subjects: &[usize],
    solver: &SolverKind,
) -> CvResult {
    let (pool, mut scratch) = (Pool::default(), SmoScratch::default());
    loso_cross_validate_with(kernel, y, subjects, solver, &pool, &mut scratch)
}

/// Run leave-one-subject-out cross validation.
///
/// `y[t]` is the ±1 target of sample `t`; `subjects[t]` its owning subject
/// (0-based contiguous). Samples are global kernel indices `0..kernel.n()`.
///
/// Each fold (one held-out subject) is one pool task; the fold results
/// are reduced in held-subject order, so the outcome is bit-identical at
/// every thread count and steal seed (DESIGN.md §15) — each fold's
/// training run is a serial solve over its own sub-problem, and the
/// cross-fold reduction is pure integer accumulation in a fixed order.
///
/// `scratch` is the caller's solver scratch — stage 3 keeps one per
/// voxel worker — and serves the first pool worker to start, which on
/// the one-thread pool is the only one; any other worker grows its own
/// for the length of the call.
///
/// # Panics
/// Panics on length mismatches or if any fold would see a single class.
pub fn loso_cross_validate_with(
    kernel: &KernelMatrix,
    y: &[f32],
    subjects: &[usize],
    solver: &SolverKind,
    pool: &Pool,
    scratch: &mut SmoScratch,
) -> CvResult {
    let m = kernel.n();
    assert_eq!(y.len(), m, "cv: targets length != kernel size");
    assert_eq!(subjects.len(), m, "cv: subjects length != kernel size");
    let n_subjects = subjects.iter().copied().max().map_or(0, |s| s + 1);
    assert!(n_subjects >= 2, "cv: need at least two subjects for LOSO");
    let _span = span!("svm.cv.loso", folds = n_subjects, samples = m);
    counter!("svm.cv.folds", n_subjects);

    let plan: Vec<Fold> =
        (0..n_subjects).map(|held| Fold::holding_out(y, subjects, held)).collect();
    let lent = Mutex::new(Some(scratch));
    let folds = pool.run_init(
        plan,
        || (lent.lock().take(), SmoScratch::default()),
        |(lent, own), _idx, fold| {
            run_fold(kernel, y, &fold, solver, lent.as_deref_mut().unwrap_or(own))
        },
    );
    reduce_folds(&folds)
}

/// One fold of the plan: subject `held` tests, everyone else trains.
struct Fold {
    /// Global kernel index of each training sample, ascending.
    train_idx: Vec<usize>,
    /// `train_idx` as maximal runs of consecutive indices.
    train_runs: Vec<Range<usize>>,
    /// Targets parallel to `train_idx`.
    train_y: Vec<f32>,
    /// Global kernel index of each held-out sample.
    test_idx: Vec<usize>,
}

impl Fold {
    fn holding_out(y: &[f32], subjects: &[usize], held: usize) -> Self {
        let (test_idx, train_idx): (Vec<usize>, Vec<usize>) =
            (0..subjects.len()).partition(|&t| subjects[t] == held);
        assert!(!test_idx.is_empty(), "cv: subject {held} has no samples");
        let train_y = train_idx.iter().map(|&t| y[t]).collect();
        Fold { train_runs: index_runs(&train_idx), train_idx, train_y, test_idx }
    }
}

/// One fold's outcome: (correct predictions, held-out samples, solver
/// iterations).
type FoldResult = (usize, usize, usize);

/// Train on the fold's training samples, test on its held-out ones.
fn run_fold(
    kernel: &KernelMatrix,
    y: &[f32],
    fold: &Fold,
    solver: &SolverKind,
    scratch: &mut SmoScratch,
) -> FoldResult {
    let Fold { train_idx, train_y, test_idx, .. } = fold;
    let (fold_correct, iterations) = match solver {
        SolverKind::LibSvm(p) => {
            let r = train_precomputed(kernel, train_idx, train_y, p);
            let mut correct = 0usize;
            for &t in test_idx {
                let d = ref_decision(kernel, &r, train_idx, train_y, t);
                let pred = if d >= 0.0 { 1.0 } else { -1.0 };
                if pred == y[t] {
                    correct += 1;
                }
            }
            (correct, r.iterations)
        }
        SolverKind::OptimizedLibSvm(p) => {
            run_dense_fold(kernel, y, fold, &optimized_libsvm(p), scratch)
        }
        SolverKind::PhiSvm(p) => run_dense_fold(kernel, y, fold, p, scratch),
    };
    (fold_correct, test_idx.len(), iterations)
}

/// [`run_fold`] for the dense solvers: (correct predictions, iterations).
fn run_dense_fold(
    kernel: &KernelMatrix,
    y: &[f32],
    fold: &Fold,
    params: &SmoParams,
    scratch: &mut SmoScratch,
) -> (usize, usize) {
    let r = solve_runs(kernel, &fold.train_runs, &fold.train_y, params, scratch);
    let alpha = scratch.alpha();
    let mut correct = 0usize;
    for &t in &fold.test_idx {
        // Σ α_s y_s K[t, s] − ρ in training order.
        let row = kernel.row(t);
        let mut d = 0.0f32;
        for ((&s, &a), &ys) in fold.train_idx.iter().zip(alpha).zip(&fold.train_y) {
            d += a * ys * row[s];
        }
        let pred = if d - r.rho >= 0.0 { 1.0 } else { -1.0 };
        if pred == y[t] {
            correct += 1;
        }
    }
    (correct, r.iterations)
}

/// Fixed-order reduction over fold results (fold index = held subject).
fn reduce_folds(folds: &[FoldResult]) -> CvResult {
    let mut fold_accuracies = Vec::with_capacity(folds.len());
    let mut total_iterations = 0usize;
    let mut correct = 0usize;
    let mut total = 0usize;
    for &(fold_correct, test_len, iterations) in folds {
        fold_accuracies.push(fold_correct as f64 / test_len as f64);
        correct += fold_correct;
        total += test_len;
        total_iterations += iterations;
    }
    CvResult { accuracy: correct as f64 / total as f64, fold_accuracies, total_iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcma_linalg::Mat;

    /// 3 subjects × 6 samples in 2-D; class encoded in the first
    /// coordinate with mild per-subject jitter → LOSO should be ~perfect.
    fn separable_problem() -> (KernelMatrix, Vec<f32>, Vec<usize>) {
        let mut pts = Vec::new();
        let mut y = Vec::new();
        let mut subjects = Vec::new();
        for s in 0..3usize {
            for e in 0..6usize {
                let side = if e % 2 == 0 { 1.0f32 } else { -1.0 };
                let jitter = ((s * 7 + e * 3) % 5) as f32 * 0.08 - 0.16;
                pts.push((side * 1.2 + jitter, (e as f32 * 0.9 + s as f32).sin() * 0.4));
                y.push(side);
                subjects.push(s);
            }
        }
        let l = pts.len();
        let k = KernelMatrix::from_mat(Mat::from_fn(l, l, |r, c| {
            pts[r].0 * pts[c].0 + pts[r].1 * pts[c].1
        }));
        (k, y, subjects)
    }

    #[test]
    fn all_solvers_classify_separable_problem() {
        let (k, y, subjects) = separable_problem();
        for solver in [
            SolverKind::LibSvm(LibSvmParams::default()),
            SolverKind::OptimizedLibSvm(SmoParams::default()),
            SolverKind::PhiSvm(SmoParams::default()),
        ] {
            let r = loso_cross_validate(&k, &y, &subjects, &solver);
            assert!(r.accuracy >= 0.95, "{solver:?}: accuracy {}", r.accuracy);
            assert_eq!(r.fold_accuracies.len(), 3);
        }
    }

    #[test]
    fn solvers_agree_per_fold() {
        let (k, y, subjects) = separable_problem();
        let a =
            loso_cross_validate(&k, &y, &subjects, &SolverKind::LibSvm(LibSvmParams::default()));
        let b = loso_cross_validate(&k, &y, &subjects, &SolverKind::PhiSvm(SmoParams::default()));
        for (fa, fb) in a.fold_accuracies.iter().zip(&b.fold_accuracies) {
            assert!((fa - fb).abs() < 0.2, "fold accuracy divergence: {fa} vs {fb}");
        }
    }

    #[test]
    fn fold_parallel_bit_identical_at_every_thread_count() {
        let (k, y, subjects) = separable_problem();
        for solver in [
            SolverKind::LibSvm(LibSvmParams::default()),
            SolverKind::OptimizedLibSvm(SmoParams::default()),
            SolverKind::PhiSvm(SmoParams::default()),
        ] {
            let serial = loso_cross_validate(&k, &y, &subjects, &solver);
            for threads in [1usize, 2, 3, 8] {
                let par = loso_cross_validate_with(
                    &k,
                    &y,
                    &subjects,
                    &solver,
                    &Pool::new(threads),
                    &mut SmoScratch::default(),
                );
                assert_eq!(par.accuracy.to_bits(), serial.accuracy.to_bits(), "{solver:?}");
                assert_eq!(par.total_iterations, serial.total_iterations);
                assert_eq!(par.fold_accuracies.len(), serial.fold_accuracies.len());
                for (p, s) in par.fold_accuracies.iter().zip(&serial.fold_accuracies) {
                    assert_eq!(p.to_bits(), s.to_bits(), "{solver:?} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn random_labels_near_chance() {
        // Destroy the class structure: labels alternate but the geometry
        // is label-independent.
        let l = 24;
        let pts: Vec<(f32, f32)> = (0..l)
            .map(|i| ((i as f32 * 2.39).sin() * 2.0, (i as f32 * 1.71).cos() * 2.0))
            .collect();
        let y: Vec<f32> = (0..l).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let subjects: Vec<usize> = (0..l).map(|i| i / 6).collect();
        let k = KernelMatrix::from_mat(Mat::from_fn(l, l, |r, c| {
            pts[r].0 * pts[c].0 + pts[r].1 * pts[c].1
        }));
        let r = loso_cross_validate(&k, &y, &subjects, &SolverKind::default());
        assert!(r.accuracy < 0.8, "uninformative data scored {}", r.accuracy);
    }

    #[test]
    #[should_panic(expected = "two subjects")]
    fn rejects_single_subject() {
        let (k, y, _) = separable_problem();
        let subjects = vec![0usize; y.len()];
        let _ = loso_cross_validate(&k, &y, &subjects, &SolverKind::default());
    }
}
