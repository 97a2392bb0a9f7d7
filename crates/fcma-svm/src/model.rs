//! Trained SVM model representation and prediction.

use crate::kernel::KernelMatrix;

/// Which working-set-selection heuristic trained the model (PhiSVM's
/// adaptive mode records how many iterations each heuristic ran).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WssStats {
    /// Iterations using the first-order (maximal-violating-pair) rule.
    pub first_order_iters: usize,
    /// Iterations using the second-order (Fan et al. 2005) rule.
    pub second_order_iters: usize,
}

/// A trained binary C-SVC model over precomputed-kernel samples.
///
/// The model refers to training samples by their *global* kernel-matrix
/// indices, so prediction on any other sample of the same kernel matrix is
/// a dot product against a kernel row — exactly how FCMA evaluates
/// held-out epochs during cross validation.
#[derive(Debug, Clone)]
pub struct SvmModel {
    /// Global kernel index of each training sample.
    pub train_idx: Vec<usize>,
    /// `alpha_i * y_i` per training sample (zeros for non-support vectors).
    pub alpha_y: Vec<f32>,
    /// Bias term: decision is `Σ alpha_y[s] · K[x, train_idx[s]] − rho`.
    pub rho: f32,
    /// Final dual objective value.
    pub objective: f64,
    /// SMO iterations to convergence.
    pub iterations: usize,
    /// Heuristic usage breakdown.
    pub wss: WssStats,
}

impl SvmModel {
    /// Number of support vectors (`alpha > 0`).
    pub fn n_support(&self) -> usize {
        self.alpha_y.iter().filter(|a| **a != 0.0).count()
    }

    /// Decision value for global sample `x` of `kernel`.
    ///
    /// # Panics
    /// If `x` or any training index is out of range for `kernel`.
    pub fn decision(&self, kernel: &KernelMatrix, x: usize) -> f32 {
        let row = kernel.row(x);
        let mut s = 0.0f32;
        for (&ay, &ti) in self.alpha_y.iter().zip(&self.train_idx) {
            s += ay * row[ti];
        }
        s - self.rho
    }

    /// Predicted label sign (`+1` / `−1`) for global sample `x`.
    pub(crate) fn predict(&self, kernel: &KernelMatrix, x: usize) -> f32 {
        if self.decision(kernel, x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Fraction of `(sample, target)` pairs predicted correctly.
    pub fn accuracy(&self, kernel: &KernelMatrix, samples: &[usize], targets: &[f32]) -> f64 {
        assert_eq!(samples.len(), targets.len(), "accuracy: length mismatch");
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples
            .iter()
            .zip(targets)
            .filter(|(&s, &t)| self.predict(kernel, s) == t.signum())
            .count();
        correct as f64 / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcma_linalg::Mat;

    /// Hand-built model over a 3-sample identity kernel: decisions are
    /// directly readable.
    #[test]
    fn decision_is_weighted_kernel_row() {
        let k = KernelMatrix::from_mat(Mat::from_fn(3, 3, |r, c| if r == c { 2.0 } else { 0.5 }));
        let m = SvmModel {
            train_idx: vec![0, 1],
            alpha_y: vec![1.0, -0.5],
            rho: 0.25,
            objective: 0.0,
            iterations: 0,
            wss: WssStats::default(),
        };
        // decision(2) = 1.0*K[2,0] - 0.5*K[2,1] - 0.25 = 0.5 - 0.25 - 0.25
        assert!((m.decision(&k, 2) - 0.0).abs() < 1e-6);
        // decision(0) = 1.0*2.0 - 0.5*0.5 - 0.25 = 1.5
        assert!((m.decision(&k, 0) - 1.5).abs() < 1e-6);
        assert_eq!(m.predict(&k, 0), 1.0);
    }

    #[test]
    fn accuracy_counts_sign_matches() {
        let k = KernelMatrix::from_mat(Mat::from_fn(2, 2, |r, c| if r == c { 1.0 } else { -1.0 }));
        let m = SvmModel {
            train_idx: vec![0],
            alpha_y: vec![1.0],
            rho: 0.0,
            objective: 0.0,
            iterations: 0,
            wss: WssStats::default(),
        };
        // decision(0)=1 -> +1 ; decision(1)=-1 -> -1
        let acc = m.accuracy(&k, &[0, 1], &[1.0, -1.0]);
        assert_eq!(acc, 1.0);
        let acc = m.accuracy(&k, &[0, 1], &[-1.0, -1.0]);
        assert_eq!(acc, 0.5);
    }

    #[test]
    fn n_support_ignores_zeros() {
        let m = SvmModel {
            train_idx: vec![0, 1, 2],
            alpha_y: vec![0.0, 0.3, -0.3],
            rho: 0.0,
            objective: 0.0,
            iterations: 0,
            wss: WssStats::default(),
        };
        assert_eq!(m.n_support(), 2);
    }
}
