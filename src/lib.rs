//! # fcma — Full Correlation Matrix Analysis in Rust
//!
//! A from-scratch reproduction of *"Full correlation matrix analysis of
//! fMRI data on Intel® Xeon Phi™ coprocessors"* (SC '15): the three-stage
//! FCMA pipeline (correlation computation → within-subject normalization
//! → per-voxel SVM cross validation), both the paper's baseline and its
//! optimized implementation, and every substrate the evaluation needs —
//! dense tall-skinny linear algebra, a LibSVM replica and the PhiSVM
//! solver, a synthetic fMRI generator with planted ground truth, a Xeon
//! Phi machine/cache simulator, and a master–worker cluster framework.
//!
//! ## Quick start
//!
//! ```
//! use fcma::prelude::*;
//!
//! // Generate a small synthetic dataset with a planted informative
//! // network (stands in for the paper's human fMRI data).
//! let (dataset, truth) = fcma::fmri::presets::tiny().generate();
//!
//! // Run the optimized FCMA pipeline over every voxel.
//! let ctx = TaskContext::full(&dataset);
//! let exec = OptimizedExecutor::default();
//! let scores = score_all_voxels(&ctx, &exec, 32, None);
//!
//! // The top-ranked voxels recover the planted network.
//! let selected = select_top_k(&scores, truth.informative.len());
//! let recovered = recovery_rate(&selected, &truth.informative);
//! assert!(recovered > 0.5);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`fmri`] | datasets, epochs, synthetic generation, I/O |
//! | [`linalg`] | Mat, GEMM/SYRK kernels (reference, blocked, tall-skinny) |
//! | [`svm`] | LibSVM replica, PhiSVM, kernel precompute, LOSO CV |
//! | [`core`] | the three-stage pipeline, executors, analyses |
//! | [`cluster`] | fault-tolerant threaded master–worker scheduler |
//! | [`sim`] | Phi/Xeon machine models, cache simulator, counter models, discrete-event cluster scaling model |
//! | [`trace`] | runtime spans/counters/histograms + Chrome-trace export |

pub use fcma_cluster as cluster;
pub use fcma_core as core;
pub use fcma_fmri as fmri;
pub use fcma_linalg as linalg;
pub use fcma_sim as sim;
pub use fcma_svm as svm;
pub use fcma_trace as trace;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use fcma_cluster::{
        run_cluster, run_cluster_with, ChaosExecutor, Checkpoint, ClusterConfig, ClusterError,
        ClusterRun, FaultKind, FaultPlan, FaultSpec,
    };
    pub use fcma_core::{
        offline_analysis, online_voxel_selection, recovery_rate, score_all_voxels, select_top_k,
        AnalysisConfig, BaselineExecutor, OptimizedExecutor, TaskContext, TaskExecutor, VoxelScore,
        VoxelTask,
    };
    pub use fcma_fmri::{Condition, Dataset, EpochSpec, GroundTruth, SynthConfig};
    pub use fcma_linalg::Mat;
    pub use fcma_sim::ClusterModel;
    pub use fcma_svm::{KernelMatrix, SmoParams, SolverKind, WssMode};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = SmoParams::default();
        let _ = AnalysisConfig::default();
        let _ = ClusterModel::default();
        let _ = Mat::zeros(1, 1);
    }
}
