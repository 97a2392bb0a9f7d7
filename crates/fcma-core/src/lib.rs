//! # fcma-core — the FCMA three-stage pipeline
//!
//! The paper's primary contribution: full correlation matrix analysis
//! with both the §3.2 **baseline** implementation (generic blocked GEMM,
//! three-pass normalization, generic SYRK, LibSVM-replica solver) and the
//! §4 **optimized** implementation (tall-skinny strip-blocked correlation
//! fused with within-subject normalization, panel SYRK, PhiSVM).
//!
//! * [`context::TaskContext`] — shared normalized data + epoch structure;
//! * [`task`] — voxel-block partitioning (the cluster work unit);
//! * [`stage1`] — correlation computation;
//! * [`stage2`] — Fisher + within-subject z-scoring, three schedules
//!   (baseline / separated / merged) that agree bit-for-bit within f32
//!   tolerance, and the merged one fused with the kernel precompute;
//! * [`stage3`] — kernel precompute + per-voxel SVM cross validation;
//! * [`executor`] — the baseline and optimized single-node pipelines,
//!   each building a task's kernels once and cross-validating them under
//!   every [`CvPlan`] it is handed;
//! * [`selection`] — ROI ranking and cross-fold stability;
//! * [`analysis`] — offline nested LOSO and online voxel selection.

// Bare `as` casts truncate and saturate silently; kernels convert
// through `fcma_linalg::cast` or `From`/`TryFrom`. Test code may cast.
#![cfg_attr(not(test), warn(clippy::as_conversions))]

pub mod analysis;
pub mod context;
pub mod control;
pub mod executor;
pub mod realtime;
pub mod selection;
pub mod stage1;
pub mod stage2;
pub mod stage3;
pub mod stats;
pub mod task;

pub use analysis::{offline_analysis, online_voxel_selection, score_all_voxels, AnalysisConfig};
pub use analysis::{FoldOutcome, OfflineResult, OnlineResult};
pub use context::TaskContext;
pub use control::CancelToken;
pub use executor::{BaselineExecutor, OptimizedExecutor, TaskExecutor};
pub use fcma_svm::{CvPlan, LEFT_OUT};
pub use realtime::{FeedbackModel, SessionError};
pub use realtime::{OnlineSession, SessionConfig};
pub use selection::{recovery_rate, select_top_k};
pub use stage1::CorrData;
pub use stage1::{corr_baseline, corr_optimized};
pub use stage2::{corr_normalized_merged, fused_kernels, normalize_baseline, normalize_separated};
pub use stage3::{score_task, KernelPrecompute};
pub use stats::{benjamini_hochberg, voxel_permutation_test};
pub use task::{partition, VoxelScore, VoxelTask};
