//! # fcma-svm — support vector machine substrate for FCMA
//!
//! FCMA's third pipeline stage cross-validates one linear SVM per voxel
//! over precomputed kernel matrices. This crate implements every solver
//! the paper compares (Table 8):
//!
//! * [`mod@reference`] — a faithful LibSVM replica: sparse `(index, value)`
//!   node arrays, `f64` hot loops, on-demand `Q` rows behind an LRU
//!   cache, second-order working-set selection;
//! * [`SolverKind::OptimizedLibSvm`] — the paper's "optimized LibSVM":
//!   the same algorithm with dense `f32` layout;
//! * [`phisvm::train_phisvm`] — **PhiSVM**: dense `f32` SMO with adaptive
//!   first/second-order working-set selection (§4.4, derived from the GPU
//!   SVM of Catanzaro et al.).
//!
//! Supporting machinery:
//!
//! * [`kernel::KernelMatrix`] — `K = X·Xᵀ` precompute via the optimized
//!   panel SYRK (the memory reduction enabling 240-voxel batches);
//! * [`smo`] — the shared dense SMO core;
//! * [`model::SvmModel`] — trained models and prediction;
//! * [`cv`] — leave-one-subject-out cross validation.

pub mod cv;
pub mod kernel;
pub mod model;
pub mod phisvm;
pub mod reference;
pub mod smo;

pub use cv::{loso_cross_validate, loso_cross_validate_with, CvResult, SolverKind};
pub use kernel::KernelMatrix;
pub use model::SvmModel;
pub use model::WssStats;
pub use phisvm::train_phisvm;
pub use reference::LibSvmParams;
pub use reference::LibSvmResult;
pub use smo::{SmoParams, SmoScratch, WssMode};
