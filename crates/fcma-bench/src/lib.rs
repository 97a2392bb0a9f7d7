//! # fcma-bench — reproduction harness internals
//!
//! Shared machinery for `fcma-repro` (one subcommand per table/figure of
//! the paper). Everything it prints is a function of the source tree:
//! host timing at the paper's shapes is `benchmark/`'s job, not this
//! crate's.
//!
//! * [`workloads`] — the two datasets' full-scale shapes and scaled
//!   configs;
//! * [`measure`] — SMO iteration counts per solver, measured by running
//!   the real solvers;
//! * [`model`] — composite pipeline models assembling `fcma-sim` counters
//!   into task- and cluster-level times;
//! * [`report`] — plain-text table rendering.

pub mod measure;
pub mod model;
pub mod report;
pub mod workloads;

pub use measure::{measure_svm_solvers, SvmMeasurement};
pub use model::{
    baseline_task, degraded_offline_table, offline_task_list, online_task_list, optimized_task,
    per_voxel_speedup, StageTimes,
};
pub use workloads::{DatasetKind, OPT_TASK_VOXELS};
