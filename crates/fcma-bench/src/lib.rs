//! # fcma-bench — reproduction harness internals
//!
//! Shared machinery for `fcma-repro` (one subcommand per table/figure of
//! the paper). Host timing at the paper's shapes is `benchmark/`'s job,
//! not this crate's.
//!
//! * [`workloads`] — the two datasets' full-scale shapes and scaled
//!   configs;
//! * [`measure`] — real host measurements (SMO iterations per solver,
//!   quick kernel wall times for the tables' host columns);
//! * [`model`] — composite pipeline models assembling `fcma-sim` counters
//!   into task- and cluster-level times;
//! * [`report`] — plain-text table rendering.

pub mod measure;
pub mod model;
pub mod report;
pub mod workloads;

pub use measure::{measure_stage12, measure_svm_solvers, measure_syrk, SvmMeasurement};
pub use model::{
    baseline_task, degraded_offline_table, offline_task_list, online_task_list, optimized_task,
    per_voxel_speedup, StageTimes,
};
pub use workloads::{DatasetKind, OPT_TASK_VOXELS};
