//! # fcma-cluster — fault-tolerant cluster substrate for FCMA
//!
//! The paper runs FCMA as an MPI master–worker application on a 48-node
//! cluster with 96 Xeon Phi coprocessors. This crate substitutes:
//!
//! * [`protocol`] + [`driver`] — a *real* threaded master–worker scheduler
//!   (crossbeam channels standing in for MPI messages) running the actual
//!   FCMA pipeline with the paper's dynamic load-balancing protocol,
//!   hardened for routine node failure: panic requeue, deadline-based
//!   hang detection, per-task retry budgets, speculative re-execution of
//!   stragglers, and checkpoint/resume of partial sweeps — all surfaced
//!   through a `Result<ClusterRun, ClusterError>` API;
//! * [`fault`] — deterministic fault injection ([`FaultPlan`] +
//!   [`ChaosExecutor`]) so every recovery path above is a reproducibly
//!   tested path;
//! * [`checkpoint`] — the self-checking on-disk format behind
//!   checkpoint/resume;
//! * [`scaling`] — a discrete-event model of the same protocol at cluster
//!   scale (data distribution, dispatch latency, greedy task placement,
//!   node failures) that regenerates the elapsed-time-vs-nodes tables
//!   (Tables 3/4) and the speedup curves (Fig. 8), with per-task times
//!   supplied by the `fcma-sim` time model.

pub mod checkpoint;
pub mod driver;
pub mod error;
pub mod fault;
pub mod protocol;
pub mod scaling;

pub use checkpoint::{Checkpoint, TaskRecord};
pub use driver::{run_cluster, run_cluster_with, ClusterConfig, ClusterRun, TaskStat};
pub use error::{CheckpointError, ClusterError};
pub use fault::{ChaosExecutor, FaultKind, FaultPlan, FaultSpec};
pub use protocol::{FromWorker, ToWorker};
pub use scaling::ClusterModel;
