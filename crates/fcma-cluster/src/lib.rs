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
//!   checkpoint/resume.
//!
//! The same protocol at cluster scale — the discrete-event model behind
//! the paper's Tables 3/4 and Fig. 8 — is `fcma-sim`'s `scaling` module.

pub mod checkpoint;
pub mod driver;
pub mod error;
pub mod fault;
pub mod protocol;

pub use checkpoint::{Checkpoint, TaskRecord};
pub use driver::{run_cluster, run_cluster_with, ClusterConfig, ClusterRun, TaskStat};
pub use error::{CheckpointError, ClusterError};
pub use fault::{ChaosExecutor, FaultKind, FaultPlan, FaultSpec};
pub use protocol::{FromWorker, ToWorker};
