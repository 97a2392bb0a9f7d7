//! # fcma-sim — machine simulator substrate
//!
//! The paper evaluates on hardware we cannot access (Intel Xeon Phi 5110P
//! coprocessors) with proprietary counters (vTune). This crate substitutes
//! a layered model:
//!
//! * [`cache`] — a set-associative LRU cache simulator;
//! * [`machine`] — architectural models of the Phi 5110P and the Xeon
//!   E5-2670 (the paper's two targets);
//! * [`counters`] — the vTune-like counter bundle (memory references, L2
//!   misses, vectorization intensity);
//! * [`analytic`] — closed-form per-kernel counter models derived from
//!   each algorithm's block structure, with the few unobservable
//!   baseline constants calibrated to the paper's Table 1/8 and flagged
//!   as such;
//! * [`trace`] — line-granularity replays of the kernels' access patterns
//!   that validate the analytic miss models at small scale (property
//!   tests pin them together);
//! * [`timemodel`] — a roofline-style conversion from counters to
//!   milliseconds, including the thread-starvation effect that drives the
//!   baseline's SVM-stage slowdown (§3.3.3);
//! * [`scaling`] — a discrete-event model of the master–worker protocol
//!   at cluster scale (data distribution, dispatch latency, greedy task
//!   placement, node failures) that regenerates Tables 3/4 and Fig. 8
//!   from per-task times of the time model.

pub mod analytic;
pub mod cache;
pub mod counters;
pub mod machine;
pub mod scaling;
pub mod timemodel;
pub mod trace;

pub use analytic::{CorrShape, NormShape, SvmImpl, SvmShape, SyrkShape};
pub use cache::CacheStats;
pub use cache::{CacheConfig, CacheSim};
pub use counters::KernelCounters;
pub use machine::{phi_5110p, xeon_e5_2670, MachineConfig};
pub use scaling::ClusterModel;
pub use timemodel::TimeModel;
