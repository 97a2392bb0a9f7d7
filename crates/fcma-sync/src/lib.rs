//! Synchronization facade for the FCMA workspace.
//!
//! Every blocking primitive the cluster scheduler uses — [`Mutex`],
//! [`Condvar`], the [`channel`] module, [`atomic::AtomicBool`],
//! [`thread::spawn`]/[`thread::sleep`], and [`time::Instant`] — is
//! re-exported here as a thin wrapper whose behavior depends on the
//! calling thread's *mode*:
//!
//! - **Real** (the default): delegate straight to `std`. Zero policy,
//!   near-zero overhead; this is what production runs use.
//! - **Virtual clock** ([`clock::VirtualClock::install`]): threading is
//!   still real, but `Instant::now`, `sleep`, and every timed wait read
//!   a discrete-event clock that only advances when *all* registered
//!   threads are blocked, jumping straight to the earliest pending
//!   deadline. Chaos and hang-detection tests become deterministic and
//!   stop burning wall time.
//! - **Model-checked** (a [`runtime::McRuntime`] installed by
//!   `fcma-mc`): every operation is a choice point for a cooperative
//!   scheduler that explores thread interleavings deterministically.
//!
//! The mode is thread-local and inherited by threads spawned through
//! [`thread::spawn`], so a whole master/worker cluster run shares one
//! mode without any global state. Primitives must not be shared between
//! threads running in different modes.
//!
//! The `syncfacade` audit pass keeps this facade *total*: outside this
//! crate (and the vendor tree) no workspace crate may reach for
//! `std::sync` primitives or `std::thread::{spawn, sleep}` directly.

pub mod atomic;
pub mod channel;
pub mod clock;
pub mod mutex;
pub mod pool;
pub mod runtime;
pub mod thread;
pub mod time;

#[cfg(test)]
mod tests;

pub use mutex::{Condvar, Mutex, MutexGuard};
pub use pool::{Pool, PoolStats, WorkerLane};
