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
//! - **Model-checked** (a [`runtime::McRuntime`] installed by
//!   `fcma-mc`): every operation is a choice point for a cooperative
//!   scheduler that runs one thread at a time, and `Instant::now`,
//!   `sleep` and every timed wait read its virtual clock. The checker
//!   explores thread interleavings; one non-preempting schedule of it
//!   (`fcma_mc::replay` with an empty schedule) is how chaos and
//!   hang-detection tests run deadlines deterministically and without
//!   burning wall time.
//!
//! The mode is thread-local and inherited by threads spawned through
//! [`thread::spawn`], so a whole master/worker cluster run shares one
//! mode without any global state. Primitives must not be shared between
//! threads running in different modes.
//!
//! The workspace `clippy.toml` keeps this facade *total*: outside this
//! crate, the model checker and the trace registry, no workspace crate
//! may reach for `std::sync` primitives or `std::thread` directly
//! (`disallowed_types` / `disallowed_methods`).

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "this crate is the facade over std::sync and std::thread"
)]

pub mod atomic;
pub mod channel;
pub mod mutex;
pub mod pool;
pub mod runtime;
pub mod thread;
pub mod time;

#[cfg(test)]
mod tests;

pub use mutex::{Condvar, Mutex, MutexGuard};
pub use pool::Pool;
