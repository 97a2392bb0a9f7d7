//! Facade atomics.
//!
//! [`AtomicBool`] wraps its `std::sync::atomic` counterpart; under a
//! model checker each access is preceded by a scheduling point, so
//! races on flags (cancellation, shutdown) are part of the explored
//! interleavings. The flag fixes its own memory orderings — every store
//! is `Release` and every load `Acquire`, so a store publishes what the
//! storing thread wrote before it to the thread that loads the value.
//! The root `clippy.toml` forbids naming `Ordering` outside this module
//! and the trace collector's id counters (DESIGN.md §16).

use std::sync::atomic::Ordering;

use crate::runtime::{mode, Mode};

/// A boolean flag shared between threads.
#[derive(Debug, Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    /// A new flag holding `value`.
    pub const fn new(value: bool) -> Self {
        AtomicBool { inner: std::sync::atomic::AtomicBool::new(value) }
    }

    /// Read the flag (`Acquire`).
    pub fn load(&self) -> bool {
        interleave();
        self.inner.load(Ordering::Acquire)
    }

    /// Write the flag (`Release`).
    pub fn store(&self, value: bool) {
        interleave();
        self.inner.store(value, Ordering::Release);
    }
}

/// Emit a scheduling point under the model checker.
fn interleave() {
    if let Mode::Model(rt) = mode() {
        rt.interleave();
    }
}
