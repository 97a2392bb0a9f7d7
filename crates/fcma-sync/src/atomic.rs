//! Facade atomics.
//!
//! [`AtomicBool`] wraps its `std::sync::atomic` counterpart; under a
//! model checker each access is preceded by a scheduling point, so
//! races on flags (cancellation, shutdown) are part of the explored
//! interleavings. Orderings are passed straight through — under the
//! model threads are serialized, so every execution is sequentially
//! consistent anyway.

pub use std::sync::atomic::Ordering;

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

    /// Read the flag.
    pub fn load(&self, order: Ordering) -> bool {
        interleave();
        self.inner.load(order)
    }

    /// Write the flag.
    pub fn store(&self, value: bool, order: Ordering) {
        interleave();
        self.inner.store(value, order);
    }
}

/// Emit a scheduling point under the model checker.
fn interleave() {
    if let Mode::Model(rt) = mode() {
        rt.interleave();
    }
}
