//! Cooperative task controls: cancellation tokens and soft deadlines.
//!
//! The cluster master cannot forcibly kill a worker thread the way an MPI
//! runtime can fence a node, so hang recovery is cooperative: every task
//! dispatch carries a [`TaskControls`] handle and well-behaved executors
//! poll [`CancelToken::is_cancelled`] at convenient points (between
//! voxels, inside injected delays). When the master condemns a worker as
//! hung it flips the token; the worker unwinds on its own schedule while
//! the master has already re-dispatched the task elsewhere and will
//! ignore the condemned worker's late results.

use fcma_sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A cheaply cloneable cancellation flag shared between the cluster
/// master and one worker.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Per-dispatch execution controls handed to
/// [`crate::TaskExecutor::process_with_controls`].
#[derive(Debug, Clone, Default)]
pub struct TaskControls {
    /// Cooperative cancellation flag; executors should return early
    /// (with a partial or empty score vector) once it is set.
    pub cancel: CancelToken,
    /// Advisory per-task deadline. The scheduler enforces it on its own
    /// clock; executors may additionally use it to bound internal waits.
    pub deadline: Option<Duration>,
}

impl TaskControls {
    /// Controls with no deadline and a token nobody will cancel — the
    /// right default for sequential (non-cluster) execution.
    pub fn unbounded() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clear_and_latches() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        t.cancel();
        assert!(u.is_cancelled());
    }

    #[test]
    fn controls_defaults() {
        let c = TaskControls::unbounded();
        assert!(c.deadline.is_none());
        assert!(!c.cancel.is_cancelled());
    }
}
