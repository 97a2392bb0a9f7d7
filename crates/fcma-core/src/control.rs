//! Cooperative task cancellation.
//!
//! The cluster master cannot forcibly kill a worker thread the way an MPI
//! runtime can fence a node, so hang recovery is cooperative: every task
//! dispatch carries its worker's [`CancelToken`] and well-behaved executors
//! poll [`CancelToken::is_cancelled`] at convenient points (between
//! voxels, inside injected delays). When the master condemns a worker as
//! hung it flips the token; the worker unwinds on its own schedule while
//! the master has already re-dispatched the task elsewhere and will
//! ignore the condemned worker's late results.

use fcma_sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
}
