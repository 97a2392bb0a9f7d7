//! Causal task context: links every span, event, and recorder entry on
//! any thread back to the cluster dispatch that caused it.
//!
//! The master stamps a [`TraceCtx`] into each `ToWorker::Task` message;
//! the worker installs it ([`TraceCtx::install`]) around the executor
//! call, and the collector copies the current context into every record
//! made while the guard is live (`ctx_task` / `ctx_attempt` /
//! `ctx_origin` attributes). When the executor fans work out through
//! `fcma-sync::pool`, the facade's fork hooks carry the same context —
//! together with the collector, see `collector.rs` — onto the region's
//! worker threads, so a span recorded three layers down on a stolen
//! pool task still names its dispatch. `fcma report --check` closes the
//! loop with cross-thread causality invariants over these attributes.

use std::cell::Cell;

/// Where an attempt came from: the first dispatch of a task, or a retry
/// after a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOrigin {
    /// First dispatch of the task.
    Dispatch,
    /// Re-dispatch after a failed or condemned attempt.
    Retry,
}

impl TraceOrigin {
    /// Stable string form (used as the `ctx_origin` attribute value).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOrigin::Dispatch => "dispatch",
            TraceOrigin::Retry => "retry",
        }
    }
}

/// The causal identity of one dispatch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Task identity (the task's start voxel in the cluster scheduler).
    pub task: u64,
    /// 0-based attempt number for this task.
    pub attempt: u32,
    /// How this attempt came to be dispatched.
    pub origin: TraceOrigin,
}

thread_local! {
    static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

impl TraceCtx {
    /// A context for `task`'s `attempt`-th dispatch.
    #[must_use]
    pub fn new(task: u64, attempt: u32, origin: TraceOrigin) -> TraceCtx {
        TraceCtx { task, attempt, origin }
    }

    /// The calling thread's current context, if one is installed.
    #[must_use]
    pub fn current() -> Option<TraceCtx> {
        CURRENT.with(Cell::get)
    }

    /// Install this context on the calling thread until the returned
    /// guard drops (the previous context, if any, is restored). Any
    /// thread forked through the `fcma-sync` facade under the guard
    /// inherits the context.
    pub fn install(self) -> CtxGuard {
        crate::collector::register_fork_hooks();
        let prev = CURRENT.with(|c| c.replace(Some(self)));
        CtxGuard { prev }
    }
}

/// Set the calling thread's context outright (the fork hooks' adopt
/// half: a freshly forked thread has nothing to restore).
pub(crate) fn set_current(ctx: Option<TraceCtx>) {
    CURRENT.with(|c| c.set(ctx));
}

/// RAII guard from [`TraceCtx::install`]; restores the previous context
/// on drop.
#[must_use = "the context uninstalls when the guard drops"]
pub struct CtxGuard {
    prev: Option<TraceCtx>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev.take()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_restores_previous_context_on_drop() {
        assert_eq!(TraceCtx::current(), None);
        let outer = TraceCtx::new(3, 0, TraceOrigin::Dispatch);
        let g1 = outer.install();
        {
            let inner = TraceCtx::new(9, 2, TraceOrigin::Retry);
            let g2 = inner.install();
            assert_eq!(TraceCtx::current(), Some(inner));
            drop(g2);
        }
        assert_eq!(TraceCtx::current(), Some(outer));
        drop(g1);
        assert_eq!(TraceCtx::current(), None);
    }

    #[test]
    fn context_rides_pool_regions_onto_worker_threads() {
        let ctx = TraceCtx::new(16, 2, TraceOrigin::Retry);
        let guard = ctx.install();
        let seen = fcma_sync::Pool::new(4).run(vec![(); 12], |_i, ()| TraceCtx::current());
        drop(guard);
        assert!(seen.iter().all(|&s| s == Some(ctx)), "pool workers saw {seen:?}");
    }
}
