//! Master–worker message protocol.
//!
//! The paper's cluster framework is MPI master–worker: the master
//! distributes brain data up front, then hands out voxel-block tasks one
//! at a time; a worker returns its scores and receives the next task
//! (§3.1.1). This module defines the message types; the threaded
//! transport lives in [`crate::driver`].

use fcma_core::{VoxelScore, VoxelTask};
use fcma_trace::TraceCtx;

/// Messages from the master to a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToWorker {
    /// Process this voxel block.
    Task {
        /// The voxel block to process.
        task: VoxelTask,
        /// Causal identity of this dispatch attempt. The worker installs
        /// it around the executor call, so every span and event produced
        /// on its behalf — including on pool threads three layers down —
        /// names the dispatch that caused it.
        ctx: TraceCtx,
    },
    /// No more work; terminate.
    Shutdown,
}

/// Messages from a worker to the master.
#[derive(Debug, Clone)]
pub enum FromWorker {
    /// A completed task's scores. Carries the task identity so the
    /// master can discard late answers from workers already declared
    /// hung.
    Done {
        /// Sender's worker id.
        worker: usize,
        /// The task these scores cover.
        task: VoxelTask,
        /// Echo of the dispatch context, so the master can fence a late
        /// answer against the exact attempt that produced it.
        ctx: TraceCtx,
        /// Scores for the completed task.
        scores: Vec<VoxelScore>,
    },
    /// The worker failed while processing `task` and is terminating; the
    /// master must requeue the task on a healthy worker.
    Failed {
        /// Sender's worker id.
        worker: usize,
        /// The task that must be re-executed.
        task: VoxelTask,
        /// Echo of the dispatch context of the failed attempt.
        ctx: TraceCtx,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_of(task: u64, attempt: u32) -> TraceCtx {
        TraceCtx::new(task, attempt)
    }

    #[test]
    fn to_worker_equality() {
        let t = ToWorker::Task { task: VoxelTask { start: 0, count: 8 }, ctx: ctx_of(0, 1) };
        assert_eq!(t, ToWorker::Task { task: VoxelTask { start: 0, count: 8 }, ctx: ctx_of(0, 1) });
        assert_ne!(
            t,
            ToWorker::Task { task: VoxelTask { start: 0, count: 8 }, ctx: TraceCtx::new(0, 2) },
            "dispatch identity distinguishes retries of the same task"
        );
        assert_ne!(t, ToWorker::Shutdown);
    }
}
