//! Typed errors for cluster runs and checkpoint files.
//!
//! Every failure path of the scheduler surfaces here instead of
//! panicking: the paper's 96-coprocessor deployment treats node loss as
//! routine, so callers get a value they can retry, resume, or report —
//! never an abort of the whole sweep.

use fcma_core::VoxelTask;
use std::path::PathBuf;

/// Why a cluster sweep could not complete.
#[derive(Debug)]
pub enum ClusterError {
    /// `n_workers` was zero.
    NoWorkers,
    /// `task_size` was zero.
    ZeroTaskSize,
    /// Every worker died (panic or hang) with work still unfinished.
    AllWorkersFailed {
        /// Tasks not yet completed when the last worker was lost.
        unfinished_tasks: usize,
    },
    /// One task kept failing past its retry budget.
    RetryBudgetExhausted {
        /// The task that could not be completed.
        task: VoxelTask,
        /// Dispatch attempts consumed (first try + retries).
        attempts: usize,
    },
    /// The scheduler finished its protocol but the score set does not
    /// cover every voxel exactly once — an internal invariant breach
    /// reported as data rather than a panic.
    IncompleteSweep {
        /// Voxels actually scored.
        scored: usize,
        /// Voxels the context expected.
        expected: usize,
    },
    /// Reading or validating a checkpoint failed.
    Checkpoint(CheckpointError),
    /// A checkpoint belongs to a different sweep (voxel count or task
    /// size disagree with the current run).
    CheckpointMismatch {
        /// What the checkpoint header declares: `(n_voxels, task_size)`.
        found: (usize, usize),
        /// What the current run requires: `(n_voxels, task_size)`.
        expected: (usize, usize),
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoWorkers => write!(f, "cluster run needs at least one worker"),
            ClusterError::ZeroTaskSize => write!(f, "cluster run needs a positive task size"),
            ClusterError::AllWorkersFailed { unfinished_tasks } => {
                write!(f, "every worker died with {unfinished_tasks} task(s) unfinished")
            }
            ClusterError::RetryBudgetExhausted { task, attempts } => write!(
                f,
                "task [{}, {}) failed {attempts} time(s), exhausting its retry budget",
                task.start,
                task.start + task.count
            ),
            ClusterError::IncompleteSweep { scored, expected } => {
                write!(f, "sweep completed but scored {scored} of {expected} voxels")
            }
            ClusterError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            ClusterError::CheckpointMismatch { found, expected } => write!(
                f,
                "checkpoint is for a different sweep: header says {} voxels / task size {}, \
                 this run has {} voxels / task size {}",
                found.0, found.1, expected.0, expected.1
            ),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for ClusterError {
    fn from(e: CheckpointError) -> Self {
        ClusterError::Checkpoint(e)
    }
}

/// Why a checkpoint file could not be read, written, or trusted.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error (path attached for context).
    Io {
        /// The file being read or written.
        path: PathBuf,
        /// The underlying I/O error.
        error: std::io::Error,
    },
    /// The first line is not a recognized checkpoint header.
    BadHeader {
        /// What the first line actually said.
        line: String,
        /// The file ends inside that line: it was cut short.
        truncated: bool,
    },
    /// A record is structurally invalid or fails its checksum.
    Corrupt {
        /// 1-based line number of the offending content.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            CheckpointError::BadHeader { line, truncated: true } => {
                write!(f, "checkpoint header {line:?} has no line end: the file is truncated")
            }
            CheckpointError::BadHeader { line, truncated: false } => {
                write!(f, "unrecognized checkpoint header {line:?}")
            }
            CheckpointError::Corrupt { line, reason } => {
                write!(f, "corrupt record at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ClusterError::RetryBudgetExhausted {
            task: VoxelTask { start: 32, count: 16 },
            attempts: 3,
        };
        let s = e.to_string();
        assert!(s.contains("[32, 48)") && s.contains('3'), "{s}");

        let c = ClusterError::Checkpoint(CheckpointError::Corrupt {
            line: 7,
            reason: "checksum mismatch".into(),
        });
        assert!(c.to_string().contains("line 7"), "{c}");
        assert!(std::error::Error::source(&c).is_some());
    }

    #[test]
    fn mismatch_reports_both_sides() {
        let e = ClusterError::CheckpointMismatch { found: (64, 8), expected: (128, 16) };
        let s = e.to_string();
        assert!(s.contains("64") && s.contains("128"), "{s}");
    }
}
