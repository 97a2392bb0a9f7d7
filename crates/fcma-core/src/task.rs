//! Task partitioning: the unit of work the master hands to workers.
//!
//! FCMA parallelizes across the cluster by partitioning the full
//! correlation matrix along its rows — each task is "run the three-stage
//! pipeline for this contiguous block of voxels" (paper §3.1.1).
//! `spread` is how a node fills its cores with such work.

use fcma_sync::pool::Pool;
use fcma_trace::counter;
use std::ops::Range;

/// A contiguous block of assigned voxels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VoxelTask {
    /// First assigned voxel.
    pub start: usize,
    /// Number of voxels in the task.
    pub count: usize,
}

impl VoxelTask {
    /// The voxel range this task covers.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.count
    }

    /// This task cut into `min(parts, count)` contiguous whole
    /// sub-tasks (at least one), in voxel order, the first
    /// `count % parts` of them one voxel longer.
    pub(crate) fn split(self, parts: usize) -> Vec<VoxelTask> {
        let n = parts.min(self.count).max(1);
        let mut start = self.start;
        (0..n)
            .map(|i| {
                let task =
                    VoxelTask { start, count: self.count / n + usize::from(i < self.count % n) };
                start += task.count;
                task
            })
            .collect()
    }
}

/// The one spreading rule (DESIGN.md §15): run `job` on every task of
/// `tasks` in one `pool` region, task `i` of `T` on a pool of
/// `threads / T` threads, plus one while `i < threads % T` (and at least
/// one), and concatenate the scores plan by plan in task order. Each
/// job returns one score vector per plan, `n_plans` of them.
///
/// A sweep spreads the partition's tasks this way, and an executor the
/// sub-tasks [`VoxelTask::split`] cuts its task into at the pool's
/// thread count: a multi-voxel sub-task then always runs on one thread,
/// and only a one-voxel sub-task gets several, for its CV folds.
pub(crate) fn spread(
    pool: &Pool,
    tasks: Vec<VoxelTask>,
    n_plans: usize,
    job: impl Fn(VoxelTask, &Pool) -> Vec<Vec<VoxelScore>> + Sync,
) -> Vec<Vec<VoxelScore>> {
    let (threads, n_tasks) = (pool.threads(), tasks.len());
    let per_task = pool.run(tasks, |i, task| {
        let share = threads / n_tasks + usize::from(i < threads % n_tasks);
        job(task, &Pool::new(share.max(1)))
    });
    counter!("pool.tasks.run", n_tasks);
    let mut per_plan = vec![Vec::new(); n_plans];
    for task_scores in per_task {
        for (all, scores) in per_plan.iter_mut().zip(task_scores) {
            all.extend(scores);
        }
    }
    per_plan
}

/// Split `n_voxels` into tasks of at most `task_size` voxels.
///
/// # Panics
/// Panics if `task_size` is zero.
pub fn partition(n_voxels: usize, task_size: usize) -> Vec<VoxelTask> {
    assert!(task_size > 0, "partition: task_size must be positive");
    let mut out = Vec::with_capacity(n_voxels.div_ceil(task_size));
    let mut start = 0;
    while start < n_voxels {
        let count = task_size.min(n_voxels - start);
        out.push(VoxelTask { start, count });
        start += count;
    }
    out
}

/// Accuracy score assigned to one voxel by stage 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoxelScore {
    /// Global voxel index.
    pub voxel: usize,
    /// Cross-validation accuracy in `[0, 1]`.
    pub accuracy: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_everything_once() {
        let tasks = partition(1000, 120);
        assert_eq!(tasks.len(), 9);
        let mut covered = vec![false; 1000];
        for t in &tasks {
            for v in t.range() {
                assert!(!covered[v], "voxel {v} covered twice");
                covered[v] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
        assert_eq!(tasks.last().unwrap().count, 40);
    }

    #[test]
    fn partition_exact_division() {
        let tasks = partition(240, 120);
        assert_eq!(tasks.len(), 2);
        assert!(tasks.iter().all(|t| t.count == 120));
    }

    #[test]
    fn partition_single_small_task() {
        let tasks = partition(5, 120);
        assert_eq!(tasks, vec![VoxelTask { start: 0, count: 5 }]);
    }

    #[test]
    fn partition_empty() {
        assert!(partition(0, 10).is_empty());
    }

    #[test]
    fn split_cuts_whole_contiguous_sub_tasks() {
        let task = VoxelTask { start: 5, count: 7 };
        let counts = |parts| task.split(parts).iter().map(|t| t.count).collect::<Vec<_>>();
        assert_eq!(counts(1), [7]);
        assert_eq!(counts(3), [3, 2, 2]);
        assert_eq!(counts(8), [1; 7]);
        let subs = task.split(2);
        assert_eq!(subs, [VoxelTask { start: 5, count: 4 }, VoxelTask { start: 9, count: 3 }]);
        assert_eq!(VoxelTask { start: 3, count: 0 }.split(4), [VoxelTask { start: 3, count: 0 }]);
    }

    #[test]
    #[should_panic(expected = "task_size")]
    fn partition_rejects_zero_size() {
        let _ = partition(10, 0);
    }
}
