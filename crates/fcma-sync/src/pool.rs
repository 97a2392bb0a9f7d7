//! Fork-join pool built on the facade primitives.
//!
//! [`Pool::run`] executes a vector of independent tasks across a fixed
//! number of workers and returns the results **in task order** — the
//! reduction tree is the task index, never arrival order, so a parallel
//! region's output is bit-identical to the serial loop at every thread
//! count. The region keeps its tasks in one shared queue behind the
//! region lock: a worker stores a task's result and takes the next task
//! index in one critical section, and parks on the region condvar once
//! the queue is empty but tasks are still in flight.
//!
//! The pool is built from facade [`Mutex`]/[`Condvar`] only, so the
//! same code runs in both facade modes:
//!
//! - **Real**: scoped OS threads (`std::thread::scope` — this crate is
//!   the facade, so it may touch `std::thread` directly).
//! - **Model-checked**: workers become model threads through the
//!   thread hooks on [`McRuntime`], and the parent performs a
//!   *model-visible* join ([`McRuntime::thread_join`]) before the
//!   OS-level scope join, so the checker can schedule every handoff.
//!
//! A panicking task poisons nothing: the first payload is captured, the
//! region is woken, every worker exits promptly, and the payload is
//! re-raised on the caller after all workers have been joined.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::mutex::{Condvar, Mutex};
use crate::runtime::{mode, run_model_thread, Mode};

/// A fork-join thread-pool configuration. Cheap to copy; threads
/// are spawned per [`Pool::run`] region (fork-join), not kept alive
/// between regions, so a `Pool` can be freely embedded in executors and
/// passed across the cluster scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    /// The single-threaded pool (kernels run inline).
    fn default() -> Self {
        Pool::new(1)
    }
}

impl Pool {
    /// A pool with `threads` workers (the caller counts as one).
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "Pool: thread count must be at least 1");
        Pool { threads }
    }

    /// Worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run every task and return the results in task order.
    ///
    /// `job` is `Fn + Sync` and the workspace forbids `unsafe`, so a
    /// data race between tasks is a compile error, not a convention. A
    /// job cannot mutate what it captures:
    ///
    /// ```compile_fail,E0594
    /// use fcma_sync::Pool;
    /// let mut total = 0usize;
    /// Pool::new(2).run(vec![1usize, 2, 3], |_, t| total += t);
    /// ```
    ///
    /// unless the capture is behind a facade lock:
    ///
    /// ```
    /// use fcma_sync::{Mutex, Pool};
    /// let total = Mutex::new(0usize);
    /// Pool::new(2).run(vec![1usize, 2, 3], |_, t| *total.lock() += t);
    /// assert_eq!(*total.lock(), 6);
    /// ```
    ///
    /// Nor can it capture unsynchronized interior mutability:
    ///
    /// ```compile_fail,E0277
    /// use fcma_sync::Pool;
    /// use std::cell::Cell;
    /// let total = Cell::new(0usize);
    /// Pool::new(2).run(vec![1usize, 2, 3], |_, t| total.set(total.get() + t));
    /// ```
    ///
    /// where the same read-modify-write under a lock compiles:
    ///
    /// ```
    /// use fcma_sync::{Mutex, Pool};
    /// let total = Mutex::new(0usize);
    /// Pool::new(2).run(vec![1usize, 2, 3], |_, t| {
    ///     let mut total = total.lock();
    ///     *total = *total + t;
    /// });
    /// assert_eq!(*total.lock(), 6);
    /// ```
    ///
    /// # Panics
    /// Re-raises the first panic from a task, after all workers exited.
    pub fn run<T, R>(&self, tasks: Vec<T>, job: impl Fn(usize, T) -> R + Sync) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        self.run_init(tasks, || (), |(), idx, task| job(idx, task))
    }

    /// [`Pool::run`] with per-worker state: `init` runs once per worker
    /// and the resulting state (e.g. packing scratch) is reused by every
    /// task that worker executes. The per-task computation must not
    /// depend on prior state contents — the kernels' dirty-scratch
    /// bit-identity contract.
    ///
    /// Tasks own what they are given (`T: Send`, moved into exactly one
    /// job call), so an output band cannot reach two tasks:
    ///
    /// ```compile_fail,E0499
    /// use fcma_sync::Pool;
    /// let mut buf = vec![0.0f32; 8];
    /// let tasks: Vec<&mut [f32]> = vec![&mut buf[..], &mut buf[..]];
    /// Pool::new(2).run_init(tasks, || 1.0f32, |one, _, band| band.fill(*one));
    /// ```
    ///
    /// Disjoint bands carved with `split_at_mut` compile:
    ///
    /// ```
    /// use fcma_sync::Pool;
    /// let mut buf = vec![0.0f32; 8];
    /// let (lo, hi) = buf.split_at_mut(4);
    /// let tasks: Vec<&mut [f32]> = vec![lo, hi];
    /// Pool::new(2).run_init(tasks, || 1.0f32, |one, _, band| band.fill(*one));
    /// assert_eq!(buf, [1.0f32; 8]);
    /// ```
    ///
    /// # Panics
    /// Re-raises the first panic from a task, after all workers exited.
    pub fn run_init<T, R, S>(
        &self,
        tasks: Vec<T>,
        init: impl Fn() -> S + Sync,
        job: impl Fn(&mut S, usize, T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        let n = tasks.len();
        if self.threads <= 1 || n <= 1 {
            // Inline: one worker state, task order = index order. The
            // caller's context is already on this thread, so the ctx
            // hooks have nothing to do.
            let mut state = init();
            return tasks.into_iter().enumerate().map(|(i, t)| job(&mut state, i, t)).collect();
        }
        let workers = self.threads.min(n);
        let shared = Region {
            region: Mutex::new(RegionState {
                queue: tasks.into_iter().enumerate(),
                results: (0..n).map(|_| None).collect(),
                remaining: n,
                panic: None,
            }),
            cv: Condvar::new(),
        };
        let run_worker = || worker(&shared, &init, &job);
        let run_worker = &run_worker;
        // Capture the forking thread's context once; every spawned worker
        // adopts it, so records made on pool threads reach the caller's
        // collector and keep their causal link to the dispatch. The
        // caller runs one worker on its own thread and already has it.
        let adopt_ctx = crate::thread::fork_ctx();
        let run_spawned = || {
            adopt_ctx();
            run_worker();
        };
        let run_spawned = &run_spawned;

        match mode() {
            Mode::Real => {
                std::thread::scope(|s| {
                    for _ in 1..workers {
                        s.spawn(run_spawned);
                    }
                    run_worker();
                });
            }
            Mode::Model(rt) => {
                std::thread::scope(|s| {
                    let mut joined = Vec::with_capacity(workers - 1);
                    for _ in 1..workers {
                        let mid = rt.thread_register();
                        joined.push(mid);
                        let rt_child = Arc::clone(&rt);
                        s.spawn(move || run_model_thread(rt_child, mid, run_spawned));
                        // Give the checker a decision point right after
                        // each worker becomes runnable.
                        rt.interleave();
                    }
                    let me = catch_unwind(AssertUnwindSafe(run_worker));
                    // Model-visible joins first: the OS-level scope join
                    // below is invisible to the checker, so it must
                    // never be the wait that blocks the parent.
                    for mid in joined {
                        rt.thread_join(mid);
                    }
                    if let Err(p) = me {
                        resume_unwind(p);
                    }
                });
            }
        }

        let mut reg = shared.region.lock();
        if let Some(p) = reg.panic.take() {
            drop(reg);
            resume_unwind(p);
        }
        let results = reg
            .results
            .iter_mut()
            // Cannot panic: remaining hit zero with no panic recorded, so every slot was filled
            .map(|slot| slot.take().expect("pool: task finished without a result"))
            .collect();
        drop(reg);
        results
    }
}

/// Everything a region's workers share.
struct Region<T, R> {
    /// The region's one lock: task queue and completion state.
    region: Mutex<RegionState<T, R>>,
    /// Signaled when the region completes or a task panics.
    cv: Condvar,
}

struct RegionState<T, R> {
    /// Tasks not yet taken, in index order.
    queue: std::iter::Enumerate<std::vec::IntoIter<T>>,
    /// Result slot per task index.
    results: Vec<Option<R>>,
    /// Tasks not yet completed.
    remaining: usize,
    /// First panic payload from a task, re-raised by the caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// One worker's loop: take the next task from the shared queue, run it
/// unlocked, and store its result in the same critical section that
/// takes the one after. Tasks are only ever queued up front, so a worker
/// that finds the queue empty parks until the region is complete or
/// poisoned and needs no re-check of the queue after waking.
fn worker<T, R, S, I, F>(shared: &Region<T, R>, init: &I, job: &F)
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, T) -> R + Sync,
{
    let mut state = init();
    let mut reg = shared.region.lock();
    while reg.panic.is_none() {
        let Some((idx, task)) = reg.queue.next() else {
            // Idle: park until the region completes or poisons.
            while reg.remaining != 0 && reg.panic.is_none() {
                shared.cv.wait(&mut reg);
            }
            return;
        };
        drop(reg);
        let out = catch_unwind(AssertUnwindSafe(|| job(&mut state, idx, task)));
        reg = shared.region.lock();
        match out {
            Ok(r) => {
                reg.results[idx] = Some(r);
                reg.remaining -= 1;
                if reg.remaining == 0 {
                    drop(reg);
                    shared.cv.notify_all();
                    return;
                }
            }
            Err(p) => {
                reg.panic.get_or_insert(p);
                drop(reg);
                shared.cv.notify_all();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_task_order_at_every_thread_count() {
        for threads in [1usize, 2, 3, 8] {
            let pool = Pool::new(threads);
            let tasks: Vec<u64> = (0..37).collect();
            let got = pool.run(tasks, |idx, t| {
                assert_eq!(u64::try_from(idx).unwrap(), t);
                t * 3 + 1
            });
            let want: Vec<u64> = (0..37).map(|t| t * 3 + 1).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn borrowed_tasks_and_disjoint_outputs() {
        // Disjoint outputs: tasks borrow disjoint &mut slices.
        let mut buf = vec![0u32; 24];
        let mut tasks: Vec<(usize, &mut [u32])> = Vec::new();
        let mut rest: &mut [u32] = &mut buf;
        let mut at = 0usize;
        while !rest.is_empty() {
            let take = rest.len().min(5);
            let (band, tail) = rest.split_at_mut(take);
            tasks.push((at, band));
            at += take;
            rest = tail;
        }
        Pool::new(3).run(tasks, |_idx, (start, band)| {
            for (i, v) in band.iter_mut().enumerate() {
                *v = u32::try_from(start + i).unwrap();
            }
        });
        let want: Vec<u32> = (0..24).collect();
        assert_eq!(buf, want);
    }

    #[test]
    fn per_worker_state_is_reused_not_shared() {
        let pool = Pool::new(4);
        let counts = pool.run_init(
            vec![(); 40],
            || 0u32,
            |calls, _idx, ()| {
                *calls += 1;
                *calls
            },
        );
        // Each worker's counter climbs monotonically; across 40 tasks at
        // 4 workers the per-task call numbers must total 40 executions.
        assert_eq!(counts.len(), 40);
        assert!(counts.iter().all(|&c| (1..=40).contains(&c)));
    }

    #[test]
    fn task_panic_propagates_after_join() {
        let pool = Pool::new(4);
        let hit = std::panic::catch_unwind(|| {
            pool.run(vec![0usize; 16], |idx, _| {
                assert!(idx != 7, "boom at 7");
            });
        });
        assert!(hit.is_err());
    }
}
