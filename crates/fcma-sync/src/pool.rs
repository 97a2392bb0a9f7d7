//! Work-stealing fork-join pool built on the facade primitives.
//!
//! [`Pool::run`] executes a vector of independent tasks across a fixed
//! number of workers and returns the results **in task order** — the
//! reduction tree is the task index, never arrival order, so a parallel
//! region's output is bit-identical to the serial loop at every thread
//! count. Internally each worker owns a deque seeded with a contiguous
//! block of tasks (locality for the band-partitioned kernels); a worker
//! that drains its own deque steals from the back of a victim chosen by
//! a seeded generator, and parks on a region condvar when every deque
//! is empty but tasks are still in flight.
//!
//! The pool is built from facade [`Mutex`]/[`Condvar`] only, so the
//! same code runs in all three facade modes:
//!
//! - **Real**: scoped OS threads (`std::thread::scope` — this crate is
//!   the facade, so it may touch `std::thread` directly).
//! - **Virtual clock**: workers are registered with the clock before
//!   they start and unregistered on exit, so idle parks participate in
//!   the quiescence check and injected stalls cost virtual time only.
//! - **Model-checked**: workers become model threads through the
//!   scoped-thread hooks on [`McRuntime`], and the parent performs a
//!   *model-visible* join ([`McRuntime::thread_join`]) before the
//!   OS-level scope join, so the checker can schedule every handoff.
//!
//! A panicking task poisons nothing: the first payload is captured, the
//! region is woken, every worker exits promptly, and the payload is
//! re-raised on the caller after all workers have been joined.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::clock;
use crate::mutex::{Condvar, Mutex};
use crate::runtime::{enter_model, mode, Mode};

/// Counters describing one parallel region, for the caller to bridge
/// into trace counters (`pool.*`). The pool itself stays trace-free so
/// the facade remains a leaf crate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed (the region's task count).
    pub tasks: u64,
    /// Tasks a worker took from another worker's deque.
    pub steals: u64,
    /// Times a worker parked with empty deques and work still in
    /// flight.
    pub idle_parks: u64,
}

/// A work-stealing thread-pool configuration. Cheap to copy; threads
/// are spawned per [`Pool::run`] region (fork-join), not kept alive
/// between regions, so a `Pool` can be freely embedded in executors and
/// passed across the cluster scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
    seed: u64,
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
        Pool { threads, seed: 0x5eed_f0c1_a11e_1e0d }
    }

    /// Same pool with a different steal-victim seed (exploration and
    /// tests; results never depend on the seed).
    #[must_use]
    pub fn with_seed(self, seed: u64) -> Self {
        Pool { seed, ..self }
    }

    /// A pool sized from the `FCMA_THREADS` environment variable
    /// (default 1 — the serial configuration).
    #[must_use]
    pub fn from_env() -> Self {
        let threads = std::env::var("FCMA_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or(1);
        Pool::new(threads)
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
    /// The kernels carve disjoint bands with `split_at_mut` instead:
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
        self.run_init_stats(tasks, init, job).0
    }

    /// [`Pool::run_init`] also returning the region's [`PoolStats`].
    ///
    /// # Panics
    /// Re-raises the first panic from a task, after all workers exited.
    pub fn run_init_stats<T, R, S>(
        &self,
        tasks: Vec<T>,
        init: impl Fn() -> S + Sync,
        job: impl Fn(&mut S, usize, T) -> R + Sync,
    ) -> (Vec<R>, PoolStats)
    where
        T: Send,
        R: Send,
    {
        let n = tasks.len();
        let n64 = u64::try_from(n).unwrap_or(u64::MAX);
        if self.threads <= 1 || n <= 1 {
            // Inline: one worker state, task order = index order. The
            // caller's context is already on this thread, so the ctx
            // hooks have nothing to do.
            let mut state = init();
            let results =
                tasks.into_iter().enumerate().map(|(i, t)| job(&mut state, i, t)).collect();
            return (results, PoolStats { tasks: n64, ..Default::default() });
        }
        let workers = self.threads.min(n);

        // Seed each deque with a contiguous block of tasks.
        let mut queues: Vec<VecDeque<(usize, T)>> = Vec::with_capacity(workers);
        let mut iter = tasks.into_iter().enumerate();
        for w in 0..workers {
            let len = n / workers + usize::from(w < n % workers);
            queues.push(iter.by_ref().take(len).collect());
        }
        let shared = Region {
            deque: queues.into_iter().map(Mutex::new).collect(),
            region: Mutex::new(RegionState {
                results: (0..n).map(|_| None).collect(),
                remaining: n,
                panic: None,
                steals: 0,
                idle_parks: 0,
            }),
            cv: Condvar::new(),
        };
        let seed = self.seed;
        let run_worker = |wid: usize| worker(&shared, wid, workers, seed, &init, &job);
        let run_worker = &run_worker;
        // Capture the forking thread's context once; every spawned worker
        // adopts it, so records made on pool threads reach the caller's
        // collector and keep their causal link to the dispatch. Worker 0
        // runs on the caller's own thread and already has it.
        let adopt_ctx = crate::thread::fork_ctx();
        let run_spawned = |wid: usize| {
            adopt_ctx();
            run_worker(wid);
        };
        let run_spawned = &run_spawned;

        match mode() {
            Mode::Real => {
                std::thread::scope(|s| {
                    for wid in 1..workers {
                        s.spawn(move || run_spawned(wid));
                    }
                    run_worker(0);
                });
            }
            Mode::Virtual(vclock) => {
                std::thread::scope(|s| {
                    for wid in 1..workers {
                        // Register before the thread exists so the
                        // quiescence check can never miss it.
                        vclock.register();
                        let vclock = Arc::clone(&vclock);
                        s.spawn(move || clock::run_registered(&vclock, || run_spawned(wid)));
                    }
                    run_worker(0);
                });
            }
            Mode::Model(rt) => {
                std::thread::scope(|s| {
                    let mut joined = Vec::with_capacity(workers - 1);
                    for wid in 1..workers {
                        let mid = rt.thread_register();
                        joined.push(mid);
                        let rt_child = Arc::clone(&rt);
                        s.spawn(move || {
                            let _mode = enter_model(Arc::clone(&rt_child));
                            if rt_child.thread_enter(mid) {
                                let out = catch_unwind(AssertUnwindSafe(|| run_spawned(wid)));
                                rt_child
                                    .thread_exit(mid, out.err().map(|p| panic_message(p.as_ref())));
                            } else {
                                rt_child.thread_exit(mid, None);
                            }
                        });
                        // Give the checker a decision point right after
                        // each worker becomes runnable.
                        rt.interleave();
                    }
                    let me = catch_unwind(AssertUnwindSafe(|| run_worker(0)));
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
        let stats = PoolStats { tasks: n64, steals: reg.steals, idle_parks: reg.idle_parks };
        let results = reg
            .results
            .iter_mut()
            // Cannot panic: remaining hit zero with no panic recorded, so every slot was filled
            .map(|slot| slot.take().expect("pool: task finished without a result"))
            .collect();
        drop(reg);
        (results, stats)
    }
}

/// Everything a region's workers share.
struct Region<T, R> {
    /// One deque per worker (lock rank 1, never held with `region`).
    deque: Vec<Mutex<VecDeque<(usize, T)>>>,
    /// Completion state (lock rank 2).
    region: Mutex<RegionState<R>>,
    /// Signaled when the region completes or a task panics.
    cv: Condvar,
}

struct RegionState<R> {
    /// Result slot per task index.
    results: Vec<Option<R>>,
    /// Tasks not yet completed.
    remaining: usize,
    /// First panic payload from a task, re-raised by the caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
    steals: u64,
    idle_parks: u64,
}

/// One worker's loop: pop own deque from the front, steal from the back
/// of a seeded-random victim, park when everything is drained but tasks
/// are still in flight. Tasks are only ever seeded up front, so a
/// worker that finds every deque empty needs no re-check after waking —
/// the region is either complete or poisoned.
fn worker<T, R, S, I, F>(
    shared: &Region<T, R>,
    wid: usize,
    workers: usize,
    seed: u64,
    init: &I,
    job: &F,
) where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, T) -> R + Sync,
{
    let mut state = init();
    let mut rng = seed ^ u64::try_from(wid).unwrap_or(u64::MAX).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    loop {
        let mut stolen = false;
        let mut grabbed = shared.deque[wid].lock().pop_front();
        if grabbed.is_none() {
            let nw = u64::try_from(workers).unwrap_or(u64::MAX);
            let start = usize::try_from(splitmix(&mut rng) % nw).unwrap_or(0);
            for k in 0..workers {
                let victim = (start + k) % workers;
                if victim == wid {
                    continue;
                }
                if let Some(t) = shared.deque[victim].lock().pop_back() {
                    grabbed = Some(t);
                    stolen = true;
                    break;
                }
            }
        }
        match grabbed {
            Some((idx, task)) => {
                let out = catch_unwind(AssertUnwindSafe(|| job(&mut state, idx, task)));
                let mut reg = shared.region.lock();
                if stolen {
                    reg.steals += 1;
                }
                match out {
                    Ok(r) => {
                        reg.results[idx] = Some(r);
                        reg.remaining -= 1;
                        if reg.remaining == 0 {
                            drop(reg);
                            shared.cv.notify_all();
                            return;
                        }
                        if reg.panic.is_some() {
                            return;
                        }
                    }
                    Err(p) => {
                        if reg.panic.is_none() {
                            reg.panic = Some(p);
                        }
                        drop(reg);
                        shared.cv.notify_all();
                        return;
                    }
                }
            }
            None => {
                // Idle: park until the region completes or poisons.
                let mut reg = shared.region.lock();
                loop {
                    if reg.remaining == 0 || reg.panic.is_some() {
                        return;
                    }
                    reg.idle_parks += 1;
                    shared.cv.wait(&mut reg);
                }
            }
        }
    }
}

/// One splitmix64 step (steal-victim selection only; never results).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Best-effort extraction of a panic payload's message (for the model
/// checker's panic detector).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
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
        // The kernel-band pattern: tasks borrow disjoint &mut slices.
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
    fn stats_account_for_every_task() {
        let pool = Pool::new(3);
        let (got, stats) = pool.run_init_stats(vec![1u64; 17], || (), |(), _i, v| v);
        assert_eq!(got.len(), 17);
        assert_eq!(stats.tasks, 17);
        assert!(stats.steals <= stats.tasks);
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

    #[test]
    fn runs_under_the_virtual_clock() {
        let clock = crate::clock::VirtualClock::install();
        let pool = Pool::new(3);
        let got = pool.run((0..9u64).collect(), |_i, t| t + 1);
        assert_eq!(got, (1..=9).collect::<Vec<_>>());
        drop(clock);
    }

    #[test]
    fn seed_never_changes_results() {
        let tasks: Vec<u64> = (0..50).collect();
        let a = Pool::new(4).with_seed(1).run(tasks.clone(), |_i, t| t * t);
        let b = Pool::new(4).with_seed(99).run(tasks, |_i, t| t * t);
        assert_eq!(a, b);
    }
}
