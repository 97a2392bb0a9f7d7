//! The cooperative scheduler behind the model checker.
//!
//! One execution = one [`Scheduler`] (installed into each model thread
//! as the `fcma-sync` runtime) plus one OS thread per model thread, of
//! which exactly one is ever running; the rest sit in a condvar wait
//! until scheduled. Every facade operation funnels into
//! [`Scheduler::reschedule`], which advances virtual time when nothing
//! is runnable, detects deadlock, consults the [`Chooser`] at
//! multi-candidate decision points, and grants locks/wakeups to the
//! chosen thread.
//!
//! Failure handling: the first defect stamps `SchedState::failure` and
//! wakes everyone; threads then unwind out of the checked closure via a
//! sentinel panic (recognized and swallowed by the thread wrapper and
//! the panic hook). Runtime calls reached *during* unwinding (guard
//! drops) mutate state without panicking, so a failing execution always
//! drains cleanly.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};

use fcma_sync::runtime::{run_model_thread, McEvent, McRuntime};

use crate::{Config, FailureKind};

/// Sentinel panic message used to unwind model threads when an
/// execution aborts; never reported as a user panic.
const ABORT: &str = "fcma-mc: execution aborted";

/// No thread is currently scheduled.
const NOBODY: usize = usize::MAX;

/// How the scheduler picks at multi-candidate decision points (after
/// any prescribed prefix is exhausted).
#[derive(Clone, Copy)]
pub(crate) enum Chooser {
    /// Continue the previously running thread when possible (the
    /// non-preempting default the DFS driver branches from).
    Dfs,
    /// Seeded uniform choice, bounded by the preemption budget.
    Random(u64),
}

/// One recorded decision point, summarized for the DFS driver.
#[derive(Debug, Clone)]
pub(crate) struct DecisionSummary {
    /// Number of schedulable candidates.
    pub(crate) n_candidates: usize,
    /// Index of the previously running thread among the candidates.
    pub(crate) from_idx: Option<usize>,
    /// Preemptions spent before this decision.
    pub(crate) preemptions_before: usize,
    /// Candidate index chosen.
    pub(crate) chosen: usize,
}

/// Everything `run_once` reports back to the exploration drivers.
pub(crate) struct RunResult {
    /// One entry per multi-candidate decision point.
    pub(crate) decisions: Vec<DecisionSummary>,
    /// The defect, if the execution failed.
    pub(crate) failure: Option<FailureKind>,
    /// Human-readable decision-by-decision trace.
    pub(crate) trace: String,
}

/// What a model thread is doing, from the scheduler's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    /// May be scheduled (and is running iff `current == id`).
    Runnable,
    /// Waiting to acquire a lock.
    Lock(u64),
    /// Waiting on a condvar, having released `mutex`.
    CvWait { cv: u64, mutex: u64, deadline: Option<u64>, notified: bool },
    /// Waiting for virtual time to pass.
    Sleep { until: u64 },
    /// Waiting for another model thread to finish (a scoped join).
    Join { target: usize },
    /// Exited (or drained after a failure).
    Finished,
}

struct ThreadState {
    status: Status,
    /// Set on grant after a timed condvar wait that expired.
    timed_out: bool,
}

struct SchedState {
    threads: Vec<ThreadState>,
    current: usize,
    /// Virtual nanoseconds.
    time: u64,
    /// Lock id → owning thread.
    locks: BTreeMap<u64, Option<usize>>,
    /// Condvar id → count of notifications that found no waiter.
    missed_notifies: BTreeMap<u64, usize>,
    /// Completion keys seen (double-completion detector).
    completions: BTreeSet<u64>,
    next_object: u64,
    steps: usize,
    preemptions: usize,
    decisions: Vec<DecisionSummary>,
    trace: Vec<String>,
    /// Prescribed choice per decision point (prefix).
    prescription: Vec<usize>,
    chooser: Chooser,
    rng: u64,
    failure: Option<FailureKind>,
    done: bool,
}

pub(crate) struct Scheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
    cfg: Config,
}

/// Suppress the default panic-hook output for the abort sentinel;
/// everything else goes to the previous hook unchanged.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let is_abort =
                info.payload().downcast_ref::<String>().is_some_and(|s| s.contains(ABORT))
                    || info.payload().downcast_ref::<&str>().is_some_and(|s| s.contains(ABORT));
            if !is_abort {
                previous(info);
            }
        }));
    });
}

/// Run `root` once under a fresh scheduler with the given prescription.
pub(crate) fn run_once<F>(
    cfg: &Config,
    chooser: Chooser,
    prescription: &[usize],
    root: &Arc<F>,
) -> RunResult
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_hook();
    let rng_seed = match chooser {
        Chooser::Dfs => 0,
        Chooser::Random(seed) => seed | 1,
    };
    let sched = Arc::new(Scheduler {
        state: Mutex::new(SchedState {
            threads: vec![ThreadState { status: Status::Runnable, timed_out: false }],
            current: 0,
            time: 0,
            locks: BTreeMap::new(),
            missed_notifies: BTreeMap::new(),
            completions: BTreeSet::new(),
            next_object: 0,
            steps: 0,
            preemptions: 0,
            decisions: Vec::new(),
            trace: Vec::new(),
            prescription: prescription.to_vec(),
            chooser,
            rng: rng_seed,
            failure: None,
            done: false,
        }),
        cv: Condvar::new(),
        cfg: cfg.clone(),
    });
    let (rt, root) = (Arc::clone(&sched) as Arc<dyn McRuntime>, Arc::clone(root));
    std::thread::spawn(move || run_model_thread(rt, 0, || root()));
    let mut st = sched.lock_state();
    while !st.done {
        st = sched.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
    RunResult {
        decisions: std::mem::take(&mut st.decisions),
        failure: st.failure.take(),
        trace: st.trace.join("\n"),
    }
}

impl Scheduler {
    fn lock_state(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stamp the first failure; callers must wake waiters after
    /// releasing the state lock.
    fn fail(st: &mut SchedState, kind: FailureKind) {
        if st.failure.is_none() {
            st.failure = Some(kind);
        }
    }

    /// Unwind the calling thread out of a failed execution (no-op when
    /// already unwinding, so guard drops stay safe).
    fn abort_thread() {
        if !std::thread::panicking() {
            // The abort sentinel deliberately unwinds model threads out
            // of a failed execution; the thread wrapper catches it.
            panic!("{ABORT}");
        }
    }

    /// Block the calling thread until it is scheduled again.
    fn wait_my_turn(&self, mut st: MutexGuard<'_, SchedState>, me: usize) {
        loop {
            if st.failure.is_some() {
                drop(st);
                Self::abort_thread();
                return;
            }
            if st.current == me && st.threads[me].status == Status::Runnable {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A scheduling point: set the caller's status, pick the next
    /// thread, and block until the caller is scheduled again.
    fn schedule_point(&self, me: usize, status: Status) {
        let mut st = self.lock_state();
        if st.failure.is_some() {
            drop(st);
            Self::abort_thread();
            return;
        }
        st.threads[me].status = status;
        self.reschedule(&mut st, me);
        self.cv.notify_all();
        self.wait_my_turn(st, me);
    }

    /// Is thread `t` schedulable right now?
    fn schedulable(st: &SchedState, t: usize) -> bool {
        match &st.threads[t].status {
            Status::Runnable => true,
            Status::Lock(l) => st.locks.get(l).copied().flatten().is_none(),
            Status::CvWait { mutex, deadline, notified, .. } => {
                let lock_free = st.locks.get(mutex).copied().flatten().is_none();
                lock_free && (*notified || deadline.is_some_and(|d| d <= st.time))
            }
            Status::Sleep { until } => *until <= st.time,
            Status::Join { target } => st.threads[*target].status == Status::Finished,
            Status::Finished => false,
        }
    }

    /// The earliest pending timer strictly in the future, if any.
    fn next_timer(st: &SchedState) -> Option<u64> {
        st.threads
            .iter()
            .filter_map(|t| match &t.status {
                Status::Sleep { until } => Some(*until),
                Status::CvWait { deadline, notified: false, .. } => *deadline,
                _ => None,
            })
            .filter(|&d| d > st.time)
            .min()
    }

    /// Describe what scheduling thread `t` would do (for the trace).
    fn describe(st: &SchedState, t: usize) -> String {
        match &st.threads[t].status {
            Status::Runnable => format!("t{t} continues"),
            Status::Lock(l) => format!("t{t} acquires lock#{l}"),
            Status::CvWait { cv, notified: true, .. } => format!("t{t} wakes from cv#{cv}"),
            Status::CvWait { cv, .. } => format!("t{t} times out on cv#{cv}"),
            Status::Sleep { .. } => format!("t{t} finishes sleeping"),
            Status::Join { target } => format!("t{t} joins t{target}"),
            Status::Finished => format!("t{t} (finished)"),
        }
    }

    /// Advance time if needed, detect deadlock, consult the chooser,
    /// and grant the next thread. `from` is the thread that was
    /// running. Callers wake waiters after releasing the state lock.
    fn reschedule(&self, st: &mut SchedState, from: usize) {
        st.current = NOBODY;
        st.steps += 1;
        if st.steps > self.cfg.max_steps {
            Self::fail(st, FailureKind::StepLimit);
            return;
        }
        // Find candidates, advancing virtual time over pending timers.
        let candidates: Vec<usize> = loop {
            let c: Vec<usize> =
                (0..st.threads.len()).filter(|&t| Self::schedulable(st, t)).collect();
            if !c.is_empty() {
                break c;
            }
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                st.done = true;
                return;
            }
            match Self::next_timer(st) {
                Some(next) => st.time = next,
                None => {
                    let kind = Self::deadlock_report(st);
                    Self::fail(st, kind);
                    return;
                }
            }
        };
        let chosen_idx = if candidates.len() == 1 {
            0
        } else {
            let from_idx = candidates.iter().position(|&t| t == from);
            let d = st.decisions.len();
            let idx = if let Some(&prescribed) = st.prescription.get(d) {
                if prescribed >= candidates.len() {
                    Self::fail(st, FailureKind::ReplayDiverged { at: d });
                    return;
                }
                prescribed
            } else {
                match (st.chooser, from_idx) {
                    (Chooser::Dfs, Some(f)) => f,
                    (Chooser::Dfs, None) => 0,
                    (Chooser::Random(_), f) => {
                        if st.preemptions < self.cfg.max_preemptions || f.is_none() {
                            let n = u64::try_from(candidates.len()).unwrap_or(u64::MAX);
                            usize::try_from(splitmix(&mut st.rng) % n).unwrap_or(0)
                        } else {
                            f.unwrap_or(0)
                        }
                    }
                }
            };
            st.decisions.push(DecisionSummary {
                n_candidates: candidates.len(),
                from_idx,
                preemptions_before: st.preemptions,
                chosen: idx,
            });
            if from_idx.is_some() && from_idx != Some(idx) {
                st.preemptions += 1;
            }
            let line = format!(
                "#{d} [{}] -> {}",
                candidates.iter().map(|&t| Self::describe(st, t)).collect::<Vec<_>>().join(", "),
                Self::describe(st, candidates[idx]),
            );
            st.trace.push(line);
            idx
        };
        Self::grant(st, candidates[chosen_idx]);
    }

    /// Make `t` the running thread, applying its pending grant.
    fn grant(st: &mut SchedState, t: usize) {
        let status = st.threads[t].status.clone();
        match status {
            Status::Lock(l) => {
                st.locks.insert(l, Some(t));
            }
            Status::CvWait { mutex, notified, .. } => {
                st.locks.insert(mutex, Some(t));
                st.threads[t].timed_out = !notified;
            }
            Status::Runnable | Status::Sleep { .. } | Status::Join { .. } | Status::Finished => {}
        }
        st.threads[t].status = Status::Runnable;
        st.current = t;
    }

    /// Build the deadlock failure for the current state.
    fn deadlock_report(st: &SchedState) -> FailureKind {
        let mut blocked = Vec::new();
        let mut cv_waits = 0usize;
        let mut missed = 0usize;
        for (t, thread) in st.threads.iter().enumerate() {
            match &thread.status {
                Status::Finished => {}
                Status::CvWait { cv, mutex, .. } => {
                    cv_waits += 1;
                    missed += st.missed_notifies.get(cv).copied().unwrap_or(0);
                    blocked.push(format!(
                        "t{t}: waiting on cv#{cv} (mutex#{mutex} released), no notify pending"
                    ));
                }
                Status::Lock(l) => {
                    let owner = st.locks.get(l).copied().flatten();
                    blocked.push(format!("t{t}: waiting for lock#{l} (owner: {owner:?})"));
                }
                Status::Sleep { until } => {
                    blocked.push(format!("t{t}: sleeping until {until}ns"));
                }
                Status::Join { target } => {
                    blocked.push(format!("t{t}: joining t{target} (not finished)"));
                }
                Status::Runnable => blocked.push(format!("t{t}: runnable (scheduler bug?)")),
            }
        }
        let non_finished = blocked.len();
        FailureKind::Deadlock { blocked, lost_wakeup: cv_waits == non_finished && missed > 0 }
    }
}

impl McRuntime for Scheduler {
    fn next_object_id(&self) -> u64 {
        let mut st = self.lock_state();
        st.next_object += 1;
        st.next_object
    }

    fn mutex_lock(&self, id: u64) {
        if std::thread::panicking() {
            return;
        }
        let me = {
            let st = self.lock_state();
            if st.failure.is_some() {
                drop(st);
                Self::abort_thread();
                return;
            }
            st.current
        };
        self.schedule_point(me, Status::Lock(id));
    }

    fn mutex_unlock(&self, id: u64) {
        let me = {
            let mut st = self.lock_state();
            st.locks.insert(id, None);
            if st.failure.is_some() || std::thread::panicking() {
                // Draining, or unwinding a guard drop during a panic
                // that is about to become the failure: just release.
                return;
            }
            st.current
        };
        self.schedule_point(me, Status::Runnable);
    }

    fn condvar_wait(&self, cv: u64, mutex: u64, timeout_nanos: Option<u64>) -> bool {
        let (me, status) = {
            let mut st = self.lock_state();
            st.locks.insert(mutex, None);
            if st.failure.is_some() || std::thread::panicking() {
                drop(st);
                Self::abort_thread();
                return true;
            }
            let deadline = timeout_nanos.map(|t| st.time.saturating_add(t));
            (st.current, Status::CvWait { cv, mutex, deadline, notified: false })
        };
        self.schedule_point(me, status);
        let st = self.lock_state();
        if st.failure.is_some() {
            return true;
        }
        st.threads[me].timed_out
    }

    fn condvar_notify(&self, cv: u64, all: bool) {
        let me = {
            let mut st = self.lock_state();
            let mut woke = 0usize;
            for t in 0..st.threads.len() {
                if let Status::CvWait { cv: c, notified, .. } = &mut st.threads[t].status {
                    if *c == cv && !*notified {
                        *notified = true;
                        woke += 1;
                        if !all {
                            break;
                        }
                    }
                }
            }
            if woke == 0 {
                *st.missed_notifies.entry(cv).or_insert(0) += 1;
            }
            if st.failure.is_some() || std::thread::panicking() {
                return;
            }
            st.current
        };
        self.schedule_point(me, Status::Runnable);
    }

    fn now_nanos(&self) -> u64 {
        self.lock_state().time
    }

    fn sleep(&self, nanos: u64) {
        if std::thread::panicking() {
            return;
        }
        let (me, until) = {
            let st = self.lock_state();
            if st.failure.is_some() {
                drop(st);
                Self::abort_thread();
                return;
            }
            (st.current, st.time.saturating_add(nanos))
        };
        self.schedule_point(me, Status::Sleep { until });
    }

    fn interleave(&self) {
        if std::thread::panicking() {
            return;
        }
        let me = {
            let st = self.lock_state();
            if st.failure.is_some() {
                drop(st);
                Self::abort_thread();
                return;
            }
            st.current
        };
        self.schedule_point(me, Status::Runnable);
    }

    fn thread_register(&self) -> usize {
        {
            let st = self.lock_state();
            if st.failure.is_some() {
                drop(st);
                Self::abort_thread();
            }
        }
        let mut st = self.lock_state();
        let id = st.threads.len();
        st.threads.push(ThreadState { status: Status::Runnable, timed_out: false });
        id
    }

    /// Wait until thread `id` is scheduled for the first time; `false`
    /// if the execution failed before that.
    fn thread_enter(&self, id: usize) -> bool {
        let mut st = self.lock_state();
        loop {
            if st.failure.is_some() {
                return false;
            }
            if st.current == id && st.threads[id].status == Status::Runnable {
                return true;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A model thread's closure returned (or unwound).
    fn thread_exit(&self, id: usize, panic: Option<String>) {
        let mut st = self.lock_state();
        if let Some(message) = panic {
            if !message.contains(ABORT) && st.failure.is_none() {
                Self::fail(&mut st, FailureKind::Panic { thread: id, message });
            }
        }
        st.threads[id].status = Status::Finished;
        if st.current == id {
            st.current = NOBODY;
        }
        if st.threads.iter().all(|t| t.status == Status::Finished) {
            st.done = true;
        } else if st.failure.is_none() && st.current == NOBODY {
            self.reschedule(&mut st, id);
        }
        drop(st);
        self.cv.notify_all();
    }

    fn thread_join(&self, target: usize) {
        if std::thread::panicking() {
            return;
        }
        let me = {
            let st = self.lock_state();
            if st.failure.is_some() {
                drop(st);
                Self::abort_thread();
                return;
            }
            st.current
        };
        self.schedule_point(me, Status::Join { target });
    }

    fn record(&self, event: McEvent) {
        let mut st = self.lock_state();
        if st.failure.is_some() {
            return;
        }
        match event {
            McEvent::Completion { key } => {
                if !st.completions.insert(key) && self.cfg.fail_on_double_completion {
                    Self::fail(&mut st, FailureKind::DoubleCompletion { key });
                }
            }
            McEvent::SendAfterClose { channel } => {
                if self.cfg.fail_on_send_after_close {
                    Self::fail(&mut st, FailureKind::SendAfterClose { channel });
                }
            }
        }
        let failed = st.failure.is_some();
        drop(st);
        if failed {
            self.cv.notify_all();
            Self::abort_thread();
        }
    }
}

/// One splitmix64 step (the same generator the chaos fault plans use).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
