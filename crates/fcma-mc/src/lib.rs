//! A concurrency model checker for code written against the
//! `fcma-sync` facade.
//!
//! The checker runs a closure repeatedly, each time under a cooperative
//! scheduler that serializes its threads: every facade operation (lock,
//! unlock, condvar wait/notify, channel send/recv, atomic access,
//! spawn, sleep) is a *choice point* where the scheduler decides which
//! thread runs next. Time is virtual — a `recv_timeout` deadline fires
//! exactly when the model advances the clock, never because the wall
//! clock drifted. Three exploration modes:
//!
//! - [`check`]: bounded-preemption depth-first search in the style of
//!   CHESS. The first execution follows the non-preempting schedule;
//!   backtracking then systematically flips the latest scheduling
//!   decision, bounding the number of *preemptions* (switching away
//!   from a runnable thread) per execution by
//!   [`Config::max_preemptions`].
//! - [`check_random`]: seeded random walks, like the existing chaos
//!   harness but over schedules instead of fault plans.
//! - [`replay`]: re-run one exact schedule — the `schedule` vector
//!   printed in every failure report feeds straight back in, making
//!   each counterexample reproducible.
//!
//! Built-in detectors: global deadlock (no thread can run and no timer
//! is pending, with a lost-wakeup classification when the blocked
//! threads wait on condvars whose notifications fired with no waiter),
//! double completion (a [`fcma_sync::runtime::report_completion`] key
//! observed twice), send-after-close (a send on a channel whose
//! receivers are gone), and thread panics (assertion failures inside
//! the checked closure). A failure aborts and drains the execution and
//! carries the full decision trace.

mod sched;

#[cfg(test)]
mod tests;

use std::fmt;

use sched::{run_once, Chooser, RunResult};

/// Exploration bounds and detector switches.
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum preemptions (switches away from a runnable thread) per
    /// execution explored by [`check`]; the bound in "bounded DFS".
    pub max_preemptions: usize,
    /// Executions after which exploration stops reporting
    /// [`Outcome::Pass`] with `complete: false`.
    pub max_executions: usize,
    /// Scheduling steps per execution before a [`FailureKind::StepLimit`]
    /// failure (a livelock backstop).
    pub max_steps: usize,
    /// Treat a send on a receiver-less channel as a failure. Off by
    /// default: the shipped scheduler tolerates sends to workers that
    /// already exited.
    pub fail_on_send_after_close: bool,
    /// Treat a duplicate completion key as a failure.
    pub fail_on_double_completion: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_preemptions: 2,
            max_executions: 4096,
            max_steps: 1_000_000,
            fail_on_send_after_close: false,
            fail_on_double_completion: true,
        }
    }
}

/// Result of an exploration.
#[derive(Debug)]
pub enum Outcome {
    /// No explored schedule failed.
    Pass {
        /// Executions actually run.
        executions: usize,
        /// `true` when the bounded search space was exhausted (rather
        /// than stopping at [`Config::max_executions`]).
        complete: bool,
    },
    /// A schedule failed; the report is replayable.
    Fail(Box<Failure>),
}

impl Outcome {
    /// The failure report, if any.
    pub fn failure(&self) -> Option<&Failure> {
        match self {
            Outcome::Pass { .. } => None,
            Outcome::Fail(f) => Some(f),
        }
    }
}

/// A failed execution: what went wrong, and the exact schedule that
/// makes it happen again.
#[derive(Debug)]
pub struct Failure {
    /// The defect class.
    pub kind: FailureKind,
    /// Choice index per decision point; feed to [`replay`].
    pub schedule: Vec<usize>,
    /// Human-readable decision-by-decision trace.
    pub trace: String,
    /// Executions run before (and including) the failing one.
    pub executions: usize,
}

/// The classes of defect the checker detects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// No thread can run and no timer is pending.
    Deadlock {
        /// One line per stuck thread.
        blocked: Vec<String>,
        /// Every stuck thread waits on a condvar that was notified
        /// while it had no waiter — the classic lost wakeup.
        lost_wakeup: bool,
    },
    /// A thread panicked (assertion failure in the checked closure).
    Panic {
        /// Model thread id.
        thread: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A completion key was reported twice.
    DoubleCompletion {
        /// The duplicated key.
        key: u64,
    },
    /// A send on a channel with no receivers left.
    SendAfterClose {
        /// Facade object id of the channel.
        channel: u64,
    },
    /// An execution exceeded [`Config::max_steps`].
    StepLimit,
    /// A prescribed schedule did not match the execution (the checked
    /// closure is not deterministic).
    ReplayDiverged {
        /// Decision index where the prescription ran out of candidates.
        at: usize,
    },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            FailureKind::Deadlock { blocked, lost_wakeup } => {
                writeln!(f, "deadlock: no thread can run and no timer is pending")?;
                if *lost_wakeup {
                    writeln!(f, "  (lost wakeup: notifications fired with no waiter)")?;
                }
                for line in blocked {
                    writeln!(f, "  {line}")?;
                }
            }
            FailureKind::Panic { thread, message } => {
                writeln!(f, "panic on model thread t{thread}: {message}")?;
            }
            FailureKind::DoubleCompletion { key } => {
                writeln!(f, "double completion: key {key} reported twice")?;
            }
            FailureKind::SendAfterClose { channel } => {
                writeln!(f, "send after close on channel #{channel}")?;
            }
            FailureKind::StepLimit => writeln!(f, "step limit exceeded (livelock?)")?,
            FailureKind::ReplayDiverged { at } => {
                writeln!(f, "replay diverged at decision {at}: closure is not deterministic")?;
            }
        }
        writeln!(f, "found after {} execution(s)", self.executions)?;
        writeln!(f, "replayable schedule: {:?}", self.schedule)?;
        write!(f, "decision trace:\n{}", self.trace)
    }
}

/// Bounded-preemption depth-first exploration of `root`'s schedules.
///
/// `root` must be deterministic given a schedule: fresh state per call,
/// no real time, no ambient randomness. Returns on the first failing
/// schedule, or passes once the bounded space (or execution budget) is
/// exhausted.
pub fn check<F>(cfg: &Config, root: F) -> Outcome
where
    F: Fn() + Send + Sync + 'static,
{
    // One DFS node per decision point on the current path.
    struct Node {
        n_candidates: usize,
        from_idx: Option<usize>,
        preemptions_before: usize,
        first_choice: usize,
        next_try: usize,
    }
    impl Node {
        fn next_alternative(&mut self, max_preemptions: usize) -> Option<usize> {
            while self.next_try < self.n_candidates {
                let c = self.next_try;
                self.next_try += 1;
                if c == self.first_choice {
                    continue;
                }
                let cost = usize::from(self.from_idx.is_some() && Some(c) != self.from_idx);
                if self.preemptions_before + cost > max_preemptions {
                    continue;
                }
                return Some(c);
            }
            None
        }
    }

    let root = std::sync::Arc::new(root);
    let mut path: Vec<Node> = Vec::new();
    let mut schedule: Vec<usize> = Vec::new();
    let mut executions = 0;
    loop {
        if executions >= cfg.max_executions {
            return Outcome::Pass { executions, complete: false };
        }
        let run = run_once(cfg, Chooser::Dfs, &schedule, &root);
        executions += 1;
        if run.failure.is_some() {
            return Outcome::Fail(to_failure(run, executions));
        }
        for d in &run.decisions[path.len()..] {
            path.push(Node {
                n_candidates: d.n_candidates,
                from_idx: d.from_idx,
                preemptions_before: d.preemptions_before,
                first_choice: d.chosen,
                next_try: 0,
            });
            schedule.push(d.chosen);
        }
        let mut advanced = false;
        while let Some(node) = path.last_mut() {
            if let Some(alt) = node.next_alternative(cfg.max_preemptions) {
                schedule.truncate(path.len() - 1);
                schedule.push(alt);
                advanced = true;
                break;
            }
            path.pop();
            schedule.pop();
        }
        if !advanced {
            return Outcome::Pass { executions, complete: true };
        }
    }
}

/// Seeded random-walk exploration: `cfg.max_executions` independent
/// schedules drawn from `seed`.
pub fn check_random<F>(cfg: &Config, seed: u64, root: F) -> Outcome
where
    F: Fn() + Send + Sync + 'static,
{
    let root = std::sync::Arc::new(root);
    for i in 0..cfg.max_executions {
        let step = u64::try_from(i).unwrap_or(u64::MAX).wrapping_add(1);
        let walk_seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(step));
        let run = run_once(cfg, Chooser::Random(walk_seed), &[], &root);
        if run.failure.is_some() {
            return Outcome::Fail(to_failure(run, i + 1));
        }
    }
    Outcome::Pass { executions: cfg.max_executions, complete: false }
}

/// Re-run `root` under one exact schedule (as printed in a
/// [`Failure`]); decisions past the end of `schedule` follow the
/// non-preempting default.
pub fn replay<F>(cfg: &Config, schedule: &[usize], root: F) -> Outcome
where
    F: Fn() + Send + Sync + 'static,
{
    let root = std::sync::Arc::new(root);
    let run = run_once(cfg, Chooser::Dfs, schedule, &root);
    if run.failure.is_some() {
        Outcome::Fail(to_failure(run, 1))
    } else {
        Outcome::Pass { executions: 1, complete: false }
    }
}

/// Convert a failed run into its report.
fn to_failure(run: RunResult, executions: usize) -> Box<Failure> {
    let schedule: Vec<usize> = run.decisions.iter().map(|d| d.chosen).collect();
    let kind = run.failure.unwrap_or(FailureKind::StepLimit);
    Box::new(Failure { kind, schedule, trace: run.trace, executions })
}
