//! The flight recorder: one bounded event log per cluster run, behind
//! one lock.
//!
//! Where the collector is an opt-in tracing substrate for runs somebody
//! planned to trace, the flight log is the black box for the runs
//! nobody did: `run_cluster_with` creates a [`FlightLog`], hands a clone
//! to each of its workers, and every scheduling decision (dispatch,
//! task start/end/panic, condemnation, fence) appends one
//! [`RecorderEvent`]. The log keeps the newest [`CAPACITY`] events and
//! is freed with the run. On a fault the master snapshots it and
//! renders a postmortem (see [`crate::postmortem`]) — so a dump holds
//! the events of exactly the run that produced it.
//!
//! Events arrive at task rate (three per fault-free attempt, tens per
//! second per worker), so a mutex is the whole synchronization story.
//! It is an `fcma-sync` facade mutex: under `fcma-mc` every record is a
//! scheduling point, and the timestamp is read while the lock is held,
//! so log order is time order.

use std::collections::VecDeque;
use std::sync::Arc;

use fcma_sync::Mutex;

use crate::ctx::TraceCtx;

/// Events one run's log keeps; older ones are evicted.
pub const CAPACITY: usize = 1024;

/// What happened, compactly. The wire names (`recorder.*`) are part of
/// the DESIGN.md §11 taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A worker began executing a dispatched attempt.
    TaskStart,
    /// A worker finished an attempt.
    TaskEnd,
    /// A worker's attempt panicked (caught at the worker boundary).
    TaskPanic,
    /// The master dispatched an attempt (arg: worker id).
    Dispatch,
    /// The master discarded a late message from a condemned worker.
    Fence,
    /// The master condemned a worker past its deadline (arg: worker id).
    Condemn,
    /// Checkpoint resume rejected a mismatched file.
    ResumeMismatch,
}

impl EventKind {
    /// The taxonomy name this kind appears under in a postmortem.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TaskStart => "recorder.task.start",
            EventKind::TaskEnd => "recorder.task.end",
            EventKind::TaskPanic => "recorder.task.panic",
            EventKind::Dispatch => "recorder.dispatch",
            EventKind::Fence => "recorder.fence",
            EventKind::Condemn => "recorder.condemn",
            EventKind::ResumeMismatch => "recorder.resume.mismatch",
        }
    }
}

/// One flight-log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// audit: allow(deadpub) — part of a referenced public signature; demotion trips private_interfaces
pub struct RecorderEvent {
    /// Index of this event since the run began. A snapshot whose first
    /// `seq` is above zero has had older events evicted.
    pub seq: u64,
    /// Facade-clock nanoseconds (virtual under the virtual clock).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// The dispatch attempt it happened to (task 0, attempt 0 where
    /// not applicable).
    pub ctx: TraceCtx,
    /// Kind-specific argument (usually the worker id).
    pub arg: usize,
}

/// The state behind the lock.
struct Log {
    capacity: usize,
    events: VecDeque<RecorderEvent>,
}

/// A handle on one run's flight log. Clones share the log; it is freed
/// when the last handle drops.
#[derive(Clone)]
pub struct FlightLog {
    log: Arc<Mutex<Log>>,
}

impl Default for FlightLog {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightLog {
    /// An empty log holding up to [`CAPACITY`] events.
    #[must_use]
    pub fn new() -> FlightLog {
        FlightLog::with_capacity(CAPACITY)
    }

    fn with_capacity(capacity: usize) -> FlightLog {
        let log = Log { capacity, events: VecDeque::new() };
        FlightLog { log: Arc::new(Mutex::new(log)) }
    }

    /// Append one event, evicting the oldest at capacity. The lock is
    /// held for a clock read and one bounded push.
    pub fn record(&self, kind: EventKind, ctx: TraceCtx, arg: usize) {
        let mut log = self.log.lock();
        let seq = log.events.back().map_or(0, |newest| newest.seq + 1);
        if log.events.len() >= log.capacity {
            log.events.pop_front();
        }
        let ts_ns = fcma_sync::time::Instant::now().nanos();
        log.events.push_back(RecorderEvent { seq, ts_ns, kind, ctx, arg });
    }

    /// The surviving events, oldest first (at most [`CAPACITY`] of them).
    #[must_use]
    pub fn snapshot(&self) -> Vec<RecorderEvent> {
        self.log.lock().events.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::TraceOrigin;

    #[test]
    fn log_keeps_exactly_the_newest_capacity_events_in_order() {
        let log = FlightLog::with_capacity(16);
        for i in 0..100u64 {
            log.record(EventKind::Dispatch, TraceCtx::new(i, 0, TraceOrigin::Dispatch), 0);
        }
        let events = log.snapshot();
        let tasks: Vec<u64> = events.iter().map(|e| e.ctx.task).collect();
        assert_eq!(tasks, (84..100).collect::<Vec<_>>());
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, tasks, "seq is the event's index since the log began");
    }
}
