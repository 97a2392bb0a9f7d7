//! Discrete-event virtual clock for deterministic timing tests.
//!
//! [`VirtualClock::install`] puts the calling thread (and every thread
//! it spawns through [`crate::thread::spawn`]) on a shared virtual
//! clock. Virtual time is frozen while any registered thread is
//! runnable; when *all* registered threads are blocked in a facade wait
//! (`sleep`, `recv_timeout`, a timed condvar wait), the clock jumps to
//! the earliest pending deadline and wakes its waiters. A ten-second
//! injected stall therefore costs zero wall time, and timeout races
//! ("did the deadline fire before the result arrived?") resolve
//! identically on every run.
//!
//! Dropping the [`ClockGuard`] marks the clock dead and drains any
//! stragglers: parked threads wake immediately with a timeout result,
//! so detached workers polling a cancellation token exit promptly.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::runtime::{enter_virtual, set_mode, Mode, ModeGuard};

/// Outcome of a [`VirtualClock::park`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Park {
    /// The deadline passed (or the clock is dead).
    TimedOut,
    /// A wake-up (send, notify, or clock advance) arrived first.
    Woken,
}

struct ClockState {
    /// Virtual nanoseconds since install.
    now: u64,
    /// Threads participating in the quiescence check.
    registered: usize,
    /// Registered threads parked since the last wake-up. A wake-up
    /// zeroes it: every parked thread has been signalled and counts as
    /// runnable until it parks again, however long the OS takes to
    /// schedule it — otherwise a busy host lets the clock jump past
    /// work that was already handed over.
    blocked: usize,
    /// Bumped by every wake-up; parked threads recheck on change.
    wake_gen: u64,
    /// Set when the guard drops; parked threads drain.
    dead: bool,
    /// Next park token.
    next_token: u64,
    /// Pending deadlines of parked threads, by token.
    deadlines: BTreeMap<u64, u64>,
}

/// A shared discrete-event clock; see the module docs.
pub struct VirtualClock {
    registry: Mutex<ClockState>,
    cv: Condvar,
}

impl VirtualClock {
    /// Install a fresh virtual clock on the calling thread, returning a
    /// guard that restores the previous mode (and drains the clock)
    /// when dropped.
    pub fn install() -> ClockGuard {
        let clock = Arc::new(VirtualClock {
            registry: Mutex::new(ClockState {
                now: 0,
                registered: 1,
                blocked: 0,
                wake_gen: 0,
                dead: false,
                next_token: 0,
                deadlines: BTreeMap::new(),
            }),
            cv: Condvar::new(),
        });
        let mode = enter_virtual(Arc::clone(&clock));
        ClockGuard { clock, _mode: mode }
    }

    /// Current virtual time in nanoseconds.
    pub(crate) fn now_nanos(&self) -> u64 {
        self.lock_registry().now
    }

    /// Current wake generation, for race-free park handoff: read it
    /// while still holding the lock you are about to release, then pass
    /// it to [`VirtualClock::park`] so a wake-up that lands in between
    /// is not lost.
    pub(crate) fn wake_gen(&self) -> u64 {
        self.lock_registry().wake_gen
    }

    /// Register one more participating thread (before it starts).
    pub(crate) fn register(&self) {
        self.lock_registry().registered += 1;
    }

    /// Remove a participating thread (when it exits).
    pub(crate) fn unregister(&self) {
        let mut st = self.lock_registry();
        st.registered = st.registered.saturating_sub(1);
        self.advance_if_quiescent(&mut st);
    }

    /// Wake every parked thread (they recheck their predicates).
    pub(crate) fn wake_all(&self) {
        let mut st = self.lock_registry();
        self.wake_parked(&mut st);
    }

    /// Signal every parked thread; none of them counts as blocked until
    /// it parks again.
    fn wake_parked(&self, st: &mut ClockState) {
        st.wake_gen += 1;
        st.blocked = 0;
        self.cv.notify_all();
    }

    /// Park the calling thread until `deadline` (virtual nanos) passes
    /// or a wake-up arrives. With `expected_gen` set, returns
    /// immediately if a wake-up already landed since that generation
    /// was read. A parked thread counts toward quiescence: when every
    /// registered thread is parked, virtual time advances to the
    /// earliest pending deadline.
    pub(crate) fn park(&self, expected_gen: Option<u64>, deadline: Option<u64>) -> Park {
        let mut st = self.lock_registry();
        if st.dead {
            return Park::TimedOut;
        }
        if let Some(gen) = expected_gen {
            if st.wake_gen != gen {
                return Park::Woken;
            }
        }
        if let Some(d) = deadline {
            if st.now >= d {
                return Park::TimedOut;
            }
        }
        let token = st.next_token;
        st.next_token += 1;
        if let Some(d) = deadline {
            st.deadlines.insert(token, d);
        }
        st.blocked += 1;
        let entry_gen = st.wake_gen;
        self.advance_if_quiescent(&mut st);
        let result = loop {
            if st.dead {
                break Park::TimedOut;
            }
            if let Some(d) = deadline {
                if st.now >= d {
                    break Park::TimedOut;
                }
            }
            if st.wake_gen != entry_gen {
                break Park::Woken;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        };
        if st.wake_gen == entry_gen {
            // No wake-up since parking (the clock died): still counted.
            st.blocked -= 1;
        }
        st.deadlines.remove(&token);
        result
    }

    /// If every registered thread is parked, jump to the earliest
    /// pending deadline and wake the clock's waiters.
    fn advance_if_quiescent(&self, st: &mut ClockState) {
        if st.dead || st.registered == 0 || st.blocked < st.registered {
            return;
        }
        let Some(&next) = st.deadlines.values().min() else {
            let n = st.registered;
            st.dead = true;
            self.cv.notify_all();
            // audit: allow(panicpath) — deadlock diagnostic: every registered thread is parked with no pending timer, so no wake-up can ever arrive
            panic!("fcma-sync virtual clock: all {n} registered threads are blocked with no pending timer (deadlock)");
        };
        if next > st.now {
            st.now = next;
        }
        self.wake_parked(st);
    }

    fn lock_registry(&self) -> std::sync::MutexGuard<'_, ClockState> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Keeps the calling thread on a virtual clock; dropping it restores
/// the previous mode, marks the clock dead, and drains stragglers.
// audit: allow(deadpub) — RAII guard returned by `VirtualClock::install`; held as `let _clock`, so its name never appears cross-crate
pub struct ClockGuard {
    clock: Arc<VirtualClock>,
    _mode: ModeGuard,
}

impl ClockGuard {
    /// Virtual time elapsed since install.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.clock.now_nanos())
    }
}

impl Drop for ClockGuard {
    fn drop(&mut self) {
        let mut st = self.clock.lock_registry();
        st.dead = true;
        st.registered = st.registered.saturating_sub(1);
        self.clock.wake_parked(&mut st);
    }
}

/// Run `child` registered against `clock`, in virtual mode, always
/// unregistering on the way out (even if `child` panics). Used by
/// [`crate::thread::spawn`] for threads created under a virtual clock.
pub(crate) fn run_registered(clock: &Arc<VirtualClock>, child: impl FnOnce()) {
    struct Unregister(Arc<VirtualClock>);
    impl Drop for Unregister {
        fn drop(&mut self) {
            let prev = set_mode(Mode::Real);
            drop(prev);
            self.0.unregister();
        }
    }
    let _mode = enter_virtual(Arc::clone(clock));
    let _unregister = Unregister(Arc::clone(clock));
    child();
}
