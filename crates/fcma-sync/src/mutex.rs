//! Facade [`Mutex`] and [`Condvar`].
//!
//! Real and virtual modes delegate storage and exclusion to
//! `std::sync`; poisoning is swallowed (a panicking holder simply
//! releases the lock, like `parking_lot`). Under a model checker the
//! lock is granted at the model level first — threads run one at a
//! time, so the underlying std lock is then taken without contention —
//! and every acquire/release/wait/notify is a scheduling choice point.
//!
//! [`Condvar::wait`] takes the guard by `&mut` and re-acquires in
//! place, instead of consuming and returning it like `std`; callers
//! loop over their predicate exactly as with `std`.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock, PoisonError};
use std::time::Duration;

use crate::clock;
use crate::runtime::{mode, model_object_id, McRuntime, Mode};
use crate::time::duration_to_nanos;

/// Mutual exclusion lock; see the module docs.
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    id: OnceLock<u64>,
}

impl<T> Mutex<T> {
    /// Wrap `value` in a new facade mutex.
    pub fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value), id: OnceLock::new() }
    }

    /// Acquire the lock, blocking until available. Never poisons.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match mode() {
            Mode::Real | Mode::Virtual(_) => {
                let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                MutexGuard { lock: self, inner: Some(inner), model: None }
            }
            Mode::Model(rt) => {
                let id = model_object_id(&self.id, &rt);
                rt.mutex_lock(id);
                // The model granted this lock with every other model
                // thread suspended, so this does not contend (and when
                // the checker is draining a failed execution, it
                // degrades to plain blocking acquisition).
                let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                MutexGuard { lock: self, inner: Some(inner), model: Some((rt, id)) }
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").field("inner", &self.inner).finish()
    }
}

/// RAII guard for a [`Mutex`]; releases the lock on drop.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    /// `None` only transiently, while a condvar wait holds the lock
    /// released.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    /// Present when the lock was granted by a model runtime.
    model: Option<(Arc<dyn McRuntime>, u64)>,
}

impl<T> MutexGuard<'_, T> {
    /// The model runtime and lock id, when under a model checker.
    pub(crate) fn model_info(&self) -> Option<(Arc<dyn McRuntime>, u64)> {
        self.model.clone()
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // audit: allow(panicpath) — the slot is only empty mid-wait, and Condvar::wait refills it before returning control
        self.inner.as_ref().expect("mutex guard is held")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // audit: allow(panicpath) — the slot is only empty mid-wait, and Condvar::wait refills it before returning control
        self.inner.as_mut().expect("mutex guard is held")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some((rt, id)) = self.model.take() {
            rt.mutex_unlock(id);
        }
    }
}

/// Condition variable paired with a facade [`Mutex`]; see module docs.
pub struct Condvar {
    inner: std::sync::Condvar,
    id: OnceLock<u64>,
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl Condvar {
    /// A new condition variable.
    pub fn new() -> Self {
        Condvar { inner: std::sync::Condvar::new(), id: OnceLock::new() }
    }

    /// Release the guard's lock, wait for a notification, re-acquire.
    /// Spurious wake-ups are possible in every mode; loop on the
    /// predicate.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.wait_impl(guard, None);
    }

    /// [`Condvar::wait`] bounded by `dur`; returns `true` if the wait
    /// timed out (the lock is re-acquired either way).
    pub(crate) fn wait_timeout<T>(&self, guard: &mut MutexGuard<'_, T>, dur: Duration) -> bool {
        self.wait_impl(guard, Some(dur))
    }

    fn wait_impl<T>(&self, guard: &mut MutexGuard<'_, T>, dur: Option<Duration>) -> bool {
        // audit: allow(panicpath) — wait is only reachable through a live guard, whose slot is full outside wait itself
        let held = guard.inner.take().expect("mutex guard is held");
        match mode() {
            Mode::Real => {
                let (inner, timed_out) = match dur {
                    None => (self.inner.wait(held).unwrap_or_else(PoisonError::into_inner), false),
                    Some(d) => {
                        let (g, res) = self
                            .inner
                            .wait_timeout(held, d)
                            .unwrap_or_else(PoisonError::into_inner);
                        (g, res.timed_out())
                    }
                };
                guard.inner = Some(inner);
                timed_out
            }
            Mode::Virtual(vclock) => {
                // Read the wake generation before releasing the lock, so
                // a notification landing in the gap is not lost.
                let gen = vclock.wake_gen();
                let deadline = dur.map(|d| vclock.now_nanos() + duration_to_nanos(d));
                drop(held);
                let timed_out = vclock.park(Some(gen), deadline) == clock::Park::TimedOut;
                guard.inner = Some(guard.lock.inner.lock().unwrap_or_else(PoisonError::into_inner));
                timed_out
            }
            Mode::Model(rt) => {
                let (_, mutex_id) = guard
                    .model
                    .clone()
                    // audit: allow(panicpath) — a guard acquired under the model always carries its grant; modes cannot change mid-thread
                    .expect("a wait under the model requires a model-acquired guard");
                let cv_id = model_object_id(&self.id, &rt);
                drop(held);
                let timed_out = rt.condvar_wait(cv_id, mutex_id, dur.map(duration_to_nanos));
                // Re-granted by the model before condvar_wait returned,
                // so this does not contend (see Mutex::lock).
                guard.inner = Some(guard.lock.inner.lock().unwrap_or_else(PoisonError::into_inner));
                timed_out
            }
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.notify(false);
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.notify(true);
    }

    fn notify(&self, all: bool) {
        match mode() {
            Mode::Real => {
                if all {
                    self.inner.notify_all();
                } else {
                    self.inner.notify_one();
                }
            }
            Mode::Virtual(vclock) => {
                // Also signal the std condvar so a real-mode observer
                // (e.g. a test thread after its clock guard dropped)
                // still sees wake-ups from draining virtual threads.
                self.inner.notify_all();
                vclock.wake_all();
            }
            Mode::Model(rt) => {
                let id = model_object_id(&self.id, &rt);
                rt.condvar_notify(id, all);
            }
        }
    }
}
