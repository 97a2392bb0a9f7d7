//! Per-thread mode dispatch and the model-checker runtime interface.
//!
//! The facade primitives consult [`mode`] on every operation. In the
//! default [`Mode::Real`] they delegate to `std`; under [`Mode::Model`]
//! every operation is routed through the installed [`McRuntime`] — the
//! hook `fcma-mc` implements to serialize threads, keep virtual time
//! and explore interleavings.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// Protocol-level events the facade reports to a model-check runtime.
///
/// These feed the model checker's built-in detectors; outside model
/// mode they are never constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McEvent {
    /// A send was attempted on a channel all of whose receivers have
    /// been dropped (the send returns an error to the caller either
    /// way; the checker may be configured to treat it as a failure).
    SendAfterClose {
        /// Facade object id of the channel's state lock.
        channel: u64,
    },
    /// An exactly-once completion key was observed (e.g. a scheduler
    /// accepted results for a task). A duplicate key is the
    /// double-completion defect.
    Completion {
        /// Caller-chosen key; see [`report_completion`].
        key: u64,
    },
}

/// The operations a model checker must provide to drive the facade.
///
/// Contract: threads under model mode run one at a time. A call that
/// blocks (`mutex_lock`, `condvar_wait`, `sleep`) returns only once the
/// scheduler has granted the resource to the calling thread and made it
/// the running thread, so the facade can then take the underlying std
/// primitive without contention. `condvar_wait` releases model
/// ownership of `mutex` on entry and re-grants it before returning;
/// the return value is `true` when the wait timed out.
pub trait McRuntime: Send + Sync {
    /// Allocate a deterministic id for a facade object (lock, condvar,
    /// channel) on first use under the model.
    fn next_object_id(&self) -> u64;
    /// Block until the model grants the calling thread lock `id`.
    fn mutex_lock(&self, id: u64);
    /// Release model ownership of lock `id` (a preemption point).
    fn mutex_unlock(&self, id: u64);
    /// Atomically release `mutex`, wait on `cv` (bounded by
    /// `timeout_nanos` of virtual time if given), re-acquire `mutex`.
    fn condvar_wait(&self, cv: u64, mutex: u64, timeout_nanos: Option<u64>) -> bool;
    /// Wake one (or all) waiters of `cv` (a preemption point).
    fn condvar_notify(&self, cv: u64, all: bool);
    /// Current virtual time in nanoseconds.
    fn now_nanos(&self) -> u64;
    /// Advance the calling thread past `nanos` of virtual time.
    fn sleep(&self, nanos: u64);
    /// A plain scheduling point (emitted before atomic accesses).
    fn interleave(&self);
    /// Report a protocol-level event to the checker's detectors.
    fn record(&self, event: McEvent);

    // --- thread hooks ---
    //
    // Whoever forks a model thread keeps its OS thread (so a pool worker
    // may borrow from the caller's stack) and tells the model about it
    // through these four hooks: the parent allocates a model-thread
    // slot, the OS thread enters and exits it ([`run_model_thread`]),
    // and a scoped parent performs a *model-visible* join before the
    // OS-level scope join (which the model cannot see and must
    // therefore never be the operation that blocks first).

    /// Allocate a new runnable model-thread slot, called by the forking
    /// (parent) thread. Returns the slot id.
    fn thread_register(&self) -> usize;
    /// Called by the slot's OS thread once it starts: block until the
    /// model schedules slot `id` for the first time. Returns `false`
    /// when the execution already failed (the thread must exit without
    /// running its body).
    fn thread_enter(&self, id: usize) -> bool;
    /// Called by the slot's OS thread when its body returns (or
    /// unwinds); `panic` carries the panic message, if any.
    fn thread_exit(&self, id: usize, panic: Option<String>);
    /// Block the calling (parent) model thread until slot `id` has
    /// exited. Must be called before any OS-level join so the model
    /// never sees the parent blocked invisibly.
    fn thread_join(&self, id: usize);
}

/// The calling thread's current facade mode.
#[derive(Clone)]
pub(crate) enum Mode {
    /// Delegate to `std`; real time.
    Real,
    /// Cooperative scheduling under a model checker.
    Model(Arc<dyn McRuntime>),
}

thread_local! {
    static MODE: RefCell<Mode> = const { RefCell::new(Mode::Real) };
}

/// Read (a clone of) the calling thread's mode.
pub(crate) fn mode() -> Mode {
    MODE.with(|m| m.borrow().clone())
}

/// Replace the calling thread's mode, returning the previous one.
fn set_mode(new: Mode) -> Mode {
    MODE.with(|m| std::mem::replace(&mut *m.borrow_mut(), new))
}

/// Restores the previous mode when dropped.
pub struct ModeGuard {
    prev: Option<Mode>,
}

impl Drop for ModeGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            set_mode(prev);
        }
    }
}

/// Put the calling thread under model-checker control until the guard
/// drops. Called by `fcma-mc` at the top of every model thread.
pub fn enter_model(rt: Arc<dyn McRuntime>) -> ModeGuard {
    ModeGuard { prev: Some(set_mode(Mode::Model(rt))) }
}

/// The body of model thread `id`'s OS thread, for every model thread
/// (the checker's root, spawned threads and pool workers): wait until
/// the model first schedules the slot, run `f` in model mode, and exit
/// the slot, handing the model `f`'s panic message if it panicked.
pub fn run_model_thread(rt: Arc<dyn McRuntime>, id: usize, f: impl FnOnce()) {
    let _mode = enter_model(Arc::clone(&rt));
    let panic = if rt.thread_enter(id) {
        catch_unwind(AssertUnwindSafe(f)).err().map(|p| panic_message(p.as_ref()))
    } else {
        None
    };
    rt.thread_exit(id, panic);
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The model-mode id of a facade object, allocated on first use.
///
/// Objects created fresh inside the checked closure see identical
/// allocation order on every execution (threads are serialized), so ids
/// are stable across replays.
pub(crate) fn model_object_id(slot: &OnceLock<u64>, rt: &Arc<dyn McRuntime>) -> u64 {
    *slot.get_or_init(|| rt.next_object_id())
}

/// A scope for [`report_completion`] keys that no earlier call in the
/// same model execution returned. A protocol run puts it in the high
/// bits of its keys, so two runs in one checked closure (a sweep and its
/// resume) key their completions apart. 0 outside model mode, where no
/// key is recorded.
pub fn completion_scope() -> u64 {
    match mode() {
        Mode::Model(rt) => rt.next_object_id(),
        Mode::Real => 0,
    }
}

/// Report an exactly-once completion key to the model checker's
/// double-completion detector. A no-op outside model mode.
pub fn report_completion(key: u64) {
    if let Mode::Model(rt) = mode() {
        rt.record(McEvent::Completion { key });
    }
}
