//! Facade thread operations: [`spawn`] and [`sleep`].
//!
//! `spawn` propagates the parent's facade mode into the child: under a
//! virtual clock the child is registered with the clock for the
//! quiescence check (and unregistered when it exits); under a model
//! checker the child becomes a new model thread whose every facade
//! operation is a scheduling point. Threads are detached — the cluster
//! scheduler tracks worker liveness through its protocol, not joins.
//!
//! Both facade fork points — `spawn` here and the pool's region workers
//! — also hand the child whatever context the observability layer has
//! registered [`CtxHooks`] for (DESIGN.md §11: the installed trace
//! collector and the causal task context). The facade stays trace-free:
//! the context is an opaque shared handle it only carries.

use std::any::Any;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::clock::{self, Park};
use crate::runtime::{mode, Mode};
use crate::time::{duration_to_nanos, now_nanos};

/// An opaque context handed from a forking thread to its children.
pub type CtxHandle = Arc<dyn Any + Send + Sync>;

/// Hooks that carry the forking thread's context onto every thread the
/// facade creates. `capture` runs on the forking thread before the
/// child exists; `adopt` runs first thing on the child, which is always
/// a fresh OS thread, so nothing needs restoring when it exits.
#[derive(Debug, Clone, Copy)]
pub struct CtxHooks {
    /// Snapshot the calling thread's context, if it has any.
    pub capture: fn() -> Option<CtxHandle>,
    /// Make a captured context current on the calling (child) thread.
    pub adopt: fn(&CtxHandle),
}

static CTX_HOOKS: OnceLock<CtxHooks> = OnceLock::new();

/// Register the context-propagation hooks. First registration wins;
/// later calls are ignored (the observability layer registers a single
/// pair).
pub fn set_ctx_hooks(hooks: CtxHooks) {
    let _ = CTX_HOOKS.set(hooks);
}

/// Capture the calling thread's context; the returned closure adopts it
/// on whichever child thread calls it.
pub(crate) fn fork_ctx() -> impl Fn() + Send + Sync {
    let captured = CTX_HOOKS.get().and_then(|h| Some((h.adopt, (h.capture)()?)));
    move || {
        if let Some((adopt, handle)) = &captured {
            adopt(handle);
        }
    }
}

/// Spawn a detached thread running `f` under the parent's facade mode
/// and context.
pub fn spawn<F>(f: F)
where
    F: FnOnce() + Send + 'static,
{
    let adopt_ctx = fork_ctx();
    let f = move || {
        adopt_ctx();
        f();
    };
    match mode() {
        Mode::Real => {
            std::thread::spawn(f);
        }
        Mode::Virtual(vclock) => {
            vclock.register();
            std::thread::spawn(move || clock::run_registered(&vclock, f));
        }
        Mode::Model(rt) => rt.spawn(Box::new(f)),
    }
}

/// Block the calling thread for `dur` of (possibly virtual) time.
pub fn sleep(dur: Duration) {
    match mode() {
        Mode::Real => std::thread::sleep(dur),
        Mode::Virtual(vclock) => {
            let deadline = vclock.now_nanos() + duration_to_nanos(dur);
            while vclock.park(None, Some(deadline)) == Park::Woken {
                // Spurious wake (another waiter's event); park again.
            }
        }
        Mode::Model(rt) => rt.sleep(duration_to_nanos(dur)),
    }
}

/// Current facade time in nanoseconds — a convenience for tests that
/// assert on virtual timing without building an `Instant`.
pub fn now_virtual_nanos() -> u64 {
    now_nanos()
}
