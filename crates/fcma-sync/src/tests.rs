//! Unit tests for the facade in real mode. The model-checked mode, and
//! with it the facade's virtual time, is exercised from `fcma-mc`, the
//! integration tests under `tests/` and the cluster model-check suite:
//! a crate's own unit tests cannot run under `fcma-mc`, which would
//! link a second copy of this crate.

use std::time::Duration;

use crate::channel::unbounded;
use crate::{thread, Condvar, Mutex};

#[test]
fn channel_roundtrip_and_disconnect() {
    let (tx, rx) = unbounded();
    tx.send(1).expect("open channel");
    tx.send(2).expect("open channel");
    assert_eq!(rx.recv(), Ok(1));
    drop(tx);
    assert_eq!(rx.recv(), Ok(2), "the last sender's drop leaves the queue to drain");
    assert!(rx.recv().is_err(), "disconnect must surface once drained");
}

#[test]
fn send_fails_once_receivers_are_gone() {
    let (tx, rx) = unbounded();
    drop(rx);
    assert!(tx.send(7).is_err());
}

#[test]
fn channel_crosses_threads() {
    let (tx, rx) = unbounded();
    let (done_tx, done_rx) = unbounded();
    thread::spawn(move || {
        let v: u32 = rx.recv().expect("sender alive");
        done_tx.send(v * 2).expect("receiver alive");
    });
    tx.send(21).expect("receiver alive");
    assert_eq!(done_rx.recv(), Ok(42));
}

#[test]
fn mutex_and_condvar_real_mode() {
    let m = Mutex::new(0);
    *m.lock() += 41;
    assert_eq!(*m.lock(), 41);
    let cv = Condvar::new();
    let mut g = m.lock();
    let timed_out = cv.wait_timeout(&mut g, Duration::from_millis(1));
    assert!(timed_out, "no notifier: the wait must time out");
    *g += 1;
    assert_eq!(*g, 42);
}

#[test]
fn ctx_hooks_reach_pool_workers_and_spawned_threads() {
    use std::cell::Cell;
    use std::sync::Arc;

    use crate::thread::{set_ctx_hooks, CtxHandle, CtxHooks};
    thread_local! {
        static TEST_CTX: Cell<Option<u64>> = const { Cell::new(None) };
    }
    fn capture() -> Option<CtxHandle> {
        TEST_CTX.with(Cell::get).map(|v| Arc::new(v) as CtxHandle)
    }
    fn adopt(handle: &CtxHandle) {
        TEST_CTX.with(|c| c.set(handle.downcast_ref::<u64>().copied()));
    }
    set_ctx_hooks(CtxHooks { capture, adopt });

    let seen_by_children = || {
        let mut seen = crate::Pool::new(4).run(vec![(); 16], |_i, ()| TEST_CTX.with(Cell::get));
        let (tx, rx) = unbounded();
        thread::spawn(move || {
            tx.send(TEST_CTX.with(Cell::get)).expect("parent holds the receiver");
        });
        seen.push(rx.recv().expect("child reports"));
        seen
    };
    // Nothing to inherit: every child starts clean.
    assert!(seen_by_children().iter().all(Option::is_none));
    // Every child, whichever thread ran it, saw the context captured on
    // the forking thread (`tests/model_time.rs` holds the model-mode leg).
    TEST_CTX.with(|c| c.set(Some(41)));
    assert!(seen_by_children().iter().all(|&s| s == Some(41)));
    TEST_CTX.with(|c| c.set(None));
}
