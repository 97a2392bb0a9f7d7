//! Unit tests for the facade in real and virtual-clock modes (the
//! model-checked mode is exercised end-to-end from `fcma-mc` and the
//! cluster model-check suite).

use std::time::Duration;

use crate::channel::{unbounded, RecvTimeoutError};
use crate::clock::VirtualClock;
use crate::time::Instant;
use crate::{thread, Condvar, Mutex};

#[test]
fn channel_roundtrip_and_disconnect() {
    let (tx, rx) = unbounded();
    tx.send(1).expect("open channel");
    tx.send(2).expect("open channel");
    assert_eq!(rx.recv(), Ok(1));
    assert_eq!(rx.recv(), Ok(2));
    drop(tx);
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
fn virtual_clock_timeout_costs_no_wall_time() {
    let wall = std::time::Instant::now();
    let clock = VirtualClock::install();
    let (tx, rx) = unbounded::<u8>();
    // Nobody sends: the ten-second timeout must be served virtually.
    let got = rx.recv_timeout(Duration::from_secs(10));
    assert_eq!(got, Err(RecvTimeoutError::Timeout));
    assert!(clock.now() >= Duration::from_secs(10), "clock advanced to the deadline");
    assert!(wall.elapsed() < Duration::from_secs(5), "no real sleeping");
    drop(tx);
}

#[test]
fn virtual_sleepers_wake_in_deadline_order() {
    let _clock = VirtualClock::install();
    let (tx, rx) = unbounded();
    for delay_ms in [30u64, 10, 20] {
        let tx = tx.clone();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(delay_ms));
            tx.send(delay_ms).expect("main thread holds the receiver");
        });
    }
    let mut order = Vec::new();
    for _ in 0..3 {
        order.push(rx.recv_timeout(Duration::from_secs(60)).expect("sleepers wake"));
    }
    assert_eq!(order, vec![10, 20, 30], "virtual deadlines fire in order");
}

#[test]
fn virtual_instant_tracks_sleeps_exactly() {
    let _clock = VirtualClock::install();
    let t0 = Instant::now();
    // A lone registered thread sleeping advances the clock immediately.
    thread::sleep(Duration::from_millis(250));
    assert_eq!(t0.elapsed(), Duration::from_millis(250));
    let deadline = t0 + Duration::from_millis(200);
    assert!(Instant::now() > deadline, "arithmetic sees virtual time");
}

#[test]
fn dead_clock_drains_stragglers() {
    let (done_tx, done_rx) = unbounded();
    {
        let _clock = VirtualClock::install();
        let done_tx = done_tx.clone();
        thread::spawn(move || {
            // Parked forever in virtual time (no other thread advances
            // the clock past it once the guard is dropped).
            thread::sleep(Duration::from_secs(3600));
            done_tx.send(()).expect("outer receiver alive");
        });
        // Guard drops here with the child still parked.
    }
    // The child must exit promptly once the clock is dead. This recv is
    // in real mode (the guard is gone), so give it real slack.
    done_rx.recv_timeout(Duration::from_secs(10)).expect("straggler drains when the clock dies");
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
    // Every child — whichever thread ran it, in real and virtual mode —
    // saw the context captured on the forking thread.
    TEST_CTX.with(|c| c.set(Some(41)));
    assert!(seen_by_children().iter().all(|&s| s == Some(41)));
    let clock = VirtualClock::install();
    assert!(seen_by_children().iter().all(|&s| s == Some(41)));
    drop(clock);
    TEST_CTX.with(|c| c.set(None));
}

#[test]
fn virtual_clock_does_not_jump_past_a_wakeup_in_flight() {
    // The echo thread is signalled by `send` but may not have been
    // scheduled yet when this thread parks on the reply. It is runnable,
    // not blocked: the clock must wait for it rather than jump to the
    // reply timeout, however busy the host is.
    let _clock = VirtualClock::install();
    let (tx, rx) = unbounded::<u32>();
    let (reply_tx, reply_rx) = unbounded();
    thread::spawn(move || {
        while let Ok(v) = rx.recv() {
            reply_tx.send(v).expect("requester holds the receiver");
        }
    });
    for round in 0..2000 {
        tx.send(round).expect("echo thread alive");
        assert_eq!(reply_rx.recv_timeout(Duration::from_secs(10)), Ok(round));
    }
    assert_eq!(Instant::now().nanos(), 0, "no virtual time passes while work is in flight");
}
