//! Unit tests: the checker must find seeded ordering bugs, report
//! replayable schedules, classify deadlocks, and pass clean programs.

use std::sync::Arc;

use fcma_sync::runtime::{completion_scope, report_completion};
use fcma_sync::{channel, thread, Condvar, Mutex};

use crate::{check, check_random, replay, Config, FailureKind, Outcome};

/// Passes under the non-preempting schedule; an interleaving where the
/// child runs between spawn and the parent's read trips the assert.
fn racy_read() {
    let m = Arc::new(Mutex::new(0));
    let m2 = Arc::clone(&m);
    thread::spawn(move || {
        *m2.lock() += 1;
    });
    let v = *m.lock();
    assert_eq!(v, 0, "child incremented before the parent read");
}

#[test]
fn dfs_finds_ordering_bug_and_replays_it() {
    let cfg = Config::default();
    let outcome = check(&cfg, racy_read);
    let failure = outcome.failure().expect("DFS must find the racy interleaving");
    assert!(
        matches!(failure.kind, FailureKind::Panic { .. }),
        "expected a panic failure, got: {failure}"
    );
    assert!(!failure.schedule.is_empty(), "failure must carry a schedule");
    assert!(failure.trace.contains("->"), "failure must carry a decision trace");

    let replayed = replay(&cfg, &failure.schedule, racy_read);
    let refailure = replayed.failure().expect("replaying the schedule must reproduce");
    assert_eq!(refailure.kind, failure.kind, "replay must reproduce the same defect");
}

#[test]
fn random_walk_finds_ordering_bug() {
    let cfg = Config::default();
    let outcome = check_random(&cfg, 0xfc_3a, racy_read);
    let failure = outcome.failure().expect("random walks must find the racy interleaving");
    assert!(matches!(failure.kind, FailureKind::Panic { .. }));
}

/// The waiter checks the flag, releases the lock, then re-locks and
/// waits without re-checking — the classic missed-signal bug. Only the
/// schedule where the signaller runs inside that window deadlocks.
fn missed_signal() {
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let signaller = Arc::clone(&pair);
    thread::spawn(move || {
        *signaller.0.lock() = true;
        signaller.1.notify_one();
    });
    let ready = { *pair.0.lock() };
    if !ready {
        let mut guard = pair.0.lock();
        pair.1.wait(&mut guard);
    }
}

/// `check` must report a deadlock of `n_blocked` threads for `root`,
/// classified `lost_wakeup`, with a schedule `replay` reproduces.
fn assert_deadlock(root: fn(), lost_wakeup: bool, n_blocked: usize) {
    let cfg = Config::default();
    let outcome = check(&cfg, root);
    let failure = outcome.failure().expect("DFS must find the deadlock");
    match &failure.kind {
        FailureKind::Deadlock { lost_wakeup: lost, blocked } => {
            assert_eq!(*lost, lost_wakeup, "lost-wakeup classification");
            assert_eq!(blocked.len(), n_blocked, "stuck threads: {blocked:?}");
        }
        other => panic!("expected a deadlock, got: {other:?}"),
    }
    assert!(!failure.schedule.is_empty(), "failure must carry a schedule");
    let replayed = replay(&cfg, &failure.schedule, root);
    let refailure = replayed.failure().expect("the deadlock schedule must replay");
    assert_eq!(refailure.kind, failure.kind, "replay must reproduce the same deadlock");
}

#[test]
fn dfs_finds_lost_wakeup_deadlock() {
    // Exactly the waiter is stuck, on a condvar notified with no waiter.
    assert_deadlock(missed_signal, true, 1);
}

/// Two facade mutexes taken in opposite orders by two threads — the
/// ABBA inversion. Only schedules where each thread takes its first
/// lock before the other takes its second deadlock.
fn abba() {
    let locks = Arc::new((Mutex::new(0u32), Mutex::new(0u32)));
    let other = Arc::clone(&locks);
    thread::spawn(move || {
        let _b = other.1.lock();
        let _a = other.0.lock();
    });
    let _a = locks.0.lock();
    let _b = locks.1.lock();
}

/// A `recv` under a lock the sending thread must take before it sends:
/// the receiver parks holding `gate`, the sender parks wanting it.
fn recv_under_lock() {
    let gate = Arc::new(Mutex::new(()));
    let sender_gate = Arc::clone(&gate);
    let (tx, rx) = channel::unbounded();
    thread::spawn(move || {
        let _g = sender_gate.lock();
        tx.send(1u8).expect("receiver is alive");
    });
    let _held = gate.lock();
    let _ = rx.recv();
}

#[test]
fn dfs_finds_abba_lock_inversion() {
    assert_deadlock(abba, false, 2);
}

#[test]
fn dfs_finds_recv_under_a_lock_the_sender_needs() {
    assert_deadlock(recv_under_lock, false, 2);
}

#[test]
fn clean_handoff_passes_completely() {
    let cfg = Config::default();
    let outcome = check(&cfg, || {
        let (tx, rx) = channel::unbounded();
        let worker_tx = tx.clone();
        thread::spawn(move || {
            worker_tx.send(1u32).expect("receiver is alive");
        });
        thread::spawn(move || {
            tx.send(2u32).expect("receiver is alive");
        });
        let a = rx.recv().expect("first message");
        let b = rx.recv().expect("second message");
        assert_eq!(a + b, 3, "both messages arrive, in either order");
    });
    match outcome {
        Outcome::Pass { executions, complete } => {
            assert!(complete, "the bounded space must be exhausted");
            assert!(executions > 1, "two senders imply more than one schedule");
        }
        Outcome::Fail(failure) => panic!("clean program failed:\n{failure}"),
    }
}

#[test]
fn model_time_is_virtual_and_deterministic() {
    let cfg = Config::default();
    let outcome = check(&cfg, || {
        let (tx, rx) = channel::unbounded();
        thread::spawn(move || {
            thread::sleep(std::time::Duration::from_millis(50));
            tx.send(7u8).expect("receiver is alive");
        });
        let got = rx
            .recv_timeout(std::time::Duration::from_millis(100))
            .expect("the sender beats the deadline in virtual time");
        assert_eq!(got, 7);
    });
    assert!(outcome.failure().is_none(), "virtual-time handoff must always pass");

    let outcome = check(&cfg, || {
        let (_tx, rx) = channel::unbounded::<u8>();
        let err = rx.recv_timeout(std::time::Duration::from_millis(10));
        assert_eq!(err, Err(channel::RecvTimeoutError::Timeout));
    });
    assert!(outcome.failure().is_none(), "timeouts fire exactly at the deadline");
}

#[test]
fn double_completion_is_detected() {
    let cfg = Config::default();
    let outcome = check(&cfg, || {
        report_completion(7);
        report_completion(7);
    });
    let failure = outcome.failure().expect("double completion must fail");
    assert_eq!(failure.kind, FailureKind::DoubleCompletion { key: 7 });
}

#[test]
fn completion_scopes_key_two_runs_apart() {
    // A key reported once in each of two scopes is no double completion.
    let outcome = check(&Config::default(), || {
        let (first, second) = (completion_scope(), completion_scope());
        assert_ne!(first, second);
        report_completion(first << 32 | 7);
        report_completion(second << 32 | 7);
    });
    assert!(outcome.failure().is_none(), "{:?}", outcome.failure());
}

#[test]
fn send_after_close_detector_is_opt_in() {
    let root = || {
        let (tx, rx) = channel::unbounded();
        drop(rx);
        assert!(tx.send(1u8).is_err(), "send on a closed channel errors");
    };
    let lenient = Config::default();
    assert!(check(&lenient, root).failure().is_none(), "off by default");

    let strict = Config { fail_on_send_after_close: true, ..Config::default() };
    let failure = check(&strict, root).failure().map(|f| f.kind.clone());
    assert!(
        matches!(failure, Some(FailureKind::SendAfterClose { .. })),
        "strict mode must flag it: {failure:?}"
    );
}
