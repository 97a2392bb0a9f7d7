//! The facade's virtual time and fork context under the model checker,
//! on every schedule within the preemption bound. The cluster's deadline
//! tests run as one `fcma-mc` schedule and lean on these semantics;
//! `fcma-mc`'s `model_time_is_virtual_and_deterministic` covers a
//! handoff that beats its deadline and a timeout that fires.

#![expect(clippy::disallowed_types, reason = "the fork context under test is a thread-local")]

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use fcma_mc::{check, Config};
use fcma_sync::channel::{unbounded, RecvTimeoutError};
use fcma_sync::thread::{self, set_ctx_hooks, CtxHandle, CtxHooks};
use fcma_sync::time::Instant;
use fcma_sync::Pool;

#[test]
fn sleepers_wake_in_deadline_order_at_exact_instants() {
    check(&Config::default(), || {
        let t0 = Instant::now();
        let (tx, rx) = unbounded();
        for delay_ms in [30u64, 10, 20] {
            let tx = tx.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(delay_ms));
                tx.send((delay_ms, t0.elapsed())).expect("the root thread holds the receiver");
            });
        }
        for want in [10, 20, 30] {
            let got = rx.recv_timeout(Duration::from_secs(60)).expect("sleepers wake");
            assert_eq!(got, (want, Duration::from_millis(want)), "deadlines fire in order");
        }
        assert!(Instant::now() > t0 + Duration::from_millis(20), "arithmetic sees virtual time");
    })
    .assert_pass();
}

#[test]
fn timeout_costs_no_wall_time() {
    let wall = std::time::Instant::now();
    check(&Config::default(), || {
        let (_tx, rx) = unbounded::<u8>();
        let t0 = Instant::now();
        // Nobody sends: the ten-second timeout is served virtually.
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Err(RecvTimeoutError::Timeout));
        assert_eq!(t0.elapsed(), Duration::from_secs(10), "the clock advanced to the deadline");
    })
    .assert_pass();
    assert!(wall.elapsed() < Duration::from_secs(5), "no real sleeping");
}

thread_local! {
    static TEST_CTX: Cell<Option<u64>> = const { Cell::new(None) };
}

#[test]
fn ctx_hooks_reach_model_pool_workers_and_spawned_threads() {
    let capture = || TEST_CTX.with(Cell::get).map(|v| Arc::new(v) as CtxHandle);
    let adopt = |h: &CtxHandle| TEST_CTX.with(|c| c.set(h.downcast_ref::<u64>().copied()));
    set_ctx_hooks(CtxHooks { capture, adopt });
    check(&Config { max_executions: 200, ..Config::default() }, || {
        TEST_CTX.with(|c| c.set(Some(41)));
        let mut seen = Pool::new(3).run(vec![(); 6], |_i, ()| TEST_CTX.with(Cell::get));
        let (tx, rx) = unbounded();
        thread::spawn(move || {
            tx.send(TEST_CTX.with(Cell::get)).expect("the root thread holds the receiver");
        });
        seen.push(rx.recv().expect("the child reports"));
        assert!(seen.iter().all(|&s| s == Some(41)), "{seen:?}");
    })
    .assert_pass();
}
