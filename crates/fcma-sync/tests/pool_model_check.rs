//! Model-check the fork-join pool (DESIGN.md §15).
//!
//! Bounded-preemption DFS over fork-join workloads must find no
//! deadlock, lost wakeup, or double completion in the shipped pool; and
//! to prove the harness is armed (mirroring the cluster's
//! `model_check.rs`), a mutation fixture that drops the Condvar notify
//! in the idle path must be caught as a deadlock.

use std::sync::Arc;

use fcma_mc::{check, check_random, replay, Config, FailureKind};
use fcma_sync::pool::Pool;
use fcma_sync::{Condvar, Mutex};

fn cfg(max_executions: usize) -> Config {
    Config { max_preemptions: 2, max_executions, max_steps: 200_000, ..Config::default() }
}

#[test]
fn pool_fork_join_explores_clean() {
    check(&cfg(20_000), || {
        let got = Pool::new(2).run(vec![1u32, 2, 3], |_idx, v| v * 2);
        assert_eq!(got, vec![2, 4, 6]);
    })
    .assert_pass();
}

#[test]
fn pool_three_workers_random_walks_clean() {
    check_random(&cfg(300), 0xF0CA, || {
        let got = Pool::new(3).run((0..5u64).collect(), |_idx, v| v + 10);
        assert_eq!(got, vec![10, 11, 12, 13, 14]);
    })
    .assert_pass();
}

#[test]
fn pool_per_worker_state_explores_clean() {
    check(&cfg(10_000), || {
        let got = Pool::new(2).run_init(
            vec![(); 3],
            || 0u32,
            |calls, _idx, ()| {
                *calls += 1;
                *calls
            },
        );
        assert_eq!(got.len(), 3);
    })
    .assert_pass();
}

#[test]
fn runs_on_one_model_schedule() {
    replay(&cfg(1), &[], || {
        let got = Pool::new(3).run((0..9u64).collect(), |_i, t| t + 1);
        assert_eq!(got, (1..=9).collect::<Vec<_>>());
    })
    .assert_pass();
}

#[test]
fn idle_worker_takes_every_task_behind_a_straggler() {
    // Task 0 sleeps one virtual second. Model time only advances once no
    // thread can run, so on every schedule the other worker drains the
    // queue and parks before the straggler wakes.
    check(&cfg(2_000), || {
        let workers = Mutex::new(0usize);
        let ran_on = Pool::new(2).run_init(
            (0..9u64).collect(),
            || {
                let mut n = workers.lock();
                *n += 1;
                *n
            },
            |me, _i, t| {
                if t == 0 {
                    fcma_sync::thread::sleep(std::time::Duration::from_secs(1));
                }
                *me
            },
        );
        assert!(ran_on[1..].iter().all(|&w| w == ran_on[1]), "{ran_on:?}");
        assert_ne!(ran_on[0], ran_on[1]);
    })
    .assert_pass();
}

#[test]
fn task_panic_is_reported_not_hung() {
    let outcome = check(&cfg(50), || {
        Pool::new(2).run(vec![0u8; 2], |idx, _| {
            assert!(idx != 1, "task boom");
        });
    });
    match outcome.failure().map(|f| &f.kind) {
        Some(FailureKind::Panic { message, .. }) => {
            assert!(message.contains("task boom"), "unexpected panic: {message}");
        }
        other => panic!("expected a Panic failure, got {other:?}"),
    }
}

/// A mini-replica of the pool's idle-park/termination monitor, with a
/// mutation knob: the completing worker can drop the final notify.
fn idle_park_fixture(drop_final_notify: bool) {
    let shared = Arc::new((Mutex::new(2usize), Condvar::new()));
    let worker = Arc::clone(&shared);
    fcma_sync::thread::spawn(move || {
        for _ in 0..2 {
            let mut remaining = worker.0.lock();
            *remaining -= 1;
            let done = *remaining == 0;
            drop(remaining);
            if done && !drop_final_notify {
                worker.1.notify_all();
            }
        }
    });
    let mut remaining = shared.0.lock();
    while *remaining != 0 {
        shared.1.wait(&mut remaining);
    }
}

#[test]
fn idle_park_protocol_explores_clean() {
    check(&cfg(10_000), || idle_park_fixture(false)).assert_pass();
}

#[test]
fn dropped_notify_in_idle_path_is_caught() {
    let outcome = check(&cfg(10_000), || idle_park_fixture(true));
    match outcome.failure().map(|f| &f.kind) {
        Some(FailureKind::Deadlock { blocked, .. }) => {
            assert!(
                blocked.iter().any(|b| b.contains("waiting on cv#")),
                "deadlock must implicate the condvar wait: {blocked:?}"
            );
        }
        other => panic!("dropped notify must deadlock the waiter, got {other:?}"),
    }
}
