//! Model-checking the cluster scheduler with `fcma-mc`.
//!
//! Two halves, mirroring how a model checker earns its keep:
//!
//! 1. **Re-find a real historical bug.** The fixture below is the
//!    stranding bug the driver shipped with before fault tolerance was
//!    reworked: the master shut a worker down as soon as the task queue
//!    looked empty, so a late `Failed` message could requeue a task with
//!    no live worker left to run it. The bug only bites under one
//!    message ordering (`Done` processed before `Failed`) — invisible to
//!    ordinary tests, found by the DFS in a handful of executions, and
//!    reproducible from the printed schedule alone.
//! 2. **Clean exploration of the shipped driver.** The real
//!    `run_cluster_with` master loop, two workers, four tasks, every
//!    interleaving within the preemption bound: no deadlock, no lost
//!    wakeup, no double completion — on healthy runs, on runs where one
//!    dispatch hangs until its deadline condemns the worker, and on a
//!    killed checkpointed sweep resumed in the same execution.

use std::sync::Arc;
use std::time::Duration;

use fcma_cluster::{
    run_cluster_with, ChaosExecutor, ClusterConfig, ClusterError, FaultKind, FaultPlan,
};
use fcma_core::{CancelToken, CvPlan, TaskContext, TaskExecutor, VoxelScore, VoxelTask};
use fcma_mc::{check, check_random, replay, Config, FailureKind, Outcome};
use fcma_sync::channel::{unbounded, Sender};
use fcma_sync::{thread, Mutex, Pool};

// ---------------------------------------------------------------------------
// Part 1: the known-bad fixture driver (deliberately reverted logic).
// ---------------------------------------------------------------------------

/// Worker → master messages of the mini-driver.
enum FromWorker {
    Done { worker: usize, task: usize },
    Failed { worker: usize, task: usize },
}

/// Master → worker messages of the mini-driver.
enum ToWorker {
    /// Run task `task`; `attempt` is the per-task dispatch count.
    Task {
        task: usize,
        attempt: usize,
    },
    Shutdown,
}

/// A mini master–worker driver with the historical stranding bug: on
/// `Done`, if the queue is empty the finishing worker is shut down —
/// even though another worker may still fail and requeue its task.
///
/// Script: two tasks, two workers. Task 0's first attempt always fails
/// (the worker then dies, like a crashed node); every other dispatch
/// succeeds. Under the `Failed`-first ordering the retry goes to the
/// still-live worker 1 and the run completes. Under the `Done`-first
/// ordering worker 1 has already been shut down when the retry is
/// queued, and the master waits forever.
fn stranding_fixture() {
    let total_tasks = 2usize;
    let (to_master_tx, to_master_rx) = unbounded::<FromWorker>();

    let mut workers: Vec<Option<Sender<ToWorker>>> = Vec::new();
    for wid in 0..2usize {
        let (tx, rx) = unbounded::<ToWorker>();
        let master = to_master_tx.clone();
        thread::spawn(move || {
            while let Ok(msg) = rx.recv() {
                match msg {
                    ToWorker::Task { task, attempt } => {
                        if task == 0 && attempt == 0 {
                            // Scripted crash: report and die.
                            let _ = master.send(FromWorker::Failed { worker: wid, task });
                            return;
                        }
                        if master.send(FromWorker::Done { worker: wid, task }).is_err() {
                            return;
                        }
                    }
                    ToWorker::Shutdown => return,
                }
            }
        });
        workers.push(Some(tx));
    }
    // The master keeps its sender clone alive for the whole run (the
    // historical driver did too), so a stranded run blocks in `recv`
    // instead of observing a disconnect.
    let _master_tx = to_master_tx;

    let mut queue: Vec<usize> = vec![0, 1];
    let mut attempts = [0usize; 2];
    let mut busy = [false; 2];
    let mut done = [false; 2];

    let dispatch_to = |workers: &mut Vec<Option<Sender<ToWorker>>>,
                       busy: &mut [bool; 2],
                       attempts: &mut [usize; 2],
                       queue: &mut Vec<usize>| {
        while let Some(&task) = queue.first() {
            let Some(wid) = (0..2).find(|&w| workers[w].is_some() && !busy[w]) else {
                return;
            };
            queue.remove(0);
            let attempt = attempts[task];
            attempts[task] += 1;
            if let Some(tx) = &workers[wid] {
                if tx.send(ToWorker::Task { task, attempt }).is_err() {
                    workers[wid] = None;
                    queue.insert(0, task);
                    continue;
                }
            }
            busy[wid] = true;
        }
    };

    dispatch_to(&mut workers, &mut busy, &mut attempts, &mut queue);
    while done.iter().filter(|&&d| d).count() < total_tasks {
        match to_master_rx.recv() {
            Ok(FromWorker::Done { worker, task }) => {
                done[task] = true;
                busy[worker] = false;
                if queue.is_empty() {
                    // THE BUG (reverted fix): the queue being empty does
                    // not mean the work is done — a still-running task
                    // can fail and need this worker.
                    if let Some(tx) = workers[worker].take() {
                        let _ = tx.send(ToWorker::Shutdown);
                    }
                } else {
                    dispatch_to(&mut workers, &mut busy, &mut attempts, &mut queue);
                }
            }
            Ok(FromWorker::Failed { worker, task }) => {
                workers[worker] = None; // the worker died with its task
                queue.push(task);
                dispatch_to(&mut workers, &mut busy, &mut attempts, &mut queue);
            }
            Err(_) => return, // every worker gone; the fixture is done for
        }
    }
    for w in &mut workers {
        if let Some(tx) = w.take() {
            let _ = tx.send(ToWorker::Shutdown);
        }
    }
}

#[test]
fn dfs_refinds_the_historical_stranding_bug() {
    let cfg = Config::default();
    let outcome = check(&cfg, stranding_fixture);
    let failure = outcome.failure().expect(
        "the stranding bug must be found: Done-before-Failed shuts down the last live worker",
    );
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "the stranding bug is a deadlock (master waits forever), got: {failure}"
    );
    assert!(!failure.schedule.is_empty(), "the counterexample must be replayable");
    // The printed report is the artifact CI archives: kind, schedule,
    // and the decision-by-decision trace.
    eprintln!("stranding-bug counterexample:\n{failure}");

    // The schedule alone reproduces the deadlock.
    let replayed = replay(&cfg, &failure.schedule, stranding_fixture);
    let refailure = replayed.failure().expect("replay must reproduce the deadlock");
    assert!(
        matches!(refailure.kind, FailureKind::Deadlock { .. }),
        "replay must reproduce the same defect class, got: {refailure}"
    );
}

#[test]
fn random_walks_also_find_the_stranding_bug() {
    let cfg = Config { max_executions: 512, ..Config::default() };
    let outcome = check_random(&cfg, 0x5eed, stranding_fixture);
    assert!(
        outcome.failure().is_some(),
        "512 seeded random walks should stumble into the Done-first ordering"
    );
}

// ---------------------------------------------------------------------------
// Part 2: bounded exploration of the shipped driver.
// ---------------------------------------------------------------------------

/// Instant executor: fabricated (but well-formed) scores, no linear
/// algebra. The model checker explores the *scheduler*, not the math.
struct StubExecutor;

impl TaskExecutor for StubExecutor {
    fn name(&self) -> &'static str {
        "stub"
    }

    fn pool(&self) -> Pool {
        Pool::default()
    }

    fn process_on(
        &self,
        _ctx: &TaskContext,
        task: VoxelTask,
        plans: &[CvPlan<'_>],
        _pool: &Pool,
    ) -> Vec<Vec<VoxelScore>> {
        let scores = (task.start..task.start + task.count)
            .map(|voxel| VoxelScore { voxel, accuracy: 0.5 })
            .collect::<Vec<_>>();
        vec![scores; plans.len()]
    }
}

/// [`StubExecutor`], except that the first dispatch of task 0 hangs: it
/// sleeps on the facade clock until its worker's token is cancelled,
/// then returns no scores.
struct HangOnceExecutor {
    hung: Mutex<bool>,
}

impl TaskExecutor for HangOnceExecutor {
    fn name(&self) -> &'static str {
        "hang-once"
    }

    fn pool(&self) -> Pool {
        StubExecutor.pool()
    }

    fn process_on(
        &self,
        ctx: &TaskContext,
        task: VoxelTask,
        plans: &[CvPlan<'_>],
        pool: &Pool,
    ) -> Vec<Vec<VoxelScore>> {
        StubExecutor.process_on(ctx, task, plans, pool)
    }

    fn process_with_controls(
        &self,
        ctx: &TaskContext,
        task: VoxelTask,
        cancel: &CancelToken,
    ) -> Vec<VoxelScore> {
        if task.start == 0 && !std::mem::replace(&mut *self.hung.lock(), true) {
            while !cancel.is_cancelled() {
                thread::sleep(Duration::from_millis(1));
            }
            return Vec::new();
        }
        self.process(ctx, task)
    }
}

/// A tiny context for the shipped-driver exploration. Built once,
/// outside the checked closure (generation draws from a seeded RNG and
/// is deterministic, but there is no reason to re-run it per schedule).
fn tiny_ctx() -> TaskContext {
    let mut cfg = fcma_fmri::presets::tiny();
    cfg.n_voxels = 16;
    cfg.n_informative = 4;
    let (data, _) = cfg.generate();
    TaskContext::full(&data)
}

#[test]
fn shipped_driver_is_clean_at_two_workers_four_tasks() {
    let ctx = tiny_ctx();
    let cfg = Config { max_executions: 20_000, ..Config::default() };
    let outcome = check(&cfg, move || {
        // 16 voxels / task_size 4 = 4 tasks on 2 workers.
        let cluster = ClusterConfig::new(2, 4);
        let run = run_cluster_with(&ctx, Arc::new(StubExecutor), &cluster)
            .expect("a healthy run must complete under every schedule");
        assert_eq!(run.scores.len(), 16, "every voxel scored");
        assert_eq!(run.requeued_tasks, 0);
        assert!(run.failed_workers.is_empty());
    });
    match outcome {
        Outcome::Pass { executions, complete } => {
            eprintln!("shipped driver: {executions} executions explored (complete: {complete})");
            assert!(executions >= 1000, "the exploration budget must buy real coverage");
        }
        Outcome::Fail(failure) => panic!("shipped driver failed under model checking:\n{failure}"),
    }
}

#[test]
fn shipped_driver_survives_seeded_random_walks() {
    let ctx = tiny_ctx();
    let cfg = Config { max_executions: 200, max_preemptions: 4, ..Config::default() };
    check_random(&cfg, 0xfc3a_0001, move || {
        let cluster = ClusterConfig::new(3, 4);
        let run = run_cluster_with(&ctx, Arc::new(StubExecutor), &cluster)
            .expect("a healthy run must complete under every schedule");
        assert_eq!(run.scores.len(), 16);
    })
    .assert_pass();
}

#[test]
fn shipped_driver_condemns_a_hung_worker_under_seeded_random_walks() {
    let ctx = tiny_ctx();
    let cfg = Config { max_executions: 200, max_preemptions: 4, ..Config::default() };
    // The double-completion detector is on by default: a condemned
    // worker's late answer accepted beside its retry would fail here.
    check_random(&cfg, 0xfc3a_0002, move || {
        let mut cluster = ClusterConfig::new(3, 4);
        cluster.task_deadline = Some(Duration::from_millis(20));
        let exec = HangOnceExecutor { hung: Mutex::new(false) };
        let run = run_cluster_with(&ctx, Arc::new(exec), &cluster)
            .expect("a run with one hung dispatch must complete under every schedule");
        let voxels: Vec<usize> = run.scores.iter().map(|s| s.voxel).collect();
        assert_eq!(voxels, (0..16).collect::<Vec<_>>(), "every voxel scored once");
        assert_eq!(run.hung_workers.len(), 1);
        assert_eq!(run.requeued_tasks, 1);
    })
    .assert_pass();
}

#[test]
fn killed_sweep_resumes_from_a_cut_checkpoint_in_one_schedule() {
    let ctx = tiny_ctx();
    let want = run_cluster_with(&ctx, Arc::new(StubExecutor), &ClusterConfig::new(2, 4))
        .expect("uninterrupted sweep")
        .scores;
    let path =
        std::env::temp_dir().join(format!("fcma_mc_kill_resume_{}.ckpt", std::process::id()));
    let cfg = Config { max_executions: 300, max_preemptions: 3, ..Config::default() };
    // The double-completion detector is on: the task whose record is cut
    // completes in both runs, which is one completion per run.
    let file = path.clone();
    check_random(&cfg, 0xfc3a_0003, move || {
        // Task 12 kills each worker that takes it, so the sweep dies once
        // tasks 0, 4 and 8 are checkpointed.
        let die = FaultKind::panic_now;
        let plan = FaultPlan::none().with_fault(12, 0, die()).with_fault(12, 1, die());
        let killed = ClusterConfig { checkpoint: Some(path.clone()), ..ClusterConfig::new(2, 4) };
        let exec = Arc::new(ChaosExecutor::new(Arc::new(StubExecutor), plan));
        let err = run_cluster_with(&ctx, exec, &killed).expect_err("both workers die");
        assert!(matches!(err, ClusterError::AllWorkersFailed { unfinished_tasks: 1 }), "{err:?}");
        // Cut the file inside the last record's `end` line.
        let bytes = std::fs::read(&path).expect("checkpoint");
        let text = std::str::from_utf8(&bytes).expect("utf-8");
        let cut = text.rfind("\nend ").expect("three records") + 4;
        std::fs::write(&path, &bytes[..cut]).expect("cut");

        let resume = ClusterConfig { resume_from: Some(path.clone()), ..killed };
        let run = run_cluster_with(&ctx, Arc::new(StubExecutor), &resume).expect("resume");
        assert_eq!(run.resumed_voxels, 8, "two whole records survive the cut");
        assert_eq!(run.tasks_per_worker.iter().sum::<usize>(), 2, "the cut task and task 12");
        assert_eq!(run.scores.len(), want.len());
        for (got, want) in run.scores.iter().zip(&want) {
            assert_eq!((got.voxel, got.accuracy.to_bits()), (want.voxel, want.accuracy.to_bits()));
        }
    })
    .assert_pass();
    let _ = std::fs::remove_file(file);
}
