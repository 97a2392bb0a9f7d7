//! Observability integration tests: chaos-seeded cluster sweeps run
//! under an installed trace collector must account for every dispatch
//! outcome exactly — the trace counters are cross-checked against the
//! injected `FaultPlan`, the per-task `TaskStat`s, and the exported
//! Chrome-trace JSON round trip — and a sweep that fails must account
//! for every task it left unfinished.

use fcma::core::CancelToken;
use fcma::prelude::*;
use fcma::svm::CvPlan;
use fcma::trace::export::{from_chrome_json, to_chrome_json};
use fcma::trace::{AttrValue, Collector, SpanRecord, TraceReport};
use fcma_mc::{replay, Config};
use fcma_sync::time::Instant;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn planted(n_voxels: usize) -> TaskContext {
    planted_seeded(n_voxels, fcma::fmri::presets::tiny().seed)
}

fn planted_seeded(n_voxels: usize, seed: u64) -> TaskContext {
    let mut cfg = fcma::fmri::presets::tiny();
    cfg.seed = seed;
    cfg.n_voxels = n_voxels;
    cfg.n_informative = (n_voxels / 8).max(4) & !1;
    let (dataset, _) = cfg.generate();
    TaskContext::full(&dataset)
}

fn chaos_exec(plan: FaultPlan) -> Arc<dyn TaskExecutor> {
    Arc::new(ChaosExecutor::new(Arc::new(OptimizedExecutor::default()), plan))
}

/// One panic and one stall: the trace must show exactly one failed and
/// one condemned dispatch, every other outcome zero, and the per-task
/// stats must attribute exactly two attempts to each faulted task.
#[test]
fn chaos_counters_match_an_explicit_fault_plan() {
    // One fcma-mc schedule on virtual time: the stalled task's 500 ms
    // deadline elapses in zero wall time, and the condemnation becomes
    // deterministic instead of racing the real scheduler.
    replay(&Config::default(), &[], || {
        let start = Instant::now();
        let ctx = planted(96); // 6 tasks of 16 voxels
        let plan = FaultPlan::none().with_fault(0, 0, FaultKind::panic_now()).with_fault(
            48,
            0,
            FaultKind::Stall,
        );
        let cfg = ClusterConfig {
            n_workers: 3,
            task_size: 16,
            task_deadline: Some(Duration::from_millis(500)),
            ..Default::default()
        };

        let (run, report) = traced(&ctx, chaos_exec(plan), &cfg);
        let run = run.expect("chaos run must recover");

        // Exact dispatch arithmetic: tasks 0 and 48 cost two dispatches
        // (panic + retry, condemn + retry), the other four cost one.
        assert_eq!(report.counter("cluster.tasks.total"), 6);
        assert_eq!(report.counter("cluster.tasks.dispatched"), 8);
        assert_eq!(report.counter("cluster.tasks.completed"), 6);
        assert_eq!(report.counter("cluster.tasks.failed"), 1);
        assert_eq!(report.counter("cluster.tasks.condemned"), 1);
        assert_eq!(report.counter("cluster.tasks.requeued"), 2);
        assert_eq!(report.counter("cluster.tasks.resumed"), 0);
        assert_eq!(report.event_count("cluster.condemn"), 1);
        assert_eq!(report.span_count("cluster.run"), 1);
        assert_eq!(report.span_count("cluster.dispatch"), 8);
        assert!(
            report.check_consistency().is_empty(),
            "invariants must hold: {:?}",
            report.check_consistency()
        );

        // Pipeline spans made it out of the worker threads too (the
        // optimized executor runs the merged stage-1+2 path).
        assert!(report.span_count("task.process") >= 6);
        assert!(report.span_count("stage12.fused") >= 6);
        assert!(report.counter("svm.smo.solves") > 0);

        // ClusterRun exposes per-task attempt counts and walls.
        assert_eq!(run.task_stats.len(), 6);
        for stat in &run.task_stats {
            assert!(!stat.resumed);
            assert!(stat.worker.is_some(), "task {} has no accepted worker", stat.task.start);
            let want_attempts = if stat.task.start == 0 || stat.task.start == 48 { 2 } else { 1 };
            assert_eq!(stat.attempts, want_attempts, "task {}", stat.task.start);
            // On virtual time a healthy task's wall can be exactly zero
            // (compute burns no virtual time); only the stalled task is
            // guaranteed a nonzero — and exact — wall below.
        }
        // The condemned task was outstanding at least one full deadline,
        // measured on the virtual time the whole run shares.
        let stalled = run.task_stats.iter().find(|s| s.task.start == 48).unwrap();
        assert!(stalled.wall >= Duration::from_millis(500), "stalled wall {:?}", stalled.wall);
        assert!(
            start.elapsed() >= Duration::from_millis(500),
            "virtual time must have advanced past the deadline"
        );

        // The exported Chrome JSON carries the same accounting.
        let json = to_chrome_json(&report);
        let parsed = from_chrome_json(&json).expect("exported trace must parse back");
        assert_eq!(parsed.counters, report.counters);
        assert_eq!(parsed.spans.len(), report.spans.len());
        assert!(parsed.check_consistency().is_empty());
    })
    .assert_pass();
}

/// A seeded plan: derive the expected dispatch/panic tallies from the
/// plan itself (a panic at attempt `n` fires only if attempts `0..n`
/// all panicked) and require the traced counters to match exactly.
#[test]
fn chaos_counters_match_a_seeded_fault_plan() {
    let (n_voxels, task_size) = (96usize, 16usize);
    let plan = FaultPlan::seeded(0xFC4A, n_voxels, task_size, 350, 500, 300);
    assert!(!plan.is_empty(), "seed must inject at least one fault");

    let mut expected_panics = 0u64;
    let mut expected_dispatches = 0u64;
    for start in (0..n_voxels).step_by(task_size) {
        let mut attempt = 0usize;
        loop {
            expected_dispatches += 1;
            match plan.fault_for(start, attempt) {
                Some(FaultKind::Panic { .. }) => {
                    expected_panics += 1;
                    attempt += 1;
                }
                // Delays complete (slowly); no fault completes cleanly.
                _ => break,
            }
        }
    }
    assert!(expected_panics > 0, "seed must inject at least one panic");

    // Every panic permanently kills one worker; keep two spares.
    // cast is exact here: expected_panics is a handful of tasks
    let n_workers = expected_panics as usize + 2;
    let cfg = ClusterConfig { n_workers, task_size, retry_budget: 3, ..Default::default() };

    let ctx = planted(n_voxels);
    let collector = Collector::new();
    let scoped = collector.install_scoped();
    let run = run_cluster_with(&ctx, chaos_exec(plan), &cfg).expect("seeded chaos must recover");
    let report = scoped.drain();
    drop(scoped);

    assert_eq!(report.counter("cluster.tasks.total"), 6);
    assert_eq!(report.counter("cluster.tasks.completed"), 6);
    assert_eq!(report.counter("cluster.tasks.failed"), expected_panics);
    assert_eq!(report.counter("cluster.tasks.dispatched"), expected_dispatches);
    assert_eq!(report.counter("cluster.tasks.condemned"), 0);
    assert_eq!(report.span_count("cluster.dispatch"), expected_dispatches);
    assert_eq!(run.failed_workers.len() as u64, expected_panics);
    assert!(report.check_consistency().is_empty(), "{:?}", report.check_consistency());
}

/// Run `exec` under `cfg` with a fresh collector installed: the run's
/// outcome and its trace.
fn traced(
    ctx: &TaskContext,
    exec: Arc<dyn TaskExecutor>,
    cfg: &ClusterConfig,
) -> (Result<ClusterRun, ClusterError>, TraceReport) {
    let collector = Collector::new();
    let scoped = collector.install_scoped();
    let outcome = run_cluster_with(ctx, exec, cfg);
    (outcome, scoped.drain())
}

/// An integer attribute of a record.
fn attr_u64(s: &SpanRecord, key: &str) -> u64 {
    match s.attr(key) {
        Some(&AttrValue::U64(v)) => v,
        other => panic!("{} has no integer {key}: {other:?}", s.name),
    }
}

/// The `(task, attempt)` of every `cluster.dispatch` span.
fn dispatches(report: &TraceReport) -> Vec<(u64, u64)> {
    report
        .spans
        .iter()
        .filter(|s| s.name == "cluster.dispatch")
        .map(|s| (attr_u64(s, "task"), attr_u64(s, "attempt")))
        .collect()
}

/// Every `task.process` span carries the ctx of a dispatch in the trace,
/// and origin `retry` exactly when its ctx is one of `retries`, each of
/// which is seen. Both consistency checks are clean.
fn assert_stamped(report: &TraceReport, retries: &[(u64, u64)]) {
    let live = dispatches(report);
    let procs: Vec<_> = report.spans.iter().filter(|s| s.name == "task.process").collect();
    assert!(!procs.is_empty(), "worker spans must be present");
    let mut seen = Vec::new();
    for s in procs {
        let pair = (attr_u64(s, "ctx_task"), attr_u64(s, "ctx_attempt"));
        assert!(live.contains(&pair), "ctx {pair:?} has no parent dispatch in {live:?}");
        let retry = s.attr("ctx_origin") == Some(&AttrValue::from("retry"));
        assert_eq!(retry, retries.contains(&pair), "origin of {pair:?}");
        seen.push(pair);
    }
    assert!(retries.iter().all(|r| seen.contains(r)), "no spans of {retries:?} in {seen:?}");
    assert!(report.check_consistency().is_empty(), "{:?}", report.check_consistency());
    assert!(report.check_causality().is_empty(), "{:?}", report.check_causality());
}

/// The trace's one `cluster.abort` event: its `error` kind and its
/// unfinished-task count.
fn abort_of(report: &TraceReport) -> (String, u64) {
    let aborts: Vec<_> = report.spans.iter().filter(|s| s.name == "cluster.abort").collect();
    assert_eq!(aborts.len(), 1, "one abort per failed run");
    let Some(AttrValue::Str(error)) = aborts[0].attr("error") else {
        panic!("abort without an error kind: {:?}", aborts[0].attrs);
    };
    (error.clone(), attr_u64(aborts[0], "unfinished"))
}

/// Causal tracing end to end, in a run that recovers and in one that
/// fails: every worker-side span is stamped with the ctx of a dispatch
/// in the trace, and only the retry's spans carry origin `retry`, under
/// both consistency checks.
#[test]
fn causal_context_in_recovered_and_failed_runs() {
    // Both sweeps run in one fcma-mc schedule: completion keys name
    // their run, so the second sweep's completions are not the first's
    // again.
    let plan = FaultPlan::none().with_fault(16, 0, FaultKind::panic_now());
    replay(&Config::default(), &[], move || {
        let ctx = planted(48); // 3 tasks of 16 voxels
        let cfg = ClusterConfig::new(3, 16);
        let (run, report) = traced(&ctx, chaos_exec(plan.clone()), &cfg);
        assert_eq!(run.expect("chaos run must recover").scores.len(), 48);
        let live = dispatches(&report);
        assert_eq!(live.len(), 4, "3 first dispatches + 1 retry: {live:?}");
        assert!(live.contains(&(16, 1)) && live.contains(&(16, 2)), "{live:?}");
        assert_stamped(&report, &[(16, 2)]);
        assert_eq!(report.event_count("cluster.abort"), 0);

        // One worker: it scores task 0, dies on task 16, and the run
        // fails with tasks 16 and 32 unfinished.
        let (run, report) = traced(&ctx, chaos_exec(plan.clone()), &ClusterConfig::new(1, 16));
        assert!(
            matches!(run, Err(ClusterError::AllWorkersFailed { unfinished_tasks: 2 })),
            "{run:?}"
        );
        assert_eq!(dispatches(&report), [(0, 1), (16, 1)]);
        assert_stamped(&report, &[]);
        assert_eq!(abort_of(&report), ("all_workers_failed".to_owned(), 2));
    })
    .assert_pass();
}

/// [`OptimizedExecutor`], except that task 0's first call through
/// [`TaskExecutor::process_with_controls`] scores the task and then
/// hangs until its worker is cancelled: a condemned attempt that leaves
/// stamped spans in the trace.
struct ScoreThenHang {
    inner: OptimizedExecutor,
    hung: fcma_sync::Mutex<bool>,
}

impl TaskExecutor for ScoreThenHang {
    fn name(&self) -> &'static str {
        "score-then-hang"
    }

    fn pool(&self) -> fcma_sync::Pool {
        self.inner.pool()
    }

    fn process_on(
        &self,
        ctx: &TaskContext,
        task: VoxelTask,
        plans: &[CvPlan<'_>],
        pool: &fcma_sync::Pool,
    ) -> Vec<Vec<VoxelScore>> {
        self.inner.process_on(ctx, task, plans, pool)
    }

    fn process_with_controls(
        &self,
        ctx: &TaskContext,
        task: VoxelTask,
        cancel: &CancelToken,
    ) -> Vec<VoxelScore> {
        let scores = self.process(ctx, task);
        if task.start == 0 && !std::mem::replace(&mut *self.hung.lock(), true) {
            while !cancel.is_cancelled() {
                fcma_sync::thread::sleep(Duration::from_millis(1));
            }
        }
        scores
    }
}

/// A condemned *retry* says so in the trace: task 0 panics on its first
/// attempt and hangs on its second. The second attempt's dispatch span
/// has outcome `condemned`, and its spans carry origin `retry` — whether
/// a third attempt then completes the run or the retry budget is spent.
#[test]
fn condemned_retry_is_logged_with_origin_retry() {
    // One fcma-mc schedule per sweep (see the causal test above).
    for retry_budget in [2, 1] {
        replay(&Config::default(), &[], move || {
            let ctx = planted(48); // 3 tasks of 16 voxels
            let plan = FaultPlan::none().with_fault(0, 0, FaultKind::panic_now());
            let inner = ScoreThenHang {
                inner: OptimizedExecutor::default(),
                hung: fcma_sync::Mutex::new(false),
            };
            let exec = ChaosExecutor::new(Arc::new(inner), plan);
            let cfg = ClusterConfig {
                n_workers: 3,
                task_size: 16,
                retry_budget,
                task_deadline: Some(Duration::from_millis(500)),
                ..Default::default()
            };
            let (run, report) = traced(&ctx, Arc::new(exec), &cfg);
            let outcome_of = |attempt: u64| {
                let span = report
                    .spans
                    .iter()
                    .filter(|s| s.name == "cluster.dispatch")
                    .find(|s| (attr_u64(s, "task"), attr_u64(s, "attempt")) == (0, attempt))
                    .unwrap_or_else(|| panic!("no dispatch span for task 0 attempt {attempt}"));
                span.attr("outcome").cloned()
            };
            assert_eq!(outcome_of(1), Some(AttrValue::from("failed")));
            assert_eq!(outcome_of(2), Some(AttrValue::from("condemned")));
            if retry_budget == 2 {
                let run = run.expect("the third attempt completes the run");
                assert_eq!((run.failed_workers.len(), run.hung_workers.len()), (1, 1));
                assert_eq!(outcome_of(3), Some(AttrValue::from("completed")));
                assert_stamped(&report, &[(0, 2), (0, 3)]);
            } else {
                assert!(
                    matches!(run, Err(ClusterError::RetryBudgetExhausted { attempts: 2, .. })),
                    "{run:?}"
                );
                assert_stamped(&report, &[(0, 2)]);
                let (error, unfinished) = abort_of(&report);
                assert_eq!(error, "retry_budget_exhausted");
                assert_eq!(unfinished, 3 - report.counter("cluster.tasks.completed"));
            }
        })
        .assert_pass();
    }
}

/// A run that fails leaves a trace that accounts for every task: one
/// `cluster.abort` naming the error and the tasks left unfinished, with
/// `check_consistency` clean. One worker scores task 0 and then panics
/// on task 16; with a retry budget the run recovers no worker and fails
/// with every worker dead, without one it fails on the spent budget.
/// With a second worker the same plan recovers, and aborts nothing.
#[test]
fn failed_runs_record_one_abort() {
    let ctx = planted(48); // 3 tasks of 16 voxels
    let plan = FaultPlan::none().with_fault(16, 0, FaultKind::panic_now());
    for (n_workers, retry_budget, want) in
        [(1, 2, Some("all_workers_failed")), (1, 0, Some("retry_budget_exhausted")), (2, 2, None)]
    {
        let cfg = ClusterConfig { n_workers, task_size: 16, retry_budget, ..Default::default() };
        let (run, report) = traced(&ctx, chaos_exec(plan.clone()), &cfg);
        assert!(report.check_consistency().is_empty(), "{:?}", report.check_consistency());
        assert_eq!(report.counter("cluster.tasks.failed"), 1);
        match want {
            Some(kind) => {
                let error = run.expect_err("one worker cannot survive the panic");
                assert_eq!(error.kind(), kind);
                assert_eq!(abort_of(&report), (kind.to_owned(), 2));
                assert_eq!(report.counter("cluster.tasks.completed"), 1);
            }
            None => {
                assert_eq!(run.expect("a second worker recovers the task").scores.len(), 48);
                assert_eq!(report.event_count("cluster.abort"), 0);
            }
        }
    }
}

/// A sweep of `ctx` (3 tasks) under `cfg` fails before any dispatch with
/// an error of `kind`, recorded as one `cluster.abort` with every task
/// unfinished; the error, for further checks.
fn refused(ctx: &TaskContext, cfg: &ClusterConfig, kind: &str) -> ClusterError {
    let (run, report) = traced(ctx, Arc::new(OptimizedExecutor::default()), cfg);
    let error = run.expect_err("the checkpoint is unusable");
    assert_eq!(error.kind(), kind);
    assert_eq!(abort_of(&report), (kind.to_owned(), 3));
    assert_eq!(report.counter("cluster.tasks.dispatched"), 0);
    assert!(report.check_consistency().is_empty(), "{:?}", report.check_consistency());
    error
}

fn resume(path: PathBuf) -> ClusterConfig {
    ClusterConfig { resume_from: Some(path), ..ClusterConfig::new(2, 16) }
}

/// The checkpoint errors are aborts too: a resume file that will not
/// load, one from another sweep, and a checkpoint that cannot be
/// written each leave one `cluster.abort` with every task unfinished.
#[test]
fn checkpoint_errors_record_one_abort() {
    let ctx = planted(48); // 3 tasks of 16 voxels
    let dir = std::env::temp_dir().join(format!("fcma-obs-abort-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let written = dir.join("sweep.ckpt");
    let healthy = ClusterConfig { checkpoint: Some(written.clone()), ..ClusterConfig::new(2, 8) };
    run_cluster_with(&ctx, Arc::new(OptimizedExecutor::default()), &healthy).expect("healthy");

    let unwritable = ClusterConfig {
        checkpoint: Some(dir.join("no-such-dir").join("sweep.ckpt")),
        ..ClusterConfig::new(2, 16)
    };
    for (cfg, kind) in [
        (resume(dir.join("missing.ckpt")), "checkpoint"),
        (resume(written), "checkpoint_mismatch"),
        (unwritable, "checkpoint"),
    ] {
        refused(&ctx, &cfg, kind);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint of another dataset with the same shape is refused, as
/// is a `v1` one, which names no dataset: one aborted run each, every
/// task unfinished.
#[test]
fn foreign_checkpoint_resume_records_one_abort() {
    let dir = std::env::temp_dir().join(format!("fcma-obs-foreign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let written = dir.join("foreign.ckpt");
    let cfg = ClusterConfig { checkpoint: Some(written.clone()), ..ClusterConfig::new(2, 16) };
    let foreign = planted_seeded(48, 9);
    run_cluster_with(&foreign, Arc::new(OptimizedExecutor::default()), &cfg).expect("healthy");
    let text = std::fs::read_to_string(&written).expect("written");
    let (_, records) = text.split_once('\n').expect("header line");
    let v1 = dir.join("v1.ckpt");
    std::fs::write(&v1, format!("fcma-checkpoint v1 voxels=48 task_size=16\n{records}"))
        .expect("v1 copy");

    for path in [written, v1] {
        let error = refused(&planted(48), &resume(path), "checkpoint_mismatch");
        let ClusterError::CheckpointMismatch { found, expected } = error else {
            panic!("expected a mismatch, got {error:?}");
        };
        assert_eq!((found.n_voxels, found.task_size), (expected.n_voxels, expected.task_size));
        assert_ne!(found.digest, expected.digest);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// With no collector installed the same chaos run records nothing and
/// still succeeds — instrumentation must never perturb scheduling.
#[test]
fn uninstrumented_chaos_run_records_nothing() {
    let ctx = planted(48);
    let plan = FaultPlan::none().with_fault(0, 0, FaultKind::panic_now());
    let cfg = ClusterConfig { n_workers: 2, task_size: 16, ..Default::default() };
    let run = run_cluster_with(&ctx, chaos_exec(plan), &cfg).expect("run");
    assert_eq!(run.scores.len(), 48);
    assert_eq!(run.task_stats.len(), 3, "task stats work without a collector");

    // A collector installed only *after* the run sees an empty world.
    let collector = Collector::new();
    let scoped = collector.install_scoped();
    let report = scoped.drain();
    assert!(report.spans.is_empty());
    assert!(report.counters.is_empty());
}
