//! Observability integration tests: chaos-seeded cluster sweeps run
//! under an installed trace collector must account for every dispatch
//! outcome exactly — the trace counters are cross-checked against the
//! injected `FaultPlan`, the per-task `TaskStat`s, and the exported
//! Chrome-trace JSON round trip.

use fcma::prelude::*;
use fcma::trace::export::{from_chrome_json, to_chrome_json};
use fcma::trace::Collector;
use fcma_sync::clock::VirtualClock;
use fcma_sync::thread::now_virtual_nanos;
use std::sync::Arc;
use std::time::Duration;

fn planted(n_voxels: usize) -> TaskContext {
    let mut cfg = fcma::fmri::presets::tiny();
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
    // Virtual clock: the stalled task's 500 ms deadline elapses in zero
    // wall time, and the condemnation becomes deterministic instead of
    // racing the real scheduler.
    let _clock = VirtualClock::install();
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

    let collector = Collector::new();
    let scoped = collector.install_scoped();
    let run = run_cluster_with(&ctx, chaos_exec(plan), &cfg).expect("chaos run must recover");
    let report = scoped.drain();
    drop(scoped);

    // Exact dispatch arithmetic: tasks 0 and 48 cost two dispatches
    // (panic + retry, condemn + retry), the other four cost one.
    assert_eq!(report.counter("cluster.tasks.total"), 6);
    assert_eq!(report.counter("cluster.tasks.dispatched"), 8);
    assert_eq!(report.counter("cluster.tasks.completed"), 6);
    assert_eq!(report.counter("cluster.tasks.failed"), 1);
    assert_eq!(report.counter("cluster.tasks.condemned"), 1);
    assert_eq!(report.counter("cluster.tasks.requeued"), 2);
    assert_eq!(report.counter("cluster.tasks.speculative"), 0);
    assert_eq!(report.counter("cluster.tasks.resumed"), 0);
    assert_eq!(report.event_count("cluster.condemn"), 1);
    assert_eq!(report.event_count("cluster.speculate"), 0);
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

    // Satellite: ClusterRun exposes per-task attempt counts and walls.
    assert_eq!(run.task_stats.len(), 6);
    for stat in &run.task_stats {
        assert!(!stat.resumed);
        assert!(stat.worker.is_some(), "task {} has no accepted worker", stat.task.start);
        let want_attempts = if stat.task.start == 0 || stat.task.start == 48 { 2 } else { 1 };
        assert_eq!(stat.attempts, want_attempts, "task {}", stat.task.start);
        // On the virtual clock a healthy task's wall can be exactly
        // zero (compute burns no virtual time); only the stalled task
        // is guaranteed a nonzero — and exact — wall below.
    }
    // The condemned task was outstanding at least one full deadline,
    // measured on the virtual clock the whole run shares.
    let stalled = run.task_stats.iter().find(|s| s.task.start == 48).unwrap();
    assert!(stalled.wall >= Duration::from_millis(500), "stalled wall {:?}", stalled.wall);
    assert!(
        now_virtual_nanos() >= 500_000_000,
        "virtual time must have advanced past the deadline"
    );

    // The exported Chrome JSON carries the same accounting.
    let json = to_chrome_json(&report);
    let parsed = from_chrome_json(&json).expect("exported trace must parse back");
    assert_eq!(parsed.counters, report.counters);
    assert_eq!(parsed.spans.len(), report.spans.len());
    assert!(parsed.check_consistency().is_empty());
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
    assert_eq!(report.counter("cluster.tasks.speculative"), 0);
    assert_eq!(report.span_count("cluster.dispatch"), expected_dispatches);
    assert_eq!(run.failed_workers.len() as u64, expected_panics);
    assert!(report.check_consistency().is_empty(), "{:?}", report.check_consistency());
}

/// Speculation: a delayed straggler gets a traced duplicate; exactly one
/// of the two copies is accepted and the other is discarded (if its
/// result arrives) or cancelled at shutdown (if it does not).
#[test]
fn speculative_duplicate_is_traced_and_accounted() {
    // Virtual clock: the 800 ms straggler sleep and the 80 ms
    // speculation trigger both elapse instantly and in a fixed order
    // (the duplicate always launches while the straggler still sleeps).
    let _clock = VirtualClock::install();
    let ctx = planted(64); // 4 tasks of 16 voxels
    let plan = FaultPlan::none().with_fault(16, 0, FaultKind::Delay(Duration::from_millis(800)));
    let cfg = ClusterConfig {
        n_workers: 2,
        task_size: 16,
        speculate_after: Some(Duration::from_millis(80)),
        ..Default::default()
    };

    let collector = Collector::new();
    let scoped = collector.install_scoped();
    let run = run_cluster_with(&ctx, chaos_exec(plan), &cfg).expect("speculative run");
    let report = scoped.drain();
    drop(scoped);

    assert_eq!(run.speculative_launches, 1);
    assert_eq!(report.counter("cluster.tasks.speculative"), 1);
    assert_eq!(report.event_count("cluster.speculate"), 1);
    assert_eq!(report.counter("cluster.tasks.dispatched"), 5);
    assert_eq!(report.counter("cluster.tasks.completed"), 4);
    // The losing copy either reported late (discarded) or was still
    // sleeping at shutdown (cancelled) — never both, never neither.
    let loser =
        report.counter("cluster.tasks.discarded") + report.counter("cluster.tasks.cancelled");
    assert_eq!(loser, 1);
    assert!(report.check_consistency().is_empty(), "{:?}", report.check_consistency());

    // The straggler's stat reflects one non-speculative attempt but a
    // wall time at least as long as the speculation trigger.
    let straggler = run.task_stats.iter().find(|s| s.task.start == 16).unwrap();
    assert_eq!(straggler.attempts, 1);
    assert!(straggler.wall >= Duration::from_millis(80), "wall {:?}", straggler.wall);
}

/// The lines of a postmortem dump's timeline section.
fn timeline(dump: &str) -> Vec<&str> {
    dump.lines()
        .skip_while(|l| *l != "-- timeline --")
        .skip(1)
        .take_while(|l| !l.starts_with("-- causal chain"))
        .collect()
}

/// Causal tracing end to end: a chaos run with a panic and a retry must
/// stamp every worker-side span with the ctx of a live dispatch, mark
/// the retry's spans with origin `retry`, keep flight-recorder events
/// out of the collected trace, and drop a validating postmortem
/// artifact for the panicking task — all under the causality invariants
/// of `check_consistency`.
#[test]
fn causal_context_and_postmortem() {
    use fcma::trace::AttrValue;

    let _clock = VirtualClock::install();
    let ctx = planted(48); // 3 tasks of 16 voxels
    let plan = FaultPlan::none().with_fault(16, 0, FaultKind::panic_now());
    let pm_dir = std::env::temp_dir().join("fcma-obs-postmortem");
    let _ = std::fs::remove_dir_all(&pm_dir);
    let cfg = ClusterConfig {
        n_workers: 3,
        task_size: 16,
        postmortem_dir: Some(pm_dir.clone()),
        ..Default::default()
    };

    let collector = Collector::new();
    let scoped = collector.install_scoped();
    let run = run_cluster_with(&ctx, chaos_exec(plan), &cfg).expect("chaos run must recover");
    let report = scoped.drain();
    drop(scoped);
    assert_eq!(run.scores.len(), 48);

    // Every ctx-stamped record names a dispatch that really happened.
    let live: Vec<(u64, u64)> = report
        .spans
        .iter()
        .filter(|s| s.name == "cluster.dispatch")
        .map(|s| {
            let get = |k: &str| match s.attr(k) {
                Some(&AttrValue::U64(v)) => v,
                other => panic!("dispatch span missing {k}: {other:?}"),
            };
            (get("task"), get("attempt"))
        })
        .collect();
    assert_eq!(live.len(), 4, "3 first dispatches + 1 retry: {live:?}");
    assert!(live.contains(&(16, 1)) && live.contains(&(16, 2)), "{live:?}");

    let procs: Vec<_> = report.spans.iter().filter(|s| s.name == "task.process").collect();
    assert!(!procs.is_empty(), "worker spans must be present");
    let mut saw_retry = false;
    for s in &procs {
        let (Some(&AttrValue::U64(t)), Some(&AttrValue::U64(a))) =
            (s.attr("ctx_task"), s.attr("ctx_attempt"))
        else {
            panic!("task.process span missing causal ctx: {:?}", s.attrs);
        };
        assert!(live.contains(&(t, a)), "ctx ({t},{a}) has no parent dispatch");
        if s.attr("ctx_origin") == Some(&AttrValue::Str("retry".to_string())) {
            assert_eq!((t, a), (16, 2), "only task 16's second attempt is a retry");
            saw_retry = true;
        }
    }
    assert!(saw_retry, "the retried attempt's span must carry origin=retry");
    assert!(report.check_consistency().is_empty(), "{:?}", report.check_consistency());
    assert!(report.check_causality().is_empty(), "{:?}", report.check_causality());

    // The derived per-family latency histograms behave like quantile
    // summaries: task.process is present and its quantiles are ordered.
    let hists = report.span_duration_histograms();
    let hist = hists.get("task.process").expect("task.process family in the histograms");
    assert!(hist.quantile(0.99) >= hist.quantile(0.5), "quantiles must be monotone");

    // The flight log is the run's own: none of it rides the collector.
    assert!(report.spans.iter().all(|s| !s.name.starts_with("recorder.")));

    // The panic dropped a validating postmortem whose causal chain is
    // the panicking attempt and nothing else (the retry is dispatched
    // only after the dump is taken). The master records a dispatch
    // after sending it, so the worker's lines may precede it.
    let dump = pm_dir.join("postmortem-task-panic-task16-attempt1.txt");
    let text = std::fs::read_to_string(&dump).expect("postmortem artifact must exist");
    let summary = fcma::trace::postmortem::validate(&text).expect("artifact must validate");
    assert!(summary.trigger.starts_with("task.panic task=16 attempt=1"), "{}", summary.trigger);
    let chain: Vec<&str> =
        timeline(&text).into_iter().filter(|l| l.contains(" task=16 ")).collect();
    assert_eq!(summary.chain_len, chain.len());
    assert_eq!(chain.len(), 3, "{chain:?}");
    for kind in ["dispatch", "task.start", "task.panic"] {
        let wanted = format!(" recorder.{kind} task=16 attempt=1 origin=dispatch ");
        assert!(chain.iter().any(|l| l.contains(&wanted)), "no {kind} line in {chain:?}");
    }
    let _ = std::fs::remove_dir_all(&pm_dir);
}

/// A postmortem holds the events of the run that produced it and of no
/// other: the second of two chaos sweeps run back to back on one thread
/// dumps only its own panic, and its log starts at `seq` 0.
#[test]
fn second_sweeps_postmortem_holds_only_its_own_events() {
    let _clock = VirtualClock::install();
    let ctx = planted(48); // 3 tasks of 16 voxels
    let pm_dir = std::env::temp_dir().join("fcma-obs-two-sweeps");
    let _ = std::fs::remove_dir_all(&pm_dir);
    let cfg = ClusterConfig {
        n_workers: 3,
        task_size: 16,
        postmortem_dir: Some(pm_dir.clone()),
        ..Default::default()
    };
    for panic_task in [16, 32] {
        let plan = FaultPlan::none().with_fault(panic_task, 0, FaultKind::panic_now());
        let run = run_cluster_with(&ctx, chaos_exec(plan), &cfg).expect("chaos run must recover");
        assert_eq!(run.failed_workers.len(), 1);
    }

    let dump = pm_dir.join("postmortem-task-panic-task32-attempt1.txt");
    let text = std::fs::read_to_string(&dump).expect("second sweep's artifact must exist");
    fcma::trace::postmortem::validate(&text).expect("artifact must validate");
    let lines = timeline(&text);
    let panics: Vec<&&str> = lines.iter().filter(|l| l.contains(" recorder.task.panic ")).collect();
    assert_eq!(panics.len(), 1, "the first sweep's panic leaked into the dump: {lines:?}");
    assert!(panics[0].contains(" task=32 "), "{}", panics[0]);
    let first_seq = lines[0].split(' ').find_map(|tok| tok.strip_prefix("seq="));
    assert_eq!(first_seq, Some("0"), "the log began with this run: {}", lines[0]);
    let dispatches = lines.iter().filter(|l| l.contains(" recorder.dispatch ")).count();
    assert_eq!(dispatches, 3, "three first dispatches, all this sweep's: {lines:?}");
    let _ = std::fs::remove_dir_all(&pm_dir);
}

/// A condemned *retry* says so: task 0 panics on its first attempt and
/// hangs on its second, and the condemnation recorded for that second
/// attempt carries origin `retry`, not `dispatch`.
#[test]
fn condemned_retry_is_logged_with_origin_retry() {
    let _clock = VirtualClock::install();
    let ctx = planted(48); // 3 tasks of 16 voxels
    let plan = FaultPlan::none().with_fault(0, 0, FaultKind::panic_now()).with_fault(
        0,
        1,
        FaultKind::Stall,
    );
    let pm_dir = std::env::temp_dir().join("fcma-obs-condemned-retry");
    let _ = std::fs::remove_dir_all(&pm_dir);
    let cfg = ClusterConfig {
        n_workers: 3,
        task_size: 16,
        task_deadline: Some(Duration::from_millis(500)),
        postmortem_dir: Some(pm_dir.clone()),
        ..Default::default()
    };
    let run = run_cluster_with(&ctx, chaos_exec(plan), &cfg).expect("chaos run must recover");
    assert_eq!((run.failed_workers.len(), run.hung_workers.len()), (1, 1));

    let dump = pm_dir.join("postmortem-worker-condemned-task0-attempt2.txt");
    let text = std::fs::read_to_string(&dump).expect("condemnation artifact must exist");
    let lines = timeline(&text);
    let condemns: Vec<&&str> = lines.iter().filter(|l| l.contains(" recorder.condemn ")).collect();
    assert_eq!(condemns.len(), 1, "{lines:?}");
    assert!(condemns[0].contains(" task=0 attempt=2 origin=retry "), "{}", condemns[0]);
    let _ = std::fs::remove_dir_all(&pm_dir);
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
