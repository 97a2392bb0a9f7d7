//! Trace scoping: a collector is installed on a thread and inherited at
//! the two `fcma-sync` fork points, so a record can only land in the
//! report of the run that produced it (DESIGN.md §11). Every test here
//! runs beside its siblings at libtest's default parallelism; none of
//! them needs a lock to keep its trace to itself.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the sweeps under test run on raw threads, as a caller's would"
)]

use fcma::prelude::*;
use fcma::trace::{AttrValue, Collector, TraceReport};
use fcma_sync::Pool;
use std::collections::BTreeSet;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

fn planted(n_voxels: usize) -> TaskContext {
    let mut cfg = fcma::fmri::presets::tiny();
    cfg.n_voxels = n_voxels;
    cfg.n_informative = (n_voxels / 8).max(4) & !1;
    let (dataset, _) = cfg.generate();
    TaskContext::full(&dataset)
}

/// A sweep of `n_tasks` 16-voxel tasks on three workers whose first task
/// panics once: exactly `n_tasks + 1` dispatches.
fn faulted_sweep(n_tasks: usize) -> ClusterRun {
    let plan = FaultPlan::none().with_fault(0, 0, FaultKind::panic_now());
    let exec = Arc::new(ChaosExecutor::new(Arc::new(OptimizedExecutor::default()), plan));
    let cfg = ClusterConfig { n_workers: 3, task_size: 16, ..Default::default() };
    run_cluster_with(&planted(16 * n_tasks), exec, &cfg).expect("sweep must recover")
}

fn assert_own_sweep_only(report: &TraceReport, n_tasks: u64) {
    assert_eq!(report.counter("cluster.tasks.total"), n_tasks);
    assert_eq!(report.counter("cluster.tasks.dispatched"), n_tasks + 1);
    assert_eq!(report.counter("cluster.tasks.completed"), n_tasks);
    assert_eq!(report.counter("cluster.tasks.failed"), 1);
    assert_eq!(report.span_count("cluster.run"), 1);
    assert_eq!(report.span_count("cluster.dispatch"), n_tasks + 1);
    assert!(report.span_count("task.process") >= n_tasks, "worker spans reach the collector");
    assert!(report.check_consistency().is_empty(), "{:?}", report.check_consistency());
}

/// (a) Two instrumented sweeps on two OS threads at the same time give
/// two disjoint reports, each exact and consistent on its own.
#[test]
fn concurrent_instrumented_sweeps_produce_disjoint_reports() {
    // Each side proves it holds its collector *while* the other holds
    // its own before either sweep starts; an install that waited for
    // the other side's guard would time out here.
    fn sweep_beside_peer(n_tasks: usize, tell: &Sender<()>, hear: &Receiver<()>) -> TraceReport {
        let collector = Collector::new();
        let scope = collector.install_scoped();
        tell.send(()).expect("peer is alive");
        hear.recv_timeout(Duration::from_secs(20))
            .expect("both collectors must be installable at once");
        faulted_sweep(n_tasks);
        drop(scope);
        collector.drain()
    }
    let (to_b, from_a) = channel();
    let (to_a, from_b) = channel();
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(move || sweep_beside_peer(4, &to_b, &from_b));
        let b = s.spawn(move || sweep_beside_peer(6, &to_a, &from_a));
        (a.join().expect("sweep a"), b.join().expect("sweep b"))
    });
    assert_own_sweep_only(&a, 4);
    assert_own_sweep_only(&b, 6);
    let ids = |r: &TraceReport| r.spans.iter().map(|s| s.id).collect::<BTreeSet<u64>>();
    assert!(ids(&a).is_disjoint(&ids(&b)), "a record landed in both reports");
}

/// (b) An uninstrumented sweep running beside an instrumented one adds
/// nothing to it, and leaves nothing behind for a later collector.
#[test]
fn uninstrumented_sweep_beside_an_instrumented_one_adds_nothing() {
    let collector = Collector::new();
    let scope = collector.install_scoped();
    std::thread::scope(|s| {
        // The whole untraced sweep runs while the collector is installed
        // on this thread.
        let untraced = s.spawn(|| faulted_sweep(3));
        faulted_sweep(5);
        assert_eq!(untraced.join().expect("untraced sweep").scores.len(), 48);
    });
    drop(scope);
    assert_own_sweep_only(&collector.drain(), 5);

    let later = Collector::new();
    let scope = later.install_scoped();
    let report = scope.drain();
    assert!(report.spans.is_empty() && report.counters.is_empty());
}

/// (c) A pooled executor call under a collector with no `TraceCtx`
/// installed records its pool-thread spans in that collector: the
/// pooled trace holds the serial trace's work, its stage spans one per
/// sub-task (two of 16 voxels where the serial call has one of 32).
#[test]
fn pooled_executor_without_a_ctx_records_pool_thread_spans() {
    let ctx = planted(32);
    let task = VoxelTask { start: 0, count: 32 };
    let traced = |pool: Pool| {
        let exec = OptimizedExecutor { pool, ..Default::default() };
        let collector = Collector::new();
        let scope = collector.install_scoped();
        assert!(fcma::trace::TraceCtx::current().is_none());
        let scores = exec.process(&ctx, task);
        drop(scope);
        (scores, collector.drain())
    };
    let (serial_scores, serial) = traced(Pool::new(1));
    let (pooled_scores, pooled) = traced(Pool::new(2));
    assert_eq!(serial_scores, pooled_scores);
    for name in ["task.process", "svm.cv.loso"] {
        assert!(serial.span_count(name) > 0, "{name} missing from the serial trace");
        assert_eq!(pooled.span_count(name), serial.span_count(name), "{name}");
    }
    let voxels = |report: &TraceReport, name: &str| -> Vec<Option<AttrValue>> {
        let spans = report.spans.iter().filter(|s| s.name == name);
        spans.map(|s| s.attr("voxels").cloned()).collect()
    };
    for name in ["stage12.fused", "stage3.score"] {
        let of = |n| Some(AttrValue::U64(n));
        assert_eq!(voxels(&serial, name), [of(32)], "{name}");
        assert_eq!(voxels(&pooled, name), [of(16), of(16)], "{name}");
    }
    // The executor builds its kernels inside the fused stage 1+2 pass.
    assert_eq!(serial.span_count("svm.kernel.precompute"), 0);
    assert_eq!(pooled.span_count("svm.kernel.precompute"), 0);
    // A solve is counted, not spanned (DESIGN.md §11).
    assert!(serial.counter("svm.smo.solves") > 0);
    assert_eq!(pooled.counter("svm.smo.solves"), serial.counter("svm.smo.solves"));
    assert_eq!(pooled.counter("svm.smo.iterations"), serial.counter("svm.smo.iterations"));
    assert!(pooled.spans.iter().all(|s| s.attr("ctx_task").is_none()));
}

/// (d) A nested install shadows the outer collector and its guard's drop
/// restores it.
#[test]
fn nested_install_restores_the_outer_collector() {
    let ctx = planted(16);
    let exec = OptimizedExecutor::default();
    let task = VoxelTask { start: 0, count: 8 };

    let outer = Collector::new();
    let outer_scope = outer.install_scoped();
    exec.process(&ctx, task);
    {
        let inner = Collector::new();
        let inner_scope = inner.install_scoped();
        exec.process(&ctx, task);
        drop(inner_scope);
        assert_eq!(inner.drain().span_count("task.process"), 1);
    }
    exec.process(&ctx, task);
    drop(outer_scope);
    exec.process(&ctx, task); // nothing installed: reaches nobody
    let report = outer.drain();
    assert_eq!(report.span_count("task.process"), 2);
    assert_eq!(report.counter("stage3.voxels"), 16);
}

/// (e) A thread created outside the facade under an installed collector
/// is uninstrumented: it records nothing and does not panic.
#[test]
fn raw_std_thread_under_a_collector_records_nothing() {
    let ctx = planted(16);
    let collector = Collector::new();
    let scope = collector.install_scoped();
    let scores = std::thread::scope(|s| {
        s.spawn(|| {
            assert!(!fcma::trace::is_enabled());
            OptimizedExecutor::default().process(&ctx, VoxelTask { start: 0, count: 8 })
        })
        .join()
        .expect("uninstrumented thread must not panic")
    });
    assert_eq!(scores.len(), 8);
    let report = scope.drain();
    assert!(report.spans.is_empty() && report.counters.is_empty());
}
