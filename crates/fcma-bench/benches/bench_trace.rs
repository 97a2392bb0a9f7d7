//! Tracing overhead: the same pipeline task with the collector off
//! (every probe is one thread-local read), with it installed, and the
//! bare probe cost in isolation. The acceptance bar for the trace layer
//! is that `collector_off` is indistinguishable from an uninstrumented
//! build, and that the always-on flight recorder stays within 3% of the
//! recorder-off stage-1 hot loop (`recorder_overhead_pipeline_task`).

use criterion::{criterion_group, criterion_main, Criterion};
use fcma_core::{OptimizedExecutor, TaskContext, TaskExecutor, VoxelTask};
use fcma_fmri::presets;
use fcma_trace::{record, span, Collector, TraceOrigin};
use std::hint::black_box;

fn context() -> TaskContext {
    let mut cfg = presets::face_scene_scaled(256);
    cfg.n_subjects = 4;
    let (dataset, _) = cfg.generate();
    TaskContext::full(&dataset)
}

fn bench_trace(c: &mut Criterion) {
    let ctx = context();
    let task = VoxelTask { start: 0, count: 16 };
    let exec = OptimizedExecutor::default();

    let mut g = c.benchmark_group("trace_overhead_pipeline_task");
    g.sample_size(10);
    g.bench_function("collector_off", |b| b.iter(|| black_box(exec.process(&ctx, task))));
    g.bench_function("collector_on", |b| {
        let collector = Collector::new();
        let _scoped = collector.install_scoped();
        b.iter(|| black_box(exec.process(&ctx, task)));
        let _ = collector.drain(); // bound per-sample record memory
    });
    g.finish();

    // Flight recorder on/off around the same stage-1-dominated pipeline
    // task, with one recorder event per iteration (the cluster's rate is
    // far lower: a handful per dispatch). The 3% acceptance bar from
    // DESIGN.md §11 is judged on this pair.
    let mut g = c.benchmark_group("recorder_overhead_pipeline_task");
    g.sample_size(10);
    g.bench_function("recorder_off", |b| {
        fcma_trace::recorder::set_enabled(false);
        b.iter(|| {
            record!("recorder.dispatch", black_box(1_u64), 1, TraceOrigin::Dispatch, 0);
            black_box(exec.process(&ctx, task))
        });
        fcma_trace::recorder::set_enabled(true);
    });
    g.bench_function("recorder_on", |b| {
        b.iter(|| {
            record!("recorder.dispatch", black_box(1_u64), 1, TraceOrigin::Dispatch, 0);
            black_box(exec.process(&ctx, task))
        });
    });
    g.finish();

    let mut g = c.benchmark_group("trace_probe_cost");
    g.bench_function("disabled_span", |b| {
        b.iter(|| {
            let guard = span!("bench.probe", value = black_box(1_u64));
            black_box(guard.id())
        });
    });
    g.bench_function("enabled_span", |b| {
        let collector = Collector::new();
        let _scoped = collector.install_scoped();
        b.iter(|| {
            let guard = span!("bench.probe", value = black_box(1_u64));
            black_box(guard.id())
        });
        let _ = collector.drain(); // bound per-sample record memory
    });
    g.bench_function("recorder_event", |b| {
        b.iter(|| {
            record!("recorder.dispatch", black_box(7_u64), 1, TraceOrigin::Dispatch, 3);
        });
    });
    g.finish();
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
