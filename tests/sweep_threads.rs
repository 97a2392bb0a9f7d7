//! Every pool size under the one spreading rule (DESIGN.md §15):
//! `score_all_voxels` runs its tasks across the executor's pool, and an
//! executor runs a task on `P` threads as `min(P, V)` whole sub-tasks,
//! a one-voxel sub-task's spare threads going to its CV folds. Scores
//! are concatenated in task order, so every sweep, analysis and direct
//! call must give the serial call's bits at every thread count, and a
//! traced pooled call must record the serial call's work.

use fcma::core::{CvPlan, LEFT_OUT};
use fcma::prelude::*;
use fcma::trace::Collector;
use fcma_sync::Pool;

/// Pool sizes under test: serial, the benchmark host's two cores, an
/// odd split, and more threads than most sweeps have tasks.
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn exec(threads: usize) -> OptimizedExecutor {
    OptimizedExecutor { pool: Pool::new(threads), ..Default::default() }
}

fn bits(scores: &[VoxelScore]) -> Vec<(usize, u64)> {
    scores.iter().map(|s| (s.voxel, s.accuracy.to_bits())).collect()
}

/// The 96-voxel planted dataset cut two ways: two 48-voxel tasks (fewer
/// than 3 and 8 threads, so those pools also split each task) and five
/// 20-voxel tasks, the last one a ragged 16.
const TASK_SIZES: [usize; 2] = [48, 20];

#[test]
fn score_all_voxels_is_thread_count_invariant() {
    let (d, _) = fcma::fmri::presets::tiny().generate();
    let ctx = TaskContext::full(&d);
    for task_size in TASK_SIZES {
        let one_by_one: Vec<VoxelScore> = fcma::core::partition(ctx.n_voxels(), task_size)
            .into_iter()
            .flat_map(|task| exec(1).process(&ctx, task))
            .collect();
        let serial = bits(&score_all_voxels(&ctx, &exec(1), task_size, None));
        assert_eq!(serial, bits(&one_by_one), "task_size={task_size}");
        for threads in THREADS {
            let got = bits(&score_all_voxels(&ctx, &exec(threads), task_size, None));
            assert_eq!(got, serial, "task_size={task_size} threads={threads}");
        }
    }
}

#[test]
fn online_selection_is_thread_count_invariant() {
    let mut cfg = fcma::fmri::presets::tiny();
    cfg.n_subjects = 1;
    cfg.epochs_per_subject = 16;
    let (d, _) = cfg.generate();
    for task_size in TASK_SIZES {
        let analysis = AnalysisConfig { task_size, top_k: 8 };
        let serial = online_voxel_selection(&d, &exec(1), &analysis, 4);
        for threads in THREADS {
            let got = online_voxel_selection(&d, &exec(threads), &analysis, 4);
            assert_eq!(got.selected, serial.selected, "task_size={task_size} threads={threads}");
            assert_eq!(bits(&got.scores), bits(&serial.scores), "threads={threads}");
        }
    }
}

#[test]
fn offline_analysis_is_thread_count_invariant() {
    let (d, _) = fcma::fmri::presets::tiny().generate();
    for task_size in TASK_SIZES {
        let analysis = AnalysisConfig { task_size, top_k: 8 };
        let serial = offline_analysis(&d, &exec(1), &analysis);
        for threads in THREADS {
            let got = offline_analysis(&d, &exec(threads), &analysis);
            let at = format!("task_size={task_size} threads={threads}");
            assert_eq!(got.folds.len(), serial.folds.len(), "{at}");
            for (g, s) in got.folds.iter().zip(&serial.folds) {
                assert_eq!(g.held_out, s.held_out, "{at}");
                assert_eq!(g.selected, s.selected, "{at}");
                assert_eq!(g.test_accuracy.to_bits(), s.test_accuracy.to_bits(), "{at}");
            }
            assert_eq!(got.mean_test_accuracy.to_bits(), serial.mean_test_accuracy.to_bits());
            assert_eq!(got.stable, serial.stable, "{at}");
        }
    }
}

/// Under a collector the 2-thread sweep's pool threads record into the
/// caller's report: the same tasks, solves and SMO iterations as the
/// serial sweep, and a consistent trace.
#[test]
fn pooled_sweep_records_the_serial_sweeps_work() {
    let (d, _) = fcma::fmri::presets::tiny().generate();
    let ctx = TaskContext::full(&d);
    let traced = |threads: usize| {
        let collector = Collector::new();
        let scope = collector.install_scoped();
        let scores = score_all_voxels(&ctx, &exec(threads), 20, None);
        drop(scope);
        (bits(&scores), collector.drain())
    };
    let (serial_scores, serial) = traced(1);
    let (pooled_scores, pooled) = traced(2);
    assert_eq!(pooled_scores, serial_scores);
    assert_eq!(serial.span_count("analysis.sweep"), 1);
    assert_eq!(serial.span_count("task.process"), 5);
    assert_eq!(pooled.span_count("task.process"), serial.span_count("task.process"));
    for name in ["svm.smo.solves", "svm.smo.iterations"] {
        assert!(serial.counter(name) > 0, "{name} missing from the serial trace");
        assert_eq!(pooled.counter(name), serial.counter(name), "{name}");
    }
    assert!(serial.check_consistency().is_empty(), "{:?}", serial.check_consistency());
    assert!(pooled.check_consistency().is_empty(), "{:?}", pooled.check_consistency());
}

/// Direct calls: tasks of 1, 2, 3 and 5 voxels, the 5-voxel one starting
/// off an `MR` (4) boundary, so at 2 and 3 threads its sub-tasks start
/// off one too; at 8 threads every task runs as one-voxel sub-tasks.
const TASKS: [VoxelTask; 4] = [
    VoxelTask { start: 0, count: 1 },
    VoxelTask { start: 4, count: 2 },
    VoxelTask { start: 8, count: 3 },
    VoxelTask { start: 13, count: 5 },
];

/// The offline analysis's inner groups for each held-out subject: its
/// epochs `LEFT_OUT`, later subjects renumbered down past the gap.
fn holding_out(subjects: &[usize]) -> Vec<Vec<usize>> {
    let n_subjects = subjects.iter().max().map_or(0, |&s| s + 1);
    (0..n_subjects)
        .map(|held| {
            let renumber = |&s: &usize| s - usize::from(s > held);
            subjects.iter().map(|s| if *s == held { LEFT_OUT } else { renumber(s) }).collect()
        })
        .collect()
}

/// The labels rotated by one epoch within each subject: a permutation
/// that keeps every subject's class balance.
fn permuted(ctx: &TaskContext) -> Vec<f32> {
    let mut y = ctx.y.to_vec();
    for range in ctx.subject_ranges.iter() {
        y[range.clone()].rotate_left(1);
    }
    y
}

#[test]
fn direct_calls_are_thread_count_invariant() {
    let (d, _) = fcma::fmri::presets::tiny().generate();
    let ctx = TaskContext::full(&d);
    let (offline, permuted) = (holding_out(&ctx.subjects), permuted(&ctx));
    let mut plans = vec![CvPlan { y: &permuted, groups: &ctx.subjects }];
    plans.extend(offline.iter().map(|groups| CvPlan { y: &ctx.y, groups }));
    let executors = |threads| -> [Box<dyn TaskExecutor>; 2] {
        let pool = Pool::new(threads);
        [
            Box::new(OptimizedExecutor { pool, ..Default::default() }),
            Box::new(BaselineExecutor { pool, ..Default::default() }),
        ]
    };
    let run = |threads, which: usize, task| {
        let exec = &executors(threads)[which];
        let per_plan = exec.process_on(&ctx, task, &plans, &exec.pool());
        (bits(&exec.process(&ctx, task)), per_plan.iter().map(|s| bits(s)).collect::<Vec<_>>())
    };
    for task in TASKS {
        for which in 0..2 {
            let serial = run(1, which, task);
            let voxels: Vec<usize> = serial.0.iter().map(|&(v, _)| v).collect();
            assert_eq!(voxels, task.range().collect::<Vec<_>>(), "{task:?}");
            assert_eq!(serial.1.len(), plans.len());
            for threads in THREADS {
                let at = format!("{task:?} executor {which} threads={threads}");
                assert_eq!(run(threads, which, task), serial, "{at}");
            }
        }
    }
}

/// Under a collector a 2-thread call's sub-tasks record into the
/// caller's report: one `task.process` span, and the serial call's
/// solves and SMO iterations.
#[test]
fn pooled_process_records_the_serial_calls_work() {
    let (d, _) = fcma::fmri::presets::tiny().generate();
    let ctx = TaskContext::full(&d);
    let task = TASKS[3];
    let traced = |threads: usize| {
        let collector = Collector::new();
        let scope = collector.install_scoped();
        let scores = exec(threads).process(&ctx, task);
        drop(scope);
        (bits(&scores), collector.drain())
    };
    let (serial_scores, serial) = traced(1);
    let (pooled_scores, pooled) = traced(2);
    assert_eq!(pooled_scores, serial_scores);
    assert_eq!(serial.span_count("task.process"), 1);
    assert_eq!(pooled.span_count("task.process"), serial.span_count("task.process"));
    for name in ["svm.smo.solves", "svm.smo.iterations"] {
        assert!(serial.counter(name) > 0, "{name} missing from the serial trace");
        assert_eq!(pooled.counter(name), serial.counter(name), "{name}");
    }
    assert!(pooled.check_consistency().is_empty(), "{:?}", pooled.check_consistency());
}
