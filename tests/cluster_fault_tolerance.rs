//! Fault-tolerance integration tests for the cluster driver: the
//! stranded-task regression, checkpoint/resume equivalence, and
//! checkpoint validation.

use fcma::cluster::CheckpointError;
use fcma::prelude::*;
use fcma_sync::clock::VirtualClock;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn planted(n_voxels: usize) -> TaskContext {
    let mut cfg = fcma::fmri::presets::tiny();
    cfg.n_voxels = n_voxels;
    cfg.n_informative = (n_voxels / 8).max(4) & !1;
    let (dataset, _) = cfg.generate();
    TaskContext::full(&dataset)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fcma_fault_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Regression for the stranding bug in the pre-fault-tolerant driver:
/// one worker finishes the last queued task and goes idle while the
/// other is still computing; the computing worker then dies and its task
/// is requeued. The old master had already decided no work remained for
/// the idle worker (and shut it down), so the requeued task was stranded
/// and the run died on its final completeness assert. The scheduler must
/// instead hand the requeued task to the idle worker.
#[test]
fn requeued_task_reaches_an_idle_worker() {
    // The whole run sits on the facade's virtual clock: the 300 ms fuse
    // costs no wall time, and it fires only once every other thread is
    // parked — i.e. strictly after the healthy worker went idle, which
    // is exactly the ordering this regression needs. No real-time race.
    let clock = VirtualClock::install();
    let ctx = planted(64);
    // Two tasks, two workers. Task 0 panics only after a long fuse, so
    // the other worker has long since finished task 1 and sits idle when
    // the failure arrives.
    let plan =
        FaultPlan::none().with_fault(0, 0, FaultKind::Panic { after: Duration::from_millis(300) });
    let exec: Arc<dyn TaskExecutor> =
        Arc::new(ChaosExecutor::new(Arc::new(OptimizedExecutor::default()), plan));
    let cfg = ClusterConfig { n_workers: 2, task_size: 32, ..Default::default() };
    let run = run_cluster_with(&ctx, exec, &cfg)
        .expect("requeued task must be re-dispatched to the idle worker");
    assert_eq!(run.failed_workers.len(), 1);
    assert_eq!(run.requeued_tasks, 1);
    let voxels: Vec<usize> = run.scores.iter().map(|s| s.voxel).collect();
    assert_eq!(voxels, (0..64).collect::<Vec<_>>());
    assert!(
        clock.now() >= Duration::from_millis(300),
        "the panic fuse must have elapsed on the virtual clock, got {:?}",
        clock.now()
    );
}

/// Drive a checkpointed run to total failure partway through the sweep.
/// With 2 workers and a task that panics on every attempt, the surviving
/// worker must drain the other three tasks before the second fatal panic
/// kills it, so the checkpoint deterministically holds tasks 0/12/24.
fn run_until_cluster_death(ctx: &TaskContext, ckpt: &Path) {
    let plan = FaultPlan::none().with_fault(36, 0, FaultKind::panic_now()).with_fault(
        36,
        1,
        FaultKind::panic_now(),
    );
    let exec: Arc<dyn TaskExecutor> =
        Arc::new(ChaosExecutor::new(Arc::new(OptimizedExecutor::default()), plan));
    let cfg = ClusterConfig {
        n_workers: 2,
        task_size: 12,
        checkpoint: Some(ckpt.to_path_buf()),
        ..Default::default()
    };
    let err = run_cluster_with(ctx, exec, &cfg).expect_err("both workers must die");
    assert!(
        matches!(err, ClusterError::AllWorkersFailed { unfinished_tasks: 1 }),
        "expected AllWorkersFailed with task 36 outstanding, got {err:?}"
    );
}

#[test]
fn killed_run_resumes_to_byte_identical_scores() {
    let ctx = planted(48);
    let ckpt = tmp("resume.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    run_until_cluster_death(&ctx, &ckpt);

    // Resume the interrupted sweep with a healthy executor.
    let cfg = ClusterConfig {
        n_workers: 2,
        task_size: 12,
        checkpoint: Some(ckpt.clone()),
        resume_from: Some(ckpt.clone()),
        ..Default::default()
    };
    let resumed =
        run_cluster_with(&ctx, Arc::new(OptimizedExecutor::default()), &cfg).expect("resume");
    assert_eq!(resumed.resumed_voxels, 36, "three of four tasks came from the checkpoint");
    assert_eq!(resumed.tasks_per_worker.iter().sum::<usize>(), 1, "only task 36 was recomputed");

    // Byte-identical to a run that was never interrupted.
    let uninterrupted =
        run_cluster(&ctx, Arc::new(OptimizedExecutor::default()), 2, 12, None).expect("healthy");
    assert_eq!(resumed.scores.len(), uninterrupted.scores.len());
    for (a, b) in resumed.scores.iter().zip(&uninterrupted.scores) {
        assert_eq!(a.voxel, b.voxel);
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits(), "voxel {}", a.voxel);
    }
}

#[test]
fn corrupted_checkpoint_is_rejected() {
    let ctx = planted(48);
    let ckpt = tmp("corrupt.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    run_until_cluster_death(&ctx, &ckpt);

    // Flip one hex digit inside a committed score record.
    let text = std::fs::read_to_string(&ckpt).unwrap();
    let tampered = text.replacen("3f", "3e", 1);
    assert_ne!(text, tampered, "fixture must contain a mantissa to corrupt");
    let bad = tmp("corrupt_tampered.ckpt");
    std::fs::write(&bad, tampered).unwrap();

    let cfg = ClusterConfig {
        n_workers: 2,
        task_size: 12,
        resume_from: Some(bad.clone()),
        ..Default::default()
    };
    let err = run_cluster_with(&ctx, Arc::new(OptimizedExecutor::default()), &cfg)
        .expect_err("tampered checkpoint must be rejected");
    assert!(
        matches!(err, ClusterError::Checkpoint(CheckpointError::Corrupt { .. })),
        "got {err:?}"
    );
}

#[test]
fn checkpoint_from_a_different_sweep_shape_is_rejected() {
    let ctx = planted(48);
    let ckpt = tmp("mismatch.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    run_until_cluster_death(&ctx, &ckpt);

    // Same file, different task partition: refuse rather than mix.
    let cfg = ClusterConfig {
        n_workers: 2,
        task_size: 16,
        resume_from: Some(ckpt.clone()),
        ..Default::default()
    };
    let err = run_cluster_with(&ctx, Arc::new(OptimizedExecutor::default()), &cfg)
        .expect_err("mismatched checkpoint must be rejected");
    assert!(
        matches!(err, ClusterError::CheckpointMismatch { found: (48, 12), expected: (48, 16) }),
        "got {err:?}"
    );
}
