//! Fault-tolerance integration tests for the cluster driver: the
//! stranded-task regression, checkpoint/resume equivalence, and
//! checkpoint validation.

use fcma::cluster::{CheckpointError, TaskRecord};
use fcma::prelude::*;
use fcma_mc::{replay, Config};
use fcma_sync::time::Instant;
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
    // The whole run is one fcma-mc schedule on virtual time: the 300 ms
    // fuse costs no wall time, and it fires only once no other thread
    // can run — i.e. strictly after the healthy worker went idle, which
    // is exactly the ordering this regression needs. No real-time race.
    replay(&Config::default(), &[], || {
        let start = Instant::now();
        let ctx = planted(64);
        // Two tasks, two workers. Task 0 panics only after a long fuse, so
        // the other worker has long since finished task 1 and sits idle
        // when the failure arrives.
        let plan = FaultPlan::none().with_fault(
            0,
            0,
            FaultKind::Panic { after: Duration::from_millis(300) },
        );
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
            start.elapsed() >= Duration::from_millis(300),
            "the panic fuse must have elapsed on virtual time, got {:?}",
            start.elapsed()
        );
    })
    .assert_pass();
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
        run_cluster(&ctx, Arc::new(OptimizedExecutor::default()), 2, 12).expect("healthy");
    assert_same_scores(&resumed.scores, &uninterrupted.scores, "resumed");
}

/// An uninterrupted checkpointed sweep of `ctx` in tasks of 12 on two
/// workers: its scores and the checkpoint's bytes.
fn whole_checkpoint(ctx: &TaskContext, name: &str) -> (Vec<VoxelScore>, Vec<u8>) {
    let ckpt = tmp(name);
    let cfg = ClusterConfig {
        n_workers: 2,
        task_size: 12,
        checkpoint: Some(ckpt.clone()),
        ..Default::default()
    };
    let run = run_cluster_with(ctx, Arc::new(OptimizedExecutor::default()), &cfg).expect("sweep");
    (run.scores, std::fs::read(&ckpt).unwrap())
}

fn assert_same_scores(got: &[VoxelScore], want: &[VoxelScore], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.voxel, b.voxel, "{what}");
        assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits(), "{what}: voxel {}", a.voxel);
    }
}

#[test]
fn checkpoint_cut_at_every_byte_loads_a_prefix_of_its_records() {
    let (_, whole) = whole_checkpoint(&planted(48), "every_byte_whole.ckpt");
    let header_end = whole.iter().position(|&b| b == b'\n').unwrap() + 1;
    // The byte offsets where a record ends: after each `end` line.
    let text = std::str::from_utf8(&whole).unwrap();
    let mut boundaries = vec![header_end];
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        at += line.len();
        if line.starts_with("end ") {
            boundaries.push(at);
        }
    }
    assert_eq!(boundaries.len(), 5, "four records");
    let records = |ck: &Checkpoint| -> Vec<(usize, Vec<u64>)> {
        let bits = |r: &TaskRecord| r.scores.iter().map(|s| s.accuracy.to_bits()).collect();
        ck.tasks.iter().map(|r| (r.task.start, bits(r))).collect()
    };
    let path = tmp("every_byte_cut.ckpt");
    std::fs::write(&path, &whole).unwrap();
    let all = records(&Checkpoint::load(&path).unwrap());
    for cut in 0..=whole.len() {
        std::fs::write(&path, &whole[..cut]).unwrap();
        let loaded = Checkpoint::load(&path);
        if cut < header_end {
            assert!(
                matches!(loaded, Err(CheckpointError::BadHeader { truncated: true, .. })),
                "cut {cut} inside the header: {loaded:?}"
            );
            continue;
        }
        let ck = loaded.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        let kept = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(records(&ck), all[..kept], "cut {cut}");
        assert_eq!(ck.complete_len, boundaries[kept] as u64, "cut {cut}");
        assert_eq!(ck.truncated_tail, !boundaries.contains(&cut), "cut {cut}");
    }
}

/// A sweep killed inside a `task` line, a score line or an `end` line
/// resumes to the uninterrupted scores, and the file that resume leaves
/// resumes again with nothing left to compute.
#[test]
fn cut_checkpoint_resumes_twice_to_byte_identical_scores() {
    let ctx = planted(48);
    let (want, whole) = whole_checkpoint(&ctx, "twice_whole.ckpt");
    let text = std::str::from_utf8(&whole).unwrap();
    // Into the second record's `task` line, its fifth score line and its
    // `end` line: each cut keeps one record and tears the next.
    let second_task = text.match_indices("\ntask ").nth(1).unwrap().0 + 1;
    let score = second_task + text[second_task..].match_indices('\n').nth(4).unwrap().0 + 1;
    let end = second_task + text[second_task..].find("\nend ").unwrap() + 1;
    let path = tmp("twice.ckpt");
    for (what, cut) in [("task", second_task + 6), ("score", score + 8), ("end", end + 9)] {
        std::fs::write(&path, &whole[..cut]).unwrap();
        let cfg = ClusterConfig {
            n_workers: 2,
            task_size: 12,
            checkpoint: Some(path.clone()),
            resume_from: Some(path.clone()),
            ..Default::default()
        };
        let first = run_cluster_with(&ctx, Arc::new(OptimizedExecutor::default()), &cfg)
            .unwrap_or_else(|e| panic!("cut in a {what} line, first resume: {e}"));
        assert_eq!(first.resumed_voxels, 12, "cut in a {what} line");
        assert_same_scores(&first.scores, &want, what);
        let second = run_cluster_with(&ctx, Arc::new(OptimizedExecutor::default()), &cfg)
            .unwrap_or_else(|e| panic!("cut in a {what} line, second resume: {e}"));
        assert_eq!(second.resumed_voxels, 48, "cut in a {what} line");
        assert_eq!(second.tasks_per_worker.iter().sum::<usize>(), 0, "cut in a {what} line");
        assert_same_scores(&second.scores, &want, what);
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!((ck.tasks.len(), ck.truncated_tail), (4, false), "cut in a {what} line");
    }
}

#[test]
fn corrupted_checkpoint_is_rejected() {
    let ctx = planted(48);
    let ckpt = tmp("corrupt.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    run_until_cluster_death(&ctx, &ckpt);

    // Flip one hex digit inside a committed score record (past the
    // header, whose digest may hold the same two digits).
    let text = std::fs::read_to_string(&ckpt).unwrap();
    let (header, records) = text.split_once('\n').unwrap();
    let tampered = format!("{header}\n{}", records.replacen("3f", "3e", 1));
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
    let shapes = match &err {
        ClusterError::CheckpointMismatch { found, expected } => {
            ((found.n_voxels, found.task_size), (expected.n_voxels, expected.task_size))
        }
        _ => panic!("got {err:?}"),
    };
    assert_eq!(shapes, ((48, 12), (48, 16)));
}
