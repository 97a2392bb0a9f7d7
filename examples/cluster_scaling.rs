//! Cluster execution and scaling (paper §3.1.1, §5.3).
//!
//! Part 1 runs the *real* threaded master–worker framework (the MPI
//! stand-in) and shows the dynamic load balancing at work.
//!
//! Part 2 feeds measured per-task times into the discrete-event scaling
//! model to project elapsed time and speedup out to the paper's 96
//! coprocessors (Fig. 8's experiment at laptop scale).
//!
//! ```sh
//! cargo run --release --example cluster_scaling
//! ```

use fcma::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut config = fcma::fmri::presets::tiny();
    config.n_voxels = 192;
    config.n_informative = 16;
    let (dataset, _) = config.generate();
    let ctx = TaskContext::full(&dataset);
    let task_size = 16;

    // ---- Part 1: real threaded master-worker run ----
    println!("== threaded master-worker framework ==");
    let exec: Arc<dyn TaskExecutor> = Arc::new(OptimizedExecutor::default());
    for workers in [1usize, 2, 4] {
        let t0 = Instant::now();
        let run = run_cluster(&ctx, Arc::clone(&exec), workers, task_size, None)
            .expect("healthy cluster run");
        println!(
            "{} workers: {:>8.2?}  tasks/worker {:?}",
            workers,
            t0.elapsed(),
            run.tasks_per_worker
        );
        assert_eq!(run.scores.len(), ctx.n_voxels());
    }

    // Same sweep under injected faults: two workers crash mid-task (the
    // second twice in a row) and the master requeues and re-dispatches
    // their work to the survivors.
    println!("\n== fault-injected run (chaos plan) ==");
    let plan = FaultPlan::none()
        .with_fault(0, 0, FaultKind::panic_now())
        .with_fault(64, 0, FaultKind::panic_now())
        .with_fault(64, 1, FaultKind::panic_now());
    let chaos: Arc<dyn TaskExecutor> =
        Arc::new(ChaosExecutor::new(Arc::new(OptimizedExecutor::default()), plan));
    let cfg = ClusterConfig { n_workers: 4, task_size, retry_budget: 4, ..Default::default() };
    let run = run_cluster_with(&ctx, chaos, &cfg).expect("chaos run recovers");
    println!(
        "4 workers under chaos: requeued {} task(s), lost {} worker(s), all {} voxels scored",
        run.requeued_tasks,
        run.failed_workers.len(),
        run.scores.len()
    );
    assert_eq!(run.scores.len(), ctx.n_voxels());

    // ---- Part 2: discrete-event projection to cluster scale ----
    println!("\n== discrete-event scaling model (Fig. 8 shape) ==");
    // Measure one task's wall time, then project it to the paper's
    // full-brain width (34,470 voxels): stage-1/3 work per task scales
    // linearly with the brain size.
    let t0 = Instant::now();
    let _ = exec.process(&ctx, VoxelTask { start: 0, count: task_size });
    let full_brain = 34_470.0;
    let scale = full_brain / dataset.n_voxels() as f64;
    let task_secs = t0.elapsed().as_secs_f64() * scale;
    // Full-brain partition at the paper's 240-voxel tasks, 18 folds of
    // the offline analysis, like the face-scene run.
    let n_tasks = (full_brain / 240.0).ceil() as usize;
    let tasks: Vec<f64> = vec![task_secs; n_tasks * 18];
    let data_bytes = full_brain * dataset.n_timepoints() as f64 * 4.0;
    let model = ClusterModel { data_bytes, ..Default::default() };
    println!("projected full-brain task time: {task_secs:.2}s x {n_tasks} tasks x 18 folds");

    println!("nodes  elapsed(s)  speedup  efficiency");
    let t1 = model.simulate(&tasks, 1);
    for nodes in [1usize, 8, 16, 32, 64, 96] {
        let t = model.simulate(&tasks, nodes);
        let speedup = t1 / t;
        println!(
            "{:>5}  {:>10.2}  {:>7.1}  {:>9.0}%",
            nodes,
            t,
            speedup,
            speedup / nodes as f64 * 100.0
        );
    }
    println!("\nNear-linear speedup with efficiency tapering at high node counts,");
    println!("matching the shape of the paper's Fig. 8.");
}
