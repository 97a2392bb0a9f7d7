//! Chaos property test: for arbitrary seeded fault plans and cluster
//! shapes, a sweep either completes with every voxel scored exactly once
//! or returns a typed [`ClusterError`] — it never panics, never
//! duplicates a voxel, and never leaves a gap.
//!
//! The CI chaos suite runs this file under several fixed
//! `FCMA_CHAOS_SEED` values; the env seed is folded into every generated
//! seed so each CI leg explores a distinct, reproducible slice of the
//! fault space.

#![expect(clippy::disallowed_types, reason = "a test-wide cache of the shared task context")]

use fcma_cluster::{run_cluster_with, ChaosExecutor, ClusterConfig, ClusterError, FaultPlan};
use fcma_core::{OptimizedExecutor, TaskContext};
use fcma_fmri::presets;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const N_VOXELS: usize = 32;

/// One shared tiny dataset: chaos runs vary the scheduler, not the data.
fn ctx() -> &'static TaskContext {
    static CTX: OnceLock<TaskContext> = OnceLock::new();
    CTX.get_or_init(|| {
        let mut cfg = presets::tiny();
        cfg.n_voxels = N_VOXELS;
        cfg.n_informative = 8;
        let (d, _) = cfg.generate();
        TaskContext::full(&d)
    })
}

/// CI matrix seed, folded into every generated plan seed.
fn env_seed() -> u64 {
    std::env::var("FCMA_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// The core invariant: run under the plan and check exactly-once
/// coverage on success, typed errors on failure.
fn check_chaos_run(seed: u64, n_workers: usize, task_size: usize, panic_pm: u16, repeat_pm: u16) {
    let ctx = ctx();
    let plan = FaultPlan::seeded(seed, N_VOXELS, task_size, panic_pm, repeat_pm, 100);
    let exec: Arc<dyn fcma_core::TaskExecutor> =
        Arc::new(ChaosExecutor::new(Arc::new(OptimizedExecutor::default()), plan));
    let cfg = ClusterConfig { n_workers, task_size, retry_budget: 2, ..Default::default() };
    match run_cluster_with(ctx, exec, &cfg) {
        Ok(run) => {
            assert_eq!(run.scores.len(), N_VOXELS, "seed {seed}: wrong score count");
            for (i, s) in run.scores.iter().enumerate() {
                assert_eq!(s.voxel, i, "seed {seed}: voxel {i} missing or duplicated");
            }
        }
        // Losing every worker (small clusters under heavy panic rates) or
        // burning through a retry budget are legitimate, typed outcomes.
        Err(ClusterError::AllWorkersFailed { .. } | ClusterError::RetryBudgetExhausted { .. }) => {}
        Err(other) => panic!("seed {seed}: unexpected error {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exactly-once-or-typed-error over arbitrary seeds, worker counts,
    /// task sizes, and fault rates.
    #[test]
    fn chaos_runs_score_exactly_once_or_fail_typed(
        seed in any::<u64>(),
        n_workers in 1usize..7,
        task_size in 1usize..25,
        panic_pm in 0u16..500,
        repeat_pm in 0u16..400,
    ) {
        check_chaos_run(seed ^ env_seed(), n_workers, task_size, panic_pm, repeat_pm);
    }
}

/// The fixed-seed smoke leg the CI chaos matrix drives directly. The
/// sweep has 4 tasks and panics are non-repeating, so at most 4 workers
/// can die; with 5 workers every plan in the seed space must be fully
/// absorbed.
#[test]
fn fixed_seed_chaos_run_recovers() {
    let seed = env_seed().wrapping_add(42);
    let ctx = ctx();
    let plan = FaultPlan::seeded(seed, N_VOXELS, 8, 250, 0, 150);
    let exec: Arc<dyn fcma_core::TaskExecutor> =
        Arc::new(ChaosExecutor::new(Arc::new(OptimizedExecutor::default()), plan));
    let cfg = ClusterConfig { n_workers: 5, task_size: 8, retry_budget: 3, ..Default::default() };
    let run = run_cluster_with(ctx, exec, &cfg)
        .unwrap_or_else(|e| panic!("seed {seed}: 5 workers must absorb a 25% panic rate: {e}"));
    for (i, s) in run.scores.iter().enumerate() {
        assert_eq!(s.voxel, i);
    }
}
