//! Deterministic fault injection for the cluster scheduler.
//!
//! Recovery paths are only trustworthy if they are *tested* paths. This
//! module makes every failure mode of the master–worker protocol
//! reproducibly triggerable: a [`FaultPlan`] maps `(task, attempt)`
//! pairs to injected faults — panics (a crashed node), delays (a
//! straggler), stalls (a hung node) — and a [`ChaosExecutor`] wraps any
//! real [`TaskExecutor`] and fires those faults at exactly the planned
//! points. Plans are either built explicitly ([`FaultPlan::with_fault`])
//! or derived from a seed ([`FaultPlan::seeded`]), so a failing chaos
//! test reproduces from its seed alone.

use fcma_core::{TaskContext, TaskControls, TaskExecutor, VoxelScore, VoxelTask};
use fcma_sync::time::Instant;
use fcma_sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Granularity of cancellation polling inside injected waits.
const POLL_SLICE: Duration = Duration::from_millis(1);

/// Upper bound on an injected stall, so a plan that stalls a worker in a
/// run without deadline detection cannot wedge a test binary forever.
const STALL_CAP: Duration = Duration::from_secs(10);

/// One injectable failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep `after` (cooperatively), then panic — a node crash. The
    /// panic fires even if the dispatch was cancelled during the sleep:
    /// a crashing node does not honor cancellation.
    Panic {
        /// Delay before the crash (zero = immediate).
        after: Duration,
    },
    /// Sleep this long, then compute normally — a straggler. The sleep
    /// aborts early (returning no scores) if the dispatch is cancelled.
    Delay(Duration),
    /// Never make progress until cancelled — a hung node. Returns no
    /// scores once cancelled (or after an internal safety cap).
    Stall,
}

impl FaultKind {
    /// An immediate panic.
    pub fn panic_now() -> Self {
        FaultKind::Panic { after: Duration::ZERO }
    }
}

/// One planned fault: fire `kind` on the `attempt`-th execution
/// (0-based, counted per task across all workers) of the task starting
/// at voxel `task_start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// `VoxelTask::start` of the targeted task.
    pub task_start: usize,
    /// 0-based execution attempt the fault applies to.
    pub attempt: usize,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic schedule of injected faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builder: add one fault. Later entries for the same
    /// `(task, attempt)` pair are ignored (first match wins).
    #[must_use]
    pub fn with_fault(mut self, task_start: usize, attempt: usize, kind: FaultKind) -> Self {
        self.faults.push(FaultSpec { task_start, attempt, kind });
        self
    }

    /// The fault planned for this `(task, attempt)`, if any.
    pub fn fault_for(&self, task_start: usize, attempt: usize) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.task_start == task_start && f.attempt == attempt)
            .map(|f| f.kind)
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Derive a reproducible plan from a seed: for each task of a
    /// `partition(n_voxels, task_size)` sweep, inject a first-attempt
    /// panic with probability `panic_per_mille`/1000, escalate it to a
    /// repeated (second-attempt) panic with probability
    /// `repeat_per_mille`/1000, and otherwise inject a small straggler
    /// delay with probability `delay_per_mille`/1000. The same seed and
    /// shape always produce the same plan.
    pub fn seeded(
        seed: u64,
        n_voxels: usize,
        task_size: usize,
        panic_per_mille: u16,
        repeat_per_mille: u16,
        delay_per_mille: u16,
    ) -> Self {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut plan = FaultPlan::none();
        if task_size == 0 {
            return plan;
        }
        let mut start = 0usize;
        while start < n_voxels {
            let roll = splitmix64(&mut state) % 1000;
            if roll < u64::from(panic_per_mille) {
                plan = plan.with_fault(start, 0, FaultKind::panic_now());
                if splitmix64(&mut state) % 1000 < u64::from(repeat_per_mille) {
                    plan = plan.with_fault(start, 1, FaultKind::panic_now());
                }
            } else if roll < u64::from(panic_per_mille) + u64::from(delay_per_mille) {
                let ms = 1 + splitmix64(&mut state) % 4;
                plan = plan.with_fault(start, 0, FaultKind::Delay(Duration::from_millis(ms)));
            }
            start += task_size;
        }
        plan
    }
}

/// SplitMix64 step — the only PRNG this module needs, kept inline so the
/// library has no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A [`TaskExecutor`] wrapper that executes a [`FaultPlan`].
///
/// Attempt numbers are counted per task across all workers (a mutex-held
/// map), so "fail the first attempt, succeed the retry" is expressible
/// regardless of which workers the scheduler picks.
pub struct ChaosExecutor {
    inner: Arc<dyn TaskExecutor>,
    plan: FaultPlan,
    attempts: Mutex<BTreeMap<usize, usize>>,
}

impl ChaosExecutor {
    /// Wrap `inner`, injecting the faults of `plan`.
    pub fn new(inner: Arc<dyn TaskExecutor>, plan: FaultPlan) -> Self {
        ChaosExecutor { inner, plan, attempts: Mutex::new(BTreeMap::new()) }
    }

    /// Convenience: panic exactly once, on the first execution of the
    /// task starting at `task_start` (the classic crashed-node probe).
    pub fn panic_once(inner: Arc<dyn TaskExecutor>, task_start: usize) -> Self {
        Self::new(inner, FaultPlan::none().with_fault(task_start, 0, FaultKind::panic_now()))
    }

    /// Atomically fetch-and-increment the attempt counter for a task.
    fn next_attempt(&self, task_start: usize) -> usize {
        let mut map = self.attempts.lock();
        let slot = map.entry(task_start).or_insert(0);
        let attempt = *slot;
        *slot += 1;
        attempt
    }
}

/// Sleep `total` in cancellable slices on the facade clock (virtual
/// time under a [`fcma_sync::clock::VirtualClock`] or a model checker —
/// injected stalls then cost no wall time). Returns `false` if
/// cancellation fired before the sleep finished.
fn sleep_unless_cancelled(total: Duration, controls: &TaskControls) -> bool {
    let deadline = Instant::now() + total;
    loop {
        if controls.cancel.is_cancelled() {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        fcma_sync::thread::sleep(POLL_SLICE.min(deadline.saturating_duration_since(now)));
    }
}

impl TaskExecutor for ChaosExecutor {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn process_grouped(
        &self,
        ctx: &TaskContext,
        task: VoxelTask,
        groups: Option<&[usize]>,
    ) -> Vec<VoxelScore> {
        self.process_with_controls(ctx, task, groups, &TaskControls::unbounded())
    }

    fn process_with_controls(
        &self,
        ctx: &TaskContext,
        task: VoxelTask,
        groups: Option<&[usize]>,
        controls: &TaskControls,
    ) -> Vec<VoxelScore> {
        let attempt = self.next_attempt(task.start);
        match self.plan.fault_for(task.start, attempt) {
            Some(FaultKind::Panic { after }) => {
                if !after.is_zero() {
                    let _ = sleep_unless_cancelled(after, controls);
                }
                panic!("chaos: injected panic (task start {}, attempt {attempt})", task.start);
            }
            Some(FaultKind::Delay(d)) => {
                if !sleep_unless_cancelled(d, controls) {
                    return Vec::new();
                }
                self.inner.process_with_controls(ctx, task, groups, controls)
            }
            Some(FaultKind::Stall) => {
                let _ = sleep_unless_cancelled(STALL_CAP, controls);
                Vec::new()
            }
            None => self.inner.process_with_controls(ctx, task, groups, controls),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcma_core::CancelToken;

    #[test]
    fn plan_lookup_matches_task_and_attempt() {
        let plan = FaultPlan::none().with_fault(0, 0, FaultKind::panic_now()).with_fault(
            16,
            1,
            FaultKind::Delay(Duration::from_millis(2)),
        );
        assert_eq!(plan.fault_for(0, 0), Some(FaultKind::panic_now()));
        assert_eq!(plan.fault_for(0, 1), None);
        assert_eq!(plan.fault_for(16, 1), Some(FaultKind::Delay(Duration::from_millis(2))));
        assert_eq!(plan.fault_for(32, 0), None);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 640, 32, 300, 200, 100);
        let b = FaultPlan::seeded(42, 640, 32, 300, 200, 100);
        assert_eq!(a.faults, b.faults);
        let c = FaultPlan::seeded(43, 640, 32, 300, 200, 100);
        assert_ne!(a.faults, c.faults, "different seeds should differ for this shape");
    }

    #[test]
    fn seeded_rates_are_plausible() {
        // 1000 tasks at 500‰ panic rate: expect roughly half faulted.
        let plan = FaultPlan::seeded(7, 32_000, 32, 500, 0, 0);
        assert!((300..700).contains(&plan.len()), "got {} faults", plan.len());
        let none = FaultPlan::seeded(7, 32_000, 32, 0, 0, 0);
        assert!(none.is_empty());
    }

    #[test]
    fn cancellation_aborts_injected_sleep() {
        let controls = TaskControls { cancel: CancelToken::new(), deadline: None };
        controls.cancel.cancel();
        let t0 = Instant::now();
        assert!(!sleep_unless_cancelled(Duration::from_secs(5), &controls));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
}
