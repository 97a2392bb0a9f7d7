//! Threaded master–worker scheduler — the MPI stand-in, grown into a
//! fault-tolerant subsystem.
//!
//! Workers are OS threads; channels replace MPI point-to-point messages.
//! The protocol and load-balancing policy are the paper's (§3.1.1): the
//! master keeps a queue of voxel-block tasks, every worker processes one
//! task at a time, and a finishing worker immediately receives the next
//! task — dynamic load balancing, no static assignment.
//!
//! **Fault tolerance** (beyond the paper):
//!
//! * a worker that panics reports [`FromWorker::Failed`] and dies; its
//!   task is requeued and re-dispatched to any still-idle worker —
//!   workers are never shut down while work is outstanding, so a late
//!   failure cannot strand a task;
//! * per-task **retry budgets** bound how often a task may be
//!   re-executed before the run aborts with a typed error;
//! * optional per-task **deadlines** detect *hung* (not just panicked)
//!   workers: an overdue worker is condemned (its [`fcma_core::CancelToken`]
//!   fires, its late results are discarded) and the task re-dispatched;
//! * optional **speculative re-execution** launches a duplicate copy of
//!   a straggling task on an idle worker — first valid result wins;
//! * optional **checkpointing** appends every completed task to a
//!   [`crate::checkpoint`] file, and a sweep can resume from one,
//!   producing byte-identical scores.
//!
//! Every failure path returns a [`ClusterError`]; the scheduler never
//! panics on worker misbehavior.

use crate::checkpoint::{Checkpoint, CheckpointWriter};
use crate::error::ClusterError;
use crate::protocol::{FromWorker, ToWorker};
use fcma_core::{
    partition, CancelToken, TaskContext, TaskControls, TaskExecutor, VoxelScore, VoxelTask,
};
use fcma_sync::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use fcma_sync::time::Instant;
use fcma_trace::postmortem::PostmortemTrigger;
use fcma_trace::recorder::{EventKind, FlightLog};
use fcma_trace::{counter, event, histogram, span, AttrValue, TraceCtx, TraceOrigin};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Scheduling policy and fault-tolerance knobs for one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker threads (the paper's coprocessors).
    pub n_workers: usize,
    /// Voxels per task.
    pub task_size: usize,
    /// Re-dispatches allowed per task after its first attempt. Failing
    /// past the budget aborts the run with
    /// [`ClusterError::RetryBudgetExhausted`].
    pub retry_budget: usize,
    /// Declare a dispatch hung once it has run this long: the worker is
    /// condemned and the task re-dispatched. `None` disables hang
    /// detection (a truly wedged worker then blocks the run).
    pub task_deadline: Option<Duration>,
    /// Launch a speculative duplicate of a task still running after this
    /// long, if an idle worker is available. First valid result wins;
    /// the loser's result is discarded. `None` disables speculation.
    pub speculate_after: Option<Duration>,
    /// Master wake-up granularity when no timer is pending.
    pub heartbeat: Duration,
    /// Append every completed task to this checkpoint file.
    pub checkpoint: Option<PathBuf>,
    /// Resume from this checkpoint: its tasks are trusted and not
    /// re-executed. May equal `checkpoint` to continue the same file.
    pub resume_from: Option<PathBuf>,
    /// Optional cross-validation grouping override (see
    /// [`fcma_core::TaskExecutor::process_grouped`]).
    pub groups: Option<Arc<Vec<usize>>>,
    /// Kernel threads each worker's executor uses for its parallel
    /// loops (the pool embedded in the executor; see
    /// [`fcma_sync::pool::Pool`]). Purely informational to the driver —
    /// the executor carries its own pool — but recorded here so one
    /// config describes the whole run shape, and defaulted from the
    /// `FCMA_THREADS` environment variable.
    pub kernel_threads: usize,
    /// Write a flight-recorder postmortem dump (`fcma-postmortem v2`,
    /// this run's events only) into this directory whenever the run
    /// hits a fault: a task panic,
    /// a worker condemnation, a deadline fence discarding a late
    /// message, or a checkpoint-resume mismatch. `None` disables dumps;
    /// emission failures are ignored (postmortems must never take down
    /// the run they describe).
    pub postmortem_dir: Option<PathBuf>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n_workers: 4,
            task_size: 64,
            retry_budget: 2,
            task_deadline: None,
            speculate_after: None,
            heartbeat: Duration::from_millis(10),
            checkpoint: None,
            resume_from: None,
            groups: None,
            kernel_threads: fcma_sync::pool::Pool::from_env().threads(),
            postmortem_dir: None,
        }
    }
}

impl ClusterConfig {
    /// A config with the given worker count and task size and default
    /// fault-tolerance policy.
    pub fn new(n_workers: usize, task_size: usize) -> Self {
        ClusterConfig { n_workers, task_size, ..Default::default() }
    }
}

/// Per-task outcome of one cluster run: how many executions the task
/// cost and how long it was outstanding. Exposed so the trace layer and
/// tests can assert on scheduler behavior without reaching into driver
/// internals.
#[derive(Debug, Clone, PartialEq, Eq)]
// audit: allow(deadpub) — embedded in the public ClusterRun returned by run_cluster; demotion trips private_interfaces
pub struct TaskStat {
    /// The task.
    pub task: VoxelTask,
    /// Non-speculative dispatches this task needed (1 = first try
    /// succeeded; 0 for resumed tasks).
    pub attempts: usize,
    /// Wall time from first dispatch to accepted completion
    /// ([`Duration::ZERO`] for resumed tasks).
    pub wall: Duration,
    /// Worker whose result was accepted (`None` for resumed tasks).
    pub worker: Option<usize>,
    /// Whether the scores came from the resume checkpoint.
    pub resumed: bool,
}

/// Statistics of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// All voxel scores, sorted by voxel index.
    pub scores: Vec<VoxelScore>,
    /// Per-task attempt counts and wall times, sorted by task start.
    pub task_stats: Vec<TaskStat>,
    /// Tasks processed per worker (load-balance visibility). Resumed
    /// tasks are not attributed to any worker.
    pub tasks_per_worker: Vec<usize>,
    /// Tasks that had to be requeued after a failure or hang.
    pub requeued_tasks: usize,
    /// Workers that died by panicking during the run.
    pub failed_workers: Vec<usize>,
    /// Workers condemned as hung by deadline detection.
    pub hung_workers: Vec<usize>,
    /// Speculative duplicate dispatches launched for stragglers.
    pub speculative_launches: usize,
    /// Results discarded as duplicates or as late answers from
    /// condemned workers.
    pub duplicate_results: usize,
    /// Voxels whose scores came from the resume checkpoint.
    pub resumed_voxels: usize,
}

/// Run a full voxel sweep on `n_workers` worker threads with the
/// default fault-tolerance policy. See [`run_cluster_with`].
///
/// # Errors
/// Returns a [`ClusterError`] if the sweep cannot complete — zero
/// workers, every worker lost, or a task exhausting its retry budget.
pub fn run_cluster(
    ctx: &TaskContext,
    exec: Arc<dyn TaskExecutor>,
    n_workers: usize,
    task_size: usize,
    groups: Option<Arc<Vec<usize>>>,
) -> Result<ClusterRun, ClusterError> {
    let cfg = ClusterConfig { n_workers, task_size, groups, ..Default::default() };
    run_cluster_with(ctx, exec, &cfg)
}

/// Run a full voxel sweep under an explicit [`ClusterConfig`].
///
/// Worker threads are detached: a condemned hung worker is abandoned to
/// its fate (its cancellation token is set, its results are ignored)
/// rather than joined, mirroring how a real cluster fences a dead node.
///
/// # Errors
/// Returns a [`ClusterError`] on any unrecoverable failure: no workers,
/// a zero task size, an unreadable or mismatched checkpoint, every
/// worker lost with work outstanding, or a task failing past its retry
/// budget. Recoverable failures (individual panics, hangs, stragglers)
/// are absorbed and reported in the returned [`ClusterRun`] statistics.
pub fn run_cluster_with(
    ctx: &TaskContext,
    exec: Arc<dyn TaskExecutor>,
    cfg: &ClusterConfig,
) -> Result<ClusterRun, ClusterError> {
    if cfg.n_workers == 0 {
        return Err(ClusterError::NoWorkers);
    }
    if cfg.task_size == 0 {
        return Err(ClusterError::ZeroTaskSize);
    }
    let all_tasks = partition(ctx.n_voxels(), cfg.task_size);
    let total_tasks = all_tasks.len();
    let run_span = span!(
        "cluster.run",
        workers = cfg.n_workers,
        tasks = total_tasks,
        task_size = cfg.task_size,
        kernel_threads = cfg.kernel_threads
    );
    counter!("cluster.tasks.total", total_tasks);
    // This run's flight log: shared with its workers, read by its
    // postmortems, freed when the last of them is done with it.
    let log = FlightLog::new();

    // Seed completed work from the resume checkpoint, if any.
    let mut completed: BTreeSet<usize> = BTreeSet::new();
    let mut scores: Vec<VoxelScore> = Vec::with_capacity(ctx.n_voxels());
    let mut resumed_records = Vec::new();
    let mut resumed_voxels = 0usize;
    if let Some(path) = &cfg.resume_from {
        let ck = Checkpoint::load(path)?;
        if (ck.n_voxels, ck.task_size) != (ctx.n_voxels(), cfg.task_size) {
            let no_attempt = TraceCtx::new(0, 0, TraceOrigin::Dispatch);
            log.record(EventKind::ResumeMismatch, no_attempt, ck.n_voxels);
            emit_postmortem(cfg.postmortem_dir.as_deref(), &log, "resume.mismatch", 0, 0, 0);
            return Err(ClusterError::CheckpointMismatch {
                found: (ck.n_voxels, ck.task_size),
                expected: (ctx.n_voxels(), cfg.task_size),
            });
        }
        for rec in ck.tasks {
            completed.insert(rec.task.start);
            resumed_voxels += rec.scores.len();
            scores.extend(rec.scores.iter().copied());
            resumed_records.push(rec);
        }
        counter!("cluster.tasks.resumed", resumed_records.len());
    }
    let mut writer = match &cfg.checkpoint {
        Some(path) => {
            if cfg.resume_from.as_deref() == Some(path.as_path()) {
                Some(CheckpointWriter::append(path)?)
            } else {
                // Fresh file: replay resumed records so any checkpoint is
                // self-contained.
                let mut w = CheckpointWriter::create(path, ctx.n_voxels(), cfg.task_size)?;
                for rec in &resumed_records {
                    w.record(rec.task, &rec.scores)?;
                    counter!("cluster.checkpoint.records", 1_u64);
                }
                Some(w)
            }
        }
        None => None,
    };
    drop(resumed_records);

    let resumed_starts: BTreeSet<usize> = completed.iter().copied().collect();
    let queue: VecDeque<VoxelTask> =
        all_tasks.iter().copied().filter(|t| !completed.contains(&t.start)).collect();

    // Spawn detached workers.
    let (to_master_tx, to_master_rx): (Sender<FromWorker>, Receiver<FromWorker>) = unbounded();
    let mut workers = Vec::with_capacity(cfg.n_workers);
    for wid in 0..cfg.n_workers {
        workers.push(spawn_worker(
            wid,
            ctx.clone(),
            Arc::clone(&exec),
            cfg.groups.clone(),
            to_master_tx.clone(),
            cfg.task_deadline,
            log.clone(),
        ));
    }
    drop(to_master_tx);

    let mut master = Master {
        workers,
        queue,
        completed,
        scores,
        writer: writer.take(),
        attempts: BTreeMap::new(),
        in_flight: BTreeMap::new(),
        current: vec![None; cfg.n_workers],
        first_dispatched: BTreeMap::new(),
        finished_stats: BTreeMap::new(),
        retry_budget: cfg.retry_budget,
        task_deadline: cfg.task_deadline,
        speculate_after: cfg.speculate_after,
        heartbeat: cfg.heartbeat.max(Duration::from_millis(1)),
        tasks_per_worker: vec![0; cfg.n_workers],
        requeued_tasks: 0,
        failed_workers: Vec::new(),
        hung_workers: Vec::new(),
        speculative_launches: 0,
        duplicate_results: 0,
        postmortem_dir: cfg.postmortem_dir.clone(),
        log,
    };
    let outcome = master.run(&to_master_rx, total_tasks);
    master.shutdown_workers();
    drop(run_span);
    outcome?;

    let task_stats: Vec<TaskStat> = all_tasks
        .iter()
        .map(|&task| {
            if resumed_starts.contains(&task.start) {
                TaskStat { task, attempts: 0, wall: Duration::ZERO, worker: None, resumed: true }
            } else {
                master.finished_stats.remove(&task.start).unwrap_or(TaskStat {
                    task,
                    attempts: master.attempts.get(&task.start).copied().unwrap_or(0),
                    wall: Duration::ZERO,
                    worker: None,
                    resumed: false,
                })
            }
        })
        .collect();

    let mut scores = master.scores;
    scores.sort_by_key(|s| s.voxel);
    let complete =
        scores.len() == ctx.n_voxels() && scores.iter().enumerate().all(|(i, s)| s.voxel == i);
    if !complete {
        return Err(ClusterError::IncompleteSweep {
            scored: scores.len(),
            expected: ctx.n_voxels(),
        });
    }
    Ok(ClusterRun {
        scores,
        task_stats,
        tasks_per_worker: master.tasks_per_worker,
        requeued_tasks: master.requeued_tasks,
        failed_workers: master.failed_workers,
        hung_workers: master.hung_workers,
        speculative_launches: master.speculative_launches,
        duplicate_results: master.duplicate_results,
        resumed_voxels,
    })
}

/// Master-side view of one worker.
struct WorkerState {
    tx: Sender<ToWorker>,
    cancel: CancelToken,
    /// Believed healthy (not panicked, not condemned).
    alive: bool,
    /// Ready for a task.
    idle: bool,
    /// Declared hung; its results are discarded.
    condemned: bool,
}

/// One copy of a task currently executing on some worker.
struct FlightCopy {
    worker: usize,
    started: Instant,
}

/// The dispatch a worker is currently executing, from the master's point
/// of view. Every dispatch is resolved exactly once — completed,
/// discarded, failed, condemned, or cancelled at shutdown — which is
/// what makes the `cluster.tasks.*` trace counters balance.
#[derive(Clone, Copy)]
struct DispatchInfo {
    task: VoxelTask,
    started: Instant,
    attempt: usize,
    speculative: bool,
}

/// How one dispatch ended (the `outcome` attribute of its
/// `cluster.dispatch` span).
#[derive(Clone, Copy)]
enum DispatchOutcome {
    /// Fresh, accepted result.
    Completed,
    /// Valid result discarded (speculative loser or truncated).
    Discarded,
    /// The worker panicked.
    Failed,
    /// The worker was condemned as hung.
    Condemned,
    /// Still outstanding when the run ended.
    Cancelled,
}

impl DispatchOutcome {
    fn counter_name(self) -> &'static str {
        match self {
            DispatchOutcome::Completed => "cluster.tasks.completed",
            DispatchOutcome::Discarded => "cluster.tasks.discarded",
            DispatchOutcome::Failed => "cluster.tasks.failed",
            DispatchOutcome::Condemned => "cluster.tasks.condemned",
            DispatchOutcome::Cancelled => "cluster.tasks.cancelled",
        }
    }

    fn label(self) -> &'static str {
        match self {
            DispatchOutcome::Completed => "completed",
            DispatchOutcome::Discarded => "discarded",
            DispatchOutcome::Failed => "failed",
            DispatchOutcome::Condemned => "condemned",
            DispatchOutcome::Cancelled => "cancelled",
        }
    }
}

/// A task with at least one copy in flight.
struct Flight {
    task: VoxelTask,
    copies: Vec<FlightCopy>,
    first_started: Instant,
    speculated: bool,
}

/// All mutable master-loop state, so the event handlers can share it.
struct Master {
    workers: Vec<WorkerState>,
    queue: VecDeque<VoxelTask>,
    completed: BTreeSet<usize>,
    scores: Vec<VoxelScore>,
    writer: Option<CheckpointWriter>,
    /// Non-speculative dispatches per task start.
    attempts: BTreeMap<usize, usize>,
    in_flight: BTreeMap<usize, Flight>,
    /// The dispatch each worker is currently executing (trace + stats
    /// accounting; resolved exactly once per dispatch).
    current: Vec<Option<DispatchInfo>>,
    /// First dispatch time per task start (per-task wall-time stats).
    first_dispatched: BTreeMap<usize, Instant>,
    /// Per-task outcome stats, filled at accepted completion.
    finished_stats: BTreeMap<usize, TaskStat>,
    retry_budget: usize,
    task_deadline: Option<Duration>,
    speculate_after: Option<Duration>,
    heartbeat: Duration,
    tasks_per_worker: Vec<usize>,
    requeued_tasks: usize,
    failed_workers: Vec<usize>,
    hung_workers: Vec<usize>,
    speculative_launches: usize,
    duplicate_results: usize,
    /// Directory for flight-recorder postmortem dumps (`None`: off).
    postmortem_dir: Option<PathBuf>,
    /// This run's flight log (the workers hold the other handles).
    log: FlightLog,
}

/// The causal identity of one dispatch of `task`: a speculative clone
/// keeps the straggler's attempt number under origin `speculative`,
/// while a retry advances the attempt under origin `retry` — so the two
/// are distinguishable everywhere downstream.
fn causal_ctx(task: VoxelTask, attempt: usize, speculative: bool) -> TraceCtx {
    let origin = if speculative {
        TraceOrigin::Speculative
    } else if attempt <= 1 {
        TraceOrigin::Dispatch
    } else {
        TraceOrigin::Retry
    };
    TraceCtx::new(
        u64::try_from(task.start).unwrap_or(u64::MAX),
        u32::try_from(attempt).unwrap_or(u32::MAX),
        origin,
    )
}

/// Dump `log` for a fault into `dir` (`None`: dumps are off).
/// Best-effort by contract: a postmortem must never take down the run
/// it describes.
fn emit_postmortem(
    dir: Option<&Path>,
    log: &FlightLog,
    kind: &'static str,
    task: usize,
    attempt: usize,
    worker: usize,
) {
    let Some(dir) = dir else {
        return;
    };
    let trigger = PostmortemTrigger {
        kind,
        task: u64::try_from(task).unwrap_or(u64::MAX),
        attempt: u32::try_from(attempt).unwrap_or(u32::MAX),
        worker: u64::try_from(worker).unwrap_or(u64::MAX),
    };
    let _ = fcma_trace::postmortem::emit_to_dir(dir, &log.snapshot(), &trigger);
}

impl Master {
    /// Dump this run's flight log for a fault.
    fn postmortem(&self, kind: &'static str, task: usize, attempt: usize, worker: usize) {
        emit_postmortem(self.postmortem_dir.as_deref(), &self.log, kind, task, attempt, worker);
    }

    /// The event loop: dispatch, receive, recover, until every task is
    /// complete or the run is unrecoverable.
    fn run(&mut self, rx: &Receiver<FromWorker>, total_tasks: usize) -> Result<(), ClusterError> {
        loop {
            self.dispatch_to_idle();
            if self.completed.len() == total_tasks {
                return Ok(());
            }
            if !self.workers.iter().any(|w| w.alive) {
                return Err(ClusterError::AllWorkersFailed {
                    unfinished_tasks: total_tasks - self.completed.len(),
                });
            }
            match rx.recv_timeout(self.next_timeout()) {
                Ok(msg) => self.handle(msg)?,
                Err(RecvTimeoutError::Timeout) => self.check_deadlines()?,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ClusterError::AllWorkersFailed {
                        unfinished_tasks: total_tasks - self.completed.len(),
                    });
                }
            }
        }
    }

    /// Hand queued tasks to every idle healthy worker. This runs after
    /// every event, so a task requeued by a late failure goes straight
    /// to a waiting worker — the fix for the old driver's stranding bug
    /// (workers are no longer shut down while work is outstanding).
    fn dispatch_to_idle(&mut self) {
        while !self.queue.is_empty() {
            let Some(wid) = self.workers.iter().position(|w| w.alive && w.idle) else {
                return;
            };
            let Some(task) = self.queue.pop_front() else {
                return;
            };
            if !self.dispatch(task, wid, false) {
                // The worker was found dead at send time; put the task
                // back and try the next candidate.
                self.queue.push_front(task);
            }
        }
    }

    /// Send `task` to `wid`; returns `false` if the worker is gone.
    ///
    /// The dispatch's causal identity ([`causal_ctx`]) is computed before
    /// the send and rides the message.
    // audit: allow(panicpath) — worker ids are stamped at spawn time and dense in 0..workers.len()
    fn dispatch(&mut self, task: VoxelTask, wid: usize, speculative: bool) -> bool {
        let prior = self.attempts.get(&task.start).copied().unwrap_or(0);
        let attempt = if speculative { prior } else { prior + 1 };
        let ctx = causal_ctx(task, attempt, speculative);
        if self.workers[wid].tx.send(ToWorker::Task { task, ctx }).is_err() {
            self.workers[wid].alive = false;
            self.workers[wid].idle = false;
            return false;
        }
        self.workers[wid].idle = false;
        let now = Instant::now();
        if speculative {
            self.speculative_launches += 1;
            counter!("cluster.tasks.speculative", 1_u64);
            event!("cluster.speculate", task = task.start, worker = wid);
            self.log.record(EventKind::Speculate, ctx, wid);
        } else {
            *self.attempts.entry(task.start).or_insert(0) += 1;
            self.log.record(EventKind::Dispatch, ctx, wid);
        }
        counter!("cluster.tasks.dispatched", 1_u64);
        self.current[wid] = Some(DispatchInfo { task, started: now, attempt, speculative });
        self.first_dispatched.entry(task.start).or_insert(now);
        let flight = self.in_flight.entry(task.start).or_insert_with(|| Flight {
            task,
            copies: Vec::new(),
            first_started: now,
            speculated: false,
        });
        if speculative {
            flight.speculated = true;
        }
        flight.copies.push(FlightCopy { worker: wid, started: now });
        true
    }

    /// Resolve worker `wid`'s outstanding dispatch with `outcome`:
    /// record its `cluster.dispatch` span, wall-time histogram sample,
    /// and outcome counter. Every dispatch reaches this exactly once.
    // audit: allow(panicpath) — worker ids are stamped at spawn time and dense in 0..workers.len()
    fn resolve_dispatch(&mut self, wid: usize, outcome: DispatchOutcome) -> Option<DispatchInfo> {
        let info = self.current[wid].take()?;
        if fcma_trace::is_enabled() {
            fcma_trace::add_counter(outcome.counter_name(), 1_u64);
            histogram!("cluster.dispatch.wall_ms", info.started.elapsed().as_secs_f64() * 1e3);
            fcma_trace::record_span_elapsed(
                "cluster.dispatch",
                vec![
                    ("task", AttrValue::from(info.task.start)),
                    ("worker", AttrValue::from(wid)),
                    ("attempt", AttrValue::from(info.attempt)),
                    ("speculative", AttrValue::from(info.speculative)),
                    ("outcome", AttrValue::from(outcome.label())),
                ],
                info.started.elapsed(),
            );
        }
        Some(info)
    }

    fn handle(&mut self, msg: FromWorker) -> Result<(), ClusterError> {
        match msg {
            FromWorker::Ready { .. } => Ok(()), // workers start idle; informational
            FromWorker::Done { worker, task, ctx, scores } => {
                self.on_done(worker, task, ctx, scores)
            }
            FromWorker::Failed { worker, task, ctx } => self.on_failed(worker, task, ctx),
        }
    }

    /// Fence off a late message from a condemned worker: the attempt is
    /// dead to the scheduler, and the fence timestamp is the causality
    /// boundary `fcma report --check` enforces (no record attributed to
    /// the fenced attempt may start after it).
    fn fence(&mut self, worker: usize, task: VoxelTask, ctx: TraceCtx) {
        event!("cluster.fence", worker = worker, task = task.start, attempt = ctx.attempt);
        self.log.record(EventKind::Fence, ctx, worker);
        self.postmortem(
            "deadline.fence",
            task.start,
            usize::try_from(ctx.attempt).unwrap_or(usize::MAX),
            worker,
        );
    }

    // audit: allow(panicpath) — worker ids are stamped at spawn time and dense in 0..workers.len()
    fn on_done(
        &mut self,
        worker: usize,
        task: VoxelTask,
        ctx: TraceCtx,
        task_scores: Vec<VoxelScore>,
    ) -> Result<(), ClusterError> {
        if self.workers[worker].condemned {
            // A late answer from a worker we already declared hung: the
            // task was re-dispatched elsewhere, so this result (possibly
            // truncated by cancellation) is discarded. Its dispatch was
            // already resolved as condemned — only fence it off.
            self.fence(worker, task, ctx);
            self.duplicate_results += 1;
            return Ok(());
        }
        self.workers[worker].idle = true;
        if let Some(flight) = self.in_flight.get_mut(&task.start) {
            flight.copies.retain(|c| c.worker != worker);
        }
        let fresh = !self.completed.contains(&task.start);
        let accepted = fresh && task_scores.len() == task.count;
        let outcome =
            if accepted { DispatchOutcome::Completed } else { DispatchOutcome::Discarded };
        let _ = self.resolve_dispatch(worker, outcome);
        if accepted {
            // Under the model checker this is the at-most-once oracle:
            // two accepted completions of one task are a defect.
            fcma_sync::runtime::report_completion(u64::try_from(task.start).unwrap_or(u64::MAX));
            self.completed.insert(task.start);
            self.tasks_per_worker[worker] += 1;
            self.finished_stats.insert(
                task.start,
                TaskStat {
                    task,
                    attempts: self.attempts.get(&task.start).copied().unwrap_or(0),
                    wall: self
                        .first_dispatched
                        .get(&task.start)
                        .map_or(Duration::ZERO, Instant::elapsed),
                    worker: Some(worker),
                    resumed: false,
                },
            );
            if let Some(w) = self.writer.as_mut() {
                w.record(task, &task_scores)?;
                counter!("cluster.checkpoint.records", 1_u64);
                event!("cluster.checkpoint", task = task.start, scores = task_scores.len());
            }
            self.scores.extend(task_scores);
            self.in_flight.remove(&task.start);
            Ok(())
        } else {
            // Either a speculative duplicate of an already-completed
            // task, or a truncated result — discard, and requeue if the
            // task is somehow left with no running copy.
            self.duplicate_results += 1;
            self.requeue_if_abandoned(task)
        }
    }

    // audit: allow(panicpath) — worker ids are stamped at spawn time and dense in 0..workers.len()
    fn on_failed(
        &mut self,
        worker: usize,
        task: VoxelTask,
        ctx: TraceCtx,
    ) -> Result<(), ClusterError> {
        let state = &mut self.workers[worker];
        let was_condemned = state.condemned;
        state.alive = false;
        state.idle = false;
        if was_condemned {
            // Already resolved as condemned when the deadline fired.
            self.fence(worker, task, ctx);
        } else {
            self.failed_workers.push(worker);
            let _ = self.resolve_dispatch(worker, DispatchOutcome::Failed);
            self.postmortem(
                "task.panic",
                task.start,
                usize::try_from(ctx.attempt).unwrap_or(usize::MAX),
                worker,
            );
        }
        if let Some(flight) = self.in_flight.get_mut(&task.start) {
            flight.copies.retain(|c| c.worker != worker);
        }
        self.requeue_if_abandoned(task)
    }

    /// Requeue `task` unless it is completed, still running somewhere,
    /// or already queued. Enforces the retry budget.
    fn requeue_if_abandoned(&mut self, task: VoxelTask) -> Result<(), ClusterError> {
        if self.completed.contains(&task.start) {
            return Ok(());
        }
        if self.in_flight.get(&task.start).is_some_and(|f| !f.copies.is_empty()) {
            return Ok(());
        }
        if self.queue.iter().any(|t| t.start == task.start) {
            return Ok(());
        }
        self.in_flight.remove(&task.start);
        let attempts = self.attempts.get(&task.start).copied().unwrap_or(0);
        if attempts > self.retry_budget {
            return Err(ClusterError::RetryBudgetExhausted { task, attempts });
        }
        self.requeued_tasks += 1;
        counter!("cluster.tasks.requeued", 1_u64);
        self.queue.push_back(task);
        Ok(())
    }

    /// Wake-up interval: the earliest pending hang/speculation timer, or
    /// the heartbeat when none is armed.
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut earliest: Option<Instant> = None;
        let mut consider = |t: Instant| {
            earliest = Some(earliest.map_or(t, |e| e.min(t)));
        };
        if let Some(deadline) = self.task_deadline {
            for flight in self.in_flight.values() {
                for copy in &flight.copies {
                    consider(copy.started + deadline);
                }
            }
        }
        if let Some(spec) = self.speculate_after {
            for flight in self.in_flight.values() {
                if !flight.speculated && !flight.copies.is_empty() {
                    consider(flight.first_started + spec);
                }
            }
        }
        match earliest {
            Some(t) => t.saturating_duration_since(now).max(Duration::from_millis(1)),
            None => self.heartbeat,
        }
    }

    /// Fire expired hang deadlines and due speculation timers.
    // audit: allow(panicpath) — worker ids are stamped at spawn time and dense in 0..workers.len()
    fn check_deadlines(&mut self) -> Result<(), ClusterError> {
        let now = Instant::now();
        if let Some(deadline) = self.task_deadline {
            // Collect expirations first; condemning touches worker state.
            let mut expirations: Vec<(VoxelTask, Vec<usize>)> = Vec::new();
            for flight in self.in_flight.values_mut() {
                let mut overdue = Vec::new();
                flight.copies.retain(|c| {
                    if now.duration_since(c.started) >= deadline {
                        overdue.push(c.worker);
                        false
                    } else {
                        true
                    }
                });
                if !overdue.is_empty() {
                    expirations.push((flight.task, overdue));
                }
            }
            for (task, overdue) in expirations {
                for wid in overdue {
                    let state = &mut self.workers[wid];
                    state.cancel.cancel();
                    state.alive = false;
                    state.idle = false;
                    let newly_condemned = !state.condemned;
                    if newly_condemned {
                        state.condemned = true;
                        self.hung_workers.push(wid);
                        event!("cluster.condemn", worker = wid, task = task.start);
                        let info = self.resolve_dispatch(wid, DispatchOutcome::Condemned);
                        let (attempt, speculative) =
                            info.map_or((0, false), |i| (i.attempt, i.speculative));
                        let ctx = causal_ctx(task, attempt, speculative);
                        self.log.record(EventKind::Condemn, ctx, wid);
                        self.postmortem("worker.condemned", task.start, attempt, wid);
                    }
                }
                self.requeue_if_abandoned(task)?;
            }
        }
        if let Some(spec) = self.speculate_after {
            let due: Vec<VoxelTask> = self
                .in_flight
                .values()
                .filter(|f| {
                    !f.speculated
                        && !f.copies.is_empty()
                        && now.duration_since(f.first_started) >= spec
                })
                .map(|f| f.task)
                .collect();
            for task in due {
                let Some(wid) = self.workers.iter().position(|w| w.alive && w.idle) else {
                    break;
                };
                let _ = self.dispatch(task, wid, true);
            }
        }
        Ok(())
    }

    /// Tell every worker to stop: cancellation for the condemned and
    /// in-flight, `Shutdown` for the idle. Workers are detached, so this
    /// does not block on stragglers. Dispatches still outstanding (e.g.
    /// a speculative loser that never reported) resolve as cancelled so
    /// the dispatch accounting balances.
    fn shutdown_workers(&mut self) {
        for wid in 0..self.workers.len() {
            let _ = self.resolve_dispatch(wid, DispatchOutcome::Cancelled);
        }
        for w in &self.workers {
            w.cancel.cancel();
            let _ = w.tx.send(ToWorker::Shutdown);
        }
    }
}

/// Spawn one detached worker thread serving tasks until shutdown,
/// disconnect, or its own death, and return the master's handle on it.
// audit: allow(panicpath) — executor panics are contained by catch_unwind and reported as FromWorker::Failed
fn spawn_worker(
    wid: usize,
    ctx: TaskContext,
    exec: Arc<dyn TaskExecutor>,
    groups: Option<Arc<Vec<usize>>>,
    to_master: Sender<FromWorker>,
    task_deadline: Option<Duration>,
    log: FlightLog,
) -> WorkerState {
    let (tx, rx): (Sender<ToWorker>, Receiver<ToWorker>) = unbounded();
    let cancel = CancelToken::new();
    let controls = TaskControls { cancel: cancel.clone(), deadline: task_deadline };
    fcma_sync::thread::spawn(move || {
        if to_master.send(FromWorker::Ready { worker: wid }).is_err() {
            return;
        }
        while let Ok(msg) = rx.recv() {
            match msg {
                ToWorker::Task { task, ctx: trace_ctx } => {
                    if controls.cancel.is_cancelled() {
                        return;
                    }
                    // Install the dispatch's causal identity for the
                    // duration of the executor call: every span, event,
                    // and recorder entry below — including on pool
                    // threads — is stamped with it.
                    let ctx_guard: fcma_trace::CtxGuard = trace_ctx.install();
                    log.record(EventKind::TaskStart, trace_ctx, wid);
                    // Contain executor panics: report the failure so the
                    // master can requeue, then die (a crashed node does
                    // not come back).
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        exec.process_with_controls(
                            &ctx,
                            task,
                            groups.as_deref().map(|g| &g[..]),
                            &controls,
                        )
                    }));
                    drop(ctx_guard);
                    match result {
                        Ok(scores) => {
                            log.record(EventKind::TaskEnd, trace_ctx, wid);
                            if to_master
                                .send(FromWorker::Done {
                                    worker: wid,
                                    task,
                                    ctx: trace_ctx,
                                    scores,
                                })
                                .is_err()
                            {
                                return;
                            }
                        }
                        Err(_) => {
                            log.record(EventKind::TaskPanic, trace_ctx, wid);
                            let _ = to_master.send(FromWorker::Failed {
                                worker: wid,
                                task,
                                ctx: trace_ctx,
                            });
                            return;
                        }
                    }
                }
                ToWorker::Shutdown => return,
            }
        }
    });
    WorkerState { tx, cancel, alive: true, idle: true, condemned: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ChaosExecutor, FaultKind, FaultPlan};
    use fcma_core::{score_all_voxels, OptimizedExecutor};
    use fcma_fmri::presets;

    fn ctx() -> TaskContext {
        let mut cfg = presets::tiny();
        cfg.n_voxels = 64;
        cfg.n_informative = 8;
        let (d, _) = cfg.generate();
        TaskContext::full(&d)
    }

    fn assert_full_coverage(run: &ClusterRun, n_voxels: usize) {
        let voxels: Vec<usize> = run.scores.iter().map(|s| s.voxel).collect();
        let expect: Vec<usize> = (0..n_voxels).collect();
        assert_eq!(voxels, expect);
    }

    #[test]
    fn cluster_matches_sequential_execution() {
        let ctx = ctx();
        let exec = OptimizedExecutor::default();
        let sequential = score_all_voxels(&ctx, &exec, 16, None);
        let run = run_cluster(&ctx, Arc::new(exec), 3, 16, None).expect("healthy run");
        assert_eq!(run.scores.len(), sequential.len());
        assert!(run.failed_workers.is_empty());
        for (a, b) in run.scores.iter().zip(&sequential) {
            assert_eq!(a.voxel, b.voxel);
            assert!(
                (a.accuracy - b.accuracy).abs() < 1e-9,
                "voxel {}: {} vs {}",
                a.voxel,
                a.accuracy,
                b.accuracy
            );
        }
    }

    #[test]
    fn every_voxel_scored_exactly_once() {
        let ctx = ctx();
        let run =
            run_cluster(&ctx, Arc::new(OptimizedExecutor::default()), 4, 10, None).expect("run");
        assert_full_coverage(&run, ctx.n_voxels());
    }

    #[test]
    fn all_tasks_accounted_for() {
        let ctx = ctx();
        let run =
            run_cluster(&ctx, Arc::new(OptimizedExecutor::default()), 3, 10, None).expect("run");
        let total: usize = run.tasks_per_worker.iter().sum();
        assert_eq!(total, ctx.n_voxels().div_ceil(10));
    }

    #[test]
    fn single_worker_cluster_works() {
        let ctx = ctx();
        let run =
            run_cluster(&ctx, Arc::new(OptimizedExecutor::default()), 1, 16, None).expect("run");
        assert_eq!(run.scores.len(), ctx.n_voxels());
        assert_eq!(run.tasks_per_worker, vec![4]);
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let ctx = ctx();
        let run =
            run_cluster(&ctx, Arc::new(OptimizedExecutor::default()), 8, 32, None).expect("run");
        assert_eq!(run.scores.len(), ctx.n_voxels());
        assert!(run.tasks_per_worker.iter().filter(|&&t| t > 0).count() <= 2);
    }

    #[test]
    fn custom_groups_flow_through() {
        let ctx = ctx();
        let groups: Vec<usize> = (0..ctx.n_epochs()).map(|e| e % 2).collect();
        let run = run_cluster(
            &ctx,
            Arc::new(OptimizedExecutor::default()),
            2,
            16,
            Some(Arc::new(groups)),
        )
        .expect("run");
        assert_eq!(run.scores.len(), ctx.n_voxels());
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let ctx = ctx();
        let r = run_cluster(&ctx, Arc::new(OptimizedExecutor::default()), 0, 16, None);
        assert!(matches!(r, Err(ClusterError::NoWorkers)));
    }

    #[test]
    fn zero_task_size_is_a_typed_error() {
        let ctx = ctx();
        let cfg = ClusterConfig { n_workers: 2, task_size: 0, ..Default::default() };
        let r = run_cluster_with(&ctx, Arc::new(OptimizedExecutor::default()), &cfg);
        assert!(matches!(r, Err(ClusterError::ZeroTaskSize)));
    }

    #[test]
    fn failed_task_is_requeued_and_run_completes() {
        let ctx = ctx();
        let exec = ChaosExecutor::panic_once(Arc::new(OptimizedExecutor::default()), 16);
        let run = run_cluster(&ctx, Arc::new(exec), 3, 16, None).expect("recovers");
        assert_eq!(run.requeued_tasks, 1);
        assert_eq!(run.failed_workers.len(), 1);
        assert_full_coverage(&run, ctx.n_voxels());
    }

    #[test]
    fn survives_failure_with_one_healthy_worker_left() {
        let ctx = ctx();
        let exec = ChaosExecutor::panic_once(Arc::new(OptimizedExecutor::default()), 0);
        let run = run_cluster(&ctx, Arc::new(exec), 2, 32, None).expect("recovers");
        assert_eq!(run.scores.len(), ctx.n_voxels());
        assert_eq!(run.requeued_tasks, 1);
    }

    #[test]
    fn losing_every_worker_is_a_typed_error() {
        let ctx = ctx();
        let exec = ChaosExecutor::panic_once(Arc::new(OptimizedExecutor::default()), 0);
        let r = run_cluster(&ctx, Arc::new(exec), 1, 32, None);
        assert!(matches!(r, Err(ClusterError::AllWorkersFailed { .. })), "got {r:?}");
    }

    #[test]
    fn retry_budget_exhaustion_is_a_typed_error() {
        let ctx = ctx();
        // Task 0 panics on every allowed attempt (budget 2 → 3 tries).
        let plan = FaultPlan::none()
            .with_fault(0, 0, FaultKind::panic_now())
            .with_fault(0, 1, FaultKind::panic_now())
            .with_fault(0, 2, FaultKind::panic_now());
        let exec = ChaosExecutor::new(Arc::new(OptimizedExecutor::default()), plan);
        let cfg = ClusterConfig { n_workers: 5, task_size: 16, ..Default::default() };
        let r = run_cluster_with(&ctx, Arc::new(exec), &cfg);
        match r {
            Err(ClusterError::RetryBudgetExhausted { task, attempts }) => {
                assert_eq!(task.start, 0);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected RetryBudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn hung_worker_is_condemned_and_task_redispatched() {
        // Virtual time: however slow the build, healthy tasks take none.
        let _clock = fcma_sync::clock::VirtualClock::install();
        let ctx = ctx();
        let plan = FaultPlan::none().with_fault(0, 0, FaultKind::Stall);
        let exec = ChaosExecutor::new(Arc::new(OptimizedExecutor::default()), plan);
        let cfg = ClusterConfig {
            n_workers: 2,
            task_size: 32,
            task_deadline: Some(Duration::from_millis(500)),
            heartbeat: Duration::from_millis(5),
            ..Default::default()
        };
        let run = run_cluster_with(&ctx, Arc::new(exec), &cfg).expect("recovers from hang");
        assert_eq!(run.hung_workers.len(), 1);
        assert!(run.failed_workers.is_empty());
        assert_eq!(run.requeued_tasks, 1);
        assert_full_coverage(&run, ctx.n_voxels());
    }

    #[test]
    fn straggler_triggers_speculative_copy() {
        let _clock = fcma_sync::clock::VirtualClock::install();
        let ctx = ctx();
        let plan = FaultPlan::none().with_fault(0, 0, FaultKind::Delay(Duration::from_millis(400)));
        let exec = ChaosExecutor::new(Arc::new(OptimizedExecutor::default()), plan);
        let cfg = ClusterConfig {
            n_workers: 2,
            task_size: 32,
            speculate_after: Some(Duration::from_millis(40)),
            heartbeat: Duration::from_millis(5),
            ..Default::default()
        };
        let run = run_cluster_with(&ctx, Arc::new(exec), &cfg).expect("speculation covers");
        assert!(run.speculative_launches >= 1, "no speculation launched");
        assert!(run.failed_workers.is_empty() && run.hung_workers.is_empty());
        assert_full_coverage(&run, ctx.n_voxels());
    }
}
