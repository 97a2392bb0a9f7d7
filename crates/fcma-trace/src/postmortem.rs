//! Postmortem dumps: when a cluster run hits a fault, its flight log
//! is snapshotted and rendered into a small, self-describing text
//! artifact (`fcma-postmortem v2`) that names the trigger, prints the
//! run's timeline, and extracts the causal chain of the task that
//! tripped the fault.
//!
//! The driver emits one automatically (into `ClusterConfig::
//! postmortem_dir`) on a task panic, a worker condemnation, a deadline
//! fence discarding a late message, or a checkpoint-resume mismatch.
//! A dump is plain line-oriented text, read with any text tool.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::recorder::RecorderEvent;

/// Magic first line of every dump; bump the suffix when the format
/// changes shape.
pub const POSTMORTEM_HEADER: &str = "fcma-postmortem v2";

/// Why a postmortem was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostmortemTrigger {
    /// Stable trigger kind: `task.panic`, `worker.condemned`,
    /// `deadline.fence`, or `resume.mismatch` (DESIGN.md §11 table).
    pub kind: &'static str,
    /// The task at fault (its start voxel).
    pub task: u64,
    /// The attempt at fault.
    pub attempt: u32,
    /// The worker involved.
    pub worker: u64,
}

/// Render one run's flight-log snapshot plus trigger into the
/// `fcma-postmortem v2` text format. Pure function of its inputs, so
/// the format is golden-testable. The causal chain is the timeline
/// restricted to the trigger's task.
#[must_use]
pub fn render(events: &[RecorderEvent], trigger: &PostmortemTrigger) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{POSTMORTEM_HEADER}");
    let _ = writeln!(
        out,
        "trigger: {} task={} attempt={} worker={}",
        trigger.kind, trigger.task, trigger.attempt, trigger.worker
    );
    let _ = writeln!(out, "events: {}", events.len());
    let _ = writeln!(out, "-- timeline --");
    for e in events {
        let _ = writeln!(
            out,
            "ts={} seq={} {} task={} attempt={} origin={} arg={}",
            e.ts_ns,
            e.seq,
            e.kind.name(),
            e.ctx.task,
            e.ctx.attempt,
            e.ctx.origin.as_str(),
            e.arg
        );
    }
    let _ = writeln!(out, "-- causal chain: task {} --", trigger.task);
    for e in events.iter().filter(|e| e.ctx.task == trigger.task) {
        let _ = writeln!(
            out,
            "ts={} seq={} {} attempt={} origin={} arg={}",
            e.ts_ns,
            e.seq,
            e.kind.name(),
            e.ctx.attempt,
            e.ctx.origin.as_str(),
            e.arg
        );
    }
    out
}

/// Write a dump of `events` for `trigger` into `dir` (created if
/// absent). The file name is derived from the trigger so repeated
/// faults in one run produce distinct artifacts.
///
/// # Errors
/// Propagates filesystem errors creating the directory or writing the
/// file.
pub fn emit_to_dir(
    dir: &Path,
    events: &[RecorderEvent],
    trigger: &PostmortemTrigger,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let kind = trigger.kind.replace('.', "-");
    let path =
        dir.join(format!("postmortem-{kind}-task{}-attempt{}.txt", trigger.task, trigger.attempt));
    std::fs::write(&path, render(events, trigger))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{TraceCtx, TraceOrigin};
    use crate::recorder::EventKind;

    /// One event of every kind: the golden test below is what pins the
    /// seven `recorder.*` wire names.
    fn sample_events() -> Vec<RecorderEvent> {
        let rows = [
            (100, EventKind::Dispatch, 64, 1, TraceOrigin::Dispatch, 1),
            (150, EventKind::TaskStart, 64, 1, TraceOrigin::Dispatch, 1),
            (200, EventKind::Dispatch, 128, 1, TraceOrigin::Dispatch, 2),
            (250, EventKind::TaskEnd, 128, 1, TraceOrigin::Dispatch, 2),
            (600, EventKind::Condemn, 64, 1, TraceOrigin::Dispatch, 1),
            (650, EventKind::Dispatch, 64, 2, TraceOrigin::Retry, 2),
            (900, EventKind::TaskPanic, 64, 2, TraceOrigin::Retry, 2),
            (990, EventKind::Fence, 64, 1, TraceOrigin::Dispatch, 1),
            (999, EventKind::ResumeMismatch, 0, 0, TraceOrigin::Dispatch, 96),
        ];
        (0u64..)
            .zip(rows)
            .map(|(seq, (ts_ns, kind, task, attempt, origin, arg))| RecorderEvent {
                seq,
                ts_ns,
                kind,
                ctx: TraceCtx::new(task, attempt, origin),
                arg,
            })
            .collect()
    }

    #[test]
    fn render_matches_golden() {
        let trigger = PostmortemTrigger { kind: "task.panic", task: 64, attempt: 2, worker: 2 };
        let got = render(&sample_events(), &trigger);
        let want = "\
fcma-postmortem v2
trigger: task.panic task=64 attempt=2 worker=2
events: 9
-- timeline --
ts=100 seq=0 recorder.dispatch task=64 attempt=1 origin=dispatch arg=1
ts=150 seq=1 recorder.task.start task=64 attempt=1 origin=dispatch arg=1
ts=200 seq=2 recorder.dispatch task=128 attempt=1 origin=dispatch arg=2
ts=250 seq=3 recorder.task.end task=128 attempt=1 origin=dispatch arg=2
ts=600 seq=4 recorder.condemn task=64 attempt=1 origin=dispatch arg=1
ts=650 seq=5 recorder.dispatch task=64 attempt=2 origin=retry arg=2
ts=900 seq=6 recorder.task.panic task=64 attempt=2 origin=retry arg=2
ts=990 seq=7 recorder.fence task=64 attempt=1 origin=dispatch arg=1
ts=999 seq=8 recorder.resume.mismatch task=0 attempt=0 origin=dispatch arg=96
-- causal chain: task 64 --
ts=100 seq=0 recorder.dispatch attempt=1 origin=dispatch arg=1
ts=150 seq=1 recorder.task.start attempt=1 origin=dispatch arg=1
ts=600 seq=4 recorder.condemn attempt=1 origin=dispatch arg=1
ts=650 seq=5 recorder.dispatch attempt=2 origin=retry arg=2
ts=900 seq=6 recorder.task.panic attempt=2 origin=retry arg=2
ts=990 seq=7 recorder.fence attempt=1 origin=dispatch arg=1
";
        assert_eq!(got, want);
    }

    #[test]
    fn emit_writes_the_rendered_dump() {
        let dir = std::env::temp_dir().join("fcma-postmortem-test");
        let trigger = PostmortemTrigger { kind: "resume.mismatch", task: 3, attempt: 2, worker: 0 };
        let path = emit_to_dir(&dir, &sample_events(), &trigger).expect("emit");
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some("postmortem-resume-mismatch-task3-attempt2.txt")
        );
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, render(&sample_events(), &trigger));
        let _ = std::fs::remove_file(&path);
    }
}
