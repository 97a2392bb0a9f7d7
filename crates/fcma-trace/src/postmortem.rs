//! Postmortem dumps: when a cluster run hits a fault, its flight log
//! is snapshotted and rendered into a small, self-describing text
//! artifact (`fcma-postmortem v2`) that names the trigger, prints the
//! run's timeline, and extracts the causal chain of the task that
//! tripped the fault.
//!
//! The driver emits one automatically (into `ClusterConfig::
//! postmortem_dir`) on a task panic, a worker condemnation, a deadline
//! fence discarding a late message, or a checkpoint-resume mismatch.
//! `fcma postmortem <file>` re-parses and summarizes a dump with
//! [`validate`].

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

/// A parsed-back dump summary, as printed by `fcma postmortem`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostmortemSummary {
    /// The full `trigger:` line (minus the key).
    pub trigger: String,
    /// Declared event count from the header.
    pub events: usize,
    /// Lines in the causal-chain section.
    pub chain_len: usize,
}

/// Parse and check a dump: header magic, trigger line, event count
/// matching the timeline section, and a causal-chain section.
///
/// # Errors
/// Returns a human-readable description of the first malformation.
pub fn validate(text: &str) -> Result<PostmortemSummary, String> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    if header != POSTMORTEM_HEADER {
        return Err(format!("bad header {header:?}: want {POSTMORTEM_HEADER:?}"));
    }
    let trigger = lines
        .next()
        .and_then(|l| l.strip_prefix("trigger: "))
        .ok_or_else(|| "missing trigger line".to_string())?
        .to_string();
    let events: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("events: "))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| "missing events line".to_string())?;
    if lines.next() != Some("-- timeline --") {
        return Err("missing timeline section".to_string());
    }
    let mut timeline = 0usize;
    let mut chain_len = None;
    for line in lines {
        if let Some(rest) = line.strip_prefix("-- causal chain: ") {
            if !rest.ends_with(" --") {
                return Err(format!("malformed causal-chain marker {line:?}"));
            }
            chain_len = Some(0);
            continue;
        }
        match &mut chain_len {
            None => timeline += 1,
            Some(n) => *n += 1,
        }
    }
    if timeline != events {
        return Err(format!("events header says {events} but timeline has {timeline} lines"));
    }
    let chain_len = chain_len.ok_or_else(|| "missing causal-chain section".to_string())?;
    Ok(PostmortemSummary { trigger, events, chain_len })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{TraceCtx, TraceOrigin};
    use crate::recorder::EventKind;

    /// One event of every kind: the golden test below is what pins the
    /// eight `recorder.*` wire names.
    fn sample_events() -> Vec<RecorderEvent> {
        let rows = [
            (100, EventKind::Dispatch, 64, 1, TraceOrigin::Dispatch, 1),
            (150, EventKind::TaskStart, 64, 1, TraceOrigin::Dispatch, 1),
            (200, EventKind::Dispatch, 128, 1, TraceOrigin::Dispatch, 2),
            (250, EventKind::TaskEnd, 128, 1, TraceOrigin::Dispatch, 2),
            (600, EventKind::Speculate, 64, 1, TraceOrigin::Speculative, 2),
            (900, EventKind::TaskPanic, 64, 1, TraceOrigin::Speculative, 2),
            (950, EventKind::Condemn, 64, 1, TraceOrigin::Dispatch, 1),
            (980, EventKind::Dispatch, 64, 2, TraceOrigin::Retry, 3),
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
        let trigger = PostmortemTrigger { kind: "task.panic", task: 64, attempt: 1, worker: 2 };
        let got = render(&sample_events(), &trigger);
        let want = "\
fcma-postmortem v2
trigger: task.panic task=64 attempt=1 worker=2
events: 10
-- timeline --
ts=100 seq=0 recorder.dispatch task=64 attempt=1 origin=dispatch arg=1
ts=150 seq=1 recorder.task.start task=64 attempt=1 origin=dispatch arg=1
ts=200 seq=2 recorder.dispatch task=128 attempt=1 origin=dispatch arg=2
ts=250 seq=3 recorder.task.end task=128 attempt=1 origin=dispatch arg=2
ts=600 seq=4 recorder.speculate task=64 attempt=1 origin=speculative arg=2
ts=900 seq=5 recorder.task.panic task=64 attempt=1 origin=speculative arg=2
ts=950 seq=6 recorder.condemn task=64 attempt=1 origin=dispatch arg=1
ts=980 seq=7 recorder.dispatch task=64 attempt=2 origin=retry arg=3
ts=990 seq=8 recorder.fence task=64 attempt=1 origin=dispatch arg=1
ts=999 seq=9 recorder.resume.mismatch task=0 attempt=0 origin=dispatch arg=96
-- causal chain: task 64 --
ts=100 seq=0 recorder.dispatch attempt=1 origin=dispatch arg=1
ts=150 seq=1 recorder.task.start attempt=1 origin=dispatch arg=1
ts=600 seq=4 recorder.speculate attempt=1 origin=speculative arg=2
ts=900 seq=5 recorder.task.panic attempt=1 origin=speculative arg=2
ts=950 seq=6 recorder.condemn attempt=1 origin=dispatch arg=1
ts=980 seq=7 recorder.dispatch attempt=2 origin=retry arg=3
ts=990 seq=8 recorder.fence attempt=1 origin=dispatch arg=1
";
        assert_eq!(got, want);
    }

    #[test]
    fn rendered_dump_validates_and_summarizes() {
        let trigger =
            PostmortemTrigger { kind: "worker.condemned", task: 64, attempt: 1, worker: 1 };
        let text = render(&sample_events(), &trigger);
        let summary = validate(&text).expect("rendered dump must validate");
        assert_eq!(summary.trigger, "worker.condemned task=64 attempt=1 worker=1");
        assert_eq!(summary.events, 10);
        assert_eq!(summary.chain_len, 7);
    }

    #[test]
    fn validate_rejects_malformed_dumps() {
        assert!(validate("not a postmortem").is_err());
        assert!(validate("fcma-postmortem v2\n").is_err());
        assert!(validate("fcma-postmortem v1\n").is_err(), "the v1 shape had ring columns");
        let trigger = PostmortemTrigger { kind: "task.panic", task: 1, attempt: 0, worker: 0 };
        let mut text = render(&sample_events(), &trigger);
        text.push_str("ts=999 seq=9 recorder.fence task=1 attempt=0 origin=dispatch arg=0\n");
        // Extra chain lines are fine; a missing timeline line is not.
        assert!(validate(&text).is_ok());
        let truncated = text.replace(
            "ts=200 seq=2 recorder.dispatch task=128 attempt=1 origin=dispatch arg=2\n",
            "",
        );
        assert!(validate(&truncated).is_err());
    }

    #[test]
    fn emit_writes_a_validating_artifact() {
        let dir = std::env::temp_dir().join("fcma-postmortem-test");
        let trigger = PostmortemTrigger { kind: "resume.mismatch", task: 3, attempt: 2, worker: 0 };
        let path = emit_to_dir(&dir, &sample_events(), &trigger).expect("emit");
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some("postmortem-resume-mismatch-task3-attempt2.txt")
        );
        let text = std::fs::read_to_string(&path).expect("read back");
        let summary = validate(&text).expect("validate");
        assert!(summary.trigger.starts_with("resume.mismatch"));
        let _ = std::fs::remove_file(&path);
    }
}
