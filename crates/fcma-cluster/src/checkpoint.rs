//! Checkpoint/resume for partial voxel sweeps.
//!
//! The master appends one self-checking record per completed task, so a
//! sweep killed at any point can resume from exactly the tasks already
//! scored. Accuracies are stored as raw IEEE-754 bit patterns, making a
//! resumed sweep **byte-identical** to an uninterrupted one (scores
//! depend only on the task, never on which worker ran it).
//!
//! Format (text, line-oriented):
//!
//! ```text
//! fcma-checkpoint v1 voxels=<n> task_size=<s>
//! task <start> <count>
//! <voxel> <accuracy-bits-as-16-hex-digits>     (count lines)
//! end <fnv1a64-of-the-record-body>
//! ```
//!
//! The loader verifies structure, voxel coverage, and the per-record
//! checksum; any violation inside a complete record is rejected as
//! [`CheckpointError::Corrupt`]. A partial record at end-of-file (the
//! writer died mid-append) is *dropped*, not rejected — that is the
//! normal shape of a killed sweep.

// An input boundary: product code here returns typed errors (DESIGN.md §10).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable
)]

use crate::error::CheckpointError;
use fcma_core::{VoxelScore, VoxelTask};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

const MAGIC: &str = "fcma-checkpoint v1";

/// One completed task and its scores, as recorded on disk.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// The task this record covers.
    pub task: VoxelTask,
    /// Scores for every voxel of the task, in voxel order.
    pub scores: Vec<VoxelScore>,
}

/// A parsed checkpoint file.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Total voxels of the sweep this checkpoint belongs to.
    pub n_voxels: usize,
    /// Task size of the sweep this checkpoint belongs to.
    pub task_size: usize,
    /// Completed tasks, in file order.
    pub tasks: Vec<TaskRecord>,
    /// Whether a trailing partial record was dropped during parsing.
    pub truncated_tail: bool,
}

impl Checkpoint {
    /// Parse and verify `path`.
    ///
    /// A file that ends inside its header line (no newline after it) is
    /// [`CheckpointError::BadHeader`] with `truncated` set: a cut header
    /// can read as a whole one for another sweep (`task_size=16` cut to
    /// `task_size=1`).
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let text = std::fs::read_to_string(path)
            .map_err(|error| CheckpointError::Io { path: path.to_path_buf(), error })?;
        if !text.contains('\n') {
            return Err(CheckpointError::BadHeader { line: text, truncated: true });
        }
        let lines: Vec<String> = text.lines().map(str::to_owned).collect();
        Self::parse(&lines)
    }

    /// Parse already-read lines (separated out for testability).
    fn parse(lines: &[String]) -> Result<Checkpoint, CheckpointError> {
        let header = lines
            .first()
            .ok_or_else(|| CheckpointError::BadHeader { line: String::new(), truncated: false })?;
        let (n_voxels, task_size) = parse_header(header)?;
        let mut tasks: Vec<TaskRecord> = Vec::new();
        let mut truncated_tail = false;
        let mut i = 1usize;
        while i < lines.len() {
            match parse_record(lines, i) {
                Ok(Some((record, next))) => {
                    if tasks.iter().any(|t| t.task.start == record.task.start) {
                        return Err(CheckpointError::Corrupt {
                            line: i + 1,
                            reason: format!(
                                "duplicate record for task start {}",
                                record.task.start
                            ),
                        });
                    }
                    tasks.push(record);
                    i = next;
                }
                Ok(None) => {
                    // Partial trailing record: the writer was killed
                    // mid-append. Drop it and stop.
                    truncated_tail = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(Checkpoint { n_voxels, task_size, tasks, truncated_tail })
    }
}

fn parse_header(line: &str) -> Result<(usize, usize), CheckpointError> {
    let bad = || CheckpointError::BadHeader { line: line.to_owned(), truncated: false };
    let rest = line.strip_prefix(MAGIC).ok_or_else(bad)?;
    let mut n_voxels = None;
    let mut task_size = None;
    for field in rest.split_whitespace() {
        if let Some(v) = field.strip_prefix("voxels=") {
            n_voxels = v.parse().ok();
        } else if let Some(v) = field.strip_prefix("task_size=") {
            task_size = v.parse().ok();
        } else {
            return Err(bad());
        }
    }
    match (n_voxels, task_size) {
        (Some(n), Some(s)) if s > 0 => Ok((n, s)),
        _ => Err(bad()),
    }
}

/// Parse one record starting at line index `i`. Returns `Ok(None)` when
/// the record is incomplete because the file ends early (clean
/// truncation), `Err` on any structural or checksum violation.
fn parse_record(
    lines: &[String],
    i: usize,
) -> Result<Option<(TaskRecord, usize)>, CheckpointError> {
    let corrupt = |line: usize, reason: String| CheckpointError::Corrupt { line: line + 1, reason };
    let Some(head) = lines.get(i) else {
        return Ok(None);
    };
    let mut parts = head.split_whitespace();
    if parts.next() != Some("task") {
        return Err(corrupt(i, format!("expected `task <start> <count>`, got {head:?}")));
    }
    let (Some(start), Some(count)) = (
        parts.next().and_then(|s| s.parse::<usize>().ok()),
        parts.next().and_then(|s| s.parse::<usize>().ok()),
    ) else {
        return Err(corrupt(i, format!("malformed task line {head:?}")));
    };
    if count == 0 || parts.next().is_some() {
        return Err(corrupt(i, format!("malformed task line {head:?}")));
    }
    // A record needs `count` voxel lines plus the `end` line.
    let end = i.saturating_add(count).saturating_add(1);
    let (Some(body), Some(end_line)) = (lines.get(i + 1..end), lines.get(end)) else {
        return Ok(None);
    };
    let mut scores = Vec::with_capacity(count);
    let mut hasher = Fnv1a64::new();
    hasher.update(head.as_bytes());
    for (offset, line) in body.iter().enumerate() {
        let ln = i + 1 + offset;
        let mut parts = line.split_whitespace();
        let (Some(voxel), Some(bits)) = (
            parts.next().and_then(|s| s.parse::<usize>().ok()),
            parts.next().and_then(|s| u64::from_str_radix(s, 16).ok()),
        ) else {
            return Err(corrupt(ln, format!("malformed score line {line:?}")));
        };
        if parts.next().is_some() {
            return Err(corrupt(ln, format!("malformed score line {line:?}")));
        }
        let expected_voxel = start.saturating_add(offset);
        if voxel != expected_voxel {
            return Err(corrupt(
                ln,
                format!("voxel {voxel} out of order (expected {expected_voxel})"),
            ));
        }
        hasher.update(line.as_bytes());
        scores.push(VoxelScore { voxel, accuracy: f64::from_bits(bits) });
    }
    let Some(stored) = end_line.strip_prefix("end ") else {
        return Err(corrupt(end, format!("expected `end <checksum>`, got {end_line:?}")));
    };
    let Ok(stored) = u64::from_str_radix(stored.trim(), 16) else {
        return Err(corrupt(end, format!("unparseable checksum {end_line:?}")));
    };
    if stored != hasher.finish() {
        return Err(corrupt(
            end,
            format!("checksum mismatch (stored {stored:016x}, computed {:016x})", hasher.finish()),
        ));
    }
    Ok(Some((TaskRecord { task: VoxelTask { start, count }, scores }, end + 1)))
}

/// Incremental checkpoint writer: one flushed record per completed task.
#[derive(Debug)]
pub(crate) struct CheckpointWriter {
    path: PathBuf,
    file: BufWriter<std::fs::File>,
}

impl CheckpointWriter {
    /// Create (truncate) `path` and write the sweep header.
    pub(crate) fn create(
        path: &Path,
        n_voxels: usize,
        task_size: usize,
    ) -> Result<Self, CheckpointError> {
        let map_io =
            |error: std::io::Error| CheckpointError::Io { path: path.to_path_buf(), error };
        let file = std::fs::File::create(path).map_err(map_io)?;
        let mut w = CheckpointWriter { path: path.to_path_buf(), file: BufWriter::new(file) };
        writeln!(w.file, "{MAGIC} voxels={n_voxels} task_size={task_size}").map_err(map_io)?;
        w.file.flush().map_err(map_io)?;
        Ok(w)
    }

    /// Open `path` for appending further records (resume into the same
    /// file). The caller is responsible for having validated the header
    /// via [`Checkpoint::load`].
    pub(crate) fn append(path: &Path) -> Result<Self, CheckpointError> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|error| CheckpointError::Io { path: path.to_path_buf(), error })?;
        Ok(CheckpointWriter { path: path.to_path_buf(), file: BufWriter::new(file) })
    }

    /// Append one completed task. `scores` must cover the task's voxels
    /// in order (the scheduler guarantees this). Flushes before
    /// returning so a later kill cannot lose the record.
    pub(crate) fn record(
        &mut self,
        task: VoxelTask,
        scores: &[VoxelScore],
    ) -> Result<(), CheckpointError> {
        let map_io = |error: std::io::Error| CheckpointError::Io { path: self.path.clone(), error };
        let head = format!("task {} {}", task.start, task.count);
        let mut hasher = Fnv1a64::new();
        hasher.update(head.as_bytes());
        writeln!(self.file, "{head}").map_err(map_io)?;
        for s in scores {
            let line = format!("{} {:016x}", s.voxel, s.accuracy.to_bits());
            hasher.update(line.as_bytes());
            writeln!(self.file, "{line}").map_err(map_io)?;
        }
        writeln!(self.file, "end {:016x}", hasher.finish()).map_err(map_io)?;
        self.file.flush().map_err(map_io)
    }
}

/// FNV-1a (64-bit) — tiny, dependency-free integrity hash. This guards
/// against corruption, not adversaries.
struct Fnv1a64 {
    state: u64,
}

impl Fnv1a64 {
    fn new() -> Self {
        Fnv1a64 { state: 0xcbf2_9ce4_8422_2325 }
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fcma_checkpoint_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    fn sample_scores(task: VoxelTask) -> Vec<VoxelScore> {
        task.range().map(|v| VoxelScore { voxel: v, accuracy: 0.5 + v as f64 * 1e-3 }).collect()
    }

    fn completed_starts(ck: &Checkpoint) -> Vec<usize> {
        ck.tasks.iter().map(|t| t.task.start).collect()
    }

    #[test]
    fn roundtrip_preserves_bits_exactly() {
        let path = tmp("roundtrip.ckpt");
        let t0 = VoxelTask { start: 0, count: 4 };
        let t1 = VoxelTask { start: 4, count: 4 };
        let mut w = CheckpointWriter::create(&path, 8, 4).expect("create");
        w.record(t0, &sample_scores(t0)).expect("record");
        w.record(t1, &sample_scores(t1)).expect("record");
        drop(w);
        let ck = Checkpoint::load(&path).expect("load");
        assert_eq!((ck.n_voxels, ck.task_size), (8, 4));
        assert_eq!(completed_starts(&ck), vec![0, 4]);
        assert!(!ck.truncated_tail);
        let all = ck.tasks.iter().flat_map(|t| &t.scores);
        for (a, b) in all.zip(sample_scores(t0).iter().chain(&sample_scores(t1))) {
            assert_eq!(a.voxel, b.voxel);
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        }
    }

    #[test]
    fn append_resumes_the_same_file() {
        let path = tmp("append.ckpt");
        let t0 = VoxelTask { start: 0, count: 2 };
        let t1 = VoxelTask { start: 2, count: 2 };
        let mut w = CheckpointWriter::create(&path, 4, 2).expect("create");
        w.record(t0, &sample_scores(t0)).expect("record");
        drop(w);
        let mut w = CheckpointWriter::append(&path).expect("append");
        w.record(t1, &sample_scores(t1)).expect("record");
        drop(w);
        assert_eq!(completed_starts(&Checkpoint::load(&path).expect("load")), vec![0, 2]);
    }

    #[test]
    fn flipped_bit_is_rejected() {
        let path = tmp("corrupt.ckpt");
        let t0 = VoxelTask { start: 0, count: 3 };
        let mut w = CheckpointWriter::create(&path, 3, 3).expect("create");
        w.record(t0, &sample_scores(t0)).expect("record");
        drop(w);
        let text = std::fs::read_to_string(&path).expect("read");
        // Flip one hex digit of the second score line.
        let corrupted = text.replacen("3f", "3e", 1);
        assert_ne!(text, corrupted, "expected a 3f hex digit to corrupt");
        std::fs::write(&path, corrupted).expect("write");
        match Checkpoint::load(&path) {
            Err(CheckpointError::Corrupt { reason, .. }) => {
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn partial_tail_is_dropped_not_rejected() {
        let path = tmp("tail.ckpt");
        let t0 = VoxelTask { start: 0, count: 2 };
        let mut w = CheckpointWriter::create(&path, 6, 2).expect("create");
        w.record(t0, &sample_scores(t0)).expect("record");
        drop(w);
        // Simulate a kill mid-append: a task header with only one of two
        // score lines and no end marker. A count running past the end of
        // the file, `usize::MAX` included, reads the same way.
        let text = std::fs::read_to_string(&path).expect("read");
        for tail in ["task 2 2\n2 3fe0000000000000\n", "task 2 18446744073709551615\n"] {
            std::fs::write(&path, format!("{text}{tail}")).expect("write");
            let ck = Checkpoint::load(&path).expect("load");
            assert_eq!(completed_starts(&ck), vec![0]);
            assert!(ck.truncated_tail);
        }
    }

    #[test]
    fn bad_header_and_structure_are_rejected() {
        let path = tmp("badheader.ckpt");
        std::fs::write(&path, "not a checkpoint\n").expect("write");
        assert!(matches!(Checkpoint::load(&path), Err(CheckpointError::BadHeader { .. })));

        let path = tmp("badrecord.ckpt");
        std::fs::write(&path, format!("{MAGIC} voxels=4 task_size=2\ngarbage line\nmore\nend 0\n"))
            .expect("write");
        assert!(matches!(Checkpoint::load(&path), Err(CheckpointError::Corrupt { .. })));

        let path = tmp("dup.ckpt");
        let t0 = VoxelTask { start: 0, count: 2 };
        let mut w = CheckpointWriter::create(&path, 4, 2).expect("create");
        w.record(t0, &sample_scores(t0)).expect("record");
        w.record(t0, &sample_scores(t0)).expect("record");
        drop(w);
        assert!(matches!(Checkpoint::load(&path), Err(CheckpointError::Corrupt { .. })));
    }

    #[test]
    fn header_cut_at_any_point_is_a_truncated_header() {
        let path = tmp("cutheader.ckpt");
        let t0 = VoxelTask { start: 0, count: 16 };
        let mut w = CheckpointWriter::create(&path, 48, 16).expect("create");
        w.record(t0, &sample_scores(t0)).expect("record");
        drop(w);
        let whole = std::fs::read(&path).expect("read");
        let header_len = whole.iter().position(|&b| b == b'\n').expect("header line");
        // Every cut from the empty file to the header without its newline;
        // `...task_size=1` among them parses as a header of another sweep.
        for cut in 0..=header_len {
            std::fs::write(&path, &whole[..cut]).expect("write");
            match Checkpoint::load(&path) {
                Err(e @ CheckpointError::BadHeader { truncated: true, .. }) => {
                    assert!(e.to_string().contains("truncated"), "cut {cut}: {e}");
                }
                other => panic!("cut {cut}: expected a truncated header, got {other:?}"),
            }
        }
        // With its newline the header is whole: a sweep with no tasks yet.
        std::fs::write(&path, &whole[..=header_len]).expect("write");
        let ck = Checkpoint::load(&path).expect("whole header");
        assert_eq!((ck.n_voxels, ck.task_size, ck.tasks.len()), (48, 16, 0));
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = tmp("nonexistent.ckpt");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(Checkpoint::load(&path), Err(CheckpointError::Io { .. })));
    }
}
