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
//! fcma-checkpoint v2 voxels=<n> task_size=<s> digest=<16-hex-digits>
//! task <start> <count>
//! <voxel> <accuracy-bits-as-16-hex-digits>     (count lines)
//! end <fnv1a64-of-the-record-body>
//! ```
//!
//! The header names the sweep ([`SweepId`]): its shape, and an FNV-1a
//! digest of everything the scores depend on — the context's labels,
//! subjects and normalised epoch bits, and the executor's name — so a
//! resume over another dataset of the same shape is refused. A `v1`
//! header (shape only) still loads, with no digest, and so matches no
//! sweep.
//!
//! The loader verifies structure, voxel coverage, and the per-record
//! checksum; any violation inside a complete record is rejected as
//! [`CheckpointError::Corrupt`]. A record is complete once its `end`
//! line ends in `\n`. Whatever follows the last complete record (the
//! writer died mid-append, at any byte) is *dropped*, not rejected —
//! that is the normal shape of a killed sweep — and a resume that
//! appends to the file first cuts it back to that record's end, so the
//! file it leaves loads again.
//!
//! Records are written in completion order, so two checkpoints of one
//! sweep run by several workers hold the same records in different
//! orders: compare checkpoints by their loaded record sets, not byte for
//! byte.

// An input boundary: product code here returns typed errors (DESIGN.md §10).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable
)]

use crate::error::CheckpointError;
use fcma_core::{TaskContext, VoxelScore, VoxelTask};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

const MAGIC: &str = "fcma-checkpoint v2";
/// The shape-only header this format replaced.
const MAGIC_V1: &str = "fcma-checkpoint v1";

/// The sweep a checkpoint belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepId {
    /// Total voxels of the sweep.
    pub n_voxels: usize,
    /// Task size of the sweep.
    pub task_size: usize,
    /// Digest of the inputs the scores depend on ([`SweepId::of`]);
    /// `None` in a `v1` header, which has none.
    pub digest: Option<u64>,
}

impl SweepId {
    /// The id of a sweep of `ctx` in tasks of `task_size` by the executor
    /// named `executor`: one FNV-1a pass over the executor's name and,
    /// per epoch, its label, subject, shape and normalised bits.
    #[must_use]
    pub fn of(ctx: &TaskContext, task_size: usize, executor: &str) -> SweepId {
        let mut hasher = Fnv1a64::new();
        hasher.update(executor.as_bytes());
        let epochs = ctx.y.iter().zip(ctx.subjects.iter());
        for (e, (label, &subject)) in epochs.enumerate() {
            let brain = ctx.norm.brain(e);
            hasher.update(&label.to_bits().to_le_bytes());
            for n in [subject, brain.rows(), brain.cols()] {
                hasher.update(&u64::try_from(n).unwrap_or(u64::MAX).to_le_bytes());
            }
            for x in brain.as_slice() {
                hasher.update(&x.to_bits().to_le_bytes());
            }
        }
        SweepId { n_voxels: ctx.n_voxels(), task_size, digest: Some(hasher.finish()) }
    }

    /// The header line naming this sweep (`v1` when it has no digest).
    fn header(&self) -> String {
        let SweepId { n_voxels, task_size, digest } = self;
        match digest {
            Some(d) => format!("{MAGIC} voxels={n_voxels} task_size={task_size} digest={d:016x}"),
            None => format!("{MAGIC_V1} voxels={n_voxels} task_size={task_size}"),
        }
    }
}

impl std::fmt::Display for SweepId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} voxels / task size {} / ", self.n_voxels, self.task_size)?;
        match self.digest {
            Some(d) => write!(f, "digest {d:016x}"),
            None => write!(f, "no digest (a v1 checkpoint)"),
        }
    }
}

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
    /// The sweep this checkpoint belongs to, from its header.
    pub sweep: SweepId,
    /// Completed tasks, in file order.
    pub tasks: Vec<TaskRecord>,
    /// Whether anything after the last complete record was dropped
    /// during parsing.
    pub truncated_tail: bool,
    /// Byte offset where the last complete record ends (the header's
    /// end when there is none): what a resume into this file cuts it
    /// back to before appending.
    pub complete_len: u64,
}

impl Checkpoint {
    /// Parse and verify `path`.
    ///
    /// A file that ends inside its header line (no newline after it) is
    /// [`CheckpointError::BadHeader`] with `truncated` set: a cut header
    /// can read as a whole one for another sweep (`task_size=16` cut to
    /// `task_size=1`). Only lines that end in `\n` are read, for the same
    /// reason: a cut `task 16 16` line reads as `task 16 1`.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let text = std::fs::read_to_string(path)
            .map_err(|error| CheckpointError::Io { path: path.to_path_buf(), error })?;
        let Some(complete) = text.rfind('\n').and_then(|end| text.get(..=end)) else {
            return Err(CheckpointError::BadHeader { line: text, truncated: true });
        };
        let mut end = 0;
        let lines: Vec<Line<'_>> = complete
            .split_inclusive('\n')
            .map(|raw| {
                end += raw.len();
                Line { text: raw.lines().next().unwrap_or_default(), end }
            })
            .collect();
        Self::parse(&lines, text.len())
    }

    /// Parse the complete lines of a `file_len`-byte file (separated out
    /// for testability).
    fn parse(lines: &[Line<'_>], file_len: usize) -> Result<Checkpoint, CheckpointError> {
        let header = lines
            .first()
            .ok_or_else(|| CheckpointError::BadHeader { line: String::new(), truncated: false })?;
        let sweep = parse_header(header.text)?;
        let mut tasks: Vec<TaskRecord> = Vec::new();
        let mut complete_len = header.end;
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
                    complete_len = lines.get(next - 1).map_or(complete_len, |l| l.end);
                    i = next;
                }
                // Partial trailing record: the writer was killed
                // mid-append. Drop it and stop.
                Ok(None) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(Checkpoint {
            sweep,
            tasks,
            truncated_tail: complete_len < file_len,
            complete_len: u64::try_from(complete_len).unwrap_or(u64::MAX),
        })
    }
}

/// One line of a checkpoint that ends in `\n`.
struct Line<'a> {
    /// The line without its line end.
    text: &'a str,
    /// Byte offset just past its line end.
    end: usize,
}

fn parse_header(line: &str) -> Result<SweepId, CheckpointError> {
    let bad = || CheckpointError::BadHeader { line: line.to_owned(), truncated: false };
    let (rest, v2) = match line.strip_prefix(MAGIC) {
        Some(rest) => (rest, true),
        None => (line.strip_prefix(MAGIC_V1).ok_or_else(bad)?, false),
    };
    let mut n_voxels = None;
    let mut task_size = None;
    let mut digest = None;
    for field in rest.split_whitespace() {
        if let Some(v) = field.strip_prefix("voxels=") {
            n_voxels = v.parse().ok();
        } else if let Some(v) = field.strip_prefix("task_size=") {
            task_size = v.parse().ok();
        } else if let Some(v) = field.strip_prefix("digest=").filter(|_| v2) {
            digest = Some(u64::from_str_radix(v, 16).map_err(|_| bad())?);
        } else {
            return Err(bad());
        }
    }
    match (n_voxels, task_size) {
        (Some(n_voxels), Some(task_size)) if task_size > 0 && digest.is_some() == v2 => {
            Ok(SweepId { n_voxels, task_size, digest })
        }
        _ => Err(bad()),
    }
}

/// Parse one record starting at line index `i`. Returns `Ok(None)` when
/// the record is incomplete because the file ends early (clean
/// truncation), `Err` on any structural or checksum violation.
fn parse_record(
    lines: &[Line<'_>],
    i: usize,
) -> Result<Option<(TaskRecord, usize)>, CheckpointError> {
    let corrupt = |line: usize, reason: String| CheckpointError::Corrupt { line: line + 1, reason };
    let Some(head) = lines.get(i).map(|l| l.text) else {
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
    let (Some(body), Some(end_line)) = (lines.get(i + 1..end), lines.get(end).map(|l| l.text))
    else {
        return Ok(None);
    };
    let mut scores = Vec::with_capacity(count);
    let mut hasher = Fnv1a64::new();
    hasher.update(head.as_bytes());
    for (offset, line) in body.iter().map(|l| l.text).enumerate() {
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
    /// Create (truncate) `path` and write the header naming `sweep`.
    pub(crate) fn create(path: &Path, sweep: &SweepId) -> Result<Self, CheckpointError> {
        let map_io =
            |error: std::io::Error| CheckpointError::Io { path: path.to_path_buf(), error };
        let file = std::fs::File::create(path).map_err(map_io)?;
        let mut w = CheckpointWriter { path: path.to_path_buf(), file: BufWriter::new(file) };
        writeln!(w.file, "{}", sweep.header()).map_err(map_io)?;
        w.file.flush().map_err(map_io)?;
        Ok(w)
    }

    /// Open `path` for appending further records (resume into the same
    /// file), first cutting it back to `complete_len` bytes so that no
    /// dropped tail stays between the old records and the new ones. The
    /// caller is responsible for having validated the header via
    /// [`Checkpoint::load`], which gives `complete_len`.
    pub(crate) fn append(path: &Path, complete_len: u64) -> Result<Self, CheckpointError> {
        let map_io =
            |error: std::io::Error| CheckpointError::Io { path: path.to_path_buf(), error };
        let file = std::fs::OpenOptions::new().append(true).open(path).map_err(map_io)?;
        file.set_len(complete_len).map_err(map_io)?;
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

    /// A v2 sweep id with an arbitrary digest.
    fn id(n_voxels: usize, task_size: usize) -> SweepId {
        SweepId { n_voxels, task_size, digest: Some(0xfc4a_d16e_57ed_0001) }
    }

    fn completed_starts(ck: &Checkpoint) -> Vec<usize> {
        ck.tasks.iter().map(|t| t.task.start).collect()
    }

    #[test]
    fn roundtrip_preserves_bits_exactly() {
        let path = tmp("roundtrip.ckpt");
        let t0 = VoxelTask { start: 0, count: 4 };
        let t1 = VoxelTask { start: 4, count: 4 };
        let mut w = CheckpointWriter::create(&path, &id(8, 4)).expect("create");
        w.record(t0, &sample_scores(t0)).expect("record");
        w.record(t1, &sample_scores(t1)).expect("record");
        drop(w);
        let ck = Checkpoint::load(&path).expect("load");
        assert_eq!(ck.sweep, id(8, 4));
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
        let mut w = CheckpointWriter::create(&path, &id(4, 2)).expect("create");
        w.record(t0, &sample_scores(t0)).expect("record");
        drop(w);
        let complete_len = Checkpoint::load(&path).expect("load").complete_len;
        let mut w = CheckpointWriter::append(&path, complete_len).expect("append");
        w.record(t1, &sample_scores(t1)).expect("record");
        drop(w);
        assert_eq!(completed_starts(&Checkpoint::load(&path).expect("load")), vec![0, 2]);
    }

    #[test]
    fn flipped_bit_is_rejected() {
        let path = tmp("corrupt.ckpt");
        let t0 = VoxelTask { start: 0, count: 3 };
        let mut w = CheckpointWriter::create(&path, &id(3, 3)).expect("create");
        w.record(t0, &sample_scores(t0)).expect("record");
        drop(w);
        let text = std::fs::read_to_string(&path).expect("read");
        // Flip one hex digit of the first score line.
        let (header, records) = text.split_once('\n').expect("header line");
        let corrupted = format!("{header}\n{}", records.replacen("3f", "3e", 1));
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
        let mut w = CheckpointWriter::create(&path, &id(6, 2)).expect("create");
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
        std::fs::write(&path, format!("{}\ngarbage line\nmore\nend 0\n", id(4, 2).header()))
            .expect("write");
        assert!(matches!(Checkpoint::load(&path), Err(CheckpointError::Corrupt { .. })));

        let path = tmp("dup.ckpt");
        let t0 = VoxelTask { start: 0, count: 2 };
        let mut w = CheckpointWriter::create(&path, &id(4, 2)).expect("create");
        w.record(t0, &sample_scores(t0)).expect("record");
        w.record(t0, &sample_scores(t0)).expect("record");
        drop(w);
        assert!(matches!(Checkpoint::load(&path), Err(CheckpointError::Corrupt { .. })));
    }

    #[test]
    fn v1_header_loads_without_a_digest() {
        let path = tmp("v1.ckpt");
        let v1 = SweepId { digest: None, ..id(4, 2) };
        std::fs::write(&path, format!("{}\n", v1.header())).expect("write");
        assert_eq!(Checkpoint::load(&path).expect("v1 loads").sweep, v1);
        // Each version has exactly its own fields.
        for header in [
            "fcma-checkpoint v2 voxels=4 task_size=2",
            "fcma-checkpoint v1 voxels=4 task_size=2 digest=00000000000000ab",
            "fcma-checkpoint v2 voxels=4 task_size=2 digest=xyz",
        ] {
            std::fs::write(&path, format!("{header}\n")).expect("write");
            let got = Checkpoint::load(&path);
            assert!(matches!(got, Err(CheckpointError::BadHeader { .. })), "{header}: {got:?}");
        }
    }

    #[test]
    fn sweep_id_digests_the_inputs_and_the_executor() {
        let id_of = |seed, exec| {
            let mut cfg = fcma_fmri::presets::tiny();
            (cfg.n_voxels, cfg.n_informative, cfg.seed) = (16, 4, seed);
            SweepId::of(&TaskContext::full(&cfg.generate().0), 8, exec)
        };
        let a = id_of(1, "optimized");
        assert_eq!((a, a.n_voxels, a.task_size), (id_of(1, "optimized"), 16, 8));
        assert_ne!(a, id_of(2, "optimized"), "same shape, other data");
        assert_ne!(a, id_of(1, "baseline"), "same data, other executor");
    }

    #[test]
    fn header_cut_at_any_point_is_a_truncated_header() {
        let path = tmp("cutheader.ckpt");
        let t0 = VoxelTask { start: 0, count: 16 };
        let mut w = CheckpointWriter::create(&path, &id(48, 16)).expect("create");
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
        assert_eq!((ck.sweep, ck.tasks.len()), (id(48, 16), 0));
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = tmp("nonexistent.ckpt");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(Checkpoint::load(&path), Err(CheckpointError::Io { .. })));
    }
}
