//! On-disk formats.
//!
//! The paper's system "reads in the preprocessed fMRI data ... and the
//! text files specifying the labeled time epochs" (§3.1). This module
//! provides both:
//!
//! * a compact little-endian binary container for the activity matrix
//!   (`.fcma` — magic, dims, raw f32 rows), and
//! * the human-editable text epoch table (`.epochs` — one epoch per line:
//!   `subject label start len`, `#` comments allowed).

use crate::dataset::{Condition, Dataset, EpochSpec};
use fcma_linalg::Mat;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"FCMADAT1";

/// Errors from reading either format.
#[derive(Debug)]
// audit: allow(deadpub) — part of a referenced public signature; demotion trips private_interfaces
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Bad magic / truncated / inconsistent binary container.
    Corrupt(String),
    /// Malformed epoch table line.
    Parse {
        /// 1-based line number in the epoch table.
        line: usize,
        /// What was wrong with the line.
        msg: String,
    },
    /// The files loaded fine but dataset validation failed.
    Invalid(crate::dataset::DatasetError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Corrupt(m) => write!(f, "corrupt dataset file: {m}"),
            IoError::Parse { line, msg } => write!(f, "epoch table line {line}: {msg}"),
            IoError::Invalid(e) => write!(f, "invalid dataset: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Write the activity matrix to `w` in the binary container format.
pub fn write_activity<W: Write>(w: &mut W, data: &Mat) -> Result<(), IoError> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC)?;
    w.write_all(&(data.rows() as u64).to_le_bytes())?;
    w.write_all(&(data.cols() as u64).to_le_bytes())?;
    for &v in data.as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Read an activity matrix from `r`.
// audit: allow(panicpath) — indexes chunks_exact(4) chunks, in-bounds by construction
pub fn read_activity<R: Read>(r: &mut R) -> Result<Mat, IoError> {
    let mut r = BufReader::new(r);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(|_| IoError::Corrupt("file shorter than header".into()))?;
    if &magic != MAGIC {
        return Err(IoError::Corrupt(format!("bad magic {magic:?}")));
    }
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b8)?;
    let rows = u64::from_le_bytes(b8) as usize;
    r.read_exact(&mut b8)?;
    let cols = u64::from_le_bytes(b8) as usize;
    let total =
        rows.checked_mul(cols).ok_or_else(|| IoError::Corrupt("dimension overflow".into()))?;
    // Guard against absurd headers before allocating.
    if total > (1usize << 34) {
        return Err(IoError::Corrupt(format!("implausible size {rows}x{cols}")));
    }
    let mut buf = vec![0u8; total * 4];
    r.read_exact(&mut buf).map_err(|_| IoError::Corrupt("truncated data section".into()))?;
    let data: Vec<f32> =
        buf.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
    Ok(Mat::from_vec(rows, cols, data))
}

/// Write the epoch table to `w` in the text format.
pub fn write_epoch_table<W: Write>(w: &mut W, epochs: &[EpochSpec]) -> Result<(), IoError> {
    let mut w = BufWriter::new(w);
    writeln!(w, "# FCMA epoch table: subject label start len")?;
    for ep in epochs {
        writeln!(w, "{} {} {} {}", ep.subject, ep.label.token(), ep.start, ep.len)?;
    }
    w.flush()?;
    Ok(())
}

/// Parse an epoch table from `r`.
// audit: allow(panicpath) — toks[0..=3] guarded by the len == 4 check above each use
pub fn read_epoch_table<R: Read>(r: &mut R) -> Result<Vec<EpochSpec>, IoError> {
    let r = BufReader::new(r);
    let mut epochs = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let body = line.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let toks: Vec<&str> = body.split_whitespace().collect();
        if toks.len() != 4 {
            return Err(IoError::Parse {
                line: lineno + 1,
                msg: format!("expected 4 fields, got {}", toks.len()),
            });
        }
        let subject = toks[0]
            .parse::<usize>()
            .map_err(|e| IoError::Parse { line: lineno + 1, msg: format!("bad subject: {e}") })?;
        let label =
            Condition::parse(toks[1]).map_err(|msg| IoError::Parse { line: lineno + 1, msg })?;
        let start = toks[2]
            .parse::<usize>()
            .map_err(|e| IoError::Parse { line: lineno + 1, msg: format!("bad start: {e}") })?;
        let len = toks[3]
            .parse::<usize>()
            .map_err(|e| IoError::Parse { line: lineno + 1, msg: format!("bad len: {e}") })?;
        epochs.push(EpochSpec { subject, label, start, len });
    }
    Ok(epochs)
}

/// Save a dataset as `<stem>.fcma` + `<stem>.epochs`.
pub fn save_dataset(stem: &Path, dataset: &Dataset) -> Result<(), IoError> {
    let mut f = std::fs::File::create(stem.with_extension("fcma"))?;
    write_activity(&mut f, dataset.data())?;
    let mut e = std::fs::File::create(stem.with_extension("epochs"))?;
    write_epoch_table(&mut e, dataset.epochs())?;
    Ok(())
}

/// Load a dataset saved by [`save_dataset`].
pub fn load_dataset(stem: &Path) -> Result<Dataset, IoError> {
    let mut f = std::fs::File::open(stem.with_extension("fcma"))?;
    let data = read_activity(&mut f)?;
    let mut e = std::fs::File::open(stem.with_extension("epochs"))?;
    let epochs = read_epoch_table(&mut e)?;
    Dataset::new(data, epochs).map_err(IoError::Invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn activity_roundtrip() {
        let m = Mat::from_fn(5, 7, |r, c| (r as f32) * 1.5 - (c as f32) * 0.25);
        let mut buf = Vec::new();
        write_activity(&mut buf, &m).unwrap();
        let got = read_activity(&mut Cursor::new(buf)).unwrap();
        assert_eq!(got, m);
    }

    #[test]
    fn activity_rejects_bad_magic() {
        let mut buf = Vec::new();
        write_activity(&mut buf, &Mat::zeros(1, 1)).unwrap();
        buf[0] = b'X';
        assert!(matches!(read_activity(&mut Cursor::new(buf)), Err(IoError::Corrupt(_))));
    }

    #[test]
    fn activity_rejects_truncation() {
        let mut buf = Vec::new();
        write_activity(&mut buf, &Mat::zeros(4, 4)).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(matches!(read_activity(&mut Cursor::new(buf)), Err(IoError::Corrupt(_))));
    }

    #[test]
    fn epoch_table_roundtrip() {
        let eps = vec![
            EpochSpec { subject: 0, label: Condition::A, start: 0, len: 12 },
            EpochSpec { subject: 0, label: Condition::B, start: 16, len: 12 },
            EpochSpec { subject: 1, label: Condition::B, start: 32, len: 12 },
        ];
        let mut buf = Vec::new();
        write_epoch_table(&mut buf, &eps).unwrap();
        let got = read_epoch_table(&mut Cursor::new(buf)).unwrap();
        assert_eq!(got, eps);
    }

    #[test]
    fn epoch_table_ignores_comments_and_blanks() {
        let text = "# header\n\n0 A 0 12  # trailing comment\n0 1 16 12\n";
        let got = read_epoch_table(&mut Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].label, Condition::A);
        assert_eq!(got[1].label, Condition::B);
    }

    #[test]
    fn epoch_table_reports_line_numbers() {
        let text = "0 A 0 12\n0 B sixteen 12\n";
        match read_epoch_table(&mut Cursor::new(text.as_bytes())) {
            Err(IoError::Parse { line: 2, .. }) => {}
            other => panic!("expected parse error on line 2, got {other:?}"),
        }
    }

    #[test]
    fn epoch_table_rejects_wrong_arity() {
        let text = "0 A 0\n";
        assert!(matches!(
            read_epoch_table(&mut Cursor::new(text.as_bytes())),
            Err(IoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn dataset_file_roundtrip() {
        let cfg = crate::synth::SynthConfig {
            n_voxels: 16,
            n_subjects: 2,
            epochs_per_subject: 4,
            n_informative: 4,
            ..Default::default()
        };
        let (d, _) = cfg.generate();
        let dir = std::env::temp_dir().join("fcma_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("roundtrip");
        save_dataset(&stem, &d).unwrap();
        let got = load_dataset(&stem).unwrap();
        assert_eq!(got.n_voxels(), d.n_voxels());
        assert_eq!(got.epochs(), d.epochs());
        assert_eq!(got.data().as_slice(), d.data().as_slice());
    }
}
