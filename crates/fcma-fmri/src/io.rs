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
    /// A sample of the activity matrix is NaN or infinite.
    NonFinite {
        /// Row of the activity matrix.
        voxel: usize,
        /// Column of the activity matrix.
        time: usize,
        /// The offending sample.
        value: f32,
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
            IoError::NonFinite { voxel, time, value } => {
                write!(f, "non-finite sample {value} at voxel {voxel}, time point {time}")
            }
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

/// Bytes of payload encoded or decoded at a time. A chunk and the run of
/// the matrix it maps to both stay in L2 (DESIGN.md §8), so the payload
/// crosses memory once in each direction.
const CHUNK_BYTES: usize = 256 * 1024;
const CHUNK_SAMPLES: usize = CHUNK_BYTES / 4;
const HEADER_BYTES: usize = 24;

/// Write the activity matrix to `w` in the binary container format.
pub fn write_activity<W: Write>(w: &mut W, data: &Mat) -> Result<(), IoError> {
    let mut header = Vec::with_capacity(HEADER_BYTES);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&(data.rows() as u64).to_le_bytes());
    header.extend_from_slice(&(data.cols() as u64).to_le_bytes());
    w.write_all(&header)?;
    let mut chunk = vec![0u8; CHUNK_BYTES.min(data.len() * 4)];
    for samples in data.as_slice().chunks(CHUNK_SAMPLES) {
        // Only the last run is short.
        chunk.truncate(samples.len() * 4);
        for (bytes, v) in chunk.as_chunks_mut::<4>().0.iter_mut().zip(samples) {
            *bytes = v.to_le_bytes();
        }
        w.write_all(&chunk)?;
    }
    w.flush()?;
    Ok(())
}

/// Read and check the container header: `(rows, cols)`, whose product
/// times four is known not to overflow.
fn read_header<R: Read>(r: &mut R) -> Result<(usize, usize), IoError> {
    let mut header = [0u8; HEADER_BYTES];
    let short = || IoError::Corrupt("file shorter than header".into());
    r.read_exact(&mut header).map_err(|_| short())?;
    let ([magic, rows, cols], []) = header.as_chunks::<8>() else {
        return Err(short());
    };
    if magic != MAGIC {
        return Err(IoError::Corrupt(format!("bad magic {magic:?}")));
    }
    let overflow = || IoError::Corrupt("dimension overflow".into());
    let dim = |b: &[u8; 8]| usize::try_from(u64::from_le_bytes(*b)).map_err(|_| overflow());
    let (rows, cols) = (dim(rows)?, dim(cols)?);
    let total = rows.checked_mul(cols).ok_or_else(overflow)?;
    if total > (1usize << 34) {
        return Err(IoError::Corrupt(format!("implausible size {rows}x{cols}")));
    }
    Ok((rows, cols))
}

/// Decode a `rows × cols` payload from `r`, one chunk at a time, straight
/// into the matrix. Every sample passes through the chunk, so this is
/// also where a non-finite one is refused.
fn read_payload<R: Read>(r: &mut R, rows: usize, cols: usize) -> Result<Mat, IoError> {
    let total = rows * cols;
    // A reservation the (here unverified) header makes impossible is a
    // corrupt header, not an allocation failure.
    let mut data: Vec<f32> = Vec::new();
    data.try_reserve_exact(total).map_err(|_| {
        IoError::Corrupt(format!("cannot hold the {rows}x{cols} matrix the header declares"))
    })?;
    let mut chunk = vec![0u8; CHUNK_BYTES.min(total * 4)];
    while data.len() < total {
        let at = data.len();
        // A no-op until the last, short run.
        chunk.truncate((total - at) * 4);
        r.read_exact(&mut chunk).map_err(|_| IoError::Corrupt("truncated data section".into()))?;
        let samples = chunk.as_chunks::<4>().0.iter().map(|&bytes| f32::from_le_bytes(bytes));
        // Branch-free over the chunk so it vectorises; the sample is
        // looked for only once one is known to be there.
        if samples.clone().fold(false, |bad, v| bad | !v.is_finite()) {
            if let Some((i, value)) = samples.clone().enumerate().find(|(_, v)| !v.is_finite()) {
                let i = at + i;
                return Err(IoError::NonFinite { voxel: i / cols, time: i % cols, value });
            }
        }
        data.extend(samples);
    }
    Ok(Mat::from_vec(rows, cols, data))
}

/// Read an activity matrix from `r`.
pub fn read_activity<R: Read>(r: &mut R) -> Result<Mat, IoError> {
    let (rows, cols) = read_header(r)?;
    read_payload(r, rows, cols)
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
    let file_len = f.metadata()?.len();
    let (rows, cols) = read_header(&mut f)?;
    // Checked before anything is reserved: a header may not size more
    // than the file holds, nor less.
    let declared = (HEADER_BYTES + rows * cols * 4) as u64;
    if file_len != declared {
        return Err(IoError::Corrupt(format!(
            "header declares {rows}x{cols} ({declared} bytes), file has {file_len}"
        )));
    }
    let data = read_payload(&mut f, rows, cols)?;
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

    fn encoded(m: &Mat) -> Vec<u8> {
        let mut buf = Vec::new();
        write_activity(&mut buf, m).unwrap();
        buf
    }

    #[test]
    fn activity_roundtrips_and_truncates_around_the_chunk_boundary() {
        for samples in [CHUNK_SAMPLES - 1, CHUNK_SAMPLES, CHUNK_SAMPLES + 1] {
            let m = Mat::from_fn(1, samples, |_, c| c as f32 * 0.5 - 3.0);
            let buf = encoded(&m);
            assert_eq!(buf.len(), HEADER_BYTES + samples * 4);
            assert_eq!(read_activity(&mut Cursor::new(&buf)).unwrap(), m);
            // The same offset as the end of a longer payload.
            let mut longer = encoded(&Mat::zeros(1, samples + 7));
            longer.truncate(buf.len());
            assert!(
                matches!(read_activity(&mut Cursor::new(longer)), Err(IoError::Corrupt(_))),
                "payload cut at {samples} samples"
            );
        }
    }

    #[test]
    fn non_finite_samples_are_named() {
        let (rows, cols) = (3, CHUNK_SAMPLES / 2 + 11);
        let clean = encoded(&Mat::from_fn(rows, cols, |r, c| (r + c) as f32));
        let total = rows * cols;
        for at in [0, CHUNK_SAMPLES - 1, CHUNK_SAMPLES, total - 1] {
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut buf = clean.clone();
                let byte = HEADER_BYTES + at * 4;
                buf[byte..byte + 4].copy_from_slice(&bad.to_le_bytes());
                match read_activity(&mut Cursor::new(buf)) {
                    Err(IoError::NonFinite { voxel, time, value }) => {
                        assert_eq!((voxel, time), (at / cols, at % cols));
                        assert_eq!(value.to_bits(), bad.to_bits());
                    }
                    other => panic!("sample {at} = {bad}: expected NonFinite, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_header_alone_never_sizes_the_matrix() {
        // 2^17 x 2^16 samples declared over no payload at all: 32 GiB.
        let mut header = MAGIC.to_vec();
        header.extend_from_slice(&(1u64 << 17).to_le_bytes());
        header.extend_from_slice(&(1u64 << 16).to_le_bytes());
        assert!(matches!(read_activity(&mut Cursor::new(&header)), Err(IoError::Corrupt(_))));

        let dir = std::env::temp_dir().join("fcma_io_hostile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("hostile");
        let (d, _) = crate::presets::tiny().generate();
        save_dataset(&stem, &d).unwrap();
        let fcma = stem.with_extension("fcma");
        let good = std::fs::read(&fcma).unwrap();

        let one_row_more = {
            let mut b = good.clone();
            b[8..16].copy_from_slice(&(d.n_voxels() as u64 + 1).to_le_bytes());
            b
        };
        let trailing = [good.as_slice(), &[0u8; 4]].concat();
        for (what, bytes) in [
            ("header alone", header),
            ("one row too many", one_row_more),
            ("trailing garbage", trailing),
        ] {
            std::fs::write(&fcma, bytes).unwrap();
            assert!(matches!(load_dataset(&stem), Err(IoError::Corrupt(_))), "{what}");
        }
        std::fs::write(&fcma, good).unwrap();
        assert!(load_dataset(&stem).is_ok());
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
