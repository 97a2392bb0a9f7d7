//! A reader that closes standard output early (`fcma info | head -1`)
//! has read all it wants: the command stops writing, prints nothing to
//! standard error and exits 0, and any file it was asked to write is
//! complete. The read end of each pipe is closed before the command
//! starts, so its first write to standard output fails.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const FCMA: &str = env!("CARGO_BIN_EXE_fcma");

/// Run `fcma args` with standard output a pipe nobody reads.
fn with_closed_stdout(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(FCMA).args(args).stdout(writer).stderr(Stdio::piped()).output().expect("run fcma")
}

fn assert_quiet_success(args: &[&str]) {
    let out = with_closed_stdout(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "fcma {args:?}: {stderr}");
    assert!(stderr.is_empty(), "fcma {args:?} wrote to stderr: {stderr}");
}

/// A 48-voxel tiny dataset in its own directory.
fn dataset(name: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("fcma_closed_stdout_{name}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let stem = dir.join("ds").to_string_lossy().into_owned();
    let status = Command::new(FCMA)
        .args(["generate", "--preset", "tiny", "--voxels", "48", "--out", &stem])
        .stdout(Stdio::null())
        .status()
        .expect("run fcma generate");
    assert!(status.success());
    (dir, stem)
}

#[test]
fn help_and_info_stop_quietly() {
    assert_quiet_success(&["help"]);
    let (_dir, stem) = dataset("info");
    assert_quiet_success(&["info", "--data", &stem]);
}

#[test]
fn analyze_stops_quietly_with_its_scores_file_complete() {
    let (dir, stem) = dataset("analyze");
    let scores = dir.join("s.tsv");
    let scores_arg = scores.to_string_lossy().into_owned();
    let truth = format!("{stem}.truth");
    let out = with_closed_stdout(&[
        "analyze",
        "--data",
        &stem,
        "--task-size",
        "16",
        "--top-k",
        "10",
        "--truth",
        &truth,
        "--out",
        &scores_arg,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    // The progress lines before the report still go to stderr; the
    // recovery line after it does not.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.lines().last().is_some_and(|l| l.starts_with("wrote ")), "{stderr}");
    assert_eq!(line_count(&scores), 1 + 48);
}

fn line_count(path: &Path) -> usize {
    std::fs::read_to_string(path).expect("scores file").lines().count()
}
