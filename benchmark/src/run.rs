//! What a workload is given and what it hands back.

use crate::host::{Host, Probes};
use crate::spec::Metrics;
use fcma_trace::TraceReport;
use std::path::{Path, PathBuf};

/// Parameters of one run, from the command line.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: String,
    pub seed: u64,
    /// How long the untraced measuring loop runs.
    pub seconds: f64,
    /// `--trace 1`: the per-layer run.
    pub traced: bool,
    /// `--smoke`: the same code paths at tiny shapes.
    pub smoke: bool,
    /// Where temp data and trace files go (`benchmark/out`).
    pub out_dir: PathBuf,
}

/// Operations attempted and failed: product calls (task calls, sweeps,
/// session steps) and every correctness check on their outputs.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one operation or check; `what` is rendered only on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Every accuracy is a finite share in [0, 1].
    pub fn accuracies(&mut self, what: &str, acc: impl Iterator<Item = f64>) {
        let bad = acc.filter(|a| !(a.is_finite() && (0.0..=1.0).contains(a))).count();
        self.check(bad == 0, || format!("{what}: {bad} accuracies outside [0, 1]"));
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Checks,
    /// Shape and rep counts, printed and recorded beside the metrics.
    pub notes: Vec<(&'static str, String)>,
    pub probes: Option<Probes>,
    /// The drained trace of a traced run, for the Chrome-trace file.
    pub report: Option<TraceReport>,
}

impl Outcome {
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }
}

/// Everything a workload needs besides its own shape.
pub struct Env<'a> {
    pub params: &'a Params,
    pub host: &'a Host,
}

impl Env<'_> {
    /// Kernel threads / workers of the parallel configurations: 2, or
    /// what the host has if that is less (`workers x threads <= nproc`).
    pub fn parallel(&self) -> usize {
        self.host.nproc.min(2)
    }
}

/// A scratch directory under `out/`, removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(params: &Params) -> TempDir {
        let dir = params.out_dir.join(format!("tmp-{}-{}", params.workload, std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory under out/");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bit patterns of a score vector: the §15 contract is bit identity.
pub fn score_bits(scores: &[fcma_core::VoxelScore]) -> Vec<(usize, u64)> {
    scores.iter().map(|s| (s.voxel, s.accuracy.to_bits())).collect()
}
