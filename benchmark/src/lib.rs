//! End-to-end, per-layer FCMA benchmark at the paper's task shapes.
//!
//! A stand-alone package: it depends on the product crates by path and
//! touches no file outside `benchmark/`. See `README.md` for how to run
//! it and what each workload and metric is for.

pub mod cli;
pub mod compare;
pub mod host;
pub mod layers;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod workloads;

use std::path::PathBuf;

/// The benchmark's own directory (`benchmark/`), fixed at build time.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root, where `BENCHMARK.json` lives.
pub fn repo_root() -> PathBuf {
    bench_dir().parent().map_or_else(|| PathBuf::from("."), PathBuf::from)
}
