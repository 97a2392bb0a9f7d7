//! fcma-audit: workspace-wide static analysis for the FCMA codebase.
//!
//! A zero-dependency (std-only) lint tool that walks the workspace
//! source tree and enforces project-specific invariants that rustc and
//! `clippy` cannot express, in four passes: property-test coverage of
//! every public linalg kernel, trace-probe names that match the
//! DESIGN.md §Observability taxonomy, call-graph panic reachability of
//! library `pub fn`s, and stale allow markers and `// audit:` comments
//! that are not allow markers. Casts, raw `std::sync`/`std::thread`,
//! hand-placed memory orderings and stale lint attributes are left to
//! clippy (`clippy::as_conversions`, the workspace `clippy.toml`,
//! `#[expect]`); the manifests' crate layering against the DESIGN.md
//! §12 table is the crate's `tests/layering.rs`.
//!
//! Run it with `cargo run -p fcma-audit -- check [--format human|json]`,
//! or `-- stats [--check FILE]` for the per-pass counts. Exit code 0 means clean, 1 means violations were printed, 2
//! means the tool itself could not run (bad usage or I/O failure). Every
//! pass has a seeded violation in the crate's tests, so none is green
//! only because it checks nothing.
//!
//! The implementation deliberately avoids `syn`: a line-preserving
//! scrubbing lexer ([`lexer`]) feeds a brace-depth scope analyzer
//! ([`source`]) and a token-tree item parser ([`parser`]); [`graph`]
//! assembles the crate-dependency graph from the manifests and the call
//! graph from the parsed items. This stays exact for the constructs the
//! passes need, keeps the tool dependency-free, and makes diagnostics
//! trivially clickable.

pub mod format;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod source;
pub mod workspace;

use std::io;
use std::path::Path;

pub use format::{parse_stats, render, render_stats, render_stats_delta, Format};
pub use passes::{Taxonomy, Violation, Workspace};

use graph::CrateGraph;

/// Analyze the workspace at `root` and return all violations.
///
/// The trace-name taxonomy is parsed from `<root>/DESIGN.md`
/// §Observability; when it is absent, `tracename` checks only the
/// shape of each name.
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading sources.
pub fn audit(root: &Path) -> io::Result<Vec<Violation>> {
    Ok(analyze(root)?.run_all())
}

/// Build the full workspace model (files, crate graph, taxonomy)
/// without running the passes — for callers that want the model itself.
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading sources.
pub fn analyze(root: &Path) -> io::Result<Workspace> {
    let files = workspace::discover(root)?;
    let crates = CrateGraph::discover(root)?;
    let design = std::fs::read_to_string(root.join("DESIGN.md")).ok();
    let taxonomy = design.as_deref().and_then(Taxonomy::from_design_md);
    Ok(Workspace::new(files, crates, taxonomy))
}
