//! fcma-audit: workspace-wide static analysis for the FCMA codebase.
//!
//! A zero-dependency (std-only) lint tool that walks the workspace
//! source tree and enforces project-specific invariants that `clippy`
//! cannot express: no lossy `as` casts in the numeric kernel crates,
//! property-test coverage of every public linalg kernel, trace-probe
//! names that match the DESIGN.md §Observability taxonomy, the crate
//! layering DAG of DESIGN.md §Architecture contracts, call-graph panic
//! reachability of library `pub fn`s, master–worker protocol
//! conformance, workspace-`pub` items nobody references, stale
//! allow markers, and the DESIGN.md §16 atomics memory-ordering
//! contracts ([`passes::check_atomicorder`]).
//!
//! Run it with `cargo run -p fcma-audit -- check [--format human|json]
//! [--passes a,b,c]`. Exit code 0 means clean, 1 means violations were
//! printed, 2 means the tool itself could not run (bad usage or I/O
//! failure).
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
pub mod mutants;
pub mod parser;
pub mod passes;
pub mod source;
pub mod workspace;

use std::io;
use std::path::Path;

pub use format::{parse_stats, render, render_stats, render_stats_delta, Format};
pub use passes::{Taxonomy, Violation, Workspace};

use graph::{Contracts, CrateGraph};

/// Analyze the workspace at `root` and return all violations.
///
/// The trace-name taxonomy is parsed from `<root>/DESIGN.md`
/// §Observability and the layering/protocol contracts from
/// §Architecture contracts; when a section is absent, the passes that
/// depend on it skip their contract half (shape checks still run).
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading sources.
pub fn audit(root: &Path) -> io::Result<Vec<Violation>> {
    Ok(analyze(root)?.run_all())
}

/// Build the full workspace model (files, crate graph, contracts)
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
    let contracts = design.as_deref().map(Contracts::from_design_md).unwrap_or_default();
    Ok(Workspace::new(files, crates, contracts, taxonomy))
}
