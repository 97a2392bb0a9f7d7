//! The audit tool's acceptance gate: the shipped tree must be clean,
//! seeded violations must be caught, and the DESIGN.md taxonomy the
//! `tracename` pass depends on must parse from the shipped document.

use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn shipped_tree_is_clean() {
    let violations = fcma_audit::audit(&workspace_root()).expect("audit must run");
    assert!(
        violations.is_empty(),
        "shipped tree has {} violation(s):\n{}",
        violations.len(),
        violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn seeded_violations_are_caught() {
    use fcma_audit::graph::CrateGraph;
    use fcma_audit::passes::{Taxonomy, Workspace, PASS_NAMES};
    use fcma_audit::source::{Role, SourceFile};

    // In-memory seeds for every pass, so a pass cannot join
    // `PASS_NAMES` without a seeded violation.
    let seeded = vec![
        SourceFile::new(
            "crates/fcma-linalg/src/bad.rs",
            Some("fcma-linalg"),
            Role::Lib,
            "//! Seeded.\npub fn naughty(o: Option<u8>) -> u8 {\n    o.unwrap()\n}\n",
        ),
        SourceFile::new(
            "crates/fcma-core/src/rogue.rs",
            Some("fcma-core"),
            Role::Lib,
            "//! Seeded.\nfn f() {\n    let _s = span!(\"totally.undocumented\");\n}\n\
             // audit: allow(panicpath) — never consulted, so stale\n",
        ),
    ];
    let taxonomy = Taxonomy::from_design_md("## Observability\n`stage1.corr`\n")
        .expect("fixture taxonomy parses");
    let ws = Workspace::new(seeded, CrateGraph::default(), Some(taxonomy));
    let violations = ws.run_all();
    let passes_hit: std::collections::BTreeSet<&str> = violations.iter().map(|v| v.pass).collect();
    for expected in PASS_NAMES {
        assert!(passes_hit.contains(expected), "pass `{expected}` did not fire: {violations:?}");
    }
}

#[test]
fn shipped_design_md_taxonomy_parses() {
    let design = std::fs::read_to_string(workspace_root().join("DESIGN.md"))
        .expect("DESIGN.md must be readable");
    let taxonomy = fcma_audit::passes::Taxonomy::from_design_md(&design)
        .expect("DESIGN.md must contain the §Observability taxonomy");
    // Spot-check contract names the report/CI checkers depend on.
    for name in [
        "cluster.dispatch",
        "cluster.tasks.dispatched",
        "cluster.condemn",
        "svm.smo.iterations_per_solve",
        "stage1.corr",
    ] {
        assert!(taxonomy.contains(name), "DESIGN.md taxonomy is missing `{name}`");
    }
}

#[test]
fn missing_root_is_an_error_not_a_pass() {
    let err = fcma_audit::audit(Path::new("/nonexistent/fcma-root"));
    assert!(err.is_err());
}
