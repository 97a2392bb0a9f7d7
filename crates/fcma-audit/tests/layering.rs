//! DESIGN.md §12's crate layering table against the workspace
//! manifests: every `[dependencies]` edge on an `fcma-*` crate must be
//! in its crate's row, every workspace crate needs a row, and every row
//! must name a workspace crate. Dev-dependencies are exempt.

use std::path::Path;

use fcma_audit::graph::{CrateGraph, CrateManifest};

/// Every layering breach of `crates` against the §12 table in `design`.
fn layering_errors(design: &str, crates: &CrateGraph) -> Vec<String> {
    let section = design.split("\n## ").find(|s| s.starts_with("12.")).unwrap_or_default();
    // Rows whose first cell backticks an `fcma*` crate: (crate, allowed).
    let table: Vec<(&str, Vec<&str>)> = section
        .lines()
        .filter_map(|line| {
            let mut cells = line.strip_prefix('|')?.split('|');
            let head = cells.next()?.split('`').nth(1).filter(|c| c.starts_with("fcma"))?;
            let deps = cells.next()?.split('`').skip(1).step_by(2);
            Some((head, deps.filter(|d| d.starts_with("fcma-")).collect()))
        })
        .collect();
    let mut errors = Vec::new();
    for m in &crates.crates {
        let Some((_, allowed)) = table.iter().find(|(name, _)| *name == m.name) else {
            errors.push(format!("crate `{}` is missing from the §12 table", m.name));
            continue;
        };
        for dep in m.deps.iter().filter(|d| !allowed.contains(&d.as_str())) {
            errors.push(format!("edge `{}` → `{dep}` is not in its §12 row", m.name));
        }
    }
    for (name, _) in table.iter().filter(|(name, _)| crates.get(name).is_none()) {
        errors.push(format!("§12 row `{name}` names no workspace crate"));
    }
    errors
}

#[test]
fn shipped_manifests_follow_the_design_md_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is readable");
    let crates = CrateGraph::discover(&root).expect("manifests are readable");
    assert!(crates.get("fcma-linalg").is_some(), "discovery found no workspace");
    assert_eq!(layering_errors(&design, &crates), Vec::<String>::new());
}

#[test]
fn each_seeded_breach_fails_for_its_own_reason() {
    let design = "# Design\n\n## 12. Architecture contracts\n\n\
                  | Crate | Allowed direct deps |\n|---|---|\n\
                  | `fcma-a` | (none) |\n| `fcma-b` | `fcma-a` (prose) |\n\n\
                  | Message | Fields |\n|---|---|\n| `ToWorker::Task` | `task` |\n\n\
                  ## 13. Next\n\n| `fcma-c` | (none) |\n";
    let graph = |crates: &[(&str, &[&str])]| CrateGraph {
        crates: crates
            .iter()
            .map(|(name, deps)| CrateManifest {
                name: (*name).to_owned(),
                deps: deps.iter().map(|d| (*d).to_owned()).collect(),
            })
            .collect(),
    };
    assert!(layering_errors(design, &graph(&[("fcma-a", &[]), ("fcma-b", &["fcma-a"])])).is_empty());
    for (crates, want) in [
        (graph(&[("fcma-a", &["fcma-b"]), ("fcma-b", &[])]), "edge `fcma-a` → `fcma-b` is not"),
        (graph(&[("fcma-a", &[]), ("fcma-b", &[]), ("fcma-c", &[])]), "crate `fcma-c` is missing"),
        (graph(&[("fcma-a", &[])]), "§12 row `fcma-b` names no workspace crate"),
    ] {
        let errors = layering_errors(design, &crates);
        assert!(errors.len() == 1 && errors[0].starts_with(want), "{want}: {errors:?}");
    }
}
