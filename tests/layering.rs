//! DESIGN.md §12's crate layering table against the workspace
//! manifests: every `[dependencies]` edge on an `fcma-*` crate must be
//! in its crate's row, every workspace crate needs a row, and every row
//! must name a workspace crate. Dev-dependencies are exempt.

use std::path::Path;

/// One workspace package: its name and its `[dependencies]` on other
/// `fcma-*` crates (dash form).
struct CrateManifest {
    name: String,
    deps: Vec<String>,
}

/// Parse one manifest with the small TOML subset the workspace's own
/// manifests use (sections and `key = value` lines). `None` for a
/// manifest with no `[package]` name.
fn parse_manifest(text: &str) -> Option<CrateManifest> {
    let mut section = "";
    let mut name = None;
    let mut deps = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']');
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        // `fcma-x.workspace = true` keys a dotted path.
        let key = key.trim().trim_matches('"').split('.').next().unwrap_or_default();
        if section == "package" && key == "name" {
            name = Some(value.trim().trim_matches('"').to_owned());
        }
        if section == "dependencies" && key.starts_with("fcma-") {
            deps.push(key.to_owned());
        }
    }
    Some(CrateManifest { name: name?, deps })
}

/// The root package and every `crates/*` package under `root`.
fn discover(root: &Path) -> Vec<CrateManifest> {
    let mut dirs: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is listable")
        .map(|e| e.expect("crates/ entry is readable").path())
        .collect();
    dirs.sort();
    dirs.insert(0, root.to_owned());
    dirs.iter()
        .filter_map(|dir| std::fs::read_to_string(dir.join("Cargo.toml")).ok())
        .filter_map(|text| parse_manifest(&text))
        .collect()
}

/// Every layering breach of `crates` against the §12 table in `design`.
fn layering_errors(design: &str, crates: &[CrateManifest]) -> Vec<String> {
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
    for m in crates {
        let Some((_, allowed)) = table.iter().find(|(name, _)| *name == m.name) else {
            errors.push(format!("crate `{}` is missing from the §12 table", m.name));
            continue;
        };
        for dep in m.deps.iter().filter(|d| !allowed.contains(&d.as_str())) {
            errors.push(format!("edge `{}` → `{dep}` is not in its §12 row", m.name));
        }
    }
    for (name, _) in table.iter().filter(|(name, _)| !crates.iter().any(|m| m.name == *name)) {
        errors.push(format!("§12 row `{name}` names no workspace crate"));
    }
    errors
}

#[test]
fn manifest_parse_extracts_name_and_fcma_deps() {
    let toml = "[package]\nname = \"fcma-core\"\n\n[dependencies]\n\
                fcma-trace = { workspace = true }\nfcma-fmri.workspace = true\n\
                rand = { workspace = true }\n\n[dev-dependencies]\nfcma-sim = { workspace = true }\n";
    let m = parse_manifest(toml).expect("has a package name");
    assert_eq!(m.name, "fcma-core");
    assert_eq!(m.deps, ["fcma-trace", "fcma-fmri"], "dev-deps excluded");
    assert!(parse_manifest("[workspace]\nmembers = [\"crates/*\"]\n").is_none());
}

#[test]
fn shipped_manifests_follow_the_design_md_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is readable");
    let crates = discover(root);
    assert!(crates.iter().any(|m| m.name == "fcma-linalg"), "discovery found no workspace");
    assert_eq!(crates[0].name, "fcma", "the root package comes first");
    assert_eq!(layering_errors(&design, &crates), Vec::<String>::new());
}

#[test]
fn each_seeded_breach_fails_for_its_own_reason() {
    let design = "# Design\n\n## 12. Architecture contracts\n\n\
                  | Crate | Allowed direct deps |\n|---|---|\n\
                  | `fcma-a` | (none) |\n| `fcma-b` | `fcma-a` (prose) |\n\n\
                  | Message | Fields |\n|---|---|\n| `ToWorker::Task` | `task` |\n\n\
                  ## 13. Next\n\n| `fcma-c` | (none) |\n";
    let graph = |crates: &[(&str, &[&str])]| -> Vec<CrateManifest> {
        crates
            .iter()
            .map(|(name, deps)| CrateManifest {
                name: (*name).to_owned(),
                deps: deps.iter().map(|d| (*d).to_owned()).collect(),
            })
            .collect()
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
