//! Workspace discovery: find every Rust source file that belongs to the
//! FCMA workspace (crates plus the root package), classify its target
//! role, and load it into a [`SourceFile`].
//!
//! `vendor/` is deliberately excluded — those are offline stand-ins for
//! external crates, not FCMA code — as is `target/`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::source::{Role, SourceFile};

/// Load and analyze every workspace source file under `root`.
///
/// Returns files sorted by path so diagnostics are deterministic.
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    if !root.join("Cargo.toml").is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} is not a workspace root (no Cargo.toml)", root.display()),
        ));
    }
    let mut files = Vec::new();

    // The root package.
    collect_package(root, None, &mut files)?;

    // Every crate under crates/.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> =
            fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort();
        for dir in entries {
            if dir.is_dir() && dir.join("Cargo.toml").is_file() {
                let name = dir.file_name().and_then(|n| n.to_str()).map(str::to_owned).ok_or_else(
                    || io::Error::new(io::ErrorKind::InvalidData, "non-utf8 crate dir name"),
                )?;
                collect_package(&dir, Some(&name), &mut files)?;
            }
        }
    }

    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

/// Collect the source files of one package rooted at `pkg`.
fn collect_package(
    pkg: &Path,
    crate_name: Option<&str>,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    let src = pkg.join("src");
    if src.is_dir() {
        // A package with no lib.rs is binary-only: all of src/ is Bin.
        let has_lib = src.join("lib.rs").is_file();
        let src_dir = src.as_path();
        collect_tree(
            &src,
            pkg,
            crate_name,
            move |path| {
                if !has_lib || is_bin_path(path) {
                    Role::Bin
                } else if is_test_module(path, src_dir) {
                    Role::Test
                } else {
                    Role::Lib
                }
            },
            out,
        )?;
    }
    for (sub, role) in
        [("tests", Role::Test), ("benches", Role::Bench), ("examples", Role::Example)]
    {
        let dir = pkg.join(sub);
        if dir.is_dir() {
            collect_tree(&dir, pkg, crate_name, move |_| role, out)?;
        }
    }
    Ok(())
}

/// Is this src/ path part of a binary target (`main.rs` or `src/bin/`)?
fn is_bin_path(path: &Path) -> bool {
    path.file_name().and_then(|n| n.to_str()) == Some("main.rs")
        || path.components().any(|c| c.as_os_str() == "bin")
}

/// Is this src/ file an out-of-line test module: does its declaring
/// module put `#[cfg(test)]` directly above `mod <stem>;`?
fn is_test_module(path: &Path, src: &Path) -> bool {
    let Some(parent) = path.parent() else { return false };
    let (stem, dir) = match path.file_stem().and_then(|s| s.to_str()) {
        Some("mod") => (parent.file_name().and_then(|s| s.to_str()), parent.parent()),
        stem => (stem, Some(parent)),
    };
    let (Some(stem), Some(dir)) = (stem, dir) else { return false };
    let declarers = if dir == src {
        vec![src.join("lib.rs")]
    } else {
        vec![dir.with_extension("rs"), dir.join("mod.rs")]
    };
    let decl = format!("mod {stem};");
    declarers.iter().filter_map(|d| fs::read_to_string(d).ok()).any(|text| {
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        lines.windows(2).any(|w| w[0] == "#[cfg(test)]" && w[1] == decl)
    })
}

/// Recursively collect `.rs` files under `dir`, assigning roles via `role_of`.
fn collect_tree(
    dir: &Path,
    pkg: &Path,
    crate_name: Option<&str>,
    role_of: impl Fn(&Path) -> Role + Copy,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_tree(&path, pkg, crate_name, role_of, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let source = fs::read_to_string(&path)?;
            let rel = rel_display(&path, pkg, crate_name);
            out.push(SourceFile::new(&rel, crate_name, role_of(&path), &source));
        }
    }
    Ok(())
}

/// Workspace-relative display path with `/` separators.
fn rel_display(path: &Path, pkg: &Path, crate_name: Option<&str>) -> String {
    let tail = path.strip_prefix(pkg).unwrap_or(path);
    let tail =
        tail.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/");
    match crate_name {
        Some(name) => format!("crates/{name}/{tail}"),
        None => tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovers_this_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = discover(&root).expect("discovery should succeed");
        // The audit crate itself must be found...
        assert!(files.iter().any(|f| f.rel_path == "crates/fcma-audit/src/lexer.rs"));
        // ...the root package too...
        assert!(files.iter().any(|f| f.rel_path == "src/lib.rs"));
        // ...and nothing from vendor/ or target/.
        assert!(files.iter().all(|f| !f.rel_path.starts_with("vendor/")));
        assert!(files.iter().all(|f| !f.rel_path.contains("target/")));
    }

    #[test]
    fn bin_only_crates_are_all_bin_role() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = discover(&root).expect("discovery should succeed");
        for f in files.iter().filter(|f| f.crate_name.as_deref() == Some("fcma-cli")) {
            if f.rel_path.contains("/src/") {
                assert_eq!(f.role, Role::Bin, "{}", f.rel_path);
            }
        }
    }

    #[test]
    fn roles_follow_directory_layout() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = discover(&root).expect("discovery should succeed");
        for f in &files {
            if f.rel_path.contains("/tests/") || f.rel_path.starts_with("tests/") {
                assert_eq!(f.role, Role::Test, "{}", f.rel_path);
            }
            if f.rel_path.contains("/benches/") {
                assert_eq!(f.role, Role::Bench, "{}", f.rel_path);
            }
        }
        // Out-of-line `#[cfg(test)] mod tests;` files are test code.
        for path in ["crates/fcma-sync/src/tests.rs", "crates/fcma-mc/src/tests.rs"] {
            let f = files.iter().find(|f| f.rel_path == path).expect(path);
            assert_eq!(f.role, Role::Test, "{path}");
        }
        let lib = files.iter().find(|f| f.rel_path == "crates/fcma-sync/src/pool.rs");
        assert_eq!(lib.map(|f| f.role), Some(Role::Lib));
    }
}
