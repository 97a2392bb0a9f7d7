//! On-disk fixture workspace: seed one violation per workspace-level
//! pass (layering, panicpath, deadpub, syncfacade, unusedallow,
//! atomicorder) in a temporary crate tree and assert the
//! full [`fcma_audit::audit`] pipeline — discovery, manifest parsing,
//! DESIGN.md contract parsing, call-graph construction — catches each
//! one and nothing it shouldn't.
//!
//! The in-memory seeds in `self_clean.rs` cover the per-file passes;
//! this test is the only seed for the three that need manifests and
//! contracts on disk (`layering`, `deadpub`, `atomicorder` —
//! `self_clean.rs` names the same three). CI runs it as its own job so
//! a regression in any one pass is visible by name.

use std::fs;
use std::path::{Path, PathBuf};

use fcma_audit::Violation;

/// A scratch workspace under the system temp dir, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let root =
            std::env::temp_dir().join(format!("fcma-audit-fixture-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create fixture root");
        Fixture { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture paths have parents"))
            .expect("create fixture dir");
        fs::write(&path, contents).expect("write fixture file");
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const DESIGN_MD: &str = "\
# Fixture design

## 12. Architecture contracts

| Crate | Allowed direct deps |
|---|---|
| `fcma-alpha` | (none) |
| `fcma-beta` | (none) |
| `fcma-gamma` | (none) |
| `fcma-race` | (none) |

## 16. Atomics contracts

sites: 1

| Atomic | File | Role | Loads | Stores | Pairing |
|---|---|---|---|---|---|
";

/// Build the seeded workspace and run the audit once.
fn audited_fixture(tag: &str) -> (Fixture, Vec<Violation>) {
    let fx = Fixture::new(tag);
    fx.write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    fx.write("DESIGN.md", DESIGN_MD);

    // fcma-alpha: a deadpub orphan, a referenced fn, and a stale marker.
    fx.write(
        "crates/fcma-alpha/Cargo.toml",
        "[package]\nname = \"fcma-alpha\"\n\n[dependencies]\n",
    );
    fx.write(
        "crates/fcma-alpha/src/lib.rs",
        "//! Seeded: deadpub orphan and a stale allow marker.\n\
         \n\
         /// Referenced from fcma-beta, so live.\n\
         pub fn used() {}\n\
         \n\
         /// Nothing anywhere references this.\n\
         pub fn orphan() {}\n\
         \n\
         // audit: allow(cast) — seeded stale marker: no cast on any nearby line\n",
    );

    // fcma-beta: an undeclared dependency on fcma-alpha (manifest and
    // source), an undocumented panicking pub fn, and a documented one.
    fx.write(
        "crates/fcma-beta/Cargo.toml",
        "[package]\nname = \"fcma-beta\"\n\n[dependencies]\nfcma-alpha = { path = \"../fcma-alpha\" }\n",
    );
    fx.write(
        "crates/fcma-beta/src/lib.rs",
        "//! Seeded: layering breach and panic reachability.\n\
         \n\
         /// Calls across the forbidden edge.\n\
         pub fn call_alpha() {\n\
             fcma_alpha::used();\n\
         }\n\
         \n\
         /// Undocumented panic: indexing an arbitrary slice.\n\
         pub fn risky(v: &[f32]) -> f32 {\n\
             v[0]\n\
         }\n\
         \n\
         /// Same panic, but contracted.\n\
         ///\n\
         /// # Panics\n\
         /// If `v` is empty.\n\
         pub fn documented(v: &[f32]) -> f32 {\n\
             v[0]\n\
         }\n",
    );

    // fcma-gamma: a raw std::sync primitive outside the facade.
    fx.write(
        "crates/fcma-gamma/Cargo.toml",
        "[package]\nname = \"fcma-gamma\"\n\n[dependencies]\n",
    );
    fx.write(
        "crates/fcma-gamma/src/lib.rs",
        "//! Seeded: raw sync primitive.\n\nuse std::sync::Mutex;\n",
    );

    // fcma-race: an `Ordering::SeqCst` site with no §16 contract row
    // (the fixture table above is deliberately empty but declares the
    // matching `sites: 1` count).
    fx.write("crates/fcma-race/Cargo.toml", "[package]\nname = \"fcma-race\"\n\n[dependencies]\n");
    fx.write(
        "crates/fcma-race/src/lib.rs",
        "//! Seeded: an uncontracted atomics site.\n\
         \n\
         /// An ordering site the (empty) §16 table does not cover.\n\
         fn arm(flag: &AtomicBool) {\n\
             flag.store(true, Ordering::SeqCst);\n\
         }\n",
    );

    let violations = fcma_audit::audit(&fx.root).expect("fixture audit must run");
    (fx, violations)
}

fn hits<'a>(violations: &'a [Violation], pass: &str) -> Vec<&'a Violation> {
    violations.iter().filter(|v| v.pass == pass).collect()
}

#[test]
fn layering_pass_fires_on_undeclared_dependency() {
    let (_fx, violations) = audited_fixture("layering");
    let lay = hits(&violations, "layering");
    assert!(
        lay.iter().any(|v| v.file == "crates/fcma-beta/Cargo.toml"
            && v.message.contains("`fcma-beta` → `fcma-alpha`")),
        "manifest edge not flagged: {lay:?}"
    );
    assert!(
        lay.iter()
            .any(|v| v.file == "crates/fcma-beta/src/lib.rs" && v.message.contains("fcma_alpha")),
        "source-level reference not flagged: {lay:?}"
    );
}

#[test]
fn panicpath_pass_fires_on_undocumented_panic_only() {
    let (_fx, violations) = audited_fixture("panicpath");
    let panics = hits(&violations, "panicpath");
    assert!(
        panics
            .iter()
            .any(|v| v.file == "crates/fcma-beta/src/lib.rs" && v.message.contains("`risky`")),
        "undocumented panicking fn not flagged: {panics:?}"
    );
    assert!(
        !panics.iter().any(|v| v.message.contains("`documented`")),
        "`# Panics` contract must excuse the fn: {panics:?}"
    );
}

#[test]
fn deadpub_pass_fires_on_orphan_but_not_referenced_items() {
    let (_fx, violations) = audited_fixture("deadpub");
    let dead = hits(&violations, "deadpub");
    assert!(
        dead.iter()
            .any(|v| v.file == "crates/fcma-alpha/src/lib.rs" && v.message.contains("`orphan`")),
        "orphan pub fn not flagged: {dead:?}"
    );
    assert!(
        !dead.iter().any(|v| v.message.contains("`used`")),
        "cross-crate referenced fn must not be flagged: {dead:?}"
    );
}

#[test]
fn unusedallow_pass_fires_on_stale_marker() {
    let (_fx, violations) = audited_fixture("unusedallow");
    let stale = hits(&violations, "unusedallow");
    assert!(
        stale
            .iter()
            .any(|v| v.file == "crates/fcma-alpha/src/lib.rs" && v.message.contains("stale")),
        "stale marker not flagged: {stale:?}"
    );
}

#[test]
fn syncfacade_pass_fires_on_raw_std_sync_import() {
    let (_fx, violations) = audited_fixture("syncfacade");
    let sync = hits(&violations, "syncfacade");
    assert!(
        sync.iter()
            .any(|v| v.file == "crates/fcma-gamma/src/lib.rs"
                && v.message.contains("std::sync::Mutex")),
        "raw std::sync::Mutex import not flagged: {sync:?}"
    );
}

#[test]
fn atomicorder_pass_fires_exactly_once_on_undeclared_site() {
    let (_fx, violations) = audited_fixture("atomicorder");
    let ao = hits(&violations, "atomicorder");
    assert_eq!(ao.len(), 1, "exactly one seeded undeclared site: {ao:?}");
    assert!(
        ao[0].file == "crates/fcma-race/src/lib.rs"
            && ao[0].message.contains("no DESIGN.md \u{a7}16 row"),
        "undeclared `Ordering::SeqCst` site not flagged: {ao:?}"
    );
}

#[test]
fn fixture_root_must_be_a_workspace() {
    let err = fcma_audit::audit(Path::new("/nonexistent/fixture-root"));
    assert!(err.is_err(), "a missing root must be an I/O error, not a clean pass");
}
