//! On-disk fixture workspace: seed a `panicpath` and an `unusedallow`
//! violation in a temporary two-crate tree and assert the full
//! [`fcma_audit::audit`] pipeline — discovery, manifest parsing and
//! call-graph construction — catches each one and nothing it shouldn't.
//!
//! `self_clean.rs` seeds every pass in memory; this test pins the same
//! passes end to end from the files on disk.

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

/// Build the seeded workspace and run the audit once.
fn audited_fixture(tag: &str) -> (Fixture, Vec<Violation>) {
    let fx = Fixture::new(tag);
    fx.write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");

    // fcma-alpha: a fn fcma-beta calls, and a stale marker.
    fx.write(
        "crates/fcma-alpha/Cargo.toml",
        "[package]\nname = \"fcma-alpha\"\n\n[dependencies]\n",
    );
    fx.write(
        "crates/fcma-alpha/src/lib.rs",
        "//! Seeded: a stale allow marker.\n\
         \n\
         /// Called from fcma-beta.\n\
         pub fn used() {}\n\
         \n\
         // audit: allow(panicpath) — seeded stale marker: nothing nearby panics\n",
    );

    // fcma-beta: a dependency on fcma-alpha, an undocumented panicking
    // pub fn, and a documented one.
    fx.write(
        "crates/fcma-beta/Cargo.toml",
        "[package]\nname = \"fcma-beta\"\n\n[dependencies]\nfcma-alpha = { path = \"../fcma-alpha\" }\n",
    );
    fx.write(
        "crates/fcma-beta/src/lib.rs",
        "//! Seeded: panic reachability.\n\
         \n\
         /// Calls across the manifest edge.\n\
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

    let violations = fcma_audit::audit(&fx.root).expect("fixture audit must run");
    (fx, violations)
}

fn hits<'a>(violations: &'a [Violation], pass: &str) -> Vec<&'a Violation> {
    violations.iter().filter(|v| v.pass == pass).collect()
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
fn fixture_root_must_be_a_workspace() {
    let err = fcma_audit::audit(Path::new("/nonexistent/fixture-root"));
    assert!(err.is_err(), "a missing root must be an I/O error, not a clean pass");
}
