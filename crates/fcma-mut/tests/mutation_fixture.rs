//! On-disk fixture workspace for the classification engine: one crate
//! with a test-covered arithmetic site, a triaged-equivalent comparison
//! site, and an uncovered untriaged site, asserting the engine lands
//! each in the right kill-matrix column — covered via call-graph
//! reachability, triaged via the `// audit: equivalent(...)` marker,
//! and surviving for the genuine gap.

use std::fs;
use std::path::PathBuf;

use fcma_mut::engine::{run, RunConfig, Verdict};

/// A scratch workspace under the system temp dir, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let root =
            std::env::temp_dir().join(format!("fcma-mut-fixture-{}-{tag}", std::process::id()));
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

fn fixture(tag: &str) -> Fixture {
    let fx = Fixture::new(tag);
    fx.write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    fx.write(
        "DESIGN.md",
        "# Fixture design\n\n\
         ## 12. Architecture contracts\n\n\
         | Crate | Allowed direct deps |\n\
         |---|---|\n\
         | `fcma-alpha` | (none) |\n",
    );
    fx.write(
        "crates/fcma-alpha/Cargo.toml",
        "[package]\nname = \"fcma-alpha\"\n\n[dependencies]\n",
    );
    fx.write(
        "crates/fcma-alpha/src/lib.rs",
        "//! Fixture: a test-killed site, a triaged site, a surviving site.\n\
         \n\
         /// Covered: the unit test below reaches it.\n\
         pub fn covered(a: usize, b: usize) -> usize {\n\
             a + b\n\
         }\n\
         \n\
         /// Uncovered, but its comparison is declared equivalent.\n\
         pub fn uncovered(x: usize) -> bool {\n\
             // audit: equivalent(cmp-flip) — fixture: site declared equivalent to exercise triage\n\
             x < 1\n\
         }\n\
         \n\
         /// Uncovered and untriaged: a genuine gap.\n\
         pub fn gap(a: usize, b: usize) -> usize {\n\
             a * b\n\
         }\n\
         \n\
         #[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn covers() {\n\
                 assert_eq!(super::covered(1, 2), 3);\n\
             }\n\
         }\n",
    );
    fx
}

#[test]
fn engine_classifies_covered_triaged_and_surviving() {
    let fx = fixture("classify");
    let cfg = RunConfig { sample: 0, ..RunConfig::default() };
    let analysis = run(&fx.root, &cfg).expect("fixture analyzes");

    let verdict_in = |fn_name: &str| {
        let hits: Vec<&Verdict> = analysis
            .classified
            .iter()
            .filter(|c| c.mutant.fn_name.as_deref() == Some(fn_name))
            .map(|c| &c.verdict)
            .collect();
        assert!(!hits.is_empty(), "no mutant enumerated in `{fn_name}`");
        hits
    };
    for v in verdict_in("covered") {
        assert_eq!(*v, Verdict::Covered, "covered() is call-graph reachable");
    }
    for v in verdict_in("uncovered") {
        assert_eq!(*v, Verdict::Triaged, "the equivalent marker covers the site");
    }
    for v in verdict_in("gap") {
        assert_eq!(*v, Verdict::Surviving, "gap() has no oracle");
    }

    // The matrix reflects the same story: cmp-flip is all-triaged (and
    // scores 100 by construction), arith-swap carries the survivor.
    let row =
        |class: &str| analysis.matrix.iter().find(|r| r.class == class).expect("class sampled");
    let cmp = row("cmp-flip");
    assert_eq!((cmp.triaged, cmp.surviving, cmp.score()), (1, 0, 100));
    let arith = row("arith-swap");
    assert_eq!(arith.covered, 1, "the covered `+` site");
    assert!(arith.surviving >= 1, "the gap `*` site survives: {arith:?}");
}

#[test]
fn runs_are_deterministic() {
    let fx = fixture("determinism");
    let cfg = RunConfig::default();
    let a = run(&fx.root, &cfg).expect("first run");
    let b = run(&fx.root, &cfg).expect("second run");
    let ids = |x: &fcma_mut::Analysis| -> Vec<String> {
        x.classified.iter().map(|c| c.mutant.id()).collect()
    };
    assert_eq!(ids(&a), ids(&b), "same seed, same sample");
    assert_eq!(a.matrix, b.matrix, "same matrix");
    assert_eq!(a.enumerated, b.enumerated);
}
