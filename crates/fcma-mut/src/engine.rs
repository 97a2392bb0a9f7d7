//! The classification engine: sample mutants, apply each through an
//! in-memory overlay, and run the oracles in cheapest-first order.
//!
//! Per-mutant cost is dominated by audit pass runs over the whole
//! workspace, so the engine is ordered to avoid them where it can:
//!
//! 1. the class's *expected killer passes* run first (for
//!    `ordering-weaken` that is `atomicorder` alone — one pass, early
//!    exit on a kill);
//! 2. deterministic classes then consult call-graph test reachability
//!    (computed once for the whole run) — a reachable site is *covered*,
//!    which is not a kill: no test is executed;
//! 3. only mutants still unclassified pay for a full selected-pass run,
//!    catching cross-pass kills the expected set missed;
//! 4. what remains is surviving — triaged if an
//!    `// audit: equivalent(<class>)` marker covers the site.
//!
//! Everything is deterministic: sampling uses splitmix64 over
//! `(seed, mutant id)`, the overlay re-lexes exactly one file, and no
//! ambient state (time, randomness, disk) enters classification.

use std::collections::BTreeSet;
use std::io;
use std::path::Path;

use fcma_audit::mutants::{enumerate, test_reachable, Mutant, MUTANT_CLASSES};
use fcma_audit::parser;
use fcma_audit::passes::PASS_NAMES;
use fcma_audit::source::SourceFile;
use fcma_audit::Workspace;

use crate::report::ClassRow;

/// Engine configuration, straight from the CLI.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Sampling seed.
    pub seed: u64,
    /// Mutants sampled per class; `0` means exhaustive.
    pub sample: usize,
    /// Audit passes excluded from every oracle run (the
    /// `--disable-pass atomicorder` demo: ordering-weaken mutants
    /// degrade from killed-by-audit to surviving).
    pub disabled_passes: Vec<String>,
    /// Restrict to these classes; `None` means all.
    pub classes: Option<Vec<String>>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { seed: 7, sample: 4, disabled_passes: Vec::new(), classes: None }
    }
}

/// How (whether) a mutant died.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// An audit pass raised a violation the clean tree does not have.
    KilledByAudit {
        /// The pass that fired.
        pass: &'static str,
    },
    /// The mutated fn is call-graph reachable from a tier-1 test, not
    /// executed: coverage, not a kill (deterministic classes only).
    Covered,
    /// Surviving, but an `// audit: equivalent(<class>)` marker at the
    /// site declares it unkillable by construction.
    Triaged,
    /// No oracle fires and no triage covers it: a real gap.
    Surviving,
}

impl Verdict {
    /// Short column name for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::KilledByAudit { .. } => "audit",
            Verdict::Covered => "covered",
            Verdict::Triaged => "triaged",
            Verdict::Surviving => "surviving",
        }
    }
}

/// One sampled mutant with its verdict.
#[derive(Debug, Clone)]
pub struct Classified {
    /// The mutant (site, class, patch).
    pub mutant: Mutant,
    /// What the oracles decided.
    pub verdict: Verdict,
}

/// A full engine run: the classified sample plus the per-class matrix.
#[derive(Debug)]
pub struct Analysis {
    /// Every sampled mutant, classified, in enumeration order.
    pub classified: Vec<Classified>,
    /// Per-class kill counts, one row per class present in the run.
    pub matrix: Vec<ClassRow>,
    /// Total mutants enumerated before sampling (the report names what
    /// the sample cap dropped — a capped run must not read as
    /// exhaustive).
    pub enumerated: usize,
}

/// Classes whose faults are deterministic program-semantics changes a
/// test can observe on every run. The complement (`ordering-weaken`)
/// is racy: it is never counted as covered.
const DETERMINISTIC_CLASSES: &[&str] =
    &["arith-swap", "cmp-flip", "off-by-one", "accum-reorder", "band-shift", "match-arm-delete"];

/// The audit passes expected to kill each class, tried first with
/// early exit. Classes absent here have no cheap expected killer and
/// go straight to the coverage check / full pass run.
fn expected_killers(class: &str) -> &'static [&'static str] {
    match class {
        "ordering-weaken" => &["atomicorder"],
        "match-arm-delete" => &["protocol"],
        _ => &[],
    }
}

/// Run the engine against the workspace at `root`.
///
/// # Errors
///
/// Returns any I/O error from workspace discovery. Contract errors in
/// DESIGN.md are the caller's job to reject (the CLI exits 2 on them
/// before calling this).
pub fn run(root: &Path, cfg: &RunConfig) -> io::Result<Analysis> {
    let ws = fcma_audit::analyze(root)?;
    Ok(run_on(&ws, cfg))
}

/// Run the engine over an already-built workspace (fixture tests).
pub fn run_on(ws: &Workspace, cfg: &RunConfig) -> Analysis {
    let selected = selected_passes(&cfg.disabled_passes);
    let baseline = violation_keys(&ws.run_selected(&selected));
    let all = enumerate(ws);
    let enumerated = all.len();
    let sample = sample_mutants(all, cfg);
    // Test reachability once for the run, only if any sampled mutant
    // can use it.
    let reachable =
        sample.iter().any(|m| DETERMINISTIC_CLASSES.contains(&m.class)).then(|| test_reachable(ws));

    let mut classified = Vec::new();
    for m in sample {
        let verdict = classify(ws, &m, &selected, &baseline, reachable.as_ref());
        classified.push(Classified { mutant: m, verdict });
    }
    let matrix = matrix_of(&classified);
    Analysis { classified, matrix, enumerated }
}

/// All pass names minus the disabled set.
fn selected_passes(disabled_passes: &[String]) -> Vec<&'static str> {
    PASS_NAMES.iter().copied().filter(|p| !disabled_passes.iter().any(|d| d == p)).collect()
}

/// Violations as set keys; mutations preserve line counts, so baseline
/// and overlay keys are directly comparable.
fn violation_keys(
    violations: &[fcma_audit::Violation],
) -> BTreeSet<(String, usize, &'static str, String)> {
    violations.iter().map(|v| (v.file.clone(), v.line, v.pass, v.message.clone())).collect()
}

/// Deterministic per-class sampling: order every class's mutants by
/// splitmix64(seed, id) and keep the first `sample` (all when 0).
fn sample_mutants(all: Vec<Mutant>, cfg: &RunConfig) -> Vec<Mutant> {
    let wanted = |class: &str| cfg.classes.as_ref().is_none_or(|cs| cs.iter().any(|c| c == class));
    let mut out = Vec::new();
    for &class in MUTANT_CLASSES {
        if !wanted(class) {
            continue;
        }
        let mut of_class: Vec<&Mutant> = all.iter().filter(|m| m.class == class).collect();
        if cfg.sample > 0 {
            of_class.sort_by_key(|m| splitmix64(cfg.seed ^ fxhash(&m.id())));
            of_class.truncate(cfg.sample);
        }
        out.extend(of_class.into_iter().cloned());
    }
    // Back to enumeration order for stable reports.
    out.sort_by(|a, b| {
        (a.class, &a.rel_path, a.line, a.col).cmp(&(b.class, &b.rel_path, b.line, b.col))
    });
    out
}

/// splitmix64: the standard 64-bit finalizer, deterministic sampling
/// without pulling in a RNG crate.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over the mutant id, mixing the site into the sample key.
fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Classify one mutant: expected audit killers, then test coverage
/// (deterministic classes only), then the full pass set, then triage.
fn classify(
    ws: &Workspace,
    m: &Mutant,
    selected: &[&'static str],
    baseline: &BTreeSet<(String, usize, &'static str, String)>,
    reachable: Option<&BTreeSet<(usize, usize)>>,
) -> Verdict {
    let expected: Vec<&'static str> =
        expected_killers(m.class).iter().copied().filter(|p| selected.contains(p)).collect();
    // The overlay (full clone + one re-lex) is only worth building when
    // a pass run will actually consult it.
    let mut overlay: Option<Workspace> = None;
    let overlay_of = |overlay: &mut Option<Workspace>| -> Workspace {
        overlay.take().unwrap_or_else(|| overlay_workspace(ws, m))
    };
    if !expected.is_empty() {
        let ov = overlay_of(&mut overlay);
        if let Some(pass) = audit_kill(&ov, &expected, baseline) {
            return Verdict::KilledByAudit { pass };
        }
        overlay = Some(ov);
    }
    let deterministic = DETERMINISTIC_CLASSES.contains(&m.class);
    if deterministic && is_test_reachable(ws, m, reachable) {
        return Verdict::Covered;
    }
    // Full selected set: cross-pass kills the expected set missed
    // (e.g. an off-by-one on a loop head that changes what panicpath
    // sees). Skip re-running the passes already tried.
    let rest: Vec<&'static str> =
        selected.iter().copied().filter(|p| !expected.contains(p)).collect();
    let ov = overlay_of(&mut overlay);
    if let Some(pass) = audit_kill(&ov, &rest, baseline) {
        return Verdict::KilledByAudit { pass };
    }
    // Surviving → triaged when an equivalent marker covers the site.
    if ws.files[m.file].equivalent_marker(m.class, m.line) {
        Verdict::Triaged
    } else {
        Verdict::Surviving
    }
}

/// Run `passes` over the overlay; the first violation absent from the
/// baseline names the killing pass.
fn audit_kill(
    overlay: &Workspace,
    passes: &[&'static str],
    baseline: &BTreeSet<(String, usize, &'static str, String)>,
) -> Option<&'static str> {
    if passes.is_empty() {
        return None;
    }
    let violations = overlay.run_selected(passes);
    violations
        .iter()
        .find(|v| !baseline.contains(&(v.file.clone(), v.line, v.pass, v.message.clone())))
        .map(|v| v.pass)
}

/// The in-memory overlay: clone the workspace views, re-lex and
/// re-parse exactly the mutated file with its patched line.
fn overlay_workspace(ws: &Workspace, m: &Mutant) -> Workspace {
    let mut files = ws.files.clone();
    let mut parsed = ws.parsed.clone();
    let f = &ws.files[m.file];
    let mut raw: Vec<String> = f.scan.raw_lines.clone();
    raw[m.line] = m.patched.clone();
    let mut source = raw.join("\n");
    source.push('\n');
    let patched = SourceFile::new(&f.rel_path, f.crate_name.as_deref(), f.role, &source);
    parsed[m.file] = parser::parse(&patched.scan);
    files[m.file] = patched;
    Workspace::with_parsed(
        files,
        parsed,
        ws.crates.clone(),
        ws.contracts.clone(),
        ws.taxonomy.clone(),
    )
}

/// Is the mutant's enclosing fn reachable from any test?
fn is_test_reachable(
    ws: &Workspace,
    m: &Mutant,
    reachable: Option<&BTreeSet<(usize, usize)>>,
) -> bool {
    let Some(reachable) = reachable else {
        return false;
    };
    let Some(name) = m.fn_name.as_deref() else {
        return false;
    };
    ws.parsed[m.file]
        .fns
        .iter()
        .enumerate()
        .any(|(idx, f)| f.name == name && reachable.contains(&(m.file, idx)))
}

/// Collapse classifications into per-class rows.
fn matrix_of(classified: &[Classified]) -> Vec<ClassRow> {
    let mut rows: Vec<ClassRow> = Vec::new();
    for &class in MUTANT_CLASSES {
        let of_class: Vec<&Classified> =
            classified.iter().filter(|c| c.mutant.class == class).collect();
        if of_class.is_empty() {
            continue;
        }
        let count = |label: &str| of_class.iter().filter(|c| c.verdict.label() == label).count();
        rows.push(ClassRow {
            class: class.to_owned(),
            total: of_class.len(),
            audit: count("audit"),
            covered: count("covered"),
            triaged: count("triaged"),
            surviving: count("surviving"),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(7), splitmix64(7));
        assert_ne!(splitmix64(7), splitmix64(8));
        assert_ne!(fxhash("a:b:1:2"), fxhash("a:b:1:3"));
    }

    #[test]
    fn selected_passes_drops_disabled() {
        let sel = selected_passes(&[String::from("atomicorder")]);
        assert!(!sel.contains(&"atomicorder"));
        assert_eq!(sel.len(), PASS_NAMES.len() - 1);
        assert_eq!(selected_passes(&[]).len(), PASS_NAMES.len());
    }

    #[test]
    fn deterministic_classes_complement_is_concurrency() {
        for &c in MUTANT_CLASSES {
            let det = DETERMINISTIC_CLASSES.contains(&c);
            let conc = c == "ordering-weaken";
            assert!(det != conc, "{c} must be exactly one of deterministic/concurrency");
        }
    }
}
