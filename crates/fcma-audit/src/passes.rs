//! The audit passes. Each takes the analyzed workspace and returns
//! violations; the driver prints them as `file:line: pass: message`.
//!
//! | pass          | scope                               | escape hatch |
//! |---------------|-------------------------------------|--------------|
//! | `proptest`    | top-level `pub fn`s of fcma-linalg  | allow marker |
//! | `tracename`   | trace-name sites (the four macros and the functions behind them) outside fcma-trace | allow marker |
//! | `panicpath`   | call-graph panic reachability of sweep-crate `pub fn`s | `# Panics` docs or allow marker |
//! | `unusedallow` | every allow marker must suppress something | none |
//!
//! Allow markers are comments of the form
//! `// audit: allow(<pass>) — <reason>` on the offending line or the line
//! directly above; the reason is mandatory. The `unusedallow` pass runs
//! last and flags any marker no other pass consumed.
//!
//! What rustc and clippy check with type resolution is theirs: bare `as`
//! casts in the kernel crates (`clippy::as_conversions`), raw
//! `std::sync`/`std::thread` outside fcma-sync (`clippy.toml`'s
//! disallowed types and methods, `atomic::Ordering` among them), names
//! a crate may use (its `[dependencies]`), and stale lint attributes
//! (`#[expect]`). The manifests' crate layering is a test
//! (`tests/layering.rs`), not a pass.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{CallGraph, CrateGraph};
use crate::parser::{self, ParsedFile, Vis};
use crate::source::{marker_allows, Role, SourceFile};

/// The crate whose public kernels must be exercised by property tests.
const PROPTEST_CRATE: &str = "fcma-linalg";

/// The tracing substrate itself — exempt from the `tracename` pass (it
/// defines the probes; instrumentation lives in the other crates).
const TRACE_CRATE: &str = "fcma-trace";

/// Call-site prefixes whose first argument is a trace name: the four
/// macros and the `fcma_trace` functions that take a name.
const TRACE_SITES: &[&str] = &[
    "span!(",
    "event!(",
    "counter!(",
    "histogram!(",
    "record_span_elapsed(",
    "add_counter(",
    "start_span(",
    "instant(",
    "record_value(",
];

/// Crates whose code never runs inside a sweep, exempt from the
/// `panicpath` pass: `fcma-audit` is this CI tool itself, `fcma-bench`
/// is a measurement harness, and `fcma-mc` is the model-checking
/// harness (its asserts *should* abort the checker), so a panic there
/// cannot take down a worker.
/// Every other library crate — including any future one — is in scope
/// by default.
const EXEMPT_CRATES: &[&str] = &["fcma-audit", "fcma-bench", "fcma-mc"];

/// The package name of the workspace root crate.
const ROOT_CRATE: &str = "fcma";

/// Every pass name an allow marker may reference, in `run_all` order.
pub const PASS_NAMES: &[&str] = &["proptest", "tracename", "panicpath", "unusedallow"];

/// Passes that honor allow markers at all.
pub const ESCAPABLE_PASSES: &[&str] = &["proptest", "tracename", "panicpath"];

/// One diagnostic. Lines are 1-based for display.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Pass name (see the module table).
    pub pass: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.pass, self.message)
    }
}

/// The fully analyzed workspace every pass runs over: lexed + parsed
/// sources, the crate-dependency graph, the DESIGN.md §11 taxonomy, and
/// a shared record of which allow markers were actually consulted (fed to
/// the `unusedallow` pass).
pub struct Workspace {
    /// Lexed and scope-analyzed files.
    pub files: Vec<SourceFile>,
    /// Item-parsed view of the same files (index-parallel).
    pub parsed: Vec<ParsedFile>,
    /// Crate-dependency graph from the manifests.
    pub crates: CrateGraph,
    /// Trace-name taxonomy from DESIGN.md §Observability.
    pub taxonomy: Option<Taxonomy>,
    /// `(file index, marker line)` of every consumed allow marker.
    used_markers: RefCell<BTreeSet<(usize, usize)>>,
}

impl Workspace {
    /// Parse `files` and assemble the workspace model.
    pub fn new(
        files: Vec<SourceFile>,
        crates: CrateGraph,
        taxonomy: Option<Taxonomy>,
    ) -> Workspace {
        let parsed = files.iter().map(|f| parser::parse(&f.scan)).collect();
        Workspace { files, parsed, crates, taxonomy, used_markers: RefCell::new(BTreeSet::new()) }
    }

    /// The crate key of a file (the root package's files key as `fcma`).
    pub fn crate_key(&self, file: usize) -> &str {
        self.files[file].crate_name.as_deref().unwrap_or(ROOT_CRATE)
    }

    /// Does an allow marker for `pass` cover 0-based `line` of `file`?
    /// A hit is recorded as consumed for the `unusedallow` pass.
    pub fn allowed(&self, file: usize, pass: &str, line: usize) -> bool {
        let f = &self.files[file];
        for l in [line, line.wrapping_sub(1)] {
            if l < f.scan.comment_lines.len() && marker_allows(&f.scan.comment_lines[l], pass) {
                self.used_markers.borrow_mut().insert((file, l));
                return true;
            }
        }
        false
    }

    /// Run every pass, in [`PASS_NAMES`] order, and return the sorted
    /// violations. `unusedallow` runs last: it inventories the markers
    /// the passes before it consumed.
    pub fn run_all(&self) -> Vec<Violation> {
        let mut v = check_proptest_coverage(self);
        v.extend(check_trace_names(self));
        v.extend(check_panicpath(self));
        v.extend(check_unused_allow(self));
        v.sort_by(|a, b| (&a.file, a.line, a.pass).cmp(&(&b.file, b.line, b.pass)));
        v
    }

    /// Per-pass `(violations, allow markers)` counts over the whole
    /// workspace, in [`PASS_NAMES`] order — the payload of the
    /// committed `audit-baseline.json` regression gate.
    pub fn stats(&self) -> Vec<(&'static str, usize, usize)> {
        let violations = self.run_all();
        PASS_NAMES
            .iter()
            .map(|&p| {
                let v = violations.iter().filter(|x| x.pass == p).count();
                let a =
                    self.files.iter().flat_map(SourceFile::markers).filter(|m| m.pass == p).count();
                (p, v, a)
            })
            .collect()
    }
}

/// Pass: every top-level `pub fn` in the linalg crate is referenced
/// from at least one of its integration-test files (where the property
/// tests live), or carries an allow marker.
pub fn check_proptest_coverage(ws: &Workspace) -> Vec<Violation> {
    let test_code: Vec<&String> = ws
        .files
        .iter()
        .filter(|f| f.crate_name.as_deref() == Some(PROPTEST_CRATE) && f.role == Role::Test)
        .flat_map(|f| f.scan.code_lines.iter())
        .collect();

    let mut out = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        if f.crate_name.as_deref() != Some(PROPTEST_CRATE) || f.role != Role::Lib {
            continue;
        }
        for pf in &ws.parsed[fi].fns {
            if pf.vis != Vis::Pub || !pf.top_level || f.in_test_span(pf.line) {
                continue;
            }
            if ws.allowed(fi, "proptest", pf.line) {
                continue;
            }
            let covered = test_code.iter().any(|line| contains_word(line, &pf.name));
            if !covered {
                out.push(Violation {
                    file: f.rel_path.clone(),
                    line: pf.line + 1,
                    pass: "proptest",
                    message: format!(
                        "pub fn `{}` is not exercised by any {PROPTEST_CRATE} \
                         integration test; add a property test or \
                         `// audit: allow(proptest) — <reason>`",
                        pf.name
                    ),
                });
            }
        }
    }
    out
}

/// The documented span/counter taxonomy: every backticked `snake.dotted`
/// token under the DESIGN.md "Observability" heading.
#[derive(Debug, Clone)]
pub struct Taxonomy {
    names: BTreeSet<String>,
}

impl Taxonomy {
    /// Parse the taxonomy out of DESIGN.md: all backticked tokens of
    /// `snake.dotted` shape between a heading containing "Observability"
    /// and the next heading. Returns `None` if no such section (or no
    /// names) exists.
    pub fn from_design_md(text: &str) -> Option<Taxonomy> {
        let mut names = BTreeSet::new();
        let mut in_section = false;
        for line in text.lines() {
            if line.starts_with('#') {
                if in_section {
                    break;
                }
                in_section = line.contains("Observability");
                continue;
            }
            if in_section {
                let mut parts = line.split('`');
                // Odd-indexed split segments are inside backticks.
                while let (Some(_), Some(tok)) = (parts.next(), parts.next()) {
                    if is_snake_dotted(tok) {
                        names.insert(tok.to_owned());
                    }
                }
            }
        }
        if names.is_empty() {
            None
        } else {
            Some(Taxonomy { names })
        }
    }

    /// Is `name` part of the documented contract?
    pub fn contains(&self, name: &str) -> bool {
        self.names.contains(name)
    }

    /// Number of documented names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the taxonomy is empty (never true for a parsed one).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Pass: every trace-probe name literal is well-formed and documented.
///
/// Span, event, counter, and histogram names are a stable contract —
/// dashboards, the `fcma report --check` invariants, and the CI trace
/// validation all parse them — so each call site's name must (a) be an
/// inline string literal, (b) match the `snake.dotted` shape, and (c)
/// with a taxonomy present, appear verbatim in DESIGN.md §Observability.
/// The fcma-trace crate itself (which defines the probes) and test code
/// are exempt.
pub fn check_trace_names(ws: &Workspace) -> Vec<Violation> {
    let taxonomy = ws.taxonomy.as_ref();
    let mut out = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        if !matches!(f.role, Role::Lib | Role::Bin) || f.crate_name.as_deref() == Some(TRACE_CRATE)
        {
            continue;
        }
        for (lno, code) in f.scan.code_lines.iter().enumerate() {
            for pat in TRACE_SITES {
                for col in site_starts(code, pat) {
                    if f.in_test_span(lno) || ws.allowed(fi, "tracename", lno) {
                        continue;
                    }
                    let site = &pat[..pat.len() - 1];
                    match extract_name(&f.scan.raw_lines, lno, col + pat.len()) {
                        None => out.push(Violation {
                            file: f.rel_path.clone(),
                            line: lno + 1,
                            pass: "tracename",
                            message: format!(
                                "`{site}` call: trace name must be an inline string literal"
                            ),
                        }),
                        Some((name_line, name)) => {
                            if !is_snake_dotted(&name) {
                                out.push(Violation {
                                    file: f.rel_path.clone(),
                                    line: name_line + 1,
                                    pass: "tracename",
                                    message: format!(
                                        "trace name `{name}` is not `snake.dotted` (two or \
                                         more dot-separated [a-z][a-z0-9_]* segments)"
                                    ),
                                });
                            } else if let Some(tax) = taxonomy {
                                if !tax.contains(&name) {
                                    out.push(Violation {
                                        file: f.rel_path.clone(),
                                        line: name_line + 1,
                                        pass: "tracename",
                                        message: format!(
                                            "trace name `{name}` is not documented in \
                                             DESIGN.md §Observability; add it to the taxonomy \
                                             or `// audit: allow(tracename) — <reason>`"
                                        ),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Pass: no library `pub fn` reaches a panic, transitively.
///
/// Builds the workspace call graph over non-test library functions of
/// the sweep crates (every library crate except [`EXEMPT_CRATES`]) and
/// propagates panic reachability from every `panic!`-family macro,
/// `.unwrap()`, `.expect()`, and `[idx]` indexing site. A function
/// documented with `# Panics` (or carrying an allow marker on its
/// declaration) is excused and absorbs propagation — its callers are
/// trusted to have read the contract. A marker on a source line
/// suppresses that one source.
pub fn check_panicpath(ws: &Workspace) -> Vec<Violation> {
    // Node inclusion: library-role files, fns outside `#[cfg(test)]`.
    let files: Vec<(String, &ParsedFile)> = ws
        .files
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            let key = if f.role == Role::Lib { ws.crate_key(fi).to_owned() } else { String::new() };
            (key, &ws.parsed[fi])
        })
        .collect();
    let include = |file: usize, idx: usize| {
        let f = &ws.files[file];
        f.role == Role::Lib
            && !EXEMPT_CRATES.contains(&ws.crate_key(file))
            && !f.in_test_span(ws.parsed[file].fns[idx].line)
    };

    let mut visible: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for m in &ws.crates.crates {
        visible.insert(m.name.clone(), ws.crates.closure(&m.name));
    }

    let graph = CallGraph::build(&files, &include, &visible);

    let direct: Vec<Option<String>> = graph
        .nodes
        .iter()
        .map(|n| {
            let f = &ws.parsed[n.file].fns[n.idx];
            // Eager over every source: a marker on a later source must be
            // consulted (and consumed) even when an earlier one already
            // condemns the function.
            let unmarked: Vec<_> =
                f.sources.iter().filter(|s| !ws.allowed(n.file, "panicpath", s.line)).collect();
            unmarked.first().map(|s| {
                format!("{} at {}:{}", s.kind.label(), ws.files[n.file].rel_path, s.line + 1)
            })
        })
        .collect();

    let absorbing: Vec<bool> = graph
        .nodes
        .iter()
        .map(|n| {
            let f = &ws.parsed[n.file].fns[n.idx];
            f.doc_panics || ws.allowed(n.file, "panicpath", f.line)
        })
        .collect();

    let describe = |j: usize| {
        let n = &graph.nodes[j];
        let f = &ws.parsed[n.file].fns[n.idx];
        format!("`{}` ({}:{})", f.name, ws.files[n.file].rel_path, f.line + 1)
    };
    let reach = graph.reach(&direct, &absorbing, &describe);

    let mut out = Vec::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        let f = &ws.parsed[n.file].fns[n.idx];
        if f.vis != Vis::Pub || absorbing[i] {
            continue;
        }
        if let Some(why) = &reach[i] {
            out.push(Violation {
                file: ws.files[n.file].rel_path.clone(),
                line: f.line + 1,
                pass: "panicpath",
                message: format!(
                    "pub fn `{}` can panic ({why}); return a typed error, document \
                     `# Panics`, or add `// audit: allow(panicpath) — <reason>`",
                    f.name
                ),
            });
        }
    }
    out
}

/// Pass: every allow marker must have suppressed something this run.
///
/// Mirrors `#[warn(unused_allow)]`: a marker naming an unknown pass, a
/// marker missing its mandatory reason, a marker for a pass with no
/// escape hatch, and a well-formed marker no pass consumed are all
/// violations. So is any other `// audit:` line comment: the tool reads
/// no other directive, and a misspelt marker or a retired directive
/// would otherwise read as enforced. Must run after every other pass
/// (consumption is recorded as they go).
pub fn check_unused_allow(ws: &Workspace) -> Vec<Violation> {
    let used = ws.used_markers.borrow();
    let mut out = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        for (line, directive) in f.stray_directives() {
            out.push(Violation {
                file: f.rel_path.clone(),
                line: line + 1,
                pass: "unusedallow",
                message: format!(
                    "`// audit: {directive}` is not an allow marker; the only audit directive \
                     is `// audit: allow(<pass>) — <reason>`"
                ),
            });
        }
        for m in f.markers() {
            let violation = if !PASS_NAMES.contains(&m.pass.as_str()) {
                Some(format!(
                    "allow marker names unknown pass `{}` (known: {})",
                    m.pass,
                    PASS_NAMES.join(", ")
                ))
            } else if !ESCAPABLE_PASSES.contains(&m.pass.as_str()) {
                Some(format!("pass `{}` has no escape hatch; remove the marker", m.pass))
            } else if !m.has_reason {
                Some(format!(
                    "allow marker for `{}` is missing its mandatory reason \
                     (`// audit: allow({}) — <reason>`)",
                    m.pass, m.pass
                ))
            } else if !used.contains(&(fi, m.line)) {
                Some(format!(
                    "stale allow marker: `audit: allow({})` suppresses nothing; remove it",
                    m.pass
                ))
            } else {
                None
            };
            if let Some(message) = violation {
                out.push(Violation {
                    file: f.rel_path.clone(),
                    line: m.line + 1,
                    pass: "unusedallow",
                    message,
                });
            }
        }
    }
    out
}

/// `snake.dotted`: two or more dot-separated segments, each
/// `[a-z][a-z0-9_]*`.
fn is_snake_dotted(name: &str) -> bool {
    let mut segments = 0usize;
    for seg in name.split('.') {
        let mut ch = seg.chars();
        if !matches!(ch.next(), Some(c) if c.is_ascii_lowercase()) {
            return false;
        }
        if !ch.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return false;
        }
        segments += 1;
    }
    segments >= 2
}

/// Char positions where `pat` occurs in `line` with a non-identifier
/// character (or line start) on its left.
fn site_starts(line: &str, pat: &str) -> Vec<usize> {
    let chars: Vec<char> = line.chars().collect();
    let pat_chars: Vec<char> = pat.chars().collect();
    let mut out = Vec::new();
    if chars.len() < pat_chars.len() {
        return out;
    }
    for start in 0..=(chars.len() - pat_chars.len()) {
        if chars[start..start + pat_chars.len()] == pat_chars[..] {
            let left_ok = start == 0 || {
                let p = chars[start - 1];
                !(p.is_ascii_alphanumeric() || p == '_')
            };
            if left_ok {
                out.push(start);
            }
        }
    }
    out
}

/// The string literal that opens the argument list at char `from` of
/// line `lno`: the first non-blank character after it, on that line or
/// one of the two after it (rustfmt may wrap the name onto the line
/// after the opening paren), must be a `"`. Returns (0-based line,
/// contents); `None` when the first argument is not a literal.
fn extract_name(raw_lines: &[String], lno: usize, from: usize) -> Option<(usize, String)> {
    for (idx, raw) in raw_lines.iter().enumerate().skip(lno).take(3) {
        let skip = if idx == lno { from } else { 0 };
        let mut rest = raw.chars().skip(skip).skip_while(|c| c.is_whitespace());
        match rest.next() {
            None => {}
            Some('"') => return Some((idx, rest.take_while(|&c| c != '"').collect())),
            Some(_) => return None,
        }
    }
    None
}

/// Word-boundary containment: `name` in `line` not flanked by ident chars.
fn contains_word(line: &str, name: &str) -> bool {
    let bytes = line.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(p) = line[from..].find(name) {
        let start = from + p;
        let end = start + name.len();
        let left_ok = start == 0 || !is_ident(bytes[start - 1]);
        let right_ok = end == bytes.len() || !is_ident(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn lib_file(crate_name: &str, src: &str) -> SourceFile {
        SourceFile::new(&format!("crates/{crate_name}/src/a.rs"), Some(crate_name), Role::Lib, src)
    }

    fn test_file(crate_name: &str, src: &str) -> SourceFile {
        SourceFile::new(
            &format!("crates/{crate_name}/tests/t.rs"),
            Some(crate_name),
            Role::Test,
            src,
        )
    }

    fn ws_of(files: Vec<SourceFile>) -> Workspace {
        Workspace::new(files, CrateGraph::default(), None)
    }

    #[test]
    fn proptest_pass_fires_on_unreferenced_pub_fn() {
        let l = lib_file("fcma-linalg", "//! m\npub fn lonely_kernel() {}\n");
        let t = test_file("fcma-linalg", "//! t\nfn probe() { other(); }\n");
        let v = check_proptest_coverage(&ws_of(vec![l, t]));
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("lonely_kernel"));
    }

    #[test]
    fn proptest_pass_quiet_when_referenced_or_marked() {
        let l = lib_file(
            "fcma-linalg",
            "//! m\npub fn covered_kernel() {}\n// audit: allow(proptest) — trivial accessor\npub fn marked_kernel() {}\n",
        );
        let t = test_file("fcma-linalg", "//! t\nfn probe() { covered_kernel(); }\n");
        assert!(check_proptest_coverage(&ws_of(vec![l, t])).is_empty());
    }

    #[test]
    fn proptest_reference_needs_word_boundary() {
        let l = lib_file("fcma-linalg", "//! m\npub fn dot() {}\n");
        let t = test_file("fcma-linalg", "//! t\nfn probe() { syrk_dotty(); }\n");
        assert_eq!(check_proptest_coverage(&ws_of(vec![l, t])).len(), 1);
    }

    #[test]
    fn proptest_skips_impl_methods() {
        let l =
            lib_file("fcma-linalg", "//! m\nstruct M;\nimpl M {\n    pub fn method(&self) {}\n}\n");
        assert!(check_proptest_coverage(&ws_of(vec![l])).is_empty());
    }

    #[test]
    fn run_all_sorts_and_aggregates() {
        let f =
            lib_file("fcma-linalg", "//! m\npub fn f(o: Option<u8>) -> u8 {\n    o.unwrap()\n}\n");
        let v = ws_of(vec![f]).run_all();
        let passes: Vec<&str> = v.iter().map(|x| x.pass).collect();
        assert!(passes.contains(&"panicpath") && passes.contains(&"proptest"), "{v:?}");
        let mut sorted = v.clone();
        sorted.sort_by(|a, b| (&a.file, a.line, a.pass).cmp(&(&b.file, b.line, b.pass)));
        assert_eq!(v, sorted);
    }

    const DESIGN_FIXTURE: &str = "# Doc\n\n## 10. Other\n`not.this`\n\n\
        ## 11. Observability\nSpans: `stage1.corr`, `cluster.run`.\n\
        Counters: `svm.smo.solves`.\n\n## 12. After\n`not.that`\n";

    fn ws_tax(files: Vec<SourceFile>) -> Workspace {
        Workspace::new(files, CrateGraph::default(), Taxonomy::from_design_md(DESIGN_FIXTURE))
    }

    #[test]
    fn taxonomy_parses_only_the_observability_section() {
        let t = Taxonomy::from_design_md(DESIGN_FIXTURE).unwrap();
        assert_eq!(t.len(), 3);
        assert!(t.contains("stage1.corr"));
        assert!(t.contains("cluster.run"));
        assert!(t.contains("svm.smo.solves"));
        assert!(!t.contains("not.this"));
        assert!(!t.contains("not.that"));
        assert!(Taxonomy::from_design_md("# Doc\nno section\n").is_none());
    }

    #[test]
    fn tracename_accepts_documented_names_and_flags_undocumented() {
        let ok = lib_file(
            "fcma-core",
            "//! m\nfn f() {\n    let _s = span!(\"stage1.corr\", v = 1);\n}\n",
        );
        assert!(check_trace_names(&ws_tax(vec![ok])).is_empty());
        let bad =
            lib_file("fcma-core", "//! m\nfn f() {\n    counter!(\"stage9.rogue\", 1_u64);\n}\n");
        let v = check_trace_names(&ws_tax(vec![bad]));
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("stage9.rogue"), "{}", v[0].message);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn tracename_enforces_snake_dotted_shape() {
        assert!(is_snake_dotted("cluster.tasks.total"));
        assert!(is_snake_dotted("a.b_2"));
        assert!(!is_snake_dotted("single"));
        assert!(!is_snake_dotted("Bad.Case"));
        assert!(!is_snake_dotted("has.empty."));
        assert!(!is_snake_dotted("1.leading_digit"));
        assert!(!is_snake_dotted("spa ced.name"));
        // Shape is checked even without a taxonomy.
        let f = lib_file("fcma-core", "//! m\nfn f() {\n    event!(\"NotSnake\");\n}\n");
        assert_eq!(check_trace_names(&ws_of(vec![f])).len(), 1);
    }

    #[test]
    fn tracename_finds_wrapped_multiline_names() {
        let f = lib_file(
            "fcma-cluster",
            "//! m\nfn f() {\n    let _s = span!(\n        \"cluster.run\",\n        w = 1\n    );\n}\n",
        );
        assert!(check_trace_names(&ws_tax(vec![f])).is_empty());
        let miss = lib_file(
            "fcma-cluster",
            "//! m\nfn f() {\n    let _s = span!(\n        \"cluster.rogue\",\n    );\n}\n",
        );
        let v = check_trace_names(&ws_tax(vec![miss]));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4, "violation anchors to the literal's line");
    }

    #[test]
    fn tracename_skips_tests_trace_crate_and_markers() {
        let in_tests = lib_file(
            "fcma-core",
            "//! m\n#[cfg(test)]\nmod tests {\n    fn f() { event!(\"rogue.name\"); }\n}\n",
        );
        let trace_crate =
            lib_file("fcma-trace", "//! m\nfn f() {\n    span!(\"internal.probe\");\n}\n");
        let marked = lib_file(
            "fcma-core",
            "//! m\nfn f() {\n    // audit: allow(tracename) — experimental probe\n    event!(\"rogue.name\");\n}\n",
        );
        assert!(check_trace_names(&ws_tax(vec![in_tests, trace_crate, marked])).is_empty());
    }

    #[test]
    fn tracename_requires_inline_literal() {
        // A literal on a later line is another call's, not this one's.
        for call in [
            "counter!(NAME, n);",
            "fcma_trace::add_counter(NAME, 1);",
            "add_counter(name(), 1);\n    histogram!(\"stage1.corr\", 1.0);",
        ] {
            let f = lib_file("fcma-core", &format!("//! m\nfn f(n: u64) {{\n    {call}\n}}\n"));
            let v = check_trace_names(&ws_tax(vec![f]));
            assert_eq!(v.len(), 1, "{call}");
            assert!(v[0].message.contains("inline string literal"), "{call}");
        }
    }

    #[test]
    fn panicpath_fires_transitively_on_pub_fn() {
        let f = lib_file(
            "fcma-linalg",
            "//! m\npub fn entry(v: &[f32]) -> f32 {\n    helper(v)\n}\n\
             fn helper(v: &[f32]) -> f32 {\n    v.first().copied().unwrap()\n}\n",
        );
        let v = check_panicpath(&ws_of(vec![f]));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("`entry`"));
        assert!(v[0].message.contains("helper"), "{}", v[0].message);
    }

    #[test]
    fn panicpath_excused_by_docs_marker_and_absorbed() {
        let documented = lib_file(
            "fcma-linalg",
            "//! m\n/// # Panics\n/// On empty input.\npub fn entry(v: &[f32]) -> f32 {\n    v[0]\n}\n\
             pub fn caller(v: &[f32]) -> f32 {\n    entry(v)\n}\n",
        );
        assert!(check_panicpath(&ws_of(vec![documented])).is_empty());
        let marked = lib_file(
            "fcma-linalg",
            "//! m\n// audit: allow(panicpath) — index guarded by caller contract\npub fn entry(v: &[f32]) -> f32 {\n    v[0]\n}\n",
        );
        assert!(check_panicpath(&ws_of(vec![marked])).is_empty());
    }

    #[test]
    fn panicpath_source_marker_suppresses_one_source() {
        let f = lib_file(
            "fcma-linalg",
            "//! m\npub fn entry(o: Option<u8>) -> u8 {\n    // audit: allow(panicpath) — set on every path above\n    o.unwrap()\n}\n",
        );
        assert!(check_panicpath(&ws_of(vec![f])).is_empty());
        let two = lib_file(
            "fcma-linalg",
            "//! m\npub fn entry(o: Option<u8>, v: &[u8]) -> u8 {\n    // audit: allow(panicpath) — set on every path above\n    let a = o.unwrap();\n    a + v[0]\n}\n",
        );
        assert_eq!(check_panicpath(&ws_of(vec![two])).len(), 1, "second source still fires");
    }

    #[test]
    fn panicpath_skips_tests_bins_and_private_fns() {
        let t = test_file("fcma-linalg", "//! t\npub fn f(o: Option<u8>) -> u8 { o.unwrap() }\n");
        let b = SourceFile::new(
            "crates/x/src/main.rs",
            Some("x"),
            Role::Bin,
            "//! b\npub fn helper(o: Option<u8>) -> u8 { o.unwrap() }\nfn main() {}\n",
        );
        let private =
            lib_file("fcma-linalg", "//! m\nfn quiet(o: Option<u8>) -> u8 {\n    o.unwrap()\n}\n");
        let cfg = lib_file(
            "fcma-linalg",
            "//! m\n#[cfg(test)]\nmod tests {\n    pub fn f(o: Option<u8>) -> u8 { o.unwrap() }\n}\n",
        );
        assert!(check_panicpath(&ws_of(vec![t, b, private, cfg])).is_empty());
    }

    #[test]
    fn exempt_tool_crates_skip_panicpath() {
        let audit = lib_file(
            "fcma-audit",
            "//! m\npub fn tool_entry(o: Option<u8>) -> u8 {\n    o.unwrap()\n}\n",
        );
        let bench =
            lib_file("fcma-bench", "//! m\npub fn harness_entry(v: &[u8]) -> u8 {\n    v[0]\n}\n");
        assert!(check_panicpath(&ws_of(vec![audit, bench])).is_empty());
    }

    #[test]
    fn unusedallow_flags_stale_unknown_and_reasonless() {
        let f = lib_file(
            "fcma-core",
            "//! m\n// audit: allow(panicpath) — nothing below panics\nconst X: u8 = 0;\n\
             // audit: allow(frobnicate) — no such pass\nfn g() {}\n\
             pub fn h(o: Option<u8>) -> u8 {\n    // audit: allow(panicpath)\n    o.unwrap()\n}\n",
        );
        let ws = ws_of(vec![f]);
        let _ = check_panicpath(&ws); // consume nothing: marker has no reason
        let v = check_unused_allow(&ws);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().any(|x| x.message.contains("suppresses nothing")));
        assert!(v.iter().any(|x| x.message.contains("unknown pass `frobnicate`")));
        assert!(v.iter().any(|x| x.message.contains("missing its mandatory reason")));
    }

    #[test]
    fn unusedallow_flags_audit_comments_that_are_not_allow_markers() {
        let f = lib_file(
            "fcma-core",
            "//! m\n// audit: equivalent(cmp-flip) — retired triage marker\nfn f() {}\n\
             // audit: hot\nfn g() {}\n\
             fn h() {} // audit: alow(panicpath) — typo\n\
             /// Mention `// audit: pure` in docs.\nfn i() {}\n",
        );
        let v = check_unused_allow(&ws_of(vec![f]));
        let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![2, 4, 6], "{v:?}");
        assert!(v.iter().all(|x| x.message.contains("is not an allow marker")), "{v:?}");
    }

    #[test]
    fn unusedallow_quiet_when_marker_consumed() {
        let f = lib_file(
            "fcma-core",
            "//! m\npub fn f(o: Option<u8>) -> u8 {\n    // audit: allow(panicpath) — set above\n    o.unwrap()\n}\n",
        );
        let ws = ws_of(vec![f]);
        assert!(check_panicpath(&ws).is_empty());
        assert!(check_unused_allow(&ws).is_empty());
    }

    #[test]
    fn unusedallow_flags_marker_for_unescapable_pass() {
        let f =
            lib_file("fcma-core", "//! m\n// audit: allow(unusedallow) — nice try\nfn f() {}\n");
        let ws = ws_of(vec![f]);
        let v = check_unused_allow(&ws);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("no escape hatch"));
    }

    #[test]
    fn run_all_consumes_markers_before_unusedallow() {
        let f = lib_file(
            "fcma-linalg",
            "//! m\n// audit: allow(proptest) — internal helper surfaced for benches\npub fn bench_hook() {}\n",
        );
        let b = lib_file("fcma-core", "//! m\nfn f() {\n    bench_hook();\n}\n");
        let v = ws_of(vec![f, b]).run_all();
        assert!(v.is_empty(), "{v:?}");
    }
}
