//! The audit passes. Each takes the analyzed workspace and returns
//! violations; the driver prints them as `file:line: pass: message`.
//!
//! | pass          | scope                               | escape hatch |
//! |---------------|-------------------------------------|--------------|
//! | `cast`        | kernel-crate library code           | allow marker |
//! | `proptest`    | top-level `pub fn`s of fcma-linalg  | allow marker |
//! | `tracename`   | span!/event!/counter!/histogram! sites outside fcma-trace | allow marker |
//! | `layering`    | Cargo.toml edges + cross-crate paths vs DESIGN.md §12 DAG | none |
//! | `panicpath`   | call-graph panic reachability of sweep-crate `pub fn`s | `# Panics` docs or allow marker |
//! | `protocol`    | ToWorker/FromWorker ↔ driver match arms ↔ DESIGN.md §12 table | none |
//! | `deadpub`     | sweep-crate `pub` items with no cross-crate references | allow marker |
//! | `syncfacade`  | no raw `std::sync`/`std::thread` primitives outside fcma-sync | allow marker |
//! | `atomicorder` | every `Ordering::*` site matches a DESIGN.md §16 atomics-contract row | allow marker |
//! | `unusedallow` | every allow marker must suppress something | none |
//!
//! Allow markers are comments of the form
//! `// audit: allow(<pass>) — <reason>` on the offending line or the line
//! directly above; the reason is mandatory. The `unusedallow` pass runs
//! last and flags any marker no other pass consumed.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{CallGraph, Contracts, CrateGraph};
use crate::parser::{self, ParsedFile, TypeKind, Vis};
use crate::source::{marker_allows, Role, SourceFile};

/// Crates whose numeric code is held to the no-`as`-cast rule.
const KERNEL_CRATES: &[&str] = &["fcma-linalg", "fcma-core"];

/// The crate whose public kernels must be exercised by property tests.
const PROPTEST_CRATE: &str = "fcma-linalg";

/// The tracing substrate itself — exempt from the `tracename` pass (it
/// defines the probes; instrumentation lives in the other crates).
const TRACE_CRATE: &str = "fcma-trace";

/// Call-site prefixes whose first string literal is a trace name.
const TRACE_SITES: &[&str] =
    &["span!(", "event!(", "counter!(", "labeled_counter!(", "histogram!(", "record_span_elapsed("];

/// Where the cluster protocol enums live.
const PROTOCOL_FILE: &str = "crates/fcma-cluster/src/protocol.rs";

/// Where the master/worker loops match on protocol messages.
const DRIVER_FILE: &str = "crates/fcma-cluster/src/driver.rs";

/// Crates whose code never runs inside a sweep, exempt from the
/// `panicpath` and `deadpub` passes: `fcma-audit` is this CI tool
/// itself, `fcma-bench` is a measurement harness, and `fcma-mc` is the
/// model-checking harness (its asserts *should* abort the checker), so
/// a panic or an unused `pub` item there cannot take down a worker.
/// Every other library crate — including any future one — is in scope
/// by default.
const EXEMPT_CRATES: &[&str] = &["fcma-audit", "fcma-bench", "fcma-mc", "fcma-mut"];

/// The package name of the workspace root crate.
const ROOT_CRATE: &str = "fcma";

/// Crates exempt from the `syncfacade` pass: `fcma-sync` *is* the
/// facade, `fcma-mc` is the model checker driving it, `fcma-trace` is
/// the observational substrate below it (its internal registry mutex
/// must keep working while the facade is in model mode), and the
/// tool/bench crates never run inside a sweep.
const SYNC_EXEMPT_CRATES: &[&str] =
    &["fcma-sync", "fcma-mc", "fcma-trace", "fcma-audit", "fcma-bench"];

/// `std::sync` items forbidden outside the facade. `Arc`/`Weak` stay
/// allowed — they are shared ownership, not synchronization, and the
/// model checker does not need to interpose on them.
const FORBIDDEN_STD_SYNC: &[&str] =
    &["Mutex", "RwLock", "Condvar", "Barrier", "Once", "OnceLock", "LazyLock", "mpsc", "atomic"];

/// The mutant classes an `// audit: equivalent(<class>)` triage marker
/// may name (alias of [`crate::mutants::MUTANT_CLASSES`], kept local so
/// the marker checks read without a module hop).
const MUTANT_CLASSES_FOR_MARKERS: &[&str] = crate::mutants::MUTANT_CLASSES;

/// Every pass name an allow marker may reference, in `run_all` order.
pub const PASS_NAMES: &[&str] = &[
    "cast",
    "proptest",
    "tracename",
    "layering",
    "panicpath",
    "protocol",
    "deadpub",
    "syncfacade",
    "atomicorder",
    "unusedallow",
];

/// Passes that honor allow markers at all.
pub const ESCAPABLE_PASSES: &[&str] =
    &["cast", "proptest", "tracename", "panicpath", "deadpub", "syncfacade", "atomicorder"];

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
/// sources, the crate-dependency graph, the DESIGN.md contracts, and a
/// shared record of which allow markers were actually consulted (fed to
/// the `unusedallow` pass).
pub struct Workspace {
    /// Lexed and scope-analyzed files.
    pub files: Vec<SourceFile>,
    /// Item-parsed view of the same files (index-parallel).
    pub parsed: Vec<ParsedFile>,
    /// Crate-dependency graph from the manifests.
    pub crates: CrateGraph,
    /// Machine-readable DESIGN.md §12 contracts.
    pub contracts: Contracts,
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
        contracts: Contracts,
        taxonomy: Option<Taxonomy>,
    ) -> Workspace {
        let parsed = files.iter().map(|f| parser::parse(&f.scan)).collect();
        Workspace {
            files,
            parsed,
            crates,
            contracts,
            taxonomy,
            used_markers: RefCell::new(BTreeSet::new()),
        }
    }

    /// Parse-free constructor for callers that already hold the parsed
    /// views (the mutation engine's per-mutant overlay re-parses one
    /// file and clones the rest — re-parsing the whole workspace for
    /// every mutant would dominate its runtime). `parsed` must be
    /// index-parallel with `files`.
    pub fn with_parsed(
        files: Vec<SourceFile>,
        parsed: Vec<ParsedFile>,
        crates: CrateGraph,
        contracts: Contracts,
        taxonomy: Option<Taxonomy>,
    ) -> Workspace {
        debug_assert_eq!(files.len(), parsed.len());
        Workspace {
            files,
            parsed,
            crates,
            contracts,
            taxonomy,
            used_markers: RefCell::new(BTreeSet::new()),
        }
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

    /// Run every pass and return the sorted violations.
    pub fn run_all(&self) -> Vec<Violation> {
        self.run_selected(PASS_NAMES)
    }

    /// Run only the named passes (unknown names are ignored — the CLI
    /// validates them). `unusedallow` is additionally gated on *every*
    /// escapable pass being selected: with a subset running, unconsumed
    /// markers are expected, not stale.
    pub fn run_selected(&self, passes: &[&str]) -> Vec<Violation> {
        let on = |p: &str| passes.contains(&p);
        let mut v = Vec::new();
        if on("cast") {
            v.extend(check_casts(self));
        }
        if on("proptest") {
            v.extend(check_proptest_coverage(self));
        }
        if on("tracename") {
            v.extend(check_trace_names(self));
        }
        if on("layering") {
            v.extend(check_layering(self));
        }
        if on("panicpath") {
            v.extend(check_panicpath(self));
        }
        if on("protocol") {
            v.extend(check_protocol(self));
        }
        if on("deadpub") {
            v.extend(check_deadpub(self));
        }
        if on("syncfacade") {
            v.extend(check_syncfacade(self));
        }
        if on("atomicorder") {
            v.extend(check_atomicorder(self));
        }
        // Must run last: it inventories markers the passes above
        // consumed, so it is only meaningful when all of them ran.
        if on("unusedallow") && ESCAPABLE_PASSES.iter().all(|p| on(p)) {
            v.extend(check_unused_allow(self));
        }
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

/// Pass: no `as` numeric casts in kernel-crate library code.
///
/// `as` silently truncates and saturates; in the correlation kernels a
/// lossy index or value cast corrupts results instead of failing. Use
/// `From`/`TryFrom` (or the crate's cast helpers), or justify with
/// `// audit: allow(cast) — <reason>`.
pub fn check_casts(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        if f.role != Role::Lib
            || !f.crate_name.as_deref().is_some_and(|c| KERNEL_CRATES.contains(&c))
        {
            continue;
        }
        for cast in &f.casts {
            if f.in_test_span(cast.line) || ws.allowed(fi, "cast", cast.line) {
                continue;
            }
            out.push(Violation {
                file: f.rel_path.clone(),
                line: cast.line + 1,
                pass: "cast",
                message: format!(
                    "`as {}` in kernel crate: use From/TryFrom or add \
                     `// audit: allow(cast) — <reason>`",
                    cast.target
                ),
            });
        }
    }
    out
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

/// Pass: the crate-dependency DAG matches DESIGN.md §12.
///
/// Three checks, none escapable (edit the table, not the code): every
/// manifest `[dependencies]` edge on a `fcma-*` crate must be allowed by
/// the layering table; every `fcma_*::` path or `use` in library/binary
/// source must stay within the declaring crate's allowed set; and the
/// table itself must stay in sync with the set of workspace crates.
pub fn check_layering(ws: &Workspace) -> Vec<Violation> {
    let Some(table) = &ws.contracts.layering else {
        return Vec::new();
    };
    let mut out = Vec::new();

    // Manifest edges.
    for m in &ws.crates.crates {
        let Some(allowed) = table.get(&m.name) else {
            out.push(Violation {
                file: m.rel_path.clone(),
                line: 1,
                pass: "layering",
                message: format!(
                    "crate `{}` is missing from the DESIGN.md §12 layering table",
                    m.name
                ),
            });
            continue;
        };
        for dep in &m.deps {
            if !allowed.contains(&dep.name) {
                out.push(Violation {
                    file: m.rel_path.clone(),
                    line: dep.line + 1,
                    pass: "layering",
                    message: format!(
                        "dependency `{}` → `{}` violates the DESIGN.md §12 layering DAG",
                        m.name, dep.name
                    ),
                });
            }
        }
    }

    // Table staleness: rows for crates that no longer exist.
    for name in table.keys() {
        if ws.crates.get(name).is_none() {
            out.push(Violation {
                file: "DESIGN.md".to_owned(),
                line: 1,
                pass: "layering",
                message: format!(
                    "layering table lists crate `{name}` which is not in the workspace"
                ),
            });
        }
    }

    // Source-level cross-crate references.
    for (fi, f) in ws.files.iter().enumerate() {
        if !matches!(f.role, Role::Lib | Role::Bin) {
            continue;
        }
        let key = ws.crate_key(fi).to_owned();
        let Some(allowed) = table.get(&key) else {
            continue; // already reported at the manifest
        };
        for (crate_ref, line) in &ws.parsed[fi].crate_refs {
            let dep = crate_ref.replace('_', "-");
            if dep == key || f.in_test_span(*line) {
                continue;
            }
            if !allowed.contains(&dep) {
                out.push(Violation {
                    file: f.rel_path.clone(),
                    line: line + 1,
                    pass: "layering",
                    message: format!(
                        "`{crate_ref}::` reference from `{key}` violates the DESIGN.md §12 \
                         layering DAG (allowed deps: {})",
                        if allowed.is_empty() {
                            "none".to_owned()
                        } else {
                            allowed.iter().cloned().collect::<Vec<_>>().join(", ")
                        }
                    ),
                });
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

/// Pass: the master–worker protocol state machine is total and matches
/// the DESIGN.md §12 protocol table.
///
/// Four-way consistency between the `ToWorker`/`FromWorker` enums, the
/// `match` arms in the driver, the send sites, and the table: every enum
/// variant appears in the table and vice versa; every variant is handled
/// by at least one driver match arm (so no send site can target an
/// ignored variant); table-declared payload fields exist on the variant;
/// and `FromWorker::Done` always carries task identity (`task`). No
/// escape hatch — change the protocol and the table together.
pub fn check_protocol(ws: &Workspace) -> Vec<Violation> {
    let Some(table) = &ws.contracts.protocol else {
        return Vec::new();
    };
    let Some(pfi) = ws.files.iter().position(|f| f.rel_path == PROTOCOL_FILE) else {
        return Vec::new();
    };
    let proto_file = &ws.files[pfi];
    let enums: Vec<_> = ws.parsed[pfi]
        .types
        .iter()
        .filter(|t| t.kind == TypeKind::Enum && table.iter().any(|e| e.enum_name == t.name))
        .collect();
    let mut out = Vec::new();

    // Table rows referencing unknown enums or variants.
    for entry in table {
        let Some(en) = enums.iter().find(|t| t.name == entry.enum_name) else {
            out.push(Violation {
                file: "DESIGN.md".to_owned(),
                line: 1,
                pass: "protocol",
                message: format!(
                    "protocol table references enum `{}` not found in {PROTOCOL_FILE}",
                    entry.enum_name
                ),
            });
            continue;
        };
        let Some(variant) = en.variants.iter().find(|v| v.name == entry.variant) else {
            out.push(Violation {
                file: "DESIGN.md".to_owned(),
                line: 1,
                pass: "protocol",
                message: format!(
                    "protocol table lists `{}::{}` but the enum has no such variant",
                    entry.enum_name, entry.variant
                ),
            });
            continue;
        };
        for field in &entry.fields {
            if !variant.field_names.contains(field) && !variant.idents.contains(field) {
                out.push(Violation {
                    file: proto_file.rel_path.clone(),
                    line: variant.line + 1,
                    pass: "protocol",
                    message: format!(
                        "variant `{}::{}` must carry field `{field}` per the DESIGN.md §12 \
                         protocol table",
                        entry.enum_name, entry.variant
                    ),
                });
            }
        }
    }

    // Task identity is structural, not table-editable: `Done` without a
    // `task` field breaks the scheduler's exactly-once accounting.
    if let Some(done) = enums
        .iter()
        .find(|t| t.name == "FromWorker")
        .and_then(|t| t.variants.iter().find(|v| v.name == "Done"))
    {
        if !done.field_names.iter().any(|f| f == "task") {
            out.push(Violation {
                file: proto_file.rel_path.clone(),
                line: done.line + 1,
                pass: "protocol",
                message: "`FromWorker::Done` must carry task identity in a `task` field".to_owned(),
            });
        }
    }

    // Enum variants absent from the table.
    for en in &enums {
        for v in &en.variants {
            if !table.iter().any(|e| e.enum_name == en.name && e.variant == v.name) {
                out.push(Violation {
                    file: proto_file.rel_path.clone(),
                    line: v.line + 1,
                    pass: "protocol",
                    message: format!(
                        "variant `{}::{}` is not documented in the DESIGN.md §12 protocol \
                         table",
                        en.name, v.name
                    ),
                });
            }
        }
    }

    // Driver totality: every variant must have a match arm; send sites
    // for unhandled variants are reported with the evidence.
    if let Some(dfi) = ws.files.iter().position(|f| f.rel_path == DRIVER_FILE) {
        let driver = &ws.files[dfi];
        for en in &enums {
            for v in &en.variants {
                let needle = format!("{}::{}", en.name, v.name);
                let mut handled = 0usize;
                let mut sends = 0usize;
                for (lno, code) in driver.scan.code_lines.iter().enumerate() {
                    if driver.in_test_span(lno) {
                        continue;
                    }
                    let mut from = 0usize;
                    while let Some(p) = code[from..].find(&needle) {
                        let pos = from + p;
                        let end = pos + needle.len();
                        let boundary = code[end..]
                            .chars()
                            .next()
                            .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'));
                        if boundary {
                            if code[end..].contains("=>") {
                                handled += 1;
                            } else if code[..pos].contains("send(") {
                                sends += 1;
                            }
                        }
                        from = end;
                    }
                }
                if handled == 0 {
                    let evidence = if sends > 0 {
                        format!(" ({sends} send site(s) target it)")
                    } else {
                        String::new()
                    };
                    out.push(Violation {
                        file: proto_file.rel_path.clone(),
                        line: v.line + 1,
                        pass: "protocol",
                        message: format!(
                            "variant `{}::{}` is not handled by any match arm in \
                             {DRIVER_FILE}{evidence}",
                            en.name, v.name
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Pass: no workspace-`pub` item without cross-crate references.
///
/// A `pub` item in a library crate that nothing outside its own crate's
/// library target references is API surface without a consumer: demote
/// it to `pub(crate)`, delete it, or justify keeping it with
/// `// audit: allow(deadpub) — <reason>`. References are counted from
/// any file of a different crate and from the declaring crate's own
/// tests/benches/binaries. Trait-impl and trait-declared methods are
/// exempt (their visibility is the trait's business), as are `main`,
/// the item's own declaration file, and the [`EXEMPT_CRATES`] tool
/// crates.
pub fn check_deadpub(ws: &Workspace) -> Vec<Violation> {
    struct Item<'a> {
        file: usize,
        line: usize,
        name: &'a str,
        kind: &'static str,
    }
    let mut items = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        if f.role != Role::Lib || EXEMPT_CRATES.contains(&ws.crate_key(fi)) {
            continue;
        }
        for pf in &ws.parsed[fi].fns {
            if pf.vis == Vis::Pub
                && !pf.trait_impl
                && !pf.in_trait
                && pf.name != "main"
                && !f.in_test_span(pf.line)
            {
                items.push(Item { file: fi, line: pf.line, name: &pf.name, kind: "fn" });
            }
        }
        for t in &ws.parsed[fi].types {
            if t.vis == Vis::Pub && !f.in_test_span(t.line) {
                let kind = match t.kind {
                    TypeKind::Struct => "struct",
                    TypeKind::Enum => "enum",
                    TypeKind::Trait => "trait",
                };
                items.push(Item { file: fi, line: t.line, name: &t.name, kind });
            }
        }
    }

    let mut out = Vec::new();
    for item in items {
        let my_crate = ws.crate_key(item.file).to_owned();
        let referenced = ws.files.iter().enumerate().any(|(fi, f)| {
            if fi == item.file {
                return false;
            }
            let cross_crate = ws.crate_key(fi) != my_crate;
            if !cross_crate && f.role == Role::Lib {
                return false;
            }
            f.scan.code_lines.iter().any(|line| contains_word(line, item.name))
        });
        if referenced || ws.allowed(item.file, "deadpub", item.line) {
            continue;
        }
        out.push(Violation {
            file: ws.files[item.file].rel_path.clone(),
            line: item.line + 1,
            pass: "deadpub",
            message: format!(
                "pub {} `{}` has no cross-crate references; demote to pub(crate), remove \
                 it, or add `// audit: allow(deadpub) — <reason>`",
                item.kind, item.name
            ),
        });
    }
    out
}

/// Pass: no raw synchronization primitive outside the fcma-sync facade.
///
/// The model checker (`fcma-mc`) can only explore interleavings that
/// route through `fcma_sync`'s choice points; a raw `std::sync::Mutex`
/// or `std::thread::spawn` in scheduler-adjacent code is invisible to it
/// and silently shrinks the verified state space. (No third-party sync
/// crate is vendored, so naming one is already a compile error.) `std::sync::Arc`/`Weak` stay allowed (shared
/// ownership, not synchronization). Kernel-local uses with a bounded
/// critical section can justify themselves with
/// `// audit: allow(syncfacade) — <reason>`.
pub fn check_syncfacade(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        if !matches!(f.role, Role::Lib | Role::Bin)
            || SYNC_EXEMPT_CRATES.contains(&ws.crate_key(fi))
        {
            continue;
        }
        let flag = |line: usize, what: &str, instead: &str, out: &mut Vec<Violation>| {
            if f.in_test_span(line) || ws.allowed(fi, "syncfacade", line) {
                return;
            }
            out.push(Violation {
                file: f.rel_path.clone(),
                line: line + 1,
                pass: "syncfacade",
                message: format!(
                    "`{what}` bypasses the fcma-sync facade (invisible to the model \
                     checker); use {instead} or add `// audit: allow(syncfacade) — <reason>`"
                ),
            });
        };
        for (lno, code) in f.scan.code_lines.iter().enumerate() {
            if !site_starts_word(code, "std::thread").is_empty() {
                flag(lno, "std::thread", "`fcma_sync::thread`", &mut out);
            }
            for col in site_starts(code, "std::sync::") {
                let after = col + "std::sync::".len();
                for item in std_sync_items(&f.scan.code_lines, lno, after) {
                    if FORBIDDEN_STD_SYNC.contains(&item.as_str()) {
                        flag(
                            lno,
                            &format!("std::sync::{item}"),
                            "the `fcma_sync` equivalent",
                            &mut out,
                        );
                    }
                }
            }
        }
    }
    out
}

/// The item names referenced by a `std::sync::` path starting at char
/// `from` on line `lno`: the single following identifier, or for a
/// grouped import (`std::sync::{Arc, Mutex}`) every top-level ident in
/// the braces, following continuation lines until the group closes.
fn std_sync_items(code_lines: &[String], lno: usize, from: usize) -> Vec<String> {
    let mut items = Vec::new();
    let first: Vec<char> = code_lines[lno].chars().collect();
    if first.get(from) != Some(&'{') {
        let mut name = String::new();
        let mut i = from;
        while i < first.len() && (first[i].is_alphanumeric() || first[i] == '_') {
            name.push(first[i]);
            i += 1;
        }
        if !name.is_empty() {
            items.push(name);
        }
        return items;
    }
    // Grouped import: collect the first ident of each `,`-separated
    // entry at brace depth 1 (so `atomic::AtomicBool` yields `atomic`).
    let mut depth = 0i32;
    let mut expecting = true;
    for (idx, raw) in code_lines.iter().enumerate().skip(lno) {
        let chars: Vec<char> = raw.chars().collect();
        let mut i = if idx == lno { from } else { 0 };
        while i < chars.len() {
            match chars[i] {
                '{' => {
                    depth += 1;
                    i += 1;
                }
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return items;
                    }
                    i += 1;
                }
                ',' => {
                    if depth == 1 {
                        expecting = true;
                    }
                    i += 1;
                }
                c if c.is_alphabetic() || c == '_' => {
                    let mut name = String::new();
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        name.push(chars[i]);
                        i += 1;
                    }
                    if depth == 1 && expecting {
                        items.push(name);
                        expecting = false;
                    }
                }
                _ => i += 1,
            }
        }
    }
    items
}

/// The memory orderings the `atomicorder` pass tracks.
const MEM_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Whether an atomic method reads, writes, or does both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpClass {
    Load,
    Store,
    Rmw,
}

/// Atomic method names an `Ordering::` argument can belong to.
const ATOMIC_OPS: &[(&str, OpClass)] = &[
    ("load", OpClass::Load),
    ("store", OpClass::Store),
    ("swap", OpClass::Rmw),
    ("fetch_add", OpClass::Rmw),
    ("fetch_sub", OpClass::Rmw),
    ("fetch_and", OpClass::Rmw),
    ("fetch_or", OpClass::Rmw),
    ("fetch_xor", OpClass::Rmw),
    ("fetch_update", OpClass::Rmw),
    ("fetch_max", OpClass::Rmw),
    ("fetch_min", OpClass::Rmw),
    ("compare_exchange", OpClass::Rmw),
    ("compare_exchange_weak", OpClass::Rmw),
];

/// `Ordering::<variant>` tokens on one scrubbed code line, as
/// (char position of `Ordering`, variant) pairs. Only the five memory
/// orderings count — `cmp::Ordering::Less` never matches.
pub(crate) fn ordering_tokens(code: &str) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for col in site_starts(code, "Ordering::") {
        let variant: String = code
            .chars()
            .skip(col + "Ordering::".len())
            .take_while(char::is_ascii_alphanumeric)
            .collect();
        if let Some(&ord) = MEM_ORDERINGS.iter().find(|&&o| o == variant) {
            out.push((col, ord));
        }
    }
    out
}

/// The rightmost `recv.op(` atomic call starting before char `limit`;
/// returns (receiver ident, op, class).
fn last_atomic_call(code: &str, limit: usize) -> Option<(String, &'static str, OpClass)> {
    let chars: Vec<char> = code.chars().collect();
    let mut best: Option<(usize, String, &'static str, OpClass)> = None;
    for &(op, class) in ATOMIC_OPS {
        for s in site_starts_word(code, op) {
            if s >= limit || s == 0 || chars[s - 1] != '.' {
                continue;
            }
            let mut j = s + op.chars().count();
            while j < chars.len() && chars[j].is_whitespace() {
                j += 1;
            }
            if chars.get(j) != Some(&'(') {
                continue;
            }
            let e = s - 1;
            let mut b = e;
            while b > 0 && (chars[b - 1].is_ascii_alphanumeric() || chars[b - 1] == '_') {
                b -= 1;
            }
            if b == e {
                continue;
            }
            let recv: String = chars[b..e].iter().collect();
            if best.as_ref().is_none_or(|&(p, ..)| s > p) {
                best = Some((s, recv, op, class));
            }
        }
    }
    best.map(|(_, r, o, c)| (r, o, c))
}

/// The atomic call an `Ordering::` token at (`lineno`, `col`) belongs
/// to: the nearest atomic-method call left of the token on its own
/// line, or on one of the three lines above (rustfmt may wrap a
/// `compare_exchange` argument list).
pub(crate) fn atomic_op_at(
    f: &SourceFile,
    lineno: usize,
    col: usize,
) -> Option<(String, &'static str, OpClass)> {
    for back in 0..4 {
        let Some(l) = lineno.checked_sub(back) else {
            break;
        };
        let code = &f.scan.code_lines[l];
        let limit = if back == 0 { col } else { code.chars().count() };
        if let Some(hit) = last_atomic_call(code, limit) {
            return Some(hit);
        }
    }
    None
}

/// Pass: every explicit memory-ordering site is covered by a DESIGN.md
/// §16 "Atomics contracts" row, with the ordering it uses among the
/// row's allowed load/store orderings.
///
/// The §16 table is the review record for every hand-placed fence in
/// the workspace: which atomic, where it lives, which orderings its
/// loads and stores may use, and which release→acquire pairing makes it
/// sound. This pass closes the loop in both directions — an `Ordering::*`
/// site without a row is a violation, and a row without a site is stale.
/// The declared `sites:` count must match the scan exactly, so a new
/// fence cannot land without a contract review.
/// Escapable per site with `// audit: allow(atomicorder) — <reason>`.
pub fn check_atomicorder(ws: &Workspace) -> Vec<Violation> {
    let contract = ws.contracts.atomics.as_ref();
    let mut out = Vec::new();
    let mut actual_sites = 0usize;
    let mut matched: BTreeSet<(String, String)> = BTreeSet::new();
    let mut first_site: Option<(String, usize)> = None;
    for (fi, f) in ws.files.iter().enumerate() {
        if f.role != Role::Lib || EXEMPT_CRATES.contains(&ws.crate_key(fi)) {
            continue;
        }
        for (lineno, code) in f.scan.code_lines.iter().enumerate() {
            if f.in_test_span(lineno) {
                continue;
            }
            for (col, ord) in ordering_tokens(code) {
                actual_sites += 1;
                if first_site.is_none() {
                    first_site = Some((f.rel_path.clone(), lineno));
                }
                let Some(c) = contract else {
                    continue;
                };
                if ws.allowed(fi, "atomicorder", lineno) {
                    continue;
                }
                let Some((recv, op, class)) = atomic_op_at(f, lineno, col) else {
                    out.push(Violation {
                        file: f.rel_path.clone(),
                        line: lineno + 1,
                        pass: "atomicorder",
                        message: format!(
                            "cannot associate `Ordering::{ord}` with an atomic operation; \
                             call the atomic through a named binding"
                        ),
                    });
                    continue;
                };
                let Some(e) = c.entry(&recv, &f.rel_path) else {
                    out.push(Violation {
                        file: f.rel_path.clone(),
                        line: lineno + 1,
                        pass: "atomicorder",
                        message: format!(
                            "atomic site `{recv}.{op}` (`Ordering::{ord}`) has no DESIGN.md \
                             §16 row for `{recv}` in this file; add one (or \
                             `// audit: allow(atomicorder) — <reason>`)"
                        ),
                    });
                    continue;
                };
                matched.insert((e.name.clone(), e.file.clone()));
                let ok = match class {
                    OpClass::Load => e.loads.iter().any(|o| o == ord),
                    OpClass::Store => e.stores.iter().any(|o| o == ord),
                    OpClass::Rmw => e.loads.iter().chain(&e.stores).any(|o| o == ord),
                };
                if !ok {
                    out.push(Violation {
                        file: f.rel_path.clone(),
                        line: lineno + 1,
                        pass: "atomicorder",
                        message: format!(
                            "`{recv}.{op}` uses `Ordering::{ord}` but its DESIGN.md §16 row \
                             allows loads [{}] and stores [{}]",
                            e.loads.join(", "),
                            e.stores.join(", "),
                        ),
                    });
                }
            }
        }
    }
    match (contract, first_site) {
        (None, Some((file, line))) => out.push(Violation {
            file,
            line: line + 1,
            pass: "atomicorder",
            message: format!(
                "workspace has {actual_sites} `Ordering::*` site(s) but DESIGN.md has no \
                 §16 \"Atomics contracts\" table"
            ),
        }),
        (Some(c), _) => {
            if let Some(declared) = c.declared_sites {
                if declared != actual_sites {
                    out.push(Violation {
                        file: "DESIGN.md".to_owned(),
                        line: 1,
                        pass: "atomicorder",
                        message: format!(
                            "DESIGN.md §16 declares {declared} `Ordering::*` site(s) but the \
                             workspace has {actual_sites}; update the `sites:` count"
                        ),
                    });
                }
            }
            for e in &c.entries {
                if !matched.contains(&(e.name.clone(), e.file.clone())) {
                    out.push(Violation {
                        file: "DESIGN.md".to_owned(),
                        line: 1,
                        pass: "atomicorder",
                        message: format!(
                            "stale DESIGN.md §16 row: atomic `{}` in `{}` matched no \
                             `Ordering::*` site",
                            e.name, e.file
                        ),
                    });
                }
            }
        }
        (None, None) => {}
    }
    out
}

/// Pass: every allow marker must have suppressed something this run.
///
/// Mirrors `#[warn(unused_allow)]`: a marker naming an unknown pass, a
/// marker missing its mandatory reason, a marker for a pass with no
/// escape hatch, and a well-formed marker no pass consumed are all
/// violations. `// audit: equivalent(<class>)` mutation-triage markers
/// are checked the same way — the class must be one the mutation engine
/// implements and an enumerated mutant of that class must sit under
/// the marker, so a triage comment cannot outlive the code it excuses.
/// Must run after every other pass (consumption is recorded as they
/// go).
pub fn check_unused_allow(ws: &Workspace) -> Vec<Violation> {
    let used = ws.used_markers.borrow();
    let mut out = Vec::new();
    // Mutant sites only matter when a triage marker exists somewhere;
    // the enumeration is one extra linear scan in that case.
    let mutant_sites: Option<BTreeSet<(usize, &'static str, usize)>> =
        ws.files.iter().any(|f| !f.equivalent_markers().is_empty()).then(|| {
            crate::mutants::enumerate(ws).into_iter().map(|m| (m.file, m.class, m.line)).collect()
        });
    for (fi, f) in ws.files.iter().enumerate() {
        for m in f.equivalent_markers() {
            let covers_site = |sites: &BTreeSet<(usize, &'static str, usize)>| {
                MUTANT_CLASSES_FOR_MARKERS.iter().any(|&c| {
                    c == m.class
                        && (sites.contains(&(fi, c, m.line))
                            || sites.contains(&(fi, c, m.line + 1)))
                })
            };
            let violation = if !MUTANT_CLASSES_FOR_MARKERS.contains(&m.class.as_str()) {
                Some(format!(
                    "equivalent marker names unknown mutant class `{}` (known: {})",
                    m.class,
                    MUTANT_CLASSES_FOR_MARKERS.join(", ")
                ))
            } else if !m.has_reason {
                Some(format!(
                    "equivalent marker for `{}` is missing its mandatory reason \
                     (`// audit: equivalent({}) — <reason>`)",
                    m.class, m.class
                ))
            } else if !mutant_sites.as_ref().is_some_and(covers_site) {
                Some(format!(
                    "stale equivalent marker: no `{}` mutant is enumerated under it; remove it",
                    m.class
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
pub(crate) fn site_starts(line: &str, pat: &str) -> Vec<usize> {
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

/// [`site_starts`] filtered to occurrences that also end at a word
/// boundary, so `std::thread` matches `std::thread::spawn` but not a
/// hypothetical `std::thread_pool`.
fn site_starts_word(line: &str, pat: &str) -> Vec<usize> {
    let chars: Vec<char> = line.chars().collect();
    let plen = pat.chars().count();
    site_starts(line, pat)
        .into_iter()
        .filter(|&s| match chars.get(s + plen) {
            Some(&c) => !(c.is_ascii_alphanumeric() || c == '_'),
            None => true,
        })
        .collect()
}

/// First `"…"` literal at or after char `from` on line `lno`, searching
/// up to two continuation lines (rustfmt may wrap the name onto the line
/// after the macro's opening paren). Returns (0-based line, contents).
fn extract_name(raw_lines: &[String], lno: usize, from: usize) -> Option<(usize, String)> {
    for (idx, raw) in raw_lines.iter().enumerate().skip(lno).take(3) {
        let chars: Vec<char> = raw.chars().collect();
        let mut i = if idx == lno { from } else { 0 };
        while i < chars.len() && chars[i] != '"' {
            i += 1;
        }
        if i < chars.len() {
            let mut name = String::new();
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                name.push(chars[i]);
                i += 1;
            }
            return Some((idx, name));
        }
    }
    None
}

/// Word-boundary containment: `name` in `line` not flanked by ident chars.
pub(crate) fn contains_word(line: &str, name: &str) -> bool {
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
    use crate::graph::{CrateGraph, CrateManifest, ManifestDep};
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
        Workspace::new(files, CrateGraph::default(), Contracts::default(), None)
    }

    fn ws_with(files: Vec<SourceFile>, crates: CrateGraph, contracts: Contracts) -> Workspace {
        Workspace::new(files, crates, contracts, None)
    }

    fn manifest(name: &str, deps: &[&str]) -> CrateManifest {
        CrateManifest {
            name: name.to_owned(),
            rel_path: format!("crates/{name}/Cargo.toml"),
            deps: deps
                .iter()
                .enumerate()
                .map(|(i, d)| ManifestDep { name: (*d).to_owned(), line: i + 3 })
                .collect(),
        }
    }

    #[test]
    fn cast_fires_only_in_kernel_crates() {
        let kernel = lib_file("fcma-linalg", "//! m\nfn f(n: usize) -> f32 {\n    n as f32\n}\n");
        let other = lib_file("fcma-io", "//! m\nfn f(n: usize) -> f32 {\n    n as f32\n}\n");
        let v = check_casts(&ws_of(vec![kernel, other]));
        assert_eq!(v.len(), 1);
        assert!(v[0].file.contains("fcma-linalg"));
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn cast_escaped_by_marker_and_cfg_test() {
        let marked = lib_file(
            "fcma-core",
            "//! m\nfn f(n: usize) -> f32 {\n    // audit: allow(cast) — n < 2^24, exact in f32\n    n as f32\n}\n",
        );
        let tested = lib_file(
            "fcma-core",
            "//! m\n#[cfg(test)]\nmod tests {\n    fn f(n: usize) -> f32 { n as f32 }\n}\n",
        );
        assert!(check_casts(&ws_of(vec![marked, tested])).is_empty());
    }

    #[test]
    fn cast_marker_without_reason_still_fires() {
        let f = lib_file(
            "fcma-core",
            "//! m\nfn f(n: usize) -> f32 {\n    // audit: allow(cast)\n    n as f32\n}\n",
        );
        assert_eq!(check_casts(&ws_of(vec![f])).len(), 1);
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
        let f = lib_file("fcma-linalg", "//! m\npub fn f(n: usize) -> f32 {\n    n as f32\n}\n");
        let v = ws_of(vec![f]).run_all();
        let passes: Vec<&str> = v.iter().map(|x| x.pass).collect();
        assert!(passes.contains(&"cast") && passes.contains(&"proptest"), "{v:?}");
        let mut sorted = v.clone();
        sorted.sort_by(|a, b| (&a.file, a.line, a.pass).cmp(&(&b.file, b.line, b.pass)));
        assert_eq!(v, sorted);
    }

    const DESIGN_FIXTURE: &str = "# Doc\n\n## 10. Other\n`not.this`\n\n\
        ## 11. Observability\nSpans: `stage1.corr`, `cluster.run`.\n\
        Counters: `svm.smo.solves`.\n\n## 12. After\n`not.that`\n";

    fn ws_tax(files: Vec<SourceFile>) -> Workspace {
        Workspace::new(
            files,
            CrateGraph::default(),
            Contracts::default(),
            Taxonomy::from_design_md(DESIGN_FIXTURE),
        )
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
        let f = lib_file("fcma-core", "//! m\nfn f(n: u64) {\n    counter!(NAME, n);\n}\n");
        let v = check_trace_names(&ws_of(vec![f]));
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("inline string literal"));
    }

    fn layer_contracts(rows: &[(&str, &[&str])]) -> Contracts {
        let mut md = String::from("## 12. Architecture contracts\n\n| Crate | Deps |\n|--|--|\n");
        for (c, deps) in rows {
            let cell = if deps.is_empty() {
                "(none)".to_owned()
            } else {
                deps.iter().map(|d| format!("`{d}`")).collect::<Vec<_>>().join(", ")
            };
            md.push_str(&format!("| `{c}` | {cell} |\n"));
        }
        Contracts::from_design_md(&md)
    }

    #[test]
    fn layering_rejects_undeclared_manifest_edge() {
        let crates = CrateGraph { crates: vec![manifest("fcma-linalg", &["fcma-cluster"])] };
        let contracts =
            layer_contracts(&[("fcma-linalg", &[]), ("fcma-cluster", &["fcma-linalg"])]);
        let ws = ws_with(Vec::new(), crates, contracts);
        let v = check_layering(&ws);
        assert_eq!(v.len(), 2, "{v:?}"); // bad edge + stale table row for fcma-cluster
        assert!(v.iter().any(|x| x.message.contains("`fcma-linalg` → `fcma-cluster`")));
    }

    #[test]
    fn layering_rejects_cross_crate_path_reference() {
        let crates = CrateGraph {
            crates: vec![manifest("fcma-linalg", &[]), manifest("fcma-cluster", &[])],
        };
        let contracts =
            layer_contracts(&[("fcma-linalg", &[]), ("fcma-cluster", &["fcma-linalg"])]);
        let f = lib_file("fcma-linalg", "//! m\nfn f() {\n    fcma_cluster::run();\n}\n");
        let ws = ws_with(vec![f], crates, contracts);
        let v = check_layering(&ws);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("fcma_cluster"));
    }

    #[test]
    fn layering_allows_declared_edges_and_flags_missing_crates() {
        let crates = CrateGraph {
            crates: vec![manifest("fcma-cluster", &["fcma-linalg"]), manifest("fcma-new", &[])],
        };
        let contracts =
            layer_contracts(&[("fcma-linalg", &[]), ("fcma-cluster", &["fcma-linalg"])]);
        let ws = ws_with(Vec::new(), crates, contracts);
        let v = check_layering(&ws);
        // fcma-new missing from table; fcma-linalg in table but not in
        // the workspace manifest set.
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|x| x.message.contains("`fcma-new` is missing")));
        assert!(v.iter().any(|x| x.message.contains("not in the workspace")));
    }

    #[test]
    fn layering_skips_without_table() {
        let crates = CrateGraph { crates: vec![manifest("fcma-linalg", &["fcma-cluster"])] };
        let ws = ws_with(Vec::new(), crates, Contracts::default());
        assert!(check_layering(&ws).is_empty());
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

    const PROTO_DESIGN: &str = "## 12. Architecture contracts\n\n\
        | Message | Fields |\n|--|--|\n\
        | `ToWorker::Task` | `VoxelTask` |\n\
        | `ToWorker::Shutdown` | (none) |\n\
        | `FromWorker::Ready` | `worker` |\n\
        | `FromWorker::Done` | `worker`, `task`, `scores` |\n\
        | `FromWorker::Failed` | `worker`, `task` |\n";

    const PROTO_SRC: &str = "//! p\n\
        pub enum ToWorker {\n    Task(VoxelTask),\n    Shutdown,\n}\n\
        pub enum FromWorker {\n    Ready { worker: usize },\n    Done { worker: usize, task: VoxelTask, scores: Vec<f64> },\n    Failed { worker: usize, task: VoxelTask },\n}\n";

    const DRIVER_SRC: &str = "//! d\nfn master(m: FromWorker, w: ToWorker) {\n\
        match m {\n        FromWorker::Ready { .. } => {}\n        FromWorker::Done { worker, task, scores } => {}\n        FromWorker::Failed { worker, task } => {}\n    }\n\
        match w {\n        ToWorker::Task(t) => {}\n        ToWorker::Shutdown => {}\n    }\n}\n\
        fn sends(tx: Sender<ToWorker>) {\n    tx.send(ToWorker::Task(t));\n    tx.send(ToWorker::Shutdown);\n}\n";

    fn proto_files(proto: &str, driver: &str) -> Vec<SourceFile> {
        vec![
            SourceFile::new(PROTOCOL_FILE, Some("fcma-cluster"), Role::Lib, proto),
            SourceFile::new(DRIVER_FILE, Some("fcma-cluster"), Role::Lib, driver),
        ]
    }

    #[test]
    fn protocol_clean_on_conforming_state_machine() {
        let ws = ws_with(
            proto_files(PROTO_SRC, DRIVER_SRC),
            CrateGraph::default(),
            Contracts::from_design_md(PROTO_DESIGN),
        );
        let v = check_protocol(&ws);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn protocol_flags_undocumented_variant_and_missing_arm() {
        let proto = PROTO_SRC.replace("    Shutdown,\n", "    Shutdown,\n    Poison,\n");
        let ws = ws_with(
            proto_files(&proto, DRIVER_SRC),
            CrateGraph::default(),
            Contracts::from_design_md(PROTO_DESIGN),
        );
        let v = check_protocol(&ws);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|x| x.message.contains("not documented")));
        assert!(v.iter().any(|x| x.message.contains("not handled by any match arm")));
    }

    #[test]
    fn protocol_flags_done_without_task_identity() {
        let proto = PROTO_SRC.replace(
            "    Done { worker: usize, task: VoxelTask, scores: Vec<f64> },\n",
            "    Done { worker: usize, scores: Vec<f64> },\n",
        );
        let driver = DRIVER_SRC.replace(
            "FromWorker::Done { worker, task, scores }",
            "FromWorker::Done { worker, scores }",
        );
        let ws = ws_with(
            proto_files(&proto, &driver),
            CrateGraph::default(),
            Contracts::from_design_md(PROTO_DESIGN),
        );
        let v = check_protocol(&ws);
        assert!(v.iter().any(|x| x.message.contains("task identity")), "{v:?}");
        assert!(v.iter().any(|x| x.message.contains("must carry field `task`")), "{v:?}");
    }

    #[test]
    fn protocol_flags_stale_table_row() {
        let design = format!("{PROTO_DESIGN}| `FromWorker::Retired` | (none) |\n");
        let ws = ws_with(
            proto_files(PROTO_SRC, DRIVER_SRC),
            CrateGraph::default(),
            Contracts::from_design_md(&design),
        );
        let v = check_protocol(&ws);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("no such variant"));
    }

    #[test]
    fn protocol_skips_without_table_or_file() {
        let ws = ws_with(
            proto_files(PROTO_SRC, DRIVER_SRC),
            CrateGraph::default(),
            Contracts::default(),
        );
        assert!(check_protocol(&ws).is_empty());
        let ws2 =
            ws_with(Vec::new(), CrateGraph::default(), Contracts::from_design_md(PROTO_DESIGN));
        assert!(check_protocol(&ws2).is_empty());
    }

    #[test]
    fn exempt_tool_crates_skip_panicpath_and_deadpub() {
        let audit = lib_file(
            "fcma-audit",
            "//! m\npub fn tool_entry(o: Option<u8>) -> u8 {\n    o.unwrap()\n}\n",
        );
        let bench =
            lib_file("fcma-bench", "//! m\npub fn harness_entry(v: &[u8]) -> u8 {\n    v[0]\n}\n");
        let ws = ws_of(vec![audit, bench]);
        assert!(check_panicpath(&ws).is_empty());
        assert!(check_deadpub(&ws).is_empty());
    }

    #[test]
    fn deadpub_flags_unreferenced_pub_item() {
        let a =
            lib_file("fcma-linalg", "//! m\npub fn orphan_kernel() {}\npub struct OrphanType;\n");
        let b = lib_file("fcma-core", "//! m\nfn unrelated() {}\n");
        let v = check_deadpub(&ws_of(vec![a, b]));
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|x| x.message.contains("orphan_kernel")));
        assert!(v.iter().any(|x| x.message.contains("OrphanType")));
    }

    #[test]
    fn deadpub_quiet_on_cross_crate_or_own_test_reference() {
        let a = lib_file("fcma-linalg", "//! m\npub fn used_kernel() {}\npub fn test_only() {}\n");
        let b = lib_file("fcma-core", "//! m\nfn f() {\n    used_kernel();\n}\n");
        let t = test_file("fcma-linalg", "//! t\nfn probe() { test_only(); }\n");
        assert!(check_deadpub(&ws_of(vec![a, b, t])).is_empty());
    }

    #[test]
    fn deadpub_ignores_scoped_trait_impls_and_markers() {
        let a = lib_file(
            "fcma-linalg",
            "//! m\npub(crate) fn scoped() {}\n\
             pub trait Referenced {}\n\
             impl std::fmt::Display for M {\n    pub fn fmt(&self) {}\n}\n\
             // audit: allow(deadpub) — staged API for the next PR\npub fn staged() {}\n",
        );
        let b = lib_file("fcma-core", "//! m\nfn f(_: impl Referenced) {}\n");
        let v = check_deadpub(&ws_of(vec![a, b]));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn syncfacade_flags_raw_primitives_and_grouped_imports() {
        let f = lib_file(
            "fcma-cluster",
            "//! m\nuse std::sync::Mutex;\n\
             use std::sync::{\n    Arc,\n    mpsc,\n};\n\
             fn f() {\n    std::thread::spawn(|| {});\n}\n",
        );
        let v = check_syncfacade(&ws_of(vec![f]));
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().any(|x| x.message.contains("std::sync::Mutex")));
        assert!(v.iter().any(|x| x.message.contains("std::sync::mpsc")));
        assert!(v.iter().any(|x| x.message.contains("std::thread")));
        assert!(v.iter().all(|x| x.pass == "syncfacade"));
    }

    #[test]
    fn syncfacade_allows_arc_exempt_crates_tests_and_markers() {
        let arc_only = lib_file("fcma-cluster", "//! m\nuse std::sync::Arc;\nfn f() {}\n");
        let facade_itself = lib_file("fcma-sync", "//! m\nuse std::sync::Mutex;\nfn f() {}\n");
        let in_tests = lib_file(
            "fcma-cluster",
            "//! m\n#[cfg(test)]\nmod tests {\n    use std::sync::mpsc;\n}\n",
        );
        let marked = lib_file(
            "fcma-linalg",
            "//! m\n// audit: allow(syncfacade) — kernel-local reduction lock\nuse std::sync::Mutex;\n",
        );
        let v = check_syncfacade(&ws_of(vec![arc_only, facade_itself, in_tests, marked]));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unusedallow_flags_stale_unknown_and_reasonless() {
        let f = lib_file(
            "fcma-core",
            "//! m\n// audit: allow(cast) — nothing below casts\nfn f() {}\n\
             // audit: allow(frobnicate) — no such pass\nfn g() {}\n\
             fn h(n: usize) -> f32 {\n    // audit: allow(cast)\n    n as f32\n}\n",
        );
        let ws = ws_of(vec![f]);
        let _ = check_casts(&ws); // consume nothing: marker has no reason
        let v = check_unused_allow(&ws);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().any(|x| x.message.contains("suppresses nothing")));
        assert!(v.iter().any(|x| x.message.contains("unknown pass `frobnicate`")));
        assert!(v.iter().any(|x| x.message.contains("missing its mandatory reason")));
    }

    #[test]
    fn unusedallow_validates_equivalent_markers() {
        // A live triage marker: an arith-swap mutant is enumerated on
        // the line below it. A stale one: the marked line has no mutant
        // of that class. And an unknown class is always flagged.
        let f = lib_file(
            "fcma-core",
            "//! m\npub fn f(a: usize, b: usize) -> usize {\n    \
             // audit: equivalent(arith-swap) — a and b are both zero here\n    a + b\n}\n\
             // audit: equivalent(arith-swap) — nothing below\nfn g() {}\n\
             // audit: equivalent(no-such-class) — bad\nfn h() {}\n\
             // audit: equivalent(cmp-flip)\nfn i(x: usize) -> bool {\n    x < 1\n}\n",
        );
        let ws = ws_of(vec![f]);
        let v = check_unused_allow(&ws);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().any(|x| x.message.contains("no `arith-swap` mutant is enumerated")));
        assert!(v.iter().any(|x| x.message.contains("unknown mutant class `no-such-class`")));
        assert!(
            v.iter().any(|x| x.message.contains("equivalent marker for `cmp-flip` is missing")),
            "{v:?}"
        );
        assert!(
            !v.iter().any(|x| x.line == 3),
            "the live marker on line 3 must not be flagged: {v:?}"
        );
    }

    #[test]
    fn unusedallow_quiet_when_marker_consumed() {
        let f = lib_file(
            "fcma-core",
            "//! m\nfn f(n: usize) -> f32 {\n    // audit: allow(cast) — exact below 2^24\n    n as f32\n}\n",
        );
        let ws = ws_of(vec![f]);
        assert!(check_casts(&ws).is_empty());
        assert!(check_unused_allow(&ws).is_empty());
    }

    #[test]
    fn unusedallow_flags_marker_for_unescapable_pass() {
        let f = lib_file("fcma-core", "//! m\n// audit: allow(layering) — nice try\nfn f() {}\n");
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

    #[test]
    fn run_selected_gates_unusedallow_on_full_escapable_set() {
        let f =
            lib_file("fcma-core", "//! m\n// audit: allow(frobnicate) — no such pass\nfn f() {}\n");
        let ws = ws_of(vec![f]);
        assert!(ws.run_selected(&["proptest", "cast"]).is_empty());
        let v = ws.run_selected(PASS_NAMES);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].pass, "unusedallow");
    }

    fn atomics_contracts(md: &str) -> Contracts {
        Contracts::from_design_md(&format!("## 16. Atomics contracts\n\n{md}"))
    }

    const FLAG_ROW: &str = "sites: 2\n\n\
        | Atomic | File | Role | Loads | Stores | Pairing |\n|---|---|---|---|---|---|\n\
        | `flag` | `fcma-core/src/a.rs` | cancel | `Acquire` | `Release` | `flag` |\n";

    #[test]
    fn atomicorder_sites_without_section_fire_once() {
        let f = lib_file(
            "fcma-core",
            "//! m\nfn f(flag: &AtomicBool) {\n    flag.store(true, Ordering::Release);\n}\n",
        );
        let v = check_atomicorder(&ws_of(vec![f]));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("no \u{a7}16"), "{v:?}");
    }

    #[test]
    fn atomicorder_row_covers_matching_sites() {
        let f = lib_file(
            "fcma-core",
            "//! m\nfn f(flag: &AtomicBool) -> bool {\n    flag.store(true, Ordering::Release);\n    flag.load(Ordering::Acquire)\n}\n",
        );
        let v = check_atomicorder(&ws_with(
            vec![f],
            CrateGraph::default(),
            atomics_contracts(FLAG_ROW),
        ));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn atomicorder_flags_disallowed_ordering_and_missing_row() {
        let f = lib_file(
            "fcma-core",
            "//! m\nfn f(flag: &AtomicBool, other: &AtomicUsize) -> bool {\n    other.store(1, Ordering::SeqCst);\n    flag.store(true, Ordering::Relaxed);\n    flag.load(Ordering::Acquire)\n}\n",
        );
        let v = check_atomicorder(&ws_with(
            vec![f],
            CrateGraph::default(),
            atomics_contracts(&FLAG_ROW.replace("sites: 2", "sites: 3")),
        ));
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|x| x.message.contains("no DESIGN.md \u{a7}16 row")), "{v:?}");
        assert!(v.iter().any(|x| x.message.contains("allows loads [Acquire]")), "{v:?}");
    }

    #[test]
    fn atomicorder_checks_site_count_and_stale_rows() {
        let f = lib_file(
            "fcma-core",
            "//! m\nfn f(flag: &AtomicBool) {\n    flag.store(true, Ordering::Release);\n}\n",
        );
        let v = check_atomicorder(&ws_with(
            vec![f],
            CrateGraph::default(),
            atomics_contracts(FLAG_ROW),
        ));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("declares 2"), "{v:?}");

        let stale = "sites: 0\n\n\
            | Atomic | File | Role | Loads | Stores | Pairing |\n|---|---|---|---|---|---|\n\
            | `gone` | `fcma-core/src/a.rs` | nothing | `Relaxed` | `Relaxed` | none |\n";
        let empty = lib_file("fcma-core", "//! m\nfn f() {}\n");
        let v = check_atomicorder(&ws_with(
            vec![empty],
            CrateGraph::default(),
            atomics_contracts(stale),
        ));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("stale"), "{v:?}");
    }

    #[test]
    fn atomicorder_allow_marker_escapes_a_site() {
        let f = lib_file(
            "fcma-core",
            "//! m\nfn f(x: &AtomicUsize) {\n    // audit: allow(atomicorder) — bench-only knob\n    x.store(1, Ordering::SeqCst);\n}\n",
        );
        let v = check_atomicorder(&ws_with(
            vec![f],
            CrateGraph::default(),
            atomics_contracts("sites: 1\n"),
        ));
        assert!(v.is_empty(), "{v:?}");
    }
}
