//! Workspace-level graphs: the crate-dependency graph parsed from the
//! `Cargo.toml` manifests, the machine-readable architecture contracts
//! parsed from DESIGN.md §Architecture contracts, and the
//! intra-workspace call graph with transitive panic reachability.
//!
//! The manifest parser is a deliberately small TOML subset (sections and
//! `key = value` lines) — exactly what the workspace's own manifests
//! use. The call graph resolves names conservatively: a call edge is
//! added whenever a workspace function with a matching name is visible
//! from the caller's crate, which over-approximates real dispatch but
//! never misses a panic path through workspace code.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::path::Path;

use crate::parser::ParsedFile;

/// One declared `fcma-*` dependency edge in a manifest.
#[derive(Debug, Clone)]
pub struct ManifestDep {
    /// Dependency crate name (dash form, e.g. `fcma-linalg`).
    pub name: String,
    /// 0-based line in the manifest where the edge is declared.
    pub line: usize,
}

/// One crate manifest in the workspace.
#[derive(Debug, Clone)]
pub struct CrateManifest {
    /// Package name (dash form).
    pub name: String,
    /// Workspace-relative path of the `Cargo.toml`.
    pub rel_path: String,
    /// Declared `[dependencies]` on other `fcma-*` crates.
    pub deps: Vec<ManifestDep>,
}

/// The crate-dependency graph of the workspace.
#[derive(Debug, Clone, Default)]
pub struct CrateGraph {
    /// Every workspace package, root first.
    pub crates: Vec<CrateManifest>,
}

impl CrateGraph {
    /// Parse the root and `crates/*` manifests under `root`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading manifests or listing `crates/`.
    pub fn discover(root: &Path) -> io::Result<CrateGraph> {
        let mut crates = Vec::new();
        let root_manifest = root.join("Cargo.toml");
        if root_manifest.is_file() {
            let text = std::fs::read_to_string(&root_manifest)?;
            if let Some(m) = parse_manifest("Cargo.toml", &text) {
                crates.push(m);
            }
        }
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut entries: Vec<_> = std::fs::read_dir(&crates_dir)?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            entries.sort();
            for dir in entries {
                let manifest = dir.join("Cargo.toml");
                if !manifest.is_file() {
                    continue;
                }
                let text = std::fs::read_to_string(&manifest)?;
                let rel = format!(
                    "crates/{}/Cargo.toml",
                    dir.file_name().map(|n| n.to_string_lossy()).unwrap_or_default()
                );
                if let Some(m) = parse_manifest(&rel, &text) {
                    crates.push(m);
                }
            }
        }
        Ok(CrateGraph { crates })
    }

    /// Look up a crate by name (dash form).
    pub fn get(&self, name: &str) -> Option<&CrateManifest> {
        self.crates.iter().find(|c| c.name == name)
    }

    /// The transitive `fcma-*` dependency closure of `name` (not
    /// including `name` itself). Unknown crates yield an empty set.
    pub fn closure(&self, name: &str) -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(name.to_owned());
        while let Some(cur) = queue.pop_front() {
            if let Some(m) = self.get(&cur) {
                for d in &m.deps {
                    if seen.insert(d.name.clone()) {
                        queue.push_back(d.name.clone());
                    }
                }
            }
        }
        seen
    }
}

/// Parse one manifest: package name plus `[dependencies]` edges on
/// `fcma-*` crates. Returns `None` when there is no `[package]` section
/// (e.g. a virtual manifest).
fn parse_manifest(rel_path: &str, text: &str) -> Option<CrateManifest> {
    let mut section = String::new();
    let mut name: Option<String> = None;
    let mut deps = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_owned();
            continue;
        }
        let Some(eq) = line.find('=') else {
            continue;
        };
        let key = line[..eq].trim().trim_matches('"');
        // `fcma-x.workspace = true` keys a dotted path.
        let key = key.split('.').next().unwrap_or(key);
        if section == "package" && key == "name" {
            name = Some(line[eq + 1..].trim().trim_matches('"').to_owned());
        }
        if section == "dependencies" && key.starts_with("fcma-") {
            deps.push(ManifestDep { name: key.to_owned(), line: lineno });
        }
    }
    Some(CrateManifest { name: name?, rel_path: rel_path.to_owned(), deps })
}

/// One row of the DESIGN.md protocol table: an enum variant with its
/// required payload fields.
#[derive(Debug, Clone)]
pub struct ProtocolEntry {
    /// Enum name (`ToWorker` / `FromWorker`).
    pub enum_name: String,
    /// Variant name.
    pub variant: String,
    /// Field names the variant must carry (empty for unit/tuple rows
    /// declared `(none)`).
    pub fields: Vec<String>,
}

/// One row of the §16 "Atomics contracts" table: the memory orderings
/// every load/store/RMW site of one atomic in one file may use.
#[derive(Debug, Clone)]
pub struct AtomicEntry {
    /// Receiver ident at the access site (field, binding, or static).
    pub name: String,
    /// Workspace-relative path the sites live in (suffix-matched).
    pub file: String,
    /// Allowed load orderings; empty when the row declares `(none)`.
    pub loads: Vec<String>,
    /// Allowed store/RMW orderings; empty when the row declares `(none)`.
    pub stores: Vec<String>,
    /// Backticked pairing partners (the release→acquire edge this
    /// atomic participates in); empty for fully relaxed atomics.
    pub pairing: Vec<String>,
}

/// The §16 "Atomics contracts" section, machine-parsed: every
/// `Ordering::*` site in the workspace must trace to an [`AtomicEntry`].
#[derive(Debug, Clone, Default)]
pub struct AtomicsContract {
    /// One entry per (atomic, file) pair.
    pub entries: Vec<AtomicEntry>,
    /// The declared total count of `Ordering::*` sites, when the
    /// section carries a "sites:" line; the `atomicorder` pass verifies
    /// it against the actual count.
    pub declared_sites: Option<usize>,
}

impl AtomicsContract {
    /// The entry covering receiver `name` in a file whose path ends
    /// with the entry's declared `file`.
    pub fn entry(&self, name: &str, rel_path: &str) -> Option<&AtomicEntry> {
        self.entries.iter().find(|e| e.name == name && rel_path.ends_with(&e.file))
    }
}

/// A named defect in a machine-parsed DESIGN.md contract table. The
/// parser records these instead of silently skipping the row: a
/// malformed contract that parses as "no contract" would let the very
/// drift the tables exist to catch slip through unreported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractError {
    /// A §16 atomics row allows an ordering that is not a
    /// `std::sync::atomic::Ordering` variant.
    UnknownOrdering {
        /// 0-based DESIGN.md line.
        line: usize,
        /// The unrecognized ordering token.
        ordering: String,
    },
}

impl std::fmt::Display for ContractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContractError::UnknownOrdering { line, ordering } => write!(
                f,
                "DESIGN.md:{}: atomics row allows unknown ordering `{ordering}` \
                 (known: Relaxed, Acquire, Release, AcqRel, SeqCst)",
                line + 1
            ),
        }
    }
}

/// The `std::sync::atomic::Ordering` variants a §16 row may allow.
const KNOWN_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The machine-readable architecture contracts from DESIGN.md §12 and
/// §16.
#[derive(Debug, Clone, Default)]
pub struct Contracts {
    /// Allowed direct `fcma-*` dependencies per crate; `None` when the
    /// layering table is absent.
    pub layering: Option<BTreeMap<String, BTreeSet<String>>>,
    /// Protocol table entries; `None` when the table is absent.
    pub protocol: Option<Vec<ProtocolEntry>>,
    /// The §16 "Atomics contracts" tables; `None` when absent.
    pub atomics: Option<AtomicsContract>,
    /// Named parse defects. Non-empty errors fail the CLI (exit 2): a
    /// contract that cannot be parsed must not silently vanish.
    pub errors: Vec<ContractError>,
}

/// Extract backtick-quoted tokens from a markdown table cell.
fn backticked(cell: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = cell;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else {
            break;
        };
        let tok = &after[..close];
        if !tok.is_empty() {
            out.push(tok.to_owned());
        }
        rest = &after[close + 1..];
    }
    out
}

impl Contracts {
    /// Parse the `## 12. Architecture contracts` section of DESIGN.md,
    /// plus the §16 tables.
    ///
    /// §12 table rows are classified by their first backticked token: a
    /// token containing `::` is a protocol row (`Enum::Variant`), a
    /// `fcma-*` token is a layering row. Header and separator rows have
    /// no backticked first cell and are skipped.
    ///
    /// §16 "Atomics contracts" rows are `| atomic | file | role | loads |
    /// stores | pairing |` with backticked orderings, plus an optional
    /// prose line containing `sites:` followed by the declared total
    /// site count.
    ///
    /// Malformed data rows are recorded as named [`ContractError`]s, not
    /// skipped: a §16 row allowing an unknown ordering surfaces in
    /// [`Contracts::errors`]. Header rows (the row directly above a
    /// `|---|` separator) and separator rows are structural and never
    /// validated.
    pub fn from_design_md(text: &str) -> Contracts {
        let mut in_section = false;
        let mut in_atomics = false;
        let mut layering: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut protocol: Vec<ProtocolEntry> = Vec::new();
        let mut atomics = AtomicsContract::default();
        let mut saw_atomics = false;
        let mut errors: Vec<ContractError> = Vec::new();
        let lines: Vec<&str> = text.lines().collect();
        let is_separator = |l: &str| {
            let t = l.trim();
            t.starts_with('|') && t.chars().all(|c| matches!(c, '|' | '-' | ':' | ' '))
        };
        for (lineno, &line) in lines.iter().enumerate() {
            if line.starts_with('#') {
                in_atomics = line.contains("Atomics contracts");
                saw_atomics |= in_atomics;
                if line.starts_with("## ") {
                    in_section = line.contains("Architecture contracts");
                }
                continue;
            }
            if !line.trim_start().starts_with('|') {
                if in_atomics {
                    if let Some(rest) = line.split("sites:").nth(1) {
                        let digits: String = rest
                            .chars()
                            .skip_while(|c| !c.is_ascii_digit())
                            .take_while(char::is_ascii_digit)
                            .collect();
                        atomics.declared_sites = digits.parse().ok().or(atomics.declared_sites);
                    }
                }
                continue;
            }
            // Structural rows: the `|---|` separator and the header row
            // directly above one carry no contract data.
            if is_separator(line) || lines.get(lineno + 1).is_some_and(|n| is_separator(n)) {
                continue;
            }
            let cells: Vec<&str> = line.trim().trim_matches('|').split('|').collect();
            if cells.len() < 2 {
                continue;
            }
            if in_atomics {
                if cells.len() >= 6 {
                    let name = backticked(cells[0]).into_iter().next();
                    let file = backticked(cells[1]).into_iter().next();
                    for tok in backticked(cells[3]).iter().chain(backticked(cells[4]).iter()) {
                        if !KNOWN_ORDERINGS.contains(&tok.as_str()) {
                            errors.push(ContractError::UnknownOrdering {
                                line: lineno,
                                ordering: tok.clone(),
                            });
                        }
                    }
                    if let (Some(name), Some(file)) = (name, file) {
                        atomics.entries.push(AtomicEntry {
                            name,
                            file,
                            loads: backticked(cells[3]),
                            stores: backticked(cells[4]),
                            pairing: backticked(cells[5]),
                        });
                    }
                }
                continue;
            }
            if !in_section {
                continue;
            }
            let first = backticked(cells[0]);
            let Some(head) = first.first() else {
                continue;
            };
            if let Some((enum_name, variant)) = head.split_once("::") {
                let fields =
                    backticked(cells[1]).into_iter().filter(|f| !f.contains("::")).collect();
                protocol.push(ProtocolEntry {
                    enum_name: enum_name.to_owned(),
                    variant: variant.to_owned(),
                    fields,
                });
            } else if head.starts_with("fcma") {
                let deps: BTreeSet<String> =
                    backticked(cells[1]).into_iter().filter(|d| d.starts_with("fcma-")).collect();
                layering.insert(head.clone(), deps);
            }
        }
        Contracts {
            layering: (!layering.is_empty()).then_some(layering),
            protocol: (!protocol.is_empty()).then_some(protocol),
            atomics: saw_atomics.then_some(atomics),
            errors,
        }
    }
}

/// A node in the workspace call graph: one `fn` item in one file.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the file in the caller-provided slice.
    pub file: usize,
    /// Index of the fn within that file's [`ParsedFile::fns`].
    pub idx: usize,
    /// Crate key (dash form; the root package is `fcma`).
    pub crate_key: String,
}

/// The workspace call graph over library code.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All nodes.
    pub nodes: Vec<FnNode>,
    /// Reverse edges: `callers[i]` = node indices that call node `i`.
    pub callers: Vec<Vec<usize>>,
}

/// A panic-reachability verdict for one node: why it can panic.
pub type Why = String;

impl CallGraph {
    /// Build the graph. `files` supplies, per file: the crate key, the
    /// parsed items, and a per-fn inclusion flag (test fns are excluded
    /// by the caller). `visible` gives each crate's transitive
    /// dependency closure for edge filtering.
    pub fn build(
        files: &[(String, &ParsedFile)],
        include: &dyn Fn(usize, usize) -> bool,
        visible: &BTreeMap<String, BTreeSet<String>>,
    ) -> CallGraph {
        let mut nodes = Vec::new();
        // name → node indices, split by owner kind.
        let mut owned: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut qualified: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (file, (crate_key, parsed)) in files.iter().enumerate() {
            for (idx, f) in parsed.fns.iter().enumerate() {
                if !include(file, idx) {
                    continue;
                }
                let node = nodes.len();
                nodes.push(FnNode { file, idx, crate_key: clone_key(crate_key) });
                match &f.owner {
                    Some(owner) => {
                        owned.entry(f.name.as_str()).or_default().push(node);
                        qualified.entry((owner.as_str(), f.name.as_str())).or_default().push(node);
                    }
                    None => free.entry(f.name.as_str()).or_default().push(node),
                }
            }
        }

        let empty = BTreeSet::new();
        let sees = |caller: &FnNode, callee: &FnNode| {
            caller.crate_key == callee.crate_key
                || visible.get(&caller.crate_key).unwrap_or(&empty).contains(&callee.crate_key)
        };

        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            let f = &files[node.file].1.fns[node.idx];
            for call in &f.calls {
                let candidates: &[usize] = if call.method || call.owner.as_deref() == Some("Self") {
                    owned.get(call.name.as_str()).map_or(&[], Vec::as_slice)
                } else if let Some(owner) = &call.owner {
                    qualified.get(&(owner.as_str(), call.name.as_str())).map_or(&[], Vec::as_slice)
                } else {
                    free.get(call.name.as_str()).map_or(&[], Vec::as_slice)
                };
                for &j in candidates {
                    if i != j && sees(node, &nodes[j]) {
                        callers[j].push(i);
                    }
                }
            }
        }
        CallGraph { nodes, callers }
    }

    /// Propagate panic reachability. `direct[i]` is `Some(why)` when
    /// node `i` contains an unsuppressed panic source; `absorbing[i]`
    /// marks nodes that do not propagate to their callers (documented
    /// `# Panics` or allow-marked). Returns per-node verdicts.
    pub fn reach(
        &self,
        direct: &[Option<Why>],
        absorbing: &[bool],
        describe: &dyn Fn(usize) -> String,
    ) -> Vec<Option<Why>> {
        let mut out: Vec<Option<Why>> = direct.to_vec();
        let mut queue: VecDeque<usize> =
            (0..self.nodes.len()).filter(|&i| out[i].is_some() && !absorbing[i]).collect();
        while let Some(j) = queue.pop_front() {
            for &i in &self.callers[j] {
                if out[i].is_none() {
                    out[i] = Some(format!("calls {} which can panic", describe(j)));
                    if !absorbing[i] {
                        queue.push_back(i);
                    }
                }
            }
        }
        out
    }
}

/// Clone helper kept out of the hot loop's closure captures.
fn clone_key(k: &str) -> String {
    k.to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::parser::parse;

    #[test]
    fn manifest_parse_extracts_name_and_fcma_deps() {
        let toml = "[package]\nname = \"fcma-core\"\n\n[dependencies]\n\
                    fcma-trace = { workspace = true }\nfcma-fmri.workspace = true\n\
                    rayon = { workspace = true }\n\n[dev-dependencies]\nfcma-sim = { workspace = true }\n";
        let m = parse_manifest("crates/fcma-core/Cargo.toml", toml).unwrap();
        assert_eq!(m.name, "fcma-core");
        let deps: Vec<&str> = m.deps.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(deps, vec!["fcma-trace", "fcma-fmri"], "dev-deps excluded");
        assert_eq!(m.deps[0].line, 4);
    }

    #[test]
    fn closure_is_transitive() {
        let g = CrateGraph {
            crates: vec![
                CrateManifest {
                    name: "a".into(),
                    rel_path: "a/Cargo.toml".into(),
                    deps: vec![ManifestDep { name: "b".into(), line: 0 }],
                },
                CrateManifest {
                    name: "b".into(),
                    rel_path: "b/Cargo.toml".into(),
                    deps: vec![ManifestDep { name: "c".into(), line: 0 }],
                },
                CrateManifest { name: "c".into(), rel_path: "c/Cargo.toml".into(), deps: vec![] },
            ],
        };
        let c = g.closure("a");
        assert!(c.contains("b") && c.contains("c"));
        assert!(g.closure("c").is_empty());
    }

    const DESIGN: &str = "\
## 11. Observability

Blah.

## 12. Architecture contracts

| Crate | Allowed direct deps |
|---|---|
| `fcma-linalg` | (none) |
| `fcma-svm` | `fcma-linalg`, `fcma-trace` |

| Message | Fields | Notes |
|---|---|---|
| `ToWorker::Task` | `task` | dispatch |
| `ToWorker::Shutdown` | (none) | drain |
| `FromWorker::Done` | `worker`, `task`, `scores` | result |

## 13. Other
";

    #[test]
    fn contracts_parse_layering_and_protocol() {
        let c = Contracts::from_design_md(DESIGN);
        let lay = c.layering.unwrap();
        assert!(lay["fcma-linalg"].is_empty());
        assert_eq!(
            lay["fcma-svm"].iter().cloned().collect::<Vec<_>>(),
            vec!["fcma-linalg", "fcma-trace"]
        );
        let proto = c.protocol.unwrap();
        assert_eq!(proto.len(), 3);
        assert_eq!(proto[0].enum_name, "ToWorker");
        assert_eq!(proto[0].variant, "Task");
        assert_eq!(proto[2].fields, vec!["worker", "task", "scores"]);
        assert!(proto[1].fields.is_empty());
    }

    #[test]
    fn contracts_absent_section_yields_none() {
        let c = Contracts::from_design_md("## 11. Observability\n\n| `a.b` |\n");
        assert!(c.layering.is_none());
        assert!(c.protocol.is_none());
    }

    #[test]
    fn contracts_parse_atomics_table_and_count() {
        let md = "## 16. Atomics contracts\n\nProse. Total `Ordering::*` sites: 36 (verified).\n\n\
                  | Atomic | File | Role | Loads | Stores | Pairing |\n|---|---|---|---|---|---|\n\
                  | `flag` | `fcma-core/src/control.rs` | cancel flag | `Acquire` | `Release` | `flag` release→acquire |\n\
                  | `ver` | `fcma-trace/src/recorder.rs` | slot version | `Acquire` | `Release` | `ver` |\n\
                  | `w_ts` | `fcma-trace/src/recorder.rs` | payload | `Relaxed` | `Relaxed` | via `ver` |\n\n\
                  ### After\n\n| `not_atomics` | x |\n";
        let c = Contracts::from_design_md(md);
        let a = c.atomics.expect("section parses");
        assert_eq!(a.declared_sites, Some(36));
        assert_eq!(a.entries.len(), 3);
        let flag = a.entry("flag", "crates/fcma-core/src/control.rs").expect("suffix match");
        assert_eq!(flag.loads, vec!["Acquire"]);
        assert_eq!(flag.stores, vec!["Release"]);
        assert_eq!(flag.pairing, vec!["flag"]);
        assert!(a.entry("flag", "crates/fcma-trace/src/recorder.rs").is_none());
        // The §12 parse is unaffected, and documents without §16
        // yield no atomics contract at all.
        let both = format!("{DESIGN}\n{md}");
        let c2 = Contracts::from_design_md(&both);
        assert!(c2.layering.is_some() && c2.protocol.is_some());
        assert_eq!(c2.atomics.unwrap().entries.len(), 3);
        assert!(Contracts::from_design_md(DESIGN).atomics.is_none());
    }

    #[test]
    fn unknown_atomics_ordering_is_a_named_error() {
        let md = "## 16. Atomics contracts\n\n\
                  | Atomic | File | Role | Loads | Stores | Pairing |\n|---|---|---|---|---|---|\n\
                  | `flag` | `a.rs` | x | `Aquire` | `Release` | none |\n\
                  | `ver` | `a.rs` | x | `Acquire` | `Relaxd`, `Release` | none |\n";
        let c = Contracts::from_design_md(md);
        assert_eq!(
            c.errors,
            vec![
                ContractError::UnknownOrdering { line: 4, ordering: "Aquire".to_owned() },
                ContractError::UnknownOrdering { line: 5, ordering: "Relaxd".to_owned() },
            ]
        );
        assert!(c.errors[0].to_string().contains("`Aquire`"));
        // Both rows still enter the table — a typo'd row must not make
        // its sites look uncontracted on top of the parse error.
        assert_eq!(c.atomics.unwrap().entries.len(), 2);
    }

    fn graph_of(sources: &[(&str, &str)]) -> (Vec<ParsedFile>, CallGraph) {
        let parsed: Vec<ParsedFile> = sources.iter().map(|(_, s)| parse(&scan(s))).collect();
        let files: Vec<(String, &ParsedFile)> =
            sources.iter().zip(&parsed).map(|(&(k, _), p)| (k.to_owned(), p)).collect();
        let mut visible: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        visible.insert("fcma-core".into(), [String::from("fcma-linalg")].into());
        let g = CallGraph::build(&files, &|_, _| true, &visible);
        (parsed, g)
    }

    #[test]
    fn reachability_propagates_through_private_fns() {
        let (parsed, g) = graph_of(&[(
            "fcma-linalg",
            "pub fn entry(v: &[f32]) -> f32 {\n    helper(v)\n}\n\
             fn helper(v: &[f32]) -> f32 {\n    v[0]\n}\n",
        )]);
        let direct: Vec<Option<Why>> = g
            .nodes
            .iter()
            .map(|n| parsed[n.file].fns[n.idx].sources.first().map(|s| s.kind.label().to_owned()))
            .collect();
        let absorbing = vec![false; g.nodes.len()];
        let reach = g.reach(&direct, &absorbing, &|j| {
            format!("`{}`", parsed[g.nodes[j].file].fns[g.nodes[j].idx].name)
        });
        let entry = g.nodes.iter().position(|n| parsed[n.file].fns[n.idx].name == "entry").unwrap();
        assert!(reach[entry].as_deref().unwrap().contains("`helper`"));
    }

    #[test]
    fn documented_fns_absorb_propagation() {
        let (parsed, g) = graph_of(&[(
            "fcma-linalg",
            "pub fn entry(v: &[f32]) -> f32 {\n    helper(v)\n}\n\
             /// # Panics\n/// On empty input.\nfn helper(v: &[f32]) -> f32 {\n    v[0]\n}\n",
        )]);
        let direct: Vec<Option<Why>> = g
            .nodes
            .iter()
            .map(|n| parsed[n.file].fns[n.idx].sources.first().map(|s| s.kind.label().to_owned()))
            .collect();
        let absorbing: Vec<bool> =
            g.nodes.iter().map(|n| parsed[n.file].fns[n.idx].doc_panics).collect();
        let reach = g.reach(&direct, &absorbing, &|_| String::from("x"));
        let entry = g.nodes.iter().position(|n| parsed[n.file].fns[n.idx].name == "entry").unwrap();
        assert!(reach[entry].is_none(), "documented callee must not propagate");
    }

    #[test]
    fn edges_respect_crate_visibility() {
        // fcma-linalg cannot see fcma-core, so its call to a same-named
        // fn there resolves to nothing.
        let (parsed, g) = graph_of(&[
            ("fcma-linalg", "pub fn entry() {\n    shared_name();\n}\n"),
            ("fcma-core", "pub fn shared_name() {\n    panic!(\"boom\");\n}\n"),
        ]);
        let direct: Vec<Option<Why>> = g
            .nodes
            .iter()
            .map(|n| parsed[n.file].fns[n.idx].sources.first().map(|s| s.kind.label().to_owned()))
            .collect();
        let reach = g.reach(&direct, &vec![false; g.nodes.len()], &|_| String::from("x"));
        let entry = g.nodes.iter().position(|n| parsed[n.file].fns[n.idx].name == "entry").unwrap();
        assert!(reach[entry].is_none());
        // The reverse direction (core → linalg) does resolve.
        let (parsed2, g2) = graph_of(&[
            ("fcma-core", "pub fn entry() {\n    shared_name();\n}\n"),
            ("fcma-linalg", "pub fn shared_name() {\n    panic!(\"boom\");\n}\n"),
        ]);
        let direct2: Vec<Option<Why>> = g2
            .nodes
            .iter()
            .map(|n| parsed2[n.file].fns[n.idx].sources.first().map(|s| s.kind.label().to_owned()))
            .collect();
        let reach2 = g2.reach(&direct2, &vec![false; g2.nodes.len()], &|_| String::from("x"));
        let entry2 =
            g2.nodes.iter().position(|n| parsed2[n.file].fns[n.idx].name == "entry").unwrap();
        assert!(reach2[entry2].is_some());
    }

    #[test]
    fn method_and_qualified_calls_resolve() {
        let (parsed, g) = graph_of(&[(
            "fcma-linalg",
            "pub struct Mat;\nimpl Mat {\n    pub fn get(&self, i: usize) -> f32 {\n        self.data[i]\n    }\n    \
             pub fn first(&self) -> f32 {\n        self.get(0)\n    }\n}\n\
             pub fn via_qualified(m: &Mat) -> f32 {\n    Mat::get(m, 0)\n}\n",
        )]);
        let direct: Vec<Option<Why>> = g
            .nodes
            .iter()
            .map(|n| parsed[n.file].fns[n.idx].sources.first().map(|s| s.kind.label().to_owned()))
            .collect();
        let reach = g.reach(&direct, &vec![false; g.nodes.len()], &|j| {
            format!("`{}`", parsed[g.nodes[j].file].fns[g.nodes[j].idx].name)
        });
        for name in ["first", "via_qualified"] {
            let i = g.nodes.iter().position(|n| parsed[n.file].fns[n.idx].name == name).unwrap();
            assert!(reach[i].is_some(), "{name} should reach panic via get");
        }
    }
}
