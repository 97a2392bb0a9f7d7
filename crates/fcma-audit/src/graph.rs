//! Workspace-level graphs: the crate-dependency graph parsed from the
//! `Cargo.toml` manifests, and the intra-workspace call graph with
//! transitive panic reachability.
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

/// One crate manifest in the workspace.
#[derive(Debug, Clone)]
pub struct CrateManifest {
    /// Package name (dash form).
    pub name: String,
    /// Declared `[dependencies]` on other `fcma-*` crates (dash form).
    pub deps: Vec<String>,
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
            if let Some(m) = parse_manifest(&text) {
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
                if let Some(m) = parse_manifest(&text) {
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
                    if seen.insert(d.clone()) {
                        queue.push_back(d.clone());
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
fn parse_manifest(text: &str) -> Option<CrateManifest> {
    let mut section = String::new();
    let mut name: Option<String> = None;
    let mut deps = Vec::new();
    for raw in text.lines() {
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
            deps.push(key.to_owned());
        }
    }
    Some(CrateManifest { name: name?, deps })
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
        let m = parse_manifest(toml).unwrap();
        assert_eq!(m.name, "fcma-core");
        assert_eq!(m.deps, ["fcma-trace", "fcma-fmri"], "dev-deps excluded");
    }

    #[test]
    fn closure_is_transitive() {
        let g = CrateGraph {
            crates: vec![
                CrateManifest { name: "a".into(), deps: vec!["b".into()] },
                CrateManifest { name: "b".into(), deps: vec!["c".into()] },
                CrateManifest { name: "c".into(), deps: vec![] },
            ],
        };
        let c = g.closure("a");
        assert!(c.contains("b") && c.contains("c"));
        assert!(g.closure("c").is_empty());
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
