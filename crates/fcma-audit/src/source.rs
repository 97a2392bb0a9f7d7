//! Per-file source model: role classification, `#[cfg(test)]` spans,
//! allow markers and the `// audit:` comments that are not allow
//! markers, which the lexical lint passes consume. Item-level structure
//! (functions, types, calls) lives in [`crate::parser`].

use crate::lexer::{scan, Scanned};
use crate::parser::cfg_test_spans;

/// What kind of target a file belongs to, which decides which passes
/// apply: library passes skip bins, tests, benches, and examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Part of a library target (`src/` of a crate with a lib target).
    Lib,
    /// Part of a binary target (`src/main.rs`, `src/bin/`, bin-only crates).
    Bin,
    /// An integration test (`tests/`).
    Test,
    /// A benchmark (`benches/`).
    Bench,
    /// An example (`examples/`).
    Example,
}

/// One `// audit: allow(<pass>)` marker comment.
#[derive(Debug, Clone)]
pub struct Marker {
    /// 0-based line of the marker comment.
    pub line: usize,
    /// The pass name inside the parentheses.
    pub pass: String,
    /// Whether the mandatory reason text is present.
    pub has_reason: bool,
}

/// One analyzed source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// The crate this file belongs to (`None` for the root package).
    pub crate_name: Option<String>,
    /// Target classification.
    pub role: Role,
    /// Lexed views of the source.
    pub scan: Scanned,
    /// 0-based inclusive line spans of `#[cfg(test)]` items.
    pub test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lex and analyze `source` under the given path and role.
    pub fn new(rel_path: &str, crate_name: Option<&str>, role: Role, source: &str) -> Self {
        let scan = scan(source);
        SourceFile {
            rel_path: rel_path.to_owned(),
            crate_name: crate_name.map(str::to_owned),
            role,
            test_spans: cfg_test_spans(&scan),
            scan,
        }
    }

    /// Does an allow marker for `pass` cover 0-based line `line`?
    ///
    /// Markers are comments of the form
    /// `// audit: allow(<pass>) — <reason>` on the same line or the line
    /// directly above. The reason text is mandatory.
    ///
    /// Prefer [`crate::passes::Workspace::allowed`], which also records
    /// the marker as consumed for the `unusedallow` pass.
    pub fn allow_marker(&self, pass: &str, line: usize) -> bool {
        let hit = |l: usize| marker_allows(&self.scan.comment_lines[l], pass);
        hit(line) || (line > 0 && hit(line - 1))
    }

    /// Is 0-based `line` inside a `#[cfg(test)]` item?
    pub fn in_test_span(&self, line: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| (a..=b).contains(&line))
    }

    /// Every `audit: allow(...)` marker comment in the file, in order.
    pub fn markers(&self) -> Vec<Marker> {
        let mut out = Vec::new();
        for (line, comment) in self.scan.comment_lines.iter().enumerate() {
            if is_doc_comment(comment) {
                continue;
            }
            let Some(p) = comment.find(MARKER_PREFIX) else {
                continue;
            };
            let rest = &comment[p + MARKER_PREFIX.len()..];
            let Some(close) = rest.find(')') else {
                continue;
            };
            let pass = rest[..close].trim().to_owned();
            out.push(Marker { line, has_reason: marker_allows(comment, &pass), pass });
        }
        out
    }

    /// Every plain `//` comment that starts with `audit:` but is not an
    /// `audit: allow(` marker, as (0-based line, the word after
    /// `audit:`). The tool reads no other directive, so each one is a
    /// typo or a leftover of a retired one that would read as enforced.
    pub fn stray_directives(&self) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for (line, comment) in self.scan.comment_lines.iter().enumerate() {
            if is_doc_comment(comment) {
                continue;
            }
            let Some(text) = comment.trim_start().strip_prefix("//") else {
                continue;
            };
            let text = text.trim_start();
            if let Some(rest) = text.strip_prefix("audit:") {
                if !text.starts_with(MARKER_PREFIX) {
                    out.push((line, rest.split_whitespace().next().unwrap_or("").to_owned()));
                }
            }
        }
        out
    }
}

/// The comment prefix that introduces an allow marker.
const MARKER_PREFIX: &str = "audit: allow(";

/// Is this collected comment a doc comment (`///`, `//!`, `/**`, `/*!`)?
///
/// Doc comments never carry allow markers: they *describe* code (the
/// audit's own rustdoc spells out the marker syntax verbatim), so a
/// mention there must neither suppress a violation nor register as a
/// stale marker. Only plain `//` and `/* */` comments direct the tool.
fn is_doc_comment(comment: &str) -> bool {
    let t = comment.trim_start();
    ["///", "//!", "/**", "/*!"].iter().any(|p| t.starts_with(p))
}

/// Does this comment line carry a valid `audit: allow(<pass>)` marker?
///
/// A marker without a reason is treated as absent (the violation still
/// fires), which is what forces every escape hatch to be justified.
/// Doc comments are ignored entirely (see [`is_doc_comment`]).
pub fn marker_allows(comment: &str, pass: &str) -> bool {
    if is_doc_comment(comment) {
        return false;
    }
    let needle = format!("{MARKER_PREFIX}{pass})");
    let Some(p) = comment.find(&needle) else {
        return false;
    };
    let rest = comment[p + needle.len()..].trim_start();
    let reason = rest
        .strip_prefix('\u{2014}')
        .or_else(|| rest.strip_prefix('-'))
        .or_else(|| rest.strip_prefix(':'))
        .map_or("", str::trim);
    !reason.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(src: &str) -> SourceFile {
        SourceFile::new("crates/x/src/a.rs", Some("x"), Role::Lib, src)
    }

    #[test]
    fn cfg_test_span_covers_mod() {
        let f =
            lib("fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}\n");
        assert_eq!(f.test_spans.len(), 1);
        assert!(f.in_test_span(3));
        assert!(!f.in_test_span(0));
        assert!(!f.in_test_span(5));
    }

    #[test]
    fn allow_marker_requires_reason() {
        let with = lib("fn a(x: Option<u8>) {\n    // audit: allow(panicpath) — checked above\n    x.unwrap();\n}\n");
        assert!(with.allow_marker("panicpath", 2));
        let without =
            lib("fn a(x: Option<u8>) {\n    // audit: allow(panicpath)\n    x.unwrap();\n}\n");
        assert!(!without.allow_marker("panicpath", 2));
        let wrong_pass = lib(
            "fn a(x: Option<u8>) {\n    // audit: allow(proptest) — nope\n    x.unwrap();\n}\n",
        );
        assert!(!wrong_pass.allow_marker("panicpath", 2));
    }

    #[test]
    fn markers_inventory_reports_pass_and_reason() {
        let f = lib("// audit: allow(panicpath) — checked above\nfn a() {}\n\
             // audit: allow(proptest)\nfn b() {}\n\
             // audit: allow(bogus) — whatever\nfn c() {}\n\
             fn d() { let s = \"audit: allow(panicpath) — in a string\"; }\n");
        let ms = f.markers();
        assert_eq!(ms.len(), 3, "{ms:?}");
        assert_eq!((ms[0].line, ms[0].pass.as_str(), ms[0].has_reason), (0, "panicpath", true));
        assert_eq!((ms[1].line, ms[1].pass.as_str(), ms[1].has_reason), (2, "proptest", false));
        assert_eq!((ms[2].line, ms[2].pass.as_str(), ms[2].has_reason), (4, "bogus", true));
    }

    #[test]
    fn doc_comment_mentions_are_not_markers() {
        let f = lib("/// Suppress with `// audit: allow(proptest) — why`.\nfn a() {}\n\
             //! `// audit: allow(panicpath) — why` is the marker form.\n\
             // audit: allow(proptest) — a real one\nfn b() {}\n");
        let ms = f.markers();
        assert_eq!(ms.len(), 1, "{ms:?}");
        assert_eq!(ms[0].line, 3);
        assert!(!f.allow_marker("proptest", 0), "doc mention must not suppress");
        assert!(f.allow_marker("proptest", 4));
    }
}
