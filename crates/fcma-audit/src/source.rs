//! Per-file source model: role classification plus a single-pass
//! structural analysis (test spans, token sites, allow markers) that the
//! lexical lint passes consume. Item-level structure (functions, types,
//! calls) lives in [`crate::parser`].

use crate::lexer::{scan, Scanned};

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

/// A numeric-cast site: `<expr> as <ty>` in scrubbed code.
#[derive(Debug, Clone)]
pub struct CastSite {
    /// 0-based line.
    pub line: usize,
    /// The target type token (`usize`, `f32`, ...).
    pub target: String,
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

/// One `// audit: equivalent(<class>)` marker comment: the triage
/// record that a mutant of the named class at this site is semantically
/// equivalent to the original code, so no oracle can (or should) kill
/// it. Consumed by `fcma-mut`; stale or reasonless ones fail
/// `unusedallow` exactly like allow markers.
#[derive(Debug, Clone)]
pub struct EquivalentMarker {
    /// 0-based line of the marker comment.
    pub line: usize,
    /// The mutant-class name inside the parentheses.
    pub class: String,
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
    /// Numeric `as` casts.
    pub casts: Vec<CastSite>,
}

const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

impl SourceFile {
    /// Lex and analyze `source` under the given path and role.
    pub fn new(rel_path: &str, crate_name: Option<&str>, role: Role, source: &str) -> Self {
        let scan = scan(source);
        let mut file = SourceFile {
            rel_path: rel_path.to_owned(),
            crate_name: crate_name.map(str::to_owned),
            role,
            scan,
            test_spans: Vec::new(),
            casts: Vec::new(),
        };
        file.analyze();
        file
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

    /// Does a `// audit: equivalent(<class>)` marker with a reason cover
    /// 0-based `line`? Same two-line window and doc-comment exclusion as
    /// [`Self::allow_marker`]; a marker without a reason is absent.
    pub fn equivalent_marker(&self, class: &str, line: usize) -> bool {
        let hit = |l: usize| {
            parse_equivalent(&self.scan.comment_lines[l])
                .is_some_and(|(c, has_reason)| c == class && has_reason)
        };
        hit(line) || (line > 0 && hit(line - 1))
    }

    /// Every `audit: equivalent(...)` marker comment in the file, in
    /// order. Used by `unusedallow` to flag malformed or stale triage
    /// markers (a declaration no enumerated mutant site actually hits).
    pub fn equivalent_markers(&self) -> Vec<EquivalentMarker> {
        let mut out = Vec::new();
        for (line, comment) in self.scan.comment_lines.iter().enumerate() {
            if let Some((class, has_reason)) = parse_equivalent(comment) {
                out.push(EquivalentMarker { line, class, has_reason });
            }
        }
        out
    }

    /// One sequential pass over the scrubbed code computing spans and
    /// token sites. Brace depth is tracked exactly (literals are already
    /// blanked); item starts are recognized from keyword tokens.
    fn analyze(&mut self) {
        // Pending state fed by raw lines.
        let mut pending_cfg_test = false;

        // Brace tracking.
        let mut depth: i64 = 0;
        // Item awaiting its brace while a cfg(test) attr is pending.
        let mut awaiting_cfg_item = false;
        // Stack entries: (depth_after_open, start_line, is_cfg_test).
        let mut stack: Vec<(i64, usize, bool)> = Vec::new();

        let code_lines = self.scan.code_lines.clone();
        for (lineno, code) in code_lines.iter().enumerate() {
            let raw_trim = self.scan.raw_lines[lineno].trim_start();
            if raw_trim.starts_with("#[cfg(test)]") {
                pending_cfg_test = true;
            }

            // Token walk for keywords, casts, braces.
            let mut tokens = Tokenizer::new(code);
            let mut saw_as = false;
            while let Some(tok) = tokens.next_token() {
                match tok {
                    Token::Ident(w) => {
                        if saw_as {
                            if NUMERIC_TYPES.contains(&w.as_str()) {
                                self.casts.push(CastSite { line: lineno, target: w.clone() });
                            }
                            saw_as = false;
                        }
                        match w.as_str() {
                            "as" => saw_as = true,
                            "fn" | "mod" | "struct" | "enum" | "impl" | "trait" | "union"
                                if pending_cfg_test =>
                            {
                                awaiting_cfg_item = true;
                                pending_cfg_test = false;
                            }
                            _ => {}
                        }
                    }
                    Token::Open => {
                        depth += 1;
                        let is_cfg = awaiting_cfg_item;
                        awaiting_cfg_item = false;
                        stack.push((depth, lineno, is_cfg));
                    }
                    Token::Close => {
                        if stack.last().is_some_and(|&(d, _, _)| d == depth) {
                            if let Some((_, start, is_cfg)) = stack.pop() {
                                if is_cfg {
                                    self.test_spans.push((start, lineno));
                                }
                            }
                        }
                        depth -= 1;
                    }
                    Token::Semi => {
                        awaiting_cfg_item = false;
                    }
                }
            }
        }
    }
}

/// The comment prefix that introduces an allow marker.
const MARKER_PREFIX: &str = "audit: allow(";

/// The comment prefix that introduces an equivalent-mutant triage.
const EQUIVALENT_PREFIX: &str = "audit: equivalent(";

/// Parse a `// audit: equivalent(<class>) — <reason>` marker out of a
/// collected comment line. Returns the mutant class and whether the
/// mandatory reason is present; doc comments never carry markers.
pub fn parse_equivalent(comment: &str) -> Option<(String, bool)> {
    if is_doc_comment(comment) {
        return None;
    }
    let p = comment.find(EQUIVALENT_PREFIX)?;
    let rest = &comment[p + EQUIVALENT_PREFIX.len()..];
    let close = rest.find(')')?;
    let class = rest[..close].trim().to_owned();
    let after = rest[close + 1..].trim_start();
    let reason = after
        .strip_prefix('\u{2014}')
        .or_else(|| after.strip_prefix('-'))
        .or_else(|| after.strip_prefix(':'))
        .map_or("", str::trim);
    Some((class, !reason.is_empty()))
}

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

/// Events from the per-line token walk.
enum Token {
    Ident(String),
    Open,
    Close,
    Semi,
}

struct Tokenizer<'a> {
    chars: std::str::Chars<'a>,
    peeked: Option<char>,
}

impl<'a> Tokenizer<'a> {
    fn new(line: &'a str) -> Self {
        Tokenizer { chars: line.chars(), peeked: None }
    }

    fn bump(&mut self) -> Option<char> {
        self.peeked.take().or_else(|| self.chars.next())
    }

    fn peek(&mut self) -> Option<char> {
        if self.peeked.is_none() {
            self.peeked = self.chars.next();
        }
        self.peeked
    }

    fn next_token(&mut self) -> Option<Token> {
        loop {
            let c = self.bump()?;
            match c {
                '{' => return Some(Token::Open),
                '}' => return Some(Token::Close),
                ';' => return Some(Token::Semi),
                c if c.is_alphabetic() || c == '_' => {
                    let mut w = String::new();
                    w.push(c);
                    while let Some(n) = self.peek() {
                        if n.is_alphanumeric() || n == '_' {
                            w.push(n);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    return Some(Token::Ident(w));
                }
                c if c.is_ascii_digit() => {
                    // Consume the number (so `1f32` is not an ident `f32`).
                    while let Some(n) = self.peek() {
                        if n.is_alphanumeric() || n == '_' || n == '.' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
    }
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
    fn numeric_casts_found_with_targets() {
        let f = lib("fn a(n: usize) -> f32 {\n    let b = n as f32;\n    let c = b as f64 as usize;\n    use std::fmt as xfmt;\n    b\n}\n");
        let targets: Vec<&str> = f.casts.iter().map(|c| c.target.as_str()).collect();
        assert_eq!(targets, vec!["f32", "f64", "usize"]);
    }

    #[test]
    fn allow_marker_requires_reason() {
        let with = lib("fn a(x: Option<u8>) {\n    // audit: allow(panicpath) — checked above\n    x.unwrap();\n}\n");
        assert!(with.allow_marker("panicpath", 2));
        let without =
            lib("fn a(x: Option<u8>) {\n    // audit: allow(panicpath)\n    x.unwrap();\n}\n");
        assert!(!without.allow_marker("panicpath", 2));
        let wrong_pass =
            lib("fn a(x: Option<u8>) {\n    // audit: allow(cast) — nope\n    x.unwrap();\n}\n");
        assert!(!wrong_pass.allow_marker("panicpath", 2));
    }

    #[test]
    fn markers_inventory_reports_pass_and_reason() {
        let f = lib("// audit: allow(cast) — exact below 2^24\nfn a() {}\n\
             // audit: allow(deadpub)\nfn b() {}\n\
             // audit: allow(bogus) — whatever\nfn c() {}\n\
             fn d() { let s = \"audit: allow(cast) — in a string\"; }\n");
        let ms = f.markers();
        assert_eq!(ms.len(), 3, "{ms:?}");
        assert_eq!((ms[0].line, ms[0].pass.as_str(), ms[0].has_reason), (0, "cast", true));
        assert_eq!((ms[1].line, ms[1].pass.as_str(), ms[1].has_reason), (2, "deadpub", false));
        assert_eq!((ms[2].line, ms[2].pass.as_str(), ms[2].has_reason), (4, "bogus", true));
    }

    #[test]
    fn equivalent_marker_window_class_and_reason() {
        let f = lib(
            "// audit: equivalent(arith-swap) — saturating add, swap is identity here\nfn a() {}\n\
             fn b() {} // audit: equivalent(cmp-flip) — loop is empty either way\n\
             // audit: equivalent(arith-swap)\nfn c() {}\n\
             /// audit: equivalent(arith-swap) — doc mention\nfn d() {}\n",
        );
        assert!(f.equivalent_marker("arith-swap", 1), "marker on the line above");
        assert!(f.equivalent_marker("cmp-flip", 2), "marker on the line itself");
        assert!(!f.equivalent_marker("arith-swap", 4), "reason is mandatory");
        assert!(!f.equivalent_marker("cmp-flip", 1), "classes must match");
        assert!(!f.equivalent_marker("arith-swap", 6), "doc comments never carry markers");
        let ms = f.equivalent_markers();
        assert_eq!(ms.len(), 3, "{ms:?}");
        assert_eq!((ms[0].line, ms[0].class.as_str(), ms[0].has_reason), (0, "arith-swap", true));
        assert_eq!((ms[1].line, ms[1].class.as_str(), ms[1].has_reason), (2, "cmp-flip", true));
        assert_eq!((ms[2].line, ms[2].class.as_str(), ms[2].has_reason), (3, "arith-swap", false));
    }

    #[test]
    fn doc_comment_mentions_are_not_markers() {
        let f = lib("/// Suppress with `// audit: allow(cast) — why`.\nfn a() {}\n\
             //! `// audit: allow(panicpath) — why` is the marker form.\n\
             // audit: allow(cast) — a real one\nfn b() {}\n");
        let ms = f.markers();
        assert_eq!(ms.len(), 1, "{ms:?}");
        assert_eq!(ms[0].line, 3);
        assert!(!f.allow_marker("cast", 0), "doc mention must not suppress");
        assert!(f.allow_marker("cast", 4));
    }
}
