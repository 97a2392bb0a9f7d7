//! Mutant enumeration: typed, line-preserving semantic mutations over
//! the analyzed workspace, driven by the same lexer/parser/graph layers
//! the audit passes use.
//!
//! Each [`Mutant`] is a single-line textual patch that changes program
//! semantics without changing the line count, so every diagnostic a
//! pass raises against the mutated file stays comparable to the clean
//! baseline line-for-line. The classes are chosen to probe a specific
//! oracle each:
//!
//! | class              | seeded fault                                   | expected killer |
//! |--------------------|------------------------------------------------|-----------------|
//! | `arith-swap`       | `+`↔`-`, `*`→`+`, `/`→`*` (and compound forms) | none (covered) |
//! | `cmp-flip`         | `<`↔`<=`, `>`↔`>=`, `==`↔`!=`                  | none (covered) |
//! | `off-by-one`       | for-loop `a..b` → `a..=b`                      | none (covered) |
//! | `accum-reorder`    | float-accumulating `for` loop reversed          | none (covered) |
//! | `ordering-weaken`  | `Ordering::{Acquire,Release,AcqRel,SeqCst}` → `Relaxed` | `atomicorder` |
//! | `band-shift`       | `split_at_mut(e)` → `split_at_mut(e + 1)`       | none (covered) |
//! | `match-arm-delete` | a driver protocol arm retargeted off its variant | `protocol`     |
//!
//! Enumeration is deliberately conservative: operator sites come from
//! scrubbed code lines (never strings or comments) inside function
//! bodies, loop mutations from one-line `for` heads, ordering
//! sites from the same receiver attribution the `atomicorder` pass
//! uses, and sites the DESIGN.md contracts already permit to be weak
//! (or that an allow marker covers) are skipped — those are not faults.
//! `fcma-mut` applies the patches through an in-memory overlay,
//! classifies each mutant against the audit passes, and reports
//! call-graph test reachability as coverage.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::graph::CallGraph;
use crate::parser::ParsedFile;
use crate::passes::{self, Workspace};
use crate::source::Role;

/// Every mutant-class name, in report order. §17 mutation-contract rows
/// and `// audit: equivalent(<class>)` markers must name one of these.
pub const MUTANT_CLASSES: &[&str] = &[
    "accum-reorder",
    "arith-swap",
    "band-shift",
    "cmp-flip",
    "match-arm-delete",
    "off-by-one",
    "ordering-weaken",
];

/// Crates never mutated: the analysis tools themselves (mutating the
/// auditor and then asking it whether it noticed proves nothing), the
/// bench harness, and the model checker whose scheduler is the model
/// under test, not the system.
pub const MUTATION_EXEMPT: &[&str] = &["fcma-audit", "fcma-bench", "fcma-mc", "fcma-mut"];

/// The driver file whose protocol match arms `match-arm-delete` targets.
const DRIVER_FILE: &str = "crates/fcma-cluster/src/driver.rs";

/// One enumerated mutant: a single-line patch plus the metadata the
/// classifier needs (site, enclosing fn, human description).
#[derive(Debug, Clone)]
pub struct Mutant {
    /// Mutant class (one of [`MUTANT_CLASSES`]).
    pub class: &'static str,
    /// Index of the mutated file in [`Workspace::files`].
    pub file: usize,
    /// Workspace-relative path of that file.
    pub rel_path: String,
    /// 0-based line of the patch.
    pub line: usize,
    /// 0-based char column of the mutation site within the line.
    pub col: usize,
    /// Name of the enclosing fn, when the site is inside one.
    pub fn_name: Option<String>,
    /// Human description of the seeded fault.
    pub description: String,
    /// The full replacement for the raw source line.
    pub patched: String,
}

impl Mutant {
    /// Stable identifier: `class:path:1-based-line:col`.
    pub fn id(&self) -> String {
        format!("{}:{}:{}:{}", self.class, self.rel_path, self.line + 1, self.col)
    }
}

/// Binary-operator swaps probed by `arith-swap`, as
/// (needle, replacement, description) over rustfmt-spaced code.
const ARITH_SWAPS: &[(&str, &str, &str)] = &[
    (" + ", " - ", "replace `+` with `-`"),
    (" - ", " + ", "replace `-` with `+`"),
    (" * ", " + ", "replace `*` with `+`"),
    (" / ", " * ", "replace `/` with `*`"),
    (" += ", " -= ", "replace `+=` with `-=`"),
    (" -= ", " += ", "replace `-=` with `+=`"),
    (" *= ", " += ", "replace `*=` with `+=`"),
    (" /= ", " *= ", "replace `/=` with `*=`"),
];

/// Comparison flips probed by `cmp-flip`.
const CMP_FLIPS: &[(&str, &str, &str)] = &[
    (" < ", " <= ", "replace `<` with `<=`"),
    (" <= ", " < ", "replace `<=` with `<`"),
    (" > ", " >= ", "replace `>` with `>=`"),
    (" >= ", " > ", "replace `>=` with `>`"),
    (" == ", " != ", "replace `==` with `!=`"),
    (" != ", " == ", "replace `!=` with `==`"),
];

/// Is `file` in mutation scope: a library file of a non-exempt crate?
pub fn in_scope(ws: &Workspace, file: usize) -> bool {
    ws.files[file].role == Role::Lib && !MUTATION_EXEMPT.contains(&ws.crate_key(file))
}

/// Enumerate every mutant over the workspace, sorted by
/// (class, file, line, col). Deterministic: no randomness, no ambient
/// state — the same tree always yields the same list, which is what
/// makes the committed `mutation-baseline.json` reproducible.
pub fn enumerate(ws: &Workspace) -> Vec<Mutant> {
    let mut out = Vec::new();
    for fi in 0..ws.files.len() {
        if !in_scope(ws, fi) {
            continue;
        }
        operator_mutants(ws, fi, &mut out);
        loop_mutants(ws, fi, &mut out);
        ordering_mutants(ws, fi, &mut out);
        band_mutants(ws, fi, &mut out);
        arm_mutants(ws, fi, &mut out);
    }
    out.sort_by(|a, b| {
        (a.class, &a.rel_path, a.line, a.col).cmp(&(b.class, &b.rel_path, b.line, b.col))
    });
    out
}

/// The enclosing fn of a 0-based line, if any.
fn enclosing_fn(parsed: &ParsedFile, line: usize) -> Option<&crate::parser::FnItem> {
    parsed
        .fns
        .iter()
        .filter(|f| f.body.is_some_and(|(a, b)| (a..=b).contains(&line)))
        .min_by_key(|f| f.body.map_or(usize::MAX, |(a, b)| b - a))
}

/// Patch the raw line: replace `len` chars at char position `col` with
/// `with`. Returns `None` when the raw text at that position differs
/// from the scrubbed view (a site inside a literal — never a code site).
fn splice(raw: &str, col: usize, len: usize, with: &str, expect: &str) -> Option<String> {
    let chars: Vec<char> = raw.chars().collect();
    if col + len > chars.len() {
        return None;
    }
    let window: String = chars[col..col + len].iter().collect();
    if window != expect {
        return None;
    }
    let mut out: String = chars[..col].iter().collect();
    out.push_str(with);
    out.extend(chars[col + len..].iter());
    Some(out)
}

/// Token immediately left/right of a char span, for type-context
/// filtering: `Clone + Send` bounds and `'a + 'b` lifetime sums must
/// not become arithmetic mutants.
fn flanking_tokens(code: &str, start: usize, end: usize) -> (String, String) {
    let chars: Vec<char> = code.chars().collect();
    let mut l = String::new();
    let mut i = start;
    while i > 0 && (chars[i - 1].is_ascii_alphanumeric() || chars[i - 1] == '_') {
        i -= 1;
    }
    l.extend(chars[i..start].iter());
    let mut r = String::new();
    let mut j = end;
    if chars.get(j) == Some(&'\'') {
        r.push('\'');
        j += 1;
    }
    while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
        r.push(chars[j]);
        j += 1;
    }
    (l, r)
}

/// `arith-swap` and `cmp-flip`: spaced binary-operator sites inside fn
/// bodies. The tree is rustfmt-formatted, so binary operators are
/// always space-flanked while unary minus, deref, generics, shifts, and
/// `=>` arrows never are — the spaced needle is the disambiguator.
fn operator_mutants(ws: &Workspace, fi: usize, out: &mut Vec<Mutant>) {
    let f = &ws.files[fi];
    let parsed = &ws.parsed[fi];
    for func in &parsed.fns {
        let Some((b0, b1)) = func.body else { continue };
        if f.in_test_span(func.line) {
            continue;
        }
        for line in b0..=b1.min(f.scan.code_lines.len().saturating_sub(1)) {
            if f.in_test_span(line) {
                continue;
            }
            let code = &f.scan.code_lines[line];
            for (class, table) in [("arith-swap", ARITH_SWAPS), ("cmp-flip", CMP_FLIPS)] {
                for &(needle, with, desc) in table {
                    for col in find_all(code, needle) {
                        let op_start = col + 1;
                        let op_end = col + needle.chars().count() - 1;
                        let (l, r) = flanking_tokens(code, col, col + needle.chars().count());
                        // Type/bound context — `dyn Fn() + Send`,
                        // `T: Clone + Default`, `'a + 'b`: a `+` whose
                        // right side is a capitalized ident or lifetime
                        // and whose left side is a capitalized ident or
                        // a closing `)`/`>` is a bound, not arithmetic.
                        let upper = |s: &str| s.chars().next().is_some_and(char::is_uppercase);
                        let left_ty = upper(&l)
                            || l.is_empty()
                                && col > 0
                                && matches!(code.chars().nth(col - 1), Some(')') | Some('>'));
                        if needle == " + " && left_ty && (upper(&r) || r.starts_with('\'')) {
                            continue;
                        }
                        let op: String = {
                            let cs: Vec<char> = needle.chars().collect();
                            cs[1..cs.len() - 1].iter().collect()
                        };
                        let with_op: String = {
                            let cs: Vec<char> = with.chars().collect();
                            cs[1..cs.len() - 1].iter().collect()
                        };
                        let Some(patched) = splice(
                            &f.scan.raw_lines[line],
                            op_start,
                            op_end - op_start,
                            &with_op,
                            &op,
                        ) else {
                            continue;
                        };
                        out.push(Mutant {
                            class,
                            file: fi,
                            rel_path: f.rel_path.clone(),
                            line,
                            col: op_start,
                            fn_name: Some(func.name.clone()),
                            description: format!("{desc} in `{}`", func.name),
                            patched,
                        });
                    }
                }
            }
        }
    }
}

/// Every char position where `needle` occurs in `code`. Operator
/// needles are space-flanked (` + `), so a shorter operator can never
/// match inside a longer one — ` + ` has `=` where ` += ` has a space.
fn find_all(code: &str, needle: &str) -> Vec<usize> {
    let chars: Vec<char> = code.chars().collect();
    let pat: Vec<char> = needle.chars().collect();
    let mut cols = Vec::new();
    if chars.len() < pat.len() {
        return cols;
    }
    for s in 0..=(chars.len() - pat.len()) {
        if chars[s..s + pat.len()] == pat[..] {
            cols.push(s);
        }
    }
    cols
}

/// `off-by-one` and `accum-reorder`: loop-level mutations on one-line
/// `for` heads. `off-by-one` widens a for-loop's exclusive range bound;
/// `accum-reorder` reverses a for loop that carries a float compound
/// accumulation across iterations, changing the rounding order the §15
/// bit-identity contract pins.
fn loop_mutants(ws: &Workspace, fi: usize, out: &mut Vec<Mutant>) {
    let f = &ws.files[fi];
    let lines = &f.scan.code_lines;
    for func in &ws.parsed[fi].fns {
        let Some((b0, b1)) = func.body else { continue };
        if f.in_test_span(func.line) {
            continue;
        }
        for head in b0..=b1.min(lines.len().saturating_sub(1)) {
            let code = &lines[head];
            if f.in_test_span(head) || !is_for_head(code) {
                continue;
            }
            let Some(range_col) = exclusive_range_col(code) else { continue };
            if let Some(patched) = splice(&f.scan.raw_lines[head], range_col, 2, "..=", "..") {
                out.push(Mutant {
                    class: "off-by-one",
                    file: fi,
                    rel_path: f.rel_path.clone(),
                    line: head,
                    col: range_col,
                    fn_name: Some(func.name.clone()),
                    description: format!(
                        "widen loop bound `..` to `..=` in `{}` (one extra iteration)",
                        func.name
                    ),
                    patched,
                });
            }
            // Reversal only matters when a float accumulation is carried
            // across this loop's iterations: integer loops reversed are
            // equivalent, float sums are not (association order).
            if !carries_float(lines, b0, head) {
                continue;
            }
            if let Some(patched) = reverse_range(&f.scan.raw_lines[head], code) {
                out.push(Mutant {
                    class: "accum-reorder",
                    file: fi,
                    rel_path: f.rel_path.clone(),
                    line: head,
                    col: range_col,
                    fn_name: Some(func.name.clone()),
                    description: format!(
                        "reverse float-accumulating loop in `{}` (summation order flips)",
                        func.name
                    ),
                    patched,
                });
            }
        }
    }
}

/// Is this scrubbed line a one-line `for` head, `for <pat> in <expr> {`,
/// optionally labeled (`'outer: for …`)?
fn is_for_head(code: &str) -> bool {
    let t = code.trim();
    let t = match t.strip_prefix('\'') {
        Some(labeled) => labeled.split_once(": ").map_or(t, |(_, rest)| rest),
        None => t,
    };
    t.starts_with("for ") && t.contains(" in ") && t.ends_with('{')
}

/// Does the loop headed on line `head` carry a float accumulation? It
/// does when its brace-matched body has a `name += | -= | *=` site and
/// `name` has a float-valued `let` or plain reassignment between the fn
/// body's first line `fn_start` and the head, not shadowed by a
/// `let name` inside the loop before the site.
fn carries_float(lines: &[String], fn_start: usize, head: usize) -> bool {
    let (mut opens, mut closes) = (0, 0);
    for site in head..lines.len() {
        for name in accum_targets(&lines[site]) {
            let shadowed = (head + 1..site).any(|l| defines(&lines[l], name, true));
            if !shadowed
                && (fn_start..head)
                    .any(|l| defines(&lines[l], name, false) && float_init(&lines[l]))
            {
                return true;
            }
        }
        opens += lines[site].matches('{').count();
        closes += lines[site].matches('}').count();
        if closes >= opens {
            break;
        }
    }
    false
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Plain locals compound-assigned on `code` by `+=`, `-=` or `*=`.
/// Indexed (`a[i] += …`) and field (`s.x += …`) targets are element
/// updates, not scalar accumulators; `*acc += …` is kept.
fn accum_targets(code: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for op in [" += ", " -= ", " *= "] {
        for (at, _) in code.match_indices(op) {
            let start = code[..at].trim_end_matches(is_ident_char).len();
            if start < at && !code[..start].ends_with('.') {
                out.push(&code[start..at]);
            }
        }
    }
    out
}

/// Does `code` define local `name`: `let [mut] name = | :`, or (unless
/// `let_only`) a plain reassignment `name = …`?
fn defines(code: &str, name: &str, let_only: bool) -> bool {
    code.match_indices(name).any(|(at, _)| {
        if code[..at].ends_with(is_ident_char) {
            return false;
        }
        let before = code[..at].trim_end();
        let after = &code[at + name.len()..];
        let unmut = before.strip_suffix("mut").map_or(before, str::trim_end);
        if unmut.strip_suffix("let").is_some_and(|p| !p.ends_with(is_ident_char)) {
            after.starts_with(" = ") || (after.starts_with(':') && !after.starts_with("::"))
        } else {
            !let_only
                && after.starts_with(" = ")
                && !before.ends_with(is_ident_char)
                && !before.ends_with(NOT_ASSIGN_PREFIX)
        }
    })
}

/// Punctuation that, directly before `name =` or `=`, marks a field,
/// deref, comparison or compound operator rather than a plain assignment.
const NOT_ASSIGN_PREFIX: &[char] =
    &['=', '<', '>', '!', '+', '-', '*', '/', '%', '&', '|', '^', '.', ':'];

/// Positive evidence that the value assigned on `code` is a float: the
/// text after its first plain `=` names `f32` / `f64`, or has a digit
/// followed by `.` and no `..` range.
fn float_init(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    let plain_eq = |i: usize| {
        chars[i] == '='
            && !matches!(chars.get(i + 1), Some('=' | '>'))
            && !(i > 0 && NOT_ASSIGN_PREFIX.contains(&chars[i - 1]))
    };
    let Some(eq) = (0..chars.len()).find(|&i| plain_eq(i)) else { return false };
    let init = &chars[eq + 1..];
    let text: String = init.iter().collect();
    passes::contains_word(&text, "f32")
        || passes::contains_word(&text, "f64")
        || (!text.contains("..") && init.windows(2).any(|w| w[0].is_ascii_digit() && w[1] == '.'))
}

/// Char position of the first exclusive `..` range operator on a
/// for-loop head line: not `..=`, not `...`, not a method-chain dot.
fn exclusive_range_col(code: &str) -> Option<usize> {
    let chars: Vec<char> = code.chars().collect();
    for s in 0..chars.len().saturating_sub(1) {
        if chars[s] != '.' || chars[s + 1] != '.' {
            continue;
        }
        if s > 0 && chars[s - 1] == '.' {
            continue;
        }
        if matches!(chars.get(s + 2), Some(&'=') | Some(&'.')) {
            continue;
        }
        return Some(s);
    }
    None
}

/// Rewrite `for x in <range> {` as `for x in (<range>).rev() {`,
/// line-preserving. Only fires on range expressions (`..` present) that
/// are not already reversed.
fn reverse_range(raw: &str, code: &str) -> Option<String> {
    if code.contains(".rev()") {
        return None;
    }
    let in_pos = passes::site_starts(code, "in").into_iter().find(|&s| {
        let chars: Vec<char> = code.chars().collect();
        chars.get(s + 2) == Some(&' ') && s > 0 && chars[s - 1] == ' '
    })?;
    let chars: Vec<char> = raw.chars().collect();
    // The range spans from after `in ` to before the trailing ` {`.
    let code_chars: Vec<char> = code.chars().collect();
    let mut open = code_chars.len();
    for i in (0..code_chars.len()).rev() {
        if code_chars[i] == '{' {
            open = i;
            break;
        }
    }
    if open == code_chars.len() {
        return None;
    }
    let expr_start = in_pos + 3;
    let mut expr_end = open;
    while expr_end > expr_start && code_chars[expr_end - 1] == ' ' {
        expr_end -= 1;
    }
    if expr_end <= expr_start {
        return None;
    }
    let range_text: String = chars.get(expr_start..expr_end)?.iter().collect();
    if !range_text.contains("..") {
        return None;
    }
    let mut out: String = chars[..expr_start].iter().collect();
    out.push('(');
    out.push_str(&range_text);
    out.push_str(").rev()");
    out.extend(chars[expr_end..].iter());
    Some(out)
}

/// `ordering-weaken`: every `Ordering::{Acquire,Release,AcqRel,SeqCst}`
/// site whose §16 row does *not* already allow `Relaxed` for that
/// access class becomes a Relaxed-weakening mutant. Contract-permitted
/// weak sites and allow-marked sites are skipped — weakening them is
/// not a fault, so no oracle should fire.
fn ordering_mutants(ws: &Workspace, fi: usize, out: &mut Vec<Mutant>) {
    let f = &ws.files[fi];
    let Some(contract) = ws.contracts.atomics.as_ref() else {
        return;
    };
    for (line, code) in f.scan.code_lines.iter().enumerate() {
        if f.in_test_span(line) {
            continue;
        }
        for (col, variant) in passes::ordering_tokens(code) {
            if variant == "Relaxed" {
                continue;
            }
            let Some((recv, op, class)) = passes::atomic_op_at(f, line, col) else {
                continue;
            };
            let Some(entry) = contract.entry(&recv, &f.rel_path) else {
                continue;
            };
            let relaxed = |orderings: &[String]| orderings.iter().any(|o| o == "Relaxed");
            let permitted = match class {
                passes::OpClass::Load => relaxed(&entry.loads),
                passes::OpClass::Store => relaxed(&entry.stores),
                passes::OpClass::Rmw => relaxed(&entry.loads) && relaxed(&entry.stores),
            };
            if permitted || f.allow_marker("atomicorder", line) {
                continue;
            }
            let needle = format!("Ordering::{variant}");
            let Some(patched) = splice(
                &f.scan.raw_lines[line],
                col,
                needle.chars().count(),
                "Ordering::Relaxed",
                &needle,
            ) else {
                continue;
            };
            out.push(Mutant {
                class: "ordering-weaken",
                file: fi,
                rel_path: f.rel_path.clone(),
                line,
                col,
                fn_name: enclosing_fn(&ws.parsed[fi], line).map(|x| x.name.clone()),
                description: format!("weaken `{recv}.{op}` from `{variant}` to `Relaxed`"),
                patched,
            });
        }
    }
}

/// `band-shift`: move a `split_at_mut` band boundary by one element,
/// breaking the §15 disjoint-banding alignment the parallel kernels'
/// bit-identity rests on.
fn band_mutants(ws: &Workspace, fi: usize, out: &mut Vec<Mutant>) {
    let f = &ws.files[fi];
    for func in &ws.parsed[fi].fns {
        let Some((b0, b1)) = func.body else { continue };
        if f.in_test_span(func.line) {
            continue;
        }
        for line in b0..=b1.min(f.scan.code_lines.len().saturating_sub(1)) {
            if f.in_test_span(line) {
                continue;
            }
            let code = &f.scan.code_lines[line];
            let chars: Vec<char> = code.chars().collect();
            for col in find_all(code, "split_at_mut(") {
                let open = col + "split_at_mut(".chars().count() - 1;
                let mut depth = 0i32;
                let mut close = None;
                for (i, &c) in chars.iter().enumerate().skip(open) {
                    match c {
                        '(' => depth += 1,
                        ')' => {
                            depth -= 1;
                            if depth == 0 {
                                close = Some(i);
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                let Some(close) = close else { continue };
                if close == open + 1 {
                    continue;
                }
                let Some(patched) = splice(&f.scan.raw_lines[line], close, 1, " + 1)", ")") else {
                    continue;
                };
                out.push(Mutant {
                    class: "band-shift",
                    file: fi,
                    rel_path: f.rel_path.clone(),
                    line,
                    col,
                    fn_name: Some(func.name.clone()),
                    description: format!(
                        "shift `split_at_mut` band boundary by one in `{}`",
                        func.name
                    ),
                    patched,
                });
            }
        }
    }
}

/// `match-arm-delete`: retarget a driver match arm off its protocol
/// variant, leaving that variant unhandled — the totality fault the
/// `protocol` pass exists to catch.
fn arm_mutants(ws: &Workspace, fi: usize, out: &mut Vec<Mutant>) {
    let f = &ws.files[fi];
    if f.rel_path != DRIVER_FILE {
        return;
    }
    let Some(table) = ws.contracts.protocol.as_ref() else {
        return;
    };
    for entry in table {
        let needle = format!("{}::{}", entry.enum_name, entry.variant);
        for (line, code) in f.scan.code_lines.iter().enumerate() {
            if f.in_test_span(line) {
                continue;
            }
            for col in find_all(code, &needle) {
                let end = col + needle.chars().count();
                let boundary =
                    code.chars().nth(end).is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'));
                let is_arm = boundary && code.chars().skip(end).collect::<String>().contains("=>");
                if !is_arm {
                    continue;
                }
                let with = format!("{}::DeletedArm", entry.enum_name);
                let Some(patched) =
                    splice(&f.scan.raw_lines[line], col, needle.chars().count(), &with, &needle)
                else {
                    continue;
                };
                out.push(Mutant {
                    class: "match-arm-delete",
                    file: fi,
                    rel_path: f.rel_path.clone(),
                    line,
                    col,
                    fn_name: enclosing_fn(&ws.parsed[fi], line).map(|x| x.name.clone()),
                    description: format!("delete driver match arm for `{needle}`"),
                    patched,
                });
            }
        }
    }
}

/// The set of (file, fn index) nodes reachable from any test function
/// through the conservative workspace call graph — the static
/// reachability behind the `covered` verdict: some tier-1 test
/// transitively calls the mutated fn. Nothing is executed, so this is
/// coverage, not a kill. Deterministic classes whose enclosing fn is in
/// this set are reported covered; concurrency classes never are (a
/// deterministic test cannot reliably observe a race).
pub fn test_reachable(ws: &Workspace) -> BTreeSet<(usize, usize)> {
    let files: Vec<(String, &ParsedFile)> = ws
        .files
        .iter()
        .enumerate()
        .map(|(fi, _)| (ws.crate_key(fi).to_owned(), &ws.parsed[fi]))
        .collect();
    let include = |_file: usize, _idx: usize| true;
    let mut visible: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for m in &ws.crates.crates {
        visible.insert(m.name.clone(), ws.crates.closure(&m.name));
    }
    let graph = CallGraph::build(&files, &include, &visible);
    let is_test = |file: usize, line: usize| {
        ws.files[file].role == Role::Test || ws.files[file].in_test_span(line)
    };
    let mut reached: BTreeSet<usize> = BTreeSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        let fn_line = ws.parsed[n.file].fns[n.idx].line;
        if is_test(n.file, fn_line) && reached.insert(i) {
            queue.push_back(i);
        }
    }
    while let Some(i) = queue.pop_front() {
        for &(j, _) in &graph.callees[i] {
            if reached.insert(j) {
                queue.push_back(j);
            }
        }
    }
    reached.into_iter().map(|i| (graph.nodes[i].file, graph.nodes[i].idx)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Contracts, CrateGraph};
    use crate::source::SourceFile;

    fn ws_of(files: Vec<SourceFile>, contracts: Contracts) -> Workspace {
        Workspace::new(files, CrateGraph::default(), contracts, None)
    }

    fn lib(crate_name: &str, src: &str) -> SourceFile {
        SourceFile::new(&format!("crates/{crate_name}/src/a.rs"), Some(crate_name), Role::Lib, src)
    }

    #[test]
    fn arith_and_cmp_sites_enumerate_inside_bodies_only() {
        let ws = ws_of(
            vec![lib(
                "fcma-linalg",
                "pub fn f(a: f32, b: f32) -> f32 {\n    let c = a + b;\n    if c < 1.0 {\n        return c * 2.0;\n    }\n    c\n}\n\
                 #[cfg(test)]\nmod tests {\n    fn t() {\n        let x = 1 + 2;\n    }\n}\n",
            )],
            Contracts::default(),
        );
        let ms = enumerate(&ws);
        let arith: Vec<_> = ms.iter().filter(|m| m.class == "arith-swap").collect();
        let cmp: Vec<_> = ms.iter().filter(|m| m.class == "cmp-flip").collect();
        assert_eq!(arith.len(), 2, "a + b and c * 2.0: {arith:?}");
        assert_eq!(cmp.len(), 1, "c < 1.0: {cmp:?}");
        assert_eq!(arith[0].patched.trim(), "let c = a - b;");
        assert_eq!(cmp[0].patched.trim(), "if c <= 1.0 {");
        assert!(!ms.iter().any(|m| m.line >= 8), "cfg(test) code must not be mutated: {ms:?}");
    }

    #[test]
    fn trait_bounds_are_not_arith_sites() {
        let ws = ws_of(
            vec![lib("fcma-core", "pub fn f(g: Box<dyn Fn() + Send>) {\n    g();\n}\n")],
            Contracts::default(),
        );
        assert!(
            enumerate(&ws).iter().all(|m| m.class != "arith-swap"),
            "`Fn() + Send` is a bound, not arithmetic"
        );
    }

    #[test]
    fn off_by_one_widens_for_ranges() {
        let ws = ws_of(
            vec![lib(
                "fcma-linalg",
                "pub fn f(n: usize) -> usize {\n    let mut s = 0;\n    for i in 0..n {\n        s = s.wrapping_add(i);\n    }\n    s\n}\n",
            )],
            Contracts::default(),
        );
        let ms = enumerate(&ws);
        let off: Vec<_> = ms.iter().filter(|m| m.class == "off-by-one").collect();
        assert_eq!(off.len(), 1, "{ms:?}");
        assert_eq!(off[0].patched.trim(), "for i in 0..=n {");
    }

    #[test]
    fn accum_reorder_requires_carried_float() {
        let float_src = "pub fn f(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for i in 0..xs.len() {\n        acc += xs[i];\n    }\n    acc\n}\n";
        let int_src = "pub fn f(n: usize) -> usize {\n    let mut acc = 0;\n    for i in 0..n {\n        acc += i;\n    }\n    acc\n}\n";
        let ws = ws_of(vec![lib("fcma-linalg", float_src)], Contracts::default());
        let ms = enumerate(&ws);
        let rev: Vec<_> = ms.iter().filter(|m| m.class == "accum-reorder").collect();
        assert_eq!(rev.len(), 1, "{ms:?}");
        assert_eq!(rev[0].patched.trim(), "for i in (0..xs.len()).rev() {");
        let ws2 = ws_of(vec![lib("fcma-linalg", int_src)], Contracts::default());
        assert!(
            enumerate(&ws2).iter().all(|m| m.class != "accum-reorder"),
            "integer accumulation reversed is equivalent — no mutant"
        );
    }

    /// The loop-class mutants of one `fcma-linalg` library file.
    fn loop_ids(src: &str) -> Vec<String> {
        let ws = ws_of(vec![lib("fcma-linalg", src)], Contracts::default());
        enumerate(&ws)
            .iter()
            .filter(|m| matches!(m.class, "off-by-one" | "accum-reorder"))
            .map(|m| format!("{}:{}:{}", m.class, m.line + 1, m.col))
            .collect()
    }

    #[test]
    fn labeled_for_heads_are_loops() {
        let ids = loop_ids(
            "pub fn f(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    'outer: for i in 0..xs.len() {\n        acc += xs[i];\n        if acc > 1.0 {\n            break 'outer;\n        }\n    }\n    acc\n}\n",
        );
        assert_eq!(ids, vec!["accum-reorder:3:22", "off-by-one:3:22"]);
    }

    #[test]
    fn loop_body_is_brace_matched_past_nested_blocks() {
        // The accumulation sits after an `if` block closes inside the loop.
        let ids = loop_ids(
            "pub fn f(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for i in 0..xs.len() {\n        if xs[i] < 0.0 {\n            continue;\n        }\n        acc += xs[i];\n    }\n    acc\n}\n",
        );
        assert_eq!(ids, vec!["accum-reorder:3:14", "off-by-one:3:14"]);
        // A site after the loop's closing brace is not in its body.
        let after = loop_ids(
            "pub fn f(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for i in 0..xs.len() {\n        if xs[i] < 0.0 {\n            continue;\n        }\n    }\n    acc += 1.0;\n    acc\n}\n",
        );
        assert_eq!(after, vec!["off-by-one:3:14"]);
    }

    #[test]
    fn plain_reassignment_before_the_loop_carries_a_float() {
        let ids = loop_ids(
            "pub fn f(xs: &[f64], acc: &mut f64) {\n    let mut acc = *acc;\n    acc = 0.0;\n    for i in 0..xs.len() {\n        acc -= xs[i];\n    }\n    let _ = acc;\n}\n",
        );
        assert_eq!(ids, vec!["accum-reorder:4:14", "off-by-one:4:14"]);
    }

    #[test]
    fn let_inside_the_loop_shadows_the_outer_float() {
        let ids = loop_ids(
            "pub fn f(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for i in 0..xs.len() {\n        let mut acc = 0.0;\n        acc += xs[i];\n        let _ = acc;\n    }\n    acc\n}\n",
        );
        assert_eq!(ids, vec!["off-by-one:3:14"], "per-iteration accumulator: no reorder mutant");
    }

    #[test]
    fn for_loops_inside_closures_are_scanned() {
        let ids = loop_ids(
            "pub fn f(rows: &[Vec<f32>]) -> Vec<f32> {\n    rows.iter()\n        .map(|r| {\n            let mut s = 0.0f32;\n            for j in 0..r.len() {\n                s += r[j];\n            }\n            s\n        })\n        .collect()\n}\n",
        );
        assert_eq!(ids, vec!["accum-reorder:5:22", "off-by-one:5:22"]);
    }

    #[test]
    fn cfg_test_loop_heads_are_not_mutated() {
        let ids = loop_ids(
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let mut acc = 0.0;\n        for i in 0..4 {\n            acc += 1.0;\n        }\n        let _ = acc;\n    }\n}\n",
        );
        assert!(ids.is_empty(), "{ids:?}");
    }

    #[test]
    fn ordering_weaken_respects_contract_permitted_relaxed() {
        let md = "## 16. Atomics contracts\n\n\
                  | Atomic | File | Role | Loads | Stores | Pairing |\n|---|---|---|---|---|---|\n\
                  | `flag` | `fcma-core/src/a.rs` | latch | `Acquire` | `Release` | `flag` |\n\
                  | `soft` | `fcma-core/src/a.rs` | knob | `Relaxed` | `Relaxed`, `Release` | none |\n";
        let contracts = Contracts::from_design_md(md);
        let ws = ws_of(
            vec![lib(
                "fcma-core",
                "pub fn f(flag: &AtomicBool, soft: &AtomicBool) {\n    flag.store(true, Ordering::Release);\n    soft.store(true, Ordering::Release);\n    let _ = flag.load(Ordering::Acquire);\n}\n",
            )],
            contracts,
        );
        let ms = enumerate(&ws);
        let weaken: Vec<_> = ms.iter().filter(|m| m.class == "ordering-weaken").collect();
        assert_eq!(weaken.len(), 2, "flag store + flag load only: {weaken:?}");
        assert!(weaken.iter().all(|m| m.description.contains("`flag.")));
        assert!(weaken[0].patched.contains("Ordering::Relaxed"));
    }

    #[test]
    fn band_shift_patches_the_boundary_expression() {
        let ws = ws_of(
            vec![lib(
                "fcma-linalg",
                "pub fn f(xs: &mut [f32], mid: usize) {\n    let (a, b) = xs.split_at_mut(mid.min(4));\n    a[0] = b[0];\n}\n",
            )],
            Contracts::default(),
        );
        let ms = enumerate(&ws);
        let bands: Vec<_> = ms.iter().filter(|m| m.class == "band-shift").collect();
        assert_eq!(bands.len(), 1, "{ms:?}");
        assert_eq!(bands[0].patched.trim(), "let (a, b) = xs.split_at_mut(mid.min(4) + 1);");
    }

    #[test]
    fn exempt_crates_and_non_lib_roles_are_not_mutated() {
        let mut test_file = lib("fcma-linalg", "pub fn f(a: f32, b: f32) -> f32 {\n    a + b\n}\n");
        test_file.role = Role::Test;
        let ws = ws_of(
            vec![lib("fcma-audit", "pub fn f(a: f32, b: f32) -> f32 {\n    a + b\n}\n"), test_file],
            Contracts::default(),
        );
        assert!(enumerate(&ws).is_empty());
    }

    #[test]
    fn test_reachability_walks_the_call_graph() {
        let lib_f = lib(
            "fcma-linalg",
            "pub fn covered() -> f32 {\n    helper()\n}\nfn helper() -> f32 {\n    1.0\n}\npub fn orphan() -> f32 {\n    2.0\n}\n",
        );
        let tst = SourceFile::new(
            "crates/fcma-linalg/tests/t.rs",
            Some("fcma-linalg"),
            Role::Test,
            "#[test]\nfn t() {\n    covered();\n}\n",
        );
        let ws = ws_of(vec![lib_f, tst], Contracts::default());
        let reach = test_reachable(&ws);
        let names: Vec<&str> = reach
            .iter()
            .filter(|&&(f, _)| f == 0)
            .map(|&(f, i)| ws.parsed[f].fns[i].name.as_str())
            .collect();
        assert!(names.contains(&"covered"), "{names:?}");
        assert!(names.contains(&"helper"), "transitive: {names:?}");
        assert!(!names.contains(&"orphan"), "{names:?}");
    }
}
