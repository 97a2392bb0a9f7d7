//! `threadescape`: escape analysis over thread boundaries. Every value
//! a closure captures when it is handed to the pool (`run`, `run_init`,
//! `run_init_stats`), to `spawn`, or across a channel `send` must fit
//! one of four classifications — immutable-shared (no mutation
//! evidence), facade-atomic (mutated only through atomic methods),
//! lock-guarded (mutated only under a `.lock()` guard), or
//! disjoint-band (declared `// audit: disjoint(<name>) — <reason>`, the
//! `split_at_mut` output-band pattern of DESIGN.md §15). A mutable
//! shared reach that fits none is a data race the type system cannot
//! see past the facade, and is rejected here at audit time.
//!
//! The analysis is lexical over the scrubbed source (closure argument
//! regions are extracted with balanced-paren scanning), anchored on the
//! parser's call sites so `master.run(&rx, n)` — no closure literal —
//! is never confused with a pool fan-out. Scope matches the other
//! concurrency passes: library code of non-[`SYNC_EXEMPT_CRATES`],
//! tests excluded.

use std::collections::BTreeSet;

use crate::parser::Call;
use crate::passes::{Violation, Workspace, SYNC_EXEMPT_CRATES};
use crate::source::{Role, SourceFile};

/// Pool methods whose task list and closures cross the worker boundary.
const POOL_BOUNDARIES: &[&str] = &["run", "run_init", "run_init_stats"];

/// Identifiers that are never captured values.
const KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "move", "if", "else", "match", "for", "while", "loop", "in", "return",
    "break", "continue", "as", "fn", "impl", "dyn", "where", "true", "false", "self", "crate",
    "super", "async", "await", "static", "const", "use", "pub", "mod", "struct", "enum", "trait",
    "type", "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
    "f32", "f64", "bool", "char", "str",
];

/// Atomic methods that count as facade-atomic mutation.
const ATOMIC_MUTATORS: &[&str] = &[
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "fetch_max",
    "fetch_min",
    "compare_exchange",
    "compare_exchange_weak",
];

/// What kind of thread boundary a call site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Boundary {
    Pool,
    Spawn,
    Send,
}

/// The argument region of one call: `(0-based line, text)` per line,
/// with the outer parentheses stripped.
type Region = Vec<(usize, String)>;

/// One closure literal found in an argument region.
struct ClosureLit {
    /// Identifiers bound by the parameter list.
    params: BTreeSet<String>,
    /// Body text, per line.
    body: Region,
}

/// Pass: see the module docs.
pub fn check_threadescape(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        if f.role != Role::Lib || SYNC_EXEMPT_CRATES.contains(&ws.crate_key(fi)) {
            continue;
        }
        for (idx, func) in ws.parsed[fi].fns.iter().enumerate() {
            if f.in_test_span(func.line) {
                continue;
            }
            for call in &func.calls {
                let boundary = match call.name.as_str() {
                    "spawn" => Boundary::Spawn,
                    "send" if call.method => Boundary::Send,
                    n if call.method && POOL_BOUNDARIES.contains(&n) => Boundary::Pool,
                    _ => continue,
                };
                let Some(region) = call_args(f, call) else {
                    continue;
                };
                let closures = closure_literals(&region);
                // A pool/spawn name without a closure literal is not a
                // thread boundary (`master.run(&rx, n)`, `cfg.run()`).
                if boundary != Boundary::Send && closures.is_empty() {
                    continue;
                }
                match boundary {
                    Boundary::Send => {
                        check_send(ws, fi, &region, &mut out);
                    }
                    Boundary::Pool | Boundary::Spawn => {
                        if boundary == Boundary::Pool {
                            check_task_arg(ws, fi, idx, call, &region, &mut out);
                        }
                        for cl in &closures {
                            check_captures(ws, fi, call, cl, &mut out);
                        }
                    }
                }
            }
        }
    }
    out
}

/// A channel `send` whose payload expression contains a `&mut` borrow
/// hands exclusive access to another thread with no owner transfer —
/// reject unless explicitly allowed.
fn check_send(ws: &Workspace, fi: usize, region: &Region, out: &mut Vec<Violation>) {
    for (line, text) in region {
        if text.contains("&mut ") && !ws.allowed(fi, "threadescape", *line) {
            out.push(Violation {
                file: ws.files[fi].rel_path.clone(),
                line: line + 1,
                pass: "threadescape",
                message: "channel `send` payload contains a `&mut` borrow; move an owned \
                          value across the channel instead"
                    .to_owned(),
            });
            return;
        }
    }
}

/// The pool's task list is handed out one element per worker. When it
/// is a bare binding whose declaration carries `&mut` (a vector of
/// mutable output bands), the partition must be declared disjoint.
fn check_task_arg(
    ws: &Workspace,
    fi: usize,
    fn_idx: usize,
    call: &Call,
    region: &Region,
    out: &mut Vec<Violation>,
) {
    let f = &ws.files[fi];
    let Some(first) = first_arg(region) else {
        return;
    };
    let arg = first.trim();
    if arg.is_empty() || !arg.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return; // expression argument: ownership moves per element
    }
    let Some(body) = ws.parsed[fi].fns[fn_idx].body else {
        return;
    };
    // Nearest `let` declaring the binding, strictly above the call: a
    // `let (_, stats) = pool.run_init_stats(tasks, ..)` line names the
    // binding next to a `let` without declaring it.
    let decl = (body.0..call.line.min(body.1 + 1))
        .rev()
        .find(|&l| {
            let code = &f.scan.code_lines[l];
            crate::passes::contains_word(code, "let") && crate::passes::contains_word(code, arg)
        })
        .filter(|&l| {
            let decl_text = format!(
                "{} {}",
                f.scan.code_lines[l],
                f.scan.code_lines.get(l + 1).map_or("", String::as_str)
            );
            decl_text.contains("&mut")
        });
    if decl.is_none() {
        return;
    }
    if ws.disjoint_allowed(fi, arg, call.line) || ws.allowed(fi, "threadescape", call.line) {
        return;
    }
    out.push(Violation {
        file: f.rel_path.clone(),
        line: call.line + 1,
        pass: "threadescape",
        message: format!(
            "task buffer `{arg}` carries `&mut` bands across the `{}` boundary; declare \
             the partition with `// audit: disjoint({arg}) — <reason>` (or restructure \
             to owned tasks)",
            call.name
        ),
    });
}

/// Classify every free identifier the closure captures; reject mutable
/// shared reach with no atomic, lock, or disjoint classification.
fn check_captures(
    ws: &Workspace,
    fi: usize,
    call: &Call,
    cl: &ClosureLit,
    out: &mut Vec<Violation>,
) {
    let f = &ws.files[fi];
    let bound = bound_idents(cl);
    for (name, mutation_line, rescued) in mutated_captures(cl, &bound) {
        if rescued {
            continue; // facade-atomic or lock-guarded mutation
        }
        if ws.disjoint_allowed(fi, &name, call.line)
            || ws.disjoint_allowed(fi, &name, mutation_line)
            || ws.allowed(fi, "threadescape", mutation_line)
            || ws.allowed(fi, "threadescape", call.line)
        {
            continue;
        }
        out.push(Violation {
            file: f.rel_path.clone(),
            line: mutation_line + 1,
            pass: "threadescape",
            message: format!(
                "closure passed to `{}` mutates captured `{name}` with no lock, atomic, \
                 or `audit: disjoint` classification — a shared mutable reach across the \
                 thread boundary",
                call.name
            ),
        });
    }
}

/// The balanced-paren argument region of `call`, or `None` when the
/// call name cannot be re-anchored on its line.
fn call_args(f: &SourceFile, call: &Call) -> Option<Region> {
    let lines = &f.scan.code_lines;
    let code = lines.get(call.line)?;
    let chars: Vec<char> = code.chars().collect();
    // First occurrence of the name, word-bounded, followed by `(`.
    let name_chars: Vec<char> = call.name.chars().collect();
    let mut open_col = None;
    for s in 0..chars.len().saturating_sub(name_chars.len()) {
        if chars[s..s + name_chars.len()] != name_chars[..] {
            continue;
        }
        let left_ok = s == 0 || !(chars[s - 1].is_ascii_alphanumeric() || chars[s - 1] == '_');
        let mut j = s + name_chars.len();
        if !left_ok || chars.get(j).is_some_and(|c| c.is_ascii_alphanumeric() || *c == '_') {
            continue;
        }
        while j < chars.len() && chars[j].is_whitespace() {
            j += 1;
        }
        if chars.get(j) == Some(&'(') {
            open_col = Some(j);
            break;
        }
    }
    let open_col = open_col?;
    let mut region = Vec::new();
    let mut depth = 0i32;
    for (lno, line) in lines.iter().enumerate().skip(call.line).take(400) {
        let mut text = String::new();
        for (col, c) in line.chars().enumerate() {
            if lno == call.line && col < open_col {
                continue;
            }
            match c {
                '(' => {
                    depth += 1;
                    if depth > 1 {
                        text.push(c);
                    }
                }
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        region.push((lno, text));
                        return Some(region);
                    }
                    text.push(c);
                }
                _ if depth >= 1 => text.push(c),
                _ => {}
            }
        }
        region.push((lno, text));
    }
    None
}

/// Text of the first top-level argument in a region.
fn first_arg(region: &Region) -> Option<String> {
    let mut depth = 0i32;
    let mut arg = String::new();
    for (_, text) in region {
        for c in text.chars() {
            match c {
                '(' | '[' | '{' | '<' => depth += 1,
                ')' | ']' | '}' | '>' => depth -= 1,
                ',' if depth == 0 => return Some(arg),
                _ => {}
            }
            arg.push(c);
        }
        arg.push(' ');
    }
    Some(arg)
}

/// Extract the closure literals at the top level of an argument region.
fn closure_literals(region: &Region) -> Vec<ClosureLit> {
    let flat: Vec<(usize, char)> = region
        .iter()
        .flat_map(|(l, t)| t.chars().map(move |c| (*l, c)).chain(std::iter::once((*l, '\n'))))
        .collect();
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut prev_sig = ' '; // previous significant char at top level
    let mut prev_word = String::new();
    let mut i = 0usize;
    while i < flat.len() {
        let (line, c) = flat[i];
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            '|' if depth == 0 && (prev_sig == ' ' || prev_sig == ',' || prev_word == "move") => {
                // Parameter list: up to the matching `|` (or empty `||`).
                let mut params = BTreeSet::new();
                let mut j = i + 1;
                if flat.get(j).map(|&(_, c)| c) == Some('|') {
                    j += 1;
                } else {
                    let mut word = String::new();
                    while j < flat.len() && flat[j].1 != '|' {
                        let ch = flat[j].1;
                        if ch.is_ascii_alphanumeric() || ch == '_' {
                            word.push(ch);
                        } else {
                            bind_word(&mut params, &mut word);
                        }
                        j += 1;
                    }
                    bind_word(&mut params, &mut word);
                    j += 1; // past closing `|`
                }
                // Body: until `,` at top level or region end.
                let mut body: Region = Vec::new();
                let mut cur = String::new();
                let mut cur_line = flat.get(j).map_or(line, |&(l, _)| l);
                let mut bdepth = 0i32;
                while j < flat.len() {
                    let (bl, bc) = flat[j];
                    if bl != cur_line {
                        body.push((cur_line, std::mem::take(&mut cur)));
                        cur_line = bl;
                    }
                    match bc {
                        '(' | '[' | '{' => bdepth += 1,
                        ')' | ']' | '}' => bdepth -= 1,
                        ',' if bdepth == 0 => break,
                        _ => {}
                    }
                    if bc != '\n' {
                        cur.push(bc);
                    }
                    j += 1;
                }
                body.push((cur_line, cur));
                out.push(ClosureLit { params, body });
                prev_sig = ',';
                prev_word.clear();
                i = j;
                continue;
            }
            _ => {}
        }
        if depth == 0 && c != '\n' {
            if c.is_ascii_alphanumeric() || c == '_' {
                prev_word.push(c);
            } else if !c.is_whitespace() {
                prev_word.clear();
            }
            if !c.is_whitespace() {
                prev_sig = if c == ',' { ',' } else { c };
            }
        }
        i += 1;
    }
    out
}

/// Move a collected identifier into the bound set (types excluded).
fn bind_word(params: &mut BTreeSet<String>, word: &mut String) {
    if !word.is_empty() && !word.chars().next().is_some_and(char::is_uppercase) {
        params.insert(std::mem::take(word));
    } else {
        word.clear();
    }
}

/// All identifiers the closure binds itself: parameters plus `let`/`for`
/// bindings and nested-closure parameters in the body.
fn bound_idents(cl: &ClosureLit) -> BTreeSet<String> {
    let mut bound = cl.params.clone();
    for (_, text) in &cl.body {
        let words: Vec<(usize, String)> = word_occurrences(text);
        let chars: Vec<char> = text.chars().collect();
        for (wi, (pos, w)) in words.iter().enumerate() {
            match w.as_str() {
                "let" => {
                    // Bind idents until `=` or `;`.
                    let mut stop = chars.len();
                    for (k, &c) in chars.iter().enumerate().skip(pos + 3) {
                        if c == '=' || c == ';' {
                            stop = k;
                            break;
                        }
                    }
                    for (p2, w2) in &words[wi + 1..] {
                        if *p2 >= stop {
                            break;
                        }
                        if !w2.chars().next().is_some_and(char::is_uppercase) {
                            bound.insert(w2.clone());
                        }
                    }
                }
                "for" => {
                    for (_, w2) in &words[wi + 1..] {
                        if w2 == "in" {
                            break;
                        }
                        if !w2.chars().next().is_some_and(char::is_uppercase) {
                            bound.insert(w2.clone());
                        }
                    }
                }
                _ => {}
            }
        }
        // Nested-closure parameter lists: `|a, b|` after `(`/`,`/`=`.
        let mut k = 0usize;
        while k < chars.len() {
            if chars[k] == '|' {
                let before = chars[..k].iter().rev().find(|c| !c.is_whitespace());
                if matches!(before, Some('(' | ',' | '=' | '{' | ';') | None) {
                    let mut word = String::new();
                    let mut j = k + 1;
                    while j < chars.len() && chars[j] != '|' {
                        if chars[j].is_ascii_alphanumeric() || chars[j] == '_' {
                            word.push(chars[j]);
                        } else {
                            bind_word(&mut bound, &mut word);
                        }
                        j += 1;
                    }
                    bind_word(&mut bound, &mut word);
                    k = j;
                }
            }
            k += 1;
        }
    }
    bound
}

/// Word occurrences with char positions in one line of text.
fn word_occurrences(text: &str) -> Vec<(usize, String)> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i].is_ascii_alphabetic() || chars[i] == '_' {
            let start = i;
            let mut w = String::new();
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                w.push(chars[i]);
                i += 1;
            }
            out.push((start, w));
        } else {
            i += 1;
        }
    }
    out
}

/// Captured identifiers with mutation evidence:
/// `(name, 0-based mutation line, rescued-by-atomic-or-lock)`.
fn mutated_captures(cl: &ClosureLit, bound: &BTreeSet<String>) -> Vec<(String, usize, bool)> {
    // First sweep: which captured idents are mutated, and which have
    // atomic/lock evidence anywhere in the body.
    let mut mutated: Vec<(String, usize)> = Vec::new();
    let mut rescued: BTreeSet<String> = BTreeSet::new();
    for (lno, text) in &cl.body {
        let chars: Vec<char> = text.chars().collect();
        for (pos, w) in word_occurrences(text) {
            if bound.contains(&w)
                || KEYWORDS.contains(&w.as_str())
                || w.starts_with('_')
                || w.chars().next().is_some_and(char::is_uppercase)
                    && !w.chars().all(|c| c.is_ascii_uppercase() || c == '_')
            {
                continue;
            }
            // Skip path segments, field positions, and call/macro names.
            let prev = chars[..pos].iter().rev().find(|c| !c.is_whitespace());
            if matches!(prev, Some('.' | ':')) {
                continue;
            }
            let mut j = pos + w.chars().count();
            // `&mut x` escapes as a mutable borrow.
            let lead: String = chars[..pos].iter().collect();
            if lead.trim_end().ends_with("&mut") {
                mutated.push((w.clone(), *lno));
                continue;
            }
            // Walk field/index/method suffixes.
            let mut is_mutation = false;
            loop {
                while j < chars.len() && chars[j].is_whitespace() {
                    j += 1;
                }
                match chars.get(j) {
                    Some('.') => {
                        // `.ident` — field or method.
                        let mut k = j + 1;
                        let mut m = String::new();
                        while k < chars.len()
                            && (chars[k].is_ascii_alphanumeric() || chars[k] == '_')
                        {
                            m.push(chars[k]);
                            k += 1;
                        }
                        if chars.get(k) == Some(&'(') {
                            if m == "lock" || ATOMIC_MUTATORS.contains(&m.as_str()) {
                                rescued.insert(w.clone());
                            }
                            break; // method-call result: not an lvalue path
                        }
                        j = k;
                    }
                    Some('[') => {
                        let mut d = 0i32;
                        while j < chars.len() {
                            match chars[j] {
                                '[' => d += 1,
                                ']' => {
                                    d -= 1;
                                    if d == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        j += 1;
                    }
                    Some('=')
                        if chars.get(j + 1) != Some(&'=') && chars.get(j + 1) != Some(&'>') =>
                    {
                        // Plain assignment — but not `<=`/`>=`/`!=`/`==`.
                        is_mutation = true;
                        break;
                    }
                    Some(&op) if "+-*/%&|^".contains(op) && chars.get(j + 1) == Some(&'=') => {
                        is_mutation = true;
                        break;
                    }
                    Some('<') | Some('>')
                        if chars.get(j + 1) == Some(&chars[j])
                            && chars.get(j + 2) == Some(&'=') =>
                    {
                        is_mutation = true; // `<<=` / `>>=`
                        break;
                    }
                    _ => break,
                }
            }
            if is_mutation {
                mutated.push((w.clone(), *lno));
            }
        }
    }
    let mut seen = BTreeSet::new();
    mutated
        .into_iter()
        .filter(|(w, _)| seen.insert(w.clone()))
        .map(|(w, l)| {
            let r = rescued.contains(&w);
            (w, l, r)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Contracts, CrateGraph};
    use crate::source::SourceFile;

    fn ws_of(src: &str) -> Workspace {
        let f = SourceFile::new("crates/fcma-core/src/a.rs", Some("fcma-core"), Role::Lib, src);
        Workspace::new(vec![f], CrateGraph::default(), Contracts::default(), None)
    }

    fn hits(src: &str) -> Vec<Violation> {
        check_threadescape(&ws_of(src))
    }

    #[test]
    fn immutable_captures_are_clean() {
        let v = hits(
            "//! m\nfn f(pool: &Pool, n: usize, a: &[f32]) {\n    pool.run((0..n).collect(), \
             |_idx, i| helper(a, i, n));\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn mutated_capture_fires() {
        let v = hits(
            "//! m\nfn f(total: &mut usize) {\n    spawn(move || {\n        *total += 1;\n    });\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].pass, "threadescape");
        assert!(v[0].message.contains("total"), "{}", v[0].message);
    }

    #[test]
    fn atomic_and_lock_mutations_are_classified() {
        let v = hits(
            "//! m\nfn f(hits: &AtomicU64, shared: &Mutex<u64>) {\n    spawn(move || {\n        \
             hits.fetch_add(1, Ordering::Relaxed);\n        \
             *shared.lock().unwrap() += 1;\n    });\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn mut_task_buffer_needs_disjoint_marker() {
        let src = "//! m\nfn f(pool: &Pool, c: &mut [f32]) {\n    \
                   let mut tasks: Vec<(usize, &mut [f32])> = Vec::new();\n    \
                   tasks.push((0, c));\n    \
                   pool.run_init(tasks, || (), |s, _idx, (r, band)| fill(band, r));\n}\n";
        let v = hits(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("disjoint(tasks)"), "{}", v[0].message);

        let marked = src.replace(
            "    pool.run_init(",
            "    // audit: disjoint(tasks) — bands are split_at_mut slices\n    pool.run_init(",
        );
        let v = hits(&marked);
        assert!(v.is_empty(), "{v:?}");

        // The call's own `let` is not the buffer's declaration.
        let bound = src.replace("    pool.run_init(", "    let (_, stats) = pool.run_init(");
        let v = hits(&bound);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn run_without_closure_literal_is_not_a_boundary() {
        let v = hits("//! m\nfn f(m: &Master, rx: &Receiver<u8>) {\n    m.run(rx, 3);\n}\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn send_of_mut_borrow_fires() {
        let v = hits(
            "//! m\nfn f(tx: &Sender<&mut [f32]>, band: &mut [f32]) {\n    \
             tx.send(&mut band[..]).unwrap();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("send"), "{}", v[0].message);
    }

    #[test]
    fn closure_local_bindings_are_not_captures() {
        let v = hits(
            "//! m\nfn f(pool: &Pool, n: usize) {\n    pool.run((0..n).collect(), |_idx, i| {\n        \
             let mut acc = 0usize;\n        acc += i;\n        for k in 0..n { acc += k; }\n        \
             acc\n    });\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allow_marker_escapes() {
        let v = hits(
            "//! m\nfn f(total: &mut usize) {\n    // audit: allow(threadescape) — joined before read\n    \
             spawn(move || {\n        *total += 1;\n    });\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
