//! Token-tree parser: turns the lexer's scrubbed code view into a
//! per-file item model — functions (with owner type, visibility,
//! `# Panics` docs, call sites, and panic sources), type items (structs,
//! enums with their variants, traits), and cross-crate path references.
//!
//! This is deliberately not a full Rust grammar. It is a single linear
//! walk over a token stream with a context stack (module / impl / trait
//! / fn bodies), exact for the constructs the semantic passes need:
//! who defines what, who calls whom, and where a panic can start. String
//! and comment contents were already blanked by [`crate::lexer`], so no
//! literal can fake a token here.

use crate::lexer::Scanned;

/// Item visibility, as far as the passes care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// `pub` — part of the workspace-wide API surface.
    Pub,
    /// `pub(crate)` / `pub(super)` / `pub(in …)` — crate-internal.
    Scoped,
    /// No visibility keyword.
    Private,
}

/// Where a panic can start inside a function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// `panic!`, `unreachable!`, `todo!`, or `unimplemented!`.
    PanicMacro,
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(…)`.
    Expect,
    /// `expr[…]` slice/array indexing (out-of-bounds panics).
    Index,
}

impl SourceKind {
    /// Human label used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            SourceKind::PanicMacro => "panic-family macro",
            SourceKind::Unwrap => "`.unwrap()`",
            SourceKind::Expect => "`.expect()`",
            SourceKind::Index => "`[…]` indexing",
        }
    }
}

/// One panic source site.
#[derive(Debug, Clone, Copy)]
pub struct PanicSource {
    /// What kind of source.
    pub kind: SourceKind,
    /// 0-based line.
    pub line: usize,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Called function or method name.
    pub name: String,
    /// `Some(Type)` for `Type::name(…)` qualified calls.
    pub owner: Option<String>,
    /// `true` for `.name(…)` method-syntax calls (receiver type unknown).
    pub method: bool,
    /// 0-based line.
    pub line: usize,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` block's type name, if any.
    pub owner: Option<String>,
    /// Whether the enclosing impl is `impl Trait for Type`.
    pub trait_impl: bool,
    /// Declared inside a `trait { … }` body.
    pub in_trait: bool,
    /// Visibility.
    pub vis: Vis,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// 0-based inclusive body line span (`None` for bodyless decls).
    pub body: Option<(usize, usize)>,
    /// Whether the doc comment has a `# Panics` section.
    pub doc_panics: bool,
    /// Declared at file scope (not in a mod/impl/trait/fn).
    pub top_level: bool,
    /// Call sites in the body.
    pub calls: Vec<Call>,
    /// Panic sources in the body.
    pub sources: Vec<PanicSource>,
}

/// Kinds of type items tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeKind {
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `trait`.
    Trait,
}

/// One enum variant.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Variant name.
    pub name: String,
    /// 0-based declaration line.
    pub line: usize,
    /// Field names of a struct variant (`Done { worker, task, … }`).
    pub field_names: Vec<String>,
    /// Every identifier in the variant declaration (field names + types).
    pub idents: Vec<String>,
}

/// One `struct` / `enum` / `trait` item.
#[derive(Debug, Clone)]
pub struct TypeItem {
    /// Which kind of item.
    pub kind: TypeKind,
    /// Type name.
    pub name: String,
    /// Visibility.
    pub vis: Vis,
    /// 0-based declaration line.
    pub line: usize,
    /// Enum variants (empty for structs/traits).
    pub variants: Vec<Variant>,
}

/// The parsed view of one source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Every `fn` item, in declaration order.
    pub fns: Vec<FnItem>,
    /// Every `struct`/`enum`/`trait` item.
    pub types: Vec<TypeItem>,
    /// `fcma_*` crate path references: (crate ident, 0-based line).
    pub crate_refs: Vec<(String, usize)>,
}

/// Macros whose invocation is a panic source.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that can be followed by `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "in", "as",
    "let", "mut", "ref", "move", "where", "fn", "pub", "use", "mod", "struct", "enum", "trait",
    "impl", "type", "const", "static", "crate", "super", "self", "Self", "dyn", "unsafe", "box",
    "true", "false", "await", "async", "yield",
];

/// One lexical token: an identifier or a punctuation character.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    P(char),
}

/// Tokenize the scrubbed code view; returns (token, 0-based line) pairs.
fn tokenize(scan: &Scanned) -> Vec<(Tok, usize)> {
    let mut out = Vec::new();
    for (lineno, code) in scan.code_lines.iter().enumerate() {
        let chars: Vec<char> = code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_alphabetic() || c == '_' {
                let mut w = String::new();
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    w.push(chars[i]);
                    i += 1;
                }
                out.push((Tok::Ident(w), lineno));
            } else if c.is_ascii_digit() {
                // Consume numeric literals (so `1f32` never yields `f32`).
                while i < chars.len()
                    && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    i += 1;
                }
            } else if c.is_whitespace() {
                i += 1;
            } else {
                out.push((Tok::P(c), lineno));
                i += 1;
            }
        }
    }
    out
}

/// What an opening `{` is about to introduce.
#[derive(Debug, Clone)]
enum Ctx {
    Mod,
    Impl { type_name: Option<String>, trait_impl: bool },
    Trait,
    Fn { fn_idx: usize },
    Block,
}

/// Parser state machine modes for item headers.
#[derive(Debug, Clone)]
enum Mode {
    Normal,
    /// Between `fn name` and its body `{` / terminating `;`.
    FnHeader {
        fn_idx: usize,
        parens: i32,
        brackets: i32,
    },
    /// Between `impl` and its body `{`.
    ImplHeader {
        angle: i32,
        type_name: Option<String>,
        trait_impl: bool,
    },
    /// Between `trait Name` and its `{`.
    TraitHeader,
}

struct Parser<'a> {
    toks: &'a [(Tok, usize)],
    i: usize,
    scan: &'a Scanned,
    out: ParsedFile,
    /// Context per open brace.
    stack: Vec<Ctx>,
    /// Indices into `out.fns` for every open fn body, innermost last.
    fn_stack: Vec<usize>,
    mode: Mode,
    pending_vis: Vis,
}

impl<'a> Parser<'a> {
    fn peek(&self, off: usize) -> Option<&Tok> {
        self.toks.get(self.i + off).map(|(t, _)| t)
    }

    fn peek_line(&self, off: usize) -> usize {
        self.toks.get(self.i + off).map_or(0, |&(_, l)| l)
    }

    /// Innermost enclosing impl context, if the direct item parent is one.
    fn impl_ctx(&self) -> Option<(Option<String>, bool)> {
        match self.stack.last() {
            Some(Ctx::Impl { type_name, trait_impl }) => Some((type_name.clone(), *trait_impl)),
            _ => None,
        }
    }

    fn in_trait_body(&self) -> bool {
        matches!(self.stack.last(), Some(Ctx::Trait))
    }

    /// Does the doc comment block directly above 0-based `line` contain a
    /// `# Panics` section? Attribute lines and plain `//` comments
    /// between docs and item are skipped — rustc attaches doc comments
    /// across both, so the audit must too (this is what lets an
    /// `// audit: allow(...)` marker sit between the docs and the decl
    /// without severing the `# Panics` contract).
    fn doc_has_panics(&self, line: usize) -> bool {
        let mut l = line;
        while l > 0 {
            l -= 1;
            let t = self.scan.raw_lines[l].trim_start();
            if t.starts_with("#[") || t.starts_with("#![") {
                continue;
            }
            if let Some(rest) = t.strip_prefix("///") {
                if rest.trim().starts_with("# Panics") {
                    return true;
                }
                continue;
            }
            if t.starts_with("//") && !t.starts_with("//!") {
                continue;
            }
            return false;
        }
        false
    }

    fn take_vis(&mut self) -> Vis {
        std::mem::replace(&mut self.pending_vis, Vis::Private)
    }

    /// Skip a balanced token group starting at the opening delimiter at
    /// `self.i` (one of `(`/`[`/`{`); leaves `self.i` past the closer.
    fn skip_balanced(&mut self, open: char, close: char) {
        debug_assert_eq!(self.peek(0), Some(&Tok::P(open)));
        let mut depth = 0i32;
        while self.i < self.toks.len() {
            match &self.toks[self.i].0 {
                Tok::P(c) if *c == open => depth += 1,
                Tok::P(c) if *c == close => {
                    depth -= 1;
                    if depth == 0 {
                        self.i += 1;
                        return;
                    }
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    /// Skip a generic parameter list `<…>` if one starts at `self.i`.
    fn skip_generics(&mut self) {
        if self.peek(0) != Some(&Tok::P('<')) {
            return;
        }
        let mut depth = 0i32;
        while self.i < self.toks.len() {
            match &self.toks[self.i].0 {
                Tok::P('<') => depth += 1,
                Tok::P('>') => {
                    depth -= 1;
                    if depth == 0 {
                        self.i += 1;
                        return;
                    }
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    /// Record a call or panic source in the innermost open fn, if any.
    fn in_fn(&mut self) -> Option<&mut FnItem> {
        let idx = *self.fn_stack.last()?;
        self.out.fns.get_mut(idx)
    }

    fn run(mut self) -> ParsedFile {
        while self.i < self.toks.len() {
            match &self.mode {
                Mode::Normal => self.step_normal(),
                Mode::FnHeader { .. } => self.step_fn_header(),
                Mode::ImplHeader { .. } => self.step_impl_header(),
                Mode::TraitHeader => self.step_trait_header(),
            }
        }
        self.out
    }

    fn step_fn_header(&mut self) {
        let Mode::FnHeader { fn_idx, mut parens, mut brackets } = self.mode.clone() else {
            return;
        };
        let (tok, line) = &self.toks[self.i];
        match tok {
            Tok::P('(') => parens += 1,
            Tok::P(')') => parens -= 1,
            Tok::P('[') => brackets += 1,
            Tok::P(']') => brackets -= 1,
            Tok::P('{') if parens == 0 && brackets == 0 => {
                self.out.fns[fn_idx].body = Some((*line, *line));
                self.stack.push(Ctx::Fn { fn_idx });
                self.fn_stack.push(fn_idx);
                self.mode = Mode::Normal;
                self.i += 1;
                return;
            }
            Tok::P(';') if parens == 0 && brackets == 0 => {
                self.mode = Mode::Normal;
                self.i += 1;
                return;
            }
            Tok::Ident(w) => self.note_crate_ref(w, *line),
            _ => {}
        }
        self.mode = Mode::FnHeader { fn_idx, parens, brackets };
        self.i += 1;
    }

    fn step_impl_header(&mut self) {
        let Mode::ImplHeader { mut angle, mut type_name, mut trait_impl } = self.mode.clone()
        else {
            return;
        };
        let (tok, line) = &self.toks[self.i];
        match tok {
            Tok::P('<') => angle += 1,
            Tok::P('>') => angle = (angle - 1).max(0), // `->` in `impl Fn() -> T`
            Tok::P('{') => {
                self.stack.push(Ctx::Impl { type_name, trait_impl });
                self.mode = Mode::Normal;
                self.i += 1;
                return;
            }
            Tok::Ident(w) if angle == 0 => {
                self.note_crate_ref(w, *line);
                if w == "for" {
                    trait_impl = true;
                    type_name = None;
                } else if type_name.is_none() && w != "dyn" {
                    type_name = Some(w.clone());
                }
            }
            Tok::Ident(w) => self.note_crate_ref(w, *line),
            _ => {}
        }
        self.mode = Mode::ImplHeader { angle, type_name, trait_impl };
        self.i += 1;
    }

    fn step_trait_header(&mut self) {
        match &self.toks[self.i].0 {
            Tok::P('{') => {
                self.stack.push(Ctx::Trait);
                self.mode = Mode::Normal;
            }
            Tok::P(';') => self.mode = Mode::Normal, // `trait Alias = …;`
            _ => {}
        }
        self.i += 1;
    }

    /// Record `fcma_*` crate references (`fcma_x::…` paths and
    /// `use fcma_x…`).
    fn note_crate_ref(&mut self, w: &str, line: usize) {
        if w.starts_with("fcma_") && self.peek(1) == Some(&Tok::P(':')) {
            self.out.crate_refs.push((w.to_owned(), line));
        }
    }

    fn step_normal(&mut self) {
        let (tok, line) = self.toks[self.i].clone();
        match tok {
            Tok::Ident(w) => {
                self.note_crate_ref(&w, line);
                match w.as_str() {
                    "pub" => {
                        self.i += 1;
                        if self.peek(0) == Some(&Tok::P('(')) {
                            self.skip_balanced('(', ')');
                            self.pending_vis = Vis::Scoped;
                        } else {
                            self.pending_vis = Vis::Pub;
                        }
                    }
                    "use" => {
                        self.pending_vis = Vis::Private;
                        // `use fcma_x;` has no `::`, so catch it here.
                        if let Some(Tok::Ident(n)) = self.peek(1) {
                            if n.starts_with("fcma_") {
                                self.out.crate_refs.push((n.clone(), self.peek_line(1)));
                            }
                        }
                        while self.i < self.toks.len() && self.toks[self.i].0 != Tok::P(';') {
                            self.i += 1;
                        }
                        self.i += 1;
                    }
                    "fn" => self.start_fn(line),
                    "struct" => self.start_struct(line),
                    "enum" => self.start_enum(line),
                    "trait" => self.start_trait(line),
                    "mod" => {
                        self.pending_vis = Vis::Private;
                        self.i += 1; // name, then `{` pushes Mod or `;` ends
                        if let Some(Tok::Ident(_)) = self.peek(0) {
                            self.i += 1;
                        }
                        if self.peek(0) == Some(&Tok::P('{')) {
                            self.stack.push(Ctx::Mod);
                            self.i += 1;
                        }
                    }
                    "impl" => {
                        self.pending_vis = Vis::Private;
                        self.mode =
                            Mode::ImplHeader { angle: 0, type_name: None, trait_impl: false };
                        self.i += 1;
                        self.skip_generics();
                    }
                    "macro_rules" => {
                        // `macro_rules! name { … }`: skip the body wholesale.
                        self.pending_vis = Vis::Private;
                        self.i += 1; // `!`
                        if self.peek(0) == Some(&Tok::P('!')) {
                            self.i += 1;
                        }
                        if let Some(Tok::Ident(_)) = self.peek(0) {
                            self.i += 1;
                        }
                        if self.peek(0) == Some(&Tok::P('{')) {
                            self.skip_balanced('{', '}');
                        }
                    }
                    "const" | "static" | "type" => {
                        self.pending_vis = Vis::Private;
                        self.i += 1;
                    }
                    _ => self.expression_ident(&w, line),
                }
            }
            Tok::P('{') => {
                self.stack.push(Ctx::Block);
                self.i += 1;
            }
            Tok::P('}') => {
                if let Some(Ctx::Fn { fn_idx }) = self.stack.pop() {
                    if let Some((start, _)) = self.out.fns[fn_idx].body {
                        self.out.fns[fn_idx].body = Some((start, line));
                    }
                    self.fn_stack.pop();
                }
                self.i += 1;
            }
            Tok::P('[') => {
                // Indexing: `[` directly after an expression tail.
                if self.fn_stack.last().is_some() && self.prev_is_expression_tail() {
                    let src = PanicSource { kind: SourceKind::Index, line };
                    if let Some(f) = self.in_fn() {
                        f.sources.push(src);
                    }
                }
                self.i += 1;
            }
            Tok::P(_) => self.i += 1,
        }
    }

    /// Is the token before `self.i` something an index expression can
    /// follow: a non-keyword identifier, `)`, or `]`?
    fn prev_is_expression_tail(&self) -> bool {
        let Some((tok, _)) = self.toks.get(self.i.wrapping_sub(1)) else {
            return false;
        };
        match tok {
            Tok::Ident(w) => !NON_CALL_KEYWORDS.contains(&w.as_str()),
            Tok::P(')') | Tok::P(']') => true,
            _ => false,
        }
    }

    /// Handle an ordinary identifier inside expressions: calls, method
    /// calls, and panic-macro sources.
    fn expression_ident(&mut self, w: &str, line: usize) {
        if self.fn_stack.is_empty() {
            self.i += 1;
            return;
        }
        let prev = if self.i > 0 { Some(&self.toks[self.i - 1].0) } else { None };
        let after_dot = prev == Some(&Tok::P('.'));
        // Qualifier: the identifier before a leading `::`.
        let qualifier = if self.i >= 2
            && prev == Some(&Tok::P(':'))
            && self.toks[self.i - 2].0 == Tok::P(':')
        {
            match self.toks.get(self.i.wrapping_sub(3)).map(|(t, _)| t) {
                Some(Tok::Ident(q)) => Some(q.clone()),
                _ => None,
            }
        } else {
            None
        };

        // Macro invocation?
        if self.peek(1) == Some(&Tok::P('!')) {
            if PANIC_MACROS.contains(&w) {
                let src = PanicSource { kind: SourceKind::PanicMacro, line };
                if let Some(f) = self.in_fn() {
                    f.sources.push(src);
                }
            }
            self.i += 2;
            return;
        }

        // Look past a turbofish: `ident::<…>(…)`.
        let mut call_off = 1usize;
        if self.peek(1) == Some(&Tok::P(':'))
            && self.peek(2) == Some(&Tok::P(':'))
            && self.peek(3) == Some(&Tok::P('<'))
        {
            let mut depth = 0i32;
            let mut j = self.i + 3;
            while j < self.toks.len() {
                match &self.toks[j].0 {
                    Tok::P('<') => depth += 1,
                    Tok::P('>') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            call_off = j + 1 - self.i;
        }

        if self.toks.get(self.i + call_off).map(|(t, _)| t) == Some(&Tok::P('(')) {
            if after_dot {
                let src_kind = match w {
                    "unwrap" => Some(SourceKind::Unwrap),
                    "expect" => Some(SourceKind::Expect),
                    _ => None,
                };
                if let Some(kind) = src_kind {
                    if let Some(f) = self.in_fn() {
                        f.sources.push(PanicSource { kind, line });
                    }
                } else if let Some(f) = self.in_fn() {
                    f.calls.push(Call { name: w.to_owned(), owner: None, method: true, line });
                }
            } else if !NON_CALL_KEYWORDS.contains(&w) {
                // Free or qualified call. An uppercase qualifier is a type
                // (`Mat::zeros`, `Self::helper`); a lowercase one is a
                // module path.
                let owner = qualifier.filter(|q| q.chars().next().is_some_and(char::is_uppercase));
                let call = Call { name: w.to_owned(), owner, method: false, line };
                if let Some(f) = self.in_fn() {
                    f.calls.push(call);
                }
            }
        }
        self.i += 1;
    }

    fn start_fn(&mut self, line: usize) {
        let vis = self.take_vis();
        self.i += 1;
        let name = match self.peek(0) {
            Some(Tok::Ident(n)) => n.clone(),
            _ => {
                return;
            }
        };
        self.i += 1;
        let (owner, trait_impl) = self.impl_ctx().unwrap_or((None, false));
        let item = FnItem {
            name,
            owner,
            trait_impl,
            in_trait: self.in_trait_body(),
            vis,
            line,
            body: None,
            doc_panics: self.doc_has_panics(line),
            top_level: self.stack.is_empty(),
            calls: Vec::new(),
            sources: Vec::new(),
        };
        self.out.fns.push(item);
        let fn_idx = self.out.fns.len() - 1;
        self.mode = Mode::FnHeader { fn_idx, parens: 0, brackets: 0 };
    }

    fn start_struct(&mut self, line: usize) {
        let vis = self.take_vis();
        self.i += 1;
        let Some(Tok::Ident(name)) = self.peek(0).cloned() else {
            return;
        };
        self.i += 1;
        self.out.types.push(TypeItem {
            kind: TypeKind::Struct,
            name,
            vis,
            line,
            variants: Vec::new(),
        });
        self.skip_generics();
        // Skip the body: `{…}`, `(…);`, or a bare `;`.
        loop {
            match self.peek(0) {
                Some(Tok::P('{')) => {
                    self.skip_balanced('{', '}');
                    return;
                }
                Some(Tok::P('(')) => self.skip_balanced('(', ')'),
                Some(Tok::P(';')) => {
                    self.i += 1;
                    return;
                }
                Some(_) => self.i += 1,
                None => return,
            }
        }
    }

    fn start_trait(&mut self, line: usize) {
        let vis = self.take_vis();
        self.i += 1;
        let Some(Tok::Ident(name)) = self.peek(0).cloned() else {
            return;
        };
        self.i += 1;
        self.out.types.push(TypeItem {
            kind: TypeKind::Trait,
            name,
            vis,
            line,
            variants: Vec::new(),
        });
        self.mode = Mode::TraitHeader;
    }

    fn start_enum(&mut self, line: usize) {
        let vis = self.take_vis();
        self.i += 1;
        let Some(Tok::Ident(name)) = self.peek(0).cloned() else {
            return;
        };
        self.i += 1;
        self.skip_generics();
        // Skip `where` clauses up to the body.
        while self.i < self.toks.len() && self.peek(0) != Some(&Tok::P('{')) {
            self.i += 1;
        }
        let body_start = self.i;
        if self.peek(0) == Some(&Tok::P('{')) {
            self.skip_balanced('{', '}');
        }
        let variants = parse_variants(&self.toks[body_start..self.i]);
        self.out.types.push(TypeItem { kind: TypeKind::Enum, name, vis, line, variants });
    }
}

/// Parse the variants out of an enum body token slice (`{ … }`
/// inclusive).
fn parse_variants(toks: &[(Tok, usize)]) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].0 {
            Tok::P('{') | Tok::P('(') | Tok::P('[') => depth += 1,
            Tok::P('}') | Tok::P(')') | Tok::P(']') => depth -= 1,
            Tok::Ident(w) if depth == 1 => {
                // A variant name at body depth. Collect its payload.
                let mut v = Variant {
                    name: w.clone(),
                    line: toks[i].1,
                    field_names: Vec::new(),
                    idents: Vec::new(),
                };
                let mut j = i + 1;
                let mut payload_depth = 0i32;
                while j < toks.len() {
                    match &toks[j].0 {
                        Tok::P('{') | Tok::P('(') | Tok::P('[') | Tok::P('<') => {
                            payload_depth += 1;
                        }
                        Tok::P('}') | Tok::P(')') | Tok::P(']') | Tok::P('>') => {
                            if payload_depth == 0 {
                                break; // end of enum body
                            }
                            payload_depth -= 1;
                        }
                        Tok::P(',') if payload_depth == 0 => break,
                        Tok::Ident(id) => {
                            v.idents.push(id.clone());
                            // `name:` at struct-variant field depth.
                            if payload_depth == 1
                                && toks.get(j + 1).map(|(t, _)| t) == Some(&Tok::P(':'))
                                && toks.get(j + 2).map(|(t, _)| t) != Some(&Tok::P(':'))
                            {
                                v.field_names.push(id.clone());
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                variants.push(v);
                i = j;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    variants
}

/// Parse one scrubbed file into its item model.
pub fn parse(scan: &Scanned) -> ParsedFile {
    let toks = tokenize(scan);
    Parser {
        toks: &toks,
        i: 0,
        scan,
        out: ParsedFile::default(),
        stack: Vec::new(),
        fn_stack: Vec::new(),
        mode: Mode::Normal,
        pending_vis: Vis::Private,
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn parsed(src: &str) -> ParsedFile {
        parse(&scan(src))
    }

    #[test]
    fn free_fns_with_visibility_and_docs() {
        let p = parsed(
            "/// Frobs.\n///\n/// # Panics\n/// When sad.\npub fn frob() {}\n\
             pub(crate) fn scoped() {}\nfn private() {}\n",
        );
        assert_eq!(p.fns.len(), 3);
        assert_eq!(p.fns[0].name, "frob");
        assert_eq!(p.fns[0].vis, Vis::Pub);
        assert!(p.fns[0].doc_panics);
        assert!(p.fns[0].top_level);
        assert_eq!(p.fns[1].vis, Vis::Scoped);
        assert!(!p.fns[1].doc_panics);
        assert_eq!(p.fns[2].vis, Vis::Private);
    }

    #[test]
    fn panics_doc_survives_attrs_and_plain_comments_but_not_module_docs() {
        // rustc attaches doc comments to the next item across attributes
        // and plain `//` trivia — in particular an audit allow marker
        // between the docs and the decl must not sever the `# Panics`
        // contract.
        let p = parsed(
            "/// # Panics\n/// Always.\n#[inline]\n// audit: allow(deadpub) — kept\npub fn a() {}\n",
        );
        assert!(p.fns[0].doc_panics, "attrs + plain comment must not sever the doc");

        let q = parsed("/// # Panics\n//! stray module doc\npub fn b() {}\n");
        assert!(!q.fns[0].doc_panics, "`//!` is not trivia; the doc block is severed");
    }

    #[test]
    fn impl_methods_carry_owner_and_trait_flag() {
        let p = parsed(
            "struct Mat;\nimpl Mat {\n    pub fn zeros() {}\n}\n\
             impl std::fmt::Display for Mat {\n    fn fmt(&self) {}\n}\n\
             impl<'a, T: Clone> Wrapper<'a, T> {\n    fn tick(&self) {}\n}\n",
        );
        let zeros = p.fns.iter().find(|f| f.name == "zeros").unwrap();
        assert_eq!(zeros.owner.as_deref(), Some("Mat"));
        assert!(!zeros.trait_impl);
        assert!(!zeros.top_level);
        let fmt = p.fns.iter().find(|f| f.name == "fmt").unwrap();
        assert_eq!(fmt.owner.as_deref(), Some("Mat"));
        assert!(fmt.trait_impl);
        let tick = p.fns.iter().find(|f| f.name == "tick").unwrap();
        assert_eq!(tick.owner.as_deref(), Some("Wrapper"));
        assert!(!tick.trait_impl);
    }

    #[test]
    fn trait_decl_fns_are_marked() {
        let p = parsed("pub trait Exec {\n    fn run(&self);\n    fn helper(&self) {}\n}\n");
        assert_eq!(p.types.len(), 1);
        assert_eq!(p.types[0].kind, TypeKind::Trait);
        let run = p.fns.iter().find(|f| f.name == "run").unwrap();
        assert!(run.in_trait);
        assert!(run.body.is_none());
        let helper = p.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(helper.in_trait);
        assert!(helper.body.is_some());
    }

    #[test]
    fn calls_free_qualified_and_method() {
        let p = parsed(
            "fn f() {\n    helper();\n    Mat::zeros(3);\n    module::free_fn();\n    \
             x.normalize();\n    v.iter().collect::<Vec<_>>();\n}\n",
        );
        let f = &p.fns[0];
        let call = |n: &str| f.calls.iter().find(|c| c.name == n).unwrap();
        assert!(call("helper").owner.is_none() && !call("helper").method);
        assert_eq!(call("zeros").owner.as_deref(), Some("Mat"));
        assert!(call("free_fn").owner.is_none(), "module path is not a type owner");
        assert!(call("normalize").method);
        assert!(call("collect").method, "turbofish method call is still a call");
    }

    #[test]
    fn panic_sources_detected() {
        let p = parsed(
            "fn f(o: Option<u8>, v: &[u8], i: usize) -> u8 {\n    if i > 9 { panic!(\"no\"); }\n    \
             let a = v[i];\n    let b = o.unwrap();\n    let c = o.expect(\"set\");\n    \
             a + b + c\n}\n",
        );
        let kinds: Vec<SourceKind> = p.fns[0].sources.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![SourceKind::PanicMacro, SourceKind::Index, SourceKind::Unwrap, SourceKind::Expect]
        );
    }

    #[test]
    fn indexing_is_not_confused_with_attrs_macros_or_types() {
        let p = parsed(
            "#[derive(Debug)]\nstruct S;\nfn f(n: usize) -> Vec<u8> {\n    let v = vec![0u8; n];\n    \
             let t: [u8; 2] = [1, 2];\n    let _ = t;\n    v\n}\n",
        );
        assert!(p.fns[0].sources.is_empty(), "{:?}", p.fns[0].sources);
        let q = parsed("fn g(v: &[u8]) -> u8 {\n    (v)[0] + v[1]\n}\n");
        assert_eq!(q.fns[0].sources.len(), 2);
    }

    #[test]
    fn unwrap_or_variants_are_calls_not_sources() {
        let p = parsed("fn f(o: Option<u8>) -> u8 {\n    o.unwrap_or(3)\n}\n");
        assert!(p.fns[0].sources.is_empty());
        assert!(p.fns[0].calls.iter().any(|c| c.name == "unwrap_or"));
    }

    #[test]
    fn assert_macros_are_not_panic_sources() {
        let p = parsed("fn f(a: u8) {\n    assert!(a > 0);\n    debug_assert_eq!(a, a);\n}\n");
        assert!(p.fns[0].sources.is_empty());
    }

    #[test]
    fn enum_variants_with_fields() {
        let p = parsed(
            "pub enum FromWorker {\n    Ready { worker: usize },\n    \
             Done { worker: usize, task: VoxelTask, scores: Vec<VoxelScore> },\n    \
             Task(VoxelTask),\n    Shutdown,\n}\n",
        );
        let e = &p.types[0];
        assert_eq!(e.kind, TypeKind::Enum);
        let names: Vec<&str> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["Ready", "Done", "Task", "Shutdown"]);
        let done = &e.variants[1];
        assert_eq!(done.field_names, vec!["worker", "task", "scores"]);
        assert!(done.idents.contains(&"VoxelScore".to_owned()));
        let task = &e.variants[2];
        assert!(task.field_names.is_empty());
        assert!(task.idents.contains(&"VoxelTask".to_owned()));
    }

    #[test]
    fn crate_refs_found_in_use_and_inline_paths() {
        let p = parsed(
            "use fcma_core::TaskContext;\nuse fcma_trace;\n\
             fn f() {\n    let _ = fcma_linalg::Mat::zeros(1, 1);\n}\n",
        );
        let crates: Vec<&str> = p.crate_refs.iter().map(|(c, _)| c.as_str()).collect();
        assert!(crates.contains(&"fcma_core"));
        assert!(crates.contains(&"fcma_trace"));
        assert!(crates.contains(&"fcma_linalg"));
    }

    #[test]
    fn fn_body_spans_and_nesting() {
        let p = parsed(
            "pub fn outer() {\n    inner();\n    fn inner() {\n        helper();\n    }\n}\n",
        );
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        assert_eq!(outer.body, Some((0, 5)));
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(inner.calls.iter().any(|c| c.name == "helper"));
        assert!(!outer.calls.iter().any(|c| c.name == "helper"), "nested body not merged");
    }

    #[test]
    fn macro_rules_bodies_are_opaque() {
        let p = parsed(
            "macro_rules! m {\n    ($x:expr) => { $x.unwrap() };\n}\n\
             fn f() {\n    clean();\n}\n",
        );
        assert_eq!(p.fns.len(), 1);
        assert!(p.fns[0].sources.is_empty());
    }

    #[test]
    fn struct_bodies_do_not_leak_items() {
        let p = parsed(
            "pub struct Config {\n    pub retry: usize,\n    pub deadline: Option<Duration>,\n}\n\
             pub struct Tuple(pub usize);\nfn after() {}\n",
        );
        assert_eq!(p.types.len(), 2);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "after");
        assert!(p.fns[0].top_level);
    }

    #[test]
    fn multiline_signatures_and_where_clauses() {
        let p = parsed(
            "pub fn long<T>(\n    a: usize,\n    b: [u8; 4],\n) -> Option<T>\nwhere\n    \
             T: Clone,\n{\n    None\n}\n",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "long");
        assert_eq!(p.fns[0].body, Some((6, 8)));
        assert!(p.fns[0].sources.is_empty(), "array type in signature is not indexing");
    }
}
