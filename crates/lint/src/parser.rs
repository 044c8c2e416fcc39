//! A lightweight recursive-descent item/function parser on top of the
//! lexer: just enough structure for whole-program analysis.
//!
//! Out of the token stream this recovers, per file:
//!
//! - every `fn` definition, with its name, the self type of the
//!   enclosing `impl` block (if any), its body token range, whether it
//!   sits in a `#[cfg(test)]` region, and whether it carries the
//!   `// lint: hot-path` marker;
//! - every call expression inside live (non-test) bodies — free calls
//!   (`helper(…)`), qualified calls (`Type::method(…)`,
//!   `module::helper(…)`, `Self::helper(…)`) and method calls
//!   (`recv.method(…)`), the last with the receiver's type where the
//!   file spells it out ([`CallSite::receiver`]) — `self` is the
//!   enclosing impl's type.
//!
//! This is deliberately *not* a full Rust parser: generics are skipped
//! as balanced `<…>` groups, macros are opaque, and closures attribute
//! their calls to the enclosing named fn (which is the conservative
//! choice for reachability). Known precision limits are documented in
//! DESIGN.md §8.

use crate::lexer::{Tok, TokKind};
use crate::lockorder;
use crate::model::FileModel;

/// One `fn` definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The fn's name.
    pub name: String,
    /// Self type of the enclosing `impl` block (`impl Foo`,
    /// `impl Trait for Foo` → `Foo`), or `None` for free fns.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Body token range (exclusive of the braces), or `None` for
    /// body-less declarations (trait methods, extern decls).
    pub body: Option<(usize, usize)>,
    /// True if the first parameter is (some form of) `self`.
    pub has_self: bool,
    /// Number of non-`self` parameters.
    pub params: usize,
    /// True if the enclosing `impl` block implements a trait
    /// (`impl Trait for Foo`): callers may reach the fn through the
    /// trait without being able to name `Foo`.
    pub in_trait_impl: bool,
    /// True for a plain `pub fn` — the only visibility another crate can
    /// call (`pub(crate)`, `pub(super)` and private fns stay home).
    pub is_pub: bool,
    /// True if the fn sits inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// True if a `// lint: hot-path` marker annotates this fn.
    pub is_hot_path: bool,
}

/// How a call site names its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(…)` — a free (unqualified) call.
    Free,
    /// `Qual::name(…)` — qualified by a type or module path segment.
    Qualified,
    /// `recv.name(…)` — a method call.
    Method,
}

/// One call expression inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (`helper`, `tick`, …).
    pub name: String,
    /// The last path segment before `::` for [`CallKind::Qualified`]
    /// calls (`Machine` in `Machine::tick(…)`), else `None`.
    pub qualifier: Option<String>,
    /// Call shape.
    pub kind: CallKind,
    /// 1-based line of the called name.
    pub line: usize,
    /// Token index of the called name.
    pub tok: usize,
    /// Argument count, or `None` when the argument list contains tokens
    /// that defeat comma counting (closures, comparisons, turbofish) —
    /// resolution must then fall back to name-only matching.
    pub args: Option<usize>,
    /// Index (into [`ParsedFile::fns`]) of the innermost enclosing fn.
    pub caller: usize,
    /// For a [`CallKind::Method`] call, the last path segment of the
    /// receiver's type (`String`, `VecDeque`, `Queue`) where the file
    /// spells it out — a typed parameter, a `let` with a type or a
    /// constructor / `self.field` initializer, a `self.field` — seen
    /// through `&`, `Arc`, guards of `.lock()`-family calls and
    /// `.iter()` (see `Types::expr`); else `None`.
    pub receiver: Option<String>,
}

/// Parser output for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All fn definitions, in source order.
    pub fns: Vec<FnDef>,
    /// All call sites inside live (non-test) fn bodies.
    pub calls: Vec<CallSite>,
}

impl ParsedFile {
    /// Index of the innermost fn whose body contains token `tok`, or
    /// `None` for file-level tokens (consts, statics, use items).
    pub fn enclosing_fn(&self, tok: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (span, idx)
        for (i, f) in self.fns.iter().enumerate() {
            if let Some((s, e)) = f.body {
                if tok >= s && tok < e {
                    let span = e - s;
                    let better = match best {
                        Some((bs, _)) => span < bs,
                        None => true,
                    };
                    if better {
                        best = Some((span, i));
                    }
                }
            }
        }
        best.map(|(_, i)| i)
    }
}

/// Keywords that look like `ident (` but are not calls.
const NOT_CALLS: [&str; 34] = [
    "if", "else", "while", "match", "for", "in", "loop", "return", "break", "continue", "let",
    "fn", "impl", "use", "pub", "mod", "as", "move", "ref", "mut", "unsafe", "dyn", "where",
    "struct", "enum", "trait", "type", "const", "static", "crate", "super", "self", "Self",
    "await",
];

/// Parses the file model into fn definitions and call sites.
pub fn parse(model: &FileModel) -> ParsedFile {
    let toks = &model.toks;
    let impls = impl_blocks(toks);
    let mut out = ParsedFile::default();

    // Pass 1: fn definitions.
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            // `fn(` is a function-pointer *type*, not a definition.
            let Some(name_tok) = toks.get(i + 1) else {
                break;
            };
            if name_tok.kind == TokKind::Ident {
                let body = fn_body(toks, i);
                let enclosing = impls
                    .iter()
                    .filter(|b| i >= b.body.0 && i < b.body.1)
                    .min_by_key(|b| b.body.1 - b.body.0);
                let (has_self, params) = fn_params(toks, i);
                out.fns.push(FnDef {
                    name: name_tok.text.clone(),
                    impl_type: enclosing.map(|b| b.self_type.clone()),
                    in_trait_impl: enclosing.is_some_and(|b| b.for_trait),
                    is_pub: is_plain_pub(toks, i),
                    line: toks[i].line,
                    fn_tok: i,
                    body,
                    has_self,
                    params,
                    is_test: model.in_test(i),
                    is_hot_path: false,
                });
                // Continue scanning *inside* the body too: nested fns
                // are definitions of their own.
            }
        }
        i += 1;
    }

    // Hot-path markers annotate the first fn starting below them.
    for &marker in &model.hot_path_lines {
        if let Some(f) = out
            .fns
            .iter_mut()
            .filter(|f| f.line > marker)
            .min_by_key(|f| f.line)
        {
            f.is_hot_path = true;
        }
    }

    // Pass 2: call sites in live code, attributed to the innermost
    // enclosing fn (test code calls nothing the passes start from).
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || NOT_CALLS.contains(&toks[i].text.as_str()) {
            continue;
        }
        // `fn name(` is a definition, not a call.
        if i >= 1 && toks[i - 1].is_ident("fn") {
            continue;
        }
        // The name must be followed by `(`, optionally through a
        // turbofish `::<…>`.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct(':'))
            && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(j + 2).is_some_and(|t| t.is_punct('<'))
        {
            j = skip_angles(toks, j + 2);
        }
        if !toks.get(j).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let Some(caller) = out.enclosing_fn(i).filter(|_| !model.in_test(i)) else {
            continue;
        };
        let (kind, qualifier) = classify_call(toks, i);
        out.calls.push(CallSite {
            name: toks[i].text.clone(),
            qualifier,
            kind,
            line: toks[i].line,
            tok: i,
            args: call_args(toks, j),
            caller,
            receiver: None,
        });
    }

    // Pass 3: receiver types of dotted calls in live code.
    let cx = Types {
        toks,
        depth: &model.depth,
        binders: binders(toks, &model.depth),
        fields: struct_fields(model),
    };
    for c in out.calls.iter_mut().filter(|c| c.kind == CallKind::Method) {
        let f = &out.fns[c.caller];
        c.receiver = cx
            .expr(f, c.tok.saturating_sub(2))
            .and_then(|(ty, _)| cx.name(f, ty));
    }
    out
}

/// Std types, locks included, whose methods no workspace inherent impl
/// can add to (`[]`: slices, arrays, tuples).
pub const STD_TYPES: [&str; 26] = [
    "String", "str", "Vec", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Option",
    "Result", "Mutex", "RwLock", "RefCell", "Cell", "Duration", "[]", "u8", "u32", "u64", "usize",
    "i32", "i64", "f32", "f64", "bool", "char",
];

/// A type: the token index it is written at, or a constructor's name.
#[derive(Clone, Copy)]
enum Ty<'a> {
    At(usize),
    Name(&'a str),
}

/// One file's token stream, read for receiver types.
struct Types<'a> {
    toks: &'a [Tok],
    depth: &'a [usize],
    /// Ascending indexes of the tokens where a pattern can bind a name,
    /// each with the index of the `}` closing its block ([`binders`]).
    binders: Vec<(usize, usize)>,
    /// `(struct, field, index of the field's type)`.
    fields: Vec<(&'a str, &'a str, usize)>,
}

impl<'a> Types<'a> {
    /// The last path segment of the type written at `t`, seen through
    /// `&`, `mut`, lifetimes and `Arc`/`Rc`/`Box`, and the index past it.
    /// `dyn` and `impl` types have none.
    fn head(&self, mut t: usize) -> Option<(&'a str, usize)> {
        let at = |i: usize, c: char| self.toks.get(i).is_some_and(|x| x.is_punct(c));
        loop {
            let tok = self.toks.get(t)?;
            if at(t, '&') || tok.is_ident("mut") || tok.kind == TokKind::Lifetime {
                t += 1;
            } else if at(t, '[') || at(t, '(') {
                return Some(("[]", t + 1));
            } else if tok.kind != TokKind::Ident || tok.is_ident("dyn") || tok.is_ident("impl") {
                return None;
            } else if at(t + 1, ':') && at(t + 2, ':') {
                t += 3;
            } else if ["Arc", "Rc", "Box"].contains(&tok.text.as_str()) && at(t + 1, '<') {
                t += 2;
            } else {
                return Some((&tok.text, t + 1));
            }
        }
    }

    /// The type's name as [`CallSite::receiver`] reports it.
    fn name(&self, f: &FnDef, ty: Ty<'a>) -> Option<String> {
        let name = match ty {
            Ty::At(t) => self.head(t)?.0,
            Ty::Name(n) => n,
        };
        match name {
            "Self" => f.impl_type.clone(),
            _ => Some(name.to_string()),
        }
    }

    /// The type of the expression ending at token `e` inside `f` — a
    /// local, a `self.field` or a constructor, then empty-argument
    /// `.lock()`-family calls on a lock or `.iter()` on a std type — and
    /// the index where the expression starts.
    fn expr(&self, f: &FnDef, mut e: usize) -> Option<(Ty<'a>, usize)> {
        let toks = self.toks;
        let at = |i: usize, c: char| toks.get(i).is_some_and(|x| x.is_punct(c));
        let mut steps = Vec::new();
        let (mut ty, start) = loop {
            let tok = toks.get(e)?;
            let unpoison = e.checked_sub(lockorder::UNPOISON_TOKENS - 1);
            if let Some(s) = unpoison.filter(|&s| lockorder::unpoison_at(toks, s)) {
                // A poison-ignoring unwrap is the guard it unwraps.
                e = s.checked_sub(1)?;
            } else if e >= 3 && at(e, ')') && at(e - 1, '(') && at(e - 3, '.') {
                steps.push(toks[e - 2].text.as_str());
                e = e.checked_sub(4)?;
            } else if at(e, ')') || at(e, ']') {
                // `Type::new(…)`, `format!(…)`, `vec![…]`.
                let open = matching_open(toks, e)?;
                let name = toks.get(open.checked_sub(2)?)?.text.as_str();
                let is_ctor =
                    ["new", "default", "with_capacity"].contains(&toks[open - 1].text.as_str());
                break match name {
                    "format" if at(open - 1, '!') => (Ty::Name("String"), open - 2),
                    "vec" if at(open - 1, '!') => (Ty::Name("Vec"), open - 2),
                    ":" if is_ctor && open >= 4 && toks[open - 4].kind == TokKind::Ident => {
                        (Ty::Name(&toks[open - 4].text), open - 4)
                    }
                    _ => return None,
                };
            } else if tok.kind != TokKind::Ident || e < 2 || at(e - 1, ':') {
                return None;
            } else if at(e - 1, '.') {
                // Only `self.field` is followed to its declaration.
                let owner = f.impl_type.as_deref().filter(|_| {
                    toks[e - 2].is_ident("self") && !(e >= 3 && (at(e - 3, '.') || at(e - 3, ':')))
                })?;
                let field = self
                    .fields
                    .iter()
                    .find(|(s, n, _)| *s == owner && *n == tok.text)?;
                break (Ty::At(field.2), e - 2);
            } else if tok.is_ident("self") {
                break (Ty::Name("Self"), e);
            } else {
                break (self.binding(f, e)?, e);
            }
        };
        for step in steps.iter().rev() {
            let Ty::At(t) = ty else { return None };
            let (head, next) = self.head(t)?;
            ty = if ["Mutex", "RwLock", "RefCell"].contains(&head)
                && ["lock", "read", "write", "borrow", "borrow_mut"].contains(step)
                && at(next, '<')
            {
                Ty::At(next + 1)
            } else if STD_TYPES.contains(&head) && ["iter", "iter_mut"].contains(step) {
                ty
            } else {
                return None;
            };
        }
        Some((ty, start))
    }

    /// The type of the local named at token `r`: its `let` (by type or
    /// initializer) or `f`'s typed parameter. `None` if any other
    /// pattern names it before `r`, if its `let` sits in a block that
    /// has closed, or if `r` is inside that `let`'s initializer.
    fn binding(&self, f: &FnDef, r: usize) -> Option<Ty<'a>> {
        let (toks, depth) = (self.toks, self.depth);
        let name = toks[r].text.as_str();
        let (body, _) = f.body?;
        let before = self.binders.partition_point(|&(k, _)| k < r);
        let mut nearer = self.binders[..before]
            .iter()
            .rev()
            .take_while(|&&(k, _)| k >= body);
        if let Some(&(k, block_end)) = nearer.find(|&&(k, _)| toks[k].text == name) {
            let is_let = toks[k - 1].is_ident("let")
                || toks[k - 1].is_ident("mut") && toks[k - 2].is_ident("let");
            let end = (k..r).find(|&j| depth[j] == depth[k] && toks[j].is_punct(';'))?;
            if !is_let || r >= block_end {
                return None;
            }
            if toks[k + 1].is_punct(':') {
                return Some(Ty::At(k + 2));
            }
            let (ty, start) = self.expr(f, end - 1)?;
            let init = k + 2 + usize::from(toks[k + 2].is_punct('&'));
            return (start == init).then_some(ty);
        }
        (f.fn_tok..body)
            .find(|&k| {
                toks[k].is_ident(name) && toks[k + 1].is_punct(':') && !toks[k + 2].is_punct(':')
            })
            .map(|k| Ty::At(k + 2))
    }
}

/// Index of the `(`/`[` matching the closer at `close`.
fn matching_open(toks: &[Tok], close: usize) -> Option<usize> {
    let mut depth = 0usize;
    for k in (0..=close).rev() {
        if toks[k].is_punct(')') || toks[k].is_punct(']') {
            depth += 1;
        } else if toks[k].is_punct('(') || toks[k].is_punct('[') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// `(struct, field, index of the field's type)` for every named field
/// of every struct declared in the file's live code.
fn struct_fields(model: &FileModel) -> Vec<(&str, &str, usize)> {
    let (toks, depth) = (&model.toks, &model.depth);
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(2) {
        if toks[i].text != "struct" || model.in_test(i) {
            continue;
        }
        let mut j = i + 2;
        if toks[j].is_punct('<') {
            j = skip_angles(toks, j);
        }
        if !toks.get(j).is_some_and(|t| t.is_punct('{')) {
            continue;
        }
        for k in j + 1..toks.len().saturating_sub(2) {
            if depth[k] <= depth[j] {
                break;
            }
            if depth[k] == depth[j] + 1 && toks[k + 1].is_punct(':') && !toks[k + 2].is_punct(':') {
                out.push((toks[i + 1].text.as_str(), toks[k].text.as_str(), k + 2));
            }
        }
    }
    out
}

/// Every identifier where a pattern can bind a name, with the `}`
/// closing its block: in `let … =`,
/// `for … in`, closure parameter lists, fn signatures and match-arm
/// patterns (back to the previous `,` or opening bracket; a
/// block arm before it is marked too, which only costs precision).
fn binders(toks: &[Tok], depth: &[usize]) -> Vec<(usize, usize)> {
    let mut mask = vec![false; toks.len()];
    let is = |t: &Tok, any: &[&str]| any.contains(&t.text.as_str());
    let until = |from: usize, stops: &[&str]| (from..toks.len()).find(|&k| is(&toks[k], stops));
    for i in 1..toks.len() {
        let range = match toks[i].text.as_str() {
            "let" => until(i, &["=", ";"]).map(|e| (i, e)),
            "for" => until(i, &["in", "{"]).map(|e| (i, e)),
            "fn" => until(i, &["{", ";"]).map(|e| (i, e)),
            "|" if is(&toks[i - 1], &["(", ",", "=", "{", ";", "move", "return"]) => {
                until(i + 1, &["|"]).map(|e| (i, e))
            }
            "=" if toks.get(i + 1).is_some_and(|n| n.is_punct('>')) => {
                let (mut nest, mut k) = (0usize, i);
                while let Some(p) = k.checked_sub(1).map(|j| toks[j].text.as_str()) {
                    if [")", "]", "}"].contains(&p) {
                        nest += 1;
                    } else if ["(", "[", "{"].contains(&p) {
                        let Some(n) = nest.checked_sub(1) else { break };
                        nest = n;
                    } else if nest == 0 && (p == "," || p == ";") {
                        break;
                    }
                    k -= 1;
                }
                Some((k, i))
            }
            _ => None,
        };
        if let Some((s, e)) = range {
            mask[s..e].iter_mut().for_each(|m| *m = true);
        }
    }
    // Bindings are snake_case: capitalized idents in these regions are
    // types.
    let binds = |t: &Tok| {
        t.kind == TokKind::Ident && t.text.starts_with(|c: char| c.is_lowercase() || c == '_')
    };
    let mut out: Vec<(usize, usize)> = Vec::new();
    let mut open: Vec<usize> = Vec::new(); // entries of `out` whose block is open
    for (k, t) in toks.iter().enumerate() {
        if t.is_punct('}') {
            while let Some(&o) = open.last().filter(|&&o| depth[out[o].0] > depth[k]) {
                out[o].1 = k;
                open.pop();
            }
        }
        if mask[k] && binds(t) {
            open.push(out.len());
            out.push((k, toks.len()));
        }
    }
    out
}

/// Whether the `fn` keyword at `i` is introduced by an unrestricted `pub`,
/// looking back through `const` / `async` / `unsafe` / `extern "abi"`.
fn is_plain_pub(toks: &[Tok], i: usize) -> bool {
    let qualifier = |t: &Tok| {
        t.kind == TokKind::Str
            || ["const", "async", "unsafe", "extern"]
                .iter()
                .any(|q| t.is_ident(q))
    };
    toks.get(..i)
        .and_then(|before| before.iter().rev().find(|t| !qualifier(t)))
        .is_some_and(|t| t.is_ident("pub"))
}

/// Given `<` at index `open`, returns the index just past the matching
/// `>` (tolerant of unbalanced input).
fn skip_angles(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct('<') {
            depth += 1;
        } else if toks[j].is_punct('>') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        } else if toks[j].is_punct(';') || toks[j].is_punct('{') {
            // Gave up: `<` was a comparison, not generics.
            return open + 1;
        }
        j += 1;
    }
    j
}

/// `(has_self, non-self param count)` of the fn whose `fn` keyword is at
/// `i`, read off its parameter list. Commas are counted at paren depth
/// zero; `<…>` in a parameter list is always generics (no comparison
/// expressions can appear there), so angle groups protect their commas.
fn fn_params(toks: &[Tok], i: usize) -> (bool, usize) {
    let mut j = i + 2; // past `fn name`
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(toks, j);
    }
    if !toks.get(j).is_some_and(|t| t.is_punct('(')) {
        return (false, 0);
    }
    // Leading self: `self`, `&self`, `&'a self`, `&mut self`, `mut self`.
    let mut s = j + 1;
    while toks
        .get(s)
        .is_some_and(|t| t.is_punct('&') || t.kind == TokKind::Lifetime || t.is_ident("mut"))
    {
        s += 1;
    }
    let has_self = toks.get(s).is_some_and(|t| t.is_ident("self"));

    let mut depth = 0usize; // ( [ {
    let mut angles = 0usize;
    let mut commas = 0usize;
    let mut any = false;
    let mut k = j;
    let mut last_comma = false;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_punct('<') {
            angles += 1;
        } else if t.is_punct('>') {
            // `->` (an `fn(…) -> T` parameter type) is not a closer.
            if !(k >= 1 && toks[k - 1].is_punct('-')) {
                angles = angles.saturating_sub(1);
            }
        } else if depth == 1 && angles == 0 {
            if t.is_punct(',') {
                commas += 1;
                last_comma = true;
                k += 1;
                continue;
            }
            any = true;
        }
        last_comma = false;
        k += 1;
    }
    if !any && commas == 0 {
        return (has_self, 0);
    }
    // `(a, b)` → 2 commas+1; `(a, b,)` → trailing comma already counted.
    let mut n = if last_comma { commas } else { commas + 1 };
    if has_self {
        n = n.saturating_sub(1);
    }
    (has_self, n)
}

/// Argument count of the call whose `(` is at `open`, or `None` when the
/// arguments contain closures / comparisons / turbofish (any top-level
/// `|`, `<` or `>`), which defeat naive comma counting.
fn call_args(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut any = false;
    let mut k = open;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1 {
            if t.is_punct('|') || t.is_punct('<') || t.is_punct('>') {
                return None;
            }
            if t.is_punct(',') {
                commas += 1;
            } else {
                any = true;
            }
        } else if depth == 0 {
            return None; // unbalanced input
        }
        k += 1;
    }
    if !any && commas == 0 {
        return Some(0);
    }
    Some(commas + 1)
}

/// Classifies the call whose name token is at `i`.
fn classify_call(toks: &[Tok], i: usize) -> (CallKind, Option<String>) {
    if i >= 1 && toks[i - 1].is_punct('.') {
        return (CallKind::Method, None);
    }
    if i >= 3
        && toks[i - 1].is_punct(':')
        && toks[i - 2].is_punct(':')
        && toks[i - 3].kind == TokKind::Ident
    {
        return (CallKind::Qualified, Some(toks[i - 3].text.clone()));
    }
    (CallKind::Free, None)
}

/// One `impl` block.
struct ImplBlock {
    /// Last path segment of the self type.
    self_type: String,
    /// `impl Trait for Type` rather than an inherent `impl Type`.
    for_trait: bool,
    /// Body token range.
    body: (usize, usize),
}

/// Finds `impl` blocks.
fn impl_blocks(toks: &[Tok]) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // Collect header tokens up to the body `{`, skipping balanced
        // `<…>` generic groups.
        let mut header: Vec<usize> = Vec::new();
        let mut j = i + 1;
        while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
            if toks[j].is_punct('<') {
                j = skip_angles(toks, j);
                continue;
            }
            header.push(j);
            j += 1;
        }
        if j >= toks.len() || toks[j].is_punct(';') {
            i = j + 1;
            continue;
        }
        let ty = self_type(toks, &header);
        // Body range: balanced braces from `j`.
        let start = j + 1;
        let mut braces = 1usize;
        let mut k = start;
        while k < toks.len() && braces > 0 {
            if toks[k].is_punct('{') {
                braces += 1;
            } else if toks[k].is_punct('}') {
                braces -= 1;
            }
            k += 1;
        }
        if let Some(self_type) = ty {
            out.push(ImplBlock {
                self_type,
                for_trait: header.iter().any(|&t| toks[t].is_ident("for")),
                body: (start, k.saturating_sub(1)),
            });
        }
        i = start;
    }
    out
}

/// The self type of an impl header: the last segment of the first type
/// path after the last top-level `for` (`impl Trait for a::Foo` → `Foo`;
/// `impl Foo` → `Foo`).
fn self_type(toks: &[Tok], header: &[usize]) -> Option<String> {
    let start = header
        .iter()
        .rposition(|&t| toks[t].is_ident("for"))
        .map_or(0, |p| p + 1);
    let mut last = None;
    let mut h = start;
    while h < header.len() {
        let t = &toks[header[h]];
        if t.kind == TokKind::Ident {
            if t.is_ident("where") {
                break;
            }
            if !(t.is_ident("mut") || t.is_ident("dyn")) {
                last = Some(t.text.clone());
            }
            // Continue only through `::`.
            if h + 2 < header.len()
                && toks[header[h + 1]].is_punct(':')
                && toks[header[h + 2]].is_punct(':')
            {
                h += 3;
                continue;
            }
            break;
        } else if t.is_punct('&') || t.kind == TokKind::Lifetime {
            h += 1;
        } else {
            break;
        }
    }
    last
}

/// Token range of the `{…}` body of the fn whose `fn` keyword is at `i`
/// (exclusive of the braces), or `None` for body-less declarations.
fn fn_body(toks: &[Tok], i: usize) -> Option<(usize, usize)> {
    let mut j = i + 1;
    // The body `{` is the first `{` outside the parameter parens /
    // generic brackets; a `;` first means a trait method declaration.
    let mut parens = 0i32;
    while j < toks.len() {
        if toks[j].is_punct('(') {
            parens += 1;
        } else if toks[j].is_punct(')') {
            parens -= 1;
        } else if parens == 0 && toks[j].is_punct(';') {
            return None;
        } else if parens == 0 && toks[j].is_punct('{') {
            let mut braces = 1usize;
            let start = j + 1;
            let mut k = start;
            while k < toks.len() && braces > 0 {
                if toks[k].is_punct('{') {
                    braces += 1;
                } else if toks[k].is_punct('}') {
                    braces -= 1;
                }
                k += 1;
            }
            return Some((start, k.saturating_sub(1)));
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&FileModel::build(src))
    }

    #[test]
    fn visibility_and_trait_impls() {
        let p = parse_src(
            "impl Foo { pub fn a(&self) {} pub(crate) fn b(&self) {} fn c(&self) {} \
             pub const unsafe fn d() {} pub extern \"C\" fn e() {} }\n\
             impl Display for Foo { fn fmt(&self) {} }",
        );
        let seen: Vec<(&str, bool, bool)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub, f.in_trait_impl))
            .collect();
        assert_eq!(
            seen,
            [
                ("a", true, false),
                ("b", false, false),
                ("c", false, false),
                ("d", true, false),
                ("e", true, false),
                ("fmt", false, true),
            ]
        );
    }

    #[test]
    fn fns_with_impl_types() {
        let p = parse_src(
            "struct Foo;\n\
             impl Foo { fn a(&self) {} }\n\
             impl std::fmt::Display for Foo { fn fmt(&self) {} }\n\
             fn free() {}",
        );
        let names: Vec<(String, Option<String>)> = p
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("a".into(), Some("Foo".into())),
                ("fmt".into(), Some("Foo".into())),
                ("free".into(), None),
            ]
        );
    }

    #[test]
    fn generic_impl_headers() {
        let p = parse_src("impl<'a, T: Clone> Wrapper<'a, T> { fn get(&self) {} }");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Wrapper"));
        let p = parse_src("impl<T> Iterator for Iter<T> where T: Copy { fn next(&mut self) {} }");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Iter"));
    }

    #[test]
    fn call_kinds() {
        let p = parse_src(
            "impl Foo {\n\
             fn run(&self) {\n\
               self.step();\n\
               helper(1);\n\
               Machine::tick(m);\n\
               Self::init();\n\
               other.observe();\n\
               x.y.finish();\n\
             }\n}",
        );
        let kinds: Vec<(CallKind, &str)> =
            p.calls.iter().map(|c| (c.kind, c.name.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (CallKind::Method, "step"),
                (CallKind::Free, "helper"),
                (CallKind::Qualified, "tick"),
                (CallKind::Qualified, "init"),
                (CallKind::Method, "observe"),
                (CallKind::Method, "finish"),
            ]
        );
        assert_eq!(
            p.calls[0].receiver.as_deref(),
            Some("Foo"),
            "`self` is the impl type"
        );
        assert_eq!(p.calls[2].qualifier.as_deref(), Some("Machine"));
        assert_eq!(p.calls[3].qualifier.as_deref(), Some("Self"));
    }

    #[test]
    fn turbofish_and_macros() {
        let p = parse_src("fn f() { let v = collect::<Vec<u32>>(it); println!(\"x\"); }");
        assert_eq!(p.calls.len(), 1);
        assert_eq!(p.calls[0].name, "collect");
    }

    #[test]
    fn calls_attribute_to_innermost_fn() {
        let p = parse_src("fn outer() { fn inner() { leaf(); } inner(); }");
        let leaf = p.calls.iter().find(|c| c.name == "leaf").expect("leaf");
        assert_eq!(p.fns[leaf.caller].name, "inner");
        let inner_call = p.calls.iter().find(|c| c.name == "inner").expect("inner");
        assert_eq!(p.fns[inner_call.caller].name, "outer");
    }

    #[test]
    fn hot_path_marker_attaches_to_next_fn() {
        let p = parse_src("fn a() {}\n// lint: hot-path\nfn b() {}\nfn c() {}");
        let hot: Vec<&str> = p
            .fns
            .iter()
            .filter(|f| f.is_hot_path)
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(hot, vec!["b"]);
    }

    #[test]
    fn param_and_arg_counts() {
        let p = parse_src(
            "impl M {\n\
             fn tick(&mut self, now: u64, dt: Dur<u64, Tick>, exits: &mut Vec<(u32, u32)>) {}\n\
             fn leaf(&self) {}\n\
             }\n\
             fn free(a: u32, b: fn(u32, u32) -> u32,) -> u32 { a }\n\
             fn caller(m: &M) { m.tick(x, y.z(1, 2), w); m.leaf(); free(1, 2); }",
        );
        let shapes: Vec<(bool, usize)> = p.fns.iter().map(|f| (f.has_self, f.params)).collect();
        assert_eq!(
            shapes,
            vec![(true, 3), (true, 0), (false, 2), (false, 1)],
            "{:?}",
            p.fns
        );
        let tick = p.calls.iter().find(|c| c.name == "tick").expect("tick");
        assert_eq!(tick.args, Some(3), "nested call commas are protected");
        let leaf = p.calls.iter().find(|c| c.name == "leaf").expect("leaf");
        assert_eq!(leaf.args, Some(0));
        let free = p.calls.iter().find(|c| c.name == "free").expect("free");
        assert_eq!(free.args, Some(2));
    }

    #[test]
    fn tricky_arguments_are_unreliable() {
        let p = parse_src("fn f() { g(|a, b| a + b); h(x < y); k(collect::<Vec<u32>>(it), 2); }");
        for name in ["g", "h", "k"] {
            let c = p.calls.iter().find(|c| c.name == name).expect(name);
            assert_eq!(c.args, None, "{name} args must be unreliable");
        }
    }

    #[test]
    fn receiver_types_are_read_where_the_file_spells_them_out() {
        let p = parse_src(
            "struct Q { items: Arc<Mutex<VecDeque<u64>>>, names: Vec<String> }\n\
             impl Q {\n\
             fn f(&self, out: &mut String, s: &Self, v: V) {\n\
               out.push('x');\n\
               let g = self.items.lock(); g.len();\n\
               self.names.iter().count();\n\
               let b = Builder::new(); b.build();\n\
               s.step(); let w = format!(\"x\"); w.len();\n\
               for out in v { out.push(1); }\n\
               { let k: u32 = 1; } k.count();\n\
               v.iter().map(|x| x.len());\n\
               let t = t.get();\n\
             }\n}",
        );
        let seen: Vec<(&str, Option<&str>)> = p
            .calls
            .iter()
            .filter(|c| c.kind == CallKind::Method)
            .map(|c| (c.name.as_str(), c.receiver.as_deref()))
            .collect();
        let want = [
            ("push", Some("String")),   // a typed parameter
            ("lock", Some("Mutex")),    // a field, through `Arc`
            ("len", Some("VecDeque")),  // a `let` of that field's guard
            ("iter", Some("Vec")),      // a field
            ("count", Some("Vec")),     // `.iter()` on a std type
            ("build", Some("Builder")), // a constructor
            ("step", Some("Q")),        // `&Self`
            ("len", Some("String")),    // `format!`
            ("push", None),             // rebound by `for`
            ("count", None),            // its `let` is in a closed block
            ("iter", Some("V")),        // a parameter of any type
            ("map", None),              // not followed past `.iter()`
            ("len", None),              // a closure parameter
            ("get", None),              // inside its own `let`
        ];
        assert_eq!(seen, want);
    }

    #[test]
    fn a_guard_unwrapped_past_poison_keeps_its_type() {
        let p = parse_src(
            "struct Q { items: Mutex<VecDeque<u64>> }\n\
             impl Q {\n\
             fn f(&self) {\n\
               let g = self.items.lock().unwrap_or_else(PoisonError::into_inner); g.len();\n\
               self.items.lock().unwrap_or_else(PoisonError::into_inner).len();\n\
             }\n}",
        );
        let lens: Vec<Option<&str>> = p
            .calls
            .iter()
            .filter(|c| c.name == "len")
            .map(|c| c.receiver.as_deref())
            .collect();
        assert_eq!(lens, [Some("VecDeque"), Some("VecDeque")]);
    }

    #[test]
    fn test_region_fns_are_marked() {
        let p = parse_src("fn live() {}\n#[cfg(test)]\nmod t { fn inside() {} }");
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
    }
}
