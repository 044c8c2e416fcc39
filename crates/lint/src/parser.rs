//! A lightweight recursive-descent item/function parser on top of the
//! lexer: just enough structure for whole-program analysis.
//!
//! Out of the token stream this recovers, per file:
//!
//! - every `fn` definition, with its name, the self type of the
//!   enclosing `impl` block (if any), its body token range, whether it
//!   sits in a `#[cfg(test)]` region, and whether it carries the
//!   `// lint: hot-path` marker;
//! - every call expression inside those bodies — free calls
//!   (`helper(…)`), qualified calls (`Type::method(…)`,
//!   `module::helper(…)`, `Self::helper(…)`) and method calls
//!   (`recv.method(…)`, with `self.method(…)` distinguished so the call
//!   graph can resolve it against the enclosing impl first).
//!
//! This is deliberately *not* a full Rust parser: generics are skipped
//! as balanced `<…>` groups, macros are opaque, and closures attribute
//! their calls to the enclosing named fn (which is the conservative
//! choice for reachability). Known precision limits are documented in
//! DESIGN.md §8.

use crate::lexer::{Tok, TokKind};
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
    /// `recv.name(…)` — a method call on a non-`self` receiver.
    Method,
    /// `self.name(…)` — a method call on `self`.
    SelfMethod,
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
}

/// Parser output for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All fn definitions, in source order.
    pub fns: Vec<FnDef>,
    /// All call sites inside fn bodies.
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
fn is_call_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "while"
            | "match"
            | "for"
            | "in"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "fn"
            | "impl"
            | "use"
            | "pub"
            | "mod"
            | "as"
            | "move"
            | "ref"
            | "mut"
            | "unsafe"
            | "dyn"
            | "where"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "await"
    )
}

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

    // Pass 2: call sites, attributed to the innermost enclosing fn.
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || is_call_keyword(&toks[i].text) {
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
        let Some(caller) = out.enclosing_fn(i) else {
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
        });
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
        // `recv.name(`; `self.name(` only when `self` starts the chain.
        if i >= 2
            && toks[i - 2].is_ident("self")
            && !(i >= 3 && (toks[i - 3].is_punct('.') || toks[i - 3].is_punct(':')))
        {
            return (CallKind::SelfMethod, None);
        }
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
pub fn fn_body(toks: &[Tok], i: usize) -> Option<(usize, usize)> {
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
                (CallKind::SelfMethod, "step"),
                (CallKind::Free, "helper"),
                (CallKind::Qualified, "tick"),
                (CallKind::Qualified, "init"),
                (CallKind::Method, "observe"),
                (CallKind::Method, "finish"),
            ]
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
    fn test_region_fns_are_marked() {
        let p = parse_src("fn live() {}\n#[cfg(test)]\nmod t { fn inside() {} }");
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
    }
}
