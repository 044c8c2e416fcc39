//! Per-file source model built on the token stream: test regions,
//! map-typed binding names, and inline waivers.

use crate::lexer::{lex, Comment, Lexed, Tok, TokKind};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// A parsed inline waiver comment: `// lint: allow(<rule>) — <reason>`.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// The rule name inside `allow(...)`.
    pub rule: String,
    /// Whether a non-empty reason follows the rule.
    pub has_reason: bool,
    /// 1-based line the waiver comment sits on.
    pub line: usize,
}

/// Everything the rule passes need to know about one source file.
#[derive(Debug)]
pub struct FileModel {
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Brace depth *before* each token (`{` at depth d puts its contents
    /// at d+1).
    pub depth: Vec<usize>,
    /// Token-index ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(usize, usize)>,
    /// Identifiers declared with `HashMap`/`HashSet` types or
    /// constructors anywhere in the file.
    pub map_names: BTreeSet<String>,
    /// Waivers by source line.
    pub waivers: BTreeMap<usize, Vec<Waiver>>,
    /// Lines carrying a `// lint: hot-path` marker: the next `fn` below
    /// each is an allocation-free hot path.
    pub hot_path_lines: Vec<usize>,
    /// Raw source lines (1-based access via [`FileModel::line_text`]),
    /// used for configured allowlist patterns.
    pub lines: Vec<String>,
}

impl FileModel {
    /// Builds the model for one file's source text.
    pub fn build(src: &str) -> FileModel {
        let Lexed { toks, comments } = lex(src);
        let depth = brace_depths(&toks);
        let test_regions = find_test_regions(&toks);
        let map_names = collect_map_names(&toks);
        let waivers = collect_waivers(&comments);
        let hot_path_lines = collect_hot_path_lines(&comments);
        let lines = src.lines().map(str::to_string).collect();
        FileModel {
            toks,
            depth,
            test_regions,
            map_names,
            waivers,
            hot_path_lines,
            lines,
        }
    }

    /// True if token index `i` falls inside a `#[cfg(test)]` item.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// The source text of 1-based `line`, or `""`.
    pub fn line_text(&self, line: usize) -> &str {
        line.checked_sub(1)
            .and_then(|i| self.lines.get(i))
            .map_or("", String::as_str)
    }

    /// The waiver (if any) covering `line` for `rule`: on the line itself,
    /// or anywhere in the contiguous block of comment-only lines directly
    /// above it (so multi-line waiver comments work).
    pub fn waiver_for(&self, line: usize, rule: &str) -> Option<&Waiver> {
        let find = |l: usize| {
            self.waivers
                .get(&l)
                .and_then(|ws| ws.iter().find(|w| w.rule == rule))
        };
        if let Some(w) = find(line) {
            return Some(w);
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            let text = self.line_text(l).trim_start();
            if !(text.starts_with("//") || text.starts_with("/*") || text.starts_with('*')) {
                return None;
            }
            if let Some(w) = find(l) {
                return Some(w);
            }
        }
        None
    }
}

/// Brace depth before each token.
fn brace_depths(toks: &[Tok]) -> Vec<usize> {
    let mut out = Vec::with_capacity(toks.len());
    let mut d = 0usize;
    for t in toks {
        if t.is_punct('}') {
            d = d.saturating_sub(1);
        }
        out.push(d);
        if t.is_punct('{') {
            d += 1;
        }
    }
    out
}

/// Finds `#[cfg(test)]`-annotated items and returns their token ranges.
///
/// An annotated item extends to the end of its balanced `{ … }` block, or
/// to the first `;` for brace-less items (`use`, type aliases). Any
/// `cfg(...)` whose argument list mentions the bare word `test`
/// (`cfg(test)`, `cfg(all(test, …))`) counts. The inner form
/// `#![cfg(test)]` — a file that is a test-only module, declared
/// `#[cfg(test)] mod x;` by its parent — covers everything after it up to
/// the end of the enclosing block (the end of the file, at file level).
fn find_test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 4 < toks.len() {
        let inner = toks[i + 1].is_punct('!');
        let at = i + 1 + usize::from(inner);
        if toks[i].is_punct('#')
            && toks[at].is_punct('[')
            && toks[at + 1].is_ident("cfg")
            && toks[at + 2].is_punct('(')
        {
            // Scan the attribute argument list for the ident `test`.
            let mut j = at + 3;
            let mut parens = 1usize;
            let mut is_test = false;
            while j < toks.len() && parens > 0 {
                if toks[j].is_punct('(') {
                    parens += 1;
                } else if toks[j].is_punct(')') {
                    parens -= 1;
                } else if toks[j].is_ident("test") {
                    is_test = true;
                }
                j += 1;
            }
            // Skip the closing `]`.
            while j < toks.len() && !toks[j].is_punct(']') {
                j += 1;
            }
            j += 1;
            if is_test {
                let end = if inner {
                    enclosing_block_end(toks, j)
                } else {
                    item_end(toks, j)
                };
                out.push((i, end));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// End (exclusive token index) of the block `start` sits in: its unmatched
/// `}`, or the end of the file.
fn enclosing_block_end(toks: &[Tok], start: usize) -> usize {
    let mut braces = 0usize;
    for (j, t) in toks.iter().enumerate().skip(start) {
        if t.is_punct('{') {
            braces += 1;
        } else if t.is_punct('}') {
            if braces == 0 {
                return j;
            }
            braces -= 1;
        }
    }
    toks.len()
}

/// End (exclusive token index) of the item starting at `start`: past the
/// balanced `{…}` block, or past the first top-level `;`.
fn item_end(toks: &[Tok], start: usize) -> usize {
    let mut j = start;
    while j < toks.len() {
        if toks[j].is_punct(';') {
            return j + 1;
        }
        if toks[j].is_punct('{') {
            let mut braces = 1usize;
            j += 1;
            while j < toks.len() && braces > 0 {
                if toks[j].is_punct('{') {
                    braces += 1;
                } else if toks[j].is_punct('}') {
                    braces -= 1;
                }
                j += 1;
            }
            return j;
        }
        j += 1;
    }
    j
}

/// Collects identifiers bound to `HashMap` / `HashSet` values: struct
/// fields and typed bindings (`name: HashMap<…>`, possibly through a
/// `std::collections::` path) and `let` bindings initialized from a
/// `HashMap::…` / `HashSet::…` constructor.
fn collect_map_names(toks: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("HashMap") || toks[i].is_ident("HashSet")) {
            continue;
        }
        // Walk back over a `std::collections::` style path prefix.
        let mut j = i;
        while j >= 2
            && toks[j - 1].is_punct(':')
            && toks[j - 2].is_punct(':')
            && j >= 3
            && toks[j - 3].kind == TokKind::Ident
        {
            j -= 3;
        }
        // Type position: `name : HashMap` (field, param, typed let).
        if j >= 2 && toks[j - 1].is_punct(':') && !toks[j - 2].is_punct(':') {
            if toks[j - 2].kind == TokKind::Ident {
                out.insert(toks[j - 2].text.clone());
            }
            continue;
        }
        // Constructor position: look back for `let [mut] name` within the
        // same statement.
        let mut k = j;
        while k > 0 {
            k -= 1;
            if toks[k].is_punct(';') || toks[k].is_punct('{') || toks[k].is_punct('}') {
                break;
            }
            if toks[k].is_ident("let") {
                let mut n = k + 1;
                if n < toks.len() && toks[n].is_ident("mut") {
                    n += 1;
                }
                if n < toks.len() && toks[n].kind == TokKind::Ident {
                    out.insert(toks[n].text.clone());
                }
                break;
            }
        }
    }
    out
}

/// Parses `lint: allow(<rule>)` waivers out of comment text.
fn collect_waivers(comments: &[Comment]) -> BTreeMap<usize, Vec<Waiver>> {
    let mut out: BTreeMap<usize, Vec<Waiver>> = BTreeMap::new();
    for c in comments {
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("lint: allow(") {
            rest = &rest[pos + "lint: allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let rule = rest[..close].trim().to_string();
            let tail = &rest[close + 1..];
            // A reason is any alphanumeric content after the close paren
            // (conventionally introduced by an em-dash or hyphen).
            let has_reason = tail.chars().any(|ch| ch.is_alphanumeric());
            out.entry(c.line).or_default().push(Waiver {
                rule,
                has_reason,
                line: c.line,
            });
            rest = tail;
        }
    }
    out
}

/// Finds `lint: hot-path` marker comments (the hot-path-alloc rule's
/// annotation). The marker must not be followed by `-`, so the
/// `hot-path-alloc` rule name inside a waiver is not itself a marker.
fn collect_hot_path_lines(comments: &[Comment]) -> Vec<usize> {
    const MARKER: &str = "lint: hot-path";
    let mut out = Vec::new();
    for c in comments {
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find(MARKER) {
            rest = &rest[pos + MARKER.len()..];
            if !rest.starts_with('-') {
                out.push(c.line);
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_region_covers_mod_body() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\nfn after() {}";
        let m = FileModel::build(src);
        let unwrap_idx = m
            .toks
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap token");
        assert!(m.in_test(unwrap_idx));
        let after_idx = m
            .toks
            .iter()
            .position(|t| t.is_ident("after"))
            .expect("after");
        assert!(!m.in_test(after_idx));
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t { fn f() {} }";
        let m = FileModel::build(src);
        assert_eq!(m.test_regions.len(), 1);
    }

    #[test]
    fn inner_cfg_test_covers_the_rest_of_its_block() {
        let src = "#![cfg(test)]\nuse x::y;\nfn t() { a.unwrap(); }\nmod m { fn u() {} }";
        let m = FileModel::build(src);
        assert_eq!(m.test_regions, vec![(0, m.toks.len())]);

        let src =
            "mod m {\n #![cfg(test)]\n fn t() { a.unwrap(); }\n}\nfn live() { b.expect(\"\"); }";
        let m = FileModel::build(src);
        let idx = |name: &str| {
            m.toks
                .iter()
                .position(|t| t.is_ident(name))
                .expect("token present")
        };
        assert!(m.in_test(idx("unwrap")));
        assert!(!m.in_test(idx("expect")));
    }

    #[test]
    fn cfg_not_test_attrs_ignored() {
        let src = "#[cfg(feature = \"x\")]\nmod t { fn f() {} }";
        let m = FileModel::build(src);
        assert!(m.test_regions.is_empty());
    }

    #[test]
    fn map_names_from_fields_lets_and_paths() {
        let src = "struct S { books: HashMap<u32, u32>, v: Vec<u32> }\n\
                   fn f() { let mut seen = HashSet::new(); let t: std::collections::HashMap<A,B> = x; }";
        let m = FileModel::build(src);
        assert!(m.map_names.contains("books"));
        assert!(m.map_names.contains("seen"));
        assert!(m.map_names.contains("t"));
        assert!(!m.map_names.contains("v"));
    }

    #[test]
    fn waiver_parsing() {
        let src = "let x = 1; // lint: allow(map-iter) — keys are disjoint\n\
                   let y = 2; // lint: allow(panic)\n";
        let m = FileModel::build(src);
        let w = m.waiver_for(1, "map-iter").expect("waiver on line 1");
        assert!(w.has_reason);
        let w2 = m.waiver_for(2, "panic").expect("waiver on line 2");
        assert!(!w2.has_reason);
        // A trailing waiver covers only its own line: line 2 starts with
        // code, so the walk-up from line 3 stops immediately.
        assert!(m.waiver_for(2, "map-iter").is_none());
        assert!(m.waiver_for(3, "panic").is_none());
    }

    #[test]
    fn waiver_in_multiline_comment_block_covers_code_below() {
        let src = "fn f() {\n\
                   // lint: allow(panic) — documented contract: panics on\n\
                   // invalid config by design.\n\
                   cfg.validate().expect(\"valid\");\n\
                   let z = 1;\n\
                   }";
        let m = FileModel::build(src);
        assert!(m.waiver_for(4, "panic").is_some());
        // The block does not leak past the first code line.
        assert!(m.waiver_for(5, "panic").is_none());
    }

    #[test]
    fn brace_depths_track_nesting() {
        let m = FileModel::build("fn f() { if x { y(); } }");
        let y_idx = m.toks.iter().position(|t| t.is_ident("y")).expect("y");
        assert_eq!(m.depth[y_idx], 2);
    }
}
