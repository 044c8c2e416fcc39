//! Interprocedural lock-order analysis: acquisitions are collected per
//! function, held-sets propagate through the call graph, and cycles in
//! the resulting lock-order graph are reported as potential deadlocks.
//!
//! Lock identity is the receiver path text of the `.lock()` / `.read()`
//! / `.write()` call (`self.books.lock()` inside `impl SpecStore` →
//! `SpecStore.books`; a local `guard = shared.lock()` → `shared`).
//! This is name-based and conservative, like the call graph: two
//! different locks that happen to share a field name can produce a
//! false cycle (waive with the proof), and locks passed by reference
//! under a different name can be missed — the motivating cases (serve
//! handler threads vs. the tick thread, the spec store swap protocol)
//! are all named fields, which this resolves exactly.
//! The same per-fn scan finds the per-file `nested-lock` sites.

use crate::callgraph::{AnalyzedFile, CallGraph, FnId};
use crate::lexer::{Tok, TokKind};
use crate::model::FileModel;
use crate::parser::ParsedFile;
use crate::reach::PassFinding;
use crate::rules::Rule;
use std::collections::{BTreeMap, BTreeSet};

/// One lock acquisition inside a fn body.
#[derive(Debug, Clone)]
pub(crate) struct Acquire {
    /// Lock identity (normalized receiver path).
    lock: String,
    /// 1-based line.
    pub(crate) line: usize,
    /// Token index of the `lock`/`read`/`write` method name.
    pub(crate) tok: usize,
    /// Binding of the oldest guard live at this point, if any.
    pub(crate) holder: Option<String>,
}

/// What one fn does with locks, before propagation.
#[derive(Debug, Default, Clone)]
pub(crate) struct FnLocks {
    /// Direct acquisitions, each with the lock identities held at that
    /// point (within this fn).
    pub(crate) acquires: Vec<(Acquire, Vec<String>)>,
    /// Calls made while holding locks: (callee call-site line, held
    /// identities, call index into parsed.calls).
    calls_holding: Vec<(usize, Vec<String>, usize)>,
}

const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Tokens in `.unwrap_or_else(PoisonError::into_inner)`, `std::sync`'s
/// poison-ignoring unwrap: after a lock call it yields the guard itself.
pub(crate) const UNPOISON_TOKENS: usize = 8;

/// True if the [`UNPOISON_TOKENS`] tokens from `j` spell that unwrap.
pub(crate) fn unpoison_at(toks: &[Tok], j: usize) -> bool {
    toks.get(j..j + UNPOISON_TOKENS).is_some_and(|ts| {
        ts.iter().map(|t| t.text.as_str()).collect::<String>()
            == ".unwrap_or_else(PoisonError::into_inner)"
    })
}

/// True if tokens at `i` form `. lock ( )` (no arguments) and `i` is the
/// method name.
fn lock_call_at(toks: &[Tok], i: usize) -> bool {
    i >= 1
        && toks[i].kind == TokKind::Ident
        && LOCK_METHODS.contains(&toks[i].text.as_str())
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
}

/// The `let [mut] <name>` binding of the statement containing token `i`,
/// scanning back at most to `floor`.
fn let_binding_name(toks: &[Tok], i: usize, floor: usize) -> Option<String> {
    let mut k = i;
    while k > floor {
        k -= 1;
        if toks[k].is_punct(';') || toks[k].is_punct('{') || toks[k].is_punct('}') {
            return None;
        }
        if toks[k].is_ident("let") {
            let mut n = k + 1;
            if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
                n += 1;
            }
            return toks
                .get(n)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone());
        }
    }
    None
}

/// Builds the per-fn lock behavior: a single forward scan tracking live
/// guards — a `let` binding of a lock call, released by `drop(name)` or
/// the end of its block — with call sites looked up by token index.
pub(crate) fn fn_locks(model: &FileModel, parsed: &ParsedFile, fn_idx: usize) -> FnLocks {
    let toks = &model.toks;
    let def = &parsed.fns[fn_idx];
    let mut out = FnLocks::default();
    let Some((start, end)) = def.body else {
        return out;
    };
    // Token index → call index, for this fn's calls only (calls are in
    // token order).
    let lo = parsed.calls.partition_point(|c| c.tok < start);
    let hi = parsed.calls.partition_point(|c| c.tok < end);
    let calls_by_tok: BTreeMap<usize, usize> = (lo..hi)
        .filter(|&ci| parsed.calls[ci].caller == fn_idx)
        .map(|ci| (parsed.calls[ci].tok, ci))
        .collect();
    let mut guards: Vec<(String, String, usize)> = Vec::new(); // (binding, lock id, depth)
    let mut i = start;
    while i < end {
        let d = model.depth[i];
        guards.retain(|&(_, _, gd)| gd <= d);
        if toks[i].is_ident("drop")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            if let Some(name) = toks.get(i + 2).map(|t| t.text.clone()) {
                guards.retain(|(g, _, _)| *g != name);
            }
        }
        if let Some(&ci) = calls_by_tok.get(&i) {
            let held: Vec<String> = guards.iter().map(|(_, l, _)| l.clone()).collect();
            if !held.is_empty() {
                out.calls_holding.push((parsed.calls[ci].line, held, ci));
            }
        }
        if lock_call_at(toks, i) {
            let lock = lock_identity(toks, def.impl_type.as_deref(), i);
            let held: Vec<String> = guards.iter().map(|(_, l, _)| l.clone()).collect();
            out.acquires.push((
                Acquire {
                    lock: lock.clone(),
                    line: toks[i].line,
                    tok: i,
                    holder: guards.first().map(|(g, _, _)| g.clone()),
                },
                held,
            ));
            let mut j = i + 3;
            if unpoison_at(toks, j) {
                j += UNPOISON_TOKENS;
            }
            while j < end && toks[j].is_punct('?') {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct(';')) {
                if let Some(name) = let_binding_name(toks, i, start) {
                    if name != "_" {
                        guards.push((name, lock, d));
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// Normalized identity of the lock whose `.lock()/.read()/.write()`
/// method name token is at `i`: the receiver ident chain, with a
/// leading `self` replaced by the enclosing impl type.
fn lock_identity(toks: &[Tok], impl_type: Option<&str>, i: usize) -> String {
    // Walk back over `ident . ident . … .` ending at the `.` before `i`.
    let mut parts: Vec<String> = Vec::new();
    let mut j = i - 1; // the `.`
    loop {
        if j == 0 {
            break;
        }
        let prev = &toks[j - 1];
        if prev.kind == TokKind::Ident {
            parts.push(prev.text.clone());
            if j >= 2 && toks[j - 2].is_punct('.') {
                j -= 2;
                continue;
            }
        }
        break;
    }
    parts.reverse();
    if parts.first().is_some_and(|p| p == "self") {
        parts[0] = impl_type.unwrap_or("Self").to_string();
    }
    if parts.is_empty() {
        "<expr>".to_string()
    } else {
        parts.join(".")
    }
}

/// One lock-order edge: `from` held while acquiring `to`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct OrderEdge {
    from: String,
    to: String,
    /// Representative site: (file, line) of the acquisition (or of the
    /// call that leads to it).
    file: usize,
    line: usize,
    /// How the edge arises, for diagnostics.
    via: String,
}

/// Runs the lock-order pass: builds the order graph (direct nestings
/// plus call-propagated ones) and reports each cycle once.
pub fn lock_order(files: &[AnalyzedFile], graph: &CallGraph, out: &mut Vec<PassFinding>) {
    // Per-fn lock behavior.
    let mut locks: BTreeMap<FnId, FnLocks> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (li, def) in file.parsed.fns.iter().enumerate() {
            if def.is_test || def.body.is_none() {
                continue;
            }
            let fl = fn_locks(&file.model, &file.parsed, li);
            if !fl.acquires.is_empty() || !fl.calls_holding.is_empty() {
                locks.insert((fi, li), fl);
            }
        }
    }

    // Transitive acquisitions per fn: fixpoint over the call graph.
    // acq[f] = direct(f) ∪ ⋃ acq[callee]. Each entry carries a
    // representative acquisition site.
    let mut acq: BTreeMap<FnId, BTreeMap<String, (usize, usize)>> = BTreeMap::new();
    for (&id, fl) in &locks {
        let entry = acq.entry(id).or_default();
        for (a, _) in &fl.acquires {
            entry.entry(a.lock.clone()).or_insert((id.0, a.line));
        }
    }
    loop {
        let mut changed = false;
        // Snapshot keys to avoid aliasing while mutating.
        let callers: Vec<FnId> = graph.edges.keys().copied().collect();
        for caller in callers {
            let Some(outs) = graph.edges.get(&caller) else {
                continue;
            };
            let mut add: Vec<(String, (usize, usize))> = Vec::new();
            for e in outs {
                if let Some(callee_acq) = acq.get(&e.to) {
                    for (lock, &site) in callee_acq {
                        add.push((lock.clone(), site));
                    }
                }
            }
            let entry = acq.entry(caller).or_default();
            for (lock, site) in add {
                if let std::collections::btree_map::Entry::Vacant(v) = entry.entry(lock) {
                    v.insert(site);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Order edges.
    let mut edges: BTreeSet<OrderEdge> = BTreeSet::new();
    for (&(fi, li), fl) in &locks {
        let file = &files[fi];
        // Direct: acquire B while holding A in the same fn.
        for (a, held) in &fl.acquires {
            for h in held {
                if *h != a.lock {
                    edges.insert(OrderEdge {
                        from: h.clone(),
                        to: a.lock.clone(),
                        file: fi,
                        line: a.line,
                        via: format!("{}:{}", file.path, a.line),
                    });
                }
            }
        }
        // Propagated: call g while holding A; g transitively acquires B.
        for (call_line, held, ci) in &fl.calls_holding {
            let call = &file.parsed.calls[*ci];
            debug_assert_eq!(call.caller, li);
            // Resolve the call through the graph's edges for this fn.
            let Some(outs) = graph.edges.get(&(fi, li)) else {
                continue;
            };
            for e in outs {
                if e.call_line != *call_line {
                    continue;
                }
                if let Some(callee_acq) = acq.get(&e.to) {
                    for (lock, &(sf, sl)) in callee_acq {
                        for h in held {
                            if h != lock {
                                edges.insert(OrderEdge {
                                    from: h.clone(),
                                    to: lock.clone(),
                                    file: fi,
                                    line: *call_line,
                                    via: format!(
                                        "{}:{} → {}:{}",
                                        file.path, call_line, files[sf].path, sl
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    // Cycle detection over lock identities.
    let mut adj: BTreeMap<&str, Vec<&OrderEdge>> = BTreeMap::new();
    for e in &edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start_edge in &edges {
        // DFS from `to` back to `from` closes a cycle through
        // `start_edge`.
        let mut stack = vec![(start_edge.to.as_str(), vec![start_edge])];
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        while let Some((node, path)) = stack.pop() {
            if node == start_edge.from {
                // Canonicalize: the cycle's lock list, rotated to its
                // lexicographic minimum.
                let mut cycle: Vec<String> = path.iter().map(|e| e.from.clone()).collect();
                let min = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.as_str())
                    .map_or(0, |(i, _)| i);
                cycle.rotate_left(min);
                if !reported.insert(cycle.clone()) {
                    continue;
                }
                let desc: Vec<String> = path
                    .iter()
                    .map(|e| format!("`{}` → `{}` ({})", e.from, e.to, e.via))
                    .collect();
                let first = path[0];
                out.push(PassFinding {
                    file: first.file,
                    line: first.line,
                    rule: Rule::LockCycle,
                    waiver_names: ["lock-cycle", "nested-lock"],
                    message: format!("lock-order cycle (potential deadlock): {}", desc.join(", ")),
                });
                continue;
            }
            if !visited.insert(node) {
                continue;
            }
            if let Some(outs) = adj.get(node) {
                for e in outs {
                    let mut p = path.clone();
                    p.push(e);
                    stack.push((e.to.as_str(), p));
                }
            }
        }
    }
    out.sort_by(|a, b| (a.file, a.line, a.message.as_str()).cmp(&(b.file, b.line, &b.message)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleSet;

    fn analyze(path: &str, src: &str) -> AnalyzedFile {
        crate::analyze_file(path, src, RuleSet::default())
    }

    fn run(files: &[AnalyzedFile]) -> Vec<PassFinding> {
        let graph = CallGraph::build(files);
        let mut out = Vec::new();
        lock_order(files, &graph, &mut out);
        out
    }

    #[test]
    fn direct_cycle_between_two_functions() {
        let src = "impl S {\n\
             fn a(&self) { let g = self.x.lock(); let h = self.y.lock(); }\n\
             fn b(&self) { let g = self.y.lock(); let h = self.x.lock(); }\n\
             }";
        let out = run(&[analyze("s.rs", src)]);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, Rule::LockCycle);
        assert!(
            out[0].message.contains("`S.x` → `S.y`"),
            "{}",
            out[0].message
        );
        assert!(
            out[0].message.contains("`S.y` → `S.x`"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "impl S {\n\
             fn a(&self) { let g = self.x.lock(); let h = self.y.lock(); }\n\
             fn b(&self) { let g = self.x.lock(); let h = self.y.lock(); }\n\
             }";
        assert!(run(&[analyze("s.rs", src)]).is_empty());
    }

    #[test]
    fn propagated_cycle_through_a_call() {
        let src = "impl S {\n\
             fn a(&self) { let g = self.x.lock(); self.takes_y(); }\n\
             fn takes_y(&self) { let g = self.y.lock(); }\n\
             fn b(&self) { let g = self.y.lock(); let h = self.x.lock(); }\n\
             }";
        let out = run(&[analyze("s.rs", src)]);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(
            out[0].message.contains("s.rs:2 → s.rs:3"),
            "propagated edge names both sites: {}",
            out[0].message
        );
    }

    #[test]
    fn a_std_guard_unwrapped_past_poison_is_held_too() {
        let src = "impl S {\n\
             fn a(&self) { let g = self.x.lock().unwrap_or_else(PoisonError::into_inner); \
             let h = self.y.lock().unwrap_or_else(PoisonError::into_inner); }\n\
             fn b(&self) { let g = self.y.lock().unwrap_or_else(PoisonError::into_inner); \
             let h = self.x.lock().unwrap_or_else(PoisonError::into_inner); }\n\
             }";
        let out = run(&[analyze("s.rs", src)]);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, Rule::LockCycle);
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "impl S {\n\
             fn a(&self) { let g = self.x.lock(); drop(g); let h = self.y.lock(); }\n\
             fn b(&self) { let g = self.y.lock(); let h = self.x.lock(); }\n\
             }";
        assert!(run(&[analyze("s.rs", src)]).is_empty());
    }
}
