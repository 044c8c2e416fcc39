//! Workspace-wide call graph over the parsed files, with conservative
//! name-based resolution.
//!
//! Resolution rules:
//!
//! - `recv.name(…)` → fns named `name` in `impl` blocks of the
//!   receiver's type ([`crate::parser::CallSite::receiver`]), if any; a
//!   std type without one reaches only impls of types with no inherent
//!   impl (trait impls on std or generic types); any other receiver →
//!   every impl fn named `name` (conservative fan-out);
//! - `Q::name(…)` where `Q` names a workspace impl type (or `Self`) →
//!   fns named `name` in `impl Q`; a capitalized `Q` with no workspace
//!   impl is external (`Vec::new`) and resolves to nothing; a
//!   lowercase `Q` is a module path segment and resolves like a free
//!   call;
//! - `name(…)` → free fns named `name`.
//!
//! Candidates are further filtered by shape: a dotted call can only
//! land on a fn whose first parameter is `self`, and when the call's
//! argument count is reliably known (no closures / comparisons /
//! turbofish among the arguments) it must match the candidate's
//! parameter count (UFCS `Type::method(recv, …)` counts the receiver).
//! This keeps `sum_bits.load(Ordering::Relaxed)` from resolving to a
//! workspace `fn load` that takes two arguments.
//!
//! Finally by crate: a call in `crates/a/` cannot land on an inherent
//! method or free fn of `crates/b/` unless that fn is plain `pub` and
//! `a` can name `b` — its sources mention `cpi2_b`, or mention a crate
//! that can (`CrateScope`). Trait-impl methods stay reachable from
//! anywhere: `a` may define the trait and call `b`'s impl through it.
//! Without this, `series.push(t, v)` in `cpi2-core` fans out to the
//! control plane's `PollSet::push`; without the receiver's type,
//! `items.len()` on a `VecDeque` guard lands on every workspace `len`.
//!
//! `#[cfg(test)]` fns are excluded from the candidate index, so live
//! code never resolves into test helpers. Unresolvable calls (std,
//! vendored deps) produce no edge — the passes are whole-*workspace*,
//! not whole-universe.

use crate::model::FileModel;
use crate::parser::{CallKind, ParsedFile, STD_TYPES};
use crate::rules::{RawSite, RuleSet};
use std::collections::{BTreeMap, BTreeSet};

/// One analyzed source file: everything the whole-program passes need.
pub struct AnalyzedFile {
    /// Workspace-relative path.
    pub path: String,
    /// The per-file rule policy (also carries sanctioning info).
    pub rules: RuleSet,
    /// Token-level model.
    pub model: FileModel,
    /// Item/fn/call structure.
    pub parsed: ParsedFile,
    /// All raw detector sites (sanctioned sites already dropped).
    pub sites: Vec<RawSite>,
}

/// Global fn id: (file index, local fn index).
pub type FnId = (usize, usize);

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Callee.
    pub to: FnId,
    /// 1-based line of the call site (in the caller's file).
    pub call_line: usize,
}

/// The workspace crate a path belongs to: `x` for `crates/x/…`, `None`
/// for anything else (the root package, fixtures).
fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

/// Which workspace crates each crate's code can reach into, read off the
/// sources themselves: a crate names its direct dependencies as
/// `cpi2_<dir>` path segments, and reaches theirs through them. A crate
/// that names the root facade `cpi2` (which re-exports everything) is
/// not narrowed at all.
struct CrateScope {
    /// Crate → crates it can name, transitively; `None` = all of them.
    sees: BTreeMap<String, Option<BTreeSet<String>>>,
}

impl CrateScope {
    fn build(files: &[AnalyzedFile]) -> CrateScope {
        let mut sees: BTreeMap<String, Option<BTreeSet<String>>> = BTreeMap::new();
        for file in files {
            let Some(krate) = crate_of(&file.path) else {
                continue;
            };
            let entry = sees
                .entry(krate.to_string())
                .or_insert_with(|| Some(BTreeSet::new()));
            for t in &file.model.toks {
                if t.is_ident("cpi2") {
                    *entry = None;
                } else if let (Some(deps), Some(dep)) =
                    (entry.as_mut(), t.text.strip_prefix("cpi2_"))
                {
                    deps.insert(dep.to_string());
                }
            }
        }
        // Transitive closure, to a fixpoint; depending on a crate that
        // sees everything is seeing everything.
        loop {
            let before = sees.clone();
            for reach in sees.values_mut() {
                let Some(deps) = reach else { continue };
                let mut all = false;
                for dep in deps.clone() {
                    match before.get(&dep) {
                        Some(Some(theirs)) => deps.extend(theirs.iter().cloned()),
                        Some(None) => all = true,
                        // Not a crate of this file set.
                        None => {}
                    }
                }
                if all {
                    *reach = None;
                }
            }
            if sees == before {
                break;
            }
        }
        CrateScope { sees }
    }

    /// Whether code in file `caller` can reach a non-trait fn in file
    /// `callee` of the given visibility.
    fn allows(&self, caller: &str, callee: &str, callee_is_pub: bool) -> bool {
        let (Some(a), Some(b)) = (crate_of(caller), crate_of(callee)) else {
            return true;
        };
        a == b
            || callee_is_pub
                && match self.sees.get(a) {
                    Some(Some(deps)) => deps.contains(b),
                    Some(None) | None => true,
                }
    }
}

/// The workspace call graph.
pub struct CallGraph {
    /// Outgoing edges per fn, sorted and deduplicated (first call site
    /// per callee wins).
    pub edges: BTreeMap<FnId, Vec<Edge>>,
}

impl CallGraph {
    /// Builds the graph over `files`.
    pub fn build(files: &[AnalyzedFile]) -> CallGraph {
        // Candidate indexes over non-test fns.
        let mut impl_fns: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        let mut any_method: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut free_fns: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut inherent: BTreeSet<&str> = BTreeSet::new();
        for (fi, file) in files.iter().enumerate() {
            for (li, f) in file.parsed.fns.iter().enumerate() {
                if f.is_test || f.body.is_none() {
                    continue;
                }
                let id = (fi, li);
                match &f.impl_type {
                    Some(ty) => {
                        if !f.in_trait_impl {
                            inherent.insert(ty);
                        }
                        impl_fns
                            .entry((ty.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                        any_method.entry(f.name.clone()).or_default().push(id);
                    }
                    None => free_fns.entry(f.name.clone()).or_default().push(id),
                }
            }
        }
        let impl_types: BTreeSet<&String> = impl_fns.keys().map(|(t, _)| t).collect();
        // All a std-typed receiver can reach: impl fns of types with no
        // inherent impl (trait impls on std or generic types).
        let std_methods: BTreeMap<String, Vec<FnId>> = any_method
            .iter()
            .map(|(name, ids)| {
                let outside = |&&(f, l): &&FnId| {
                    let ty = files[f].parsed.fns[l].impl_type.as_deref();
                    ty.is_some_and(|t| !inherent.contains(t))
                };
                (name.clone(), ids.iter().filter(outside).copied().collect())
            })
            .collect();
        let scope = CrateScope::build(files);

        let mut edges: BTreeMap<FnId, Vec<Edge>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for call in &file.parsed.calls {
                let caller = (fi, call.caller);
                let caller_impl = file.parsed.fns[call.caller].impl_type.as_deref();
                let candidates: &[FnId] = match call.kind {
                    CallKind::Method => {
                        let ty = call.receiver.as_ref();
                        let is_std = ty.is_some_and(|t| STD_TYPES.contains(&t.as_str()));
                        let fallback = if is_std { &std_methods } else { &any_method };
                        ty.and_then(|t| impl_fns.get(&(t.clone(), call.name.clone())))
                            .or_else(|| fallback.get(&call.name))
                            .map_or(&[], Vec::as_slice)
                    }
                    CallKind::Qualified => {
                        let q = call.qualifier.as_deref().unwrap_or("");
                        let ty = if q == "Self" {
                            caller_impl.unwrap_or(q)
                        } else {
                            q
                        };
                        if let Some(c) = impl_fns.get(&(ty.to_string(), call.name.clone())) {
                            c.as_slice()
                        } else if ty.starts_with(|c: char| c.is_lowercase() || c == '_')
                            && !impl_types.contains(&ty.to_string())
                        {
                            // Module path segment: resolves like a free
                            // call.
                            free_fns.get(&call.name).map_or(&[], Vec::as_slice)
                        } else {
                            // External type (`Vec::new`, `Instant::now`).
                            &[]
                        }
                    }
                    CallKind::Free => free_fns.get(&call.name).map_or(&[], Vec::as_slice),
                };
                for &to in candidates {
                    let callee = &files[to.0].parsed.fns[to.1];
                    // An uncountable argument list (`args: None`)
                    // matches any arity.
                    let shape_ok = match call.kind {
                        // A dotted call requires a `self` receiver.
                        CallKind::Method => {
                            callee.has_self && call.args.iter().all(|&a| a == callee.params)
                        }
                        // UFCS passes the receiver positionally.
                        CallKind::Qualified => {
                            let want = if callee.has_self {
                                callee.params + 1
                            } else {
                                callee.params
                            };
                            call.args.iter().all(|&a| a == want)
                        }
                        CallKind::Free => {
                            !callee.has_self && call.args.iter().all(|&a| a == callee.params)
                        }
                    };
                    if !shape_ok {
                        continue;
                    }
                    if !callee.in_trait_impl
                        && !scope.allows(&file.path, &files[to.0].path, callee.is_pub)
                    {
                        continue;
                    }
                    edges.entry(caller).or_default().push(Edge {
                        to,
                        call_line: call.line,
                    });
                }
            }
        }
        for outs in edges.values_mut() {
            outs.sort();
            outs.dedup_by_key(|e| e.to);
        }
        CallGraph { edges }
    }

    /// Deterministic BFS from `entries`; returns, for every reachable
    /// fn, the predecessor step `(caller, call line)` that first reached
    /// it (entries map to `None`).
    pub fn reach(&self, entries: &[FnId]) -> BTreeMap<FnId, Option<(FnId, usize)>> {
        let mut parent: BTreeMap<FnId, Option<(FnId, usize)>> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<FnId> = std::collections::VecDeque::new();
        let mut sorted = entries.to_vec();
        sorted.sort();
        sorted.dedup();
        for e in sorted {
            parent.insert(e, None);
            queue.push_back(e);
        }
        while let Some(f) = queue.pop_front() {
            if let Some(outs) = self.edges.get(&f) {
                for e in outs {
                    if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(e.to) {
                        v.insert(Some((f, e.call_line)));
                        queue.push_back(e.to);
                    }
                }
            }
        }
        parent
    }

    /// The call-site chain from the entry that first reached `target`:
    /// `[(file, line), …]` of each call site, entry-side first. Empty if
    /// `target` is itself an entry.
    pub fn path_to(
        &self,
        parent: &BTreeMap<FnId, Option<(FnId, usize)>>,
        target: FnId,
    ) -> Vec<(usize, usize)> {
        let mut chain = Vec::new();
        let mut cur = target;
        while let Some(Some((pred, line))) = parent.get(&cur) {
            chain.push((pred.0, *line));
            cur = *pred;
        }
        chain.reverse();
        chain
    }
}

/// Formats a call chain plus the final site as
/// `a.rs:212 → b.rs:88` (workspace-relative paths).
pub fn format_chain(
    files: &[AnalyzedFile],
    chain: &[(usize, usize)],
    site_file: usize,
    site_line: usize,
) -> String {
    let mut parts: Vec<String> = chain
        .iter()
        .map(|&(f, l)| format!("{}:{}", files[f].path, l))
        .collect();
    parts.push(format!("{}:{}", files[site_file].path, site_line));
    parts.join(" → ")
}

/// Human name of a fn: `Type::name` or `name`, with its definition site.
pub fn fn_label(files: &[AnalyzedFile], id: FnId) -> String {
    let f = &files[id.0].parsed.fns[id.1];
    let name = match &f.impl_type {
        Some(ty) => format!("{ty}::{}", f.name),
        None => f.name.clone(),
    };
    format!("`{name}` ({}:{})", files[id.0].path, f.line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(path: &str, src: &str) -> AnalyzedFile {
        crate::analyze_file(path, src, RuleSet::default())
    }

    fn fn_id(files: &[AnalyzedFile], name: &str) -> FnId {
        for (fi, f) in files.iter().enumerate() {
            for (li, d) in f.parsed.fns.iter().enumerate() {
                if d.name == name {
                    return (fi, li);
                }
            }
        }
        panic!("no fn named {name}");
    }

    #[test]
    fn cross_file_resolution_and_paths() {
        let a = analyze(
            "a.rs",
            "impl Agent {\n fn ingest(&self) {\n  helper();\n }\n}",
        );
        let b = analyze("b.rs", "pub fn helper() {\n leaf();\n}\npub fn leaf() {}");
        let files = vec![a, b];
        let g = CallGraph::build(&files);
        let ingest = fn_id(&files, "ingest");
        let leaf = fn_id(&files, "leaf");
        let parent = g.reach(&[ingest]);
        assert!(parent.contains_key(&leaf), "leaf reachable through helper");
        let chain = g.path_to(&parent, leaf);
        assert_eq!(
            format_chain(&files, &chain, leaf.0, 3),
            "a.rs:3 → b.rs:2 → b.rs:3"
        );
    }

    #[test]
    fn calls_do_not_land_in_crates_the_caller_cannot_name() {
        let core = analyze(
            "crates/core/src/agent.rs",
            "use cpi2_stats::TimeSeries;\n\
             impl Agent { fn record(&mut self) { self.cpi.push(1, 2.0); self.sink.emit(3); } }",
        );
        let stats = analyze(
            "crates/stats/src/timeseries.rs",
            "impl TimeSeries { pub fn push(&mut self, t: i64, v: f64) {} \
             pub(crate) fn emit(&self, n: u32) {} }",
        );
        let serve = analyze(
            "crates/serve/src/poll.rs",
            "use cpi2_core::Agent;\n\
             impl PollSet { pub fn push(&mut self, fd: i32, events: i16) {} }\n\
             impl Sink for Wire { fn emit(&self, n: u32) {} }",
        );
        let files = vec![core, stats, serve];
        let g = CallGraph::build(&files);
        let callees: Vec<String> = g.edges[&fn_id(&files, "record")]
            .iter()
            .map(|e| {
                let f = &files[e.to.0].parsed.fns[e.to.1];
                format!("{}::{}", f.impl_type.as_deref().unwrap_or(""), f.name)
            })
            .collect();
        // `TimeSeries::push`: a dependency's `pub fn`. Not `PollSet::push`
        // (core cannot name serve), not `TimeSeries::emit` (crate-private
        // there), but `Wire::emit` — a trait impl is reachable through the
        // trait from anywhere.
        assert_eq!(callees, ["TimeSeries::push", "Wire::emit"]);

        // The other way round is visible: serve names core, and through it
        // core's own dependencies.
        let scope = CrateScope::build(&files);
        assert!(scope.allows("crates/serve/src/x.rs", "crates/stats/src/y.rs", true));
        assert!(!scope.allows("crates/stats/src/y.rs", "crates/core/src/z.rs", true));
        // Paths outside `crates/` are never narrowed.
        assert!(scope.allows("src/harness.rs", "crates/serve/src/x.rs", false));
    }

    #[test]
    fn self_method_prefers_own_impl() {
        let src = "impl A { fn run(&self) { self.step(); } fn step(&self) {} }\n\
                   impl B { fn step(&self) { loop {} } }";
        let files = vec![analyze("x.rs", src)];
        let g = CallGraph::build(&files);
        let run = fn_id(&files, "run");
        let outs = g.edges.get(&run).expect("run has edges");
        assert_eq!(outs.len(), 1, "self.step() resolves to A::step only");
        assert_eq!(
            files[0].parsed.fns[outs[0].to.1].impl_type.as_deref(),
            Some("A")
        );
    }

    #[test]
    fn external_qualified_calls_resolve_to_nothing() {
        let files = vec![analyze("x.rs", "fn f() { let v = Vec::new(); }")];
        let g = CallGraph::build(&files);
        assert!(g.edges.is_empty(), "Vec::new is external");
    }

    #[test]
    fn module_qualified_calls_resolve_to_free_fns() {
        let a = analyze("a.rs", "fn f() { interference::compute(x); }");
        let b = analyze("b.rs", "pub fn compute(x: u32) {}");
        let files = vec![a, b];
        let g = CallGraph::build(&files);
        let f = fn_id(&files, "f");
        assert_eq!(g.edges.get(&f).map_or(0, Vec::len), 1);
    }

    #[test]
    fn method_calls_do_not_resolve_to_self_less_fns() {
        // `sum_bits.load(Ordering::Relaxed)` must not resolve to a
        // two-argument associated fn named `load` (no self, wrong arity).
        let a = analyze("a.rs", "impl Cell { fn sum(&self) { self.bits.load(x); } }");
        let b = analyze(
            "b.rs",
            "impl Log { pub fn load(dir: u32, base: u32) -> u32 { dir + base } }",
        );
        let files = vec![a, b];
        let g = CallGraph::build(&files);
        let sum = fn_id(&files, "sum");
        assert!(!g.edges.contains_key(&sum), "AtomicU64::load is external");
    }

    #[test]
    fn arity_mismatch_prunes_method_candidates() {
        let a = analyze(
            "a.rs",
            "impl Cluster { fn step(&mut self) { self.m.tick(a, b, c); } }",
        );
        let b = analyze(
            "b.rs",
            "impl Harness { pub fn tick(&mut self) { let x = 1; } }",
        );
        let c = analyze(
            "c.rs",
            "impl Machine { pub fn tick(&mut self, now: u64, dt: u64, exits: &mut Vec<u32>) {} }",
        );
        let files = vec![a, b, c];
        let g = CallGraph::build(&files);
        let step = fn_id(&files, "step");
        let outs = g.edges.get(&step).expect("tick resolves");
        assert_eq!(outs.len(), 1, "only the 3-argument tick matches");
        assert_eq!(outs[0].to.0, 2);
    }

    #[test]
    fn closure_arguments_fall_back_to_name_matching() {
        let a = analyze("a.rs", "fn f(v: &V) { v.apply(|x, y| x + y); }");
        let b = analyze("b.rs", "impl V { pub fn apply(&self, g: G) -> u32 { 0 } }");
        let files = vec![a, b];
        let g = CallGraph::build(&files);
        let f = fn_id(&files, "f");
        assert_eq!(
            g.edges.get(&f).map_or(0, Vec::len),
            1,
            "closure commas must not defeat resolution"
        );
    }

    #[test]
    fn test_fns_are_not_candidates() {
        let a = analyze("a.rs", "fn f() { helper(); }");
        let b = analyze(
            "b.rs",
            "#[cfg(test)]\nmod t { pub fn helper() { panic!(); } }",
        );
        let files = vec![a, b];
        let g = CallGraph::build(&files);
        assert!(g.edges.is_empty());
    }
}
