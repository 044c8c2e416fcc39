//! Whole-program reachability passes over the call graph:
//!
//! 1. **transitive-alloc** — everything reachable from a
//!    `// lint: hot-path` fn must be allocation-free, not just the
//!    annotated body;
//! 2. **panic-reach** — panic sites (`unwrap`/`expect`/`panic!`-family,
//!    slice indexing) anywhere in the closure of the configured
//!    core/perf entry points.
//!
//! Each pass only reports sites the *per-file* rules do not already
//! cover (a panic in `crates/core` is a `panic` finding, not a
//! `panic-reach` one), so every diagnostic appears exactly once, and a
//! site waiver suppresses both layers. Findings carry the offending
//! call path (`a.rs:212 → b.rs:88`) from the entry fn to the site.

use crate::callgraph::{fn_label, format_chain, AnalyzedFile, CallGraph, FnId};
use crate::rules::Rule;
use std::collections::BTreeSet;

/// Selects whole-program entry points by (path prefix, impl type, fn
/// name). `type_name: None` matches free fns and methods alike.
#[derive(Debug, Clone)]
pub struct EntrySpec {
    /// Workspace-relative path prefix (`"crates/core/"`); empty matches
    /// everywhere.
    pub path_prefix: String,
    /// Impl self type the fn must belong to, or `None` for any.
    pub type_name: Option<String>,
    /// The fn name.
    pub fn_name: String,
}

impl EntrySpec {
    /// Convenience constructor.
    pub fn new(path_prefix: &str, type_name: Option<&str>, fn_name: &str) -> EntrySpec {
        EntrySpec {
            path_prefix: path_prefix.to_string(),
            type_name: type_name.map(str::to_string),
            fn_name: fn_name.to_string(),
        }
    }
}

/// One pass finding, before waiver filtering: the site plus the names
/// that can waive it.
#[derive(Debug, Clone)]
pub struct PassFinding {
    /// File index of the *site* (waivers attach there).
    pub file: usize,
    /// 1-based line of the site.
    pub line: usize,
    /// The pass rule reported.
    pub rule: Rule,
    /// Waiver rule names accepted at the site, priority order.
    pub waiver_names: [&'static str; 2],
    /// Full diagnostic with the call path.
    pub message: String,
}

/// Whether the per-file policy already enforces `rule` in `file` (in
/// which case the pass stays quiet — the per-file rule owns the
/// diagnostic).
fn covered_per_file(file: &AnalyzedFile, rule: Rule) -> bool {
    match rule {
        Rule::Panic => file.rules.panics,
        Rule::SliceIndex => file.rules.slice_index,
        _ => false,
    }
}

/// Resolves entry specs to fn ids, deterministically ordered.
pub fn find_entries(files: &[AnalyzedFile], specs: &[EntrySpec]) -> Vec<FnId> {
    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (li, f) in file.parsed.fns.iter().enumerate() {
            if f.is_test || f.body.is_none() {
                continue;
            }
            let matches = |s: &EntrySpec| {
                file.path.starts_with(&s.path_prefix)
                    && f.name == s.fn_name
                    && s.type_name
                        .iter()
                        .all(|ty| f.impl_type.as_ref() == Some(ty))
            };
            if specs.iter().any(matches) {
                out.push((fi, li));
            }
        }
    }
    out
}

/// Shared walk: from each entry, flag every reachable site whose base
/// rule is in `base_rules` and not already covered per-file, attaching
/// the call path. `skip_hot` drops sites in `// lint: hot-path` bodies
/// (used by transitive-alloc, where the per-file hot-path rule owns
/// them).
fn reach_pass(
    files: &[AnalyzedFile],
    graph: &CallGraph,
    entries: &[FnId],
    base_rules: &[Rule],
    (pass_rule, what): (Rule, &str),
    skip_hot: bool,
    out: &mut Vec<PassFinding>,
) {
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &entry in entries {
        // Per-entry BFS so each finding's path starts at a named entry.
        let parent = graph.reach(&[entry]);
        for &id in parent.keys() {
            let file = &files[id.0];
            let def = &file.parsed.fns[id.1];
            let Some((body_s, body_e)) = def.body.filter(|_| !(skip_hot && def.is_hot_path)) else {
                continue;
            };
            for s in &file.sites {
                if s.tok < body_s
                    || s.tok >= body_e
                    || !base_rules.contains(&s.rule)
                    || covered_per_file(file, s.rule)
                    // Attribute to the innermost fn only: a site in a
                    // nested fn belongs to that fn's own reachability.
                    || file.parsed.enclosing_fn(s.tok) != Some(id.1)
                    || !seen.insert((id.0, s.tok))
                {
                    continue;
                }
                let chain = graph.path_to(&parent, id);
                let via = format_chain(files, &chain, id.0, s.line);
                out.push(PassFinding {
                    file: id.0,
                    line: s.line,
                    rule: pass_rule,
                    waiver_names: [s.rule.name(), pass_rule.name()],
                    message: format!(
                        "{} {what} reachable from {}: {via}",
                        s.pattern,
                        fn_label(files, entry),
                    ),
                });
            }
        }
    }
}

/// Pass 1: transitive hot-path allocation.
pub fn transitive_alloc(files: &[AnalyzedFile], graph: &CallGraph, out: &mut Vec<PassFinding>) {
    let mut entries = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (li, f) in file.parsed.fns.iter().enumerate() {
            if f.is_hot_path && !f.is_test && f.body.is_some() {
                entries.push((fi, li));
            }
        }
    }
    // The annotated body itself is the per-file rule's job; callees are
    // ours. Other hot fns reached transitively are skipped too — each is
    // its own entry.
    let pass = (Rule::TransitiveAlloc, "per-call allocation");
    reach_pass(
        files,
        graph,
        &entries,
        &[Rule::HotPathAlloc],
        pass,
        true,
        out,
    );
}

/// Pass 2: panic reachability from `entries` (`Agent::ingest`,
/// `Machine::tick`, sampler `poll`, …).
pub fn panic_reach(
    files: &[AnalyzedFile],
    graph: &CallGraph,
    entries: &[EntrySpec],
    out: &mut Vec<PassFinding>,
) {
    let entries = find_entries(files, entries);
    let (rules, pass) = (
        [Rule::Panic, Rule::SliceIndex],
        (Rule::PanicReach, "panic site"),
    );
    reach_pass(files, graph, &entries, &rules, pass, false, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::rules::RuleSet;

    fn analyze(path: &str, src: &str, rules: RuleSet) -> AnalyzedFile {
        crate::analyze_file(path, src, rules)
    }

    #[test]
    fn transitive_alloc_two_hops() {
        let src = "// lint: hot-path\n\
                   fn tick() { mid(); }\n\
                   fn mid() { leaf(); }\n\
                   fn leaf() { let v = Vec::new(); }";
        let files = vec![analyze("sim.rs", src, RuleSet::default())];
        let graph = CallGraph::build(&files);
        let mut out = Vec::new();
        transitive_alloc(&files, &graph, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, Rule::TransitiveAlloc);
        assert!(
            out[0].message.contains("sim.rs:2 → sim.rs:3 → sim.rs:4"),
            "full path: {}",
            out[0].message
        );
    }

    #[test]
    fn panic_reach_skips_per_file_covered() {
        let src = "impl Agent { fn ingest(&self) { helper(); } }\n\
                   fn helper() { x.unwrap(); }";
        let covered = RuleSet {
            panics: true,
            ..Default::default()
        };
        let entries = [EntrySpec::new("", Some("Agent"), "ingest")];

        // Per-file panic rule on: the pass stays quiet.
        let files = vec![analyze("a.rs", src, covered)];
        let graph = CallGraph::build(&files);
        let mut out = Vec::new();
        panic_reach(&files, &graph, &entries, &mut out);
        assert!(out.is_empty(), "{out:#?}");

        // Per-file panic rule off (another crate): the pass reports.
        let files = vec![analyze("a.rs", src, RuleSet::default())];
        let graph = CallGraph::build(&files);
        let mut out = Vec::new();
        panic_reach(&files, &graph, &entries, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(
            out[0].message.contains("a.rs:1 → a.rs:2"),
            "{}",
            out[0].message
        );
    }
}
