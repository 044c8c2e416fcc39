//! Whole-program reachability passes over the call graph:
//!
//! 1. **transitive-alloc** — everything reachable from a
//!    `// lint: hot-path` fn must be allocation-free, not just the
//!    annotated body;
//! 2. **panic-reach** — panic sites (`unwrap`/`expect`/`panic!`-family,
//!    slice indexing) anywhere in the closure of the configured
//!    core/perf entry points;
//! 3. **determinism-taint** — clocks, `thread::spawn`, hash-map
//!    iteration and env/randomness reachable from the configured
//!    simulator entry points through helpers.
//!
//! Each pass only reports sites the *per-file* rules do not already
//! cover (a panic in `crates/core` is a `panic` finding, not a
//! `panic-reach` one), so every diagnostic appears exactly once, and a
//! site waiver suppresses both layers. Findings carry the offending
//! call path (`a.rs:212 → b.rs:88`) from the entry fn to the site.

use crate::callgraph::{fn_label, format_chain, AnalyzedFile, CallGraph, FnId};
use crate::rules::Rule;
use std::collections::BTreeMap;

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

/// Configuration for the whole-program passes.
#[derive(Debug, Clone, Default)]
pub struct ProgramConfig {
    /// Panic-reachability entry points (`Agent::ingest`,
    /// `Machine::tick`, sampler `poll`, …).
    pub panic_entries: Vec<EntrySpec>,
    /// Determinism-taint entry points (`Cluster::step`).
    pub determinism_entries: Vec<EntrySpec>,
    /// Path prefixes the determinism pass does not traverse into:
    /// observational sinks (telemetry) that never feed back into sim
    /// state. Mirrors the per-file scope table's exemption.
    pub determinism_sinks: Vec<String>,
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

/// Which base-rule sites each pass consumes, and whether the per-file
/// policy for `rules` already covers that site (in which case the pass
/// stays quiet — the per-file rule owns the diagnostic).
fn covered_per_file(file: &AnalyzedFile, rule: Rule) -> bool {
    match rule {
        Rule::Panic => file.rules.panics,
        Rule::SliceIndex => file.rules.slice_index,
        Rule::Clock => file.rules.clock,
        Rule::ThreadSpawn => file.rules.spawn,
        Rule::MapIter => file.rules.map_iter,
        Rule::EnvRandom => file.rules.env_random,
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
            for s in specs {
                if !file.path.starts_with(&s.path_prefix) {
                    continue;
                }
                if f.name != s.fn_name {
                    continue;
                }
                if let Some(ty) = &s.type_name {
                    if f.impl_type.as_deref() != Some(ty.as_str()) {
                        continue;
                    }
                }
                out.push((fi, li));
                break;
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Shared walk: from each entry, flag every reachable site whose base
/// rule is in `base_rules` and not already covered per-file, attaching
/// the call path. `skip_entry_fn` drops sites in the entry's own body
/// (used by transitive-alloc, where the per-file hot-path rule owns
/// the annotated body). `sink_prefixes` cuts traversal into those
/// paths.
#[allow(clippy::too_many_arguments)]
fn reach_pass(
    files: &[AnalyzedFile],
    graph: &CallGraph,
    entries: &[FnId],
    base_rules: &[Rule],
    pass_rule: Rule,
    waiver_name: &'static str,
    what: &str,
    sink_prefixes: &[String],
    skip_entry_sites: bool,
    out: &mut Vec<PassFinding>,
) {
    // Prune sink files by rebuilding a filtered edge view on the fly.
    let blocked = |id: FnId| {
        sink_prefixes
            .iter()
            .any(|p| files[id.0].path.starts_with(p.as_str()))
    };
    let mut seen: BTreeMap<(usize, usize, Rule), ()> = BTreeMap::new();
    for &entry in entries {
        // Per-entry BFS so each finding's path starts at a named entry.
        let mut parent: BTreeMap<FnId, Option<(FnId, usize)>> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        parent.insert(entry, None);
        queue.push_back(entry);
        while let Some(f) = queue.pop_front() {
            if let Some(outs) = graph.edges.get(&f) {
                for e in outs {
                    if !parent.contains_key(&e.to) && !blocked(e.to) {
                        parent.insert(e.to, Some((f, e.call_line)));
                        queue.push_back(e.to);
                    }
                }
            }
        }
        let mut reached: Vec<FnId> = parent.keys().copied().collect();
        reached.sort();
        for id in reached {
            if skip_entry_sites && files[id.0].parsed.fns[id.1].is_hot_path {
                continue;
            }
            let file = &files[id.0];
            let Some((body_s, body_e)) = file.parsed.fns[id.1].body else {
                continue;
            };
            for s in &file.sites {
                if s.tok < body_s || s.tok >= body_e {
                    continue;
                }
                if !base_rules.contains(&s.rule) || covered_per_file(file, s.rule) {
                    continue;
                }
                // Attribute to the innermost fn only: a site in a nested
                // fn belongs to that fn's own reachability.
                if file.parsed.enclosing_fn(s.tok) != Some(id.1) {
                    continue;
                }
                if seen.insert((id.0, s.tok, pass_rule), ()).is_some() {
                    continue;
                }
                let chain = graph.path_to(&parent, id);
                let via = format_chain(files, &chain, id.0, s.line);
                out.push(PassFinding {
                    file: id.0,
                    line: s.line,
                    rule: pass_rule,
                    waiver_names: [base_name(s.rule), waiver_name],
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

fn base_name(rule: Rule) -> &'static str {
    rule.name()
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
    // ours. `skip_entry_sites` also skips *other* hot fns reached
    // transitively — each is its own entry.
    reach_pass(
        files,
        graph,
        &entries,
        &[Rule::HotPathAlloc],
        Rule::TransitiveAlloc,
        "transitive-alloc",
        "per-call allocation",
        &[],
        true,
        out,
    );
}

/// Pass 2: panic reachability from the configured entry points.
pub fn panic_reach(
    files: &[AnalyzedFile],
    graph: &CallGraph,
    config: &ProgramConfig,
    out: &mut Vec<PassFinding>,
) {
    let entries = find_entries(files, &config.panic_entries);
    reach_pass(
        files,
        graph,
        &entries,
        &[Rule::Panic, Rule::SliceIndex],
        Rule::PanicReach,
        "panic-reach",
        "panic site",
        &[],
        false,
        out,
    );
}

/// Pass 3: determinism taint from the configured entry points, not
/// traversing into observational sinks.
pub fn determinism_taint(
    files: &[AnalyzedFile],
    graph: &CallGraph,
    config: &ProgramConfig,
    out: &mut Vec<PassFinding>,
) {
    let entries = find_entries(files, &config.determinism_entries);
    reach_pass(
        files,
        graph,
        &entries,
        &[
            Rule::Clock,
            Rule::ThreadSpawn,
            Rule::MapIter,
            Rule::EnvRandom,
        ],
        Rule::DeterminismTaint,
        "determinism-taint",
        "determinism hazard",
        &config.determinism_sinks,
        false,
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::model::FileModel;
    use crate::parser::parse;
    use crate::rules::{collect_sites, RuleSet};

    fn analyze(path: &str, src: &str, rules: RuleSet) -> AnalyzedFile {
        let model = FileModel::build(src);
        let parsed = parse(&model);
        let sites = collect_sites(&model, &rules);
        AnalyzedFile {
            path: path.to_string(),
            rules,
            model,
            parsed,
            sites,
        }
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
        let entries = vec![EntrySpec::new("", Some("Agent"), "ingest")];
        let config = ProgramConfig {
            panic_entries: entries,
            ..Default::default()
        };

        // Per-file panic rule on: the pass stays quiet.
        let files = vec![analyze("a.rs", src, covered)];
        let graph = CallGraph::build(&files);
        let mut out = Vec::new();
        panic_reach(&files, &graph, &config, &mut out);
        assert!(out.is_empty(), "{out:#?}");

        // Per-file panic rule off (another crate): the pass reports.
        let files = vec![analyze("a.rs", src, RuleSet::default())];
        let graph = CallGraph::build(&files);
        let mut out = Vec::new();
        panic_reach(&files, &graph, &config, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(
            out[0].message.contains("a.rs:1 → a.rs:2"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn determinism_taint_honors_sinks() {
        let a = analyze(
            "crates/sim/src/cluster.rs",
            "use cpi2_telemetry::observe_tick;\n\
             impl Cluster { fn step(&mut self) { observe_tick(); } }",
            RuleSet::default(),
        );
        let b = analyze(
            "crates/telemetry/src/registry.rs",
            "pub fn observe_tick() { let t = Instant::now(); }",
            RuleSet::default(),
        );
        let config = ProgramConfig {
            determinism_entries: vec![EntrySpec::new("crates/sim/", Some("Cluster"), "step")],
            determinism_sinks: vec!["crates/telemetry/".to_string()],
            ..Default::default()
        };
        let files = vec![a, b];
        let graph = CallGraph::build(&files);
        let mut out = Vec::new();
        determinism_taint(&files, &graph, &config, &mut out);
        assert!(out.is_empty(), "sink not traversed: {out:#?}");

        let config2 = ProgramConfig {
            determinism_sinks: Vec::new(),
            ..config
        };
        let mut out = Vec::new();
        determinism_taint(&files, &graph, &config2, &mut out);
        assert_eq!(out.len(), 1, "without the sink the clock is tainted");
        assert_eq!(out[0].rule, Rule::DeterminismTaint);
    }
}
