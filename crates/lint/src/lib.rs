//! `cpi2-lint`: workspace invariant linter.
//!
//! Statically enforces the properties the test suite otherwise only
//! checks dynamically:
//!
//! - **D — determinism** (`cpi2-sim`, `cpi2-core`, `cpi2-pipeline`,
//!   `cpi2-stats`, and clocks and threads in `cpi2-serve`): `clock`,
//!   no wall-clock reads outside the telemetry-gated allowlist;
//!   `thread-spawn`, none outside the worker pool and serve's socket
//!   modules; `map-iter`, no iteration over `HashMap`/`HashSet`.
//! - **S — panic-freedom** (`cpi2-core`, `cpi2-perf`): `panic`, no
//!   `.unwrap()`, `.expect(` or `panic!`-family macro; `slice-index`,
//!   no `[…]` indexing.
//! - **L — lock discipline**: `nested-lock`, no lock acquisition while
//!   a prior guard is live in the same function scope.
//! - **T — telemetry hygiene**: `metric-name`, metric names must be
//!   string literals.
//! - **P — hot-path allocation**: `hot-path-alloc`, fns annotated
//!   `// lint: hot-path` must not allocate per call (`Vec::new`,
//!   `with_capacity`, `.collect()`, `vec!`) or make owned copies
//!   (`.clone()`, `.to_string()`, `.to_owned()`, `.to_vec()`,
//!   `format!`) — they write into caller-owned scratch buffers and
//!   compare through borrows instead.
//!
//! On top of the per-file rules, three **whole-program passes** run
//! over a workspace call graph (lightweight item/fn parser; resolution
//! by name, narrowed by the receiver's type where the file spells it
//! out, with conservative fan-out where it does not — see [`parser`]
//! and [`callgraph`]):
//!
//! - **transitive-alloc** — the full closure of every
//!   `// lint: hot-path` fn must be allocation-free;
//! - **panic-reach** — no panic site reachable from the core/perf
//!   entry points (`Agent::ingest`, `Machine::tick`, sampler `poll`);
//! - **lock-cycle** — no cycle in the interprocedural lock-order graph.
//!
//! What each rule has caught, and which test holds the same invariant,
//! is DESIGN.md §8's audit table; rules whose invariant a test already
//! held and that never caught anything were deleted.
//!
//! Findings are waivable inline with
//! `// lint: allow(<rule>) — <reason>`; a waiver without a reason is
//! itself a finding, as is a waiver that suppresses nothing (workspace
//! runs only — dead waivers rot).

pub mod callgraph;
pub mod lexer;
pub mod lockorder;
pub mod model;
pub mod parser;
pub mod reach;
pub mod rules;

pub use callgraph::{AnalyzedFile, CallGraph};
pub use reach::EntrySpec;
pub use rules::{Finding, Rule, RuleSet};

use model::FileModel;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lints one file's source text under `rules`; `path` is used only for
/// reporting. Per-file rules only — the whole-program passes need
/// [`lint_program`].
pub fn lint_source(path: &str, src: &str, rules: &RuleSet) -> Vec<Finding> {
    rules::check_sites(&analyze_file(path, src, rules.clone()), &mut Vec::new())
}

/// The rule set for a workspace-relative path, or `None` if the file is
/// out of scope (vendored code, the linter itself, generated files).
///
/// This table is the policy: which invariants each crate must uphold.
pub fn ruleset_for(rel: &str) -> Option<RuleSet> {
    let rel = rel.replace('\\', "/");
    if rel.starts_with("vendor/") || rel.starts_with("crates/lint/") {
        return None;
    }
    let mut rs = RuleSet::default();
    let determinism = |rs: &mut RuleSet| {
        rs.clock = true;
        rs.spawn = true;
        rs.map_iter = true;
    };
    if rel.starts_with("crates/sim/") {
        // The fleet simulator commits state that must be bit-identical
        // across parallelism levels.
        determinism(&mut rs);
        rs.locks = true;
        rs.metric_name = true;
        if rel.ends_with("/pool.rs") {
            // Telemetry-gated worker timing: wall time is read only to be
            // *reported*, never committed to sim state. The worker pool is
            // also the one sanctioned spawn site.
            rs.clock_line_allow = vec!["measure.then(Instant::now)", "use std::time::Instant"];
            rs.spawn_allowed = true;
        }
    } else if rel.starts_with("crates/core/") {
        // The agent runs on every machine of the cluster: deterministic
        // *and* panic-free.
        determinism(&mut rs);
        rs.panics = true;
        rs.slice_index = true;
        rs.locks = true;
        rs.metric_name = true;
    } else if rel.starts_with("crates/pipeline/") {
        determinism(&mut rs);
        rs.locks = true;
        rs.metric_name = true;
    } else if rel.starts_with("crates/stats/") {
        determinism(&mut rs);
    } else if rel.starts_with("crates/perf/") {
        // Sampler hot path must not panic. Lock discipline is off: the
        // perf counter API's `.read()` is not a lock.
        rs.panics = true;
        rs.slice_index = true;
        rs.metric_name = true;
    } else if rel.starts_with("crates/telemetry/") {
        // Telemetry legitimately reads clocks and forwards dynamic names
        // internally; only lock discipline applies.
        rs.locks = true;
    } else if rel.starts_with("crates/serve/") {
        // The control plane must never perturb the tick stream: state
        // shared with handlers is snapshot-swapped (lock discipline),
        // and everything off the socket path stays clock-free and
        // thread-free.
        rs.clock = true;
        rs.spawn = true;
        rs.map_iter = true;
        rs.locks = true;
        rs.metric_name = true;
        if rel.ends_with("/server.rs")
            || rel.ends_with("/harness.rs")
            || rel.ends_with("/eventloop.rs")
        {
            // The sanctioned homes for wall time and threads: shard
            // spawning (server), stamping socket events and timing
            // handlers (eventloop), and tick pacing / publish-cost
            // measurement (harness). Wall time there is never committed
            // to sim state. `http.rs`, `poll.rs` and `conn.rs` stay
            // strict: wire grammar, a pollfd wrapper and the connection
            // state machine (deadlines on a stamp it is handed) need
            // neither clocks nor threads.
            rs.spawn_allowed = true;
            rs.clock = false;
        }
    } else if rel == "crates/bench/src/sampling.rs" {
        // The statistical fleet mode draws everything — stratification,
        // shuffle order, allocation — from seeded RNG: a sampled run
        // must be reproducible from (seed, budget) alone. No clocks,
        // no map-iteration order, no threads.
        determinism(&mut rs);
        rs.metric_name = true;
    } else if rel.starts_with("crates/bench/src/experiments/") {
        // `repro check` compares every entry's output byte for byte, so
        // an entry is a function of the code alone: no clock, no
        // map-iteration order, no threads.
        determinism(&mut rs);
        rs.metric_name = true;
        if rel.ends_with("/correlation_cost.rs") {
            // The one entry about wall time: it asserts §4.2's 100 µs
            // budget and prints no measurement.
            rs.clock_line_allow = vec!["Instant::now()", "use std::time::Instant"];
        }
    } else if rel.starts_with("crates/workloads/")
        || rel.starts_with("crates/bench/")
        || rel.starts_with("src/")
    {
        rs.metric_name = true;
    } else {
        return None;
    }
    Some(rs)
}

/// The entry points whose closures must stay panic-free.
pub fn workspace_panic_entries() -> Vec<EntrySpec> {
    vec![
        // The agent's per-window entry: runs on every machine.
        EntrySpec::new("crates/core/", Some("Agent"), "ingest"),
        EntrySpec::new("crates/core/", Some("OutlierDetector"), "observe"),
        // The simulator hot loop.
        EntrySpec::new("crates/sim/", Some("Machine"), "tick"),
        // Both sampler variants' poll paths.
        EntrySpec::new("crates/perf/", None, "poll"),
    ]
}

/// Analyzes one source file into the form the whole-program passes
/// consume.
pub fn analyze_file(path: &str, src: &str, rules: RuleSet) -> AnalyzedFile {
    let model = FileModel::build(src);
    let parsed = parser::parse(&model);
    let sites = rules::collect_sites(&model, &parsed, &rules);
    AnalyzedFile {
        path: path.to_string(),
        rules,
        model,
        parsed,
        sites,
    }
}

/// Lints a whole program: per-file rules on every file, then the three
/// interprocedural passes over the shared call graph, then
/// unused-waiver detection (a waiver that suppresses nothing is dead
/// documentation and becomes a finding itself).
pub fn lint_program(files: &[AnalyzedFile], panic_entries: &[EntrySpec]) -> Vec<Finding> {
    let mut findings = Vec::new();
    // (file idx, waiver line, rule name) consumed anywhere.
    let mut used: BTreeSet<(usize, usize, String)> = BTreeSet::new();

    // Per-file rules.
    for (fi, file) in files.iter().enumerate() {
        let mut file_used = Vec::new();
        findings.extend(rules::check_sites(file, &mut file_used));
        for (line, rule) in file_used {
            used.insert((fi, line, rule));
        }
    }

    // Whole-program passes.
    let graph = CallGraph::build(files);
    let mut pass_findings = Vec::new();
    reach::transitive_alloc(files, &graph, &mut pass_findings);
    reach::panic_reach(files, &graph, panic_entries, &mut pass_findings);
    lockorder::lock_order(files, &graph, &mut pass_findings);
    for pf in pass_findings {
        let file = &files[pf.file];
        let mut file_used = Vec::new();
        if let Some(f) = rules::waiver_filter(
            &file.path,
            &file.model,
            pf.line,
            &pf.waiver_names,
            pf.rule,
            pf.message,
            &mut file_used,
        ) {
            findings.push(f);
        }
        for (line, rule) in file_used {
            used.insert((pf.file, line, rule));
        }
    }

    // Unused waivers: every syntactically-valid waiver must suppress
    // something, per-file or transitive.
    for (fi, file) in files.iter().enumerate() {
        for ws in file.model.waivers.values() {
            for w in ws {
                if !Rule::is_waivable(&w.rule) {
                    continue; // already a `waiver` finding (unknown rule)
                }
                if !used.contains(&(fi, w.line, w.rule.clone())) {
                    findings.push(Finding {
                        path: file.path.clone(),
                        line: w.line,
                        rule: Rule::Waiver,
                        message: format!(
                            "unused waiver: `lint: allow({})` suppresses nothing here — \
                             remove it (or fix the rule name)",
                            w.rule
                        ),
                    });
                }
            }
        }
    }

    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings.dedup();
    findings
}

/// Recursively collects `.rs` files under `dir` into `out`.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Loads and analyzes every in-scope source file under the workspace
/// `root`.
///
/// Only `src/` trees are scanned (crate `tests/` and `benches/` dirs are
/// integration-test code and out of scope by design).
pub fn load_workspace(root: &Path) -> io::Result<Vec<AnalyzedFile>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for c in crate_dirs {
            let src = c.join("src");
            if src.is_dir() {
                walk(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut files)?;
    }

    let mut out = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(rules) = ruleset_for(&rel) else {
            continue;
        };
        let src = fs::read_to_string(&file)?;
        out.push(analyze_file(&rel, &src, rules));
    }
    Ok(out)
}

/// Lints every in-scope source file under the workspace `root`:
/// per-file rules plus the whole-program passes under
/// [`workspace_panic_entries`].
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let files = load_workspace(root)?;
    Ok(lint_program(&files, &workspace_panic_entries()))
}

/// Renders findings one per line as `path:line: rule: message`.
pub fn render_text(findings: &[Finding]) -> String {
    findings.iter().map(|f| format!("{f}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_table_covers_the_workspace() {
        let sim = ruleset_for("crates/sim/src/scheduler.rs").expect("sim in scope");
        assert!(sim.map_iter && sim.clock && !sim.panics);
        let core = ruleset_for("crates/core/src/agent.rs").expect("core in scope");
        assert!(core.map_iter && core.panics && core.locks);
        let perf = ruleset_for("crates/perf/src/sampler.rs").expect("perf in scope");
        assert!(perf.panics && !perf.locks && !perf.map_iter);
        assert!(ruleset_for("vendor/serde/src/lib.rs").is_none());
        assert!(ruleset_for("crates/lint/src/lexer.rs").is_none());
        let tel = ruleset_for("crates/telemetry/src/registry.rs").expect("telemetry in scope");
        assert!(tel.locks && !tel.clock);
        let serve = ruleset_for("crates/serve/src/state.rs").expect("serve in scope");
        assert!(serve.clock && serve.spawn && serve.map_iter && serve.locks);
        assert!(serve.metric_name && !serve.spawn_allowed);
        // The statistical fleet mode is held to determinism rules the
        // rest of the bench harness is exempt from: sampling must be
        // reproducible from (seed, budget) alone.
        let sampling = ruleset_for("crates/bench/src/sampling.rs").expect("sampling in scope");
        assert!(sampling.clock && sampling.map_iter && sampling.spawn);
        assert!(sampling.metric_name && !sampling.panics);
        let bench = ruleset_for("crates/bench/src/bin/repro.rs").expect("bench in scope");
        assert!(!bench.clock && !bench.map_iter && bench.metric_name);
        // So is every `repro` entry: its output is compared byte for
        // byte. Only the §4.2 cost entry may read a clock, and `repro`
        // itself (which spawns and compares) is outside the set.
        let entry = ruleset_for("crates/bench/src/experiments/fig04_tiers.rs").expect("in scope");
        assert!(entry.clock && entry.map_iter && entry.spawn);
        assert!(entry.clock_line_allow.is_empty());
        let cost =
            ruleset_for("crates/bench/src/experiments/correlation_cost.rs").expect("in scope");
        assert!(cost.clock && !cost.clock_line_allow.is_empty());
        let repro = ruleset_for("crates/bench/src/repro.rs").expect("bench in scope");
        assert!(!repro.clock && !repro.spawn && !repro.map_iter);
    }

    #[test]
    fn serve_socket_modules_get_spawn_and_clock_allowances() {
        for sanctioned in [
            "crates/serve/src/server.rs",
            "crates/serve/src/harness.rs",
            "crates/serve/src/eventloop.rs",
        ] {
            let rs = ruleset_for(sanctioned).expect("serve in scope");
            assert!(rs.spawn_allowed && !rs.clock, "{sanctioned}");
            assert!(rs.locks && rs.map_iter, "{sanctioned}");
        }
        // The wire grammar, pollfd wrapper and connection state machine
        // stay strict — no clock or spawn allowance leaks onto the rest
        // of the socket path.
        for strict in [
            "crates/serve/src/http.rs",
            "crates/serve/src/poll.rs",
            "crates/serve/src/conn.rs",
        ] {
            let rs = ruleset_for(strict).expect("serve in scope");
            assert!(!rs.spawn_allowed && rs.clock, "{strict}");
        }
        let routes = ruleset_for("crates/serve/src/routes.rs").expect("serve in scope");
        assert!(!routes.spawn_allowed && routes.clock);
    }

    #[test]
    fn pool_rs_gets_spawn_and_clock_allowances() {
        let pool = ruleset_for("crates/sim/src/pool.rs").expect("pool in scope");
        assert!(pool.spawn_allowed);
        assert!(!pool.clock_line_allow.is_empty());
        for strict in ["crates/sim/src/machine.rs", "crates/sim/src/cluster.rs"] {
            let rs = ruleset_for(strict).expect("sim in scope");
            assert!(
                !rs.spawn_allowed && rs.clock_line_allow.is_empty(),
                "{strict}"
            );
        }
    }

    #[test]
    fn unused_waiver_is_a_finding_in_program_runs() {
        let src = "// lint: allow(panic) — stale: nothing here panics\n\
                   pub fn quiet() -> u32 { 1 }\n";
        let files = vec![analyze_file(
            "crates/core/src/x.rs",
            src,
            ruleset_for("crates/core/src/x.rs").expect("in scope"),
        )];
        let findings = lint_program(&files, &[]);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].rule, Rule::Waiver);
        assert!(findings[0].message.contains("unused waiver"));
    }

    #[test]
    fn used_waiver_is_not_reported_unused() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n\
                   // lint: allow(panic) — contract: caller checked is_some\n\
                   x.unwrap()\n\
                   }\n";
        let files = vec![analyze_file(
            "crates/core/src/x.rs",
            src,
            ruleset_for("crates/core/src/x.rs").expect("in scope"),
        )];
        let findings = lint_program(&files, &[]);
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
