//! Fixture-based self-tests: for every rule, a known-bad snippet must
//! fire and a known-good snippet must come back clean — so a regression
//! in the lexer or a rule pass is caught here, not by a silently-green
//! workspace gate.

use cpi2_lint::{
    analyze_file, lint_program, lint_source, ruleset_for, EntrySpec, Finding, Rule, RuleSet,
};

fn fixture_src(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{}.rs", env!("CARGO_MANIFEST_DIR"), name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn lint_fixture_with(name: &str, rules: &RuleSet) -> Vec<Finding> {
    lint_source(&format!("{name}.rs"), &fixture_src(name), rules)
}

/// Runs a fixture through the whole-program passes with per-file rules
/// off, so any finding is the interprocedural analysis speaking.
fn lint_program_fixture(name: &str, panic_entries: &[EntrySpec]) -> Vec<Finding> {
    let file = analyze_file(
        &format!("{name}.rs"),
        &fixture_src(name),
        RuleSet::default(),
    );
    lint_program(&[file], panic_entries)
}

fn lint_fixture(name: &str) -> Vec<Finding> {
    lint_fixture_with(name, &RuleSet::all())
}

/// Asserts the bad fixture fires `rule` (at least `min` times) and the
/// clean fixture produces no findings at all under the full rule set.
fn assert_pair(rule: Rule, min: usize) {
    let slug = rule.name().replace('-', "_");
    let bad = lint_fixture(&format!("{slug}_bad"));
    let hits = bad.iter().filter(|f| f.rule == rule).count();
    assert!(
        hits >= min,
        "{slug}_bad.rs: expected ≥{min} `{rule}` finding(s), got {hits}:\n{bad:#?}"
    );
    for f in &bad {
        assert!(f.line > 0, "finding must carry a line: {f:?}");
    }
    let clean = lint_fixture(&format!("{slug}_clean"));
    assert!(
        clean.is_empty(),
        "{slug}_clean.rs must be clean, got:\n{clean:#?}"
    );
}

#[test]
fn clock_fixture_pair() {
    assert_pair(Rule::Clock, 2);
}

#[test]
fn thread_spawn_fixture_pair() {
    assert_pair(Rule::ThreadSpawn, 1);
}

#[test]
fn map_iter_fixture_pair() {
    assert_pair(Rule::MapIter, 2);
}

#[test]
fn panic_fixture_pair() {
    assert_pair(Rule::Panic, 4);
}

#[test]
fn slice_index_fixture_pair() {
    assert_pair(Rule::SliceIndex, 2);
}

#[test]
fn nested_lock_fixture_pair() {
    assert_pair(Rule::NestedLock, 1);
}

#[test]
fn metric_name_fixture_pair() {
    assert_pair(Rule::MetricName, 1);
}

#[test]
fn hot_path_alloc_fixture_pair() {
    // Four container allocations plus the owned-copy family:
    // `.clone()`, `format!`, `.to_owned()`, `.to_string()`, `.to_vec()`.
    assert_pair(Rule::HotPathAlloc, 9);
}

#[test]
fn serve_scope_fixture_pair() {
    // Handler-side serve modules (state.rs, routes.rs) are clock- and
    // thread-free; the bad fixture fires both rules under their ruleset.
    let handler_rules = ruleset_for("crates/serve/src/state.rs").expect("serve in scope");
    let bad = lint_fixture_with("serve_scope_bad", &handler_rules);
    assert!(
        bad.iter().any(|f| f.rule == Rule::Clock),
        "serve handler modules must fire `clock`:\n{bad:#?}"
    );
    assert!(
        bad.iter().any(|f| f.rule == Rule::ThreadSpawn),
        "serve handler modules must fire `thread-spawn`:\n{bad:#?}"
    );

    // The same source under server.rs's ruleset is sanctioned: that
    // module owns socket timeouts and the worker pool.
    let socket_rules = ruleset_for("crates/serve/src/server.rs").expect("serve in scope");
    let waived = lint_fixture_with("serve_scope_bad", &socket_rules);
    assert!(
        waived.is_empty(),
        "server.rs ruleset must sanction clocks and spawns, got:\n{waived:#?}"
    );

    // The snapshot-swap idiom is clean even under the strict ruleset.
    let clean = lint_fixture_with("serve_scope_clean", &handler_rules);
    assert!(
        clean.is_empty(),
        "serve_scope_clean.rs must be clean, got:\n{clean:#?}"
    );
}

/// Asserts the bad fixture fires `rule` with a multi-hop call path
/// (`file:line → file:line`) in its message and the clean twin is
/// silent under the same panic entries.
fn assert_program_pair(rule: Rule, panic_entries: &[EntrySpec]) {
    let slug = rule.name().replace('-', "_");
    let bad_name = format!("{slug}_bad");
    let bad = lint_program_fixture(&bad_name, panic_entries);
    let hit = bad
        .iter()
        .find(|f| f.rule == rule)
        .unwrap_or_else(|| panic!("{bad_name}.rs: expected a `{rule}` finding:\n{bad:#?}"));
    assert!(
        hit.message.contains(" → "),
        "{bad_name}.rs: pass findings must print the call path:\n{}",
        hit.message
    );
    // Every hop is a `file:line` reference into the fixture.
    let hops = hit
        .message
        .split(" → ")
        .filter(|h| h.contains(&format!("{bad_name}.rs:")))
        .count();
    assert!(
        hops >= 2,
        "{bad_name}.rs: expected ≥2 `file:line` hops, message:\n{}",
        hit.message
    );
    let clean = lint_program_fixture(&format!("{slug}_clean"), panic_entries);
    assert!(
        clean.is_empty(),
        "{slug}_clean.rs must be clean, got:\n{clean:#?}"
    );
}

#[test]
fn transitive_alloc_fixture_pair() {
    // Hot-path entries come from `// lint: hot-path` markers.
    assert_program_pair(Rule::TransitiveAlloc, &[]);
}

#[test]
fn panic_reach_fixture_pair() {
    assert_program_pair(
        Rule::PanicReach,
        &[EntrySpec::new("", Some("Agent"), "ingest")],
    );
}

#[test]
fn lock_cycle_fixture_pair() {
    assert_program_pair(Rule::LockCycle, &[]);
}

#[test]
fn receiver_types_prune_only_false_edges() {
    // A std-typed receiver and its guard never land on a workspace
    // method of the same name...
    for name in [
        "lock_cycle_std_receiver_clean",
        "transitive_alloc_std_receiver_clean",
    ] {
        let findings = lint_program_fixture(name, &[]);
        assert!(
            findings.is_empty(),
            "{name}.rs must be clean, got:\n{findings:#?}"
        );
    }
    // ...while a receiver whose type is not visible keeps the name-only
    // fan-out.
    let bad = lint_program_fixture("transitive_alloc_untyped_receiver_bad", &[]);
    assert!(
        bad.iter()
            .any(|f| f.rule == Rule::TransitiveAlloc && f.message.contains(" → ")),
        "the untyped receiver must still reach the allocation:\n{bad:#?}"
    );
}

#[test]
fn waiver_without_reason_still_fails() {
    let findings = lint_fixture("waiver_noreason");
    assert!(
        findings.iter().any(|f| f.rule == Rule::Waiver),
        "reasonless waiver must be reported as a `waiver` finding:\n{findings:#?}"
    );
    // The reasonless waiver must not silently suppress nothing AND pass:
    // the file as a whole still fails.
    assert!(!findings.is_empty());
}

#[test]
fn findings_render_with_path_line_rule() {
    let findings = lint_fixture("panic_bad");
    let first = findings.first().expect("panic_bad fires");
    let line = first.to_string();
    assert!(
        line.starts_with("panic_bad.rs:") && line.contains(": panic: "),
        "diagnostic format `path:line: rule: message`, got {line:?}"
    );
}
