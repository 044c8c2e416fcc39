//! Tier-1 gate: the workspace must be free of unwaived lint findings.
//!
//! This is the same check `cargo run -p cpi2-lint` performs, wired into
//! `cargo test` so a banned pattern (an unwaived `Instant::now()` in the
//! simulator, a `HashMap` iteration in the scheduler, an `.unwrap()`
//! reachable from `Agent::ingest`, a lock-order cycle, …) fails CI with
//! a `path:line` diagnostic and its offending call path.

use cpi2_lint::reach::find_entries;
use cpi2_lint::{lint_workspace, load_workspace, render_text, workspace_panic_entries};
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

#[test]
fn workspace_has_no_unwaived_findings() {
    let findings = lint_workspace(&root()).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "cpi2-lint found {} finding(s):\n{}",
        findings.len(),
        render_text(&findings)
    );
}

/// A panic-reach entry that matches no function roots nothing: renaming
/// `Agent::ingest` or `OutlierDetector::observe` would silently drop its
/// closure from the check.
#[test]
fn every_panic_entry_names_a_function() {
    let files = load_workspace(&root()).expect("workspace scan");
    for spec in workspace_panic_entries() {
        assert!(
            !find_entries(&files, std::slice::from_ref(&spec)).is_empty(),
            "panic-reach entry matches no function: {spec:?}"
        );
    }
}
