//! Tier-1 gate: the workspace must be free of unwaived lint findings.
//!
//! This is the same check `cargo run -p cpi2-lint` performs, wired into
//! `cargo test` so a banned pattern (an unwaived `Instant::now()` in the
//! simulator, a `HashMap` iteration in the scheduler, an `.unwrap()`
//! reachable from `Agent::ingest`, a lock-order cycle, …) fails CI with
//! a `path:line` diagnostic and its offending call path.

use cpi2_lint::{lint_workspace, render_text};
use std::path::PathBuf;

#[test]
fn workspace_has_no_unwaived_findings() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let findings = lint_workspace(&root).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "cpi2-lint found {} finding(s):\n{}",
        findings.len(),
        render_text(&findings)
    );
}
