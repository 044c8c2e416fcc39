//! The `cpi2-lint` binary's contract: no mode flags, findings as
//! `path:line: rule: message` on stdout, exit 0 (clean) / 1 (findings) /
//! 2 (usage or scan error).

use std::process::{Command, Output};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cpi2-lint"))
        .args(args)
        .output()
        .expect("spawn cpi2-lint")
}

#[test]
fn no_arguments_scans_this_workspace_clean() {
    let out = lint(&[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(out.stdout.is_empty(), "a clean scan prints no finding");
    assert!(stderr.contains("workspace clean"), "{stderr}");
}

#[test]
fn removed_flags_are_usage_errors() {
    for args in [
        &["--format", "sarif"][..],
        &["--changed"],
        &["--baseline", "x"],
        &["--write-baseline", "x"],
        &["--workspace"],
        &["--root"],
    ] {
        let out = lint(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: cpi2-lint"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn findings_print_one_per_line_and_exit_one() {
    // A one-file workspace whose only fn breaks the panic rule.
    let root = std::env::temp_dir().join(format!("cpi2-lint-cli-{}", std::process::id()));
    let src = root.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("create fixture workspace");
    std::fs::write(
        src.join("x.rs"),
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    )
    .expect("write fixture");
    let out = lint(&["--root", root.to_str().expect("utf-8 temp path")]);
    std::fs::remove_dir_all(&root).expect("remove fixture workspace");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("crates/core/src/x.rs:2: panic: "),
        "{stdout}"
    );
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
}
