//! CLI entry point: `cargo run -p cpi2-lint`.

use cpi2_lint::{lint_workspace, render_text};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cpi2-lint [--root <dir>]\n\
         \n\
         Lints the cpi2 workspace for determinism, panic-freedom, lock\n\
         discipline and telemetry hygiene: per-file rules plus whole-program\n\
         passes (transitive hot-path allocation, panic/determinism\n\
         reachability, lock-order cycles). Prints one\n\
         `path:line: rule: message` per unwaived finding and exits non-zero\n\
         when there is any."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match args.as_slice() {
        // Default root: the workspace containing this crate
        // (crates/lint/../..), so the binary works from any cwd under
        // `cargo run -p cpi2-lint`.
        [] => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(".."),
        [flag, dir] if flag == "--root" => PathBuf::from(dir),
        _ => return usage(),
    };

    let findings = match lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cpi2-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    print!("{}", render_text(&findings));
    if findings.is_empty() {
        eprintln!("cpi2-lint: workspace clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("cpi2-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
