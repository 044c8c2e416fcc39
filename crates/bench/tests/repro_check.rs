//! Drives the real `repro` binary: spawn → capture → compare against the
//! committed `results/`, end to end, on the three cheapest entries. The
//! compare step's failure modes are unit-tested in `cpi2_bench::repro`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The repository root, where `results/` lives.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn repro_in(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn repro")
}

fn repro(args: &[&str]) -> Output {
    repro_in(&root(), args)
}

#[test]
fn check_passes_on_committed_results() {
    let out = repro(&["check", "tab02_params", "fig01_tenancy", "fig06_pipeline"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repro check failed:\n{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "repro check OK (3 entries match results/)\n"
    );
}

#[test]
fn run_prints_what_is_committed() {
    let out = repro(&["run", "tab02_params"]);
    assert!(out.status.success());
    let committed = std::fs::read(root().join("results/tab02_params.txt")).unwrap();
    assert_eq!(out.stdout, committed);
}

#[test]
fn a_failed_entry_fails_the_run() {
    // A directory squatting on a figure's path: the entry cannot write
    // its SVG, panics, and `record` must say so rather than exit 0.
    let cwd = std::env::temp_dir().join(format!("cpi2-repro-failing-{}", std::process::id()));
    std::fs::create_dir_all(cwd.join("results/svg/fig_1a_tasks_per_machine_cdf.svg")).unwrap();
    // What the last good run recorded must survive the failed one whole.
    let record = cwd.join("results/fig01_tenancy.txt");
    std::fs::write(&record, "the last good record\n").unwrap();
    let out = repro_in(&cwd, &["record", "fig01_tenancy"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("repro FAIL: fig01_tenancy"), "{stderr}");
    assert_eq!(
        std::fs::read(&record).unwrap(),
        b"the last good record\n",
        "a failed entry overwrote its committed record"
    );
    assert!(!record.with_extension("txt.partial").exists());
    std::fs::remove_dir_all(&cwd).unwrap();
}

#[test]
fn misuse_exits_2_and_lists_the_entries() {
    for args in [
        &["chek"][..],
        &["run"],
        &["run", "fig1_tenancy"],
        &["check", "--all"],
        &[],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("fig01_tenancy"), "{args:?}: {stderr}");
        if let Some(bad) = args.last() {
            assert!(stderr.contains(bad), "{args:?} not named in: {stderr}");
        }
    }
}
