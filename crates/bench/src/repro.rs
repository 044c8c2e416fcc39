//! `repro`: run, record and check the [`EXPERIMENTS`] table. Three verbs,
//! no flags; `results/` is relative to the working directory, so run it
//! from the repository root.
//!
//! * `repro run <name>…|all` prints the named entries, one after another.
//! * `repro record [<name>…]` (none: all) rewrites `results/<name>.txt`
//!   — the entry's stdout; progress stays on stderr. An entry that fails
//!   keeps its old record.
//! * `repro check [<name>…]` records into a temporary directory instead
//!   and compares it byte for byte with `results/`: it fails with the
//!   file and first differing line, on a failed shape assertion, and on a
//!   file or directory under `results/` that no entry owns.
//!
//! Each entry runs as a child of this executable (`repro entry <name>` —
//! the spawn protocol, not a verb for people), so its
//! stdout goes where the parent points it without a sink threaded through
//! [`crate::plot`], and a failed assertion fails one entry, not the run.

use crate::experiments::{Experiment, EXPERIMENTS};
use std::collections::BTreeSet;
use std::fs::{self, File};
use std::io;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Entry point of the `repro` binary; `args` excludes the program name.
/// Exits 0 on success, 1 when an entry failed or differs, 2 on misuse.
pub fn main(args: &[String]) -> ExitCode {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let failures = match args.as_slice() {
        ["entry", name] => select(&[name]).map(|e| {
            (e[0].run)();
            Ok(Vec::new())
        }),
        ["run", "all"] => select(&[]).map(|e| run(&e, None)),
        ["run", names @ ..] if !names.is_empty() => select(names).map(|e| run(&e, None)),
        ["record", names @ ..] => select(names).map(|e| run(&e, Some(Path::new("results")))),
        ["check", names @ ..] => select(names).map(|e| check(&e)),
        _ => Err(format!("cannot do {args:?}")),
    };
    match failures {
        Ok(Ok(failures)) if failures.is_empty() => ExitCode::SUCCESS,
        Ok(Ok(failures)) => {
            for failure in failures {
                eprintln!("repro FAIL: {failure}");
            }
            ExitCode::from(1)
        }
        Ok(Err(e)) => {
            eprintln!("repro: {e}");
            ExitCode::from(1)
        }
        Err(misuse) => {
            eprintln!("repro: {misuse}");
            eprintln!("usage: repro run <name>…|all | record [<name>…] | check [<name>…]");
            for e in EXPERIMENTS {
                eprintln!("  {:<22} {}", e.name, e.about);
            }
            ExitCode::from(2)
        }
    }
}

/// The entries `names` selects, in the order given; none selects all.
fn select(names: &[&str]) -> Result<Vec<&'static Experiment>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.iter().collect());
    }
    let find = |name: &&str| EXPERIMENTS.iter().find(|e| e.name == *name);
    names
        .iter()
        .map(|name| find(name).ok_or_else(|| format!("no entry named {name:?}")))
        .collect()
}

/// Runs `entries` as children and returns the names of those that exited
/// non-zero (each has said why on stderr). With a `dir`, stdout goes to
/// `dir/<name>.txt`, at most `available_parallelism()` children at a
/// time; without, children print
/// straight through, one at a time. Stderr is inherited either way:
/// progress and panic messages show as they happen.
fn run(entries: &[&'static Experiment], dir: Option<&Path>) -> io::Result<Vec<String>> {
    let exe = std::env::current_exe()?;
    if let Some(dir) = dir {
        fs::create_dir_all(dir)?;
    }
    let run_one = |e: &Experiment| -> io::Result<bool> {
        let mut child = Command::new(&exe);
        child.arg("entry").arg(e.name).stdin(Stdio::null());
        let ok = match dir {
            None => child.status()?.success(),
            Some(dir) => {
                // Stdout goes to a sibling path that takes the record's
                // place only on success: a failed entry leaves what
                // `<name>.txt` held as it was.
                let record = dir.join(format!("{}.txt", e.name));
                let partial = record.with_extension("txt.partial");
                child.stdout(File::create(&partial)?);
                let ok = child.status()?.success();
                if ok {
                    fs::rename(&partial, &record)?;
                } else {
                    fs::remove_file(&partial)?;
                }
                ok
            }
        };
        eprintln!("repro: {} {}", e.name, if ok { "done" } else { "FAILED" });
        Ok(ok)
    };

    let parallel = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = if dir.is_some() { parallel } else { 1 };
    let (next, outcomes) = (AtomicUsize::new(0), Mutex::new(Vec::new()));
    std::thread::scope(|s| {
        for _ in 0..workers.min(entries.len()) {
            s.spawn(|| {
                while let Some(e) = entries.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let ok = run_one(e);
                    outcomes
                        .lock()
                        .expect("a push cannot panic")
                        .push((e.name, ok));
                }
            });
        }
    });
    let mut failed = Vec::new();
    for (name, ok) in outcomes.into_inner().expect("a push cannot panic") {
        if !ok? {
            failed.push(name.to_string());
        }
    }
    failed.sort_unstable(); // Children finish in no particular order.
    Ok(failed)
}

fn check(entries: &[&'static Experiment]) -> io::Result<Vec<String>> {
    let dir = std::env::temp_dir().join(format!("cpi2-repro-{}", std::process::id()));
    let failed = run(entries, Some(&dir))?;
    let failures = compare(Path::new("results"), &dir, &failed)?;
    if failures.is_empty() {
        fs::remove_dir_all(&dir)?;
        println!("repro check OK ({} entries match results/)", entries.len());
    } else {
        eprintln!("repro: what this run recorded is kept in {}", dir.display());
    }
    Ok(failures)
}

/// Compares what a run `recorded` with the committed record `expected`,
/// returning one line per failure: an entry that `failed` (what it
/// printed before its assertion is not compared), a recorded file that
/// differs or is not committed, and a committed file or directory no
/// entry owns. An entry owns `<name>.txt` alone, so every directory is
/// an orphan.
pub fn compare(expected: &Path, recorded: &Path, failed: &[String]) -> io::Result<Vec<String>> {
    let mut failures: Vec<String> = failed
        .iter()
        .map(|name| format!("{name}: exited non-zero (its message is above)"))
        .collect();
    let (committed, produced) = (names(expected)?, names(recorded)?);
    for file in &produced {
        let entry = file.strip_suffix(".txt");
        if entry.is_some_and(|name| failed.iter().any(|f| f == name)) {
            continue;
        }
        if !committed.contains(file) {
            failures.push(format!("{file}: recorded, but not committed"));
            continue;
        }
        let (want, got) = (
            fs::read(expected.join(file))?,
            fs::read(recorded.join(file))?,
        );
        if let Some(difference) = first_difference(&want, &got) {
            failures.push(format!("{file}: {difference}"));
        }
    }
    for name in committed.difference(&produced) {
        let entry = name.strip_suffix(".txt");
        if !entry.is_some_and(|entry| EXPERIMENTS.iter().any(|e| e.name == entry)) {
            failures.push(format!("{name}: committed, but no entry produces it"));
        }
    }
    Ok(failures)
}

/// Names of what lies directly under `dir`; a directory's ends in `/`.
fn names(dir: &Path) -> io::Result<BTreeSet<String>> {
    let unreadable = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", dir.display()));
    let mut names = BTreeSet::new();
    for entry in fs::read_dir(dir).map_err(unreadable)? {
        let entry = entry?;
        let mut name = entry.file_name().to_string_lossy().into_owned();
        if entry.file_type()?.is_dir() {
            name.push('/');
        }
        names.insert(name);
    }
    Ok(names)
}

/// Where `got` first departs from `want`; `None` stands for end of file.
fn first_difference(want: &[u8], got: &[u8]) -> Option<String> {
    if want == got {
        return None;
    }
    let (want, got) = (String::from_utf8_lossy(want), String::from_utf8_lossy(got));
    let (mut want, mut got) = (want.split('\n'), got.split('\n'));
    (1..).find_map(|line| match (want.next(), got.next()) {
        (None, None) => Some("differs in bytes that are not UTF-8".to_string()),
        (w, g) if w == g => None,
        (w, g) => Some(format!("line {line}: expected {w:?}, got {g:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A committed record (`tab02_params.txt`) under `<root>/results` and
    /// a run that reproduced it under `<root>/run`.
    fn fixture(test: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("cpi2-repro-test-{test}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for side in ["results", "run"] {
            fs::create_dir_all(root.join(side)).unwrap();
            fs::write(root.join(side).join("tab02_params.txt"), "a\nb\nc\n").unwrap();
        }
        root
    }

    fn failures(root: &Path) -> Vec<String> {
        compare(&root.join("results"), &root.join("run"), &[]).unwrap()
    }

    #[test]
    fn identical_record_passes() {
        let root = fixture("identical");
        assert_eq!(failures(&root), Vec::<String>::new());
        fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn one_flipped_byte_names_file_and_line() {
        let root = fixture("flipped");
        for (printed, failure) in [
            ("a\nB\nc\n", r#"line 2: expected Some("b"), got Some("B")"#),
            ("a\nb\n", r#"line 3: expected Some("c"), got Some("")"#),
            ("a\nb\nc", r#"line 4: expected Some(""), got None"#),
        ] {
            fs::write(root.join("run/tab02_params.txt"), printed).unwrap();
            let expected = format!("tab02_params.txt: {failure}");
            assert_eq!(failures(&root), [expected]);
        }
        fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn recorded_but_not_committed_fails() {
        let root = fixture("uncommitted");
        fs::write(root.join("run/fig01_tenancy.txt"), "x\n").unwrap();
        let expected = ["fig01_tenancy.txt: recorded, but not committed"];
        assert_eq!(failures(&root), expected);
        fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn committed_but_owned_by_no_entry_fails() {
        let root = fixture("orphan");
        fs::write(root.join("results/fig99_gone.txt"), "x\n").unwrap();
        fs::write(root.join("results/notes.md"), "x\n").unwrap();
        fs::write(root.join("results/fig01_tenancy.txt"), "not selected\n").unwrap();
        // No entry writes a directory: a stale one is an orphan whatever
        // it holds, even a file named like an entry's record.
        fs::create_dir_all(root.join("results/old")).unwrap();
        fs::write(root.join("results/old/fig01_tenancy.txt"), "x\n").unwrap();
        let orphans = [
            "fig99_gone.txt: committed, but no entry produces it",
            "notes.md: committed, but no entry produces it",
            "old/: committed, but no entry produces it",
        ];
        assert_eq!(failures(&root), orphans);
        fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn failed_entry_fails_whatever_it_printed() {
        let root = fixture("exit");
        for printed in ["a\nb\nc\n", "a\n"] {
            fs::write(root.join("run/tab02_params.txt"), printed).unwrap();
            let (results, run) = (root.join("results"), root.join("run"));
            let failed = ["tab02_params".to_string()];
            let failures = compare(&results, &run, &failed).unwrap();
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].starts_with("tab02_params: exited non-zero"));
        }
        fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn entry_names_are_unique() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }
}
