//! Drives the real `cpi2` binary: each subcommand on a few machines, and
//! every way its arguments can be wrong. A usage error names what was
//! wrong on stderr and exits 2.

use std::process::{Child, Command, Output, Stdio};

fn cpi2(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cpi2"))
        .args(args)
        .output()
        .expect("spawn cpi2")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Exit status 2, with `needle` on stderr and no thrasher landed.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = cpi2(args);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: {needle:?} not in {stderr}"
    );
    assert!(!text(&out.stdout).contains("landed"), "{args:?} ran");
}

#[test]
fn simulate_reports_specs_thrashers_and_incidents() {
    let out = cpi2(&["simulate", "--machines", "3", "--minutes", "5"]);
    let stdout = text(&out.stdout);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines[0],
        "simulating 3 machines for 5 min (24h spec warm-up first)..."
    );
    let specs: usize = lines[1]
        .strip_prefix("learned ")
        .and_then(|rest| rest.strip_suffix(" CPI specs:"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no spec count in {:?}", lines[1]));
    assert!(specs > 0, "{stdout}");
    assert!(lines[2..2 + specs].iter().all(|l| l.contains("CPI")));
    assert_eq!(lines[2 + specs], "6 thrasher task(s) landed on the cluster");
    for row in [
        "results after 5 simulated minutes:",
        "  incidents reported : ",
        "  hard caps applied  : ",
        "  incident rate      : ",
    ] {
        assert!(stdout.contains(row), "{row:?} missing from {stdout}");
    }
}

/// Two hours after the warm-up, on three machines: a run whose log holds
/// incidents (five minutes logs none).
const FORENSICS_RUN: [&str; 5] = ["forensics", "--machines", "3", "--minutes", "120"];

/// Starts `cpi2 forensics` over [`FORENSICS_RUN`] answering `query`.
fn forensics(query: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_cpi2"))
        .args(FORENSICS_RUN)
        .args(["--query", query])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cpi2")
}

/// The header's incident count and the answer's rows, cells split on
/// whitespace, header row first.
fn answer(query: &str, child: Child) -> (u64, Vec<Vec<String>>) {
    let out = child.wait_with_output().expect("wait for cpi2");
    let stdout = text(&out.stdout);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let (head, answer) = stdout
        .split_once(&format!(" incidents collected; running:\n  {query}\n\n"))
        .unwrap_or_else(|| panic!("no query header in {stdout}"));
    let collected = head
        .lines()
        .last()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no incident count in {stdout}"));
    let rows = answer
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().map(String::from).collect())
        .collect();
    (collected, rows)
}

#[test]
fn forensics_answers_sql_over_the_incident_log() {
    // Both runs at once: each spends most of its time on the warm-up.
    let (count, by_job) = (
        "SELECT count(*) FROM incidents",
        "SELECT victim_job, count(*) FROM incidents GROUP BY victim_job",
    );
    let (count_run, by_job_run) = (forensics(count), forensics(by_job));

    let (n, rows) = answer(count, count_run);
    assert!(n > 0, "the run logged no incident");
    assert_eq!(rows, [vec!["count(*)".to_string()], vec![n.to_string()]]);

    let (same_n, rows) = answer(by_job, by_job_run);
    assert_eq!(same_n, n, "one seed, one run");
    assert_eq!(rows[0], ["victim_job", "count(*)"]);
    let counts: Vec<u64> = rows[1..]
        .iter()
        .map(|row| row[1].parse().expect("a count"))
        .collect();
    assert!(counts.iter().all(|&c| c > 0), "{rows:?}");
    assert_eq!(counts.iter().sum::<u64>(), n, "{rows:?}");
}

#[test]
fn forensics_refuses_an_unknown_table_before_the_run() {
    // Used to run the whole day, print "… incidents collected", and only
    // then refuse the table.
    let args = [
        "forensics",
        "--machines",
        "3",
        "--minutes",
        "5",
        "--query",
        "SELECT * FROM samples",
    ];
    let out = cpi2(&args);
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--query: unknown table: samples"),
        "{stderr}"
    );
    assert!(!stdout.contains("incidents collected"), "{stdout}");
}

#[test]
fn thrashers_that_cannot_land_are_an_error() {
    // Used to say "6 thrasher task(s) landed" on an empty cluster and
    // exit 0.
    let args = ["simulate", "--machines", "0", "--minutes", "1"];
    assert_usage_error(&args, "--thrashers 6: not placed");
}

#[test]
fn negative_minutes_are_a_usage_error() {
    // Used to run and report "results after -5 simulated minutes".
    let args = [
        "simulate",
        "--machines",
        "1",
        "--thrashers",
        "0",
        "--minutes",
        "-5",
    ];
    assert_usage_error(&args, "--minutes: cannot parse \"-5\"");
}

#[test]
fn unknown_command_exits_2_like_every_usage_error() {
    // Used to exit 1. `table2` and `replay` are gone: Table 2 is the
    // `tab02_params` entry of `repro`.
    for name in ["simulat", "table2", "replay"] {
        assert_usage_error(&[name], &format!("unknown command {name:?}"));
    }
    assert_usage_error(&["simulate", "--machnies", "4"], "--machnies");
    assert_usage_error(&["forensics", "--query"], "--query takes a value");
    // A statement that does not parse fails before the day-long run.
    assert_usage_error(&["forensics", "--query", "SELEKT"], "--query: parse error");
}

#[test]
fn help_lists_every_subcommand() {
    for args in [&[][..], &["help"]] {
        let out = cpi2(args);
        assert!(out.status.success());
        let stdout = text(&out.stdout);
        for name in ["cpi2 simulate", "cpi2 forensics"] {
            assert!(stdout.contains(name), "{args:?}: {stdout}");
        }
    }
}
