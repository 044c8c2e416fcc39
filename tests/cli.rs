//! Drives the real `cpi2` binary: each subcommand on a few machines, and
//! every way its arguments can be wrong. A usage error names what was
//! wrong on stderr and exits 2.

use std::process::{Command, Output};

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

#[test]
fn forensics_answers_sql_over_the_incident_log() {
    let query = "SELECT count(*) FROM incidents";
    let out = cpi2(&[
        "forensics",
        "--machines",
        "3",
        "--minutes",
        "5",
        "--query",
        query,
    ]);
    let stdout = text(&out.stdout);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let (_, answer) = stdout
        .split_once(&format!(" incidents collected; running:\n  {query}\n\n"))
        .unwrap_or_else(|| panic!("no query header in {stdout}"));
    let rows: Vec<&str> = answer.lines().map(str::trim_end).collect();
    assert_eq!(rows[0], "count(*)", "{answer}");
    assert!(rows[1].parse::<u64>().is_ok(), "{answer}");
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
