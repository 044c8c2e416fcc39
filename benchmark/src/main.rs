//! The repo's benchmark: five workloads over the sim → sampler → agent →
//! pipeline → serve chain, end-to-end metrics untraced and a per-layer
//! table traced. See `README.md` beside this package and
//! `/BENCHMARK.json`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//! benchmark run [--seed N] [--seconds S] [--out F]          every workload, both modes, own processes
//! benchmark compare A.json B.json                            bounds per (workload, metric)
//! benchmark smoke                                            every workload at 1/50 size, all checks on
//! ```

mod fleet;
mod json;
mod kernels;
mod loadgen;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use json::{obj, render, text, Value};
use report::{catalog, WorkloadResult};
use workloads::RunArgs;

/// How long `run` waits for the 1-minute load average to fall to nproc
/// before it refuses to record.
const QUIET_WAIT: Duration = Duration::from_secs(120);

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot read `{v}`")),
    }
}

/// Every argument must be one of `allowed`, each followed by its value.
fn only_flags(args: &[String], allowed: &[&str]) -> Result<(), String> {
    for pair in args.chunks(2) {
        match pair {
            [name, _] if allowed.contains(&name.as_str()) => {}
            [name, ..] => return Err(format!("{name}: not one of {allowed:?}, or has no value")),
            [] => {}
        }
    }
    Ok(())
}

/// Span files and per-run detail records go under the build directory.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("benchmark")
}

fn print_result(workload: &str, traced: bool, r: &WorkloadResult) {
    for finding in &r.findings {
        println!("  FINDING  {finding}");
    }
    for m in &r.metrics {
        if traced && m.value == 0.0 && !m.note.is_empty() {
            continue;
        }
        let name = match report::alias(workload, &m.name) {
            Some(alias) => format!("{} ({alias})", m.name),
            None => m.name.clone(),
        };
        let spread = m.spread.map_or(String::new(), |s| {
            format!("  [q1 {:.6e}, q3 {:.6e}, n {}]", s.q1, s.q3, s.n)
        });
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("  {name:<44} {:>16.6e} {}{spread}{note}", m.value, m.unit);
    }
    println!(
        "  failed_share {:.6} ({} of {})",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    for c in &r.checks {
        println!(
            "  {}  {} — {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
}

/// The driver protocol: one workload, one mode, result line last.
fn one(args: &[String]) -> Result<ExitCode, String> {
    only_flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--detail"],
    )?;
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    let run_args = RunArgs {
        workload: workload.to_string(),
        seed: parsed(args, "--seed", 1u64)?,
        seconds: parsed(args, "--seconds", catalog().run_seconds as f64)?,
        traced: parsed(args, "--trace", 0u8)? != 0,
        smoke: false,
        out_dir: out_dir(),
    };
    if !(run_args.seconds > 0.0 && run_args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let result = workloads::run(&run_args).ok_or_else(|| {
        format!(
            "unknown workload `{workload}` (one of {:?})",
            catalog().workloads
        )
    })?;
    println!(
        "{workload} seed {} seconds {} {}",
        run_args.seed,
        run_args.seconds,
        if run_args.traced {
            "traced"
        } else {
            "untraced"
        }
    );
    print_result(workload, run_args.traced, &result);
    if let Some(path) = flag(args, "--detail") {
        std::fs::write(path, render(result.detail())).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", result.contract_line());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload in its own child process, untraced then traced.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    only_flags(args, &["--seed", "--seconds", "--out"])?;
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: u64 = parsed(args, "--seconds", catalog().run_seconds)?;
    let dir = out_dir();
    let default_out = dir.join("result.json");
    let out = flag(args, "--out").map_or(default_out, PathBuf::from);
    // A `run` just finished leaves its own load in the 1-minute average
    // (the serve workloads keep two threads busy), so a busy reading gets
    // a while to decay before it counts as someone else's.
    let asked = Instant::now();
    let busy = || report::loadavg_1m() > report::nproc() as f64;
    while busy() && asked.elapsed() < QUIET_WAIT {
        std::thread::sleep(Duration::from_secs(5));
    }
    if busy() {
        return Err(format!(
            "1-minute load average {:.2} still exceeds nproc {} after {} s: the box is busy, \
             not recording",
            report::loadavg_1m(),
            report::nproc(),
            QUIET_WAIT.as_secs()
        ));
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for &workload in &catalog().workloads {
        let mut modes = Vec::new();
        for (mode, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
            let detail = dir.join(format!("{workload}.{mode}.json"));
            let status = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .arg("--detail")
                .arg(&detail)
                .status()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            let record = std::fs::read_to_string(&detail)
                .map_err(|e| format!("{workload} ({mode}) left no record: {e} ({status})"))
                .and_then(|t| json::parse(&t).map_err(|e| format!("{workload}: {e}")))?;
            all_correct &=
                status.success() && record.get("correct").and_then(Value::as_bool) == Some(true);
            modes.push((mode, record));
        }
        workloads.push((workload, obj(modes)));
    }
    let bounds = catalog()
        .end_to_end
        .iter()
        .map(|d| (d.name, json::num(d.bound)))
        .collect();
    let result = obj(vec![
        ("schema", text("cpi2-benchmark/1")),
        ("env", report::env_block(seed, seconds)),
        ("bounds", obj(bounds)),
        ("workloads", obj(workloads)),
    ]);
    std::fs::write(&out, render(result)).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "wrote {}; span files under {}; {}",
        out.display(),
        dir.display(),
        if all_correct {
            "all checks passed"
        } else {
            "A CHECK FAILED"
        }
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: benchmark compare A.json B.json".into());
    };
    let load = |path: &String| -> Result<Value, String> {
        let t = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&t).map_err(|e| format!("{path}: {e}"))
    };
    let rows = report::compare(&load(a)?, &load(b)?);
    if rows.is_empty() {
        return Err("the two files share no (workload, metric)".into());
    }
    println!(
        "{:<14} {:<30} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "B vs A"
    );
    for r in &rows {
        let delta = if r.a == 0.0 {
            String::new()
        } else {
            format!("{:+.2}%", (r.b - r.a) / r.a.abs() * 100.0)
        };
        println!(
            "{:<14} {:<30} {:>16.6e} {:>16.6e} {:>9}  {}",
            r.workload, r.metric, r.a, r.b, delta, r.verdict
        );
    }
    let bad = rows
        .iter()
        .filter(|r| matches!(r.verdict, "regressed" | "differs"))
        .count();
    println!("{} rows, {bad} regressed or differing", rows.len());
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, both modes, at 1/50 size, in this process.
fn smoke() -> Vec<(String, WorkloadResult)> {
    let mut out = Vec::new();
    for &workload in &catalog().workloads {
        for traced in [false, true] {
            let args = RunArgs {
                workload: workload.to_string(),
                seed: 7,
                seconds: 0.4,
                traced,
                smoke: true,
                out_dir: out_dir().join("smoke"),
            };
            let result = workloads::run(&args).expect("catalog workload");
            let mode = if traced { "traced" } else { "untraced" };
            out.push((format!("{workload} {mode}"), result));
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("smoke") => {
            let results = smoke();
            for (name, r) in &results {
                println!("{name}: {}", if r.correct() { "ok" } else { "FAILED" });
                for c in r.checks.iter().filter(|c| !c.ok) {
                    println!("  FAIL {} — {}", c.name, c.detail);
                }
            }
            Ok(if results.iter().all(|(_, r)| r.correct()) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        _ if args.iter().any(|a| a == "--workload") => one(&args),
        _ => Err(
            "usage: benchmark --workload W --seed N --seconds S --trace 0|1 | run | compare A B | smoke"
                .into(),
        ),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keeps every workload, both modes and all their checks alive.
    #[test]
    fn smoke_runs_every_workload_with_all_checks_passing() {
        for (name, r) in smoke() {
            assert!(!r.checks.is_empty(), "{name}: no checks ran");
            for c in &r.checks {
                assert!(c.ok, "{name}: {} — {}", c.name, c.detail);
            }
            assert!(
                r.correct(),
                "{name}: {} of {} failed",
                r.failed,
                r.attempted
            );
            assert!(r.attempted > 0, "{name}: nothing attempted");
        }
    }

    #[test]
    fn flags_parse() {
        let args: Vec<String> = ["--seed", "9", "--trace", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parsed(&args, "--seed", 1u64), Ok(9));
        assert_eq!(parsed(&args, "--seconds", 12u64), Ok(12));
        assert!(parsed(&args, "--trace", 0u8).is_err());
        assert!(only_flags(&args, &["--seed", "--trace"]).is_ok());
        assert!(only_flags(&args, &["--seed"]).is_err());
        assert!(only_flags(&args[..3], &["--seed", "--trace"]).is_err());
    }
}
