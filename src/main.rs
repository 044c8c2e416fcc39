//! `cpi2` — command-line front end for the CPI² reproduction.
//!
//! ```text
//! cpi2 simulate  [--machines N] [--minutes M] [--seed S] [--thrashers T]
//!                [--no-protection] [--placement-feedback] [--no-victim-migration]
//! cpi2 forensics [--query SQL] and simulate's arguments
//! cpi2 help
//! ```

use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::pipeline::{Query, QueryError};
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, SimDuration};
use cpi2::workloads::{self, CacheThrasher};
use std::process::ExitCode;

/// One subcommand: the `--key value` options and boolean `--key` flags it
/// accepts, and what runs it. `Err` is a usage error (exit status 2).
struct Subcommand {
    name: &'static str,
    options: &'static [&'static str],
    flags: &'static [&'static str],
    run: fn(&Args) -> Result<ExitCode, String>,
}

/// The flags `build_system` reads.
const SYSTEM_FLAGS: &[&str] = &[
    "--no-protection",
    "--placement-feedback",
    "--no-victim-migration",
];

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "simulate",
        options: &["--machines", "--minutes", "--seed", "--thrashers"],
        flags: SYSTEM_FLAGS,
        run: cmd_simulate,
    },
    Subcommand {
        name: "forensics",
        options: &[
            "--machines",
            "--minutes",
            "--seed",
            "--thrashers",
            "--query",
        ],
        flags: SYSTEM_FLAGS,
        run: cmd_forensics,
    },
    Subcommand {
        name: "help",
        options: &[],
        flags: &[],
        run: cmd_help,
    },
];

fn subcommand(name: &str) -> Option<&'static Subcommand> {
    SUBCOMMANDS.iter().find(|c| c.name == name)
}

/// A subcommand's parsed arguments. Anything the subcommand does not
/// accept is an error naming it — a typo must not quietly run the
/// defaults.
#[derive(Debug)]
struct Args {
    options: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(items: &[String], accepted: &Subcommand) -> Result<Self, String> {
        let mut args = Args {
            options: Vec::new(),
            flags: Vec::new(),
        };
        let mut items = items.iter();
        while let Some(key) = items.next() {
            if accepted.flags.contains(&key.as_str()) {
                args.flags.push(key.clone());
            } else if accepted.options.contains(&key.as_str()) {
                let value = items.next().ok_or_else(|| format!("{key} takes a value"))?;
                args.options.push((key.clone(), value.clone()));
            } else {
                let known = [accepted.options, accepted.flags].concat();
                return Err(if known.is_empty() {
                    format!("{} takes no arguments, got {key:?}", accepted.name)
                } else {
                    format!("unknown argument {key:?} (accepted: {})", known.join(" "))
                });
            }
        }
        Ok(args)
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value following `key` parsed as `T`, `default` when the key is
    /// absent, an error naming key and value when it does not parse.
    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}: cannot parse {v:?}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn usage() {
    println!(
        "cpi2 — CPU performance isolation for shared compute clusters\n\
         (reproduction of Zhang et al., EuroSys 2013)\n\n\
         USAGE:\n\
         \x20 cpi2 simulate [--machines N] [--minutes M] [--seed S] [--thrashers T]\n\
         \x20               [--no-protection] [--placement-feedback]\n\
         \x20               [--no-victim-migration]\n\
         \x20     Run a mixed cluster under CPI² for a day of spec warm-up, let\n\
         \x20     T cache thrashers land, run M more minutes and report\n\
         \x20     incidents & caps.\n\n\
         \x20 cpi2 forensics [--query SQL] and simulate's arguments\n\
         \x20     Run the same cluster, then answer SQL over its incident log.\n\n\
         An argument a subcommand does not take, or a value that does not\n\
         parse, is an error (exit status 2).\n\n\
         Every table/figure of the paper is an entry of the repro binary:\n\
         \x20 cargo run -p cpi2-bench --release --bin repro -- run fig01_tenancy\n\
         \x20 (no arguments lists the entries; `check` compares all with results/)"
    );
}

fn build_system(args: &Args) -> Result<Cpi2Harness, String> {
    let machines: u32 = args.parsed("--machines", 40)?;
    let seed: u64 = args.parsed("--seed", 1)?;
    let mut cluster = Cluster::new(ClusterConfig {
        seed,
        overcommit: 2.0,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), machines);
    workloads::submit_typical_mix(&mut cluster, (machines / 40).max(1), seed);
    let config = Cpi2Config {
        min_samples_per_task: 5,
        ..Cpi2Config::default()
    };
    let mut system = Cpi2Harness::new(cluster, config);
    if args.flag("--no-protection") {
        system.set_protection_enabled(false);
    }
    if args.flag("--placement-feedback") {
        system.placement_feedback_after = Some(3);
    }
    if !args.flag("--no-victim-migration") {
        // Case-4 remediation is on by default: chronically contended
        // victims with no cappable antagonist move to fresh machines.
        system.migrate_chronic_victims_after = Some(3);
    }
    Ok(system)
}

/// Builds the cluster, warms it up and learns specs, then lets the
/// antagonists land and runs `--minutes` more (specs must reflect normal
/// behaviour — the paper's fleet learns from days of mostly-clean
/// samples before any given interference episode). Thrashers the
/// cluster cannot place are an error naming `--thrashers`.
fn run_system(args: &Args) -> Result<Cpi2Harness, String> {
    let seed: u64 = args.parsed("--seed", 1)?;
    let thrashers: u32 = args.parsed("--thrashers", 6)?;
    let minutes: u32 = args.parsed("--minutes", 120)?;
    let mut system = build_system(args)?;
    println!(
        "simulating {} machines for {minutes} min (24h spec warm-up first)...",
        system.cluster.machines().len()
    );
    // A full day of warm-up, as the paper's 24-hour spec refresh: the spec
    // σ must absorb the diurnal CPI swing (Fig. 5) or afternoon load peaks
    // masquerade as incidents.
    system.run_for(SimDuration::from_hours(24));
    let specs = system.force_spec_refresh();
    println!("learned {} CPI specs:", specs.len());
    for s in &specs {
        println!("  {s}");
    }
    if thrashers > 0 {
        system
            .cluster
            .submit_job(
                JobSpec::best_effort("thrasher", thrashers, 1.0),
                true,
                Box::new(move |i| Box::new(CacheThrasher::new(8.0, 300, 300, seed ^ i as u64))),
            )
            .map_err(|e| format!("--thrashers {thrashers}: not placed: {e}"))?;
        println!("{thrashers} thrasher task(s) landed on the cluster");
    }
    system.run_for(SimDuration::from_mins(i64::from(minutes)));
    Ok(system)
}

fn cmd_simulate(args: &Args) -> Result<ExitCode, String> {
    let minutes: u32 = args.parsed("--minutes", 120)?;
    let system = run_system(args)?;
    println!("\nresults after {minutes} simulated minutes:");
    let acted = system
        .incidents()
        .iter()
        .filter(|mi| mi.incident.acted())
        .count();
    println!(
        "  incidents reported : {} ({} with a cappable antagonist)",
        system.incidents().len(),
        acted
    );
    println!("  hard caps applied  : {}", system.caps_applied());
    println!("  antagonists moved  : {}", system.migrations_triggered());
    println!(
        "  victims migrated   : {} (chronic contention, Case-4 policy)",
        system.victim_migrations()
    );
    let top = system.top_antagonists(5);
    if !top.is_empty() {
        println!("  top antagonists:");
        for (job, n, corr) in top {
            println!("    {job:<24} capped {n} times (max correlation {corr:.2})");
        }
    }
    let machine_days = system.cluster.machines().len() as f64 * f64::from(minutes) / (24.0 * 60.0);
    if machine_days > 0.0 {
        println!(
            "  incident rate      : {:.2} per machine-day (paper: 0.37)",
            system.incidents().len() as f64 / machine_days
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_forensics(args: &Args) -> Result<ExitCode, String> {
    let default_query = "SELECT victim_job, count(*) FROM incidents \
                         GROUP BY victim_job ORDER BY count(*) DESC LIMIT 10";
    let sql = args.value("--query").unwrap_or(default_query);
    // A statement that does not parse, or names a table other than the
    // incident log, fails before the day-long run.
    let query = Query::parse(sql).map_err(|e| format!("--query: {e}"))?;
    if query.table() != "incidents" {
        let e = QueryError::UnknownTable(query.table().into());
        return Err(format!("--query: {e}"));
    }
    let system = run_system(args)?;
    let incidents = system.incidents();
    println!(
        "{} incidents collected; running:\n  {sql}\n",
        incidents.len()
    );
    println!("{}", query.scan(incidents.iter().map(|mi| &mi.incident)));
    Ok(ExitCode::SUCCESS)
}

fn cmd_help(_: &Args) -> Result<ExitCode, String> {
    usage();
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let items: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = items.split_first() else {
        usage();
        return ExitCode::SUCCESS;
    };
    let Some(command) = subcommand(name) else {
        eprintln!("error: unknown command {name:?}\n");
        usage();
        return ExitCode::from(2);
    };
    Args::parse(rest, command)
        .and_then(|args| (command.run)(&args))
        .unwrap_or_else(|message| {
            eprintln!("error: {message}");
            ExitCode::from(2)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(items: &[&str]) -> Result<Args, String> {
        let (name, rest) = items.split_first().expect("a subcommand");
        let rest: Vec<String> = rest.iter().map(|s| s.to_string()).collect();
        Args::parse(&rest, subcommand(name).expect("a known subcommand"))
    }

    #[test]
    fn args_command_and_values() {
        let a = parse(&["simulate", "--machines", "40", "--no-protection"]).unwrap();
        assert_eq!(a.value("--machines"), Some("40"));
        assert_eq!(a.parsed("--machines", 0u32), Ok(40));
        assert!(a.flag("--no-protection"));
        assert!(!a.flag("--placement-feedback"));
        assert_eq!(a.parsed("--minutes", 120i64), Ok(120));
        assert!(subcommand("simulat").is_none());
    }

    #[test]
    fn args_bad_value_is_an_error_naming_it() {
        // `cpi2 simulate --minutes abc` used to run the default 120.
        let a = parse(&["simulate", "--minutes", "abc"]).unwrap();
        let message = a.parsed("--minutes", 120i64).unwrap_err();
        assert!(
            message.contains("--minutes") && message.contains("abc"),
            "{message}"
        );
    }

    #[test]
    fn args_unknown_key_is_an_error_naming_it() {
        // `cpi2 simulate --machnies 4` used to simulate the default 40.
        let message = parse(&["simulate", "--machnies", "4"]).unwrap_err();
        assert!(message.contains("--machnies\""), "{message}");
        // Keys are per subcommand: `forensics` alone takes a query.
        assert!(parse(&["simulate", "--query", "x"]).is_err());
        // A stray positional is no better.
        assert!(parse(&["help", "40"]).is_err());
    }

    #[test]
    fn args_empty() {
        let a = parse(&["simulate"]).unwrap();
        assert_eq!(a.value("--machines"), None);
        assert!(!a.flag("--no-protection"));
    }

    #[test]
    fn args_value_at_end_without_operand() {
        let message = parse(&["forensics", "--query"]).unwrap_err();
        assert!(message.contains("--query takes a value"), "{message}");
    }
}
