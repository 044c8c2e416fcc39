//! `cpi2-serve` binary: boot a simulated fleet under the full CPI²
//! deployment and serve the observability & control plane over HTTP.
//!
//! ```text
//! cpi2-serve [--addr 127.0.0.1:8900] [--machines 16] [--scale 1]
//!            [--seed 233811181] [--mins N] [--pace-ms 0]
//!            [--auth-token SECRET]
//! ```
//!
//! `--mins 0` (the default) runs until killed. `--pace-ms` slows the
//! tick loop to roughly real time for demos; 0 free-runs.
//! `--auth-token` (or the `CPI2_AUTH_TOKEN` env var) gates the mutating
//! endpoints (`POST /actions/*`, `POST /query`) behind a shared secret.
//! All timing lives in the harness/server modules — this file stays
//! clock-free.

use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{Cluster, ClusterConfig, Platform, SimDuration};
use cpi2::telemetry::Telemetry;
use cpi2_serve::{ServeHarness, ServerConfig};

struct Args {
    addr: String,
    machines: u32,
    scale: u32,
    seed: u64,
    mins: i64,
    pace_ms: u64,
    auth_token: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:8900".to_string(),
        machines: 16,
        scale: 1,
        seed: 233_811_181,
        mins: 0,
        pace_ms: 0,
        auth_token: std::env::var("CPI2_AUTH_TOKEN")
            .ok()
            .filter(|t| !t.is_empty()),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.to_string());
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag {
            "--addr" => args.addr = value.clone(),
            "--machines" => args.machines = parse(flag, value)?,
            "--scale" => args.scale = parse(flag, value)?,
            "--seed" => args.seed = parse(flag, value)?,
            "--mins" => args.mins = parse(flag, value)?,
            "--pace-ms" => args.pace_ms = parse(flag, value)?,
            "--auth-token" => args.auth_token = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
        i += 2;
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {flag}: {value}\n{USAGE}"))
}

const USAGE: &str = "usage: cpi2-serve [--addr HOST:PORT] [--machines N] [--scale N] \
[--seed N] [--mins N] [--pace-ms N] [--auth-token SECRET]";

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let telemetry = Telemetry::enabled();
    let mut cluster = Cluster::new(ClusterConfig {
        seed: args.seed,
        telemetry: telemetry.clone(),
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), args.machines.max(1));
    cpi2::workloads::submit_typical_mix(&mut cluster, args.scale, args.seed);
    let system = Cpi2Harness::new(cluster, Cpi2Config::default());
    let mut sh = ServeHarness::new(system);

    let total = if args.mins > 0 {
        Some(SimDuration::from_mins(args.mins))
    } else {
        None
    };
    let auth = args.auth_token.clone();
    let addr = match sh.serve_with_token(&args.addr, ServerConfig::default(), auth) {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("cpi2-serve: failed to bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    eprintln!(
        "cpi2-serve: {} machines, scale {}, seed {} — serving on http://{addr}",
        args.machines, args.scale, args.seed
    );
    sh.run_paced(args.pace_ms, total);
    sh.shutdown_server();
    eprintln!("cpi2-serve: done after {} ticks", sh.ticks());
}
