//! Control-plane load gate: keep-alive throughput, latency, and
//! tick-thread publish cost, pinned to `BENCH_10.json`.
//!
//! Three measurements (see `cpi2_bench::serve_load` for the generator):
//!
//! 1. **Keep-alive throughput** — N concurrent persistent connections
//!    (default 512) drive the mixed GET/scrape/query schedule against a
//!    live, ticking [`ServeHarness`]; requests/s and p50/p99 latency.
//! 2. **Connection-overhead speedup** — pure `GET /healthz` (so handler
//!    cost doesn't mask the connection layer), keep-alive vs the
//!    one-request-per-connection regime the event-loop server replaced
//!    (every request opens a fresh connection). The gate requires
//!    keep-alive to beat the baseline by `--min-speedup` (default 10×).
//! 3. **Publish cost** — µs/tick the tick thread spends publishing
//!    snapshots at 400 vs 4000 machines, every machine rebuilt every
//!    tick (`full_every` 1) vs the exact refresh striped over 64 ticks
//!    (`full_every` 64; the `delta` keys). The gate requires the latter
//!    at 4000 machines to cost at most half of the former — tick cost
//!    must scale with churn, not fleet size.
//!
//! Hard gates (always on): zero 5xx, zero handler panics, all
//! `--connections` clients simultaneously connected at peak. With
//! `--baseline FILE` the run additionally compares its keep-alive
//! requests/s against the committed baseline and fails below
//! `1 - --max-regress` of it (default 0.30 — CI boxes are noisy; the
//! gate exists to catch order-of-magnitude mistakes).
//!
//! Run: `cargo run -p cpi2-bench --release --bin serve_bench -- \
//!           [--connections N] [--seconds S] [--pipeline D] [--machines N] \
//!           [--publish-machines-big N] [--seed SEED] [--min-speedup F] \
//!           [--out FILE] [--baseline FILE] [--max-regress F]`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cpi2_bench::args::{or_exit, Args};
use cpi2_bench::serve_load::{
    build_serve_fleet, measure_publish_cost, run_load, LoadConfig, LoadReport,
};
use cpi2_serve::poll::raise_nofile_limit;
use cpi2_serve::ServerConfig;

/// Boots a resident fleet, serves it, and drives `cfg` against it while
/// the harness keeps ticking (100 ms pace) — the server is measured
/// live, with per-tick publishing and snapshot churn underneath.
fn run_against_live_harness(machines: u32, seed: u64, cfg: LoadConfig) -> (LoadReport, bool) {
    let mut sh = build_serve_fleet(machines, seed);
    sh.run_for(cpi2::sim::SimDuration::from_mins(1));
    let server_cfg = ServerConfig {
        max_connections: cfg.connections * 2 + 64,
        ..ServerConfig::default()
    };
    let addr = sh.serve("127.0.0.1:0", server_cfg).expect("bind loopback");

    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    let load = std::thread::spawn(move || {
        let report = run_load(addr, &cfg);
        flag.store(true, Ordering::SeqCst);
        report
    });
    while !done.load(Ordering::SeqCst) {
        sh.tick();
        std::thread::sleep(Duration::from_millis(100));
    }
    let report = load.join().expect("load thread");

    sh.shutdown_server();
    let text = sh.inner().telemetry().prometheus_text().unwrap_or_default();
    let no_panics = text.contains("cpi_serve_handler_panics_total 0");
    (report, no_panics)
}

/// Pulls `"key": <number>` out of a flat JSON object (hand-rolled: the
/// gate must not trust a vendored parser with its own gate inputs).
fn json_f64(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args = Args::from_env(&[
        "--connections",
        "--seconds",
        "--pipeline",
        "--machines",
        "--publish-machines-big",
        "--seed",
        "--min-speedup",
        "--out",
        "--baseline",
        "--max-regress",
    ]);
    let connections: usize = or_exit(args.parsed("--connections", 512));
    let seconds: f64 = or_exit(args.parsed("--seconds", 3.0));
    let pipeline: usize = or_exit(args.parsed("--pipeline", 8));
    let machines: u32 = or_exit(args.parsed("--machines", 400));
    let big: u32 = or_exit(args.parsed("--publish-machines-big", 4000));
    let seed: u64 = or_exit(args.parsed("--seed", 0x5E4E));
    let min_speedup: f64 = or_exit(args.parsed("--min-speedup", 10.0));
    let out_path = args.value("--out").unwrap_or("BENCH_10.json").to_string();
    let baseline = args.value("--baseline").map(str::to_string);
    let max_regress: f64 = or_exit(args.parsed("--max-regress", 0.30));

    let granted = raise_nofile_limit((connections * 4 + 256) as u64);
    println!(
        "serve_bench: {connections} connections x {seconds}s, pipeline {pipeline}, \
         {machines}-machine fleet, seed {seed:#x} (fd limit {granted})"
    );

    let (ka, ka_clean) = run_against_live_harness(
        machines,
        seed,
        LoadConfig {
            connections,
            seconds,
            keep_alive: true,
            pipeline,
            mix: true,
        },
    );
    println!(
        "  keep-alive: {:.0} req/s ({} requests, p50 {:.0} us, p99 {:.0} us, \
         peak {} conns, 4xx {}, 5xx {}, io {})",
        ka.rps,
        ka.requests,
        ka.p50_us,
        ka.p99_us,
        ka.peak_open,
        ka.errors_4xx,
        ka.errors_5xx,
        ka.io_errors
    );

    // Connection-overhead microbenchmark: same fleet, pure /healthz, so
    // the two regimes differ only in connection handling.
    let (ka_hz, hz_clean) = run_against_live_harness(
        machines,
        seed,
        LoadConfig {
            connections,
            seconds,
            keep_alive: true,
            pipeline,
            mix: false,
        },
    );
    println!(
        "  keep-alive /healthz: {:.0} req/s (p50 {:.0} us, p99 {:.0} us, 5xx {})",
        ka_hz.rps, ka_hz.p50_us, ka_hz.p99_us, ka_hz.errors_5xx
    );
    let (close, close_clean) = run_against_live_harness(
        machines,
        seed,
        LoadConfig {
            connections,
            seconds,
            keep_alive: false,
            pipeline: 1,
            mix: false,
        },
    );
    println!(
        "  one-request-per-connection /healthz: {:.0} req/s ({} requests, p50 {:.0} us, 5xx {})",
        close.rps, close.requests, close.p50_us, close.errors_5xx
    );
    let speedup = ka_hz.rps / close.rps.max(1e-9);
    println!("  keep-alive speedup: {speedup:.1}x");

    // Publish cost: µs/tick at small and big fleets, delta vs full.
    let delta_small = measure_publish_cost(machines, 64, 80, seed);
    let full_small = measure_publish_cost(machines, 1, 16, seed);
    let delta_big = measure_publish_cost(big, 64, 80, seed);
    let full_big = measure_publish_cost(big, 1, 16, seed);
    println!(
        "  publish us/tick: {machines} machines delta {delta_small:.0} vs full {full_small:.0}; \
         {big} machines delta {delta_big:.0} vs full {full_big:.0}"
    );

    let json = format!(
        "{{\n  \"bench\": \"serve_bench\",\n  \"connections\": {connections},\n  \"seconds\": {seconds},\n  \"pipeline\": {pipeline},\n  \"machines\": {machines},\n  \"seed\": {seed},\n  \"keepalive_rps\": {:.0},\n  \"keepalive_requests\": {},\n  \"keepalive_p50_us\": {:.0},\n  \"keepalive_p99_us\": {:.0},\n  \"keepalive_peak_conns\": {},\n  \"keepalive_errors_4xx\": {},\n  \"keepalive_errors_5xx\": {},\n  \"keepalive_healthz_rps\": {:.0},\n  \"close_rps\": {:.0},\n  \"close_p50_us\": {:.0},\n  \"speedup\": {speedup:.1},\n  \"publish_delta_us_small\": {delta_small:.0},\n  \"publish_full_us_small\": {full_small:.0},\n  \"publish_machines_big\": {big},\n  \"publish_delta_us_big\": {delta_big:.0},\n  \"publish_full_us_big\": {full_big:.0}\n}}\n",
        ka.rps,
        ka.requests,
        ka.p50_us,
        ka.p99_us,
        ka.peak_open,
        ka.errors_4xx,
        ka.errors_5xx,
        ka_hz.rps,
        close.rps,
        close.p50_us,
    );
    std::fs::write(&out_path, &json).expect("write results");
    println!("  wrote {out_path}");

    // Hard gates.
    let mut failures: Vec<String> = Vec::new();
    if ka.errors_5xx != 0 || ka_hz.errors_5xx != 0 || close.errors_5xx != 0 {
        failures.push(format!(
            "5xx responses under load (keep-alive {}, healthz {}, close {})",
            ka.errors_5xx, ka_hz.errors_5xx, close.errors_5xx
        ));
    }
    if !ka_clean || !hz_clean || !close_clean {
        failures.push("handler panics recorded during load".to_string());
    }
    if ka.peak_open < connections {
        failures.push(format!(
            "only {} of {connections} clients were simultaneously connected",
            ka.peak_open
        ));
    }
    if speedup < min_speedup {
        failures.push(format!(
            "keep-alive speedup {speedup:.1}x below the {min_speedup:.0}x floor"
        ));
    }
    if delta_big * 2.0 > full_big {
        failures.push(format!(
            "delta publish at {big} machines ({delta_big:.0} us/tick) is not at least 2x \
             cheaper than full republish ({full_big:.0} us/tick)"
        ));
    }
    if let Some(base_path) = baseline {
        let base_text = std::fs::read_to_string(&base_path)
            .unwrap_or_else(|e| panic!("read baseline {base_path}: {e}"));
        let base = json_f64(&base_text, "keepalive_rps")
            .unwrap_or_else(|| panic!("baseline {base_path} has no keepalive_rps"));
        let floor = base * (1.0 - max_regress);
        println!(
            "  baseline {base:.0} req/s, floor {floor:.0} (max regress {:.0}%)",
            max_regress * 100.0
        );
        if ka.rps < floor {
            failures.push(format!(
                "keep-alive {:.0} req/s is below the {floor:.0} floor ({base:.0} - {:.0}%)",
                ka.rps,
                max_regress * 100.0
            ));
        }
    }

    if failures.is_empty() {
        println!("serve_bench OK");
    } else {
        for f in &failures {
            eprintln!("serve_bench FAIL: {f}");
        }
        std::process::exit(1);
    }
}
