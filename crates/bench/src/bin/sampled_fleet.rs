//! Statistical fleet mode: fleet-level figures from a stratified sample.
//!
//! Exhaustive simulation tops out around 1.5M machine-ticks/s (the
//! benchmark's `fleet_sparse` `work_per_s`) — three orders of magnitude
//! short of a 10⁶-machine fleet. This bin runs the two-phase stratified sampler (DESIGN.md §12)
//! over a seeded fleet description instead: partition by platform × load
//! band × tenancy, pilot each stratum, spend the remaining budget
//! Neyman-style, and extrapolate fleet incident/throttle/cap totals and
//! CPI spec moments with finite-population-corrected 95% CIs.
//!
//! Results are written to `--out` (default `BENCH_9.json`), including the
//! *effective* fleet machine-ticks/s — fleet machines × per-cell ticks /
//! wall — which is what the sampling buys over exhaustive simulation.
//! With `--baseline <file>` the run gates on that number, with a
//! threshold generous enough to catch order-of-magnitude mistakes only.
//!
//! Run: `cargo run -p cpi2-bench --release --bin sampled_fleet -- \
//!           [--fleet-machines N] [--budget B] [--seed SEED] \
//!           [--warmup-mins W] [--measure-mins M] \
//!           [--out FILE] [--baseline FILE] [--max-regress F]`

use cpi2::sim::SimDuration;
use cpi2_bench::args::{or_exit, Args};
use cpi2_bench::plot;
use cpi2_bench::sampling::{run_sampled, simulate_cell, FleetModel, SamplingConfig, METRIC_NAMES};
use std::time::Instant;

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
        "--fleet-machines",
        "--budget",
        "--seed",
        "--warmup-mins",
        "--measure-mins",
        "--out",
        "--baseline",
        "--max-regress",
    ]);
    let fleet_machines: u32 = or_exit(args.parsed("--fleet-machines", 1_000_000));
    let budget: u32 = or_exit(args.parsed("--budget", 240));
    let seed: u64 = or_exit(args.parsed("--seed", 0x5AFE));
    let warmup_mins: i64 = or_exit(args.parsed("--warmup-mins", 60));
    let measure_mins: i64 = or_exit(args.parsed("--measure-mins", 120));
    let out_path = args.value("--out").unwrap_or("BENCH_9.json").to_string();
    let baseline = args.value("--baseline").map(str::to_string);
    let max_regress: f64 = or_exit(args.parsed("--max-regress", 0.30));

    let model = FleetModel {
        machines: fleet_machines,
        seed,
        warmup: SimDuration::from_mins(warmup_mins),
        measure: SimDuration::from_mins(measure_mins),
    };
    let cfg = SamplingConfig::with_budget(budget);

    println!(
        "sampled_fleet: {fleet_machines} machines, budget {budget} cells, seed {seed:#x}, \
         {warmup_mins}+{measure_mins} min windows"
    );
    let start = Instant::now();
    let result = run_sampled(&model, &cfg, &mut |idx| simulate_cell(&model, idx));
    let wall = start.elapsed().as_secs_f64().max(1e-9);

    let cells = result.estimator.cells_sampled();
    let ticks_per_cell = model.ticks_per_cell();
    let simulated_ticks = u64::from(cells) * ticks_per_cell;
    let raw_rate = simulated_ticks as f64 / wall;
    let effective_rate = fleet_machines as f64 * ticks_per_cell as f64 / wall;

    let plan_rows: Vec<Vec<String>> = result
        .plan
        .iter()
        .map(|p| {
            vec![
                p.key.label(),
                format!("{}", p.population),
                format!("{}", p.pilot),
                format!("{}", p.sampled),
            ]
        })
        .collect();
    plot::print_table(
        "Two-phase allocation (pilot -> Neyman)",
        &["stratum", "N_h", "pilot", "sampled"],
        &plan_rows,
    );

    let estimates = result.estimator.all_estimates();
    let est_rows: Vec<Vec<String>> = METRIC_NAMES
        .iter()
        .zip(estimates.iter())
        .map(|(name, e)| {
            vec![
                (*name).to_string(),
                format!("{:.1}", e.total),
                format!("[{:.1}, {:.1}]", e.total_lo, e.total_hi),
                format!("{:.4}", e.mean),
            ]
        })
        .collect();
    plot::print_table(
        "Fleet estimates (95% CI, finite-population corrected)",
        &["metric", "fleet total", "95% CI", "per-machine mean"],
        &est_rows,
    );
    println!(
        "\n{cells} cells simulated in {wall:.2} s: {raw_rate:.0} machine-ticks/s raw, \
         {effective_rate:.0} effective fleet machine-ticks/s"
    );

    let mut fields = vec![
        ("bench".to_string(), "\"sampled_fleet\"".to_string()),
        ("fleet_machines".to_string(), format!("{fleet_machines}")),
        ("sample_budget".to_string(), format!("{budget}")),
        ("cells_sampled".to_string(), format!("{cells}")),
        ("strata".to_string(), format!("{}", result.plan.len())),
        ("seed".to_string(), format!("{seed}")),
        ("warmup_mins".to_string(), format!("{warmup_mins}")),
        ("measure_mins".to_string(), format!("{measure_mins}")),
        (
            "machine_ticks_per_sec".to_string(),
            format!("{raw_rate:.0}"),
        ),
        (
            "effective_fleet_ticks_per_sec".to_string(),
            format!("{effective_rate:.0}"),
        ),
    ];
    for (name, e) in METRIC_NAMES.iter().zip(estimates.iter()) {
        fields.push((format!("{name}_total"), format!("{:.3}", e.total)));
        fields.push((format!("{name}_ci_lo"), format!("{:.3}", e.total_lo)));
        fields.push((format!("{name}_ci_hi"), format!("{:.3}", e.total_hi)));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    std::fs::write(&out_path, &json).expect("write results");
    println!("wrote {out_path}");

    if let Some(base_path) = baseline {
        let base_text = std::fs::read_to_string(&base_path)
            .unwrap_or_else(|e| panic!("read baseline {base_path}: {e}"));
        let base = json_f64(&base_text, "effective_fleet_ticks_per_sec")
            .unwrap_or_else(|| panic!("baseline {base_path} has no effective_fleet_ticks_per_sec"));
        let floor = base * (1.0 - max_regress);
        println!(
            "baseline {base:.0} effective ticks/s, floor {floor:.0} (max regress {:.0}%)",
            max_regress * 100.0
        );
        if effective_rate < floor {
            eprintln!(
                "sampled_fleet FAIL: {effective_rate:.0} effective ticks/s is below the \
                 {floor:.0} floor"
            );
            std::process::exit(1);
        }
        println!(
            "sampled_fleet OK (within {:.0}% of baseline)",
            max_regress * 100.0
        );
    } else {
        println!("sampled_fleet OK (no baseline given; gate not applied)");
    }
}
