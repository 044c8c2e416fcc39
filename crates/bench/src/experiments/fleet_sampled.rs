//! §7's headline at the paper's scale: a 10⁶-machine fleet, estimated.
//!
//! Runs the two-phase stratified sampler ([`crate::sampling`], DESIGN.md
//! §12) over a seeded fleet description: partition by platform × load
//! band × tenancy, pilot each stratum, spend the rest of a 240-cell
//! budget Neyman-style, and extrapolate fleet incident, identification,
//! throttle and cap totals and the mean spec CPI with
//! finite-population-corrected 95% CIs. A cell is a pure function of
//! `(seed, index)`, so every figure printed is held to the digit.
//!
//! The described fleet is deliberately eventful — six machines in ten
//! host a transient antagonist inside a two-hour window — so its rate
//! per machine-day sits well above the paper's mostly-healthy 0.37;
//! `fleet_rate` is the entry that lands in the paper's band.

use crate::plot;
use crate::sampling::{run_sampled, simulate_cell, FleetModel, SamplingConfig, METRIC_NAMES};

const MACHINES: u32 = 1_000_000;
const BUDGET: u32 = 240;
const SEED: u64 = 0x5AFE;

pub(crate) fn run() {
    // Per cell: one hour of spec warm-up, then the two measured hours.
    let model = FleetModel::new(MACHINES, SEED);
    let cfg = SamplingConfig::with_budget(BUDGET);
    println!(
        "fleet_sampled: {MACHINES} machines, budget {BUDGET} cells, seed {SEED:#x}, \
         60+120 min windows"
    );
    let result = run_sampled(&model, &cfg, &mut |idx| simulate_cell(&model, idx));

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
                format!("{:.3}", e.total),
                format!("[{:.3}, {:.3}]", e.total_lo, e.total_hi),
                format!("{:.4}", e.mean),
            ]
        })
        .collect();
    plot::print_table(
        "Fleet estimates (95% CI, finite-population corrected)",
        &["metric", "fleet total", "95% CI", "per-machine mean"],
        &est_rows,
    );

    let cells = result.estimator.cells_sampled();
    let strata = result.plan.len();
    assert_eq!(cells, BUDGET, "the allocator left budget unspent");
    assert_eq!(strata, 18, "a stratum of the cross product is empty");
    for (name, e) in METRIC_NAMES.iter().zip(estimates.iter()) {
        let brackets = e.total_lo <= e.total && e.total <= e.total_hi;
        assert!(brackets, "{name}: the CI does not bracket the total: {e:?}");
    }

    let machine_days = f64::from(MACHINES) * model.measure.as_secs_f64() / 86_400.0;
    let ids = &estimates[1]; // METRIC_NAMES order
    println!(
        "\nfleet_sampled OK ({cells} cells over {strata} strata; {:.2} [{:.2}, {:.2}] \
         identifications per machine-day; paper: 0.37)",
        ids.total / machine_days,
        ids.total_lo / machine_days,
        ids.total_hi / machine_days
    );
}
