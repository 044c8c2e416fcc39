//! The reproduction, as one table: every table, figure, case study,
//! ablation and headline number of the paper is an [`Experiment`] whose
//! `run` prints its rows and plots to stdout at pinned inputs and panics
//! on a shape violation. `repro` ([`crate::repro`]) is the only caller.
//!
//! Entries take no input of any kind — no arguments, no environment, no
//! clock in their output — so what one prints is a function of the code
//! alone, which is what lets `repro check` compare it byte for byte
//! (`cpi2-lint` holds this directory to the determinism rule set).

mod ablation_params;
mod ablation_placement;
mod accuracy_leaderboard;
mod baseline_active_probe;
mod case1_kill;
mod case2_hardcap;
mod case3_bimodal;
mod case4_modest;
mod case5_lameduck;
mod case6_mapreduce;
mod correlation_cost;
mod fig01_tenancy;
mod fig02_tps_ips;
mod fig03_latency_cpi;
mod fig04_tiers;
mod fig05_diurnal;
mod fig06_pipeline;
mod fig07_distribution;
mod fig14_load;
mod fig15_accuracy;
mod fig16_production;
mod fleet_rate;
mod fleet_sampled;
mod motivation_quality;
mod tab01_specs;
mod tab02_params;

/// One reproducible artifact of the paper.
pub struct Experiment {
    /// Entry name: `repro run <name>`, recorded as `results/<name>.txt`.
    pub name: &'static str,
    /// What it reproduces, for `repro`'s listing.
    pub about: &'static str,
    /// Prints the artifact; panics when a shape assertion fails.
    pub run: fn(),
}

macro_rules! entry {
    ($module:ident, $about:literal) => {
        Experiment {
            name: stringify!($module),
            about: $about,
            run: $module::run,
        }
    };
}

/// Every entry, in the paper's order.
pub const EXPERIMENTS: &[Experiment] = &[
    entry!(fig01_tenancy, "Fig. 1: tasks and threads per machine"),
    entry!(fig02_tps_ips, "Fig. 2: batch TPS tracks IPS"),
    entry!(
        fig03_latency_cpi,
        "Fig. 3: leaf latency tracks CPI over 24 h"
    ),
    entry!(fig04_tiers, "Fig. 4: latency vs CPI by serving tier"),
    entry!(fig05_diurnal, "Fig. 5: mean leaf CPI over 5 days"),
    entry!(fig06_pipeline, "Fig. 6: the data pipeline, end to end"),
    entry!(fig07_distribution, "Fig. 7: CPI distribution and fits"),
    entry!(tab01_specs, "Table 1: representative CPI specs"),
    entry!(tab02_params, "Table 2: parameter defaults, verbatim"),
    entry!(
        correlation_cost,
        "§4.2: one correlation analysis fits 100 µs"
    ),
    entry!(case1_kill, "Case 1 (Fig. 8): operator kills the antagonist"),
    entry!(case2_hardcap, "Case 2 (Fig. 9): hard cap, then relapse"),
    entry!(case3_bimodal, "Case 3 (Fig. 10): self-inflicted swings"),
    entry!(
        case4_modest,
        "Case 4 (Fig. 11): capping helps only modestly"
    ),
    entry!(case5_lameduck, "Case 5 (Fig. 12): lame-duck antagonist"),
    entry!(case6_mapreduce, "Case 6 (Fig. 13): worker exits in 2nd cap"),
    entry!(fig14_load, "Fig. 14: antagonism vs machine load"),
    entry!(fig15_accuracy, "Fig. 15: detection accuracy, all jobs"),
    entry!(
        fig16_production,
        "Fig. 16: accuracy and benefit, production"
    ),
    entry!(fleet_rate, "§7: identifications per machine-day"),
    Experiment {
        name: "fleet_rate_lossy",
        about: "§7's fleet day under the lossy fault plan",
        run: fleet_rate::run_lossy,
    },
    entry!(fleet_sampled, "§7 at 10⁶ machines, from 240 sampled cells"),
    entry!(motivation_quality, "§2: discarded replies under a deadline"),
    entry!(ablation_params, "Ablation: Table 2's detection parameters"),
    entry!(ablation_placement, "Ablation: cache-aware placement"),
    entry!(baseline_active_probe, "Baseline: §4.2's active probing"),
    entry!(accuracy_leaderboard, "Identifier backends vs ground truth"),
];
