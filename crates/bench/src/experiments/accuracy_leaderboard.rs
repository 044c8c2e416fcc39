//! Antagonist-identification accuracy leaderboard.
//!
//! Runs both identification backends (the paper's §4.2 correlator and the
//! PANDA-style cross-incident backend) over seeded ground-truth scenarios
//! at each fault profile, then scores precision / recall / MRR per
//! backend and asserts the accuracy gate (committed clean-profile floors
//! for the paper backend; PANDA must be at least as precise everywhere
//! and strictly better on recall under degraded pipelines). Three seeds
//! cannot separate PANDA's mechanisms from each other; the 64-seed audit
//! that chose them is DESIGN.md §10.

use crate::accuracy::{aggregate, gate, run_case, AccuracyCase, CaseScore};
use crate::plot;
use cpi2_core::IdentifierKind;

const SEEDS: [u64; 3] = [1, 2, 3];
const FAULTS: [&str; 3] = ["none", "lossy", "heavy"];
const MINUTES: i64 = 120;
/// The backend column's width: as wide as when the leaderboard also
/// listed three ablation arms, so the committed rows diff only where a
/// number moves.
const BACKEND_WIDTH: usize = 20;

pub(crate) fn run() {
    let mut runs: Vec<CaseScore> = Vec::new();
    for kind in IdentifierKind::ALL {
        for fault in FAULTS {
            for seed in SEEDS {
                let score = run_case(&AccuracyCase {
                    identifier: kind,
                    seed,
                    fault: fault.to_string(),
                    minutes: MINUTES,
                })
                .unwrap_or_else(|e| panic!("{}/{fault} seed {seed}: {e}", kind.name()));
                runs.push(score);
            }
        }
    }

    let summary = aggregate(&runs);
    let rows: Vec<Vec<String>> = summary
        .iter()
        .map(|r| {
            vec![
                format!("{:<BACKEND_WIDTH$}", r.identifier),
                r.fault.clone(),
                r.incidents.to_string(),
                format!("{:.3}", r.precision),
                format!("{:.3}", r.recall),
                format!("{:.3}", r.mrr),
            ]
        })
        .collect();
    plot::print_table(
        "Antagonist-identification accuracy leaderboard",
        &[
            "backend",
            "faults",
            "incidents",
            "precision",
            "recall",
            "MRR",
        ],
        &rows,
    );

    let checks = gate(&summary, &FAULTS);
    for c in &checks {
        println!(
            "  [{}] {} ({})",
            if c.passed { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    assert!(checks.iter().all(|c| c.passed), "accuracy gate FAILED");
    println!("\naccuracy gate OK");
}
