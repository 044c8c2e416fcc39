//! §4.2's cost budget: "a single correlation-analysis typically takes
//! about 100 µs to perform" (2011 hardware), rate-limited to one per
//! second so the analysis never disturbs the machine.
//!
//! Asserts that one analysis over the paper's 10-minute window (ten
//! one-minute samples) stays inside that budget here. The measured time
//! is deliberately not printed: this entry's output is compared byte for
//! byte like every other, and the margin (tens of nanoseconds against
//! 100 µs) is wide enough that the assert cannot flake.

use cpi2_core::correlation::antagonist_correlation;
use cpi2_stats::rng::SimRng;
use std::hint::black_box;
use std::time::Instant;

const BUDGET_US: f64 = 100.0;
const WINDOW: usize = 10;
const ANALYSES: u32 = 100_000;

pub(crate) fn run() {
    let mut rng = SimRng::new(1);
    let pairs: Vec<(f64, f64)> = (0..WINDOW)
        .map(|_| (1.0 + 2.0 * rng.f64(), 5.0 * rng.f64()))
        .collect();

    let start = Instant::now();
    for _ in 0..ANALYSES {
        black_box(antagonist_correlation(black_box(&pairs), black_box(2.0)));
    }
    let mean_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(ANALYSES);

    assert!(
        mean_us < BUDGET_US,
        "one correlation analysis took {mean_us:.3} µs, over the paper's {BUDGET_US} µs budget"
    );
    println!(
        "correlation_cost OK (mean of {ANALYSES} analyses of a {WINDOW}-sample window \
         is under {BUDGET_US} µs; paper: about 100 µs)"
    );
}
