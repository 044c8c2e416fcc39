//! Interference-model cost at 1/8/32 co-running tasks.
//!
//! `compute_cols` sits inside `Machine::tick`, the innermost loop of the
//! fleet simulator, so its per-call cost bounds simulator throughput.
//! Inputs and outputs are caller-owned columns, as in the tick.

use cpi2_sim::interference::{compute_cols, InterferenceParams, ProfileColumns};
use cpi2_sim::{Platform, ResourceProfile};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Activity and profile columns for `n` tasks of mixed character.
fn mixed_loads(n: usize) -> (Vec<f64>, ProfileColumns) {
    let mut profiles = ProfileColumns::default();
    for i in 0..n {
        profiles.push(&match i % 3 {
            0 => ResourceProfile::compute_bound(),
            1 => ResourceProfile::cache_heavy(),
            _ => ResourceProfile::streaming(),
        });
    }
    let activity = (0..n).map(|i| 0.25 + (i % 5) as f64).collect();
    (activity, profiles)
}

fn bench_interference(c: &mut Criterion) {
    let platform = Platform::westmere();
    let params = InterferenceParams::default();
    let mut bench = |name: String, activity: &[f64], profiles: &ProfileColumns| {
        c.bench_function(name, |b| {
            let (mut cpi, mut mpki) = (Vec::new(), Vec::new());
            b.iter(|| {
                black_box(compute_cols(
                    &platform,
                    black_box(activity),
                    profiles,
                    &params,
                    &mut cpi,
                    &mut mpki,
                ))
            })
        });
    };

    for n in [1usize, 8, 32] {
        let (activity, profiles) = mixed_loads(n);
        bench(
            format!("interference/compute_cols ({n} tasks)"),
            &activity,
            &profiles,
        );
    }

    // The zero-activity fast path: what an all-idle machine pays per tick.
    let (_, profiles) = mixed_loads(8);
    bench(
        "interference/compute_cols (8 idle tasks)".to_string(),
        &[0.0; 8],
        &profiles,
    );
}

criterion_group!(benches, bench_interference);
criterion_main!(benches);
