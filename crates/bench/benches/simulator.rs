//! Simulator tick rate — the substrate cost that bounds every experiment.
//!
//! Also carries the interference-model ablation called out in DESIGN.md:
//! the bandwidth fixed point at 1 vs 3 vs 6 iterations, quantifying what
//! the default (3) buys.

use cpi2::sim::interference::compute_cols;
use cpi2::sim::{
    Cluster, ClusterConfig, InterferenceParams, JobSpec, Platform, ProfileColumns, ResourceProfile,
    SimDuration,
};
use cpi2::workloads;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

fn loaded_cluster(machines: u32, parallelism: usize) -> Cluster {
    let mut c = Cluster::new(ClusterConfig {
        seed: 9,
        overcommit: 2.0,
        parallelism,
        ..ClusterConfig::default()
    });
    c.add_machines(&Platform::westmere(), machines);
    workloads::submit_typical_mix(&mut c, machines / 20 + 1, 5);
    c
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster_tick");
    for machines in [10u32, 100] {
        let tasks: usize = {
            let cl = loaded_cluster(machines, 1);
            cl.machines().iter().map(|m| m.task_count()).sum()
        };
        g.throughput(Throughput::Elements(tasks as u64));
        g.bench_function(format!("{machines} machines / {tasks} tasks"), |b| {
            b.iter_batched(
                || loaded_cluster(machines, 1),
                |mut cl| {
                    cl.run_for(SimDuration::from_secs(10));
                    black_box(cl.now())
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();

    // Serial vs parallel per-machine phase (the ISSUE's ≥2x bar is judged
    // at parallelism 4 on the 400-machine shape).
    let par_machines = 400u32;
    let mut settings = vec![1usize, 2, 4];
    let hw = cpi2::sim::default_parallelism();
    if !settings.contains(&hw) {
        settings.push(hw);
    }
    let mut g = c.benchmark_group("cluster_tick_parallel");
    for parallelism in settings {
        let tasks: usize = {
            let cl = loaded_cluster(par_machines, 1);
            cl.machines().iter().map(|m| m.task_count()).sum()
        };
        g.throughput(Throughput::Elements(tasks as u64));
        g.bench_function(
            format!("{par_machines} machines / parallelism {parallelism}"),
            |b| {
                b.iter_batched(
                    || loaded_cluster(par_machines, parallelism),
                    |mut cl| {
                        cl.run_for(SimDuration::from_secs(10));
                        black_box(cl.now())
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    g.finish();

    // Ablation: interference fixed-point iteration count.
    let activity: Vec<f64> = (0..30).map(|i| 0.5 + (i % 5) as f64).collect();
    let mut profiles = ProfileColumns::default();
    for i in 0..30 {
        profiles.push(&if i % 3 == 0 {
            ResourceProfile::streaming()
        } else {
            ResourceProfile::cache_heavy()
        });
    }
    let platform = Platform::westmere();
    let with_iterations = |iterations: u32| InterferenceParams {
        iterations,
        ..InterferenceParams::default()
    };
    let mut g = c.benchmark_group("interference_fixed_point");
    for iters in [1u32, 3, 6] {
        let params = with_iterations(iters);
        g.bench_function(format!("{iters} iterations / 30 tasks"), |b| {
            let (mut cpi, mut mpki) = (Vec::new(), Vec::new());
            b.iter(|| {
                compute_cols(
                    black_box(&platform),
                    black_box(&activity),
                    &profiles,
                    &params,
                    &mut cpi,
                    &mut mpki,
                )
            })
        });
    }
    g.finish();

    // Report the accuracy side of the ablation once (printed, not timed).
    let cpi_at = |iterations: u32| {
        let (mut cpi, mut mpki) = (Vec::new(), Vec::new());
        compute_cols(
            &platform,
            &activity,
            &profiles,
            &with_iterations(iterations),
            &mut cpi,
            &mut mpki,
        );
        cpi
    };
    let v6 = cpi_at(6);
    let max_rel_err = |v: &[f64]| {
        v.iter()
            .zip(&v6)
            .map(|(a, b)| (a - b).abs() / b)
            .fold(0.0f64, f64::max)
    };
    let max_err = max_rel_err(&cpi_at(1));
    let err3 = max_rel_err(&cpi_at(3));
    println!("ablation: CPI error vs 6 iterations — 1 iter: {max_err:.4}, 3 iters: {err3:.6}");

    // The JobSpec import is used by workloads::submit_typical_mix's
    // signature transitively; keep a direct use for clarity.
    let _ = JobSpec::batch("unused", 1, 1.0);
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
