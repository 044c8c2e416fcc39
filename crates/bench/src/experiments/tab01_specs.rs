//! Table 1: CPI specs of representative latency-sensitive jobs.
//!
//! The paper reports:
//!
//! ```text
//! Job A  0.88 ± 0.09   312 tasks
//! Job B  1.36 ± 0.26  1040 tasks
//! Job C  2.03 ± 0.20  1250 tasks
//! ```
//!
//! We build three jobs with matching microarchitectural characters through
//! the real aggregation pipeline and print their learned specs. Task counts
//! are scaled 1:4 to keep the simulation quick; the shape target is tight
//! σ/µ per job and clearly separated means.

use crate::plot;
use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, ResourceProfile, SimDuration};
use cpi2::workloads::LsService;

pub(crate) fn run() {
    let mut cluster = Cluster::new(ClusterConfig {
        seed: 8,
        overcommit: 2.0,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 120);

    // Three job characters chosen to land near the paper's specs.
    let jobs: [(&str, u32, ResourceProfile); 3] = [
        (
            "job-a",
            78,
            ResourceProfile {
                base_cpi: 0.88,
                cache_mb: 1.0,
                mpki_solo: 0.3,
                cache_sensitivity: 0.6,
                cpi_noise: 0.09,
            },
        ),
        (
            "job-b",
            260,
            ResourceProfile {
                base_cpi: 1.33,
                cache_mb: 4.0,
                mpki_solo: 1.5,
                cache_sensitivity: 1.0,
                cpi_noise: 0.17,
            },
        ),
        (
            "job-c",
            312,
            ResourceProfile {
                base_cpi: 2.0,
                cache_mb: 6.0,
                mpki_solo: 2.5,
                cache_sensitivity: 1.0,
                cpi_noise: 0.09,
            },
        ),
    ];
    for (name, tasks, profile) in jobs {
        cluster
            .submit_job(
                JobSpec::latency_sensitive(name, tasks, 0.8),
                true,
                Box::new(move |i| Box::new(LsService::new(profile, 0.8, 8, i as u64))),
            )
            .expect("placement");
    }

    let mut system = Cpi2Harness::new(cluster, Cpi2Config::default());
    system.run_for(SimDuration::from_hours(2));
    let specs = system.force_spec_refresh();

    let mut rows = Vec::new();
    let paper = [
        ("Job A", "0.88 ± 0.09", 312),
        ("Job B", "1.36 ± 0.26", 1040),
        ("Job C", "2.03 ± 0.20", 1250),
    ];
    for ((name, tasks, _), (pname, pspec, ptasks)) in jobs.iter().zip(paper.iter()) {
        let s = specs
            .iter()
            .find(|s| s.jobname == *name)
            .expect("spec built");
        rows.push(vec![
            pname.to_string(),
            format!("{:.2} ± {:.2}", s.cpi_mean, s.cpi_stddev),
            format!("{tasks} (paper: {ptasks})"),
            pspec.to_string(),
        ]);
    }
    plot::print_table(
        "Table 1: CPI specs of representative latency-sensitive jobs",
        &["job", "measured CPI", "tasks", "paper CPI"],
        &rows,
    );

    // Shape checks: ordered means, tight relative spread.
    let get = |n: &str| specs.iter().find(|s| s.jobname == n).unwrap();
    let (a, b, c) = (get("job-a"), get("job-b"), get("job-c"));
    assert!(a.cpi_mean < b.cpi_mean && b.cpi_mean < c.cpi_mean);
    for s in [a, b, c] {
        assert!(
            s.cpi_stddev / s.cpi_mean < 0.35,
            "σ/µ too wide for {}",
            s.jobname
        );
    }
    assert!(
        b.cpi_stddev / b.cpi_mean > a.cpi_stddev / a.cpi_mean,
        "job B is the noisy one in the paper"
    );
    println!("\ntab01 OK");
}
