//! The §1–§2 motivation, quantified: interference discards search replies.
//!
//! "An end-user response time beyond a couple of hundred milliseconds can
//! adversely affect user experience, so replies from leaves that take too
//! long to arrive are simply discarded, lowering the quality of the search
//! result" (§2); the intro's anecdote: "1/66 of user traffic for an
//! application ... had a latency of more than 200 ms rather than 40 ms for
//! more than 1 hr."
//!
//! Three phases over one leaf-serving cluster: clean, under batch
//! interference with protection off, and with CPI² protection on. We
//! report mean leaf latency, the fraction of replies missing the fan-out
//! deadline (= discarded, i.e. lost result quality), and the >200 ms tail.

use crate::{metrics, plot};
use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, SimDuration};
use cpi2::workloads::{self, CacheThrasher};

/// Fan-out deadline: replies later than this are discarded by the mixer.
const DEADLINE_MS: f64 = 80.0;
/// The intro anecdote's user-visible pain threshold.
const TAIL_MS: f64 = 200.0;

#[derive(Debug, Default, Clone, Copy)]
struct Quality {
    mean_latency: f64,
    discarded_frac: f64,
    tail_frac: f64,
}

/// Measures per-leaf-reply quality over `secs` seconds.
fn measure(system: &mut Cpi2Harness, secs: u32) -> Quality {
    let mut n = 0u64;
    let mut sum = 0.0;
    let mut discarded = 0u64;
    let mut tail = 0u64;
    for _ in 0..secs {
        system.step();
        for obs in metrics::per_task(&system.cluster, "websearch-leaf") {
            let Some(l) = obs.latency_ms else { continue };
            n += 1;
            sum += l;
            if l > DEADLINE_MS {
                discarded += 1;
            }
            if l > TAIL_MS {
                tail += 1;
            }
        }
    }
    Quality {
        mean_latency: sum / n.max(1) as f64,
        discarded_frac: discarded as f64 / n.max(1) as f64,
        tail_frac: tail as f64 / n.max(1) as f64,
    }
}

pub(crate) fn run() {
    let mut cluster = Cluster::new(ClusterConfig {
        seed: 404,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 12);
    cluster
        .submit_job(
            JobSpec::latency_sensitive("websearch-leaf", 12, 2.0),
            true,
            workloads::factory("websearch-leaf", 12),
        )
        .expect("placement");
    let config = Cpi2Config {
        min_samples_per_task: 5,
        ..Cpi2Config::default()
    };
    let mut system = Cpi2Harness::new(cluster, config);

    // Learn specs, then measure the clean baseline.
    system.run_for(SimDuration::from_mins(30));
    system.force_spec_refresh();
    let clean = measure(&mut system, 600);

    // Batch thrashers land; protection off — the pre-CPI² world.
    system.set_protection_enabled(false);
    system
        .cluster
        .submit_job(
            JobSpec::best_effort("indexer", 5, 1.0),
            true,
            Box::new(|i| Box::new(CacheThrasher::new(8.0, 600, 120, 9 + i as u64))),
        )
        .expect("placement");
    system.run_for(SimDuration::from_mins(5));
    let degraded = measure(&mut system, 1800);

    // CPI² protection on.
    system.set_protection_enabled(true);
    system.run_for(SimDuration::from_mins(15)); // detection + first caps
    let protected = measure(&mut system, 1800);

    let row = |name: &str, q: Quality| {
        vec![
            name.to_string(),
            format!("{:.1} ms", q.mean_latency),
            format!("{:.2}%", q.discarded_frac * 100.0),
            if q.tail_frac > 0.0 {
                format!("1/{:.0}", 1.0 / q.tail_frac)
            } else {
                "none".to_string()
            },
        ]
    };
    plot::print_table(
        "Search quality under interference (deadline 80 ms, tail 200 ms)",
        &[
            "phase",
            "mean leaf latency",
            "replies discarded",
            "traffic >200 ms",
        ],
        &[
            row("clean", clean),
            row("interfered, no CPI2", degraded),
            row("interfered, CPI2 on", protected),
        ],
    );
    println!(
        "caps applied once protection enabled: {}",
        system.caps_applied()
    );

    assert!(
        degraded.discarded_frac > clean.discarded_frac * 2.0 + 0.01,
        "interference must discard replies: {} -> {}",
        clean.discarded_frac,
        degraded.discarded_frac
    );
    assert!(
        protected.discarded_frac < degraded.discarded_frac * 0.7,
        "CPI2 must restore quality: {} -> {}",
        degraded.discarded_frac,
        protected.discarded_frac
    );
    assert!(system.caps_applied() >= 1);
    println!(
        "\nmotivation_quality OK (discarded: {:.1}% -> {:.1}% -> {:.1}%)",
        clean.discarded_frac * 100.0,
        degraded.discarded_frac * 100.0,
        protected.discarded_frac * 100.0
    );
}
