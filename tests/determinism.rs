//! Parallel execution must be invisible: a seeded run sharded across the
//! worker pool has to produce bit-identical results to the serial path —
//! the same simulator trace tick for tick, and the same published CPI
//! specs out of the aggregation pipeline.
//!
//! Both runs execute with telemetry *enabled*: the metrics layer is
//! observational only, and these tests pin that down — instrumented runs
//! must stay bit-identical across worker counts.

use cpi2::core::{Cpi2Config, CpiSpec, IdentifierKind};
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{
    Cluster, ClusterConfig, FaultPlan, FaultProfile, Platform, SimDuration, TraceEntry,
};
use cpi2::telemetry::Telemetry;
use cpi2::workloads;

const MACHINES: u32 = 16;
const SEED: u64 = 0x0DE7_E121;

fn build_system(parallelism: usize) -> Cpi2Harness {
    build_system_with(parallelism, IdentifierKind::Paper)
}

fn build_system_with(parallelism: usize, identifier: IdentifierKind) -> Cpi2Harness {
    build_fleet(MACHINES, SEED, parallelism, identifier)
}

fn build_fleet(
    machines: u32,
    seed: u64,
    parallelism: usize,
    identifier: IdentifierKind,
) -> Cpi2Harness {
    let mut cluster = Cluster::new(ClusterConfig {
        seed,
        overcommit: 2.0,
        parallelism,
        telemetry: Telemetry::enabled(),
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), machines);
    workloads::submit_typical_mix(&mut cluster, 1, 5);
    let config = Cpi2Config {
        // Hourly refresh so the pipeline publishes several times within a
        // short run.
        spec_refresh_hours: 1,
        min_samples_per_task: 5,
        identifier,
        ..Cpi2Config::default()
    };
    Cpi2Harness::new(cluster, config)
}

/// Runs the full system for a few refresh periods and returns the
/// simulator trace plus everything the pipeline published.
fn run(parallelism: usize) -> (Vec<TraceEntry>, Vec<CpiSpec>, u64, usize) {
    let mut system = build_system(parallelism);
    system.run_for(SimDuration::from_mins(135));
    let trace: Vec<TraceEntry> = system.cluster.trace().entries().cloned().collect();
    let specs = system.spec_store.changed_since(0);
    let version = system.spec_store.version();
    let incidents = system.incidents().len();
    (trace, specs, version, incidents)
}

#[test]
fn parallel_run_is_bit_identical_to_serial() {
    let (serial_trace, serial_specs, serial_version, serial_incidents) = run(1);
    let (par_trace, par_specs, par_version, par_incidents) = run(4);

    // The cluster saw real activity and the pipeline really refreshed —
    // otherwise equality below would be vacuous.
    assert!(!serial_trace.is_empty(), "trace empty: workload never ran");
    assert!(
        !serial_specs.is_empty(),
        "no specs published: refresh never fired"
    );
    assert!(serial_version >= 2, "expected several refresh periods");

    assert_eq!(
        serial_trace, par_trace,
        "simulator trace diverged between parallelism 1 and 4"
    );
    assert_eq!(
        serial_specs, par_specs,
        "published CPI specs diverged between parallelism 1 and 4"
    );
    assert_eq!(serial_version, par_version);
    assert_eq!(serial_incidents, par_incidents);
}

#[test]
fn parallelism_beyond_machine_count_is_identical_too() {
    // More workers than machines degrades to fewer shards, never to
    // different results.
    let (t1, s1, _, _) = run(1);
    let (t2, s2, _, _) = run(64);
    assert_eq!(t1, t2);
    assert_eq!(s1, s2);
}

/// Everything a faulty run produces: trace, published specs, incident
/// stream and fault counters.
type FaultyRun = (Vec<TraceEntry>, Vec<CpiSpec>, Vec<String>, [u64; 3]);

/// A full faulty run for one parallelism level.
fn run_faulty(parallelism: usize) -> FaultyRun {
    let system = build_system(parallelism);
    run_under(
        system,
        SEED,
        FaultProfile::heavy(),
        SimDuration::from_mins(135),
    )
}

fn run_under(
    mut system: Cpi2Harness,
    fault_seed: u64,
    profile: FaultProfile,
    duration: SimDuration,
) -> FaultyRun {
    system.set_fault_plan(Some(FaultPlan::new(fault_seed, profile)));
    system.run_for(duration);
    (
        system.cluster.trace().entries().cloned().collect(),
        system.spec_store.changed_since(0),
        system.incident_lines(),
        [
            system.agent_restarts(),
            system.machine_crashes(),
            system.shipment_faults(),
        ],
    )
}

/// A faulty run with the PANDA identifier enabled: trace, incident lines
/// and the agents' total evidence-book size, per parallelism level.
fn run_panda(parallelism: usize) -> (Vec<TraceEntry>, Vec<CpiSpec>, Vec<String>, usize) {
    let mut system = build_system_with(parallelism, IdentifierKind::Panda);
    system.set_fault_plan(Some(FaultPlan::new(SEED, FaultProfile::lossy())));
    system.run_for(SimDuration::from_mins(135));
    let evidence: usize = system
        .cluster
        .machines()
        .iter()
        .filter_map(|m| system.agent(m.id))
        .map(|a| a.evidence_pairs())
        .sum();
    (
        system.cluster.trace().entries().cloned().collect(),
        system.spec_store.changed_since(0),
        system.incident_lines(),
        evidence,
    )
}

#[test]
fn panda_identifier_is_bit_identical_across_parallelism() {
    // The PANDA evidence book is per-agent BTreeMap state updated only
    // from that machine's own incident stream; sharding machines across
    // workers must not change what any book accumulates — nor, therefore,
    // any confidence score or incident line.
    let (trace_1, specs_1, incidents_1, evidence_1) = run_panda(1);
    let (trace_4, specs_4, incidents_4, evidence_4) = run_panda(4);
    let (trace_64, specs_64, incidents_64, evidence_64) = run_panda(64);

    assert_eq!(trace_1, trace_4, "panda trace diverged at parallelism 4");
    assert_eq!(trace_1, trace_64, "panda trace diverged at parallelism 64");
    assert_eq!(specs_1, specs_4);
    assert_eq!(specs_1, specs_64);
    assert_eq!(incidents_1, incidents_4);
    assert_eq!(incidents_1, incidents_64);
    assert_eq!(evidence_1, evidence_4);
    assert_eq!(evidence_1, evidence_64);
}

/// FNV-1a over the Debug/line renderings of everything a faulty run
/// produces. Collapses a full run into one pinnable number.
fn run_digest(parallelism: usize) -> u64 {
    let (trace, specs, incidents, counts) = run_faulty(parallelism);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in &trace {
        eat(format!("{e:?}").as_bytes());
    }
    for s in &specs {
        eat(format!("{s:?}").as_bytes());
    }
    for line in &incidents {
        eat(line.as_bytes());
    }
    eat(format!("{counts:?}").as_bytes());
    h
}

/// Digest of the pinned-seed heavy-fault run, captured on the
/// array-of-structs tick implementation immediately before the
/// struct-of-arrays refactor. Any change to simulation arithmetic,
/// iteration order, or RNG draw order shows up here as a different
/// number — the refactor is only done when this stays green.
const GOLDEN_HEAVY_FAULT_DIGEST: u64 = 0x11BB_5F26_ECE1_E623;

#[test]
fn heavy_fault_run_matches_pre_refactor_golden_digest() {
    for parallelism in [1, 4, 64] {
        assert_eq!(
            run_digest(parallelism),
            GOLDEN_HEAVY_FAULT_DIGEST,
            "heavy-fault golden digest changed at parallelism {parallelism} \
             (simulation output is no longer bit-identical to the pinned run)"
        );
    }
}

#[test]
fn faulty_run_is_bit_identical_across_parallelism() {
    // Fault injection draws are keyed on (machine, sim time), never on
    // execution order — so crashes, restarts and shipment faults must
    // land identically whether machines run serially or sharded.
    let (trace_1, specs_1, incidents_1, counts_1) = run_faulty(1);
    let (trace_4, specs_4, incidents_4, counts_4) = run_faulty(4);
    let (trace_64, specs_64, incidents_64, counts_64) = run_faulty(64);

    // The heavy profile really fired inside the 135-minute run —
    // otherwise the equalities below would be vacuous.
    assert!(counts_1[0] > 0, "no agent restarts fired");
    assert!(counts_1[1] > 0, "no machine crashes fired");
    assert!(counts_1[2] > 0, "no shipment faults fired");

    assert_eq!(
        trace_1, trace_4,
        "faulty trace diverged between parallelism 1 and 4"
    );
    assert_eq!(
        trace_1, trace_64,
        "faulty trace diverged between parallelism 1 and 64"
    );
    assert_eq!(specs_1, specs_4);
    assert_eq!(specs_1, specs_64);
    assert_eq!(incidents_1, incidents_4);
    assert_eq!(incidents_1, incidents_64);
    assert_eq!(counts_1, counts_4);
    assert_eq!(counts_1, counts_64);

    // The cells of the retired CI `faults` matrix: a small fleet run just
    // long enough (1200 s) for the heavy profile's 10-minute agent
    // restarts to fire, each fault seed reseeding fleet and plan alike.
    for seed in [1, 2, 3] {
        for profile in [FaultProfile::none(), FaultProfile::heavy()] {
            let cell = |parallelism| {
                run_under(
                    build_fleet(8, seed, parallelism, IdentifierKind::Paper),
                    seed,
                    profile.clone(),
                    SimDuration::from_secs(1200),
                )
            };
            let (serial, sharded) = (cell(1), cell(4));
            assert_eq!(
                serial, sharded,
                "seed {seed}, {profile:?}: parallelism 1 and 4 diverged"
            );
            let fired: u64 = serial.3.iter().sum();
            assert_eq!(
                fired > 0,
                !profile.is_noop(),
                "seed {seed}, {profile:?}: {fired} faults fired"
            );
        }
    }
}
