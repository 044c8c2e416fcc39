//! End-to-end incident tracing: a planted antagonist produces an
//! incident whose trace carries the complete span chain — sample window
//! → 2σ violation → identification → decision → amelioration → recovery
//! — and `GET /incidents/{id}/trace` serves it.

use std::io::{Read, Write};
use std::net::TcpStream;

use cpi2::core::{Cpi2Config, TraceStage};
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, ResourceProfile, SimDuration};
use cpi2::workloads::{CacheThrasher, LsService};
use cpi2_serve::{ServeHarness, ServerConfig};

/// The `end_to_end.rs` planted-antagonist recipe: six spread victim
/// tasks learn a clean spec, then a cache thrasher lands on one machine.
fn planted_antagonist_system(seed: u64) -> Cpi2Harness {
    let mut cluster = Cluster::new(ClusterConfig {
        seed,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 6);
    cluster
        .submit_job(
            JobSpec::latency_sensitive("frontend", 6, 1.0),
            true,
            Box::new(move |i| {
                Box::new(LsService::new(
                    ResourceProfile::cache_heavy(),
                    1.0,
                    12,
                    seed ^ i as u64,
                ))
            }),
        )
        .expect("placement");
    let config = Cpi2Config {
        min_samples_per_task: 5,
        ..Cpi2Config::default()
    };
    Cpi2Harness::new(cluster, config)
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    // `Connection: close` so the keep-alive server ends the exchange and
    // `read_to_string` sees EOF instead of waiting out the idle reap.
    let request = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    s.write_all(request.as_bytes()).expect("write");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read");
    let status: u16 = out
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = out
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn planted_antagonist_yields_complete_trace_chain() {
    let mut system = planted_antagonist_system(7);

    // Learn the spec alone, then plant the antagonist.
    system.run_for(SimDuration::from_mins(30));
    system.force_spec_refresh();
    system
        .cluster
        .submit_job(
            JobSpec::best_effort("thrasher", 1, 1.0),
            true,
            Box::new(|_| Box::new(CacheThrasher::new(8.0, 300, 300, 99))),
        )
        .expect("placement");
    // Detection + cap, then enough capped time for the victim's CPI to
    // return under threshold (the recovery span).
    system.run_for(SimDuration::from_mins(60));

    let acted: Vec<_> = system
        .incidents()
        .iter()
        .filter(|mi| mi.incident.acted())
        .collect();
    assert!(!acted.is_empty(), "expected an acted incident");

    // At least one acted incident must carry the full six-stage chain.
    let mut best: Vec<&'static str> = Vec::new();
    let mut best_id = None;
    for mi in &acted {
        let id = mi.incident.trace_id;
        assert!(!id.is_none(), "acted incident without a trace id");
        let Some(spans) = system.incident_trace(id) else {
            continue;
        };
        let stages: Vec<&'static str> = spans.iter().map(|s| s.stage.name()).collect();
        // Spans arrive in causal order within a trace.
        let seqs: Vec<u8> = spans.iter().map(|s| s.stage.seq()).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "spans out of causal order: {stages:?}");
        if stages.len() > best.len() {
            best = stages;
            best_id = Some(id);
        }
    }
    let complete: Vec<&str> = [
        TraceStage::SampleWindow,
        TraceStage::Violation,
        TraceStage::Identification,
        TraceStage::Decision,
        TraceStage::Amelioration,
        TraceStage::Recovery,
    ]
    .iter()
    .map(|s| s.name())
    .collect();
    assert_eq!(
        best, complete,
        "no acted incident carried the complete span chain"
    );
    let trace_id = best_id.expect("complete chain has an id");

    // The same chain is served over HTTP.
    let mut sh = ServeHarness::new(system);
    sh.tick(); // publish a snapshot carrying the traces
    let addr = sh
        .serve("127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let (code, body) = get(addr, &format!("/incidents/{trace_id}/trace"));
    assert_eq!(code, 200, "{body}");
    for stage in &complete {
        assert!(
            body.contains(stage),
            "missing {stage} in served trace: {body}"
        );
    }
    assert!(
        body.contains(&format!("\"trace\":\"{trace_id}\"")),
        "{body}"
    );

    // The incident list links to the same trace.
    let (code, list) = get(addr, "/incidents");
    assert_eq!(code, 200);
    assert!(list.contains(&trace_id.to_string()), "{list}");

    sh.shutdown_server();
}
