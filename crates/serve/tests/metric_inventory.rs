//! DESIGN.md §6's metric inventory and what a running daemon registers
//! are one list: every family a smoke run exports is documented, and
//! every documented family is exported.

use std::collections::BTreeSet;

use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{Cluster, ClusterConfig, Platform, SimDuration};
use cpi2::telemetry::Telemetry;
use cpi2_serve::{ServeHarness, ServerConfig};

const DESIGN: &str = include_str!("../../../DESIGN.md");

/// The `cpi_*` names in the first column of the Observability section's
/// inventory table, labels stripped.
fn documented() -> BTreeSet<String> {
    let start = DESIGN
        .find("### Observability")
        .expect("DESIGN.md has an Observability section");
    let section = &DESIGN[start..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    let mut names = BTreeSet::new();
    for row in section.lines().filter(|l| l.starts_with("| `cpi_")) {
        let first_cell = row[1..].split(" | ").next().unwrap_or("");
        for (i, token) in first_cell.split('`').enumerate() {
            if i % 2 == 1 && token.starts_with("cpi_") {
                let name = token.split('{').next().unwrap_or(token);
                names.insert(name.to_string());
            }
        }
    }
    names
}

/// The families a telemetry-enabled daemon exports after a few ticks.
fn exported() -> BTreeSet<String> {
    let mut cluster = Cluster::new(ClusterConfig {
        seed: 0x1EE7,
        telemetry: Telemetry::enabled(),
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 2);
    cpi2::workloads::submit_typical_mix(&mut cluster, 1, 0x1EE7);
    let system = Cpi2Harness::new(cluster, Cpi2Config::default());
    let mut sh = ServeHarness::new(system);
    sh.serve("127.0.0.1:0", ServerConfig { shards: 1 })
        .expect("bind loopback");
    sh.run_for(SimDuration::from_mins(3));
    sh.shutdown_server();
    sh.inner()
        .telemetry()
        .prometheus_text()
        .expect("telemetry is enabled")
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

#[test]
fn documented_and_exported_metrics_are_one_list() {
    let documented = documented();
    let exported = exported();
    assert!(exported.len() > 40, "smoke run exported only {exported:?}");
    let undocumented: Vec<_> = exported.difference(&documented).collect();
    let unexported: Vec<_> = documented.difference(&exported).collect();
    assert!(
        undocumented.is_empty(),
        "exported but missing from DESIGN.md §6: {undocumented:?}"
    );
    assert!(
        unexported.is_empty(),
        "in DESIGN.md §6 but not exported: {unexported:?}"
    );
}
