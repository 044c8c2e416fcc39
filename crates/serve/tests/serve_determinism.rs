//! Serving must be strictly observational: the same seed produces a
//! bit-identical incident stream whether or not an HTTP server is
//! attached and being hammered by concurrent clients. This is the
//! serve-crate extension of the workspace determinism contract
//! (`tests/determinism.rs`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;

mod common;

use cpi2::harness::Cpi2Harness;
use cpi2::sim::SimDuration;
use cpi2_serve::state::INCIDENT_TAIL;
use cpi2_serve::{ServeHarness, ServerConfig};

const SEED: u64 = 0x0DE7_E121;
const CLIENTS: usize = 32;
const REQUESTS_PER_CLIENT: usize = 8;
const MACHINES: u32 = 32;

/// The shared fleet after a clean half hour of learning, thrashers
/// planted.
fn build_system() -> Cpi2Harness {
    let mut system = common::fleet(SEED, MACHINES);
    system.run_for(SimDuration::from_mins(30));
    common::plant(&mut system, MACHINES);
    system
}

fn client(addr: std::net::SocketAddr, i: usize) -> (usize, usize) {
    let mut ok = 0;
    let mut server_errors = 0;
    let paths: [&str; 4] = ["/metrics", "/incidents", "/debug/events", "/metrics.json"];
    for n in 0..REQUESTS_PER_CLIENT {
        // `Connection: close` so the keep-alive server ends each
        // exchange and `read_to_string` sees EOF.
        let req = if n % 4 == 3 {
            let sql = "SELECT count(*) FROM samples";
            format!(
                "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{sql}",
                sql.len()
            )
        } else {
            format!(
                "GET {} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                paths[(i + n) % 4]
            )
        };
        let Ok(mut s) = TcpStream::connect(addr) else {
            continue;
        };
        if s.write_all(req.as_bytes()).is_err() {
            continue;
        }
        let mut out = String::new();
        if s.read_to_string(&mut out).is_err() {
            continue;
        }
        let status: u16 = out
            .split(' ')
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        match status {
            200..=299 => ok += 1,
            // 503 = bounded accept queue refusing under burst: legitimate
            // back-pressure, not a server failure.
            503 => {}
            500..=599 => server_errors += 1,
            _ => {}
        }
    }
    (ok, server_errors)
}

/// `cpi_incidents_total` summed over its action labels.
fn incidents_total(system: &Cpi2Harness) -> u64 {
    let text = system.telemetry().prometheus_text().expect("telemetry on");
    text.lines()
        .filter(|l| l.starts_with("cpi_incidents_total{"))
        .map(|l| l.rsplit(' ').next().and_then(|n| n.parse::<u64>().ok()))
        .sum::<Option<u64>>()
        .expect("counter lines end in a count")
}

#[test]
fn tick_stream_is_bit_identical_with_server_attached() {
    let run = SimDuration::from_mins(90);

    // Reference: no server anywhere near the system.
    let mut bare = build_system();
    bare.run_for(run);
    let bare_lines = bare.incident_lines();
    let bare_now = bare.cluster.now();
    let bare_caps = bare.caps_applied();
    assert!(bare_caps > 0, "the fleet never capped anything");
    assert!(
        bare_lines.len() > INCIDENT_TAIL,
        "{} incidents do not overflow the served tail",
        bare_lines.len()
    );
    assert_eq!(incidents_total(&bare), bare_lines.len() as u64);

    // Same seed, but resident: 32 concurrent clients scrape and query
    // while the fleet ticks at full rate and the publisher maintains
    // the served snapshot (default refresh period, restated).
    let mut sh = ServeHarness::new(build_system());
    sh.set_full_snapshot_every(64);
    let addr = sh
        .serve("127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| thread::spawn(move || client(addr, i)))
        .collect();
    let end = sh.inner().cluster.now() + run;
    while sh.inner().cluster.now() < end {
        sh.tick();
        // A resident harness keeps what it serves and no more.
        assert!(sh.inner().incidents().len() <= INCIDENT_TAIL);
    }
    let mut ok_total = 0;
    let mut err_total = 0;
    for c in clients {
        let (ok, errs) = c.join().expect("client thread");
        ok_total += ok;
        err_total += errs;
    }
    sh.shutdown_server();
    let served = sh.into_inner();

    // The clients really exercised the server, and nothing 5xx'd.
    assert!(
        ok_total > 0,
        "expected at least one successful scrape from {CLIENTS} clients"
    );
    assert_eq!(err_total, 0, "server returned 5xx under load");
    let text = served.telemetry().prometheus_text().expect("telemetry on");
    assert!(
        text.contains("cpi_serve_handler_panics_total 0"),
        "handler panicked:\n{text}"
    );

    // Bit-identical simulation: same clock, same caps, as many incidents,
    // and the served log is the bare log's newest `INCIDENT_TAIL`, line
    // for line.
    assert_eq!(served.cluster.now(), bare_now, "sim clocks diverged");
    assert_eq!(served.caps_applied(), bare_caps, "cap counts diverged");
    assert_eq!(incidents_total(&served), bare_lines.len() as u64);
    assert_eq!(
        served.incident_lines(),
        bare_lines[bare_lines.len() - INCIDENT_TAIL..],
        "incident streams diverged between served and bare runs"
    );
}

#[test]
fn operator_actions_apply_at_tick_boundaries_only() {
    // Actions enqueued mid-tick do nothing until the next tick() call —
    // the deterministic injection point.
    let mut sh = ServeHarness::new(build_system());
    let state = sh.state();
    state
        .actions
        .push(cpi2_serve::OperatorAction::SetProtection(false));
    assert!(sh.inner().protection_enabled(), "action applied too early");
    sh.tick();
    assert!(
        !sh.inner().protection_enabled(),
        "action not applied at tick"
    );
    assert_eq!(state.actions.pending(), 0);
}
