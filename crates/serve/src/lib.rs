//! `cpi2-serve`: resident observability & control plane for the CPI²
//! reproduction.
//!
//! The paper's pipeline (§5) is an *online service*: operators watch
//! incident dashboards, run forensics queries over the logs, and issue
//! manual cap / uncap / kill-restart actions while the fleet runs. This
//! crate gives the reproduction that same resident shape:
//!
//! - [`ServeHarness`] runs the full deployment ([`cpi2::harness::Cpi2Harness`])
//!   tick by tick while request handlers read only torn-free snapshots —
//!   serving cannot perturb tick ordering, and the determinism suite
//!   proves tick-stream bit-identity with a server attached vs absent;
//! - [`server`] is a dependency-free HTTP/1.1 keep-alive server in the
//!   same hand-rolled spirit as the rest of the workspace: sharded accept
//!   and a `poll(2)` readiness loop ([`eventloop`]) that only moves
//!   bytes, around one socket-free, clock-free state machine per
//!   connection (`conn.rs`: pipelining, streaming chunked responses,
//!   read/write deadlines, size ceilings, a bounded lingering close),
//!   with back-pressure by refusal at the connection ceiling;
//! - [`routes`] expose `/metrics` (Prometheus text), `/metrics.json`,
//!   `/healthz`, `/version`, `/incidents`, `/incidents/{id}/trace`,
//!   `/specs/{job}`, `/machines/{id}`, `/debug/events`, `POST /query`
//!   (the SQL-ish forensics engine over live tables) and
//!   `POST /actions/…` (operator interface, applied at the next tick
//!   boundary);
//! - every incident carries a [`cpi2::core::TraceId`] whose span chain
//!   (sample window → 2σ violation → identification → decision →
//!   amelioration → recovery) is recorded end to end and served at
//!   `GET /incidents/{id}/trace`.
//!
//! # Quickstart
//!
//! ```no_run
//! use cpi2::core::Cpi2Config;
//! use cpi2::harness::Cpi2Harness;
//! use cpi2::sim::{Cluster, ClusterConfig, Platform};
//! use cpi2_serve::{ServeHarness, ServerConfig};
//!
//! let mut cluster = Cluster::new(ClusterConfig::default());
//! cluster.add_machines(&Platform::westmere(), 16);
//! let system = Cpi2Harness::new(cluster, Cpi2Config::default());
//! let mut sh = ServeHarness::new(system);
//! let addr = sh.serve("127.0.0.1:0", ServerConfig::default()).unwrap();
//! println!("serving on http://{addr}");
//! // sh.run_for(...) / sh.tick() while clients scrape.
//! ```

#![warn(missing_docs)]

mod conn;
pub mod eventloop;
pub mod harness;
pub mod http;
pub mod poll;
pub mod routes;
pub mod server;
pub mod state;

pub use harness::ServeHarness;
pub use routes::Router;
pub use server::{Handler, Request, Response, ServerConfig, ServerHandle};
pub use state::{ActionQueue, LiveSnapshot, LiveState, OperatorAction, SharedState};
