//! The two serve workloads: one resident fleet, read the two opposite
//! ways.
//!
//! `serve_paced` ticks every 100 ms and scrapes read-only: a generation
//! outlives hundreds of requests, so whatever is cached or encoded once
//! per generation is hit. `serve_churn` ticks every millisecond under an
//! operator mix that also queries and posts actions: a generation
//! changes before any route is asked again, so per-generation caches
//! miss, readers merge fresh deltas every time, and publish and the
//! action queue run beside the reads.
//!
//! The harness is not `Send` (job factories are plain boxed closures),
//! so it ticks on the calling thread while the generator runs on a
//! scoped one.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use cpi2::core::{Cpi2Config, DEFAULT_TRACE_CAPACITY};
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, SchedClass, SimDuration};
use cpi2::stats::rng::SimRng;
use cpi2::telemetry::Telemetry;
use cpi2::workloads::{self, CacheThrasher};
use cpi2_serve::http::{self, Body, Framing, ParseLimits, Parsed};
use cpi2_serve::state::INCIDENT_TAIL;
use cpi2_serve::{Router, ServeHarness, ServerConfig};

use crate::loadgen::{self, get, post, Loop, PhaseReport, Request, Route};
use crate::stats::{median, over_slices, Spread};

/// Open-loop rate of `serve_paced` phase A, requests per second.
pub const OPEN_RATE: f64 = 400.0;
/// Keep-alive connections the generator holds.
pub const CONNECTIONS: usize = 2;

/// CPU placement for the serve workloads.
///
/// Left to the scheduler on a small VM, each run lands in one of two
/// regimes — a woken thread placed on its waker's CPU, or on an idle
/// vCPU that must first be kicked awake — a factor of two apart in both
/// latency and throughput. So the generator and the shard are pinned to
/// one CPU, where they hand over by context switch, and the tick thread
/// to another (the same one when there is only one), where its share of
/// a core cannot move the request rate.
pub mod affinity {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// A `cpu_set_t`: 1024 bits.
    type Mask = [u64; 16];

    /// The CPUs the calling thread may run on, ascending.
    pub fn allowed() -> Vec<usize> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live, writable 128-byte buffer and the size
        // passed is its size; pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        if ok != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// Pins the calling thread — and every thread it spawns afterwards —
    /// to `cpu`. Returns whether the kernel accepted the mask.
    pub fn pin(cpu: usize) -> bool {
        let mut mask: Mask = [0; 16];
        let Some(word) = mask.get_mut(cpu / 64) else {
            return false;
        };
        *word |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live, initialised 128-byte buffer and the
        // size passed is its size; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
}

/// Where the serve workloads' threads run.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// CPU of the generator and the shard.
    pub request_cpu: usize,
    /// CPU of the tick thread.
    pub tick_cpu: usize,
}

impl Placement {
    /// The last allowed CPU for requests and the first for ticks (the
    /// same one if there is only one); `None` if the affinity mask cannot
    /// be read.
    pub fn choose() -> Option<Placement> {
        let cpus = affinity::allowed();
        Some(Placement {
            request_cpu: *cpus.last()?,
            tick_cpu: *cpus.first()?,
        })
    }
}

/// Which way the fleet is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// Slow ticks, read-only scrape mix, open then closed loop.
    Paced,
    /// Fast ticks, operator mix, closed loop.
    Churn,
}

/// A serve workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct ServePlan {
    /// Which workload.
    pub kind: ServeKind,
    /// Machines in the resident fleet.
    pub machines: u32,
    /// Clean simulated minutes before the forced spec refresh.
    pub clean_min: i64,
    /// Simulated minutes after the antagonists are planted.
    pub planted_min: i64,
}

impl ServePlan {
    /// Wall time the tick thread sleeps between ticks.
    pub fn pace(&self) -> Duration {
        match self.kind {
            ServeKind::Paced => Duration::from_millis(100),
            ServeKind::Churn => Duration::from_millis(1),
        }
    }

    /// The request mix, laid out over sixteen slots so that heavy and
    /// light routes alternate. The order is fixed: which requests share
    /// the shard at any moment must not change with the seed.
    pub fn pattern(&self) -> [Route; 16] {
        use Route::{
            Actions as A, Healthz as H, Incidents as I, Machines as V, Metrics as M,
            MetricsJson as J, Query as Q, Specs as S,
        };
        match self.kind {
            // 8 healthz, 4 metrics, 2 incidents, 1 machines, 1 metrics.json.
            ServeKind::Paced => [H, M, H, I, H, M, H, V, H, M, H, I, H, M, H, J],
            // 4 metrics, 3 incidents, 3 machines, 2 query, 2 actions
            // (a cap, then its uncap), 1 specs, 1 healthz.
            ServeKind::Churn => [M, V, I, Q, M, A, V, I, M, S, Q, V, M, A, I, H],
        }
    }

    /// Each route in the mix with its share of requests.
    pub fn weights(&self) -> Vec<(Route, f64)> {
        let pattern = self.pattern();
        Route::ALL
            .into_iter()
            .map(|r| (r, pattern.iter().filter(|p| **p == r).count()))
            .filter(|(_, n)| *n > 0)
            .map(|(r, n)| (r, n as f64 / pattern.len() as f64))
            .collect()
    }

    /// Builds the typical-mix fleet with telemetry on, warms it up clean,
    /// forces the first spec refresh, plants a cache thrasher on every
    /// second machine and runs on until the daemon is in the state a
    /// resident one is always in: incident tail and trace log full. (With
    /// them still filling, every request gets dearer as the run goes on
    /// and the figures depend on when they were taken.)
    pub fn setup(&self, seed: u64) -> ServeHarness {
        let mut cluster = Cluster::new(ClusterConfig {
            seed,
            overcommit: 2.0,
            parallelism: 1,
            telemetry: Telemetry::enabled(),
            ..ClusterConfig::default()
        });
        cluster.add_machines(&Platform::westmere(), self.machines);
        workloads::submit_typical_mix(&mut cluster, (self.machines / 64).max(1), seed);
        let config = Cpi2Config {
            min_samples_per_task: 5,
            incident_cooldown_s: 180,
            ..Cpi2Config::default()
        };
        let mut sh = ServeHarness::new(Cpi2Harness::new(cluster, config));
        sh.run_for(SimDuration::from_mins(self.clean_min));
        sh.inner_mut().force_spec_refresh();
        sh.inner_mut()
            .cluster
            .submit_job(
                JobSpec::batch("thrasher", (self.machines / 2).max(1), 4.0),
                true,
                Box::new(move |i| {
                    Box::new(
                        CacheThrasher::new(8.0, 240, 240, seed ^ 0x7A5 ^ u64::from(i))
                            .with_footprint(32.0),
                    )
                }),
            )
            .expect("serve fleet: thrasher placement");
        sh.run_for(SimDuration::from_mins(self.planted_min));
        sh
    }

    /// Whether the incident tail and the trace log are full.
    pub fn saturated(&self, sh: &ServeHarness) -> bool {
        sh.inner().incidents().len() >= INCIDENT_TAIL
            && sh.inner().trace_log().len() >= DEFAULT_TRACE_CAPACITY
    }
}

/// The generated request stream: everything the server is sent derives
/// from the seed and from ids read off the warmed-up fleet.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The mix laid out over sixteen slots.
    pub pattern: [Route; 16],
    machines: u64,
    machine_offset: u64,
    /// `(job, index)` of throttle-eligible tasks, for cap / uncap.
    tasks: Vec<(u32, u32)>,
    spec_job: String,
}

impl Inputs {
    /// Derives the request stream for `plan` from `seed` and the fleet.
    pub fn generate(plan: &ServePlan, sh: &ServeHarness, seed: u64) -> Inputs {
        let mut rng = SimRng::derive(seed, 0x10AD);
        let mut tasks: Vec<(u32, u32)> = sh
            .inner()
            .cluster
            .machines()
            .iter()
            .flat_map(|m| m.tasks())
            .filter(|t| t.class != SchedClass::LatencySensitive)
            .map(|t| (t.id.job.0, t.id.index))
            .collect();
        tasks.sort_unstable();
        rng.shuffle(&mut tasks);
        tasks.truncate(64);
        let mut spec_jobs: Vec<String> = sh
            .inner()
            .spec_store
            .changed_since(0)
            .into_iter()
            .map(|s| s.jobname)
            .collect();
        spec_jobs.sort();
        Inputs {
            pattern: plan.pattern(),
            machines: u64::from(plan.machines),
            machine_offset: rng.below(u64::from(plan.machines).max(1)),
            tasks,
            spec_job: spec_jobs.into_iter().next().unwrap_or_default(),
        }
    }

    /// Request `k` of the mixed stream: the route of slot `k mod 16`, and
    /// within that route its own running index, so ids rotate and caps
    /// alternate with uncaps however the slots were shuffled.
    pub fn request(&self, k: u64) -> Request {
        let len = self.pattern.len() as u64;
        let slot = (k % len) as usize;
        let route = self.pattern[slot];
        let same = |routes: &[Route]| routes.iter().filter(|r| **r == route).count() as u64;
        self.request_for(
            route,
            (k / len) * same(&self.pattern) + same(&self.pattern[..slot]),
        )
    }

    /// Request `n` of a single-route stream.
    pub fn request_for(&self, route: Route, n: u64) -> Request {
        match route {
            Route::Healthz => get(route, "/healthz"),
            Route::Metrics => get(route, "/metrics"),
            Route::MetricsJson => get(route, "/metrics.json"),
            Route::Incidents => get(route, "/incidents"),
            Route::Machines => {
                let id = (self.machine_offset + n.wrapping_mul(7)) % self.machines.max(1);
                get(route, &format!("/machines/{id}"))
            }
            Route::Specs => get(route, &format!("/specs/{}", self.spec_job)),
            Route::Query => post(route, "/query", "SELECT count(*) FROM samples"),
            Route::Actions => {
                // A cap, then the uncap of the same task, then the next task.
                let (job, index) = self.tasks[(n / 2 % self.tasks.len() as u64) as usize];
                if n & 1 == 0 {
                    post(
                        route,
                        &format!("/actions/cap?job={job}&index={index}&rate=0.5&secs=30"),
                        "",
                    )
                } else {
                    post(
                        route,
                        &format!("/actions/uncap?job={job}&index={index}"),
                        "",
                    )
                }
            }
        }
    }

    /// What the stream was derived from, for a check's detail line.
    pub fn describe(&self) -> String {
        format!(
            "spec job {:?}, {} cappable tasks, machine ids from {}",
            self.spec_job,
            self.tasks.len(),
            self.machine_offset
        )
    }

    /// Whether the fleet offers what the mix needs (a published spec, a
    /// cappable task).
    pub fn usable(&self) -> bool {
        !self.spec_job.is_empty() && !self.tasks.is_empty()
    }
}

/// What the tick thread saw while the generator ran.
#[derive(Debug, Default)]
pub struct TickLog {
    /// Wall ns of every `ServeHarness::tick()`.
    pub tick_ns: Vec<f64>,
    /// Sum over ticks of the delta depth right after the tick.
    pub depth_sum: u64,
    /// Publishes during the window.
    pub publishes: u64,
    /// µs spent publishing during the window.
    pub publish_us: u64,
}

/// Ticks `sh` at `pace` on this thread — or with `None` only waits —
/// until `work` (run on a scoped thread) returns or panics.
pub fn drive<R: Send>(
    sh: &mut ServeHarness,
    place: Option<Placement>,
    pace: Option<Duration>,
    work: impl FnOnce() -> R + Send,
) -> (R, TickLog) {
    let mut log = TickLog::default();
    let (publishes0, publish_us0) = sh.publish_stats();
    let state = sh.state();
    let result = std::thread::scope(|scope| {
        // The worker inherits this thread's CPU (the request CPU); only
        // then does this thread move to the tick CPU.
        let worker = scope.spawn(work);
        if let Some(p) = place {
            affinity::pin(p.tick_cpu);
        }
        while !worker.is_finished() {
            if pace.is_some() {
                let t0 = Instant::now();
                sh.tick();
                log.tick_ns.push(t0.elapsed().as_nanos() as f64);
                log.depth_sum += state.live.delta_depth() as u64;
            }
            std::thread::sleep(pace.unwrap_or(Duration::from_millis(1)));
        }
        let result = worker.join().expect("generator thread panicked");
        if let Some(p) = place {
            affinity::pin(p.request_cpu);
        }
        result
    });
    let (publishes, publish_us) = sh.publish_stats();
    log.publishes = publishes - publishes0;
    log.publish_us = publish_us - publish_us0;
    (result, log)
}

/// Starts the one-shard server on a loopback port.
pub fn serve(sh: &mut ServeHarness) -> SocketAddr {
    sh.serve(
        "127.0.0.1:0",
        ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind a loopback port")
}

/// One closed-loop phase of the workload's mix, and before it — traced
/// runs of `serve_paced` only — an open-loop phase at [`OPEN_RATE`].
///
/// The open loop is where a scraper's latency is read as a scraper sees
/// it, from when each request was due. It is kept out of the untraced
/// run: at 400 req/s the shard sleeps between requests, every request
/// pays a wake-up from idle, and on a small VM that cost alone moves the
/// median by a tenth from run to run — too loose for a bounded metric,
/// so by the README's rule it is reported per layer instead.
pub struct LoadRun {
    /// Open-loop phase, if one was asked for.
    pub open: Option<PhaseReport>,
    /// Closed-loop phase.
    pub closed: PhaseReport,
    /// Tick thread's view of the whole run.
    pub ticks: TickLog,
}

/// Runs the load against `addr` while ticking `sh`: `open_seconds` of
/// open loop (0 for none), then `closed_seconds` of closed loop.
pub fn run_load(
    plan: &ServePlan,
    sh: &mut ServeHarness,
    place: Option<Placement>,
    addr: SocketAddr,
    inputs: &Inputs,
    open_seconds: f64,
    closed_seconds: f64,
) -> LoadRun {
    let ((open, closed), ticks) = drive(sh, place, Some(plan.pace()), move || {
        let open = (open_seconds > 0.0).then(|| {
            loadgen::run_phase(
                addr,
                Loop::Open(OPEN_RATE),
                CONNECTIONS,
                open_seconds,
                &mut |k| inputs.request(k),
            )
        });
        let sent = open.as_ref().map_or(0, |p| p.attempted);
        let closed =
            loadgen::run_phase(addr, Loop::Closed, CONNECTIONS, closed_seconds, &mut |k| {
                inputs.request(sent + k)
            });
        (open, closed)
    });
    LoadRun {
        open,
        closed,
        ticks,
    }
}

impl LoadRun {
    /// The phases that ran, in order.
    pub fn phases(&self) -> impl Iterator<Item = &PhaseReport> {
        self.open.iter().chain(std::iter::once(&self.closed))
    }

    /// Requests sent across phases.
    pub fn attempted(&self) -> u64 {
        self.phases().map(|p| p.attempted).sum()
    }

    /// Requests failed across phases.
    pub fn failed(&self) -> u64 {
        self.phases().map(PhaseReport::failed).sum()
    }

    /// Failure reasons across phases.
    pub fn failures(&self) -> BTreeMap<&'static str, u64> {
        let mut all = BTreeMap::new();
        for (why, n) in self.phases().flat_map(|p| &p.failures) {
            *all.entry(*why).or_insert(0) += n;
        }
        all
    }

    /// Reconnects after announced closes, across phases.
    pub fn reconnects(&self) -> u64 {
        self.phases().map(|p| p.reconnects).sum()
    }
}

/// Minimum requests per slice for a sliced latency percentile.
pub const MIN_PER_SLICE: usize = 500;

/// Latencies of a phase, µs, completion order.
pub fn latencies_us(phase: &PhaseReport) -> Vec<f64> {
    phase.records.iter().map(|r| r.latency_ns / 1e3).collect()
}

/// The latency a request drawn from the mix typically sees: the median
/// of each route's latencies, weighted by the route's share — per slice
/// of the phase, then the spread over slices. (The pooled median of a
/// mix sits on the boundary between a cheap and a dear route class and
/// jumps between them from run to run.)
pub fn mix_p50_us(plan: &ServePlan, phase: &PhaseReport) -> Spread {
    let weights = plan.weights();
    over_slices(&phase.records, MIN_PER_SLICE, |chunk| {
        weights
            .iter()
            .map(|&(route, w)| {
                let of_route = chunk
                    .iter()
                    .filter(|r| r.route == route)
                    .map(|r| r.latency_ns / 1e3)
                    .collect();
                w * median(of_route)
            })
            .sum()
    })
}

/// In-process cost of one route: handler + body collection, no socket.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteCost {
    /// Median µs of `Router::handle` + `into_body_bytes`.
    pub us_per_call: f64,
    /// Body bytes of the last response.
    pub bytes: f64,
    /// Median ns of `encode_head` + chunk framing for that response.
    pub encode_ns: f64,
}

const LIMITS: ParseLimits = ParseLimits {
    max_header_bytes: 8 * 1024,
    max_body_bytes: 64 * 1024,
};

/// Times every route of the mix in-process against the live shared
/// state. With `fresh` the harness ticks before every call, so each call
/// meets a new generation and pays the reader-side merge, as requests do
/// under `serve_churn`'s load; without, every call after the first finds
/// the merged view cached.
pub fn route_costs(
    plan: &ServePlan,
    sh: &mut ServeHarness,
    inputs: &Inputs,
    calls: usize,
    fresh: bool,
) -> BTreeMap<Route, RouteCost> {
    let router = Router::new(sh.state());
    let mut out = BTreeMap::new();
    for (route, _) in plan.weights() {
        let mut handle_us = Vec::with_capacity(calls);
        let mut encode_ns = Vec::with_capacity(calls);
        let mut bytes = 0.0;
        for k in 0..calls as u64 {
            let wire = inputs.request_for(route, k).bytes;
            let Parsed::Complete(req, _) = http::parse_request(&wire, LIMITS) else {
                panic!("generated request does not parse: {route:?}");
            };
            if fresh {
                sh.tick();
            }
            let t0 = Instant::now();
            let response = router.handle(&req);
            let (status, content_type) = (response.status, response.content_type);
            let (chunked, chunks): (bool, Vec<Vec<u8>>) = match response.body {
                Body::Full(b) => (false, vec![b]),
                Body::Chunks(it) => (true, it.collect()),
            };
            handle_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            bytes = chunks.iter().map(Vec::len).sum::<usize>() as f64;

            let t1 = Instant::now();
            let mut wire_out = Vec::with_capacity(bytes as usize + 256);
            if chunked {
                http::encode_head(&mut wire_out, status, content_type, Framing::Chunked, true);
                for c in &chunks {
                    http::encode_chunk(&mut wire_out, c);
                }
                http::encode_last_chunk(&mut wire_out);
            } else {
                let n = chunks[0].len();
                http::encode_head(
                    &mut wire_out,
                    status,
                    content_type,
                    Framing::Length(n),
                    true,
                );
                wire_out.extend_from_slice(&chunks[0]);
            }
            encode_ns.push(t1.elapsed().as_nanos() as f64);
            std::hint::black_box(&wire_out);
        }
        out.insert(
            route,
            RouteCost {
                us_per_call: median(handle_us),
                bytes,
                encode_ns: median(encode_ns),
            },
        );
    }
    out
}

/// Median ns of `http::parse_request` over the mix's sixteen requests.
pub fn parse_cost_ns(inputs: &Inputs, rounds: usize) -> f64 {
    let wires: Vec<Vec<u8>> = (0..inputs.pattern.len() as u64)
        .map(|k| inputs.request(k).bytes)
        .collect();
    let mut per_req = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for w in &wires {
            std::hint::black_box(http::parse_request(std::hint::black_box(w), LIMITS));
        }
        per_req.push(t0.elapsed().as_nanos() as f64 / wires.len() as f64);
    }
    median(per_req)
}

/// Median ns of `LiveState::snapshot()`: on `serve_churn` right after a
/// tick published a delta (the merge), on `serve_paced` with the merged
/// view already cached.
pub fn snapshot_cost_ns(plan: &ServePlan, sh: &mut ServeHarness, calls: usize) -> f64 {
    let state = sh.state();
    let mut ns = Vec::with_capacity(calls);
    std::hint::black_box(state.live.snapshot());
    for _ in 0..calls {
        if plan.kind == ServeKind::Churn {
            sh.tick();
        }
        let t0 = Instant::now();
        std::hint::black_box(state.live.snapshot());
        ns.push(t0.elapsed().as_nanos() as f64);
    }
    median(ns)
}

/// Socket p50 of each route of the mix alone: one connection, closed
/// loop, `seconds` per route, the harness not ticking — so every request
/// finds the merged view cached and the figure differs from the cached
/// in-process cost by the wire alone.
pub fn socket_p50_us(
    plan: &ServePlan,
    sh: &mut ServeHarness,
    place: Option<Placement>,
    addr: SocketAddr,
    inputs: &Inputs,
    seconds: f64,
) -> (BTreeMap<Route, f64>, u64, u64) {
    let routes: Vec<Route> = plan.weights().into_iter().map(|(r, _)| r).collect();
    let (reports, _) = drive(sh, place, None, move || {
        routes
            .iter()
            .map(|&route| {
                let mut next = |k: u64| inputs.request_for(route, k);
                (
                    route,
                    loadgen::run_phase(addr, Loop::Closed, 1, seconds, &mut next),
                )
            })
            .collect::<Vec<_>>()
    });
    let mut p50 = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for (route, report) in reports {
        attempted += report.attempted;
        failed += report.failed();
        p50.insert(route, median(latencies_us(&report)));
    }
    (p50, attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A generator that dies must fail the run, not leave the tick loop
    /// waiting for it.
    #[test]
    #[should_panic(expected = "generator thread panicked")]
    fn drive_ends_when_the_generator_panics() {
        let plan = ServePlan {
            kind: ServeKind::Churn,
            machines: 8,
            clean_min: 1,
            planted_min: 1,
        };
        let mut sh = plan.setup(3);
        drive(&mut sh, None, Some(plan.pace()), || panic!("bad response"));
    }
}
