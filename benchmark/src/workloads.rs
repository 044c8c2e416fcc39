//! The five workloads: what each builds, times, checks and reports.
//!
//! An untraced run produces the end-to-end metrics from the system as
//! shipped. A traced run does half the work twice — once untraced as a
//! control, once through the span-recording mirror — requires the two
//! to agree exactly, and produces the per-layer metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cpi2_serve::ServeHarness;

use crate::fleet::{self, Driver, FleetKind, FleetPlan, Mirror, Outcome, Reference, Timing};
use crate::kernels;
use crate::loadgen::Route;
use crate::replay::{self, Recording, RECORD_MIN};
use crate::report::{nproc, peak_rss_mb, Metric, WorkloadResult};
use crate::serve::{self, Inputs, ServeKind, ServePlan, MIN_PER_SLICE};
use crate::stats::{percentile_of_slices, rate_of_slices, Spread, SLICES};
use crate::trace::{NameSummary, Tracer};

/// Simulated minutes `fleet_sparse` covers per requested second
/// (≈ 1 s of wall time each on the box the sizes were fixed on).
const SPARSE_MIN_PER_S: f64 = 56.0;
/// Simulated minutes `fleet_dense` covers per requested second.
const DENSE_MIN_PER_S: f64 = 32.0;
/// Replay passes per requested second.
const REPLAY_PASSES_PER_S: f64 = 6.0;

/// How one workload run was asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Size of the timed region, in seconds on the reference box.
    pub seconds: f64,
    /// Produce per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// 1/50-size fleets and a single set-up: the `smoke` subcommand.
    pub smoke: bool,
    /// Where span files go.
    pub out_dir: PathBuf,
}

impl RunArgs {
    fn machines(&self, full: u32, smoke: u32) -> u32 {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median.
    fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// Runs one workload; `None` for an unknown name.
pub fn run(args: &RunArgs) -> Option<WorkloadResult> {
    let mut result = match args.workload.as_str() {
        "fleet_sparse" => fleet_workload(FleetKind::Sparse, args),
        "fleet_dense" => fleet_workload(FleetKind::Dense, args),
        "detect_replay" => replay_workload(args),
        "serve_paced" => serve_workload(ServeKind::Paced, args),
        "serve_churn" => serve_workload(ServeKind::Churn, args),
        _ => return None,
    };
    result.complete(args.traced);
    Some(result)
}

/// Sets up `n` times, dropping each world before building the next, and
/// returns the last world with the spread of the set-up times.
fn timed_setups<W>(n: usize, mut setup: impl FnMut() -> W) -> (W, Spread) {
    let mut seconds = Vec::with_capacity(n);
    let mut world = None;
    for _ in 0..n.max(1) {
        drop(world.take());
        let t0 = Instant::now();
        world = Some(setup());
        seconds.push(t0.elapsed().as_secs_f64());
    }
    (world.expect("at least one set-up"), Spread::of(&seconds))
}

fn us(ns: &[f64]) -> Vec<f64> {
    ns.iter().map(|v| v / 1e3).collect()
}

/// The end-to-end metrics every untraced run reports; `ops` is how many
/// operations (ticks or requests) the median was taken over.
fn end_to_end(r: &mut WorkloadResult, setup: Spread, work: Spread, op_p50_us: Spread, ops: usize) {
    r.push(Metric::sliced("setup_s", setup));
    r.push(Metric::sliced("work_per_s", work));
    r.push(Metric::sliced("op_p50_us", op_p50_us).with_note(format!("{ops} samples")));
    r.push(Metric::plain("peak_rss_mb", peak_rss_mb()));
}

/// The end-to-end metrics of a tick-driven run.
fn end_to_end_ticks(r: &mut WorkloadResult, setup: Spread, work: Spread, timing: &Timing) {
    let p50 = percentile_of_slices(&us(&timing.tick_ns), 0.5, 1);
    end_to_end(r, setup, work, p50, timing.tick_ns.len());
}

/// Work units per second in each slice of a tick-sliced region.
fn work_rate(timing: &Timing, units: u64) -> Spread {
    let per_slice = units as f64 / SLICES as f64;
    let rates: Vec<f64> = timing
        .slice_ns
        .iter()
        .map(|&ns| per_slice / (ns as f64 / 1e9))
        .collect();
    Spread::of(&rates)
}

fn fleet_plan(kind: FleetKind, args: &RunArgs) -> (FleetPlan, u64) {
    let (machines, warmup_min, rate) = match kind {
        FleetKind::Sparse => (args.machines(400, 8), 30, SPARSE_MIN_PER_S),
        FleetKind::Dense => (args.machines(96, 12), 25, DENSE_MIN_PER_S),
    };
    // Whole sampling periods, a multiple of two per slice.
    let minutes = ((rate * args.seconds / 16.0).round() as u64).max(1) * 16;
    (
        FleetPlan {
            kind,
            machines,
            warmup_min,
            parallelism: 1,
        },
        minutes * 60,
    )
}

fn fleet_workload(kind: FleetKind, args: &RunArgs) -> WorkloadResult {
    let (plan, ticks) = fleet_plan(kind, args);
    let mut r = WorkloadResult::default();
    if !args.traced {
        let (mut world, setup) = timed_setups(args.setups(), || Reference::setup(&plan, args.seed));
        let timing = fleet::run_timed(&mut world, ticks);
        let outcome = world.outcome();
        // Every machine hosts tasks, so each closes one sampling window —
        // one batch — per simulated minute (the traced run checks this).
        r.attempted = u64::from(plan.machines) * timing.ticks / 60;
        r.failed = outcome.dropped + outcome.abandoned;
        let work = work_rate(&timing, timing.ticks * u64::from(plan.machines));
        end_to_end_ticks(&mut r, setup, work, &timing);
        check_fleet_outcome(&mut r, kind, &outcome, args.smoke);
        return r;
    }

    let half = ticks / 2;
    let mut control = Reference::setup(&plan, args.seed);
    let untraced = fleet::run_timed(&mut control, half);
    let want = control.outcome();
    drop(control);
    let mut mirror = Mirror::setup(&plan, args.seed);
    mirror.start_tracing();
    let traced = fleet::run_timed(&mut mirror, half);
    let got = mirror.outcome();
    r.check(
        "mirror loop reproduces Cpi2Harness (digest, incidents, caps)",
        want == got,
        format!("harness {want:?} / mirror {got:?}"),
    );
    let expected_batches = u64::from(plan.machines) * traced.ticks / 60;
    r.check(
        "one batch per machine per sampling period",
        mirror.detect.counts.batches_offered == expected_batches,
        format!(
            "{} offered, {expected_batches} expected",
            mirror.detect.counts.batches_offered
        ),
    );
    check_fleet_outcome(&mut r, kind, &got, args.smoke);
    r.attempted = mirror.detect.counts.batches_offered;
    r.failed = got.dropped + got.abandoned;
    r.digest = Some(got.digest);

    let summaries = mirror.tracer.summaries();
    chain_metrics(
        &mut r,
        &summaries,
        "harness.step",
        &mirror.detect.counts,
        &got,
    );
    overhead_metrics(&mut r, &summaries, "harness.step", &untraced, &traced);
    write_spans(&mut r, &mirror.tracer, &args.out_dir, &args.workload);

    let tenancy = match kind {
        FleetKind::Sparse => "t3",
        FleetKind::Dense => "t25",
    };
    r.push(Metric::plain(
        &format!("sim.interference.ns_per_call.{tenancy}"),
        kernels::interference_ns_per_call(&mirror.cluster),
    ));
    r.push(Metric::plain(
        "sim.cap.ns_per_call",
        kernels::cap_ns_per_call(&mut mirror.cluster),
    ));
    r.push(Metric::plain(
        "sim.machine_tick.ns_per_task",
        kernels::machine_tick_ns_per_task(&mut mirror.cluster),
    ));
    r.push(Metric::plain(
        "workloads.demand.ns_per_call",
        kernels::demand_ns_per_call(kind, args.seed),
    ));
    let (dirty, clean) = kernels::refresh_us(&mut mirror);
    r.push(Metric::plain("pipeline.refresh.us_dirty", dirty));
    r.push(Metric::plain("pipeline.refresh.us_clean", clean));
    r.push(Metric::plain(
        "pipeline.shards_skipped",
        mirror.detect.aggregator.shards_skipped() as f64,
    ));
    r.push(Metric::plain(
        "pipeline.duplicates_dropped",
        mirror.detect.aggregator.duplicates_dropped() as f64,
    ));
    drop(mirror);
    match kind {
        FleetKind::Sparse => {
            let (cells, minutes) = if args.smoke { (2, 5) } else { (24, 120) };
            let (sim, step) = kernels::one_machine_cells(cells, minutes, args.seed);
            r.push(Metric::plain("sim.step.ns_per_mtick.m1", sim));
            r.push(Metric::plain("harness.step.ns_per_mtick.m1", step));
        }
        FleetKind::Dense => {
            let workers = nproc().min(4);
            let pool_ticks = (args.seconds * 600.0) as u64;
            r.push(
                Metric::plain(
                    "sim.pool.speedup",
                    kernels::pool_speedup(&plan, args.seed, pool_ticks.max(60), workers),
                )
                .with_note(format!("parallelism {workers} over 1, {pool_ticks} ticks")),
            );
        }
    }
    r
}

fn check_fleet_outcome(r: &mut WorkloadResult, kind: FleetKind, outcome: &Outcome, smoke: bool) {
    if kind == FleetKind::Dense && !smoke {
        r.check(
            "detect -> identify -> cap fires on the dense fleet",
            outcome.caps > 0,
            format!("{} incidents, {} caps", outcome.incidents, outcome.caps),
        );
    }
    r.check(
        "no sample batch dropped or abandoned",
        outcome.dropped + outcome.abandoned == 0,
        format!(
            "{} dropped, {} abandoned",
            outcome.dropped, outcome.abandoned
        ),
    );
}

fn find<'a>(summaries: &'a [NameSummary], name: &str) -> Option<&'a NameSummary> {
    summaries.iter().find(|s| s.name == name)
}

fn total_ns(summaries: &[NameSummary], name: &str) -> f64 {
    find(summaries, name).map_or(0.0, |s| s.total_ns as f64)
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Per-layer metrics of the sim → sampler → agent → pipeline chain from
/// the spans of a traced fleet or replay run, and its exact counts.
fn chain_metrics(
    r: &mut WorkloadResult,
    s: &[NameSummary],
    root: &str,
    counts: &fleet::Counts,
    outcome: &Outcome,
) {
    let whole = total_ns(s, root).max(1.0);
    let t = |name: &str| total_ns(s, name);
    let pipeline = t("pipeline.spec_sync")
        + t("pipeline.offer")
        + t("pipeline.drain")
        + t("pipeline.refresh")
        + t("pipeline.refresh.idle");
    // The replay's own generator cost (batch copies, spec pinning) is
    // neither a layer nor harness glue.
    let generator = t("replay.clone") + t("replay.pin");
    let layers = t("sim.step") + t("perf.poll") + t("core.ingest") + pipeline + generator;
    for (name, value) in [
        ("sim.step.ns_per_mtick", per(t("sim.step"), counts.mticks)),
        ("sim.step.share", t("sim.step") / whole),
        ("perf.poll.ns_per_mtick", per(t("perf.poll"), counts.mticks)),
        (
            "perf.poll.ns_per_reading",
            per(t("perf.poll"), counts.readings),
        ),
        ("perf.poll.share", t("perf.poll") / whole),
        (
            "harness.to_sample.ns_per_sample",
            per(t("harness.to_sample"), counts.samples),
        ),
        // Everything in a tick that is none of the four layers: sample
        // conversion, incident bookkeeping, cap execution, loop glue.
        ("harness.share", (whole - layers) / whole),
        (
            "core.ingest.ns_per_sample",
            per(t("core.ingest"), counts.samples),
        ),
        (
            "core.ingest.batch_p99_us",
            find(s, "core.ingest").map_or(0.0, |x| x.p99_ns / 1e3),
        ),
        ("core.share", t("core.ingest") / whole),
        (
            "pipeline.spec_sync.ns_per_batch",
            per(t("pipeline.spec_sync"), counts.batches_offered),
        ),
        (
            "pipeline.offer.ns_per_batch",
            per(t("pipeline.offer"), counts.batches_offered),
        ),
        (
            "pipeline.drain.ns_per_sample",
            per(t("pipeline.drain"), counts.samples),
        ),
        ("pipeline.share", pipeline / whole),
        (
            "replay.clone.ns_per_sample",
            per(t("replay.clone"), counts.samples),
        ),
        ("sim.mticks", counts.mticks as f64),
        ("perf.readings", counts.readings as f64),
        ("core.samples", counts.samples as f64),
        ("core.incidents", outcome.incidents as f64),
        ("core.caps", outcome.caps as f64),
        (
            "core.acted_share",
            per(outcome.acted as f64, outcome.incidents),
        ),
        ("pipeline.batches_offered", counts.batches_offered as f64),
        (
            "pipeline.batches_dropped",
            (outcome.dropped + outcome.abandoned) as f64,
        ),
        ("pipeline.refreshes", counts.refreshes as f64),
        ("pipeline.specs_published", counts.specs_published as f64),
        // The low 48 bits: exact in a JSON number.
        ("digest", (outcome.digest & 0xFFFF_FFFF_FFFF) as f64),
    ] {
        r.push(Metric::plain(name, value));
    }
}

/// `trace.overhead_share` from the untraced/traced pair and
/// `trace.unattributed_share` from the spans.
fn overhead_metrics(
    r: &mut WorkloadResult,
    s: &[NameSummary],
    root: &str,
    untraced: &Timing,
    traced: &Timing,
) {
    let overhead = (traced.wall_ns as f64 - untraced.wall_ns as f64) / untraced.wall_ns as f64;
    r.push(
        Metric::plain("trace.overhead_share", overhead).with_note(format!(
            "untraced {:.3} s, traced {:.3} s",
            untraced.wall_ns as f64 / 1e9,
            traced.wall_ns as f64 / 1e9
        )),
    );
    r.push(
        Metric::sliced(
            "harness.tick.p99_us",
            percentile_of_slices(&us(&untraced.tick_ns), 0.99, 1),
        )
        .with_note(format!("untraced control, {} ticks", untraced.ticks)),
    );
    let covered: f64 = s
        .iter()
        .filter(|x| x.name != root)
        .map(|x| x.total_ns as f64)
        .sum();
    let unattributed = 1.0 - covered / traced.wall_ns.max(1) as f64;
    r.push(Metric::plain("trace.unattributed_share", unattributed));
    if unattributed >= 0.10 {
        r.findings.push(format!(
            "trace.unattributed_share is {unattributed:.3}: a tenth or more of the traced wall \
             time is under no span"
        ));
    }
}

fn write_spans(r: &mut WorkloadResult, tracer: &Tracer, dir: &Path, workload: &str) {
    let path = dir.join(format!("{workload}.spans.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        r.check(
            "span file written",
            false,
            format!("{}: {e}", path.display()),
        );
    }
}

fn replay_workload(args: &RunArgs) -> WorkloadResult {
    let plan = FleetPlan {
        kind: FleetKind::Dense,
        machines: args.machines(96, 12),
        warmup_min: 25,
        parallelism: 1,
    };
    let passes = ((REPLAY_PASSES_PER_S * args.seconds / SLICES as f64).round() as u64).max(1)
        * SLICES as u64;
    let mut r = WorkloadResult::default();
    if !args.traced {
        let (mut rec, setup) = timed_setups(args.setups(), || Recording::capture(&plan, args.seed));
        let run = replay::replay(&mut rec, passes, false);
        r.attempted = run.counts.batches_offered;
        r.failed = run.outcome.dropped + run.outcome.abandoned;
        let work = work_rate(&run.timing, run.counts.samples);
        end_to_end_ticks(&mut r, setup, work, &run.timing);
        check_replay(&mut r, &run, passes, args.smoke);
        return r;
    }

    let half = (passes / 2).max(SLICES as u64);
    let mut rec = Recording::capture(&plan, args.seed);
    let control = replay::replay(&mut rec, half, false);
    let run = replay::replay(&mut rec, half, true);
    r.check(
        "traced replay reproduces the untraced one (digest, incidents, caps)",
        control.outcome == run.outcome && control.counts == run.counts,
        format!("untraced {:?} / traced {:?}", control.outcome, run.outcome),
    );
    check_replay(&mut r, &run, half, args.smoke);
    r.attempted = run.counts.batches_offered;
    r.failed = run.outcome.dropped + run.outcome.abandoned;
    r.digest = Some(run.outcome.digest);

    // No simulator ran: the machine-ticks are the recording's, replayed.
    let summaries = run.tracer.summaries();
    chain_metrics(&mut r, &summaries, "replay.tick", &run.counts, &run.outcome);
    overhead_metrics(
        &mut r,
        &summaries,
        "replay.tick",
        &control.timing,
        &run.timing,
    );
    write_spans(&mut r, &run.tracer, &args.out_dir, &args.workload);
    r.push(Metric::plain(
        "pipeline.refresh.us_dirty",
        per(
            total_ns(&summaries, "pipeline.refresh") / 1e3,
            run.counts.refreshes,
        ),
    ));
    r.push(Metric::plain(
        "pipeline.refresh.us_clean",
        run.refresh_clean_us,
    ));
    r.push(Metric::plain(
        "pipeline.shards_skipped",
        run.shards_skipped as f64,
    ));
    r.push(Metric::plain(
        "pipeline.duplicates_dropped",
        run.duplicates_dropped as f64,
    ));
    r
}

fn check_replay(r: &mut WorkloadResult, run: &replay::ReplayRun, passes: u64, smoke: bool) {
    // Specs roll hourly and a pass is one simulated hour.
    let want = if smoke { 1 } else { passes / 2 };
    r.check(
        "hourly spec refresh fires through the replay",
        run.counts.refreshes >= want,
        format!(
            "{} refreshes in {passes} passes of {RECORD_MIN} simulated minutes",
            run.counts.refreshes
        ),
    );
    r.check(
        "no sample batch dropped or abandoned",
        run.outcome.dropped + run.outcome.abandoned == 0,
        format!(
            "{} dropped, {} abandoned",
            run.outcome.dropped, run.outcome.abandoned
        ),
    );
}

fn serve_workload(kind: ServeKind, args: &RunArgs) -> WorkloadResult {
    let plan = ServePlan {
        kind,
        machines: args.machines(400, 8),
        clean_min: 10,
        planted_min: if args.smoke { 10 } else { 60 },
    };
    let mut r = WorkloadResult::default();
    let place = serve::Placement::choose();
    match place {
        Some(p) if serve::affinity::pin(p.request_cpu) => {}
        _ => r
            .findings
            .push("could not pin threads to CPUs: serve timings will be bimodal".into()),
    }
    let setups = if args.traced { 1 } else { args.setups() };
    let (mut sh, setup) = timed_setups(setups, || plan.setup(args.seed));
    if !args.smoke {
        r.check(
            "incident tail and trace log are full before timing",
            plan.saturated(&sh),
            format!(
                "{} incidents, {} traces",
                sh.inner().incidents().len(),
                sh.inner().trace_log().len()
            ),
        );
    }
    let inputs = Inputs::generate(&plan, &sh, args.seed);
    r.check(
        "fleet offers a published spec and a cappable task",
        inputs.usable(),
        inputs.describe(),
    );
    if !inputs.usable() {
        return r;
    }
    let addr = serve::serve(&mut sh);
    // Traced: half the closed loop, and on `serve_paced` as much open loop.
    let (open_s, closed_s) = match (args.traced, kind) {
        (false, _) => (0.0, args.seconds),
        (true, ServeKind::Paced) => (args.seconds / 2.0, args.seconds / 2.0),
        (true, ServeKind::Churn) => (0.0, args.seconds / 2.0),
    };
    let load = serve::run_load(&plan, &mut sh, place, addr, &inputs, open_s, closed_s);
    r.attempted = load.attempted();
    r.failed = load.failed();
    for (why, n) in load.failures() {
        r.findings.push(format!("{n} requests failed: {why}"));
    }
    r.check(
        "every response has the right status, framing and body shape",
        load.failed() == 0,
        format!("{} of {} failed", load.failed(), load.attempted()),
    );

    if !args.traced {
        let work = rate_of_slices(
            load.closed.records.iter().map(|x| x.done_ns),
            load.closed.wall_ns,
        );
        end_to_end(
            &mut r,
            setup,
            work,
            serve::mix_p50_us(&plan, &load.closed),
            load.closed.records.len(),
        );
        sh.shutdown_server();
        return r;
    }

    write_spans(
        &mut r,
        &load_spans(&plan, &load),
        &args.out_dir,
        &args.workload,
    );
    load_metrics(&mut r, &plan, &load);
    let state = sh.state();
    r.push(Metric::plain(
        "serve.actions.applied",
        (state.actions.accepted() - state.actions.pending() as u64) as f64,
    ));

    let per_route_s = if args.smoke { 0.05 } else { 0.25 };
    let (socket, sent, failed) =
        serve::socket_p50_us(&plan, &mut sh, place, addr, &inputs, per_route_s);
    r.attempted += sent;
    r.failed += failed;
    sh.shutdown_server();
    route_table(&mut r, &plan, &mut sh, &inputs, &socket, args.smoke);
    r
}

/// Client-side spans of a load run, built from the records both modes
/// keep — so the traced load costs the server nothing extra.
fn load_spans(plan: &ServePlan, load: &serve::LoadRun) -> Tracer {
    let mut tracer = Tracer::new(true);
    let tick_span = tracer.register("serve.tick");
    let request_spans = Route::ALL.map(|route| tracer.register(route.span_name()));
    let mut at = 0u64;
    for (i, ns) in load.ticks.tick_ns.iter().enumerate() {
        tracer.span(tick_span, i as u64, at, at + *ns as u64);
        at += *ns as u64 + plan.pace().as_nanos() as u64;
    }
    for phase in load.phases() {
        for (i, rec) in phase.records.iter().enumerate() {
            let start = rec.done_ns.saturating_sub(rec.latency_ns as u64);
            tracer.span(
                request_spans[rec.route as usize],
                i as u64,
                start,
                rec.done_ns,
            );
        }
    }
    tracer
}

/// What the load run itself says about the tick thread and the generator.
fn load_metrics(r: &mut WorkloadResult, plan: &ServePlan, load: &serve::LoadRun) {
    let tick_us = us(&load.ticks.tick_ns);
    let ticks = load.ticks.tick_ns.len() as u64;
    for (name, value) in [
        (
            "serve.tick.p50_us",
            percentile_of_slices(&tick_us, 0.50, 100).median,
        ),
        (
            "serve.tick.p99_us",
            percentile_of_slices(&tick_us, 0.99, 100).median,
        ),
        (
            "serve.publish.us_per_tick",
            per(load.ticks.publish_us as f64, load.ticks.publishes),
        ),
        (
            "serve.delta_depth.mean",
            per(load.ticks.depth_sum as f64, ticks),
        ),
        (
            "loadgen.req.p99_us",
            percentile_of_slices(&serve::latencies_us(&load.closed), 0.99, MIN_PER_SLICE).median,
        ),
        ("loadgen.reconnects", load.reconnects() as f64),
        // The spans are derived after the fact: nothing to pay.
        ("trace.overhead_share", 0.0),
    ] {
        r.push(Metric::plain(name, value));
    }
    if let Some(open) = &load.open {
        r.push(Metric::sliced(
            "loadgen.open.p50_us",
            serve::mix_p50_us(plan, open),
        ));
        r.push(Metric::sliced(
            "loadgen.open.p99_us",
            percentile_of_slices(&serve::latencies_us(open), 0.99, MIN_PER_SLICE),
        ));
        r.push(Metric::sliced(
            "loadgen.late_p99_us",
            percentile_of_slices(&us(&open.late_ns), 0.99, MIN_PER_SLICE),
        ));
    }
}

/// The in-process cost table set against the per-route socket medians.
fn route_table(
    r: &mut WorkloadResult,
    plan: &ServePlan,
    sh: &mut ServeHarness,
    inputs: &Inputs,
    socket: &BTreeMap<Route, f64>,
    smoke: bool,
) {
    // The cost table is read the way the workload reads: churn pays a
    // merge per call. The wire term needs like for like with the socket
    // pass, so it always uses the cached figures.
    let calls = if smoke { 10 } else { 60 };
    let cached = serve::route_costs(plan, sh, inputs, calls, false);
    let costs = match plan.kind {
        ServeKind::Paced => cached.clone(),
        ServeKind::Churn => serve::route_costs(plan, sh, inputs, calls, true),
    };
    let parse_ns = serve::parse_cost_ns(inputs, calls);
    r.push(Metric::plain("serve.parse.ns_per_req", parse_ns));
    r.push(Metric::plain(
        "serve.snapshot.ns_per_call",
        serve::snapshot_cost_ns(plan, sh, calls),
    ));

    // Mix-weighted means over the sixteen slots.
    let weights = plan.weights();
    let mean = |f: &dyn Fn(Route) -> f64| weights.iter().map(|&(rt, w)| w * f(rt)).sum::<f64>();
    let route_us = mean(&|rt| costs[&rt].us_per_call);
    let encode_ns = mean(&|rt| costs[&rt].encode_ns);
    let socket_us = mean(&|rt| socket[&rt]);
    // Per route, what the socket adds to parse + cached handler + encode
    // (floored at zero: on a millisecond route the difference of the two
    // medians is noise), then mix-weighted.
    let wire_us = mean(&|rt| {
        let inside = (parse_ns + cached[&rt].encode_ns) / 1e3 + cached[&rt].us_per_call;
        (socket[&rt] - inside).max(0.0)
    });
    r.push(Metric::plain("serve.encode.ns_per_resp", encode_ns));
    r.push(
        Metric::plain("serve.wire.us_per_req", wire_us).with_note(format!(
            "socket p50 - (parse + cached route + encode) per route, mix-weighted; socket {socket_us:.1} us"
        )),
    );
    // The serve table's unattributed term is the wire share.
    r.push(Metric::plain(
        "trace.unattributed_share",
        wire_us / socket_us.max(1e-9),
    ));
    for &(route, w) in &weights {
        let label = route.label();
        let cost = costs[&route];
        for (name, value) in [
            (format!("serve.route.{label}.us_per_call"), cost.us_per_call),
            (format!("serve.route.{label}.bytes"), cost.bytes),
            (format!("serve.e2e.{label}.p50_us"), socket[&route]),
            (
                format!("serve.mix.cost_share.{label}"),
                w * cost.us_per_call / route_us.max(1e-9),
            ),
        ] {
            r.push(Metric::plain(&name, value));
        }
    }
}
