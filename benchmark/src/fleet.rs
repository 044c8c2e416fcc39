//! The two fleets and the two ways the benchmark drives them.
//!
//! [`Reference`] is the system as shipped: a [`Cpi2Harness`] stepped in
//! a plain loop, timed per tick from outside — the end-to-end numbers
//! come from it. [`Mirror`] is `Cpi2Harness::step`'s no-fault path
//! rewritten here from public calls only, with one span around each
//! call into a layer — the per-layer numbers come from it. Both are
//! driven through [`Driver`], and a traced run executes both on the
//! same seed and requires identical incidents, caps and digest, so the
//! mirror cannot drift from what it claims to measure.

use std::collections::HashMap;
use std::time::Instant;

use cpi2::core::{
    Agent, AgentCommand, Cpi2Config, CpiSample, Incident, IncidentAction, TaskClass, TraceId,
    TraceLog, TraceSpan, TraceStage,
};
use cpi2::harness::{class_for, handle_for, task_for, Cpi2Harness, MachineIncident};
use cpi2::perf::{ClusterSampler, CounterReading};
use cpi2::pipeline::{Aggregator, Collector, CollectorHandle, RetryQueue, SpecStore};
use cpi2::sim::{
    Cluster, ClusterConfig, JobId, JobSpec, MachineId, Platform, ResourceProfile, SimDuration,
    SimTime, TaskId,
};
use cpi2::telemetry::Telemetry;
use cpi2::workloads::{self, CacheThrasher, LsService};

use crate::stats::SLICES;
use crate::trace::{Laps, Name, Tracer};

/// Which fleet a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetKind {
    /// Mostly-healthy 12-core fleet, ≈2.8 tasks per machine, no
    /// antagonists: per-machine fixed cost dominates.
    Sparse,
    /// 24-core fleet, ≈25 tasks per machine, one planted cache thrasher
    /// per machine: per-task cost dominates and detect → identify → cap
    /// fires continuously.
    Dense,
}

/// A fleet to build and how long to warm it up.
#[derive(Debug, Clone, Copy)]
pub struct FleetPlan {
    /// Which fleet.
    pub kind: FleetKind,
    /// Machines.
    pub machines: u32,
    /// Clean simulated minutes before the forced spec refresh.
    pub warmup_min: i64,
    /// Worker threads for the per-machine phase of `Cluster::step`.
    pub parallelism: usize,
}

impl FleetPlan {
    /// The CPI² configuration the fleet runs under.
    pub fn config(&self) -> Cpi2Config {
        match self.kind {
            FleetKind::Sparse => Cpi2Config {
                min_samples_per_task: 5,
                ..Cpi2Config::default()
            },
            FleetKind::Dense => Cpi2Config {
                min_samples_per_task: 5,
                incident_cooldown_s: 180,
                auto_throttle: true,
                ..Cpi2Config::default()
            },
        }
    }

    /// Builds the cluster with every job placed (antagonists excluded:
    /// see [`plant_antagonists`]).
    pub fn build(&self, seed: u64) -> Cluster {
        let mut cluster = Cluster::new(ClusterConfig {
            seed,
            overcommit: 2.0,
            parallelism: self.parallelism,
            ..ClusterConfig::default()
        });
        match self.kind {
            FleetKind::Sparse => build_sparse(&mut cluster, self.machines, seed),
            FleetKind::Dense => build_dense(&mut cluster, self.machines, seed),
        }
        cluster
    }
}

/// The perf_gate / fleet_rate fleet: four catalog serving jobs spread
/// thin plus two small tenants per machine.
fn build_sparse(cluster: &mut Cluster, machines: u32, seed: u64) {
    cluster.add_machines(&Platform::westmere(), machines);
    for (name, share, cpu) in [
        ("websearch-leaf", 0.25f64, 2.0),
        ("bigtable-tablet", 0.20, 1.2),
        ("storage-server", 0.15, 1.0),
        ("image-frontend", 0.15, 1.0),
    ] {
        let tasks = ((f64::from(machines) * share) as u32).max(6);
        cluster
            .submit_job(
                JobSpec::latency_sensitive(name, tasks, cpu),
                true,
                workloads::factory(name, seed ^ 0xFEE ^ u64::from(tasks)),
            )
            .expect("sparse fleet: serving job placement");
    }
    cluster
        .submit_job(
            JobSpec::latency_sensitive("tenant", machines * 2, 0.2),
            true,
            Box::new(move |i| small_tenant(seed ^ 0x7E ^ u64::from(i))),
        )
        .expect("sparse fleet: tenant placement");
}

/// Half Westmere, half Sandy Bridge, all widened to 24 cores; four
/// cache-heavy victim jobs with one task per machine each and forty
/// tenant jobs with a task on every other machine.
fn build_dense(cluster: &mut Cluster, machines: u32, seed: u64) {
    let westmere = machines / 2;
    cluster.add_machines(
        &Platform {
            cores: 24,
            ..Platform::westmere()
        },
        westmere,
    );
    cluster.add_machines(
        &Platform {
            cores: 24,
            ..Platform::sandy_bridge()
        },
        machines - westmere,
    );
    for v in 0..4u64 {
        cluster
            .submit_job(
                JobSpec::latency_sensitive(format!("victim-{v}"), machines, 1.0),
                true,
                Box::new(move |i| {
                    Box::new(LsService::new(
                        ResourceProfile::cache_heavy(),
                        1.0,
                        8,
                        seed ^ (v << 32) ^ u64::from(i),
                    ))
                }),
            )
            .expect("dense fleet: victim placement");
    }
    for t in 0..40u64 {
        cluster
            .submit_job(
                JobSpec::latency_sensitive(format!("tenant-{t:02}"), (machines / 2).max(1), 0.2),
                true,
                Box::new(move |i| small_tenant(seed ^ 0x7E ^ (t << 32) ^ u64::from(i))),
            )
            .expect("dense fleet: tenant placement");
    }
}

/// The small compute-bound tenant both fleets are padded with.
pub fn small_tenant(seed: u64) -> Box<dyn cpi2::sim::TaskModel> {
    let mut p = ResourceProfile::compute_bound();
    p.cache_mb = 0.5;
    Box::new(LsService::new(p, 0.2, 6, seed))
}

/// Plants one bursting cache thrasher per machine on a dense fleet (a
/// no-op on the sparse one, which stays healthy).
pub fn plant_antagonists(cluster: &mut Cluster, plan: &FleetPlan, seed: u64) {
    if plan.kind != FleetKind::Dense {
        return;
    }
    cluster
        .submit_job(
            JobSpec::batch("thrasher", plan.machines, 4.0),
            true,
            Box::new(move |i| {
                Box::new(
                    CacheThrasher::new(8.0, 240, 240, seed ^ 0x7A5 ^ u64::from(i))
                        .with_footprint(32.0),
                )
            }),
        )
        .expect("dense fleet: thrasher placement");
}

/// Exact counts a run leaves behind; identical across commits for a
/// pure speed-up, and between [`Reference`] and [`Mirror`] on one seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Incidents reported.
    pub incidents: u64,
    /// Incidents whose action was a hard cap.
    pub acted: u64,
    /// Hard caps the cluster accepted.
    pub caps: u64,
    /// Sample batches the collector refused for good.
    pub dropped: u64,
    /// Sample batches abandoned after every retry.
    pub abandoned: u64,
    /// FNV-1a over every incident, see [`IncidentDigest`].
    pub digest: u64,
}

/// Running FNV-1a over `(at, machine, victim, cpi bits, action, target)`
/// of every incident in report order, with the counts that go with it.
#[derive(Debug, Clone, Copy)]
pub struct IncidentDigest {
    hash: u64,
    incidents: u64,
    acted: u64,
}

impl Default for IncidentDigest {
    fn default() -> Self {
        IncidentDigest {
            hash: 0xcbf2_9ce4_8422_2325,
            incidents: 0,
            acted: 0,
        }
    }
}

impl IncidentDigest {
    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds one incident in.
    pub fn push(&mut self, machine: MachineId, inc: &Incident) {
        self.incidents += 1;
        self.eat(inc.at as u64);
        self.eat(u64::from(machine.0));
        self.eat(inc.victim.0);
        self.eat(inc.victim_cpi.to_bits());
        match &inc.action {
            IncidentAction::None { .. } => {
                self.eat(0);
                self.eat(0);
            }
            IncidentAction::HardCap { target, .. } => {
                self.acted += 1;
                self.eat(1);
                self.eat(target.0);
            }
        }
    }

    /// The outcome record for a run that applied `caps` caps.
    pub fn outcome(&self, caps: u64, dropped: u64, abandoned: u64) -> Outcome {
        Outcome {
            incidents: self.incidents,
            acted: self.acted,
            caps,
            dropped,
            abandoned,
            digest: self.hash,
        }
    }
}

fn outcome_of(incidents: &[MachineIncident], caps: u64, dropped: u64, abandoned: u64) -> Outcome {
    let mut digest = IncidentDigest::default();
    for mi in incidents {
        digest.push(mi.machine, &mi.incident);
    }
    digest.outcome(caps, dropped, abandoned)
}

/// What [`run_timed`] needs from either way of driving a fleet.
pub trait Driver {
    /// One tick of the whole chain.
    fn step(&mut self);
    /// Counts so far.
    fn outcome(&self) -> Outcome;
}

/// The shipped harness, warmed up and ready to time.
pub struct Reference(pub Cpi2Harness);

impl Reference {
    /// Builds the fleet, runs the clean warm-up, forces the first spec
    /// refresh, and plants the antagonists.
    pub fn setup(plan: &FleetPlan, seed: u64) -> Reference {
        let mut h = Cpi2Harness::new(plan.build(seed), plan.config());
        h.run_for(SimDuration::from_mins(plan.warmup_min));
        h.force_spec_refresh();
        plant_antagonists(&mut h.cluster, plan, seed);
        Reference(h)
    }
}

impl Driver for Reference {
    fn step(&mut self) {
        self.0.step();
    }

    fn outcome(&self) -> Outcome {
        outcome_of(
            self.0.incidents(),
            self.0.caps_applied(),
            self.0.collector_dropped(),
            self.0.shipments_abandoned(),
        )
    }
}

/// Wall time of a timed region, cut into [`SLICES`] equal runs of ticks.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// Ticks in the region.
    pub ticks: u64,
    /// Wall ns of the whole region.
    pub wall_ns: u64,
    /// Wall ns of each slice.
    pub slice_ns: Vec<u64>,
    /// Wall ns of every tick, in order.
    pub tick_ns: Vec<f64>,
}

/// Steps `driver` for `ticks` ticks (rounded down to a multiple of
/// [`SLICES`]), timing every tick from outside.
pub fn run_timed(driver: &mut dyn Driver, ticks: u64) -> Timing {
    let per_slice = (ticks / SLICES as u64).max(1);
    let mut timing = Timing {
        ticks: per_slice * SLICES as u64,
        tick_ns: Vec::with_capacity((per_slice as usize) * SLICES),
        ..Timing::default()
    };
    let start = Instant::now();
    let mut last = start;
    for _ in 0..SLICES {
        let slice_start = last;
        for _ in 0..per_slice {
            driver.step();
            let now = Instant::now();
            timing.tick_ns.push((now - last).as_nanos() as f64);
            last = now;
        }
        timing.slice_ns.push((last - slice_start).as_nanos() as u64);
    }
    timing.wall_ns = (last - start).as_nanos() as u64;
    timing
}

/// Work counted at the layer boundaries of a traced loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Machine-ticks stepped.
    pub mticks: u64,
    /// Counter readings the samplers produced.
    pub readings: u64,
    /// CPI samples handed to agents.
    pub samples: u64,
    /// Sample batches offered to the collector.
    pub batches_offered: u64,
    /// Spec refreshes that fired.
    pub refreshes: u64,
    /// Specs those refreshes published.
    pub specs_published: u64,
}

/// Span names of the agent + pipeline half of a tick.
#[derive(Debug, Clone, Copy)]
struct DetectSpans {
    /// Spec store → agent sync.
    spec_sync: Name,
    /// `Agent::ingest` + `take_incidents` + `take_trace_spans`.
    ingest: Name,
    /// `RetryQueue::send_or_queue`.
    offer: Name,
    /// `RetryQueue::flush` + `Collector::drain_into`.
    drain: Name,
    /// `Aggregator::maybe_refresh` when it rolled the period.
    refresh: Name,
    /// `Aggregator::maybe_refresh` when nothing was due.
    refresh_idle: Name,
}

impl DetectSpans {
    fn register(tracer: &mut Tracer) -> DetectSpans {
        DetectSpans {
            spec_sync: tracer.register("pipeline.spec_sync"),
            ingest: tracer.register("core.ingest"),
            offer: tracer.register("pipeline.offer"),
            drain: tracer.register("pipeline.drain"),
            refresh: tracer.register("pipeline.refresh"),
            refresh_idle: tracer.register("pipeline.refresh.idle"),
        }
    }
}

/// What one batch made its machine's agent say.
pub struct Verdict {
    /// Caps the agent wants applied.
    pub commands: Vec<AgentCommand>,
    /// Incidents it reported.
    pub incidents: Vec<Incident>,
    /// Trace spans it recorded.
    pub trace_spans: Vec<TraceSpan>,
}

/// The paper's own system — per-machine agents, collector, aggregator,
/// spec store — driven the way `Cpi2Harness::step` drives it, one span
/// per call into a layer. [`Mirror`] feeds it batches fresh from the
/// sampler; the replay workload feeds it recorded ones.
pub struct Detect {
    config: Cpi2Config,
    telemetry: Telemetry,
    agents: HashMap<MachineId, Agent>,
    agent_versions: HashMap<MachineId, u64>,
    /// The spec aggregation service.
    pub aggregator: Aggregator,
    /// The versioned spec store.
    pub spec_store: SpecStore,
    collector: Collector,
    collector_handle: CollectorHandle,
    retry_queue: RetryQueue,
    spans: DetectSpans,
    /// Work counted since construction.
    pub counts: Counts,
}

impl Detect {
    /// Agents and pipeline for a fleet of `machines`, wired up exactly as
    /// `Cpi2Harness::new` does, its span names registered with `tracer`.
    pub fn new(
        config: Cpi2Config,
        telemetry: &Telemetry,
        machines: usize,
        start_us: i64,
        tracer: &mut Tracer,
    ) -> Detect {
        let collector = Collector::with_telemetry((machines * 4).max(1024), telemetry);
        let collector_handle = collector.handle();
        let mut aggregator = Aggregator::new(config.clone(), start_us);
        aggregator.set_telemetry(telemetry);
        aggregator.set_dedup_horizon(Some(3_600_000_000));
        let mut spec_store = SpecStore::new();
        spec_store.set_telemetry(telemetry);
        let mut retry_queue = RetryQueue::default();
        retry_queue.set_telemetry(telemetry);
        Detect {
            config,
            telemetry: telemetry.clone(),
            agents: HashMap::new(),
            agent_versions: HashMap::new(),
            aggregator,
            spec_store,
            collector,
            collector_handle,
            retry_queue,
            spans: DetectSpans::register(tracer),
            counts: Counts::default(),
        }
    }

    /// Re-registers the span names after the tracer was replaced.
    pub fn register(&mut self, tracer: &mut Tracer) {
        self.spans = DetectSpans::register(tracer);
    }

    /// Brings `machine`'s agent up to date with the spec store and hands
    /// it `batch`.
    pub fn ingest(
        &mut self,
        tracer: &mut Tracer,
        laps: &mut Laps,
        machine: MachineId,
        batch: &[CpiSample],
    ) -> Verdict {
        let agent = self.agents.entry(machine).or_insert_with(|| {
            let mut a = Agent::new(self.config.clone());
            a.set_telemetry(&self.telemetry);
            a
        });
        let since = self.agent_versions.entry(machine).or_insert(0);
        let store_version = self.spec_store.version();
        if *since < store_version {
            for (spec, published_at) in self.spec_store.changed_since_with_age(*since) {
                agent.install_spec_at(spec, published_at);
            }
            *since = store_version;
        }
        laps.lap(tracer, self.spans.spec_sync);

        let verdict = Verdict {
            commands: agent.ingest(batch),
            incidents: agent.take_incidents(),
            trace_spans: agent.take_trace_spans(),
        };
        self.counts.samples += batch.len() as u64;
        laps.lap(tracer, self.spans.ingest);
        verdict
    }

    /// Ships `batch` towards the collector.
    pub fn offer(&mut self, tracer: &mut Tracer, laps: &mut Laps, batch: Vec<CpiSample>, now: i64) {
        self.counts.batches_offered += 1;
        self.retry_queue
            .send_or_queue(&self.collector_handle, batch, now);
        laps.lap(tracer, self.spans.offer);
    }

    /// End of tick: retries what is queued and drains the collector into
    /// the aggregator.
    pub fn drain(&mut self, tracer: &mut Tracer, laps: &mut Laps, now: i64) {
        self.retry_queue.flush(&self.collector_handle, now);
        self.collector.drain_into(&mut self.aggregator);
        laps.lap(tracer, self.spans.drain);
    }

    /// Rolls the spec period if it is due; says whether it was.
    pub fn refresh(&mut self, tracer: &mut Tracer, laps: &mut Laps, now: i64) -> bool {
        match self.aggregator.maybe_refresh(now, &self.spec_store) {
            Some(specs) => {
                self.counts.refreshes += 1;
                self.counts.specs_published += specs.len() as u64;
                laps.lap(tracer, self.spans.refresh);
                true
            }
            None => {
                laps.lap(tracer, self.spans.refresh_idle);
                false
            }
        }
    }

    /// Batches the collector refused for good, and batches abandoned
    /// after every retry.
    pub fn lost(&self) -> (u64, u64) {
        (
            self.collector.dropped(),
            self.retry_queue.abandoned_batches(),
        )
    }
}

/// Span names of the rest of the mirror loop.
#[derive(Debug, Clone, Copy)]
struct Spans {
    /// One whole tick (root).
    step: Name,
    /// `Cluster::step`.
    sim: Name,
    /// `ClusterSampler::poll`, one per machine.
    poll: Name,
    /// Readings → `CpiSample`s.
    to_sample: Name,
    /// Incident and command bookkeeping (harness glue).
    bookkeep: Name,
    /// `Cluster::apply_hard_cap` and its trace span.
    cap: Name,
}

impl Spans {
    fn register(tracer: &mut Tracer) -> Spans {
        Spans {
            step: tracer.register("harness.step"),
            sim: tracer.register("sim.step"),
            poll: tracer.register("perf.poll"),
            to_sample: tracer.register("harness.to_sample"),
            bookkeep: tracer.register("harness.bookkeep"),
            cap: tracer.register("sim.cap"),
        }
    }
}

/// `Cpi2Harness::step`'s no-fault path (default policies: no placement
/// feedback, no victim migration), from public calls only.
pub struct Mirror {
    /// The cluster under management.
    pub cluster: Cluster,
    sampler: ClusterSampler,
    /// Agents and pipeline.
    pub detect: Detect,
    telemetry: Telemetry,
    incidents: Vec<MachineIncident>,
    caps_applied: u64,
    offense_counts: HashMap<(JobId, JobId), u32>,
    trace_log: TraceLog,
    /// Span recorder (disabled during warm-up).
    pub tracer: Tracer,
    spans: Spans,
    /// When set, every offered batch is also copied here (the replay
    /// workload's recording).
    pub recording: Option<Vec<(MachineId, Vec<CpiSample>)>>,
}

impl Mirror {
    /// Wraps a cluster exactly as `Cpi2Harness::new` does.
    pub fn new(cluster: Cluster, config: Cpi2Config) -> Mirror {
        let telemetry = cluster.telemetry().clone();
        let mut tracer = Tracer::new(false);
        let detect = Detect::new(
            config,
            &telemetry,
            cluster.machines().len(),
            cluster.now().as_us(),
            &mut tracer,
        );
        Mirror {
            sampler: ClusterSampler::with_telemetry(&telemetry),
            cluster,
            detect,
            telemetry,
            incidents: Vec::new(),
            caps_applied: 0,
            offense_counts: HashMap::new(),
            trace_log: TraceLog::default(),
            spans: Spans::register(&mut tracer),
            tracer,
            recording: None,
        }
    }

    /// Same set-up as [`Reference::setup`], through the mirror loop.
    pub fn setup(plan: &FleetPlan, seed: u64) -> Mirror {
        let mut m = Mirror::new(plan.build(seed), plan.config());
        for _ in 0..plan.warmup_min * 60 {
            m.step();
        }
        let now = m.cluster.now().as_us();
        m.detect.aggregator.refresh_at(&m.detect.spec_store, now);
        plant_antagonists(&mut m.cluster, plan, seed);
        m.detect.counts = Counts::default();
        m
    }

    /// Replaces the (disabled) tracer with a recording one.
    pub fn start_tracing(&mut self) {
        self.tracer = Tracer::new(true);
        self.detect.register(&mut self.tracer);
        self.spans = Spans::register(&mut self.tracer);
    }
}

impl Driver for Mirror {
    fn step(&mut self) {
        let sp = self.spans;
        let tracer = &mut self.tracer;
        let mut laps = tracer.laps(sp.step, self.detect.counts.mticks);

        self.cluster.step();
        let now = self.cluster.now();
        laps.lap(tracer, sp.sim);

        let mut pending_caps: Vec<(TaskId, f64, SimTime, TraceId)> = Vec::new();
        let machine_count = self.cluster.machines().len();
        self.detect.counts.mticks += machine_count as u64;
        for i in 0..machine_count {
            let machine = &self.cluster.machines()[i];
            let readings = self.sampler.poll(machine, now);
            laps.lap(tracer, sp.poll);
            if readings.is_empty() {
                continue;
            }
            self.detect.counts.readings += readings.len() as u64;
            let batch: Vec<CpiSample> = readings
                .iter()
                .filter_map(|r| {
                    let t = machine.task(r.task)?;
                    Some(to_sample(r, class_for(t.class)))
                })
                .collect();
            let machine_id = machine.id;
            laps.lap(tracer, sp.to_sample);

            let verdict = self.detect.ingest(tracer, &mut laps, machine_id, &batch);

            for inc in verdict.incidents {
                if let IncidentAction::HardCap { target, .. } = &inc.action {
                    let pair = (task_for(inc.victim).job, task_for(*target).job);
                    *self.offense_counts.entry(pair).or_insert(0) += 1;
                }
                self.incidents.push(MachineIncident {
                    machine: machine_id,
                    incident: inc,
                });
            }
            for span in verdict.trace_spans {
                self.trace_log.record(span);
            }
            for cmd in verdict.commands {
                let AgentCommand::ApplyHardCap {
                    target,
                    cpu_rate,
                    until,
                    trace,
                    ..
                } = cmd;
                pending_caps.push((task_for(target), cpu_rate, SimTime(until), trace));
            }
            laps.lap(tracer, sp.bookkeep);
            if let Some(rec) = &mut self.recording {
                // The copy is the recorder's cost, not the chain's.
                rec.push((machine_id, batch.clone()));
                laps.skip(tracer);
            }

            self.detect.offer(tracer, &mut laps, batch, now.as_us());
        }

        self.detect.drain(tracer, &mut laps, now.as_us());

        for (task, rate, until, trace) in pending_caps {
            if self.cluster.apply_hard_cap(task, rate, until) {
                self.caps_applied += 1;
                let span = TraceSpan {
                    trace,
                    stage: TraceStage::Amelioration,
                    start_us: now.as_us(),
                    end_us: until.as_us(),
                    detail: format!(
                        "hard_cap task={}/{} rate={rate} until={}",
                        task.job.0,
                        task.index,
                        until.as_us()
                    ),
                };
                self.telemetry.event("trace", || span.event_line());
                self.trace_log.record(span);
            }
        }
        laps.lap(tracer, sp.cap);

        self.detect.refresh(tracer, &mut laps, now.as_us());
        laps.close(tracer);
    }

    fn outcome(&self) -> Outcome {
        let (dropped, abandoned) = self.detect.lost();
        outcome_of(&self.incidents, self.caps_applied, dropped, abandoned)
    }
}

/// `cpi2::harness`'s private reading → sample conversion.
fn to_sample(r: &CounterReading, class: TaskClass) -> CpiSample {
    CpiSample {
        task: handle_for(r.task),
        jobname: r.job_name.clone(),
        platforminfo: r.platform.clone(),
        timestamp: r.timestamp.as_us(),
        cpu_usage: r.cpu_usage,
        cpi: r.cpi.unwrap_or(0.0),
        l3_mpki: r.l3_mpki,
        class,
    }
}
