//! End-to-end CPI² deployment harness: cluster + samplers + per-machine
//! agents + aggregation pipeline, advanced under one clock.
//!
//! This is the Fig. 6 system assembled: every simulated machine gets a
//! duty-cycle counter sampler and a local management agent; samples flow
//! up to the aggregation service, refreshed CPI specs flow back down, and
//! agent hard-cap commands are executed against the machine's cgroups.

use cpi2_core::{
    Agent, AgentCommand, Cpi2Config, CpiSample, CpiSpec, Incident, IncidentAction, Name, TaskClass,
    TaskHandle, TraceId, TraceLog, TraceSpan, TraceStage,
};
use cpi2_perf::{ClusterSampler, CounterReading};
use cpi2_pipeline::{Aggregator, Collector, CollectorHandle, RetryQueue, SpecStore};
use cpi2_sim::{
    Cluster, FaultPlan, JobId, MachineId, SchedClass, ShipmentFate, SimDuration, SimTime, TaskId,
};
use cpi2_telemetry::{Counter, Telemetry};
use std::collections::{BTreeMap, HashMap};

/// Converts a simulator task id into the agent-facing opaque handle.
pub fn handle_for(task: TaskId) -> TaskHandle {
    TaskHandle(((task.job.0 as u64) << 32) | task.index as u64)
}

/// Recovers the simulator task id from a handle produced by [`handle_for`].
pub fn task_for(handle: TaskHandle) -> TaskId {
    TaskId {
        job: JobId((handle.0 >> 32) as u32),
        index: (handle.0 & 0xFFFF_FFFF) as u32,
    }
}

/// Maps a scheduling class to the agent-facing task class.
pub fn class_for(class: SchedClass) -> TaskClass {
    match class {
        SchedClass::LatencySensitive => TaskClass::latency_sensitive(),
        SchedClass::Batch => TaskClass::batch(),
        SchedClass::BestEffort => TaskClass::best_effort(),
    }
}

/// An incident together with the machine whose agent reported it.
#[derive(Debug, Clone)]
pub struct MachineIncident {
    /// The reporting machine.
    pub machine: MachineId,
    /// The incident.
    pub incident: Incident,
}

/// Cached telemetry handles for injected faults and degraded-mode events.
#[derive(Debug, Clone, Default)]
struct FaultMetrics {
    machine_crashes: Counter,
    agent_restarts: Counter,
    shipments_dropped: Counter,
    shipments_delayed: Counter,
    shipments_duplicated: Counter,
    spec_sync_stale: Counter,
}

impl FaultMetrics {
    fn new(telemetry: &Telemetry) -> FaultMetrics {
        FaultMetrics {
            machine_crashes: telemetry.counter("cpi_fault_machine_crashes_total", &[]),
            agent_restarts: telemetry.counter("cpi_fault_agent_restarts_total", &[]),
            shipments_dropped: telemetry.counter("cpi_fault_shipments_dropped_total", &[]),
            shipments_delayed: telemetry.counter("cpi_fault_shipments_delayed_total", &[]),
            shipments_duplicated: telemetry.counter("cpi_fault_shipments_duplicated_total", &[]),
            spec_sync_stale: telemetry.counter("cpi_fault_spec_sync_stale_total", &[]),
        }
    }
}

/// The assembled CPI² system over a simulated cluster.
pub struct Cpi2Harness {
    /// The cluster under management.
    pub cluster: Cluster,
    config: Cpi2Config,
    sampler: ClusterSampler,
    /// Each machine's agent with the spec-store version it has synced to.
    agents: HashMap<MachineId, (Agent, u64)>,
    /// The spec aggregation service.
    pub aggregator: Aggregator,
    /// The versioned spec store.
    pub spec_store: SpecStore,
    /// Telemetry handle shared by every component (adopted from the
    /// cluster's [`cpi2_sim::ClusterConfig::telemetry`]).
    telemetry: Telemetry,
    /// The cluster-wide collector (Fig. 6's left half): per-machine
    /// sample batches travel through its bounded channel before reaching
    /// the aggregation service, so back-pressure loss is modeled and
    /// counted instead of assumed away.
    collector: Collector,
    collector_handle: CollectorHandle,
    incidents: Vec<MachineIncident>,
    /// When true, every sample is retained in [`Cpi2Harness::samples`]
    /// (off by default: long runs produce millions).
    pub record_samples: bool,
    /// Retained samples (only when `record_samples` is set).
    pub samples: Vec<CpiSample>,
    caps_applied: u64,
    /// Cluster-wide protection switch (§5's operator interface: "turn CPI
    /// protection on or off for an entire cluster"). When off, agents
    /// still detect and report but cap commands are dropped.
    protection_enabled: bool,
    /// §9 future work: automatic antagonist-aware placement. When set,
    /// a (victim job, antagonist job) pair capped this many times gets an
    /// anti-affinity constraint and the antagonist is migrated away.
    pub placement_feedback_after: Option<u32>,
    offense_counts: HashMap<(JobId, JobId), u32>,
    migrations_triggered: u64,
    /// Case-4 remediation: a victim that keeps being anomalous with *no*
    /// cappable antagonist (chronic neighbourhood contention) is migrated
    /// to another machine after this many no-action incidents. "The
    /// correct response in a case like this would be to migrate the
    /// victim" (§6.1).
    pub migrate_chronic_victims_after: Option<u32>,
    chronic_counts: HashMap<TaskId, u32>,
    victim_migrations: u64,
    /// Active fault-injection plan, if any ([`Cpi2Harness::set_fault_plan`]).
    fault_plan: Option<FaultPlan>,
    /// Agent-side bounded retry for shipments the collector couldn't take.
    retry_queue: RetryQueue,
    /// Shipments held back by injected delay: delivery time (µs) → batches.
    delayed_shipments: BTreeMap<i64, Vec<Vec<CpiSample>>>,
    fault_metrics: FaultMetrics,
    agent_restarts: u64,
    machine_crashes: u64,
    shipment_faults: u64,
    /// End-to-end incident traces: bounded span chains keyed by trace ID
    /// (detection spans from the agents, amelioration spans appended here
    /// when caps execute). Served by `cpi2-serve` at
    /// `GET /incidents/{id}/trace`.
    trace_log: TraceLog,
}

impl Cpi2Harness {
    /// Wraps a cluster with a full CPI² deployment. The harness adopts
    /// the cluster's telemetry handle
    /// ([`cpi2_sim::ClusterConfig::telemetry`]), so enabling telemetry
    /// there instruments the whole stack — samplers, agents, collector,
    /// aggregator and spec store included. Samplers count
    /// `config.sampling_duration_s` of every `config.sampling_period_s`.
    ///
    /// # Panics
    ///
    /// Panics on a sampling schedule [`Cpi2Config::validate`] rejects.
    pub fn new(cluster: Cluster, config: Cpi2Config) -> Self {
        let start = cluster.now().as_us();
        let telemetry = cluster.telemetry().clone();
        let collector =
            Collector::with_telemetry((cluster.machines().len() * 4).max(1024), &telemetry);
        let collector_handle = collector.handle();
        let mut aggregator = Aggregator::new(config.clone(), start);
        aggregator.set_telemetry(&telemetry);
        // Idempotent ingest: a duplicated shipment must not skew spec
        // statistics. Only the fault plan's `Duplicate` fate copies a
        // shipment, and it offers both copies in one tick; a copy the
        // collector refuses is re-offered by the retry queue, flushed once
        // a tick, at the latest the redelivery span after that tick. A
        // delayed shipment is never copied and a restarted agent re-ships
        // nothing. No sample the aggregator has seen by then is newer than
        // the tick the copy arrives in, so a horizon of the span still
        // holds the first copy (DESIGN.md §7).
        let tick_us = cluster.tick_len().as_us();
        aggregator.set_dedup_horizon(Some(RetryQueue::redelivery_span_us(tick_us)));
        let mut spec_store = SpecStore::new();
        spec_store.set_telemetry(&telemetry);
        let mut retry_queue = RetryQueue::default();
        retry_queue.set_telemetry(&telemetry);
        let fault_metrics = FaultMetrics::new(&telemetry);
        let sampler = ClusterSampler::with_schedule(
            SimDuration::from_secs(config.sampling_duration_s),
            SimDuration::from_secs(config.sampling_period_s),
            &telemetry,
        );
        Cpi2Harness {
            cluster,
            config,
            sampler,
            agents: HashMap::new(),
            aggregator,
            spec_store,
            telemetry,
            collector,
            collector_handle,
            incidents: Vec::new(),
            record_samples: false,
            samples: Vec::new(),
            caps_applied: 0,
            protection_enabled: true,
            placement_feedback_after: None,
            offense_counts: HashMap::new(),
            migrations_triggered: 0,
            migrate_chronic_victims_after: None,
            chronic_counts: HashMap::new(),
            victim_migrations: 0,
            fault_plan: None,
            retry_queue,
            delayed_shipments: BTreeMap::new(),
            fault_metrics,
            agent_restarts: 0,
            machine_crashes: 0,
            shipment_faults: 0,
            trace_log: TraceLog::default(),
        }
    }

    /// The end-to-end incident trace log (bounded; oldest traces evicted).
    pub fn trace_log(&self) -> &TraceLog {
        &self.trace_log
    }

    /// The span chain for one incident trace, causal order.
    pub fn incident_trace(&self, id: TraceId) -> Option<&[TraceSpan]> {
        self.trace_log.get(id)
    }

    /// Victims migrated by the chronic-contention policy.
    pub fn victim_migrations(&self) -> u64 {
        self.victim_migrations
    }

    /// Turns cluster-wide CPI protection on or off (the §5 operator
    /// interface). Detection and reporting continue either way.
    pub fn set_protection_enabled(&mut self, enabled: bool) {
        self.protection_enabled = enabled;
    }

    /// Whether cap commands are currently executed.
    pub fn protection_enabled(&self) -> bool {
        self.protection_enabled
    }

    /// Operator action: manually hard-cap a task (§5: "we provide an
    /// interface to system operators so they can hard-cap suspects").
    /// A `duration` past the end of sim time caps the task for good.
    pub fn operator_cap(&mut self, task: TaskId, cpu_rate: f64, duration: SimDuration) -> bool {
        let until = SimTime(self.cluster.now().as_us().saturating_add(duration.as_us()));
        let ok = self.cluster.apply_hard_cap(task, cpu_rate, until);
        if ok {
            self.caps_applied += 1;
        }
        ok
    }

    /// Operator action: kill a persistent offender and restart it on
    /// another machine — "our version of task migration" (§5).
    pub fn operator_migrate(&mut self, task: TaskId) -> Option<MachineId> {
        self.cluster.migrate_task(task).ok()
    }

    /// Aggregates the incident log into "most aggressive antagonists"
    /// rows: `(job name, incidents acted on, max correlation)`, sorted by
    /// count. The operator's forensics overview (§5). A row's correlation
    /// is the capped suspect's own, which need not be the top suspect's:
    /// a latency-sensitive suspect can outrank the one capped.
    pub fn top_antagonists(&self, limit: usize) -> Vec<(String, u64, f64)> {
        let mut agg: HashMap<&str, (u64, f64)> = HashMap::new();
        for mi in &self.incidents {
            let inc = &mi.incident;
            if let IncidentAction::HardCap {
                target, target_job, ..
            } = &inc.action
            {
                let corr = inc
                    .suspects
                    .iter()
                    .find(|s| s.task == *target)
                    .map_or(0.0, |s| s.correlation);
                let e = agg.entry(target_job).or_insert((0, 0.0));
                e.0 += 1;
                e.1 = e.1.max(corr);
            }
        }
        let mut rows: Vec<(String, u64, f64)> = agg
            .into_iter()
            .map(|(k, (n, c))| (k.to_string(), n, c))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(limit);
        rows
    }

    /// Migrations triggered by automatic placement feedback.
    pub fn migrations_triggered(&self) -> u64 {
        self.migrations_triggered
    }

    /// The CPI² configuration in force.
    pub fn config(&self) -> &Cpi2Config {
        &self.config
    }

    /// The telemetry handle every component reports to (disabled unless
    /// the cluster was built with one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Sample batches dropped by the collector under back-pressure.
    pub fn collector_dropped(&self) -> u64 {
        self.collector.dropped()
    }

    /// All incidents reported so far (across machines), oldest first —
    /// less whatever [`Cpi2Harness::forget_incidents_beyond`] dropped.
    pub fn incidents(&self) -> &[MachineIncident] {
        &self.incidents
    }

    /// Forgets all but the newest `keep` incidents. Nothing calls this on
    /// a bare harness, whose log is the whole run; a resident deployment
    /// calls it every tick so the log cannot grow for as long as the
    /// daemon lives. [`Cpi2Harness::incidents`],
    /// [`Cpi2Harness::top_antagonists`] and
    /// [`Cpi2Harness::incident_lines`] then cover what is kept.
    pub fn forget_incidents_beyond(&mut self, keep: usize) {
        let excess = self.incidents.len().saturating_sub(keep);
        self.incidents.drain(..excess);
    }

    /// Total hard caps the system has applied.
    pub fn caps_applied(&self) -> u64 {
        self.caps_applied
    }

    /// The agent on a machine, if one has been instantiated (agents are
    /// created lazily at a machine's first sample).
    pub fn agent(&self, machine: MachineId) -> Option<&Agent> {
        self.agents.get(&machine).map(|(agent, _)| agent)
    }

    /// Advances the system by one cluster tick: machines run, samplers
    /// poll, agents detect/correlate/cap, the aggregator ingests, and spec
    /// refreshes propagate.
    pub fn step(&mut self) {
        let prev = self.cluster.now();
        self.cluster.step();
        let now = self.cluster.now();

        // Fault phase: fire every machine crash and agent restart that
        // came due inside this tick, in machine-id order so runs are
        // deterministic at any parallelism. A crash takes the machine's
        // agent daemon down with it; a bare agent restart loses the
        // agent's in-memory state (violation windows, spec cache) while
        // resident tasks keep running.
        if let Some(plan) = self.fault_plan.clone() {
            let machine_count = self.cluster.machines().len();
            for i in 0..machine_count {
                let machine_id = self.cluster.machines()[i].id;
                if plan.machine_crash_due(machine_id, prev, now) {
                    self.cluster.crash_machine(machine_id);
                    self.agents.remove(&machine_id);
                    self.machine_crashes += 1;
                    self.fault_metrics.machine_crashes.inc();
                } else if plan.agent_restart_due(machine_id, prev, now) {
                    self.agents.remove(&machine_id);
                    self.agent_restarts += 1;
                    self.fault_metrics.agent_restarts.inc();
                }
            }
        }

        // Sample every machine and run its agent.
        let mut pending_caps: Vec<(TaskId, f64, SimTime, TraceId)> = Vec::new();
        let mut chronic_victims: Vec<TaskId> = Vec::new();
        let machine_count = self.cluster.machines().len();
        for i in 0..machine_count {
            let machine = &self.cluster.machines()[i];
            let readings = self.sampler.poll(machine, now);
            if readings.is_empty() {
                continue;
            }
            let batch: Vec<CpiSample> = readings
                .iter()
                .filter_map(|r| {
                    let t = machine.task(r.task)?;
                    Some(to_sample(r, class_for(t.class)))
                })
                .collect();
            let machine_id = machine.id;

            if self.record_samples {
                self.samples.extend(batch.iter().cloned());
            }

            // Sync specs down to the agent, then let it analyze.
            let (agent, since) = self.agents.entry(machine_id).or_insert_with(|| {
                let mut a = Agent::new(self.config.clone());
                a.set_telemetry(&self.telemetry);
                (a, 0)
            });
            // Spec sync, possibly through a stale replica: a faulted sync
            // serves this machine an older store snapshot. Specs carry
            // their pipeline publish time so the agent's staleness TTL
            // keys off data age, not install time.
            let stale_lag = match &self.fault_plan {
                Some(p) if p.stale_sync(machine_id, now) => p.profile().stale_lag,
                _ => 0,
            };
            if stale_lag > 0 {
                self.fault_metrics.spec_sync_stale.inc();
            }
            let (version, changed) = self.spec_store.pull(*since, stale_lag);
            for (spec, published_at) in changed {
                agent.install_spec_at(spec, published_at);
            }
            *since = (*since).max(version);
            let commands = agent.ingest(&batch);
            for inc in agent.take_incidents() {
                // §9 placement-feedback bookkeeping: count repeat offences
                // per (victim job, antagonist job) pair.
                if let IncidentAction::HardCap { target, .. } = &inc.action {
                    let pair = (task_for(inc.victim).job, task_for(*target).job);
                    *self.offense_counts.entry(pair).or_insert(0) += 1;
                }
                // Case-4 bookkeeping: repeated anomalies with nothing to cap.
                if let (Some(limit), IncidentAction::None { .. }) =
                    (self.migrate_chronic_victims_after, &inc.action)
                {
                    let victim = task_for(inc.victim);
                    let n = self.chronic_counts.entry(victim).or_insert(0);
                    *n += 1;
                    if *n >= limit {
                        self.chronic_counts.remove(&victim);
                        chronic_victims.push(victim);
                    }
                }
                self.incidents.push(MachineIncident {
                    machine: machine_id,
                    incident: inc,
                });
            }
            for span in agent.take_trace_spans() {
                self.trace_log.record(span);
            }
            for cmd in commands {
                let AgentCommand::ApplyHardCap {
                    target,
                    cpu_rate,
                    until,
                    trace,
                    ..
                } = cmd;
                pending_caps.push((task_for(target), cpu_rate, SimTime(until), trace));
            }

            // Detection ran locally (§4.1); now push the batch up the
            // collection pipeline through the fault layer. A dropped or
            // delayed shipment degrades aggregation only — local
            // detection already happened.
            let fate = match &self.fault_plan {
                Some(p) => p.shipment_fate(machine_id, now),
                None => ShipmentFate::Deliver,
            };
            match fate {
                ShipmentFate::Deliver => {
                    self.retry_queue
                        .send_or_queue(&self.collector_handle, batch, now.as_us());
                }
                ShipmentFate::Drop => {
                    self.shipment_faults += 1;
                    self.fault_metrics.shipments_dropped.inc();
                }
                ShipmentFate::Delay(ticks) => {
                    self.shipment_faults += 1;
                    self.fault_metrics.shipments_delayed.inc();
                    let deliver_at = now.as_us() + self.cluster.tick_len().as_us() * ticks as i64;
                    self.delayed_shipments
                        .entry(deliver_at)
                        .or_default()
                        .push(batch);
                }
                ShipmentFate::Duplicate => {
                    self.shipment_faults += 1;
                    self.fault_metrics.shipments_duplicated.inc();
                    self.retry_queue.send_or_queue(
                        &self.collector_handle,
                        batch.clone(),
                        now.as_us(),
                    );
                    self.retry_queue
                        .send_or_queue(&self.collector_handle, batch, now.as_us());
                }
            }
        }

        // Release shipments whose injected delay has elapsed, then give
        // parked (backpressured) batches another chance.
        let still_delayed = self.delayed_shipments.split_off(&(now.as_us() + 1));
        let due = std::mem::replace(&mut self.delayed_shipments, still_delayed);
        for (_, batches) in due {
            for batch in batches {
                self.retry_queue
                    .send_or_queue(&self.collector_handle, batch, now.as_us());
            }
        }
        self.retry_queue.flush(&self.collector_handle, now.as_us());

        // Drain collected batches into the aggregation service.
        self.collector.drain_into(&mut self.aggregator);

        // Execute cap commands against the cluster (unless the operator
        // turned protection off for the cluster).
        if self.protection_enabled {
            for (task, rate, until, trace) in pending_caps {
                if self.cluster.apply_hard_cap(task, rate, until) {
                    self.caps_applied += 1;
                    // Close the loop in the incident trace: the cap the
                    // decision called for actually executed.
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

                // §9 future work: once a pair offends repeatedly, teach the
                // scheduler to keep them apart and move the offender now.
                if let Some(threshold) = self.placement_feedback_after {
                    let victim_jobs: Vec<JobId> = self
                        .offense_counts
                        .iter()
                        .filter(|(&(_, a), &n)| a == task.job && n >= threshold)
                        .map(|(&(v, _), _)| v)
                        .collect();
                    if !victim_jobs.is_empty() {
                        for v in victim_jobs {
                            self.cluster.scheduler_mut().add_anti_affinity(v, task.job);
                            self.offense_counts.remove(&(v, task.job));
                        }
                        if self.cluster.migrate_task(task).is_ok() {
                            self.migrations_triggered += 1;
                        }
                    }
                }
            }
        }

        // Migrate chronically contended victims to fresh machines.
        for victim in chronic_victims {
            if self.cluster.migrate_task(victim).is_ok() {
                self.victim_migrations += 1;
            }
        }

        // Roll the aggregation period when due.
        self.aggregator.maybe_refresh(now.as_us(), &self.spec_store);
    }

    /// Runs the system for a duration (whole ticks).
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.cluster.now() + duration;
        while self.cluster.now() < end {
            self.step();
        }
    }

    /// Forces an immediate spec refresh and distribution — used by
    /// experiments to bootstrap specs after a warm-up phase instead of
    /// waiting 24 simulated hours.
    pub fn force_spec_refresh(&mut self) -> Vec<CpiSpec> {
        self.aggregator
            .refresh_at(&self.spec_store, self.cluster.now().as_us())
    }

    /// Installs a spec directly into the store (bypassing aggregation) —
    /// for experiments with known ground-truth specs.
    pub fn install_spec(&mut self, spec: CpiSpec) {
        self.spec_store.publish(vec![spec]);
    }

    /// Arms (or with `None`, disarms) deterministic fault injection. The
    /// plan takes effect on the next [`Cpi2Harness::step`].
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Injected agent restarts fired so far (excluding machine crashes,
    /// which also take the agent down but are counted separately).
    pub fn agent_restarts(&self) -> u64 {
        self.agent_restarts
    }

    /// Injected machine crashes fired so far.
    pub fn machine_crashes(&self) -> u64 {
        self.machine_crashes
    }

    /// Injected shipment faults (drops + delays + duplications) so far.
    pub fn shipment_faults(&self) -> u64 {
        self.shipment_faults
    }

    /// Sample batches parked agent-side awaiting a collector retry.
    pub fn shipments_pending_retry(&self) -> usize {
        self.retry_queue.pending()
    }

    /// Sample batches abandoned after exhausting collector retries.
    pub fn shipments_abandoned(&self) -> u64 {
        self.retry_queue.abandoned_batches()
    }

    /// The spec-store version a machine's agent has synced up to (`None`
    /// if the machine has no live agent yet).
    pub fn agent_spec_version(&self, machine: MachineId) -> Option<u64> {
        self.agents.get(&machine).map(|&(_, version)| version)
    }

    /// Renders every incident as one stable text line (victim, CPI,
    /// ranked suspect, action, target) — the golden-trace format used by
    /// the fixed-seed regression fixtures.
    pub fn incident_lines(&self) -> Vec<String> {
        self.incidents
            .iter()
            .map(|mi| {
                let inc = &mi.incident;
                let suspect = inc
                    .top_suspect()
                    .map(|s| format!("{}@{:.3}", s.jobname, s.correlation))
                    .unwrap_or_else(|| "-".to_string());
                let (action, target) = match &inc.action {
                    IncidentAction::HardCap {
                        target,
                        target_job,
                        cpu_rate,
                        ..
                    } => (
                        "hard_cap",
                        format!("{}:{}@{}", target.0, target_job, cpu_rate),
                    ),
                    IncidentAction::None { reason } => ("none", reason.to_string()),
                };
                format!(
                    "t={} machine={} victim={}/{} cpi={:.4} suspect={} action={} target={}",
                    inc.at,
                    mi.machine.0,
                    inc.victim.0,
                    inc.victim_job,
                    inc.victim_cpi,
                    suspect,
                    action,
                    target
                )
            })
            .collect()
    }
}

fn to_sample(r: &CounterReading, class: TaskClass) -> CpiSample {
    CpiSample {
        task: handle_for(r.task),
        jobname: Name::clone(&r.job_name),
        platforminfo: Name::clone(&r.platform),
        timestamp: r.timestamp.as_us(),
        cpu_usage: r.cpu_usage,
        cpi: r.cpi.unwrap_or(0.0),
        l3_mpki: r.l3_mpki,
        class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_roundtrip() {
        let id = TaskId {
            job: JobId(12345),
            index: 678,
        };
        assert_eq!(task_for(handle_for(id)), id);
    }

    #[test]
    fn class_mapping() {
        assert!(class_for(SchedClass::LatencySensitive).protected);
        assert!(class_for(SchedClass::Batch).throttle_eligible());
        assert!(class_for(SchedClass::BestEffort).best_effort);
    }

    #[test]
    fn top_antagonists_credits_the_capped_suspects_own_correlation() {
        use cpi2_core::{IdentifierKind, Suspect};

        let cluster = Cluster::new(cpi2_sim::ClusterConfig::default());
        let mut system = Cpi2Harness::new(cluster, Cpi2Config::default());
        let suspect = |task, jobname: &str, class, correlation| Suspect {
            task: TaskHandle(task),
            jobname: jobname.into(),
            class,
            correlation,
            confidence: correlation,
        };
        // A latency-sensitive neighbour outranks the batch job, and
        // `select_target` passes it over.
        system.incidents.push(MachineIncident {
            machine: MachineId(0),
            incident: Incident {
                at: 60_000_000,
                victim: TaskHandle(1),
                victim_job: "svc".into(),
                victim_cpi: 3.0,
                cthreshold: 1.2,
                suspects: vec![
                    suspect(9, "frontend", TaskClass::latency_sensitive(), 0.9),
                    suspect(2, "hog", TaskClass::batch(), 0.5),
                ],
                action: IncidentAction::HardCap {
                    target: TaskHandle(2),
                    target_job: "hog".into(),
                    cpu_rate: 0.1,
                    until: 360_000_000,
                },
                identifier: IdentifierKind::Paper,
                trace_id: TraceId::derive(1, 60_000_000),
            },
        });
        assert_eq!(system.top_antagonists(5), vec![("hog".to_string(), 1, 0.5)]);
    }

    #[test]
    fn dedup_remembers_as_long_as_the_retry_queue_can_redeliver() {
        let cluster = Cluster::new(cpi2_sim::ClusterConfig::default());
        let system = Cpi2Harness::new(cluster, Cpi2Config::default());
        // One-second ticks: re-offers at +2 s and +6 s.
        assert_eq!(system.aggregator.dedup_horizon(), Some(6_000_000));
    }

    #[test]
    fn harness_wires_telemetry_end_to_end() {
        use cpi2_sim::{ClusterConfig, JobSpec, Platform};

        let telemetry = Telemetry::enabled();
        let mut cluster = cpi2_sim::Cluster::new(ClusterConfig {
            telemetry: telemetry.clone(),
            ..ClusterConfig::default()
        });
        cluster.add_machines(&Platform::westmere(), 2);
        cluster
            .submit_job(
                JobSpec::latency_sensitive("svc", 4, 1.0),
                true,
                cpi2_workloads::factory("websearch-leaf", 42),
            )
            .unwrap();
        let mut system = Cpi2Harness::new(cluster, Cpi2Config::default());
        system.run_for(SimDuration::from_mins(3));
        assert!(system.telemetry().is_enabled());
        let text = system.telemetry().prometheus_text().unwrap();
        // Every layer reported into the one registry.
        for metric in [
            "cpi_sim_ticks_total",
            "cpi_sampler_windows_total",
            "cpi_agent_samples_total",
            "cpi_collector_messages_total",
            "cpi_aggregator_samples_total",
        ] {
            assert!(text.contains(metric), "missing {metric} in:\n{text}");
        }
        assert_eq!(system.collector_dropped(), 0);
    }

    #[test]
    fn sampling_schedule_follows_config() {
        use cpi2_sim::{JobSpec, Platform};

        // One task, two hours: a reading per period.
        let readings = |config: Cpi2Config| {
            let mut cluster = Cluster::new(cpi2_sim::ClusterConfig::default());
            cluster.add_machines(&Platform::westmere(), 1);
            cluster
                .submit_job(
                    JobSpec::latency_sensitive("svc", 1, 1.0),
                    true,
                    cpi2_workloads::factory("websearch-leaf", 42),
                )
                .unwrap();
            let mut system = Cpi2Harness::new(cluster, config);
            system.record_samples = true;
            system.run_for(SimDuration::from_hours(2));
            system.samples.len()
        };
        assert_eq!(readings(Cpi2Config::default()), 120);
        assert_eq!(
            readings(Cpi2Config {
                sampling_duration_s: 30,
                sampling_period_s: 120,
                ..Cpi2Config::default()
            }),
            60
        );
    }

    #[test]
    fn an_operator_cap_longer_than_sim_time_holds() {
        use cpi2_sim::{ConstantLoad, JobSpec, Platform, ResourceProfile};

        let mut cluster = Cluster::new(cpi2_sim::ClusterConfig::default());
        cluster.add_machines(&Platform::westmere(), 1);
        let job = cluster
            .submit_job(
                JobSpec::batch("hog", 1, 4.0),
                true,
                Box::new(|_| Box::new(ConstantLoad::new(4.0, 4, ResourceProfile::streaming()))),
            )
            .unwrap();
        let task = TaskId { job, index: 0 };
        let mut system = Cpi2Harness::new(cluster, Cpi2Config::default());
        system.run_for(SimDuration::from_mins(1));
        // `now + i64::MAX µs` overflowed: a panic in a debug build, and in
        // a release build an expiry in the past, so the cap never bit.
        assert!(system.operator_cap(task, 0.1, SimDuration(i64::MAX)));
        system.run_for(SimDuration::from_mins(1));
        let machine = system.cluster.locate(task).unwrap();
        let out = system.cluster.machine(machine).unwrap().task(task).unwrap();
        let out = out.last_outcome().unwrap();
        assert!(out.capped && out.cpu_granted <= 0.1 + 1e-9, "{out:?}");
    }
}
