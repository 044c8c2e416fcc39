//! Trace-driven cluster replay: job arrivals ([`TraceJob`]) scheduled
//! onto a simulated cluster through its event queue. Task behaviour
//! comes from the [`crate::catalog`] templates by name.

use crate::catalog;
use cpi2_sim::{
    Cluster, ClusterEvent, JobSpec, ResourceProfile, SimDuration, SimTime, TaskAction, TaskDemand,
    TaskModel, TickOutcome,
};
use cpi2_stats::rng::SimRng;

/// One job arrival in a replayable trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceJob {
    /// Arrival time, seconds since the trace epoch.
    pub at_s: i64,
    /// Catalog template name (see [`crate::catalog::factory`]).
    pub name: String,
    /// `"latency-sensitive"`, `"batch"` or `"best-effort"`.
    pub class: String,
    /// Task count.
    pub tasks: u32,
    /// Per-task CPU reservation, cores.
    pub cpu: f64,
    /// Seed for the job's task models.
    pub seed: u64,
    /// Optional lifetime; tasks exit on their own after this long.
    pub duration_s: Option<i64>,
}

/// Wraps a task model with a finite lifetime: the task exits on its own
/// once `ends_at` passes (trace departures).
struct FiniteModel {
    inner: Box<dyn TaskModel>,
    ends_at: SimTime,
    now: SimTime,
}

impl TaskModel for FiniteModel {
    fn profile(&self) -> ResourceProfile {
        self.inner.profile()
    }

    fn demand(&mut self, now: SimTime, dt: SimDuration, rng: &mut SimRng) -> TaskDemand {
        self.now = now;
        self.inner.demand(now, dt, rng)
    }

    fn observe(&mut self, now: SimTime, outcome: &TickOutcome) -> TaskAction {
        if now >= self.ends_at {
            return TaskAction::Exit;
        }
        self.inner.observe(now, outcome)
    }

    fn transactions(&self, outcome: &TickOutcome, dt: SimDuration) -> Option<f64> {
        self.inner.transactions(outcome, dt)
    }

    fn request_latency_ms(&self, outcome: &TickOutcome) -> Option<f64> {
        self.inner.request_latency_ms(outcome)
    }
}

/// Schedules every trace job onto the cluster's event queue (arrival times
/// are relative to the cluster's current time). Returns the number of jobs
/// scheduled.
pub fn schedule_trace(cluster: &mut Cluster, jobs: &[TraceJob]) -> usize {
    let base = cluster.now();
    for job in jobs {
        let spec = match job.class.as_str() {
            "latency-sensitive" => JobSpec::latency_sensitive(&job.name, job.tasks, job.cpu),
            "best-effort" => JobSpec::best_effort(&job.name, job.tasks, job.cpu),
            _ => JobSpec::batch(&job.name, job.tasks, job.cpu),
        };
        let at = base + SimDuration::from_secs(job.at_s);
        let name = job.name.clone();
        let seed = job.seed;
        let ends_at = job.duration_s.map(|d| at + SimDuration::from_secs(d));
        let factory: cpi2_sim::ModelFactory = Box::new(move |index| {
            let mut inner_factory = catalog::factory(&name, seed);
            let inner = inner_factory(index);
            match ends_at {
                Some(ends_at) => Box::new(FiniteModel {
                    inner,
                    ends_at,
                    now: SimTime::ZERO,
                }),
                None => inner,
            }
        });
        cluster.schedule_event(
            at,
            ClusterEvent::SubmitJob {
                spec,
                // Finite jobs must not be respawned when they expire.
                restart_on_exit: job.duration_s.is_none() && job.name != "mapreduce",
                factory,
            },
        );
    }
    jobs.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpi2_sim::{ClusterConfig, Platform};

    /// Serving arrives immediately, batch 10 minutes in, for one hour.
    fn sample() -> Vec<TraceJob> {
        let job = |at_s, name: &str, class: &str, tasks, cpu, seed, duration_s| TraceJob {
            at_s,
            name: name.into(),
            class: class.into(),
            tasks,
            cpu,
            seed,
            duration_s,
        };
        vec![
            job(0, "websearch-leaf", "latency-sensitive", 6, 2.0, 1, None),
            job(
                600,
                "video-processing",
                "best-effort",
                2,
                1.0,
                2,
                Some(3600),
            ),
        ]
    }

    #[test]
    fn replay_arrives_and_departs() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        cluster.add_machines(&Platform::westmere(), 4);
        assert_eq!(schedule_trace(&mut cluster, &sample()), 2);

        // Before t=0 fires nothing has arrived; after one step the LS job
        // is placed.
        cluster.run_for(SimDuration::from_secs(5));
        let count = |c: &Cluster, name: &str| {
            c.machines()
                .iter()
                .flat_map(|m| m.tasks())
                .filter(|t| *t.job_name == *name)
                .count()
        };
        assert_eq!(count(&cluster, "websearch-leaf"), 6);
        assert_eq!(count(&cluster, "video-processing"), 0);

        // After 10 minutes the batch job arrives...
        cluster.run_for(SimDuration::from_mins(11));
        assert_eq!(count(&cluster, "video-processing"), 2);

        // ...and it departs on schedule (600 s arrival + 3600 s lifetime).
        cluster.run_for(SimDuration::from_mins(61));
        assert_eq!(count(&cluster, "video-processing"), 0);
        assert_eq!(count(&cluster, "websearch-leaf"), 6, "LS job stays");
    }
}
