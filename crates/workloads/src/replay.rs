//! Trace-driven cluster replay.
//!
//! A downstream user's first question is "what does CPI² do on *my*
//! workload?" — this module answers it: describe job arrivals in a small
//! JSONL trace (one [`TraceJob`] per line) and replay them onto a
//! simulated cluster through its event queue. Task behaviour comes from
//! the [`crate::catalog`] templates by name.
//!
//! ```text
//! {"at_s":0,   "name":"websearch-leaf", "class":"latency-sensitive", "tasks":12, "cpu":2.0, "seed":1}
//! {"at_s":1800,"name":"video-processing","class":"best-effort","tasks":3,"cpu":1.0,"seed":2,"duration_s":3600}
//! ```

use crate::catalog;
use cpi2_sim::{
    Cluster, ClusterEvent, JobSpec, ResourceProfile, SimDuration, SimTime, TaskAction, TaskDemand,
    TaskModel, TickOutcome,
};
use cpi2_stats::rng::SimRng;
use serde::{Deserialize, Serialize};

/// One job arrival in a replayable trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    #[serde(default)]
    pub seed: u64,
    /// Optional lifetime; tasks exit on their own after this long.
    #[serde(default)]
    pub duration_s: Option<i64>,
}

/// Errors loading a trace.
#[derive(Debug)]
pub enum TraceError {
    /// A line failed to parse (line number, error).
    Parse(usize, serde_json::Error),
    /// An unknown scheduling class string.
    BadClass(usize, String),
    /// Invalid numeric fields.
    BadJob(usize, String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Parse(line, e) => write!(f, "trace line {line}: {e}"),
            TraceError::BadClass(line, c) => {
                write!(f, "trace line {line}: unknown class '{c}'")
            }
            TraceError::BadJob(line, why) => write!(f, "trace line {line}: {why}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Parses a JSONL trace (empty lines and `#` comments allowed).
///
/// # Errors
///
/// Returns the first malformed line.
pub fn parse_trace(text: &str) -> Result<Vec<TraceJob>, TraceError> {
    let mut jobs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let job: TraceJob = serde_json::from_str(line).map_err(|e| TraceError::Parse(i + 1, e))?;
        validate(&job, i + 1)?;
        jobs.push(job);
    }
    Ok(jobs)
}

fn validate(job: &TraceJob, line: usize) -> Result<(), TraceError> {
    if !matches!(
        job.class.as_str(),
        "latency-sensitive" | "batch" | "best-effort"
    ) {
        return Err(TraceError::BadClass(line, job.class.clone()));
    }
    if job.tasks == 0 {
        return Err(TraceError::BadJob(line, "tasks must be ≥ 1".into()));
    }
    if !(job.cpu.is_finite() && job.cpu > 0.0) {
        return Err(TraceError::BadJob(line, format!("bad cpu {}", job.cpu)));
    }
    if job.at_s < 0 {
        return Err(TraceError::BadJob(line, "at_s must be ≥ 0".into()));
    }
    if let Some(d) = job.duration_s {
        if d <= 0 {
            return Err(TraceError::BadJob(
                line,
                "duration_s must be positive".into(),
            ));
        }
    }
    Ok(())
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

    const SAMPLE: &str = r#"
# serving arrives immediately, batch 10 minutes in, for one hour
{"at_s":0,   "name":"websearch-leaf",   "class":"latency-sensitive", "tasks":6, "cpu":2.0, "seed":1}
{"at_s":600, "name":"video-processing", "class":"best-effort", "tasks":2, "cpu":1.0, "seed":2, "duration_s":3600}
"#;

    #[test]
    fn parses_sample_trace() {
        let jobs = parse_trace(SAMPLE).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name, "websearch-leaf");
        assert_eq!(jobs[1].duration_s, Some(3600));
    }

    #[test]
    fn rejects_bad_lines() {
        assert!(matches!(
            parse_trace("{\"at_s\":0"),
            Err(TraceError::Parse(1, _))
        ));
        let bad_class = r#"{"at_s":0,"name":"x","class":"weird","tasks":1,"cpu":1.0}"#;
        assert!(matches!(
            parse_trace(bad_class),
            Err(TraceError::BadClass(1, _))
        ));
        let bad_tasks = r#"{"at_s":0,"name":"x","class":"batch","tasks":0,"cpu":1.0}"#;
        assert!(matches!(
            parse_trace(bad_tasks),
            Err(TraceError::BadJob(1, _))
        ));
    }

    #[test]
    fn replay_arrives_and_departs() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        cluster.add_machines(&Platform::westmere(), 4);
        let jobs = parse_trace(SAMPLE).unwrap();
        assert_eq!(schedule_trace(&mut cluster, &jobs), 2);

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
