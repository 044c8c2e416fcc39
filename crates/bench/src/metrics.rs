//! Job-level metric collection from a running cluster.
//!
//! The motivation experiments (Figs. 2–5) plot application-level series —
//! transactions/sec, request latency — against counter-level series (IPS,
//! CPI). These helpers scrape both from the simulator each tick.

use cpi2::sim::{Cluster, SimDuration, TaskId, TickOutcome};

/// Aggregated job metrics for one tick.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobTick {
    /// Instruction-weighted mean CPI across the job's tasks.
    pub cpi: f64,
    /// Total instructions per second across tasks.
    pub ips: f64,
    /// Total application transactions per second (if the workload reports
    /// them).
    pub tps: f64,
    /// Mean request latency in ms (if the workload reports it).
    pub latency_ms: f64,
    /// Mean CPU usage per task, cores.
    pub cpu: f64,
    /// Tasks sampled.
    pub tasks: u32,
}

/// Scrapes one tick's aggregated metrics for a job.
///
/// Returns `None` if no task of the job has run yet.
pub fn job_tick(cluster: &Cluster, job_name: &str, dt: SimDuration) -> Option<JobTick> {
    let mut cycles = 0.0;
    let mut instr = 0.0;
    let mut tps = 0.0;
    let mut lat_sum = 0.0;
    let mut lat_n = 0u32;
    let mut cpu = 0.0;
    let mut n = 0u32;
    let dt_sec = dt.as_secs_f64();
    for m in cluster.machines() {
        for t in m.tasks() {
            if *t.job_name != *job_name {
                continue;
            }
            let Some(o) = t.last_outcome() else { continue };
            cycles += o.cpi * o.instructions;
            instr += o.instructions;
            cpu += o.cpu_granted;
            if let Some(x) = t.model().transactions(o, dt) {
                tps += x / dt_sec;
            }
            if let Some(l) = t.model().request_latency_ms(o) {
                lat_sum += l;
                lat_n += 1;
            }
            n += 1;
        }
    }
    if n == 0 || instr <= 0.0 {
        return None;
    }
    Some(JobTick {
        cpi: cycles / instr,
        ips: instr / dt_sec,
        tps,
        latency_ms: if lat_n > 0 {
            lat_sum / lat_n as f64
        } else {
            0.0
        },
        cpu: cpu / n as f64,
        tasks: n,
    })
}

/// One task's observation for per-task scatter figures (Fig. 4).
#[derive(Debug, Clone)]
pub struct TaskObservation {
    /// The task.
    pub task: TaskId,
    /// Platform name of its machine.
    pub platform: String,
    /// The tick outcome.
    pub outcome: TickOutcome,
    /// Request latency reported by the workload, if any.
    pub latency_ms: Option<f64>,
}

/// Scrapes every task of a job at the current tick.
pub fn per_task(cluster: &Cluster, job_name: &str) -> Vec<TaskObservation> {
    let mut out = Vec::new();
    for m in cluster.machines() {
        for t in m.tasks() {
            if *t.job_name != *job_name {
                continue;
            }
            let Some(o) = t.last_outcome() else { continue };
            out.push(TaskObservation {
                task: t.id,
                platform: m.platform.name.to_string(),
                outcome: *o,
                latency_ms: t.model().request_latency_ms(o),
            });
        }
    }
    out
}

/// Normalizes a series to its minimum (the paper plots "normalized to the
/// minimum value observed in the collection period").
///
/// # Panics
///
/// Panics if the minimum is not positive.
pub fn normalize_to_min(xs: &[f64]) -> Vec<f64> {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        min > 0.0,
        "normalize_to_min: min must be positive, got {min}"
    );
    xs.iter().map(|x| x / min).collect()
}

/// Buckets a per-tick series into fixed-size means (e.g. 10-minute means
/// over 2 hours).
pub fn bucket_means(xs: &[f64], bucket: usize) -> Vec<f64> {
    assert!(bucket > 0, "bucket size must be positive");
    xs.chunks(bucket)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform};
    use cpi2::workloads;

    #[test]
    fn job_tick_scrapes_running_job() {
        let mut c = Cluster::new(ClusterConfig::default());
        c.add_machines(&Platform::westmere(), 2);
        c.submit_job(
            JobSpec::latency_sensitive("websearch-leaf", 4, 2.0),
            true,
            workloads::factory("websearch-leaf", 1),
        )
        .unwrap();
        assert!(job_tick(&c, "websearch-leaf", c.tick_len()).is_none());
        c.run_for(cpi2::sim::SimDuration::from_secs(5));
        let m = job_tick(&c, "websearch-leaf", c.tick_len()).unwrap();
        assert_eq!(m.tasks, 4);
        assert!(m.cpi > 0.5);
        assert!(m.ips > 0.0);
        assert!(m.tps > 0.0);
        assert!(m.latency_ms > 0.0);
        assert!(job_tick(&c, "nope", c.tick_len()).is_none());
        assert_eq!(per_task(&c, "websearch-leaf").len(), 4);
    }

    #[test]
    fn normalize_and_bucket() {
        assert_eq!(normalize_to_min(&[2.0, 4.0, 6.0]), vec![1.0, 2.0, 3.0]);
        assert_eq!(
            bucket_means(&[1.0, 3.0, 5.0, 7.0, 9.0], 2),
            vec![2.0, 6.0, 9.0]
        );
    }
}
